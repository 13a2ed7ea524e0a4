//! `agile-host`: seeded multi-VM chaos smoke and pressure sweep.
//!
//! Phase 1 runs the acceptance scenario — a 4-VM host on an overcommitted
//! shared frame pool with cross-VM shootdown loss injected — heals every
//! VM, asserts zero residual oracle violations and a clean host lint, and
//! prints the full rendered host log. Phase 2 sweeps host pressure (2 VMs
//! vs 4 VMs on the same pool) and tabulates what the arbiter did.
//!
//! Everything printed is **deterministic content only**: `gates` runs this
//! binary twice and byte-compares the output, so any divergence means the
//! host layer leaked nondeterminism (map-order ballooning, unsorted VM
//! iteration, racy dice).

use agile_core::host::{Host, HostConfig};
use agile_core::types::VmId;
use agile_core::{
    AgileOptions, ChurnSpec, DegradationKind, FaultPlan, Pattern, ShspOptions, SystemConfig,
    Technique, WorkloadSpec,
};

const ACCESSES: u64 = 600;

fn guest_spec(name: &str, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        footprint: 1 << 20,
        pattern: Pattern::Uniform,
        write_fraction: 0.3,
        accesses: ACCESSES,
        accesses_per_tick: (ACCESSES / 4).max(1),
        churn: ChurnSpec {
            remap_every: Some(200),
            remap_pages: 8,
            cow_every: Some(350),
            cow_pages: 8,
            clock_scan_every: Some(500),
            scan_pages: 16,
            churn_zone: 0.25,
            ctx_switch_every: None,
            processes: 1,
        },
        prefault: false,
        prefault_writes: true,
        seed,
    }
}

fn vm_techniques(n: usize) -> Vec<Technique> {
    [
        Technique::Agile(AgileOptions::default()),
        Technique::Nested,
        Technique::Shadow,
        Technique::Shsp(ShspOptions::default()),
    ]
    .into_iter()
    .cycle()
    .take(n)
    .collect()
}

/// Builds, runs, and heals an `n`-VM host over `pool_frames`; panics if
/// the chaos contract (zero residual violations, clean lint) is broken.
fn run_host(n: usize, pool_frames: u64, label: &str) -> Host {
    let mut host = Host::new(HostConfig::new(pool_frames).initial_lease(64));
    for (i, t) in vm_techniques(n).into_iter().enumerate() {
        let i = i as u64;
        host.add_vm(
            SystemConfig::new(t),
            guest_spec(&format!("{label}-vm{i}"), 0x90 + i),
            FaultPlan::new(0xA0 + i).drop_cross_vm_shootdowns(250),
        );
    }
    host.run();
    for i in 0..u32::try_from(n).expect("vm count") {
        if let Some(m) = host.machine_mut(VmId::new(i)) {
            let residual = m.heal_stale_caches();
            assert!(residual.is_empty(), "vm {i}: unhealed {residual:?}");
        }
    }
    assert_eq!(host.total_violations(), 0, "oracle violations after heal");
    let report = host.lint();
    assert!(report.diags.is_empty(), "host lint: {}", report.render());
    host
}

fn count_kind(host: &Host, vm: VmId, kind: DegradationKind) -> usize {
    host.machine(vm).map_or(0, |m| {
        m.degradation_events()
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    })
}

fn pressure_row(host: &Host, vm: VmId) -> String {
    let lease = host.pool().lease_of(vm);
    let ballooned = host.pool().surrendered_by(vm);
    let balloons = count_kind(host, vm, DegradationKind::BalloonRequest);
    let oom_skips = count_kind(host, vm, DegradationKind::OomSkip);
    let demotions = count_kind(host, vm, DegradationKind::TechniqueDemotion);
    let accesses = host.stats_of(vm).map_or(0, |s| s.accesses);
    format!(
        "vm={} accesses={accesses} lease={lease} ballooned={ballooned} \
         balloon_events={balloons} oom_skips={oom_skips} demotions={demotions}",
        vm.raw()
    )
}

fn main() {
    println!("# agile-host: 4-VM overcommit chaos smoke (pool=512, cross-vm drop 25%)");
    let host = run_host(4, 512, "quad");
    println!(
        "pool: capacity={} free={} leased={} conserved={}",
        host.pool().capacity(),
        host.pool().free(),
        host.pool().leased_total(),
        host.pool().is_conserved()
    );
    for i in 0..4 {
        println!("{}", pressure_row(&host, VmId::new(i)));
    }
    println!("## host log");
    print!("{}", host.render_full_log());

    println!("# pressure sweep: same 512-frame pool, 2 VMs vs 4 VMs");
    for n in [2usize, 4] {
        let host = run_host(n, 512, &format!("sweep{n}"));
        let starved = host
            .host_events()
            .iter()
            .filter(|e| e.kind == DegradationKind::VmStarved)
            .count();
        let total_ballooned: u64 = (0..n as u32)
            .map(|i| host.pool().surrendered_by(VmId::new(i)))
            .sum();
        println!(
            "vms={n} steps={} free_after={} total_ballooned={total_ballooned} \
             starvation_episodes={starved}",
            host.steps(),
            host.pool().free()
        );
        for i in 0..n as u32 {
            println!("  {}", pressure_row(&host, VmId::new(i)));
        }
    }
}
