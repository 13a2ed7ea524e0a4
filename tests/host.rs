//! The multi-VM host contract: N machines on one shared frame pool,
//! overcommitted, with cross-VM shootdown loss injected — and still every
//! fault heals or surfaces typed, no VM ever panics, and the same seeds
//! render a byte-identical host log.

use agile_paging::host::{Host, HostConfig};
use agile_paging::prelude::*;
use agile_paging::types::VmId;
use agile_paging::{Vma, VmaBacking};

/// A churny workload small enough to keep the suite fast but busy enough
/// to keep the balloon, the demotion path, and the shootdown protocol all
/// exercised (1 MiB footprint = 256 demand-faultable pages per VM).
fn guest_spec(name: &str, accesses: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        footprint: 1 << 20,
        pattern: Pattern::Uniform,
        write_fraction: 0.3,
        accesses,
        accesses_per_tick: (accesses / 4).max(1),
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

fn heal_all(host: &mut Host) {
    for i in 0..u32::try_from(host.vm_count()).unwrap() {
        if let Some(m) = host.machine_mut(VmId::new(i)) {
            let residual = m.heal_stale_caches();
            assert!(residual.is_empty(), "vm {i}: residual {residual:?}");
        }
    }
}

fn all_kinds(host: &Host) -> Vec<DegradationKind> {
    let mut kinds: Vec<DegradationKind> = host.host_events().iter().map(|e| e.kind).collect();
    for i in 0..u32::try_from(host.vm_count()).unwrap() {
        if let Some(m) = host.machine(VmId::new(i)) {
            kinds.extend(m.degradation_events().iter().map(|e| e.kind));
        }
    }
    kinds
}

// ---------------------------------------------------------------------
// Overcommit across all five techniques.
// ---------------------------------------------------------------------

#[test]
fn overcommit_heals_clean_in_every_technique() {
    for t in Technique::all() {
        // Two VMs wanting ~280 frames each on a 320-frame pool.
        let mut host = Host::new(HostConfig::new(320).initial_lease(64));
        for i in 0..2u64 {
            host.add_vm(
                SystemConfig::new(t),
                guest_spec(&format!("oc{i}"), 500, 0x10 + i),
                FaultPlan::new(0x20 + i).drop_cross_vm_shootdowns(250),
            );
        }
        host.run();
        heal_all(&mut host);
        assert_eq!(
            host.total_violations(),
            0,
            "{t:?}: oracle violations after heal"
        );
        let report = host.lint();
        assert!(
            report.diags.is_empty(),
            "{t:?}: host lint {:?}",
            report.diags
        );
        for i in 0..2 {
            assert!(
                host.stats_of(VmId::new(i)).is_some(),
                "{t:?}: vm {i} finished"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Noisy neighbor: the hog slows the victim down, never crashes it.
// ---------------------------------------------------------------------

#[test]
fn noisy_neighbor_degrades_victim_gracefully() {
    // VM 0 is the hog (4x the victim's footprint and appetite); the pool
    // cannot hold both working sets.
    let mut host = Host::new(HostConfig::new(256).initial_lease(48));
    let hog = {
        let mut s = guest_spec("hog", 700, 0x31);
        s.footprint = 4 << 20;
        s
    };
    host.add_vm(
        SystemConfig::new(Technique::Agile(AgileOptions::default())),
        hog,
        FaultPlan::new(0x41).drop_cross_vm_shootdowns(200),
    );
    host.add_vm(
        SystemConfig::new(Technique::Agile(AgileOptions::default())),
        guest_spec("victim", 400, 0x32),
        FaultPlan::new(0x42).drop_cross_vm_shootdowns(200),
    );
    host.run();
    heal_all(&mut host);
    // Both finished; pressure surfaced as typed events, not a panic.
    assert!(host.stats_of(VmId::new(0)).is_some(), "hog finished");
    assert!(host.stats_of(VmId::new(1)).is_some(), "victim finished");
    assert_eq!(host.total_violations(), 0);
    let kinds = all_kinds(&host);
    assert!(
        kinds.contains(&DegradationKind::BalloonRequest)
            || kinds.contains(&DegradationKind::VmStarved)
            || kinds.contains(&DegradationKind::OomSkip)
            || kinds.contains(&DegradationKind::TechniqueDemotion),
        "a 256-frame pool under a 4 MiB hog must surface pressure: {kinds:?}"
    );
    let report = host.lint();
    assert!(report.diags.is_empty(), "lint: {:?}", report.diags);
}

// ---------------------------------------------------------------------
// Live migration across all five techniques.
// ---------------------------------------------------------------------

#[test]
fn migration_rehomes_and_heals_in_every_technique() {
    for t in Technique::all() {
        let mut host = Host::new(HostConfig::new(768).initial_lease(64));
        for i in 0..2u64 {
            host.add_vm(
                SystemConfig::new(t),
                guest_spec(&format!("mig{i}"), 500, 0x50 + i),
                FaultPlan::new(0x60 + i).drop_cross_vm_shootdowns(300),
            );
        }
        host.run_steps(300);
        let src = VmId::new(0);
        let dst = VmId::new(1);
        // Service touches run outside the arbiter; reserve their frames.
        assert!(
            host.grant_lease(src, 96) >= 64,
            "{t:?}: no headroom for setup"
        );
        let pid = {
            let m = host.machine_mut(src).expect("live src");
            let pid = m.spawn_process();
            let prev = m.current_pid();
            m.host_mmap_vma(
                pid,
                &Vma {
                    start: 0x5000_0000,
                    len: 32 * 0x1000,
                    writable: true,
                    backing: VmaBacking::Anon,
                    max_page: agile_paging::types::PageSize::Size4K,
                },
            );
            m.switch_to(pid);
            for p in 0..32u64 {
                m.try_touch(0x5000_0000 + p * 0x1000, p % 2 == 0)
                    .expect("service touch");
            }
            m.switch_to(prev);
            pid
        };
        let outcome = host.migrate_process(src, pid, dst);
        assert_eq!(
            outcome.pages_moved + outcome.pages_skipped,
            32,
            "{t:?}: every snapshotted leaf is accounted for"
        );
        assert!(outcome.pages_moved > 0, "{t:?}: something moved");
        assert!(
            outcome.frames_surrendered > 0,
            "{t:?}: source teardown must return frames"
        );
        assert_eq!(outcome.residual_violations, 0, "{t:?}: healed clean");
        host.run();
        heal_all(&mut host);
        assert_eq!(host.total_violations(), 0, "{t:?}");
        let report = host.lint();
        assert!(report.diags.is_empty(), "{t:?}: lint {:?}", report.diags);
    }
}

// ---------------------------------------------------------------------
// Teardown under load: the lease comes back, survivors profit.
// ---------------------------------------------------------------------

#[test]
fn teardown_mid_run_returns_capacity_to_survivors() {
    let mut host = Host::new(HostConfig::new(300).initial_lease(64));
    for i in 0..3u64 {
        host.add_vm(
            SystemConfig::new(Technique::Nested),
            guest_spec(&format!("td{i}"), 400, 0x70 + i),
            FaultPlan::new(0x80 + i).drop_cross_vm_shootdowns(200),
        );
    }
    host.run_steps(300);
    let victim = VmId::new(1);
    host.teardown_vm(victim);
    assert_eq!(host.pool().lease_of(victim), 0);
    assert!(host.pool().is_conserved());
    host.run();
    heal_all(&mut host);
    assert_eq!(host.total_violations(), 0);
    // The torn-down VM still reports stats and its events were kept.
    assert!(host.stats_of(victim).is_some());
    let report = host.lint();
    assert!(report.diags.is_empty(), "lint: {:?}", report.diags);
}

// ---------------------------------------------------------------------
// The acceptance scenario: seeded 4-VM overcommit with cross-VM drops.
// ---------------------------------------------------------------------

fn four_vm_chaos_run() -> (String, usize) {
    let techniques = [
        Technique::Agile(AgileOptions::default()),
        Technique::Nested,
        Technique::Shadow,
        Technique::Shsp(ShspOptions::default()),
    ];
    // Four VMs wanting ~1100 frames total on a 512-frame pool.
    let mut host = Host::new(HostConfig::new(512).initial_lease(64));
    for (i, t) in techniques.into_iter().enumerate() {
        let i = i as u64;
        host.add_vm(
            SystemConfig::new(t),
            guest_spec(&format!("quad{i}"), 400, 0x90 + i),
            FaultPlan::new(0xA0 + i).drop_cross_vm_shootdowns(250),
        );
    }
    host.run();
    heal_all(&mut host);
    assert_eq!(host.total_violations(), 0, "4-VM chaos heals clean");
    let report = host.lint();
    assert!(report.diags.is_empty(), "4-VM lint: {:?}", report.diags);
    let pressure = all_kinds(&host)
        .iter()
        .filter(|k| {
            matches!(
                k,
                DegradationKind::BalloonRequest
                    | DegradationKind::VmStarved
                    | DegradationKind::TechniqueDemotion
                    | DegradationKind::OomSkip
            )
        })
        .count();
    assert!(pressure > 0, "4-VM overcommit must surface pressure events");
    (host.render_full_log(), pressure)
}

#[test]
fn four_vm_chaos_is_byte_deterministic() {
    let (log_a, pressure_a) = four_vm_chaos_run();
    let (log_b, pressure_b) = four_vm_chaos_run();
    assert_eq!(pressure_a, pressure_b);
    assert_eq!(
        log_a, log_b,
        "same seeds must render a byte-identical host log"
    );
    // The log carries all four VM sections plus the host section.
    for section in [
        "== host ==",
        "== vm 0 ==",
        "== vm 1 ==",
        "== vm 2 ==",
        "== vm 3 ==",
    ] {
        assert!(log_a.contains(section), "missing {section}");
    }
}
