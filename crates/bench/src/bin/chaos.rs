//! Seeded chaos smoke: runs a fixed fault matrix (background shootdown
//! drop/defer dice plus one scenario of every kind) against all five
//! techniques with paranoia on, and prints **only deterministic content**
//! — the run fingerprint and the rendered degradation-event log per
//! technique. `gates` runs this binary twice and byte-compares the output:
//! any divergence means the chaos layer leaked nondeterminism (unordered
//! flush batches, timestamps in events, racy dice).
//!
//! The healed-or-reported half of the contract is enforced inside
//! [`RunRequest::run`] itself: with chaos armed it asserts the paranoia
//! oracles found zero violations, so an unhealed fault aborts this
//! binary rather than printing silently-corrupt fingerprints.

use agile_core::{
    render_log, ChurnSpec, FaultPlan, Pattern, RunRequest, ScenarioKind, SystemConfig, Technique,
    WorkloadSpec,
};

/// Scenario victims live inside the workload's data region so the
/// corruption and storm injections land on mapped, shadow-derived state
/// instead of no-op'ing against unmapped VAs.
const BASE: u64 = WorkloadSpec::REGION_BASE;
const ACCESSES: u64 = 2_000;

fn fault_matrix() -> FaultPlan {
    FaultPlan::new(0xC0FFEE)
        .drop_shootdowns(250)
        .defer_shootdowns(250, 16)
        .scenario(
            300,
            ScenarioKind::CorruptShadowPte {
                gva: BASE + 0x2000,
                bit: 12,
            },
        )
        .scenario(700, ScenarioKind::CorruptGuestPte { gva: BASE + 0x4000 })
        .scenario(
            1_100,
            ScenarioKind::TrapStorm {
                base: BASE,
                pages: 4,
                writes_per_page: 8,
            },
        )
        .scenario(1_500, ScenarioKind::FramePressure { headroom: 24 })
}

fn spec(label: &str) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("chaos-smoke-{label}"),
        footprint: 8 << 20,
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
        seed: 99,
    }
}

fn main() {
    println!(
        "# chaos smoke: seed {:#x}, {ACCESSES} accesses, paranoia on",
        0xC0FFEEu64
    );
    for t in Technique::all() {
        let artifact = RunRequest::new(SystemConfig::new(t), spec(t.label()))
            .with_chaos(fault_matrix())
            .run();
        println!(
            "technique={} fingerprint={} events={}",
            t.label(),
            artifact.fingerprint(),
            artifact.degradation.len(),
        );
        let log = render_log(&artifact.degradation);
        if !log.is_empty() {
            println!("{log}");
        }
    }
}
