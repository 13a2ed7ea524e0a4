//! Hot-path regression suite for the arena/coalescing refactor.
//!
//! Three contracts guard the optimized paths:
//!
//! 1. **Conservation** — on a churn-heavy workload whose remap/COW bursts
//!    emit overlapping and adjacent flush ranges, every `check_stats`
//!    counter identity still holds: coalescing batches the *application*
//!    of shootdowns but must never double-count or drop an accounting
//!    event.
//! 2. **Byte determinism under chaos** — the same seeded fault plan run
//!    twice produces byte-identical artifact fingerprints and rendered
//!    degradation logs for all five techniques: batching cache
//!    invalidations must not perturb event order or content.
//! 3. **Options invariance** — execution knobs that only affect *how* a
//!    batch runs (checkpoint cadence, timeouts) never change *what* it
//!    computes: artifacts stay byte-equivalent, and non-completed
//!    outcomes surface deterministically.

use agile_core::verify::check_stats;
use agile_core::{
    render_log, AgileOptions, ChurnSpec, FaultPlan, Machine, Pattern, PlanOptions, RunOutcome,
    RunRequest, ScenarioKind, Service, SystemConfig, Technique, WorkloadSpec,
};
use std::time::Duration;

/// Churn-heavy spec: frequent multi-page remap and COW bursts inside a
/// small churn zone, so delivered flush batches carry overlapping and
/// adjacent ranges for the coalescer to merge.
fn churny_spec(label: &str, accesses: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("hotpath-{label}"),
        footprint: 8 << 20,
        pattern: Pattern::Zipf { theta: 0.8 },
        write_fraction: 0.3,
        accesses,
        accesses_per_tick: (accesses / 8).max(1),
        churn: ChurnSpec {
            remap_every: Some(80),
            remap_pages: 16,
            cow_every: Some(120),
            cow_pages: 8,
            clock_scan_every: Some(300),
            scan_pages: 32,
            churn_zone: 0.2,
            ctx_switch_every: Some(2_000),
            processes: 2,
        },
        prefault: false,
        prefault_writes: true,
        seed,
    }
}

#[test]
fn coalesced_flush_application_preserves_stats_identities() {
    let mut merged_total = 0;
    let mut requests_total = 0;
    let mut ops_total = 0;
    for t in Technique::all() {
        let cfg = SystemConfig::new(t);
        let mut machine = Machine::new(cfg);
        let stats = machine.run_spec(&churny_spec(t.label(), 8_000, 21));
        let violations = check_stats(&stats, &cfg);
        assert!(
            violations.is_empty(),
            "{}: {} stats identity violation(s):\n{}",
            t.label(),
            violations.len(),
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
        let profile = machine.profile();
        merged_total += profile.flush.ranges_merged;
        requests_total += profile.flush.requests;
        ops_total += profile.flush.asid_flushes + profile.flush.range_ops + profile.flush.ntlb_ops;
    }
    // The workload must actually exercise the merge path, and merging must
    // strictly reduce applied operations below delivered requests —
    // otherwise this test guards nothing.
    assert!(merged_total > 0, "churn produced no overlapping ranges");
    assert!(
        ops_total < requests_total,
        "coalescing applied {ops_total} ops for {requests_total} requests"
    );
}

fn fault_matrix() -> FaultPlan {
    const BASE: u64 = WorkloadSpec::REGION_BASE;
    FaultPlan::new(0xFEED)
        .drop_shootdowns(200)
        .defer_shootdowns(200, 16)
        .scenario(
            250,
            ScenarioKind::CorruptShadowPte {
                gva: BASE + 0x2000,
                bit: 12,
            },
        )
        .scenario(600, ScenarioKind::CorruptGuestPte { gva: BASE + 0x4000 })
        .scenario(
            1_000,
            ScenarioKind::TrapStorm {
                base: BASE,
                pages: 4,
                writes_per_page: 8,
            },
        )
        .scenario(1_400, ScenarioKind::FramePressure { headroom: 24 })
}

#[test]
fn chaos_runs_are_byte_deterministic_across_replays() {
    for t in Technique::all() {
        let run = || {
            RunRequest::new(SystemConfig::new(t), churny_spec(t.label(), 2_000, 99))
                .with_chaos(fault_matrix())
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{}: replay fingerprints diverged",
            t.label()
        );
        assert_eq!(
            render_log(&a.degradation),
            render_log(&b.degradation),
            "{}: replay degradation logs diverged",
            t.label()
        );
        assert!(
            !a.degradation.is_empty(),
            "{}: fault plan injected nothing",
            t.label()
        );
    }
}

fn small_batch() -> [RunRequest; 2] {
    [
        RunRequest::new(
            SystemConfig::new(Technique::Shadow),
            churny_spec("shadow", 1_500, 3),
        ),
        RunRequest::new(
            SystemConfig::new(Technique::Agile(AgileOptions::default())),
            churny_spec("agile", 1_500, 4),
        ),
    ]
}

#[test]
fn checkpointing_never_touches_artifact_bytes() {
    // Checkpoint capture is a pure read of machine state at tick
    // boundaries: a batch run with an aggressive checkpoint cadence must
    // be byte-equivalent to the same batch run without one.
    let plain: Vec<String> = Service::run_all(PlanOptions::with_threads(1), small_batch())
        .into_iter()
        .map(|o| o.into_artifact().fingerprint())
        .collect();
    let checkpointed: Vec<String> = Service::run_all(
        PlanOptions::with_threads(2).checkpoint_every(1),
        small_batch(),
    )
    .into_iter()
    .map(|o| o.into_artifact().fingerprint())
    .collect();
    assert_eq!(plain, checkpointed);
}

#[test]
fn timeouts_surface_deterministic_partial_artifacts() {
    // A zero deadline is already expired at the first tick boundary, so
    // every request deterministically times out with partial statistics.
    let timed = || {
        let opts = PlanOptions {
            threads: 1,
            timeout: Some(Duration::ZERO),
            retries: 0,
            seed_base: None,
            checkpoint_interval: None,
        };
        Service::run_all(opts, small_batch())
    };
    let outcomes = timed();
    assert!(outcomes.iter().all(RunOutcome::is_timed_out));
    let replay = timed();
    assert_eq!(replay.len(), outcomes.len());
    for (r, o) in replay.iter().zip(&outcomes) {
        assert!(r.is_timed_out());
        assert_eq!(r.label(), o.label());
        let (rp, op) = (r.partial_artifact().unwrap(), o.partial_artifact().unwrap());
        assert_eq!(rp.fingerprint(), op.fingerprint());
    }
}
