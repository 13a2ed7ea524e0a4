//! Snapshot/crash-recovery CI gate. Three phases, each of which aborts
//! the binary on violation and prints **only deterministic content**, so
//! `gates` runs it twice and byte-compares the output:
//!
//! 1. **Round trip** — every technique's machine snapshot encodes to
//!    byte-stable bytes, decodes back equal, and a restored machine
//!    re-snapshots to the identical bytes. The run also digests the
//!    snapshot at every tick and prints the fold of those digests (the
//!    `trajectory`), so state that moves mid-run and settles back by the
//!    end still changes the output.
//! 2. **Kill/resume** — a service job checkpointed, its worker killed
//!    mid-run by seeded chaos, and resumed from the re-queued checkpoint
//!    produces artifacts byte-identical to the same requests run
//!    uninterrupted, at 1, 2, and 8 workers (printed as `shards=N`).
//! 3. **Differ fixtures** — the transition differ is quiet on identical
//!    views and loud on planted frame skews and writability flips.

use agile_core::snapshot::{diff, digest, DiffIntent, TransitionView};
use agile_core::{
    AgileOptions, ChurnSpec, FaultPlan, Machine, MachineSnapshot, Pattern, PlanOptions, RunRequest,
    Service, SystemConfig, Technique, WorkloadSpec,
};
use std::ops::ControlFlow;

const ACCESSES: u64 = 2_000;

fn spec(label: &str, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("snapshot-smoke-{label}"),
        footprint: 8 << 20,
        pattern: Pattern::Zipf { theta: 0.7 },
        write_fraction: 0.3,
        accesses: ACCESSES,
        accesses_per_tick: (ACCESSES / 8).max(1),
        churn: ChurnSpec {
            remap_every: Some(90),
            remap_pages: 8,
            cow_every: Some(140),
            cow_pages: 4,
            clock_scan_every: Some(400),
            scan_pages: 16,
            churn_zone: 0.25,
            ctx_switch_every: Some(500),
            processes: 2,
        },
        prefault: false,
        prefault_writes: true,
        seed,
    }
}

fn round_trip_phase() {
    println!("# phase 1: snapshot round trip, {ACCESSES} accesses");
    for t in Technique::all() {
        let cfg = SystemConfig::new(t);
        let mut machine = Machine::new(cfg);
        // The snapshot digest of every tick boundary, in order.
        let mut ticks = Vec::new();
        machine.run(&spec(t.label(), 11), 0, None, |m, at| {
            if at.is_tick {
                ticks.extend_from_slice(&m.snapshot().digest().to_le_bytes());
            }
            ControlFlow::<()>::Continue(())
        });
        let snap = machine.snapshot();
        let bytes = snap.to_bytes();
        let decoded = MachineSnapshot::from_bytes(&bytes).expect("snapshot decodes");
        assert_eq!(decoded, snap, "{}: decode != original", t.label());
        assert_eq!(
            decoded.to_bytes(),
            bytes,
            "{}: re-encode drifted",
            t.label()
        );
        let restored = Machine::restore(cfg, &snap).expect("snapshot restores");
        assert_eq!(
            restored.snapshot().to_bytes(),
            bytes,
            "{}: restored machine re-snapshots differently",
            t.label()
        );
        println!(
            "technique={} snapshot_bytes={} digest={:#018x}",
            t.label(),
            bytes.len(),
            digest(&bytes)
        );
        println!(
            "technique={} ticks={} trajectory={:#018x}",
            t.label(),
            ticks.len() / 8,
            digest(&ticks)
        );
    }
}

fn kill_request(i: usize, t: Technique) -> RunRequest {
    RunRequest::new(SystemConfig::new(t), spec(t.label(), 60 + i as u64))
        .with_label(format!("kill-{i}-{}", t.label()))
        .with_chaos(FaultPlan::new(0xC0 + i as u64).kill_worker_at_tick(4))
}

fn kill_resume_phase() {
    println!("# phase 2: kill at tick 4, checkpoint every 2 ticks");
    let techniques = Technique::all();
    // Uninterrupted reference: the kill trigger only fires on a service
    // job's first life, never in a plain run; chaos arming implies
    // paranoia, so the reference itself asserts a clean oracle.
    let reference: Vec<String> = techniques
        .iter()
        .enumerate()
        .map(|(i, &t)| kill_request(i, t).run().fingerprint())
        .collect();
    for (t, f) in techniques.iter().zip(&reference) {
        println!("technique={} fingerprint={f}", t.label());
    }
    for shards in [1usize, 2, 8] {
        let service = Service::new(PlanOptions::with_threads(shards).checkpoint_every(2));
        let ids = service.submit_all(
            techniques
                .iter()
                .enumerate()
                .map(|(i, &t)| kill_request(i, t)),
        );
        for (id, want) in ids.iter().zip(&reference) {
            let artifact = service.wait(*id).into_artifact();
            assert_eq!(
                &artifact.fingerprint(),
                want,
                "{shards} shard(s): kill/resume changed artifact bytes for {}",
                artifact.label
            );
        }
        let metrics = service.shutdown();
        assert_eq!(
            metrics.orphans,
            techniques.len() as u64,
            "{shards} shard(s): every job is orphaned exactly once"
        );
        assert_eq!(metrics.resumes, metrics.orphans, "every orphan resumes");
        println!(
            "shards={shards} orphans={} resumes={} identical=true",
            metrics.orphans, metrics.resumes
        );
    }
}

fn differ_phase() {
    println!("# phase 3: differ fixtures");
    let mut machine = Machine::new(SystemConfig::new(Technique::Agile(AgileOptions::default())));
    machine.run_spec(&spec("differ", 41));
    let view = TransitionView::capture(&machine);
    assert!(view.leaf_count() > 0, "workload mapped nothing");
    for intent in [DiffIntent::TechniqueSwitch, DiffIntent::Migration] {
        assert!(
            diff(&view, &view, intent).is_empty(),
            "identity must be clean"
        );
    }
    let mut skewed = view.clone();
    skewed.chaos_skew_leaf(0);
    let skew_switch = diff(&view, &skewed, DiffIntent::TechniqueSwitch).len();
    let skew_migrate = diff(&view, &skewed, DiffIntent::Migration).len();
    assert!(skew_switch > 0, "a skewed frame must fail a switch");
    assert_eq!(skew_migrate, 0, "fresh frames are legitimate in migration");
    let mut flipped = view.clone();
    flipped.chaos_flip_writable(0);
    let flip_switch = diff(&view, &flipped, DiffIntent::TechniqueSwitch).len();
    let flip_migrate = diff(&view, &flipped, DiffIntent::Migration).len();
    assert!(
        flip_switch > 0 && flip_migrate > 0,
        "writability is contractual"
    );
    println!(
        "leaves={} skew:switch={skew_switch} skew:migration={skew_migrate} \
         flip:switch={flip_switch} flip:migration={flip_migrate}",
        view.leaf_count()
    );
}

fn main() {
    round_trip_phase();
    kill_resume_phase();
    differ_phase();
    println!("snapshot gate: all phases clean");
}
