//! Snapshot/restore and crash-recovery contract, end to end:
//!
//! 1. **Round trip** — a snapshot encodes to byte-stable bytes, decodes
//!    back to an equal value, and a machine restored from it re-snapshots
//!    to the identical bytes, for every technique.
//! 2. **Restore determinism** — checkpoint mid-run, resume on a fresh
//!    machine, and the artifact is byte-identical to running straight
//!    through (the tentpole contract, exercised via the public
//!    [`RunRequest::run_with_recovery`] API).
//! 3. **Differ sensitivity** — the transition differ is quiet on an
//!    unchanged view and loud on any planted divergence.
//! 4. **Kill/resume byte identity** — a service job checkpointed, its
//!    worker killed mid-run by chaos, and resumed from the re-queued
//!    checkpoint produces byte-identical artifacts to an uninterrupted
//!    run, at any worker count, with the recovery surfaced in the service
//!    log and metrics rather than in the artifact.

use agile_core::{
    diff, AgileOptions, CancelToken, CheckpointSlot, ChurnSpec, DegradationKind, DiffIntent,
    FaultPlan, Machine, MachineSnapshot, Pattern, PlanOptions, RecoveryControls, RunRequest,
    Service, ShspOptions, SystemConfig, Technique, TransitionView, WorkloadSpec,
};
use std::ops::ControlFlow;

/// Churny multi-process spec so snapshots carry non-trivial state:
/// several address spaces, COW sharing, huge pages broken by remaps.
fn spec(label: &str, accesses: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("snap-{label}"),
        footprint: 8 << 20,
        pattern: Pattern::Zipf { theta: 0.7 },
        write_fraction: 0.3,
        accesses,
        accesses_per_tick: (accesses / 8).max(1),
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

#[test]
fn snapshot_round_trips_byte_stable_for_every_technique() {
    for t in Technique::all() {
        let cfg = SystemConfig::new(t);
        let mut machine = Machine::new(cfg);
        machine.run_spec(&spec(t.label(), 2_000, 11));
        let snap = machine.snapshot();
        let bytes = snap.to_bytes();
        let decoded = MachineSnapshot::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", t.label()));
        assert_eq!(decoded, snap, "{}: decode != original", t.label());
        assert_eq!(
            decoded.to_bytes(),
            bytes,
            "{}: re-encode drifted",
            t.label()
        );

        let restored = Machine::restore(cfg, &snap)
            .unwrap_or_else(|e| panic!("{}: restore failed: {e}", t.label()));
        assert_eq!(
            restored.snapshot().to_bytes(),
            bytes,
            "{}: restored machine re-snapshots to different bytes",
            t.label()
        );
    }
}

#[test]
fn restore_mismatches_are_rejected() {
    let shadow = SystemConfig::new(Technique::Shadow);
    let mut machine = Machine::new(shadow);
    machine.run_spec(&spec("mismatch", 500, 3));
    let snap = machine.snapshot();
    let err = Machine::restore(SystemConfig::new(Technique::Nested), &snap)
        .expect_err("restoring a shadow snapshot onto a nested machine must fail");
    assert!(
        err.to_string().contains("configuration mismatch"),
        "unexpected error: {err}"
    );
    assert!(MachineSnapshot::from_bytes(b"not a snapshot").is_err());
    let bytes = snap.to_bytes();
    assert!(
        MachineSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err(),
        "a truncated snapshot must not decode"
    );
    // The envelope carries the payload opaquely, so a flipped payload
    // byte survives the envelope decode; restoring it must then either
    // fail structurally or yield a machine whose state visibly carries
    // the corruption — never snap back to the pristine bytes.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0xFF;
    if let Ok(corrupt) = MachineSnapshot::from_bytes(&flipped) {
        if let Ok(m) = Machine::restore(shadow, &corrupt) {
            assert_ne!(
                m.snapshot().to_bytes(),
                bytes,
                "a corrupted payload silently restored to pristine state"
            );
        }
    }
}

#[test]
fn checkpoint_resume_is_byte_identical_to_straight_through() {
    for t in Technique::all() {
        let request = RunRequest::new(SystemConfig::new(t), spec(t.label(), 2_400, 27));
        let reference = request.run().fingerprint();

        // Checkpointed run: byte-identical, and it must leave a usable
        // mid-run checkpoint behind (not just the final tick's).
        let slot = CheckpointSlot::new();
        let controls = RecoveryControls {
            checkpoint_interval: Some(3),
            slot: slot.clone(),
            ..RecoveryControls::default()
        };
        let token = CancelToken::new();
        let (artifact, stop) = request.run_with_recovery(&token, &controls);
        assert!(stop.is_none(), "{}: checkpointed run stopped", t.label());
        assert_eq!(
            artifact.fingerprint(),
            reference,
            "{}: checkpointing perturbed the artifact",
            t.label()
        );
        assert!(slot.stores() > 1, "{}: expected several stores", t.label());
        let cp = slot.latest().expect("at least one checkpoint stored");
        assert!(cp.events_consumed > 0, "{}: empty checkpoint", t.label());

        // Resumed run: restore the checkpoint into a fresh machine and
        // consume only the remaining events.
        let controls = RecoveryControls {
            resume: Some(cp),
            ..RecoveryControls::default()
        };
        let (resumed, stop) = request.run_with_recovery(&token, &controls);
        assert!(stop.is_none(), "{}: resumed run stopped", t.label());
        assert_eq!(
            resumed.fingerprint(),
            reference,
            "{}: resume-from-checkpoint diverged from straight-through",
            t.label()
        );
    }
}

/// A traced machine checkpointed mid-run and restored into a fresh traced
/// machine finishes with the same snapshot bytes and the same §VI trace as
/// a straight run: the trace travels inside the snapshot.
#[test]
fn traced_checkpoint_resume_is_byte_identical_to_straight_through() {
    let no_hook = |_: &mut Machine, _| ControlFlow::<()>::Continue(());
    for t in Technique::all() {
        let cfg = SystemConfig::new(t);
        let spec = spec(t.label(), 2_400, 27);
        let traced = || {
            let mut m = Machine::new(cfg);
            m.enable_tracing();
            m
        };
        let mut straight = traced();
        straight.run(&spec, 0, None, no_hook);
        let want_bytes = straight.snapshot().to_bytes();
        let want_trace = straight.take_trace();
        assert!(!want_trace.is_empty(), "{}: nothing traced", t.label());

        let (_, cp) = traced().run(&spec, 0, None, |m, at| {
            if at.is_tick && at.ticks == 3 {
                ControlFlow::Break(m.checkpoint(at))
            } else {
                ControlFlow::Continue(())
            }
        });
        let cp = cp.expect("the run reaches tick 3");
        let mut resumed = traced();
        resumed
            .restore_from(&cp.snapshot)
            .unwrap_or_else(|e| panic!("{}: restore failed: {e}", t.label()));
        resumed.run(&spec, 0, Some(&cp), no_hook);
        assert_eq!(
            resumed.snapshot().to_bytes(),
            want_bytes,
            "{}: resumed traced run diverged",
            t.label()
        );
        assert_eq!(resumed.take_trace(), want_trace, "{}", t.label());
    }
}

#[test]
fn differ_is_quiet_on_identity_and_loud_on_planted_divergence() {
    let mut machine = Machine::new(SystemConfig::new(Technique::Agile(AgileOptions::default())));
    machine.run_spec(&spec("differ", 2_000, 41));
    let view = TransitionView::capture(&machine);
    assert!(view.leaf_count() > 0, "workload mapped nothing");

    for intent in [DiffIntent::TechniqueSwitch, DiffIntent::Migration] {
        assert!(
            diff(&view, &view, intent).is_empty(),
            "{intent:?}: identical views must diff clean"
        );
        // Writability is part of the contract for both intents.
        let mut flipped = view.clone();
        flipped.chaos_flip_writable(0);
        assert!(
            !diff(&view, &flipped, intent).is_empty(),
            "{intent:?}: a flipped writable bit must be caught"
        );
    }

    // A skewed host frame breaks a technique switch (the translation
    // function must be untouched) but is legitimate across a migration,
    // where the destination allocates fresh frames.
    let mut skewed = view.clone();
    skewed.chaos_skew_leaf(0);
    assert!(!diff(&view, &skewed, DiffIntent::TechniqueSwitch).is_empty());
    assert!(diff(&view, &skewed, DiffIntent::Migration).is_empty());
}

fn kill_request(i: usize, t: Technique) -> RunRequest {
    // Kill at tick 4 with checkpoints every 2 ticks: a checkpoint always
    // exists before the kill, so recovery resumes rather than restarts.
    RunRequest::new(SystemConfig::new(t), spec(t.label(), 2_000, 60 + i as u64))
        .with_label(format!("kill-{i}-{}", t.label()))
        .with_chaos(FaultPlan::new(0xC0 + i as u64).kill_worker_at_tick(4))
}

#[test]
fn killed_workers_resume_from_checkpoints_with_identical_artifacts() {
    let techniques = [
        Technique::Shadow,
        Technique::Nested,
        Technique::Agile(AgileOptions::default()),
        Technique::Shsp(ShspOptions::default()),
    ];
    // Reference: the same chaos-armed requests run uninterrupted (the
    // kill trigger only fires on a service job's first life, never in a
    // plain run). Chaos arming implies paranoia, so `run` itself asserts
    // zero unhealed oracle violations.
    let reference: Vec<String> = techniques
        .iter()
        .enumerate()
        .map(|(i, &t)| kill_request(i, t).run().fingerprint())
        .collect();

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
            assert!(
                !artifact
                    .degradation
                    .iter()
                    .any(|e| e.kind == DegradationKind::ResumedFromCheckpoint),
                "{shards} shard(s): recovery leaked into the artifact"
            );
        }
        let resumes: Vec<_> = service
            .drain_degradations()
            .into_iter()
            .filter(|e| e.kind == DegradationKind::ResumedFromCheckpoint)
            .collect();
        assert_eq!(
            resumes.len(),
            techniques.len(),
            "{shards} shard(s): every job's recovery is logged service-side"
        );
        assert!(
            resumes
                .iter()
                .all(|e| e.detail.contains("resuming from the checkpoint")),
            "{shards} shard(s): recovery should resume, not restart: {resumes:?}"
        );
        let metrics = service.shutdown();
        assert_eq!(metrics.completed, techniques.len() as u64);
        assert_eq!(
            metrics.orphans,
            techniques.len() as u64,
            "{shards} shard(s): each job is orphaned exactly once"
        );
        assert_eq!(metrics.resumes, metrics.orphans);
        assert!(
            metrics.checkpoints >= metrics.completed,
            "{shards} shard(s): checkpoints ({}) should at least cover the jobs",
            metrics.checkpoints
        );
        assert_eq!(metrics.skipped, 0, "kills are recoveries, not skips");
    }
}

#[test]
fn a_job_killed_before_any_checkpoint_restarts_from_scratch() {
    // Kill at tick 2 but checkpoint every 100 ticks: no checkpoint exists
    // at death, so the service restarts the job from scratch — still
    // byte-identical, logged as a restart.
    let request = RunRequest::new(
        SystemConfig::new(Technique::Agile(AgileOptions::default())),
        spec("fresh", 1_500, 81),
    )
    .with_chaos(FaultPlan::new(0xD1).kill_worker_at_tick(2));
    let reference = request.run().fingerprint();

    let service = Service::new(PlanOptions::with_threads(2).checkpoint_every(100));
    let id = service.submit(request);
    let artifact = service.wait(id).into_artifact();
    assert_eq!(artifact.fingerprint(), reference);
    let log = service.drain_degradations();
    assert!(
        log.iter()
            .any(|e| e.kind == DegradationKind::ResumedFromCheckpoint
                && e.detail.contains("no checkpoint stored")),
        "restart-from-scratch should be logged: {log:?}"
    );
    let metrics = service.shutdown();
    assert_eq!(metrics.orphans, 1);
    assert_eq!(metrics.resumes, 0, "nothing to resume from");
}
