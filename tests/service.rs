//! The service contract: jobs submitted to the async engine stream back
//! exactly once, cancellation is cooperative and prompt (one tick-boundary
//! check, never a detached thread), shutdown drains the queue, and two
//! workers sharing the one queue run a skewed matrix without perturbing a
//! single artifact byte.

use agile_paging::prelude::*;
use std::time::Duration;

fn spec(name: &str, accesses: u64, per_tick: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        footprint: 8 << 20,
        pattern: Pattern::Uniform,
        write_fraction: 0.3,
        accesses,
        accesses_per_tick: per_tick,
        churn: ChurnSpec::none(),
        prefault: false,
        prefault_writes: true,
        seed,
    }
}

fn light(i: u64) -> RunRequest {
    RunRequest::new(
        SystemConfig::new(Technique::Native),
        spec("light", 1_000, 250, i + 1),
    )
    .with_label(format!("light-{i}"))
}

#[test]
fn results_stream_back_in_finish_order_exactly_once() {
    let service = Service::new(PlanOptions::with_threads(3));
    let ids = service.submit_all((0..9).map(light));
    let mut seen: Vec<JobId> = Vec::new();
    while let Some((id, outcome)) = service.next_result() {
        assert!(outcome.artifact().is_some(), "{id} completed");
        seen.push(id);
    }
    assert_eq!(seen.len(), ids.len(), "every job streams exactly once");
    seen.sort();
    assert_eq!(seen, ids);
    let metrics = service.shutdown();
    assert_eq!(metrics.submitted, 9);
    assert_eq!(metrics.completed, 9);
    assert_eq!(metrics.finished(), 9);
}

#[test]
fn poll_tracks_the_job_lifecycle() {
    let service = Service::new(PlanOptions::with_threads(1));
    let id = service.submit(light(0));
    let status = service.poll(id).expect("known job");
    assert_eq!(status.label, "light-0");
    assert!(
        matches!(
            status.state,
            JobState::Queued | JobState::Running | JobState::Completed
        ),
        "{:?}",
        status.state
    );
    let outcome = service.wait(id);
    assert!(outcome.artifact().is_some());
    assert_eq!(
        service.poll(id).expect("known job").state,
        JobState::Completed
    );
    assert!(service.poll(JobId::from_index(99)).is_none(), "unknown id");
}

/// Cancelling a queued job retires it on the spot — no worker ever sees
/// it — and a second cancel (or a cancel after the fact) loses the race.
#[test]
fn cancel_retires_a_queued_job_immediately() {
    // One worker: the long job occupies it while the victims sit queued.
    let service = Service::new(PlanOptions::with_threads(1));
    let long = RunRequest::new(
        SystemConfig::new(Technique::Native),
        spec("long", 2_000_000, 10_000, 7),
    )
    .with_label("occupant");
    let occupant = service.submit(long);
    let victim = service.submit(light(1));
    let survivor = service.submit(light(2));

    assert!(service.cancel(victim), "queued job accepts cancellation");
    assert!(!service.cancel(victim), "second cancel loses the race");
    match service.wait(victim) {
        RunOutcome::Cancelled { partial, .. } => {
            assert!(partial.is_none(), "a queued job has no partial artifact")
        }
        other => panic!("queued victim must be cancelled, got {other:?}"),
    }
    assert_eq!(
        service.poll(victim).expect("known job").state,
        JobState::Cancelled
    );

    // The occupant and the surviving sibling still complete.
    assert!(service.wait(occupant).artifact().is_some());
    assert!(service.wait(survivor).artifact().is_some());
    assert!(
        !service.cancel(survivor),
        "terminal job rejects cancellation"
    );
    let metrics = service.shutdown();
    assert_eq!(metrics.cancelled, 1);
    assert_eq!(metrics.completed, 2);
}

/// The acceptance bar for cooperative cancellation: a mid-flight job stops
/// at the machine's next tick boundary — partial statistics retained, a
/// typed `Cancelled` event closing its degradation log — instead of
/// running its remaining millions of accesses (or being abandoned on a
/// detached thread).
#[test]
fn cancel_stops_a_mid_flight_job_at_a_tick_boundary() {
    const TOTAL: u64 = 50_000_000;
    const PER_TICK: u64 = 10_000;
    let service = Service::new(PlanOptions::with_threads(1));
    let id = service.submit(
        RunRequest::new(
            SystemConfig::new(Technique::Nested),
            spec("marathon", TOTAL, PER_TICK, 11),
        )
        .with_label("marathon"),
    );
    // Wait until the worker actually picks the job up.
    while service.poll(id).expect("known job").state == JobState::Queued {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(service.cancel(id), "running job accepts cancellation");
    match service.wait(id) {
        RunOutcome::Cancelled {
            label,
            partial: Some(partial),
            ..
        } => {
            assert_eq!(label, "marathon");
            assert!(
                partial.stats.accesses < TOTAL,
                "run must stop early, saw {} accesses",
                partial.stats.accesses
            );
            assert_eq!(
                partial.stats.accesses % PER_TICK,
                0,
                "stop lands exactly on a tick boundary"
            );
            let last = partial.degradation.last().expect("cancel event logged");
            assert_eq!(last.kind, DegradationKind::Cancelled);
        }
        other => panic!("mid-flight cancel must keep partial stats, got {other:?}"),
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.cancelled, 1);
}

/// Shutdown drains: every job already submitted reaches a terminal state
/// before `shutdown` returns, and all worker threads are joined.
#[test]
fn shutdown_drains_the_queue() {
    let service = Service::new(PlanOptions::with_threads(2));
    let ids = service.submit_all((0..8).map(light));
    let metrics = service.shutdown();
    assert_eq!(metrics.completed, 8, "queued jobs run to completion");
    for id in ids {
        assert!(service.wait(id).artifact().is_some(), "{id} completed");
    }
}

/// A skewed matrix — heavy and trivial jobs interleaved — on two workers
/// sharing one queue: the queue backs up, every job finishes, and the
/// artifacts stay byte-identical to a serial execution. Nothing is ever
/// stolen, because there is only one queue.
#[test]
fn one_queue_runs_a_skewed_matrix_without_touching_artifacts() {
    let requests = || {
        // Even submissions heavy, odd ones trivial: whichever worker draws
        // a trivial job comes back for the next one while the other is
        // still busy.
        (0..12).map(|i| {
            if i % 2 == 0 {
                RunRequest::new(
                    SystemConfig::new(Technique::Shadow),
                    spec("heavy", 60_000, 15_000, i + 1),
                )
                .with_label(format!("heavy-{i}"))
            } else {
                light(i)
            }
        })
    };
    let fingerprints = |threads: usize| {
        let service = Service::new(PlanOptions::with_threads(threads));
        let ids = service.submit_all(requests());
        let prints: Vec<String> = ids
            .into_iter()
            .map(|id| {
                service
                    .wait(id)
                    .artifact()
                    .expect("run completes")
                    .fingerprint()
            })
            .collect();
        let metrics = service.shutdown();
        (prints, metrics)
    };
    let (serial, _) = fingerprints(1);
    let (shared, metrics) = fingerprints(2);
    assert_eq!(serial, shared, "two workers never perturb artifact bytes");
    assert!(metrics.max_queue_depth > 1, "the queue actually backed up");
    assert_eq!(metrics.steals, 0, "one queue: nothing to steal from");
    assert_eq!(metrics.finished(), metrics.submitted, "{metrics:?}");
    assert!(metrics.mean_run_latency() > Duration::ZERO);
}
