//! The run engine: one simulation as a request, its structured artifact,
//! and its outcome.
//!
//! Every experiment is a matrix of independent simulations. This module
//! gives one simulation a first-class API:
//!
//! * [`RunRequest`] — one simulation: a [`SystemConfig`], a
//!   [`WorkloadSpec`], a warm-up boundary, and an optional seed override.
//! * [`RunArtifact`] — the structured result: the full [`RunStats`], a
//!   configuration echo, wall-clock timing, and (optionally) the §VI
//!   trace. Serializes to JSON via [`RunArtifact::to_json`].
//! * [`RunOutcome`] — how a request ended: completed, timed out with
//!   partial stats, cancelled, or skipped after exhausting its retry
//!   budget.
//!
//! A matrix runs through the [`crate::service`] job engine:
//! [`Service::run_all`](crate::service::Service::run_all) submits it to a fresh set of workers and returns
//! one [`RunOutcome`] per request, in request order. Results are
//! **bit-identical at any worker count**: each run owns its machine and
//! derives its seed from the request alone, never from scheduling.
//! Execution knobs (threads, timeout, retries, seed stream, checkpoint
//! cadence) live in one [`PlanOptions`](crate::service::PlanOptions)
//! struct.
//!
//! # Example
//!
//! ```
//! use agile_core::runner::{RunOutcome, RunRequest};
//! use agile_core::service::{PlanOptions, Service};
//! use agile_core::{SystemConfig, Technique};
//! use agile_workloads::{profile, Profile};
//!
//! let requests = [Technique::Nested, Technique::Shadow]
//!     .map(|t| RunRequest::new(SystemConfig::new(t), profile(Profile::Mcf, 2_000)));
//! let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(2), requests)
//!     .into_iter()
//!     .map(RunOutcome::into_artifact)
//!     .collect();
//! assert_eq!(artifacts.len(), 2);
//! assert!(artifacts[0].stats.tlb.misses > 0);
//! ```

pub use agile_types::{Json, ToJson};

use crate::chaos::{DegradationEvent, FaultPlan};
use crate::config::SystemConfig;
use crate::machine::Machine;
use crate::service::{CancelToken, StopCause};
use crate::snapshot::{Checkpoint, CheckpointSlot, WorkerKill};
use crate::stats::RunStats;
use agile_trace::TraceLog;
use agile_workloads::WorkloadSpec;
use std::ops::ControlFlow;
use std::time::Instant;

/// Schema tag embedded in every serialized artifact.
pub const ARTIFACT_SCHEMA: &str = "agile-paging/run/v1";

/// One simulation to execute: configuration, workload, measurement
/// boundary, and provenance knobs.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Display label (defaults to `"<workload>/<config>"`).
    pub label: String,
    /// System configuration.
    pub config: SystemConfig,
    /// Workload to run.
    pub spec: WorkloadSpec,
    /// Data accesses excluded from measurement at the start.
    pub warmup: u64,
    /// Seed override; `None` uses the spec's own seed.
    pub seed: Option<u64>,
    /// Record the §VI trace (guest page-table writes + TLB misses).
    pub capture_trace: bool,
    /// Fault-injection plan; arming it forces paranoia on for the run.
    pub chaos: Option<FaultPlan>,
}

impl RunRequest {
    /// A request with no warm-up, no seed override, and a label derived
    /// from the workload and configuration.
    #[must_use]
    pub fn new(config: SystemConfig, spec: WorkloadSpec) -> Self {
        RunRequest {
            label: format!("{}/{}", spec.name, config.label()),
            config,
            spec,
            warmup: 0,
            seed: None,
            capture_trace: false,
            chaos: None,
        }
    }

    /// Sets the display label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Excludes the first `accesses` data accesses from measurement.
    ///
    /// The count includes the prefault sweep's accesses, as in
    /// [`Machine::run`]: fig5's warm-up covers its sweep by design. A
    /// warm-up the run never reaches excludes nothing, so the statistics
    /// then cover every access.
    #[must_use]
    pub fn with_warmup(mut self, accesses: u64) -> Self {
        self.warmup = accesses;
        self
    }

    /// Overrides the workload seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Enables §VI trace capture for this run.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.capture_trace = true;
        self
    }

    /// Arms deterministic fault injection for this run (implies paranoia).
    #[must_use]
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Executes this request on a fresh machine, running to completion.
    ///
    /// # Panics
    ///
    /// With [`SystemConfig::paranoia`] on (or chaos armed, which implies
    /// it), panics if the verify layer's oracles caught any violation that
    /// the degradation paths did not heal, listing them.
    #[must_use]
    pub fn run(&self) -> RunArtifact {
        self.run_with_recovery(&CancelToken::new(), &RecoveryControls::default())
            .0
    }

    /// [`RunRequest::run`] with a cooperative stop flag and crash-recovery
    /// wiring. At every workload tick boundary the run checkpoints into
    /// `recovery.slot` every `recovery.checkpoint_interval` ticks, fires
    /// the request's [`FaultPlan::kill_worker_midrun`] trigger when
    /// `recovery.arm_kill` is set, and stops when `token` is cancelled or
    /// past its deadline. It returns the artifact built from the
    /// statistics so far plus the cause that stopped it (`None` when the
    /// run completed). With `recovery.resume` set it restores that
    /// checkpoint and replays only the workload events past its cursor; a
    /// resumed run's artifact is byte-identical to an uninterrupted run of
    /// the same request.
    ///
    /// The everything-off default ([`RecoveryControls::default`]) is an
    /// ordinary run; the service's worker-death path is the intended
    /// caller of the rest.
    ///
    /// # Panics
    ///
    /// As [`RunRequest::run`] (unhealed paranoia violations), or when
    /// `recovery.resume` carries a checkpoint from a different request
    /// (mismatched configuration or VM identity).
    #[must_use]
    pub fn run_with_recovery(
        &self,
        token: &CancelToken,
        recovery: &RecoveryControls,
    ) -> (RunArtifact, Option<StopCause>) {
        let mut spec = self.spec.clone();
        if let Some(seed) = self.seed {
            spec.seed = seed;
        }
        let started = Instant::now();
        let mut machine = Machine::new(self.config);
        if self.capture_trace {
            machine.enable_tracing();
        }
        if let Some(plan) = &self.chaos {
            machine.enable_chaos(plan.clone());
        }
        let resume = recovery.resume.as_ref();
        if let Some(cp) = resume {
            machine
                .restore_from(&cp.snapshot)
                .expect("checkpoint restores onto a machine built from its own request");
        }
        let every = recovery.checkpoint_interval.map(|n| n.max(1));
        let kill_at = match &self.chaos {
            Some(plan) if recovery.arm_kill => plan.kill_worker_midrun.map(|t| t.max(1)),
            _ => None,
        };
        let (stats, stopped) = machine.run(&spec, self.warmup, resume, |m, at| {
            // Ticks are the quiescent boundaries (flushes drained,
            // interval policy run). The checkpoint store, the chaos kill
            // and the cancellation point act there, in that order: a
            // killed worker's latest checkpoint is already durable, so
            // recovery never replays from before it.
            if !at.is_tick {
                return ControlFlow::Continue(());
            }
            if every.is_some_and(|n| at.ticks.is_multiple_of(n)) {
                recovery.slot.store(m.checkpoint(at));
            }
            if kill_at == Some(at.ticks) {
                std::panic::panic_any(WorkerKill);
            }
            token
                .check()
                .map_or(ControlFlow::Continue(()), ControlFlow::Break)
        });
        if self.config.paranoia || self.chaos.is_some() {
            let violations = machine.take_violations();
            assert!(
                violations.is_empty(),
                "paranoia: run {:?} violated {} oracle check(s):\n{}",
                self.label,
                violations.len(),
                violations
                    .iter()
                    .map(|v| format!("  {v}"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            );
        }
        let wall_nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let artifact = RunArtifact {
            label: self.label.clone(),
            config: self.config,
            workload: spec.name.clone(),
            seed: spec.seed,
            warmup: self.warmup,
            wall_nanos,
            stats,
            degradation: machine.take_degradation_events(),
            trace: self.capture_trace.then(|| machine.take_trace()),
        };
        (artifact, stopped)
    }
}

/// Checkpoint/crash-recovery wiring for one run attempt, threaded through
/// [`RunRequest::run_with_recovery`] by the service's worker-death path.
/// The default — no checkpointing, kill trigger disarmed, no resume — is
/// exactly an ordinary run, so direct [`RunRequest::run`] calls stay
/// byte-identical.
#[derive(Debug, Clone, Default)]
pub struct RecoveryControls {
    /// Store a checkpoint into `slot` every this-many workload ticks
    /// (`None` = no checkpointing).
    pub checkpoint_interval: Option<u64>,
    /// Shared mailbox the run checkpoints into; the service keeps a
    /// clone so it can take the latest checkpoint after a worker death.
    pub slot: CheckpointSlot,
    /// Arm the request's [`FaultPlan::kill_worker_midrun`] trigger. The
    /// service arms it only on a job's first life, so the resumed attempt
    /// is not killed again.
    pub arm_kill: bool,
    /// Resume from this checkpoint instead of starting from scratch: the
    /// machine restores the snapshot and skips the already-consumed
    /// workload events.
    pub resume: Option<Checkpoint>,
}

/// The structured result of one run: statistics, configuration echo,
/// timing, and optional trace.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// Request label.
    pub label: String,
    /// Configuration echo.
    pub config: SystemConfig,
    /// Workload name.
    pub workload: String,
    /// Seed the run actually used.
    pub seed: u64,
    /// Warm-up accesses excluded from the statistics.
    pub warmup: u64,
    /// Host wall-clock time of the simulation in nanoseconds. Timing is
    /// provenance, not measurement — it is excluded from
    /// [`RunArtifact::fingerprint`].
    pub wall_nanos: u64,
    /// Everything the simulated run measured.
    pub stats: RunStats,
    /// Degradation events from the chaos layer (empty without chaos);
    /// recovery-wrapped runs append their runner-level events here too.
    pub degradation: Vec<DegradationEvent>,
    /// The §VI trace, when requested.
    pub trace: Option<TraceLog>,
}

impl RunArtifact {
    /// Full JSON form: deterministic payload plus timing provenance.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = match self.deterministic_json() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("deterministic_json returns an object"),
        };
        obj.push((
            "timing".into(),
            Json::obj(vec![("wall_nanos", Json::UInt(self.wall_nanos))]),
        ));
        Json::Obj(obj)
    }

    /// The deterministic portion of the artifact (no wall-clock timing, no
    /// trace payload): identical across thread counts and across hosts.
    #[must_use]
    pub fn deterministic_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(ARTIFACT_SCHEMA.into())),
            ("label", Json::Str(self.label.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::UInt(self.seed)),
            ("warmup", Json::UInt(self.warmup)),
            ("config", self.config.to_json()),
            ("stats", self.stats.to_json()),
            (
                "degradation",
                Json::Arr(
                    self.degradation
                        .iter()
                        .map(|e| Json::Str(e.to_string()))
                        .collect(),
                ),
            ),
            (
                "trace_events",
                match &self.trace {
                    Some(t) => Json::UInt(t.len() as u64),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Canonical string of the deterministic payload, for byte-equality
    /// assertions across thread counts.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        self.deterministic_json().render()
    }
}

/// The terminal result of one service job: one request of a
/// [`Service::run_all`](crate::service::Service::run_all) batch, or one
/// [`Service::submit`](crate::service::Service::submit).
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run finished (possibly after retries; runner-level events are
    /// appended to the artifact's degradation log). Boxed: an artifact is
    /// two orders of magnitude larger than the skip record.
    Completed(Box<RunArtifact>),
    /// The run passed its cooperative deadline and stopped at the
    /// machine's next tick boundary. `partial` carries the statistics up
    /// to the stop point; its degradation log ends with a
    /// [`crate::chaos::DegradationKind::Timeout`] event.
    TimedOut {
        /// Label of the timed-out request.
        label: String,
        /// Position of that request in its batch (its job id).
        index: usize,
        /// Artifact built from the partial run.
        partial: Box<RunArtifact>,
    },
    /// The run was cancelled. `partial` is `Some` when the job was
    /// mid-flight (its degradation log then ends with a
    /// [`crate::chaos::DegradationKind::Cancelled`] event) and `None` when
    /// it was still queued.
    Cancelled {
        /// Label of the cancelled request.
        label: String,
        /// Position of that request in its batch (its job id).
        index: usize,
        /// Artifact built from the partial run, when one had started.
        partial: Option<Box<RunArtifact>>,
    },
    /// The run panicked past its retry budget; `events` says exactly what
    /// happened and when.
    Skipped {
        /// Label of the abandoned request.
        label: String,
        /// Position of that request in its batch (its job id).
        index: usize,
        /// The runner-level degradation events (panics, retries).
        events: Vec<DegradationEvent>,
    },
}

impl RunOutcome {
    /// The artifact, when the run completed.
    #[must_use]
    pub fn artifact(&self) -> Option<&RunArtifact> {
        match self {
            RunOutcome::Completed(a) => Some(a),
            _ => None,
        }
    }

    /// The artifact of a partial (timed-out or cancelled-mid-flight) run.
    #[must_use]
    pub fn partial_artifact(&self) -> Option<&RunArtifact> {
        match self {
            RunOutcome::TimedOut { partial, .. } => Some(partial),
            RunOutcome::Cancelled {
                partial: Some(p), ..
            } => Some(p),
            _ => None,
        }
    }

    /// Unwraps a completed run's artifact.
    ///
    /// # Panics
    ///
    /// Panics — naming the request — if the run did not complete.
    #[must_use]
    pub fn into_artifact(self) -> RunArtifact {
        match self {
            RunOutcome::Completed(a) => *a,
            RunOutcome::TimedOut { label, index, .. } => {
                panic!("run {label:?} (request #{index}) timed out")
            }
            RunOutcome::Cancelled { label, index, .. } => {
                panic!("run {label:?} (request #{index}) was cancelled")
            }
            RunOutcome::Skipped {
                label,
                index,
                events,
            } => panic!(
                "run {label:?} (request #{index}) was skipped: {}",
                events
                    .first()
                    .map_or_else(|| "no events".into(), |e| e.detail.clone())
            ),
        }
    }

    /// The request label.
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            RunOutcome::Completed(a) => &a.label,
            RunOutcome::TimedOut { label, .. }
            | RunOutcome::Cancelled { label, .. }
            | RunOutcome::Skipped { label, .. } => label,
        }
    }

    /// The request's position in its batch (its job id).
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            // Completed artifacts do not carry an index; callers receive
            // outcomes in request order, so this is only asked of the
            // non-completed variants in practice.
            RunOutcome::Completed(_) => usize::MAX,
            RunOutcome::TimedOut { index, .. }
            | RunOutcome::Cancelled { index, .. }
            | RunOutcome::Skipped { index, .. } => *index,
        }
    }

    /// True when the run stopped at its cooperative deadline.
    #[must_use]
    pub fn is_timed_out(&self) -> bool {
        matches!(self, RunOutcome::TimedOut { .. })
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PlanOptions, Service};
    use agile_types::SplitMix64;
    use agile_vmm::Technique;
    use agile_workloads::{ChurnSpec, Pattern};

    fn spec(accesses: u64, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "runner-unit".into(),
            footprint: 8 << 20,
            pattern: Pattern::Uniform,
            write_fraction: 0.3,
            accesses,
            accesses_per_tick: (accesses / 4).max(1),
            churn: ChurnSpec::none(),
            prefault: false,
            prefault_writes: true,
            seed,
        }
    }

    #[test]
    fn batch_results_are_thread_count_invariant() {
        let build = |threads| {
            let requests = [Technique::Nested, Technique::Shadow, Technique::Native]
                .into_iter()
                .enumerate()
                .map(|(i, technique)| {
                    RunRequest::new(SystemConfig::new(technique), spec(1_500, i as u64 + 1))
                        .with_warmup(300)
                });
            Service::run_all(PlanOptions::with_threads(threads), requests)
                .into_iter()
                .map(RunOutcome::into_artifact)
                .collect::<Vec<_>>()
        };
        let serial = build(1);
        let parallel = build(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn batch_surfaces_the_label_of_a_panicking_run() {
        // A zero footprint makes every generated access land outside the
        // workload's VMAs, so the machine panics mid-run.
        let mut bad = spec(200, 2);
        bad.footprint = 0;
        let outcomes = Service::run_all(
            PlanOptions::with_threads(2),
            [
                RunRequest::new(SystemConfig::new(Technique::Native), spec(200, 1)),
                RunRequest::new(SystemConfig::new(Technique::Native), bad).with_label("bad-run"),
            ],
        );
        assert!(outcomes[0].artifact().is_some(), "good run completes");
        match &outcomes[1] {
            RunOutcome::Skipped {
                label,
                index,
                events,
            } => {
                assert_eq!(*index, 1);
                assert_eq!(label, "bad-run");
                let detail = &events.first().expect("panic event recorded").detail;
                assert!(detail.contains("workload accesses"), "{detail}");
            }
            other => panic!("expected the bad run to be skipped, got {other:?}"),
        }
    }

    #[test]
    fn seed_stream_is_deterministic_and_respects_overrides() {
        let opts = PlanOptions {
            threads: 1,
            seed_base: Some(7),
            ..PlanOptions::default()
        };
        let request = RunRequest::new(SystemConfig::new(Technique::Native), spec(500, 1));
        let artifacts: Vec<RunArtifact> =
            Service::run_all(opts, [request.clone(), request.with_seed(42)])
                .into_iter()
                .map(RunOutcome::into_artifact)
                .collect();
        assert_eq!(artifacts[0].seed, SplitMix64::derive(7, 0));
        assert_eq!(artifacts[1].seed, 42);
    }

    #[test]
    fn artifact_json_round_trips() {
        let artifact = RunRequest::new(
            SystemConfig::new(Technique::Agile(agile_vmm::AgileOptions::default())),
            spec(1_000, 3),
        )
        .with_trace()
        .run();
        let rendered = artifact.to_json().render();
        let parsed = Json::parse(&rendered).expect("valid JSON");
        assert_eq!(parsed, artifact.to_json());
        assert_eq!(
            parsed
                .get("stats")
                .and_then(|s| s.get("accesses"))
                .and_then(Json::as_u64),
            Some(artifact.stats.accesses)
        );
        assert!(parsed.get("trace_events").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn fingerprint_excludes_timing() {
        let req = RunRequest::new(SystemConfig::new(Technique::Shadow), spec(800, 9));
        let a = req.run();
        let b = req.run();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
