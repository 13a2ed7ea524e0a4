//! Simulation-as-a-service: an async, cancellable, work-stealing run
//! engine.
//!
//! The [`crate::runner`] module gives one client one batch: build a
//! [`RunRequest`] matrix, fan it across threads, block until everything
//! finishes. This module rebuilds that engine as a **long-running
//! service** with incremental submission and streamed results:
//!
//! * [`Service::submit`] enqueues one request and returns a [`JobId`]
//!   immediately — clients submit while earlier jobs are still running.
//! * A fleet of long-lived workers pulls jobs from **sharded
//!   work-stealing queues**: each worker owns a shard (submissions are
//!   dealt round-robin) and steals from the back of its siblings' queues
//!   when its own runs dry, so a skewed matrix cannot strand capacity.
//! * [`Service::poll`] is the non-blocking status probe, [`Service::wait`]
//!   blocks for one job, and [`Service::next_result`] streams completions
//!   in finish order — the front end for serving artifacts as they land.
//! * [`Service::cancel`] stops a job **cooperatively**: a queued job is
//!   retired on the spot, a running one has its [`CancelToken`] marked and
//!   stops at the machine's next tick boundary with its partial statistics
//!   intact. The same token carries the per-job deadline, so a timed-out
//!   run surfaces as [`RunOutcome::TimedOut`] with partial stats instead
//!   of being abandoned on a detached thread (no thread ever outlives
//!   [`Service::shutdown`]).
//! * **Crash recovery**: with [`PlanOptions::checkpoint_interval`] set,
//!   every running machine checkpoints into its job's
//!   [`CheckpointSlot`] at tick
//!   boundaries. When a worker dies mid-job (the chaos layer's
//!   [`FaultPlan::kill_worker_midrun`](crate::chaos::FaultPlan) fault),
//!   the service detects the orphan, re-queues it with its last
//!   checkpoint, and a surviving worker restores the machine and replays
//!   only the remaining workload events. The resumed artifact is
//!   **byte-identical** to an uninterrupted run's; the death and resume
//!   are recorded service-side ([`Service::drain_degradations`],
//!   [`ServiceMetrics`]) and never grafted into the artifact.
//!
//! **Determinism contract:** an artifact is a pure function of its
//! request. Seeds are fixed at submission (the [`PlanOptions::seed_base`]
//! stream derives from the job id), never from scheduling, so the same
//! job file yields byte-identical per-request artifacts at any shard
//! count. The service adds wall-clock *metrics* ([`ServiceMetrics`]) on
//! the side; they never touch artifact bytes.
//!
//! [`crate::runner::RunPlan`] is now a thin batch façade over this
//! engine: it submits its matrix, waits in request order, and shuts the
//! service down.

mod cancel;

pub use cancel::{CancelToken, StopCause};

use crate::chaos::{DegradationEvent, DegradationKind};
use crate::runner::{panic_message, RecoveryControls, RunOutcome, RunRequest};
use crate::snapshot::{Checkpoint, CheckpointSlot, WorkerKill};
use agile_types::SplitMix64;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The execution options shared by the batch façade
/// ([`crate::runner::RunPlan`]) and the service — one struct instead of a
/// `with_*` builder per knob.
#[derive(Debug, Clone, Default)]
pub struct PlanOptions {
    /// Worker (= shard) count; `0` means one worker per available core.
    /// Results are byte-identical at any value.
    pub threads: usize,
    /// Cooperative per-job wall-clock limit. A job past its deadline stops
    /// at the machine's next tick boundary and surfaces as
    /// [`RunOutcome::TimedOut`] with its partial statistics.
    pub timeout: Option<Duration>,
    /// Bounded retry count for panicking jobs (a retry re-runs the whole
    /// request; exhausting the budget yields [`RunOutcome::Skipped`]).
    pub retries: u32,
    /// Deterministic seed stream: job *i* (without an explicit seed
    /// override) runs with `SplitMix64::derive(base, i)`, independent of
    /// shard count and execution order.
    pub seed_base: Option<u64>,
    /// Checkpoint the running machine into its job's slot every this-many
    /// workload ticks (`None` = no checkpointing). Powers crash recovery:
    /// a job orphaned by a worker death resumes from its last checkpoint
    /// on another worker with a byte-identical artifact.
    pub checkpoint_interval: Option<u64>,
}

impl PlanOptions {
    /// Options with `threads` workers and everything else default.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        PlanOptions {
            threads,
            ..PlanOptions::default()
        }
    }

    /// Returns the options with checkpointing every `ticks` workload
    /// ticks (clamped to ≥ 1).
    #[must_use]
    pub fn checkpoint_every(mut self, ticks: u64) -> Self {
        self.checkpoint_interval = Some(ticks.max(1));
        self
    }

    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        } else {
            self.threads
        }
    }
}

/// Handle to one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// The job's position in submission order (job 0 was submitted first).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The handle for submission-order position `index` — the inverse of
    /// [`JobId::index`], for clients that persist job ids across a
    /// round trip (e.g. a job file). [`Service::poll`] answers `None` for
    /// an id the service never issued.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        JobId(index as u64)
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in a shard queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a full artifact.
    Completed,
    /// Stopped cooperatively at its deadline; partial artifact available.
    TimedOut,
    /// Cancelled by a client (partial artifact when it was mid-flight).
    Cancelled,
    /// Panicked past its retry budget; no artifact.
    Skipped,
}

impl JobState {
    /// Stable identifier used in logs and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::TimedOut => "timed-out",
            JobState::Cancelled => "cancelled",
            JobState::Skipped => "skipped",
        }
    }
}

/// Snapshot answer of [`Service::poll`].
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job asked about.
    pub id: JobId,
    /// Its request label.
    pub label: String,
    /// Lifecycle state at the time of the poll.
    pub state: JobState,
}

/// Aggregate queue/latency/steal counters, snapshot via
/// [`Service::metrics`]. Wall-clock values are provenance, never part of
/// any artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Jobs accepted by [`Service::submit`].
    pub submitted: u64,
    /// Jobs that finished with a full artifact.
    pub completed: u64,
    /// Jobs stopped cooperatively at their deadline.
    pub timed_out: u64,
    /// Jobs cancelled by clients (queued or mid-flight).
    pub cancelled: u64,
    /// Jobs dropped after exhausting their retry budget.
    pub skipped: u64,
    /// Jobs a worker executed from a shard it does not own.
    pub steals: u64,
    /// Deepest any single shard queue ever got.
    pub max_queue_depth: u64,
    /// Total nanoseconds jobs spent queued before a worker picked them up.
    pub queue_nanos: u64,
    /// Total nanoseconds jobs spent executing.
    pub run_nanos: u64,
    /// Checkpoints stored by running jobs (counted when the job reaches a
    /// terminal state).
    pub checkpoints: u64,
    /// Orphaned jobs resumed from a checkpoint on another worker.
    pub resumes: u64,
    /// Worker deaths detected mid-job; each orphaned job is re-queued
    /// (from its checkpoint when one exists, from scratch otherwise).
    pub orphans: u64,
}

impl ServiceMetrics {
    /// Jobs in a terminal state.
    #[must_use]
    pub fn finished(&self) -> u64 {
        self.completed + self.timed_out + self.cancelled + self.skipped
    }

    /// Mean time-in-queue per finished job.
    #[must_use]
    pub fn mean_queue_latency(&self) -> Duration {
        Duration::from_nanos(self.queue_nanos.checked_div(self.finished()).unwrap_or(0))
    }

    /// Mean execution time per finished job.
    #[must_use]
    pub fn mean_run_latency(&self) -> Duration {
        Duration::from_nanos(self.run_nanos.checked_div(self.finished()).unwrap_or(0))
    }
}

#[derive(Default)]
struct MetricCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    timed_out: AtomicU64,
    cancelled: AtomicU64,
    skipped: AtomicU64,
    steals: AtomicU64,
    max_queue_depth: AtomicU64,
    queue_nanos: AtomicU64,
    run_nanos: AtomicU64,
    checkpoints: AtomicU64,
    resumes: AtomicU64,
    orphans: AtomicU64,
}

impl MetricCells {
    fn snapshot(&self) -> ServiceMetrics {
        ServiceMetrics {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            queue_nanos: self.queue_nanos.load(Ordering::Relaxed),
            run_nanos: self.run_nanos.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            orphans: self.orphans.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
}

struct Job {
    request: RunRequest,
    token: CancelToken,
    phase: Phase,
    outcome: Option<RunOutcome>,
    enqueued: Instant,
    /// Checkpoint mailbox shared with the machine executing this job.
    slot: CheckpointSlot,
    /// Checkpoint to resume from after a worker death.
    resume: Option<Checkpoint>,
    /// Runner-level degradation events carried across a worker death (so
    /// a pre-kill panic's record survives the re-queue).
    events: Vec<DegradationEvent>,
    /// The job's kill trigger already fired; it is disarmed on re-run.
    killed: bool,
}

struct State {
    jobs: Vec<Job>,
    /// One deque of job indices per worker; submissions are dealt
    /// round-robin, owners pop the front, thieves pop the back.
    shards: Vec<VecDeque<usize>>,
    next_shard: usize,
    /// Jobs not yet in a terminal state.
    live: usize,
    /// Terminal jobs not yet handed out by [`Service::next_result`].
    finished: VecDeque<usize>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Workers sleep here when every shard is empty.
    work_cv: Condvar,
    /// Waiters ([`Service::wait`]/[`Service::next_result`]) sleep here.
    done_cv: Condvar,
    metrics: MetricCells,
    timeout: Option<Duration>,
    retries: u32,
    seed_base: Option<u64>,
    checkpoint_interval: Option<u64>,
    /// Service-side degradation log (worker deaths, checkpoint resumes).
    /// Provenance only — never grafted into artifacts.
    degradations: Mutex<Vec<DegradationEvent>>,
    /// Replacement workers spawned after a death; joined at shutdown.
    replacements: Mutex<Vec<JoinHandle<()>>>,
}

/// The long-running job engine. See the [module docs](self) for the
/// architecture and determinism contract.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("metrics", &self.inner.metrics.snapshot())
            .finish_non_exhaustive()
    }
}

/// Installs (once, wrapping any existing hook) a panic hook that
/// silences the intentional [`WorkerKill`] unwind: chaos kills are
/// simulated worker crashes, not bugs, and their backtraces would drown
/// real panic output. Every other panic still reaches the previous hook.
fn silence_worker_kills() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<WorkerKill>().is_none() {
                prev(info);
            }
        }));
    });
}

impl Service {
    /// Starts the worker fleet: one long-lived worker (and queue shard)
    /// per `opts.threads` (0 = one per core). Timeout, retries, and the
    /// seed stream come from `opts` too.
    #[must_use]
    pub fn new(opts: PlanOptions) -> Self {
        silence_worker_kills();
        let shards = opts.resolved_threads().max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs: Vec::new(),
                shards: (0..shards).map(|_| VecDeque::new()).collect(),
                next_shard: 0,
                live: 0,
                finished: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            metrics: MetricCells::default(),
            timeout: opts.timeout,
            retries: opts.retries,
            seed_base: opts.seed_base,
            checkpoint_interval: opts.checkpoint_interval,
            degradations: Mutex::new(Vec::new()),
            replacements: Mutex::new(Vec::new()),
        });
        let workers = (0..shards)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("agile-svc-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn service worker")
            })
            .collect();
        Service {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.inner.state.lock().expect("service state").shards.len()
    }

    /// Enqueues one request and returns its job handle immediately.
    ///
    /// When [`PlanOptions::seed_base`] is set and the request carries no
    /// explicit seed override, the job's seed is fixed **here** — derived
    /// from the job id — so results never depend on which worker runs it.
    ///
    /// # Panics
    ///
    /// Panics if the service has been shut down.
    pub fn submit(&self, request: RunRequest) -> JobId {
        let mut request = request;
        let mut st = self.inner.state.lock().expect("service state");
        assert!(!st.shutdown, "submit on a shut-down service");
        let id = st.jobs.len();
        if request.seed.is_none() {
            if let Some(base) = self.inner.seed_base {
                request.seed = Some(SplitMix64::derive(base, id as u64));
            }
        }
        st.jobs.push(Job {
            request,
            token: CancelToken::new(),
            phase: Phase::Queued,
            outcome: None,
            enqueued: Instant::now(),
            slot: CheckpointSlot::new(),
            resume: None,
            events: Vec::new(),
            killed: false,
        });
        let shard = st.next_shard;
        st.next_shard = (st.next_shard + 1) % st.shards.len();
        st.shards[shard].push_back(id);
        st.live += 1;
        let depth = st.shards[shard].len() as u64;
        self.inner
            .metrics
            .max_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
        self.inner.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.inner.work_cv.notify_one();
        JobId(id as u64)
    }

    /// Submits a whole batch, returning the handles in request order.
    pub fn submit_all(&self, requests: impl IntoIterator<Item = RunRequest>) -> Vec<JobId> {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Non-blocking status probe; `None` for an unknown id.
    #[must_use]
    pub fn poll(&self, id: JobId) -> Option<JobStatus> {
        let st = self.inner.state.lock().expect("service state");
        let job = st.jobs.get(id.index())?;
        let state = match job.phase {
            Phase::Queued => JobState::Queued,
            Phase::Running => JobState::Running,
            Phase::Done => match job.outcome.as_ref().expect("done job has outcome") {
                RunOutcome::Completed(_) => JobState::Completed,
                RunOutcome::TimedOut { .. } => JobState::TimedOut,
                RunOutcome::Cancelled { .. } => JobState::Cancelled,
                RunOutcome::Skipped { .. } => JobState::Skipped,
            },
        };
        Some(JobStatus {
            id,
            label: job.request.label.clone(),
            state,
        })
    }

    /// Blocks until `id` reaches a terminal state and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics on an id this service never issued.
    #[must_use]
    pub fn wait(&self, id: JobId) -> RunOutcome {
        let mut st = self.inner.state.lock().expect("service state");
        assert!(id.index() < st.jobs.len(), "wait on unknown {id}");
        loop {
            if let Some(outcome) = st.jobs[id.index()].outcome.as_ref() {
                return outcome.clone();
            }
            st = self.inner.done_cv.wait(st).expect("service state");
        }
    }

    /// Blocks for the next unclaimed completion, in **finish order** —
    /// the streaming front end. Returns `None` once every submitted job's
    /// outcome has been claimed and nothing is in flight.
    #[must_use]
    pub fn next_result(&self) -> Option<(JobId, RunOutcome)> {
        let mut st = self.inner.state.lock().expect("service state");
        loop {
            if let Some(id) = st.finished.pop_front() {
                let outcome = st.jobs[id].outcome.clone().expect("finished job");
                return Some((JobId(id as u64), outcome));
            }
            if st.live == 0 {
                return None;
            }
            st = self.inner.done_cv.wait(st).expect("service state");
        }
    }

    /// Requests cooperative cancellation of `id`. A queued job is retired
    /// immediately (`RunOutcome::Cancelled` with no partial artifact); a
    /// running job's token is marked and it stops at the machine's next
    /// tick boundary with partial stats. Returns `false` when the job was
    /// already terminal (or unknown) — cancellation lost the race.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().expect("service state");
        let Some(job) = st.jobs.get_mut(id.index()) else {
            return false;
        };
        match job.phase {
            Phase::Done => false,
            Phase::Running => {
                job.token.cancel();
                true
            }
            Phase::Queued => {
                job.token.cancel();
                let outcome = RunOutcome::Cancelled {
                    label: job.request.label.clone(),
                    index: id.index(),
                    partial: None,
                };
                self.finish_locked(&mut st, id.index(), outcome);
                drop(st);
                self.inner.done_cv.notify_all();
                true
            }
        }
    }

    /// Current metric counters.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.metrics.snapshot()
    }

    /// Drains the service-side degradation log: one
    /// [`DegradationKind::ResumedFromCheckpoint`] event per worker death,
    /// saying which job was orphaned and where it resumed. These events
    /// are service provenance — they are **never** grafted into
    /// artifacts, which stay byte-identical to an undisturbed run's.
    #[must_use]
    pub fn drain_degradations(&self) -> Vec<DegradationEvent> {
        std::mem::take(
            &mut *self
                .inner
                .degradations
                .lock()
                .expect("service degradations"),
        )
    }

    /// Drains the queues and stops the fleet: already-submitted jobs run
    /// to a terminal state, further submissions panic, and every worker
    /// thread is joined before this returns (the no-detached-threads
    /// guarantee). Idempotent. Returns the final metrics.
    pub fn shutdown(&self) -> ServiceMetrics {
        {
            let mut st = self.inner.state.lock().expect("service state");
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker handles"));
        for handle in workers {
            handle.join().expect("service worker never panics");
        }
        // Replacement workers (spawned after a death) can themselves die
        // and spawn further replacements while we join, so drain until the
        // list stays empty. Kills are finite — at most one per job — so
        // this terminates.
        loop {
            let replacements =
                std::mem::take(&mut *self.inner.replacements.lock().expect("replacement handles"));
            if replacements.is_empty() {
                break;
            }
            for handle in replacements {
                handle.join().expect("service worker never panics");
            }
        }
        self.inner.metrics.snapshot()
    }

    /// Marks a job terminal under the state lock (does not notify).
    fn finish_locked(&self, st: &mut State, id: usize, outcome: RunOutcome) {
        finish_job(&self.inner, st, id, outcome);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Marks job `id` terminal: stores the outcome, bumps the right counter,
/// releases its checkpoints (a terminal job never resumes), and queues it
/// for [`Service::next_result`]. Caller holds the lock and notifies
/// `done_cv` afterwards.
fn finish_job(inner: &Inner, st: &mut State, id: usize, outcome: RunOutcome) {
    let counter = match &outcome {
        RunOutcome::Completed(_) => &inner.metrics.completed,
        RunOutcome::TimedOut { .. } => &inner.metrics.timed_out,
        RunOutcome::Cancelled { .. } => &inner.metrics.cancelled,
        RunOutcome::Skipped { .. } => &inner.metrics.skipped,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    let job = &mut st.jobs[id];
    debug_assert!(job.outcome.is_none(), "job finished twice");
    job.phase = Phase::Done;
    job.outcome = Some(outcome);
    drop(job.slot.take());
    job.resume = None;
    st.live -= 1;
    st.finished.push_back(id);
}

/// Claims the next runnable job for worker `w`: front of its own shard
/// first, then — stealing — the back of the fullest sibling shard.
/// Already-retired (queue-cancelled) jobs are skipped. Returns
/// `(job, stolen)`.
fn claim_job(st: &mut State, w: usize) -> Option<(usize, bool)> {
    while let Some(id) = st.shards[w].pop_front() {
        if st.jobs[id].outcome.is_none() {
            return Some((id, false));
        }
    }
    loop {
        let victim = st
            .shards
            .iter()
            .enumerate()
            .filter(|(s, q)| *s != w && !q.is_empty())
            .max_by_key(|(_, q)| q.len())
            .map(|(s, _)| s)?;
        while let Some(id) = st.shards[victim].pop_back() {
            if st.jobs[id].outcome.is_none() {
                return Some((id, true));
            }
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, w: usize) {
    loop {
        let claimed = {
            let mut st = inner.state.lock().expect("service state");
            loop {
                if let Some(claim) = claim_job(&mut st, w) {
                    let (id, stolen) = claim;
                    let job = &mut st.jobs[id];
                    job.phase = Phase::Running;
                    let queue_nanos = saturating_nanos(job.enqueued.elapsed());
                    inner
                        .metrics
                        .queue_nanos
                        .fetch_add(queue_nanos, Ordering::Relaxed);
                    if stolen {
                        inner.metrics.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    let recovery = RecoveryControls {
                        checkpoint_interval: inner.checkpoint_interval,
                        slot: job.slot.clone(),
                        // The kill trigger fires at most once per job: a
                        // resumed (or restarted) life runs it disarmed.
                        arm_kill: !job.killed,
                        resume: job.resume.clone(),
                    };
                    let events = std::mem::take(&mut job.events);
                    break Some((id, job.request.clone(), job.token.clone(), recovery, events));
                }
                if st.shutdown {
                    break None;
                }
                st = inner.work_cv.wait(st).expect("service state");
            }
        };
        let Some((id, request, token, recovery, events)) = claimed else {
            return;
        };
        let started = Instant::now();
        if let Some(limit) = inner.timeout {
            token.set_deadline(started + limit);
        }
        let run = run_job(&request, &token, id, inner.retries, &recovery, events);
        inner
            .metrics
            .run_nanos
            .fetch_add(saturating_nanos(started.elapsed()), Ordering::Relaxed);
        match run {
            JobRun::Done(outcome) => {
                inner
                    .metrics
                    .checkpoints
                    .fetch_add(recovery.slot.stores(), Ordering::Relaxed);
                {
                    let mut st = inner.state.lock().expect("service state");
                    finish_job(inner, &mut st, id, outcome);
                }
                inner.done_cv.notify_all();
            }
            JobRun::Killed(events) => {
                orphan_job(inner, w, id, &request.label, events);
                // This worker is dead. Spawn its replacement on the same
                // shard, then let the thread exit.
                let replacement = {
                    let inner = Arc::clone(inner);
                    std::thread::Builder::new()
                        .name(format!("agile-svc-{w}r"))
                        .spawn(move || worker_loop(&inner, w))
                        .expect("spawn replacement service worker")
                };
                inner
                    .replacements
                    .lock()
                    .expect("replacement handles")
                    .push(replacement);
                return;
            }
        }
    }
}

/// Handles a worker death: takes the orphaned job's last checkpoint,
/// re-queues it on the next shard over, logs the resume service-side, and
/// bumps the orphan/resume metrics. The job's carried runner-level events
/// survive in the job record.
fn orphan_job(inner: &Arc<Inner>, w: usize, id: usize, label: &str, events: Vec<DegradationEvent>) {
    inner.metrics.orphans.fetch_add(1, Ordering::Relaxed);
    let mut st = inner.state.lock().expect("service state");
    let resume = st.jobs[id].slot.take();
    let detail = match &resume {
        Some(cp) => {
            inner.metrics.resumes.fetch_add(1, Ordering::Relaxed);
            format!(
                "job-{id} ({label}): worker {w} died mid-run; resuming from the checkpoint \
                 at workload event {} on another worker",
                cp.events_consumed
            )
        }
        None => format!(
            "job-{id} ({label}): worker {w} died mid-run with no checkpoint stored; \
             restarting from scratch on another worker"
        ),
    };
    let job = &mut st.jobs[id];
    job.phase = Phase::Queued;
    job.killed = true;
    job.resume = resume;
    job.events = events;
    job.enqueued = Instant::now();
    let shard = (w + 1) % st.shards.len();
    st.shards[shard].push_back(id);
    drop(st);
    {
        let mut log = inner.degradations.lock().expect("service degradations");
        let seq = log.len() as u64;
        log.push(DegradationEvent {
            seq,
            access: 0,
            kind: DegradationKind::ResumedFromCheckpoint,
            gva: None,
            detail,
        });
    }
    inner.work_cv.notify_all();
}

fn saturating_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// What one [`run_job`] call did with its job.
enum JobRun {
    /// The job reached a terminal outcome on this worker.
    Done(RunOutcome),
    /// The chaos layer killed this worker mid-attempt; the job is an
    /// orphan. Carries the runner-level events accumulated so far so a
    /// pre-kill panic's record survives the re-queue.
    Killed(Vec<DegradationEvent>),
}

/// Runs one job to a terminal outcome on the calling worker: panics are
/// caught and retried up to `retries` times; a cooperative stop (cancel
/// or deadline) ends the job with its partial artifact. The deadline
/// spans the whole job, retries included. A [`WorkerKill`] unwind is
/// *not* a retryable panic — it means this worker died, and the job is
/// handed back as an orphan.
fn run_job(
    request: &RunRequest,
    token: &CancelToken,
    index: usize,
    retries: u32,
    recovery: &RecoveryControls,
    mut events: Vec<DegradationEvent>,
) -> JobRun {
    fn note(events: &mut Vec<DegradationEvent>, kind: DegradationKind, detail: String) {
        events.push(DegradationEvent {
            seq: events.len() as u64,
            access: 0,
            kind,
            gva: None,
            detail,
        });
    }
    /// Appends runner-level events after the machine's, renumbered so the
    /// combined log stays monotonic.
    fn graft(
        artifact: &mut crate::runner::RunArtifact,
        events: Vec<DegradationEvent>,
        tail: Option<(DegradationKind, String)>,
    ) {
        let mut events = events;
        if let Some((kind, detail)) = tail {
            note(&mut events, kind, detail);
        }
        let base = artifact.degradation.len() as u64;
        for (k, mut e) in events.into_iter().enumerate() {
            e.seq = base + k as u64;
            e.access = artifact.stats.accesses;
            artifact.degradation.push(e);
        }
    }

    for attempt in 0..=retries {
        // A cancel that lands between attempts still stops the job.
        if let Some(StopCause::Cancelled) = token.check() {
            return JobRun::Done(RunOutcome::Cancelled {
                label: request.label.clone(),
                index,
                partial: None,
            });
        }
        match catch_unwind(AssertUnwindSafe(|| {
            request.run_with_recovery(token, recovery)
        })) {
            Ok((mut artifact, None)) => {
                graft(&mut artifact, events, None);
                return JobRun::Done(RunOutcome::Completed(Box::new(artifact)));
            }
            Ok((mut artifact, Some(StopCause::TimedOut))) => {
                let accesses = artifact.stats.accesses;
                graft(
                    &mut artifact,
                    events,
                    Some((
                        DegradationKind::Timeout,
                        format!(
                            "deadline passed; run stopped cooperatively at a tick boundary \
                             after {accesses} measured accesses (partial stats retained)"
                        ),
                    )),
                );
                return JobRun::Done(RunOutcome::TimedOut {
                    label: request.label.clone(),
                    index,
                    partial: Box::new(artifact),
                });
            }
            Ok((mut artifact, Some(StopCause::Cancelled))) => {
                let accesses = artifact.stats.accesses;
                graft(
                    &mut artifact,
                    events,
                    Some((
                        DegradationKind::Cancelled,
                        format!(
                            "cancelled; run stopped cooperatively at a tick boundary \
                             after {accesses} measured accesses (partial stats retained)"
                        ),
                    )),
                );
                return JobRun::Done(RunOutcome::Cancelled {
                    label: request.label.clone(),
                    index,
                    partial: Some(Box::new(artifact)),
                });
            }
            Err(payload) => {
                if payload.downcast_ref::<WorkerKill>().is_some() {
                    return JobRun::Killed(events);
                }
                note(
                    &mut events,
                    DegradationKind::RunnerPanic,
                    format!("attempt {attempt} panicked: {}", panic_message(payload)),
                );
                if attempt < retries {
                    note(
                        &mut events,
                        DegradationKind::RunnerRetry,
                        format!("retrying (attempt {} of {})", attempt + 2, retries + 1),
                    );
                }
            }
        }
    }
    JobRun::Done(RunOutcome::Skipped {
        label: request.label.clone(),
        index,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::config::SystemConfig;
    use agile_vmm::Technique;
    use agile_workloads::{ChurnSpec, Pattern, WorkloadSpec};

    fn request(label: &str, seed: u64) -> RunRequest {
        let spec = WorkloadSpec {
            name: format!("service-unit-{label}"),
            footprint: 8 << 20,
            pattern: Pattern::Uniform,
            write_fraction: 0.3,
            accesses: 4_000,
            accesses_per_tick: 500,
            churn: ChurnSpec::none(),
            prefault: false,
            prefault_writes: true,
            seed,
        };
        RunRequest::new(SystemConfig::new(Technique::Shadow), spec).with_label(label)
    }

    #[test]
    fn finished_checkpointing_jobs_hold_no_checkpoint() {
        let service = Service::new(PlanOptions::with_threads(2).checkpoint_every(1));
        let plain = service.submit(request("plain", 1));
        // Killed mid-run, so it runs its second life from `resume`.
        let resumed = service
            .submit(request("resumed", 2).with_chaos(FaultPlan::new(7).kill_worker_at_tick(3)));
        for id in [plain, resumed] {
            assert!(matches!(service.wait(id), RunOutcome::Completed(_)));
        }
        let metrics = service.shutdown();
        assert!(metrics.checkpoints > 0, "the jobs stored checkpoints");
        assert_eq!(metrics.resumes, 1, "the killed job resumed");
        // (slot holds a checkpoint, resume holds a checkpoint) per job,
        // read under the lock and asserted after it is released.
        let held: Vec<(bool, bool)> = {
            let st = service.inner.state.lock().expect("service state");
            [plain, resumed]
                .iter()
                .map(|id| {
                    let job = &st.jobs[id.index()];
                    (job.slot.latest().is_some(), job.resume.is_some())
                })
                .collect()
        };
        assert_eq!(held, [(false, false); 2], "finished jobs kept checkpoints");
    }
}
