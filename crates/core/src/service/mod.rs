//! Simulation-as-a-service: an async, cancellable job engine with one
//! queue.
//!
//! Every experiment is a matrix of independent [`RunRequest`]s.
//! [`Service::run_all`] runs one such batch and returns its outcomes in
//! request order; it is how every experiment runs. Underneath it is a
//! **long-running service** with incremental submission and streamed
//! results:
//!
//! * [`Service::submit`] enqueues one request and returns a [`JobId`]
//!   immediately — clients submit while earlier jobs are still running.
//! * Long-lived workers pop jobs from the front of **one FIFO queue**.
//!   Queue, job records, metrics and the service-side degradation log all
//!   sit behind one lock.
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
//!   [`CheckpointSlot`] at tick boundaries. When the chaos layer kills a
//!   worker mid-job
//!   ([`FaultPlan::kill_worker_midrun`](crate::chaos::FaultPlan::kill_worker_midrun)),
//!   the worker catches the unwind, re-queues the orphaned job with its
//!   last checkpoint, and keeps serving. Whichever worker picks the job up
//!   next restores the machine and replays only the remaining workload
//!   events. The resumed artifact is **byte-identical** to an
//!   uninterrupted run's; the death and resume are recorded service-side
//!   ([`Service::drain_degradations`], [`ServiceMetrics`]) and never
//!   grafted into the artifact.
//!
//! **Determinism contract:** an artifact is a pure function of its
//! request. Seeds are fixed at submission (the [`PlanOptions::seed_base`]
//! stream derives from the job id), never from scheduling, so the same
//! job file yields byte-identical per-request artifacts at any worker
//! count. The service adds wall-clock *metrics* ([`ServiceMetrics`]) on
//! the side; they never touch artifact bytes.

mod cancel;

pub use cancel::{CancelToken, StopCause};

use crate::chaos::{DegradationEvent, DegradationKind};
use crate::runner::{panic_message, RecoveryControls, RunOutcome, RunRequest};
use crate::snapshot::{Checkpoint, CheckpointSlot, WorkerKill};
use agile_types::SplitMix64;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The execution options of a [`Service`] and of [`Service::run_all`] —
/// one struct instead of a `with_*` builder per knob.
#[derive(Debug, Clone, Default)]
pub struct PlanOptions {
    /// Worker count; `0` means one worker per available core. Results are
    /// byte-identical at any value.
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
    /// worker count and execution order.
    pub seed_base: Option<u64>,
    /// Checkpoint the running machine into its job's slot every this-many
    /// workload ticks (`None` = no checkpointing). Powers crash recovery:
    /// a job orphaned by a worker death resumes from its last checkpoint
    /// with a byte-identical artifact.
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

    /// `threads`, with `0` resolved to the available core count.
    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        } else {
            self.threads
        }
    }

    /// Worker count for a batch of `jobs`: the resolved
    /// [`PlanOptions::threads`], no more than there are jobs, at least
    /// one. [`Service::run_all`] sizes its service with it, and so should
    /// any client that knows its whole batch before [`Service::new`],
    /// which starts one OS thread per worker.
    #[must_use]
    pub fn workers_for(&self, jobs: usize) -> usize {
        self.resolved_threads().min(jobs).max(1)
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
    /// Waiting in the queue.
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

/// Aggregate queue and latency counters, snapshot via
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
    /// Jobs a worker took from another worker's queue. Always 0: every
    /// worker pops the one shared queue. Kept so that readers of these
    /// metrics need no change.
    pub steals: u64,
    /// Deepest the queue ever got.
    pub max_queue_depth: u64,
    /// Total nanoseconds jobs spent queued before a worker picked them up.
    pub queue_nanos: u64,
    /// Total nanoseconds jobs spent executing.
    pub run_nanos: u64,
    /// Checkpoints stored by running jobs (counted when the job reaches a
    /// terminal state).
    pub checkpoints: u64,
    /// Orphaned jobs resumed from a checkpoint.
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

/// Everything the service shares, behind its one lock.
#[derive(Default)]
struct State {
    jobs: Vec<Job>,
    /// Queued job indices, oldest first. Workers pop the front.
    queue: VecDeque<usize>,
    /// Jobs not yet in a terminal state.
    live: usize,
    /// Terminal jobs not yet handed out by [`Service::next_result`].
    finished: VecDeque<usize>,
    shutdown: bool,
    metrics: ServiceMetrics,
    /// Service-side degradation log (worker deaths, checkpoint resumes).
    /// Provenance only — never grafted into artifacts.
    degradations: Vec<DegradationEvent>,
}

impl State {
    /// Puts job `id` at the back of the queue.
    fn enqueue(&mut self, id: usize) {
        self.jobs[id].phase = Phase::Queued;
        self.jobs[id].enqueued = Instant::now();
        self.queue.push_back(id);
        let depth = self.queue.len() as u64;
        self.metrics.max_queue_depth = self.metrics.max_queue_depth.max(depth);
    }

    /// Marks job `id` terminal: stores the outcome, bumps the right
    /// counter, releases its checkpoints (a terminal job never resumes),
    /// and queues it for [`Service::next_result`]. The caller notifies
    /// `done_cv`.
    fn finish(&mut self, id: usize, outcome: RunOutcome) {
        let counter = match &outcome {
            RunOutcome::Completed(_) => &mut self.metrics.completed,
            RunOutcome::TimedOut { .. } => &mut self.metrics.timed_out,
            RunOutcome::Cancelled { .. } => &mut self.metrics.cancelled,
            RunOutcome::Skipped { .. } => &mut self.metrics.skipped,
        };
        *counter += 1;
        let job = &mut self.jobs[id];
        debug_assert!(job.outcome.is_none(), "job finished twice");
        job.phase = Phase::Done;
        job.outcome = Some(outcome);
        drop(job.slot.take());
        job.resume = None;
        self.live -= 1;
        self.finished.push_back(id);
    }

    /// Handles a worker death: takes the orphaned job's last checkpoint,
    /// puts the job back in the queue, and logs the resume service-side.
    /// The job's carried runner-level events survive in the job record.
    fn requeue_orphan(&mut self, w: usize, id: usize, events: Vec<DegradationEvent>) {
        self.metrics.orphans += 1;
        let job = &mut self.jobs[id];
        let resume = job.slot.take();
        let label = &job.request.label;
        let detail = match &resume {
            Some(cp) => {
                self.metrics.resumes += 1;
                format!(
                    "job-{id} ({label}): worker {w} died mid-run; re-queued, resuming from the \
                     checkpoint at workload event {}",
                    cp.events_consumed
                )
            }
            None => format!(
                "job-{id} ({label}): worker {w} died mid-run with no checkpoint stored; \
                 re-queued, restarting from scratch"
            ),
        };
        job.killed = true;
        job.resume = resume;
        job.events = events;
        self.enqueue(id);
        self.degradations.push(DegradationEvent {
            seq: self.degradations.len() as u64,
            access: 0,
            kind: DegradationKind::ResumedFromCheckpoint,
            gva: None,
            detail,
        });
    }
}

struct Inner {
    state: Mutex<State>,
    /// Workers sleep here when the queue is empty.
    work_cv: Condvar,
    /// Waiters ([`Service::wait`]/[`Service::next_result`]) sleep here.
    done_cv: Condvar,
    opts: PlanOptions,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("service state")
    }
}

/// The long-running job engine. See the [module docs](self) for the
/// architecture and determinism contract.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("metrics", &self.metrics())
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
    /// Starts `opts.threads` long-lived workers (0 = one per core).
    /// Timeout, retries, the seed stream and the checkpoint cadence come
    /// from `opts` too.
    #[must_use]
    pub fn new(opts: PlanOptions) -> Self {
        silence_worker_kills();
        let threads = opts.resolved_threads().max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            opts,
        });
        let workers = (0..threads)
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
            threads,
        }
    }

    /// Runs `requests` as one batch on a fresh service and returns one
    /// [`RunOutcome`] per request, in request order — how every
    /// experiment runs its matrix.
    ///
    /// The batch runs on the resolved [`PlanOptions::threads`] workers,
    /// but on no more workers than there are requests. Job *i* is request
    /// *i*, so the [`PlanOptions::seed_base`] stream gives it the seed
    /// `derive(seed_base, i)`. Outcomes are bit-identical at any worker
    /// count: workers race only over *which* request they pick up next,
    /// and every request is self-contained.
    ///
    /// Fault containment is built in: a panicking request is retried up to
    /// [`PlanOptions::retries`] times and then skipped; a request past
    /// [`PlanOptions::timeout`] stops cooperatively at the machine's next
    /// tick boundary and surfaces as [`RunOutcome::TimedOut`] with its
    /// partial statistics. One poisoned run never loses the rest of the
    /// matrix, and sibling results are bit-identical to an undisturbed
    /// batch's.
    #[must_use]
    pub fn run_all(
        opts: PlanOptions,
        requests: impl IntoIterator<Item = RunRequest>,
    ) -> Vec<RunOutcome> {
        let requests: Vec<RunRequest> = requests.into_iter().collect();
        let service = Service::new(PlanOptions {
            threads: opts.workers_for(requests.len()),
            ..opts
        });
        let ids = service.submit_all(requests);
        // Dropping the service at the end joins its workers.
        ids.into_iter().map(|id| service.wait(id)).collect()
    }

    /// Number of workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.threads
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
    pub fn submit(&self, mut request: RunRequest) -> JobId {
        let mut st = self.inner.lock();
        assert!(!st.shutdown, "submit on a shut-down service");
        let id = st.jobs.len();
        if request.seed.is_none() {
            if let Some(base) = self.inner.opts.seed_base {
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
        st.enqueue(id);
        st.live += 1;
        st.metrics.submitted += 1;
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
        let st = self.inner.lock();
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
        let mut st = self.inner.lock();
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
        let mut st = self.inner.lock();
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
        let mut st = self.inner.lock();
        let Some(job) = st.jobs.get(id.index()) else {
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
                st.queue.retain(|&q| q != id.index());
                st.finish(id.index(), outcome);
                drop(st);
                self.inner.done_cv.notify_all();
                true
            }
        }
    }

    /// Current metric counters.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.lock().metrics.clone()
    }

    /// Drains the service-side degradation log: one
    /// [`DegradationKind::ResumedFromCheckpoint`] event per worker death,
    /// saying which job was orphaned and where it resumed. These events
    /// are service provenance — they are **never** grafted into
    /// artifacts, which stay byte-identical to an undisturbed run's.
    #[must_use]
    pub fn drain_degradations(&self) -> Vec<DegradationEvent> {
        std::mem::take(&mut self.inner.lock().degradations)
    }

    /// Drains the queue and stops the workers: already-submitted jobs run
    /// to a terminal state, further submissions panic, and every worker
    /// thread is joined before this returns (the no-detached-threads
    /// guarantee). Idempotent. Returns the final metrics.
    pub fn shutdown(&self) -> ServiceMetrics {
        self.inner.lock().shutdown = true;
        self.inner.work_cv.notify_all();
        for handle in std::mem::take(&mut *self.workers.lock().expect("worker handles")) {
            handle.join().expect("service worker never panics");
        }
        self.metrics()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: pops the queue's front job, runs it outside the lock, and
/// records the result. A job killed by chaos goes back in the queue, and
/// the worker carries on — the kill simulates a crash of the attempt, and
/// `run_job` already caught its unwind on this thread. Returns once the
/// service is shut down and the queue is empty.
fn worker_loop(inner: &Inner, w: usize) {
    let mut st = inner.lock();
    loop {
        let Some(id) = st.queue.pop_front() else {
            if st.shutdown {
                return;
            }
            st = inner.work_cv.wait(st).expect("service state");
            continue;
        };
        let job = &mut st.jobs[id];
        job.phase = Phase::Running;
        let queued = saturating_nanos(job.enqueued.elapsed());
        let recovery = RecoveryControls {
            checkpoint_interval: inner.opts.checkpoint_interval,
            slot: job.slot.clone(),
            // The kill trigger fires at most once per job: a resumed (or
            // restarted) life runs it disarmed.
            arm_kill: !job.killed,
            resume: job.resume.clone(),
        };
        let (request, token) = (job.request.clone(), job.token.clone());
        let events = std::mem::take(&mut job.events);
        st.metrics.queue_nanos += queued;
        drop(st);

        let started = Instant::now();
        if let Some(limit) = inner.opts.timeout {
            token.set_deadline(started + limit);
        }
        let run = run_job(&request, &token, id, inner.opts.retries, &recovery, events);

        st = inner.lock();
        st.metrics.run_nanos += saturating_nanos(started.elapsed());
        match run {
            JobRun::Done(outcome) => {
                st.metrics.checkpoints += recovery.slot.stores();
                st.finish(id, outcome);
                inner.done_cv.notify_all();
            }
            // This worker is still alive and pops the queue next, so no
            // sleeping worker needs waking.
            JobRun::Killed(events) => st.requeue_orphan(w, id, events),
        }
    }
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
/// *not* a retryable panic — it simulates the death of the worker, and
/// the job is handed back as an orphan.
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
    fn batch_workers_resolve_zero_to_the_core_count_and_clamp_to_the_batch() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let workers = |threads, jobs| PlanOptions::with_threads(threads).workers_for(jobs);
        assert_eq!(workers(0, 64), cores.min(64));
        assert_eq!(workers(0, 1), 1);
        assert_eq!(workers(3, 2), 2);
        assert_eq!(workers(3, 8), 3);
        assert_eq!(workers(3, 0), 1, "an empty batch still gets a worker");
        // A shard count or job-file `threads` far past the batch: only the
        // count is computed here, no thread is started.
        assert_eq!(workers(usize::MAX, 8), 8);
        assert_eq!(workers(1_000_000, 0), 1);
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
