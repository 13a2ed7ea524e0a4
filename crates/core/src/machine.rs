//! The machine: one VM (guest OS + VMM) on simulated translation hardware.

use crate::analyze::{
    self, FlushScope, LintCode, LintDiag, LintReport, ShootdownEvent, ShootdownLog,
};
use crate::chaos::{
    ChaosState, DegradationEvent, DegradationKind, FaultPlan, ScenarioKind, ShootdownFate,
};
use crate::config::{SystemConfig, HOST_REF_CYCLES, WALK_REF_CYCLES};
use crate::profile::{FlushApplyStats, HotPathProfile};
use crate::snapshot::{self, Checkpoint, DiffIntent, MachineSnapshot};
use crate::stats::{HotCounters, KindCounts, RunStats};
use crate::verify::{self, Violation, ViolationSite};
use agile_guest::{FaultError, GuestOs, SegFault, Vma, VmaBacking};
use agile_mem::PhysMem;
use agile_tlb::{NestedTlb, PageWalkCaches, TlbConfig, TlbEntry, TlbHierarchy};
use agile_types::{
    AccessKind, Asid, CodecError, Counters, Dec, Enc, Fault, GuestVirtAddr, HostFrame, Level,
    Persist, ProcessId, PteFlags, StateSink, VmId,
};
use agile_vmm::{coalesce, FaultOutcome, FlushRequest, HwRoots, Technique, Vmm};
use agile_walk::{AgileCr3, WalkHw, WalkKind, WalkOk, WalkStats};
use agile_workloads::{Event, Workload, WorkloadSpec};
use std::ops::ControlFlow;

/// Why a data access could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// The access fell outside the guest's VMAs.
    Seg(SegFault),
    /// Host frame exhaustion that reclaim could not relieve; the access was
    /// abandoned with a [`DegradationEvent`] instead of a panic. Only
    /// reachable under chaos frame pressure.
    OutOfMemory,
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::Seg(s) => write!(f, "{s}"),
            AccessError::OutOfMemory => write!(f, "out of host memory; access abandoned"),
        }
    }
}

impl std::error::Error for AccessError {}

impl From<SegFault> for AccessError {
    fn from(s: SegFault) -> Self {
        AccessError::Seg(s)
    }
}

/// A complete simulated system: guest OS, VMM, and translation hardware,
/// executing workload event streams and accumulating [`RunStats`].
#[derive(Debug)]
pub struct Machine {
    cfg: SystemConfig,
    mem: PhysMem,
    vmm: Vmm,
    os: GuestOs,
    tlb: TlbHierarchy,
    pwc: PageWalkCaches,
    ntlb: NestedTlb,
    walk_stats: WalkStats,
    kinds: KindCounts,
    /// Per-access hot counters, grouped so the inner loop touches one
    /// contiguous block (see [`HotCounters`]).
    hot: HotCounters,
    procs: Vec<ProcessId>,
    baseline: Baseline,
    /// Assignments to `baseline` so far, snapshot loads included: its
    /// part generation in [`Machine::save_to`].
    baseline_generation: u64,
    trace: Option<agile_trace::TraceLog>,
    violations: Vec<Violation>,
    chaos: Option<ChaosState>,
    /// Shootdown-protocol event log for the static race detector
    /// ([`crate::analyze::detect_shootdown_races`]); `None` until enabled.
    shootdown_log: Option<ShootdownLog>,
    /// High-water mark of `mem.next_frame_raw()` at the last reuse
    /// observation, for coalesced `FrameReused` events.
    alloc_mark: u64,
    /// Monotonic id grouping the flush requests drained together with the
    /// table frees of the same VMM operation.
    flush_batches: u64,
    /// Coalesced shootdown-application counters (see [`FlushApplyStats`]).
    flush_stats: FlushApplyStats,
    /// Interleaving scheduler ([`crate::explore::Scheduler`]): when
    /// installed, the machine's concurrency decision points — flush
    /// delivery order, deferred-shootdown timing, agile switch timing —
    /// consult it instead of taking the single built-in schedule. `None`
    /// (production) is byte-identical to a scheduler that always picks
    /// alternative 0. Control-plane state: excluded from snapshots.
    scheduler: Option<Box<dyn crate::explore::Scheduler>>,
    /// Part hashes cached by [`Machine::state_key`] between calls. A memo
    /// of simulated state, not state: excluded from snapshots and reset
    /// by [`Machine::restore_from`].
    key_parts: crate::explore::PartHashes,
    /// The race pass of [`Machine::lint`], folded up to the log's last
    /// linted event. A memo like `key_parts`, reset with it.
    race_fold: analyze::RaceFold,
    /// Part A of [`Machine::lint`] as its last call left it, so a call
    /// after a clean one revisits only what moved. A memo like
    /// `key_parts`, reset with it.
    structural: analyze::StructuralCache,
}

/// Where a [`Machine::run`] stands after one workload event: what the
/// run passes to its caller's per-event hook.
#[derive(Debug, Clone, Copy)]
pub struct Boundary {
    /// Workload events consumed so far, a resumed run's skipped prefix
    /// included: the replay cursor a [`Checkpoint`] records.
    pub events: u64,
    /// Tick events applied since this run started (a resumed run counts
    /// from 0).
    pub ticks: u64,
    /// Whether the event just applied was a tick: a quiescent boundary,
    /// with flushes drained and the interval policy run.
    pub is_tick: bool,
    /// Whether the warm-up measurement trigger has not fired yet.
    pub warmup_armed: bool,
}

/// Which path a drained shootdown batch takes (see
/// [`Machine::drain_flushes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// Guest-visible VMM work: IPIs roll the chaos shootdown dice and
    /// arrive in the order an installed scheduler picks.
    Guest,
    /// Host-initiated cross-VM operations (balloon reclaim, migration
    /// teardown, pressure demotion): IPIs roll the separate cross-VM loss
    /// dice ([`FaultPlan::cross_vm_drop_pm`]).
    CrossVm,
    /// Heal and host-maintenance paths: a recovery-issued flush must never
    /// itself be dropped, so no dice are rolled.
    Reliable,
}

/// Worst-case number of host frames the infallible deep-map paths can
/// allocate while servicing one data access (guest levels + shadow + host
/// table pages, with slack). When a frame budget is active and headroom
/// falls below this, the machine reclaims *before* touching, so the
/// infallible allocators never fire into an empty budget.
pub(crate) const OOM_WATERMARK: u64 = 16;

/// Cap on stored paranoia violations — the first few carry the diagnosis;
/// an unbounded log of a systematically broken structure would swamp
/// memory.
const MAX_VIOLATIONS: usize = 64;

agile_types::record! {
    counters;
    /// Every counter [`Machine::stats`] reports, read at one instant. The
    /// machine keeps the reading taken at the start of the measurement
    /// window: everything before it — warm-up — is excluded from reported
    /// statistics, the standard simulator methodology for approximating the
    /// paper's run-to-completion measurements.
    #[derive(Debug, Default, Clone)]
    struct Baseline {
        accesses: u64,
        walk_cycles: u64,
        ad_walks: u64,
        tlb: agile_tlb::TlbStats,
        walks: WalkStats,
        kinds: KindCounts,
        traps: agile_vmm::VmtrapStats,
        os: agile_guest::OsStats,
        vmm: agile_vmm::VmmCounters,
    }
}

impl Baseline {
    /// The run statistics of a window whose counters are `self`.
    fn report(self, name: &str, cfg: &SystemConfig) -> RunStats {
        RunStats {
            name: name.to_string(),
            config_label: cfg.label(),
            accesses: self.accesses,
            tlb: self.tlb,
            walks: self.walks,
            kinds: self.kinds,
            walk_cycles: self.walk_cycles,
            ad_walks: self.ad_walks,
            traps: self.traps,
            os: self.os,
            vmm: self.vmm,
            ideal_cycles: self.accesses * cfg.base_cycles_per_access,
        }
    }
}

impl Machine {
    /// Builds a machine with one initial guest process.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        Machine::for_vm(cfg, VmId::new(0))
    }

    /// Builds a machine carrying an explicit VM identity, for multi-VM
    /// hosts: frame numbers come from the VM's own span (see
    /// [`agile_mem::VM_FRAME_SPAN`]), so no two VMs of a host can ever
    /// alias a frame. `Machine::new` is `for_vm` of VM 0.
    #[must_use]
    pub fn for_vm(cfg: SystemConfig, vm: VmId) -> Self {
        let mut mem = PhysMem::for_vm(vm);
        let mut vmm = Vmm::new_for_vm(&mut mem, cfg.technique, vm);
        let mut os = GuestOs::new(cfg.thp);
        let first = os.spawn(&mut mem, &mut vmm);
        Machine {
            cfg,
            mem,
            vmm,
            os,
            tlb: TlbHierarchy::new(&TlbConfig::default()),
            pwc: PageWalkCaches::new(&cfg.pwc),
            ntlb: NestedTlb::new(&cfg.pwc),
            walk_stats: WalkStats::default(),
            kinds: KindCounts::default(),
            hot: HotCounters::default(),
            procs: vec![first],
            baseline: Baseline::default(),
            baseline_generation: 0,
            trace: None,
            violations: Vec::new(),
            chaos: None,
            shootdown_log: None,
            alloc_mark: 0,
            flush_batches: 0,
            flush_stats: FlushApplyStats::default(),
            scheduler: None,
            key_parts: crate::explore::PartHashes::default(),
            race_fold: analyze::RaceFold::default(),
            structural: analyze::StructuralCache::default(),
        }
    }

    /// Installs an interleaving [`crate::explore::Scheduler`]: the
    /// machine's concurrency decision points (flush delivery order,
    /// deferred-shootdown timing, technique-switch timing) consult it
    /// instead of taking the single built-in schedule. The bounded
    /// explorer ([`crate::explore::explore`]) drives runs through this
    /// hook; production machines never install one.
    pub fn set_scheduler(&mut self, scheduler: Box<dyn crate::explore::Scheduler>) {
        self.scheduler = Some(scheduler);
    }

    /// Arms the deterministic fault-injection engine with `plan`.
    ///
    /// Chaos implies paranoia: the contract is that every injected fault is
    /// either healed (zero oracle violations) or reported as a typed
    /// [`DegradationEvent`], and detecting faults requires the oracles —
    /// so this forces [`SystemConfig::paranoia`] on for the machine.
    pub fn enable_chaos(&mut self, plan: FaultPlan) {
        self.cfg.paranoia = true;
        self.chaos = Some(ChaosState::new(plan));
        // Chaos injects exactly the missed-shootdown windows the static
        // race detector exists to find; always record the protocol.
        self.enable_shootdown_log();
    }

    /// Starts recording the shootdown protocol (flush requests, their
    /// delivery fates, table-page frees, and allocator reuse) for the
    /// static race detector. Implied by [`Machine::enable_chaos`]; enable
    /// explicitly on clean runs to prove the protocol race-free via
    /// [`Machine::lint`]. Idempotent.
    pub fn enable_shootdown_log(&mut self) {
        if self.shootdown_log.is_none() {
            self.shootdown_log = Some(ShootdownLog::new());
            self.alloc_mark = self.mem.next_frame_raw();
            self.mem.set_track_frees(true);
        }
    }

    /// The recorded shootdown protocol, when logging is enabled.
    #[must_use]
    pub fn shootdown_log(&self) -> Option<&ShootdownLog> {
        self.shootdown_log.as_ref()
    }

    /// Runs the whole-state static analyzer ([`crate::analyze`]) over the
    /// paused machine: the structural page-table passes, plus — when the
    /// shootdown log is enabled — the protocol race detector. After a call
    /// whose structural result was clean, the structural passes revisit
    /// only what moved since; the race pass resumes the machine's fold
    /// over the log, so a call folds only the events logged since the
    /// last. Its diagnostics are those of [`crate::analyze::analyze`] on
    /// the whole state and log.
    ///
    /// Not read-only: with the shootdown log enabled it first records any
    /// allocator reuse since the last access as a `FrameReused` event, and
    /// that log is part of the machine's snapshot state.
    #[must_use]
    pub fn lint(&mut self) -> LintReport {
        // Observe any allocation since the last access before analyzing,
        // so a free-then-reuse race right at the end is not missed.
        self.note_frame_reuse();
        let mut diags = self.structural.diags(&self.mem, &self.vmm, &self.tlb);
        if let Some(log) = self.shootdown_log.as_ref() {
            diags.extend(self.race_fold.diags(log));
        }
        // Transition-differ findings are recorded as violations when the
        // tick-boundary differ runs; surface them through the lint report
        // too so `lint()` alone proves transitions clean.
        diags.extend(
            self.violations
                .iter()
                .filter(|v| v.site == ViolationSite::Transition)
                .map(|v| {
                    let diag = LintDiag::new(LintCode::TransitionDiverged, v.detail.clone());
                    match v.gva {
                        Some(gva) => diag.gva(gva),
                        None => diag,
                    }
                }),
        );
        LintReport::from_diags(diags)
    }

    fn log_shootdown(&mut self, event: ShootdownEvent) {
        if let Some(log) = self.shootdown_log.as_mut() {
            log.push(event);
        }
    }

    /// Records a flush applied outside the request queue (heal paths flush
    /// the caching structures directly) so the race detector sees the
    /// window close.
    fn log_applied_asid(&mut self, asid: Asid) {
        if self.shootdown_log.is_some() {
            let access = self.hot.accesses;
            self.log_shootdown(ShootdownEvent::Applied {
                access,
                scope: FlushScope::asid_full(asid.raw()),
            });
        }
    }

    fn next_flush_batch(&mut self) -> u64 {
        self.flush_batches += 1;
        self.flush_batches
    }

    /// Logs the table-page frees performed by the VMM operation whose
    /// flush requests were drained as `batch`.
    fn log_freed_frames(&mut self, batch: u64) {
        if self.shootdown_log.is_none() {
            return;
        }
        let access = self.hot.accesses;
        for frame in self.mem.take_freed_frames() {
            self.log_shootdown(ShootdownEvent::FrameFreed {
                access,
                batch,
                frame,
            });
        }
    }

    /// Coalesced allocator-reuse observation: one `FrameReused` event per
    /// access in which the allocator handed out new frames (consuming
    /// capacity that table frees credited back).
    pub(crate) fn note_frame_reuse(&mut self) {
        if self.shootdown_log.is_none() {
            return;
        }
        // High-water mark over raw frame numbers (not counts), so the
        // marker frame stays correct when this VM's span starts at a
        // nonzero base on a multi-VM host.
        let next = self.mem.next_frame_raw();
        if next > self.alloc_mark {
            let first = HostFrame::new(self.alloc_mark);
            self.alloc_mark = next;
            let access = self.hot.accesses;
            self.log_shootdown(ShootdownEvent::FrameReused {
                access,
                frame: first,
            });
        }
    }

    /// Degradation events recorded so far (empty without chaos).
    #[must_use]
    pub fn degradation_events(&self) -> &[DegradationEvent] {
        self.chaos.as_ref().map_or(&[], |c| &c.log.events)
    }

    /// Drains the recorded degradation events.
    pub fn take_degradation_events(&mut self) -> Vec<DegradationEvent> {
        self.chaos.as_mut().map_or_else(Vec::new, |c| c.log.take())
    }

    /// Records oracle violations found outside the machine's own checks
    /// (e.g. the host's migration differ), capped like every other source.
    pub(crate) fn record_violations(&mut self, found: impl IntoIterator<Item = Violation>) {
        for v in found {
            if self.violations.len() >= MAX_VIOLATIONS {
                break;
            }
            self.violations.push(v);
        }
    }

    /// Paranoia violations collected so far (empty unless
    /// [`SystemConfig::paranoia`] is on and the oracles found a
    /// disagreement).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Drains the collected paranoia violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Runs the coherence audit right now, regardless of
    /// [`SystemConfig::paranoia`]: sweeps the TLB hierarchy, page-walk
    /// caches, and nested TLB for translations that disagree with the
    /// architectural page tables. Returns what it found (nothing is
    /// recorded on the machine).
    #[must_use]
    pub fn audit(&self) -> Vec<Violation> {
        verify::audit_coherence(&self.mem, &self.vmm, &self.tlb, &self.pwc, &self.ntlb)
    }

    /// Test hook: plants a raw entry in the TLB hierarchy behind the
    /// walker's back. Exists so tests can prove the paranoia oracles catch
    /// stale or wrong translations; never called by the simulator itself.
    pub fn plant_tlb_entry(&mut self, asid: Asid, va: u64, entry: TlbEntry) {
        self.tlb.fill(asid, GuestVirtAddr::new(va), entry);
    }

    /// Enables the paper's §VI tracing: guest page-table updates (step 1,
    /// from the instrumented VMM) and TLB misses (step 2, BadgerTrap-style)
    /// are recorded with interval boundaries. Drain with
    /// [`Machine::take_trace`].
    pub fn enable_tracing(&mut self) {
        self.trace = Some(agile_trace::TraceLog::new());
        self.vmm.enable_write_trace();
    }

    /// Drains the recorded trace.
    pub fn take_trace(&mut self) -> agile_trace::TraceLog {
        self.trace.take().unwrap_or_default()
    }

    fn drain_write_trace(&mut self) {
        if self.trace.is_none() {
            return;
        }
        let writes = self.vmm.take_write_trace();
        let trace = self.trace.as_mut().expect("tracing enabled");
        for (pid, gva, level) in writes {
            trace.push(agile_trace::TraceEvent::GptWrite { pid, gva, level });
        }
    }

    /// Starts the measurement window: statistics reported by
    /// [`Machine::stats`] will exclude everything before this point
    /// (warm-up exclusion). Hardware structures stay warm.
    pub fn begin_measurement(&mut self) {
        self.baseline = self.counters_now();
        self.baseline_generation += 1;
    }

    fn counters_now(&self) -> Baseline {
        Baseline {
            accesses: self.hot.accesses,
            walk_cycles: self.hot.walk_cycles,
            ad_walks: self.hot.ad_walks,
            tlb: self.tlb.stats(),
            walks: self.walk_stats,
            kinds: self.kinds,
            traps: self.vmm.trap_stats(),
            os: self.os.stats(),
            vmm: self.vmm.counters(),
        }
    }

    /// The configuration this machine runs.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The VMM (for inspection in tests and experiments).
    #[must_use]
    pub fn vmm(&self) -> &Vmm {
        &self.vmm
    }

    /// Test-only pass-through to [`Vmm::chaos_suppress_leaf_flush`]: re-
    /// plants the historical `drop_shadow_leaf` missed-flush bug so the
    /// bounded explorer's teeth can be proven against it.
    pub fn chaos_suppress_leaf_flush(&mut self, on: bool) {
        self.vmm.chaos_suppress_leaf_flush(on);
    }

    /// Test-only: appends a raw event to the shootdown protocol log (no-op
    /// when logging is disabled). Host-scope lint fixtures use it to plant
    /// cross-VM frame traffic no honest machine would record.
    pub fn chaos_log_shootdown(&mut self, event: ShootdownEvent) {
        if let Some(log) = self.shootdown_log.as_mut() {
            log.push(event);
        }
    }

    /// The simulated physical memory (read-only; the static analyzer and
    /// tests enumerate table pages through it).
    #[must_use]
    pub fn mem(&self) -> &PhysMem {
        &self.mem
    }

    /// The TLB hierarchy (read-only inspection).
    #[must_use]
    pub fn tlb(&self) -> &TlbHierarchy {
        &self.tlb
    }

    /// The page walk caches (read-only inspection).
    #[must_use]
    pub fn pwc(&self) -> &PageWalkCaches {
        &self.pwc
    }

    /// The nested TLB (read-only inspection).
    #[must_use]
    pub fn ntlb(&self) -> &NestedTlb {
        &self.ntlb
    }

    /// The guest OS (for inspection).
    #[must_use]
    pub fn os(&self) -> &GuestOs {
        &self.os
    }

    /// Mutable access to the guest OS, for driving it directly (examples
    /// and tests; workload runs go through [`Machine::run_spec`]).
    pub fn os_mut(&mut self) -> &mut GuestOs {
        &mut self.os
    }

    /// The guest leaf entry translating `va` in the current process, for
    /// inspection in examples and tests.
    #[must_use]
    pub fn guest_mapping(&self, va: u64) -> Option<(agile_types::Pte, agile_types::Level)> {
        let pid = self.vmm.current_process()?;
        self.vmm.gpt_lookup(&self.mem, pid, va)
    }

    /// Current process (the machine always has one).
    #[must_use]
    pub fn current_pid(&self) -> ProcessId {
        self.vmm.current_process().expect("machine has a process")
    }

    fn ensure_proc(&mut self, index: usize) -> ProcessId {
        while self.procs.len() <= index {
            let pid = self.os.spawn(&mut self.mem, &mut self.vmm);
            self.procs.push(pid);
        }
        self.procs[index]
    }

    /// Records the per-request `Applied` protocol event. Application
    /// itself happens batched in [`Machine::apply_flush_batch`]; the log
    /// keeps one event per request so the race detector's happens-before
    /// replay (and the log bytes) are independent of coalescing.
    fn log_applied(&mut self, req: &FlushRequest) {
        if self.shootdown_log.is_some() {
            if let Some(scope) = FlushScope::of_request(req) {
                let access = self.hot.accesses;
                self.log_shootdown(ShootdownEvent::Applied { access, scope });
            }
        }
    }

    /// Applies one delivered batch of shootdowns, coalesced to at most
    /// one operation per structure per scope (see [`agile_vmm::coalesce`]
    /// for the equivalence contract: identical final cache state and
    /// identical invalidation counts as sequential application, because
    /// every operation is a destructive removal and no lookup or fill
    /// interleaves within a batch). A swept range reaches the TLB as one
    /// set-indexed [`TlbHierarchy::invalidate_range`], whose result —
    /// per-set slot order included — is that of invalidating its 4 KiB
    /// pages one by one in ascending order.
    fn apply_flush_batch(&mut self, delivered: &[FlushRequest]) {
        if delivered.is_empty() {
            return;
        }
        let batch = coalesce(delivered);
        self.flush_stats.note(&batch);
        for &asid in &batch.asid_flushes {
            self.tlb.flush_asid(asid);
            self.pwc.flush_asid(asid);
        }
        // Oversized ranges escalate their TLB side to a full ASID flush
        // (the PWC side stays ranged below).
        for &asid in &batch.tlb_escalations {
            self.tlb.flush_asid(asid);
        }
        for r in &batch.ranges {
            self.pwc.invalidate_range(r.asid, r.start, r.len);
            if r.tlb_sweep {
                self.tlb.invalidate_range(r.asid, r.start, r.len);
            }
        }
        let vm = self.vmm.vm();
        for &gframe in &batch.ntlb_frames {
            self.ntlb.invalidate(vm, gframe);
        }
    }

    /// Delivers the VMM's pending shootdowns as one drain batch.
    ///
    /// The batch first logs every request's `Requested` scope, then each
    /// request's fate in delivery order. `NtlbFrame` requests model the
    /// hypervisor's *synchronous* local INVEPT on its own EPT edit: they
    /// sort last in [`Vmm::take_pending_flushes`], always deliver, and are
    /// never reordered. The `Asid` and `Range` requests before them are
    /// the IPI-carried gVA-space shootdowns real systems genuinely lose or
    /// delay; they roll the dice `via` names, when chaos is armed.
    ///
    /// On the guest path an installed scheduler owns the IPIs' arrival
    /// order, because real shootdown IPIs race each other. Each pick
    /// offers only requests with *distinct* flush scopes: delivering
    /// either of two identical-scope twins first reaches the same
    /// successor state, so branching on the twin is pruned (the sleep-set
    /// argument of DESIGN §5j); the suppressed permutations are reported
    /// through [`crate::explore::ChoicePoint::FlushPick`]'s `remaining`.
    fn drain_flushes(&mut self, via: Via) {
        let batch = self.next_flush_batch();
        let mut pending = self.vmm.take_pending_flushes();
        let access = self.hot.accesses;
        for req in &pending {
            if let Some(scope) = FlushScope::of_request(req) {
                self.log_shootdown(ShootdownEvent::Requested {
                    access,
                    batch,
                    scope,
                });
            }
        }
        let ipis = pending
            .iter()
            .take_while(|r| !matches!(r, FlushRequest::NtlbFrame(_)))
            .count();
        if via == Via::Guest && self.scheduler.is_some() {
            for next in 0..ipis.saturating_sub(1) {
                let remaining = &pending[next..ipis];
                // Distinct scopes in canonical (sorted-batch) order; the
                // chosen alternative indexes into this list.
                let mut distinct: Vec<FlushScope> = Vec::new();
                for r in remaining {
                    let s = FlushScope::of_request(r).expect("IPI-carried request has a scope");
                    if !distinct.contains(&s) {
                        distinct.push(s);
                    }
                }
                let choice = self.schedule(
                    crate::explore::ChoicePoint::FlushPick {
                        batch,
                        remaining: remaining.len() as u32,
                    },
                    distinct.len() as u32,
                );
                let scope = Some(distinct[choice as usize]);
                let idx = remaining
                    .iter()
                    .position(|r| FlushScope::of_request(r) == scope)
                    .expect("chosen scope came from the remaining requests");
                // Move the pick to the front, keeping the rest in order.
                pending[next..=next + idx].rotate_right(1);
            }
        }
        let mut delivered: Vec<FlushRequest> = Vec::with_capacity(pending.len());
        for (i, req) in pending.into_iter().enumerate() {
            let fate = match (via, self.chaos.as_mut()) {
                (Via::Guest, Some(c)) if i < ipis => c.roll_shootdown(),
                (Via::CrossVm, Some(c)) if i < ipis => {
                    if c.roll_cross_vm() {
                        ShootdownFate::Drop
                    } else {
                        ShootdownFate::Deliver
                    }
                }
                _ => ShootdownFate::Deliver,
            };
            if fate == ShootdownFate::Deliver {
                self.log_applied(&req);
                delivered.push(req);
                continue;
            }
            let gva = flush_gva(&req);
            let scope = FlushScope::of_request(&req).expect("IPI-carried request has a scope");
            let chaos = self.chaos.as_mut().expect("chaos rolled the dice");
            let event = if let ShootdownFate::Defer(delay) = fate {
                let due = access + delay;
                let detail = format!("deferred {req:?} until access {due}");
                chaos
                    .log
                    .record(access, DegradationKind::DeferredShootdown, gva, detail);
                chaos.deferred.push((due, req));
                ShootdownEvent::Deferred {
                    access,
                    batch,
                    due,
                    scope,
                }
            } else {
                let (kind, what) = match via {
                    Via::CrossVm => (DegradationKind::CrossVmShootdownLoss, "lost cross-vm"),
                    _ => (DegradationKind::DroppedShootdown, "dropped"),
                };
                chaos
                    .log
                    .record(access, kind, gva, format!("{what} {req:?}"));
                ShootdownEvent::Dropped {
                    access,
                    batch,
                    scope,
                }
            };
            self.log_shootdown(event);
        }
        self.apply_flush_batch(&delivered);
        self.log_freed_frames(batch);
    }

    /// Consults the installed interleaving scheduler at one choice point.
    /// Without a scheduler this is the constant 0 — the single built-in
    /// schedule every production run takes.
    fn schedule(&mut self, point: crate::explore::ChoicePoint, alternatives: u32) -> u32 {
        debug_assert!(alternatives >= 1);
        match self.scheduler.as_mut() {
            Some(s) => s.choose(point, alternatives).min(alternatives - 1),
            None => 0,
        }
    }

    /// Applies deferred shootdowns whose delivery access has been reached.
    /// Under an interleaving scheduler the due batch may instead slip one
    /// more access ([`crate::explore::ChoicePoint::DeferredDelivery`]):
    /// the IPI is in flight and the model checker owns exactly *when* in
    /// the access stream it lands.
    fn deliver_due_shootdowns(&mut self) {
        if self.chaos.is_none() {
            return;
        }
        let access = self.hot.accesses;
        let has_due = self
            .chaos
            .as_ref()
            .is_some_and(|c| c.deferred.iter().any(|(due, _)| *due <= access));
        if has_due
            && self.scheduler.is_some()
            && self.schedule(crate::explore::ChoicePoint::DeferredDelivery, 2) == 1
        {
            let chaos = self.chaos.as_mut().expect("checked above");
            for slot in &mut chaos.deferred {
                if slot.0 <= access {
                    slot.0 = access + 1;
                }
            }
            return;
        }
        let due = self
            .chaos
            .as_mut()
            .expect("checked above")
            .take_due_deferred(access);
        for req in &due {
            self.log_applied(req);
        }
        self.apply_flush_batch(&due);
    }

    // ------------------------------------------------------------------
    // Host-facing surface (multi-VM arbitration and migration:
    // `crate::host`)
    // ------------------------------------------------------------------

    /// This machine's VM identity (VM 0 for single-VM machines).
    #[must_use]
    pub fn vm_id(&self) -> VmId {
        self.vmm.vm()
    }

    /// Data accesses executed so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hot.accesses
    }

    /// Caps (or uncaps) the host frame budget — how a multi-VM host
    /// enforces this VM's lease on the shared pool.
    pub fn set_frame_budget(&mut self, budget: Option<u64>) {
        self.mem.set_frame_budget(budget);
    }

    /// Frames currently charged against the budget.
    #[must_use]
    pub fn frames_charged(&self) -> u64 {
        self.mem.frames_charged()
    }

    /// Frames left under the budget (`None` when unlimited).
    #[must_use]
    pub fn frames_remaining(&self) -> Option<u64> {
        self.mem.frames_remaining()
    }

    /// Spawns a guest process *outside* the workload's event-indexed set
    /// (the workload never context-switches to it) — the vehicle for
    /// host-driven service work such as live migration.
    pub fn spawn_process(&mut self) -> ProcessId {
        let pid = self.os.spawn(&mut self.mem, &mut self.vmm);
        self.drain_flushes(Via::Reliable);
        pid
    }

    /// Context-switches the guest to `pid` (which must be known).
    pub fn switch_to(&mut self, pid: ProcessId) {
        self.os.context_switch(&mut self.mem, &mut self.vmm, pid);
        self.drain_flushes(Via::Reliable);
    }

    /// Host balloon request: escalating reclaim over *all* guest processes
    /// (id order, deterministic) with `passes` clock passes, then balloon
    /// surrender of the recycle list. Returns the frames surrendered; the
    /// caller (the host arbiter) shrinks this VM's lease by the same
    /// amount, so the VM's headroom is unchanged and the pool gains the
    /// frames. Flushes ride the cross-VM dice: a lost shootdown leaves a
    /// stale window the heal path must close.
    pub fn host_reclaim(&mut self, passes: u32) -> u64 {
        for pid in self.vmm.processes() {
            self.os
                .reclaim_pressure(&mut self.mem, &mut self.vmm, pid, passes);
        }
        let ballooned = self.os.balloon_surrender();
        self.drain_flushes(Via::CrossVm);
        ballooned
    }

    /// Host-pressure demotion: drops every agile process to nested-from-
    /// root mode (freeing its shadow page-table frames back to the budget).
    /// Returns the number of processes demoted (0 for non-agile
    /// techniques). See [`Vmm::demote_to_nested`].
    pub fn demote_to_nested(&mut self) -> u64 {
        let mut demoted = 0;
        for pid in self.vmm.processes() {
            if self.vmm.demote_to_nested(&mut self.mem, pid) {
                demoted += 1;
            }
        }
        if demoted > 0 {
            self.drain_flushes(Via::CrossVm);
        }
        demoted
    }

    /// Replays a VMA (from a migration source's snapshot) into `pid`'s
    /// address space on this machine.
    pub fn host_mmap_vma(&mut self, pid: ProcessId, vma: &Vma) {
        match vma.backing {
            VmaBacking::Anon => {
                self.os
                    .mmap_sized(pid, vma.start, vma.len, vma.writable, vma.max_page)
            }
            VmaBacking::Cow => self.os.mmap_cow(pid, vma.start, vma.len),
        }
    }

    /// Snapshot of `pid`'s VMAs (for migration replay).
    #[must_use]
    pub fn vmas_of(&self, pid: ProcessId) -> Vec<Vma> {
        self.os.vmas(pid)
    }

    /// The currently mapped leaf pages of `pid` as `(va, writable)` pairs
    /// in ascending VA order — the pages a live migration re-touches on
    /// the destination. One entry per leaf (a 2 MiB leaf yields one entry).
    #[must_use]
    pub fn mapped_leaves(&self, pid: ProcessId) -> Vec<(u64, bool)> {
        let mut leaves = Vec::new();
        for vma in self.os.vmas(pid) {
            let mut va = vma.start;
            while va < vma.end() {
                match self.vmm.gpt_lookup(&self.mem, pid, va) {
                    Some((pte, level)) => {
                        leaves.push((va, pte.is_writable()));
                        va += level.span_bytes();
                    }
                    None => va += 0x1000,
                }
            }
        }
        leaves
    }

    /// Tears down `pid`'s mappings over `[start, start+len)` on behalf of
    /// the host (migration source teardown). The shootdown protocol is
    /// emitted in full, drained through the cross-VM loss dice; the local
    /// TLB flush (the initiating CPU flushing itself) always happens.
    pub fn host_munmap(&mut self, pid: ProcessId, start: u64, len: u64) {
        self.os
            .munmap(&mut self.mem, &mut self.vmm, pid, start, len);
        self.drain_flushes(Via::CrossVm);
        self.tlb.flush_asid(Asid::from(pid));
    }

    /// Audits the caching structures against the page tables and heals
    /// whatever cross-VM shootdown loss left stale, recording one heal per
    /// finding. Returns the residual violations (empty when healing fully
    /// restored coherence, which it must for the chaos contract). Requires
    /// chaos to be armed; without it, findings are recorded unhealed.
    pub fn heal_stale_caches(&mut self) -> Vec<Violation> {
        let found = self.audit();
        if found.is_empty() {
            return Vec::new();
        }
        if self.chaos.is_some() {
            let residual = self.heal_audit_violations(found);
            self.record_violations(residual.clone());
            residual
        } else {
            self.record_violations(found.clone());
            found
        }
    }

    /// Records a host-initiated degradation event (lease change, balloon
    /// request, demotion, migration) into this VM's typed event log.
    pub fn record_degradation(&mut self, kind: DegradationKind, gva: Option<u64>, detail: String) {
        self.chaos_record(kind, gva, detail);
    }

    /// Executes one data access at `va` by the current process, modeling
    /// the full TLB → walk → fault-handling path.
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] if the access violates the guest's VMAs.
    ///
    /// # Panics
    ///
    /// Panics if chaos frame pressure exhausted host memory beyond what
    /// reclaim could relieve; pressure-aware callers use
    /// [`Machine::try_touch`].
    pub fn touch(&mut self, va: u64, write: bool) -> Result<(), SegFault> {
        match self.try_touch(va, write) {
            Ok(()) => Ok(()),
            Err(AccessError::Seg(s)) => Err(s),
            Err(AccessError::OutOfMemory) => {
                panic!("host physical memory exhausted accessing {va:#x}")
            }
        }
    }

    /// [`Machine::touch`] with the out-of-memory degradation path surfaced
    /// as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::Seg`] for VMA violations and
    /// [`AccessError::OutOfMemory`] when chaos frame pressure could not be
    /// relieved by reclaim (the access is abandoned; the machine stays
    /// consistent).
    pub fn try_touch(&mut self, va: u64, write: bool) -> Result<(), AccessError> {
        self.hot.accesses += 1;
        self.note_frame_reuse();
        if self.chaos.is_some() {
            if let Some(c) = self.chaos.as_mut() {
                c.heals_this_access = 0;
            }
            self.fire_due_scenarios();
            self.deliver_due_shootdowns();
            if !self.ensure_frame_headroom() {
                return Err(AccessError::OutOfMemory);
            }
        }
        let pid = self.current_pid();
        let asid = Asid::from(pid);
        let access = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let gva = GuestVirtAddr::new(va);
        if let Some(entry) = self.tlb.lookup(asid, gva, access) {
            let stale = if self.cfg.paranoia {
                verify::check_tlb_entry(
                    &self.mem,
                    &self.vmm,
                    pid,
                    va,
                    &entry,
                    crate::verify::ViolationSite::TlbHit,
                )
            } else {
                None
            };
            match stale {
                None => return Ok(()),
                // With chaos armed, a wrong hit is an injected fault to
                // heal: drop the entry, rebuild the shadow leaf, and fall
                // through to a fresh walk.
                Some(v) if self.heal_translation(pid, va, &v) => {}
                Some(v) => {
                    self.record_violations([v]);
                    return Ok(());
                }
            }
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.push(agile_trace::TraceEvent::TlbMiss {
                pid,
                gva: va,
                write,
            });
        }
        for _ in 0..64 {
            match self.walk_once(pid, gva, access) {
                Ok(ok) => {
                    if self.cfg.paranoia {
                        let found =
                            verify::check_walk(&self.mem, &self.vmm, &self.cfg, pid, va, &ok);
                        if let Some(first) = found.first() {
                            if self.heal_translation(pid, va, first) {
                                // Healed: retry the walk instead of filling
                                // the TLB with a corrupted translation. The
                                // hardware still completed (and the walker
                                // counted) this walk, so classify and
                                // charge it before discarding its result —
                                // otherwise completed != classified.
                                self.kinds.record(ok.kind, ok.refs);
                                self.hot.walk_cycles += self.walk_cost(ok.refs, ok.host_refs);
                                continue;
                            }
                        }
                        self.record_violations(found);
                    }
                    self.kinds.record(ok.kind, ok.refs);
                    self.hot.walk_cycles += self.walk_cost(ok.refs, ok.host_refs);
                    self.tlb.fill_for(
                        asid,
                        gva,
                        TlbEntry::new(ok.frame, ok.size, ok.writable).with_dirty(write),
                        access,
                    );
                    self.maybe_hw_ad_walk(pid, gva, access, ok.kind);
                    if matches!(self.cfg.technique, Technique::Native) {
                        // Natively the walked table IS the OS's table;
                        // mirror the hardware A/D updates into the guest
                        // view the OS reads (e.g. for its clock algorithm).
                        self.vmm.set_guest_ad_bits(&mut self.mem, pid, va, write);
                    }
                    return Ok(());
                }
                Err(Fault::GuestPageFault { .. }) => self.handle_guest_fault(pid, va, access)?,
                Err(fault) => match self.vmm.handle_fault(&mut self.mem, pid, fault) {
                    FaultOutcome::Fixed => self.drain_flushes(Via::Guest),
                    FaultOutcome::ReflectToGuest(_) => self.handle_guest_fault(pid, va, access)?,
                },
            }
        }
        panic!("access to {va:#x} did not converge — simulator bug");
    }

    fn handle_guest_fault(
        &mut self,
        pid: ProcessId,
        va: u64,
        access: AccessKind,
    ) -> Result<(), AccessError> {
        // An allocation failure (possible only under a frame budget)
        // triggers reclaim with backoff, then one retry; if memory is still
        // exhausted the access is abandoned rather than the machine killed.
        let mut serviced =
            self.os
                .try_handle_page_fault(&mut self.mem, &mut self.vmm, pid, va, access);
        if matches!(serviced, Err(FaultError::OutOfMemory { .. })) {
            if !self.reclaim_with_backoff() {
                return Err(AccessError::OutOfMemory);
            }
            serviced = self
                .os
                .try_handle_page_fault(&mut self.mem, &mut self.vmm, pid, va, access);
        }
        serviced.map_err(|e| match e {
            FaultError::Seg(s) => AccessError::Seg(s),
            FaultError::OutOfMemory { .. } => AccessError::OutOfMemory,
        })?;
        self.drain_flushes(Via::Guest);
        self.tlb
            .invalidate_page(Asid::from(pid), GuestVirtAddr::new(va));
        Ok(())
    }

    /// Fires every scenario whose access index has been reached, in plan
    /// order.
    fn fire_due_scenarios(&mut self) {
        loop {
            let Some(chaos) = self.chaos.as_mut() else {
                return;
            };
            let Some(scenario) = chaos.plan.scenarios.get(chaos.next_scenario) else {
                return;
            };
            if scenario.at_access > self.hot.accesses {
                return;
            }
            let kind = scenario.kind.clone();
            chaos.next_scenario += 1;
            self.fire_scenario(kind);
        }
    }

    fn chaos_record(&mut self, kind: DegradationKind, gva: Option<u64>, detail: String) {
        let access = self.hot.accesses;
        if let Some(c) = self.chaos.as_mut() {
            c.log.record(access, kind, gva, detail);
        }
    }

    fn fire_scenario(&mut self, kind: ScenarioKind) {
        let pid = self.current_pid();
        let asid = Asid::from(pid);
        match kind {
            ScenarioKind::TrapStorm {
                base,
                pages,
                writes_per_page,
            } => {
                let mut writes = 0u64;
                for i in 0..pages {
                    let va = base + i * 0x1000;
                    for w in 0..writes_per_page {
                        // Alternate a harmless A/D-bit toggle so every
                        // write is a real guest page-table store (and, on
                        // shadow-mode subtrees, a GptWrite VMtrap).
                        let flip = if w % 2 == 0 {
                            PteFlags::ACCESSED
                        } else {
                            PteFlags::DIRTY
                        };
                        if self
                            .vmm
                            .gpt_update(&mut self.mem, pid, va, Level::L1, |p| p.with_flags(flip))
                            .is_some()
                        {
                            writes += 1;
                            // The storming guest invlpg's after every PTE
                            // store (the architectural sequence for a live
                            // mapping change). The invlpg is a resync
                            // point: it re-protects the just-unsynced
                            // table page, so the next store traps again —
                            // this is the adversarial pattern the KVM-style
                            // leaf unsync cannot absorb.
                            self.vmm.guest_invlpg(&mut self.mem, pid, va);
                        }
                    }
                }
                self.drain_flushes(Via::Reliable);
                self.chaos_record(
                    DegradationKind::InjectedFault,
                    Some(base),
                    format!("trap storm: {writes} write+invlpg cycles across {pages} pages"),
                );
            }
            ScenarioKind::CorruptShadowPte { gva, bit } => {
                match self
                    .vmm
                    .chaos_corrupt_shadow_leaf(&mut self.mem, pid, gva, bit)
                {
                    Some(level) => {
                        // The corruption manifests on the next walk; evict
                        // the cached entry so the walk happens.
                        self.tlb.invalidate_page(asid, GuestVirtAddr::new(gva));
                        self.chaos_record(
                            DegradationKind::InjectedFault,
                            Some(gva),
                            format!("flipped bit {bit} of the shadow {level:?} leaf"),
                        );
                    }
                    None => self.chaos_record(
                        DegradationKind::InjectedFault,
                        Some(gva),
                        format!("shadow corruption no-op: no shadow leaf (bit {bit})"),
                    ),
                }
            }
            ScenarioKind::CorruptGuestPte { gva } => {
                // The churn zone may have unmapped the planned victim
                // between plan construction and firing; re-aim at the
                // nearest still-mapped page so the scenario lands.
                let victim = self.nearest_guest_leaf(pid, gva);
                let corrupted = victim.and_then(|v| {
                    self.vmm
                        .chaos_corrupt_guest_leaf(&mut self.mem, pid, v, 0)
                        .map(|level| (v, level))
                });
                match corrupted {
                    Some((v, level)) => {
                        self.tlb.invalidate_page(asid, GuestVirtAddr::new(v));
                        let moved = if v == gva {
                            String::new()
                        } else {
                            format!(" (re-aimed from {gva:#x})")
                        };
                        self.chaos_record(
                            DegradationKind::InjectedFault,
                            Some(v),
                            format!("cleared the present bit of the guest {level:?} leaf{moved}"),
                        );
                    }
                    None => self.chaos_record(
                        DegradationKind::InjectedFault,
                        Some(gva),
                        "guest corruption no-op: no guest leaf near the target".to_string(),
                    ),
                }
            }
            ScenarioKind::FramePressure { headroom } => {
                let budget = self.mem.frames_charged() + headroom;
                self.mem.set_frame_budget(Some(budget));
                self.chaos_record(
                    DegradationKind::InjectedFault,
                    None,
                    format!("frame budget capped at {budget} ({headroom} frames of headroom)"),
                );
            }
            ScenarioKind::HostMerge { pages } => {
                // Merge candidates: TLB-resident, privately-backed (guest
                // writable — COW-shared frames are mapped read-only and
                // may be visible to other processes, whose cached
                // translations a single-process share pass must not
                // invalidate) 4 KiB leaves. Sorted for determinism
                // regardless of cache iteration order.
                let mut gvas: Vec<u64> = self
                    .tlb
                    .entries()
                    .into_iter()
                    .filter(|&(a, _, _)| a == asid)
                    .map(|(_, va, _)| va.raw())
                    .filter(|&va| {
                        matches!(
                            self.vmm.gpt_lookup(&self.mem, pid, va),
                            Some((pte, Level::L1)) if pte.is_writable()
                        )
                    })
                    .collect();
                gvas.sort_unstable();
                gvas.dedup();
                gvas.truncate(usize::try_from(pages).unwrap_or(usize::MAX));
                let reclaimed = self.vmm.host_share(&mut self.mem, pid, &gvas);
                // Host-initiated maintenance: its shootdowns are IPIs the
                // chaos dice never touch.
                self.drain_flushes(Via::Reliable);
                self.chaos_record(
                    DegradationKind::InjectedFault,
                    None,
                    format!(
                        "host same-page merge: {} pages shared, {reclaimed} frames reclaimed",
                        gvas.len()
                    ),
                );
            }
        }
    }

    /// The gVA of the guest leaf nearest `gva` (itself, else alternating
    /// ±1, ±2, … pages out to a 512-page window), for re-aiming a
    /// corruption scenario whose planned victim was unmapped by churn.
    /// Deterministic: depends only on the guest table state.
    fn nearest_guest_leaf(&self, pid: ProcessId, gva: u64) -> Option<u64> {
        if self.vmm.gpt_lookup(&self.mem, pid, gva).is_some() {
            return Some(gva);
        }
        for delta in 1..=512u64 {
            let forward = gva.wrapping_add(delta * 0x1000);
            if self.vmm.gpt_lookup(&self.mem, pid, forward).is_some() {
                return Some(forward);
            }
            let back = gva.wrapping_sub(delta * 0x1000);
            if self.vmm.gpt_lookup(&self.mem, pid, back).is_some() {
                return Some(back);
            }
        }
        None
    }

    /// Keeps at least [`OOM_WATERMARK`] frames of budget headroom, running
    /// reclaim if needed. `false` means the access must be abandoned.
    fn ensure_frame_headroom(&mut self) -> bool {
        let Some(remaining) = self.mem.frames_remaining() else {
            return true;
        };
        if remaining >= OOM_WATERMARK {
            return true;
        }
        self.reclaim_with_backoff()
    }

    /// The OOM graceful-degradation path: escalating guest reclaim passes
    /// (capped backoff ×1, ×2, ×4) with balloon surrender of the recycled
    /// frames, then — past the plan's failure cap — budget relief so the
    /// run completes instead of starving forever.
    fn reclaim_with_backoff(&mut self) -> bool {
        let pid = self.current_pid();
        for passes in [1u32, 2, 4] {
            let reclaimed = self
                .os
                .reclaim_pressure(&mut self.mem, &mut self.vmm, pid, passes);
            // Balloon: pages the guest released return to the host's frame
            // budget; the guest surrenders its recycle list with them.
            let ballooned = self.os.balloon_surrender();
            self.mem.credit_frames(ballooned);
            self.drain_flushes(Via::Reliable);
            self.tlb.flush_asid(Asid::from(pid));
            let remaining = self.mem.frames_remaining().unwrap_or(u64::MAX);
            self.chaos_record(
                DegradationKind::OomReclaim,
                None,
                format!(
                    "reclaim x{passes}: {reclaimed} pages reclaimed, {ballooned} frames \
                     ballooned, {remaining} frames of headroom"
                ),
            );
            if remaining >= OOM_WATERMARK {
                if let Some(c) = self.chaos.as_mut() {
                    c.oom_failures = 0;
                }
                return true;
            }
        }
        let Some(c) = self.chaos.as_mut() else {
            return false;
        };
        c.oom_failures += 1;
        if c.oom_failures > c.plan.max_oom_failures {
            let failures = c.oom_failures;
            self.mem.set_frame_budget(None);
            self.chaos_record(
                DegradationKind::PressureRelieved,
                None,
                format!("frame budget lifted after {failures} failed reclaim rounds"),
            );
            return true;
        }
        false
    }

    /// Graceful-degradation path for a detected wrong or stale translation:
    /// record the heal, purge every cache that could hold it, rebuild the
    /// shadow leaf, and let the access retry. `false` when chaos is off or
    /// the per-access heal budget is spent (the violation is then surfaced
    /// unhealed).
    fn heal_translation(&mut self, pid: ProcessId, va: u64, why: &Violation) -> bool {
        let Some(c) = self.chaos.as_mut() else {
            return false;
        };
        if c.heals_this_access >= c.plan.max_heals_per_access {
            return false;
        }
        c.heals_this_access += 1;
        self.chaos_record(
            DegradationKind::HealedTranslation,
            Some(va),
            format!("healing: {why}"),
        );
        let asid = Asid::from(pid);
        self.tlb.invalidate_page(asid, GuestVirtAddr::new(va));
        self.pwc.flush_asid(asid);
        // The direct walk-cache purge closes any open shootdown window for
        // this address space; tell the race detector.
        self.log_applied_asid(asid);
        self.ntlb.flush_vm(self.vmm.vm());
        self.vmm.chaos_heal_shadow(&mut self.mem, pid, va);
        self.drain_flushes(Via::Reliable);
        true
    }

    /// Heals stale-cache audit findings after an injected (dropped or
    /// deferred) shootdown: flushes every caching structure, records one
    /// heal per finding, and returns the residual violations of a clean
    /// re-audit.
    fn heal_audit_violations(&mut self, found: Vec<Violation>) -> Vec<Violation> {
        // All processes the VMM knows (sorted), not just the workload's
        // event-indexed ones: migrated-in and host-service processes need
        // their caches purged too.
        for pid in self.vmm.processes() {
            let asid = Asid::from(pid);
            self.tlb.flush_asid(asid);
            self.pwc.flush_asid(asid);
            self.log_applied_asid(asid);
        }
        self.ntlb.flush_vm(self.vmm.vm());
        let pid = self.current_pid();
        for v in found {
            self.chaos_record(
                DegradationKind::HealedTranslation,
                v.gva,
                format!("audit heal: {v}"),
            );
            if let Some(gva) = v.gva {
                self.vmm.chaos_heal_shadow(&mut self.mem, pid, gva);
            }
        }
        self.drain_flushes(Via::Reliable);
        self.audit()
    }

    fn walk_once(
        &mut self,
        pid: ProcessId,
        gva: GuestVirtAddr,
        access: AccessKind,
    ) -> Result<WalkOk, Fault> {
        let HwRoots { cr3, gptr, hptr } = self.vmm.hw_roots(pid);
        let mut hw = WalkHw {
            mem: &mut self.mem,
            pwc: &mut self.pwc,
            ntlb: &mut self.ntlb,
            vm: self.vmm.vm(),
            stats: &mut self.walk_stats,
        };
        hw.agile_walk(Asid::from(pid), gva, cr3, gptr, hptr, access)
    }

    /// Hardware optimization 1 (paper Section IV): after a shadow-mode
    /// walk, hardware updates guest A/D bits itself with an extra nested
    /// walk instead of trapping to the VMM. The extra walk is counted.
    fn maybe_hw_ad_walk(
        &mut self,
        pid: ProcessId,
        gva: GuestVirtAddr,
        access: AccessKind,
        kind: WalkKind,
    ) {
        if !self.cfg.technique.hw_ad_bits() || kind != WalkKind::FullShadow {
            return;
        }
        let Some((gpte, _)) = self.vmm.gpt_lookup(&self.mem, pid, gva.raw()) else {
            return;
        };
        let mut want = PteFlags::ACCESSED;
        if access.is_write() {
            want |= PteFlags::DIRTY;
        }
        if gpte.flags().contains(want) {
            return;
        }
        // The A/D write requires a full nested walk (up to 24 accesses),
        // still far cheaper than a VMtrap. The nested walk sets the bits.
        // The walk may itself take EPT violations for guest-table pages the
        // host table has not mapped yet; those are handled like any other.
        for _ in 0..8 {
            let HwRoots { gptr, hptr, .. } = self.vmm.hw_roots(pid);
            let mut hw = WalkHw {
                mem: &mut self.mem,
                pwc: &mut self.pwc,
                ntlb: &mut self.ntlb,
                vm: self.vmm.vm(),
                stats: &mut self.walk_stats,
            };
            match hw.agile_walk(
                Asid::from(pid),
                gva,
                AgileCr3::FullNested,
                gptr,
                hptr,
                access,
            ) {
                Ok(ok) => {
                    self.hot.walk_cycles += self.walk_cost(ok.refs, ok.host_refs);
                    self.hot.ad_walks += 1;
                    return;
                }
                Err(fault @ Fault::HostPageFault { .. }) => {
                    if self.vmm.handle_fault(&mut self.mem, pid, fault) != FaultOutcome::Fixed {
                        return;
                    }
                    self.drain_flushes(Via::Guest);
                }
                Err(_) => return,
            }
        }
    }

    fn walk_cost(&self, refs: u32, host_refs: u32) -> u64 {
        let other = u64::from(refs - host_refs);
        other * WALK_REF_CYCLES + u64::from(host_refs) * HOST_REF_CYCLES
    }

    /// Applies one workload event.
    pub fn run_event(&mut self, event: Event) {
        let pid = self.current_pid();
        // Events that edit page tables or switch address spaces must leave
        // no stale translation behind; the paranoia layer re-audits the
        // caching structures after each one. Range-scoped events audit
        // only the touched VA span (the stale translations a missed
        // shootdown could leave are, by construction, inside it); events
        // with global effect sweep everything.
        enum AuditScope {
            None,
            Range(u64, u64),
            Full,
        }
        let mut audit = AuditScope::None;
        match event {
            Event::Access { va, write } => match self.try_touch(va, write) {
                Ok(()) => {}
                Err(AccessError::OutOfMemory) => {
                    self.chaos_record(
                        DegradationKind::OomSkip,
                        Some(va),
                        "access skipped under frame pressure".to_string(),
                    );
                }
                Err(AccessError::Seg(_)) => {
                    panic!("workload accesses stay inside its VMAs")
                }
            },
            Event::Mmap {
                start,
                len,
                writable,
            } => {
                self.os.mmap(pid, start, len, writable);
            }
            Event::Munmap { start, len } => {
                self.os
                    .munmap(&mut self.mem, &mut self.vmm, pid, start, len);
                self.drain_flushes(Via::Guest);
                self.tlb.flush_asid(Asid::from(pid));
                audit = AuditScope::Range(start, len);
            }
            Event::MarkCow { start, len } => {
                self.os
                    .mark_region_cow(&mut self.mem, &mut self.vmm, pid, start, len);
                self.drain_flushes(Via::Guest);
                self.tlb.flush_asid(Asid::from(pid));
                audit = AuditScope::Range(start, len);
            }
            Event::ClockScan { start, len } => {
                self.os
                    .clock_scan(&mut self.mem, &mut self.vmm, pid, start, len);
                self.drain_flushes(Via::Guest);
                self.tlb.flush_asid(Asid::from(pid));
                audit = AuditScope::Range(start, len);
            }
            Event::ContextSwitch { to } => {
                let target = self.ensure_proc(to);
                self.os.context_switch(&mut self.mem, &mut self.vmm, target);
                self.drain_flushes(Via::Guest);
                audit = AuditScope::Full;
            }
            Event::Tick => {
                let switching =
                    matches!(self.cfg.technique, Technique::Agile(_) | Technique::Shsp(_));
                // Under an interleaving scheduler the per-page switching
                // policy may fire *after* the next interval's accesses
                // instead of at this boundary — modeling the policy work
                // racing the guest. Postponing leaves the machine fully
                // coherent (no switch, no flush), and the withheld TLB
                // misses accumulate into the next interval's count.
                let postpone = switching
                    && self.scheduler.is_some()
                    && self.schedule(crate::explore::ChoicePoint::SwitchTiming, 2) == 1;
                if postpone {
                    self.drain_flushes(Via::Guest);
                } else {
                    // Technique switches happen inside interval_tick;
                    // bracket it with the two-state differ under paranoia
                    // to prove a switch moved only page modes, never the
                    // translation function (see [`crate::snapshot::diff`]).
                    let differ = self.cfg.paranoia && switching;
                    let before = differ.then(|| {
                        snapshot::TransitionView::capture_parts(&self.mem, &self.vmm, &self.os)
                    });
                    let misses = self.tlb.stats().misses - self.hot.misses_at_last_tick;
                    self.hot.misses_at_last_tick = self.tlb.stats().misses;
                    self.vmm.interval_tick(&mut self.mem, misses);
                    self.drain_flushes(Via::Guest);
                    if let Some(before) = before {
                        let after =
                            snapshot::TransitionView::capture_parts(&self.mem, &self.vmm, &self.os);
                        let found = snapshot::diff(&before, &after, DiffIntent::TechniqueSwitch);
                        self.record_violations(found);
                    }
                }
                self.drain_write_trace();
                if let Some(trace) = self.trace.as_mut() {
                    trace.push(agile_trace::TraceEvent::IntervalEnd);
                }
                audit = AuditScope::Full;
            }
        }
        if self.cfg.paranoia {
            let found = match audit {
                AuditScope::None => return,
                AuditScope::Range(start, len) => verify::audit_coherence_range(
                    &self.mem,
                    &self.vmm,
                    &self.tlb,
                    &self.pwc,
                    &self.ntlb,
                    Asid::from(pid),
                    start,
                    len,
                ),
                AuditScope::Full => self.audit(),
            };
            if found.is_empty() {
                return;
            }
            if self.chaos.is_some() {
                // Stale caches here are injected (dropped/deferred
                // shootdowns): heal and record instead of failing the run.
                let residual = self.heal_audit_violations(found);
                self.record_violations(residual);
            } else {
                self.record_violations(found);
            }
        }
    }

    /// Runs a full workload from its spec and returns the statistics.
    pub fn run_spec(&mut self, spec: &WorkloadSpec) -> RunStats {
        self.run_spec_measured(spec, 0)
    }

    /// Runs a workload, excluding the first `warmup_accesses` data accesses
    /// from the reported statistics (warm-up exclusion: the paper runs
    /// workloads to completion over minutes, so one-time demand-fault and
    /// table-construction costs are negligible there; in short simulations
    /// they are not, unless excluded).
    pub fn run_spec_measured(&mut self, spec: &WorkloadSpec, warmup_accesses: u64) -> RunStats {
        let no_hook = |_: &mut Machine, _| ControlFlow::<()>::Continue(());
        self.run(spec, warmup_accesses, None, no_hook).0
    }

    /// Runs `spec`, calling `hook` after every workload event: the one
    /// workload loop. The hook is where a caller's boundary policy lives —
    /// checkpoints, crash triggers, cancellation, per-state checks — and
    /// returning [`ControlFlow::Break`] stops the run there, its value
    /// coming back beside the statistics accumulated so far.
    ///
    /// The first `warmup_accesses` data accesses are excluded from the
    /// statistics, as in [`Machine::run_spec_measured`]. They are counted
    /// as the machine performs them, so the prefault sweep's accesses
    /// count toward the warm-up: fig5's warm-up covers its sweep by
    /// design. A warm-up the run never reaches never opens the window, and
    /// the statistics then cover the whole run. With `resume`,
    /// the machine must already hold that checkpoint's snapshot (see
    /// [`Machine::restore_from`]): the run regenerates and discards the
    /// events the checkpoint had consumed, takes its warm-up trigger
    /// state, and applies the rest.
    pub fn run<B>(
        &mut self,
        spec: &WorkloadSpec,
        warmup_accesses: u64,
        resume: Option<&Checkpoint>,
        mut hook: impl FnMut(&mut Machine, Boundary) -> ControlFlow<B>,
    ) -> (RunStats, Option<B>) {
        let skip = resume.map_or(0, |cp| cp.events_consumed);
        let mut at = Boundary {
            events: 0,
            ticks: 0,
            is_tick: false,
            warmup_armed: resume.map_or(warmup_accesses > 0, |cp| cp.warmup_armed),
        };
        let mut stopped = None;
        for event in Workload::new(spec.clone()) {
            at.events += 1;
            if at.events <= skip {
                continue;
            }
            at.is_tick = matches!(&event, Event::Tick);
            self.run_event(event);
            if at.warmup_armed && self.hot.accesses >= warmup_accesses {
                self.begin_measurement();
                at.warmup_armed = false;
            }
            at.ticks += u64::from(at.is_tick);
            if let ControlFlow::Break(b) = hook(self, at) {
                stopped = Some(b);
                break;
            }
        }
        self.drain_write_trace();
        let stats = self.stats(&spec.name);
        if self.cfg.paranoia {
            let found = verify::check_stats(&stats, &self.cfg);
            self.record_violations(found);
        }
        (stats, stopped)
    }

    /// A resumable [`Checkpoint`] of the machine at boundary `at` of a
    /// [`Machine::run`]: the snapshot plus the replay cursor. Read-only,
    /// so a checkpointed run's results are byte-identical to an
    /// unobserved one's.
    #[must_use]
    pub fn checkpoint(&self, at: Boundary) -> Checkpoint {
        Checkpoint {
            snapshot: self.snapshot(),
            events_consumed: at.events,
            warmup_armed: at.warmup_armed,
            ticks: at.ticks,
        }
    }

    /// Snapshots the statistics collected since the measurement window
    /// began (or since construction, if [`Machine::begin_measurement`] was
    /// never called).
    #[must_use]
    pub fn stats(&self, name: &str) -> RunStats {
        self.counters_now()
            .since(&self.baseline)
            .report(name, &self.cfg)
    }

    /// Deterministic hot-path step/visit totals over the machine's whole
    /// lifetime (no warm-up exclusion): the micro-profiling surface
    /// behind `agile-bench --bin prof`. Pure function of simulated state
    /// — never wall-clock — so two identically seeded runs render
    /// byte-identical profiles.
    #[must_use]
    pub fn profile(&self) -> HotPathProfile {
        HotPathProfile {
            accesses: self.hot.accesses,
            tlb: self.tlb.stats(),
            pwc: self.pwc.stats(),
            ntlb: self.ntlb.stats(),
            walks: self.walk_stats,
            walk_cycles: self.hot.walk_cycles,
            ad_walks: self.hot.ad_walks,
            flush: self.flush_stats,
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (`crate::snapshot`)
    // ------------------------------------------------------------------

    /// Captures the machine's complete simulated state as a versioned,
    /// byte-stable [`MachineSnapshot`]. Read-only: snapshotting never
    /// perturbs the run, so checkpointed and unobserved runs produce
    /// byte-identical results.
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        let mut e = Enc::new();
        self.save_to(&mut e);
        MachineSnapshot::from_parts(self.cfg.label(), self.vmm.vm(), e.into_bytes())
    }

    /// Builds a fresh machine from `cfg` and restores `snap` into it.
    /// Running the remaining workload events on the result is
    /// byte-identical to having run straight through on the original.
    ///
    /// For machines that need control-plane state armed before the load
    /// (a chaos plan, tracing), build the machine first and use
    /// [`Machine::restore_from`].
    ///
    /// # Errors
    ///
    /// Fails when the snapshot's configuration label or VM identity do
    /// not match `cfg`, or on malformed payload bytes.
    pub fn restore(cfg: SystemConfig, snap: &MachineSnapshot) -> Result<Machine, CodecError> {
        let mut machine = Machine::for_vm(cfg, snap.vm());
        machine.restore_from(snap)?;
        Ok(machine)
    }

    /// Restores `snap` into this machine, replacing all simulated state.
    /// Control-plane state (an installed scheduler, the
    /// `chaos_suppress_leaf_flush` test knob) is untouched; the chaos
    /// arming and tracing enablement must match the snapshot's (arm the
    /// same plan before restoring).
    ///
    /// # Errors
    ///
    /// Fails on a configuration-label, VM-identity, paranoia, chaos, or
    /// tracing mismatch, and on malformed payload bytes.
    pub fn restore_from(&mut self, snap: &MachineSnapshot) -> Result<(), CodecError> {
        if snap.config_label() != self.cfg.label() {
            return Err(CodecError::new(
                0,
                format!(
                    "configuration mismatch: snapshot is '{}', machine is '{}'",
                    snap.config_label(),
                    self.cfg.label()
                ),
            ));
        }
        if snap.vm() != self.vmm.vm() {
            return Err(CodecError::new(
                0,
                format!(
                    "VM mismatch: snapshot is vm {}, machine is vm {}",
                    snap.vm().raw(),
                    self.vmm.vm().raw()
                ),
            ));
        }
        self.key_parts = crate::explore::PartHashes::default();
        self.race_fold = analyze::RaceFold::default();
        self.structural = analyze::StructuralCache::default();
        let mut d = Dec::new(snap.payload());
        self.load_state(&mut d)?;
        d.finish()
    }

    /// Visited-state key of the machine after `events` workload events
    /// (see [`crate::explore`](mod@crate::explore)): equal keys mean equal
    /// snapshot bytes and equal cursors. Built from the hashes of the
    /// snapshot's parts, each re-hashed only when its generation moved
    /// since the last call, and a structure whose group generation stood
    /// still is skipped whole.
    pub(crate) fn state_key(&mut self, events: u64) -> u64 {
        let mut parts = std::mem::take(&mut self.key_parts);
        let key = parts.key(self, events);
        self.key_parts = parts;
        key
    }

    /// [`Machine::state_key`] computed from an empty cache: every part
    /// hashed afresh. The differential tests compare the two.
    #[cfg(test)]
    pub(crate) fn state_key_uncached(&self, events: u64) -> u64 {
        crate::explore::PartHashes::default().key(self, events)
    }

    /// The race diagnostics of [`Machine::lint`]'s fold, in its order,
    /// with no allocator observation first. The differential tests compare
    /// them with a fold from scratch.
    #[cfg(test)]
    pub(crate) fn folded_races(&mut self) -> Vec<LintDiag> {
        match self.shootdown_log.as_ref() {
            Some(log) => self.race_fold.diags(log),
            None => Vec::new(),
        }
    }

    /// How often [`Machine::lint`]'s structural passes narrowed their
    /// visit since the machine was built or restored.
    #[cfg(test)]
    pub(crate) fn structural_stats(&self) -> analyze::StructuralStats {
        self.structural.stats()
    }

    /// Test hook: writes `pte` at `index` of the table page at `frame`
    /// behind the VMM's back, as a stray store would.
    #[cfg(test)]
    pub(crate) fn plant_pte(&mut self, frame: HostFrame, index: usize, pte: agile_types::Pte) {
        self.mem.write_pte(frame, index, pte);
    }

    /// Serializes all simulated state in declaration order through `s`
    /// (the snapshot passes its encoder; [`Machine::state_key`] a sink
    /// that hashes parts). The encoding is the deterministic codec of
    /// `agile_types::codec`; control-plane state (the scheduler, test
    /// knobs) is deliberately excluded — it belongs to the caller, not the
    /// simulation.
    pub(crate) fn save_to<S: StateSink>(&self, s: &mut S) {
        self.mem.save_to(s);
        self.vmm.save_to(s);
        self.os.save_to(s);
        self.tlb.save_to(s);
        self.pwc.save_to(s);
        self.ntlb.save_to(s);
        let e = s.enc();
        self.walk_stats.save(e);
        self.kinds.save(e);
        self.hot.save(e);
        self.procs.save(e);
        let generation = (self.baseline_generation, 0);
        if s.group(generation) {
            let baseline = &self.baseline;
            s.part(0, generation, |e| baseline.save(e));
        }
        let e = s.enc();
        e.bool(self.cfg.paranoia);
        match self.trace.as_ref() {
            Some(trace) => {
                e.u8(1);
                trace.save(e);
            }
            None => e.u8(0),
        }
        self.violations.save(e);
        match self.chaos.as_ref() {
            Some(chaos) => {
                e.u8(1);
                chaos.save_state(e);
            }
            None => e.u8(0),
        }
        match self.shootdown_log.as_ref() {
            Some(log) => {
                s.enc().u8(1);
                log.save_to(s);
            }
            None => s.enc().u8(0),
        }
        let e = s.enc();
        e.u64(self.alloc_mark);
        e.u64(self.flush_batches);
        self.flush_stats.save(e);
    }

    /// Restores state saved by [`Machine::save_to`], replacing every
    /// simulated structure.
    fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        self.mem.load_state(d)?;
        self.vmm.load_state(&self.mem, d)?;
        self.os.load_state(d)?;
        self.tlb.load_state(d)?;
        self.pwc.load_state(d)?;
        self.ntlb.load_state(d)?;
        self.walk_stats = WalkStats::load(d)?;
        self.kinds = KindCounts::load(d)?;
        self.hot = HotCounters::load(d)?;
        self.procs = Vec::load(d)?;
        self.baseline = Baseline::load(d)?;
        self.baseline_generation += 1;
        let paranoia = d.bool()?;
        if paranoia != self.cfg.paranoia {
            return d.fail(format!(
                "paranoia mismatch: snapshot {}, machine {}",
                paranoia, self.cfg.paranoia
            ));
        }
        match (d.u8()?, self.trace.is_some()) {
            (1, true) => self.trace = Some(agile_trace::TraceLog::load(d)?),
            (0, false) => {}
            (1, false) | (0, true) => return d.fail("tracing enablement contradicts the snapshot"),
            (b, _) => return d.fail(format!("bad trace tag {b}")),
        }
        self.violations = Vec::load(d)?;
        match (d.u8()?, self.chaos.as_mut()) {
            (1, Some(chaos)) => chaos.load_state(d)?,
            (0, None) => {}
            (1, None) => return d.fail("snapshot has chaos state but no fault plan is armed"),
            (0, Some(_)) => return d.fail("machine has chaos armed but the snapshot has none"),
            (b, _) => return d.fail(format!("bad chaos tag {b}")),
        }
        match d.u8()? {
            1 => self.shootdown_log = Some(ShootdownLog::load(d)?),
            0 => self.shootdown_log = None,
            b => return d.fail(format!("bad shootdown-log tag {b}")),
        }
        self.alloc_mark = d.u64()?;
        self.flush_batches = d.u64()?;
        self.flush_stats = FlushApplyStats::load(d)?;
        Ok(())
    }
}

/// The gVA a shootdown concerns, for degradation-event labeling.
fn flush_gva(req: &FlushRequest) -> Option<u64> {
    match req {
        FlushRequest::Range { start, .. } => Some(*start),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_vmm::AgileOptions;

    fn small_spec(accesses: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "unit".into(),
            footprint: 8 << 20,
            pattern: agile_workloads::Pattern::Uniform,
            write_fraction: 0.3,
            accesses,
            accesses_per_tick: accesses / 2,
            churn: agile_workloads::ChurnSpec::none(),
            prefault: false,
            prefault_writes: true,
            seed: 11,
        }
    }

    #[test]
    fn all_techniques_run_the_same_workload() {
        for technique in Technique::all() {
            let mut m = Machine::new(SystemConfig::new(technique));
            let stats = m.run_spec(&small_spec(2_000));
            assert_eq!(stats.accesses, 2_000, "{technique:?}");
            assert!(stats.tlb.misses > 0, "{technique:?}");
            assert!(stats.kinds.total() > 0, "{technique:?}");
        }
    }

    #[test]
    fn the_technique_field_alone_picks_the_vmm() {
        let mut cfg = SystemConfig::new(Technique::Nested);
        cfg.technique = Technique::Shadow;
        let mut m = Machine::new(cfg);
        assert_eq!(m.vmm().technique(), Technique::Shadow);
        let stats = m.run_spec(&small_spec(2_000));
        assert_eq!(stats.config_label, "4K:S");
        assert!(stats.walks.refs_shadow > 0, "no shadow references");
        let fresh = Machine::new(SystemConfig::new(Technique::Shadow)).run_spec(&small_spec(2_000));
        assert_eq!(stats.walks, fresh.walks);
        assert_eq!(stats.traps, fresh.traps);
    }

    #[test]
    fn nested_walks_more_than_shadow() {
        let run = |t| {
            Machine::new(SystemConfig::new(t).without_pwc())
                .run_spec(&small_spec(4_000))
                .avg_refs_per_miss()
        };
        let nested = run(Technique::Nested);
        let shadow = run(Technique::Shadow);
        assert!(nested > 20.0, "nested avg refs = {nested}");
        assert!(shadow <= 4.5, "shadow avg refs = {shadow}");
    }

    #[test]
    fn touch_outside_vma_is_segfault() {
        let mut m = Machine::new(SystemConfig::new(Technique::Nested));
        assert!(m.touch(0xdead_0000, false).is_err());
    }

    #[test]
    fn stats_capture_ideal_cycles() {
        let mut m = Machine::new(SystemConfig::new(Technique::Native));
        let stats = m.run_spec(&small_spec(1_000));
        assert_eq!(
            stats.ideal_cycles,
            1_000 * m.config().base_cycles_per_access
        );
        assert!(stats.overheads().vmm == 0.0);
        assert!(stats.overheads().page_walk > 0.0);
    }

    #[test]
    fn snapshot_round_trips_mid_run() {
        let cfg = SystemConfig::new(Technique::Agile(AgileOptions::default()));
        let spec = small_spec(2_000);
        let mut m = Machine::new(cfg);
        m.run_spec(&spec);
        let snap = m.snapshot();
        assert_eq!(snap.to_bytes(), m.snapshot().to_bytes(), "byte-stable");
        let restored = Machine::restore(cfg, &snap).expect("restores");
        assert_eq!(restored.snapshot().to_bytes(), snap.to_bytes());
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let m = Machine::new(SystemConfig::new(Technique::Shadow));
        let snap = m.snapshot();
        let err = Machine::restore(SystemConfig::new(Technique::Nested), &snap);
        assert!(err.is_err());
    }

    #[test]
    fn checkpoint_resume_matches_straight_through() {
        let cfg = SystemConfig::new(Technique::Agile(AgileOptions::default()));
        let mut spec = small_spec(4_000);
        spec.accesses_per_tick = 500;
        let straight = {
            let mut m = Machine::new(cfg);
            let stats = m.run_spec(&spec);
            (stats.accesses, stats.tlb, m.snapshot().to_bytes())
        };
        let mut latest = None;
        Machine::new(cfg).run(&spec, 0, None, |m, at| {
            if at.is_tick && at.ticks.is_multiple_of(2) {
                latest = Some(m.checkpoint(at));
            }
            ControlFlow::<()>::Continue(())
        });
        let cp = latest.expect("checkpoints were taken");
        let mut resumed = Machine::restore(cfg, &cp.snapshot).expect("restores");
        let (stats, _) = resumed.run(&spec, 0, Some(&cp), |_, _| ControlFlow::<()>::Continue(()));
        assert_eq!(stats.accesses, straight.0);
        assert_eq!(stats.tlb, straight.1);
        assert_eq!(
            resumed.snapshot().to_bytes(),
            straight.2,
            "final state matches"
        );
    }

    #[test]
    fn thp_reduces_tlb_misses() {
        let base = Machine::new(SystemConfig::new(Technique::Native)).run_spec(&small_spec(4_000));
        let thp = Machine::new(SystemConfig::new(Technique::Native).with_thp())
            .run_spec(&small_spec(4_000));
        assert!(
            thp.tlb.misses < base.tlb.misses / 2,
            "2M pages must cut misses: {} vs {}",
            thp.tlb.misses,
            base.tlb.misses
        );
    }
}
