//! Deterministic fault injection with graceful degradation.
//!
//! The robustness layer of the simulator: a seeded chaos engine that
//! perturbs every subsystem mid-run — host frame exhaustion in
//! [`agile_mem::PhysMem`], dropped and deferred TLB-shootdown requests,
//! single-bit PTE corruption in the shadow and guest tables, and guest
//! page-table-write trap storms against the agile switching policy — and
//! the typed [`DegradationEvent`] log that pairs every injected fault with
//! the recovery path that absorbed it.
//!
//! The contract (enforced by `tests/chaos.rs` with
//! [`crate::SystemConfig::paranoia`] on): an injected fault is either
//! **fully healed** — the oracles find zero violations afterwards — or it
//! **surfaces as a typed degradation report**. Never a panic, never a
//! silent wrong translation.
//!
//! Everything is a pure function of the [`FaultPlan`]: the dice come from
//! one [`SplitMix64`] stream seeded by [`FaultPlan::seed`], scenarios fire
//! at fixed access indices, and events carry no timestamps — the rendered
//! log ([`render_log`]) is byte-identical across runs, hosts, and thread
//! counts. CI asserts exactly that.

use agile_types::{CodecError, Dec, Enc, Persist, SplitMix64};
use agile_vmm::FlushRequest;

/// Cap on stored degradation events: a high drop rate over a long run
/// would otherwise grow the log without bound. Truncation is itself
/// recorded (deterministically), so a capped log is still comparable.
pub const MAX_EVENTS: usize = 4096;

/// A one-shot fault fired when the machine reaches a given access index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosScenario {
    /// Data-access count at which the fault fires (fires just before the
    /// first access with `accesses >= at_access`).
    pub at_access: u64,
    /// What to break.
    pub kind: ScenarioKind,
}

/// The injectable fault taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A burst of write+invlpg cycles against already-mapped guest PTEs —
    /// the architectural sequence for a live mapping change. The invlpg
    /// after each store is a resync point that re-protects the table page,
    /// so under shadow-mode subtrees *every* store is a `GptWrite` VMtrap
    /// (the KVM-style leaf unsync, which absorbs plain same-page write
    /// bursts, cannot absorb this pattern). A large burst is a trap storm
    /// the agile policy's hysteresis guard
    /// (`AgileOptions::storm_threshold`) must absorb by falling whole
    /// processes back to nested mode.
    TrapStorm {
        /// First guest VA whose L1 entry is rewritten.
        base: u64,
        /// Number of consecutive 4 KiB pages hit.
        pages: u64,
        /// Write+invlpg cycles per page (each one a potential trap).
        writes_per_page: u32,
    },
    /// Flips one bit in the shadow (or Native merged) leaf translating
    /// `gva`. Bit 12 — the low frame bit — yields a *wrong translation*
    /// the reference oracle catches on the next walk; the heal path drops
    /// and rebuilds the shadow subtree.
    CorruptShadowPte {
        /// Guest VA whose shadow leaf is corrupted.
        gva: u64,
        /// Bit index to flip (12 = low frame bit).
        bit: u32,
    },
    /// Clears the present bit of the guest L1 leaf translating `gva`,
    /// modeling guest-side table corruption. Purely-nested configurations
    /// heal organically (the next walk refaults and remaps); shadow-backed
    /// ones are left with a stale shadow leaf the oracle catches.
    CorruptGuestPte {
        /// Guest VA whose guest leaf loses its present bit.
        gva: u64,
    },
    /// Caps the host frame budget at `headroom` frames above what is
    /// currently charged, forcing the OOM degradation path: reclaim with
    /// capped backoff, then skip, then (past the failure cap) relief.
    FramePressure {
        /// Frames left above the current charge level.
        headroom: u64,
    },
    /// A host same-page-merging pass (KSM-style dedup) over the current
    /// process's hottest pages — TLB residency is the deterministic
    /// "hot" proxy. Each merged page's backing is remapped onto a shared
    /// read-only copy via `Vmm::host_share`, the historically bug-prone
    /// path whose shadow-leaf shootdown (`drop_shadow_leaf`) once went
    /// missing; later guest writes break the sharing back with a
    /// host-level copy-on-write. With the shootdown protocol intact the
    /// pass is invisible to the guest — the interleaving explorer's
    /// re-plant fixture suppresses that shootdown and proves the oracle
    /// (and the explorer) catch the stale translations it leaves behind.
    HostMerge {
        /// Maximum number of TLB-resident private 4 KiB pages merged.
        pages: u64,
    },
}

/// A complete, self-describing fault-injection plan: seed, background
/// rates, and one-shot scenarios. The plan *is* the experiment — two runs
/// of the same plan on the same workload produce byte-identical
/// degradation logs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injection dice (independent of the workload seed).
    pub seed: u64,
    /// Per-mille probability that a VMM shootdown request is dropped
    /// outright (never delivered to the TLB/PWC).
    pub drop_shootdown_pm: u32,
    /// Per-mille probability that a shootdown is deferred by
    /// [`FaultPlan::defer_delay`] accesses instead of applied immediately.
    pub defer_shootdown_pm: u32,
    /// Deferral distance, in data accesses.
    pub defer_delay: u64,
    /// One-shot faults, fired in `at_access` order.
    pub scenarios: Vec<ChaosScenario>,
    /// Heal-and-retry attempts allowed per data access before remaining
    /// oracle violations are surfaced unhealed.
    pub max_heals_per_access: u32,
    /// Consecutive OOM reclaim failures tolerated before the machine
    /// lifts the frame budget entirely (recorded as
    /// [`DegradationKind::PressureRelieved`]).
    pub max_oom_failures: u32,
    /// Per-mille probability that a *host-initiated* cross-VM shootdown
    /// (balloon reclaim, live migration teardown, pressure demotion) is
    /// dropped before reaching the target VM's caches. Rolls separate dice
    /// from [`FaultPlan::drop_shootdown_pm`], so adding cross-VM chaos
    /// never perturbs an existing single-VM fault stream.
    pub cross_vm_drop_pm: u32,
    /// Simulates the death of the worker executing this job at the given
    /// workload tick boundary (1 = the first tick): the run unwinds with a
    /// [`crate::WorkerKill`] payload. The fault is armed only when the job
    /// runs under the [`crate::Service`]. There the worker catches the
    /// unwind, re-queues the orphaned job with its last checkpoint, and
    /// keeps serving; whichever worker picks the job up next resumes it.
    /// Direct [`crate::RunRequest::run`] calls (the unkilled reference)
    /// ignore it, and per-seed artifacts stay byte-identical.
    pub kill_worker_midrun: Option<u64>,
}

impl FaultPlan {
    /// A quiet plan: no background rates, no scenarios. Compose with the
    /// builder methods.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_shootdown_pm: 0,
            defer_shootdown_pm: 0,
            defer_delay: 32,
            scenarios: Vec::new(),
            max_heals_per_access: 8,
            max_oom_failures: 4,
            cross_vm_drop_pm: 0,
            kill_worker_midrun: None,
        }
    }

    /// Kills the executing worker at workload tick `tick` (1-based); the
    /// service re-queues the job and resumes it from its last checkpoint.
    /// See [`FaultPlan::kill_worker_midrun`].
    #[must_use]
    pub fn kill_worker_at_tick(mut self, tick: u64) -> Self {
        self.kill_worker_midrun = Some(tick.max(1));
        self
    }

    /// Drops each host-initiated cross-VM shootdown with probability
    /// `per_mille`/1000 (see [`FaultPlan::cross_vm_drop_pm`]).
    #[must_use]
    pub fn drop_cross_vm_shootdowns(mut self, per_mille: u32) -> Self {
        self.cross_vm_drop_pm = per_mille.min(1000);
        self
    }

    /// Drops each shootdown request with probability `per_mille`/1000.
    #[must_use]
    pub fn drop_shootdowns(mut self, per_mille: u32) -> Self {
        self.drop_shootdown_pm = per_mille.min(1000);
        self
    }

    /// Defers each shootdown request with probability `per_mille`/1000 by
    /// `delay_accesses` data accesses.
    #[must_use]
    pub fn defer_shootdowns(mut self, per_mille: u32, delay_accesses: u64) -> Self {
        self.defer_shootdown_pm = per_mille.min(1000);
        self.defer_delay = delay_accesses;
        self
    }

    /// Adds a one-shot scenario firing at `at_access`.
    #[must_use]
    pub fn scenario(mut self, at_access: u64, kind: ScenarioKind) -> Self {
        self.scenarios.push(ChaosScenario { at_access, kind });
        self
    }
}

/// What recovery path a [`DegradationEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationKind {
    /// A VMM shootdown request was dropped before delivery.
    DroppedShootdown,
    /// A VMM shootdown request was queued for late delivery.
    DeferredShootdown,
    /// A one-shot scenario injected its fault.
    InjectedFault,
    /// A wrong or stale translation was detected by the oracles and healed
    /// (caches invalidated, shadow subtree dropped and rebuilt).
    HealedTranslation,
    /// Frame pressure triggered a guest reclaim pass.
    OomReclaim,
    /// An access was abandoned because reclaim could not restore frame
    /// headroom.
    OomSkip,
    /// The frame budget was lifted after repeated reclaim failure so the
    /// run could complete.
    PressureRelieved,
    /// The event log hit [`MAX_EVENTS`] and stopped growing.
    LogTruncated,
    /// A runner request panicked and was isolated from its siblings.
    RunnerPanic,
    /// A job passed its cooperative deadline and stopped at the machine's
    /// next tick boundary, keeping its partial statistics.
    Timeout,
    /// A job was cancelled and stopped cooperatively at the machine's next
    /// tick boundary.
    Cancelled,
    /// A runner request was retried after a panic.
    RunnerRetry,
    /// A host-initiated cross-VM shootdown was dropped before delivery.
    CrossVmShootdownLoss,
    /// The host arbiter asked a VM's balloon to surrender frames.
    BalloonRequest,
    /// The host grew or shrank a VM's frame lease.
    LeaseChange,
    /// The host demoted a VM's agile processes to nested mode to reclaim
    /// shadow page-table frames under pressure.
    TechniqueDemotion,
    /// A process was live-migrated from one VM to another.
    ProcessMigration,
    /// Arbitration could not restore a VM's frame headroom; the VM now
    /// degrades access-by-access (OOM skips) instead of panicking.
    VmStarved,
    /// A worker died mid-job ([`FaultPlan::kill_worker_midrun`]); the
    /// service re-queued the job to resume from its last checkpoint.
    /// Surfaced in the service's degradation log — never grafted into the
    /// artifact, which must stay byte-identical to an unkilled run.
    ResumedFromCheckpoint,
}

impl DegradationKind {
    /// Stable identifier used in rendered logs and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DegradationKind::DroppedShootdown => "dropped-shootdown",
            DegradationKind::DeferredShootdown => "deferred-shootdown",
            DegradationKind::InjectedFault => "injected-fault",
            DegradationKind::HealedTranslation => "healed-translation",
            DegradationKind::OomReclaim => "oom-reclaim",
            DegradationKind::OomSkip => "oom-skip",
            DegradationKind::PressureRelieved => "pressure-relieved",
            DegradationKind::LogTruncated => "log-truncated",
            DegradationKind::RunnerPanic => "runner-panic",
            DegradationKind::Timeout => "timeout",
            DegradationKind::Cancelled => "cancelled",
            DegradationKind::RunnerRetry => "runner-retry",
            DegradationKind::CrossVmShootdownLoss => "cross-vm-shootdown-loss",
            DegradationKind::BalloonRequest => "balloon-request",
            DegradationKind::LeaseChange => "lease-change",
            DegradationKind::TechniqueDemotion => "technique-demotion",
            DegradationKind::ProcessMigration => "process-migration",
            DegradationKind::VmStarved => "vm-starved",
            DegradationKind::ResumedFromCheckpoint => "resumed-from-checkpoint",
        }
    }

    /// Every kind, in tag order (the [`Persist`] encoding's order).
    pub const ALL: [DegradationKind; 19] = [
        DegradationKind::DroppedShootdown,
        DegradationKind::DeferredShootdown,
        DegradationKind::InjectedFault,
        DegradationKind::HealedTranslation,
        DegradationKind::OomReclaim,
        DegradationKind::OomSkip,
        DegradationKind::PressureRelieved,
        DegradationKind::LogTruncated,
        DegradationKind::RunnerPanic,
        DegradationKind::Timeout,
        DegradationKind::Cancelled,
        DegradationKind::RunnerRetry,
        DegradationKind::CrossVmShootdownLoss,
        DegradationKind::BalloonRequest,
        DegradationKind::LeaseChange,
        DegradationKind::TechniqueDemotion,
        DegradationKind::ProcessMigration,
        DegradationKind::VmStarved,
        DegradationKind::ResumedFromCheckpoint,
    ];
}

impl Persist for DegradationKind {
    fn save(&self, e: &mut Enc) {
        let tag = DegradationKind::ALL
            .iter()
            .position(|k| k == self)
            .expect("kind in ALL") as u8;
        e.u8(tag);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        let tag = d.u8()?;
        DegradationKind::ALL
            .get(usize::from(tag))
            .copied()
            .map_or_else(|| d.fail(format!("bad DegradationKind tag {tag}")), Ok)
    }
}

agile_types::record! {
    /// One typed degradation report: what was injected or absorbed, where,
    /// and in which access. Carries no wall-clock state — the log is part of
    /// the deterministic artifact.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DegradationEvent {
        /// Monotonic sequence number within the run.
        pub seq: u64,
        /// Data-access count when the event was recorded.
        pub access: u64,
        /// Recovery-path classification.
        pub kind: DegradationKind,
        /// Guest VA involved, when the event concerns one.
        pub gva: Option<u64>,
        /// Free-form (but deterministic) description.
        pub detail: String,
    }
}

impl std::fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{:04} @{} [{}]",
            self.seq,
            self.access,
            self.kind.label()
        )?;
        if let Some(gva) = self.gva {
            write!(f, " gva={gva:#x}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Renders a degradation log one event per line — the byte string CI
/// compares across runs to assert injection determinism.
#[must_use]
pub fn render_log(events: &[DegradationEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// A degradation-event log capped at [`MAX_EVENTS`] entries. The first
/// event past the cap is replaced by one [`DegradationKind::LogTruncated`]
/// sentinel naming the log; later ones are dropped. `seq` numbers every
/// appended event, sentinel included, and keeps counting across
/// [`EventLog::take`]. The machine's chaos state and the multi-VM host
/// each own one.
#[derive(Debug)]
pub(crate) struct EventLog {
    /// What the truncation sentinel calls this log.
    name: &'static str,
    pub(crate) events: Vec<DegradationEvent>,
    pub(crate) truncated: bool,
    pub(crate) next_seq: u64,
}

impl EventLog {
    pub(crate) fn new(name: &'static str) -> Self {
        EventLog {
            name,
            events: Vec::new(),
            truncated: false,
            next_seq: 0,
        }
    }

    /// Appends a typed event stamped `access`, or the truncation sentinel
    /// once the log is full.
    pub(crate) fn record(
        &mut self,
        access: u64,
        kind: DegradationKind,
        gva: Option<u64>,
        detail: String,
    ) {
        let (kind, gva, detail) = if self.events.len() < MAX_EVENTS {
            (kind, gva, detail)
        } else if !self.truncated {
            self.truncated = true;
            let detail = format!("{} capped at {MAX_EVENTS} entries", self.name);
            (DegradationKind::LogTruncated, None, detail)
        } else {
            return;
        };
        self.events.push(DegradationEvent {
            seq: self.next_seq,
            access,
            kind,
            gva,
            detail,
        });
        self.next_seq += 1;
    }

    /// Drains the log and re-arms the cap; `seq` keeps counting.
    pub(crate) fn take(&mut self) -> Vec<DegradationEvent> {
        self.truncated = false;
        std::mem::take(&mut self.events)
    }
}

/// Fate of one shootdown request under the background rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShootdownFate {
    Deliver,
    Drop,
    Defer(u64),
}

/// Live injection state owned by the machine: the plan, the dice, the
/// deferred-shootdown queue, and the event log.
#[derive(Debug)]
pub(crate) struct ChaosState {
    pub(crate) plan: FaultPlan,
    rng: SplitMix64,
    pub(crate) deferred: Vec<(u64, FlushRequest)>,
    pub(crate) log: EventLog,
    pub(crate) next_scenario: usize,
    pub(crate) heals_this_access: u32,
    pub(crate) oom_failures: u32,
}

impl ChaosState {
    pub(crate) fn new(mut plan: FaultPlan) -> Self {
        // Stable sort: scenarios at the same access fire in plan order.
        plan.scenarios.sort_by_key(|s| s.at_access);
        let rng = SplitMix64::new(plan.seed);
        ChaosState {
            plan,
            rng,
            deferred: Vec::new(),
            log: EventLog::new("event log"),
            next_scenario: 0,
            heals_this_access: 0,
            oom_failures: 0,
        }
    }

    /// Rolls the background dice for one shootdown request. The roll is
    /// consumed only when a nonzero rate is configured, so plans without
    /// background rates keep a pristine dice stream for future injectors.
    pub(crate) fn roll_shootdown(&mut self) -> ShootdownFate {
        let drop_pm = u64::from(self.plan.drop_shootdown_pm);
        let defer_pm = u64::from(self.plan.defer_shootdown_pm);
        if drop_pm == 0 && defer_pm == 0 {
            return ShootdownFate::Deliver;
        }
        let roll = self.rng.below(1000);
        if roll < drop_pm {
            ShootdownFate::Drop
        } else if roll < drop_pm + defer_pm {
            ShootdownFate::Defer(self.plan.defer_delay)
        } else {
            ShootdownFate::Deliver
        }
    }

    /// Rolls the cross-VM dice for one host-initiated shootdown: `true`
    /// means the shootdown is lost. As with [`ChaosState::roll_shootdown`],
    /// the roll is consumed only when the rate is nonzero, so single-VM
    /// plans keep a pristine dice stream.
    pub(crate) fn roll_cross_vm(&mut self) -> bool {
        let drop_pm = u64::from(self.plan.cross_vm_drop_pm);
        if drop_pm == 0 {
            return false;
        }
        self.rng.below(1000) < drop_pm
    }

    /// Serializes the live injection state: dice stream position, deferred
    /// queue, event log, and the per-run counters. The [`FaultPlan`] is
    /// configuration (it arrives with the request) and is not written.
    pub(crate) fn save_state(&self, e: &mut Enc) {
        e.u64(self.rng.state());
        self.deferred.save(e);
        self.log.events.save(e);
        e.bool(self.log.truncated);
        e.u64(self.next_scenario as u64);
        e.u32(self.heals_this_access);
        e.u32(self.oom_failures);
        e.u64(self.log.next_seq);
    }

    /// Restores state saved by [`ChaosState::save_state`] into this state,
    /// keeping its configured plan.
    pub(crate) fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        self.rng = SplitMix64::from_state(d.u64()?);
        self.deferred = Vec::load(d)?;
        self.log.events = Vec::load(d)?;
        self.log.truncated = d.bool()?;
        let next_scenario = d.u64()? as usize;
        if next_scenario > self.plan.scenarios.len() {
            return d.fail(format!(
                "next_scenario {next_scenario} exceeds the plan's {} scenarios",
                self.plan.scenarios.len()
            ));
        }
        self.next_scenario = next_scenario;
        self.heals_this_access = d.u32()?;
        self.oom_failures = d.u32()?;
        self.log.next_seq = d.u64()?;
        Ok(())
    }

    /// Removes and returns the deferred shootdowns whose delivery access
    /// has been reached, in enqueue order.
    pub(crate) fn take_due_deferred(&mut self, access: u64) -> Vec<FlushRequest> {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].0 <= access {
                due.push(self.deferred.remove(i).1);
            } else {
                i += 1;
            }
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_composes() {
        let plan = FaultPlan::new(7)
            .drop_shootdowns(50)
            .defer_shootdowns(100, 16)
            .scenario(500, ScenarioKind::CorruptGuestPte { gva: 0x1000 });
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop_shootdown_pm, 50);
        assert_eq!(plan.defer_shootdown_pm, 100);
        assert_eq!(plan.defer_delay, 16);
        assert_eq!(plan.scenarios.len(), 1);
        assert_eq!(plan.scenarios[0].at_access, 500);
    }

    #[test]
    fn rates_are_clamped_to_per_mille() {
        let plan = FaultPlan::new(1).drop_shootdowns(5000);
        assert_eq!(plan.drop_shootdown_pm, 1000);
    }

    #[test]
    fn dice_are_deterministic_per_seed() {
        let fates = |seed| {
            let mut st = ChaosState::new(FaultPlan::new(seed).drop_shootdowns(300));
            (0..64).map(|_| st.roll_shootdown()).collect::<Vec<_>>()
        };
        assert_eq!(fates(9), fates(9));
        assert_ne!(fates(9), fates(10), "different seeds, different stream");
        assert!(fates(9).contains(&ShootdownFate::Drop));
        assert!(fates(9).contains(&ShootdownFate::Deliver));
    }

    #[test]
    fn zero_rates_never_touch_the_dice() {
        let mut st = ChaosState::new(FaultPlan::new(3));
        for _ in 0..100 {
            assert_eq!(st.roll_shootdown(), ShootdownFate::Deliver);
        }
    }

    #[test]
    fn event_log_renders_deterministically_and_caps() {
        let mut st = ChaosState::new(FaultPlan::new(0));
        st.log.record(
            10,
            DegradationKind::DroppedShootdown,
            Some(0x4000),
            "dropped Asid(1)".into(),
        );
        st.log.record(
            11,
            DegradationKind::HealedTranslation,
            None,
            "rebuilt".into(),
        );
        let log = render_log(&st.log.events);
        assert_eq!(
            log,
            "#0000 @10 [dropped-shootdown] gva=0x4000: dropped Asid(1)\n\
             #0001 @11 [healed-translation]: rebuilt\n"
        );
        for i in 0..(MAX_EVENTS as u64 + 50) {
            st.log
                .record(i, DegradationKind::OomReclaim, None, "x".into());
        }
        assert_eq!(st.log.events.len(), MAX_EVENTS + 1);
        let last = st.log.events.last().expect("log is full");
        assert_eq!(last.kind, DegradationKind::LogTruncated);
        assert_eq!(last.seq, MAX_EVENTS as u64);
        assert_eq!(last.detail, "event log capped at 4096 entries");
    }

    #[test]
    fn scenarios_sort_stably_by_access() {
        let st = ChaosState::new(
            FaultPlan::new(0)
                .scenario(200, ScenarioKind::CorruptGuestPte { gva: 2 })
                .scenario(100, ScenarioKind::CorruptGuestPte { gva: 1 })
                .scenario(200, ScenarioKind::CorruptGuestPte { gva: 3 }),
        );
        let order: Vec<u64> = st
            .plan
            .scenarios
            .iter()
            .map(|s| match s.kind {
                ScenarioKind::CorruptGuestPte { gva } => gva,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn deferred_queue_delivers_in_order_when_due() {
        use agile_types::Asid;
        let mut st = ChaosState::new(FaultPlan::new(0));
        st.deferred.push((5, FlushRequest::Asid(Asid::new(1))));
        st.deferred.push((3, FlushRequest::Asid(Asid::new(2))));
        st.deferred.push((9, FlushRequest::Asid(Asid::new(3))));
        assert!(st.take_due_deferred(2).is_empty());
        let due = st.take_due_deferred(5);
        assert_eq!(
            due,
            vec![
                FlushRequest::Asid(Asid::new(1)),
                FlushRequest::Asid(Asid::new(2))
            ]
        );
        assert_eq!(st.deferred.len(), 1);
    }
}
