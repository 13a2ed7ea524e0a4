//! The multi-VM host: N machines on one shared physical frame pool.
//!
//! One [`Machine`] is one VM. A [`Host`] owns several and arbitrates the
//! single resource they contend for — physical frames — through a lease
//! ledger ([`agile_mem::FramePool`]): each VM keeps its own [`agile_mem::PhysMem`]
//! (frame *numbers* are disjoint by construction, see
//! [`agile_mem::VM_FRAME_SPAN`]), and the host enforces each VM's share of
//! *capacity* through the machine's frame budget. Everything the host does
//! under pressure is a typed [`DegradationEvent`], never a panic, and every
//! run is a pure function of its seeds — same seeds, byte-identical
//! [`Host::render_full_log`].
//!
//! **The frame-pressure arbiter.** Before every dispatched event the host
//! restores the VM's headroom to a fixed watermark: first by
//! granting free pool frames (lease growth, [`DegradationKind::LeaseChange`]),
//! then by ballooning the *other* VMs in ascending id order with capped
//! backoff (×1, ×2, ×4 reclaim passes; [`DegradationKind::BalloonRequest`]),
//! then by demoting the starving VM's agile processes to nested mode to
//! free their shadow page tables ([`DegradationKind::TechniqueDemotion`] —
//! the same fallback the trap-storm hysteresis uses, §IV of the paper, but
//! driven by host memory pressure instead of trap rate). If all of that
//! fails the VM is starved ([`DegradationKind::VmStarved`]): table-editing
//! events are deferred and data accesses degrade to per-access OOM skips
//! inside the machine. A noisy neighbor can slow its victim down, but
//! never crash it.
//!
//! **Cross-VM shootdowns.** Host-initiated operations (balloon reclaim,
//! migration teardown, pressure demotion) emit the full shootdown protocol
//! on the affected VM, drained through separate loss dice
//! ([`crate::FaultPlan::cross_vm_drop_pm`]). A lost cross-VM shootdown
//! leaves genuinely stale TLB/PWC state; [`Machine::heal_stale_caches`]
//! must drive the oracle violations back to zero — that is the chaos
//! contract extended to host scope.
//!
//! **Live migration.** [`Host::migrate_process`] re-homes a process from
//! one VM to another: capture its [`ProcessImage`] (VMAs, mapped leaves,
//! and a translation view), replay it on the destination (demand-faulting
//! fresh frames under the destination's lease), tear down the source
//! mappings with the full shootdown protocol, balloon the freed frames
//! back to the pool, and heal whatever the cross-VM dice dropped. When
//! every leaf lands, the [`snapshot::diff`] migration differ compares the
//! source and destination views — same pages present, same writability —
//! and records any unintended change as an oracle violation on the
//! destination machine, where [`Machine::lint`] and the chaos contract
//! surface it.

use crate::analyze::{
    check_host_frames, detect_host_shootdown_races, LintReport, ShootdownLog, VmFrameView,
    VmShootdownView,
};
use crate::chaos::{render_log, DegradationEvent, DegradationKind, EventLog, FaultPlan};
use crate::config::SystemConfig;
use crate::machine::{AccessError, Machine, OOM_WATERMARK};
use crate::snapshot::{self, DiffIntent, ProcessImage, TransitionView};
use crate::stats::RunStats;
use crate::verify::Violation;
use agile_mem::FramePool;
use agile_types::{ProcessId, VmId};
use agile_workloads::{Event, Workload, WorkloadSpec};

/// Headroom floor (frames) below which the host stops dispatching
/// table-editing events to a starved VM: context switches can spawn
/// processes and unmaps can split huge pages, and those paths allocate
/// infallibly. Data accesses keep flowing — the machine's own OOM path
/// degrades them gracefully.
const STARVATION_FLOOR: u64 = 8;

/// Headroom (frames) the arbiter restores before dispatching an event.
/// Exceeds the machine's own OOM watermark so arbitration engages before
/// the machine's last-ditch internal reclaim.
const HEADROOM_WATERMARK: u64 = 24;
const _: () = assert!(HEADROOM_WATERMARK > OOM_WATERMARK);

/// Minimum frames per lease grant: top-ups are batched so the pool is not
/// nickel-and-dimed one frame at a time.
const GRANT_STEP: u64 = 64;

/// Steps a starved VM waits before the arbiter retries the full chain
/// (grant → balloon → demote). A failed arbitration means the pool and
/// every balloon are dry; rerunning the reclaim sweeps each event would
/// burn simulated work without producing frames, so the retry is paced.
/// Pool state can change meanwhile (teardown, another VM ballooning), and
/// the pacing is in dispatched steps, so it is deterministic.
const ARBITRATION_RETRY_STEPS: u64 = 64;

/// Host configuration: the shared pool and each VM's starting share of
/// it. The arbiter's own levers are fixed: it restores 24 frames of
/// headroom (above the machine's OOM watermark of 16), grants in batches
/// of at least 64 frames, and may always demote a starving VM's agile
/// processes to nested mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostConfig {
    /// Total physical frames the pool holds (the overcommit target: the
    /// sum of what the VMs *want* may exceed this).
    pub pool_frames: u64,
    /// Lease requested for each VM at [`Host::add_vm`] (clamped to what is
    /// free).
    pub initial_lease: u64,
}

impl HostConfig {
    /// A host with `pool_frames` of capacity and the default initial
    /// lease.
    #[must_use]
    pub fn new(pool_frames: u64) -> Self {
        HostConfig {
            pool_frames,
            initial_lease: 256,
        }
    }

    /// Sets the per-VM initial lease.
    #[must_use]
    pub fn initial_lease(mut self, frames: u64) -> Self {
        self.initial_lease = frames;
        self
    }
}

/// What [`Host::migrate_process`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// The process id on the destination VM.
    pub new_pid: ProcessId,
    /// Mapped leaves re-touched (and therefore re-homed) on the
    /// destination.
    pub pages_moved: u64,
    /// Leaves abandoned because the destination ran out of frames even
    /// after arbitration (they demand-fault later if re-touched).
    pub pages_skipped: u64,
    /// Frames the source ballooned back to the pool after teardown.
    pub frames_surrendered: u64,
    /// Oracle violations left after healing on both machines, plus any
    /// unintended changes the migration differ caught when comparing the
    /// source and destination translation views (must be 0 for the chaos
    /// contract).
    pub residual_violations: usize,
    /// Whether the migration differ ran: true when no leaf was skipped
    /// and the destination evicted nothing during the replay, so the
    /// source and destination views were comparable.
    pub diff_checked: bool,
}

#[derive(Debug)]
struct VmSlot {
    machine: Option<Machine>,
    workload: Option<Workload>,
    spec: WorkloadSpec,
    done: bool,
    torn_down: bool,
    /// Cumulative frames this VM's balloon surrendered to the host.
    ballooned: u64,
    /// Set once headroom restoration fails, cleared when it succeeds, so
    /// a starved VM logs one `VmStarved` per starvation episode instead of
    /// one per event.
    starved: bool,
    /// Step stamp before which a starved VM's arbitration is not retried
    /// (see [`ARBITRATION_RETRY_STEPS`]).
    retry_at: u64,
    stats: Option<RunStats>,
    final_view: Option<VmFrameView>,
    /// Events and violations harvested when the machine is torn down.
    events: Vec<DegradationEvent>,
    violations: Vec<Violation>,
    /// Shootdown protocol log harvested at teardown, so the host-scope
    /// race detector still covers a VM whose machine is gone.
    shootdown_log: Option<ShootdownLog>,
}

/// A multi-VM host: machines, the shared frame pool, and the arbiter.
/// See the module docs for the architecture.
#[derive(Debug)]
pub struct Host {
    cfg: HostConfig,
    pool: FramePool,
    vms: Vec<VmSlot>,
    log: EventLog,
    /// Total events dispatched across all VMs — the host's clock, used as
    /// the `access` stamp of host-level events.
    steps: u64,
    /// VM exempt from ballooning while it is the source of an in-flight
    /// migration (its pages are pinned for the copy; reclaiming them would
    /// hand the destination frames stolen from the very process being
    /// moved, and leave nothing for the source teardown to surrender).
    balloon_pin: Option<usize>,
}

impl Host {
    /// An empty host over a pool of `cfg.pool_frames` frames.
    #[must_use]
    pub fn new(cfg: HostConfig) -> Self {
        Host {
            cfg,
            pool: FramePool::new(cfg.pool_frames),
            vms: Vec::new(),
            log: EventLog::new("host event log"),
            steps: 0,
            balloon_pin: None,
        }
    }

    /// Adds a VM running `spec` under `sys` with fault plan `plan`, and
    /// grants it an initial lease (clamped to free pool capacity). VM ids
    /// are assigned densely in add order. Chaos is always armed — the
    /// host's pressure paths require the oracles — and the plan's OOM
    /// relief valve is disabled: on a shared pool, only the *host* may
    /// move capacity, so the machine must never lift its own budget.
    pub fn add_vm(&mut self, sys: SystemConfig, spec: WorkloadSpec, plan: FaultPlan) -> VmId {
        let vm = VmId::new(u32::try_from(self.vms.len()).expect("vm count fits u32"));
        let mut plan = plan;
        plan.max_oom_failures = u32::MAX;
        let mut machine = Machine::for_vm(sys, vm);
        machine.enable_chaos(plan);
        let granted = self.pool.grant(vm, self.cfg.initial_lease);
        machine.set_frame_budget(Some(self.pool.lease_of(vm)));
        machine.record_degradation(
            DegradationKind::LeaseChange,
            None,
            format!("initial lease of {granted} frames"),
        );
        self.record_host(
            DegradationKind::LeaseChange,
            format!(
                "vm {}: initial lease {granted} of {} requested ({} free)",
                vm.raw(),
                self.cfg.initial_lease,
                self.pool.free()
            ),
        );
        let workload = Workload::new(spec.clone());
        self.vms.push(VmSlot {
            machine: Some(machine),
            workload: Some(workload),
            spec,
            done: false,
            torn_down: false,
            ballooned: 0,
            starved: false,
            retry_at: 0,
            stats: None,
            final_view: None,
            events: Vec::new(),
            violations: Vec::new(),
            shootdown_log: None,
        });
        vm
    }

    /// Number of VMs ever added (including torn-down ones).
    #[must_use]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The shared frame pool (read-only inspection).
    #[must_use]
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// The VM's machine, if it has not been torn down.
    #[must_use]
    pub fn machine(&self, vm: VmId) -> Option<&Machine> {
        self.vms.get(vm.raw() as usize)?.machine.as_ref()
    }

    /// Mutable access to a VM's machine, for scenario setup (spawning
    /// service processes, pre-mapping regions). Allocation stays governed
    /// by the VM's budget, so nothing done here can overdraw the pool.
    #[must_use]
    pub fn machine_mut(&mut self, vm: VmId) -> Option<&mut Machine> {
        self.vms.get_mut(vm.raw() as usize)?.machine.as_mut()
    }

    /// The finished-run statistics of `vm`, once its workload completed or
    /// it was torn down.
    #[must_use]
    pub fn stats_of(&self, vm: VmId) -> Option<&RunStats> {
        self.vms.get(vm.raw() as usize)?.stats.as_ref()
    }

    /// Total events dispatched so far across all VMs (the host's clock).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Manually grows `vm`'s lease by up to `frames` from the pool's free
    /// set (scenario setup: reserving headroom before host-driven service
    /// work, which runs outside the arbiter). Returns the frames granted.
    pub fn grant_lease(&mut self, vm: VmId, frames: u64) -> u64 {
        let granted = self.pool.grant(vm, frames);
        if granted > 0 {
            let lease = self.pool.lease_of(vm);
            if let Some(m) = self.vms[vm.raw() as usize].machine.as_mut() {
                m.set_frame_budget(Some(lease));
                m.record_degradation(
                    DegradationKind::LeaseChange,
                    None,
                    format!("lease grew by {granted} to {lease} (manual grant)"),
                );
            }
        }
        granted
    }

    fn slot_vm(i: usize) -> VmId {
        VmId::new(u32::try_from(i).expect("vm count fits u32"))
    }

    fn record_host(&mut self, kind: DegradationKind, detail: String) {
        self.log.record(self.steps, kind, None, detail);
    }

    /// Runs every VM's workload to completion, round-robin in VM-id order
    /// (one event per VM per round — the lockstep schedule that makes
    /// noisy-neighbor interference deterministic).
    pub fn run(&mut self) {
        while self.run_steps(u64::MAX) {}
    }

    /// Dispatches up to `budget` events round-robin; returns `true` while
    /// any VM still has workload events left. Pausing mid-run is how
    /// scenarios interleave host operations (migration, teardown) with
    /// workload execution at a deterministic point.
    pub fn run_steps(&mut self, mut budget: u64) -> bool {
        loop {
            let mut progressed = false;
            for i in 0..self.vms.len() {
                if self.vms[i].done || self.vms[i].machine.is_none() {
                    continue;
                }
                if budget == 0 {
                    return true;
                }
                let Some(event) = self.vms[i].workload.as_mut().and_then(Iterator::next) else {
                    self.finish_vm(i);
                    continue;
                };
                progressed = true;
                budget -= 1;
                self.steps += 1;
                self.dispatch(i, event);
            }
            if !progressed {
                return false;
            }
        }
    }

    fn finish_vm(&mut self, i: usize) {
        let name = self.vms[i].spec.name.clone();
        let slot = &mut self.vms[i];
        slot.done = true;
        slot.workload = None;
        if slot.stats.is_none() {
            if let Some(m) = slot.machine.as_ref() {
                slot.stats = Some(m.stats(&name));
            }
        }
    }

    fn dispatch(&mut self, i: usize, event: Event) {
        self.ensure_headroom(i);
        let m = self.vms[i].machine.as_mut().expect("dispatch to live vm");
        let remaining = m.frames_remaining().unwrap_or(u64::MAX);
        if remaining < STARVATION_FLOOR
            && !matches!(event, Event::Access { .. } | Event::Mmap { .. })
        {
            // Deferring maintenance is the graceful degradation: the
            // event's page-table edits could allocate infallibly, and a
            // starved VM must never panic. Accesses still dispatch (the
            // machine's fallible path skips them one by one), and mmaps
            // are pure bookkeeping the workload's later accesses rely on.
            m.record_degradation(
                DegradationKind::VmStarved,
                None,
                format!(
                    "deferred {} at {remaining} frames of headroom",
                    event_name(&event)
                ),
            );
            return;
        }
        m.run_event(event);
    }

    /// Restores VM `i`'s headroom to the watermark: pool grant, then
    /// ballooning the other VMs (id order, ×1/×2/×4 backoff), then agile
    /// demotion of the starving VM itself. Records a typed event for every
    /// lever pulled and `VmStarved` (once per episode) when all fail.
    fn ensure_headroom(&mut self, i: usize) {
        if self.headroom_met(i) {
            self.vms[i].starved = false;
            return;
        }
        if self.vms[i].starved && self.steps < self.vms[i].retry_at {
            // Last arbitration came up dry; rerunning the reclaim sweeps
            // every event would thrash without producing frames. The
            // dispatch floor and the machine's per-access OOM path carry
            // the VM until the retry.
            return;
        }
        if self.grant_to(i) {
            self.vms[i].starved = false;
            return;
        }
        for passes in [1u32, 2, 4] {
            for j in 0..self.vms.len() {
                if j == i {
                    continue;
                }
                // Re-attempt the grant after every balloon so the sweep
                // stops as soon as enough frames came back.
                if self.balloon_vm(j, passes) > 0 && self.grant_to(i) {
                    self.vms[i].starved = false;
                    return;
                }
            }
            if self.grant_to(i) {
                self.vms[i].starved = false;
                return;
            }
        }
        if self.demote_vm(i) && self.headroom_met(i) {
            self.vms[i].starved = false;
            return;
        }
        self.vms[i].retry_at = self.steps + ARBITRATION_RETRY_STEPS;
        if !self.vms[i].starved {
            self.vms[i].starved = true;
            let vm = Self::slot_vm(i);
            let remaining = self.vms[i]
                .machine
                .as_ref()
                .and_then(Machine::frames_remaining)
                .unwrap_or(0);
            self.record_host(
                DegradationKind::VmStarved,
                format!(
                    "vm {}: arbitration exhausted at {remaining} frames of headroom \
                     ({} free in pool)",
                    vm.raw(),
                    self.pool.free()
                ),
            );
        }
    }

    fn headroom_met(&self, i: usize) -> bool {
        self.vms[i]
            .machine
            .as_ref()
            .and_then(Machine::frames_remaining)
            .is_none_or(|r| r >= HEADROOM_WATERMARK)
    }

    /// Grants free pool frames to VM `i` up to the watermark (batched by
    /// [`GRANT_STEP`]). Returns whether the watermark is now met.
    fn grant_to(&mut self, i: usize) -> bool {
        let vm = Self::slot_vm(i);
        let Some(m) = self.vms[i].machine.as_ref() else {
            return true;
        };
        let Some(remaining) = m.frames_remaining() else {
            return true;
        };
        if remaining >= HEADROOM_WATERMARK {
            return true;
        }
        let deficit = HEADROOM_WATERMARK - remaining;
        let granted = self.pool.grant(vm, deficit.max(GRANT_STEP));
        if granted > 0 {
            let lease = self.pool.lease_of(vm);
            let m = self.vms[i].machine.as_mut().expect("checked above");
            m.set_frame_budget(Some(lease));
            m.record_degradation(
                DegradationKind::LeaseChange,
                None,
                format!("lease grew by {granted} to {lease}"),
            );
        }
        remaining + granted >= HEADROOM_WATERMARK
    }

    /// Balloon request against VM `j`: reclaim with `passes` clock passes,
    /// surrender the recycle list, shrink the lease by the same amount.
    /// The VM's own headroom is unchanged — the frames move from its lease
    /// to the pool's free set.
    fn balloon_vm(&mut self, j: usize, passes: u32) -> u64 {
        if self.balloon_pin == Some(j) {
            return 0;
        }
        let vm = Self::slot_vm(j);
        let Some(m) = self.vms[j].machine.as_mut() else {
            return 0;
        };
        let surrendered = m.host_reclaim(passes);
        if surrendered == 0 {
            return 0;
        }
        let credited = self.pool.surrender(vm, surrendered);
        self.vms[j].ballooned += surrendered;
        let lease = self.pool.lease_of(vm);
        let m = self.vms[j].machine.as_mut().expect("checked above");
        m.set_frame_budget(Some(lease));
        m.record_degradation(
            DegradationKind::BalloonRequest,
            None,
            format!("surrendered {surrendered} frames to the host pool (x{passes} reclaim)"),
        );
        self.record_host(
            DegradationKind::BalloonRequest,
            format!(
                "vm {}: ballooned {credited} frames (x{passes} reclaim)",
                vm.raw()
            ),
        );
        credited
    }

    /// Agile→nested demotion of VM `i`'s processes under host pressure.
    /// Returns whether anything was demoted.
    fn demote_vm(&mut self, i: usize) -> bool {
        let vm = Self::slot_vm(i);
        let Some(m) = self.vms[i].machine.as_mut() else {
            return false;
        };
        let demoted = m.demote_to_nested();
        if demoted == 0 {
            return false;
        }
        m.record_degradation(
            DegradationKind::TechniqueDemotion,
            None,
            format!("{demoted} process(es) demoted agile→nested under host pressure"),
        );
        // The demotion's shootdowns rode the cross-VM dice; close any
        // window they left before the VM touches memory again.
        let _ = m.heal_stale_caches();
        self.record_host(
            DegradationKind::TechniqueDemotion,
            format!(
                "vm {}: demoted {demoted} process(es) to free shadow tables",
                vm.raw()
            ),
        );
        true
    }

    /// Live VM-to-VM process migration. `pid` must be a host-managed
    /// service process on `src` (spawned via [`Machine::spawn_process`] —
    /// never one of the workload's event-indexed processes, whose later
    /// events would still target the source VM). Captures the process's
    /// [`ProcessImage`], re-homes every mapped leaf onto `dst` under its
    /// lease, tears the source mappings down with the full shootdown
    /// protocol (cross-VM loss dice), balloons the freed frames back to
    /// the pool, and heals both machines. When no leaf was skipped, the
    /// [`snapshot::diff`] migration differ then asserts the destination
    /// reproduced the source's translation view exactly (same pages, same
    /// writability — frames and sizes are *expected* to change); caught
    /// divergence is recorded on the destination machine and counted in
    /// [`MigrationOutcome::residual_violations`].
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either VM is gone.
    pub fn migrate_process(&mut self, src: VmId, pid: ProcessId, dst: VmId) -> MigrationOutcome {
        assert_ne!(src, dst, "migration needs two distinct VMs");
        let si = src.raw() as usize;
        let di = dst.raw() as usize;
        assert!(
            self.vms[si].machine.is_some() && self.vms[di].machine.is_some(),
            "both migration endpoints must be live"
        );
        let image = {
            let m = self.vms[si].machine.as_ref().expect("live src");
            ProcessImage::capture(m, pid)
        };
        // Destination: replay the address space and re-touch every leaf.
        let (new_pid, dst_prev) = {
            let m = self.vms[di].machine.as_mut().expect("live dst");
            let prev = m.current_pid();
            let new_pid = m.spawn_process();
            for vma in &image.vmas {
                m.host_mmap_vma(new_pid, vma);
            }
            m.switch_to(new_pid);
            (new_pid, prev)
        };
        let mut moved = 0u64;
        let mut skipped = 0u64;
        let dst_reclaimed_before = {
            let m = self.vms[di].machine.as_ref().expect("live dst");
            m.os().stats().pages_reclaimed
        };
        self.balloon_pin = Some(si);
        for &(va, write) in &image.leaves {
            self.ensure_headroom(di);
            let m = self.vms[di].machine.as_mut().expect("live dst");
            match m.try_touch(va, write) {
                Ok(()) => moved += 1,
                Err(AccessError::OutOfMemory) => {
                    skipped += 1;
                    m.record_degradation(
                        DegradationKind::OomSkip,
                        Some(va),
                        "migration fault skipped under frame pressure".to_string(),
                    );
                }
                Err(AccessError::Seg(_)) => {
                    unreachable!("replayed VMAs cover every migrated leaf")
                }
            }
        }
        self.balloon_pin = None;
        // Differ: on a non-degraded migration, the destination's
        // translation view of the new process must match the source's
        // image — any page lost, invented, or with flipped writability is
        // an unintended change. A degraded migration diverges by design
        // and is excluded: an OomSkip abandons leaves outright, and frame
        // pressure can make the destination's internal reclaim evict
        // just-replayed pages (visible as a pages_reclaimed delta) — both
        // already surface as degradation events.
        let dst_reclaimed = {
            let m = self.vms[di].machine.as_ref().expect("live dst");
            m.os().stats().pages_reclaimed - dst_reclaimed_before
        };
        let diff_checked = skipped == 0 && dst_reclaimed == 0;
        let diff_violations = if diff_checked {
            let m = self.vms[di].machine.as_ref().expect("live dst");
            let dst_view = TransitionView::capture_process(m, new_pid);
            snapshot::diff(image.view(), &dst_view, DiffIntent::Migration)
        } else {
            Vec::new()
        };
        self.vms[di]
            .machine
            .as_mut()
            .expect("live dst")
            .switch_to(dst_prev);
        // Source: tear down, surrender the freed frames, heal.
        let surrendered = {
            let m = self.vms[si].machine.as_mut().expect("live src");
            for vma in &image.vmas {
                m.host_munmap(pid, vma.start, vma.len);
            }
            m.host_reclaim(0)
        };
        let credited = self.pool.surrender(src, surrendered);
        self.vms[si].ballooned += surrendered;
        let lease = self.pool.lease_of(src);
        let residual = {
            let m = self.vms[si].machine.as_mut().expect("live src");
            m.set_frame_budget(Some(lease));
            m.record_degradation(
                DegradationKind::ProcessMigration,
                None,
                format!(
                    "pid {} migrated out: {} leaves snapshotted, {surrendered} frames \
                     surrendered",
                    pid.raw(),
                    image.leaves.len()
                ),
            );
            let mut residual = m.heal_stale_caches().len();
            let m = self.vms[di].machine.as_mut().expect("live dst");
            m.record_degradation(
                DegradationKind::ProcessMigration,
                None,
                format!(
                    "pid {} migrated in as pid {}: {moved} leaves re-homed, {skipped} skipped",
                    pid.raw(),
                    new_pid.raw()
                ),
            );
            residual += m.heal_stale_caches().len();
            residual += diff_violations.len();
            m.record_violations(diff_violations);
            residual
        };
        self.record_host(
            DegradationKind::ProcessMigration,
            format!(
                "vm {} → vm {}: pid {} re-homed as pid {} ({moved} moved, {skipped} \
                 skipped, {credited} frames returned)",
                src.raw(),
                dst.raw(),
                pid.raw(),
                new_pid.raw()
            ),
        );
        MigrationOutcome {
            new_pid,
            pages_moved: moved,
            pages_skipped: skipped,
            frames_surrendered: surrendered,
            residual_violations: residual,
            diff_checked,
        }
    }

    /// Tears a VM down: harvests its stats, events, and violations, drops
    /// the machine (every frame it held dies with its `PhysMem`), and
    /// returns the entire lease to the pool. The freed capacity is
    /// immediately grantable to the surviving VMs.
    pub fn teardown_vm(&mut self, vm: VmId) {
        let i = vm.raw() as usize;
        let name = self.vms[i].spec.name.clone();
        let slot = &mut self.vms[i];
        let Some(mut machine) = slot.machine.take() else {
            return;
        };
        slot.done = true;
        slot.torn_down = true;
        slot.workload = None;
        if slot.stats.is_none() {
            slot.stats = Some(machine.stats(&name));
        }
        slot.events.extend(machine.take_degradation_events());
        slot.violations.extend(machine.take_violations());
        slot.shootdown_log = machine.shootdown_log().cloned();
        let frame_base = machine.mem().frame_base();
        let frames_allocated = machine.mem().frames_allocated();
        drop(machine);
        let released = self.pool.forfeit(vm);
        slot.final_view = Some(VmFrameView {
            vm,
            frame_base,
            frames_allocated,
            frames_charged: 0,
            lease: self.pool.lease_of(vm),
            ballooned: slot.ballooned,
            pool_surrendered: self.pool.surrendered_by(vm),
            torn_down: true,
        });
        self.record_host(
            DegradationKind::LeaseChange,
            format!(
                "vm {}: torn down, {released} leased frames returned",
                vm.raw()
            ),
        );
    }

    /// One frame-accounting view per VM, for the host-scope lint.
    #[must_use]
    pub fn frame_views(&self) -> Vec<VmFrameView> {
        self.vms
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let vm = Self::slot_vm(i);
                match (&slot.machine, slot.final_view) {
                    (Some(m), _) => VmFrameView {
                        vm,
                        frame_base: m.mem().frame_base(),
                        frames_allocated: m.mem().frames_allocated(),
                        frames_charged: m.frames_charged(),
                        lease: self.pool.lease_of(vm),
                        ballooned: slot.ballooned,
                        pool_surrendered: self.pool.surrendered_by(vm),
                        torn_down: false,
                    },
                    (None, Some(view)) => view,
                    (None, None) => unreachable!("torn-down slot keeps its final view"),
                }
            })
            .collect()
    }

    /// Whole-host static analysis: every live machine's [`Machine::lint`]
    /// with its diagnostics tagged by VM, the host-scope shootdown race
    /// pass ([`detect_host_shootdown_races`]) over every VM's protocol log
    /// — torn-down VMs included, through the log harvested at teardown —
    /// plus the host-scope frame accounting checks (cross-VM aliasing,
    /// teardown leaks, balloon conservation) and the pool's conservation
    /// invariant.
    ///
    /// A live machine's own lint already runs the per-VM race pass, so the
    /// host-scope pass re-derives those diagnostics; exact duplicates are
    /// collapsed after sorting.
    pub fn lint(&mut self) -> LintReport {
        let mut diags = Vec::new();
        for i in 0..self.vms.len() {
            let vm = Self::slot_vm(i);
            if let Some(m) = self.vms[i].machine.as_mut() {
                for d in m.lint().diags {
                    diags.push(d.vm(vm));
                }
            }
        }
        let views: Vec<VmShootdownView<'_>> = self
            .vms
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let vm = Self::slot_vm(i);
                let (log, frame_base) = match &slot.machine {
                    Some(m) => (m.shootdown_log()?, m.mem().frame_base()),
                    None => (
                        slot.shootdown_log.as_ref()?,
                        slot.final_view.as_ref()?.frame_base,
                    ),
                };
                Some(VmShootdownView {
                    vm,
                    frame_base,
                    frame_span: agile_mem::VM_FRAME_SPAN,
                    log,
                })
            })
            .collect();
        diags.extend(detect_host_shootdown_races(&views));
        diags.extend(check_host_frames(&self.frame_views()));
        if !self.pool.is_conserved() {
            // free + Σleases must equal capacity; a violation means some
            // capacity is counted twice (or lost), i.e. aliased.
            diags.push(crate::analyze::LintDiag {
                code: crate::analyze::LintCode::CrossVmFrameAlias,
                severity: crate::analyze::LintSeverity::Error,
                vm: None,
                pid: None,
                gva: None,
                level: None,
                frame: None,
                detail: format!(
                    "pool conservation broken: {} free + {} leased != {} capacity",
                    self.pool.free(),
                    self.pool.leased_total(),
                    self.pool.capacity()
                ),
            });
        }
        let mut report = LintReport::from_diags(diags);
        // A live VM's race diags arrive twice (its own lint and the
        // host-scope pass); sorted order makes the copies adjacent.
        report.diags.dedup();
        report
    }

    /// The shootdown protocol log of `vm`: the live machine's log, or the
    /// one harvested at teardown. `None` when the VM never recorded one.
    #[must_use]
    pub fn shootdown_log_of(&self, vm: VmId) -> Option<&ShootdownLog> {
        let slot = self.vms.get(vm.raw() as usize)?;
        match &slot.machine {
            Some(m) => m.shootdown_log(),
            None => slot.shootdown_log.as_ref(),
        }
    }

    /// Host-level degradation events recorded so far.
    #[must_use]
    pub fn host_events(&self) -> &[DegradationEvent] {
        &self.log.events
    }

    /// Oracle violations accumulated across every VM (0 is the chaos
    /// contract's requirement after healing).
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.vms
            .iter()
            .map(|s| s.violations.len() + s.machine.as_ref().map_or(0, |m| m.violations().len()))
            .sum()
    }

    /// The full deterministic artifact: the host's event log followed by
    /// each VM's, in VM-id order. Two same-seed runs render byte-
    /// identically; the CI host job diffs exactly this string.
    #[must_use]
    pub fn render_full_log(&self) -> String {
        let mut out = String::from("== host ==\n");
        out.push_str(&render_log(&self.log.events));
        for (i, slot) in self.vms.iter().enumerate() {
            out.push_str(&format!("== vm {i} ==\n"));
            match &slot.machine {
                Some(m) => out.push_str(&render_log(m.degradation_events())),
                None => out.push_str(&render_log(&slot.events)),
            }
        }
        out
    }
}

fn event_name(event: &Event) -> &'static str {
    match event {
        Event::Access { .. } => "access",
        Event::Mmap { .. } => "mmap",
        Event::Munmap { .. } => "munmap",
        Event::MarkCow { .. } => "mark-cow",
        Event::ClockScan { .. } => "clock-scan",
        Event::ContextSwitch { .. } => "context-switch",
        Event::Tick => "tick",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::MAX_EVENTS;
    use agile_guest::{Vma, VmaBacking};
    use agile_types::PageSize;
    use agile_vmm::{AgileOptions, Technique};
    use agile_workloads::{ChurnSpec, Pattern};

    fn spec(name: &str, accesses: u64, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            footprint: 1 << 20,
            pattern: Pattern::Uniform,
            write_fraction: 0.3,
            accesses,
            accesses_per_tick: (accesses / 4).max(1),
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
            seed,
        }
    }

    fn overcommitted_pair_sized(pool: u64, accesses: u64) -> Host {
        let mut host = Host::new(HostConfig::new(pool).initial_lease(64));
        for i in 0..2u64 {
            host.add_vm(
                SystemConfig::new(Technique::Agile(AgileOptions::default())),
                spec(&format!("vm{i}"), accesses, 0xA0 + i),
                FaultPlan::new(0xB0 + i).drop_cross_vm_shootdowns(250),
            );
        }
        host
    }

    fn overcommitted_pair(pool: u64) -> Host {
        overcommitted_pair_sized(pool, 800)
    }

    #[test]
    fn host_log_caps_with_one_host_sentinel() {
        let mut host = Host::new(HostConfig::new(64));
        for i in 0..(MAX_EVENTS + 50) {
            host.record_host(DegradationKind::LeaseChange, format!("event {i}"));
        }
        let events = host.host_events();
        assert_eq!(events.len(), MAX_EVENTS + 1);
        let sentinels: Vec<_> = events
            .iter()
            .filter(|e| e.kind == DegradationKind::LogTruncated)
            .collect();
        assert_eq!(sentinels.len(), 1);
        assert_eq!(sentinels[0].seq, MAX_EVENTS as u64);
        assert_eq!(sentinels[0].detail, "host event log capped at 4096 entries");
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
    }

    #[test]
    fn run_steps_paces_and_terminates() {
        let mut host = Host::new(HostConfig::new(240).initial_lease(64));
        for i in 0..2u64 {
            host.add_vm(
                SystemConfig::new(Technique::Agile(AgileOptions::default())),
                spec(&format!("vm{i}"), 300, 0xA0 + i),
                FaultPlan::new(0xB0 + i).drop_cross_vm_shootdowns(250),
            );
        }
        let mut rounds = 0;
        while host.run_steps(50) {
            rounds += 1;
            assert!(rounds < 100, "run_steps failed to make progress");
        }
        // Both 300-event workloads (plus their tick/churn events) ran.
        assert!(host.steps >= 600, "steps: {}", host.steps);
        assert!(host.stats_of(VmId::new(0)).is_some());
        assert!(host.stats_of(VmId::new(1)).is_some());
    }

    #[test]
    fn overcommitted_vms_complete_without_panic_and_heal_clean() {
        let mut host = overcommitted_pair(320);
        host.run();
        for i in 0..2 {
            let vm = VmId::new(i);
            let residual = host
                .machine_mut(vm)
                .expect("vm is live")
                .heal_stale_caches();
            assert!(residual.is_empty(), "vm {i}: residual {residual:?}");
            assert!(host.stats_of(vm).is_some(), "vm {i} finished");
        }
        assert_eq!(host.total_violations(), 0);
        assert!(host.pool().is_conserved());
        let report = host.lint();
        assert!(report.diags.is_empty(), "host lint: {:?}", report.diags);
    }

    #[test]
    fn pressure_surfaces_as_typed_events_not_panics() {
        // A pool this small forces the arbiter through its whole chain.
        let mut host = overcommitted_pair(140);
        host.run();
        let all_kinds: Vec<DegradationKind> = host
            .host_events()
            .iter()
            .map(|e| e.kind)
            .chain((0..2).flat_map(|i| {
                host.machine(VmId::new(i))
                    .expect("live")
                    .degradation_events()
                    .iter()
                    .map(|e| e.kind)
            }))
            .collect();
        assert!(
            all_kinds.contains(&DegradationKind::BalloonRequest)
                || all_kinds.contains(&DegradationKind::VmStarved)
                || all_kinds.contains(&DegradationKind::TechniqueDemotion),
            "overcommit at 140 frames must exercise the arbiter: {all_kinds:?}"
        );
        assert_eq!(host.total_violations(), 0);
    }

    #[test]
    fn same_seeds_render_byte_identical_logs() {
        let run = || {
            let mut host = overcommitted_pair_sized(200, 500);
            host.run();
            for i in 0..2 {
                let _ = host
                    .machine_mut(VmId::new(i))
                    .expect("live")
                    .heal_stale_caches();
            }
            host.render_full_log()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seeds must render byte-identical host logs");
    }

    #[test]
    fn teardown_returns_lease_and_lints_clean() {
        let mut host = overcommitted_pair(400);
        host.run_steps(500);
        let free_before = host.pool().free();
        host.teardown_vm(VmId::new(0));
        assert!(host.pool().free() > free_before, "teardown frees the lease");
        assert_eq!(host.pool().lease_of(VmId::new(0)), 0);
        assert!(host.pool().is_conserved());
        host.run();
        let report = host.lint();
        assert!(
            report.diags.is_empty(),
            "post-teardown lint: {:?}",
            report.diags
        );
    }

    #[test]
    fn teardown_harvests_the_shootdown_log_for_host_scope_races() {
        let mut host = overcommitted_pair(400);
        host.run_steps(500);
        host.teardown_vm(VmId::new(0));
        host.run();
        // Chaos arming implies shootdown logging, so both VMs recorded the
        // protocol — the torn-down one through the harvested log.
        let harvested = host
            .shootdown_log_of(VmId::new(0))
            .expect("teardown harvests the log");
        assert!(!harvested.is_empty(), "vm 0 recorded protocol traffic");
        assert!(host.shootdown_log_of(VmId::new(1)).is_some());
        // The cross-VM drop plan's windows all healed (full-ASID flushes
        // subsume the dropped scopes), every frame stayed in its owner's
        // span, and the host-scope pass is idempotent over the merge with
        // the live machine's own lint.
        let first = host.lint();
        assert!(first.is_clean(), "host-scope races: {}", first.render());
        let second = host.lint();
        assert_eq!(first.render(), second.render(), "lint must be pure");
    }

    #[test]
    fn host_lint_flags_a_planted_out_of_span_frame() {
        let mut host = overcommitted_pair(400);
        host.run_steps(300);
        // Plant a protocol event naming a frame in the *other* VM's span:
        // an in-span free under an applied flush would be clean, so any
        // diagnostic below is the cross-VM ownership check firing.
        let foreign = agile_mem::VM_FRAME_SPAN + 9;
        host.machine_mut(VmId::new(0))
            .expect("live")
            .chaos_log_shootdown(crate::analyze::ShootdownEvent::FrameFreed {
                access: 1,
                batch: u64::MAX,
                frame: agile_types::HostFrame::new(foreign),
            });
        let report = host.lint();
        let alias = report
            .diags
            .iter()
            .find(|d| {
                d.code == crate::analyze::LintCode::CrossVmFrameAlias
                    && d.frame == Some(agile_types::HostFrame::new(foreign))
            })
            .expect("planted out-of-span frame must be flagged");
        assert_eq!(alias.vm, Some(VmId::new(0)));
        assert!(alias.detail.contains("vm 1"), "owner named: {alias}");
    }

    #[test]
    fn migration_rehomes_every_leaf_and_heals() {
        let mut host = overcommitted_pair(512);
        host.run_steps(400);
        // A host-managed service process on VM 0 with a touched region.
        let src = VmId::new(0);
        let dst = VmId::new(1);
        // Service touches run outside dispatch (no arbiter in front of
        // them), so grow the source lease first — otherwise the machine's
        // internal reclaim may evict earlier service pages and the leaf
        // snapshot comes up short.
        let granted = host.pool.grant(src, 128);
        assert!(granted >= 96, "test needs headroom for the service region");
        let lease = host.pool.lease_of(src);
        let pid = {
            let m = host.machine_mut(src).expect("live src");
            m.set_frame_budget(Some(lease));
            let pid = m.spawn_process();
            let prev = m.current_pid();
            let vma = Vma {
                start: 0x5000_0000,
                len: 64 * 0x1000,
                writable: true,
                backing: VmaBacking::Anon,
                max_page: PageSize::Size4K,
            };
            m.host_mmap_vma(pid, &vma);
            m.switch_to(pid);
            for p in 0..64u64 {
                m.try_touch(0x5000_0000 + p * 0x1000, p % 2 == 0)
                    .expect("service touch");
            }
            m.switch_to(prev);
            pid
        };
        let outcome = host.migrate_process(src, pid, dst);
        assert_eq!(outcome.pages_moved + outcome.pages_skipped, 64);
        assert_eq!(outcome.residual_violations, 0);
        assert!(
            outcome.frames_surrendered > 0,
            "source teardown must return frames to the pool"
        );
        // Finish both workloads after the migration; the host stays sane.
        host.run();
        assert_eq!(host.total_violations(), 0);
        let report = host.lint();
        assert!(
            report.diags.is_empty(),
            "post-migration lint: {:?}",
            report.diags
        );
    }

    #[test]
    fn pressure_free_migration_passes_the_differ() {
        // A pool big enough that neither replay skips nor reclaim fires:
        // the differ must actually run and find zero unintended changes.
        let mut host = Host::new(HostConfig::new(2048).initial_lease(512));
        for i in 0..2u64 {
            host.add_vm(
                SystemConfig::new(Technique::Agile(AgileOptions::default())),
                spec(&format!("roomy{i}"), 400, 0xE0 + i),
                FaultPlan::new(0xF0 + i),
            );
        }
        host.run_steps(200);
        let src = VmId::new(0);
        let dst = VmId::new(1);
        let pid = {
            let m = host.machine_mut(src).expect("live src");
            let pid = m.spawn_process();
            let prev = m.current_pid();
            let vma = Vma {
                start: 0x5000_0000,
                len: 64 * 0x1000,
                writable: true,
                backing: VmaBacking::Anon,
                max_page: PageSize::Size4K,
            };
            m.host_mmap_vma(pid, &vma);
            m.switch_to(pid);
            for p in 0..64u64 {
                m.try_touch(0x5000_0000 + p * 0x1000, p % 2 == 0)
                    .expect("service touch");
            }
            m.switch_to(prev);
            pid
        };
        let outcome = host.migrate_process(src, pid, dst);
        assert!(outcome.diff_checked, "no pressure: the differ must run");
        assert_eq!(outcome.pages_moved, 64);
        assert_eq!(outcome.pages_skipped, 0);
        assert_eq!(outcome.residual_violations, 0, "differ must come up clean");
        host.run();
        assert_eq!(host.total_violations(), 0);
    }

    #[test]
    fn starved_vm_defers_maintenance_but_never_dies() {
        // Nearly no pool: VM 1 can barely get a lease after VM 0.
        let mut host = Host::new(HostConfig::new(96).initial_lease(80));
        for i in 0..2u64 {
            host.add_vm(
                SystemConfig::new(Technique::Shadow),
                spec(&format!("tight{i}"), 500, 0xC0 + i),
                FaultPlan::new(0xD0 + i),
            );
        }
        host.run();
        assert_eq!(host.total_violations(), 0);
        let starved = host
            .host_events()
            .iter()
            .any(|e| e.kind == DegradationKind::VmStarved);
        let oom = (0..2).any(|i| {
            host.machine(VmId::new(i))
                .expect("live")
                .degradation_events()
                .iter()
                .any(|e| e.kind == DegradationKind::OomSkip)
        });
        assert!(
            starved || oom,
            "a 96-frame pool must starve someone: host={:?}",
            host.host_events()
        );
    }
}
