//! Snapshot/restore, tick-boundary checkpointing, and the two-state
//! transition differ.
//!
//! Three robustness layers share one serialization substrate:
//!
//! 1. **[`MachineSnapshot`]** — a versioned, byte-stable capture of one
//!    [`Machine`]'s complete simulated state: guest page tables and frame
//!    contents, VMM mode state (per-page switching bits, pending flushes,
//!    interval counters), every caching structure (TLB hierarchy, page-walk
//!    caches, nested TLB), guest-OS bookkeeping, chaos RNG streams, and all
//!    statistics. Restoring a snapshot and running the remaining events is
//!    byte-identical to running straight through — the property the
//!    checkpoint/resume machinery and the `snapshot` gate both rest on.
//! 2. **[`Checkpoint`]/[`CheckpointSlot`]** — the crash-recovery protocol:
//!    workers store a checkpoint at configured tick boundaries; when chaos
//!    kills a worker mid-job ([`WorkerKill`]), the service re-queues the
//!    job, and the worker that picks it up next restores the last
//!    checkpoint and replays only the remaining events (see
//!    [`crate::service`]).
//! 3. **[`TransitionView`]/[`diff`]** — the transition differ: two cheap
//!    semantic captures bracketing a technique switch (or a migration)
//!    prove that the *translation function* did not change and that only
//!    the intended subtree moved between shadow and nested mode.
//!
//! Everything here is zero-dependency: the encoding is the deterministic
//! little-endian codec of `agile_types::codec`.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::machine::Machine;
use crate::verify::{self, Violation, ViolationSite};
use agile_guest::GuestOs;
use agile_mem::PhysMem;
use agile_types::{CodecError, Dec, Enc, PageSize, ProcessId, VmId};
use agile_vmm::{GptPageMode, Vmm};

/// Leading bytes of every serialized snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"AGILSNAP";

/// FNV-1a (64-bit) over arbitrary bytes: the workspace's one printed,
/// deterministic digest. The snapshot CI gate pins encodings with it and
/// the benchmark's output digests use it — one shared definition, so
/// every pinned value means the same bytes on every build. The bounded
/// explorer ([`mod@crate::explore`]) does not key visited states with it:
/// that key never leaves the process, so it combines cached std-hasher
/// hashes of the snapshot's parts instead (`Machine::state_key`).
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Current snapshot format version. Bumped on any encoding change; old
/// versions are rejected (refusing loudly beats deserializing garbage).
pub const SNAPSHOT_VERSION: u32 = 1;

/// A complete, versioned, byte-stable capture of one machine.
///
/// Produced by [`Machine::snapshot`]; consumed by [`Machine::restore`].
/// The envelope carries enough metadata to reject mismatched restores
/// (wrong format version, wrong configuration, wrong VM identity) before
/// touching the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    version: u32,
    config_label: String,
    vm: VmId,
    payload: Vec<u8>,
}

impl MachineSnapshot {
    pub(crate) fn from_parts(config_label: String, vm: VmId, payload: Vec<u8>) -> Self {
        MachineSnapshot {
            version: SNAPSHOT_VERSION,
            config_label,
            vm,
            payload,
        }
    }

    /// Format version this snapshot was written with.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Configuration label (`SystemConfig::label`) of the captured machine.
    #[must_use]
    pub fn config_label(&self) -> &str {
        &self.config_label
    }

    /// VM identity of the captured machine.
    #[must_use]
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// Raw payload size in bytes (envelope excluded).
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// FNV-1a digest of the full serialized form ([`digest`] over
    /// [`MachineSnapshot::to_bytes`]): a stable, printable name for a
    /// machine state — the same bytes give the same digest in every
    /// process and on every build.
    #[must_use]
    pub fn digest(&self) -> u64 {
        digest(&self.to_bytes())
    }

    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Serializes the snapshot: magic, version, config label, VM id,
    /// length-prefixed payload. Deterministic — the same machine state
    /// always yields the same bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        for &b in SNAPSHOT_MAGIC {
            e.u8(b);
        }
        e.u32(self.version);
        e.str(&self.config_label);
        e.u32(self.vm.raw());
        e.bytes(&self.payload);
        e.into_bytes()
    }

    /// Parses a serialized snapshot, validating magic and version.
    ///
    /// # Errors
    ///
    /// Fails on truncation, a wrong magic, or an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(bytes);
        for &want in SNAPSHOT_MAGIC {
            if d.u8()? != want {
                return d.fail("bad snapshot magic");
            }
        }
        let version = d.u32()?;
        if version != SNAPSHOT_VERSION {
            return d.fail(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            ));
        }
        let config_label = d.str()?;
        let vm = VmId::new(d.u32()?);
        let payload = d.bytes()?;
        d.finish()?;
        Ok(MachineSnapshot {
            version,
            config_label,
            vm,
            payload,
        })
    }
}

/// One resumable checkpoint: a full machine snapshot plus the replay
/// cursor — how many workload events the run had consumed when it was
/// taken, and whether the warm-up measurement trigger was still armed.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Full machine state at the tick boundary.
    pub snapshot: MachineSnapshot,
    /// Workload events consumed when the checkpoint was taken; a resumed
    /// run skips exactly this many events before applying the rest.
    pub events_consumed: u64,
    /// Whether the warm-up measurement trigger had not yet fired.
    pub warmup_armed: bool,
    /// 1-based tick of the run at which the checkpoint was stored, so the
    /// bisector can report violation positions in ticks, the unit the
    /// run's own degradation log and cancellation points use.
    pub ticks: u64,
}

#[derive(Debug, Default)]
struct SlotInner {
    latest: Mutex<Option<Checkpoint>>,
    stores: AtomicU64,
}

/// Shared single-checkpoint mailbox between a running job and the
/// service supervising it. The run's tick hook overwrites the slot at each
/// checkpointed tick; on a worker kill the service takes the latest
/// checkpoint and resumes the job elsewhere. Cloning shares the slot.
#[derive(Debug, Clone, Default)]
pub struct CheckpointSlot {
    inner: Arc<SlotInner>,
}

impl CheckpointSlot {
    /// An empty slot.
    #[must_use]
    pub fn new() -> Self {
        CheckpointSlot::default()
    }

    /// Replaces the slot's checkpoint with a newer one.
    pub fn store(&self, cp: Checkpoint) {
        *self.inner.latest.lock().expect("checkpoint slot poisoned") = Some(cp);
        self.inner.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes and returns the latest checkpoint, if any.
    #[must_use]
    pub fn take(&self) -> Option<Checkpoint> {
        self.inner
            .latest
            .lock()
            .expect("checkpoint slot poisoned")
            .take()
    }

    /// The latest checkpoint, cloned, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Checkpoint> {
        self.inner
            .latest
            .lock()
            .expect("checkpoint slot poisoned")
            .clone()
    }

    /// How many checkpoints have been stored into this slot.
    #[must_use]
    pub fn stores(&self) -> u64 {
        self.inner.stores.load(Ordering::Relaxed)
    }
}

/// Panic payload thrown when chaos kills a worker mid-job
/// ([`crate::FaultPlan::kill_worker_at_tick`]). The service recognizes it
/// by downcast and routes the orphaned job through checkpoint recovery
/// instead of the retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill;

impl std::fmt::Display for WorkerKill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker killed mid-run by chaos")
    }
}

/// What a transition is allowed to change; selects the invariant set
/// [`diff`] enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffIntent {
    /// A technique-switch boundary (interval tick): the translation
    /// function must be *identical* — same leaves, same frames, same
    /// sizes, same permissions — and only page *modes* may move, leaving
    /// a well-formed shadow-above-nested partition.
    TechniqueSwitch,
    /// A live migration: the destination must map the same guest pages
    /// with the same writability, but frames (and large-page geometry)
    /// legitimately differ on the new machine.
    Migration,
}

/// The reference translation of one mapped 4 KiB guest page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeafView {
    frame_raw: u64,
    eff_size: PageSize,
    writable: bool,
}

/// Mode and geometry of one guest page-table page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GptPageView {
    level_number: u8,
    va_base: u64,
    mode: GptPageMode,
}

/// A cheap semantic capture of the translation-relevant machine state:
/// every mapped 4 KiB page's reference translation (computed by the
/// paranoia oracle's [`verify::reference_translate`], independent of all
/// caching structures) plus the VMM's per-page-table-page switching bits.
/// Two views bracketing a transition feed [`diff`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionView {
    /// (pid raw, 4 KiB-aligned gva) → reference translation.
    leaves: BTreeMap<(u32, u64), LeafView>,
    /// (pid raw, guest table frame raw) → page mode/geometry.
    gpt_pages: BTreeMap<(u32, u64), GptPageView>,
    /// pid raw → (full_nested, root_nested) per-process mode flags.
    proc_modes: BTreeMap<u32, (bool, bool)>,
}

impl TransitionView {
    /// Captures every process the VMM knows.
    #[must_use]
    pub fn capture(machine: &Machine) -> Self {
        TransitionView::capture_parts(machine.mem(), machine.vmm(), machine.os())
    }

    /// Captures one process, with its pid normalized out of the keys so a
    /// source-machine view compares against a destination view of a
    /// *different* pid (migration rehomes the process under a new id).
    #[must_use]
    pub fn capture_process(machine: &Machine, pid: ProcessId) -> Self {
        let mut view = TransitionView::default();
        view.add_process(machine.mem(), machine.vmm(), machine.os(), pid, 0);
        view
    }

    pub(crate) fn capture_parts(mem: &PhysMem, vmm: &Vmm, os: &GuestOs) -> Self {
        let mut view = TransitionView::default();
        for pid in vmm.processes() {
            view.add_process(mem, vmm, os, pid, pid.raw());
        }
        view
    }

    fn add_process(&mut self, mem: &PhysMem, vmm: &Vmm, os: &GuestOs, pid: ProcessId, key: u32) {
        for vma in os.vmas(pid) {
            let mut va = vma.start;
            while va < vma.end() {
                if let Some(r) = verify::reference_translate(mem, vmm, pid, va) {
                    self.leaves.insert(
                        (key, va),
                        LeafView {
                            frame_raw: r.frame_4k.raw(),
                            eff_size: r.eff_size,
                            writable: r.writable,
                        },
                    );
                }
                va += 0x1000;
            }
        }
        for (gframe, info) in vmm.gpt_pages(pid) {
            self.gpt_pages.insert(
                (key, gframe.raw()),
                GptPageView {
                    level_number: info.level.number(),
                    va_base: info.va_base,
                    mode: info.mode,
                },
            );
        }
        self.proc_modes
            .insert(key, (vmm.full_nested(pid), vmm.root_nested(pid)));
    }

    /// Mapped 4 KiB pages in the view.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Test hook: perturbs the recorded translation of the `index`-th leaf
    /// (wrapping), so differ-sensitivity tests can plant a divergence
    /// without corrupting a live machine.
    pub fn chaos_skew_leaf(&mut self, index: usize) {
        if self.leaves.is_empty() {
            return;
        }
        let key = *self
            .leaves
            .keys()
            .nth(index % self.leaves.len())
            .expect("non-empty");
        let leaf = self.leaves.get_mut(&key).expect("keyed");
        leaf.frame_raw ^= 1;
    }

    /// Test hook: flips the writability of the `index`-th leaf (wrapping).
    pub fn chaos_flip_writable(&mut self, index: usize) {
        if self.leaves.is_empty() {
            return;
        }
        let key = *self
            .leaves
            .keys()
            .nth(index % self.leaves.len())
            .expect("non-empty");
        let leaf = self.leaves.get_mut(&key).expect("keyed");
        leaf.writable = !leaf.writable;
    }
}

/// Cap on reported transition violations: the first few carry the
/// diagnosis; a systematically diverged transition would otherwise emit
/// one violation per mapped page.
const MAX_DIFF_VIOLATIONS: usize = 32;

/// Compares two [`TransitionView`]s bracketing a transition and returns
/// every invariant violation found (empty = the transition is clean).
///
/// For [`DiffIntent::TechniqueSwitch`]:
///
/// * the mapped-leaf set and every leaf's reference translation (frame,
///   effective size, writability) are identical — a switch moves
///   *metadata*, never the translation function;
/// * the guest page-table page set and each page's (level, va-base)
///   geometry are identical — switching never allocates, frees, or moves
///   guest table pages;
/// * the after-state's mode partition is well-formed: below a
///   [`GptPageMode::Nested`] page, every descendant page (same process,
///   lower level, va-range inside the nested page's span) is also
///   `Nested` — the paper's "shadow above, nested below" split point.
///
/// For [`DiffIntent::Migration`]: the same gVAs must be mapped with the
/// same writability, but host frames and large-page geometry legitimately
/// differ on the destination machine, and page-table-page identities are
/// not comparable at all.
#[must_use]
pub fn diff(before: &TransitionView, after: &TransitionView, intent: DiffIntent) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut report = |gva: Option<u64>, detail: String| {
        if out.len() < MAX_DIFF_VIOLATIONS {
            out.push(Violation {
                site: ViolationSite::Transition,
                gva,
                level: None,
                detail,
            });
        }
    };

    for (&(pid, gva), b) in &before.leaves {
        match after.leaves.get(&(pid, gva)) {
            None => report(
                Some(gva),
                format!(
                    "leaf lost in transition (pid key {pid}, was frame {})",
                    b.frame_raw
                ),
            ),
            Some(a) => match intent {
                DiffIntent::TechniqueSwitch if a != b => report(
                    Some(gva),
                    format!(
                        "translation changed across switch (pid key {pid}): \
                         frame {}->{}, size {}->{}, writable {}->{}",
                        b.frame_raw,
                        a.frame_raw,
                        b.eff_size.label(),
                        a.eff_size.label(),
                        b.writable,
                        a.writable
                    ),
                ),
                DiffIntent::Migration if a.writable != b.writable => report(
                    Some(gva),
                    format!(
                        "writability changed across migration (pid key {pid}): {}->{}",
                        b.writable, a.writable
                    ),
                ),
                _ => {}
            },
        }
    }
    for (&(pid, gva), a) in &after.leaves {
        if !before.leaves.contains_key(&(pid, gva)) {
            report(
                Some(gva),
                format!(
                    "leaf appeared in transition (pid key {pid}, frame {})",
                    a.frame_raw
                ),
            );
        }
    }

    if intent == DiffIntent::TechniqueSwitch {
        for (&(pid, gframe), b) in &before.gpt_pages {
            match after.gpt_pages.get(&(pid, gframe)) {
                None => report(
                    Some(b.va_base),
                    format!("guest table page {gframe:#x} vanished across switch (pid key {pid})"),
                ),
                Some(a) if (a.level_number, a.va_base) != (b.level_number, b.va_base) => report(
                    Some(b.va_base),
                    format!(
                        "guest table page {gframe:#x} moved across switch (pid key {pid}): \
                         L{} va {:#x} -> L{} va {:#x}",
                        b.level_number, b.va_base, a.level_number, a.va_base
                    ),
                ),
                Some(_) => {}
            }
        }
        for &(pid, gframe) in after.gpt_pages.keys() {
            if !before.gpt_pages.contains_key(&(pid, gframe)) {
                report(
                    None,
                    format!("guest table page {gframe:#x} appeared across switch (pid key {pid})"),
                );
            }
        }
        check_partition(after, &mut report);
    }
    out
}

/// Asserts the "shadow above, nested below" partition on one view: every
/// page-table page strictly inside a nested page's va-span (and below its
/// level) must itself be nested. A shadow-mode page under a nested
/// ancestor would be unreachable by the agile walker yet still
/// write-protected — the malformed split this check exists to catch.
fn check_partition(view: &TransitionView, report: &mut impl FnMut(Option<u64>, String)) {
    for (&(pid, nframe), nested) in &view.gpt_pages {
        if nested.mode != GptPageMode::Nested {
            continue;
        }
        let span = agile_types::Level::from_number(nested.level_number)
            .map_or(0x1000, agile_types::Level::span_bytes);
        let end = nested.va_base.saturating_add(span);
        for (&(cpid, cframe), child) in &view.gpt_pages {
            if cpid != pid
                || child.level_number >= nested.level_number
                || child.va_base < nested.va_base
                || child.va_base >= end
            {
                continue;
            }
            if child.mode != GptPageMode::Nested {
                report(
                    Some(child.va_base),
                    format!(
                        "malformed switch partition (pid key {pid}): L{} page {cframe:#x} is \
                         {:?} under nested L{} page {nframe:#x}",
                        child.level_number, child.mode, nested.level_number
                    ),
                );
            }
        }
    }
}

/// Everything a host needs to rehome one process onto another machine:
/// the VMA layout to replay, the mapped leaves to re-touch, and the
/// pid-normalized [`TransitionView`] the migration differ checks the
/// destination against.
#[derive(Debug, Clone)]
pub struct ProcessImage {
    /// The process's VMAs, in address order.
    pub vmas: Vec<agile_guest::Vma>,
    /// Mapped leaf pages as `(va, writable)`, ascending, one entry per
    /// leaf (a 2 MiB leaf yields one entry).
    pub leaves: Vec<(u64, bool)>,
    view: TransitionView,
}

impl ProcessImage {
    /// Captures `pid` on `machine`.
    #[must_use]
    pub fn capture(machine: &Machine, pid: ProcessId) -> Self {
        ProcessImage {
            vmas: machine.vmas_of(pid),
            leaves: machine.mapped_leaves(pid),
            view: TransitionView::capture_process(machine, pid),
        }
    }

    /// The source-side transition view (pid-normalized).
    #[must_use]
    pub fn view(&self) -> &TransitionView {
        &self.view
    }
}

/// Where [`bisect_violation`] pinned the first violation of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectReport {
    /// Tick of the checkpoint the successful replay started from (the
    /// newest retained checkpoint that restored clean).
    pub from_ticks: u64,
    /// First tick at (or during) which a violation or lint diagnostic
    /// appears when replaying forward from that checkpoint.
    pub first_bad_tick: u64,
    /// Workload events replayed from the checkpoint to the violation.
    pub events_replayed: u64,
    /// Violation/diagnostic summaries observed at the first bad tick.
    pub findings: Vec<String>,
    /// True when even the oldest retained checkpoint was already dirty:
    /// the true first bad tick precedes the window, and
    /// `first_bad_tick` is only an upper bound.
    pub truncated: bool,
}

/// Every reason the paused `machine` is not clean, rendered one finding
/// per line: recorded paranoia/differ violations first, then static-
/// analyzer diagnostics. Shared by the bisector and the explorer — both
/// define "violating state" as "this list is non-empty".
pub(crate) fn machine_findings(machine: &mut Machine) -> Vec<String> {
    let mut findings: Vec<String> = machine
        .violations()
        .iter()
        .map(|v| format!("violation[{:?}]: {}", v.site, v.detail))
        .collect();
    findings.extend(
        machine
            .lint()
            .diags
            .iter()
            .map(|d| format!("lint[{}]: {}", d.code.label(), d.detail)),
    );
    findings
}

/// Replays a run from a window of its checkpoints (oldest first, as a
/// [`Machine::run`] hook records them with [`Machine::checkpoint`]) and
/// pins the first violating tick — the ROADMAP's time-travel rung.
///
/// The window is walked newest-to-oldest for a checkpoint that restores
/// *clean* (no stored violations, no lint diagnostics); from there the
/// workload is replayed event by event, checking the paranoia violations
/// and the static analyzer after each, until the first finding appears.
/// Chaos plans ride along inside the snapshot (seed, dice state, and the
/// one-shot scenario cursor), so injected faults re-fire identically on
/// replay; control-plane test knobs do not — re-arm those through
/// [`bisect_violation_with`].
///
/// Returns `None` when the window is empty, no checkpoint restores, or
/// the replay reaches the end of the workload without any finding.
#[must_use]
pub fn bisect_violation(
    cfg: crate::config::SystemConfig,
    spec: &agile_workloads::WorkloadSpec,
    window: &[Checkpoint],
) -> Option<BisectReport> {
    bisect_violation_with(cfg, spec, window, |_| {})
}

/// [`bisect_violation`] with a `prepare` hook run on every freshly built
/// machine *before* the checkpoint is restored into it. Restores rebuild
/// only the serialized state, and a chaos-bearing snapshot only loads
/// into a machine whose fault plan is already armed — re-arm the plan
/// and any control-plane test knobs (like
/// `Machine::chaos_suppress_leaf_flush`) here, or the restore is
/// rejected / the replay diverges and the bisection comes back empty.
#[must_use]
pub fn bisect_violation_with(
    cfg: crate::config::SystemConfig,
    spec: &agile_workloads::WorkloadSpec,
    window: &[Checkpoint],
    prepare: impl Fn(&mut Machine),
) -> Option<BisectReport> {
    // Newest clean checkpoint, else the oldest restorable one (the run
    // was already bad before the window: report a truncated bound).
    let mut start: Option<(&Checkpoint, Machine, bool)> = None;
    for (i, cp) in window.iter().enumerate().rev() {
        let mut machine = Machine::new(cfg);
        prepare(&mut machine);
        if machine.restore_from(&cp.snapshot).is_err() {
            continue;
        }
        let dirty = !machine_findings(&mut machine).is_empty();
        let truncated = dirty && i == 0;
        if dirty && !truncated {
            continue;
        }
        start = Some((cp, machine, truncated));
        break;
    }
    let (cp, mut machine, truncated) = start?;
    if truncated {
        let findings = machine_findings(&mut machine);
        return Some(BisectReport {
            from_ticks: cp.ticks,
            first_bad_tick: cp.ticks,
            events_replayed: 0,
            findings,
            truncated: true,
        });
    }
    // The replay's statistics are discarded, so its warm-up boundary is
    // moot.
    let (_, report) = machine.run(spec, 0, Some(cp), |machine, at| {
        let findings = machine_findings(machine);
        if findings.is_empty() {
            return ControlFlow::Continue(());
        }
        ControlFlow::Break(BisectReport {
            from_ticks: cp.ticks,
            // A violation between tick boundaries belongs to the
            // in-progress tick.
            first_bad_tick: cp.ticks + at.ticks + u64::from(!at.is_tick),
            events_replayed: at.events - cp.events_consumed,
            findings,
            truncated: false,
        })
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_envelope_round_trips() {
        let snap = MachineSnapshot::from_parts("4K:A".into(), VmId::new(3), vec![1, 2, 3, 9]);
        let bytes = snap.to_bytes();
        let back = MachineSnapshot::from_bytes(&bytes).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.config_label(), "4K:A");
        assert_eq!(back.vm(), VmId::new(3));
        assert_eq!(back.payload_len(), 4);
    }

    #[test]
    fn snapshot_envelope_rejects_bad_magic_and_version() {
        let snap = MachineSnapshot::from_parts("x".into(), VmId::new(0), vec![]);
        let mut bytes = snap.to_bytes();
        bytes[0] ^= 0xff;
        assert!(MachineSnapshot::from_bytes(&bytes).is_err());
        let mut bytes = snap.to_bytes();
        bytes[8] = 0xfe; // version little-endian low byte
        assert!(MachineSnapshot::from_bytes(&bytes).is_err());
        assert!(MachineSnapshot::from_bytes(&snap.to_bytes()[..9]).is_err());
    }

    #[test]
    fn checkpoint_slot_keeps_the_latest() {
        let slot = CheckpointSlot::new();
        assert!(slot.latest().is_none());
        let cp = |n| Checkpoint {
            snapshot: MachineSnapshot::from_parts("x".into(), VmId::new(0), vec![]),
            events_consumed: n,
            warmup_armed: false,
            ticks: n,
        };
        slot.store(cp(5));
        slot.store(cp(9));
        assert_eq!(slot.stores(), 2);
        assert_eq!(slot.latest().expect("stored").events_consumed, 9);
        assert_eq!(slot.take().expect("stored").events_consumed, 9);
        assert!(slot.take().is_none());
    }

    #[test]
    fn fnv_digest_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn identical_views_diff_clean() {
        let view = TransitionView::default();
        assert!(diff(&view, &view, DiffIntent::TechniqueSwitch).is_empty());
        assert!(diff(&view, &view, DiffIntent::Migration).is_empty());
    }

    #[test]
    fn planted_skew_is_caught_by_switch_but_frames_ignored_by_migration() {
        let mut before = TransitionView::default();
        before.leaves.insert(
            (0, 0x1000),
            LeafView {
                frame_raw: 7,
                eff_size: PageSize::Size4K,
                writable: true,
            },
        );
        let mut after = before.clone();
        after.chaos_skew_leaf(0);
        let switch = diff(&before, &after, DiffIntent::TechniqueSwitch);
        assert_eq!(switch.len(), 1);
        assert_eq!(switch[0].site, ViolationSite::Transition);
        assert!(diff(&before, &after, DiffIntent::Migration).is_empty());
        after.chaos_flip_writable(0);
        assert_eq!(diff(&before, &after, DiffIntent::Migration).len(), 1);
    }

    #[test]
    fn lost_and_appeared_leaves_are_reported() {
        let mut before = TransitionView::default();
        before.leaves.insert(
            (0, 0x1000),
            LeafView {
                frame_raw: 7,
                eff_size: PageSize::Size4K,
                writable: true,
            },
        );
        let after = TransitionView::default();
        assert_eq!(diff(&before, &after, DiffIntent::Migration).len(), 1);
        assert_eq!(diff(&after, &before, DiffIntent::TechniqueSwitch).len(), 1);
    }

    #[test]
    fn malformed_partition_is_reported() {
        let mut view = TransitionView::default();
        view.gpt_pages.insert(
            (0, 0x100),
            GptPageView {
                level_number: 2,
                va_base: 0,
                mode: GptPageMode::Nested,
            },
        );
        view.gpt_pages.insert(
            (0, 0x101),
            GptPageView {
                level_number: 1,
                va_base: 0x1000,
                mode: GptPageMode::Synced,
            },
        );
        let found = diff(&view.clone(), &view, DiffIntent::TechniqueSwitch);
        assert_eq!(found.len(), 1);
        assert!(found[0].detail.contains("malformed switch partition"));
    }
}
