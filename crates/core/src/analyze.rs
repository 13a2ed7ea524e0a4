//! `agile-lint`: whole-state static analysis of a paused machine.
//!
//! The runtime verify oracle ([`crate::verify`]) only cross-checks
//! translations the workload happens to touch, and the chaos layer
//! ([`crate::chaos`]) only proves faults heal on the paths it drives.
//! Neither can prove a *quiescent* machine state is well-formed. This
//! module can: it inspects the materialized radix tables and the recorded
//! shootdown protocol without executing a single access.
//!
//! The pass has two halves:
//!
//! **Part A — structural page-table analyzer** ([`analyze`]). Enumerates
//! every shadow/guest/host radix table through the read-only [`Vmm`] and
//! [`PhysMem`] accessors and checks the paper's structural invariants:
//!
//! * **Frame ownership** (paper §III-B shadow table residency): every live
//!   host page-table page must be reachable from exactly one owner — the
//!   host (EPT) tree, one process's shadow tree, or the backing of a
//!   registered guest page-table page. Zero owners is a leak
//!   ([`LintCode::OrphanFrame`]), two or more is an alias
//!   ([`LintCode::MultiOwnedFrame`]).
//! * **Shadow-permission monotonicity** (paper §III-A: a shadow leaf merges
//!   the guest and host translations): every shadow leaf must translate to
//!   the same frame as the guest∘host composition
//!   ([`LintCode::ShadowFrameMismatch`]) and must never grant write
//!   permission beyond the guest ∩ host intersection
//!   ([`LintCode::ShadowPermExceeds`]). It may be *more* restrictive —
//!   dirty-bit tracking and COW legitimately install read-only leaves.
//! * **Switching-bit well-formedness** (paper §III-A, Figure 3: the
//!   switching bit partitions every walk path into a shadow prefix and a
//!   nested suffix): switching entries may exist only under agile paging
//!   with the address space not fully nested
//!   ([`LintCode::SwitchingBitForbidden`]); each must point at the host
//!   backing of the nested-mode guest table page one level down
//!   ([`LintCode::SwitchingTargetInvalid`]); and no shadow-owned table
//!   memory may sit below a set switching bit
//!   ([`LintCode::ShadowBelowSwitching`]). The guest-side image of the
//!   same partition — once a walk path enters nested mode it never returns
//!   to shadow — is checked as [`LintCode::ModePartition`].
//! * **Cross-table A/D-bit consistency** (paper §III-B: the VMM sets guest
//!   A/D bits when it builds shadow entries; §IV hardware option 1 moves
//!   that to the walker): a dirty or writable shadow leaf whose guest leaf
//!   is not dirty means the dirty-tracking protocol was bypassed
//!   ([`LintCode::AdBitInconsistent`]).
//! * **Huge-page/4 KiB alias conflicts**: a leaf spanning more than the
//!   effective guest ∩ host page size, or two overlapping TLB entries that
//!   disagree about the overlap, alias one physical page under two
//!   granularities ([`LintCode::HugeAliasConflict`]).
//!
//! **Part B — shootdown-protocol race detector**
//! ([`detect_shootdown_races`]). A happens-before pass over the
//! [`ShootdownLog`] the machine records (flush requests in
//! `Vmm::take_pending_flushes` order, their delivery fates, table-page
//! frees, and allocator reuse): a table frame freed under a shootdown that
//! was dropped or deferred, with the allocator handing out new frames
//! before any covering flush applied, is exactly the missed-shootdown
//! use-after-free window the chaos layer injects
//! ([`LintCode::MissedShootdownReuse`]); a freed frame whose covering
//! shootdown never applied at all by the time the machine paused is
//! reported as [`LintCode::ShootdownNeverApplied`].
//!
//! All passes are strictly read-only and deterministic: diagnostics are
//! emitted in a canonical order, so two analyses of the same state render
//! byte-identically.

use crate::runner::Json;
use crate::verify;
use agile_mem::{entry_indices, EntryBits, PhysMem, TablePage, ALL_ENTRIES};
use agile_tlb::{TlbHierarchy, TlbStamps};
use agile_types::{
    CodecError, Dec, Enc, GuestFrame, GuestVirtAddr, HostFrame, Level, Persist, ProcessId, Pte,
    PteFlags, StateSink, VmId, ENTRIES_PER_TABLE,
};
use agile_vmm::{FlushRequest, GptPageInfo, GptPageMode, Technique, Vmm};
use std::collections::{BTreeMap, HashSet};

/// Typed code of one static-analysis diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// A live host page-table page is reachable from no owner (host tree,
    /// shadow tree, or guest-table backing): leaked table memory.
    OrphanFrame,
    /// A live host page-table page is claimed by two or more owners.
    MultiOwnedFrame,
    /// An interior (non-leaf, non-switching) entry points at a frame that
    /// is not a live table page.
    DanglingTablePointer,
    /// A registered guest page-table frame has no live host table backing.
    UnbackedGuestTable,
    /// A shadow (or merged) leaf translates to a frame other than what the
    /// guest∘host composition says, or maps a gVA the guest does not map.
    ShadowFrameMismatch,
    /// A shadow leaf grants write permission beyond guest ∩ host.
    ShadowPermExceeds,
    /// A shadow leaf's dirty/writable state is inconsistent with the guest
    /// leaf's dirty bit (the §III-B dirty-tracking protocol was bypassed).
    AdBitInconsistent,
    /// A switching entry exists where the technique or process mode forbids
    /// one (non-agile technique, or fully nested address space).
    SwitchingBitForbidden,
    /// A switching entry does not point at the host backing of a
    /// nested-mode guest table page at the level below it.
    SwitchingTargetInvalid,
    /// A switching entry points into shadow-owned table memory: shadow
    /// entries survive strictly below a set switching bit.
    ShadowBelowSwitching,
    /// A nested-mode guest page-table page has a non-nested child: the walk
    /// path would return from the nested suffix to a shadow prefix.
    ModePartition,
    /// A leaf or TLB entry aliases one physical range under two page sizes
    /// that disagree (span exceeds the effective guest ∩ host size, or two
    /// overlapping TLB entries translate the overlap differently).
    HugeAliasConflict,
    /// A table frame was freed under a dropped/deferred shootdown and the
    /// allocator handed out new frames before any covering flush applied.
    MissedShootdownReuse,
    /// A table frame was freed and its covering shootdown still had not
    /// applied when the machine paused (no reuse observed yet).
    ShootdownNeverApplied,
    /// Host scope: two VMs' frame extents overlap, or a VM holds more
    /// frames than its lease on the shared pool grants — either way, a
    /// frame is effectively owned by two VMs.
    CrossVmFrameAlias,
    /// Host scope: a VM still holds leased frames after teardown.
    TeardownFrameLeak,
    /// Host scope: frames a guest balloon surrendered never reached the
    /// shared pool (the arbiter lost them in transit).
    BalloonNotReturned,
    /// A technique-switch or migration transition changed the translation
    /// function, or moved state outside the intended subtree (found by the
    /// two-state differ, [`crate::snapshot::diff`]).
    TransitionDiverged,
}

impl LintCode {
    /// All codes, in report order.
    pub const ALL: [LintCode; 18] = [
        LintCode::OrphanFrame,
        LintCode::MultiOwnedFrame,
        LintCode::DanglingTablePointer,
        LintCode::UnbackedGuestTable,
        LintCode::ShadowFrameMismatch,
        LintCode::ShadowPermExceeds,
        LintCode::AdBitInconsistent,
        LintCode::SwitchingBitForbidden,
        LintCode::SwitchingTargetInvalid,
        LintCode::ShadowBelowSwitching,
        LintCode::ModePartition,
        LintCode::HugeAliasConflict,
        LintCode::MissedShootdownReuse,
        LintCode::ShootdownNeverApplied,
        LintCode::CrossVmFrameAlias,
        LintCode::TeardownFrameLeak,
        LintCode::BalloonNotReturned,
        LintCode::TransitionDiverged,
    ];

    /// Stable kebab-case label (used in rendered and JSON output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LintCode::OrphanFrame => "orphan-frame",
            LintCode::MultiOwnedFrame => "multi-owned-frame",
            LintCode::DanglingTablePointer => "dangling-table-pointer",
            LintCode::UnbackedGuestTable => "unbacked-guest-table",
            LintCode::ShadowFrameMismatch => "shadow-frame-mismatch",
            LintCode::ShadowPermExceeds => "shadow-perm-exceeds",
            LintCode::AdBitInconsistent => "ad-bit-inconsistent",
            LintCode::SwitchingBitForbidden => "switching-bit-forbidden",
            LintCode::SwitchingTargetInvalid => "switching-target-invalid",
            LintCode::ShadowBelowSwitching => "shadow-below-switching",
            LintCode::ModePartition => "mode-partition",
            LintCode::HugeAliasConflict => "huge-alias-conflict",
            LintCode::MissedShootdownReuse => "missed-shootdown-reuse",
            LintCode::ShootdownNeverApplied => "shootdown-never-applied",
            LintCode::CrossVmFrameAlias => "cross-vm-frame-alias",
            LintCode::TeardownFrameLeak => "teardown-frame-leak",
            LintCode::BalloonNotReturned => "balloon-not-returned",
            LintCode::TransitionDiverged => "transition-diverged",
        }
    }

    /// Default severity of the code.
    #[must_use]
    pub fn severity(self) -> LintSeverity {
        match self {
            // No reuse observed yet: the window is open but nothing stale
            // can have been handed out, so this is advisory.
            LintCode::ShootdownNeverApplied => LintSeverity::Warning,
            _ => LintSeverity::Error,
        }
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintSeverity {
    /// Advisory: suspicious but not yet a correctness violation.
    Warning,
    /// A structural invariant is broken.
    Error,
}

impl LintSeverity {
    fn label(self) -> &'static str {
        match self {
            LintSeverity::Warning => "warning",
            LintSeverity::Error => "error",
        }
    }
}

/// One static-analysis diagnostic: the code, its severity, and the
/// gVA/level/frame context it concerns (like [`crate::Violation`], but for
/// state the workload never touched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiag {
    /// Which invariant is broken.
    pub code: LintCode,
    /// How serious it is.
    pub severity: LintSeverity,
    /// VM the diagnostic concerns, when the analysis is host-scoped
    /// (multi-VM). `None` for single-machine analyses.
    pub vm: Option<VmId>,
    /// Process whose tables the diagnostic concerns, when per-process.
    pub pid: Option<ProcessId>,
    /// Offending guest virtual address, when the check concerns one.
    pub gva: Option<u64>,
    /// Page-table level involved, when known.
    pub level: Option<Level>,
    /// Host frame involved, when known.
    pub frame: Option<HostFrame>,
    /// What exactly is wrong.
    pub detail: String,
}

impl LintDiag {
    pub(crate) fn new(code: LintCode, detail: String) -> Self {
        LintDiag {
            code,
            severity: code.severity(),
            vm: None,
            pid: None,
            gva: None,
            level: None,
            frame: None,
            detail,
        }
    }

    /// Tags the diagnostic with the VM it concerns (host-scope analyses).
    #[must_use]
    pub fn vm(mut self, vm: VmId) -> Self {
        self.vm = Some(vm);
        self
    }

    pub(crate) fn pid(mut self, pid: ProcessId) -> Self {
        self.pid = Some(pid);
        self
    }

    pub(crate) fn gva(mut self, gva: u64) -> Self {
        self.gva = Some(gva);
        self
    }

    fn level(mut self, level: Level) -> Self {
        self.level = Some(level);
        self
    }

    fn frame(mut self, frame: HostFrame) -> Self {
        self.frame = Some(frame);
        self
    }

    /// Renders the diagnostic as a stable sorted-key JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::Str(self.code.label().to_string())),
            ("detail", Json::Str(self.detail.clone())),
            (
                "frame",
                self.frame.map_or(Json::Null, |f| Json::UInt(f.raw())),
            ),
            (
                "gva",
                self.gva
                    .map_or(Json::Null, |g| Json::Str(format!("{g:#x}"))),
            ),
            (
                "level",
                self.level
                    .map_or(Json::Null, |l| Json::UInt(u64::from(l.number()))),
            ),
            (
                "pid",
                self.pid
                    .map_or(Json::Null, |p| Json::UInt(u64::from(p.raw()))),
            ),
            ("severity", Json::Str(self.severity.label().to_string())),
            (
                "vm",
                self.vm
                    .map_or(Json::Null, |v| Json::UInt(u64::from(v.raw()))),
            ),
        ])
    }
}

impl std::fmt::Display for LintDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity.label(), self.code.label())?;
        if let Some(vm) = self.vm {
            write!(f, " vm={}", vm.raw())?;
        }
        if let Some(pid) = self.pid {
            write!(f, " pid={}", pid.raw())?;
        }
        if let Some(gva) = self.gva {
            write!(f, " gva={gva:#x}")?;
        }
        if let Some(level) = self.level {
            write!(f, " level={level:?}")?;
        }
        if let Some(frame) = self.frame {
            write!(f, " frame={frame}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The result of one analysis pass: diagnostics in canonical order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All diagnostics found, sorted by (code, vm, pid, gva, frame,
    /// detail).
    pub diags: Vec<LintDiag>,
}

impl LintReport {
    /// Builds a report from raw diagnostics, sorting them into the
    /// canonical order (host-scope callers merge several machines'
    /// diagnostics before sorting).
    #[must_use]
    pub fn from_diags(mut diags: Vec<LintDiag>) -> Self {
        diags.sort_by(|a, b| {
            (
                a.code,
                a.vm.map(VmId::raw),
                a.pid.map(ProcessId::raw),
                a.gva,
                a.frame.map(HostFrame::raw),
                &a.detail,
            )
                .cmp(&(
                    b.code,
                    b.vm.map(VmId::raw),
                    b.pid.map(ProcessId::raw),
                    b.gva,
                    b.frame.map(HostFrame::raw),
                    &b.detail,
                ))
        });
        LintReport { diags }
    }

    /// True when nothing was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of diagnostics with the given code.
    #[must_use]
    pub fn count(&self, code: LintCode) -> usize {
        self.diags.iter().filter(|d| d.code == code).count()
    }

    /// True when any diagnostic has [`LintSeverity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == LintSeverity::Error)
    }

    /// Renders one line per diagnostic (empty string when clean).
    #[must_use]
    pub fn render(&self) -> String {
        self.diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Renders the report as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clean", Json::Bool(self.is_clean())),
            ("count", Json::UInt(self.diags.len() as u64)),
            (
                "diags",
                Json::Arr(self.diags.iter().map(LintDiag::to_json).collect()),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Part A: structural page-table analyzer
// ---------------------------------------------------------------------

/// Walks a host-space radix tree from `root`, visiting every table page
/// with its level and the first address it covers. Does not descend
/// through leaves or switching entries (a switching entry's target belongs
/// to the guest, not this tree). Dangling interior pointers are reported
/// through `on_dangling`.
fn walk_host_tree(
    mem: &PhysMem,
    root: HostFrame,
    on_page: &mut dyn FnMut(HostFrame, Level, u64),
    on_dangling: &mut dyn FnMut(u64, Level, HostFrame),
) {
    let mut stack = vec![(root, Level::top(), 0u64)];
    while let Some((frame, level, base)) = stack.pop() {
        if !mem.is_table(frame) {
            continue; // reported by the caller at the referencing entry
        }
        on_page(frame, level, base);
        let page = mem.table(frame).expect("checked above");
        for (index, pte) in page.present_entries() {
            let va = base + index as u64 * level.span_bytes();
            if pte.is_leaf_at(level) || pte.is_switching() {
                continue;
            }
            let child = pte.host_frame();
            if !mem.is_table(child) {
                on_dangling(va, level, child);
                continue;
            }
            stack.push((child, level.child().expect("interior level"), va));
        }
    }
}

/// Walks a guest radix tree (pages live in guest frames) from `root`,
/// visiting every page's host backing with its level and first gVA.
fn walk_guest_tree(
    mem: &PhysMem,
    vmm: &Vmm,
    root: GuestFrame,
    on_page: &mut dyn FnMut(HostFrame, Level, u64),
    on_dangling: &mut dyn FnMut(u64, Level, GuestFrame),
) {
    let mut stack = vec![(root, Level::top(), 0u64)];
    while let Some((gframe, level, base)) = stack.pop() {
        let Some(backing) = vmm.backing(gframe) else {
            continue; // reported by the caller at the referencing entry
        };
        let Some(page) = mem.table(backing) else {
            continue;
        };
        on_page(backing, level, base);
        for (index, pte) in page.present_entries() {
            let va = base + index as u64 * level.span_bytes();
            if pte.is_leaf_at(level) {
                continue;
            }
            let child = GuestFrame::new(pte.frame_raw());
            let live = vmm.backing(child).is_some_and(|h| mem.is_table(h));
            if !live {
                on_dangling(va, level, child);
                continue;
            }
            stack.push((child, level.child().expect("interior level"), va));
        }
    }
}

/// Who claims a live table page in the frame-ownership pass.
#[derive(Debug, Clone, Copy)]
enum Owner {
    /// The host (EPT) tree.
    Host,
    /// One process's shadow tree.
    Shadow(ProcessId),
    /// The backing of a registered guest page-table page.
    GuestTable(GuestFrame),
}

impl std::fmt::Display for Owner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Owner::Host => write!(f, "host-table"),
            Owner::Shadow(pid) => write!(f, "shadow(pid {})", pid.raw()),
            Owner::GuestTable(gframe) => write!(f, "guest-table {gframe}"),
        }
    }
}

/// Which radix tree an ownership walk visited a table page in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tree {
    /// The host (EPT) tree.
    Host,
    /// One process's shadow tree.
    Shadow(ProcessId),
    /// One process's guest tree (the page backs a guest table page).
    Guest(ProcessId),
}

/// One table page as an ownership walk visited it: the tree, the level
/// of its entries, and the first address it covers (a gVA, or a gPA in
/// the host tree).
#[derive(Debug, Clone, Copy)]
struct Visit {
    frame: HostFrame,
    tree: Tree,
    level: Level,
    base: u64,
}

impl Visit {
    /// The addresses the page covers, `[start, end)`.
    fn range(&self) -> (u64, u64) {
        let span = ENTRIES_PER_TABLE as u64 * self.level.span_bytes();
        (self.base, self.base + span)
    }
}

/// Frame-ownership pass: every live table page must have exactly one owner.
///
/// Claims are recorded as `(frame, owner)` in claim order and matched
/// against the frame-ordered live table pages after a stable sort, so the
/// text of a [`LintCode::MultiOwnedFrame`] diagnostic is rendered only
/// when one fires, with its owners in claim order. Every page the walks
/// visit is appended to `visits`, in walk order.
///
/// Returns whether the table graph is *structurally intact* (no dangling
/// pointers, no unbacked guest tables). The truth-comparison passes walk
/// tables through the infallible simulator read paths, which treat a
/// dereference of freed table memory as a fatal bug — so they only run on
/// an intact graph; on a broken one, the structural diagnostics emitted
/// here already pinpoint the breakage.
fn check_frame_ownership(
    mem: &PhysMem,
    vmm: &Vmm,
    visits: &mut Vec<Visit>,
    out: &mut Vec<LintDiag>,
) -> bool {
    let mut claims: Vec<(u64, Owner)> = Vec::with_capacity(mem.table_page_count());
    let mut claim = |frame: HostFrame, owner: Owner| claims.push((frame.raw(), owner));
    let mut visit = |frame, tree, level, base| {
        visits.push(Visit {
            frame,
            tree,
            level,
            base,
        });
    };

    walk_host_tree(
        mem,
        vmm.hptr(),
        &mut |frame, level, base| {
            claim(frame, Owner::Host);
            visit(frame, Tree::Host, level, base);
        },
        &mut |gpa, level, child| {
            out.push(
                LintDiag::new(
                    LintCode::DanglingTablePointer,
                    format!("host table entry at gPA {gpa:#x} points at non-table {child}"),
                )
                .level(level)
                .frame(child),
            );
        },
    );

    for pid in vmm.processes() {
        if let Some(sptr) = vmm.spt_root(pid) {
            walk_host_tree(
                mem,
                sptr,
                &mut |frame, level, base| {
                    claim(frame, Owner::Shadow(pid));
                    visit(frame, Tree::Shadow(pid), level, base);
                },
                &mut |va, level, child| {
                    out.push(
                        LintDiag::new(
                            LintCode::DanglingTablePointer,
                            format!("shadow table entry points at non-table {child}"),
                        )
                        .pid(pid)
                        .gva(va)
                        .level(level)
                        .frame(child),
                    );
                },
            );
        }
        if let Some(root) = vmm.gpt_root(pid) {
            walk_guest_tree(
                mem,
                vmm,
                root,
                &mut |backing, level, base| visit(backing, Tree::Guest(pid), level, base),
                &mut |va, level, child| {
                    out.push(
                        LintDiag::new(
                            LintCode::DanglingTablePointer,
                            format!(
                                "guest table entry points at guest frame {child} with no live \
                                 table backing"
                            ),
                        )
                        .pid(pid)
                        .gva(va)
                        .level(level),
                    );
                },
            );
        }
    }

    for gframe in vmm.gmap().table_gframes() {
        match vmm.backing(gframe) {
            Some(backing) if mem.is_table(backing) => {
                claim(backing, Owner::GuestTable(gframe));
            }
            other => {
                out.push(LintDiag::new(
                    LintCode::UnbackedGuestTable,
                    format!(
                        "registered guest table frame {gframe} has backing {other:?}, which \
                             is not a live table page"
                    ),
                ));
            }
        }
    }

    // Every claimed frame is a live table page, so one pass over the
    // frame-ordered pages consumes the frame-sorted claims.
    claims.sort_by_key(|&(frame, _)| frame);
    let mut next = 0;
    for (frame, _) in mem.table_pages() {
        let first = next;
        while claims.get(next).is_some_and(|&(f, _)| f == frame.raw()) {
            next += 1;
        }
        match next - first {
            0 => out.push(
                LintDiag::new(
                    LintCode::OrphanFrame,
                    "live table page reachable from no owner (leaked)".to_string(),
                )
                .frame(frame),
            ),
            1 => {}
            n => out.push(
                LintDiag::new(
                    LintCode::MultiOwnedFrame,
                    format!(
                        "table page claimed by {n} owners: {}",
                        claims[first..next]
                            .iter()
                            .map(|(_, owner)| owner.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                )
                .frame(frame),
            ),
        }
    }

    !out.iter().any(|d| {
        matches!(
            d.code,
            LintCode::DanglingTablePointer | LintCode::UnbackedGuestTable
        )
    })
}

/// `pid`'s page metadata for `gframe`, from `pages` (sorted by gframe, as
/// [`Vmm::gpt_pages`] returns it).
fn page_info(pages: &[(GuestFrame, GptPageInfo)], gframe: GuestFrame) -> Option<&GptPageInfo> {
    pages
        .binary_search_by_key(&gframe.raw(), |(g, _)| g.raw())
        .ok()
        .map(|i| &pages[i].1)
}

/// One descent of the guest table from `root` for `gva`: the guest leaf
/// (present, not switching), and whether any guest table page on the walk
/// path is in the KVM-style unsynced state — its derived shadow entries
/// are architecturally allowed to be stale until the next synchronization
/// point, so strict shadow-vs-truth checks must not fire. `pages` is the
/// process's sorted page metadata.
fn guest_path(
    mem: &PhysMem,
    vmm: &Vmm,
    root: GuestFrame,
    pages: &[(GuestFrame, GptPageInfo)],
    gva: u64,
) -> (bool, Option<(Pte, Level)>) {
    let va = GuestVirtAddr::new(gva);
    let mut unsynced = false;
    let mut gframe = root;
    for level in Level::top().walk_order() {
        unsynced |= page_info(pages, gframe).is_some_and(|i| i.mode == GptPageMode::Unsynced);
        let Some(page) = vmm.backing(gframe).and_then(|h| mem.table(h)) else {
            break;
        };
        let pte = page.entry(va.index(level));
        if !pte.is_present() || pte.is_switching() {
            break;
        }
        if pte.is_leaf_at(level) {
            return (unsynced, Some((pte, level)));
        }
        gframe = GuestFrame::new(pte.frame_raw());
    }
    (unsynced, None)
}

/// Which entries of one visited shadow page the shadow-table pass checks.
#[derive(Debug, Clone, Copy)]
enum Pick<'r> {
    /// Every present entry.
    All,
    /// The entries with these indices, and the leaves whose gVA lies in
    /// one of these `[start, end)` ranges.
    Some(EntryBits, &'r [(u64, u64)]),
    /// None.
    Skip,
}

/// Shadow-table sweep of one process: permission monotonicity, frame
/// agreement, A/D consistency, huge/4K alias spans, and switching-bit
/// well-formedness. `proc` is what the pass reads of the process: its
/// roots, modes and sorted page metadata.
///
/// It checks the shadow pages the ownership pass's walk of the process's
/// shadow tree visited (`visits`, in walk order), and `pick` says which
/// entries of each; every entry of every page is the whole sweep.
///
/// `tables_intact` gates the truth comparisons (reference translation,
/// page-mode probes): they dereference table pages through the infallible
/// simulator read paths and must not run over a structurally broken graph.
fn check_shadow_tables<'r>(
    mem: &PhysMem,
    vmm: &Vmm,
    proc: &ProcView,
    tables_intact: bool,
    visits: &[Visit],
    pick: &dyn Fn(&Visit) -> Pick<'r>,
    out: &mut Vec<LintDiag>,
) {
    let (pid, pages) = (proc.pid, &proc.pages[..]);
    let technique = vmm.technique();
    let agile = matches!(technique, Technique::Agile(_));
    let hw_ad = technique.hw_ad_bits();
    let native = matches!(technique, Technique::Native);
    // With the whole address space nested (SHSP nested phase, agile
    // storm fallback / pre-engagement) the walker ignores the shadow
    // table entirely, so residual shadow content is stale-but-inert:
    // skip truth comparisons, but still flag switching entries where
    // the mode forbids them.
    let inert = proc.full_nested || proc.root_nested;
    let root = proc.gpt_root;

    for_each_picked(
        mem,
        visits.iter().filter(|v| v.tree == Tree::Shadow(pid)),
        pick,
        &mut |va, level, pte| {
            if pte.is_switching() {
                check_switching_entry(mem, vmm, pid, va, level, pte, agile, inert, pages, out);
                return;
            }
            if !pte.is_leaf_at(level) || inert || !tables_intact {
                return;
            }
            let (unsynced, guest_leaf) =
                root.map_or((false, None), |root| guest_path(mem, vmm, root, pages, va));
            if unsynced {
                return;
            }
            let size = pte.leaf_size(level).expect("leaf entry");
            let reference = guest_leaf.and_then(|(gpte, glevel)| {
                verify::reference_from_guest_leaf(mem, vmm, va, gpte, glevel)
            });
            let Some(reference) = reference else {
                out.push(
                    LintDiag::new(
                        LintCode::ShadowFrameMismatch,
                        format!(
                            "shadow leaf maps a gVA the guest does not map (to frame {})",
                            pte.host_frame()
                        ),
                    )
                    .pid(pid)
                    .gva(va)
                    .level(level),
                );
                return;
            };
            if size > reference.eff_size {
                out.push(
                    LintDiag::new(
                        LintCode::HugeAliasConflict,
                        format!(
                            "shadow leaf spans {} but the effective guest ∩ host size is {} \
                             (guest {}, host {})",
                            size.label(),
                            reference.eff_size.label(),
                            reference.guest_size.label(),
                            reference.host_size.label(),
                        ),
                    )
                    .pid(pid)
                    .gva(va)
                    .level(level),
                );
            } else if pte.host_frame() != reference.frame_4k {
                out.push(
                    LintDiag::new(
                        LintCode::ShadowFrameMismatch,
                        format!(
                            "shadow leaf maps frame {}, guest∘host composition says {}",
                            pte.host_frame(),
                            reference.frame_4k
                        ),
                    )
                    .pid(pid)
                    .gva(va)
                    .level(level)
                    .frame(pte.host_frame()),
                );
            }
            if pte.is_writable() && !reference.writable {
                out.push(
                    LintDiag::new(
                        LintCode::ShadowPermExceeds,
                        "shadow leaf permits writes beyond the guest ∩ host intersection"
                            .to_string(),
                    )
                    .pid(pid)
                    .gva(va)
                    .level(level),
                );
            }
            // A/D protocol (§III-B): without the hardware A/D optimization
            // a shadow leaf may be writable or dirty only after the VMM
            // set the guest leaf's dirty bit. Native's merged table does
            // not participate (hardware A/D lands in the guest table
            // directly).
            if !native {
                let guest_dirty =
                    guest_leaf.is_some_and(|(g, _)| g.flags().contains(PteFlags::DIRTY));
                if pte.flags().contains(PteFlags::DIRTY) && !guest_dirty {
                    out.push(
                        LintDiag::new(
                            LintCode::AdBitInconsistent,
                            "shadow leaf is dirty but the guest leaf is not".to_string(),
                        )
                        .pid(pid)
                        .gva(va)
                        .level(level),
                    );
                } else if !hw_ad && pte.is_writable() && !guest_dirty {
                    out.push(
                        LintDiag::new(
                            LintCode::AdBitInconsistent,
                            "shadow leaf is writable but the guest leaf is not dirty (the \
                             dirty-tracking trap was bypassed)"
                                .to_string(),
                        )
                        .pid(pid)
                        .gva(va)
                        .level(level),
                    );
                }
            }
        },
    );
}

/// Calls `on_entry` with each present entry of the `visits`' pages that
/// `pick` selects, as (address, level, entry).
fn for_each_picked<'v, 'r>(
    mem: &PhysMem,
    visits: impl Iterator<Item = &'v Visit>,
    pick: &dyn Fn(&Visit) -> Pick<'r>,
    on_entry: &mut dyn FnMut(u64, Level, Pte),
) {
    for visit in visits {
        let (entries, ranges) = match pick(visit) {
            Pick::All => (ALL_ENTRIES, &[][..]),
            Pick::Some(entries, ranges) => (entries, ranges),
            Pick::Skip => continue,
        };
        let page = mem
            .table(visit.frame)
            .expect("visited table pages are live");
        for (index, pte) in page.present_entries() {
            let va = visit.base + index as u64 * visit.level.span_bytes();
            let picked = entries[index / 64] >> (index % 64) & 1 != 0
                || (!pte.is_switching() && ranges.iter().any(|&(s, e)| (s..e).contains(&va)));
            if picked {
                on_entry(va, visit.level, pte);
            }
        }
    }
}

/// Validates one switching entry (see module docs for the invariant set).
#[allow(clippy::too_many_arguments)] // one entry plus the per-process context it is judged against
fn check_switching_entry(
    mem: &PhysMem,
    vmm: &Vmm,
    pid: ProcessId,
    va: u64,
    level: Level,
    pte: Pte,
    agile: bool,
    inert: bool,
    pages: &[(GuestFrame, GptPageInfo)],
    out: &mut Vec<LintDiag>,
) {
    if !agile {
        out.push(
            LintDiag::new(
                LintCode::SwitchingBitForbidden,
                format!(
                    "switching entry under {:?}, which never sets the switching bit",
                    vmm.technique()
                ),
            )
            .pid(pid)
            .gva(va)
            .level(level),
        );
        return;
    }
    if vmm.full_nested(pid) {
        out.push(
            LintDiag::new(
                LintCode::SwitchingBitForbidden,
                "switching entry while the address space is fully nested (pure-nested mode \
                 never materializes shadow entries)"
                    .to_string(),
            )
            .pid(pid)
            .gva(va)
            .level(level),
        );
        return;
    }
    if inert {
        return; // root_nested: the spt is ignored; stale targets are inert
    }
    let target = pte.host_frame();
    // The registered guest table page backed by the target, if any (the
    // highest such gframe, should two share a backing).
    let gmap = vmm.gmap();
    match gmap
        .table_gframes()
        .filter(|&g| gmap.backing(g) == Some(target))
        .last()
    {
        Some(gframe) => {
            let info = page_info(pages, gframe);
            let child_level = level.child();
            let ok =
                info.is_some_and(|i| i.mode == GptPageMode::Nested && Some(i.level) == child_level);
            if !ok {
                let mode = info.map(|i| i.mode);
                out.push(
                    LintDiag::new(
                        LintCode::SwitchingTargetInvalid,
                        format!(
                            "switching entry targets guest table {gframe} (mode {mode:?}), \
                             expected a nested-mode page holding {child_level:?} entries"
                        ),
                    )
                    .pid(pid)
                    .gva(va)
                    .level(level)
                    .frame(target),
                );
            }
        }
        None if mem.is_table(target) => out.push(
            LintDiag::new(
                LintCode::ShadowBelowSwitching,
                "switching entry points into shadow/host-owned table memory: shadow entries \
                 survive below the switching bit"
                    .to_string(),
            )
            .pid(pid)
            .gva(va)
            .level(level)
            .frame(target),
        ),
        None => out.push(
            LintDiag::new(
                LintCode::SwitchingTargetInvalid,
                format!("switching entry targets {target}, which is not a live table page"),
            )
            .pid(pid)
            .gva(va)
            .level(level)
            .frame(target),
        ),
    }
}

/// Guest-side image of the Figure 3 partition for one process: below a
/// nested-mode page, every page must be nested. `proc` holds the
/// process's sorted page metadata; `pick` says which pages to check by
/// their host backing (every page is the whole pass).
fn check_mode_partition(
    mem: &PhysMem,
    vmm: &Vmm,
    proc: &ProcView,
    pick: &dyn Fn(HostFrame) -> bool,
    out: &mut Vec<LintDiag>,
) {
    let (pid, pages) = (proc.pid, &proc.pages[..]);
    for (gframe, info) in pages {
        if info.mode != GptPageMode::Nested || info.level == Level::leaf() {
            continue;
        }
        let Some(backing) = vmm.backing(*gframe) else {
            continue; // reported as UnbackedGuestTable
        };
        if !pick(backing) {
            continue;
        }
        let Some(page) = mem.table(backing) else {
            continue;
        };
        for (index, pte) in page.present_entries() {
            if pte.is_leaf_at(info.level) {
                continue;
            }
            let child = pte.frame_raw();
            let Some(mode) = page_info(pages, GuestFrame::new(child)).map(|i| i.mode) else {
                continue;
            };
            if mode != GptPageMode::Nested {
                let va = info.va_base + index as u64 * info.level.span_bytes();
                out.push(
                    LintDiag::new(
                        LintCode::ModePartition,
                        format!(
                            "guest table page {gframe} is nested but its child \
                             {child:#x} is {mode:?}: the walk path would switch back \
                             from nested to shadow"
                        ),
                    )
                    .pid(pid)
                    .gva(va)
                    .level(info.level),
                );
            }
        }
    }
}

/// TLB overlap pass: two entries of one address space covering the same
/// gVA must agree on the translation of the overlap.
///
/// With `since`, the TLB's stamps at a call whose entries all agreed, it
/// sweeps only the entries hit or inserted since then and the entries
/// overlapping them: every other pair was swept at that call.
fn check_tlb_aliases(tlb: &TlbHierarchy, since: Option<&TlbStamps>, out: &mut Vec<LintDiag>) {
    let mut entries = Vec::new();
    match since {
        None => tlb.for_each_entry(|entry| entries.push(entry)),
        Some(since) => {
            let mut touched = Vec::new();
            tlb.for_each_entry_touched_since(since, |entry| touched.push(entry));
            // A translation cached in two structures is probed once.
            touched.sort_unstable_by_key(|&(asid, va, e)| (asid.raw(), va.raw(), e.size));
            touched.dedup();
            for (asid, va, e) in touched {
                tlb.for_each_overlapping(asid, va.raw(), e.size.bytes(), |entry| {
                    entries.push(entry);
                });
            }
        }
    }
    // Sorted on every field, so the copies of a translation cached in two
    // structures sit together and `dedup` drops the repeats. Entries that
    // agree on (asid, gVA, size, frame) yield the same findings in either
    // order.
    entries.sort_unstable_by_key(|(asid, va, e)| {
        (
            asid.raw(),
            va.raw(),
            e.size,
            e.frame.raw(),
            e.writable,
            e.dirty,
        )
    });
    entries.dedup();
    let mut active: Vec<(u64, usize)> = Vec::new(); // (end, index into entries)
    for j in 0..entries.len() {
        let (asid_j, va_j, e_j) = &entries[j];
        let start_j = va_j.raw();
        active.retain(|(end, i)| *end > start_j && entries[*i].0 == *asid_j);
        for &(_, i) in &active {
            let (_, va_i, e_i) = &entries[i];
            // The overlap starts at the later of the two bases.
            let base_4k = start_j >> 12;
            let f_i = e_i.frame.add(base_4k - (va_i.raw() >> 12));
            let f_j = e_j.frame;
            if f_i != f_j {
                out.push(
                    LintDiag::new(
                        LintCode::HugeAliasConflict,
                        format!(
                            "TLB entries of sizes {} and {} overlap at {start_j:#x} but \
                             translate it to {f_i} vs {f_j}",
                            e_i.size.label(),
                            e_j.size.label(),
                        ),
                    )
                    .gva(start_j)
                    .frame(f_j),
                );
            }
        }
        active.push((start_j + e_j.size.bytes(), j));
    }
}

/// Runs the full Part A structural analysis (and, when a [`ShootdownLog`]
/// is provided, the Part B race detection) over a paused machine state.
///
/// Strictly read-only; diagnostics come back in canonical order.
#[must_use]
pub fn analyze(
    mem: &PhysMem,
    vmm: &Vmm,
    tlb: &TlbHierarchy,
    log: Option<&ShootdownLog>,
) -> LintReport {
    let mut out = structural(mem, vmm, tlb);
    if let Some(log) = log {
        out.extend(detect_shootdown_races(log));
    }
    LintReport::from_diags(out)
}

/// Part A of [`analyze`]: the ownership, shadow-table, mode-partition and
/// TLB-alias passes, unsorted. A call on an empty [`StructuralCache`]:
/// every pass visits everything.
pub(crate) fn structural(mem: &PhysMem, vmm: &Vmm, tlb: &TlbHierarchy) -> Vec<LintDiag> {
    StructuralCache::default().diags(mem, vmm, tlb)
}

/// Part A kept between calls, as [`crate::Machine::lint`] keeps it: after
/// a call whose Part A result was clean, the next call revisits only what
/// moved since.
///
/// It is keyed by the generations the state key relies on: each table
/// page's write counter with [`PhysMem`]'s loads, and the process states'
/// generations. Each written page's present entries are compared with
/// their copy from the last call, less the accessed bit, which no pass
/// reads; the TLB's LRU stamps name the entries hit or inserted since.
/// What a pass reads without a generation (the host-table root, each
/// process's roots, modes and guest table pages' levels and modes) is
/// compared by value. What moved decides what the passes visit, never
/// what they report:
///
/// - The ownership pass reruns only when a table page was allocated or
///   freed, a root or the process set moved, or a pointer (non-leaf)
///   entry changed. Otherwise the tables have the shape the last call
///   walked, so its visits still place every page.
/// - The shadow-table pass rechecks a process's changed shadow entries
///   and its leaves whose guest path reads a changed guest entry, or
///   whose guest leaf maps a gPA whose host entry changed; the
///   mode-partition pass rechecks the nested pages whose backing was
///   written. Both recheck a process whole when its modes or page
///   metadata moved.
/// - The TLB-alias pass sweeps the entries hit or inserted since and the
///   entries overlapping them.
///
/// The guest memory map is no key: while no table page is allocated or
/// freed it only backs fresh guest frames, and a clean call read no
/// fresh frame's backing (a missing backing on a checked path is a
/// finding). Every input an unvisited item reads is unchanged, and it was
/// clean at the last call, so it still is. An empty cache (the first
/// call, a call after a result that was not clean, a restore) visits
/// everything.
#[derive(Debug, Default)]
pub(crate) struct StructuralCache {
    /// Whether the memo describes the state at the last call, whose
    /// result was clean. The memo is empty when it does not.
    clean: bool,
    /// [`PhysMem::table_generation`] at the last call.
    tables: (u64, u64),
    /// Live table pages and table pages ever freed, at the last call:
    /// between snapshot loads both stand still only when no page was
    /// allocated or freed.
    live: (usize, u64),
    /// The host-table root at the last call.
    hptr: HostFrame,
    /// [`Vmm::process_changes`] at the last refresh of `procs`.
    process_changes: u64,
    /// What the passes read of each process, by pid.
    procs: Vec<ProcView>,
    /// Every live table page, in frame order.
    pages: Vec<PageMemo>,
    /// The ownership walks' visits of the last call, in walk order.
    visits: Vec<Visit>,
    /// The TLB's stamps at the last call.
    tlb: TlbStamps,
    /// How often each pass narrowed its visit.
    stats: StructuralStats,
}

/// How often a [`StructuralCache`] narrowed each pass's visit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StructuralStats {
    /// Calls on an empty cache.
    pub fresh: u64,
    /// Calls that skipped the ownership pass.
    pub ownership_skipped: u64,
    /// Calls whose shadow-table pass rechecked no process whole.
    pub shadow_narrowed: u64,
    /// Calls whose mode-partition pass rechecked no process whole.
    pub mode_narrowed: u64,
    /// Calls whose TLB-alias pass swept only the entries touched since
    /// and their overlaps.
    pub tlb_narrowed: u64,
}

/// What Part A reads of one process's paging state.
#[derive(Debug)]
struct ProcView {
    pid: ProcessId,
    /// The state's part generation when read.
    generation: u64,
    spt_root: Option<HostFrame>,
    gpt_root: Option<GuestFrame>,
    full_nested: bool,
    root_nested: bool,
    /// [`Vmm::gpt_pages`].
    pages: Vec<(GuestFrame, GptPageInfo)>,
    /// Whether the modes or page metadata moved at the last refresh.
    moved: bool,
}

impl ProcView {
    fn read(vmm: &Vmm, pid: ProcessId, generation: u64) -> Self {
        ProcView {
            pid,
            generation,
            spt_root: vmm.spt_root(pid),
            gpt_root: vmm.gpt_root(pid),
            full_nested: vmm.full_nested(pid),
            root_nested: vmm.root_nested(pid),
            pages: vmm.gpt_pages(pid),
            moved: true,
        }
    }

    /// Whether the passes read the same modes and page metadata in both
    /// (a page's write count and shadowed flag are not read).
    fn same_modes(&self, other: &ProcView) -> bool {
        let read = |(g, i): &(GuestFrame, GptPageInfo)| (*g, i.level, i.va_base, i.mode);
        (self.full_nested, self.root_nested) == (other.full_nested, other.root_nested)
            && self.pages.iter().map(read).eq(other.pages.iter().map(read))
    }
}

/// One live table page at the last call: its write counter, the levels
/// the ownership walks visited it at (bit `n` for level `n`), and its
/// [`read_entries`].
#[derive(Debug)]
struct PageMemo {
    frame: HostFrame,
    writes: u64,
    levels: u8,
    entries: Vec<(u16, u64)>,
}

/// An entry as the passes read it: raw, less the accessed bit.
fn read_bits(pte: Pte) -> u64 {
    pte.raw() & !PteFlags::ACCESSED.bits()
}

/// `page`'s present entries by index, each as [`read_bits`].
fn read_entries(page: &TablePage) -> impl Iterator<Item = (u16, u64)> + '_ {
    page.present_entries()
        .map(|(i, pte)| (i as u16, read_bits(pte)))
}

/// The entries of `page` whose [`read_entries`] value differs from
/// `before`, its value at an earlier call, and whether one of them is or
/// was a pointer (not a leaf) at one of `levels`. Brings `before` up to
/// date.
fn changed_entries(
    page: &TablePage,
    levels: u8,
    before: &mut Vec<(u16, u64)>,
) -> (EntryBits, bool) {
    let (mut changed, mut pointer) = (EntryBits::default(), false);
    let mut mark = |i: usize, raw: u64| {
        changed[i / 64] |= 1 << (i % 64);
        let pte = Pte::from_raw(raw);
        pointer |= Level::top()
            .walk_order()
            .any(|l| levels & (1 << l.number()) != 0 && !pte.is_leaf_at(l));
    };
    // Both sides are in index order: one merge.
    let mut old = before
        .iter()
        .map(|&(i, raw)| (usize::from(i), raw))
        .peekable();
    for (i, pte) in page.present_entries() {
        while let Some((j, raw)) = old.next_if(|&(j, _)| j < i) {
            mark(j, raw);
        }
        let now = read_bits(pte);
        match old.next_if(|&(j, _)| j == i) {
            Some((_, raw)) if raw == now => {}
            Some((_, raw)) => {
                mark(i, raw);
                mark(i, now);
            }
            None => mark(i, now),
        }
    }
    old.for_each(|(j, raw)| mark(j, raw));
    if changed != EntryBits::default() {
        before.clear();
        before.extend(read_entries(page));
    }
    (changed, pointer)
}

/// What moved since a [`StructuralCache`]'s last call, while the tables
/// kept their shape.
#[derive(Debug, Default)]
struct Moved {
    /// The table pages with changed entries, in frame order, with the
    /// changed entries' indices.
    pages: Vec<(HostFrame, EntryBits)>,
}

impl Moved {
    /// The changed entries of the page at `frame`, if any.
    fn entries(&self, frame: HostFrame) -> Option<EntryBits> {
        let at = self.pages.binary_search_by_key(&frame, |&(f, _)| f).ok()?;
        Some(self.pages[at].1)
    }

    /// The address ranges of the changed entries of the pages `visits`
    /// place in `tree`.
    fn ranges(&self, visits: &[Visit], tree: Tree) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for visit in visits.iter().filter(|v| v.tree == tree) {
            let Some(entries) = self.entries(visit.frame) else {
                continue;
            };
            let span = visit.level.span_bytes();
            out.extend(entry_indices(entries).map(|i| {
                let start = visit.base + i as u64 * span;
                (start, start + span)
            }));
        }
        out
    }
}

/// Appends the gVA ranges of `pid`'s guest leaves, in the guest table
/// pages its walk visited, that map part of one of the gPA ranges `gpas`.
/// A shadow leaf's reference translation reads the host entries of the
/// gPAs its guest leaf maps, so the leaves whose reads changed lie in
/// them.
fn guest_leaves_over(
    mem: &PhysMem,
    visits: &[Visit],
    pid: ProcessId,
    gpas: &[(u64, u64)],
    out: &mut Vec<(u64, u64)>,
) {
    for visit in visits.iter().filter(|v| v.tree == Tree::Guest(pid)) {
        let page = mem
            .table(visit.frame)
            .expect("visited table pages are live");
        let span = visit.level.span_bytes();
        for (index, pte) in page.present_entries() {
            if !pte.is_leaf_at(visit.level) {
                continue;
            }
            let gpa = GuestFrame::new(pte.frame_raw()).base().raw();
            if gpas
                .iter()
                .any(|&(start, end)| start < gpa + span && gpa < end)
            {
                let va = visit.base + index as u64 * span;
                out.push((va, va + span));
            }
        }
    }
}

impl StructuralCache {
    /// Part A over the paused state, revisiting only what moved since the
    /// last call when its result was clean: the diagnostics of
    /// [`structural`], unsorted, in the same order.
    pub(crate) fn diags(&mut self, mem: &PhysMem, vmm: &Vmm, tlb: &TlbHierarchy) -> Vec<LintDiag> {
        let was_clean = self.clean;
        self.stats.fresh += u64::from(!was_clean);
        let mut out = Vec::new();
        let roots_moved = self.refresh_procs(vmm);
        let moved = if roots_moved {
            None
        } else {
            self.moved(mem, vmm)
        };
        let (visits, intact) = match moved {
            Some(_) => {
                self.stats.ownership_skipped += 1;
                (std::mem::take(&mut self.visits), true)
            }
            None => {
                let mut visits = Vec::new();
                let intact = check_frame_ownership(mem, vmm, &mut visits, &mut out);
                (visits, intact)
            }
        };
        let host = moved
            .as_ref()
            .map(|m| m.ranges(&visits, Tree::Host))
            .unwrap_or_default();
        let (mut shadow_narrowed, mut mode_narrowed) = (moved.is_some(), moved.is_some());
        // Per process; the two passes emit disjoint codes, so interleaving
        // them by process leaves the canonical order unchanged.
        for proc in &self.procs {
            let pid = proc.pid;
            let Some(moved) = moved.as_ref().filter(|_| !proc.moved) else {
                (shadow_narrowed, mode_narrowed) = (false, false);
                let all = |_: &Visit| Pick::All;
                check_shadow_tables(mem, vmm, proc, intact, &visits, &all, &mut out);
                check_mode_partition(mem, vmm, proc, &|_| true, &mut out);
                continue;
            };
            if moved.pages.is_empty() {
                continue;
            }
            // The leaves whose guest path reads a changed guest entry, or
            // whose guest leaf maps a gPA whose host entry changed.
            let mut leaves = moved.ranges(&visits, Tree::Guest(pid));
            if !host.is_empty() {
                guest_leaves_over(mem, &visits, pid, &host, &mut leaves);
            }
            let pick = |v: &Visit| {
                let entries = moved.entries(v.frame).unwrap_or_default();
                let (start, end) = v.range();
                if entries != EntryBits::default()
                    || leaves.iter().any(|&(s, e)| s < end && start < e)
                {
                    Pick::Some(entries, &leaves)
                } else {
                    Pick::Skip
                }
            };
            check_shadow_tables(mem, vmm, proc, intact, &visits, &pick, &mut out);
            let written = |backing| moved.entries(backing).is_some();
            check_mode_partition(mem, vmm, proc, &written, &mut out);
        }
        self.stats.shadow_narrowed += u64::from(shadow_narrowed);
        self.stats.mode_narrowed += u64::from(mode_narrowed);
        self.stats.tlb_narrowed += u64::from(was_clean);
        check_tlb_aliases(tlb, was_clean.then_some(&self.tlb), &mut out);
        if !out.is_empty() {
            *self = StructuralCache {
                stats: self.stats,
                ..StructuralCache::default()
            };
            return out;
        }
        if moved.is_none() {
            self.pages = page_memos(mem, &visits);
        }
        self.visits = visits;
        self.clean = true;
        self.tables = mem.table_generation();
        self.live = (mem.table_page_count(), mem.freed_table_page_count());
        self.hptr = vmm.hptr();
        self.tlb = tlb.stamps();
        out
    }

    /// How often each pass narrowed its visit so far.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> StructuralStats {
        self.stats
    }

    /// Brings `procs` up to date, re-reading the processes whose part
    /// generation moved and marking those whose modes or page metadata
    /// moved. Returns whether the memo was empty, or the process set or a
    /// root moved.
    fn refresh_procs(&mut self, vmm: &Vmm) -> bool {
        let changes = vmm.process_changes();
        if self.clean && changes == self.process_changes {
            self.procs.iter_mut().for_each(|p| p.moved = false);
            return false;
        }
        self.process_changes = changes;
        let mut old = std::mem::take(&mut self.procs).into_iter();
        let mut roots_moved = !self.clean;
        for (pid, generation) in vmm.process_generations() {
            let view = match old.next() {
                Some(mut view) if view.pid == pid && view.generation == generation => {
                    view.moved = false;
                    view
                }
                Some(view) if view.pid == pid => {
                    let mut fresh = ProcView::read(vmm, pid, generation);
                    roots_moved |=
                        (fresh.spt_root, fresh.gpt_root) != (view.spt_root, view.gpt_root);
                    fresh.moved = !fresh.same_modes(&view);
                    fresh
                }
                _ => {
                    roots_moved = true;
                    ProcView::read(vmm, pid, generation)
                }
            };
            self.procs.push(view);
        }
        roots_moved | old.next().is_some()
    }

    /// What moved since the last call, when no page was allocated or
    /// freed, the host-table root stood still, and no pointer entry
    /// changed. `None` (visit everything) otherwise.
    fn moved(&mut self, mem: &PhysMem, vmm: &Vmm) -> Option<Moved> {
        let tables = mem.table_generation();
        let live = (mem.table_page_count(), mem.freed_table_page_count());
        if !self.clean || tables.1 != self.tables.1 || live != self.live || vmm.hptr() != self.hptr
        {
            return None;
        }
        let mut moved = Moved::default();
        if tables == self.tables {
            return Some(moved);
        }
        for memo in &mut self.pages {
            let page = mem
                .table(memo.frame)
                .expect("no table page was allocated or freed");
            if page.writes() == memo.writes {
                continue;
            }
            memo.writes = page.writes();
            let (entries, pointer) = changed_entries(page, memo.levels, &mut memo.entries);
            if pointer {
                return None;
            }
            if entries != EntryBits::default() {
                moved.pages.push((memo.frame, entries));
            }
        }
        Some(moved)
    }
}

/// A [`PageMemo`] of every live table page, from the ownership walks'
/// `visits`.
fn page_memos(mem: &PhysMem, visits: &[Visit]) -> Vec<PageMemo> {
    let mut levels: Vec<(HostFrame, u8)> = visits
        .iter()
        .map(|v| (v.frame, 1 << v.level.number()))
        .collect();
    levels.sort_unstable();
    let mut levels = levels.into_iter().peekable();
    mem.table_pages()
        .map(|(frame, page)| {
            let mut mask = 0;
            while let Some((_, level)) = levels.next_if(|&(f, _)| f == frame) {
                mask |= level;
            }
            PageMemo {
                frame,
                writes: page.writes(),
                levels: mask,
                entries: read_entries(page).collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Host scope: shared-pool frame accounting across VMs
// ---------------------------------------------------------------------

/// One VM's frame-accounting snapshot as the host sees it, the input to
/// [`check_host_frames`]. Live VMs are snapshotted directly from their
/// machines; torn-down VMs from the state captured at teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmFrameView {
    /// Which VM this view describes.
    pub vm: VmId,
    /// First frame number of the VM's span (reserved, never allocated).
    pub frame_base: u64,
    /// Frames the VM's allocator has handed out, span-relative (its
    /// extent is `[frame_base + 1, frame_base + frames_allocated]`).
    pub frames_allocated: u64,
    /// Frames currently charged against the VM's budget.
    pub frames_charged: u64,
    /// The VM's lease on the shared pool.
    pub lease: u64,
    /// Frames the guest's balloon has surrendered to the host, cumulative.
    pub ballooned: u64,
    /// Frames the pool records as surrendered by this VM, cumulative.
    pub pool_surrendered: u64,
    /// Whether the VM has been torn down.
    pub torn_down: bool,
}

/// Host-scope lint: no frame owned by two VMs (span overlap or a lease
/// overrun), no VM holding leased frames after teardown, and every
/// balloon-surrendered frame actually returned to the pool. Pure and
/// deterministic; diagnostics come back unsorted (the caller merges them
/// into a [`LintReport`]).
#[must_use]
pub fn check_host_frames(views: &[VmFrameView]) -> Vec<LintDiag> {
    let mut out = Vec::new();
    let mut sorted: Vec<&VmFrameView> = views.iter().collect();
    sorted.sort_by_key(|v| v.frame_base);
    for pair in sorted.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let lo_end = lo.frame_base + lo.frames_allocated;
        if lo_end > hi.frame_base {
            out.push(
                LintDiag::new(
                    LintCode::CrossVmFrameAlias,
                    format!(
                        "frame extent of vm {} (through {}) overlaps the span of vm {} \
                         (from {})",
                        lo.vm.raw(),
                        lo_end,
                        hi.vm.raw(),
                        hi.frame_base
                    ),
                )
                .vm(lo.vm)
                .frame(HostFrame::new(hi.frame_base)),
            );
        }
    }
    for v in views {
        // Lease enforcement concerns live VMs; a torn-down VM's charge
        // snapshot is historical (its leak check is the lease itself).
        if !v.torn_down && v.frames_charged > v.lease {
            out.push(
                LintDiag::new(
                    LintCode::CrossVmFrameAlias,
                    format!(
                        "vm {} holds {} frames against a lease of {} — the excess is \
                         capacity another VM also counts as its own",
                        v.vm.raw(),
                        v.frames_charged,
                        v.lease
                    ),
                )
                .vm(v.vm),
            );
        }
        if v.torn_down && v.lease > 0 {
            out.push(
                LintDiag::new(
                    LintCode::TeardownFrameLeak,
                    format!(
                        "vm {} was torn down but still leases {} frames",
                        v.vm.raw(),
                        v.lease
                    ),
                )
                .vm(v.vm),
            );
        }
        if v.ballooned != v.pool_surrendered {
            out.push(
                LintDiag::new(
                    LintCode::BalloonNotReturned,
                    format!(
                        "vm {} ballooned {} frames but the pool recorded {}",
                        v.vm.raw(),
                        v.ballooned,
                        v.pool_surrendered
                    ),
                )
                .vm(v.vm),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// Part B: shootdown-protocol race detector
// ---------------------------------------------------------------------

agile_types::record! {
    /// The gVA-space scope one flush request covers, for happens-before
    /// matching. An `Asid` request covers the whole address space.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FlushScope {
        /// Raw ASID the flush is tagged with.
        pub asid: u32,
        /// First covered gVA.
        pub start: u64,
        /// Covered length in bytes (`u64::MAX` for a full-ASID flush).
        pub len: u64,
    }
}

impl FlushScope {
    /// The scope covering everything tagged with `asid`.
    #[must_use]
    pub fn asid_full(asid: u32) -> Self {
        FlushScope {
            asid,
            start: 0,
            len: u64::MAX,
        }
    }

    /// Scope of one [`FlushRequest`] (`None` for nested-TLB frame
    /// invalidations, which are synchronous and never raced).
    #[must_use]
    pub fn of_request(req: &FlushRequest) -> Option<FlushScope> {
        match *req {
            FlushRequest::Asid(asid) => Some(FlushScope::asid_full(asid.raw())),
            FlushRequest::Range { asid, start, len } => Some(FlushScope {
                asid: asid.raw(),
                start,
                len,
            }),
            FlushRequest::NtlbFrame(_) => None,
        }
    }

    fn end(&self) -> u64 {
        self.start.saturating_add(self.len)
    }

    /// True when an applied flush of scope `self` subsumes pending scope
    /// `other` (same address space, fully covered range).
    #[must_use]
    pub fn covers(&self, other: &FlushScope) -> bool {
        self.asid == other.asid && self.start <= other.start && self.end() >= other.end()
    }
}

/// One event of the shootdown protocol, in machine order. `access` is the
/// data-access index at which the event happened; `batch` groups the flush
/// requests drained together with the table frees of the same VMM
/// operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShootdownEvent {
    /// The VMM emitted a flush request (canonical drain order).
    Requested {
        /// Access index.
        access: u64,
        /// Drain batch the request belongs to.
        batch: u64,
        /// What it covers.
        scope: FlushScope,
    },
    /// A flush was applied to the caching structures.
    Applied {
        /// Access index.
        access: u64,
        /// What was flushed.
        scope: FlushScope,
    },
    /// The chaos dice dropped a flush.
    Dropped {
        /// Access index.
        access: u64,
        /// Drain batch the request belonged to.
        batch: u64,
        /// What should have been flushed.
        scope: FlushScope,
    },
    /// The chaos dice deferred a flush (it applies later as `Applied`).
    Deferred {
        /// Access index.
        access: u64,
        /// Drain batch the request belonged to.
        batch: u64,
        /// Access index at which delivery is due.
        due: u64,
        /// What it covers.
        scope: FlushScope,
    },
    /// A page-table page was freed by the VMM operation of `batch`.
    FrameFreed {
        /// Access index.
        access: u64,
        /// Drain batch whose flushes cover the free.
        batch: u64,
        /// The freed frame.
        frame: HostFrame,
    },
    /// The allocator handed out new frames (first new frame named),
    /// consuming capacity that table frees credited back.
    FrameReused {
        /// Access index.
        access: u64,
        /// First frame allocated since the last observation.
        frame: HostFrame,
    },
}

impl Persist for ShootdownEvent {
    fn save(&self, e: &mut Enc) {
        match *self {
            ShootdownEvent::Requested {
                access,
                batch,
                scope,
            } => {
                e.u8(0);
                e.u64(access);
                e.u64(batch);
                scope.save(e);
            }
            ShootdownEvent::Applied { access, scope } => {
                e.u8(1);
                e.u64(access);
                scope.save(e);
            }
            ShootdownEvent::Dropped {
                access,
                batch,
                scope,
            } => {
                e.u8(2);
                e.u64(access);
                e.u64(batch);
                scope.save(e);
            }
            ShootdownEvent::Deferred {
                access,
                batch,
                due,
                scope,
            } => {
                e.u8(3);
                e.u64(access);
                e.u64(batch);
                e.u64(due);
                scope.save(e);
            }
            ShootdownEvent::FrameFreed {
                access,
                batch,
                frame,
            } => {
                e.u8(4);
                e.u64(access);
                e.u64(batch);
                frame.save(e);
            }
            ShootdownEvent::FrameReused { access, frame } => {
                e.u8(5);
                e.u64(access);
                frame.save(e);
            }
        }
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        let tag = d.u8()?;
        Ok(match tag {
            0 => ShootdownEvent::Requested {
                access: d.u64()?,
                batch: d.u64()?,
                scope: FlushScope::load(d)?,
            },
            1 => ShootdownEvent::Applied {
                access: d.u64()?,
                scope: FlushScope::load(d)?,
            },
            2 => ShootdownEvent::Dropped {
                access: d.u64()?,
                batch: d.u64()?,
                scope: FlushScope::load(d)?,
            },
            3 => ShootdownEvent::Deferred {
                access: d.u64()?,
                batch: d.u64()?,
                due: d.u64()?,
                scope: FlushScope::load(d)?,
            },
            4 => ShootdownEvent::FrameFreed {
                access: d.u64()?,
                batch: d.u64()?,
                frame: HostFrame::load(d)?,
            },
            5 => ShootdownEvent::FrameReused {
                access: d.u64()?,
                frame: HostFrame::load(d)?,
            },
            _ => return d.fail("unknown ShootdownEvent variant tag"),
        })
    }
}

impl Persist for ShootdownLog {
    fn save(&self, e: &mut Enc) {
        self.save_to(e);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(ShootdownLog {
            events: Vec::load(d)?,
            truncated: d.u64()?,
        })
    }
}

/// Cap on recorded protocol events; a truncated log is reported by the
/// detector so an analysis can never silently claim full coverage.
pub const MAX_SHOOTDOWN_EVENTS: usize = 65_536;

/// The machine's recorded shootdown protocol: an ordered event sequence
/// fed to [`detect_shootdown_races`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShootdownLog {
    /// Events in machine order.
    pub events: Vec<ShootdownEvent>,
    /// Events dropped after [`MAX_SHOOTDOWN_EVENTS`] was reached.
    pub truncated: u64,
}

impl ShootdownLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        ShootdownLog::default()
    }

    /// Appends an event, respecting the size cap.
    pub fn push(&mut self, event: ShootdownEvent) {
        if self.events.len() >= MAX_SHOOTDOWN_EVENTS {
            self.truncated += 1;
        } else {
            self.events.push(event);
        }
    }

    /// [`Persist::save`] through a [`StateSink`]: the events are an
    /// append-only sequence, so a hashing sink folds only the new ones.
    pub(crate) fn save_to<S: StateSink>(&self, s: &mut S) {
        s.enc().seq(self.events.len());
        s.append_only(self.events.len(), |i, e| self.events[i].save(e));
        s.enc().u64(self.truncated);
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Lockset-style happens-before pass over a [`ShootdownLog`].
///
/// A *window* opens when a drain batch both freed table frames and had
/// flushes dropped or deferred: until every such scope is subsumed by a
/// later `Applied` flush, translation-caching structures may still hold
/// pointers into the freed frames. If the allocator hands out new frames
/// while a window is open, the freed frame's capacity was reused before
/// the shootdown protocol finished — [`LintCode::MissedShootdownReuse`].
/// Windows still open at the end of the log (no reuse observed) are
/// reported as [`LintCode::ShootdownNeverApplied`].
///
/// The pass is a fold over the events in order, here from an empty
/// state; [`crate::Machine::lint`] keeps its fold between calls and feeds
/// it only the events logged since.
#[must_use]
pub fn detect_shootdown_races(log: &ShootdownLog) -> Vec<LintDiag> {
    RaceFold::default().diags(log)
}

/// [`detect_shootdown_races`] as a fold that a growing log can resume:
/// the events folded so far, the batches they opened, the frames whose
/// reuse already fired, and the reuse diagnostics found so far. A log
/// shorter than the cursor is not the one folded, so the fold starts over.
#[derive(Debug, Clone, Default)]
pub(crate) struct RaceFold {
    /// Events folded so far.
    cursor: usize,
    batches: BTreeMap<u64, Batch>,
    /// Freed frames whose reuse was reported.
    fired: HashSet<u64>,
    /// The [`LintCode::MissedShootdownReuse`] diagnostics so far, in
    /// event order.
    reused: Vec<LintDiag>,
}

/// One drain batch's undelivered scopes and freed frames.
#[derive(Debug, Clone, Default)]
struct Batch {
    pending: Vec<FlushScope>,
    freed: Vec<(HostFrame, u64)>,
}

impl RaceFold {
    /// The race diagnostics of `log`, folding only the events past the
    /// cursor.
    pub(crate) fn diags(&mut self, log: &ShootdownLog) -> Vec<LintDiag> {
        if log.events.len() < self.cursor {
            *self = RaceFold::default();
        }
        for event in &log.events[self.cursor..] {
            self.step(event);
        }
        self.cursor = log.events.len();
        let mut out = self.reused.clone();
        for (id, batch) in &self.batches {
            if batch.pending.is_empty() {
                continue;
            }
            for (freed, freed_at) in &batch.freed {
                if self.fired.contains(&freed.raw()) {
                    continue;
                }
                out.push(
                    LintDiag::new(
                        LintCode::ShootdownNeverApplied,
                        format!(
                            "table frame freed at access {freed_at} (batch {id}); its covering \
                             shootdown was still undelivered at pause"
                        ),
                    )
                    .frame(*freed),
                );
            }
        }
        if log.truncated > 0 {
            out.push(LintDiag::new(
                LintCode::ShootdownNeverApplied,
                format!(
                    "shootdown event log truncated ({} events dropped): race analysis is \
                     incomplete",
                    log.truncated
                ),
            ));
        }
        out
    }

    fn step(&mut self, event: &ShootdownEvent) {
        match event {
            ShootdownEvent::Requested { .. } => {}
            ShootdownEvent::Dropped { batch, scope, .. }
            | ShootdownEvent::Deferred { batch, scope, .. } => {
                self.batches.entry(*batch).or_default().pending.push(*scope);
            }
            ShootdownEvent::FrameFreed {
                batch,
                frame,
                access,
            } => {
                self.batches
                    .entry(*batch)
                    .or_default()
                    .freed
                    .push((*frame, *access));
            }
            ShootdownEvent::Applied { scope, .. } => {
                for batch in self.batches.values_mut() {
                    batch.pending.retain(|p| !scope.covers(p));
                }
            }
            ShootdownEvent::FrameReused { access, frame } => {
                for (id, batch) in &self.batches {
                    if batch.pending.is_empty() {
                        continue;
                    }
                    for (freed, freed_at) in &batch.freed {
                        if !self.fired.insert(freed.raw()) {
                            continue;
                        }
                        self.reused.push(
                            LintDiag::new(
                                LintCode::MissedShootdownReuse,
                                format!(
                                    "table frame freed at access {freed_at} (batch {id}) was \
                                     reused (allocation {frame} at access {access}) before its \
                                     covering shootdown applied ({} scope(s) outstanding)",
                                    batch.pending.len()
                                ),
                            )
                            .frame(*freed),
                        );
                    }
                }
            }
        }
    }
}

/// One VM's recorded shootdown protocol plus the frame span it owns on the
/// shared pool, the input to [`detect_host_shootdown_races`]. Live VMs are
/// viewed directly through [`crate::Machine::shootdown_log`]; torn-down
/// VMs through the log the host harvested at teardown.
#[derive(Debug, Clone, Copy)]
pub struct VmShootdownView<'a> {
    /// Which VM recorded the log.
    pub vm: VmId,
    /// First frame number of the VM's span (frames `[frame_base,
    /// frame_base + frame_span)` belong to this VM).
    pub frame_base: u64,
    /// Length of the VM's frame span.
    pub frame_span: u64,
    /// The VM's recorded shootdown protocol.
    pub log: &'a ShootdownLog,
}

/// Host-scope extension of [`detect_shootdown_races`]: the per-VM
/// happens-before pass over every log (diagnostics tagged with their VM),
/// plus a cross-VM ownership check no single machine can make — a
/// `FrameFreed`/`FrameReused` event naming a frame outside the recording
/// VM's span means one VM's shootdown protocol operated on table memory
/// the host leased to another VM ([`LintCode::CrossVmFrameAlias`]).
///
/// Pure and deterministic; diagnostics come back unsorted (the caller
/// merges them into a [`LintReport`]).
#[must_use]
pub fn detect_host_shootdown_races(views: &[VmShootdownView<'_>]) -> Vec<LintDiag> {
    let mut out = Vec::new();
    for view in views {
        for d in detect_shootdown_races(view.log) {
            out.push(d.vm(view.vm));
        }
        let end = view.frame_base.saturating_add(view.frame_span);
        let mut flagged: HashSet<u64> = HashSet::new();
        for event in &view.log.events {
            let (frame, what) = match event {
                ShootdownEvent::FrameFreed { frame, .. } => (*frame, "freed"),
                ShootdownEvent::FrameReused { frame, .. } => (*frame, "allocated"),
                _ => continue,
            };
            if (view.frame_base..end).contains(&frame.raw()) || !flagged.insert(frame.raw()) {
                continue;
            }
            let owner = views
                .iter()
                .find(|v| {
                    (v.frame_base..v.frame_base.saturating_add(v.frame_span)).contains(&frame.raw())
                })
                .map_or("no VM's span".to_string(), |v| format!("vm {}", v.vm.raw()));
            out.push(
                LintDiag::new(
                    LintCode::CrossVmFrameAlias,
                    format!(
                        "vm {}'s shootdown protocol {what} table frame {frame}, which lies in \
                         {owner}",
                        view.vm.raw()
                    ),
                )
                .vm(view.vm)
                .frame(frame),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(asid: u32, start: u64, len: u64) -> FlushScope {
        FlushScope { asid, start, len }
    }

    fn view(vm: u32) -> VmFrameView {
        VmFrameView {
            vm: VmId::new(vm),
            frame_base: u64::from(vm) * agile_mem::VM_FRAME_SPAN,
            frames_allocated: 100,
            frames_charged: 100,
            lease: 128,
            ballooned: 0,
            pool_surrendered: 0,
            torn_down: false,
        }
    }

    #[test]
    fn clean_host_views_produce_no_diagnostics() {
        let views = [view(0), view(1), view(2)];
        assert!(check_host_frames(&views).is_empty());
    }

    #[test]
    fn overlapping_extents_alias_frames() {
        let mut a = view(0);
        a.frames_allocated = agile_mem::VM_FRAME_SPAN + 5;
        let diags = check_host_frames(&[a, view(1)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::CrossVmFrameAlias);
        assert_eq!(diags[0].vm, Some(VmId::new(0)));
    }

    #[test]
    fn lease_overrun_is_a_cross_vm_alias() {
        let mut a = view(1);
        a.frames_charged = a.lease + 7;
        let diags = check_host_frames(&[view(0), a]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::CrossVmFrameAlias);
        assert_eq!(diags[0].vm, Some(VmId::new(1)));
    }

    #[test]
    fn teardown_leak_and_balloon_loss_are_reported() {
        let mut a = view(0);
        a.torn_down = true;
        a.lease = 9;
        let mut b = view(1);
        b.ballooned = 20;
        b.pool_surrendered = 15;
        let report = LintReport::from_diags(check_host_frames(&[a, b]));
        let codes: Vec<LintCode> = report.diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![LintCode::TeardownFrameLeak, LintCode::BalloonNotReturned]
        );
        let rendered = report.render();
        assert!(rendered.contains("vm=0"), "vm tag rendered: {rendered}");
    }

    #[test]
    fn torn_down_vm_with_zero_lease_is_clean() {
        let mut a = view(2);
        a.torn_down = true;
        a.lease = 0;
        assert!(check_host_frames(&[a]).is_empty());
    }

    #[test]
    fn scope_covering_rules() {
        let full = FlushScope::asid_full(1);
        let range = scope(1, 0x1000, 0x2000);
        assert!(full.covers(&range));
        assert!(full.covers(&full));
        assert!(!range.covers(&full));
        assert!(!scope(2, 0, u64::MAX).covers(&range), "different asid");
        assert!(scope(1, 0x1000, 0x2000).covers(&scope(1, 0x1800, 0x800)));
        assert!(!scope(1, 0x1000, 0x2000).covers(&scope(1, 0x2800, 0x1000)));
    }

    #[test]
    fn dropped_free_reuse_is_a_race() {
        let mut log = ShootdownLog::new();
        log.push(ShootdownEvent::Dropped {
            access: 10,
            batch: 0,
            scope: scope(1, 0x1000, 0x1000),
        });
        log.push(ShootdownEvent::FrameFreed {
            access: 10,
            batch: 0,
            frame: HostFrame::new(7),
        });
        log.push(ShootdownEvent::FrameReused {
            access: 12,
            frame: HostFrame::new(9),
        });
        let diags = detect_shootdown_races(&log);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::MissedShootdownReuse);
        assert_eq!(diags[0].frame, Some(HostFrame::new(7)));
    }

    #[test]
    fn a_shorter_log_restarts_the_race_fold() {
        let mut log = ShootdownLog::new();
        log.push(ShootdownEvent::Dropped {
            access: 10,
            batch: 0,
            scope: scope(1, 0x1000, 0x1000),
        });
        log.push(ShootdownEvent::FrameFreed {
            access: 10,
            batch: 0,
            frame: HostFrame::new(7),
        });
        let restored = log.clone();
        log.push(ShootdownEvent::FrameReused {
            access: 12,
            frame: HostFrame::new(9),
        });
        let mut fold = RaceFold::default();
        assert_eq!(fold.diags(&log), detect_shootdown_races(&log));
        assert_eq!(fold.diags(&log)[0].code, LintCode::MissedShootdownReuse);
        // A restore to before the reuse: the window is open, not raced.
        let diags = fold.diags(&restored);
        assert_eq!(diags, detect_shootdown_races(&restored));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::ShootdownNeverApplied);
        // Growing again folds only the new event.
        assert_eq!(fold.diags(&log), detect_shootdown_races(&log));
    }

    #[test]
    fn applied_before_reuse_closes_the_window() {
        let mut log = ShootdownLog::new();
        log.push(ShootdownEvent::Dropped {
            access: 10,
            batch: 0,
            scope: scope(1, 0x1000, 0x1000),
        });
        log.push(ShootdownEvent::FrameFreed {
            access: 10,
            batch: 0,
            frame: HostFrame::new(7),
        });
        // A later full-ASID flush (e.g. a heal) subsumes the dropped range.
        log.push(ShootdownEvent::Applied {
            access: 11,
            scope: FlushScope::asid_full(1),
        });
        log.push(ShootdownEvent::FrameReused {
            access: 12,
            frame: HostFrame::new(9),
        });
        assert!(detect_shootdown_races(&log).is_empty());
    }

    #[test]
    fn open_window_without_reuse_is_a_warning() {
        let mut log = ShootdownLog::new();
        log.push(ShootdownEvent::Deferred {
            access: 10,
            batch: 3,
            due: 90,
            scope: scope(1, 0, 0x1000),
        });
        log.push(ShootdownEvent::FrameFreed {
            access: 10,
            batch: 3,
            frame: HostFrame::new(4),
        });
        let diags = detect_shootdown_races(&log);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::ShootdownNeverApplied);
        assert_eq!(diags[0].severity, LintSeverity::Warning);
    }

    #[test]
    fn host_scope_tags_per_vm_races_and_catches_cross_vm_frames() {
        let span = agile_mem::VM_FRAME_SPAN;
        // vm 0: an in-span race (dropped flush, free, reuse) — must come
        // back tagged vm=0. vm 1: protocol clean, but its log frees a
        // frame inside vm 0's span — the cross-VM check must flag it.
        let mut log0 = ShootdownLog::new();
        log0.push(ShootdownEvent::Dropped {
            access: 10,
            batch: 0,
            scope: scope(1, 0x1000, 0x1000),
        });
        log0.push(ShootdownEvent::FrameFreed {
            access: 10,
            batch: 0,
            frame: HostFrame::new(7),
        });
        log0.push(ShootdownEvent::FrameReused {
            access: 12,
            frame: HostFrame::new(9),
        });
        let mut log1 = ShootdownLog::new();
        log1.push(ShootdownEvent::Requested {
            access: 20,
            batch: 0,
            scope: scope(2, 0, 0x1000),
        });
        log1.push(ShootdownEvent::Applied {
            access: 20,
            scope: scope(2, 0, 0x1000),
        });
        log1.push(ShootdownEvent::FrameFreed {
            access: 21,
            batch: 1,
            frame: HostFrame::new(7), // vm 0's span
        });
        let views = [
            VmShootdownView {
                vm: VmId::new(0),
                frame_base: 0,
                frame_span: span,
                log: &log0,
            },
            VmShootdownView {
                vm: VmId::new(1),
                frame_base: span,
                frame_span: span,
                log: &log1,
            },
        ];
        let report = LintReport::from_diags(detect_host_shootdown_races(&views));
        assert_eq!(report.count(LintCode::MissedShootdownReuse), 1);
        assert_eq!(report.count(LintCode::CrossVmFrameAlias), 1);
        let race = report
            .diags
            .iter()
            .find(|d| d.code == LintCode::MissedShootdownReuse)
            .expect("per-vm race survives at host scope");
        assert_eq!(race.vm, Some(VmId::new(0)));
        let alias = report
            .diags
            .iter()
            .find(|d| d.code == LintCode::CrossVmFrameAlias)
            .expect("out-of-span frame is a cross-vm alias");
        assert_eq!(alias.vm, Some(VmId::new(1)));
        assert_eq!(alias.frame, Some(HostFrame::new(7)));
        assert!(alias.detail.contains("vm 0"), "names the owner: {alias}");
    }

    #[test]
    fn host_scope_is_quiet_on_clean_in_span_logs() {
        let span = agile_mem::VM_FRAME_SPAN;
        let mut log = ShootdownLog::new();
        log.push(ShootdownEvent::Requested {
            access: 5,
            batch: 0,
            scope: scope(1, 0, 0x1000),
        });
        log.push(ShootdownEvent::Applied {
            access: 5,
            scope: scope(1, 0, 0x1000),
        });
        log.push(ShootdownEvent::FrameFreed {
            access: 5,
            batch: 0,
            frame: HostFrame::new(span + 3),
        });
        log.push(ShootdownEvent::FrameReused {
            access: 6,
            frame: HostFrame::new(span + 4),
        });
        let views = [VmShootdownView {
            vm: VmId::new(1),
            frame_base: span,
            frame_span: span,
            log: &log,
        }];
        assert!(detect_host_shootdown_races(&views).is_empty());
    }

    #[test]
    fn truncation_is_always_visible() {
        let mut log = ShootdownLog::new();
        for _ in 0..MAX_SHOOTDOWN_EVENTS + 5 {
            log.push(ShootdownEvent::FrameReused {
                access: 1,
                frame: HostFrame::new(1),
            });
        }
        assert_eq!(log.truncated, 5);
        let diags = detect_shootdown_races(&log);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].detail.contains("truncated"));
    }

    #[test]
    fn report_orders_and_renders_deterministically() {
        let a = LintDiag::new(LintCode::OrphanFrame, "z".into()).frame(HostFrame::new(9));
        let b = LintDiag::new(LintCode::OrphanFrame, "a".into()).frame(HostFrame::new(2));
        let r1 = LintReport::from_diags(vec![a.clone(), b.clone()]);
        let r2 = LintReport::from_diags(vec![b, a]);
        assert_eq!(r1, r2);
        assert_eq!(r1.render(), r2.render());
        assert_eq!(r1.to_json().render(), r2.to_json().render());
        assert!(r1.has_errors());
        assert_eq!(r1.count(LintCode::OrphanFrame), 2);
    }

    #[test]
    fn every_code_has_distinct_label_and_severity() {
        let labels: HashSet<&str> = LintCode::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), LintCode::ALL.len());
        assert_eq!(
            LintCode::ShootdownNeverApplied.severity(),
            LintSeverity::Warning
        );
        assert_eq!(LintCode::OrphanFrame.severity(), LintSeverity::Error);
    }
}
