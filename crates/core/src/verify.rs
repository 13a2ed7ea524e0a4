//! The paranoia layer: differential oracles auditing the simulator as it
//! runs.
//!
//! The paper's central claims are exact *counts* — Table II's 4/8/…/24
//! memory references per switch level — so a silent off-by-one in the
//! walker, a stale TLB entry surviving an unmap, or a miscounted stat
//! invalidates downstream figures without failing a test. This module
//! cross-checks the fast paths against independent oracles:
//!
//! 1. **Reference translator** ([`reference_translate`]): recomputes
//!    gVA⇒hPA by direct radix traversal of the materialized guest and host
//!    page tables, independent of TLBs, PWCs, the nested TLB, and the
//!    shadow tables the walker actually reads. Every TLB hit and completed
//!    walk is compared against it ([`check_tlb_entry`], [`check_walk`]).
//! 2. **Conservation invariants** ([`check_stats`]): identities that must
//!    hold on any [`RunStats`] snapshot — reference-target counts sum to
//!    total references, TLB fills never exceed misses, completed walks
//!    equal classified walks plus hardware A/D walks, per-kind reference
//!    counts sit within the Table II bounds, and trap cycles equal
//!    Σ count × cost.
//! 3. **Coherence audit** ([`audit_coherence`], [`audit_coherence_range`]):
//!    after every unmap, COW marking, clock scan, context switch, and
//!    interval tick, sweeps the TLB hierarchy, the page-walk caches, and
//!    the nested TLB asserting no stale translation survived the
//!    shootdowns. Range-scoped events (unmap, COW, clock scan) audit only
//!    the entries their shootdown could have left stale.
//!
//! All oracles are strictly read-only: enabling
//! [`crate::SystemConfig::paranoia`] changes wall-clock time, never
//! results or fingerprints. Violations are reported as structured
//! [`Violation`] values carrying the offending gVA/level/mode rather than
//! bare panics, so callers can collect, render, or assert on them.

use crate::config::SystemConfig;
use crate::stats::RunStats;
use agile_mem::PhysMem;
use agile_tlb::{NestedTlb, PageWalkCaches, TlbEntry, TlbHierarchy};
use agile_types::{
    Asid, CodecError, Dec, Enc, GuestFrame, Level, PageSize, Persist, ProcessId, Pte,
};
use agile_vmm::{Vmm, VmtrapKind};
use agile_walk::{WalkKind, WalkOk};

/// Where a violation was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationSite {
    /// A TLB hit disagreed with the reference translator.
    TlbHit,
    /// A completed walk disagreed with the reference translator.
    Walk,
    /// A stale entry survived in the TLB hierarchy.
    StaleTlb,
    /// A stale entry survived in the page-walk caches.
    StalePwc,
    /// A stale entry survived in the nested TLB.
    StaleNtlb,
    /// A [`RunStats`] conservation identity failed.
    Stats,
    /// A technique-switch (or migration) transition changed the
    /// translation function or left the switching partition malformed
    /// (found by the two-state differ, [`crate::snapshot::diff`]).
    Transition,
}

impl ViolationSite {
    /// Stable identifier used in rendered reports and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ViolationSite::TlbHit => "tlb-hit",
            ViolationSite::Walk => "walk",
            ViolationSite::StaleTlb => "stale-tlb",
            ViolationSite::StalePwc => "stale-pwc",
            ViolationSite::StaleNtlb => "stale-ntlb",
            ViolationSite::Stats => "stats",
            ViolationSite::Transition => "transition",
        }
    }

    /// Every site, in tag order (the [`Persist`] encoding's order).
    pub const ALL: [ViolationSite; 7] = [
        ViolationSite::TlbHit,
        ViolationSite::Walk,
        ViolationSite::StaleTlb,
        ViolationSite::StalePwc,
        ViolationSite::StaleNtlb,
        ViolationSite::Stats,
        ViolationSite::Transition,
    ];
}

impl Persist for ViolationSite {
    fn save(&self, e: &mut Enc) {
        let tag = ViolationSite::ALL
            .iter()
            .position(|s| s == self)
            .expect("site in ALL") as u8;
        e.u8(tag);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        let tag = d.u8()?;
        ViolationSite::ALL
            .get(usize::from(tag))
            .copied()
            .map_or_else(|| d.fail(format!("bad ViolationSite tag {tag}")), Ok)
    }
}

agile_types::record! {
    /// One oracle violation: the check that failed, the translation it
    /// concerns, and a human-readable explanation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Violation {
        /// Which oracle caught it.
        pub site: ViolationSite,
        /// Offending guest virtual address, when the check concerns one.
        pub gva: Option<u64>,
        /// Page-table level involved, when known.
        pub level: Option<Level>,
        /// What exactly disagreed.
        pub detail: String,
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}]", self.site.label())?;
        if let Some(gva) = self.gva {
            write!(f, " gva={gva:#x}")?;
        }
        if let Some(level) = self.level {
            write!(f, " level={level:?}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for Violation {}

/// The reference translator's answer for one gVA: what the architectural
/// page tables say, independent of every caching structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefTranslation {
    /// Host frame backing the exact 4 KiB page containing the gVA.
    pub frame_4k: agile_types::HostFrame,
    /// Guest-mapping page size.
    pub guest_size: PageSize,
    /// Host-mapping page size (guest size if the host table has no leaf
    /// yet — Native runs, or lazily unfilled host entries).
    pub host_size: PageSize,
    /// Effective TLB-entry size: `min(guest_size, host_size)` (a large
    /// page used in only one stage is broken into smaller TLB entries).
    pub eff_size: PageSize,
    /// Whether both stages permit writes.
    pub writable: bool,
}

/// Recomputes the translation of `gva` in `pid`'s address space by direct
/// radix traversal of the guest page table and the host (EPT) table,
/// bypassing the shadow tables, TLBs, PWCs, and nested TLB entirely.
///
/// Returns `None` when the guest table has no present leaf for `gva` — in
/// that case no cached translation may exist either.
///
/// Two halves: the guest walk ([`Vmm::gpt_lookup`]) and
/// [`reference_from_guest_leaf`], the host side from the guest leaf on.
/// The static analyzer runs the tail alone on the leaf its own descent
/// already found.
#[must_use]
pub fn reference_translate(
    mem: &PhysMem,
    vmm: &Vmm,
    pid: ProcessId,
    gva: u64,
) -> Option<RefTranslation> {
    let (gpte, glevel) = vmm.gpt_lookup(mem, pid, gva)?;
    reference_from_guest_leaf(mem, vmm, gva, gpte, glevel)
}

/// The tail of [`reference_translate`]: the reference translation of
/// `gva` given its guest leaf `gpte` at `glevel`, through the host (EPT)
/// table or, where the host table has no leaf, the guest memory map.
#[must_use]
pub fn reference_from_guest_leaf(
    mem: &PhysMem,
    vmm: &Vmm,
    gva: u64,
    gpte: Pte,
    glevel: Level,
) -> Option<RefTranslation> {
    if !gpte.is_present() {
        return None;
    }
    let guest_size = gpte.leaf_size(glevel)?;
    let page_shift = PageSize::Size4K.shift();
    // 4 KiB guest frame of the addressed page within the guest mapping.
    let data_gframe =
        GuestFrame::new(gpte.frame_raw() + ((gva & guest_size.offset_mask()) >> page_shift));
    let host = vmm
        .hpt_lookup(mem, data_gframe.base().raw())
        .filter(|(hpte, _)| hpte.is_present());
    let (frame_4k, host_size, host_w) = match host {
        Some((hpte, hlevel)) => {
            let host_size = hpte.leaf_size(hlevel)?;
            (
                hpte.host_frame()
                    .add(data_gframe.raw() % host_size.base_pages()),
                host_size,
                hpte.is_writable(),
            )
        }
        // No host leaf: Native (which never populates the host table) or a
        // lazily unfilled entry. The machine memory assignment is then the
        // authority, writable, at the guest mapping's granularity.
        None => (vmm.backing(data_gframe)?, guest_size, true),
    };
    Some(RefTranslation {
        frame_4k,
        guest_size,
        host_size,
        eff_size: guest_size.min(host_size),
        writable: gpte.is_writable() && host_w,
    })
}

/// Cross-checks one TLB entry for `gva` against the reference translator.
/// Used both on every TLB hit and by the coherence sweep.
///
/// The entry must translate the 4 KiB page to the same host frame, must
/// not span more than the effective page size, and must not grant writes
/// the page tables forbid (it may be *more* restrictive — shadow
/// dirty-tracking and COW legitimately install read-only entries).
#[must_use]
pub fn check_tlb_entry(
    mem: &PhysMem,
    vmm: &Vmm,
    pid: ProcessId,
    gva: u64,
    entry: &TlbEntry,
    site: ViolationSite,
) -> Option<Violation> {
    let violation = |detail: String| {
        Some(Violation {
            site,
            gva: Some(gva),
            level: None,
            detail,
        })
    };
    let Some(reference) = reference_translate(mem, vmm, pid, gva) else {
        return violation(format!(
            "TLB maps unbacked gva to frame {} ({}, pid {})",
            entry.frame,
            entry.size.label(),
            pid.raw(),
        ));
    };
    let page_4k = GuestFrame::new(gva >> PageSize::Size4K.shift());
    let entry_frame_4k = entry.frame.add(page_4k.raw() % entry.size.base_pages());
    if entry_frame_4k != reference.frame_4k {
        return violation(format!(
            "TLB frame {} != reference frame {} (entry {}, guest {}, host {})",
            entry_frame_4k,
            reference.frame_4k,
            entry.size.label(),
            reference.guest_size.label(),
            reference.host_size.label(),
        ));
    }
    if entry.size > reference.eff_size {
        return violation(format!(
            "TLB entry size {} exceeds effective size {} (guest {}, host {})",
            entry.size.label(),
            reference.eff_size.label(),
            reference.guest_size.label(),
            reference.host_size.label(),
        ));
    }
    if entry.writable && !reference.writable {
        return violation("TLB entry permits writes the page tables forbid".to_string());
    }
    None
}

/// Cross-checks one completed walk against the reference translator and
/// the Table II reference-count model.
///
/// In the exact-count regime — walk caches off (which also disables the
/// nested TLB), both stages 4 KiB, no PWC resume — a walk must perform
/// *exactly* `expected_refs_4k()` references: 4 native/shadow, 8/12/16/20
/// per switch level, 24 fully nested. Outside it, counts must stay within
/// `1..=expected_refs_4k()`.
#[must_use]
pub fn check_walk(
    mem: &PhysMem,
    vmm: &Vmm,
    cfg: &SystemConfig,
    pid: ProcessId,
    gva: u64,
    ok: &WalkOk,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let entry = TlbEntry::new(ok.frame, ok.size, ok.writable);
    if let Some(v) = check_tlb_entry(mem, vmm, pid, gva, &entry, ViolationSite::Walk) {
        out.push(v);
    }
    let expected = ok.kind.expected_refs_4k();
    let exact_regime = !cfg.pwc.enabled
        && !ok.resumed_from_pwc
        && reference_translate(mem, vmm, pid, gva)
            .is_some_and(|r| r.guest_size == PageSize::Size4K && r.host_size == PageSize::Size4K);
    if exact_regime && ok.refs != expected {
        out.push(Violation {
            site: ViolationSite::Walk,
            gva: Some(gva),
            level: None,
            detail: format!(
                "{:?} walk made {} references, Table II says exactly {expected}",
                ok.kind, ok.refs
            ),
        });
    } else if ok.refs == 0 || ok.refs > expected {
        out.push(Violation {
            site: ViolationSite::Walk,
            gva: Some(gva),
            level: None,
            detail: format!(
                "{:?} walk made {} references, outside 1..={expected}",
                ok.kind, ok.refs
            ),
        });
    }
    if ok.host_refs > ok.refs {
        out.push(Violation {
            site: ViolationSite::Walk,
            gva: Some(gva),
            level: None,
            detail: format!(
                "walk counted {} host references out of {} total",
                ok.host_refs, ok.refs
            ),
        });
    }
    out
}

/// Sweeps the TLB hierarchy, page-walk caches, and nested TLB for stale
/// translations: every surviving entry must still agree with the
/// architectural page tables. Called by the machine after every unmap,
/// COW marking, clock scan, context switch, and interval tick when
/// paranoia is on; also usable directly from tests.
#[must_use]
pub fn audit_coherence(
    mem: &PhysMem,
    vmm: &Vmm,
    tlb: &TlbHierarchy,
    pwc: &PageWalkCaches,
    ntlb: &NestedTlb,
) -> Vec<Violation> {
    audit_coherence_impl(mem, vmm, tlb, pwc, ntlb, None)
}

/// Range-scoped variant of [`audit_coherence`]: sweeps only the TLB and
/// PWC entries that can intersect `asid`'s `[start, start + len)` gVA
/// window. After a ranged shootdown (unmap, COW marking, clock scan) only
/// those entries can have gone stale, so auditing the rest is pure cost.
///
/// The nested TLB is still swept in full: it is keyed by guest *physical*
/// frame, which a gVA range does not name — host-table mutations behind a
/// guest-range operation (COW breaks, reclaim) can touch gPAs far from any
/// function of the gVAs.
#[must_use]
#[allow(clippy::too_many_arguments)] // five caches + the three-part scope
pub fn audit_coherence_range(
    mem: &PhysMem,
    vmm: &Vmm,
    tlb: &TlbHierarchy,
    pwc: &PageWalkCaches,
    ntlb: &NestedTlb,
    asid: Asid,
    start: u64,
    len: u64,
) -> Vec<Violation> {
    audit_coherence_impl(mem, vmm, tlb, pwc, ntlb, Some((asid, start, len)))
}

fn audit_coherence_impl(
    mem: &PhysMem,
    vmm: &Vmm,
    tlb: &TlbHierarchy,
    pwc: &PageWalkCaches,
    ntlb: &NestedTlb,
    scope: Option<(Asid, u64, u64)>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (asid, va, entry) in tlb.entries() {
        if let Some((scope_asid, start, len)) = scope {
            let va_end = va.raw().saturating_add(entry.size.bytes());
            if asid != scope_asid || va.raw() >= start.saturating_add(len) || va_end <= start {
                continue;
            }
        }
        let pid = pid_of(asid);
        if !vmm.knows_process(pid) {
            continue;
        }
        if let Some(v) = check_tlb_entry(mem, vmm, pid, va.raw(), &entry, ViolationSite::StaleTlb) {
            out.push(v);
        }
    }
    for (asid, next_level, prefix, entry) in pwc.entries() {
        if let Some((scope_asid, start, len)) = scope {
            // A skip-N entry's key is the gVA truncated to the level the
            // cached pointer was read *from* (the parent of `next_level`) —
            // the same bounds arithmetic `PageWalkCaches::invalidate_range`
            // uses when it processes a shootdown.
            let key_shift = match next_level {
                Level::L1 => Level::L2.index_shift(),
                Level::L2 => Level::L3.index_shift(),
                _ => Level::L4.index_shift(),
            };
            let lo = start >> key_shift;
            let hi = (start + len.saturating_sub(1)) >> key_shift;
            if asid != scope_asid || prefix < lo || prefix > hi {
                continue;
            }
        }
        let pid = pid_of(asid);
        if !vmm.knows_process(pid) {
            continue;
        }
        // A PWC entry caches the host frame of the next table page to
        // read. Whatever mode it resumes in, that frame must still be a
        // live page-table page — a pointer into freed or data memory means
        // a shootdown was missed.
        if !mem.is_table(entry.frame) {
            out.push(Violation {
                site: ViolationSite::StalePwc,
                gva: Some(prefix << next_level.index_shift()),
                level: Some(next_level),
                detail: format!(
                    "PWC caches {:?}-mode pointer to {} which is not a table page",
                    entry.kind, entry.frame,
                ),
            });
        }
    }
    for (vm, gframe, entry) in ntlb.entries() {
        if vm != vmm.vm() {
            continue;
        }
        let host = vmm
            .hpt_lookup(mem, gframe.base().raw())
            .filter(|(hpte, _)| hpte.is_present());
        let Some((hpte, hlevel)) = host else {
            out.push(Violation {
                site: ViolationSite::StaleNtlb,
                gva: None,
                level: None,
                detail: format!(
                    "nested TLB maps unbacked gPA frame {gframe} to {}",
                    entry.frame
                ),
            });
            continue;
        };
        let Some(host_size) = hpte.leaf_size(hlevel) else {
            continue;
        };
        let expect = hpte.host_frame().add(gframe.raw() % host_size.base_pages());
        if entry.frame != expect || entry.size != host_size {
            out.push(Violation {
                site: ViolationSite::StaleNtlb,
                gva: None,
                level: Some(hlevel),
                detail: format!(
                    "nested TLB maps gPA frame {gframe} to {} ({}), host table says {} ({})",
                    entry.frame,
                    entry.size.label(),
                    expect,
                    host_size.label(),
                ),
            });
        } else if entry.writable && !hpte.is_writable() {
            out.push(Violation {
                site: ViolationSite::StaleNtlb,
                gva: None,
                level: Some(hlevel),
                detail: format!(
                    "nested TLB entry for gPA frame {gframe} permits writes the host table forbids"
                ),
            });
        }
    }
    out
}

/// Checks the conservation identities on a [`RunStats`] snapshot.
#[must_use]
pub fn check_stats(stats: &RunStats, cfg: &SystemConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |detail: String| {
        out.push(Violation {
            site: ViolationSite::Stats,
            gva: None,
            level: None,
            detail,
        });
    };
    let w = &stats.walks;
    if w.refs_shadow + w.refs_guest + w.refs_host != w.memory_refs {
        fail(format!(
            "reference targets do not sum: shadow {} + guest {} + host {} != total {}",
            w.refs_shadow, w.refs_guest, w.refs_host, w.memory_refs
        ));
    }
    let t = &stats.tlb;
    if t.l1_hits + t.l2_hits + t.misses != t.lookups() {
        fail(format!(
            "TLB outcomes do not sum: l1 {} + l2 {} + misses {} != lookups {}",
            t.l1_hits,
            t.l2_hits,
            t.misses,
            t.lookups()
        ));
    }
    if t.fills > t.misses {
        fail(format!("TLB fills {} exceed misses {}", t.fills, t.misses));
    }
    if w.attempts != w.walks + w.faulted_walks {
        fail(format!(
            "walk attempts do not conserve: {} attempts != {} completed + {} faulted",
            w.attempts, w.walks, w.faulted_walks
        ));
    }
    // Cross-structure: every TLB miss starts at least one walk attempt
    // (fault retries and hardware A/D walks only add more), so the walker's
    // entry counter must dominate the TLB's independent miss counter.
    if w.attempts < t.misses {
        fail(format!(
            "walker saw {} attempts for {} TLB misses",
            w.attempts, t.misses
        ));
    }
    if w.walks != stats.kinds.total() + stats.ad_walks {
        fail(format!(
            "completed walks {} != classified walks {} + A/D walks {}",
            w.walks,
            stats.kinds.total(),
            stats.ad_walks
        ));
    }
    for kind in [
        WalkKind::Native,
        WalkKind::FullShadow,
        WalkKind::Switched { nested_levels: 1 },
        WalkKind::Switched { nested_levels: 2 },
        WalkKind::Switched { nested_levels: 3 },
        WalkKind::Switched { nested_levels: 4 },
        WalkKind::FullNested,
    ] {
        let count = stats.kinds.count(kind);
        let refs = stats.kinds.refs(kind);
        let max = u64::from(kind.expected_refs_4k());
        if count == 0 {
            if refs != 0 {
                fail(format!("{kind:?}: {refs} references but zero walks"));
            }
            continue;
        }
        if refs < count || refs > count * max {
            fail(format!(
                "{kind:?}: {refs} references over {count} walks outside bounds {count}..={}",
                count * max
            ));
        }
    }
    let costs = cfg.technique.trap_costs();
    for kind in VmtrapKind::ALL {
        let count = stats.traps.count(kind);
        let cycles = stats.traps.cycles(kind);
        let cost = costs.cost(kind);
        if cycles != count * cost {
            fail(format!(
                "trap {}: {cycles} cycles != {count} × {cost}",
                kind.label()
            ));
        }
    }
    out
}

fn pid_of(asid: Asid) -> ProcessId {
    // ASIDs are assigned as the identity image of process ids
    // (`Asid::from(pid)`), so the audit can reverse the mapping.
    ProcessId::new(asid.raw())
}
