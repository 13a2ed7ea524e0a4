//! The counted hardware walker.

use crate::result::{AgileCr3, RefTarget, WalkKind, WalkOk, WalkStats};
use agile_mem::PhysMem;
use agile_tlb::{NestedTlb, NtlbEntry, PageWalkCaches, PwcEntry, PwcTableKind};
use agile_types::{
    AccessKind, Asid, Fault, FaultCause, GuestFrame, GuestVirtAddr, HostFrame, Level, PageSize,
    Pte, PteFlags, VmId,
};

/// Per-walk reference tally.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    refs: u32,
    shadow: u32,
    guest: u32,
    host: u32,
}

/// The hardware page-walk unit: borrows the physical memory and the
/// translation-caching structures for the duration of a walk batch.
///
/// Its one walk, [`WalkHw::agile_walk`], is the paper's Figure 4 state
/// machine. Figure 4 contains both Figure 2 walks it is compared against:
/// with `sptr == gptr` it is the nested 2D walk, and with no switching bit
/// it is the 1D walk of native and shadow paging. Each technique therefore
/// differs only in the [`AgileCr3`] start state its VMM programs. A walk
/// returns a [`WalkOk`] carrying the translation plus the number of memory
/// references it performed. Faults abort the walk (references spent so far
/// are still accounted) and surface as [`Fault`] for the OS or VMM to
/// handle.
#[derive(Debug)]
pub struct WalkHw<'a> {
    /// Simulated host physical memory holding every page table.
    pub mem: &'a mut PhysMem,
    /// Page walk caches (may be disabled in configuration).
    pub pwc: &'a mut PageWalkCaches,
    /// Nested TLB (gPA⇒hPA cache; may be disabled).
    pub ntlb: &'a mut NestedTlb,
    /// The VM whose tables are being walked (tags NTLB entries).
    pub vm: VmId,
    /// Accumulated counters across walks.
    pub stats: &'a mut WalkStats,
}

impl<'a> WalkHw<'a> {
    fn read_counted(
        &mut self,
        tally: &mut Tally,
        frame: HostFrame,
        idx: usize,
        t: RefTarget,
    ) -> Pte {
        tally.refs += 1;
        match t {
            RefTarget::Shadow => tally.shadow += 1,
            RefTarget::Guest => tally.guest += 1,
            RefTarget::Host => tally.host += 1,
        }
        self.mem.read_pte(frame, idx)
    }

    fn finish(&mut self, tally: Tally, ok: Result<WalkOk, Fault>) -> Result<WalkOk, Fault> {
        self.stats.memory_refs += u64::from(tally.refs);
        self.stats.refs_shadow += u64::from(tally.shadow);
        self.stats.refs_guest += u64::from(tally.guest);
        self.stats.refs_host += u64::from(tally.host);
        match ok {
            Ok(_) => self.stats.walks += 1,
            Err(_) => self.stats.faulted_walks += 1,
        }
        ok
    }

    /// Translates one guest-physical 4 KiB frame through the host page
    /// table, using the nested TLB when possible. Returns the backing host
    /// frame, the host mapping's page size, and its writability.
    ///
    /// `access` describes the *final* use of the translated address; pass
    /// [`AccessKind::Read`] for guest-page-table interior accesses.
    fn translate_gpa(
        &mut self,
        tally: &mut Tally,
        gframe: GuestFrame,
        hptr: HostFrame,
        access: AccessKind,
    ) -> Result<(HostFrame, PageSize, bool), Fault> {
        if let Some(e) = self.ntlb.lookup(self.vm, gframe) {
            if e.writable || !access.is_write() {
                return Ok((e.frame, e.size, e.writable));
            }
            self.ntlb.invalidate(self.vm, gframe);
        }
        let gpa = gframe.base();
        let mut cur = hptr;
        for level in Level::top().walk_order() {
            let pte = self.read_counted(tally, cur, gpa.index(level), RefTarget::Host);
            if !pte.is_present() {
                return Err(Fault::HostPageFault {
                    gpa,
                    level,
                    access,
                    cause: FaultCause::NotPresent,
                });
            }
            if pte.is_leaf_at(level) {
                if access.is_write() && !pte.is_writable() {
                    return Err(Fault::HostPageFault {
                        gpa,
                        level,
                        access,
                        cause: FaultCause::WriteProtected,
                    });
                }
                let size = pte.leaf_size(level).expect("leaf has a size");
                // Set EPT accessed/dirty bits (hardware A/D on the host
                // table; software-visible, not a counted walk reference).
                let mut flags = PteFlags::ACCESSED;
                if access.is_write() {
                    flags |= PteFlags::DIRTY;
                }
                if !pte.flags().contains(flags) {
                    self.mem
                        .write_pte(cur, gpa.index(level), pte.with_flags(flags));
                }
                let offset_pages = gframe.raw() % size.base_pages();
                let hframe = pte.host_frame().add(offset_pages);
                self.ntlb.fill(
                    self.vm,
                    gframe,
                    NtlbEntry {
                        frame: hframe,
                        size,
                        writable: pte.is_writable(),
                    },
                );
                return Ok((hframe, size, pte.is_writable()));
            }
            cur = pte.host_frame();
        }
        unreachable!("host walk fell through L1");
    }

    /// PWC resume candidate for `va`, filtered for liveness: a cached
    /// pointer into a page that is no longer a live table page (a missed
    /// shootdown — only reachable under fault injection) is ignored rather
    /// than dereferenced, modeling defensive hardware that falls back to a
    /// full walk. The stale entry is left in place so the verify layer's
    /// coherence audit still reports the missed shootdown.
    fn pwc_resume(&mut self, asid: Asid, va: GuestVirtAddr) -> Option<(Level, PwcEntry)> {
        let (next, e) = self.pwc.lookup(asid, va)?;
        if !self.mem.is_table(e.frame) {
            return None;
        }
        Some((next, e))
    }

    /// The nested portion of a walk: reads guest levels starting at `level`
    /// where the guest table page for that level lives at host frame
    /// `cur_h`.
    #[allow(clippy::too_many_arguments)]
    fn nested_from(
        &mut self,
        tally: &mut Tally,
        gva: GuestVirtAddr,
        mut level: Level,
        mut cur_h: HostFrame,
        hptr: HostFrame,
        access: AccessKind,
        asid: Asid,
        kind: WalkKind,
        resumed: bool,
    ) -> Result<WalkOk, Fault> {
        loop {
            let idx = gva.index(level);
            let gpte = self.read_counted(tally, cur_h, idx, RefTarget::Guest);
            if !gpte.is_present() {
                return Err(Fault::GuestPageFault {
                    gva,
                    level,
                    access,
                    cause: FaultCause::NotPresent,
                });
            }
            if gpte.is_leaf_at(level) {
                if access.is_write() && !gpte.is_writable() {
                    return Err(Fault::GuestPageFault {
                        gva,
                        level,
                        access,
                        cause: FaultCause::WriteProtected,
                    });
                }
                let guest_size = gpte.leaf_size(level).expect("leaf");
                // Hardware sets guest A/D bits on nested walks. These
                // maintenance stores deliberately do NOT dirty the guest
                // table's backing page in the host table: the dirty-bit
                // scan policy consumes those bits to find *guest-initiated*
                // page-table updates, and A/D housekeeping would otherwise
                // keep every active region pinned in nested mode.
                let mut want = PteFlags::ACCESSED;
                if access.is_write() {
                    want |= PteFlags::DIRTY;
                }
                if !gpte.flags().contains(want) {
                    self.mem.write_pte(cur_h, idx, gpte.with_flags(want));
                }
                let offset_pages =
                    (gva.raw() & guest_size.offset_mask()) >> agile_types::PAGE_SHIFT;
                let data_gframe = GuestFrame::new(gpte.frame_raw() + offset_pages);
                let (hframe, host_size, host_w) =
                    self.translate_gpa(tally, data_gframe, hptr, access)?;
                let eff = guest_size.min(host_size);
                let eff_offset = gva.page_number(PageSize::Size4K) % eff.base_pages();
                let frame = HostFrame::new(hframe.raw() - eff_offset);
                return Ok(WalkOk {
                    frame,
                    size: eff,
                    writable: gpte.is_writable() && host_w,
                    refs: tally.refs,
                    host_refs: tally.host,
                    kind,
                    resumed_from_pwc: resumed,
                });
            }
            if !gpte.flags().contains(PteFlags::ACCESSED) {
                self.mem
                    .write_pte(cur_h, idx, gpte.with_flags(PteFlags::ACCESSED));
            }
            let next_g = GuestFrame::new(gpte.frame_raw());
            let (next_h, _, _) = self.translate_gpa(tally, next_g, hptr, AccessKind::Read)?;
            self.pwc.fill(
                asid,
                gva,
                level,
                PwcEntry {
                    frame: next_h,
                    kind: PwcTableKind::Guest,
                },
            );
            cur_h = next_h;
            level = level.child().expect("interior level has a child");
        }
    }

    /// The walk (Figure 4): starts in the register state `cr3` and, from
    /// agile's shadow mode, may switch to nested mode at a switching-bit
    /// entry. `gptr` and `hptr` are the guest and host page-table roots.
    pub fn agile_walk(
        &mut self,
        asid: Asid,
        gva: GuestVirtAddr,
        cr3: AgileCr3,
        gptr: GuestFrame,
        hptr: HostFrame,
        access: AccessKind,
    ) -> Result<WalkOk, Fault> {
        self.stats.attempts += 1;
        let mut tally = Tally::default();
        let r = self.agile_walk_inner(&mut tally, asid, gva, cr3, gptr, hptr, access);
        self.finish(tally, r)
    }

    #[allow(clippy::too_many_arguments)]
    fn agile_walk_inner(
        &mut self,
        tally: &mut Tally,
        asid: Asid,
        gva: GuestVirtAddr,
        cr3: AgileCr3,
        gptr: GuestFrame,
        hptr: HostFrame,
        access: AccessKind,
    ) -> Result<WalkOk, Fault> {
        // `agile`: the walk honours switching entries and guest-mode PWC
        // entries. Hardware without the switching bit ignores both.
        let (root, agile) = match cr3 {
            // "if sptr == gptr then return nested_walk(...)" (Figure 4): the
            // full 2D walk. A cached guest-table pointer in the PWC skips
            // both the gptr translation and the upper guest levels.
            AgileCr3::FullNested => {
                if let Some((next, e)) = self.pwc_resume(asid, gva) {
                    if e.kind == PwcTableKind::Guest {
                        return self.nested_from(
                            tally,
                            gva,
                            next,
                            e.frame,
                            hptr,
                            access,
                            asid,
                            WalkKind::FullNested,
                            true,
                        );
                    }
                }
                let (gpt_root_h, _, _) = self.translate_gpa(tally, gptr, hptr, AccessKind::Read)?;
                return self.nested_from(
                    tally,
                    gva,
                    Level::top(),
                    gpt_root_h,
                    hptr,
                    access,
                    asid,
                    WalkKind::FullNested,
                    false,
                );
            }
            // Register-level switching bit: whole guest table nested, guest
            // root already known in host-physical terms (20 references).
            AgileCr3::NestedFromRoot { gpt_root } => {
                return self.nested_from(
                    tally,
                    gva,
                    Level::top(),
                    gpt_root,
                    hptr,
                    access,
                    asid,
                    WalkKind::Switched { nested_levels: 4 },
                    false,
                )
            }
            AgileCr3::Native { root } => (root, false),
            AgileCr3::ShadowOnly { spt_root } => (spt_root, false),
            AgileCr3::Shadow { spt_root } => (spt_root, true),
        };
        // A 1D walk of the OS's own table faults to the OS; a walk of the
        // shadow table faults to the VMM.
        let native = matches!(cr3, AgileCr3::Native { .. });
        let fault = |level: Level, cause: FaultCause| {
            if native {
                Fault::GuestPageFault {
                    gva,
                    level,
                    access,
                    cause,
                }
            } else {
                Fault::ShadowPageFault {
                    gva,
                    level,
                    access,
                    cause,
                }
            }
        };

        let mut cur = root;
        let mut level = Level::top();
        let mut resumed = false;
        if let Some((next, e)) = self.pwc_resume(asid, gva) {
            match e.kind {
                PwcTableKind::Shadow => {
                    cur = e.frame;
                    level = next;
                    resumed = true;
                }
                PwcTableKind::Guest if agile => {
                    let kind = WalkKind::Switched {
                        nested_levels: next.number(),
                    };
                    return self
                        .nested_from(tally, gva, next, e.frame, hptr, access, asid, kind, true);
                }
                PwcTableKind::Guest => {}
            }
        }
        loop {
            let pte = self.read_counted(tally, cur, gva.index(level), RefTarget::Shadow);
            if !pte.is_present() {
                return Err(fault(level, FaultCause::NotPresent));
            }
            if agile && pte.is_switching() {
                // The switching-bit entry holds the host-physical frame of
                // the *next level's guest table page* (paper Section III-B).
                // A leaf has no next level, so there the bit is reserved:
                // the walk faults to the VMM, as x86 raises a reserved-bit
                // page fault.
                if pte.is_leaf_at(level) {
                    return Err(fault(level, FaultCause::ReservedBit));
                }
                let next = level.child().expect("a non-leaf level has a child");
                self.pwc.fill(
                    asid,
                    gva,
                    level,
                    PwcEntry {
                        frame: pte.host_frame(),
                        kind: PwcTableKind::Guest,
                    },
                );
                let kind = WalkKind::Switched {
                    nested_levels: next.number(),
                };
                return self.nested_from(
                    tally,
                    gva,
                    next,
                    pte.host_frame(),
                    hptr,
                    access,
                    asid,
                    kind,
                    resumed,
                );
            }
            if pte.is_leaf_at(level) {
                if access.is_write() && !pte.is_writable() {
                    return Err(fault(level, FaultCause::WriteProtected));
                }
                return Ok(WalkOk {
                    frame: pte.host_frame(),
                    size: pte.leaf_size(level).expect("leaf"),
                    writable: pte.is_writable(),
                    refs: tally.refs,
                    host_refs: tally.host,
                    kind: if native {
                        WalkKind::Native
                    } else {
                        WalkKind::FullShadow
                    },
                    resumed_from_pwc: resumed,
                });
            }
            self.pwc.fill(
                asid,
                gva,
                level,
                PwcEntry {
                    frame: pte.host_frame(),
                    kind: PwcTableKind::Shadow,
                },
            );
            cur = pte.host_frame();
            level = level.child().expect("interior level has a child");
        }
    }
}
