//! Structural validation of the paper's memory-reference counts.
//!
//! Builds real guest/host/shadow page tables in simulated memory and checks
//! that each walk state machine performs exactly the number of PTE loads the
//! paper reports (Table II, Figure 1, Figure 3, Table VI header).

use agile_mem::{GuestMemMap, HostSpace, PhysMem, RadixTable, TableSpace};
use agile_tlb::{NestedTlb, PageWalkCaches, PwcConfig, PwcEntry, PwcTableKind};
use agile_types::{
    AccessKind, Asid, Fault, FaultCause, GuestFrame, GuestVirtAddr, HostFrame, Level, PageSize,
    Pte, PteFlags, VmId,
};
use agile_walk::{AgileCr3, WalkHw, WalkKind, WalkStats};

/// A fully built VM translation fixture: one guest page mapped through
/// guest, host, and shadow tables.
struct Fixture {
    mem: PhysMem,
    gmap: GuestMemMap,
    gpt: RadixTable,
    hpt: RadixTable,
    spt: RadixTable,
    gva: GuestVirtAddr,
    data_hframe: HostFrame,
    #[allow(dead_code)]
    guest_size: PageSize,
}

impl Fixture {
    fn new(gva_raw: u64, guest_size: PageSize) -> Self {
        let mut mem = PhysMem::new();
        let mut gmap = GuestMemMap::new();
        let mut host = HostSpace;
        let gpt = RadixTable::new(&mut mem, &mut gmap);
        let hpt = RadixTable::new(&mut mem, &mut host);
        let spt = RadixTable::new(&mut mem, &mut host);
        let gva = GuestVirtAddr::new(gva_raw);

        // Guest: map gva -> data gframe at the requested size.
        let data_gframe = match guest_size {
            PageSize::Size4K => gmap.alloc_data(&mut mem),
            sz => gmap.alloc_data_huge(&mut mem, sz),
        };
        gpt.map(
            &mut mem,
            &mut gmap,
            gva.page_base(guest_size).raw(),
            data_gframe.raw(),
            guest_size,
            PteFlags::WRITABLE,
        )
        .unwrap();

        // Host: map every backed gframe. Table pages at 4K; the data run at
        // its natural size.
        let pairs: Vec<_> = gmap.frames().collect();
        for (g, h) in pairs {
            if g == data_gframe && guest_size != PageSize::Size4K {
                continue;
            }
            if guest_size != PageSize::Size4K
                && g.raw() >= data_gframe.raw()
                && g.raw() < data_gframe.raw() + guest_size.base_pages()
            {
                continue;
            }
            hpt.map(
                &mut mem,
                &mut host,
                g.base().raw(),
                h.raw(),
                PageSize::Size4K,
                PteFlags::WRITABLE,
            )
            .unwrap();
        }
        let data_hframe = gmap.backing(data_gframe).unwrap();
        if guest_size != PageSize::Size4K {
            hpt.map(
                &mut mem,
                &mut host,
                data_gframe.base().raw(),
                data_hframe.raw(),
                guest_size,
                PteFlags::WRITABLE,
            )
            .unwrap();
        } else {
            // Already mapped above in the loop? No: the loop mapped it (4K).
        }

        // Shadow: the full merge gVA -> hPA.
        spt.map(
            &mut mem,
            &mut host,
            gva.page_base(guest_size).raw(),
            data_hframe.raw(),
            guest_size,
            PteFlags::WRITABLE,
        )
        .unwrap();

        Fixture {
            mem,
            gmap,
            gpt,
            hpt,
            spt,
            gva,
            data_hframe,
            guest_size,
        }
    }

    fn gptr(&self) -> GuestFrame {
        GuestFrame::new(self.gpt.root_raw())
    }

    fn hptr(&self) -> HostFrame {
        HostFrame::new(self.hpt.root_raw())
    }

    fn sptr(&self) -> HostFrame {
        HostFrame::new(self.spt.root_raw())
    }

    /// Conventional shadow paging's start state: a 1D walk of the shadow
    /// table.
    fn shadow_only(&self) -> AgileCr3 {
        AgileCr3::ShadowOnly {
            spt_root: self.sptr(),
        }
    }

    /// Host frame where the guest table page at `level` (on the gva's path)
    /// lives.
    fn gpt_level_hframe(&self, level: Level) -> HostFrame {
        let gframe = self
            .gpt
            .table_frame(&self.mem, &self.gmap, self.gva.raw(), level)
            .unwrap();
        self.gmap.resolve(gframe)
    }

    /// Rebuilds the shadow table as a *partial* table: shadow entries down
    /// to `switch_level`, whose entry gets the switching bit and points at
    /// the guest table page one level below.
    fn set_switch_at(&mut self, switch_level: Level) {
        // Zap the existing shadow leaf path below the switch entry, then
        // install the switching entry.
        self.spt
            .zap_subtree(&mut self.mem, &mut HostSpace, self.gva.raw(), switch_level);
        let guest_child = self.gpt_level_hframe(switch_level.child().unwrap());
        self.spt
            .set_entry(
                &mut self.mem,
                &HostSpace,
                self.gva.raw(),
                switch_level,
                Pte::new(guest_child.raw(), PteFlags::PRESENT | PteFlags::SWITCHING),
            )
            .unwrap();
    }

    fn walk<R>(
        &mut self,
        pwc_cfg: &PwcConfig,
        f: impl FnOnce(&mut WalkHw<'_>) -> R,
    ) -> (R, WalkStats) {
        let mut stats = WalkStats::default();
        let mut pwc = PageWalkCaches::new(pwc_cfg);
        let mut ntlb = NestedTlb::new(pwc_cfg);
        let mut hw = WalkHw {
            mem: &mut self.mem,
            pwc: &mut pwc,
            ntlb: &mut ntlb,
            vm: VmId::new(0),
            stats: &mut stats,
        };
        let r = f(&mut hw);
        (r, stats)
    }
}

const ASID: Asid = Asid::new(1);

#[test]
fn shadow_walk_is_4_refs() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    let (shadow_only, gptr, hptr, gva) = (fx.shadow_only(), fx.gptr(), fx.hptr(), fx.gva);
    let (r, _) = fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(ASID, gva, shadow_only, gptr, hptr, AccessKind::Read)
            .unwrap()
    });
    assert_eq!(r.refs, 4);
    assert_eq!(r.kind, WalkKind::FullShadow);
    assert_eq!(r.frame, fx.data_hframe);
    assert_eq!(r.size, PageSize::Size4K);
}

#[test]
fn nested_walk_is_24_refs() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    let (gptr, hptr, gva) = (fx.gptr(), fx.hptr(), fx.gva);
    let (r, stats) = fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(
            ASID,
            gva,
            AgileCr3::FullNested,
            gptr,
            hptr,
            AccessKind::Read,
        )
        .unwrap()
    });
    assert_eq!(r.refs, 24, "paper: 4x5+4 references");
    assert_eq!(r.kind, WalkKind::FullNested);
    assert_eq!(r.frame, fx.data_hframe);
    // Breakdown: 4 guest reads, 20 host reads.
    assert_eq!(stats.refs_guest, 4);
    assert_eq!(stats.refs_host, 20);
}

#[test]
fn agile_walk_degrees_match_figure_3() {
    // (switch entry level, expected refs, expected nested levels)
    let cases = [
        (Level::L2, 8u32, 1u8), // "switched at 4th level"
        (Level::L3, 12, 2),     // "switched at 3rd level"
        (Level::L4, 16, 3),     // "switched at 2nd level"
    ];
    for (switch_level, want_refs, want_nested) in cases {
        let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
        fx.set_switch_at(switch_level);
        let (gptr, hptr, sptr, gva) = (fx.gptr(), fx.hptr(), fx.sptr(), fx.gva);
        let (r, _) = fx.walk(&PwcConfig::disabled(), |hw| {
            hw.agile_walk(
                ASID,
                gva,
                AgileCr3::Shadow { spt_root: sptr },
                gptr,
                hptr,
                AccessKind::Read,
            )
            .unwrap()
        });
        assert_eq!(r.refs, want_refs, "switch at {switch_level}");
        assert_eq!(
            r.kind,
            WalkKind::Switched {
                nested_levels: want_nested
            }
        );
        assert_eq!(r.kind.expected_refs_4k(), want_refs);
        assert_eq!(r.frame, fx.data_hframe);
    }
}

#[test]
fn agile_nested_from_root_is_20_refs() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    let gpt_root = fx.gpt_level_hframe(Level::L4);
    let (gptr, hptr, gva) = (fx.gptr(), fx.hptr(), fx.gva);
    let (r, _) = fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(
            ASID,
            gva,
            AgileCr3::NestedFromRoot { gpt_root },
            gptr,
            hptr,
            AccessKind::Read,
        )
        .unwrap()
    });
    assert_eq!(r.refs, 20, "paper figure 3(e): switched at 1st level");
    assert_eq!(r.kind, WalkKind::Switched { nested_levels: 4 });
}

#[test]
fn agile_full_nested_is_24_refs() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    let (gptr, hptr, gva) = (fx.gptr(), fx.hptr(), fx.gva);
    let (r, _) = fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(
            ASID,
            gva,
            AgileCr3::FullNested,
            gptr,
            hptr,
            AccessKind::Read,
        )
        .unwrap()
    });
    assert_eq!(r.refs, 24);
    assert_eq!(r.kind, WalkKind::FullNested);
}

#[test]
fn native_walk_is_4_refs_4k_and_3_refs_2m() {
    // Native: one host-space table is the only page table.
    let mut mem = PhysMem::new();
    let mut host = HostSpace;
    let pt = RadixTable::new(&mut mem, &mut host);
    pt.map(
        &mut mem,
        &mut host,
        0x40_0000,
        0x999,
        PageSize::Size4K,
        PteFlags::WRITABLE,
    )
    .unwrap();
    pt.map(
        &mut mem,
        &mut host,
        4 * PageSize::Size2M.bytes(),
        2048,
        PageSize::Size2M,
        PteFlags::WRITABLE,
    )
    .unwrap();
    let mut stats = WalkStats::default();
    let cfg = PwcConfig::disabled();
    let mut pwc = PageWalkCaches::new(&cfg);
    let mut ntlb = NestedTlb::new(&cfg);
    let mut hw = WalkHw {
        mem: &mut mem,
        pwc: &mut pwc,
        ntlb: &mut ntlb,
        vm: VmId::new(0),
        stats: &mut stats,
    };
    let native = AgileCr3::Native {
        root: HostFrame::new(pt.root_raw()),
    };
    // A 1D walk reads neither the guest nor the host root.
    let (gptr, hptr) = (GuestFrame::new(0), HostFrame::new(0));
    let mut walk = |va: u64| {
        hw.agile_walk(
            ASID,
            GuestVirtAddr::new(va),
            native,
            gptr,
            hptr,
            AccessKind::Read,
        )
        .unwrap()
    };
    let r = walk(0x40_0000);
    assert_eq!(r.refs, 4);
    assert_eq!(r.kind, WalkKind::Native);
    let r2m = walk(4 * PageSize::Size2M.bytes() + 0x1234);
    assert_eq!(r2m.refs, 3, "huge leaf terminates the walk one level early");
    assert_eq!(r2m.size, PageSize::Size2M);
}

#[test]
fn nested_walk_with_2m_pages_shortens_both_dimensions() {
    let mut fx = Fixture::new(0x7f12_3400_0000, PageSize::Size2M);
    let (gptr, hptr, gva) = (fx.gptr(), fx.hptr(), fx.gva);
    let (r, _) = fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(
            ASID,
            gva,
            AgileCr3::FullNested,
            gptr,
            hptr,
            AccessKind::Read,
        )
        .unwrap()
    });
    // gptr translate: 4 (table gframes are 4K-mapped); guest levels L4..L2 =
    // 3 reads; interior translations 2x4; final data translate on the 2M
    // host mapping = 3. Total 4 + 3 + 8 + 3 = 18.
    assert_eq!(r.refs, 18);
    assert_eq!(r.size, PageSize::Size2M);
}

#[test]
fn effective_size_is_min_of_stages() {
    // Guest maps 2M but host backs it with 4K mappings: the TLB entry must
    // be 4K (the paper: large pages in one stage only get broken up).
    let mut fx = Fixture::new(0x7f12_3400_0000, PageSize::Size2M);
    // Remove the 2M host mapping, remap the data run as 4K pages.
    let data_gframe_base = {
        let (pte, level) = fx.gpt.lookup(&fx.mem, &fx.gmap, fx.gva.raw()).unwrap();
        assert_eq!(level, Level::L2);
        GuestFrame::new(pte.frame_raw())
    };
    fx.hpt
        .unmap(
            &mut fx.mem,
            &HostSpace,
            data_gframe_base.base().raw(),
            PageSize::Size2M,
        )
        .unwrap();
    for i in 0..PageSize::Size2M.base_pages() {
        let g = data_gframe_base.add(i);
        let h = fx.gmap.backing(g).unwrap();
        fx.hpt
            .map(
                &mut fx.mem,
                &mut HostSpace,
                g.base().raw(),
                h.raw(),
                PageSize::Size4K,
                PteFlags::WRITABLE,
            )
            .unwrap();
    }
    let (gptr, hptr) = (fx.gptr(), fx.hptr());
    let gva = GuestVirtAddr::new(fx.gva.raw() + 5 * 0x1000 + 0x123);
    let (r, _) = fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(
            ASID,
            gva,
            AgileCr3::FullNested,
            gptr,
            hptr,
            AccessKind::Read,
        )
        .unwrap()
    });
    assert_eq!(r.size, PageSize::Size4K);
    assert_eq!(
        r.frame,
        fx.gmap.backing(data_gframe_base.add(5)).unwrap(),
        "frame must be the 4K page actually touched"
    );
}

#[test]
fn pwc_cuts_shadow_walk_to_1_ref() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    let (shadow_only, gptr, hptr, gva) = (fx.shadow_only(), fx.gptr(), fx.hptr(), fx.gva);
    let (refs, _) = fx.walk(&PwcConfig::default(), |hw| {
        let first = hw
            .agile_walk(ASID, gva, shadow_only, gptr, hptr, AccessKind::Read)
            .unwrap();
        let second = hw
            .agile_walk(ASID, gva, shadow_only, gptr, hptr, AccessKind::Read)
            .unwrap();
        (first.refs, second.refs, second.resumed_from_pwc)
    });
    assert_eq!(refs.0, 4);
    assert_eq!(refs.1, 1, "skip-3 PWC hit leaves only the leaf read");
    assert!(refs.2);
}

#[test]
fn pwc_and_ntlb_cut_nested_walk_to_1_ref() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    let (gptr, hptr, gva) = (fx.gptr(), fx.hptr(), fx.gva);
    let (refs, _) = fx.walk(&PwcConfig::default(), |hw| {
        let first = hw
            .agile_walk(
                ASID,
                gva,
                AgileCr3::FullNested,
                gptr,
                hptr,
                AccessKind::Read,
            )
            .unwrap();
        let second = hw
            .agile_walk(
                ASID,
                gva,
                AgileCr3::FullNested,
                gptr,
                hptr,
                AccessKind::Read,
            )
            .unwrap();
        (first.refs, second.refs)
    });
    assert_eq!(refs.0, 24);
    // PWC resumes at the guest leaf level (1 guest read); the final data
    // translation hits the NTLB (0 refs).
    assert_eq!(refs.1, 1);
}

#[test]
fn agile_pwc_resumes_in_correct_mode() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    fx.set_switch_at(Level::L3);
    let (gptr, hptr, sptr, gva) = (fx.gptr(), fx.hptr(), fx.sptr(), fx.gva);
    let cr3 = AgileCr3::Shadow { spt_root: sptr };
    let (refs, _) = fx.walk(&PwcConfig::default(), |hw| {
        let a = hw
            .agile_walk(ASID, gva, cr3, gptr, hptr, AccessKind::Read)
            .unwrap();
        let b = hw
            .agile_walk(ASID, gva, cr3, gptr, hptr, AccessKind::Read)
            .unwrap();
        (a, b)
    });
    assert_eq!(refs.0.refs, 12);
    // Resume from the guest-mode PWC entry at the leaf: 1 guest read + NTLB
    // hit for the final translation.
    assert_eq!(refs.1.refs, 1);
    assert!(refs.1.resumed_from_pwc);
    assert!(matches!(refs.1.kind, WalkKind::Switched { .. }));
}

#[test]
fn faults_carry_level_and_space() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    let (gptr, hptr, shadow_only) = (fx.gptr(), fx.hptr(), fx.shadow_only());
    let miss = GuestVirtAddr::new(0x1234_5000);
    let ((sf, nf), stats) = fx.walk(&PwcConfig::disabled(), |hw| {
        let sf = hw
            .agile_walk(ASID, miss, shadow_only, gptr, hptr, AccessKind::Read)
            .unwrap_err();
        let nf = hw
            .agile_walk(
                ASID,
                miss,
                AgileCr3::FullNested,
                gptr,
                hptr,
                AccessKind::Read,
            )
            .unwrap_err();
        (sf, nf)
    });
    assert!(matches!(
        sf,
        Fault::ShadowPageFault {
            level: Level::L4,
            ..
        }
    ));
    assert!(matches!(
        nf,
        Fault::GuestPageFault {
            level: Level::L4,
            ..
        }
    ));
    assert_eq!(stats.faulted_walks, 2);
    assert_eq!(stats.walks, 0);
    // The faulting nested walk still paid for translating gptr + 1 read.
    assert_eq!(stats.memory_refs, 1 + 4 + 1);
}

#[test]
fn write_to_readonly_guest_pte_faults_with_cause() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    // Clear the writable bit on the guest leaf.
    fx.gpt
        .update_entry(&mut fx.mem, &fx.gmap, fx.gva.raw(), Level::L1, |p| {
            p.without_flags(PteFlags::WRITABLE)
        })
        .unwrap();
    let (gptr, hptr, gva) = (fx.gptr(), fx.hptr(), fx.gva);
    let (err, _) = fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(
            ASID,
            gva,
            AgileCr3::FullNested,
            gptr,
            hptr,
            AccessKind::Write,
        )
        .unwrap_err()
    });
    assert!(matches!(
        err,
        Fault::GuestPageFault {
            cause: FaultCause::WriteProtected,
            level: Level::L1,
            ..
        }
    ));
}

#[test]
fn missing_host_mapping_is_a_vmexit() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    // Unmap the data page from the host table: nested walk faults at the
    // final translation with a *host* fault (EPT violation).
    let (pte, _) = fx.gpt.lookup(&fx.mem, &fx.gmap, fx.gva.raw()).unwrap();
    let data_gframe = GuestFrame::new(pte.frame_raw());
    fx.hpt
        .unmap(
            &mut fx.mem,
            &HostSpace,
            data_gframe.base().raw(),
            PageSize::Size4K,
        )
        .unwrap();
    let (gptr, hptr, gva) = (fx.gptr(), fx.hptr(), fx.gva);
    let (err, _) = fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(
            ASID,
            gva,
            AgileCr3::FullNested,
            gptr,
            hptr,
            AccessKind::Read,
        )
        .unwrap_err()
    });
    match err {
        Fault::HostPageFault { gpa, .. } => assert_eq!(gpa, data_gframe.base()),
        other => panic!("expected host fault, got {other}"),
    }
}

#[test]
fn nested_walk_sets_guest_and_host_ad_bits() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    let (gptr, hptr, gva) = (fx.gptr(), fx.hptr(), fx.gva);
    fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(
            ASID,
            gva,
            AgileCr3::FullNested,
            gptr,
            hptr,
            AccessKind::Write,
        )
        .unwrap()
    });
    let leaf = fx
        .gpt
        .entry(&fx.mem, &fx.gmap, fx.gva.raw(), Level::L1)
        .unwrap();
    assert!(leaf.flags().contains(PteFlags::ACCESSED));
    assert!(leaf.flags().contains(PteFlags::DIRTY));
    // Hardware A/D maintenance must NOT dirty the guest table's backing
    // page in the host table: the dirty-bit-scan policy reads those bits to
    // find guest-initiated updates only (see the walker's comment).
    let l1_gframe = fx
        .gpt
        .table_frame(&fx.mem, &fx.gmap, fx.gva.raw(), Level::L1)
        .unwrap();
    let (hpte, _) = fx
        .hpt
        .lookup(&fx.mem, &HostSpace, GuestFrame::new(l1_gframe).base().raw())
        .unwrap();
    assert!(!hpte.flags().contains(PteFlags::DIRTY));
}

#[test]
fn agile_shadow_only_region_never_touches_guest_tables() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    let (gptr, hptr, sptr, gva) = (fx.gptr(), fx.hptr(), fx.sptr(), fx.gva);
    let (_, stats) = fx.walk(&PwcConfig::disabled(), |hw| {
        hw.agile_walk(
            ASID,
            gva,
            AgileCr3::Shadow { spt_root: sptr },
            gptr,
            hptr,
            AccessKind::Read,
        )
        .unwrap()
    });
    assert_eq!(stats.refs_guest, 0);
    assert_eq!(stats.refs_host, 0);
    assert_eq!(stats.refs_shadow, 4);
}

/// The hardware contract of the start states. Agile hardware's shadow mode
/// honours a switching entry and a guest-mode page-walk-cache entry; the
/// 1D walks of native and conventional shadow paging ignore both, since
/// their hardware has no switching bit. On a leaf (L1, or a 2 MiB page)
/// the switching bit has no next-level table to point to: agile's shadow
/// mode faults on it as a reserved bit, and the 1D walks translate
/// through it. Chaos reaches every plant in real runs: a fault plan can
/// flip any PTE bit, and SHSP's shadow phase can meet a stale guest-mode
/// PWC entry when the flush at a mode switch is dropped.
#[test]
fn only_agile_shadow_mode_honours_switching_and_guest_mode_pwc_entries() {
    let mut fx = Fixture::new(0x7f12_3456_7000, PageSize::Size4K);
    // Give the data page the same number as a guest frame and as a host
    // frame, so a walk that reads the guest leaf as if it were a shadow
    // leaf (which is what ignoring a switching entry amounts to) still
    // lands on the data page. Only the kind and the count then tell
    // whether the walk switched.
    let data = fx.data_hframe;
    fx.gpt
        .update_entry(&mut fx.mem, &fx.gmap, fx.gva.raw(), Level::L1, |p| {
            Pte::new(data.raw(), p.flags())
        })
        .unwrap();
    fx.hpt
        .map(
            &mut fx.mem,
            &mut HostSpace,
            GuestFrame::new(data.raw()).base().raw(),
            data.raw(),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
    let (gptr, hptr, gva) = (fx.gptr(), fx.hptr(), fx.gva);
    let sptr = fx.sptr();
    let native = AgileCr3::Native { root: sptr };
    let shadow_only = fx.shadow_only();
    let agile = AgileCr3::Shadow { spt_root: sptr };
    let unplanted = |fx: &mut Fixture, cr3| {
        fx.walk(&PwcConfig::default(), |hw| {
            hw.agile_walk(ASID, gva, cr3, gptr, hptr, AccessKind::Read)
                .unwrap()
        })
        .0
    };
    let before = [unplanted(&mut fx, native), unplanted(&mut fx, shadow_only)];

    fx.set_switch_at(Level::L2);
    let guest_l1 = fx.gpt_level_hframe(Level::L1);
    // Each walk gets fresh caches holding one guest-mode entry: "the walk
    // below L2 continues in the guest L1 table".
    let planted = |fx: &mut Fixture, cr3, plant_pwc: bool| {
        fx.walk(&PwcConfig::default(), |hw| {
            if plant_pwc {
                hw.pwc.fill(
                    ASID,
                    gva,
                    Level::L2,
                    PwcEntry {
                        frame: guest_l1,
                        kind: PwcTableKind::Guest,
                    },
                );
            }
            hw.agile_walk(ASID, gva, cr3, gptr, hptr, AccessKind::Read)
                .unwrap()
        })
        .0
    };
    for ((cr3, kind), unplanted) in [
        (native, WalkKind::Native),
        (shadow_only, WalkKind::FullShadow),
    ]
    .into_iter()
    .zip(before)
    {
        let r = planted(&mut fx, cr3, true);
        assert_eq!((r.refs, r.kind), (4, kind), "{cr3:?}");
        assert_eq!(r.frame, unplanted.frame, "{cr3:?}");
        assert!(!r.resumed_from_pwc, "{cr3:?}");
    }

    let resumed = planted(&mut fx, agile, true);
    assert_eq!(resumed.kind, WalkKind::Switched { nested_levels: 1 });
    assert!(resumed.resumed_from_pwc);
    assert_eq!(resumed.refs, 1 + 4, "guest leaf + host translation");
    assert_eq!(resumed.frame, data);
    let switched = planted(&mut fx, agile, false);
    assert_eq!(switched.kind, WalkKind::Switched { nested_levels: 1 });
    assert_eq!(switched.refs, 8);
    assert_eq!(switched.frame, data);

    for size in [PageSize::Size4K, PageSize::Size2M] {
        let mut fx = Fixture::new(0x7f12_3456_7000, size);
        let level = size.leaf_level();
        fx.spt
            .update_entry(&mut fx.mem, &HostSpace, fx.gva.raw(), level, |p| {
                p.with_flags(PteFlags::SWITCHING)
            })
            .unwrap();
        let (gptr, hptr, gva, sptr) = (fx.gptr(), fx.hptr(), fx.gva, fx.sptr());
        let walk = |fx: &mut Fixture, cr3| {
            fx.walk(&PwcConfig::default(), |hw| {
                hw.agile_walk(ASID, gva, cr3, gptr, hptr, AccessKind::Read)
            })
            .0
        };
        for (cr3, kind) in [
            (AgileCr3::Native { root: sptr }, WalkKind::Native),
            (fx.shadow_only(), WalkKind::FullShadow),
        ] {
            let r = walk(&mut fx, cr3).expect("1D walks ignore the switching bit");
            assert_eq!((r.frame, r.size, r.kind), (fx.data_hframe, size, kind));
        }
        let fault = walk(&mut fx, AgileCr3::Shadow { spt_root: sptr })
            .expect_err("a switching leaf is a reserved-bit fault");
        assert_eq!(
            fault,
            Fault::ShadowPageFault {
                gva,
                level,
                access: AccessKind::Read,
                cause: FaultCause::ReservedBit,
            },
            "{size:?}"
        );
    }
}
