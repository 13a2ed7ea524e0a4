//! Planted-violation fixtures for the static analyzer: each test builds
//! one specifically broken machine state at the substrate level (physical
//! memory + VMM, bypassing the `Machine` so tables can be corrupted
//! directly) and asserts the exact [`LintCode`] fires. The companion
//! clean-state tests prove the same hand-built states analyze clean
//! *before* the corruption, so every diagnostic is attributable to the
//! planted fault alone.

use agile_core::analyze::{analyze, LintCode, LintReport, ShootdownEvent, ShootdownLog};
use agile_core::FlushScope;
use agile_mem::PhysMem;
use agile_tlb::{TlbConfig, TlbEntry, TlbHierarchy};
use agile_types::{
    AccessKind, Asid, Fault, FaultCause, GuestFrame, GuestVirtAddr, HostFrame, Level, PageSize,
    ProcessId, Pte, PteFlags,
};
use agile_vmm::{AgileOptions, GptPageMode, Technique, Vmm};

/// One mapped data page: L4 index 0, L3 index 1, L2 index 0, L1 index 0.
const VA: u64 = 0x4000_0000;

fn empty_tlb() -> TlbHierarchy {
    TlbHierarchy::new(&TlbConfig::default())
}

struct Fixture {
    mem: PhysMem,
    vmm: Vmm,
    pid: ProcessId,
}

impl Fixture {
    /// A minimal single-process state with one data page mapped at [`VA`]
    /// and its shadow leaf materialized through the real shadow-fault
    /// path. Native has no shadow faults: `gpt_map` already wrote its
    /// merged leaf, as a guest-fault fix-up would.
    fn new(technique: Technique, guest_writable: bool, write_access: bool) -> Fixture {
        let mut mem = PhysMem::new();
        let mut vmm = Vmm::new(&mut mem, technique);
        let pid = ProcessId::new(1);
        vmm.create_process(&mut mem, pid);
        let gframe = vmm.alloc_guest_frame(&mut mem);
        let flags = if guest_writable {
            PteFlags::WRITABLE
        } else {
            PteFlags::empty()
        };
        vmm.gpt_map(&mut mem, pid, VA, gframe, PageSize::Size4K, flags);
        let access = if write_access {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        if !matches!(technique, Technique::Native) {
            vmm.handle_fault(
                &mut mem,
                pid,
                Fault::ShadowPageFault {
                    gva: GuestVirtAddr::new(VA),
                    level: Level::L1,
                    access,
                    cause: FaultCause::NotPresent,
                },
            );
        }
        let _ = vmm.take_pending_flushes();
        Fixture { mem, vmm, pid }
    }

    fn lint(&self) -> LintReport {
        analyze(&self.mem, &self.vmm, &empty_tlb(), None)
    }

    fn spt_root(&self) -> HostFrame {
        self.vmm.spt_root(self.pid).expect("technique keeps a spt")
    }

    /// The frame of the shadow table page holding [`VA`]'s entry at
    /// `level`, found by walking the shadow tree with raw reads.
    fn spt_table_at(&self, level: Level) -> HostFrame {
        let va = GuestVirtAddr::new(VA);
        let mut frame = self.spt_root();
        for l in Level::top().walk_order() {
            if l == level {
                return frame;
            }
            let pte = self.mem.read_pte(frame, va.index(l));
            assert!(pte.is_present(), "walk path to {level:?} is materialized");
            frame = pte.host_frame();
        }
        unreachable!("level is on the walk path");
    }

    /// A root-table slot no fixture address uses (VA has L4 index 0).
    fn free_root_slot(&self) -> usize {
        511
    }
}

fn assert_fires(report: &LintReport, code: LintCode) {
    assert!(
        report.count(code) >= 1,
        "expected {code:?} to fire, got:\n{}",
        report.render()
    );
}

// ---------------------------------------------------------------------
// Clean baselines: the hand-built states are diagnostic-free before any
// corruption, for every technique that keeps a shadow structure.
// ---------------------------------------------------------------------

#[test]
fn hand_built_states_are_clean() {
    for technique in [
        Technique::Native,
        Technique::Shadow,
        Technique::Agile(AgileOptions::default()),
    ] {
        for (guest_writable, write_access) in [(true, true), (true, false), (false, false)] {
            let f = Fixture::new(technique, guest_writable, write_access);
            let report = f.lint();
            assert!(
                report.is_clean(),
                "{technique:?} writable={guest_writable} write={write_access}:\n{}",
                report.render()
            );
            if matches!(technique, Technique::Native) {
                assert_eq!(f.vmm.trap_stats().total_traps(), 0, "Native never traps");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Part A fixtures, one per code.
// ---------------------------------------------------------------------

#[test]
fn orphan_frame_fires() {
    let mut f = Fixture::new(Technique::Shadow, true, true);
    // A table page allocated behind the VMM's back is reachable from
    // nothing: a leak.
    let _ = f.mem.alloc_table_page();
    assert_fires(&f.lint(), LintCode::OrphanFrame);
}

#[test]
fn multi_owned_frame_fires() {
    let mut f = Fixture::new(Technique::Shadow, true, true);
    // Aliasing the host tree into the shadow tree: the host root gains an
    // interior entry pointing at the shadow root, so the shadow pages are
    // claimed by both owners.
    let sptr = f.spt_root();
    let hptr = f.vmm.hptr();
    f.mem.write_pte(hptr, f.free_root_slot(), Pte::table(sptr));
    let report = f.lint();
    assert_fires(&report, LintCode::MultiOwnedFrame);
    // The host walk reaches the shadow root and the shadow pages above
    // the leaf table; each renders its owners in claim order.
    let details: Vec<&str> = report
        .diags
        .iter()
        .filter(|d| d.code == LintCode::MultiOwnedFrame)
        .map(|d| d.detail.as_str())
        .collect();
    assert_eq!(
        details,
        vec!["table page claimed by 2 owners: host-table, shadow(pid 1)"; 3]
    );

    // The guest leaf table's backing, wired in as the child of a host L2
    // page and of the shadow L2 page (both walks see it as an L1 page and
    // stop there), is claimed by all three owner kinds in claim order:
    // host tree, shadow tree, registered guest table.
    let va = GuestVirtAddr::new(VA);
    let mut gtable = f.vmm.gpt_root(f.pid).expect("process has a guest root");
    for level in [Level::L4, Level::L3, Level::L2] {
        let backing = f.vmm.backing(gtable).expect("guest tables are backed");
        gtable = GuestFrame::new(f.mem.read_pte(backing, va.index(level)).frame_raw());
    }
    let gleaf = f.vmm.backing(gtable).expect("guest tables are backed");
    let (data, _) = f.vmm.gpt_lookup(&f.mem, f.pid, VA).expect("VA is mapped");
    let gpa = GuestVirtAddr::new(data.frame_raw() << 12);
    let mut host_l2 = f.vmm.hptr();
    for level in [Level::L4, Level::L3] {
        host_l2 = f.mem.read_pte(host_l2, gpa.index(level)).host_frame();
    }
    let slot = f.free_root_slot();
    f.mem.write_pte(host_l2, slot, Pte::table(gleaf));
    f.mem
        .write_pte(f.spt_table_at(Level::L2), slot, Pte::table(gleaf));
    let report = f.lint();
    let diag = report
        .diags
        .iter()
        .find(|d| d.code == LintCode::MultiOwnedFrame && d.frame == Some(gleaf))
        .expect("the guest leaf table's backing is multi-owned");
    assert_eq!(gtable, GuestFrame::new(5));
    assert_eq!(
        diag.detail,
        "table page claimed by 3 owners: host-table, shadow(pid 1), guest-table 0x5"
    );
}

#[test]
fn dangling_table_pointer_fires() {
    let mut f = Fixture::new(Technique::Shadow, true, true);
    // An interior shadow entry pointing at a frame that is not a live
    // table page (e.g. freed and since reused for data).
    let sptr = f.spt_root();
    f.mem
        .write_pte(sptr, f.free_root_slot(), Pte::table(HostFrame::new(0xdead)));
    assert_fires(&f.lint(), LintCode::DanglingTablePointer);
}

#[test]
fn unbacked_guest_table_fires() {
    let mut f = Fixture::new(Technique::Shadow, true, true);
    // Free the host backing of a registered guest page-table page out
    // from under it.
    let victim = *f
        .vmm
        .guest_table_frames()
        .last()
        .expect("guest tables exist");
    let backing = f.vmm.backing(victim).expect("registered pages are backed");
    f.mem.free_table_page(backing);
    assert_fires(&f.lint(), LintCode::UnbackedGuestTable);
}

#[test]
fn shadow_frame_mismatch_fires() {
    let mut f = Fixture::new(Technique::Shadow, true, true);
    // Retarget the shadow leaf one frame off the guest∘host composition.
    let l1 = f.spt_table_at(Level::L1);
    let idx = GuestVirtAddr::new(VA).index(Level::L1);
    let pte = f.mem.read_pte(l1, idx);
    f.mem
        .write_pte(l1, idx, Pte::new(pte.frame_raw() + 1, pte.flags()));
    assert_fires(&f.lint(), LintCode::ShadowFrameMismatch);
}

#[test]
fn shadow_perm_exceeds_fires() {
    // Guest maps the page read-only; force the shadow leaf writable.
    let mut f = Fixture::new(Technique::Shadow, false, false);
    let l1 = f.spt_table_at(Level::L1);
    let idx = GuestVirtAddr::new(VA).index(Level::L1);
    let pte = f.mem.read_pte(l1, idx);
    f.mem.write_pte(l1, idx, pte.with_flags(PteFlags::WRITABLE));
    assert_fires(&f.lint(), LintCode::ShadowPermExceeds);
}

#[test]
fn ad_bit_inconsistent_fires() {
    // Read-faulted page: the guest leaf is clean. A dirty shadow leaf
    // means the dirty-tracking protocol was bypassed.
    let mut f = Fixture::new(Technique::Shadow, true, false);
    let l1 = f.spt_table_at(Level::L1);
    let idx = GuestVirtAddr::new(VA).index(Level::L1);
    let pte = f.mem.read_pte(l1, idx);
    f.mem.write_pte(l1, idx, pte.with_flags(PteFlags::DIRTY));
    assert_fires(&f.lint(), LintCode::AdBitInconsistent);
}

#[test]
fn switching_bit_forbidden_fires() {
    // Pure shadow paging never sets the switching bit.
    let mut f = Fixture::new(Technique::Shadow, true, true);
    let target = f
        .vmm
        .backing(f.vmm.gpt_root(f.pid).expect("process exists"))
        .expect("root is backed");
    let sptr = f.spt_root();
    f.mem.write_pte(
        sptr,
        f.free_root_slot(),
        Pte::new(target.raw(), PteFlags::PRESENT.union(PteFlags::SWITCHING)),
    );
    assert_fires(&f.lint(), LintCode::SwitchingBitForbidden);
}

#[test]
fn switching_target_invalid_fires() {
    // Agile allows switching entries — but they must point at the backing
    // of a nested-mode guest table page, not at arbitrary memory.
    let mut f = Fixture::new(Technique::Agile(AgileOptions::default()), true, true);
    let sptr = f.spt_root();
    f.mem.write_pte(
        sptr,
        f.free_root_slot(),
        Pte::new(0x9999, PteFlags::PRESENT.union(PteFlags::SWITCHING)),
    );
    assert_fires(&f.lint(), LintCode::SwitchingTargetInvalid);
}

#[test]
fn shadow_below_switching_fires() {
    // A switching entry whose target is shadow-owned table memory: shadow
    // entries survive strictly below the switching bit (paper Figure 3
    // forbids a shadow suffix under a nested prefix).
    let mut f = Fixture::new(Technique::Agile(AgileOptions::default()), true, true);
    let shadow_l3 = f.spt_table_at(Level::L3);
    let sptr = f.spt_root();
    f.mem.write_pte(
        sptr,
        f.free_root_slot(),
        Pte::new(
            shadow_l3.raw(),
            PteFlags::PRESENT.union(PteFlags::SWITCHING),
        ),
    );
    assert_fires(&f.lint(), LintCode::ShadowBelowSwitching);
}

#[test]
fn mode_partition_fires() {
    // Corrupt the VMM's metadata so the guest root claims nested mode
    // while its child page is still synced: a walk path switching back
    // from the nested suffix to a shadow prefix.
    let mut f = Fixture::new(Technique::Agile(AgileOptions::default()), true, true);
    let root = f.vmm.gpt_root(f.pid).expect("process exists");
    assert!(f
        .vmm
        .chaos_corrupt_page_mode(f.pid, root, GptPageMode::Nested));
    assert_fires(&f.lint(), LintCode::ModePartition);
}

#[test]
fn huge_alias_conflict_fires_for_oversized_leaf() {
    // Replace the L2 interior entry with a 2 MiB huge leaf while the
    // guest maps only a 4 KiB page: the shadow span exceeds the effective
    // guest ∩ host size.
    let mut f = Fixture::new(Technique::Shadow, true, true);
    let l2 = f.spt_table_at(Level::L2);
    let idx = GuestVirtAddr::new(VA).index(Level::L2);
    let l1_leaf = f.mem.read_pte(f.spt_table_at(Level::L1), 0);
    f.mem
        .write_pte(l2, idx, Pte::leaf(l1_leaf.frame_raw(), true, true));
    assert_fires(&f.lint(), LintCode::HugeAliasConflict);
}

#[test]
fn huge_alias_conflict_fires_for_disagreeing_tlb_overlap() {
    let f = Fixture::new(Technique::Shadow, true, true);
    let mut tlb = empty_tlb();
    let asid = Asid::new(1);
    // A 2 MiB entry and a 4 KiB entry covering the same gVA that
    // translate it differently.
    tlb.fill(
        asid,
        GuestVirtAddr::new(0x20_0000),
        TlbEntry::new(HostFrame::new(0x100), PageSize::Size2M, true),
    );
    tlb.fill(
        asid,
        GuestVirtAddr::new(0x20_3000),
        TlbEntry::new(HostFrame::new(0x999), PageSize::Size4K, true),
    );
    let report = analyze(&f.mem, &f.vmm, &tlb, None);
    assert_fires(&report, LintCode::HugeAliasConflict);
}

#[test]
fn agreeing_tlb_overlap_is_clean() {
    let f = Fixture::new(Technique::Shadow, true, true);
    let mut tlb = empty_tlb();
    let asid = Asid::new(1);
    tlb.fill(
        asid,
        GuestVirtAddr::new(0x20_0000),
        TlbEntry::new(HostFrame::new(0x100), PageSize::Size2M, true),
    );
    // 4 KiB entry consistent with the huge mapping (0x100 + 3 pages).
    tlb.fill(
        asid,
        GuestVirtAddr::new(0x20_3000),
        TlbEntry::new(HostFrame::new(0x103), PageSize::Size4K, false),
    );
    let report = analyze(&f.mem, &f.vmm, &tlb, None);
    assert!(report.is_clean(), "{}", report.render());
}

// ---------------------------------------------------------------------
// Part B fixtures through the full analyze() entry point.
// ---------------------------------------------------------------------

#[test]
fn missed_shootdown_reuse_fires_through_analyze() {
    let f = Fixture::new(Technique::Shadow, true, true);
    let mut log = ShootdownLog::new();
    log.push(ShootdownEvent::Dropped {
        access: 5,
        batch: 1,
        scope: FlushScope {
            asid: 1,
            start: VA,
            len: 0x1000,
        },
    });
    log.push(ShootdownEvent::FrameFreed {
        access: 5,
        batch: 1,
        frame: HostFrame::new(42),
    });
    log.push(ShootdownEvent::FrameReused {
        access: 9,
        frame: HostFrame::new(77),
    });
    let report = analyze(&f.mem, &f.vmm, &empty_tlb(), Some(&log));
    assert_fires(&report, LintCode::MissedShootdownReuse);
}

#[test]
fn shootdown_never_applied_fires_through_analyze() {
    let f = Fixture::new(Technique::Shadow, true, true);
    let mut log = ShootdownLog::new();
    log.push(ShootdownEvent::Deferred {
        access: 5,
        batch: 1,
        due: 500,
        scope: FlushScope::asid_full(1),
    });
    log.push(ShootdownEvent::FrameFreed {
        access: 5,
        batch: 1,
        frame: HostFrame::new(42),
    });
    let report = analyze(&f.mem, &f.vmm, &empty_tlb(), Some(&log));
    assert_fires(&report, LintCode::ShootdownNeverApplied);
    assert!(!report.has_errors(), "an open window without reuse warns");
}

#[test]
fn fully_applied_protocol_is_clean() {
    let f = Fixture::new(Technique::Shadow, true, true);
    let mut log = ShootdownLog::new();
    log.push(ShootdownEvent::Requested {
        access: 5,
        batch: 1,
        scope: FlushScope::asid_full(1),
    });
    log.push(ShootdownEvent::FrameFreed {
        access: 5,
        batch: 1,
        frame: HostFrame::new(42),
    });
    log.push(ShootdownEvent::Applied {
        access: 5,
        scope: FlushScope::asid_full(1),
    });
    log.push(ShootdownEvent::FrameReused {
        access: 9,
        frame: HostFrame::new(77),
    });
    let report = analyze(&f.mem, &f.vmm, &empty_tlb(), Some(&log));
    assert!(report.is_clean(), "{}", report.render());
}
