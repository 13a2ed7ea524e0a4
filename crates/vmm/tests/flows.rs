//! End-to-end VMM flows: walks through real tables with fault handling,
//! interception accounting, agile conversions, and the SHSP baseline.

use agile_mem::PhysMem;
use agile_tlb::{NestedTlb, PageWalkCaches, PwcConfig};
use agile_types::{AccessKind, Asid, Fault, Level, PageSize, ProcessId, PteFlags, VmId};
use agile_vmm::{
    AgileOptions, FaultOutcome, GptPageMode, HwRoots, NestedToShadowPolicy, ShspMode, Technique,
    Vmm, VmtrapKind,
};
use agile_walk::{WalkHw, WalkKind, WalkOk, WalkStats};

struct Rig {
    mem: PhysMem,
    vmm: Vmm,
    pwc: PageWalkCaches,
    ntlb: NestedTlb,
    stats: WalkStats,
    pid: ProcessId,
}

impl Rig {
    fn new(technique: Technique) -> Self {
        Self::with_pwc(technique, PwcConfig::disabled())
    }

    fn with_pwc(technique: Technique, pwc_cfg: PwcConfig) -> Self {
        let mut mem = PhysMem::new();
        let mut vmm = Vmm::new(&mut mem, technique);
        let pid = ProcessId::new(1);
        vmm.create_process(&mut mem, pid);
        Rig {
            mem,
            vmm,
            pwc: PageWalkCaches::new(&pwc_cfg),
            ntlb: NestedTlb::new(&pwc_cfg),
            stats: WalkStats::default(),
            pid,
        }
    }

    fn map_page(&mut self, gva: u64) {
        let g = self.vmm.alloc_guest_frame(&mut self.mem);
        self.vmm.gpt_map(
            &mut self.mem,
            self.pid,
            gva,
            g,
            PageSize::Size4K,
            PteFlags::WRITABLE,
        );
    }

    /// One hardware access: walk, let the VMM fix faults, retry. Returns
    /// the final result or the guest-visible fault.
    fn access(&mut self, gva: u64, access: AccessKind) -> Result<WalkOk, Fault> {
        let asid = Asid::from(self.pid);
        for _ in 0..16 {
            let HwRoots { cr3, gptr, hptr } = self.vmm.hw_roots(self.pid);
            let mut hw = WalkHw {
                mem: &mut self.mem,
                pwc: &mut self.pwc,
                ntlb: &mut self.ntlb,
                vm: VmId::new(0),
                stats: &mut self.stats,
            };
            let va = agile_types::GuestVirtAddr::new(gva);
            let outcome = hw.agile_walk(asid, va, cr3, gptr, hptr, access);
            match outcome {
                Ok(ok) => return Ok(ok),
                Err(fault @ Fault::GuestPageFault { .. }) => return Err(fault),
                Err(fault) => match self.vmm.handle_fault(&mut self.mem, self.pid, fault) {
                    FaultOutcome::Fixed => {
                        for req in self.vmm.take_pending_flushes() {
                            match req {
                                agile_vmm::FlushRequest::Asid(a) => self.pwc.flush_asid(a),
                                agile_vmm::FlushRequest::Range { asid, start, len } => {
                                    self.pwc.invalidate_range(asid, start, len)
                                }
                                agile_vmm::FlushRequest::NtlbFrame(g) => {
                                    self.ntlb.invalidate(agile_types::VmId::new(0), g)
                                }
                            }
                        }
                        continue;
                    }
                    FaultOutcome::ReflectToGuest(f) => return Err(f),
                },
            }
        }
        panic!("access did not converge");
    }

    fn traps(&self, kind: VmtrapKind) -> u64 {
        self.vmm.trap_stats().count(kind)
    }
}

const GVA: u64 = 0x7f00_2000_0000;

#[test]
fn shadow_hidden_fault_builds_then_walks_at_4_refs() {
    let mut rig = Rig::new(Technique::Shadow);
    rig.map_page(GVA);
    let r = rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(r.kind, WalkKind::FullShadow);
    assert_eq!(rig.traps(VmtrapKind::HiddenPageFault), 1);
    // Steady state: a clean 4-reference walk, no further traps.
    let before = rig.vmm.trap_stats().total_traps();
    let r2 = rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(r2.refs, 4);
    assert_eq!(rig.vmm.trap_stats().total_traps(), before);
}

#[test]
fn shadow_dirty_bit_trick_costs_one_ad_sync() {
    let mut rig = Rig::new(Technique::Shadow);
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Read).unwrap();
    // First write: shadow leaf was read-only; AdBitSync trap upgrades it.
    rig.access(GVA, AccessKind::Write).unwrap();
    assert_eq!(rig.traps(VmtrapKind::AdBitSync), 1);
    // Guest dirty bit is now set.
    let (gpte, _) = rig.vmm.gpt_lookup(&rig.mem, rig.pid, GVA).unwrap();
    assert!(gpte.flags().contains(PteFlags::DIRTY));
    // Second write: no new trap.
    rig.access(GVA, AccessKind::Write).unwrap();
    assert_eq!(rig.traps(VmtrapKind::AdBitSync), 1);
}

#[test]
fn shadow_gpt_writes_trap_then_unsync_absorbs() {
    let mut rig = Rig::new(Technique::Shadow);
    // Building a fresh path is direct: nothing is shadowed yet.
    rig.map_page(GVA);
    assert_eq!(rig.traps(VmtrapKind::GptWrite), 0);
    // First use shadows (and write-protects) the path.
    rig.access(GVA, AccessKind::Read).unwrap();
    // Now an update into the shadowed leaf-level page traps and unsyncs it;
    // further updates to the same page are absorbed.
    rig.map_page(GVA + 0x1000);
    assert_eq!(rig.traps(VmtrapKind::GptWrite), 1);
    rig.map_page(GVA + 0x2000);
    assert_eq!(rig.traps(VmtrapKind::GptWrite), 1);
    assert_eq!(rig.vmm.counters().unsyncs, 1);
    // A guest TLB flush resyncs the page in place: it is write-protected
    // again, so the next update traps immediately.
    rig.vmm.guest_tlb_flush(&mut rig.mem, rig.pid);
    assert_eq!(rig.traps(VmtrapKind::TlbFlush), 1);
    assert_eq!(rig.vmm.counters().resyncs, 1);
    rig.map_page(GVA + 0x3000);
    assert_eq!(rig.traps(VmtrapKind::GptWrite), 2);
    // And the reconciled shadow entries still translate correctly.
    let r = rig.access(GVA + 0x1000, AccessKind::Read).unwrap();
    assert_eq!(r.kind, WalkKind::FullShadow);
}

#[test]
fn nested_updates_are_direct_and_walks_cost_24() {
    let mut rig = Rig::new(Technique::Nested);
    rig.map_page(GVA);
    rig.map_page(GVA + 0x1000);
    assert_eq!(rig.vmm.trap_stats().count(VmtrapKind::GptWrite), 0);
    assert_eq!(rig.vmm.counters().gpt_writes_direct, 2);
    let r = rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(r.refs, 24);
    // EPT violations filled the host table on demand.
    assert!(rig.traps(VmtrapKind::EptViolation) >= 1);
    let before = rig.traps(VmtrapKind::EptViolation);
    rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(rig.traps(VmtrapKind::EptViolation), before);
}

#[test]
fn native_is_trap_free_and_4_refs() {
    let mut rig = Rig::new(Technique::Native);
    rig.map_page(GVA);
    let r = rig.access(GVA, AccessKind::Write).unwrap();
    assert_eq!(r.refs, 4);
    assert_eq!(r.kind, WalkKind::Native);
    assert_eq!(rig.vmm.trap_stats().total_cycles(), 0);
}

#[test]
fn agile_two_writes_move_leaf_subtree_to_nested() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions::without_hw_opts()));
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, GVA, Level::L1),
        Some(GptPageMode::Synced)
    );
    // First update to the shadowed leaf page: trap + unsync.
    rig.map_page(GVA + 0x1000);
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, GVA, Level::L1),
        Some(GptPageMode::Unsynced)
    );
    // Second detected write crosses the bimodal threshold: nested mode.
    rig.map_page(GVA + 0x2000);
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, GVA, Level::L1),
        Some(GptPageMode::Nested)
    );
    assert_eq!(rig.vmm.counters().to_nested, 1);
    // Subsequent updates to that page are direct.
    let traps_before = rig.traps(VmtrapKind::GptWrite);
    rig.map_page(GVA + 0x3000);
    assert_eq!(rig.traps(VmtrapKind::GptWrite), traps_before);
    // And the walk now switches at the deepest level: 8 references.
    let r = rig.access(GVA + 0x1000, AccessKind::Read).unwrap();
    assert_eq!(r.refs, 8, "leaf-nested agile walk");
    assert_eq!(r.kind, WalkKind::Switched { nested_levels: 1 });
}

#[test]
fn agile_dirty_scan_reverts_quiet_pages() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions {
        nested_to_shadow: NestedToShadowPolicy::DirtyBitScan,
        ..AgileOptions::without_hw_opts()
    }));
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Read).unwrap(); // shadow the path
    rig.map_page(GVA + 0x1000); // trap + unsync
    rig.map_page(GVA + 0x2000); // second detected write → nested
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, GVA, Level::L1),
        Some(GptPageMode::Nested)
    );
    // Interval 1: the page was written this interval (the converting map
    // dirtied it in the host table), so it stays nested; the tick clears
    // the bit.
    rig.access(GVA, AccessKind::Read).unwrap();
    rig.vmm.interval_tick(&mut rig.mem, 0);
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, GVA, Level::L1),
        Some(GptPageMode::Nested),
        "dirty page stays nested"
    );
    // Interval 2: no writes happened; the page reverts to shadow mode.
    rig.vmm.interval_tick(&mut rig.mem, 0);
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, GVA, Level::L1),
        Some(GptPageMode::Synced)
    );
    assert!(rig.vmm.counters().to_shadow >= 1);
    // Walks are fully shadow again (after a resync hidden fault).
    rig.access(GVA, AccessKind::Read).unwrap();
    let r = rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(r.refs, 4);
    assert_eq!(r.kind, WalkKind::FullShadow);
}

#[test]
fn agile_periodic_reset_reverts_everything() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions {
        nested_to_shadow: NestedToShadowPolicy::PeriodicReset,
        ..AgileOptions::without_hw_opts()
    }));
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Read).unwrap();
    rig.map_page(GVA + 0x1000);
    rig.map_page(GVA + 0x2000);
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, GVA, Level::L1),
        Some(GptPageMode::Nested)
    );
    rig.vmm.interval_tick(&mut rig.mem, 0);
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, GVA, Level::L1),
        Some(GptPageMode::Synced)
    );
}

#[test]
fn agile_hw_ad_skips_ad_sync_traps() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions {
        hw_ad_bits: true,
        ..AgileOptions::default()
    }));
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Read).unwrap();
    rig.access(GVA, AccessKind::Write).unwrap();
    assert_eq!(rig.traps(VmtrapKind::AdBitSync), 0);
}

#[test]
fn agile_start_in_nested_engages_shadow_after_interval() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions {
        start_in_nested: true,
        ..AgileOptions::without_hw_opts()
    }));
    rig.map_page(GVA);
    let r = rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(r.kind, WalkKind::FullNested);
    assert_eq!(
        rig.traps(VmtrapKind::GptWrite),
        0,
        "nested start is trap-free"
    );
    rig.vmm.interval_tick(&mut rig.mem, 10_000);
    // After engagement: shadow mode, lazy rebuild on next access.
    rig.access(GVA, AccessKind::Read).unwrap();
    let r = rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(r.kind, WalkKind::FullShadow);
}

#[test]
fn context_switch_costs_depend_on_technique() {
    for technique in [Technique::Native, Technique::Nested] {
        let mut rig = Rig::new(technique);
        let pid2 = ProcessId::new(2);
        rig.vmm.create_process(&mut rig.mem, pid2);
        rig.vmm.guest_context_switch(&mut rig.mem, pid2);
        assert_eq!(rig.traps(VmtrapKind::ContextSwitch), 0);
    }
    let mut rig = Rig::new(Technique::Shadow);
    let pid2 = ProcessId::new(2);
    rig.vmm.create_process(&mut rig.mem, pid2);
    rig.vmm.guest_context_switch(&mut rig.mem, pid2);
    assert_eq!(rig.traps(VmtrapKind::ContextSwitch), 1);
}

#[test]
fn agile_ctx_cache_absorbs_repeat_switches() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions {
        hw_ctx_cache: true,
        ctx_cache_entries: 4,
        ..AgileOptions::default()
    }));
    let pid2 = ProcessId::new(2);
    rig.vmm.create_process(&mut rig.mem, pid2);
    // First switches miss the cache and trap; after that they hit.
    rig.vmm.guest_context_switch(&mut rig.mem, pid2);
    rig.vmm.guest_context_switch(&mut rig.mem, rig.pid);
    let cold = rig.traps(VmtrapKind::ContextSwitch);
    assert!(cold >= 1);
    for _ in 0..10 {
        rig.vmm.guest_context_switch(&mut rig.mem, pid2);
        rig.vmm.guest_context_switch(&mut rig.mem, rig.pid);
    }
    assert_eq!(rig.traps(VmtrapKind::ContextSwitch), cold);
    assert!(rig.vmm.counters().ctx_cache_hits >= 20);
}

#[test]
fn shsp_switches_whole_process_and_charges_rebuild() {
    let mut rig = Rig::new(Technique::Shsp(agile_vmm::ShspOptions {
        tlb_miss_threshold: 10,
        pt_update_threshold: 5,
    }));
    assert_eq!(rig.vmm.shsp_mode(), Some(ShspMode::Nested));
    for i in 0..4 {
        rig.map_page(GVA + i * 0x1000);
    }
    assert_eq!(rig.traps(VmtrapKind::GptWrite), 0, "nested phase: direct");
    let r = rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(r.refs, 24);
    // Lots of TLB misses, little churn: controller switches to shadow and
    // pays the wholesale rebuild.
    rig.vmm.interval_tick(&mut rig.mem, 1_000_000);
    assert_eq!(rig.vmm.shsp_mode(), Some(ShspMode::Shadow));
    assert!(rig.traps(VmtrapKind::ShadowRebuild) >= 4);
    let r = rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(r.refs, 4, "shadow phase walks at native speed");
    // Update storm: back to nested.
    for i in 0..20 {
        rig.map_page(GVA + (0x100 + i) * 0x1000);
    }
    rig.vmm.interval_tick(&mut rig.mem, 1_000_000);
    assert_eq!(rig.vmm.shsp_mode(), Some(ShspMode::Nested));
    let r = rig.access(GVA, AccessKind::Read).unwrap();
    assert_eq!(r.refs, 24);
}

#[test]
fn reflected_faults_reach_the_guest() {
    let mut rig = Rig::new(Technique::Shadow);
    // No guest mapping at all: the shadow fault must be reflected as a
    // guest fault at the level where the guest walk broke.
    let err = rig.access(GVA, AccessKind::Read).unwrap_err();
    assert!(matches!(err, Fault::GuestPageFault { .. }));
    assert_eq!(rig.traps(VmtrapKind::GuestFaultReflection), 1);
}

#[test]
fn agile_interior_conversion_switches_higher() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions::without_hw_opts()));
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Read).unwrap();
    // Two interior (L2-entry) edits: remap 2M-aligned subtrees so the L2
    // *table page* gets written twice.
    let far = GVA + 4 * PageSize::Size2M.bytes();
    rig.map_page(far); // write 1 to the L2 page (new L1 table installed)
    let far2 = GVA + 5 * PageSize::Size2M.bytes();
    rig.map_page(far2); // write 2 to the L2 page
                        // The L2 page went nested, so walks under it switch with 2 nested
                        // levels → 12 references.
    let r = rig.access(far2, AccessKind::Read).unwrap();
    assert_eq!(r.kind, WalkKind::Switched { nested_levels: 2 });
    assert_eq!(r.refs, 12);
}

#[test]
fn huge_pages_flow_through_all_techniques() {
    for technique in [
        Technique::Native,
        Technique::Nested,
        Technique::Shadow,
        Technique::Agile(AgileOptions::default()),
    ] {
        let mut rig = Rig::new(technique);
        let gva = 64 * PageSize::Size2M.bytes();
        let g = rig
            .vmm
            .alloc_guest_frame_huge(&mut rig.mem, PageSize::Size2M);
        rig.vmm.gpt_map(
            &mut rig.mem,
            rig.pid,
            gva,
            g,
            PageSize::Size2M,
            PteFlags::WRITABLE,
        );
        let r = rig.access(gva + 0x12_3456, AccessKind::Read).unwrap();
        assert_eq!(r.size, PageSize::Size2M, "technique {technique:?}");
        assert!(r.refs <= 18);
    }
}
