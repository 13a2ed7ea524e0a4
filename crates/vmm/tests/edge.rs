//! Edge-path tests for the VMM: eager SHSP rebuilds, context-pointer-cache
//! eviction, reconcile-under-option variants, interior-level reverts, and
//! invlpg interception branches.

use agile_mem::PhysMem;
use agile_tlb::{NestedTlb, PageWalkCaches, PwcConfig};
use agile_types::{
    AccessKind, Asid, Fault, GuestVirtAddr, Level, PageSize, ProcessId, PteFlags, VmId,
};
use agile_vmm::{
    AgileOptions, FaultOutcome, FlushRequest, GptPageMode, HwRoots, ShspMode, ShspOptions,
    Technique, Vmm, VmtrapKind,
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
        let mut mem = PhysMem::new();
        let mut vmm = Vmm::new(&mut mem, technique);
        let pid = ProcessId::new(1);
        vmm.create_process(&mut mem, pid);
        let cfg = PwcConfig::disabled();
        Rig {
            mem,
            vmm,
            pwc: PageWalkCaches::new(&cfg),
            ntlb: NestedTlb::new(&cfg),
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

    fn access(&mut self, gva: u64, access: AccessKind) -> Result<WalkOk, Fault> {
        self.access_as(self.pid, gva, access)
    }

    fn access_as(&mut self, pid: ProcessId, gva: u64, access: AccessKind) -> Result<WalkOk, Fault> {
        let asid = Asid::from(pid);
        for _ in 0..16 {
            let HwRoots { cr3, gptr, hptr } = self.vmm.hw_roots(pid);
            let mut hw = WalkHw {
                mem: &mut self.mem,
                pwc: &mut self.pwc,
                ntlb: &mut self.ntlb,
                vm: VmId::new(0),
                stats: &mut self.stats,
            };
            let va = GuestVirtAddr::new(gva);
            let out = hw.agile_walk(asid, va, cr3, gptr, hptr, access);
            match out {
                Ok(ok) => return Ok(ok),
                Err(f @ Fault::GuestPageFault { .. }) => return Err(f),
                Err(f) => match self.vmm.handle_fault(&mut self.mem, pid, f) {
                    FaultOutcome::Fixed => {
                        for req in self.vmm.take_pending_flushes() {
                            match req {
                                FlushRequest::Asid(a) => self.pwc.flush_asid(a),
                                FlushRequest::Range { asid, start, len } => {
                                    self.pwc.invalidate_range(asid, start, len)
                                }
                                FlushRequest::NtlbFrame(g) => self.ntlb.invalidate(VmId::new(0), g),
                            }
                        }
                    }
                    FaultOutcome::ReflectToGuest(f) => return Err(f),
                },
            }
        }
        panic!("no convergence");
    }
}

const GVA: u64 = 0x6600_0000_0000;

#[test]
fn shsp_eager_rebuild_translates_without_hidden_faults() {
    let mut rig = Rig::new(Technique::Shsp(ShspOptions {
        tlb_miss_threshold: 10,
        pt_update_threshold: 1_000,
    }));
    for i in 0..32u64 {
        rig.map_page(GVA + i * 0x1000);
        rig.access(GVA + i * 0x1000, AccessKind::Read).unwrap();
    }
    // Force the switch to shadow: big miss count, low churn.
    rig.vmm.interval_tick(&mut rig.mem, 1_000_000);
    assert_eq!(rig.vmm.shsp_mode(), Some(ShspMode::Shadow));
    let hidden_before = rig.vmm.trap_stats().count(VmtrapKind::HiddenPageFault);
    // Every page must translate at 4 refs with no lazy fills: the rebuild
    // was eager.
    for i in 0..32u64 {
        let ok = rig.access(GVA + i * 0x1000, AccessKind::Read).unwrap();
        assert_eq!(ok.refs, 4);
        assert_eq!(ok.kind, WalkKind::FullShadow);
    }
    assert_eq!(
        rig.vmm.trap_stats().count(VmtrapKind::HiddenPageFault),
        hidden_before
    );
}

#[test]
fn ctx_cache_evicts_under_pressure() {
    // More processes than cache entries: switches keep trapping.
    let mut rig = Rig::new(Technique::Agile(AgileOptions {
        hw_ctx_cache: true,
        ctx_cache_entries: 2,
        ..AgileOptions::default()
    }));
    for p in 2..=6u32 {
        rig.vmm.create_process(&mut rig.mem, ProcessId::new(p));
    }
    // Round-robin over 6 processes with a 2-entry cache: every switch
    // misses (LRU thrash).
    for _ in 0..3 {
        for p in 1..=6u32 {
            rig.vmm
                .guest_context_switch(&mut rig.mem, ProcessId::new(p));
        }
    }
    assert_eq!(rig.vmm.counters().ctx_cache_hits, 0);
    assert!(rig.vmm.trap_stats().count(VmtrapKind::ContextSwitch) >= 17);
}

#[test]
fn reconcile_respects_cleared_write_permission() {
    // Under plain shadow (no hw A/D), a page whose guest entry lost its W
    // bit while unsynced must be read-only in the shadow table after
    // resync.
    let mut rig = Rig::new(Technique::Shadow);
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Write).unwrap();
    // Unsync the leaf table with another map, then clear W on page 0.
    rig.map_page(GVA + 0x1000);
    rig.vmm
        .gpt_update(&mut rig.mem, rig.pid, GVA, Level::L1, |p| {
            p.without_flags(PteFlags::WRITABLE)
        });
    rig.vmm.guest_tlb_flush(&mut rig.mem, rig.pid);
    // A write must now reflect to the guest as a protection fault.
    let err = rig.access(GVA, AccessKind::Write).unwrap_err();
    assert!(matches!(err, Fault::GuestPageFault { .. }));
    // Reads still work.
    rig.access(GVA, AccessKind::Read).unwrap();
}

#[test]
fn interior_revert_keeps_descendants_usable() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions::without_hw_opts()));
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Read).unwrap();
    // Two interior (L2-page) edits nest the subtree at 2 levels.
    rig.map_page(GVA + 4 * PageSize::Size2M.bytes());
    rig.map_page(GVA + 5 * PageSize::Size2M.bytes());
    let ok = rig
        .access(GVA + 4 * PageSize::Size2M.bytes(), AccessKind::Read)
        .unwrap();
    assert_eq!(ok.kind, WalkKind::Switched { nested_levels: 2 });
    // Quiet interval: ticks revert parents before children; afterwards all
    // three addresses still translate and end in full shadow.
    rig.vmm.interval_tick(&mut rig.mem, 0);
    rig.vmm.interval_tick(&mut rig.mem, 0);
    for req in rig.vmm.take_pending_flushes() {
        match req {
            FlushRequest::Asid(a) => rig.pwc.flush_asid(a),
            FlushRequest::Range { asid, start, len } => rig.pwc.invalidate_range(asid, start, len),
            FlushRequest::NtlbFrame(g) => rig.ntlb.invalidate(VmId::new(0), g),
        }
    }
    for gva in [
        GVA,
        GVA + 4 * PageSize::Size2M.bytes(),
        GVA + 5 * PageSize::Size2M.bytes(),
    ] {
        let ok = rig.access(gva, AccessKind::Read).unwrap();
        let ok2 = rig.access(gva, AccessKind::Read).unwrap();
        assert_eq!(ok.frame, ok2.frame);
        assert_eq!(ok2.kind, WalkKind::FullShadow, "{gva:#x}");
    }
}

#[test]
fn invlpg_traps_only_where_shadow_state_exists() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions::without_hw_opts()));
    // Shadowed region.
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Read).unwrap();
    // Nested region (two detected writes).
    let nested_gva = GVA + 8 * PageSize::Size2M.bytes();
    rig.map_page(nested_gva);
    rig.access(nested_gva, AccessKind::Read).unwrap();
    rig.map_page(nested_gva + 0x1000);
    rig.map_page(nested_gva + 0x2000);
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, nested_gva, Level::L1),
        Some(GptPageMode::Nested)
    );
    let before = rig.vmm.trap_stats().count(VmtrapKind::TlbFlush);
    rig.vmm.guest_invlpg(&mut rig.mem, rig.pid, nested_gva);
    assert_eq!(
        rig.vmm.trap_stats().count(VmtrapKind::TlbFlush),
        before,
        "invlpg in a nested region must not exit"
    );
    rig.vmm.guest_invlpg(&mut rig.mem, rig.pid, GVA);
    assert_eq!(
        rig.vmm.trap_stats().count(VmtrapKind::TlbFlush),
        before + 1,
        "invlpg in a shadowed region must exit"
    );
}

#[test]
fn nested_technique_never_touches_shadow_machinery() {
    let mut rig = Rig::new(Technique::Nested);
    for i in 0..8u64 {
        rig.map_page(GVA + i * 0x1000);
        rig.access(GVA + i * 0x1000, AccessKind::Write).unwrap();
    }
    rig.vmm.guest_tlb_flush(&mut rig.mem, rig.pid);
    rig.vmm.guest_invlpg(&mut rig.mem, rig.pid, GVA);
    rig.vmm.interval_tick(&mut rig.mem, 1000);
    let s = rig.vmm.trap_stats();
    assert_eq!(s.count(VmtrapKind::GptWrite), 0);
    assert_eq!(s.count(VmtrapKind::HiddenPageFault), 0);
    assert_eq!(s.count(VmtrapKind::TlbFlush), 0);
    assert_eq!(s.count(VmtrapKind::AdBitSync), 0);
    assert!(s.count(VmtrapKind::EptViolation) > 0);
}

#[test]
fn second_process_state_is_independent_under_agile() {
    let mut rig = Rig::new(Technique::Agile(AgileOptions::without_hw_opts()));
    let p2 = ProcessId::new(2);
    rig.vmm.create_process(&mut rig.mem, p2);
    // Nest a region in process 1.
    rig.map_page(GVA);
    rig.access(GVA, AccessKind::Read).unwrap();
    rig.map_page(GVA + 0x1000);
    rig.map_page(GVA + 0x2000);
    assert_eq!(
        rig.vmm.page_mode(&rig.mem, rig.pid, GVA, Level::L1),
        Some(GptPageMode::Nested)
    );
    // Process 2's same virtual range is untouched/unknown.
    assert_eq!(rig.vmm.page_mode(&rig.mem, p2, GVA, Level::L1), None);
    // And process 2 can build its own shadow state there.
    let g = rig.vmm.alloc_guest_frame(&mut rig.mem);
    rig.vmm.gpt_map(
        &mut rig.mem,
        p2,
        GVA,
        g,
        PageSize::Size4K,
        PteFlags::WRITABLE,
    );
    rig.vmm.guest_context_switch(&mut rig.mem, p2);
    let ok = rig.access_as(p2, GVA, AccessKind::Read).unwrap();
    assert_eq!(ok.kind, WalkKind::FullShadow);
}
