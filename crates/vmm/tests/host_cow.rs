//! VMM-side content-based page sharing (paper §V): the VMM reclaims
//! duplicate pages by pointing their host-table entries at one shared,
//! read-only frame; writes break the sharing with an EPT-level
//! copy-on-write.

use agile_mem::PhysMem;
use agile_tlb::{NestedTlb, PageWalkCaches, PwcConfig};
use agile_types::{AccessKind, Asid, Fault, GuestVirtAddr, PageSize, ProcessId, PteFlags, VmId};
use agile_vmm::{AgileOptions, FaultOutcome, FlushRequest, HwRoots, Technique, Vmm, VmtrapKind};
use agile_walk::{WalkHw, WalkOk, WalkStats};

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
        let cfg = PwcConfig::default();
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
        // The machine drains shootdowns after every OS operation; this rig
        // must too (the page walk caches are enabled here).
        self.drain();
    }

    fn drain(&mut self) {
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
            let va = GuestVirtAddr::new(gva);
            let out = hw.agile_walk(asid, va, cr3, gptr, hptr, access);
            match out {
                Ok(ok) => return Ok(ok),
                Err(f @ Fault::GuestPageFault { .. }) => return Err(f),
                Err(f) => match self.vmm.handle_fault(&mut self.mem, self.pid, f) {
                    FaultOutcome::Fixed => self.drain(),
                    FaultOutcome::ReflectToGuest(f) => return Err(f),
                },
            }
        }
        panic!("no convergence");
    }
}

const GVA: u64 = 0x7100_0000_0000;

fn setup(technique: Technique) -> Rig {
    let mut rig = Rig::new(technique);
    for i in 0..4u64 {
        rig.map_page(GVA + i * 0x1000);
        rig.access(GVA + i * 0x1000, AccessKind::Read).unwrap();
    }
    rig
}

#[test]
fn shared_pages_translate_to_one_frame() {
    for technique in [
        Technique::Nested,
        Technique::Shadow,
        Technique::Agile(AgileOptions::default()),
    ] {
        let mut rig = setup(technique);
        let gvas: Vec<u64> = (0..4).map(|i| GVA + i * 0x1000).collect();
        let reclaimed = rig.vmm.host_share(&mut rig.mem, rig.pid, &gvas);
        assert_eq!(reclaimed, 3, "{technique:?}");
        rig.drain();
        let frames: Vec<_> = gvas
            .iter()
            .map(|g| rig.access(*g, AccessKind::Read).unwrap().frame)
            .collect();
        assert!(
            frames.iter().all(|f| *f == frames[0]),
            "{technique:?}: all shares must resolve to the canonical frame: {frames:?}"
        );
    }
}

#[test]
fn write_breaks_sharing_with_an_ept_cow() {
    for technique in [
        Technique::Nested,
        Technique::Shadow,
        Technique::Agile(AgileOptions::default()),
    ] {
        let mut rig = setup(technique);
        let gvas: Vec<u64> = (0..4).map(|i| GVA + i * 0x1000).collect();
        rig.vmm.host_share(&mut rig.mem, rig.pid, &gvas);
        rig.drain();
        let shared = rig.access(GVA, AccessKind::Read).unwrap().frame;
        let ept_before = rig.vmm.trap_stats().count(VmtrapKind::EptViolation);
        // Write to one share: the VMM must break the sharing.
        let broken = rig.access(GVA + 0x1000, AccessKind::Write).unwrap().frame;
        assert_ne!(
            broken, shared,
            "{technique:?}: write must get a private frame"
        );
        assert!(
            rig.vmm.trap_stats().count(VmtrapKind::EptViolation) > ept_before,
            "{technique:?}: the break is an EPT-level VMexit"
        );
        // The other shares still read the canonical frame.
        let still = rig.access(GVA + 0x2000, AccessKind::Read).unwrap().frame;
        assert_eq!(still, shared, "{technique:?}");
        // And the broken page stays writable without further exits.
        let after = rig.vmm.trap_stats().total_traps();
        rig.access(GVA + 0x1000, AccessKind::Write).unwrap();
        assert_eq!(rig.vmm.trap_stats().total_traps(), after, "{technique:?}");
    }
}

#[test]
fn host_share_under_pure_nested_still_emits_the_gva_shootdown() {
    // Regression: with no shadow table (pure nested mode, `proc.spt` is
    // None), the shadow-leaf drop path used to early-return without
    // emitting its range shootdown — but a nested guest's TLB caches
    // gva⇒hPA just the same, and host_share changes that mapping. The
    // flush must be emitted regardless of shadow state.
    let mut rig = setup(Technique::Nested);
    let gvas: Vec<u64> = (0..4).map(|i| GVA + i * 0x1000).collect();
    rig.vmm.host_share(&mut rig.mem, rig.pid, &gvas);
    let flushes = rig.vmm.take_pending_flushes();
    for gva in &gvas {
        assert!(
            flushes.iter().any(|req| matches!(
                req,
                FlushRequest::Range { start, len, .. } if *start <= *gva && *gva < *start + *len
            )),
            "a range shootdown must cover {gva:#x}: {flushes:?}"
        );
    }
}

#[test]
fn stale_translation_caches_cannot_leak_the_old_frame() {
    let mut rig = setup(Technique::Nested);
    // Warm the NTLB with the private frames.
    let private = rig.access(GVA + 0x1000, AccessKind::Read).unwrap().frame;
    let gvas: Vec<u64> = (0..4).map(|i| GVA + i * 0x1000).collect();
    rig.vmm.host_share(&mut rig.mem, rig.pid, &gvas);
    rig.drain();
    // After sharing, the walk must see the shared frame, not the cached
    // private one.
    let now = rig.access(GVA + 0x1000, AccessKind::Read).unwrap().frame;
    assert_ne!(now, private);
    let canonical = rig.access(GVA, AccessKind::Read).unwrap().frame;
    assert_eq!(now, canonical);
}
