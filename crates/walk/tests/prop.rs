//! Randomized tests over the counted walk: for seeded-random guest
//! addresses and switch points, the reference counts obey the paper's
//! closed-form ladder and translations resolve to the right frames.
//! Deterministic (SplitMix64-driven), so every CI run covers the same
//! cases.

use agile_mem::{GuestMemMap, HostSpace, PhysMem, RadixTable, TableSpace};
use agile_tlb::{NestedTlb, PageWalkCaches, PwcConfig};
use agile_types::{
    AccessKind, Asid, GuestFrame, GuestVirtAddr, HostFrame, Level, PageSize, Pte, PteFlags,
    SplitMix64, VmId,
};
use agile_walk::{AgileCr3, WalkHw, WalkKind, WalkStats};
use std::collections::BTreeSet;

struct World {
    mem: PhysMem,
    gmap: GuestMemMap,
    gpt: RadixTable,
    hpt: RadixTable,
    spt: RadixTable,
    pages: Vec<(u64, GuestFrame)>,
}

fn build(vas: &[u64]) -> World {
    let mut mem = PhysMem::new();
    let mut gmap = GuestMemMap::new();
    let mut host = HostSpace;
    let gpt = RadixTable::new(&mut mem, &mut gmap);
    let hpt = RadixTable::new(&mut mem, &mut host);
    let spt = RadixTable::new(&mut mem, &mut host);
    let mut pages = Vec::new();
    for va in vas {
        let g = gmap.alloc_data(&mut mem);
        gpt.map(
            &mut mem,
            &mut gmap,
            *va,
            g.raw(),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
        pages.push((*va, g));
    }
    let frames: Vec<_> = gmap.frames().collect();
    for (g, h) in frames {
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
    for (va, g) in &pages {
        let backing = gmap.backing(*g).unwrap();
        spt.map(
            &mut mem,
            &mut host,
            *va,
            backing.raw(),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
    }
    World {
        mem,
        gmap,
        gpt,
        hpt,
        spt,
        pages,
    }
}

/// 1..count distinct page-aligned addresses below 2^39.
fn vas(rng: &mut SplitMix64, count: u64) -> Vec<u64> {
    let n = rng.range(1, count);
    let mut set = BTreeSet::new();
    while (set.len() as u64) < n {
        set.insert(rng.below(1 << 27) << 12);
    }
    set.into_iter().collect()
}

/// Shadow walks are always 4 references and hit the right frame; nested
/// walks are always 24 (4K, no caches); agile at a random switch level
/// follows (4 - k) + 5k.
#[test]
fn reference_ladder_holds_for_random_addresses() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(SplitMix64::derive(0x1adde5, case));
        let addr_set = vas(&mut rng, 24);
        let switch_idx = rng.below(3) as usize;
        let mut w = build(&addr_set);
        let cfg = PwcConfig::disabled();
        let asid = Asid::new(1);
        let gptr = GuestFrame::new(w.gpt.root_raw());
        let hptr = HostFrame::new(w.hpt.root_raw());
        let sptr = HostFrame::new(w.spt.root_raw());
        let shadow_only = AgileCr3::ShadowOnly { spt_root: sptr };
        let pages = w.pages.clone();
        for (va, g) in &pages {
            let gva = GuestVirtAddr::new(*va);
            let backing = w.gmap.backing(*g).unwrap();
            let mut stats = WalkStats::default();
            let mut pwc = PageWalkCaches::new(&cfg);
            let mut ntlb = NestedTlb::new(&cfg);
            let mut hw = WalkHw {
                mem: &mut w.mem,
                pwc: &mut pwc,
                ntlb: &mut ntlb,
                vm: VmId::new(0),
                stats: &mut stats,
            };
            let s = hw
                .agile_walk(asid, gva, shadow_only, gptr, hptr, AccessKind::Read)
                .unwrap();
            assert_eq!(s.refs, 4);
            assert_eq!(s.frame, backing);
            let mut ntlb2 = NestedTlb::new(&cfg);
            let mut pwc2 = PageWalkCaches::new(&cfg);
            let mut hw = WalkHw {
                mem: &mut w.mem,
                pwc: &mut pwc2,
                ntlb: &mut ntlb2,
                vm: VmId::new(0),
                stats: &mut stats,
            };
            let n = hw
                .agile_walk(
                    asid,
                    gva,
                    AgileCr3::FullNested,
                    gptr,
                    hptr,
                    AccessKind::Read,
                )
                .unwrap();
            assert_eq!(n.refs, 24);
            assert_eq!(n.frame, backing);
        }

        // Pick one address and a switch level; the agile walk must follow
        // the ladder and still translate correctly.
        let (va, g) = pages[pages.len() / 2];
        let level = [Level::L2, Level::L3, Level::L4][switch_idx];
        let child = w
            .gpt
            .table_frame(&w.mem, &w.gmap, va, level.child().unwrap())
            .unwrap();
        let target = w.gmap.resolve(child);
        w.spt.zap_subtree(&mut w.mem, &mut HostSpace, va, level);
        w.spt
            .set_entry(
                &mut w.mem,
                &HostSpace,
                va,
                level,
                Pte::new(target.raw(), PteFlags::PRESENT | PteFlags::SWITCHING),
            )
            .unwrap();
        let mut stats = WalkStats::default();
        let mut pwc = PageWalkCaches::new(&cfg);
        let mut ntlb = NestedTlb::new(&cfg);
        let mut hw = WalkHw {
            mem: &mut w.mem,
            pwc: &mut pwc,
            ntlb: &mut ntlb,
            vm: VmId::new(0),
            stats: &mut stats,
        };
        let a = hw
            .agile_walk(
                asid,
                GuestVirtAddr::new(va),
                AgileCr3::Shadow { spt_root: sptr },
                gptr,
                hptr,
                AccessKind::Read,
            )
            .unwrap();
        let nested_levels = level.child().unwrap().number() as u32;
        assert_eq!(a.refs, (4 - nested_levels) + 5 * nested_levels);
        assert_eq!(
            a.kind,
            WalkKind::Switched {
                nested_levels: nested_levels as u8
            }
        );
        assert_eq!(a.frame, w.gmap.backing(g).unwrap());
    }
}

/// With the walk caches enabled, repeated walks never cost more than
/// the first, never return a different frame, and classification stays
/// consistent.
#[test]
fn caches_preserve_correctness() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(SplitMix64::derive(0xcac4e, case));
        let addr_set = vas(&mut rng, 16);
        let mut w = build(&addr_set);
        let cfg = PwcConfig::default();
        let asid = Asid::new(1);
        let gptr = GuestFrame::new(w.gpt.root_raw());
        let hptr = HostFrame::new(w.hpt.root_raw());
        let mut stats = WalkStats::default();
        let mut pwc = PageWalkCaches::new(&cfg);
        let mut ntlb = NestedTlb::new(&cfg);
        let pages = w.pages.clone();
        for (va, g) in &pages {
            let gva = GuestVirtAddr::new(*va);
            let backing = w.gmap.backing(*g).unwrap();
            let mut hw = WalkHw {
                mem: &mut w.mem,
                pwc: &mut pwc,
                ntlb: &mut ntlb,
                vm: VmId::new(0),
                stats: &mut stats,
            };
            let first = hw
                .agile_walk(
                    asid,
                    gva,
                    AgileCr3::FullNested,
                    gptr,
                    hptr,
                    AccessKind::Read,
                )
                .unwrap();
            let mut hw = WalkHw {
                mem: &mut w.mem,
                pwc: &mut pwc,
                ntlb: &mut ntlb,
                vm: VmId::new(0),
                stats: &mut stats,
            };
            let second = hw
                .agile_walk(
                    asid,
                    gva,
                    AgileCr3::FullNested,
                    gptr,
                    hptr,
                    AccessKind::Read,
                )
                .unwrap();
            assert!(second.refs <= first.refs);
            assert_eq!(first.frame, backing);
            assert_eq!(second.frame, backing);
        }
    }
}

/// Walks of unmapped addresses always fault and never corrupt state:
/// mapped addresses still translate afterwards.
#[test]
fn faults_do_not_corrupt() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(SplitMix64::derive(0xfa01, case));
        let addr_set = vas(&mut rng, 8);
        let probe_va = (rng.below(1 << 27) << 12) | (1 << 40); // far outside the mapped window
        let mut w = build(&addr_set);
        let cfg = PwcConfig::disabled();
        let asid = Asid::new(1);
        let gptr = GuestFrame::new(w.gpt.root_raw());
        let hptr = HostFrame::new(w.hpt.root_raw());
        let shadow_only = AgileCr3::ShadowOnly {
            spt_root: HostFrame::new(w.spt.root_raw()),
        };
        let mut stats = WalkStats::default();
        let mut pwc = PageWalkCaches::new(&cfg);
        let mut ntlb = NestedTlb::new(&cfg);
        let mut hw = WalkHw {
            mem: &mut w.mem,
            pwc: &mut pwc,
            ntlb: &mut ntlb,
            vm: VmId::new(0),
            stats: &mut stats,
        };
        assert!(hw
            .agile_walk(
                asid,
                GuestVirtAddr::new(probe_va),
                shadow_only,
                gptr,
                hptr,
                AccessKind::Read
            )
            .is_err());
        for (va, g) in &w.pages.clone() {
            let mut hw = WalkHw {
                mem: &mut w.mem,
                pwc: &mut pwc,
                ntlb: &mut ntlb,
                vm: VmId::new(0),
                stats: &mut stats,
            };
            let ok = hw
                .agile_walk(
                    asid,
                    GuestVirtAddr::new(*va),
                    shadow_only,
                    gptr,
                    hptr,
                    AccessKind::Read,
                )
                .unwrap();
            assert_eq!(ok.frame, w.gmap.backing(*g).unwrap());
        }
        assert_eq!(stats.faulted_walks, 1);
    }
}
