//! Randomized tests for the TLB hierarchy and the generic cache, driven by
//! seeded SplitMix64 streams so every run covers the same cases.

use agile_tlb::{SetAssocCache, TlbConfig, TlbEntry, TlbHierarchy};
use agile_types::{AccessKind, Asid, Enc, GuestVirtAddr, HostFrame, PageSize, SplitMix64};
use std::collections::HashMap;

const CASES: u64 = 64;

fn entry(frame: u64) -> TlbEntry {
    TlbEntry::new(HostFrame::new(frame), PageSize::Size4K, true).with_dirty(true)
}

/// A hit always returns the most recently filled value for the page.
#[test]
fn hits_return_latest_fill() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0001, case));
        let ops: Vec<(u64, u64)> = (0..rng.range(1, 200))
            .map(|_| (rng.below(64), rng.range(1, 1000)))
            .collect();
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let asid = Asid::new(1);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (page, frame) in ops {
            let va = GuestVirtAddr::new(page << 12);
            tlb.invalidate_page(asid, va);
            tlb.fill(asid, va, entry(frame));
            model.insert(page, frame);
            if let Some(e) = tlb.lookup(asid, va, AccessKind::Read) {
                assert_eq!(e.frame.raw(), model[&page]);
            }
        }
        // Every model entry, if present in the TLB, matches.
        for (page, frame) in &model {
            if let Some(e) = tlb.lookup(asid, GuestVirtAddr::new(page << 12), AccessKind::Read) {
                assert_eq!(e.frame.raw(), *frame);
            }
        }
    }
}

/// The TLB never returns an entry for a different ASID.
#[test]
fn asid_isolation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0002, case));
        let pages: Vec<u64> = (0..rng.range(1, 64)).map(|_| rng.below(256)).collect();
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        for (i, page) in pages.iter().enumerate() {
            let asid = Asid::new((i % 4) as u32);
            tlb.fill(
                asid,
                GuestVirtAddr::new(page << 12),
                entry(*page * 4 + (i as u64 % 4)),
            );
        }
        // Look up every page under every asid: a hit must carry the frame
        // encoding that asid.
        for page in 0..256u64 {
            for a in 0..4u32 {
                if let Some(e) = tlb.lookup(
                    Asid::new(a),
                    GuestVirtAddr::new(page << 12),
                    AccessKind::Read,
                ) {
                    assert_eq!(e.frame.raw() % 4, u64::from(a));
                    assert_eq!(e.frame.raw() / 4, page);
                }
            }
        }
    }
}

/// Capacity invariant: the generic cache never exceeds sets × ways, and
/// flush empties it.
#[test]
fn cache_capacity_invariant() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0003, case));
        let sets = rng.range(1, 8) as usize;
        let ways = rng.range(1, 8) as usize;
        let keys: Vec<u64> = (0..rng.range(1, 300)).map(|_| rng.below(512)).collect();
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::new(sets, ways);
        for k in &keys {
            c.insert(*k as usize, *k, *k * 2);
            assert!(c.len() <= c.capacity());
        }
        // Whatever remains must be internally consistent.
        for k in &keys {
            if let Some(v) = c.lookup(*k as usize, k) {
                assert_eq!(v, *k * 2);
            }
        }
        c.flush();
        assert!(c.is_empty());
    }
}

/// Stats identity: lookups == hits + misses.
#[test]
fn stats_identity() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0004, case));
        let ops: Vec<(u64, bool)> = (0..rng.range(1, 200))
            .map(|_| (rng.below(32), rng.next_bool(0.5)))
            .collect();
        let mut tlb = TlbHierarchy::new(&TlbConfig::tiny());
        let asid = Asid::new(9);
        for (page, write) in ops {
            let va = GuestVirtAddr::new(page << 12);
            let access = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if tlb.lookup(asid, va, access).is_none() {
                tlb.fill_for(asid, va, entry(page), access);
            }
        }
        let s = tlb.stats();
        assert_eq!(s.lookups(), s.l1_hits + s.l2_hits + s.misses);
        assert!(s.miss_ratio() <= 1.0);
    }
}

/// The old ranged shootdown: one `invalidate_page` per 4 KiB page from
/// `start`, the reference `invalidate_range` must reproduce.
fn invalidate_page_by_page(tlb: &mut TlbHierarchy, asid: Asid, start: u64, len: u64) {
    let mut va = start;
    while va < start + len {
        tlb.invalidate_page(asid, GuestVirtAddr::new(va));
        va += 0x1000;
    }
}

fn state_bytes(tlb: &TlbHierarchy) -> Vec<u8> {
    let mut e = Enc::new();
    tlb.save_to(&mut e);
    e.into_bytes()
}

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// Hot spots the fills and ranges cluster around: address zero, both
/// sides of a 1 GiB boundary, and a point off any 2 MiB alignment.
const ANCHORS: [u64; 4] = [0, GIB - 16 * MIB, GIB, 3 * GIB + 6 * MIB + 0x5000];

/// Fills (4K/2M/1G, L1-D or L1-I, 3 ASIDs) and lookups, applied to both
/// hierarchies alike so LRU stamps, promotions and slot order get mixed.
fn churn(rng: &mut SplitMix64, tlbs: &mut [&mut TlbHierarchy], fills: u64) {
    for _ in 0..fills {
        let asid = Asid::new(rng.range(1, 4) as u32);
        let (size, va) = match rng.below(8) {
            0 => (PageSize::Size1G, rng.below(4) * GIB),
            1 | 2 => (
                PageSize::Size2M,
                ANCHORS[rng.below(4) as usize] + rng.below(48 * MIB),
            ),
            _ => (
                PageSize::Size4K,
                ANCHORS[rng.below(4) as usize] + rng.below(48 * MIB),
            ),
        };
        let va = GuestVirtAddr::new(va).page_base(size);
        let e = TlbEntry::new(
            HostFrame::new(rng.range(1, 1 << 20)),
            size,
            rng.next_bool(0.7),
        )
        .with_dirty(rng.next_bool(0.5));
        let access = if rng.next_bool(0.25) {
            AccessKind::Execute
        } else {
            AccessKind::Read
        };
        let probe = GuestVirtAddr::new(ANCHORS[rng.below(4) as usize] + rng.below(48 * MIB));
        for t in tlbs.iter_mut() {
            t.fill_for(asid, va, e, access);
            t.lookup(asid, probe, access);
        }
    }
}

/// One shootdown range of a randomly chosen shape.
fn random_range(rng: &mut SplitMix64) -> (u64, u64) {
    let anchor = ANCHORS[rng.below(4) as usize];
    match rng.below(7) {
        // Empty.
        0 => (anchor + rng.below(48 * MIB), 0),
        // Sub-page, unaligned.
        1 => (anchor + rng.below(48 * MIB), rng.range(1, 0x1000)),
        // Unaligned start and length.
        2 => (anchor + rng.below(48 * MIB), rng.range(1, 8 * MIB)),
        // Exactly one 2 MiB page, aligned (the shadow-leaf shootdown).
        3 => ((anchor + rng.below(48 * MIB)) & !(2 * MIB - 1), 2 * MIB),
        // Crossing a 2 MiB boundary.
        4 => {
            let boundary = (anchor + rng.range(2 * MIB, 48 * MIB)) & !(2 * MIB - 1);
            let start = boundary - rng.range(1, 2 * MIB);
            (start, boundary - start + rng.range(1, 4 * MIB))
        }
        // Crossing the 1 GiB boundary.
        5 => {
            let start = GIB - rng.range(1, 8 * MIB);
            (start, GIB - start + rng.range(1, 8 * MIB))
        }
        // Tens of MiB.
        _ => (anchor + rng.below(16 * MIB), rng.range(10 * MIB, 64 * MIB)),
    }
}

/// `invalidate_range` is observationally the per-4 KiB `invalidate_page`
/// loop: identical snapshot bytes (contents, LRU stamps and per-set slot
/// order) and identical counters after every range, across both
/// geometries, all three page sizes, split L1s, and three ASIDs.
#[test]
fn invalidate_range_matches_the_page_by_page_loop() {
    let mut removed = 0;
    for (g, cfg) in [TlbConfig::default(), TlbConfig::tiny()].iter().enumerate() {
        for case in 0..CASES {
            let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0005 + g as u64, case));
            let mut ranged = TlbHierarchy::new(cfg);
            churn(&mut rng, &mut [&mut ranged], 400);
            let mut paged = ranged.clone();
            for step in 0..16 {
                let asid = Asid::new(rng.range(1, 5) as u32);
                let (start, len) = random_range(&mut rng);
                let before = ranged.stats().invalidations;
                ranged.invalidate_range(asid, start, len);
                invalidate_page_by_page(&mut paged, asid, start, len);
                removed += ranged.stats().invalidations - before;
                assert_eq!(
                    ranged.stats(),
                    paged.stats(),
                    "geometry {g} case {case} step {step}: {asid:?} [{start:#x}, +{len:#x})"
                );
                assert!(
                    state_bytes(&ranged) == state_bytes(&paged),
                    "geometry {g} case {case} step {step}: state differs after \
                     {asid:?} [{start:#x}, +{len:#x})"
                );
                churn(&mut rng, &mut [&mut ranged, &mut paged], 24);
            }
        }
    }
    assert!(
        removed > 1000,
        "ranges removed too little to test: {removed}"
    );
}
