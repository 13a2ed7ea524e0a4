//! Randomized tests for the TLB hierarchy and the generic cache, driven by
//! seeded SplitMix64 streams so every run covers the same cases.

use agile_tlb::{CacheStats, SetAssocCache, TlbConfig, TlbEntry, TlbHierarchy};
use agile_types::{
    AccessKind, Asid, Dec, Enc, GuestVirtAddr, HostFrame, PageSize, Persist, SplitMix64, StateSink,
};
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

type Key = (u32, u64);

/// A sink that keeps the saved bytes and every group and part generation,
/// the inputs of both the snapshot bytes and the explorer's state key.
struct Saved {
    enc: Enc,
    groups: Vec<(u64, u64)>,
    parts: Vec<(u64, (u64, u64))>,
}

impl Saved {
    fn new() -> Self {
        Saved {
            enc: Enc::new(),
            groups: Vec::new(),
            parts: Vec::new(),
        }
    }

    fn of(c: &SetAssocCache<Key, u64>) -> Self {
        let mut s = Saved::new();
        c.save_to(&mut s);
        s
    }

    fn record(self) -> Record {
        Record {
            bytes: self.enc.into_bytes(),
            groups: self.groups,
            parts: self.parts,
        }
    }
}

/// What a [`Saved`] sink took in.
#[derive(PartialEq)]
struct Record {
    bytes: Vec<u8>,
    groups: Vec<(u64, u64)>,
    parts: Vec<(u64, (u64, u64))>,
}

impl StateSink for Saved {
    fn enc(&mut self) -> &mut Enc {
        &mut self.enc
    }
    fn group(&mut self, generation: (u64, u64)) -> bool {
        self.groups.push(generation);
        true
    }
    fn part(&mut self, id: u64, generation: (u64, u64), encode: impl FnOnce(&mut Enc)) {
        self.parts.push((id, generation));
        encode(&mut self.enc);
    }
    fn dense(
        &mut self,
        len: usize,
        generation: impl Fn(usize) -> (u64, u64),
        mut encode: impl FnMut(usize, &mut Enc),
    ) {
        for i in 0..len {
            self.parts.push((i as u64, generation(i)));
            encode(i, &mut self.enc);
        }
    }
    fn append_only(&mut self, len: usize, mut encode: impl FnMut(usize, &mut Enc)) {
        for i in 0..len {
            encode(i, &mut self.enc);
        }
    }
}

/// Bytes kept with the generation they were saved at.
type Kept = ((u64, u64), Vec<u8>);

/// A sink that, like the explorer's state key, keeps each group and part
/// it saw with its generation, skips a group or re-encodes a part only
/// when its generation moved, and rebuilds the saved bytes from what it
/// kept. Kept parts are never dropped, so a generation that comes back
/// with other bytes shows as a difference from a fresh save.
#[derive(Default)]
struct CachingSink {
    /// The bytes saved so far, up to the last part.
    out: Vec<u8>,
    /// Bytes written outside parts since the last part.
    enc: Enc,
    /// Groups opened in the current save.
    group: usize,
    /// By group and id.
    kept: HashMap<(usize, u64), Kept>,
    /// Per group, its parts' bytes as last rebuilt.
    groups: HashMap<usize, Kept>,
    /// Groups and parts taken from what was kept, over all saves.
    reused: u64,
}

impl CachingSink {
    /// The bytes of `cache` saved through the kept parts.
    fn save(&mut self, cache: &SetAssocCache<Key, u64>) -> Vec<u8> {
        self.group = 0;
        cache.save_to(self);
        self.flush();
        std::mem::take(&mut self.out)
    }

    fn flush(&mut self) {
        self.out.extend_from_slice(self.enc.as_bytes());
        self.enc.clear();
    }

    fn keep(&mut self, id: u64, generation: (u64, u64), encode: impl FnOnce(&mut Enc)) {
        self.flush();
        let key = (self.group, id);
        match self.kept.get(&key) {
            Some((kept, bytes)) if *kept == generation => {
                self.reused += 1;
                self.out.extend_from_slice(bytes);
            }
            _ => {
                let mut e = Enc::new();
                encode(&mut e);
                let bytes = e.into_bytes();
                self.out.extend_from_slice(&bytes);
                self.kept.insert(key, (generation, bytes));
            }
        }
        let bytes = &self.kept[&key].1;
        let group = self.groups.get_mut(&self.group).expect("parts in a group");
        group.1.extend_from_slice(bytes);
    }
}

impl StateSink for CachingSink {
    fn enc(&mut self) -> &mut Enc {
        &mut self.enc
    }
    fn group(&mut self, generation: (u64, u64)) -> bool {
        self.flush();
        self.group += 1;
        match self.groups.get(&self.group) {
            Some((kept, bytes)) if *kept == generation => {
                self.reused += 1;
                self.out.extend_from_slice(bytes);
                false
            }
            _ => {
                self.groups.insert(self.group, (generation, Vec::new()));
                true
            }
        }
    }
    fn part(&mut self, id: u64, generation: (u64, u64), encode: impl FnOnce(&mut Enc)) {
        self.keep(id, generation, encode);
    }
    fn dense(
        &mut self,
        len: usize,
        generation: impl Fn(usize) -> (u64, u64),
        mut encode: impl FnMut(usize, &mut Enc),
    ) {
        for i in 0..len {
            self.keep(i as u64, generation(i), |e| encode(i, e));
        }
    }
    fn append_only(&mut self, len: usize, mut encode: impl FnMut(usize, &mut Enc)) {
        for i in 0..len {
            encode(i, &mut self.enc);
        }
    }
}

/// The linear-scan LRU cache every set ran before large sets were
/// indexed: find by scanning the set, evict the first slot with the
/// smallest stamp, remove by `swap_remove`, predicate removal by `retain`.
/// Its generations follow the rule `SetAssocCache::save_to` states: the
/// group's is (removals, stamp of the last hit or insert), and its parts'
/// are per set (last removal, stamp of the set's last hit or insert), or,
/// for one set of at least 16 ways, per slot (last removal, `last_use`).
#[derive(Clone)]
struct ScanModel {
    sets: Vec<Vec<(Key, u64, u64)>>,
    ways: usize,
    stamp: u64,
    stats: CacheStats,
    removals: u64,
    set_removals: Vec<u64>,
    /// Per set, the stamp of its last hit or insert.
    set_touches: Vec<u64>,
    /// The stamp of the last hit or insert.
    touched: u64,
}

/// Associativity from which a lone set is keyed per slot.
const SLOT_KEYED_WAYS: usize = 16;

impl ScanModel {
    fn new(sets: usize, ways: usize) -> Self {
        ScanModel {
            sets: vec![Vec::new(); sets],
            ways,
            stamp: 0,
            stats: CacheStats::default(),
            removals: 0,
            set_removals: vec![0; sets],
            set_touches: vec![0; sets],
            touched: 0,
        }
    }

    fn note_removal(&mut self, set: usize) {
        self.removals += 1;
        self.set_removals[set] = self.removals;
    }

    fn lookup(&mut self, set: usize, key: &Key) -> Option<u64> {
        self.stamp += 1;
        let n = self.sets.len();
        match self.sets[set % n].iter_mut().find(|s| s.0 == *key) {
            Some(slot) => {
                slot.2 = self.stamp;
                self.set_touches[set % n] = self.stamp;
                self.touched = self.stamp;
                self.stats.hits += 1;
                Some(slot.1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn peek(&self, set: usize, key: &Key) -> Option<u64> {
        let n = self.sets.len();
        self.sets[set % n].iter().find(|s| s.0 == *key).map(|s| s.1)
    }

    fn insert(&mut self, set: usize, key: Key, value: u64) -> Option<(Key, u64)> {
        self.stamp += 1;
        let n = self.sets.len();
        self.set_touches[set % n] = self.stamp;
        self.touched = self.stamp;
        let set = &mut self.sets[set % n];
        if let Some(slot) = set.iter_mut().find(|s| s.0 == key) {
            *slot = (key, value, self.stamp);
            return None;
        }
        if set.len() < self.ways {
            set.push((key, value, self.stamp));
            return None;
        }
        let victim = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
        let old = std::mem::replace(&mut set[victim], (key, value, self.stamp));
        self.stats.evictions += 1;
        Some((old.0, old.1))
    }

    fn invalidate(&mut self, set: usize, key: &Key) -> Option<u64> {
        let i = set % self.sets.len();
        let pos = self.sets[i].iter().position(|s| s.0 == *key)?;
        let value = self.sets[i].swap_remove(pos).1;
        self.note_removal(i);
        Some(value)
    }

    fn invalidate_if(&mut self, pred: impl Fn(&Key, &u64) -> bool) -> usize {
        let mut removed = 0;
        for i in 0..self.sets.len() {
            let before = self.sets[i].len();
            self.sets[i].retain(|s| !pred(&s.0, &s.1));
            if self.sets[i].len() != before {
                removed += before - self.sets[i].len();
                self.note_removal(i);
            }
        }
        removed
    }

    fn invalidate_ascending(&mut self, pred: impl Fn(&Key) -> bool) -> usize {
        let mut removed = 0;
        for i in 0..self.sets.len() {
            let before = removed;
            while let Some(pos) = (0..self.sets[i].len())
                .filter(|&p| pred(&self.sets[i][p].0))
                .min_by_key(|&p| self.sets[i][p].0)
            {
                self.sets[i].swap_remove(pos);
                removed += 1;
            }
            if removed != before {
                self.note_removal(i);
            }
        }
        removed
    }

    fn flush(&mut self) {
        for i in 0..self.sets.len() {
            if !self.sets[i].is_empty() {
                self.sets[i].clear();
                self.note_removal(i);
            }
        }
    }

    /// What `load_state` does to the generations: one removal per set.
    fn reload(&mut self) {
        for i in 0..self.sets.len() {
            self.note_removal(i);
        }
    }

    fn entries(&self) -> Vec<(Key, u64)> {
        self.sets.iter().flatten().map(|s| (s.0, s.1)).collect()
    }

    fn saved(&self) -> Saved {
        let mut s = Saved::new();
        s.enc.u64(self.ways as u64);
        s.enc.u64(self.stamp);
        self.stats.save(&mut s.enc);
        s.enc.seq(self.sets.len());
        let save = |slot: &(Key, u64, u64), e: &mut Enc| {
            slot.0.save(e);
            slot.1.save(e);
            e.u64(slot.2);
        };
        let slot_keyed = self.sets.len() == 1 && self.ways >= SLOT_KEYED_WAYS;
        if slot_keyed {
            s.enc.seq(self.sets[0].len());
        }
        s.group((self.removals, self.touched));
        if slot_keyed {
            let set = &self.sets[0];
            s.dense(
                set.len(),
                |at| (self.set_removals[0], set[at].2),
                |at, e| save(&set[at], e),
            );
        } else {
            s.dense(
                self.sets.len(),
                |i| (self.set_removals[i], self.set_touches[i]),
                |i, e| {
                    e.seq(self.sets[i].len());
                    self.sets[i].iter().for_each(|slot| save(slot, e));
                },
            );
        }
        s
    }
}

/// Geometries for the differential test: the fully associative sizes that
/// are indexed (16, 32 and 64 ways: the page-walk caches and the nested
/// TLB), one just below the threshold, two indexed sets, and every
/// enabled partition of the default and tiny TLBs.
fn differential_geometries() -> Vec<(usize, usize)> {
    let mut out = vec![(1, 16), (1, 32), (1, 64), (1, 15), (2, 16)];
    for cfg in [TlbConfig::default(), TlbConfig::tiny()] {
        for part in [
            cfg.l1d_4k, cfg.l1d_2m, cfg.l1d_1g, cfg.l1i_4k, cfg.l1i_2m, cfg.l2_4k, cfg.l2_2m,
        ] {
            if part.entries > 0 {
                out.push((part.sets(), part.ways.min(part.entries)));
            }
        }
    }
    out
}

/// The cache equals the scan model op by op: return values, evicted
/// pairs, counters, `iter()` order, saved bytes and part generations,
/// through seeded mixes of every operation, snapshot round trips
/// included. A sink that keeps parts by generation rebuilds the fresh
/// save's bytes after every op, so no generation stands still while its
/// part's bytes move.
#[test]
fn cache_matches_the_linear_scan_model() {
    for (g, (sets, ways)) in differential_geometries().into_iter().enumerate() {
        let (mut evictions, mut reused) = (0, 0);
        for case in 0..CASES / 4 {
            let mut rng = SplitMix64::new(SplitMix64::derive(0x71b_0010 + g as u64, case));
            let mut cache: SetAssocCache<Key, u64> = SetAssocCache::new(sets, ways);
            let mut model = ScanModel::new(sets, ways);
            let mut caching = CachingSink::default();
            // Enough distinct keys to fill every set and evict.
            let keys = (sets * ways * 2 + 3) as u64;
            let key = |rng: &mut SplitMix64| (rng.below(2) as u32, rng.below(keys));
            // Draws past 99 insert, and larger caches run longer, so every
            // geometry fills and evicts between the removals.
            let capacity = sets * ways;
            let mix = 100 + 4 * capacity as u64;
            for step in 0..600.max(3 * capacity) {
                let set = rng.below(3 * sets as u64) as usize;
                let what = rng.below(mix);
                let ctx = format!("{sets}x{ways} case {case} step {step} op {what}");
                match what {
                    0..=29 => {
                        let k = key(&mut rng);
                        assert_eq!(cache.lookup(set, &k), model.lookup(set, &k), "{ctx}");
                    }
                    30..=59 | 100.. => {
                        let (k, v) = (key(&mut rng), rng.below(1 << 20));
                        assert_eq!(cache.insert(set, k, v), model.insert(set, k, v), "{ctx}");
                    }
                    60..=67 => {
                        let k = key(&mut rng);
                        assert_eq!(cache.peek(set, &k).copied(), model.peek(set, &k), "{ctx}");
                    }
                    68..=79 => {
                        let k = key(&mut rng);
                        assert_eq!(
                            cache.invalidate(set, &k),
                            model.invalidate(set, &k),
                            "{ctx}"
                        );
                    }
                    80..=84 => {
                        let (m, r) = (rng.range(2, 6), rng.below(2));
                        let pred = |k: &Key, _: &u64| k.1 % m == r;
                        assert_eq!(
                            cache.invalidate_if(pred),
                            model.invalidate_if(pred),
                            "{ctx}"
                        );
                    }
                    85..=89 => {
                        let lo = rng.below(keys);
                        let hi = lo + rng.below(keys / 2 + 1);
                        let a = rng.below(2) as u32;
                        let pred = |k: &Key| k.0 == a && (lo..=hi).contains(&k.1);
                        assert_eq!(
                            cache.invalidate_ascending(pred),
                            model.invalidate_ascending(pred),
                            "{ctx}"
                        );
                    }
                    90..=91 => {
                        cache.flush();
                        model.flush();
                    }
                    92..=99 => {
                        let bytes = Saved::of(&cache).record().bytes;
                        if rng.next_bool(0.5) {
                            // A new cache is a new machine's, whose key
                            // starts from nothing kept.
                            cache = SetAssocCache::new(sets, ways);
                            model.removals = 0;
                            model.set_removals = vec![0; sets];
                            model.set_touches = vec![0; sets];
                            model.touched = 0;
                            reused += caching.reused;
                            caching = CachingSink::default();
                        }
                        cache.load_state(&mut Dec::new(&bytes)).expect("round trip");
                        model.reload();
                    }
                }
                assert_eq!(cache.stats(), model.stats, "{ctx}");
                assert_eq!(cache.len(), model.entries().len(), "{ctx}");
                let live: Vec<(Key, u64)> = cache.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(live, model.entries(), "{ctx}");
                let fresh = Saved::of(&cache).record();
                assert!(
                    fresh == model.saved().record(),
                    "{ctx}: saved state differs"
                );
                assert!(
                    caching.save(&cache) == fresh.bytes,
                    "{ctx}: kept parts differ from a fresh save"
                );
            }
            evictions += cache.stats().evictions;
            reused += caching.reused;
        }
        assert!(
            evictions > 1_000,
            "{sets}x{ways}: too few evictions to test: {evictions}"
        );
        assert!(
            reused > 1_000,
            "{sets}x{ways}: too few kept parts reused to test: {reused}"
        );
    }
}
