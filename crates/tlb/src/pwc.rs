//! Page walk caches (MMU caches) with agile paging's mode bit.
//!
//! Intel-style translation caches: three tables that let the walker skip the
//! top one, two, or three levels of a radix walk by caching the host frame
//! of the next table page to read (paper Section III-A, citing Barr et al.
//! and Bhattacharjee).
//!
//! Agile paging's extension: each entry carries a bit saying whether the
//! cached pointer refers to a **shadow/host** table page (walk continues in
//! 1D mode) or a **guest** table page (walk continues in nested mode). This
//! is exactly the paper's "single bit to denote whether the hPA points to
//! shadow or guest page table so that agile page walk can continue in the
//! correct mode".

use crate::cache::{CacheStats, SetAssocCache};
use crate::config::PwcConfig;
use agile_types::{
    Asid, CodecError, Dec, Enc, GuestVirtAddr, HostFrame, Level, Persist, StateSink,
};

/// Which kind of table page a PWC entry points into — determines the mode
/// in which the walk resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PwcTableKind {
    /// A shadow (or, natively, host) table page: resume with 1D
    /// `host_PT_access` steps.
    Shadow,
    /// A guest table page (already translated to hPA): resume with nested
    /// `nested_PT_access` steps.
    Guest,
}

agile_types::record! {
    /// A cached partial translation: the host frame of the next table page to
    /// read, plus the mode to resume in.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PwcEntry {
        /// Host frame of the next-level table page.
        pub frame: HostFrame,
        /// Mode bit (shadow/1D vs guest/nested).
        pub kind: PwcTableKind,
    }
}

type Key = (Asid, u64);

/// The three-table page-walk cache.
///
/// * skip-1 table: keyed by the L4 index bits, caches the pointer read from
///   the L4 entry (next table: L3).
/// * skip-2 table: keyed by L4+L3 bits, caches the L3 entry's pointer.
/// * skip-3 table: keyed by L4+L3+L2 bits, caches the L2 entry's pointer.
///
/// Lookups probe longest-prefix first, so a hit skips as much of the walk
/// as possible.
#[derive(Debug, Clone)]
pub struct PageWalkCaches {
    skip1: SetAssocCache<Key, PwcEntry>,
    skip2: SetAssocCache<Key, PwcEntry>,
    skip3: SetAssocCache<Key, PwcEntry>,
    enabled: bool,
}

impl PageWalkCaches {
    /// Builds the caches from a geometry description.
    #[must_use]
    pub fn new(cfg: &PwcConfig) -> Self {
        PageWalkCaches {
            skip1: SetAssocCache::fully_associative(cfg.skip1_entries.max(1)),
            skip2: SetAssocCache::fully_associative(cfg.skip2_entries.max(1)),
            skip3: SetAssocCache::fully_associative(cfg.skip3_entries.max(1)),
            enabled: cfg.enabled,
        }
    }

    fn prefix(va: GuestVirtAddr, consumed_down_to: Level) -> u64 {
        // Key on the VA bits consumed so far: everything above the *next*
        // level's index.
        va.raw() >> consumed_down_to.index_shift()
    }

    /// Probes the caches for `va`, longest prefix first. A hit returns the
    /// level of the *next entry the walker must read* plus the cached
    /// pointer: skip-3 hit → next is L1, skip-2 → L2, skip-1 → L3.
    pub fn lookup(&mut self, asid: Asid, va: GuestVirtAddr) -> Option<(Level, PwcEntry)> {
        if !self.enabled {
            return None;
        }
        let k3 = (asid, Self::prefix(va, Level::L2));
        if let Some(e) = self.skip3.lookup(0, &k3) {
            return Some((Level::L1, e));
        }
        let k2 = (asid, Self::prefix(va, Level::L3));
        if let Some(e) = self.skip2.lookup(0, &k2) {
            return Some((Level::L2, e));
        }
        let k1 = (asid, Self::prefix(va, Level::L4));
        if let Some(e) = self.skip1.lookup(0, &k1) {
            return Some((Level::L3, e));
        }
        None
    }

    /// Records the pointer read from the entry at `level_read` during a
    /// walk of `va` (the walker calls this as it descends). Leaf levels are
    /// not cached here — the TLB caches full translations.
    pub fn fill(&mut self, asid: Asid, va: GuestVirtAddr, level_read: Level, entry: PwcEntry) {
        if !self.enabled {
            return;
        }
        match level_read {
            Level::L4 => {
                self.skip1
                    .insert(0, (asid, Self::prefix(va, Level::L4)), entry);
            }
            Level::L3 => {
                self.skip2
                    .insert(0, (asid, Self::prefix(va, Level::L3)), entry);
            }
            Level::L2 => {
                self.skip3
                    .insert(0, (asid, Self::prefix(va, Level::L2)), entry);
            }
            Level::L1 => {}
        }
    }

    /// Drops every entry tagged with `asid` (used when the VMM changes the
    /// structure of that address space's tables, e.g. mode switches).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.skip1.invalidate_if(|(a, _), _| *a == asid);
        self.skip2.invalidate_if(|(a, _), _| *a == asid);
        self.skip3.invalidate_if(|(a, _), _| *a == asid);
    }

    /// Drops every entry of `asid` whose cached prefix intersects
    /// `[start, start+len)` — the targeted shootdown the VMM issues when it
    /// restructures one subtree (agile mode switches, shadow zaps) without
    /// disturbing the rest of the address space's cached partial walks.
    pub fn invalidate_range(&mut self, asid: Asid, start: u64, len: u64) {
        let end = start + len.saturating_sub(1);
        let bounds = |shift: u32| (start >> shift, end >> shift);
        let (lo1, hi1) = bounds(Level::L4.index_shift());
        self.skip1
            .invalidate_if(|(a, p), _| *a == asid && *p >= lo1 && *p <= hi1);
        let (lo2, hi2) = bounds(Level::L3.index_shift());
        self.skip2
            .invalidate_if(|(a, p), _| *a == asid && *p >= lo2 && *p <= hi2);
        let (lo3, hi3) = bounds(Level::L2.index_shift());
        self.skip3
            .invalidate_if(|(a, p), _| *a == asid && *p >= lo3 && *p <= hi3);
    }

    /// Drops entries of `asid` whose cached prefix covers `va` (a targeted
    /// shootdown after one subtree changed).
    pub fn invalidate_va(&mut self, asid: Asid, va: GuestVirtAddr) {
        let p1 = Self::prefix(va, Level::L4);
        let p2 = Self::prefix(va, Level::L3);
        let p3 = Self::prefix(va, Level::L2);
        self.skip1.invalidate_if(|(a, p), _| *a == asid && *p == p1);
        self.skip2.invalidate_if(|(a, p), _| *a == asid && *p == p2);
        self.skip3.invalidate_if(|(a, p), _| *a == asid && *p == p3);
    }

    /// Full flush.
    pub fn flush_all(&mut self) {
        self.skip1.flush();
        self.skip2.flush();
        self.skip3.flush();
    }

    /// Every cached partial walk as `(asid, next-level-to-read, consumed VA
    /// prefix, entry)`. Read-only — LRU state and counters are untouched.
    /// Used by the verify layer's coherence audit.
    #[must_use]
    pub fn entries(&self) -> Vec<(Asid, Level, u64, PwcEntry)> {
        let mut out = Vec::new();
        for (&(asid, prefix), &e) in self.skip1.iter() {
            out.push((asid, Level::L3, prefix, e));
        }
        for (&(asid, prefix), &e) in self.skip2.iter() {
            out.push((asid, Level::L2, prefix, e));
        }
        for (&(asid, prefix), &e) in self.skip3.iter() {
            out.push((asid, Level::L1, prefix, e));
        }
        out
    }

    /// Combined hit/miss counters over the three tables.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let (a, b, c) = (self.skip1.stats(), self.skip2.stats(), self.skip3.stats());
        CacheStats {
            hits: a.hits + b.hits + c.hits,
            misses: a.misses + b.misses + c.misses,
            evictions: a.evictions + b.evictions + c.evictions,
        }
    }

    /// Appends all three tables' contents, LRU state, and counters to `s`.
    /// Each table's sets are parts ([`SetAssocCache::save_to`]).
    pub fn save_to<S: StateSink>(&self, s: &mut S) {
        s.enc().bool(self.enabled);
        self.skip1.save_to(s);
        self.skip2.save_to(s);
        self.skip3.save_to(s);
    }

    /// Restores state captured by [`PageWalkCaches::save_to`]. The
    /// geometry (same [`PwcConfig`]) must match.
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        let enabled = d.bool()?;
        if enabled != self.enabled {
            return d.fail("PWC enable bit mismatch");
        }
        self.skip1.load_state(d)?;
        self.skip2.load_state(d)?;
        self.skip3.load_state(d)
    }
}

impl Persist for PwcTableKind {
    fn save(&self, e: &mut Enc) {
        e.u8(match self {
            PwcTableKind::Shadow => 0,
            PwcTableKind::Guest => 1,
        });
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        match d.u8()? {
            0 => Ok(PwcTableKind::Shadow),
            1 => Ok(PwcTableKind::Guest),
            b => d.fail(format!("bad PwcTableKind tag {b}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(frame: u64, kind: PwcTableKind) -> PwcEntry {
        PwcEntry {
            frame: HostFrame::new(frame),
            kind,
        }
    }

    fn caches() -> PageWalkCaches {
        PageWalkCaches::new(&PwcConfig::default())
    }

    #[test]
    fn disabled_caches_never_hit() {
        let mut pwc = PageWalkCaches::new(&PwcConfig::disabled());
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x1000);
        pwc.fill(asid, va, Level::L4, entry(1, PwcTableKind::Shadow));
        assert!(pwc.lookup(asid, va).is_none());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut pwc = caches();
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x7f00_1234_5000);
        pwc.fill(asid, va, Level::L4, entry(1, PwcTableKind::Shadow));
        pwc.fill(asid, va, Level::L3, entry(2, PwcTableKind::Shadow));
        pwc.fill(asid, va, Level::L2, entry(3, PwcTableKind::Guest));
        let (next, e) = pwc.lookup(asid, va).unwrap();
        assert_eq!(next, Level::L1);
        assert_eq!(e.frame, HostFrame::new(3));
        assert_eq!(e.kind, PwcTableKind::Guest);
    }

    #[test]
    fn shorter_prefix_serves_sibling_addresses() {
        let mut pwc = caches();
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x7f00_1234_5000);
        pwc.fill(asid, va, Level::L4, entry(1, PwcTableKind::Shadow));
        pwc.fill(asid, va, Level::L3, entry(2, PwcTableKind::Shadow));
        pwc.fill(asid, va, Level::L2, entry(3, PwcTableKind::Shadow));
        // An address sharing only the top two levels hits skip-2.
        let sibling = GuestVirtAddr::new(0x7f00_1254_5000);
        assert_eq!(va.index(Level::L4), sibling.index(Level::L4));
        assert_eq!(va.index(Level::L3), sibling.index(Level::L3));
        assert_ne!(va.index(Level::L2), sibling.index(Level::L2));
        let (next, e) = pwc.lookup(asid, sibling).unwrap();
        assert_eq!(next, Level::L2);
        assert_eq!(e.frame, HostFrame::new(2));
    }

    #[test]
    fn leaf_fill_is_ignored() {
        let mut pwc = caches();
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x1000);
        pwc.fill(asid, va, Level::L1, entry(9, PwcTableKind::Shadow));
        assert!(pwc.lookup(asid, va).is_none());
    }

    #[test]
    fn asid_flush_is_selective() {
        let mut pwc = caches();
        let va = GuestVirtAddr::new(0x1000);
        pwc.fill(Asid::new(1), va, Level::L2, entry(1, PwcTableKind::Shadow));
        pwc.fill(Asid::new(2), va, Level::L2, entry(2, PwcTableKind::Shadow));
        pwc.flush_asid(Asid::new(1));
        assert!(pwc.lookup(Asid::new(1), va).is_none());
        assert!(pwc.lookup(Asid::new(2), va).is_some());
    }

    #[test]
    fn va_invalidation_hits_all_prefixes() {
        let mut pwc = caches();
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x7f00_1234_5000);
        pwc.fill(asid, va, Level::L4, entry(1, PwcTableKind::Shadow));
        pwc.fill(asid, va, Level::L3, entry(2, PwcTableKind::Shadow));
        pwc.fill(asid, va, Level::L2, entry(3, PwcTableKind::Shadow));
        pwc.invalidate_va(asid, va);
        assert!(pwc.lookup(asid, va).is_none());
    }

    #[test]
    fn mode_bit_round_trips() {
        let mut pwc = caches();
        let asid = Asid::new(7);
        let va = GuestVirtAddr::new(0x4000_0000);
        pwc.fill(asid, va, Level::L4, entry(5, PwcTableKind::Guest));
        let (_, e) = pwc.lookup(asid, va).unwrap();
        assert_eq!(e.kind, PwcTableKind::Guest);
    }

    #[test]
    fn stats_accumulate_across_tables() {
        let mut pwc = caches();
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x1000);
        pwc.lookup(asid, va); // 3 misses (one per table)
        pwc.fill(asid, va, Level::L2, entry(1, PwcTableKind::Shadow));
        pwc.lookup(asid, va); // skip3 hit
        let s = pwc.stats();
        assert_eq!(s.hits, 1);
        assert!(s.misses >= 3);
    }
}
