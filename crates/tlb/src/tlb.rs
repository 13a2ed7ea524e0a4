//! The TLB hierarchy: split L1 D/I TLBs plus a unified L2.

use crate::cache::SetAssocCache;
use crate::config::{SizedTlbConfig, TlbConfig};
use agile_types::{
    AccessKind, Asid, CodecError, Dec, GuestVirtAddr, HostFrame, PageSize, Persist, StateSink,
};

agile_types::record! {
    /// A TLB entry: the final translation the paper cares about. Under
    /// virtualization this maps gVA⇒hPA regardless of technique (nested, shadow,
    /// and agile paging all produce the same TLB contents — their difference is
    /// the *miss* path); natively it maps VA⇒PA.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TlbEntry {
        /// Host-physical frame of the first 4 KiB page of the mapping.
        pub frame: HostFrame,
        /// Page size of the mapping.
        pub size: PageSize,
        /// Whether the mapping permits writes (a write to a read-only entry
        /// must re-walk so the fault path runs).
        pub writable: bool,
        /// Whether a store has gone through this entry. A store through a
        /// clean entry re-walks so the hardware can set dirty bits in the page
        /// tables, exactly as on x86-64.
        pub dirty: bool,
    }
}

impl TlbEntry {
    /// Builds a clean entry.
    #[must_use]
    pub const fn new(frame: HostFrame, size: PageSize, writable: bool) -> Self {
        TlbEntry {
            frame,
            size,
            writable,
            dirty: false,
        }
    }

    /// Same entry with the dirty flag set (install after a store walk).
    #[must_use]
    pub const fn with_dirty(mut self, dirty: bool) -> Self {
        self.dirty = dirty;
        self
    }
}

agile_types::record! {
    counters;
    /// Per-structure hit counters plus overall miss count.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TlbStats {
        /// Lookups issued, counted independently at probe entry (not derived
        /// from the outcome counters, so `l1_hits + l2_hits + misses == lookups`
        /// is a real conservation identity the verify layer can check).
        pub lookups: u64,
        /// Lookups that hit in an L1 structure.
        pub l1_hits: u64,
        /// Lookups that missed L1 but hit the unified L2.
        pub l2_hits: u64,
        /// Lookups that missed the whole hierarchy (page walks).
        pub misses: u64,
        /// Fills performed after walks.
        pub fills: u64,
        /// Entries invalidated by `invlpg`/flush operations.
        pub invalidations: u64,
    }
}

impl TlbStats {
    /// Total lookups (the independent entry counter, not a sum of
    /// outcomes).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Overall miss ratio in [0, 1].
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }
}

type Key = (Asid, u64);

/// One page-size partition: an optional set-associative structure.
#[derive(Debug, Clone)]
struct SizedTlb {
    cache: Option<SetAssocCache<Key, TlbEntry>>,
    size: PageSize,
}

impl SizedTlb {
    fn new(cfg: SizedTlbConfig, size: PageSize) -> Self {
        let cache = if cfg.entries == 0 {
            None
        } else {
            Some(SetAssocCache::new(cfg.sets(), cfg.ways.min(cfg.entries)))
        };
        SizedTlb { cache, size }
    }

    fn key(&self, asid: Asid, va: GuestVirtAddr) -> (usize, Key) {
        let vpn = va.page_number(self.size);
        // Reduce to a set index in the u64 domain *before* narrowing to
        // usize: `vpn as usize` on a 32-bit target drops VPN bits ≥ 32,
        // so two VPNs differing only above the set field would silently
        // alias onto different sets than the u64 modulo dictates (and the
        // set choice would differ across platforms). The tag stays the
        // full `(asid, vpn)`, so correctness never depended on this — but
        // set placement, eviction, and cross-platform determinism do.
        let set = match &self.cache {
            Some(c) => c.set_of(vpn),
            None => 0,
        };
        (set, (asid, vpn))
    }

    fn lookup(&mut self, asid: Asid, va: GuestVirtAddr) -> Option<TlbEntry> {
        let (set, key) = self.key(asid, va);
        self.cache.as_mut()?.lookup(set, &key)
    }

    fn insert(&mut self, asid: Asid, va: GuestVirtAddr, entry: TlbEntry) {
        let (set, key) = self.key(asid, va);
        if let Some(c) = self.cache.as_mut() {
            c.insert(set, key, entry);
        }
    }

    fn invalidate_page(&mut self, asid: Asid, va: GuestVirtAddr) -> usize {
        let (set, key) = self.key(asid, va);
        match self.cache.as_mut() {
            Some(c) => usize::from(c.invalidate(set, &key).is_some()),
            None => 0,
        }
    }

    /// Removes `asid`'s entries for the VPNs `first..=last` (at this
    /// partition's page size) in ascending-VPN order per set: a probe per
    /// VPN when there are fewer VPNs than sets, otherwise one pass over
    /// the sets. Both give the result of probing every VPN in turn.
    fn invalidate_vpns(&mut self, asid: Asid, first: u64, last: u64) -> usize {
        let Some(c) = self.cache.as_mut() else {
            return 0;
        };
        if last - first + 1 < c.set_count() as u64 {
            (first..=last)
                .map(|vpn| usize::from(c.invalidate(c.set_of(vpn), &(asid, vpn)).is_some()))
                .sum()
        } else {
            c.invalidate_ascending(|&(a, vpn)| a == asid && (first..=last).contains(&vpn))
        }
    }

    fn invalidate_asid(&mut self, asid: Asid) -> usize {
        match self.cache.as_mut() {
            Some(c) => c.invalidate_if(|(a, _), _| *a == asid),
            None => 0,
        }
    }

    fn flush(&mut self) -> usize {
        match self.cache.as_mut() {
            Some(c) => {
                let n = c.len();
                c.flush();
                n
            }
            None => 0,
        }
    }
}

/// Number of page-size partitions of a [`TlbHierarchy`]: L1-D 4 KiB,
/// 2 MiB and 1 GiB, L1-I 4 KiB and 2 MiB, L2 4 KiB and 2 MiB.
pub const TLB_PARTITIONS: usize = 7;

/// One LRU stamp per partition of a [`TlbHierarchy`] (its stamp so far:
/// every later hit or insert stamps its slot past it), in
/// [`TlbHierarchy::for_each_entry`]'s order.
pub type TlbStamps = [u64; TLB_PARTITIONS];

/// The full per-core TLB hierarchy of Table III.
///
/// Lookup order: the L1 structure matching the access kind (D-TLB for
/// read/write, I-TLB for execute), every page size, then the unified L2.
/// L2 hits are promoted into L1. Fills insert into both levels.
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    l1d: Vec<SizedTlb>,
    l1i: Vec<SizedTlb>,
    l2: Vec<SizedTlb>,
    stats: TlbStats,
}

impl TlbHierarchy {
    /// Builds the hierarchy from a geometry description.
    #[must_use]
    pub fn new(cfg: &TlbConfig) -> Self {
        TlbHierarchy {
            l1d: vec![
                SizedTlb::new(cfg.l1d_4k, PageSize::Size4K),
                SizedTlb::new(cfg.l1d_2m, PageSize::Size2M),
                SizedTlb::new(cfg.l1d_1g, PageSize::Size1G),
            ],
            l1i: vec![
                SizedTlb::new(cfg.l1i_4k, PageSize::Size4K),
                SizedTlb::new(cfg.l1i_2m, PageSize::Size2M),
            ],
            l2: vec![
                SizedTlb::new(cfg.l2_4k, PageSize::Size4K),
                SizedTlb::new(cfg.l2_2m, PageSize::Size2M),
            ],
            stats: TlbStats::default(),
        }
    }

    /// Looks up a translation. A hit requires the entry to satisfy the
    /// access: writes to read-only entries are treated as misses so the
    /// walker (and its fault path) runs, matching hardware behaviour for
    /// permission upgrades (e.g. copy-on-write, dirty-bit setting).
    pub fn lookup(
        &mut self,
        asid: Asid,
        va: GuestVirtAddr,
        access: AccessKind,
    ) -> Option<TlbEntry> {
        self.stats.lookups += 1;
        let l1 = if access.is_fetch() {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        for t in l1.iter_mut() {
            if let Some(e) = t.lookup(asid, va) {
                if access.is_write() && (!e.writable || !e.dirty) {
                    t.invalidate_page(asid, va);
                    break;
                }
                self.stats.l1_hits += 1;
                return Some(e);
            }
        }
        for t in self.l2.iter_mut() {
            if let Some(e) = t.lookup(asid, va) {
                if access.is_write() && (!e.writable || !e.dirty) {
                    t.invalidate_page(asid, va);
                    break;
                }
                self.stats.l2_hits += 1;
                // Promote to the matching L1.
                let l1 = if access.is_fetch() {
                    &mut self.l1i
                } else {
                    &mut self.l1d
                };
                if let Some(slot) = l1.iter_mut().find(|s| s.size == e.size) {
                    slot.insert(asid, va, e);
                }
                return Some(e);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Installs a translation after a walk (into L1-D or L1-I per the
    /// access kind, and into L2 if it has a partition for the size).
    pub fn fill(&mut self, asid: Asid, va: GuestVirtAddr, entry: TlbEntry) {
        self.fill_for(asid, va, entry, AccessKind::Read);
    }

    /// [`TlbHierarchy::fill`] with an explicit access kind.
    pub fn fill_for(&mut self, asid: Asid, va: GuestVirtAddr, entry: TlbEntry, access: AccessKind) {
        self.stats.fills += 1;
        let l1 = if access.is_fetch() {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        if let Some(t) = l1.iter_mut().find(|t| t.size == entry.size) {
            t.insert(asid, va, entry);
        }
        if let Some(t) = self.l2.iter_mut().find(|t| t.size == entry.size) {
            t.insert(asid, va, entry);
        }
    }

    /// Invalidates one page's translation in every structure (`invlpg`).
    pub fn invalidate_page(&mut self, asid: Asid, va: GuestVirtAddr) {
        let mut n = 0;
        for t in self
            .l1d
            .iter_mut()
            .chain(self.l1i.iter_mut())
            .chain(self.l2.iter_mut())
        {
            n += t.invalidate_page(asid, va);
        }
        self.stats.invalidations += n as u64;
    }

    /// Invalidates `asid`'s translations of the 4 KiB pages at `start`,
    /// `start + 4 KiB`, … below `start + len` in every structure (a ranged
    /// shootdown). The removed entries, the `invalidations` count and the
    /// surviving per-set slot order are exactly those of calling
    /// [`TlbHierarchy::invalidate_page`] on each of those pages in
    /// ascending order, but the cost is bounded by each structure's size
    /// instead of growing with the range's page count.
    pub fn invalidate_range(&mut self, asid: Asid, start: u64, len: u64) {
        let page = PageSize::Size4K.bytes();
        let pages = len.div_ceil(page);
        if pages == 0 {
            return;
        }
        let last_va = start.saturating_add((pages - 1) * page);
        let mut n = 0;
        for t in self
            .l1d
            .iter_mut()
            .chain(self.l1i.iter_mut())
            .chain(self.l2.iter_mut())
        {
            let shift = t.size.shift();
            n += t.invalidate_vpns(asid, start >> shift, last_va >> shift);
        }
        self.stats.invalidations += n as u64;
    }

    /// Drops every translation tagged with `asid`.
    pub fn flush_asid(&mut self, asid: Asid) {
        let mut n = 0;
        for t in self
            .l1d
            .iter_mut()
            .chain(self.l1i.iter_mut())
            .chain(self.l2.iter_mut())
        {
            n += t.invalidate_asid(asid);
        }
        self.stats.invalidations += n as u64;
    }

    /// Full TLB flush.
    pub fn flush_all(&mut self) {
        let mut n = 0;
        for t in self
            .l1d
            .iter_mut()
            .chain(self.l1i.iter_mut())
            .chain(self.l2.iter_mut())
        {
            n += t.flush();
        }
        self.stats.invalidations += n as u64;
    }

    /// Every live translation in the hierarchy, deduplicated across
    /// structures, as `(asid, page-aligned gVA, entry)`. Read-only — LRU
    /// state and counters are untouched. Used by the verify layer's
    /// coherence audit.
    #[must_use]
    pub fn entries(&self) -> Vec<(Asid, GuestVirtAddr, TlbEntry)> {
        let mut out: Vec<(Asid, GuestVirtAddr, TlbEntry)> = Vec::new();
        self.for_each_entry(|entry| {
            if !out.contains(&entry) {
                out.push(entry);
            }
        });
        out
    }

    /// Calls `f` on every live translation of every structure, as
    /// `(asid, page-aligned gVA, entry)`, structure by structure: a
    /// translation cached in two structures comes twice. Read-only.
    pub fn for_each_entry(&self, mut f: impl FnMut((Asid, GuestVirtAddr, TlbEntry))) {
        for t in self.partitions() {
            let Some(cache) = t.cache.as_ref() else {
                continue;
            };
            cache.iter().for_each(|(&(asid, vpn), &entry)| {
                f((asid, GuestVirtAddr::new(vpn << t.size.shift()), entry));
            });
        }
    }

    /// The partitions, structure by structure, disabled ones included.
    fn partitions(&self) -> impl Iterator<Item = &SizedTlb> {
        self.l1d.iter().chain(self.l1i.iter()).chain(self.l2.iter())
    }

    /// Every partition's LRU stamp so far, structure by structure (0 for a
    /// disabled one).
    #[must_use]
    pub fn stamps(&self) -> TlbStamps {
        let mut out = [0; TLB_PARTITIONS];
        for (slot, t) in out.iter_mut().zip(self.partitions()) {
            *slot = t.cache.as_ref().map_or(0, SetAssocCache::stamp);
        }
        out
    }

    /// [`TlbHierarchy::for_each_entry`] restricted to the entries hit or
    /// inserted since `since`, [`TlbHierarchy::stamps`] taken after the
    /// last snapshot load, which can move the stamps back. Every other
    /// entry was cached, unchanged, at `since`: a removal changes no
    /// entry it leaves. It visits only the sets hit or filled since.
    pub fn for_each_entry_touched_since(
        &self,
        since: &TlbStamps,
        mut f: impl FnMut((Asid, GuestVirtAddr, TlbEntry)),
    ) {
        for (t, &since) in self.partitions().zip(since) {
            let Some(cache) = t.cache.as_ref() else {
                continue;
            };
            cache.for_each_touched_since(since, |&(asid, vpn), &entry| {
                f((asid, GuestVirtAddr::new(vpn << t.size.shift()), entry));
            });
        }
    }

    /// Calls `f` on every entry of every structure that translates part
    /// of `asid`'s range `[va, va + bytes)`, probing only the sets that
    /// can hold one: a set per page when the range spans fewer pages of
    /// a partition's size than the partition has sets, otherwise every
    /// set. `bytes` must be positive. Read-only.
    pub fn for_each_overlapping(
        &self,
        asid: Asid,
        va: u64,
        bytes: u64,
        mut f: impl FnMut((Asid, GuestVirtAddr, TlbEntry)),
    ) {
        for t in self.partitions() {
            let Some(cache) = t.cache.as_ref() else {
                continue;
            };
            let shift = t.size.shift();
            let (first, last) = (va >> shift, (va + (bytes - 1)) >> shift);
            let mut hit = |&(a, vpn): &Key, &entry: &TlbEntry| {
                if a == asid && (first..=last).contains(&vpn) {
                    f((a, GuestVirtAddr::new(vpn << shift), entry));
                }
            };
            if last - first < cache.set_count() as u64 {
                // Consecutive pages fall in distinct sets.
                (first..=last).for_each(|vpn| cache.for_each_in_set(vpn, &mut hit));
            } else {
                cache.iter().for_each(|(key, entry)| hit(key, entry));
            }
        }
    }

    /// Aggregate hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets counters (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Appends the hierarchy's full dynamic state (every structure's
    /// contents, LRU state, and counters) to `s`. Each partition's sets
    /// are parts ([`SetAssocCache::save_to`]).
    pub fn save_to<S: StateSink>(&self, s: &mut S) {
        self.stats.save(s.enc());
        for t in self.l1d.iter().chain(self.l1i.iter()).chain(self.l2.iter()) {
            match t.cache.as_ref() {
                None => s.enc().u8(0),
                Some(c) => {
                    s.enc().u8(1);
                    c.save_to(s);
                }
            }
        }
    }

    /// Restores state captured by [`TlbHierarchy::save_to`]. The
    /// hierarchy geometry (same [`TlbConfig`]) must match.
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        let stats = TlbStats::load(d)?;
        for t in self
            .l1d
            .iter_mut()
            .chain(self.l1i.iter_mut())
            .chain(self.l2.iter_mut())
        {
            let tag = d.u8()?;
            match (tag, t.cache.as_mut()) {
                (0, None) => {}
                (1, Some(c)) => c.load_state(d)?,
                _ => return d.fail("TLB partition presence mismatch"),
            }
        }
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(frame: u64) -> TlbEntry {
        TlbEntry::new(HostFrame::new(frame), PageSize::Size4K, true).with_dirty(true)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x1000);
        assert!(tlb.lookup(asid, va, AccessKind::Read).is_none());
        tlb.fill(asid, va, entry(0x42));
        let e = tlb.lookup(asid, va, AccessKind::Read).unwrap();
        assert_eq!(e.frame, HostFrame::new(0x42));
        assert_eq!(tlb.stats().misses, 1);
        assert_eq!(tlb.stats().l1_hits, 1);
    }

    #[test]
    fn vpns_differing_only_above_set_bits_do_not_alias() {
        // Default L1-D 4K geometry is 64 entries / 4 ways = 16 sets, so
        // these two VPNs (low bits equal, differing only at VPN bit 33 —
        // above both the set field and a 32-bit usize, within the 48-bit
        // VA space) land in the same set and must coexist as distinct
        // tags, regardless of platform word width.
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let asid = Asid::new(1);
        let lo = GuestVirtAddr::new(0x5 << 12);
        let hi = GuestVirtAddr::new((0x5_u64 + (1 << 33)) << 12);
        assert_ne!(lo, hi);
        tlb.fill(asid, lo, entry(0xaa));
        tlb.fill(asid, hi, entry(0xbb));
        let e_lo = tlb.lookup(asid, lo, AccessKind::Read).unwrap();
        let e_hi = tlb.lookup(asid, hi, AccessKind::Read).unwrap();
        assert_eq!(e_lo.frame, HostFrame::new(0xaa));
        assert_eq!(e_hi.frame, HostFrame::new(0xbb));
        // Invalidating one must not take out its above-set-bits twin.
        tlb.invalidate_page(asid, hi);
        assert!(tlb.lookup(asid, hi, AccessKind::Read).is_none());
        assert!(tlb.lookup(asid, lo, AccessKind::Read).is_some());
    }

    #[test]
    fn asids_do_not_alias() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let va = GuestVirtAddr::new(0x1000);
        tlb.fill(Asid::new(1), va, entry(1));
        assert!(tlb.lookup(Asid::new(2), va, AccessKind::Read).is_none());
        assert!(tlb.lookup(Asid::new(1), va, AccessKind::Read).is_some());
    }

    #[test]
    fn write_to_readonly_entry_misses() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x2000);
        tlb.fill(
            asid,
            va,
            TlbEntry::new(HostFrame::new(9), PageSize::Size4K, false),
        );
        assert!(tlb.lookup(asid, va, AccessKind::Read).is_some());
        assert!(tlb.lookup(asid, va, AccessKind::Write).is_none());
        // The stale read-only entry must be gone so the refill sticks.
        tlb.fill(asid, va, entry(9));
        assert!(tlb.lookup(asid, va, AccessKind::Write).is_some());
    }

    #[test]
    fn store_through_clean_entry_rewalks() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x9000);
        // Read walk installed a clean, writable entry.
        tlb.fill(
            asid,
            va,
            TlbEntry::new(HostFrame::new(3), PageSize::Size4K, true),
        );
        assert!(tlb.lookup(asid, va, AccessKind::Read).is_some());
        // First store misses so hardware can set dirty bits.
        assert!(tlb.lookup(asid, va, AccessKind::Write).is_none());
        tlb.fill(asid, va, entry(3));
        assert!(tlb.lookup(asid, va, AccessKind::Write).is_some());
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::tiny());
        let asid = Asid::new(1);
        // Fill more 4K entries than L1-D holds (4) but fewer than L2 (16),
        // all mapping to different sets as much as possible.
        for i in 0..8u64 {
            tlb.fill(asid, GuestVirtAddr::new(i << 12), entry(i));
        }
        tlb.reset_stats();
        // The earliest entries fell out of L1 but sit in L2.
        let got = tlb.lookup(asid, GuestVirtAddr::new(0), AccessKind::Read);
        assert!(got.is_some());
        assert_eq!(tlb.stats().l2_hits, 1);
        // Immediately again: now an L1 hit thanks to promotion.
        tlb.lookup(asid, GuestVirtAddr::new(0), AccessKind::Read)
            .unwrap();
        assert_eq!(tlb.stats().l1_hits, 1);
    }

    #[test]
    fn instruction_fetches_use_itlb() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x3000);
        tlb.fill_for(asid, va, entry(1), AccessKind::Execute);
        tlb.reset_stats();
        assert!(tlb.lookup(asid, va, AccessKind::Execute).is_some());
        assert_eq!(tlb.stats().l1_hits, 1);
        // Data lookups find it only via L2 (fill went to L1-I + L2).
        assert!(tlb.lookup(asid, va, AccessKind::Read).is_some());
        assert_eq!(tlb.stats().l2_hits, 1);
    }

    #[test]
    fn huge_pages_hit_in_their_partition() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let asid = Asid::new(1);
        let base = GuestVirtAddr::new(4 * PageSize::Size2M.bytes());
        tlb.fill(
            asid,
            base,
            TlbEntry::new(HostFrame::new(0x800), PageSize::Size2M, true),
        );
        // Any VA within the 2M page hits.
        let inside = GuestVirtAddr::new(4 * PageSize::Size2M.bytes() + 0x12_3456);
        let e = tlb.lookup(asid, inside, AccessKind::Read).unwrap();
        assert_eq!(e.size, PageSize::Size2M);
    }

    #[test]
    fn invalidate_page_removes_everywhere() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let asid = Asid::new(1);
        let va = GuestVirtAddr::new(0x4000);
        tlb.fill(asid, va, entry(5));
        tlb.invalidate_page(asid, va);
        assert!(tlb.lookup(asid, va, AccessKind::Read).is_none());
        assert!(tlb.stats().invalidations >= 1);
    }

    #[test]
    fn flush_asid_is_selective() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        let va = GuestVirtAddr::new(0x5000);
        tlb.fill(Asid::new(1), va, entry(1));
        tlb.fill(Asid::new(2), va, entry(2));
        tlb.flush_asid(Asid::new(1));
        assert!(tlb.lookup(Asid::new(1), va, AccessKind::Read).is_none());
        assert!(tlb.lookup(Asid::new(2), va, AccessKind::Read).is_some());
    }

    #[test]
    fn flush_all_empties() {
        let mut tlb = TlbHierarchy::new(&TlbConfig::default());
        for i in 0..10u64 {
            tlb.fill(Asid::new(1), GuestVirtAddr::new(i << 12), entry(i));
        }
        tlb.flush_all();
        for i in 0..10u64 {
            assert!(tlb
                .lookup(Asid::new(1), GuestVirtAddr::new(i << 12), AccessKind::Read)
                .is_none());
        }
    }

    #[test]
    fn capacity_pressure_causes_misses() {
        // Working set larger than the whole tiny hierarchy must produce
        // steady-state misses.
        let mut tlb = TlbHierarchy::new(&TlbConfig::tiny());
        let asid = Asid::new(1);
        for round in 0..4 {
            for i in 0..64u64 {
                let va = GuestVirtAddr::new(i << 12);
                if tlb.lookup(asid, va, AccessKind::Read).is_none() {
                    tlb.fill(asid, va, entry(i));
                }
            }
            if round == 0 {
                continue;
            }
        }
        assert!(tlb.stats().miss_ratio() > 0.5);
    }
}
