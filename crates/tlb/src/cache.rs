//! A generic set-associative cache with true-LRU replacement.

use agile_types::{CodecError, Dec, Enc, Persist, StateSink};

/// Hit/miss/eviction counters for one cache structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Insertions that displaced a live entry.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in [0, 1]; 0 when there were no lookups.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A set-associative cache with LRU replacement within each set.
///
/// The caller supplies the set index on every operation (TLBs index by VPN
/// bits; fully associative structures pass 0 and size the single set to the
/// full capacity).
///
/// # Example
///
/// ```
/// use agile_tlb::SetAssocCache;
///
/// let mut c: SetAssocCache<u64, &str> = SetAssocCache::new(4, 2);
/// c.insert(0, 10, "a");
/// c.insert(0, 20, "b");
/// assert_eq!(c.lookup(0, &10), Some("a"));
/// c.insert(0, 30, "c"); // evicts 20, the LRU key
/// assert_eq!(c.lookup(0, &20), None);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<K, V> {
    sets: Vec<Vec<Slot<K, V>>>,
    ways: usize,
    stamp: u64,
    stats: CacheStats,
    /// Removal events so far, over all sets.
    removals: u64,
    /// Per set, the value of `removals` at the set's last removal: with
    /// the set's largest `last_use`, its part generation (see
    /// [`SetAssocCache::save_to`]).
    set_removals: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    last_use: u64,
}

impl<K: Eq + Clone, V: Clone> SetAssocCache<K, V> {
    /// Creates a cache with `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have capacity");
        SetAssocCache {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            stamp: 0,
            stats: CacheStats::default(),
            removals: 0,
            set_removals: vec![0; sets],
        }
    }

    /// Creates a fully associative cache with `entries` entries.
    #[must_use]
    pub fn fully_associative(entries: usize) -> Self {
        SetAssocCache::new(1, entries)
    }

    /// Number of sets.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Looks up `key` in set `set_index % sets`, updating LRU state and
    /// hit/miss counters.
    pub fn lookup(&mut self, set_index: usize, key: &K) -> Option<V> {
        self.stamp += 1;
        let stamp = self.stamp;
        let sets = self.sets.len();
        let set = &mut self.sets[set_index % sets];
        if let Some(slot) = set.iter_mut().find(|s| s.key == *key) {
            slot.last_use = stamp;
            self.stats.hits += 1;
            Some(slot.value.clone())
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Probes for `key` without touching LRU state or counters.
    #[must_use]
    pub fn peek(&self, set_index: usize, key: &K) -> Option<&V> {
        self.sets[set_index % self.sets.len()]
            .iter()
            .find(|s| s.key == *key)
            .map(|s| &s.value)
    }

    /// Inserts or updates `key`, evicting the LRU entry of a full set.
    /// Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, set_index: usize, key: K, value: V) -> Option<(K, V)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let sets = self.sets.len();
        let set = &mut self.sets[set_index % sets];
        if let Some(slot) = set.iter_mut().find(|s| s.key == key) {
            slot.value = value;
            slot.last_use = stamp;
            return None;
        }
        if set.len() < self.ways {
            set.push(Slot {
                key,
                value,
                last_use: stamp,
            });
            return None;
        }
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.last_use)
            .map(|(i, _)| i)
            .expect("set is full, so non-empty");
        let victim = std::mem::replace(
            &mut set[victim_idx],
            Slot {
                key,
                value,
                last_use: stamp,
            },
        );
        self.stats.evictions += 1;
        Some((victim.key, victim.value))
    }

    /// Removes `key` from set `set_index`, returning its value.
    pub fn invalidate(&mut self, set_index: usize, key: &K) -> Option<V> {
        let i = set_index % self.sets.len();
        let set = &mut self.sets[i];
        let pos = set.iter().position(|s| s.key == *key)?;
        let value = set.swap_remove(pos).value;
        note_removal(&mut self.removals, &mut self.set_removals[i]);
        Some(value)
    }

    /// Removes every key matching `pred`, one pass over the sets, and
    /// returns how many were removed. Within a set the matches go in
    /// ascending key order, each by the same `swap_remove` as
    /// [`SetAssocCache::invalidate`], so the surviving slot order is
    /// exactly that of invalidating the matching keys one by one in
    /// ascending order. Slot order is simulated state (see
    /// [`SetAssocCache::save_to`]), which an order-preserving `retain`
    /// would not reproduce.
    pub(crate) fn invalidate_ascending(&mut self, mut pred: impl FnMut(&K) -> bool) -> usize
    where
        K: Ord,
    {
        let mut removed = 0;
        for (set, at) in self.sets.iter_mut().zip(&mut self.set_removals) {
            let before = removed;
            while let Some(pos) = set
                .iter()
                .enumerate()
                .filter(|(_, s)| pred(&s.key))
                .min_by(|(_, a), (_, b)| a.key.cmp(&b.key))
                .map(|(i, _)| i)
            {
                set.swap_remove(pos);
                removed += 1;
            }
            if removed != before {
                note_removal(&mut self.removals, at);
            }
        }
        removed
    }

    /// Removes every entry matching the predicate, returning how many were
    /// removed.
    pub fn invalidate_if(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let mut removed = 0;
        for (set, at) in self.sets.iter_mut().zip(&mut self.set_removals) {
            let before = set.len();
            set.retain(|s| !pred(&s.key, &s.value));
            if set.len() != before {
                removed += before - set.len();
                note_removal(&mut self.removals, at);
            }
        }
        removed
    }

    /// Empties the cache (stats are kept).
    pub fn flush(&mut self) {
        for (set, at) in self.sets.iter_mut().zip(&mut self.set_removals) {
            if !set.is_empty() {
                set.clear();
                note_removal(&mut self.removals, at);
            }
        }
    }

    /// Current number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// True if no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over every live `(key, value)` pair, in no particular
    /// order, without touching LRU state or counters. Used by the verify
    /// layer to audit cached translations against the page tables.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.sets
            .iter()
            .flat_map(|set| set.iter().map(|s| (&s.key, &s.value)))
    }

    /// Hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters to zero.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// Records a removal from one set, moving that set's part generation.
fn note_removal(removals: &mut u64, set_removals: &mut u64) {
    *removals += 1;
    *set_removals = *removals;
}

impl Persist for CacheStats {
    fn save(&self, e: &mut Enc) {
        e.u64(self.hits);
        e.u64(self.misses);
        e.u64(self.evictions);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(CacheStats {
            hits: d.u64()?,
            misses: d.u64()?,
            evictions: d.u64()?,
        })
    }
}

impl<K: Eq + Clone + Persist, V: Clone + Persist> SetAssocCache<K, V> {
    /// Appends the cache's full dynamic state — every slot in per-set
    /// insertion order with its LRU stamp, the global stamp, and the
    /// counters — to `s`. Byte-stable: slot order within a set is part of
    /// the simulated state (it breaks `min_by_key` ties on eviction), so
    /// it is preserved exactly rather than canonicalized.
    ///
    /// Each set is one part, with its index as id. Its generation is the
    /// pair (the set's last removal, its largest `last_use`). Every lookup
    /// hit and every insert writes the cache's ever-growing stamp into the
    /// slot it touches, which raises the set's largest `last_use`; every
    /// other change to a set's slots is a removal, which moves the first
    /// half. The group's generation is (stamp, removals): it moves with
    /// any set.
    pub fn save_to<S: StateSink>(&self, s: &mut S) {
        let e = s.enc();
        e.u64(self.ways as u64);
        e.u64(self.stamp);
        self.stats.save(e);
        e.seq(self.sets.len());
        if !s.group(Some((self.stamp, self.removals))) {
            return;
        }
        for (i, (set, &removed)) in self.sets.iter().zip(&self.set_removals).enumerate() {
            let newest = set.iter().map(|slot| slot.last_use).max().unwrap_or(0);
            s.part(i as u64, (removed, newest), |e| {
                e.seq(set.len());
                for slot in set {
                    slot.key.save(e);
                    slot.value.save(e);
                    e.u64(slot.last_use);
                }
            });
        }
    }

    /// Restores state captured by [`SetAssocCache::save_to`] onto this
    /// cache. The geometry (sets × ways) must match — state moves between
    /// identically configured machines, never across geometries.
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        let ways = d.u64()? as usize;
        let stamp = d.u64()?;
        let stats = CacheStats::load(d)?;
        let nsets = d.len_prefix()?;
        if ways != self.ways || nsets != self.sets.len() {
            return d.fail(format!(
                "cache geometry mismatch: snapshot {nsets}x{ways}, live {}x{}",
                self.sets.len(),
                self.ways
            ));
        }
        for at in &mut self.set_removals {
            note_removal(&mut self.removals, at);
        }
        for set in &mut self.sets {
            let n = d.len_prefix()?;
            if n > self.ways {
                return d.fail(format!("set holds {n} slots, ways is {}", self.ways));
            }
            set.clear();
            for _ in 0..n {
                let key = K::load(d)?;
                let value = V::load(d)?;
                let last_use = d.u64()?;
                set.push(Slot {
                    key,
                    value,
                    last_use,
                });
            }
        }
        self.stamp = stamp;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = SetAssocCache::new(2, 2);
        assert_eq!(c.lookup(0, &1u64), None);
        c.insert(0, 1u64, 'x');
        assert_eq!(c.lookup(0, &1), Some('x'));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssocCache::new(1, 3);
        c.insert(0, 1u32, 1);
        c.insert(0, 2u32, 2);
        c.insert(0, 3u32, 3);
        // Touch 1 so 2 becomes LRU.
        assert!(c.lookup(0, &1).is_some());
        let evicted = c.insert(0, 4u32, 4).unwrap();
        assert_eq!(evicted.0, 2);
        assert!(c.lookup(0, &2).is_none());
        assert!(c.lookup(0, &1).is_some());
        assert!(c.lookup(0, &3).is_some());
        assert!(c.lookup(0, &4).is_some());
    }

    #[test]
    fn sets_are_independent() {
        let mut c = SetAssocCache::new(2, 1);
        c.insert(0, 10u32, 'a');
        c.insert(1, 11u32, 'b');
        assert_eq!(c.lookup(0, &10), Some('a'));
        assert_eq!(c.lookup(1, &11), Some('b'));
        // Same set wraps modulo set count.
        c.insert(2, 12u32, 'c'); // lands in set 0, evicting 10
        assert_eq!(c.lookup(0, &10), None);
    }

    #[test]
    fn insert_existing_updates_value_without_eviction() {
        let mut c = SetAssocCache::new(1, 1);
        c.insert(0, 5u32, 'a');
        assert!(c.insert(0, 5u32, 'b').is_none());
        assert_eq!(c.lookup(0, &5), Some('b'));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn invalidate_key_and_predicate() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(0, 1u32, 10u32);
        c.insert(0, 2u32, 20u32);
        c.insert(1, 3u32, 30u32);
        assert_eq!(c.invalidate(0, &1), Some(10));
        assert_eq!(c.invalidate(0, &1), None);
        let removed = c.invalidate_if(|_, v| *v >= 20);
        assert_eq!(removed, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn flush_clears_but_keeps_stats() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(0, 1u32, ());
        c.lookup(0, &1);
        c.flush();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(0, 1u32, 'a');
        c.insert(0, 2u32, 'b');
        // Peek at 1; if peek updated LRU, 2 would be evicted next.
        assert_eq!(c.peek(0, &1), Some(&'a'));
        let evicted = c.insert(0, 3u32, 'c').unwrap();
        assert_eq!(evicted.0, 1, "peek must not refresh entry 1");
        assert_eq!(c.stats().hits, 0, "peek must not count as a hit");
    }

    #[test]
    fn hit_ratio_math() {
        let mut c = SetAssocCache::new(1, 1);
        assert_eq!(c.stats().hit_ratio(), 0.0);
        c.insert(0, 1u32, ());
        c.lookup(0, &1);
        c.lookup(0, &2);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _: SetAssocCache<u32, ()> = SetAssocCache::new(0, 4);
    }
}
