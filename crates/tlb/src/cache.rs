//! A generic set-associative cache with true-LRU replacement.

use agile_types::{CodecError, Dec, Enc, Persist, StateSink};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

agile_types::record! {
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
/// A set of 16 or more ways also keeps an index: a key-to-slot map and the
/// set's recency order, so a probe, a fill and an eviction cost O(1)
/// instead of a scan of every way. The index is derived from the slots,
/// never saved, and gives exactly the scan's answers.
///
/// Each set also keeps the generation its saved bytes are keyed by (see
/// [`SetAssocCache::save_to`]) beside its slot vector, which a probe
/// reads anyway.
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
    sets: Vec<Set<K, V>>,
    /// One index per set when `ways >= INDEXED_WAYS`, otherwise empty.
    indexes: Vec<SlotIndex<K>>,
    ways: usize,
    stamp: u64,
    stats: CacheStats,
    /// Removal events so far, over all sets.
    removals: u64,
    /// The stamp of the last hit or insert, over all sets.
    touched: u64,
}

/// One set: its slots in insertion order, and its part generation.
#[derive(Debug, Clone)]
struct Set<K, V> {
    slots: Vec<Slot<K, V>>,
    /// The value of `removals` at the set's last removal, and the stamp of
    /// its last hit or insert (see [`SetAssocCache::save_to`]).
    generation: (u64, u64),
}

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    last_use: u64,
}

impl<K: Persist, V: Persist> Slot<K, V> {
    fn save(&self, e: &mut Enc) {
        self.key.save(e);
        self.value.save(e);
        e.u64(self.last_use);
    }
}

/// Associativity from which a set keeps a [`SlotIndex`]: the nested TLB
/// (64 ways) and the page-walk caches (16 and 32 ways) are indexed, and
/// the TLBs (at most 8 ways) scan. Indexing the page-walk caches too ran
/// `fig5` 3.2% faster than indexing the nested TLB alone (EXPERIMENTS.md).
const INDEXED_WAYS: usize = 16;

/// End of a recency list.
const NIL: usize = usize::MAX;

/// Derived state of one large set. Each slot has an id in `0..ways` that
/// stays with it while it lives, whatever position the slot vector moves
/// it to: `ids` maps a key to its slot's id, `slot_id`/`slot_at` map
/// positions to ids and back, and `prev`/`next` link the ids from least
/// to most recently used. `slot_id` is a permutation of `0..ways` that
/// mirrors every move of the slot vector, so its positions past the set's
/// length hold the free ids, and moving a slot never rehashes its key.
/// Every cache operation changes the slots and this index together, so
/// the head is always the slot with the smallest `last_use`, the one a
/// scan of the set would evict (stamps within a set are distinct).
#[derive(Debug, Clone)]
struct SlotIndex<K> {
    ids: HashMap<K, usize, BuildHasherDefault<KeyHasher>>,
    slot_id: Vec<usize>,
    slot_at: Vec<usize>,
    prev: Vec<usize>,
    next: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Clone> SlotIndex<K> {
    fn new(ways: usize) -> Self {
        SlotIndex {
            ids: HashMap::with_capacity_and_hasher(ways, BuildHasherDefault::default()),
            slot_id: (0..ways).collect(),
            slot_at: (0..ways).collect(),
            prev: vec![NIL; ways],
            next: vec![NIL; ways],
            head: NIL,
            tail: NIL,
        }
    }

    /// Re-derives the index from `slots` (after a restore).
    fn rebuild<V>(&mut self, slots: &[Slot<K, V>]) {
        *self = SlotIndex::new(self.slot_id.len());
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_by_key(|&at| slots[at].last_use);
        for at in order {
            self.push(slots[at].key.clone(), at);
        }
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    // The hash-map work stays out of line, so the scanned sets' probes
    // (the TLBs' hot path) stay small enough to inline.

    /// Where `key` sits.
    #[inline(never)]
    fn get(&self, key: &K) -> Option<usize> {
        self.ids.get(key).map(|&id| self.slot_at[id])
    }

    /// A slot holding `key` was appended at position `at`.
    #[inline(never)]
    fn push(&mut self, key: K, at: usize) {
        let id = self.slot_id[at];
        self.ids.insert(key, id);
        self.link_last(id);
    }

    /// The least recently used slot of the full set `slots` is about to
    /// take `key`: returns its position, now the most recently used.
    #[inline(never)]
    fn evict<V>(&mut self, slots: &[Slot<K, V>], key: K) -> usize {
        let id = self.head;
        let at = self.slot_at[id];
        self.ids.remove(&slots[at].key);
        self.ids.insert(key, id);
        self.touch_id(id);
        at
    }

    /// Slot `at` of `slots` is about to be `swap_remove`d.
    #[inline(never)]
    fn swap_remove<V>(&mut self, slots: &[Slot<K, V>], at: usize) {
        self.forget(&slots[at].key, at);
        self.swap(at, slots.len() - 1);
    }

    /// If `slots` holds `key`, readies its slot for `swap_remove` and
    /// returns its position.
    #[inline(never)]
    fn remove<V>(&mut self, slots: &[Slot<K, V>], key: &K) -> Option<usize> {
        let at = self.slot_at[*self.ids.get(key)?];
        self.swap_remove(slots, at);
        Some(at)
    }

    /// `slots.retain` of the slots not matching `pred`, keeping the index
    /// current. `retain` visits the slots once, in order, and moves the
    /// one it reads at `from` to `to` when it keeps it; positions
    /// `to..from` then hold removed slots.
    #[inline(never)]
    fn retain<V>(&mut self, slots: &mut Vec<Slot<K, V>>, pred: &mut impl FnMut(&K, &V) -> bool) {
        let (mut from, mut to) = (0, 0);
        slots.retain(|s| {
            let keep = !pred(&s.key, &s.value);
            if keep {
                self.swap(from, to);
                to += 1;
            } else {
                self.forget(&s.key, from);
            }
            from += 1;
            keep
        });
    }

    /// The slot at `at`, holding `key`, is being removed.
    fn forget(&mut self, key: &K, at: usize) {
        self.ids.remove(key);
        self.unlink(self.slot_id[at]);
    }

    /// The slots at positions `a` and `b` trade places.
    fn swap(&mut self, a: usize, b: usize) {
        self.slot_id.swap(a, b);
        self.slot_at[self.slot_id[a]] = a;
        self.slot_at[self.slot_id[b]] = b;
    }

    /// Marks the slot at `at` most recently used.
    fn touch(&mut self, at: usize) {
        self.touch_id(self.slot_id[at]);
    }

    fn touch_id(&mut self, id: usize) {
        if self.tail != id {
            self.unlink(id);
            self.link_last(id);
        }
    }

    fn unlink(&mut self, id: usize) {
        let (p, n) = (self.prev[id], self.next[id]);
        match p {
            NIL => self.head = n,
            p => self.next[p] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n] = p,
        }
    }

    fn link_last(&mut self, id: usize) {
        self.prev[id] = self.tail;
        self.next[id] = NIL;
        match self.tail {
            NIL => self.head = id,
            t => self.next[t] = id,
        }
        self.tail = id;
    }
}

/// FxHash's multiply-rotate recurrence over the key's words. The indexed
/// keys are small tuples of `u32` and `u64` ids; against std's SipHash it
/// makes the traced nested-TLB probe about half as costly
/// (EXPERIMENTS.md). The index is never iterated and never saved, so no
/// hash value can reach simulated state.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn finish(&self) -> u64 {
        // The product's high bits mix every input bit; the table picks
        // buckets with the low ones.
        self.0.rotate_left(26)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SetAssocCache<K, V> {
    /// Creates a cache with `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have capacity");
        let indexed = if ways >= INDEXED_WAYS { sets } else { 0 };
        let set = Set {
            slots: Vec::with_capacity(ways),
            generation: (0, 0),
        };
        SetAssocCache {
            sets: vec![set; sets],
            indexes: vec![SlotIndex::new(ways); indexed],
            ways,
            stamp: 0,
            stats: CacheStats::default(),
            removals: 0,
            touched: 0,
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

    /// The set `index` selects, `index % sets`: a mask when the set count
    /// is a power of two. Taking a `u64` lets callers reduce 64-bit page
    /// numbers before narrowing them to `usize`.
    #[inline]
    pub(crate) fn set_of(&self, index: u64) -> usize {
        let sets = self.sets.len() as u64;
        let set = if sets.is_power_of_two() {
            index & (sets - 1)
        } else {
            index % sets
        };
        set as usize
    }

    /// Where `key` sits in set `i`.
    #[inline]
    fn position(&self, i: usize, key: &K) -> Option<usize> {
        match self.indexes.get(i) {
            Some(ix) => ix.get(key),
            None => self.sets[i].slots.iter().position(|s| s.key == *key),
        }
    }

    /// Looks up `key` in set `set_index % sets`, updating LRU state and
    /// hit/miss counters.
    #[inline]
    pub fn lookup(&mut self, set_index: usize, key: &K) -> Option<V> {
        self.stamp += 1;
        let i = self.set_of(set_index as u64);
        let Some(at) = self.position(i, key) else {
            self.stats.misses += 1;
            return None;
        };
        if let Some(ix) = self.indexes.get_mut(i) {
            ix.touch(at);
        }
        self.touched = self.stamp;
        let set = &mut self.sets[i];
        set.generation.1 = self.stamp;
        let slot = &mut set.slots[at];
        slot.last_use = self.stamp;
        self.stats.hits += 1;
        Some(slot.value.clone())
    }

    /// Probes for `key` without touching LRU state or counters.
    #[inline]
    #[must_use]
    pub fn peek(&self, set_index: usize, key: &K) -> Option<&V> {
        let i = self.set_of(set_index as u64);
        self.position(i, key)
            .map(|at| &self.sets[i].slots[at].value)
    }

    /// Inserts or updates `key`, evicting the LRU entry of a full set.
    /// Returns the evicted `(key, value)` pair, if any.
    #[inline]
    pub fn insert(&mut self, set_index: usize, key: K, value: V) -> Option<(K, V)> {
        self.stamp += 1;
        let i = self.set_of(set_index as u64);
        self.touched = self.stamp;
        self.sets[i].generation.1 = self.stamp;
        if let Some(at) = self.position(i, &key) {
            if let Some(ix) = self.indexes.get_mut(i) {
                ix.touch(at);
            }
            let slot = &mut self.sets[i].slots[at];
            slot.value = value;
            slot.last_use = self.stamp;
            return None;
        }
        let slot = Slot {
            key,
            value,
            last_use: self.stamp,
        };
        let index = self.indexes.get_mut(i);
        let set = &mut self.sets[i].slots;
        if set.len() < self.ways {
            if let Some(ix) = index {
                ix.push(slot.key.clone(), set.len());
            }
            set.push(slot);
            return None;
        }
        let victim_idx = match index {
            Some(ix) => ix.evict(set, slot.key.clone()),
            None => set
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i)
                .expect("set is full, so non-empty"),
        };
        let victim = std::mem::replace(&mut set[victim_idx], slot);
        self.stats.evictions += 1;
        Some((victim.key, victim.value))
    }

    /// Removes `key` from set `set_index`, returning its value.
    #[inline]
    pub fn invalidate(&mut self, set_index: usize, key: &K) -> Option<V> {
        let i = self.set_of(set_index as u64);
        let set = &mut self.sets[i];
        let at = match self.indexes.get_mut(i) {
            Some(ix) => ix.remove(&set.slots, key)?,
            None => set.slots.iter().position(|s| s.key == *key)?,
        };
        let value = set.slots.swap_remove(at).value;
        note_removal(&mut self.removals, set);
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
    ///
    /// Public for the differential test in `tests/prop.rs`, which checks
    /// it on indexed sets; the TLBs are its only callers.
    pub fn invalidate_ascending(&mut self, mut pred: impl FnMut(&K) -> bool) -> usize
    where
        K: Ord,
    {
        let indexed = !self.indexes.is_empty();
        let mut removed = 0;
        for (i, set) in self.sets.iter_mut().enumerate() {
            let before = removed;
            while let Some(pos) = set
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| pred(&s.key))
                .min_by(|(_, a), (_, b)| a.key.cmp(&b.key))
                .map(|(i, _)| i)
            {
                if indexed {
                    self.indexes[i].swap_remove(&set.slots, pos);
                }
                set.slots.swap_remove(pos);
                removed += 1;
            }
            if removed != before {
                note_removal(&mut self.removals, set);
            }
        }
        removed
    }

    /// Removes every entry matching the predicate, returning how many were
    /// removed. Survivors keep their relative slot order.
    pub fn invalidate_if(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let indexed = !self.indexes.is_empty();
        let mut removed = 0;
        for (i, set) in self.sets.iter_mut().enumerate() {
            let before = set.slots.len();
            if indexed {
                self.indexes[i].retain(&mut set.slots, &mut pred);
            } else {
                set.slots.retain(|s| !pred(&s.key, &s.value));
            }
            if set.slots.len() != before {
                removed += before - set.slots.len();
                note_removal(&mut self.removals, set);
            }
        }
        removed
    }

    /// Empties the cache (stats are kept).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            if !set.slots.is_empty() {
                set.slots.clear();
                note_removal(&mut self.removals, set);
            }
        }
        self.indexes.iter_mut().for_each(SlotIndex::clear);
    }

    /// Current number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.iter().map(|set| set.slots.len()).sum()
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
            .flat_map(|set| set.slots.iter().map(|s| (&s.key, &s.value)))
    }

    /// The stamp so far: every later hit or insert leaves its slot's LRU
    /// stamp past it, until a snapshot load moves the stamp back.
    #[must_use]
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Calls `f` on every live `(key, value)` pair hit or inserted since
    /// the cache's [`SetAssocCache::stamp`] read `since`, taken after the
    /// last snapshot load. Every other live pair was cached, unchanged,
    /// at `since`: a removal changes no pair it leaves. Read-only; it
    /// visits only the sets whose generation moved past `since`.
    pub(crate) fn for_each_touched_since(&self, since: u64, mut f: impl FnMut(&K, &V)) {
        if self.touched <= since {
            return;
        }
        for set in self.sets.iter().filter(|set| set.generation.1 > since) {
            for slot in set.slots.iter().filter(|slot| slot.last_use > since) {
                f(&slot.key, &slot.value);
            }
        }
    }

    /// Calls `f` on every live `(key, value)` pair of the set `index`
    /// selects (as [`SetAssocCache::lookup`] selects it). Read-only.
    pub(crate) fn for_each_in_set(&self, index: u64, mut f: impl FnMut(&K, &V)) {
        let set = &self.sets[self.set_of(index)];
        set.slots.iter().for_each(|s| f(&s.key, &s.value));
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

/// Records a removal from `set`, moving its part generation.
fn note_removal<K, V>(removals: &mut u64, set: &mut Set<K, V>) {
    *removals += 1;
    set.generation.0 = *removals;
}

impl<K: Eq + Hash + Clone + Persist, V: Clone + Persist> SetAssocCache<K, V> {
    /// Appends the cache's full dynamic state — every slot in per-set
    /// insertion order with its LRU stamp, the global stamp, and the
    /// counters — to `s`. Byte-stable: slot order within a set is part of
    /// the simulated state (it breaks `min_by_key` ties on eviction), so
    /// it is preserved exactly rather than canonicalized.
    ///
    /// The parts are dense ([`StateSink::dense`]), each with an O(1)
    /// generation that a miss leaves alone:
    ///
    /// - A cache of one indexed set (the nested TLB, the page-walk
    ///   caches, the context-pointer cache) is keyed per slot position,
    ///   the set's length going with the header. A slot's generation is
    ///   (the set's last removal, its `last_use`). A hit or an insert
    ///   writes the cache's ever-growing stamp into the one slot it
    ///   touches, and every other change to the slots is a removal
    ///   (`swap_remove` moves slots between positions), so a hit rehashes
    ///   one slot.
    /// - Any other cache is keyed per set, with (the set's last removal,
    ///   the stamp of its last hit or insert) as generation.
    ///
    /// The group's generation is (removals, the stamp of the last hit or
    /// insert) over all sets. A restore counts as a removal from every
    /// set, and the removal count only grows, so a generation never comes
    /// back with other bytes.
    pub fn save_to<S: StateSink>(&self, s: &mut S) {
        let e = s.enc();
        e.u64(self.ways as u64);
        e.u64(self.stamp);
        self.stats.save(e);
        e.seq(self.sets.len());
        let sets = &self.sets;
        if let ([set], false) = (&sets[..], self.indexes.is_empty()) {
            let (slots, removed) = (&set.slots, set.generation.0);
            s.enc().seq(slots.len());
            if s.group((self.removals, self.touched)) {
                s.dense(
                    slots.len(),
                    |at| (removed, slots[at].last_use),
                    |at, e| slots[at].save(e),
                );
            }
        } else if s.group((self.removals, self.touched)) {
            s.dense(
                sets.len(),
                |i| sets[i].generation,
                |i, e| {
                    e.seq(sets[i].slots.len());
                    sets[i].slots.iter().for_each(|slot| slot.save(e));
                },
            );
        }
    }

    /// Restores state captured by [`SetAssocCache::save_to`] onto this
    /// cache. The geometry (sets × ways) must match — state moves between
    /// identically configured machines, never across geometries. A set
    /// whose keys or stamps repeat, or whose stamps run past the cache's
    /// stamp, is refused: no run reaches one, and an index of it could not
    /// give a scan's answers.
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        let loaded = self.load_slots(d);
        for (ix, set) in self.indexes.iter_mut().zip(&self.sets) {
            ix.rebuild(&set.slots);
        }
        loaded
    }

    fn load_slots(&mut self, d: &mut Dec) -> Result<(), CodecError> {
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
        for set in &mut self.sets {
            note_removal(&mut self.removals, set);
        }
        let mut stamps = Vec::with_capacity(self.ways);
        for set in &mut self.sets {
            let set = &mut set.slots;
            let n = d.len_prefix()?;
            if n > self.ways {
                return d.fail(format!("set holds {n} slots, ways is {}", self.ways));
            }
            set.clear();
            stamps.clear();
            for _ in 0..n {
                let key = K::load(d)?;
                let value = V::load(d)?;
                let last_use = d.u64()?;
                set.push(Slot {
                    key,
                    value,
                    last_use,
                });
                stamps.push(last_use);
            }
            stamps.sort_unstable();
            let repeats = stamps.windows(2).any(|w| w[0] == w[1])
                || (1..n).any(|i| set[..i].iter().any(|s| s.key == set[i].key));
            if repeats || stamps.last() > Some(&stamp) {
                return d.fail(format!(
                    "set keys or stamps repeat, or stamps pass the cache stamp {stamp}"
                ));
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
    use agile_types::Enc;

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
    fn load_refuses_repeated_keys_or_stamps_and_stamps_ahead() {
        // One set of 64 ways (indexed) holding two slots, saved by hand.
        let saved = |stamp: u64, slots: [(u32, u64); 2]| {
            let mut e = Enc::new();
            e.u64(64);
            e.u64(stamp);
            CacheStats::default().save(&mut e);
            e.seq(1);
            e.seq(2);
            for (key, last_use) in slots {
                e.u32(key);
                e.u32(0);
                e.u64(last_use);
            }
            e.into_bytes()
        };
        let load = |bytes: Vec<u8>| {
            let mut c: SetAssocCache<u32, u32> = SetAssocCache::new(1, 64);
            c.load_state(&mut Dec::new(&bytes))
        };
        assert!(load(saved(9, [(1, 4), (2, 7)])).is_ok());
        assert!(load(saved(9, [(1, 4), (1, 7)])).is_err(), "repeated key");
        assert!(load(saved(9, [(1, 7), (2, 7)])).is_err(), "repeated stamp");
        assert!(load(saved(6, [(1, 4), (2, 7)])).is_err(), "stamp ahead");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _: SetAssocCache<u32, ()> = SetAssocCache::new(0, 4);
    }
}
