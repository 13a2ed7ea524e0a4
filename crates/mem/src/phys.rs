//! Simulated host physical memory.

use agile_types::{CodecError, Dec, Enc, HostFrame, Persist, Pte, VmId, ENTRIES_PER_TABLE};

/// Frame-number span reserved per VM: VM `i` allocates frame numbers from
/// `i * VM_FRAME_SPAN + 1`, so every frame number is globally unique across
/// a multi-VM host and ownership is recoverable from the number alone.
pub const VM_FRAME_SPAN: u64 = 1 << 32;

/// One 4 KiB page-table page: 512 PTEs, exactly as hardware would see it,
/// plus a bitmap of which of them are present.
#[derive(Clone)]
pub struct TablePage {
    entries: [Pte; ENTRIES_PER_TABLE],
    /// Bit `i % 64` of word `i / 64` is set iff `entries[i]` is present.
    /// [`TablePage::set_entry`] is the only writer of `entries` and keeps
    /// it in step, so present-entry walks never scan empty slots.
    present: [u64; ENTRIES_PER_TABLE / 64],
}

impl TablePage {
    /// A zero-filled (all not-present) table page.
    #[must_use]
    pub fn new() -> Self {
        TablePage {
            entries: [Pte::empty(); ENTRIES_PER_TABLE],
            present: [0; ENTRIES_PER_TABLE / 64],
        }
    }

    /// Reads the entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    #[must_use]
    pub fn entry(&self, index: usize) -> Pte {
        self.entries[index]
    }

    /// Writes the entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    #[inline]
    pub fn set_entry(&mut self, index: usize, pte: Pte) {
        self.entries[index] = pte;
        let bit = 1u64 << (index % 64);
        if pte.is_present() {
            self.present[index / 64] |= bit;
        } else {
            self.present[index / 64] &= !bit;
        }
    }

    /// Number of present entries.
    #[must_use]
    pub fn present_count(&self) -> usize {
        self.present.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over `(index, pte)` for present entries, in index order.
    pub fn present_entries(&self) -> impl Iterator<Item = (usize, Pte)> + '_ {
        self.present.iter().enumerate().flat_map(move |(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some((i, self.entries[i]))
            })
        })
    }
}

impl Default for TablePage {
    fn default() -> Self {
        TablePage::new()
    }
}

impl std::fmt::Debug for TablePage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TablePage({} present)", self.present_count())
    }
}

/// Simulated host physical memory: a bump frame allocator plus the contents
/// of every page-table page.
///
/// Data pages have identity but no simulated contents (the simulator models
/// translation, not data); page-table pages hold real PTE arrays so that the
/// hardware walker's loads — and therefore the paper's memory-reference
/// counts — are structural.
///
/// Table pages live in a contiguous arena (`slab`) rather than one heap
/// box per page: the walker's PTE loads index-chase through two dense
/// vectors (`slots[frame - base]` → slab slot → entry) instead of hashing
/// the frame number on every reference, which keeps the hot loop
/// cache-local. Frame numbers are bump-allocated and never reused, so the
/// span-relative offset is a stable dense key; slab slots *are* reused
/// (zeroed on reuse) so long churny runs don't grow the arena without
/// bound.
///
/// # Example
///
/// ```
/// use agile_mem::PhysMem;
/// use agile_types::Pte;
///
/// let mut mem = PhysMem::new();
/// let t = mem.alloc_table_page();
/// mem.write_pte(t, 5, Pte::leaf(0x123, true, false));
/// assert_eq!(mem.read_pte(t, 5).frame_raw(), 0x123);
/// ```
pub struct PhysMem {
    /// Arena of table-page contents; live and free slots interleave.
    slab: Vec<TablePage>,
    /// Span-relative frame number → slab slot, or [`NON_TABLE`].
    slots: Vec<u32>,
    /// Slab slots freed by [`PhysMem::free_table_page`], ready for reuse.
    free_slots: Vec<u32>,
    live_tables: usize,
    owner: VmId,
    base: u64,
    next_frame: u64,
    data_frames: u64,
    freed_table_pages: u64,
    frame_budget: Option<u64>,
    charged: u64,
    track_frees: bool,
    freed_log: Vec<HostFrame>,
}

/// Sentinel slot value: the frame is not (or no longer) a table page.
const NON_TABLE: u32 = u32::MAX;

impl PhysMem {
    /// An empty physical memory with nothing allocated, owned by VM 0.
    ///
    /// Frame 0 is reserved (never handed out) so that a zero PTE can never
    /// alias a real allocation.
    #[must_use]
    pub fn new() -> Self {
        PhysMem::for_vm(VmId::new(0))
    }

    /// An empty physical memory whose frame numbers carry VM ownership:
    /// VM `i` bump-allocates from `i * VM_FRAME_SPAN + 1`. A single-VM
    /// machine ([`PhysMem::new`]) is VM 0 with base 0, so frame numbers —
    /// and every log derived from them — are unchanged for existing runs.
    ///
    /// The base frame of each VM's span plays the role frame 0 plays for
    /// VM 0: reserved, never handed out.
    #[must_use]
    pub fn for_vm(owner: VmId) -> Self {
        let base = u64::from(owner.raw()) * VM_FRAME_SPAN;
        PhysMem {
            slab: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            live_tables: 0,
            owner,
            base,
            next_frame: base + 1,
            data_frames: 0,
            freed_table_pages: 0,
            frame_budget: None,
            charged: 0,
            track_frees: false,
            freed_log: Vec::new(),
        }
    }

    /// The VM that owns every frame this memory hands out.
    #[must_use]
    pub fn owner(&self) -> VmId {
        self.owner
    }

    /// First frame number of this VM's span (reserved, never allocated).
    #[must_use]
    pub fn frame_base(&self) -> u64 {
        self.base
    }

    /// The next raw frame number the bump allocator would hand out. Useful
    /// as a high-water mark: every frame allocated after this point has a
    /// number `>=` the mark.
    #[must_use]
    pub fn next_frame_raw(&self) -> u64 {
        self.next_frame
    }

    /// Charges `count` frames against the budget; `false` means the machine
    /// is out of host memory and the caller must reclaim or degrade.
    fn charge(&mut self, count: u64) -> bool {
        if let Some(budget) = self.frame_budget {
            if self.charged + count > budget {
                return false;
            }
        }
        self.charged += count;
        true
    }

    /// Caps the number of frames this memory will hand out. Frames already
    /// charged count against the cap, so a budget below
    /// [`PhysMem::frames_charged`] fails the very next allocation. `None`
    /// (the default) means unlimited.
    pub fn set_frame_budget(&mut self, budget: Option<u64>) {
        self.frame_budget = budget;
    }

    /// Returns reclaimed frames to the budget. The bump allocator never
    /// reuses frame *numbers*, but capacity freed by reclaim (page-out,
    /// dedup, table teardown) is real: crediting models the VMM handing
    /// those frames back to the allocator.
    pub fn credit_frames(&mut self, count: u64) {
        self.charged = self.charged.saturating_sub(count);
    }

    /// Frames currently charged against the budget.
    #[must_use]
    pub fn frames_charged(&self) -> u64 {
        self.charged
    }

    /// Frames left under the budget, or `None` when unlimited.
    #[must_use]
    pub fn frames_remaining(&self) -> Option<u64> {
        self.frame_budget.map(|b| b.saturating_sub(self.charged))
    }

    /// Allocates one data frame.
    ///
    /// # Panics
    ///
    /// Panics if a frame budget is set and exhausted; pressure-aware callers
    /// use [`PhysMem::try_alloc_frame`] instead.
    pub fn alloc_frame(&mut self) -> HostFrame {
        self.try_alloc_frame().unwrap_or_else(|| {
            panic!(
                "host physical memory exhausted ({:?} frames)",
                self.frame_budget
            )
        })
    }

    /// Fallible variant of [`PhysMem::alloc_frame`]: `None` when the frame
    /// budget is exhausted.
    pub fn try_alloc_frame(&mut self) -> Option<HostFrame> {
        if !self.charge(1) {
            return None;
        }
        let f = HostFrame::new(self.next_frame);
        self.next_frame += 1;
        self.data_frames += 1;
        Some(f)
    }

    /// Allocates `count` physically contiguous data frames whose start is
    /// aligned to `align` frames (e.g. 512 for a 2 MiB huge page). Returns
    /// the first frame.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two, or if a frame budget
    /// is set and exhausted.
    pub fn alloc_frames(&mut self, count: u64, align: u64) -> HostFrame {
        self.try_alloc_frames(count, align).unwrap_or_else(|| {
            panic!(
                "host physical memory exhausted ({:?} frames)",
                self.frame_budget
            )
        })
    }

    /// Fallible variant of [`PhysMem::alloc_frames`]: `None` when the frame
    /// budget cannot cover `count` more frames.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn try_alloc_frames(&mut self, count: u64, align: u64) -> Option<HostFrame> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        if !self.charge(count) {
            return None;
        }
        let start = self.next_frame.div_ceil(align) * align;
        self.next_frame = start + count;
        self.data_frames += count;
        Some(HostFrame::new(start))
    }

    /// Allocates a zeroed page-table page and returns its frame.
    ///
    /// # Panics
    ///
    /// Panics if a frame budget is set and exhausted.
    pub fn alloc_table_page(&mut self) -> HostFrame {
        self.try_alloc_table_page().unwrap_or_else(|| {
            panic!(
                "host physical memory exhausted ({:?} frames)",
                self.frame_budget
            )
        })
    }

    /// Fallible variant of [`PhysMem::alloc_table_page`]: `None` when the
    /// frame budget is exhausted.
    pub fn try_alloc_table_page(&mut self) -> Option<HostFrame> {
        if !self.charge(1) {
            return None;
        }
        let f = HostFrame::new(self.next_frame);
        self.next_frame += 1;
        let off = (f.raw() - self.base) as usize;
        if self.slots.len() <= off {
            self.slots.resize(off + 1, NON_TABLE);
        }
        let slot = match self.free_slots.pop() {
            Some(s) => {
                // Reused slots must look freshly allocated: zero the page.
                self.slab[s as usize] = TablePage::new();
                s
            }
            None => {
                self.slab.push(TablePage::new());
                u32::try_from(self.slab.len() - 1).expect("table arena exceeds u32 slots")
            }
        };
        self.slots[off] = slot;
        self.live_tables += 1;
        Some(f)
    }

    /// Slab slot of `frame`, or `None` when it is not a live table page
    /// (data frame, freed table, reserved base, or a foreign VM's span).
    #[inline]
    fn slot_of(&self, frame: HostFrame) -> Option<usize> {
        // Frames below `base` wrap to huge offsets and fall out of range.
        let off = frame.raw().wrapping_sub(self.base);
        if off >= self.slots.len() as u64 {
            return None;
        }
        let slot = self.slots[off as usize];
        if slot == NON_TABLE {
            None
        } else {
            Some(slot as usize)
        }
    }

    /// Frees a page-table page. The frame number is not reused (bump
    /// allocator), but the contents are dropped and the page stops being
    /// readable.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a live table page — freeing a data frame or
    /// double-freeing indicates a simulator bug.
    pub fn free_table_page(&mut self, frame: HostFrame) {
        let slot = self
            .slot_of(frame)
            .unwrap_or_else(|| panic!("free of non-table frame {frame}"));
        self.slots[(frame.raw() - self.base) as usize] = NON_TABLE;
        self.free_slots
            .push(u32::try_from(slot).expect("table arena exceeds u32 slots"));
        self.live_tables -= 1;
        self.freed_table_pages += 1;
        if self.track_frees {
            self.freed_log.push(frame);
        }
        self.credit_frames(1);
    }

    /// Turns per-frame free logging on or off (off by default). While on,
    /// every [`PhysMem::free_table_page`] pushes the freed frame onto a log
    /// drained by [`PhysMem::take_freed_frames`] — the shootdown-protocol
    /// race detector uses this to order frees against flush delivery.
    pub fn set_track_frees(&mut self, on: bool) {
        self.track_frees = on;
        if !on {
            self.freed_log.clear();
        }
    }

    /// Drains the freed-frame log recorded since the last call (empty
    /// unless [`PhysMem::set_track_frees`] enabled tracking).
    pub fn take_freed_frames(&mut self) -> Vec<HostFrame> {
        std::mem::take(&mut self.freed_log)
    }

    /// Reads the PTE at `index` of the table page at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a live table page or `index >= 512`; the
    /// hardware walker dereferencing a non-table frame is a simulator bug.
    #[inline]
    #[must_use]
    pub fn read_pte(&self, frame: HostFrame, index: usize) -> Pte {
        match self.slot_of(frame) {
            Some(slot) => self.slab[slot].entry(index),
            None => panic!("PTE read from non-table frame {frame}"),
        }
    }

    /// Fallible variant of [`PhysMem::read_pte`] for software probing.
    #[inline]
    #[must_use]
    pub fn try_read_pte(&self, frame: HostFrame, index: usize) -> Option<Pte> {
        self.slot_of(frame).map(|slot| self.slab[slot].entry(index))
    }

    /// Writes the PTE at `index` of the table page at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a live table page or `index >= 512`.
    #[inline]
    pub fn write_pte(&mut self, frame: HostFrame, index: usize, pte: Pte) {
        match self.slot_of(frame) {
            Some(slot) => self.slab[slot].set_entry(index, pte),
            None => panic!("PTE write to non-table frame {frame}"),
        }
    }

    /// Borrow of the table page at `frame`, if it is one.
    #[inline]
    #[must_use]
    pub fn table(&self, frame: HostFrame) -> Option<&TablePage> {
        self.slot_of(frame).map(|slot| &self.slab[slot])
    }

    /// True if `frame` currently holds a page-table page.
    #[inline]
    #[must_use]
    pub fn is_table(&self, frame: HostFrame) -> bool {
        self.slot_of(frame).is_some()
    }

    /// Number of live page-table pages.
    #[must_use]
    pub fn table_page_count(&self) -> usize {
        self.live_tables
    }

    /// Every live page-table frame, sorted by frame number. The slot index
    /// is already frame-ordered, so callers (the static analyzer's
    /// frame-ownership pass) get a deterministic order by construction.
    #[must_use]
    pub fn table_frames(&self) -> Vec<HostFrame> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NON_TABLE)
            .map(|(off, _)| HostFrame::new(self.base + off as u64))
            .collect()
    }

    /// Number of data frames ever allocated.
    #[must_use]
    pub fn data_frame_count(&self) -> u64 {
        self.data_frames
    }

    /// Number of table pages freed over the lifetime of the memory.
    #[must_use]
    pub fn freed_table_page_count(&self) -> u64 {
        self.freed_table_pages
    }

    /// Total frames handed out (data + table, live or freed).
    #[must_use]
    pub fn frames_allocated(&self) -> u64 {
        self.next_frame - self.base - 1
    }

    /// Appends the memory's full dynamic state to `e`: the allocator
    /// bookkeeping plus every live table page as `(frame, present
    /// entries)`. Byte-stable: table pages are emitted in frame order
    /// (the slot index is frame-ordered by construction) and only present
    /// entries are written. Arena slot numbers are *not* saved — they are
    /// an unobservable packing detail; restore re-packs densely.
    pub fn save_state(&self, e: &mut Enc) {
        self.owner.save(e);
        e.u64(self.base);
        e.u64(self.next_frame);
        e.u64(self.data_frames);
        e.u64(self.freed_table_pages);
        self.frame_budget.save(e);
        e.u64(self.charged);
        e.bool(self.track_frees);
        self.freed_log.save(e);
        let frames = self.table_frames();
        e.seq(frames.len());
        for f in frames {
            e.u64(f.raw());
            let page = self.table(f).expect("table_frames listed a live table");
            e.seq(page.present_count());
            for (i, pte) in page.present_entries() {
                e.u32(i as u32);
                pte.save(e);
            }
        }
    }

    /// Restores state captured by [`PhysMem::save_state`] onto this
    /// memory, replacing everything. The owner VM must match — snapshots
    /// restore onto a machine built for the same VM.
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        let owner = VmId::load(d)?;
        if owner != self.owner {
            return d.fail(format!(
                "snapshot owned by {owner}, live memory is {}",
                self.owner
            ));
        }
        let base = d.u64()?;
        if base != self.base {
            return d.fail("frame-span base mismatch");
        }
        self.next_frame = d.u64()?;
        self.data_frames = d.u64()?;
        self.freed_table_pages = d.u64()?;
        self.frame_budget = Option::<u64>::load(d)?;
        self.charged = d.u64()?;
        self.track_frees = d.bool()?;
        self.freed_log = Vec::<HostFrame>::load(d)?;
        self.slab.clear();
        self.slots.clear();
        self.free_slots.clear();
        self.live_tables = 0;
        let tables = d.len_prefix()?;
        for _ in 0..tables {
            let frame = d.u64()?;
            let off = frame.wrapping_sub(self.base);
            if frame <= self.base || frame >= self.next_frame {
                return d.fail(format!("table frame {frame:#x} outside span"));
            }
            let off = off as usize;
            if self.slots.len() <= off {
                self.slots.resize(off + 1, NON_TABLE);
            }
            if self.slots[off] != NON_TABLE {
                return d.fail(format!("duplicate table frame {frame:#x}"));
            }
            let mut page = TablePage::new();
            let present = d.len_prefix()?;
            for _ in 0..present {
                let i = d.u32()? as usize;
                if i >= ENTRIES_PER_TABLE {
                    return d.fail(format!("PTE index {i} out of range"));
                }
                page.set_entry(i, Pte::load(d)?);
            }
            self.slab.push(page);
            self.slots[off] =
                u32::try_from(self.slab.len() - 1).expect("table arena exceeds u32 slots");
            self.live_tables += 1;
        }
        Ok(())
    }
}

impl Default for PhysMem {
    fn default() -> Self {
        PhysMem::new()
    }
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("owner", &self.owner)
            .field("live_tables", &self.live_tables)
            .field("arena_slots", &self.slab.len())
            .field("data_frames", &self.data_frames)
            .field("frames_allocated", &self.frames_allocated())
            .field("frame_budget", &self.frame_budget)
            .field("charged", &self.charged)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_unique_and_nonzero() {
        let mut mem = PhysMem::new();
        let a = mem.alloc_frame();
        let b = mem.alloc_table_page();
        let c = mem.alloc_frame();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
        assert!(a.raw() > 0 && b.raw() > 0 && c.raw() > 0);
    }

    #[test]
    fn table_pages_start_zeroed() {
        let mut mem = PhysMem::new();
        let t = mem.alloc_table_page();
        for i in 0..ENTRIES_PER_TABLE {
            assert!(!mem.read_pte(t, i).is_present());
        }
        assert_eq!(mem.table(t).unwrap().present_count(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut mem = PhysMem::new();
        let t = mem.alloc_table_page();
        let pte = Pte::leaf(0xabc, true, false);
        mem.write_pte(t, 511, pte);
        assert_eq!(mem.read_pte(t, 511), pte);
        assert_eq!(mem.table(t).unwrap().present_count(), 1);
    }

    #[test]
    fn contiguous_alloc_respects_alignment() {
        let mut mem = PhysMem::new();
        mem.alloc_frame(); // perturb
        let start = mem.alloc_frames(512, 512);
        assert_eq!(start.raw() % 512, 0);
        let next = mem.alloc_frame();
        assert!(next.raw() >= start.raw() + 512);
    }

    #[test]
    fn free_table_page_makes_it_unreadable() {
        let mut mem = PhysMem::new();
        let t = mem.alloc_table_page();
        assert!(mem.is_table(t));
        mem.free_table_page(t);
        assert!(!mem.is_table(t));
        assert!(mem.try_read_pte(t, 0).is_none());
        assert_eq!(mem.freed_table_page_count(), 1);
    }

    #[test]
    #[should_panic(expected = "non-table frame")]
    fn reading_data_frame_as_table_panics() {
        let mut mem = PhysMem::new();
        let d = mem.alloc_frame();
        let _ = mem.read_pte(d, 0);
    }

    #[test]
    #[should_panic(expected = "free of non-table frame")]
    fn double_free_panics() {
        let mut mem = PhysMem::new();
        let t = mem.alloc_table_page();
        mem.free_table_page(t);
        mem.free_table_page(t);
    }

    #[test]
    fn counters_track_allocations() {
        let mut mem = PhysMem::new();
        mem.alloc_frame();
        mem.alloc_frame();
        mem.alloc_table_page();
        assert_eq!(mem.data_frame_count(), 2);
        assert_eq!(mem.table_page_count(), 1);
        assert_eq!(mem.frames_allocated(), 3);
    }

    #[test]
    fn frame_budget_fails_allocations_then_credit_restores_them() {
        let mut mem = PhysMem::new();
        mem.alloc_frame();
        mem.set_frame_budget(Some(3));
        assert_eq!(mem.frames_remaining(), Some(2));
        assert!(mem.try_alloc_frame().is_some());
        assert!(mem.try_alloc_table_page().is_some());
        assert_eq!(mem.frames_remaining(), Some(0));
        assert!(mem.try_alloc_frame().is_none());
        assert!(mem.try_alloc_frames(4, 1).is_none());
        // Reclaim hands capacity back even though frame numbers never recycle.
        mem.credit_frames(2);
        let a = mem.try_alloc_frame().unwrap();
        let b = mem.try_alloc_frame().unwrap();
        assert_ne!(a, b);
        assert!(mem.try_alloc_frame().is_none());
    }

    #[test]
    fn freeing_a_table_page_credits_the_budget() {
        let mut mem = PhysMem::new();
        let t = mem.alloc_table_page();
        mem.set_frame_budget(Some(1));
        assert!(mem.try_alloc_frame().is_none());
        mem.free_table_page(t);
        assert!(mem.try_alloc_frame().is_some());
    }

    #[test]
    #[should_panic(expected = "host physical memory exhausted")]
    fn infallible_alloc_panics_when_budget_spent() {
        let mut mem = PhysMem::new();
        mem.set_frame_budget(Some(0));
        mem.alloc_frame();
    }

    #[test]
    fn table_frames_are_sorted_and_live_only() {
        let mut mem = PhysMem::new();
        let a = mem.alloc_table_page();
        mem.alloc_frame(); // data frame: not listed
        let b = mem.alloc_table_page();
        assert_eq!(mem.table_frames(), vec![a, b]);
        mem.free_table_page(a);
        assert_eq!(mem.table_frames(), vec![b]);
    }

    #[test]
    fn freed_frame_log_tracks_only_when_enabled() {
        let mut mem = PhysMem::new();
        let a = mem.alloc_table_page();
        let b = mem.alloc_table_page();
        mem.free_table_page(a); // tracking off: not logged
        mem.set_track_frees(true);
        mem.free_table_page(b);
        assert_eq!(mem.take_freed_frames(), vec![b]);
        assert!(mem.take_freed_frames().is_empty(), "drain empties the log");
    }

    #[test]
    fn per_vm_frame_spans_are_disjoint_and_based() {
        let mut vm0 = PhysMem::new();
        let mut vm2 = PhysMem::for_vm(VmId::new(2));
        assert_eq!(vm0.owner(), VmId::new(0));
        assert_eq!(vm2.owner(), VmId::new(2));
        assert_eq!(vm2.frame_base(), 2 * VM_FRAME_SPAN);
        let a = vm0.alloc_frame();
        let b = vm2.alloc_frame();
        assert_eq!(a.raw(), 1);
        assert_eq!(b.raw(), 2 * VM_FRAME_SPAN + 1);
        assert_eq!(vm0.frames_allocated(), 1);
        assert_eq!(vm2.frames_allocated(), 1, "count is span-relative");
        assert_eq!(vm2.next_frame_raw(), 2 * VM_FRAME_SPAN + 2);
    }

    #[test]
    fn vm_zero_matches_legacy_frame_numbers() {
        let mut legacy = PhysMem::new();
        let mut vm0 = PhysMem::for_vm(VmId::new(0));
        for _ in 0..8 {
            assert_eq!(legacy.alloc_frame(), vm0.alloc_frame());
        }
        assert_eq!(legacy.alloc_table_page(), vm0.alloc_table_page());
    }

    #[test]
    fn reused_arena_slot_comes_back_zeroed() {
        let mut mem = PhysMem::new();
        let a = mem.alloc_table_page();
        mem.write_pte(a, 17, Pte::leaf(0x42, true, false));
        mem.free_table_page(a);
        // The next table page reuses a's arena slot; it must not see a's PTEs.
        let b = mem.alloc_table_page();
        assert_ne!(a, b, "frame numbers are never reused");
        for i in 0..ENTRIES_PER_TABLE {
            assert!(!mem.read_pte(b, i).is_present());
        }
        // The freed frame stays dead even though its slot is live again.
        assert!(!mem.is_table(a));
        assert!(mem.try_read_pte(a, 17).is_none());
    }

    #[test]
    fn foreign_span_frames_probe_as_non_table() {
        let mut vm1 = PhysMem::for_vm(VmId::new(1));
        let t = vm1.alloc_table_page();
        assert!(vm1.is_table(t));
        // Frames below this VM's base (VM 0's span) and far above the
        // high-water mark both probe cleanly as non-table.
        assert!(!vm1.is_table(HostFrame::new(1)));
        assert!(vm1.try_read_pte(HostFrame::new(1), 0).is_none());
        assert!(vm1.table(HostFrame::new(5 * VM_FRAME_SPAN)).is_none());
        assert!(vm1.try_read_pte(HostFrame::new(t.raw() + 100), 0).is_none());
    }

    #[test]
    fn present_entries_iterates_only_present() {
        let mut page = TablePage::new();
        page.set_entry(3, Pte::leaf(1, false, false));
        page.set_entry(7, Pte::leaf(2, true, false));
        let found: Vec<usize> = page.present_entries().map(|(i, _)| i).collect();
        assert_eq!(found, vec![3, 7]);

        // Seeded writes, each followed by a comparison of the present mask
        // against a naive scan of all 512 slots.
        fn naive(page: &TablePage) -> Vec<(usize, Pte)> {
            (0..ENTRIES_PER_TABLE)
                .map(|i| (i, page.entry(i)))
                .filter(|(_, e)| e.is_present())
                .collect()
        }
        let mut mem = PhysMem::new();
        let t = mem.alloc_table_page();
        let mut rng = agile_types::SplitMix64::new(0x7ab1e);
        let (mut set, mut absent, mut emptied, mut ends) = (0, 0, 0, 0);
        for step in 0..4096u64 {
            let index = match step % 8 {
                0 => 0,
                1 => ENTRIES_PER_TABLE - 1,
                _ => rng.below(ENTRIES_PER_TABLE as u64) as usize,
            };
            let frame = rng.below(1 << 20) + 1;
            let pte = match rng.below(3) {
                0 => Pte::empty(),
                // Not present, but with frame and flag bits set.
                1 => Pte::new(frame, agile_types::PteFlags::WRITABLE),
                _ => Pte::leaf(frame, rng.below(2) == 0, false),
            };
            let was_present = mem.read_pte(t, index).is_present();
            mem.write_pte(t, index, pte);
            if pte.is_present() {
                set += 1;
                ends += usize::from(index == 0 || index == ENTRIES_PER_TABLE - 1);
            } else if pte != Pte::empty() {
                absent += 1;
            } else if was_present {
                emptied += 1;
            }
            let page = mem.table(t).expect("live table");
            let want = naive(page);
            assert_eq!(page.present_entries().collect::<Vec<_>>(), want);
            assert_eq!(page.present_count(), want.len(), "step {step}");
        }
        assert!(set > 0 && absent > 0 && emptied > 0 && ends > 0);

        // The mask survives a snapshot round trip.
        let mut e = Enc::new();
        mem.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut back = PhysMem::new();
        back.load_state(&mut Dec::new(&bytes)).expect("round trip");
        let (page, loaded) = (mem.table(t).unwrap(), back.table(t).unwrap());
        assert_eq!(
            loaded.present_entries().collect::<Vec<_>>(),
            page.present_entries().collect::<Vec<_>>()
        );
        assert_eq!(loaded.present_count(), page.present_count());
        assert_eq!(loaded.present_entries().collect::<Vec<_>>(), naive(loaded));
    }
}
