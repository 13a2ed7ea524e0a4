//! The VM's guest-physical address space and its host backing.

use crate::{PhysMem, TableSpace};
use agile_types::{
    load_map_entries, save_sorted_map, CodecError, Dec, Enc, GuestFrame, HostFrame, PageSize,
    Persist,
};
use std::collections::BTreeMap;

/// One virtual machine's guest-physical memory: a guest frame allocator plus
/// the gPA⇒hPA *backing* assignment.
///
/// This is the machine-memory truth the VMM consults when it fills host page
/// table (EPT) entries on demand; the host page table is the *architectural*
/// reflection of this map, built lazily by VMexits.
///
/// Guest page-table pages are guest frames whose backing is a host *table*
/// page, so the hardware walker can read guest PTEs once it has translated
/// the gPA (this is exactly the 2D-walk structure of nested paging).
///
/// Guest frames are bump-allocated from 1 and never reused, so the raw
/// gframe number is a dense key: the backing map and table flags live in
/// flat vectors indexed by it, and [`TableSpace::resolve`] — on the hot
/// path of every guest-table software edit — is a bounds check plus one
/// load instead of a hash lookup.
///
/// # Example
///
/// ```
/// use agile_mem::{GuestMemMap, PhysMem};
///
/// let mut mem = PhysMem::new();
/// let mut gmap = GuestMemMap::new();
/// let gframe = gmap.alloc_data(&mut mem);
/// assert!(gmap.backing(gframe).is_some());
/// ```
#[derive(Debug)]
pub struct GuestMemMap {
    /// Raw gframe → raw backing host frame, or [`NO_BACKING`].
    backing: Vec<u64>,
    /// Raw gframe → holds a guest page-table page.
    table_flag: Vec<bool>,
    /// Live backed gframes (entries of `backing` not [`NO_BACKING`]).
    backed: usize,
    huge_runs: BTreeMap<GuestFrame, PageSize>,
    next_gframe: u64,
    /// Mutations so far ([`GuestMemMap::generation`]).
    generation: u64,
}

/// Sentinel backing value: the guest frame has no host frame assigned.
/// `u64::MAX` is never a real frame number (the bump allocator would have
/// to exhaust the address space first).
const NO_BACKING: u64 = u64::MAX;

impl GuestMemMap {
    /// An empty guest physical address space. Guest frame 0 is reserved so a
    /// zero guest PTE never aliases a real frame.
    #[must_use]
    pub fn new() -> Self {
        GuestMemMap {
            backing: Vec::new(),
            table_flag: Vec::new(),
            backed: 0,
            huge_runs: BTreeMap::new(),
            next_gframe: 1,
            generation: 0,
        }
    }

    /// Grows the dense maps to cover raw gframe `upto` inclusive.
    fn ensure(&mut self, upto: u64) {
        let need = upto as usize + 1;
        if self.backing.len() < need {
            self.backing.resize(need, NO_BACKING);
            self.table_flag.resize(need, false);
        }
    }

    fn set_backing(&mut self, g: GuestFrame, h: HostFrame) {
        self.ensure(g.raw());
        let slot = &mut self.backing[g.raw() as usize];
        if *slot == NO_BACKING {
            self.backed += 1;
        }
        *slot = h.raw();
    }

    /// Allocates one guest data frame with eager host backing.
    ///
    /// # Panics
    ///
    /// Panics if the host frame budget is exhausted; see
    /// [`GuestMemMap::try_alloc_data`].
    pub fn alloc_data(&mut self, mem: &mut PhysMem) -> GuestFrame {
        self.try_alloc_data(mem)
            .expect("host physical memory exhausted")
    }

    /// Fallible variant of [`GuestMemMap::alloc_data`]: `None` when the host
    /// frame budget is exhausted (no guest frame number is consumed).
    pub fn try_alloc_data(&mut self, mem: &mut PhysMem) -> Option<GuestFrame> {
        let h = mem.try_alloc_frame()?;
        let g = GuestFrame::new(self.next_gframe);
        self.next_gframe += 1;
        self.set_backing(g, h);
        self.generation += 1;
        Some(g)
    }

    /// Allocates a naturally aligned run of guest frames backing one huge
    /// page, with equally aligned contiguous host frames (so the host side
    /// can also map it huge). Returns the first guest frame.
    ///
    /// # Panics
    ///
    /// Panics if the host frame budget cannot cover the run; see
    /// [`GuestMemMap::try_alloc_data_huge`].
    pub fn alloc_data_huge(&mut self, mem: &mut PhysMem, size: PageSize) -> GuestFrame {
        self.try_alloc_data_huge(mem, size)
            .expect("host physical memory exhausted")
    }

    /// Fallible variant of [`GuestMemMap::alloc_data_huge`]: `None` when the
    /// host frame budget cannot cover the run (no guest frames consumed).
    pub fn try_alloc_data_huge(&mut self, mem: &mut PhysMem, size: PageSize) -> Option<GuestFrame> {
        let frames = size.base_pages();
        let h = mem.try_alloc_frames(frames, frames)?;
        let start = self.next_gframe.div_ceil(frames) * frames;
        self.next_gframe = start + frames;
        self.ensure(start + frames - 1);
        for i in 0..frames {
            self.set_backing(GuestFrame::new(start + i), h.add(i));
        }
        self.huge_runs.insert(GuestFrame::new(start), size);
        self.generation += 1;
        Some(GuestFrame::new(start))
    }

    /// If `gframe` lies inside a run allocated by
    /// [`GuestMemMap::alloc_data_huge`], returns the run's first guest frame
    /// and size (so the host table can map it with a huge entry).
    #[must_use]
    pub fn huge_run_of(&self, gframe: GuestFrame) -> Option<(GuestFrame, PageSize)> {
        for size in [PageSize::Size1G, PageSize::Size2M] {
            let start = GuestFrame::new(gframe.raw() / size.base_pages() * size.base_pages());
            if self.huge_runs.get(&start) == Some(&size) {
                return Some((start, size));
            }
        }
        None
    }

    /// The host frame backing a guest frame, if assigned.
    #[inline]
    #[must_use]
    pub fn backing(&self, gframe: GuestFrame) -> Option<HostFrame> {
        match self.backing.get(gframe.raw() as usize) {
            Some(&h) if h != NO_BACKING => Some(HostFrame::new(h)),
            _ => None,
        }
    }

    /// True if `gframe` holds a guest page-table page.
    #[inline]
    #[must_use]
    pub fn is_table_gframe(&self, gframe: GuestFrame) -> bool {
        self.table_flag
            .get(gframe.raw() as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Iterator over the guest frames that hold guest page-table pages, in
    /// ascending gframe order (deterministic by construction).
    pub fn table_gframes(&self) -> impl Iterator<Item = GuestFrame> + '_ {
        self.table_flag
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t)
            .map(|(g, _)| GuestFrame::new(g as u64))
    }

    /// Number of guest frames currently backed.
    #[must_use]
    pub fn gframe_count(&self) -> usize {
        self.backed
    }

    /// How many times the map has changed. Every mutator bumps it, so the
    /// bytes [`GuestMemMap::save_state`] writes can change only when this
    /// does.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Iterator over every `(guest frame, host frame)` backing pair in
    /// ascending gframe order. The VMM uses this when it needs to
    /// pre-populate or scan the host table.
    pub fn frames(&self) -> impl Iterator<Item = (GuestFrame, HostFrame)> + '_ {
        self.backing
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h != NO_BACKING)
            .map(|(g, &h)| (GuestFrame::new(g as u64), HostFrame::new(h)))
    }

    /// Appends the map's full state to `e`: backed pairs and table flags
    /// sparsely (ascending gframe order), huge runs sorted by start frame,
    /// and the bump cursor.
    pub fn save_state(&self, e: &mut Enc) {
        e.u64(self.next_gframe);
        let pairs: Vec<(u64, u64)> = self
            .backing
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h != NO_BACKING)
            .map(|(g, &h)| (g as u64, h))
            .collect();
        pairs.save(e);
        let tables: Vec<u64> = self
            .table_flag
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t)
            .map(|(g, _)| g as u64)
            .collect();
        tables.save(e);
        save_sorted_map(e, &self.huge_runs);
    }

    /// Restores state captured by [`GuestMemMap::save_state`], replacing
    /// everything.
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        let next_gframe = d.u64()?;
        let pairs = Vec::<(u64, u64)>::load(d)?;
        let tables = Vec::<u64>::load(d)?;
        let huge = load_map_entries::<GuestFrame, PageSize>(d)?;
        self.backing.clear();
        self.table_flag.clear();
        self.backed = 0;
        self.huge_runs.clear();
        self.next_gframe = next_gframe;
        self.generation += 1;
        for (g, h) in pairs {
            if g >= next_gframe {
                return d.fail(format!("gframe {g:#x} beyond bump cursor"));
            }
            self.set_backing(GuestFrame::new(g), HostFrame::new(h));
        }
        for g in tables {
            let slot = self.table_flag.get_mut(g as usize).ok_or_else(|| {
                CodecError::new(d.pos(), format!("table flag on unbacked gframe {g:#x}"))
            })?;
            *slot = true;
        }
        self.huge_runs.extend(huge);
        Ok(())
    }
}

impl TableSpace for GuestMemMap {
    #[inline]
    fn resolve(&self, frame_raw: u64) -> HostFrame {
        match self.backing.get(frame_raw as usize) {
            Some(&h) if h != NO_BACKING => HostFrame::new(h),
            _ => panic!("guest frame {frame_raw:#x} has no host backing"),
        }
    }

    fn alloc_table(&mut self, mem: &mut PhysMem) -> u64 {
        let g = GuestFrame::new(self.next_gframe);
        self.next_gframe += 1;
        let h = mem.alloc_table_page();
        self.set_backing(g, h);
        self.table_flag[g.raw() as usize] = true;
        self.generation += 1;
        g.raw()
    }

    fn free_table(&mut self, mem: &mut PhysMem, frame_raw: u64) {
        let g = frame_raw as usize;
        if let (Some(flag), Some(slot)) = (self.table_flag.get_mut(g), self.backing.get_mut(g)) {
            self.generation += 1;
            *flag = false;
            if *slot != NO_BACKING {
                let h = HostFrame::new(*slot);
                *slot = NO_BACKING;
                self.backed -= 1;
                mem.free_table_page(h);
            }
        }
    }
}

impl Default for GuestMemMap {
    fn default() -> Self {
        GuestMemMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RadixTable;
    use agile_types::{Level, PteFlags};

    #[test]
    fn data_frames_get_backing() {
        let mut mem = PhysMem::new();
        let mut gmap = GuestMemMap::new();
        let a = gmap.alloc_data(&mut mem);
        let b = gmap.alloc_data(&mut mem);
        assert_ne!(a, b);
        assert_ne!(gmap.backing(a), gmap.backing(b));
        assert_eq!(gmap.gframe_count(), 2);
    }

    #[test]
    fn huge_alloc_is_aligned_both_sides() {
        let mut mem = PhysMem::new();
        let mut gmap = GuestMemMap::new();
        gmap.alloc_data(&mut mem); // perturb
        let g = gmap.alloc_data_huge(&mut mem, PageSize::Size2M);
        assert_eq!(g.raw() % 512, 0);
        let h = gmap.backing(g).unwrap();
        assert_eq!(h.raw() % 512, 0);
        // Contiguity on both sides.
        assert_eq!(gmap.backing(g.add(511)).unwrap().raw(), h.raw() + 511);
    }

    #[test]
    fn table_gframes_are_tracked_and_backed_by_table_pages() {
        let mut mem = PhysMem::new();
        let mut gmap = GuestMemMap::new();
        let raw = gmap.alloc_table(&mut mem);
        let g = GuestFrame::new(raw);
        assert!(gmap.is_table_gframe(g));
        assert!(mem.is_table(gmap.backing(g).unwrap()));
        assert_eq!(gmap.table_gframes().count(), 1);
        gmap.free_table(&mut mem, raw);
        assert!(!gmap.is_table_gframe(g));
        assert_eq!(gmap.backing(g), None);
    }

    #[test]
    #[should_panic(expected = "no host backing")]
    fn resolving_unbacked_gframe_panics() {
        let gmap = GuestMemMap::new();
        gmap.resolve(0x1234);
    }

    #[test]
    fn guest_radix_table_works_through_backing() {
        // Build a guest page table whose pages live in guest frames; verify
        // the radix ops resolve through the backing map.
        let mut mem = PhysMem::new();
        let mut gmap = GuestMemMap::new();
        let gpt = RadixTable::new(&mut mem, &mut gmap);
        let data = gmap.alloc_data(&mut mem);
        gpt.map(
            &mut mem,
            &mut gmap,
            0x7000,
            data.raw(),
            agile_types::PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
        let (pte, level) = gpt.lookup(&mem, &gmap, 0x7abc).unwrap();
        assert_eq!(level, Level::L1);
        assert_eq!(pte.frame_raw(), data.raw());
        // All four table pages are guest frames with host table backing.
        assert_eq!(gmap.table_gframes().count(), 4);
    }
}
