//! The guest OS: processes, demand paging, COW, reclamation.

use crate::vma::{Vma, VmaBacking};
use agile_mem::PhysMem;
use agile_types::{
    AccessKind, CodecError, Dec, GuestFrame, Level, PageSize, Persist, ProcessId, PteFlags,
    StateSink,
};
use agile_vmm::Vmm;
use std::collections::BTreeMap;

/// A guest-visible segmentation violation: access outside any VMA or a
/// write to a read-only VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegFault {
    /// Faulting address.
    pub va: u64,
}

impl std::fmt::Display for SegFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "segmentation fault at {:#x}", self.va)
    }
}

impl std::error::Error for SegFault {}

/// Why a guest page fault could not be serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// Guest-visible protection violation; delivered to the guest process.
    Seg(SegFault),
    /// The host ran out of physical frames while servicing the fault. Not
    /// guest-visible: the caller reclaims memory and retries, or degrades.
    OutOfMemory {
        /// Faulting address.
        va: u64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Seg(s) => s.fmt(f),
            FaultError::OutOfMemory { va } => {
                write!(f, "out of host memory servicing guest fault at {va:#x}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl From<SegFault> for FaultError {
    fn from(s: SegFault) -> Self {
        FaultError::Seg(s)
    }
}

agile_types::record! {
    counters;
    /// Guest-OS event counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OsStats {
        /// Demand-paging faults serviced.
        pub minor_faults: u64,
        /// Copy-on-write breaks (private copy made on write).
        pub cow_breaks: u64,
        /// Pages mapped (any size, counted as mappings).
        pub pages_mapped: u64,
        /// Huge-page mappings among those.
        pub huge_mappings: u64,
        /// Pages unmapped.
        pub pages_unmapped: u64,
        /// Clock-scan passes run.
        pub clock_scans: u64,
        /// Pages reclaimed by the clock algorithm.
        pub pages_reclaimed: u64,
        /// Pages marked copy-on-write.
        pub cow_marked: u64,
    }
}

#[derive(Debug)]
struct ProcInfo {
    vmas: BTreeMap<u64, Vma>,
    /// `GuestOs::vma_changes` at the last change to `vmas`: their part
    /// generation in [`GuestOs::save_to`].
    generation: u64,
}

impl ProcInfo {
    fn vma_at(&self, va: u64) -> Option<&Vma> {
        self.vmas
            .range(..=va)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(va))
    }
}

/// The guest operating system for one VM.
///
/// Page-table effects of every operation go through the VMM mediation API,
/// which is where technique-dependent costs (VMtraps) accrue.
#[derive(Debug)]
pub struct GuestOs {
    procs: BTreeMap<ProcessId, ProcInfo>,
    next_pid: u32,
    thp: bool,
    stats: OsStats,
    shared_cow_frame: Option<GuestFrame>,
    free_frames: Vec<GuestFrame>,
    /// Changes to any process's VMAs so far, spawns and snapshot loads
    /// included.
    vma_changes: u64,
}

impl GuestOs {
    /// Creates the OS. `thp` enables transparent huge pages: anonymous
    /// faults in large, aligned VMAs are served with 2 MiB mappings
    /// (matching the paper's methodology of using the same page size at
    /// both translation stages).
    #[must_use]
    pub fn new(thp: bool) -> Self {
        GuestOs {
            procs: BTreeMap::new(),
            next_pid: 1,
            thp,
            stats: OsStats::default(),
            shared_cow_frame: None,
            free_frames: Vec::new(),
            vma_changes: 0,
        }
    }

    /// Allocates a guest data frame, preferring the guest's free list (real
    /// guests recycle physical memory, so the host-table mapping usually
    /// already exists and no EPT-violation exit follows). `None` when the
    /// free list is empty and the host frame budget is exhausted.
    fn try_alloc_frame(&mut self, mem: &mut PhysMem, vmm: &mut Vmm) -> Option<GuestFrame> {
        self.free_frames
            .pop()
            .or_else(|| vmm.try_alloc_guest_frame(mem))
    }

    /// Balloon surrender: the guest hands its recycle list back to the
    /// host (the balloon driver inflating into freed pages). Returns how
    /// many frames were surrendered; the caller credits them to the host
    /// frame budget. Surrendered gPFNs are never reallocated by the guest
    /// (the free list is the only reuse path), so host accounting stays
    /// consistent.
    pub fn balloon_surrender(&mut self) -> u64 {
        let n = self.free_frames.len() as u64;
        self.free_frames.clear();
        n
    }

    /// Returns a 4 KiB frame to the guest's free list (huge-run frames and
    /// the shared COW source are not recycled).
    fn release_frame(&mut self, frame: GuestFrame) {
        if Some(frame) != self.shared_cow_frame {
            self.free_frames.push(frame);
        }
    }

    /// OS event counters.
    #[must_use]
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// Creates a new process (and its paging state in the VMM).
    pub fn spawn(&mut self, mem: &mut PhysMem, vmm: &mut Vmm) -> ProcessId {
        let pid = ProcessId::new(self.next_pid);
        self.next_pid += 1;
        vmm.create_process(mem, pid);
        let generation = self.vma_change();
        self.procs.insert(
            pid,
            ProcInfo {
                vmas: BTreeMap::new(),
                generation,
            },
        );
        pid
    }

    /// All process ids, in ascending id order (host-level balloon
    /// arbitration iterates processes during reclaim, so the order is
    /// simulated state).
    #[must_use]
    pub fn processes(&self) -> Vec<ProcessId> {
        self.procs.keys().copied().collect()
    }

    /// Snapshot of `pid`'s VMAs in ascending start order (empty for an
    /// unknown process). Live migration replays these on the destination VM.
    #[must_use]
    pub fn vmas(&self, pid: ProcessId) -> Vec<Vma> {
        self.procs
            .get(&pid)
            .map(|p| p.vmas.values().copied().collect())
            .unwrap_or_default()
    }

    /// Counts one VMA change and returns the count: a generation no
    /// process has had.
    fn vma_change(&mut self) -> u64 {
        self.vma_changes += 1;
        self.vma_changes
    }

    /// `pid`'s record, for a change to its VMAs: moves their generation.
    fn proc_mut(&mut self, pid: ProcessId) -> &mut ProcInfo {
        let generation = self.vma_change();
        let proc = self.procs.get_mut(&pid).expect("unknown process");
        proc.generation = generation;
        proc
    }

    /// Registers an anonymous VMA; pages are allocated on first touch.
    pub fn mmap(&mut self, pid: ProcessId, start: u64, len: u64, writable: bool) {
        let max_page = if self.thp {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        self.insert_vma(pid, start, len, writable, VmaBacking::Anon, max_page);
    }

    /// Registers an anonymous VMA whose demand faults may use pages up to
    /// `max_page` — the explicit-request path for 1 GiB pages (paper §V:
    /// Linux does not use them transparently, applications ask).
    pub fn mmap_sized(
        &mut self,
        pid: ProcessId,
        start: u64,
        len: u64,
        writable: bool,
        max_page: PageSize,
    ) {
        self.insert_vma(pid, start, len, writable, VmaBacking::Anon, max_page);
    }

    /// Registers a copy-on-write VMA: first touches map a shared read-only
    /// page; the first write to each page allocates a private copy.
    pub fn mmap_cow(&mut self, pid: ProcessId, start: u64, len: u64) {
        self.insert_vma(pid, start, len, true, VmaBacking::Cow, PageSize::Size4K);
    }

    fn insert_vma(
        &mut self,
        pid: ProcessId,
        start: u64,
        len: u64,
        writable: bool,
        backing: VmaBacking,
        max_page: PageSize,
    ) {
        assert_eq!(start % PageSize::Size4K.bytes(), 0, "unaligned mmap");
        let len = len.div_ceil(PageSize::Size4K.bytes()) * PageSize::Size4K.bytes();
        self.proc_mut(pid).vmas.insert(
            start,
            Vma {
                start,
                len,
                writable,
                backing,
                max_page,
            },
        );
    }

    /// Unmaps `[start, start+len)`, splitting any VMAs that partially
    /// overlap (like a real `munmap`), then issues one guest TLB flush
    /// (batched shootdown). Huge pages intersecting the range are unmapped
    /// whole.
    pub fn munmap(
        &mut self,
        mem: &mut PhysMem,
        vmm: &mut Vmm,
        pid: ProcessId,
        start: u64,
        len: u64,
    ) {
        let end = start + len;
        // Split/remove overlapping VMAs.
        let overlapping: Vec<Vma> = self
            .proc_mut(pid)
            .vmas
            .values()
            .filter(|v| v.start < end && v.end() > start)
            .copied()
            .collect();
        let proc = self.proc_mut(pid);
        for vma in &overlapping {
            proc.vmas.remove(&vma.start);
            if vma.start < start {
                let mut left = *vma;
                left.len = start - vma.start;
                proc.vmas.insert(left.start, left);
            }
            if vma.end() > end {
                let mut right = *vma;
                right.start = end;
                right.len = vma.end() - end;
                proc.vmas.insert(right.start, right);
            }
        }
        // Drop the page-table mappings in the range. A huge page partially
        // covered by the range is split in place, like a kernel splitting a
        // THP: the surviving base pages are re-mapped 4 KiB-wise onto their
        // existing frames (page-table writes, but no refaults).
        let mut va = start;
        while va < end {
            match vmm.gpt_lookup(mem, pid, va) {
                Some((pte, level)) => {
                    let size = pte.leaf_size(level).expect("leaf");
                    let base = va & !size.offset_mask();
                    vmm.gpt_unmap(mem, pid, base, size);
                    self.stats.pages_unmapped += 1;
                    if size == PageSize::Size4K {
                        self.release_frame(GuestFrame::new(pte.frame_raw()));
                    }
                    if size == PageSize::Size2M {
                        let frame = GuestFrame::new(pte.frame_raw());
                        let writable = pte.is_writable();
                        for i in 0..size.base_pages() {
                            let page_va = base + i * PageSize::Size4K.bytes();
                            if page_va >= start && page_va < end {
                                continue; // inside the hole
                            }
                            let flags = if writable {
                                PteFlags::WRITABLE
                            } else {
                                PteFlags::empty()
                            };
                            vmm.gpt_map(mem, pid, page_va, frame.add(i), PageSize::Size4K, flags);
                        }
                    }
                    va = base + size.bytes();
                }
                None => va += PageSize::Size4K.bytes(),
            }
        }
        if !overlapping.is_empty() {
            vmm.guest_tlb_flush(mem, pid);
        }
    }

    fn try_shared_frame(&mut self, mem: &mut PhysMem, vmm: &mut Vmm) -> Option<GuestFrame> {
        if let Some(f) = self.shared_cow_frame {
            return Some(f);
        }
        let f = vmm.try_alloc_guest_frame(mem)?;
        self.shared_cow_frame = Some(f);
        Some(f)
    }

    /// Services a guest page fault at `gva` (demand allocation or COW
    /// break).
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] when the address lies outside every VMA or the
    /// access violates the VMA's protection.
    ///
    /// # Panics
    ///
    /// Panics when the host frame budget is exhausted; pressure-aware
    /// callers use [`GuestOs::try_handle_page_fault`] and reclaim instead.
    pub fn handle_page_fault(
        &mut self,
        mem: &mut PhysMem,
        vmm: &mut Vmm,
        pid: ProcessId,
        gva: u64,
        access: AccessKind,
    ) -> Result<(), SegFault> {
        self.try_handle_page_fault(mem, vmm, pid, gva, access)
            .map_err(|e| match e {
                FaultError::Seg(s) => s,
                FaultError::OutOfMemory { va } => {
                    panic!("host physical memory exhausted servicing guest fault at {va:#x}")
                }
            })
    }

    /// Fallible variant of [`GuestOs::handle_page_fault`] that surfaces
    /// host frame exhaustion as [`FaultError::OutOfMemory`] instead of
    /// panicking, so the machine can reclaim and retry. When a huge-page
    /// allocation fails under pressure the fault degrades to base pages
    /// before reporting OOM (like a kernel falling back from THP).
    ///
    /// # Errors
    ///
    /// [`FaultError::Seg`] for guest-visible protection violations,
    /// [`FaultError::OutOfMemory`] when the host frame budget is exhausted.
    pub fn try_handle_page_fault(
        &mut self,
        mem: &mut PhysMem,
        vmm: &mut Vmm,
        pid: ProcessId,
        gva: u64,
        access: AccessKind,
    ) -> Result<(), FaultError> {
        let vma = *self
            .procs
            .get(&pid)
            .and_then(|p| p.vma_at(gva))
            .ok_or(SegFault { va: gva })?;
        if access.is_write() && !vma.writable {
            return Err(SegFault { va: gva }.into());
        }
        let oom = FaultError::OutOfMemory { va: gva };
        match vmm.gpt_lookup(mem, pid, gva) {
            None => {
                // Demand allocation: the largest permitted page that fits.
                self.stats.minor_faults += 1;
                let mut huge_size = None;
                for size in [PageSize::Size1G, PageSize::Size2M] {
                    if size <= vma.max_page
                        && vma.backing == VmaBacking::Anon
                        && vma.supports_huge(gva, size)
                    {
                        huge_size = Some(size);
                        break;
                    }
                }
                if let Some(size) = huge_size {
                    if let Some(g) = vmm.try_alloc_guest_frame_huge(mem, size) {
                        let base = gva & !size.offset_mask();
                        let flags = if vma.writable {
                            PteFlags::WRITABLE
                        } else {
                            PteFlags::empty()
                        };
                        vmm.gpt_map(mem, pid, base, g, size, flags);
                        self.stats.pages_mapped += 1;
                        self.stats.huge_mappings += 1;
                        return Ok(());
                    }
                    // Huge allocation failed under pressure: degrade to a
                    // base page below rather than reporting OOM outright.
                }
                let base = gva & !PageSize::Size4K.offset_mask();
                match vma.backing {
                    VmaBacking::Anon => {
                        let g = self.try_alloc_frame(mem, vmm).ok_or(oom)?;
                        let flags = if vma.writable {
                            PteFlags::WRITABLE
                        } else {
                            PteFlags::empty()
                        };
                        vmm.gpt_map(mem, pid, base, g, PageSize::Size4K, flags);
                    }
                    VmaBacking::Cow => {
                        let shared = self.try_shared_frame(mem, vmm).ok_or(oom)?;
                        vmm.gpt_map(mem, pid, base, shared, PageSize::Size4K, PteFlags::empty());
                        if access.is_write() {
                            // Fall through to the COW break below.
                            return self.try_handle_page_fault(mem, vmm, pid, gva, access);
                        }
                    }
                }
                self.stats.pages_mapped += 1;
                Ok(())
            }
            Some((pte, level)) => {
                if access.is_write() && !pte.is_writable() && vma.writable {
                    // COW break: private copy + writable remap + shootdown.
                    let fresh = self.try_alloc_frame(mem, vmm).ok_or(oom)?;
                    self.stats.cow_breaks += 1;
                    vmm.gpt_update(mem, pid, gva, level, |p| {
                        agile_types::Pte::new(fresh.raw(), p.flags().union(PteFlags::WRITABLE))
                    });
                    vmm.guest_invlpg(mem, pid, gva);
                    Ok(())
                } else {
                    // Spurious fault (e.g. raced with VMM fixup): nothing to
                    // do.
                    Ok(())
                }
            }
        }
    }

    /// Reclaims memory under host frame pressure: runs `passes`
    /// clock-scan sweeps over every VMA of `pid`, recycling cold pages to
    /// the guest free list (and crediting the host budget for any table
    /// pages torn down on the way). Returns the number of pages reclaimed.
    ///
    /// One pass clears accessed bits and harvests already-cold pages; a
    /// second pass harvests everything not re-referenced in between — the
    /// machine's OOM path escalates passes as capped backoff.
    pub fn reclaim_pressure(
        &mut self,
        mem: &mut PhysMem,
        vmm: &mut Vmm,
        pid: ProcessId,
        passes: u32,
    ) -> u64 {
        let ranges: Vec<(u64, u64)> = match self.procs.get(&pid) {
            Some(p) => p.vmas.values().map(|v| (v.start, v.len)).collect(),
            None => return 0,
        };
        let mut reclaimed = 0;
        for _ in 0..passes.max(1) {
            for (start, len) in &ranges {
                reclaimed += self.clock_scan(mem, vmm, pid, *start, *len);
            }
        }
        reclaimed
    }

    /// Marks every mapped 4 KiB page in `[start, start+len)` copy-on-write
    /// (content-based page sharing / fork). Per the paper, each page costs
    /// a guest page-table write plus a TLB shootdown.
    pub fn mark_region_cow(
        &mut self,
        mem: &mut PhysMem,
        vmm: &mut Vmm,
        pid: ProcessId,
        start: u64,
        len: u64,
    ) {
        let mut va = start;
        while va < start + len {
            if let Some((pte, level)) = vmm.gpt_lookup(mem, pid, va) {
                if level == Level::L1 && pte.is_writable() {
                    vmm.gpt_update(mem, pid, va, level, |p| p.without_flags(PteFlags::WRITABLE));
                    vmm.guest_invlpg(mem, pid, va);
                    self.stats.cow_marked += 1;
                }
                va += pte.leaf_size(level).expect("leaf").bytes();
            } else {
                va += PageSize::Size4K.bytes();
            }
        }
        if self.procs.contains_key(&pid) {
            let vmas = &mut self.proc_mut(pid).vmas;
            if let Some(v) = vmas.values_mut().find(|v| v.contains(start)) {
                v.backing = VmaBacking::Cow;
            }
        }
    }

    /// One clock-algorithm reclamation pass over `[start, start+len)`:
    /// referenced pages get their accessed bit cleared (a guest page-table
    /// write); unreferenced pages are reclaimed (unmap + flush). Returns
    /// the number of pages reclaimed.
    pub fn clock_scan(
        &mut self,
        mem: &mut PhysMem,
        vmm: &mut Vmm,
        pid: ProcessId,
        start: u64,
        len: u64,
    ) -> u64 {
        self.stats.clock_scans += 1;
        let mut reclaimed = 0;
        let mut va = start;
        while va < start + len {
            match vmm.gpt_lookup(mem, pid, va) {
                Some((pte, level)) => {
                    let size = pte.leaf_size(level).expect("leaf");
                    if pte.flags().contains(PteFlags::ACCESSED) {
                        vmm.gpt_update(mem, pid, va, level, |p| {
                            p.without_flags(PteFlags::ACCESSED)
                        });
                    } else {
                        vmm.gpt_unmap(mem, pid, va, size);
                        if size == PageSize::Size4K {
                            self.release_frame(GuestFrame::new(pte.frame_raw()));
                        }
                        self.stats.pages_unmapped += 1;
                        reclaimed += 1;
                    }
                    va += size.bytes();
                }
                None => va += PageSize::Size4K.bytes(),
            }
        }
        if reclaimed > 0 {
            vmm.guest_tlb_flush(mem, pid);
        }
        self.stats.pages_reclaimed += reclaimed;
        reclaimed
    }

    /// Schedules `to`: the guest writes its page-table pointer register,
    /// which the VMM may intercept depending on technique.
    pub fn context_switch(&mut self, mem: &mut PhysMem, vmm: &mut Vmm, to: ProcessId) {
        assert!(self.procs.contains_key(&to), "unknown process");
        vmm.guest_context_switch(mem, to);
    }

    /// Appends the OS's full dynamic state to `s`: per-process VMA lists
    /// (processes sorted by pid, VMAs in start order), the pid cursor,
    /// counters, the shared COW frame, and the free list in exact LIFO
    /// order (reuse order is simulated state).
    ///
    /// Each process is one part, with its pid as id and the OS's VMA
    /// change count at its last VMA change as generation; the count
    /// itself is the group's.
    pub fn save_to<S: StateSink>(&self, s: &mut S) {
        let e = s.enc();
        e.u32(self.next_pid);
        e.bool(self.thp);
        self.stats.save(e);
        self.shared_cow_frame.save(e);
        self.free_frames.save(e);
        e.seq(self.procs.len());
        if s.group((self.vma_changes, 0)) {
            for (pid, info) in &self.procs {
                s.part(u64::from(pid.raw()), (info.generation, 0), |e| {
                    pid.save(e);
                    e.seq(info.vmas.len());
                    info.vmas.values().for_each(|vma| vma.save(e));
                });
            }
        }
    }

    /// Restores state captured by [`GuestOs::save_to`], replacing
    /// everything. The THP setting must match (it comes from the system
    /// configuration, not the snapshot).
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        let next_pid = d.u32()?;
        let thp = d.bool()?;
        if thp != self.thp {
            return d.fail("THP setting mismatch");
        }
        let stats = OsStats::load(d)?;
        let shared_cow_frame = Option::<GuestFrame>::load(d)?;
        let free_frames = Vec::<GuestFrame>::load(d)?;
        let nprocs = d.len_prefix()?;
        let mut procs = BTreeMap::new();
        for _ in 0..nprocs {
            let pid = ProcessId::load(d)?;
            let vmas = Vec::<Vma>::load(d)?;
            let mut info = ProcInfo {
                vmas: BTreeMap::new(),
                generation: self.vma_change(),
            };
            for vma in vmas {
                info.vmas.insert(vma.start, vma);
            }
            procs.insert(pid, info);
        }
        self.next_pid = next_pid;
        self.stats = stats;
        self.shared_cow_frame = shared_cow_frame;
        self.free_frames = free_frames;
        self.procs = procs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_vmm::{Technique, VmtrapKind};

    fn rig(technique: Technique, thp: bool) -> (PhysMem, Vmm, GuestOs, ProcessId) {
        let mut mem = PhysMem::new();
        let mut vmm = Vmm::new(&mut mem, technique);
        let mut os = GuestOs::new(thp);
        let pid = os.spawn(&mut mem, &mut vmm);
        (mem, vmm, os, pid)
    }

    const BASE: u64 = 0x4000_0000;

    #[test]
    fn demand_fault_maps_4k() {
        let (mut mem, mut vmm, mut os, pid) = rig(Technique::Nested, false);
        os.mmap(pid, BASE, 1 << 20, true);
        os.handle_page_fault(&mut mem, &mut vmm, pid, BASE + 0x3123, AccessKind::Read)
            .unwrap();
        let (pte, level) = vmm.gpt_lookup(&mem, pid, BASE + 0x3123).unwrap();
        assert_eq!(level, Level::L1);
        assert!(!pte.is_huge());
        assert_eq!(os.stats().minor_faults, 1);
    }

    #[test]
    fn thp_faults_map_2m() {
        let (mut mem, mut vmm, mut os, pid) = rig(Technique::Nested, true);
        os.mmap(pid, BASE, 8 << 20, true);
        os.handle_page_fault(&mut mem, &mut vmm, pid, BASE + 0x12_3456, AccessKind::Read)
            .unwrap();
        let (pte, level) = vmm.gpt_lookup(&mem, pid, BASE).unwrap();
        assert_eq!(level, Level::L2);
        assert!(pte.is_huge());
        assert_eq!(os.stats().huge_mappings, 1);
    }

    #[test]
    fn out_of_vma_is_segfault() {
        let (mut mem, mut vmm, mut os, pid) = rig(Technique::Nested, false);
        os.mmap(pid, BASE, 1 << 20, true);
        let err = os
            .handle_page_fault(&mut mem, &mut vmm, pid, 0x10, AccessKind::Read)
            .unwrap_err();
        assert_eq!(err.va, 0x10);
    }

    #[test]
    fn write_to_readonly_vma_is_segfault() {
        let (mut mem, mut vmm, mut os, pid) = rig(Technique::Nested, false);
        os.mmap(pid, BASE, 1 << 20, false);
        assert!(os
            .handle_page_fault(&mut mem, &mut vmm, pid, BASE, AccessKind::Write)
            .is_err());
        assert!(os
            .handle_page_fault(&mut mem, &mut vmm, pid, BASE, AccessKind::Read)
            .is_ok());
    }

    #[test]
    fn cow_break_allocates_private_copy() {
        let (mut mem, mut vmm, mut os, pid) = rig(Technique::Nested, false);
        os.mmap_cow(pid, BASE, 1 << 20);
        os.handle_page_fault(&mut mem, &mut vmm, pid, BASE, AccessKind::Read)
            .unwrap();
        let (shared_pte, _) = vmm.gpt_lookup(&mem, pid, BASE).unwrap();
        assert!(!shared_pte.is_writable());
        // Another page of the same region shares the frame.
        os.handle_page_fault(&mut mem, &mut vmm, pid, BASE + 0x1000, AccessKind::Read)
            .unwrap();
        let (other_pte, _) = vmm.gpt_lookup(&mem, pid, BASE + 0x1000).unwrap();
        assert_eq!(shared_pte.frame_raw(), other_pte.frame_raw());
        // Write breaks COW.
        os.handle_page_fault(&mut mem, &mut vmm, pid, BASE, AccessKind::Write)
            .unwrap();
        let (broken, _) = vmm.gpt_lookup(&mem, pid, BASE).unwrap();
        assert!(broken.is_writable());
        assert_ne!(broken.frame_raw(), shared_pte.frame_raw());
        assert_eq!(os.stats().cow_breaks, 1);
    }

    #[test]
    fn cow_write_first_touch_breaks_immediately() {
        let (mut mem, mut vmm, mut os, pid) = rig(Technique::Nested, false);
        os.mmap_cow(pid, BASE, 1 << 20);
        os.handle_page_fault(&mut mem, &mut vmm, pid, BASE, AccessKind::Write)
            .unwrap();
        let (pte, _) = vmm.gpt_lookup(&mem, pid, BASE).unwrap();
        assert!(pte.is_writable());
        assert_eq!(os.stats().cow_breaks, 1);
    }

    #[test]
    fn mark_region_cow_costs_traps_under_shadow() {
        let (mut mem, mut vmm, mut os, pid) = rig(Technique::Shadow, false);
        os.mmap(pid, BASE, 64 << 10, true);
        // Touch 4 pages (dirty them so they are writable + shadowed).
        for i in 0..4u64 {
            os.handle_page_fault(
                &mut mem,
                &mut vmm,
                pid,
                BASE + i * 0x1000,
                AccessKind::Write,
            )
            .unwrap();
        }
        // Shadow the region by building shadow state: simulate hardware use.
        // (Shadow leaves are built lazily; marking COW still costs guest
        // page-table writes + flushes, which trap under shadow paging.)
        let flush_before = vmm.trap_stats().count(VmtrapKind::TlbFlush);
        os.mark_region_cow(&mut mem, &mut vmm, pid, BASE, 64 << 10);
        assert_eq!(os.stats().cow_marked, 4);
        assert_eq!(
            vmm.trap_stats().count(VmtrapKind::TlbFlush),
            flush_before + 4
        );
    }

    #[test]
    fn clock_scan_clears_then_reclaims() {
        let (mut mem, mut vmm, mut os, pid) = rig(Technique::Nested, false);
        os.mmap(pid, BASE, 16 << 10, true);
        for i in 0..4u64 {
            os.handle_page_fault(&mut mem, &mut vmm, pid, BASE + i * 0x1000, AccessKind::Read)
                .unwrap();
        }
        // Mark two pages accessed.
        for i in 0..2u64 {
            vmm.gpt_update(&mut mem, pid, BASE + i * 0x1000, Level::L1, |p| {
                p.with_flags(PteFlags::ACCESSED)
            });
        }
        // Pass 1: accessed pages survive (bits cleared), idle pages go.
        let reclaimed = os.clock_scan(&mut mem, &mut vmm, pid, BASE, 16 << 10);
        assert_eq!(reclaimed, 2);
        assert!(vmm.gpt_lookup(&mem, pid, BASE).is_some());
        assert!(vmm.gpt_lookup(&mem, pid, BASE + 0x3000).is_none());
        // Pass 2: nothing was re-referenced, the rest go too.
        let reclaimed = os.clock_scan(&mut mem, &mut vmm, pid, BASE, 16 << 10);
        assert_eq!(reclaimed, 2);
        assert_eq!(os.stats().pages_reclaimed, 4);
    }

    #[test]
    fn munmap_removes_mappings_and_vma() {
        let (mut mem, mut vmm, mut os, pid) = rig(Technique::Nested, false);
        os.mmap(pid, BASE, 16 << 10, true);
        for i in 0..4u64 {
            os.handle_page_fault(&mut mem, &mut vmm, pid, BASE + i * 0x1000, AccessKind::Read)
                .unwrap();
        }
        os.munmap(&mut mem, &mut vmm, pid, BASE, 16 << 10);
        assert!(vmm.gpt_lookup(&mem, pid, BASE).is_none());
        assert_eq!(os.stats().pages_unmapped, 4);
        // The VMA is gone: new touches segfault.
        assert!(os
            .handle_page_fault(&mut mem, &mut vmm, pid, BASE, AccessKind::Read)
            .is_err());
    }

    #[test]
    fn spawn_and_switch_processes() {
        let (mut mem, mut vmm, mut os, pid1) = rig(Technique::Shadow, false);
        let pid2 = os.spawn(&mut mem, &mut vmm);
        assert_ne!(pid1, pid2);
        os.context_switch(&mut mem, &mut vmm, pid2);
        assert_eq!(vmm.current_process(), Some(pid2));
        assert_eq!(vmm.trap_stats().count(VmtrapKind::ContextSwitch), 1);
    }
}
