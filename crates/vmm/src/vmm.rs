//! The VMM proper: interception, shadow synchronization, agile mode
//! management, and fault handling.

use crate::config::{NestedToShadowPolicy, Technique};
use crate::proc::{GptPageInfo, GptPageMode, HwRoots, ProcState, Procs};
use crate::shsp::{ShspController, ShspMode};
use crate::traps::{VmtrapCosts, VmtrapKind, VmtrapStats};
use agile_mem::{
    entry_indices, GuestMemMap, HostSpace, PhysMem, RadixTable, TableSpace, ALL_ENTRIES,
};
use agile_tlb::SetAssocCache;
use agile_types::{
    load_map_entries, save_sorted_map, AccessKind, Asid, CodecError, Dec, Enc, Fault, FaultCause,
    GuestFrame, GuestVirtAddr, HostFrame, Level, PageSize, Persist, ProcessId, Pte, PteFlags,
    StateSink, VmId,
};
use agile_walk::AgileCr3;
use std::collections::BTreeMap;

/// A translation-structure shootdown the machine must apply after a VMM
/// operation: either one address space's full TLB/PWC state, or only the
/// entries covering a virtual range (cheap, used for subtree-local
/// restructuring like agile mode switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushRequest {
    /// Flush everything tagged with the address space.
    Asid(Asid),
    /// Flush only entries covering `[start, start+len)` of the address
    /// space.
    Range {
        /// Address space.
        asid: Asid,
        /// Range start (guest virtual).
        start: u64,
        /// Range length in bytes.
        len: u64,
    },
    /// Drop the nested-TLB entry for one guest frame (the VMM remapped it
    /// in the host table, e.g. a host-level copy-on-write break).
    NtlbFrame(GuestFrame),
}

impl Persist for FlushRequest {
    fn save(&self, e: &mut Enc) {
        match *self {
            FlushRequest::Asid(asid) => {
                e.u8(0);
                asid.save(e);
            }
            FlushRequest::Range { asid, start, len } => {
                e.u8(1);
                asid.save(e);
                e.u64(start);
                e.u64(len);
            }
            FlushRequest::NtlbFrame(gframe) => {
                e.u8(2);
                gframe.save(e);
            }
        }
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        match d.u8()? {
            0 => Ok(FlushRequest::Asid(Asid::load(d)?)),
            1 => Ok(FlushRequest::Range {
                asid: Asid::load(d)?,
                start: d.u64()?,
                len: d.u64()?,
            }),
            2 => Ok(FlushRequest::NtlbFrame(GuestFrame::load(d)?)),
            b => d.fail(format!("bad FlushRequest tag {b}")),
        }
    }
}

/// How the VMM resolved a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The VMM repaired the translation structures; the access should be
    /// retried.
    Fixed,
    /// The fault is genuine from the guest's point of view; the guest OS
    /// page-fault handler must run with the given (guest-visible) fault.
    ReflectToGuest(Fault),
}

/// The flags, beyond present and user, of the 4 KiB shadow leaf built
/// from guest leaf `g` over a host mapping that is writable iff `host_w`:
/// accessed, and writable when both tables allow writes and either the
/// guest D bit is set or hardware keeps the A/D bits (without them, the
/// first write must trap so the VMM can set D).
fn shadow_leaf_flags(g: Pte, host_w: bool, hw_ad: bool) -> PteFlags {
    let writable = host_w && g.is_writable() && (hw_ad || g.flags().contains(PteFlags::DIRTY));
    if writable {
        PteFlags::ACCESSED | PteFlags::WRITABLE
    } else {
        PteFlags::ACCESSED
    }
}

/// The shadow leaf a reconcile writes for guest leaf `g`, whose frame the
/// host table maps to `backing` (writable iff `host_w`).
fn reconciled_leaf(g: Pte, backing: HostFrame, host_w: bool, hw_ad: bool) -> Pte {
    Pte::new(
        backing.raw(),
        PteFlags::PRESENT | PteFlags::USER | shadow_leaf_flags(g, host_w, hw_ad),
    )
}

agile_types::record! {
    counters;
    /// Event counters beyond VMtraps, used by the experiment reports.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct VmmCounters {
        /// Guest page-table subtrees moved from shadow to nested mode.
        pub to_nested: u64,
        /// Guest page-table pages moved from nested back to shadow mode.
        pub to_shadow: u64,
        /// Leaf guest-table pages unsynced (KVM-style).
        pub unsyncs: u64,
        /// Unsynced pages re-protected at flush/context-switch points.
        pub resyncs: u64,
        /// Shadow leaf entries constructed (lazy or eager).
        pub shadow_leaves_built: u64,
        /// Context switches absorbed by the hardware pointer cache (HW opt 2).
        pub ctx_cache_hits: u64,
        /// Guest page-table writes observed, total.
        pub gpt_writes_total: u64,
        /// Guest page-table writes that were direct (no VMM intervention).
        pub gpt_writes_direct: u64,
        /// Whole-process fallbacks to nested mode under trap-storm pressure
        /// (the agile policy's hysteresis degradation path).
        pub storm_fallbacks: u64,
    }
}

/// The virtual machine monitor for one VM.
///
/// Owns the VM's guest-physical backing map, the host page table, and the
/// per-process guest/shadow page-table state. See the crate docs for the
/// mediation model.
#[derive(Debug)]
pub struct Vmm {
    vm: VmId,
    technique: Technique,
    /// [`Technique::trap_costs`], derived once at construction.
    costs: VmtrapCosts,
    gmap: GuestMemMap,
    hpt: RadixTable,
    procs: Procs,
    traps: VmtrapStats,
    counters: VmmCounters,
    ctx_cache: Option<SetAssocCache<u64, u64>>,
    current: Option<ProcessId>,
    pending_flushes: Vec<FlushRequest>,
    shsp: Option<ShspController>,
    gpt_writes_this_interval: u64,
    ticks: u64,
    gpt_write_traps_at_tick: u64,
    storm_hold_until: u64,
    write_trace: Option<Vec<(ProcessId, u64, Level)>>,
    /// Test-only bug re-plant ([`Vmm::chaos_suppress_leaf_flush`]): when
    /// set, [`Vmm::drop_shadow_leaf`] omits its range flush — recreating
    /// the historical missed-shootdown bug the paranoia oracle caught so
    /// the bounded explorer can prove it still finds it. Control-plane
    /// state: excluded from snapshots, never set in production.
    suppress_leaf_flush: bool,
}

impl Vmm {
    /// Creates the VMM running `technique` for a fresh VM (VM 0 — the
    /// single-VM case). Everything else the VMM needs is derived from the
    /// technique: its options, and the VMtrap cost model
    /// ([`Technique::trap_costs`]).
    pub fn new(mem: &mut PhysMem, technique: Technique) -> Self {
        Vmm::new_for_vm(mem, technique, VmId::new(0))
    }

    /// Creates the VMM for a fresh VM with an explicit id, for multi-VM
    /// hosts where each VM's substrate carries its owner identity.
    pub fn new_for_vm(mem: &mut PhysMem, technique: Technique, vm: VmId) -> Self {
        let mut host = HostSpace;
        let hpt = RadixTable::new(mem, &mut host);
        let ctx_cache = match technique {
            Technique::Agile(o) if o.hw_ctx_cache => {
                Some(SetAssocCache::fully_associative(o.ctx_cache_entries.max(1)))
            }
            _ => None,
        };
        let shsp = match technique {
            Technique::Shsp(o) => Some(ShspController::new(o)),
            _ => None,
        };
        Vmm {
            vm,
            technique,
            costs: technique.trap_costs(),
            gmap: GuestMemMap::new(),
            hpt,
            procs: Procs::default(),
            traps: VmtrapStats::default(),
            counters: VmmCounters::default(),
            ctx_cache,
            current: None,
            pending_flushes: Vec::new(),
            shsp,
            gpt_writes_this_interval: 0,
            ticks: 0,
            gpt_write_traps_at_tick: 0,
            storm_hold_until: 0,
            write_trace: None,
            suppress_leaf_flush: false,
        }
    }

    /// Turns on recording of guest page-table updates (the paper's step-1
    /// instrumented-VMM trace). Drain with [`Vmm::take_write_trace`].
    pub fn enable_write_trace(&mut self) {
        self.write_trace = Some(Vec::new());
    }

    /// Drains the recorded `(process, gva, level)` update tuples.
    pub fn take_write_trace(&mut self) -> Vec<(ProcessId, u64, Level)> {
        self.write_trace
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This VM's id.
    #[must_use]
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The active technique.
    #[must_use]
    pub fn technique(&self) -> Technique {
        self.technique
    }

    /// Host page-table root (`hptr`).
    #[must_use]
    pub fn hptr(&self) -> HostFrame {
        HostFrame::new(self.hpt.root_raw())
    }

    /// VMtrap counts and cycles so far.
    #[must_use]
    pub fn trap_stats(&self) -> VmtrapStats {
        self.traps
    }

    /// Non-trap event counters.
    #[must_use]
    pub fn counters(&self) -> VmmCounters {
        self.counters
    }

    /// Currently scheduled guest process.
    #[must_use]
    pub fn current_process(&self) -> Option<ProcessId> {
        self.current
    }

    /// The SHSP controller's current mode, when running SHSP.
    #[must_use]
    pub fn shsp_mode(&self) -> Option<ShspMode> {
        self.shsp.as_ref().map(ShspController::mode)
    }

    /// Drains the shootdown requests produced by VMM operations since the
    /// last call, in a canonical order.
    ///
    /// Emission order can vary run-to-run (several emitters walk hash
    /// maps), and applying invalidations commutes — but consumers that
    /// *attribute* per-request decisions to the sequence (the chaos
    /// engine's shootdown dice) need a stable order, so the batch is
    /// sorted by kind and address before it is handed out.
    pub fn take_pending_flushes(&mut self) -> Vec<FlushRequest> {
        let mut batch = std::mem::take(&mut self.pending_flushes);
        batch.sort_by_key(|req| match *req {
            FlushRequest::Asid(asid) => (0u8, u64::from(asid.raw()), 0, 0),
            FlushRequest::Range { asid, start, len } => (1, u64::from(asid.raw()), start, len),
            FlushRequest::NtlbFrame(gframe) => (2, gframe.raw(), 0, 0),
        });
        batch
    }

    /// Mode of the guest page-table page holding `gva`'s entry at `level`
    /// (diagnostics / tests).
    #[must_use]
    pub fn page_mode(
        &self,
        mem: &PhysMem,
        pid: ProcessId,
        gva: u64,
        level: Level,
    ) -> Option<GptPageMode> {
        let proc = self.procs.get(&pid)?;
        let frame = proc.gpt.table_frame(mem, &self.gmap, gva, level)?;
        proc.pages.get(&GuestFrame::new(frame)).map(|i| i.mode)
    }

    /// The VM's guest memory map (read-only): guest-frame backing and the
    /// registered guest page-table frames, in gframe order.
    #[must_use]
    pub fn gmap(&self) -> &GuestMemMap {
        &self.gmap
    }

    /// Machine-memory backing of one guest frame, if the guest memory map
    /// has assigned it. Read-only (no lazy host-table fill); used by the
    /// verify layer's reference translator.
    #[must_use]
    pub fn backing(&self, gframe: GuestFrame) -> Option<HostFrame> {
        self.gmap.backing(gframe)
    }

    /// Reads the host (EPT) leaf mapping guest-physical address `gpa`,
    /// with its level. Read-only; used by the verify layer.
    #[must_use]
    pub fn hpt_lookup(&self, mem: &PhysMem, gpa: u64) -> Option<(Pte, Level)> {
        self.hpt.lookup(mem, &HostSpace, gpa)
    }

    /// Host frame of `pid`'s shadow page-table root, when the technique
    /// keeps one and the process is known. Read-only; used by the verify
    /// layer.
    #[must_use]
    pub fn spt_root(&self, pid: ProcessId) -> Option<HostFrame> {
        self.procs
            .get(&pid)?
            .spt
            .map(|t| HostFrame::new(t.root_raw()))
    }

    /// True when the VMM tracks `pid` (used by audits that reverse-map
    /// ASIDs back to processes).
    #[must_use]
    pub fn knows_process(&self, pid: ProcessId) -> bool {
        self.procs.contains_key(&pid)
    }

    /// Every process the VMM tracks, sorted by id. Read-only; the static
    /// analyzer drives its per-process sweeps off this.
    #[must_use]
    pub fn processes(&self) -> Vec<ProcessId> {
        self.procs.keys().copied().collect()
    }

    /// Changes to any process's paging state so far: the generation of
    /// the states' group in [`Vmm::save_to`].
    #[must_use]
    pub fn process_changes(&self) -> u64 {
        self.procs.changes()
    }

    /// Every tracked process with its paging state's part generation in
    /// [`Vmm::save_to`], sorted by id: while it stands still, the state
    /// ([`Vmm::gpt_pages`], roots and modes) is unchanged.
    pub fn process_generations(&self) -> impl Iterator<Item = (ProcessId, u64)> + '_ {
        self.procs
            .iter()
            .map(|(pid, _, generation)| (*pid, generation))
    }

    /// Guest frame of `pid`'s guest page-table root (`gptr`), when the
    /// process is known. Read-only.
    #[must_use]
    pub fn gpt_root(&self, pid: ProcessId) -> Option<GuestFrame> {
        self.procs.get(&pid).map(ProcState::gptr)
    }

    /// Per-page metadata for every guest page-table page of `pid`, sorted
    /// by guest frame. Read-only; used by the static analyzer's
    /// switching-bit and mode-partition checks.
    #[must_use]
    pub fn gpt_pages(&self, pid: ProcessId) -> Vec<(GuestFrame, GptPageInfo)> {
        self.procs
            .get(&pid)
            .map(|p| p.pages.iter().map(|(g, i)| (*g, *i)).collect())
            .unwrap_or_default()
    }

    /// Whether `pid`'s whole address space is currently walked in nested
    /// mode (Technique::Nested, the SHSP nested phase, or agile before
    /// shadow engagement). Read-only.
    #[must_use]
    pub fn full_nested(&self, pid: ProcessId) -> bool {
        matches!(self.technique, Technique::Nested)
            || self.procs.get(&pid).is_some_and(|p| p.full_nested)
    }

    /// Whether `pid`'s guest root page itself switched to nested mode
    /// (agile register-level switching bit). Read-only.
    #[must_use]
    pub fn root_nested(&self, pid: ProcessId) -> bool {
        self.procs.get(&pid).is_some_and(|p| p.root_nested)
    }

    /// Every guest frame currently registered as a guest page-table page,
    /// sorted. Read-only; the analyzer's frame-ownership pass claims the
    /// host backings of these for the guest tables.
    #[must_use]
    pub fn guest_table_frames(&self) -> Vec<GuestFrame> {
        self.gmap.table_gframes().collect()
    }

    /// Non-draining view of the shootdown requests queued since the last
    /// [`Vmm::take_pending_flushes`], in emission order (unsorted — the
    /// canonical order exists only at drain time). Read-only.
    #[must_use]
    pub fn pending_flushes(&self) -> &[FlushRequest] {
        &self.pending_flushes
    }

    // ------------------------------------------------------------------
    // Guest memory and process lifecycle
    // ------------------------------------------------------------------

    /// Allocates one guest data frame (machine memory is assigned
    /// immediately; the host-table entry is still filled lazily on first
    /// hardware use, costing an EPT-violation VMexit).
    pub fn alloc_guest_frame(&mut self, mem: &mut PhysMem) -> GuestFrame {
        self.gmap.alloc_data(mem)
    }

    /// Fallible variant of [`Vmm::alloc_guest_frame`]: `None` when the host
    /// frame budget is exhausted, so the guest OS can run reclaim instead
    /// of the machine panicking.
    pub fn try_alloc_guest_frame(&mut self, mem: &mut PhysMem) -> Option<GuestFrame> {
        self.gmap.try_alloc_data(mem)
    }

    /// Allocates a naturally aligned huge run of guest frames.
    pub fn alloc_guest_frame_huge(&mut self, mem: &mut PhysMem, size: PageSize) -> GuestFrame {
        self.gmap.alloc_data_huge(mem, size)
    }

    /// Fallible variant of [`Vmm::alloc_guest_frame_huge`]: `None` under
    /// host frame pressure (callers degrade to base pages or reclaim).
    pub fn try_alloc_guest_frame_huge(
        &mut self,
        mem: &mut PhysMem,
        size: PageSize,
    ) -> Option<GuestFrame> {
        self.gmap.try_alloc_data_huge(mem, size)
    }

    /// Creates the paging state for a new guest process: a guest page-table
    /// root and, for shadow-maintaining techniques, a shadow root.
    pub fn create_process(&mut self, mem: &mut PhysMem, pid: ProcessId) {
        let gpt = RadixTable::new(mem, &mut self.gmap);
        let spt = if self.technique.uses_shadow() {
            Some(RadixTable::new(mem, &mut HostSpace))
        } else {
            None
        };
        let full_nested = match self.technique {
            Technique::Nested => true,
            Technique::Agile(o) => o.start_in_nested,
            Technique::Shsp(_) => self
                .shsp
                .as_ref()
                .is_some_and(|c| c.mode() == ShspMode::Nested),
            _ => false,
        };
        let mut proc = ProcState {
            gpt,
            spt,
            pages: BTreeMap::new(),
            full_nested,
            root_nested: false,
        };
        let root_mode = if full_nested {
            GptPageMode::Nested
        } else {
            GptPageMode::Synced
        };
        proc.pages.insert(
            GuestFrame::new(proc.gpt.root_raw()),
            GptPageInfo {
                level: Level::L4,
                va_base: 0,
                mode: root_mode,
                writes_this_interval: 0,
                shadowed: false,
            },
        );
        self.procs.insert(pid, proc);
        if self.current.is_none() {
            self.current = Some(pid);
        }
    }

    fn proc(&self, pid: ProcessId) -> &ProcState {
        self.procs.get(&pid).expect("unknown process")
    }

    /// Registers any guest page-table pages on `gva`'s path that the VMM
    /// has not seen yet, inheriting nested mode from the parent.
    fn register_gpt_pages(&mut self, mem: &PhysMem, pid: ProcessId, gva: u64) {
        let proc = self.procs.get(&pid).expect("unknown process");
        let mut to_add: Vec<(GuestFrame, GptPageInfo)> = Vec::new();
        let mut parent_nested = proc.full_nested;
        for level in Level::top().walk_order() {
            let Some(frame) = proc.gpt.table_frame(mem, &self.gmap, gva, level) else {
                break;
            };
            let g = GuestFrame::new(frame);
            match proc.pages.get(&g) {
                Some(info) => parent_nested = info.mode == GptPageMode::Nested,
                None => {
                    let va_base = match level.parent() {
                        Some(p) => gva & !(p.span_bytes() - 1),
                        None => 0,
                    };
                    let mode = if parent_nested {
                        GptPageMode::Nested
                    } else {
                        GptPageMode::Synced
                    };
                    to_add.push((
                        g,
                        GptPageInfo {
                            level,
                            va_base,
                            mode,
                            writes_this_interval: 0,
                            shadowed: false,
                        },
                    ));
                    parent_nested = mode == GptPageMode::Nested;
                }
            }
        }
        let proc = self.procs.get_mut(&pid).expect("unknown process");
        for (g, info) in to_add {
            proc.pages.insert(g, info);
        }
    }

    // ------------------------------------------------------------------
    // Guest page-table mediation (the interception boundary)
    // ------------------------------------------------------------------

    /// Reads the guest leaf mapping `gva`, with its level.
    #[must_use]
    pub fn gpt_lookup(&self, mem: &PhysMem, pid: ProcessId, gva: u64) -> Option<(Pte, Level)> {
        self.proc(pid).gpt.lookup(mem, &self.gmap, gva)
    }

    /// Sets the accessed (and, for writes, dirty) bit on the guest leaf
    /// mapping `gva`, without interception cost — used to model hardware
    /// A/D updates in configurations where the walked table is the guest's
    /// own (base native).
    pub fn set_guest_ad_bits(&mut self, mem: &mut PhysMem, pid: ProcessId, gva: u64, write: bool) {
        let Some((_, level)) = self.gpt_lookup(mem, pid, gva) else {
            return;
        };
        let mut flags = PteFlags::ACCESSED;
        if write {
            flags |= PteFlags::DIRTY;
        }
        let proc = self.procs.get_mut(&pid).expect("unknown process");
        let _ = proc
            .gpt
            .update_entry(mem, &self.gmap, gva, level, |p| p.with_flags(flags));
    }

    /// Guest OS maps a page: `gva` → `gframe` at `size`. Charged as a
    /// page-table update at the leaf level.
    pub fn gpt_map(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        gva: u64,
        gframe: GuestFrame,
        size: PageSize,
        flags: PteFlags,
    ) {
        self.note_gpt_write(mem, pid, gva, size.leaf_level());
        {
            let proc = self.procs.get_mut(&pid).expect("unknown process");
            proc.gpt
                .map(mem, &mut self.gmap, gva, gframe.raw(), size, flags)
                .expect("guest mapping conflict");
        }
        self.register_gpt_pages(mem, pid, gva);
        if matches!(self.technique, Technique::Native) {
            self.native_mirror_leaf(mem, pid, gva);
        }
    }

    /// Guest OS unmaps the page of `size` at `gva`. Returns the old guest
    /// entry.
    pub fn gpt_unmap(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        gva: u64,
        size: PageSize,
    ) -> Option<Pte> {
        self.note_gpt_write(mem, pid, gva, size.leaf_level());
        let old = {
            let proc = self.procs.get_mut(&pid).expect("unknown process");
            proc.gpt.unmap(mem, &self.gmap, gva, size)
        };
        if old.is_some() {
            self.drop_shadow_leaf(mem, pid, gva);
        }
        old
    }

    /// Guest OS edits `gva`'s guest entry at `level` (protection changes,
    /// A/D-bit clears, remaps). Returns the new entry.
    pub fn gpt_update(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        gva: u64,
        level: Level,
        f: impl FnOnce(Pte) -> Pte,
    ) -> Option<Pte> {
        self.note_gpt_write(mem, pid, gva, level);
        let new = {
            let proc = self.procs.get_mut(&pid).expect("unknown process");
            proc.gpt.update_entry(mem, &self.gmap, gva, level, f).ok()
        };
        if new.is_some() {
            if matches!(self.technique, Technique::Native) {
                self.native_mirror_leaf(mem, pid, gva);
            } else {
                self.drop_shadow_leaf(mem, pid, gva);
            }
        }
        new
    }

    /// Central write-interception accounting (see crate docs). Runs
    /// *before* the edit is applied.
    fn note_gpt_write(&mut self, mem: &mut PhysMem, pid: ProcessId, gva: u64, level: Level) {
        self.counters.gpt_writes_total += 1;
        self.gpt_writes_this_interval += 1;
        if let Some(trace) = self.write_trace.as_mut() {
            trace.push((pid, gva, level));
        }
        if matches!(self.technique, Technique::Native) {
            self.counters.gpt_writes_direct += 1;
            return;
        }
        if self.full_nested(pid) {
            self.counters.gpt_writes_direct += 1;
            self.mark_gpt_page_dirty(mem, pid, gva, level);
            return;
        }
        // Find the deepest existing guest table page at or above `level`.
        let proc = self.proc(pid);
        let mut target: Option<GuestFrame> = None;
        for l in Level::top().walk_order() {
            if let Some(f) = proc.gpt.table_frame(mem, &self.gmap, gva, l) {
                target = Some(GuestFrame::new(f));
            } else {
                break;
            }
            if l == level {
                break;
            }
        }
        let Some(page) = target else {
            self.counters.gpt_writes_direct += 1;
            return;
        };
        let (mode, writes, page_level, shadowed) = {
            let info = self
                .procs
                .get(&pid)
                .and_then(|p| p.pages.get(&page))
                .copied()
                .unwrap_or(GptPageInfo {
                    level,
                    va_base: 0,
                    mode: GptPageMode::Synced,
                    writes_this_interval: 0,
                    shadowed: false,
                });
            (
                info.mode,
                info.writes_this_interval + 1,
                info.level,
                info.shadowed,
            )
        };
        if let Some(info) = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.pages.get_mut(&page))
        {
            info.writes_this_interval = writes;
        }
        let agile_threshold = match self.technique {
            Technique::Agile(o) => Some(o.write_threshold),
            _ => None,
        };
        match mode {
            GptPageMode::Nested => {
                self.counters.gpt_writes_direct += 1;
                self.mark_gpt_page_dirty(mem, pid, gva, level);
            }
            GptPageMode::Unsynced => {
                self.counters.gpt_writes_direct += 1;
                if let Some(t) = agile_threshold {
                    if writes >= t {
                        self.convert_to_nested(mem, pid, page);
                        self.mark_gpt_page_dirty(mem, pid, gva, level);
                    }
                }
            }
            GptPageMode::Synced if !shadowed => {
                // The shadow table holds nothing derived from this page, so
                // it is not write-protected: the write is direct, and —
                // crucially — *undetectable* by the VMM's write-protection
                // machinery, so it cannot feed the agile policy (fresh
                // page-table construction therefore never nests a page).
                self.counters.gpt_writes_direct += 1;
            }
            GptPageMode::Synced => {
                self.trap(VmtrapKind::GptWrite, 1);
                match agile_threshold {
                    Some(t) if writes >= t => {
                        self.convert_to_nested(mem, pid, page);
                        self.mark_gpt_page_dirty(mem, pid, gva, level);
                    }
                    _ => {
                        if page_level == Level::L1 {
                            // KVM-style leaf unsync: make the page writable
                            // and drop its shadow entries until the next
                            // synchronization point.
                            self.counters.unsyncs += 1;
                            if let Some(info) = self
                                .procs
                                .get_mut(&pid)
                                .and_then(|p| p.pages.get_mut(&page))
                            {
                                info.mode = GptPageMode::Unsynced;
                            }
                            // The shadow entries stay in place (stale is
                            // architecturally fine until the guest flushes);
                            // the resynchronization point reconciles them.
                        } else {
                            // Interior edit: invalidate the shadow subtree
                            // at the written entry; it resyncs lazily.
                            let proc = self.procs.get_mut(&pid).expect("unknown process");
                            if let Some(spt) = proc.spt {
                                spt.zap_subtree(mem, &mut HostSpace, gva, page_level);
                            }
                            // The page stays shadowed: the shadow table
                            // still derives its *other* entries from it.
                        }
                        self.flush_range(pid, gva, page_level);
                    }
                }
            }
        }
    }

    /// Software equivalent of hardware dirtying the backing page of a guest
    /// table page that was written directly (nested mode): sets the host
    /// table's dirty bit, which the dirty-bit-scan policy consumes.
    fn mark_gpt_page_dirty(&mut self, mem: &mut PhysMem, pid: ProcessId, gva: u64, level: Level) {
        let Some(frame) = self
            .procs
            .get(&pid)
            .and_then(|p| p.gpt.table_frame(mem, &self.gmap, gva, level))
        else {
            return;
        };
        let gframe = GuestFrame::new(frame);
        let gpa = gframe.base();
        // A direct guest store to the page implies it is (or becomes)
        // host-mapped; the dirty bit the scan policy reads lives there.
        if self.hpt.lookup(mem, &HostSpace, gpa.raw()).is_none() {
            self.hpt_ensure(mem, gframe);
        }
        if let Some((_, l)) = self.hpt.lookup(mem, &HostSpace, gpa.raw()) {
            let _ = self.hpt.update_entry(mem, &HostSpace, gpa.raw(), l, |p| {
                p.with_flags(PteFlags::DIRTY | PteFlags::ACCESSED)
            });
        }
    }

    fn trap(&mut self, kind: VmtrapKind, n: u64) {
        self.traps.record(kind, n, self.costs.cost(kind));
    }

    fn flush_range(&mut self, pid: ProcessId, va: u64, level: Level) {
        let span = level.span_bytes();
        self.pending_flushes.push(FlushRequest::Range {
            asid: Asid::from(pid),
            start: va & !(span - 1),
            len: span,
        });
    }

    fn flush_asid(&mut self, pid: ProcessId) {
        self.pending_flushes
            .push(FlushRequest::Asid(Asid::from(pid)));
    }

    // ------------------------------------------------------------------
    // Shadow maintenance
    // ------------------------------------------------------------------

    /// Native mode keeps the merged table in lock-step with the guest
    /// table, for free (there is no hypervisor boundary to cross).
    fn native_mirror_leaf(&mut self, mem: &mut PhysMem, pid: ProcessId, gva: u64) {
        let proc = self.proc(pid);
        let Some(spt) = proc.spt else { return };
        let guest_leaf = proc.gpt.lookup(mem, &self.gmap, gva);
        // Drop whatever the merged table had for this address.
        for size in PageSize::ALL {
            spt.unmap(mem, &HostSpace, gva, size);
        }
        if let Some((gpte, glevel)) = guest_leaf {
            let size = gpte.leaf_size(glevel).expect("leaf");
            let base_gframe =
                GuestFrame::new(gpte.frame_raw() / size.base_pages() * size.base_pages());
            let hframe = self
                .gmap
                .backing(base_gframe)
                .expect("guest frame has backing");
            let mut flags = PteFlags::empty();
            if gpte.is_writable() {
                flags |= PteFlags::WRITABLE;
            }
            spt.map(
                mem,
                &mut HostSpace,
                GuestVirtAddr::new(gva).page_base(size).raw(),
                hframe.raw(),
                size,
                flags,
            )
            .expect("merged-table map");
        }
    }

    /// Invalidates the shadow leaf (any size) translating `gva`.
    ///
    /// The range flush is emitted even when the process has no shadow table:
    /// callers invoke this precisely when the translation of `gva` changed
    /// (e.g. [`Vmm::host_share`] remapping the backing frame), and a
    /// pure-nested guest's TLB entries cache gva⇒hPA just the same — the
    /// shootdown must reach them or stale translations leak the old frame.
    fn drop_shadow_leaf(&mut self, mem: &mut PhysMem, pid: ProcessId, gva: u64) {
        if let Some(spt) = self.proc(pid).spt {
            for size in PageSize::ALL {
                spt.unmap(mem, &HostSpace, gva, size);
            }
        }
        if self.suppress_leaf_flush {
            // Re-planted historical bug (test-only, armed through
            // [`Vmm::chaos_suppress_leaf_flush`]): returning here without
            // the range flush leaves every cached translation of `gva`
            // stale — the exact missed-shootdown window this method's
            // doc comment explains the flush exists to close.
            return;
        }
        self.flush_range(pid, gva, Level::L2);
    }

    /// Test-only knob re-planting the historical `drop_shadow_leaf`
    /// missed-flush bug: with `on`, shadow-leaf invalidation stops
    /// requesting its range shootdown, leaving stale TLB/PWC entries
    /// behind host remaps. Exists so the bounded interleaving explorer
    /// (`agile_core::explore`) can prove it rediscovers the bug within a
    /// pinned state budget. Never enabled outside tests and gates.
    pub fn chaos_suppress_leaf_flush(&mut self, on: bool) {
        self.suppress_leaf_flush = on;
    }

    // ------------------------------------------------------------------
    // Chaos hooks (deterministic fault injection — `agile_core::chaos`)
    // ------------------------------------------------------------------

    /// Chaos hook: flips one bit of the present shadow (or merged) leaf
    /// entry translating `gva`, bypassing all shadow bookkeeping — models a
    /// soft error in shadow-table memory. `bit` indexes the raw 64-bit
    /// entry (12 flips the lowest frame bit, 1 the writable bit). Returns
    /// the corrupted level, or `None` when the process keeps no shadow
    /// table or no present leaf covers `gva`.
    pub fn chaos_corrupt_shadow_leaf(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        gva: u64,
        bit: u32,
    ) -> Option<Level> {
        let spt = self.procs.get(&pid)?.spt?;
        for level in [Level::L1, Level::L2, Level::L3] {
            let Some(e) = spt.entry(mem, &HostSpace, gva, level) else {
                continue;
            };
            if e.is_present() && !e.is_switching() && e.is_leaf_at(level) {
                let flipped = Pte::from_raw(e.raw() ^ (1u64 << bit));
                spt.set_entry(mem, &HostSpace, gva, level, flipped).ok()?;
                return Some(level);
            }
        }
        None
    }

    /// Chaos hook: flips one bit of the present guest leaf entry
    /// translating `gva`, *behind* the interception boundary (no trap
    /// accounting, no shadow maintenance) — models a soft error in guest
    /// page-table memory. The guest table is architectural truth, so only
    /// flips that fault-and-refault cleanly (e.g. bit 0, present) are safe
    /// to inject; the chaos engine restricts itself accordingly.
    pub fn chaos_corrupt_guest_leaf(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        gva: u64,
        bit: u32,
    ) -> Option<Level> {
        let (pte, level) = self.gpt_lookup(mem, pid, gva)?;
        let gpt = self.procs.get(&pid)?.gpt;
        let flipped = Pte::from_raw(pte.raw() ^ (1u64 << bit));
        gpt.update_entry(mem, &self.gmap, gva, level, |_| flipped)
            .ok()?;
        Some(level)
    }

    /// Chaos hook: overwrites the tracked interception mode of one guest
    /// page-table page, bypassing the conversion machinery that keeps the
    /// paper's shadow/nested partition consistent — models corrupted VMM
    /// metadata for the static analyzer's `ModePartition` check. Returns
    /// `false` when the process or page is unknown.
    pub fn chaos_corrupt_page_mode(
        &mut self,
        pid: ProcessId,
        gframe: GuestFrame,
        mode: GptPageMode,
    ) -> bool {
        let Some(proc) = self.procs.get_mut(&pid) else {
            return false;
        };
        match proc.pages.get_mut(&gframe) {
            Some(info) => {
                info.mode = mode;
                true
            }
            None => false,
        }
    }

    /// Chaos recovery path: invalidate-and-rebuild for a shadow subtree the
    /// oracle found incoherent (corruption, suppressed shootdown). Drops
    /// the shadow leaf covering `gva` so the next walk rebuilds it from the
    /// guest truth, and emits the shootdown. Under Native the merged table
    /// has no lazy fault path, so it is re-mirrored immediately.
    pub fn chaos_heal_shadow(&mut self, mem: &mut PhysMem, pid: ProcessId, gva: u64) {
        if !self.knows_process(pid) {
            return;
        }
        if matches!(self.technique, Technique::Native) {
            self.native_mirror_leaf(mem, pid, gva);
            self.flush_range(pid, gva, Level::L2);
        } else {
            self.drop_shadow_leaf(mem, pid, gva);
        }
    }

    /// `gframe`'s host mapping, if the host page table has one: its 4 KiB
    /// host frame, the leaf size, and whether it is writable.
    fn hpt_mapped(&self, mem: &PhysMem, gframe: GuestFrame) -> Option<(HostFrame, PageSize, bool)> {
        let (pte, level) = self.hpt.lookup(mem, &HostSpace, gframe.base().raw())?;
        let size = pte.leaf_size(level).expect("leaf");
        let off = gframe.raw() % size.base_pages();
        Some((pte.host_frame().add(off), size, pte.is_writable()))
    }

    /// Ensures `gframe` is mapped in the host page table (mapping the whole
    /// huge run when the backing allows), returning the leaf size used.
    /// Does *not* charge a trap — callers do, at the right granularity.
    fn hpt_ensure(&mut self, mem: &mut PhysMem, gframe: GuestFrame) -> (HostFrame, PageSize, bool) {
        if let Some(mapped) = self.hpt_mapped(mem, gframe) {
            return mapped;
        }
        let gpa = gframe.base();
        let backing = self
            .gmap
            .backing(gframe)
            .unwrap_or_else(|| panic!("guest frame {gframe} not backed"));
        if let Some((start, size)) = self.gmap.huge_run_of(gframe) {
            let hstart = self.gmap.backing(start).expect("huge run backed");
            self.hpt
                .map(
                    mem,
                    &mut HostSpace,
                    start.base().raw(),
                    hstart.raw(),
                    size,
                    PteFlags::WRITABLE,
                )
                .expect("host map");
            return (backing, size, true);
        }
        self.hpt
            .map(
                mem,
                &mut HostSpace,
                gpa.raw(),
                backing.raw(),
                PageSize::Size4K,
                PteFlags::WRITABLE,
            )
            .expect("host map");
        (backing, PageSize::Size4K, true)
    }

    /// Lazily builds the shadow path for `gva` after a not-present shadow
    /// fault. Returns the guest-visible fault if the guest translation
    /// itself is missing.
    fn sync_shadow(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        gva: GuestVirtAddr,
        access: AccessKind,
    ) -> Result<(), Fault> {
        // 1. Software-walk the guest table.
        let mut guest_leaf: Option<(Pte, Level)> = None;
        for level in Level::top().walk_order() {
            let entry = self.proc(pid).gpt.entry(mem, &self.gmap, gva.raw(), level);
            match entry {
                Some(pte) if pte.is_present() => {
                    if pte.is_leaf_at(level) {
                        guest_leaf = Some((pte, level));
                        break;
                    }
                }
                _ => {
                    return Err(Fault::GuestPageFault {
                        gva,
                        level,
                        access,
                        cause: FaultCause::NotPresent,
                    });
                }
            }
        }
        let (gpte, glevel) = guest_leaf.expect("walk ends at a leaf");

        // Guest table pages the shadow table now derives entries from get
        // write-protected (the `shadowed` flag drives interception).
        let mark_shadowed = |vmm: &mut Self, mem: &PhysMem, down_to: Level| {
            let proc = vmm.procs.get(&pid).expect("unknown process");
            let mut frames = Vec::new();
            for level in Level::top().walk_order() {
                if level.number() < down_to.number() {
                    break;
                }
                if let Some(f) = proc.gpt.table_frame(mem, &vmm.gmap, gva.raw(), level) {
                    frames.push(GuestFrame::new(f));
                }
            }
            let proc = vmm.procs.get_mut(&pid).expect("unknown process");
            for f in frames {
                if let Some(i) = proc.pages.get_mut(&f) {
                    if i.mode != GptPageMode::Nested && !i.shadowed {
                        i.shadowed = true;
                        // Writes that happened while unprotected were never
                        // detected; the policy counter starts fresh.
                        i.writes_this_interval = 0;
                    }
                }
            }
        };

        // 2. Install a switching-bit entry if the path crosses into a
        //    nested-mode guest page.
        let spt = self.proc(pid).spt.expect("shadow technique");
        for level in Level::top().walk_order() {
            if level == glevel {
                break;
            }
            let child_level = level.child().expect("interior");
            let child_frame = self
                .proc(pid)
                .gpt
                .table_frame(mem, &self.gmap, gva.raw(), child_level)
                .expect("guest path exists");
            let child = GuestFrame::new(child_frame);
            let child_nested = self
                .proc(pid)
                .pages
                .get(&child)
                .is_some_and(|i| i.mode == GptPageMode::Nested);
            if child_nested {
                let existing = spt.entry(mem, &HostSpace, gva.raw(), level);
                if existing.is_some_and(|e| e.is_present() && e.is_switching()) {
                    // Switching entry already present: the fault came from
                    // deeper (a guest fault the walker already reported) —
                    // nothing to fix here.
                    return Ok(());
                }
                spt.ensure_path(mem, &mut HostSpace, gva.raw(), level)
                    .expect("shadow path");
                spt.zap_subtree(mem, &mut HostSpace, gva.raw(), level);
                let target = self.gmap.resolve(child.raw());
                spt.set_entry(
                    mem,
                    &HostSpace,
                    gva.raw(),
                    level,
                    Pte::new(target.raw(), PteFlags::PRESENT | PteFlags::SWITCHING),
                )
                .expect("switching entry");
                self.flush_range(pid, gva.raw(), level);
                mark_shadowed(self, mem, level);
                return Ok(());
            }
        }

        // 3. Pure shadow path: merge guest and host mappings into a leaf.
        let guest_size = gpte.leaf_size(glevel).expect("leaf");
        let va_gframe = GuestFrame::new(
            gpte.frame_raw() + ((gva.raw() & guest_size.offset_mask()) >> agile_types::PAGE_SHIFT),
        );
        let (host_frame_4k, host_size, host_writable) = self.hpt_ensure(mem, va_gframe);
        let eff = guest_size.min(host_size);
        let eff_offset = va_gframe.raw() % eff.base_pages();
        let hframe = HostFrame::new(host_frame_4k.raw() - eff_offset);
        let hw_ad = self.technique.hw_ad_bits();
        // Dirty-bit tracking trick: without the hardware A/D optimization,
        // the shadow leaf starts read-only unless the guest dirty bit is
        // already set, so the first write traps and the VMM can set D. A
        // host-side write protection (VMM content sharing) always forces
        // the shadow leaf read-only.
        let writable = host_writable
            && gpte.is_writable()
            && (hw_ad || gpte.flags().contains(PteFlags::DIRTY) || access.is_write());
        // The VMM sets the accessed bit in guest and shadow entries on first
        // reference (paper Section III-B); a write also sets dirty.
        let mut gflags = PteFlags::ACCESSED;
        if access.is_write() && gpte.is_writable() {
            gflags |= PteFlags::DIRTY;
        }
        {
            let proc = self.procs.get_mut(&pid).expect("unknown process");
            let _ = proc
                .gpt
                .update_entry(mem, &self.gmap, gva.raw(), glevel, |p| p.with_flags(gflags));
        }
        let mut sflags = PteFlags::ACCESSED;
        if writable {
            sflags |= PteFlags::WRITABLE;
        }
        let spt_va = gva.page_base(eff).raw();
        for size in PageSize::ALL {
            spt.unmap(mem, &HostSpace, spt_va, size);
        }
        spt.map(mem, &mut HostSpace, spt_va, hframe.raw(), eff, sflags)
            .expect("shadow leaf map");
        self.counters.shadow_leaves_built += 1;
        mark_shadowed(self, mem, glevel);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Agile mode conversions
    // ------------------------------------------------------------------

    /// Collects the guest table pages in the subtree rooted at `page`
    /// (inclusive).
    fn subtree_pages(&self, mem: &PhysMem, page: GuestFrame) -> Vec<GuestFrame> {
        let mut out = vec![page];
        let mut stack = vec![page];
        while let Some(p) = stack.pop() {
            let host = self.gmap.resolve(p.raw());
            let Some(tp) = mem.table(host) else { continue };
            for (_, pte) in tp.present_entries() {
                if pte.is_huge() {
                    continue;
                }
                let child = GuestFrame::new(pte.frame_raw());
                if self.gmap.is_table_gframe(child) {
                    out.push(child);
                    stack.push(child);
                }
            }
        }
        out
    }

    /// Moves the guest page-table subtree rooted at `page` to nested mode:
    /// installs the switching bit at the parent shadow entry, zaps the
    /// shadow subtree, and lifts write protection on all pages below.
    pub(crate) fn convert_to_nested(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        page: GuestFrame,
    ) {
        let Some(info) = self.proc(pid).pages.get(&page).copied() else {
            return;
        };
        if info.mode == GptPageMode::Nested {
            return;
        }
        self.counters.to_nested += 1;
        let affected = self.subtree_pages(mem, page);
        {
            let proc = self.procs.get_mut(&pid).expect("unknown process");
            for g in &affected {
                if let Some(i) = proc.pages.get_mut(g) {
                    i.mode = GptPageMode::Nested;
                    i.shadowed = false;
                }
            }
        }
        if info.level == Level::L4 {
            // Root page: the register itself switches (20-reference walks).
            self.procs.get_mut(&pid).expect("process").root_nested = true;
        } else {
            let parent_level = info.level.parent().expect("non-root");
            let spt = self.proc(pid).spt.expect("shadow technique");
            let target = self.gmap.resolve(page.raw());
            if spt
                .ensure_path(mem, &mut HostSpace, info.va_base, parent_level)
                .is_ok()
            {
                spt.zap_subtree(mem, &mut HostSpace, info.va_base, parent_level);
                let _ = spt.set_entry(
                    mem,
                    &HostSpace,
                    info.va_base,
                    parent_level,
                    Pte::new(target.raw(), PteFlags::PRESENT | PteFlags::SWITCHING),
                );
            }
        }
        if let Some(parent) = info.level.parent() {
            self.flush_range(pid, info.va_base, parent);
        } else {
            self.flush_asid(pid);
        }
    }

    /// Host-pressure demotion: drops an agile process to nested-from-root
    /// mode and frees its shadow page-table frames, so a host arbiter can
    /// reclaim the shadow tree's memory when the pool runs dry. Mirrors the
    /// trap-storm fallback (same conversion, same hysteresis hold so the
    /// interval policy cannot immediately re-shadow what the host just
    /// reclaimed). Returns `false` when there is nothing to demote: the
    /// technique is not agile, the process is unknown, or it is already
    /// running nested from the root.
    pub fn demote_to_nested(&mut self, mem: &mut PhysMem, pid: ProcessId) -> bool {
        let Technique::Agile(opts) = self.technique else {
            return false;
        };
        let Some(proc) = self.procs.get(&pid) else {
            return false;
        };
        if proc.full_nested || proc.root_nested {
            return false;
        }
        let root = GuestFrame::new(proc.gpt.root_raw());
        self.convert_to_nested(mem, pid, root);
        // The conversion leaves the shadow tree standing (the storm path
        // keeps it warm for the revert); under host pressure the whole
        // point is to return those frames, so zap down to the bare root.
        if let Some(spt) = self.proc(pid).spt {
            spt.zap_subtree(mem, &mut HostSpace, 0, Level::L4);
        }
        self.storm_hold_until = self.ticks + opts.storm_cooldown.max(1);
        self.trap(VmtrapKind::TlbFlush, 1);
        true
    }

    /// Moves one guest page-table page back to shadow mode: re-protects it,
    /// invalidates the covering switching entry, and — for leaf-level pages
    /// — eagerly rebuilds the shadow leaves for the region in one batched
    /// fill (charged as a single hidden-fault trap), so the revert does not
    /// shower the following interval with per-page hidden faults. Parents
    /// must be converted before children (the interval-tick policy orders
    /// by level).
    pub(crate) fn convert_to_shadow(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        page: GuestFrame,
    ) {
        let Some(info) = self.proc(pid).pages.get(&page).copied() else {
            return;
        };
        if info.mode != GptPageMode::Nested {
            return;
        }
        self.counters.to_shadow += 1;
        {
            let proc = self.procs.get_mut(&pid).expect("unknown process");
            if let Some(i) = proc.pages.get_mut(&page) {
                i.mode = GptPageMode::Synced;
                i.writes_this_interval = 0;
                i.shadowed = false;
            }
            if info.level == Level::L4 {
                proc.root_nested = false;
            }
        }
        if let Some(parent_level) = info.level.parent() {
            let spt = self.proc(pid).spt.expect("shadow technique");
            // Clear a covering switching entry, if one exists at the parent.
            if let Some(e) = spt.entry(mem, &HostSpace, info.va_base, parent_level) {
                if e.is_present() && e.is_switching() {
                    let _ =
                        spt.set_entry(mem, &HostSpace, info.va_base, parent_level, Pte::empty());
                }
            }
            self.flush_range(pid, info.va_base, parent_level);
        } else {
            self.flush_asid(pid);
        }
        if info.level == Level::L1 {
            self.trap(VmtrapKind::HiddenPageFault, 1);
            self.eager_shadow_region(mem, pid, page);
        }
    }

    /// Builds shadow leaves for every present guest entry of one leaf-level
    /// guest table page (batched fill used by [`Vmm::convert_to_shadow`]).
    /// The guest L1 page is found once and only its present entries are
    /// visited, in index order: the loop edits the shadow and host tables,
    /// never the guest's, so the page and its present set stay put.
    fn eager_shadow_region(&mut self, mem: &mut PhysMem, pid: ProcessId, page: GuestFrame) {
        let Some(info) = self.proc(pid).pages.get(&page).copied() else {
            return;
        };
        let Some(spt) = self.proc(pid).spt else {
            return;
        };
        if let Some(i) = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.pages.get_mut(&page))
        {
            i.shadowed = true;
        }
        let Some(guest) = self
            .proc(pid)
            .gpt
            .table_frame(mem, &self.gmap, info.va_base, Level::L1)
            .map(|g| self.gmap.resolve(g))
        else {
            return;
        };
        let present = mem.table(guest).expect("guest table page").present_bits();
        let hw_ad = self.technique.hw_ad_bits();
        for i in entry_indices(present) {
            let va = info.va_base + i as u64 * PageSize::Size4K.bytes();
            let g = mem.read_pte(guest, i);
            let (backing, _, host_w) = self.hpt_ensure(mem, GuestFrame::new(g.frame_raw()));
            for size in PageSize::ALL {
                spt.unmap(mem, &HostSpace, va, size);
            }
            if spt
                .map(
                    mem,
                    &mut HostSpace,
                    va,
                    backing.raw(),
                    PageSize::Size4K,
                    shadow_leaf_flags(g, host_w, hw_ad),
                )
                .is_ok()
            {
                self.counters.shadow_leaves_built += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Host-level content-based page sharing (paper Section V)
    // ------------------------------------------------------------------

    /// VMM content-based page sharing: maps every given guest page of
    /// `pid` to one shared host frame, read-only in the host table (and
    /// drops the covering shadow leaves, which rebuild read-only). The
    /// first frame's backing becomes the canonical copy. Returns the number
    /// of host frames reclaimed.
    ///
    /// Writes later break the sharing with a host-level copy-on-write: a
    /// fresh private frame is mapped back, costing an EPT-violation VMexit
    /// (plus, in shadow mode, the shadow-leaf rebuild).
    pub fn host_share(&mut self, mem: &mut PhysMem, pid: ProcessId, gvas: &[u64]) -> u64 {
        let mut canonical: Option<HostFrame> = None;
        let mut reclaimed = 0;
        for gva in gvas {
            let Some((gpte, level)) = self.gpt_lookup(mem, pid, *gva) else {
                continue;
            };
            if level != Level::L1 {
                continue; // share base pages only
            }
            let gframe = GuestFrame::new(gpte.frame_raw());
            let (current, _, _) = self.hpt_ensure(mem, gframe);
            let target = *canonical.get_or_insert(current);
            if current != target {
                reclaimed += 1;
            }
            // Remap the guest frame onto the shared copy, read-only.
            self.host_remap(mem, gframe, target, PteFlags::empty());
            // Drop the shadow leaf so it rebuilds against the shared,
            // read-only host mapping.
            self.drop_shadow_leaf(mem, pid, *gva);
        }
        reclaimed
    }

    /// Breaks host-level sharing for `gframe`: maps its private backing
    /// frame back, writable. Charged by callers as the covering VMexit.
    fn host_cow_break(&mut self, mem: &mut PhysMem, gframe: GuestFrame) {
        let backing = self
            .gmap
            .backing(gframe)
            .unwrap_or_else(|| panic!("guest frame {gframe} not backed"));
        self.host_remap(mem, gframe, backing, PteFlags::WRITABLE);
    }

    /// Maps `gframe` onto `target` in the host table (one 4 KiB entry with
    /// `flags`) and requests its nested-TLB shootdown. Shadow entries that
    /// derive from the old mapping are not written by this, wherever they
    /// are, so every table page is marked written: each page's next
    /// reconcile ([`Vmm::reconcile_page`]) visits all its entries.
    fn host_remap(
        &mut self,
        mem: &mut PhysMem,
        gframe: GuestFrame,
        target: HostFrame,
        flags: PteFlags,
    ) {
        let gpa = gframe.base().raw();
        self.hpt.unmap(mem, &HostSpace, gpa, PageSize::Size4K);
        self.hpt
            .map(
                mem,
                &mut HostSpace,
                gpa,
                target.raw(),
                PageSize::Size4K,
                flags,
            )
            .expect("host remap");
        self.pending_flushes.push(FlushRequest::NtlbFrame(gframe));
        mem.mark_all_written();
    }

    // ------------------------------------------------------------------
    // Fault handling (VMexits)
    // ------------------------------------------------------------------

    /// Handles a fault raised by the hardware walker for process `pid`.
    ///
    /// Guest page faults in nested mode do not exit to the VMM — route them
    /// straight to the guest OS; this method asserts if given one.
    pub fn handle_fault(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        fault: Fault,
    ) -> FaultOutcome {
        match fault {
            Fault::GuestPageFault { .. } => {
                unreachable!("guest faults are handled by the guest OS, not the VMM")
            }
            Fault::HostPageFault {
                gpa, access, cause, ..
            } => {
                self.trap(VmtrapKind::EptViolation, 1);
                match cause {
                    FaultCause::WriteProtected if access.is_write() => {
                        // Host-level copy-on-write break (VMM page sharing).
                        self.host_cow_break(mem, gpa.frame());
                    }
                    _ => {
                        self.hpt_ensure(mem, gpa.frame());
                    }
                }
                FaultOutcome::Fixed
            }
            Fault::ShadowPageFault {
                gva,
                level,
                access,
                cause,
            } => self.handle_shadow_fault(mem, pid, gva, level, access, cause),
        }
    }

    fn handle_shadow_fault(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        gva: GuestVirtAddr,
        level: Level,
        access: AccessKind,
        cause: FaultCause,
    ) -> FaultOutcome {
        match cause {
            FaultCause::WriteProtected => {
                // Leaf write to a read-only shadow entry: either the guest
                // really mapped it read-only (reflect), or this is the
                // dirty-bit tracking trick (A/D sync trap).
                let guest = self.gpt_lookup(mem, pid, gva.raw());
                // Host-level sharing? Break it and rebuild the leaf.
                if let Some((gpte, glevel)) = guest {
                    if gpte.is_writable() && glevel == Level::L1 {
                        let gframe = GuestFrame::new(gpte.frame_raw());
                        let (_, _, host_w) = self.hpt_ensure(mem, gframe);
                        if !host_w {
                            self.trap(VmtrapKind::EptViolation, 1);
                            self.host_cow_break(mem, gframe);
                            self.drop_shadow_leaf(mem, pid, gva.raw());
                            return FaultOutcome::Fixed;
                        }
                    }
                }
                match guest {
                    Some((gpte, glevel)) if gpte.is_writable() => {
                        self.trap(VmtrapKind::AdBitSync, 1);
                        {
                            let proc = self.procs.get_mut(&pid).expect("unknown process");
                            let _ =
                                proc.gpt
                                    .update_entry(mem, &self.gmap, gva.raw(), glevel, |p| {
                                        p.with_flags(PteFlags::DIRTY | PteFlags::ACCESSED)
                                    });
                        }
                        let spt = self.proc(pid).spt.expect("shadow technique");
                        for size in PageSize::ALL {
                            let _ = spt.update_entry(
                                mem,
                                &HostSpace,
                                gva.raw(),
                                size.leaf_level(),
                                |p| {
                                    if p.is_present() && p.is_leaf_at(size.leaf_level()) {
                                        p.with_flags(
                                            PteFlags::WRITABLE
                                                | PteFlags::DIRTY
                                                | PteFlags::ACCESSED,
                                        )
                                    } else {
                                        p
                                    }
                                },
                            );
                        }
                        self.flush_range(pid, gva.raw(), Level::L1);
                        FaultOutcome::Fixed
                    }
                    _ => {
                        self.trap(VmtrapKind::GuestFaultReflection, 1);
                        FaultOutcome::ReflectToGuest(Fault::GuestPageFault {
                            gva,
                            level,
                            access,
                            cause: FaultCause::WriteProtected,
                        })
                    }
                }
            }
            // A switching bit on a shadow leaf (a corrupted entry): drop
            // the leaf so the retried walk rebuilds it from the guest table.
            FaultCause::ReservedBit => {
                self.trap(VmtrapKind::HiddenPageFault, 1);
                self.drop_shadow_leaf(mem, pid, gva.raw());
                FaultOutcome::Fixed
            }
            FaultCause::NotPresent => match self.sync_shadow(mem, pid, gva, access) {
                Ok(()) => {
                    self.trap(VmtrapKind::HiddenPageFault, 1);
                    FaultOutcome::Fixed
                }
                Err(guest_fault) => {
                    self.trap(VmtrapKind::GuestFaultReflection, 1);
                    FaultOutcome::ReflectToGuest(guest_fault)
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Context switches and TLB flush interception
    // ------------------------------------------------------------------

    /// Guest writes its page-table pointer register to schedule `to`.
    pub fn guest_context_switch(&mut self, mem: &mut PhysMem, to: ProcessId) {
        assert!(self.procs.contains_key(&to), "unknown process");
        let from = self.current;
        self.current = Some(to);
        match self.technique {
            Technique::Native | Technique::Nested => return,
            Technique::Shsp(_)
                if self
                    .shsp
                    .as_ref()
                    .is_some_and(|c| c.mode() == ShspMode::Nested) =>
            {
                return;
            }
            Technique::Agile(_) if self.proc(to).full_nested => return,
            _ => {}
        }
        // Resync the outgoing process's unsynced pages (a CR3 write is an
        // architectural synchronization point).
        if let Some(f) = from {
            self.resync_unsynced(mem, f);
        }
        // Hardware gptr⇒sptr cache (HW optimization 2).
        let gptr = self.proc(to).gptr().raw();
        let sptr = self.proc(to).spt.map(|t| t.root_raw()).unwrap_or(0);
        if let Some(cache) = self.ctx_cache.as_mut() {
            if cache.lookup(0, &gptr).is_some() {
                self.counters.ctx_cache_hits += 1;
                return;
            }
            cache.insert(0, gptr, sptr);
        }
        self.trap(VmtrapKind::ContextSwitch, 1);
    }

    /// Guest executes a targeted `invlpg` for `gva`. The VMM must intercept
    /// it only when the covered region has shadow-derived state to keep
    /// consistent; for a region in agile nested mode the hardware-managed
    /// TLB needs no VMM help, exactly as under pure nested paging (this is
    /// a key source of agile paging's copy-on-write win, paper Section V).
    pub fn guest_invlpg(&mut self, mem: &mut PhysMem, pid: ProcessId, gva: u64) {
        match self.technique {
            Technique::Native | Technique::Nested => return,
            _ if self.full_nested(pid) => return,
            Technique::Agile(_) => {
                // Deepest tracked page covering gva decides the mode.
                let proc = self.proc(pid);
                let mut mode = None;
                for l in Level::top().walk_order() {
                    match proc.gpt.table_frame(mem, &self.gmap, gva, l) {
                        Some(f) => {
                            if let Some(i) = proc.pages.get(&GuestFrame::new(f)) {
                                mode = Some(i.mode);
                            }
                        }
                        None => break,
                    }
                }
                if mode == Some(GptPageMode::Nested) {
                    return;
                }
            }
            _ => {}
        }
        self.trap(VmtrapKind::TlbFlush, 1);
        self.resync_unsynced(mem, pid);
        self.flush_asid(pid);
    }

    /// Guest flushes its TLB (full flush or `invlpg`). Under shadow-style
    /// techniques this traps so the VMM can resynchronize unsynced pages.
    pub fn guest_tlb_flush(&mut self, mem: &mut PhysMem, pid: ProcessId) {
        match self.technique {
            Technique::Native | Technique::Nested => return,
            _ if self.full_nested(pid) => return,
            _ => {}
        }
        self.trap(VmtrapKind::TlbFlush, 1);
        self.resync_unsynced(mem, pid);
        self.flush_asid(pid);
    }

    /// Re-protects every unsynced page, reconciling its shadow entries in
    /// place with the guest table (KVM-style sync: stale entries are fixed
    /// or dropped inside the trap; no refault storm follows).
    fn resync_unsynced(&mut self, mem: &mut PhysMem, pid: ProcessId) {
        let unsynced: Vec<GuestFrame> = self
            .proc(pid)
            .pages
            .iter()
            .filter(|(_, i)| i.mode == GptPageMode::Unsynced)
            .map(|(g, _)| *g)
            .collect();
        for page in unsynced {
            self.counters.resyncs += 1;
            self.reconcile_page(mem, pid, page);
            if let Some(i) = self
                .procs
                .get_mut(&pid)
                .and_then(|p| p.pages.get_mut(&page))
            {
                i.mode = GptPageMode::Synced;
                i.shadowed = true;
            }
        }
    }

    /// Rewrites the shadow leaf entries derived from one (leaf-level) guest
    /// table page so they match the guest table again. The shadow and
    /// guest L1 table pages covering the page's 2 MiB are found once, and
    /// only present shadow entries written since the page's last
    /// reconcile, on either side, are visited, by index. An entry written
    /// on neither side already holds what the rebuild would write: the
    /// last reconcile wrote it from the same guest entry, and only
    /// [`Vmm::host_remap`], which marks every entry written, changes the
    /// host mapping it derives from (DESIGN.md §5h). Nothing here edits
    /// either table's interior path ([`Vmm::hpt_ensure`] edits only the
    /// host table), so both pages stay put for the whole loop.
    fn reconcile_page(&mut self, mem: &mut PhysMem, pid: ProcessId, page: GuestFrame) {
        let Some(info) = self.proc(pid).pages.get(&page).copied() else {
            return;
        };
        if info.level != Level::L1 {
            return;
        }
        let Some(spt) = self.proc(pid).spt else {
            return;
        };
        if let Some(shadow) = spt.table_frame(mem, &HostSpace, info.va_base, Level::L1) {
            let shadow = HostFrame::new(shadow);
            let guest = self
                .proc(pid)
                .gpt
                .table_frame(mem, &self.gmap, info.va_base, Level::L1)
                .map(|g| self.gmap.resolve(g));
            let present = mem.table(shadow).expect("shadow table page").present_bits();
            let mut visit = mem.take_written(shadow);
            // No guest page: every present shadow entry is stale.
            let guest_written = guest.map_or(ALL_ENTRIES, |g| mem.take_written(g));
            for ((v, p), g) in visit.iter_mut().zip(present).zip(guest_written) {
                *v = (*v | g) & p;
            }
            #[cfg(debug_assertions)]
            self.check_unvisited(mem, shadow, guest, present, visit);
            let hw_ad = self.technique.hw_ad_bits();
            for i in entry_indices(visit) {
                let g = guest.map_or(Pte::empty(), |g| mem.read_pte(g, i));
                let gframe = GuestFrame::new(g.frame_raw());
                let rebuilt = if g.is_present() && self.gmap.backing(gframe).is_some() {
                    let (backing, _, host_w) = self.hpt_ensure(mem, gframe);
                    reconciled_leaf(g, backing, host_w, hw_ad)
                } else {
                    // Gone from the guest table, or backed by no frame.
                    Pte::empty()
                };
                mem.write_pte(shadow, i, rebuilt);
            }
            // The rebuild's own writes are not changes for the next one.
            mem.take_written(shadow);
        }
        self.flush_range(pid, info.va_base, Level::L2);
    }

    /// The debug-build check behind [`Vmm::reconcile_page`]'s skip: every
    /// present shadow entry outside `visit` equals the leaf a rebuild would
    /// write, and that rebuild finds its host mapping, so a skipped entry
    /// skips neither a change nor a host-table allocation.
    #[cfg(debug_assertions)]
    fn check_unvisited(
        &self,
        mem: &PhysMem,
        shadow: HostFrame,
        guest: Option<HostFrame>,
        present: agile_mem::EntryBits,
        visit: agile_mem::EntryBits,
    ) {
        let mut skipped = present;
        for (s, v) in skipped.iter_mut().zip(visit) {
            *s &= !v;
        }
        for i in entry_indices(skipped) {
            let g = guest.map_or(Pte::empty(), |g| mem.read_pte(g, i));
            let gframe = GuestFrame::new(g.frame_raw());
            let want = if g.is_present() && self.gmap.backing(gframe).is_some() {
                let (backing, _, host_w) = self.hpt_mapped(mem, gframe).unwrap_or_else(|| {
                    panic!("skipped shadow entry {i} of {shadow}: {gframe} has no host mapping")
                });
                reconciled_leaf(g, backing, host_w, self.technique.hw_ad_bits())
            } else {
                Pte::empty()
            };
            assert_eq!(
                mem.read_pte(shadow, i),
                want,
                "skipped shadow entry {i} of {shadow} is stale"
            );
        }
    }

    // ------------------------------------------------------------------
    // Interval policies
    // ------------------------------------------------------------------

    /// Advances the policy clock by one interval. `tlb_misses` is the
    /// number of TLB misses observed during the interval (fed to SHSP).
    pub fn interval_tick(&mut self, mem: &mut PhysMem, tlb_misses: u64) {
        self.ticks += 1;
        match self.technique {
            Technique::Agile(opts) => {
                // Trap-storm hysteresis (degradation guard): a guest hammering
                // its page tables makes every shadow-mode subtree a trap
                // magnet. Past the threshold, stop nursing subtrees — fall
                // whole processes back to nested mode (writes go direct) and
                // suppress reverts for a cooldown so the policy cannot
                // oscillate against a sustained storm.
                let storming = match opts.storm_threshold {
                    Some(t) => {
                        let now = self.traps.count(VmtrapKind::GptWrite);
                        let delta = now - self.gpt_write_traps_at_tick;
                        self.gpt_write_traps_at_tick = now;
                        delta >= t
                    }
                    None => false,
                };
                if storming {
                    self.storm_hold_until = self.ticks + opts.storm_cooldown.max(1);
                }
                let holding = self.ticks < self.storm_hold_until;
                for pid in self.processes() {
                    if storming {
                        let root = GuestFrame::new(self.proc(pid).gpt.root_raw());
                        if self.proc(pid).pages.get(&root).map(|i| i.mode)
                            != Some(GptPageMode::Nested)
                        {
                            self.convert_to_nested(mem, pid, root);
                            self.counters.storm_fallbacks += 1;
                        }
                        let proc = self.procs.get_mut(&pid).expect("process");
                        for i in proc.pages.values_mut() {
                            i.writes_this_interval = 0;
                        }
                        continue;
                    }
                    if opts.start_in_nested && self.proc(pid).full_nested {
                        // Engage shadow mode after the first interval.
                        let proc = self.procs.get_mut(&pid).expect("process");
                        proc.full_nested = false;
                        for i in proc.pages.values_mut() {
                            i.mode = GptPageMode::Synced;
                            i.writes_this_interval = 0;
                        }
                        self.flush_asid(pid);
                        continue;
                    }
                    if !holding {
                        self.apply_nested_to_shadow_policy(mem, pid, opts.nested_to_shadow);
                    }
                    let proc = self.procs.get_mut(&pid).expect("process");
                    for i in proc.pages.values_mut() {
                        i.writes_this_interval = 0;
                    }
                }
            }
            Technique::Shsp(_) => {
                let writes = self.gpt_writes_this_interval;
                let decision = self
                    .shsp
                    .as_mut()
                    .expect("shsp controller")
                    .evaluate(tlb_misses, writes);
                if let Some(mode) = decision {
                    self.apply_shsp_switch(mem, mode);
                }
            }
            _ => {}
        }
        self.gpt_writes_this_interval = 0;
    }

    fn apply_nested_to_shadow_policy(
        &mut self,
        mem: &mut PhysMem,
        pid: ProcessId,
        policy: NestedToShadowPolicy,
    ) {
        // Candidate pages in parent-first (higher level first) order, with
        // the frame number as a total-order tiebreak: conversions allocate
        // frames, so the processing order shapes the machine's frame
        // assignment (and thus its snapshot bytes).
        let mut nested: Vec<(GuestFrame, Level)> = self
            .proc(pid)
            .pages
            .iter()
            .filter(|(_, i)| i.mode == GptPageMode::Nested)
            .map(|(g, i)| (*g, i.level))
            .collect();
        nested.sort_unstable_by_key(|&(g, level)| (std::cmp::Reverse(level), g.raw()));
        for (page, _) in nested {
            let revert = match policy {
                NestedToShadowPolicy::PeriodicReset => true,
                NestedToShadowPolicy::DirtyBitScan => {
                    // Keep the page nested iff its backing host-table entry
                    // was dirtied this interval; clear the bit either way
                    // (the paper clears at interval start and scans at end).
                    let gpa = page.base();
                    let dirty = self
                        .hpt
                        .lookup(mem, &HostSpace, gpa.raw())
                        .map(|(p, _)| p.flags().contains(PteFlags::DIRTY))
                        .unwrap_or(false);
                    if dirty {
                        if let Some((_, l)) = self.hpt.lookup(mem, &HostSpace, gpa.raw()) {
                            let _ = self.hpt.update_entry(mem, &HostSpace, gpa.raw(), l, |p| {
                                p.without_flags(PteFlags::DIRTY)
                            });
                        }
                    }
                    !dirty
                }
            };
            if revert {
                self.convert_to_shadow(mem, pid, page);
            }
        }
    }

    fn apply_shsp_switch(&mut self, mem: &mut PhysMem, mode: ShspMode) {
        let pids = self.processes();
        match mode {
            ShspMode::Nested => {
                for pid in pids {
                    let proc = self.procs.get_mut(&pid).expect("process");
                    proc.full_nested = true;
                    for i in proc.pages.values_mut() {
                        i.mode = GptPageMode::Nested;
                    }
                    // Drop the shadow table contents (kept as an empty root
                    // for the next shadow phase).
                    if let Some(spt) = proc.spt {
                        spt.zap_subtree(mem, &mut HostSpace, 0, Level::L4);
                    }
                    self.trap(VmtrapKind::TlbFlush, 1);
                    self.flush_asid(pid);
                }
            }
            ShspMode::Shadow => {
                for pid in pids {
                    {
                        let proc = self.procs.get_mut(&pid).expect("process");
                        proc.full_nested = false;
                        for i in proc.pages.values_mut() {
                            i.mode = GptPageMode::Synced;
                        }
                    }
                    // SHSP's cost: (re)build the entire shadow table now.
                    let built = self.sync_full_shadow(mem, pid);
                    self.trap(VmtrapKind::ShadowRebuild, built.max(1));
                    self.flush_asid(pid);
                }
            }
        }
    }

    /// Eagerly builds the whole shadow table from the guest table (SHSP's
    /// switch-to-shadow step). Returns the number of leaves built.
    fn sync_full_shadow(&mut self, mem: &mut PhysMem, pid: ProcessId) -> u64 {
        let leaves: Vec<(u64, Level)> = {
            let proc = self.proc(pid);
            let mut v = Vec::new();
            proc.gpt
                .for_each_present(mem, &self.gmap, |va, level, pte| {
                    if pte.is_leaf_at(level) {
                        v.push((va, level));
                    }
                });
            v
        };
        let mut built = 0;
        for (va, _) in &leaves {
            if self
                .sync_shadow(mem, pid, GuestVirtAddr::new(*va), AccessKind::Read)
                .is_ok()
            {
                built += 1;
            }
        }
        built
    }

    // ------------------------------------------------------------------
    // Hardware-facing state
    // ------------------------------------------------------------------

    /// The architectural roots the hardware should use for `pid`. This is
    /// the one place that chooses a walk by technique: each technique only
    /// picks the state the one hardware walk starts from.
    #[must_use]
    pub fn hw_roots(&self, pid: ProcessId) -> HwRoots {
        let proc = self.proc(pid);
        let spt_root = || HostFrame::new(proc.spt.expect("shadow or merged table").root_raw());
        let cr3 = match (self.technique, proc.full_nested, proc.root_nested) {
            (Technique::Native, ..) => AgileCr3::Native { root: spt_root() },
            // Nested paging, SHSP's nested phase, and agile before shadow
            // engagement: the whole address space is walked nested.
            (Technique::Nested, ..) | (_, true, _) => AgileCr3::FullNested,
            (Technique::Shadow | Technique::Shsp(_), false, _) => AgileCr3::ShadowOnly {
                spt_root: spt_root(),
            },
            (Technique::Agile(_), false, true) => AgileCr3::NestedFromRoot {
                gpt_root: self.gmap.resolve(proc.gpt.root_raw()),
            },
            (Technique::Agile(_), false, false) => AgileCr3::Shadow {
                spt_root: spt_root(),
            },
        };
        HwRoots {
            cr3,
            gptr: proc.gptr(),
            hptr: self.hptr(),
        }
    }

    // ------------------------------------------------------------------
    // Snapshot persistence
    // ------------------------------------------------------------------

    /// Serializes the VMM's run-varying state: the guest memory map, the
    /// host-table root, per-process paging state, trap and event counters,
    /// the context-pointer cache, pending shootdowns, and the policy
    /// clocks. Configuration (VM id, technique, cost model) is not
    /// written — a restore targets a VMM built from the same system
    /// configuration, and [`Vmm::load_state`] validates the shape against
    /// it instead.
    ///
    /// The guest memory map is one part, with the map's mutation counter
    /// as generation. Each process's paging state is a part, with its pid
    /// as id and its `Procs` generation, and the context-pointer cache's
    /// sets or slots are parts.
    pub fn save_to<S: StateSink>(&self, s: &mut S) {
        let generation = (self.gmap.generation(), 0);
        if s.group(generation) {
            s.part(0, generation, |e| self.gmap.save_state(e));
        }
        let e = s.enc();
        e.u64(self.hpt.root_raw());
        e.seq(self.procs.len());
        if s.group((self.procs.changes(), 0)) {
            for (pid, proc, generation) in self.procs.iter() {
                s.part(u64::from(pid.raw()), (generation, 0), |e| {
                    pid.save(e);
                    e.u64(proc.gpt.root_raw());
                    proc.spt.map(|t| t.root_raw()).save(e);
                    save_sorted_map(e, &proc.pages);
                    e.bool(proc.full_nested);
                    e.bool(proc.root_nested);
                });
            }
        }
        let e = s.enc();
        self.traps.save(e);
        self.counters.save(e);
        match self.ctx_cache.as_ref() {
            Some(cache) => {
                s.enc().u8(1);
                cache.save_to(s);
            }
            None => s.enc().u8(0),
        }
        let e = s.enc();
        self.current.save(e);
        self.pending_flushes.save(e);
        match self.shsp.as_ref() {
            Some(c) => {
                e.u8(1);
                c.save_state(e);
            }
            None => e.u8(0),
        }
        e.u64(self.gpt_writes_this_interval);
        e.u64(self.ticks);
        e.u64(self.gpt_write_traps_at_tick);
        e.u64(self.storm_hold_until);
        self.write_trace.save(e);
    }

    /// Restores state saved by [`Vmm::save_to`] into this VMM. `mem`
    /// must already hold the restored physical-memory image the table
    /// roots refer to; the VMM must have been built from the same
    /// configuration that produced the snapshot.
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes, on table roots that are not table pages
    /// in `mem`, and when the snapshot's shape contradicts the live
    /// configuration (shadow-root / SHSP / context-cache presence).
    pub fn load_state(&mut self, mem: &PhysMem, d: &mut Dec) -> Result<(), CodecError> {
        self.gmap.load_state(d)?;
        let hpt_root = d.u64()?;
        if mem.table(HostSpace.resolve(hpt_root)).is_none() {
            return d.fail(format!("host-table root {hpt_root} is not a table page"));
        }
        self.hpt = RadixTable::from_root(hpt_root);
        let nprocs = d.len_prefix()?;
        self.procs.clear();
        for _ in 0..nprocs {
            let pid = ProcessId::load(d)?;
            let gpt_root = d.u64()?;
            let backed = self
                .gmap
                .backing(GuestFrame::new(gpt_root))
                .is_some_and(|h| mem.table(h).is_some());
            if !backed {
                return d.fail(format!("guest-table root {gpt_root} is not a table page"));
            }
            let spt_root: Option<u64> = Option::load(d)?;
            if spt_root.is_some() != self.technique.uses_shadow() {
                return d.fail(format!(
                    "shadow-root presence contradicts technique {}",
                    self.technique.label()
                ));
            }
            if let Some(root) = spt_root {
                if mem.table(HostSpace.resolve(root)).is_none() {
                    return d.fail(format!("shadow-table root {root} is not a table page"));
                }
            }
            let pages: BTreeMap<GuestFrame, GptPageInfo> =
                load_map_entries(d)?.into_iter().collect();
            let full_nested = d.bool()?;
            let root_nested = d.bool()?;
            if self.procs.contains_key(&pid) {
                return d.fail(format!("duplicate process {} in snapshot", pid.raw()));
            }
            self.procs.insert(
                pid,
                ProcState {
                    gpt: RadixTable::from_root(gpt_root),
                    spt: spt_root.map(RadixTable::from_root),
                    pages,
                    full_nested,
                    root_nested,
                },
            );
        }
        self.traps = VmtrapStats::load(d)?;
        self.counters = VmmCounters::load(d)?;
        let has_ctx_cache = d.u8()?;
        match (has_ctx_cache, self.ctx_cache.as_mut()) {
            (1, Some(cache)) => cache.load_state(d)?,
            (0, None) => {}
            _ => return d.fail("context-cache presence contradicts the configuration".to_string()),
        }
        let current: Option<ProcessId> = Option::load(d)?;
        if let Some(pid) = current {
            if !self.procs.contains_key(&pid) {
                return d.fail(format!("current process {} unknown", pid.raw()));
            }
        }
        self.current = current;
        self.pending_flushes = Vec::load(d)?;
        let has_shsp = d.u8()?;
        match (has_shsp, self.shsp.as_mut()) {
            (1, Some(c)) => c.load_state(d)?,
            (0, None) => {}
            _ => {
                return d.fail("SHSP-controller presence contradicts the configuration".to_string())
            }
        }
        self.gpt_writes_this_interval = d.u64()?;
        self.ticks = d.u64()?;
        self.gpt_write_traps_at_tick = d.u64()?;
        self.storm_hold_until = d.u64()?;
        self.write_trace = Option::load(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_mem::EntryBits;

    /// The 2 MiB region of the one leaf guest table page the tests edit.
    const BASE: u64 = 0x40_0000;
    /// The page whose `gpt_update`s unsync the leaf table page.
    const TRIGGER: u64 = 0;
    /// The page whose shadow leaf a soft error flips.
    const SHADOW: u64 = 1;
    /// The page faulted in by a read, so its shadow leaf starts read-only.
    const GUEST: u64 = 2;
    /// Two pages mapping one guest frame, both faulted in by writes.
    const SHARED: u64 = 3;
    const ALIAS: u64 = 4;
    const PAGES: u64 = 8;

    fn gva(page: u64) -> u64 {
        BASE + page * PageSize::Size4K.bytes()
    }

    fn shadow_leaf(mem: &PhysMem, vmm: &Vmm, pid: ProcessId, page: u64) -> Pte {
        let spt = vmm.proc(pid).spt.expect("shadow table");
        spt.entry(mem, &HostSpace, gva(page), Level::L1)
            .expect("shadow L1 page")
    }

    fn table_pages(mem: &PhysMem, vmm: &Vmm, pid: ProcessId) -> (HostFrame, HostFrame) {
        let proc = vmm.proc(pid);
        let shadow = proc.spt.expect("shadow table");
        let shadow = shadow.table_frame(mem, &HostSpace, BASE, Level::L1);
        let guest = proc.gpt.table_frame(mem, &vmm.gmap, BASE, Level::L1);
        (
            HostFrame::new(shadow.expect("shadow L1 page")),
            vmm.gmap.resolve(guest.expect("guest L1 page")),
        )
    }

    /// A shadow-paging VMM (no hardware A/D bits) with one process whose
    /// leaf guest table page maps eight writable pages, `ALIAS` onto
    /// `SHARED`'s guest frame. Every page has a shadow leaf. The page was
    /// unsynced and reconciled once, and is unsynced again: the next
    /// guest flush reconciles it.
    fn rig() -> (PhysMem, Vmm, ProcessId) {
        let mut mem = PhysMem::new();
        let mut vmm = Vmm::new(&mut mem, Technique::Shadow);
        let pid = ProcessId::new(1);
        vmm.create_process(&mut mem, pid);
        let mut frames = Vec::new();
        for page in 0..PAGES {
            let g = match page {
                ALIAS => frames[SHARED as usize],
                _ => vmm.alloc_guest_frame(&mut mem),
            };
            frames.push(g);
            vmm.gpt_map(
                &mut mem,
                pid,
                gva(page),
                g,
                PageSize::Size4K,
                PteFlags::WRITABLE,
            );
        }
        for page in 0..PAGES {
            let access = match page {
                GUEST => AccessKind::Read,
                _ => AccessKind::Write,
            };
            let fault = Fault::ShadowPageFault {
                gva: GuestVirtAddr::new(gva(page)),
                level: Level::L1,
                access,
                cause: FaultCause::NotPresent,
            };
            assert_eq!(vmm.handle_fault(&mut mem, pid, fault), FaultOutcome::Fixed);
        }
        for _ in 0..2 {
            let unsyncs = vmm.counters.unsyncs;
            vmm.gpt_update(&mut mem, pid, gva(TRIGGER), Level::L1, |p| {
                p.without_flags(PteFlags::ACCESSED)
            });
            assert_eq!(vmm.counters.unsyncs, unsyncs + 1, "the update unsyncs");
            if vmm.counters.resyncs == 0 {
                vmm.guest_tlb_flush(&mut mem, pid);
            }
        }
        (mem, vmm, pid)
    }

    fn state_bytes(mem: &PhysMem, vmm: &Vmm) -> Vec<u8> {
        let mut e = Enc::new();
        mem.save_to(&mut e);
        vmm.save_to(&mut e);
        e.into_bytes()
    }

    /// Applies `change` to a fresh rig, then flushes, once as is and once
    /// with every entry marked written first, which makes the reconcile
    /// the full rebuild. Asserts both end in the same bytes, and returns
    /// `page`'s shadow leaf before and after the flush.
    fn reconcile_after(
        change: impl Fn(&mut PhysMem, &mut Vmm, ProcessId),
        page: u64,
    ) -> (Pte, Pte) {
        let run = |full: bool| {
            let (mut mem, mut vmm, pid) = rig();
            change(&mut mem, &mut vmm, pid);
            let before = shadow_leaf(&mem, &vmm, pid, page);
            if full {
                mem.mark_all_written();
            }
            let resyncs = vmm.counters.resyncs;
            vmm.guest_tlb_flush(&mut mem, pid);
            assert_eq!(vmm.counters.resyncs, resyncs + 1, "the flush reconciles");
            let after = shadow_leaf(&mem, &vmm, pid, page);
            // The reconcile took both pages' written bits and left none.
            let (shadow, guest) = table_pages(&mem, &vmm, pid);
            assert_eq!(mem.take_written(shadow), EntryBits::default());
            assert_eq!(mem.take_written(guest), EntryBits::default());
            (state_bytes(&mem, &vmm), before, after)
        };
        let (full, ..) = run(true);
        let (bytes, before, after) = run(false);
        assert!(bytes == full, "the reconcile differs from the full rebuild");
        (before, after)
    }

    #[test]
    fn a_written_shadow_entry_alone_is_reconciled() {
        let (before, after) = reconcile_after(
            |mem, vmm, pid| {
                let flipped = vmm.chaos_corrupt_shadow_leaf(mem, pid, gva(SHADOW), 12);
                assert_eq!(flipped, Some(Level::L1));
            },
            SHADOW,
        );
        assert_eq!(before.frame_raw() ^ after.frame_raw(), 1, "the flip healed");
    }

    #[test]
    fn a_guest_entry_written_behind_the_interception_alone_is_reconciled() {
        let (before, after) = reconcile_after(
            |mem, vmm, pid| {
                let writes = vmm.counters.gpt_writes_total;
                vmm.set_guest_ad_bits(mem, pid, gva(GUEST), true);
                assert_eq!(vmm.counters.gpt_writes_total, writes, "no interception");
            },
            GUEST,
        );
        assert!(
            !before.is_writable(),
            "read-faulted leaf waits for the D bit"
        );
        assert!(
            after.is_writable(),
            "the guest D bit reached the shadow leaf"
        );
    }

    #[test]
    fn a_host_remap_alone_is_reconciled() {
        let (before, after) = reconcile_after(
            |mem, vmm, pid| {
                vmm.host_share(mem, pid, &[gva(SHARED)]);
            },
            ALIAS,
        );
        assert!(
            before.is_writable(),
            "the alias still writes the old mapping"
        );
        assert!(!after.is_writable(), "the shared frame is read-only");
    }

    /// A sink that keeps each saved table page's write counter, which
    /// [`PhysMem::save_to`] passes as the first half of the page's part
    /// generation.
    struct PageWrites {
        enc: Enc,
        writes: BTreeMap<u64, u64>,
    }

    impl StateSink for PageWrites {
        fn enc(&mut self) -> &mut Enc {
            &mut self.enc
        }
        fn group(&mut self, _: (u64, u64)) -> bool {
            true
        }
        fn part(&mut self, id: u64, generation: (u64, u64), _: impl FnOnce(&mut Enc)) {
            self.writes.insert(id, generation.0);
        }
        fn dense(
            &mut self,
            _: usize,
            _: impl Fn(usize) -> (u64, u64),
            _: impl FnMut(usize, &mut Enc),
        ) {
        }
        fn append_only(&mut self, _: usize, _: impl FnMut(usize, &mut Enc)) {}
    }

    fn page_writes(mem: &PhysMem, frame: HostFrame) -> u64 {
        let mut sink = PageWrites {
            enc: Enc::new(),
            writes: BTreeMap::new(),
        };
        mem.save_to(&mut sink);
        sink.writes[&frame.raw()]
    }

    #[test]
    fn a_flush_with_nothing_changed_rewrites_no_entry() {
        let (before, after) = reconcile_after(|_, _, _| {}, GUEST);
        assert_eq!(before, after);
        for full in [false, true] {
            let (mut mem, mut vmm, pid) = rig();
            let (shadow, _) = table_pages(&mem, &vmm, pid);
            let present = mem.table(shadow).unwrap().present_count() as u64;
            assert_eq!(present, PAGES - 1, "every page but the trigger");
            if full {
                mem.mark_all_written();
            }
            let writes = page_writes(&mem, shadow);
            vmm.guest_tlb_flush(&mut mem, pid);
            // Only the trigger's entries were written since the last
            // reconcile, and its shadow leaf is gone: nothing to rebuild.
            let rebuilt = if full { present } else { 0 };
            assert_eq!(page_writes(&mem, shadow), writes + rebuilt);
        }
    }
}
