//! Per-process virtualization state tracked by the VMM.

use agile_mem::RadixTable;
use agile_types::{CodecError, Dec, Enc, GuestFrame, HostFrame, Level, Persist, ProcessId};
use agile_walk::AgileCr3;
use std::collections::BTreeMap;

/// Mode of one guest page-table page, as the VMM tracks it (paper Section
/// III-B/III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GptPageMode {
    /// Write-protected and mirrored by the shadow table: guest writes trap.
    Synced,
    /// KVM-style unsynced page: temporarily writable; the corresponding
    /// shadow entries were dropped and will resync at the next TLB flush or
    /// context switch.
    Unsynced,
    /// Agile nested mode: the page (and everything below it) is walked in
    /// nested mode, so guest writes are direct.
    Nested,
}

agile_types::record! {
    /// What the VMM knows about one guest page-table page. Read-only views of
    /// this metadata are exposed through [`crate::Vmm::gpt_pages`] for the
    /// static analyzer and tests; the VMM alone mutates it.
    #[derive(Debug, Clone, Copy)]
    pub struct GptPageInfo {
        /// Radix level of the entries this page holds.
        pub level: Level,
        /// First guest virtual address covered by the page.
        pub va_base: u64,
        /// Current interception mode.
        pub mode: GptPageMode,
        /// Writes the VMM has observed to the page in the current interval
        /// (the paper's bimodal write detector).
        pub writes_this_interval: u32,
        /// Whether the shadow table currently mirrors entries derived from this
        /// page. Only shadowed pages are write-protected, so only they trap.
        pub shadowed: bool,
    }
}

impl Persist for GptPageMode {
    fn save(&self, e: &mut Enc) {
        e.u8(match self {
            GptPageMode::Synced => 0,
            GptPageMode::Unsynced => 1,
            GptPageMode::Nested => 2,
        });
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        match d.u8()? {
            0 => Ok(GptPageMode::Synced),
            1 => Ok(GptPageMode::Unsynced),
            2 => Ok(GptPageMode::Nested),
            b => d.fail(format!("bad GptPageMode tag {b}")),
        }
    }
}

/// Per-process state.
#[derive(Debug)]
pub(crate) struct ProcState {
    /// Guest page table (pages live in guest frames).
    pub gpt: RadixTable,
    /// Shadow page table, when the technique maintains one.
    pub spt: Option<RadixTable>,
    /// Metadata per guest page-table page.
    pub pages: BTreeMap<GuestFrame, GptPageInfo>,
    /// Whole address space currently in nested mode (Technique::Nested,
    /// SHSP nested phase, or agile before shadow engagement).
    pub full_nested: bool,
    /// Agile: the root itself switched to nested mode (register-level
    /// switching bit → 20-reference walks).
    pub root_nested: bool,
}

impl ProcState {
    /// The guest page-table root as a guest frame (`gptr`).
    pub fn gptr(&self) -> GuestFrame {
        GuestFrame::new(self.gpt.root_raw())
    }
}

/// The per-process states by pid, each with its part generation in
/// `Vmm::save_to`. [`Procs::get_mut`] and [`Procs::insert`] are the only
/// ways to change a state, and each counts one change and stamps the state
/// with the count, so a state's bytes move only with its generation.
#[derive(Debug, Default)]
pub(crate) struct Procs {
    map: BTreeMap<ProcessId, (ProcState, u64)>,
    /// Changes so far, over all states.
    changes: u64,
}

impl Procs {
    pub fn get(&self, pid: &ProcessId) -> Option<&ProcState> {
        self.map.get(pid).map(|(proc, _)| proc)
    }

    /// `pid`'s state, for a change: moves its generation.
    pub fn get_mut(&mut self, pid: &ProcessId) -> Option<&mut ProcState> {
        self.changes += 1;
        let (proc, generation) = self.map.get_mut(pid)?;
        *generation = self.changes;
        Some(proc)
    }

    pub fn insert(&mut self, pid: ProcessId, proc: ProcState) {
        self.changes += 1;
        self.map.insert(pid, (proc, self.changes));
    }

    pub fn clear(&mut self) {
        self.changes += 1;
        self.map.clear();
    }

    pub fn contains_key(&self, pid: &ProcessId) -> bool {
        self.map.contains_key(pid)
    }

    pub fn keys(&self) -> impl Iterator<Item = &ProcessId> {
        self.map.keys()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Every state with its pid and generation, by pid.
    pub fn iter(&self) -> impl Iterator<Item = (&ProcessId, &ProcState, u64)> {
        self.map.iter().map(|(pid, (proc, g))| (pid, proc, *g))
    }

    /// Changes so far: the generation of the states' group.
    pub fn changes(&self) -> u64 {
        self.changes
    }
}

/// The architectural registers the VMM programs for the current process
/// (the paper's `sptr`, `gptr` and `hptr`, Section III-A): the state the
/// hardware walk starts from plus the guest and host page-table roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwRoots {
    /// Walk start state.
    pub cr3: AgileCr3,
    /// Guest page-table root.
    pub gptr: GuestFrame,
    /// Host page-table root.
    pub hptr: HostFrame,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_are_distinct() {
        assert_ne!(GptPageMode::Synced, GptPageMode::Unsynced);
        assert_ne!(GptPageMode::Unsynced, GptPageMode::Nested);
    }
}
