//! The nested TLB: a gPA⇒hPA cache used during 2D walks.

use crate::cache::{CacheStats, SetAssocCache};
use crate::config::PwcConfig;
use agile_types::{CodecError, Dec, GuestFrame, HostFrame, PageSize, StateSink, VmId};

agile_types::record! {
    /// A cached gPA⇒hPA translation: the backing host frame of one guest 4 KiB
    /// frame, plus the host mapping's page size and writability (so the final
    /// TLB entry's effective size and permissions can be computed on a hit).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NtlbEntry {
        /// Host frame backing the guest frame.
        pub frame: HostFrame,
        /// Page size of the host-table mapping the entry came from.
        pub size: PageSize,
        /// Whether the host mapping permits writes.
        pub writable: bool,
    }
}

/// Caches guest-frame to host-frame translations so the nested portions of
/// a 2D walk can skip the 4-reference host-table walk for guest page-table
/// accesses (Bhargava et al. \[19\]; Intel's EPT TLB).
///
/// Tagged by VM, since the host page table is per-VM.
///
/// # Example
///
/// ```
/// use agile_tlb::{NestedTlb, NtlbEntry, PwcConfig};
/// use agile_types::{GuestFrame, HostFrame, PageSize, VmId};
///
/// let mut ntlb = NestedTlb::new(&PwcConfig::default());
/// let vm = VmId::new(0);
/// assert!(ntlb.lookup(vm, GuestFrame::new(7)).is_none());
/// let e = NtlbEntry { frame: HostFrame::new(0x70), size: PageSize::Size4K, writable: true };
/// ntlb.fill(vm, GuestFrame::new(7), e);
/// assert_eq!(ntlb.lookup(vm, GuestFrame::new(7)), Some(e));
/// ```
#[derive(Debug, Clone)]
pub struct NestedTlb {
    cache: SetAssocCache<(VmId, GuestFrame), NtlbEntry>,
    enabled: bool,
}

impl NestedTlb {
    /// Builds the nested TLB from the walk-cache configuration (it shares
    /// the master enable with the PWCs).
    #[must_use]
    pub fn new(cfg: &PwcConfig) -> Self {
        NestedTlb {
            cache: SetAssocCache::fully_associative(cfg.ntlb_entries.max(1)),
            enabled: cfg.enabled,
        }
    }

    /// Looks up the host frame backing `gframe` in `vm`.
    pub fn lookup(&mut self, vm: VmId, gframe: GuestFrame) -> Option<NtlbEntry> {
        if !self.enabled {
            return None;
        }
        self.cache.lookup(0, &(vm, gframe))
    }

    /// Installs a translation after a host walk.
    pub fn fill(&mut self, vm: VmId, gframe: GuestFrame, entry: NtlbEntry) {
        if !self.enabled {
            return;
        }
        self.cache.insert(0, (vm, gframe), entry);
    }

    /// Invalidates one guest frame's translation (host PT edit).
    pub fn invalidate(&mut self, vm: VmId, gframe: GuestFrame) {
        self.cache.invalidate(0, &(vm, gframe));
    }

    /// Drops every translation of `vm`.
    pub fn flush_vm(&mut self, vm: VmId) {
        self.cache.invalidate_if(|(v, _), _| *v == vm);
    }

    /// Full flush.
    pub fn flush_all(&mut self) {
        self.cache.flush();
    }

    /// Every cached translation as `(vm, guest frame, entry)`. Read-only —
    /// LRU state and counters are untouched. Used by the verify layer's
    /// coherence audit.
    #[must_use]
    pub fn entries(&self) -> Vec<(VmId, GuestFrame, NtlbEntry)> {
        self.cache
            .iter()
            .map(|(&(vm, gframe), &e)| (vm, gframe, e))
            .collect()
    }

    /// Hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Appends the structure's contents, LRU state, and counters to `s`.
    /// The cache's sets are parts ([`SetAssocCache::save_to`]).
    pub fn save_to<S: StateSink>(&self, s: &mut S) {
        s.enc().bool(self.enabled);
        self.cache.save_to(s);
    }

    /// Restores state captured by [`NestedTlb::save_to`]. The geometry
    /// (same [`PwcConfig`]) must match.
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        let enabled = d.bool()?;
        if enabled != self.enabled {
            return d.fail("nested-TLB enable bit mismatch");
        }
        self.cache.load_state(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(frame: u64) -> NtlbEntry {
        NtlbEntry {
            frame: HostFrame::new(frame),
            size: PageSize::Size4K,
            writable: true,
        }
    }

    #[test]
    fn fill_lookup_invalidate() {
        let mut n = NestedTlb::new(&PwcConfig::default());
        let vm = VmId::new(1);
        n.fill(vm, GuestFrame::new(1), e(10));
        assert_eq!(n.lookup(vm, GuestFrame::new(1)), Some(e(10)));
        n.invalidate(vm, GuestFrame::new(1));
        assert_eq!(n.lookup(vm, GuestFrame::new(1)), None);
    }

    #[test]
    fn vms_are_isolated() {
        let mut n = NestedTlb::new(&PwcConfig::default());
        n.fill(VmId::new(1), GuestFrame::new(5), e(50));
        n.fill(VmId::new(2), GuestFrame::new(5), e(99));
        assert_eq!(n.lookup(VmId::new(1), GuestFrame::new(5)), Some(e(50)));
        n.flush_vm(VmId::new(1));
        assert_eq!(n.lookup(VmId::new(1), GuestFrame::new(5)), None);
        assert_eq!(n.lookup(VmId::new(2), GuestFrame::new(5)), Some(e(99)));
    }

    #[test]
    fn disabled_ntlb_is_inert() {
        let mut n = NestedTlb::new(&PwcConfig::disabled());
        n.fill(VmId::new(1), GuestFrame::new(1), e(10));
        assert_eq!(n.lookup(VmId::new(1), GuestFrame::new(1)), None);
    }

    #[test]
    fn capacity_evicts_lru() {
        let cfg = PwcConfig {
            ntlb_entries: 2,
            ..PwcConfig::default()
        };
        let mut n = NestedTlb::new(&cfg);
        let vm = VmId::new(0);
        n.fill(vm, GuestFrame::new(1), e(1));
        n.fill(vm, GuestFrame::new(2), e(2));
        n.lookup(vm, GuestFrame::new(1));
        n.fill(vm, GuestFrame::new(3), e(3));
        assert_eq!(n.lookup(vm, GuestFrame::new(2)), None);
        assert!(n.lookup(vm, GuestFrame::new(1)).is_some());
    }
}
