//! Workload specifications.

use crate::pattern::Pattern;

/// Page-table-update behaviour of a workload: the knobs that generate VMM
/// interventions under shadow-style techniques.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Every `n` accesses, unmap and remap a window of the footprint
    /// (allocator churn / mapped-file turnover). `None` disables.
    pub remap_every: Option<u64>,
    /// Pages unmapped+remapped per churn event.
    pub remap_pages: u64,
    /// Every `n` accesses, mark a window copy-on-write (content-based page
    /// sharing scans / fork). `None` disables.
    pub cow_every: Option<u64>,
    /// Pages marked copy-on-write per event.
    pub cow_pages: u64,
    /// Every `n` accesses, run a clock reclamation pass over a window
    /// (memory pressure). `None` disables.
    pub clock_scan_every: Option<u64>,
    /// Pages scanned per reclamation pass.
    pub scan_pages: u64,
    /// Fraction of the footprint (from its start) in which churn windows
    /// rotate — the paper's premise is that "some regions of an address
    /// space see far more changes than others", so churn is spatially
    /// confined by default.
    pub churn_zone: f64,
    /// Every `n` accesses, context-switch round-robin among the processes.
    /// `None` disables.
    pub ctx_switch_every: Option<u64>,
    /// Number of guest processes (≥ 1).
    pub processes: usize,
}

impl ChurnSpec {
    /// No page-table churn at all.
    #[must_use]
    pub fn none() -> Self {
        ChurnSpec {
            remap_every: None,
            remap_pages: 0,
            cow_every: None,
            cow_pages: 0,
            clock_scan_every: None,
            scan_pages: 0,
            churn_zone: 0.25,
            ctx_switch_every: None,
            processes: 1,
        }
    }
}

/// A complete synthetic workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Display name (paper workload or synthetic kernel).
    pub name: String,
    /// Footprint in bytes (address-space span the pattern covers).
    pub footprint: u64,
    /// Page-selection pattern.
    pub pattern: Pattern,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// Total data accesses to generate.
    pub accesses: u64,
    /// Accesses per policy interval (the "1 second" of the paper scaled to
    /// simulation length).
    pub accesses_per_tick: u64,
    /// Update behaviour.
    pub churn: ChurnSpec,
    /// Emit a one-time sequential population sweep over the footprint (per
    /// process) before the main access pattern — the setup phase real
    /// workloads have (graph generation, cache pre-population, input
    /// loading). The sweep's accesses are *extra*, on top of `accesses`,
    /// and should be covered by the experiment's warm-up window.
    pub prefault: bool,
    /// Whether the population sweep writes (true for workloads that
    /// generate/initialize their data — the common case) or only reads
    /// (file-backed inputs; leaves dirty-bit maintenance to the run).
    pub prefault_writes: bool,
    /// RNG seed (workloads are deterministic).
    pub seed: u64,
}

impl WorkloadSpec {
    /// Base virtual address of the workload's data region.
    pub const REGION_BASE: u64 = 0x5000_0000_0000;

    /// Footprint in 4 KiB pages.
    #[must_use]
    pub fn pages(&self) -> u64 {
        (self.footprint / 4096).max(1)
    }

    /// Pages in the churn zone, the tail of the footprint in which churn
    /// windows rotate: `churn_zone` of the footprint, at least one page.
    /// A window never spans more.
    #[must_use]
    pub fn churn_zone_pages(&self) -> u64 {
        let total = self.pages();
        ((total as f64 * self.churn.churn_zone.clamp(0.0, 1.0)) as u64).clamp(1, total)
    }

    /// Returns a copy scaled to `accesses` total accesses (ticks and churn
    /// periods keep their relative cadence).
    #[must_use]
    pub fn with_accesses(mut self, accesses: u64) -> Self {
        let ratio = accesses as f64 / self.accesses as f64;
        let scale = |v: &mut Option<u64>| {
            if let Some(n) = v {
                *n = ((*n as f64 * ratio) as u64).max(1);
            }
        };
        self.accesses = accesses;
        self.accesses_per_tick = ((self.accesses_per_tick as f64 * ratio) as u64).max(1);
        scale(&mut self.churn.remap_every);
        scale(&mut self.churn.cow_every);
        scale(&mut self.churn.clock_scan_every);
        scale(&mut self.churn.ctx_switch_every);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test".into(),
            footprint: 1 << 20,
            pattern: Pattern::Uniform,
            write_fraction: 0.3,
            accesses: 1000,
            accesses_per_tick: 100,
            churn: ChurnSpec {
                remap_every: Some(200),
                ..ChurnSpec::none()
            },
            prefault: false,
            prefault_writes: true,
            seed: 7,
        }
    }

    #[test]
    fn pages_round_up_from_bytes() {
        assert_eq!(spec().pages(), 256);
    }

    #[test]
    fn scaling_preserves_cadence() {
        let s = spec().with_accesses(2000);
        assert_eq!(s.accesses, 2000);
        assert_eq!(s.accesses_per_tick, 200);
        assert_eq!(s.churn.remap_every, Some(400));
    }

    #[test]
    fn churn_none_is_quiet() {
        let c = ChurnSpec::none();
        assert!(c.remap_every.is_none());
        assert_eq!(c.processes, 1);
    }
}
