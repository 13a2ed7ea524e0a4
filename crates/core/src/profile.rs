//! Zero-dependency micro-profiling of the translation hot path.
//!
//! Every run bottoms out in the same inner loop — TLB lookup → PWC probe
//! → radix walk → fill — and this module makes that loop *countable*: a
//! [`HotPathProfile`] snapshot gathers the deterministic step/visit
//! totals every hot structure already maintains (TLB outcomes, PWC and
//! nested-TLB probes, walker attempts and memory references) plus the
//! flush-application counters ([`FlushApplyStats`]) recorded by the
//! machine's coalesced shootdown delivery.
//!
//! Everything here is a pure function of the simulated machine — no
//! wall-clock, no allocation-size dependence — so profiles are
//! byte-identical across runs, hosts, and thread counts, and CI can
//! regress on exact step counts instead of flaky timings
//! (`agile-bench --bin prof`).

use agile_tlb::{CacheStats, TlbStats};
use agile_vmm::FlushBatch;
use agile_walk::WalkStats;

agile_types::record! {
    /// Counters for coalesced shootdown application (see
    /// [`agile_vmm::coalesce`]): how many requests were delivered, what the
    /// fold eliminated, and how many per-structure operations actually ran.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct FlushApplyStats {
        /// Delivered batches applied.
        pub batches: u64,
        /// Flush requests delivered (before coalescing).
        pub requests: u64,
        /// Full ASID flushes applied (explicit `Asid` requests plus
        /// oversized-range TLB escalations).
        pub asid_flushes: u64,
        /// Ranged PWC invalidations applied (after merging).
        pub range_ops: u64,
        /// 4 KiB pages covered by the range shootdowns whose TLB side was
        /// applied range-wise: the modelled shootdown work, and part of the
        /// pinned step total. The machine applies each such range with one set-indexed
        /// [`TlbHierarchy::invalidate_range`](agile_tlb::TlbHierarchy::invalidate_range),
        /// so this is no longer a count of host operations.
        pub pages_swept: u64,
        /// Range requests eliminated: subsumed by a full ASID flush in the
        /// same batch.
        pub ranges_subsumed: u64,
        /// Range requests eliminated: merged into a neighbouring range.
        pub ranges_merged: u64,
        /// Duplicate nested-TLB requests eliminated.
        pub ntlb_deduped: u64,
        /// Nested-TLB invalidations applied.
        pub ntlb_ops: u64,
    }
}

impl FlushApplyStats {
    /// Accumulates one coalesced batch about to be applied.
    pub fn note(&mut self, batch: &FlushBatch) {
        self.batches += 1;
        self.requests += batch.stats.requests;
        self.asid_flushes += (batch.asid_flushes.len() + batch.tlb_escalations.len()) as u64;
        self.range_ops += batch.ranges.len() as u64;
        self.pages_swept += batch
            .ranges
            .iter()
            .filter(|r| r.tlb_sweep)
            .map(|r| r.len.div_ceil(0x1000))
            .sum::<u64>();
        self.ranges_subsumed += batch.stats.ranges_subsumed;
        self.ranges_merged += batch.stats.ranges_merged;
        self.ntlb_deduped += batch.stats.ntlb_deduped;
        self.ntlb_ops += batch.ntlb_frames.len() as u64;
    }

    /// Requests eliminated by coalescing before touching any structure.
    #[must_use]
    pub fn eliminated(&self) -> u64 {
        self.ranges_subsumed + self.ranges_merged + self.ntlb_deduped
    }
}

/// One machine's deterministic hot-path breakdown: every counter is a
/// step/visit total, never a duration. Totals cover the machine's whole
/// lifetime (no warm-up exclusion — this profiles the simulator, not the
/// simulated workload).
#[derive(Debug, Default, Clone, Copy)]
pub struct HotPathProfile {
    /// Data accesses executed.
    pub accesses: u64,
    /// TLB hierarchy outcomes.
    pub tlb: TlbStats,
    /// Combined page-walk-cache probe counters (all three skip levels).
    pub pwc: CacheStats,
    /// Nested-TLB probe counters.
    pub ntlb: CacheStats,
    /// Walker attempts, completions, and memory-reference tallies.
    pub walks: WalkStats,
    /// Simulated walk cycles charged.
    pub walk_cycles: u64,
    /// Hardware A/D update walks.
    pub ad_walks: u64,
    /// Coalesced shootdown application counters.
    pub flush: FlushApplyStats,
}

impl HotPathProfile {
    /// Renders the profile as an aligned two-column table. Pure function
    /// of the counters: byte-identical across runs.
    #[must_use]
    pub fn render(&self, name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("[{name}]\n"));
        let mut row = |k: &str, v: u64| {
            out.push_str(&format!("  {k:<26} {v:>14}\n"));
        };
        row("accesses", self.accesses);
        row("tlb.lookups", self.tlb.lookups());
        row("tlb.l1_hits", self.tlb.l1_hits);
        row("tlb.l2_hits", self.tlb.l2_hits);
        row("tlb.misses", self.tlb.misses);
        row("tlb.fills", self.tlb.fills);
        row("tlb.invalidations", self.tlb.invalidations);
        row("pwc.hits", self.pwc.hits);
        row("pwc.misses", self.pwc.misses);
        row("ntlb.hits", self.ntlb.hits);
        row("ntlb.misses", self.ntlb.misses);
        row("walk.attempts", self.walks.attempts);
        row("walk.completed", self.walks.walks);
        row("walk.faulted", self.walks.faulted_walks);
        row("walk.memory_refs", self.walks.memory_refs);
        row("walk.refs_shadow", self.walks.refs_shadow);
        row("walk.refs_guest", self.walks.refs_guest);
        row("walk.refs_host", self.walks.refs_host);
        row("walk.cycles", self.walk_cycles);
        row("walk.ad_walks", self.ad_walks);
        row("flush.batches", self.flush.batches);
        row("flush.requests", self.flush.requests);
        row("flush.asid_flushes", self.flush.asid_flushes);
        row("flush.range_ops", self.flush.range_ops);
        row("flush.pages_swept", self.flush.pages_swept);
        row("flush.ranges_merged", self.flush.ranges_merged);
        row("flush.ranges_subsumed", self.flush.ranges_subsumed);
        row("flush.ntlb_deduped", self.flush.ntlb_deduped);
        row("flush.ntlb_ops", self.flush.ntlb_ops);
        out
    }

    /// Total hot-path steps: the regression-guardrail scalar CI tracks.
    /// A refactor that changes how many structure visits a run performs
    /// shows up here even when the results stay correct.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.tlb.lookups()
            + self.tlb.fills
            + self.tlb.invalidations
            + self.pwc.lookups()
            + self.ntlb.lookups()
            + self.walks.memory_refs
            + self.flush.asid_flushes
            + self.flush.range_ops
            + self.flush.pages_swept
            + self.flush.ntlb_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_types::Asid;
    use agile_vmm::{coalesce, FlushRequest};

    #[test]
    fn note_accumulates_coalesced_batches() {
        let mut stats = FlushApplyStats::default();
        let batch = coalesce(&[
            FlushRequest::Asid(Asid::new(1)),
            FlushRequest::Range {
                asid: Asid::new(1),
                start: 0x1000,
                len: 0x1000,
            },
            FlushRequest::Range {
                asid: Asid::new(2),
                start: 0x1000,
                len: 0x1000,
            },
            FlushRequest::Range {
                asid: Asid::new(2),
                start: 0x1000,
                len: 0x2000,
            },
        ]);
        stats.note(&batch);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.asid_flushes, 1);
        assert_eq!(stats.range_ops, 1);
        assert_eq!(stats.ranges_subsumed, 1);
        assert_eq!(stats.ranges_merged, 1);
        assert_eq!(stats.pages_swept, 2, "merged span [0x1000, 0x3000)");
        assert_eq!(stats.eliminated(), 2);
    }

    #[test]
    fn render_is_deterministic() {
        let p = HotPathProfile {
            accesses: 10,
            ..HotPathProfile::default()
        };
        assert_eq!(p.render("x"), p.render("x"));
        assert!(p.render("x").starts_with("[x]\n"));
    }
}
