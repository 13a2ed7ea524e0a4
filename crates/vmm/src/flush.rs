//! Shootdown-batch coalescing.
//!
//! [`Vmm::take_pending_flushes`](crate::Vmm::take_pending_flushes) hands
//! the machine a canonically ordered batch of [`FlushRequest`]s. Applying
//! them one by one is wasteful on churn-heavy runs: a single VMM
//! operation routinely emits overlapping or adjacent `Range` requests
//! (subtree zaps walk several tables over one VA span), duplicate
//! `NtlbFrame` requests, and ranges already subsumed by a full `Asid`
//! flush in the same batch. [`coalesce`] folds one delivered batch into
//! the minimal set of structure operations — each TLB/PWC/NTLB op applied
//! once — with deterministic (sorted) output order.
//!
//! # Equivalence contract
//!
//! Applying the coalesced batch must leave every cache in *exactly* the
//! state sequential application would, with identical invalidation
//! counts. Three facts make that hold:
//!
//! 1. All shootdown operations are pure removals; within one batch no
//!    lookup or fill interleaves, so the final state is the set-union of
//!    removals regardless of order, and each removed entry is counted
//!    exactly once either way (removals are destructive — a second
//!    overlapping request removes, and counts, nothing).
//! 2. Merged ranges are only formed from overlapping or adjacent ranges
//!    of the same ASID, so a cached span intersects the merged interval
//!    iff it intersects a constituent.
//! 3. The per-request TLB escalation rule (a range longer than
//!    [`TLB_RANGE_SWEEP_CAP`] flushes the whole ASID instead of being
//!    invalidated range by range) is decided on *original* request
//!    lengths, never on merged lengths, so merging can never escalate —
//!    or de-escalate — a flush the sequential path would have treated
//!    differently.
//!
//! Contents and counts are order-independent; per-set slot order is not
//! (`swap_remove` reorders a set, and slot order is snapshot state). The
//! fixed application order below pins it: ranges ascending by
//! `(asid, start)`, and within a range the TLB side removes each set's
//! matches in ascending-VPN order
//! ([`agile_tlb::TlbHierarchy::invalidate_range`]), exactly as a
//! per-4 KiB `invalidate_page` loop over the range would.

use crate::FlushRequest;
use agile_types::{Asid, GuestFrame};

/// Modelled escalation policy: a range request longer than this is
/// applied to the TLB as a full ASID flush instead of a ranged
/// invalidation (the PWC side is always ranged), the way an OS falls back
/// to a full flush for large shootdowns. It bounds simulated behaviour,
/// not host cost: the machine applies ranges to the TLB set-indexed
/// ([`agile_tlb::TlbHierarchy::invalidate_range`]), at a cost bounded by
/// the TLB's size rather than the range's page count.
pub const TLB_RANGE_SWEEP_CAP: u64 = 2 << 20;

/// One merged VA range plus how its TLB side is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescedRange {
    /// Address space.
    pub asid: Asid,
    /// Range start (guest virtual).
    pub start: u64,
    /// Range length in bytes.
    pub len: u64,
    /// Invalidate this range in the TLB as well as the PWC. `false` when
    /// the ASID is already fully flushed (by an `Asid` request or an escalated
    /// range in the same batch), in which case only the PWC ranged
    /// invalidation remains to be done.
    pub tlb_sweep: bool,
}

/// Deterministic counters describing what [`coalesce`] folded away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Requests in the delivered batch.
    pub requests: u64,
    /// `Range` requests dropped because a full `Asid` flush in the same
    /// batch subsumes them.
    pub ranges_subsumed: u64,
    /// Merges performed (each merge folds two ranges into one).
    pub ranges_merged: u64,
    /// Duplicate `NtlbFrame` requests dropped.
    pub ntlb_deduped: u64,
    /// ASIDs whose TLB side escalated to a full flush because an
    /// original range exceeded [`TLB_RANGE_SWEEP_CAP`].
    pub tlb_escalations: u64,
}

/// One delivered shootdown batch folded to minimal per-structure ops.
///
/// Application order (all vectors sorted, so the whole application is
/// deterministic):
///
/// 1. [`FlushBatch::asid_flushes`] — full TLB + PWC flush per ASID.
/// 2. [`FlushBatch::tlb_escalations`] — full TLB flush per ASID (PWC
///    stays ranged for these ASIDs' ranges).
/// 3. [`FlushBatch::ranges`] — PWC ranged invalidation each; TLB ranged
///    invalidation too where [`CoalescedRange::tlb_sweep`] is set.
///    Ranges are applied in their sorted order.
/// 4. [`FlushBatch::ntlb_frames`] — one nested-TLB invalidation each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlushBatch {
    /// ASIDs taking a full TLB + PWC flush, sorted and deduplicated.
    pub asid_flushes: Vec<Asid>,
    /// ASIDs (not in `asid_flushes`) whose TLB takes a full flush via
    /// the range-length escalation rule, sorted and deduplicated.
    pub tlb_escalations: Vec<Asid>,
    /// Merged ranges, sorted by `(asid, start)`, pairwise disjoint and
    /// non-adjacent per ASID.
    pub ranges: Vec<CoalescedRange>,
    /// Guest frames to drop from the nested TLB, sorted, deduplicated.
    pub ntlb_frames: Vec<GuestFrame>,
    /// What the fold eliminated.
    pub stats: CoalesceStats,
}

impl FlushBatch {
    /// True when there is nothing to apply.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.asid_flushes.is_empty()
            && self.tlb_escalations.is_empty()
            && self.ranges.is_empty()
            && self.ntlb_frames.is_empty()
    }
}

/// Folds one delivered batch of flush requests into minimal
/// per-structure operations. See the module docs for the equivalence
/// contract.
#[must_use]
pub fn coalesce(delivered: &[FlushRequest]) -> FlushBatch {
    let mut stats = CoalesceStats {
        requests: delivered.len() as u64,
        ..CoalesceStats::default()
    };

    let mut asid_flushes: Vec<Asid> = delivered
        .iter()
        .filter_map(|r| match r {
            FlushRequest::Asid(a) => Some(*a),
            _ => None,
        })
        .collect();
    asid_flushes.sort_unstable();
    asid_flushes.dedup();

    // Ranges: drop the ones a full ASID flush subsumes, note the
    // escalations (decided on original lengths), then sort and merge
    // overlapping/adjacent same-ASID spans.
    let mut escalated: Vec<Asid> = Vec::new();
    let mut ranges: Vec<(Asid, u64, u64)> = Vec::new();
    for req in delivered {
        let FlushRequest::Range { asid, start, len } = req else {
            continue;
        };
        if asid_flushes.binary_search(asid).is_ok() {
            stats.ranges_subsumed += 1;
            continue;
        }
        if *len > TLB_RANGE_SWEEP_CAP {
            escalated.push(*asid);
        }
        ranges.push((*asid, *start, *len));
    }
    escalated.sort_unstable();
    escalated.dedup();
    stats.tlb_escalations = escalated.len() as u64;

    ranges.sort_unstable();
    let mut merged: Vec<CoalescedRange> = Vec::new();
    for (asid, start, len) in ranges {
        if let Some(last) = merged.last_mut() {
            let last_end = last.start.saturating_add(last.len);
            if last.asid == asid && start <= last_end {
                let end = start.saturating_add(len).max(last_end);
                last.len = end - last.start;
                stats.ranges_merged += 1;
                continue;
            }
        }
        merged.push(CoalescedRange {
            asid,
            start,
            len,
            tlb_sweep: escalated.binary_search(&asid).is_err(),
        });
    }

    let mut ntlb_frames: Vec<GuestFrame> = delivered
        .iter()
        .filter_map(|r| match r {
            FlushRequest::NtlbFrame(g) => Some(*g),
            _ => None,
        })
        .collect();
    ntlb_frames.sort_unstable();
    let before = ntlb_frames.len();
    ntlb_frames.dedup();
    stats.ntlb_deduped = (before - ntlb_frames.len()) as u64;

    FlushBatch {
        asid_flushes,
        tlb_escalations: escalated,
        ranges: merged,
        ntlb_frames,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(asid: u32, start: u64, len: u64) -> FlushRequest {
        FlushRequest::Range {
            asid: Asid::new(asid),
            start,
            len,
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let b = coalesce(&[]);
        assert!(b.is_empty());
        assert_eq!(b.stats, CoalesceStats::default());
    }

    #[test]
    fn overlapping_and_adjacent_ranges_merge() {
        let b = coalesce(&[
            range(1, 0x1000, 0x2000),
            range(1, 0x2000, 0x2000), // overlaps [0x1000, 0x3000)
            range(1, 0x4000, 0x1000), // adjacent to [0x1000, 0x4000)
            range(1, 0x9000, 0x1000), // disjoint
        ]);
        assert_eq!(
            b.ranges,
            vec![
                CoalescedRange {
                    asid: Asid::new(1),
                    start: 0x1000,
                    len: 0x4000,
                    tlb_sweep: true,
                },
                CoalescedRange {
                    asid: Asid::new(1),
                    start: 0x9000,
                    len: 0x1000,
                    tlb_sweep: true,
                },
            ]
        );
        assert_eq!(b.stats.ranges_merged, 2);
    }

    #[test]
    fn identical_duplicate_ranges_collapse_to_one() {
        let b = coalesce(&[range(1, 0x1000, 0x1000), range(1, 0x1000, 0x1000)]);
        assert_eq!(b.ranges.len(), 1);
        assert_eq!(b.stats.ranges_merged, 1);
    }

    #[test]
    fn ranges_of_different_asids_never_merge() {
        let b = coalesce(&[range(1, 0x1000, 0x1000), range(2, 0x1000, 0x1000)]);
        assert_eq!(b.ranges.len(), 2);
        assert_eq!(b.stats.ranges_merged, 0);
    }

    #[test]
    fn asid_flush_subsumes_its_ranges_only() {
        let b = coalesce(&[
            FlushRequest::Asid(Asid::new(1)),
            range(1, 0x1000, 0x1000),
            range(2, 0x1000, 0x1000),
        ]);
        assert_eq!(b.asid_flushes, vec![Asid::new(1)]);
        assert_eq!(b.ranges.len(), 1);
        assert_eq!(b.ranges[0].asid, Asid::new(2));
        assert_eq!(b.stats.ranges_subsumed, 1);
    }

    #[test]
    fn oversized_range_escalates_tlb_but_keeps_pwc_ranged() {
        let b = coalesce(&[
            range(1, 0, TLB_RANGE_SWEEP_CAP + 0x1000),
            range(1, 1 << 40, 0x1000),
        ]);
        assert_eq!(b.tlb_escalations, vec![Asid::new(1)]);
        // Both ranges survive for the PWC, neither sweeps the TLB.
        assert_eq!(b.ranges.len(), 2);
        assert!(b.ranges.iter().all(|r| !r.tlb_sweep));
    }

    #[test]
    fn merging_small_ranges_never_escalates() {
        // Two adjacent ranges merge past the sweep cap, but escalation is
        // decided per original request, so the merged span still sweeps.
        let b = coalesce(&[
            range(1, 0, TLB_RANGE_SWEEP_CAP),
            range(1, TLB_RANGE_SWEEP_CAP, TLB_RANGE_SWEEP_CAP),
        ]);
        assert!(b.tlb_escalations.is_empty());
        assert_eq!(b.ranges.len(), 1);
        assert!(b.ranges[0].tlb_sweep);
        assert_eq!(b.ranges[0].len, 2 * TLB_RANGE_SWEEP_CAP);
    }

    #[test]
    fn ntlb_frames_dedupe_and_sort() {
        let b = coalesce(&[
            FlushRequest::NtlbFrame(GuestFrame::new(7)),
            FlushRequest::NtlbFrame(GuestFrame::new(3)),
            FlushRequest::NtlbFrame(GuestFrame::new(7)),
        ]);
        assert_eq!(b.ntlb_frames, vec![GuestFrame::new(3), GuestFrame::new(7)]);
        assert_eq!(b.stats.ntlb_deduped, 1);
    }
}
