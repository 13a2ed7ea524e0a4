//! Run statistics and the paper's performance model (Table IV).

use agile_guest::OsStats;
use agile_tlb::TlbStats;
use agile_types::{Json, ToJson};
use agile_vmm::{VmmCounters, VmtrapKind, VmtrapStats};
use agile_walk::{WalkKind, WalkStats};

agile_types::record! {
    /// The per-access hot counters the inner access loop bumps on every data
    /// access, grouped structure-of-arrays style into one contiguous block
    /// (a single cache line) instead of four fields scattered across the
    /// machine struct between cold configuration and bookkeeping state.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct HotCounters {
        /// Data accesses executed.
        pub accesses: u64,
        /// Simulated walk cycles charged.
        pub walk_cycles: u64,
        /// Hardware A/D-bit update walks.
        pub ad_walks: u64,
        /// TLB miss total at the last interval tick (the agile switching
        /// policy's MPKI input).
        pub misses_at_last_tick: u64,
    }
}

agile_types::record! {
    counters;
    /// Completed-walk histogram by [`WalkKind`] — the classification behind
    /// Table VI.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct KindCounts {
        counts: [u64; 7],
        refs: [u64; 7],
    }
}

impl KindCounts {
    fn index(kind: WalkKind) -> usize {
        match kind {
            WalkKind::Native => 0,
            WalkKind::FullShadow => 1,
            WalkKind::Switched { nested_levels } => 1 + nested_levels.clamp(1, 4) as usize,
            WalkKind::FullNested => 6,
        }
    }

    /// Table VI column order: Shadow, L4, L3, L2, L1, Nested.
    pub const TABLE6_ORDER: [WalkKind; 6] = [
        WalkKind::FullShadow,
        WalkKind::Switched { nested_levels: 1 },
        WalkKind::Switched { nested_levels: 2 },
        WalkKind::Switched { nested_levels: 3 },
        WalkKind::Switched { nested_levels: 4 },
        WalkKind::FullNested,
    ];

    /// Records one completed walk of `kind` performing `refs` references.
    pub fn record(&mut self, kind: WalkKind, refs: u32) {
        let i = Self::index(kind);
        self.counts[i] += 1;
        self.refs[i] += u64::from(refs);
    }

    /// Number of completed walks of `kind`.
    #[must_use]
    pub fn count(&self, kind: WalkKind) -> u64 {
        self.counts[Self::index(kind)]
    }

    /// Memory references performed by completed walks of `kind`.
    #[must_use]
    pub fn refs(&self, kind: WalkKind) -> u64 {
        self.refs[Self::index(kind)]
    }

    /// All completed walks.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of walks served as `kind` (0 when no walks ran).
    #[must_use]
    pub fn fraction(&self, kind: WalkKind) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(kind) as f64 / total as f64
        }
    }

    /// Mean memory references per walk across every kind.
    #[must_use]
    pub fn avg_refs(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.refs.iter().sum::<u64>() as f64 / total as f64
        }
    }
}

/// The execution-time overhead split the paper's Figure 5 plots, computed
/// with the Table IV linear model: overheads are normalized to the ideal
/// execution time (`E_ideal` = work cycles with free translation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overheads {
    /// Page-walk overhead as a fraction of ideal time (bottom bar
    /// segments).
    pub page_walk: f64,
    /// VMM-intervention overhead as a fraction of ideal time (top dashed
    /// segments).
    pub vmm: f64,
}

impl Overheads {
    /// Combined overhead.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.page_walk + self.vmm
    }
}

/// Everything measured during one workload run under one configuration.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Workload name.
    pub name: String,
    /// Configuration label ("4K:A" etc.).
    pub config_label: String,
    /// Data accesses executed.
    pub accesses: u64,
    /// TLB hierarchy counters.
    pub tlb: TlbStats,
    /// Hardware walker counters (includes faulted walks).
    pub walks: WalkStats,
    /// Completed-walk classification (Table VI).
    pub kinds: KindCounts,
    /// Cycles spent in page walks (references × per-reference cost),
    /// including the A/D-maintenance walks of hardware optimization 1.
    pub walk_cycles: u64,
    /// Extra hardware A/D-update walks performed (HW optimization 1).
    pub ad_walks: u64,
    /// VMtrap counters and cycles.
    pub traps: VmtrapStats,
    /// Guest OS counters.
    pub os: OsStats,
    /// VMM event counters.
    pub vmm: VmmCounters,
    /// Ideal cycles (accesses × base cycles per access).
    pub ideal_cycles: u64,
}

impl RunStats {
    /// The Table IV overhead split.
    #[must_use]
    pub fn overheads(&self) -> Overheads {
        let ideal = self.ideal_cycles.max(1) as f64;
        Overheads {
            page_walk: self.walk_cycles as f64 / ideal,
            vmm: self.traps.total_cycles() as f64 / ideal,
        }
    }

    /// Average memory references per completed TLB-miss walk (the paper's
    /// "memory accesses on TLB miss").
    #[must_use]
    pub fn avg_refs_per_miss(&self) -> f64 {
        self.kinds.avg_refs()
    }

    /// TLB misses per thousand accesses.
    #[must_use]
    pub fn mpka(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.tlb.misses as f64 * 1000.0 / self.accesses as f64
        }
    }
}

/// The counter blocks render as their declarations say; the walk-kind and
/// trap tables are keyed by label, and `derived` adds the Figure 5
/// overhead split.
impl ToJson for RunStats {
    fn to_json(&self) -> Json {
        let o = self.overheads();
        let kinds = KindCounts::TABLE6_ORDER
            .iter()
            .chain([&WalkKind::Native])
            .map(|kind| {
                (
                    kind.table6_label().to_string(),
                    Json::obj(vec![
                        ("walks", Json::UInt(self.kinds.count(*kind))),
                        ("refs", Json::UInt(self.kinds.refs(*kind))),
                    ]),
                )
            })
            .collect();
        let traps = VmtrapKind::ALL
            .into_iter()
            .filter(|k| self.traps.count(*k) > 0)
            .map(|k| {
                (
                    k.label().to_string(),
                    Json::obj(vec![
                        ("count", Json::UInt(self.traps.count(k))),
                        ("cycles", Json::UInt(self.traps.cycles(k))),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("accesses", Json::UInt(self.accesses)),
            ("ideal_cycles", Json::UInt(self.ideal_cycles)),
            ("walk_cycles", Json::UInt(self.walk_cycles)),
            ("ad_walks", Json::UInt(self.ad_walks)),
            ("tlb", self.tlb.to_json()),
            ("walks", self.walks.to_json()),
            ("kinds", Json::Obj(kinds)),
            ("traps", Json::Obj(traps)),
            ("os", self.os.to_json()),
            ("vmm", self.vmm.to_json()),
            (
                "derived",
                Json::obj(vec![
                    ("page_walk_overhead", Json::Num(o.page_walk)),
                    ("vmm_overhead", Json::Num(o.vmm)),
                    ("total_overhead", Json::Num(o.total())),
                    ("mpka", Json::Num(self.mpka())),
                    ("avg_refs_per_miss", Json::Num(self.avg_refs_per_miss())),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_counts_classify_and_average() {
        let mut k = KindCounts::default();
        k.record(WalkKind::FullShadow, 4);
        k.record(WalkKind::FullShadow, 4);
        k.record(WalkKind::Switched { nested_levels: 1 }, 8);
        k.record(WalkKind::FullNested, 24);
        assert_eq!(k.total(), 4);
        assert_eq!(k.count(WalkKind::FullShadow), 2);
        assert!((k.fraction(WalkKind::FullShadow) - 0.5).abs() < 1e-9);
        assert!((k.avg_refs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overheads_normalize_to_ideal() {
        let stats = RunStats {
            name: "t".into(),
            config_label: "4K:S".into(),
            accesses: 1000,
            tlb: TlbStats::default(),
            walks: WalkStats::default(),
            kinds: KindCounts::default(),
            walk_cycles: 500,
            ad_walks: 0,
            traps: VmtrapStats::default(),
            os: OsStats::default(),
            vmm: VmmCounters::default(),
            ideal_cycles: 1000,
        };
        let o = stats.overheads();
        assert!((o.page_walk - 0.5).abs() < 1e-9);
        assert_eq!(o.vmm, 0.0);
        assert!((o.total() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn table6_order_is_paper_order() {
        let labels: Vec<_> = KindCounts::TABLE6_ORDER
            .iter()
            .map(|k| k.table6_label())
            .collect();
        assert_eq!(labels, vec!["Shadow", "L4", "L3", "L2", "L1", "Nested"]);
    }
}
