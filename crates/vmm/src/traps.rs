//! VMexit / VMtrap accounting and the cycle cost model.

/// Why the VMM was entered. Mirrors the trap classes the paper's Section VI
/// methodology traces ("context switch, page table update and page fault")
/// plus the host-side EPT fills common to all virtualized techniques.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmtrapKind {
    /// Guest wrote a write-protected guest page-table page (shadow paging,
    /// or the shadow part of agile paging).
    GptWrite,
    /// Hidden page fault: the shadow table lacked an entry the guest table
    /// has; the VMM fills/syncs the shadow table.
    HiddenPageFault,
    /// A shadow-table fault that turned out to be a genuine guest fault the
    /// VMM must reflect into the guest.
    GuestFaultReflection,
    /// Guest wrote its page-table pointer register (context switch) and the
    /// VMM had to look up the matching shadow root.
    ContextSwitch,
    /// Guest issued a TLB flush / invlpg the VMM must intercept to resync
    /// unsynced shadow pages.
    TlbFlush,
    /// Host page table (EPT) violation: the VMM mapped a guest frame on
    /// demand.
    EptViolation,
    /// Accessed/dirty-bit maintenance trap (write-protection trick), absent
    /// when the paper's hardware A/D optimization is enabled.
    AdBitSync,
    /// SHSP only: wholesale (re)construction of the shadow table when
    /// switching the process from nested to shadow mode.
    ShadowRebuild,
}

impl VmtrapKind {
    /// Every kind, for iteration in reports.
    pub const ALL: [VmtrapKind; 8] = [
        VmtrapKind::GptWrite,
        VmtrapKind::HiddenPageFault,
        VmtrapKind::GuestFaultReflection,
        VmtrapKind::ContextSwitch,
        VmtrapKind::TlbFlush,
        VmtrapKind::EptViolation,
        VmtrapKind::AdBitSync,
        VmtrapKind::ShadowRebuild,
    ];

    /// Short label for report tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VmtrapKind::GptWrite => "gpt-write",
            VmtrapKind::HiddenPageFault => "hidden-fault",
            VmtrapKind::GuestFaultReflection => "fault-reflect",
            VmtrapKind::ContextSwitch => "ctx-switch",
            VmtrapKind::TlbFlush => "tlb-flush",
            VmtrapKind::EptViolation => "ept-fill",
            VmtrapKind::AdBitSync => "ad-sync",
            VmtrapKind::ShadowRebuild => "shadow-rebuild",
        }
    }

    fn index(self) -> usize {
        VmtrapKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("in ALL")
    }
}

impl std::fmt::Display for VmtrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Rendered as its label.
impl agile_types::ToJson for VmtrapKind {
    fn to_json(&self) -> agile_types::Json {
        agile_types::Json::Str(self.label().into())
    }
}

/// Cycle cost of each trap kind: the paper defines VMtrap latency as "the
/// cycles required for a VMexit trap and its return plus the work done by
/// the VMM in response" and measures costs in the 1000s of cycles with
/// LMbench-style microbenchmarks (Section VI).
///
/// Defaults are representative of that measurement; every experiment prints
/// the values it used, and the `vmtrap_costs` bench bin regenerates the
/// measurement table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmtrapCosts {
    cycles: [u64; 8],
}

impl Default for VmtrapCosts {
    fn default() -> Self {
        let mut cycles = [0u64; 8];
        cycles[VmtrapKind::GptWrite.index()] = 2700;
        cycles[VmtrapKind::HiddenPageFault.index()] = 4400;
        cycles[VmtrapKind::GuestFaultReflection.index()] = 1800;
        cycles[VmtrapKind::ContextSwitch.index()] = 2100;
        cycles[VmtrapKind::TlbFlush.index()] = 1600;
        cycles[VmtrapKind::EptViolation.index()] = 3200;
        cycles[VmtrapKind::AdBitSync.index()] = 2500;
        cycles[VmtrapKind::ShadowRebuild.index()] = 900; // per shadow page rebuilt
        VmtrapCosts { cycles }
    }
}

impl VmtrapCosts {
    /// Cost in cycles of one trap of `kind`.
    #[must_use]
    pub fn cost(&self, kind: VmtrapKind) -> u64 {
        self.cycles[kind.index()]
    }

    /// A zero-cost model (used to express "this mode has no VMM"):
    /// accounting still counts events but charges nothing.
    #[must_use]
    pub fn free() -> Self {
        VmtrapCosts { cycles: [0; 8] }
    }
}

agile_types::record! {
    counters;
    /// Per-kind trap counts and cycle totals.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct VmtrapStats {
        counts: [u64; 8],
        cycles: [u64; 8],
    }
}

impl VmtrapStats {
    /// Records `n` traps of `kind` at the given per-trap cost.
    pub fn record(&mut self, kind: VmtrapKind, n: u64, cost_each: u64) {
        self.counts[kind.index()] += n;
        self.cycles[kind.index()] += n * cost_each;
    }

    /// Number of traps of `kind`.
    #[must_use]
    pub fn count(&self, kind: VmtrapKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Cycles charged to `kind`.
    #[must_use]
    pub fn cycles(&self, kind: VmtrapKind) -> u64 {
        self.cycles[kind.index()]
    }

    /// Total traps of every kind.
    #[must_use]
    pub fn total_traps(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total cycles spent in the VMM.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_thousands_of_cycles() {
        let c = VmtrapCosts::default();
        for kind in VmtrapKind::ALL {
            if kind == VmtrapKind::ShadowRebuild {
                continue; // per-page amortized cost
            }
            assert!(c.cost(kind) >= 1000, "{kind} should cost 1000s of cycles");
            assert!(c.cost(kind) <= 10_000);
        }
    }

    #[test]
    fn stats_record_and_total() {
        let mut s = VmtrapStats::default();
        s.record(VmtrapKind::GptWrite, 3, 100);
        s.record(VmtrapKind::ContextSwitch, 1, 50);
        assert_eq!(s.count(VmtrapKind::GptWrite), 3);
        assert_eq!(s.cycles(VmtrapKind::GptWrite), 300);
        assert_eq!(s.total_traps(), 4);
        assert_eq!(s.total_cycles(), 350);
    }

    #[test]
    fn free_costs_charge_nothing() {
        let mut s = VmtrapStats::default();
        let c = VmtrapCosts::free();
        s.record(VmtrapKind::GptWrite, 5, c.cost(VmtrapKind::GptWrite));
        assert_eq!(s.count(VmtrapKind::GptWrite), 5);
        assert_eq!(s.total_cycles(), 0);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = VmtrapKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), VmtrapKind::ALL.len());
    }
}
