//! Which memory-virtualization technique runs, and the agile-paging
//! policy and hardware-optimization knobs.

use crate::traps::VmtrapCosts;

/// The policy for moving parts of the guest page table from nested back to
/// shadow mode (paper Section III-C, "Nested⇒Shadow mode").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NestedToShadowPolicy {
    /// Simple policy: at every interval, move *everything* back to shadow
    /// mode and let the write detector re-nest the hot parts. Can oscillate.
    PeriodicReset,
    /// Effective policy (default): at each interval, scan the host-table
    /// dirty bits of the pages holding nested guest page-table nodes; only
    /// pages that were *not* written revert to shadow mode, parents before
    /// children.
    #[default]
    DirtyBitScan,
}

/// Agile-paging knobs (paper Sections III-C and IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgileOptions {
    /// Writes to one guest page-table page within an interval before that
    /// level and everything below it moves to nested mode. The paper uses a
    /// small bimodal threshold: two writes.
    pub write_threshold: u32,
    /// How nested parts return to shadow mode.
    pub nested_to_shadow: NestedToShadowPolicy,
    /// Hardware optimization 1: the walker sets accessed/dirty bits in all
    /// three tables, eliminating `AdBitSync` VMtraps at the price of an
    /// extra (counted) nested walk.
    pub hw_ad_bits: bool,
    /// Hardware optimization 2: a small gptr⇒sptr cache serviced by
    /// hardware on guest context switches, eliminating `ContextSwitch`
    /// VMtraps on hits.
    pub hw_ctx_cache: bool,
    /// Entries in the context-switch pointer cache (paper: 4–8).
    pub ctx_cache_entries: usize,
    /// Administrative policy for short-lived/small processes: start the
    /// process fully nested and engage shadow mode only after the first
    /// interval tick (paper Section III-C, "Short-Lived or Small
    /// Processes").
    pub start_in_nested: bool,
    /// Trap-storm hysteresis: when the guest issues at least this many
    /// page-table-write VMtraps within one interval, the policy stops
    /// nursing individual subtrees and falls every process back to full
    /// nested mode (writes then go direct, ending the storm). `None`
    /// (default) disables the guard — the base paper policy.
    pub storm_threshold: Option<u64>,
    /// Intervals after a storm fallback during which nested⇒shadow reverts
    /// stay suppressed, so a sustained storm cannot make the policy
    /// oscillate (flip to shadow, storm, flip back) every tick.
    pub storm_cooldown: u64,
}

impl Default for AgileOptions {
    fn default() -> Self {
        AgileOptions {
            write_threshold: 2,
            nested_to_shadow: NestedToShadowPolicy::DirtyBitScan,
            hw_ad_bits: true,
            hw_ctx_cache: true,
            ctx_cache_entries: 8,
            start_in_nested: false,
            storm_threshold: None,
            storm_cooldown: 2,
        }
    }
}

impl AgileOptions {
    /// The paper's base mechanism with both optional hardware optimizations
    /// disabled (Section III only).
    #[must_use]
    pub fn without_hw_opts() -> Self {
        AgileOptions {
            hw_ad_bits: false,
            hw_ctx_cache: false,
            ..AgileOptions::default()
        }
    }
}

/// SHSP (selective hardware/software paging) baseline knobs: the per-process
/// temporal switching scheme of Wang et al. \[58\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShspOptions {
    /// TLB-miss count per interval above which shadow mode is attractive.
    pub tlb_miss_threshold: u64,
    /// Page-table-update trap count per interval above which nested mode is
    /// attractive.
    pub pt_update_threshold: u64,
}

impl Default for ShspOptions {
    fn default() -> Self {
        ShspOptions {
            tlb_miss_threshold: 64,
            pt_update_threshold: 64,
        }
    }
}

/// Which memory-virtualization technique the VMM runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Base native: no virtualization. The "VMM" degenerates to a zero-cost
    /// merged-table maintainer so that the same guest OS code runs
    /// unvirtualized (see `DESIGN.md`).
    Native,
    /// Hardware nested paging: 2D walks, direct page-table updates.
    Nested,
    /// Software shadow paging: 1D walks over the shadow table, VMtraps on
    /// guest page-table updates.
    Shadow,
    /// The paper's contribution: per-subtree combination of both.
    Agile(AgileOptions),
    /// Whole-process temporal switching between nested and shadow (the
    /// paper's closest prior work).
    Shsp(ShspOptions),
}

impl Technique {
    /// Every technique with default options, in label order B, N, S, A,
    /// SHSP. This is the simulator's one list of techniques: every gate
    /// and every all-technique test iterates it, so their output rows come
    /// in this order.
    #[must_use]
    pub fn all() -> [Technique; 5] {
        [
            Technique::Native,
            Technique::Nested,
            Technique::Shadow,
            Technique::Agile(AgileOptions::default()),
            Technique::Shsp(ShspOptions::default()),
        ]
    }

    /// Short label used in experiment output columns ("B", "N", "S", "A").
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Technique::Native => "B",
            Technique::Nested => "N",
            Technique::Shadow => "S",
            Technique::Agile(_) => "A",
            Technique::Shsp(_) => "SHSP",
        }
    }

    /// Command-line and job-file name (`native`, `nested`, `shadow`,
    /// `agile`, `shsp`); [`Technique::from_name`] is its inverse.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Native => "native",
            Technique::Nested => "nested",
            Technique::Shadow => "shadow",
            Technique::Agile(_) => "agile",
            Technique::Shsp(_) => "shsp",
        }
    }

    /// The technique of [`Technique::all`] named `name`, with default
    /// options; `None` for an unknown name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Technique> {
        Technique::all().into_iter().find(|t| t.name() == name)
    }

    /// True for the techniques that maintain a shadow table at least some
    /// of the time.
    #[must_use]
    pub fn uses_shadow(&self) -> bool {
        matches!(
            self,
            Technique::Shadow | Technique::Agile(_) | Technique::Shsp(_) | Technique::Native
        )
    }

    /// True when the page walker sets accessed/dirty bits in all three
    /// tables (agile paging's hardware optimization 1,
    /// [`AgileOptions::hw_ad_bits`]), so shadow leaves need no
    /// write-protection trick and `AdBitSync` VMtraps never happen.
    #[must_use]
    pub fn hw_ad_bits(&self) -> bool {
        matches!(self, Technique::Agile(o) if o.hw_ad_bits)
    }

    /// The VMtrap cost model: free for [`Technique::Native`] (there is no
    /// hypervisor), the calibrated [`VmtrapCosts::default`] table for every
    /// virtualized technique.
    #[must_use]
    pub fn trap_costs(&self) -> VmtrapCosts {
        match self {
            Technique::Native => VmtrapCosts::free(),
            _ => VmtrapCosts::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Technique::Native.label(), "B");
        assert_eq!(Technique::Agile(AgileOptions::default()).label(), "A");
    }

    #[test]
    fn native_config_is_free() {
        assert_eq!(Technique::Native.trap_costs(), VmtrapCosts::free());
        for t in &Technique::all()[1..] {
            assert_eq!(t.trap_costs(), VmtrapCosts::default(), "{t:?}");
        }
    }

    #[test]
    fn registry_lists_every_technique_once_in_label_order() {
        let all = Technique::all();
        let labels: Vec<_> = all.iter().map(Technique::label).collect();
        assert_eq!(labels, ["B", "N", "S", "A", "SHSP"]);
        let mut names: Vec<_> = all.iter().map(Technique::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names are unique");
        for t in all {
            assert_eq!(Technique::from_name(t.name()), Some(t));
        }
        assert_eq!(Technique::from_name("hyper"), None);
    }

    #[test]
    fn only_agile_with_the_option_sets_ad_bits_in_hardware() {
        let hw: Vec<_> = Technique::all().iter().map(Technique::hw_ad_bits).collect();
        assert_eq!(hw, [false, false, false, true, false]);
        assert!(!Technique::Agile(AgileOptions::without_hw_opts()).hw_ad_bits());
    }

    #[test]
    fn default_agile_options_match_paper() {
        let a = AgileOptions::default();
        assert_eq!(a.write_threshold, 2);
        assert_eq!(a.nested_to_shadow, NestedToShadowPolicy::DirtyBitScan);
        assert!(a.ctx_cache_entries >= 4 && a.ctx_cache_entries <= 8);
    }

    #[test]
    fn storm_guard_is_off_by_default() {
        let a = AgileOptions::default();
        assert_eq!(a.storm_threshold, None, "base paper policy has no guard");
        assert!(a.storm_cooldown > 0);
    }

    #[test]
    fn without_hw_opts_disables_both() {
        let a = AgileOptions::without_hw_opts();
        assert!(!a.hw_ad_bits);
        assert!(!a.hw_ctx_cache);
        assert_eq!(a.write_threshold, 2);
    }
}
