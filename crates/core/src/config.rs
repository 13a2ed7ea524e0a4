//! Whole-system configuration.

use agile_tlb::PwcConfig;
use agile_types::{Json, ToJson};
use agile_vmm::Technique;

/// Cycles charged per guest/shadow page-walk memory reference that misses
/// the walk caches (a DRAM/L2-blend; every experiment prints it).
pub const WALK_REF_CYCLES: u64 = 40;

/// Cycles charged per *host* (EPT) page-table reference. Host-table
/// entries exhibit extreme temporal locality across walks and sit in the
/// data caches (Bhargava et al.), so they are much cheaper than
/// guest/shadow references; this is what makes a 24-reference nested walk
/// ~2× a native walk rather than 6× on real hardware.
pub const HOST_REF_CYCLES: u64 = 10;

/// Configuration of one simulated system run.
///
/// Each fact is stored once. Everything a run needs beyond these fields is
/// fixed or derived: the TLB hierarchy is Table III
/// ([`agile_tlb::TlbConfig::default`]), walk references cost
/// [`WALK_REF_CYCLES`] and [`HOST_REF_CYCLES`], and the VMtrap cost model
/// follows from the technique ([`Technique::trap_costs`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Memory-virtualization technique.
    pub technique: Technique,
    /// Page-walk-cache / nested-TLB geometry (disable for Table VI runs).
    pub pwc: PwcConfig,
    /// Transparent huge pages in the guest OS (the paper's "2M"
    /// configurations; both translation stages then use 2 MiB pages).
    pub thp: bool,
    /// Cycles of non-translation work represented by one `Access` event
    /// (the performance model's `E_ideal` per access).
    pub base_cycles_per_access: u64,
    /// Run the [`crate::verify`] paranoia layer: cross-check every TLB hit
    /// and completed walk against a reference translator, audit stats
    /// conservation identities, and sweep the TLBs/PWCs/nested TLB for
    /// stale translations after invalidation events. Strictly read-only —
    /// results and fingerprints are unchanged; only wall-clock time grows.
    /// Off by default; defaults to on when the `AGILE_PARANOIA`
    /// environment variable is set (tests and CI use this).
    pub paranoia: bool,
}

impl SystemConfig {
    /// Defaults for `technique`: walk caches on, 4 KiB pages. Paranoia
    /// checks default to off unless the `AGILE_PARANOIA` environment
    /// variable is set.
    #[must_use]
    pub fn new(technique: Technique) -> Self {
        SystemConfig {
            technique,
            pwc: PwcConfig::default(),
            thp: false,
            base_cycles_per_access: 125,
            paranoia: std::env::var_os("AGILE_PARANOIA").is_some(),
        }
    }

    /// Same configuration with transparent huge pages on (the "2M" bars).
    #[must_use]
    pub fn with_thp(mut self) -> Self {
        self.thp = true;
        self
    }

    /// Same configuration with all walk caches disabled (Table VI's
    /// "assuming no page walk caches").
    #[must_use]
    pub fn without_pwc(mut self) -> Self {
        self.pwc = PwcConfig::disabled();
        self
    }

    /// Same configuration with a different per-access ideal-work cost.
    #[must_use]
    pub fn with_base_cycles_per_access(mut self, cycles: u64) -> Self {
        self.base_cycles_per_access = cycles;
        self
    }

    /// Same configuration with the [`crate::verify`] paranoia layer on or
    /// off.
    #[must_use]
    pub fn with_paranoia(mut self, paranoia: bool) -> Self {
        self.paranoia = paranoia;
        self
    }

    /// Label like "4K:S" / "2M:A" used in Figure 5 column headers.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}:{}",
            if self.thp { "2M" } else { "4K" },
            self.technique.label()
        )
    }
}

/// The configuration echo of every run artifact: the stored fields plus
/// the label and the fixed reference costs.
impl ToJson for SystemConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::Str(self.label())),
            ("technique", Json::Str(self.technique.label().into())),
            ("thp", Json::Bool(self.thp)),
            ("pwc", Json::Bool(self.pwc.enabled)),
            ("walk_ref_cycles", Json::UInt(WALK_REF_CYCLES)),
            ("host_ref_cycles", Json::UInt(HOST_REF_CYCLES)),
            (
                "base_cycles_per_access",
                Json::UInt(self.base_cycles_per_access),
            ),
            ("paranoia", Json::Bool(self.paranoia)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_5() {
        assert_eq!(SystemConfig::new(Technique::Native).label(), "4K:B");
        assert_eq!(
            SystemConfig::new(Technique::Shadow).with_thp().label(),
            "2M:S"
        );
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::new(Technique::Nested)
            .with_thp()
            .without_pwc()
            .with_base_cycles_per_access(200);
        assert!(c.thp);
        assert!(!c.pwc.enabled);
        assert_eq!(c.base_cycles_per_access, 200);
    }

    #[test]
    fn paranoia_builder_toggles() {
        let c = SystemConfig::new(Technique::Nested).with_paranoia(true);
        assert!(c.paranoia);
        assert!(!c.with_paranoia(false).paranoia);
    }
}
