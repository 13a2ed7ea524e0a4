//! Walk outcomes, classification, and counters.

use agile_types::{HostFrame, PageSize};

/// The register state a walk starts from: what the OS or VMM programs
/// into the page-table pointers for the current process (the paper's
/// three architectural pointers, Section III-A). Agile hardware uses
/// `FullNested`, `NestedFromRoot` and `Shadow`; `Native` and `ShadowOnly`
/// are the start states of hardware without the switching bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgileCr3 {
    /// Base native: a 1D walk of the OS's own page table (Figure 2 (a)).
    /// Faults go to the OS; a completed walk is [`WalkKind::Native`].
    Native {
        /// Host frame of the page table's L4 page.
        root: HostFrame,
    },
    /// Conventional shadow paging: a 1D walk of the shadow table
    /// (Figure 2 (c)). Faults go to the VMM; a completed walk is
    /// [`WalkKind::FullShadow`]. Unlike agile's `Shadow`, the walk ignores
    /// switching entries and guest-mode page-walk-cache entries.
    ShadowOnly {
        /// Host frame of the shadow L4 table page.
        spt_root: HostFrame,
    },
    /// `sptr == gptr`: the whole address space is in nested mode and walks
    /// run the full 2D walk of nested paging (Figure 2 (b)), translating
    /// `gptr` first (24 references).
    FullNested,
    /// The register-level switching state: the whole guest page table is
    /// nested, but the VMM has preloaded the host-physical frame of the
    /// guest root, so the `gptr` translation is skipped (20 references;
    /// the paper's "switched at 1st level").
    NestedFromRoot {
        /// Host frame of the guest L4 table page.
        gpt_root: HostFrame,
    },
    /// Normal agile state: the walk starts in shadow mode at the shadow
    /// root and may switch to nested mode at a switching-bit entry.
    Shadow {
        /// Host frame of the shadow L4 table page.
        spt_root: HostFrame,
    },
}

/// Classification of how a walk was served — the paper's Table VI columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkKind {
    /// A native (unvirtualized) 1D walk.
    Native,
    /// Fully shadow: every level came from the shadow table.
    FullShadow,
    /// Started shadow, switched to nested after `nested_levels` guest
    /// levels remained (1..=4). The paper's figure 3 labels this "switched
    /// at the (5 − nested_levels)-th level".
    Switched {
        /// Number of guest page-table levels walked in nested mode.
        nested_levels: u8,
    },
    /// Full nested 2D walk (`sptr == gptr`).
    FullNested,
}

impl WalkKind {
    /// The paper's expected memory-reference count for this walk shape with
    /// 4 KiB pages and no walk caches (Table VI header row).
    #[must_use]
    pub fn expected_refs_4k(self) -> u32 {
        match self {
            WalkKind::Native | WalkKind::FullShadow => 4,
            WalkKind::Switched { nested_levels } => {
                (4 - u32::from(nested_levels)) + 5 * u32::from(nested_levels)
            }
            WalkKind::FullNested => 24,
        }
    }

    /// The paper's label for the switch point ("Shadow", "L4".."L1",
    /// "Nested") as printed in Table VI. The paper labels the column by the
    /// *walk-order* level at which the switch happened: switching with only
    /// the leaf nested is "L4" (4th level walked, 8 references).
    #[must_use]
    pub fn table6_label(self) -> &'static str {
        match self {
            WalkKind::Native => "Native",
            WalkKind::FullShadow => "Shadow",
            WalkKind::Switched { nested_levels: 1 } => "L4",
            WalkKind::Switched { nested_levels: 2 } => "L3",
            WalkKind::Switched { nested_levels: 3 } => "L2",
            WalkKind::Switched { nested_levels: 4 } => "L1",
            WalkKind::Switched { .. } => "L?",
            WalkKind::FullNested => "Nested",
        }
    }
}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOk {
    /// Host frame of the first 4 KiB page of the mapped region (aligned to
    /// `size`).
    pub frame: HostFrame,
    /// Effective page size for the TLB entry: the smaller of the guest and
    /// host mapping sizes (the paper: a large page used in only one stage
    /// is "in effect broken into smaller pages for entry into the TLB").
    pub size: PageSize,
    /// Whether the installed translation permits writes.
    pub writable: bool,
    /// Memory references this walk performed (after PWC/NTLB filtering).
    pub refs: u32,
    /// How many of those references hit host (EPT) page-table entries.
    /// Host-table entries cache extremely well (Bhargava et al.), so cost
    /// models may charge them less than guest/shadow references.
    pub host_refs: u32,
    /// How the walk was served.
    pub kind: WalkKind,
    /// Whether the walk resumed from a page-walk-cache entry (classification
    /// in `kind` then reflects only the levels actually walked).
    pub resumed_from_pwc: bool,
}

agile_types::record! {
    counters;
    /// Accumulated walk counters, kept by the caller across walks.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WalkStats {
        /// Walks started (counted on entry, before the outcome is known). Every
        /// attempt terminates exactly once, so `attempts == walks +
        /// faulted_walks` is a cross-site conservation identity the verify
        /// layer checks.
        pub attempts: u64,
        /// Completed walks.
        pub walks: u64 as "completed",
        /// Walks that ended in a fault (their references still count).
        pub faulted_walks: u64 as "faulted",
        /// Total memory references.
        pub memory_refs: u64,
        /// References to shadow (or native) table entries.
        pub refs_shadow: u64,
        /// References to guest page-table entries.
        pub refs_guest: u64,
        /// References to host page-table entries.
        pub refs_host: u64,
    }
}

impl WalkStats {
    /// Average memory references per completed walk.
    #[must_use]
    pub fn avg_refs(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.memory_refs as f64 / self.walks as f64
        }
    }
}

/// Classification of where a counted reference landed (internal use by the
/// walker; public for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefTarget {
    Shadow,
    Guest,
    Host,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_refs_match_paper_table() {
        assert_eq!(WalkKind::FullShadow.expected_refs_4k(), 4);
        assert_eq!(
            WalkKind::Switched { nested_levels: 1 }.expected_refs_4k(),
            8
        );
        assert_eq!(
            WalkKind::Switched { nested_levels: 2 }.expected_refs_4k(),
            12
        );
        assert_eq!(
            WalkKind::Switched { nested_levels: 3 }.expected_refs_4k(),
            16
        );
        assert_eq!(
            WalkKind::Switched { nested_levels: 4 }.expected_refs_4k(),
            20
        );
        assert_eq!(WalkKind::FullNested.expected_refs_4k(), 24);
    }

    #[test]
    fn table6_labels() {
        assert_eq!(WalkKind::FullShadow.table6_label(), "Shadow");
        assert_eq!(WalkKind::Switched { nested_levels: 1 }.table6_label(), "L4");
        assert_eq!(WalkKind::Switched { nested_levels: 4 }.table6_label(), "L1");
        assert_eq!(WalkKind::FullNested.table6_label(), "Nested");
    }

    #[test]
    fn stats_avg_refs() {
        let a = WalkStats {
            walks: 4,
            memory_refs: 56,
            ..WalkStats::default()
        };
        assert!((a.avg_refs() - 14.0).abs() < 1e-9);
        assert_eq!(WalkStats::default().avg_refs(), 0.0);
    }
}
