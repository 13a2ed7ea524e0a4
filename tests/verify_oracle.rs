//! Tests for the `verify` paranoia layer (the differential translation
//! oracle and invariant audits).
//!
//! Two directions are exercised: (1) *soundness* — on seeded-random
//! churn-heavy workloads, every technique completes with zero oracle
//! violations, so the oracles do not false-positive on legitimate
//! technique behaviour (shadow dirty-tracking installs read-only entries,
//! COW downgrades, huge-page splitting); and (2) *sensitivity* — a bogus
//! translation planted behind the walker's back, or a corrupted counter,
//! is actually caught. Without the second half, a vacuous oracle would
//! pass everything.

use agile_paging::types::SplitMix64;
use agile_paging::types::{Asid, HostFrame, PageSize};
use agile_paging::verify;
use agile_paging::{
    ChurnSpec, Event, Machine, Pattern, SystemConfig, Technique, TlbEntry, ViolationSite, WalkKind,
    WorkloadSpec,
};

const CASES: u64 = 4;

/// A churn-heavy spec: unmaps, COW markings, clock scans, context switches
/// and ticks all fire, so every invalidation path crosses the coherence
/// audit.
fn churny_spec(case: u64) -> WorkloadSpec {
    let mut rng = SplitMix64::new(SplitMix64::derive(0x0c_1e_55, case));
    WorkloadSpec {
        name: format!("oracle-churn-{case}"),
        footprint: rng.range(2, 6) << 20,
        pattern: Pattern::Zipf {
            theta: 0.5 + 0.5 * rng.next_f64(),
        },
        write_fraction: 0.4,
        accesses: 1_500,
        accesses_per_tick: 300,
        churn: ChurnSpec {
            remap_every: Some(rng.range(60, 140)),
            remap_pages: 8,
            cow_every: Some(rng.range(80, 160)),
            cow_pages: 4,
            clock_scan_every: Some(rng.range(200, 400)),
            scan_pages: 64,
            churn_zone: 0.4,
            ctx_switch_every: Some(111),
            processes: 2,
        },
        prefault: false,
        prefault_writes: true,
        seed: rng.next_u64(),
    }
}

/// A quiet spec used when the test itself wants to plant entries or
/// inspect exact walk counts.
fn quiet_spec(name: &str) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        footprint: 2 << 20,
        pattern: Pattern::Uniform,
        write_fraction: 0.3,
        accesses: 1_200,
        accesses_per_tick: 600,
        churn: ChurnSpec::none(),
        prefault: false,
        prefault_writes: true,
        seed: 7,
    }
}

/// Soundness: churn-heavy seeded workloads run clean under every technique
/// with the full paranoia layer on — per-hit/per-walk differential checks,
/// the post-invalidation coherence sweeps, and the end-of-run stats
/// identities all agree with the simulator.
#[test]
fn every_technique_runs_clean_under_paranoia() {
    for case in 0..CASES {
        let spec = churny_spec(case);
        for technique in Technique::all() {
            for thp in [false, true] {
                let mut cfg = SystemConfig::new(technique).with_paranoia(true);
                if thp {
                    cfg = cfg.with_thp();
                }
                let mut m = Machine::new(cfg);
                m.run_spec(&spec);
                let violations = m.take_violations();
                assert!(
                    violations.is_empty(),
                    "case {case} {technique:?} thp={thp}: {} violation(s), first: {}",
                    violations.len(),
                    violations[0]
                );
                // And one final explicit sweep after the run settled.
                let found = m.audit();
                assert!(
                    found.is_empty(),
                    "case {case} {technique:?} thp={thp}: post-run audit found {}",
                    found[0]
                );
            }
        }
    }
}

/// With walk caches (and thus the nested TLB) off and 4 KiB pages in both
/// stages, every classified walk must hit its Table II count *exactly*:
/// 4 native/shadow, 8/12/16/20 for switched walks, 24 fully nested.
#[test]
fn table_ii_reference_counts_are_exact_without_walk_caches() {
    let spec = quiet_spec("oracle-table2");
    for technique in Technique::all() {
        let cfg = SystemConfig::new(technique)
            .without_pwc()
            .with_paranoia(true);
        let mut m = Machine::new(cfg);
        let stats = m.run_spec(&spec);
        let violations = m.take_violations();
        assert!(
            violations.is_empty(),
            "{technique:?}: {}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
        assert!(stats.tlb.misses > 0, "{technique:?} never missed the TLB");
        for kind in [
            WalkKind::Native,
            WalkKind::FullShadow,
            WalkKind::Switched { nested_levels: 1 },
            WalkKind::Switched { nested_levels: 2 },
            WalkKind::Switched { nested_levels: 3 },
            WalkKind::Switched { nested_levels: 4 },
            WalkKind::FullNested,
        ] {
            let count = stats.kinds.count(kind);
            let refs = stats.kinds.refs(kind);
            assert_eq!(
                refs,
                count * u64::from(kind.expected_refs_4k()),
                "{technique:?} {kind:?}: {refs} refs over {count} walks"
            );
        }
    }
}

/// Sensitivity: a translation planted behind the walker's back is caught
/// by the coherence audit — both a mapping for a gVA the guest never
/// mapped, and a wrong host frame for a gVA it did.
#[test]
fn audit_catches_planted_stale_entries() {
    let spec = quiet_spec("oracle-plant");
    let mut m = Machine::new(SystemConfig::new(Technique::Nested));
    m.run_spec(&spec);
    assert!(m.audit().is_empty(), "clean machine must audit clean");
    let asid = Asid::from(m.current_pid());

    // A mapping for a gVA that has no guest page-table leaf at all.
    let unmapped = 0x7fff_0000_0000;
    m.plant_tlb_entry(
        asid,
        unmapped,
        TlbEntry::new(HostFrame::new(0xdead), PageSize::Size4K, true),
    );
    let found = m.audit();
    assert!(
        found.iter().any(|v| v.site == ViolationSite::StaleTlb
            && v.gva == Some(unmapped)
            && v.detail.contains("unbacked")),
        "planted unbacked entry not caught: {found:?}"
    );

    // A wrong host frame for a gVA the workload really mapped.
    let mapped = WorkloadSpec::REGION_BASE;
    m.plant_tlb_entry(
        asid,
        mapped,
        TlbEntry::new(HostFrame::new(0xbad_f00d), PageSize::Size4K, false),
    );
    let found = m.audit();
    assert!(
        found.iter().any(|v| v.site == ViolationSite::StaleTlb
            && v.gva == Some(mapped)
            && v.detail.contains("reference frame")),
        "planted wrong-frame entry not caught: {found:?}"
    );
}

/// Sensitivity of the per-hit path: with paranoia on, *hitting* a planted
/// wrong-frame entry during normal execution records a violation
/// immediately, without waiting for an invalidation-triggered sweep.
#[test]
fn tlb_hit_oracle_catches_planted_entry_on_access() {
    let spec = quiet_spec("oracle-hit");
    let mut m = Machine::new(SystemConfig::new(Technique::Shadow).with_paranoia(true));
    m.run_spec(&spec);
    assert!(m.take_violations().is_empty(), "run must start clean");

    let asid = Asid::from(m.current_pid());
    let va = WorkloadSpec::REGION_BASE;
    m.plant_tlb_entry(
        asid,
        va,
        TlbEntry::new(HostFrame::new(0xbad_f00d), PageSize::Size4K, false),
    );
    m.run_event(Event::Access { va, write: false });
    let violations = m.take_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.site == ViolationSite::TlbHit && v.gva == Some(va)),
        "hit on planted entry not caught: {violations:?}"
    );
}

/// Sensitivity of the stats oracle: the identities hold on a real run and
/// each one trips when its counter is corrupted.
#[test]
fn check_stats_flags_corrupted_counters() {
    let spec = quiet_spec("oracle-stats");
    let cfg = SystemConfig::new(Technique::Shadow);
    let mut m = Machine::new(cfg);
    let stats = m.run_spec(&spec);
    assert!(verify::check_stats(&stats, &cfg).is_empty());

    // More fills than misses (a fill without a preceding miss).
    let mut s = stats.clone();
    s.tlb.fills = s.tlb.misses + 1;
    assert!(verify::check_stats(&s, &cfg)
        .iter()
        .any(|v| v.detail.contains("fills")));

    // Reference targets no longer sum to total references.
    let mut s = stats.clone();
    s.walks.memory_refs += 1;
    assert!(verify::check_stats(&s, &cfg)
        .iter()
        .any(|v| v.detail.contains("reference targets")));

    // A walk kind with references outside the Table II bounds (a
    // zero-reference nested walk can never happen).
    let mut s = stats.clone();
    s.kinds.record(WalkKind::FullNested, 0);
    assert!(verify::check_stats(&s, &cfg)
        .iter()
        .any(|v| v.detail.contains("outside bounds")));

    // Trap cycles that stop matching count × cost.
    let mut s = stats;
    let kind = agile_paging::VmtrapKind::ALL[0];
    s.traps
        .record(kind, 1, cfg.technique.trap_costs().cost(kind) + 1);
    assert!(verify::check_stats(&s, &cfg)
        .iter()
        .any(|v| v.detail.contains("cycles !=")));
}
