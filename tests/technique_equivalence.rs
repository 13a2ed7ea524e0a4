//! The virtualization technique must be invisible to the guest: running
//! the same workload under native, nested, shadow, agile, or SHSP paging
//! must produce identical guest-visible state (page tables, fault counts,
//! reclamation decisions). The techniques differ only in *cost*.

use agile_paging::{ChurnSpec, Machine, OsStats, Pattern, SystemConfig, Technique, WorkloadSpec};

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "equivalence".into(),
        footprint: 12 << 20,
        pattern: Pattern::Zipf { theta: 0.8 },
        write_fraction: 0.4,
        accesses: 40_000,
        accesses_per_tick: 5_000,
        churn: ChurnSpec {
            remap_every: Some(900),
            remap_pages: 8,
            cow_every: Some(1_500),
            cow_pages: 8,
            // No reclamation: the clock algorithm reads accessed bits whose
            // update timing is technique-dependent (paper §V), so reclaim
            // decisions may legitimately differ across techniques.
            churn_zone: 0.25,
            clock_scan_every: None,
            scan_pages: 0,
            ctx_switch_every: Some(2_000),
            processes: 2,
        },
        prefault: true,
        prefault_writes: true,
        seed: 4242,
    }
}

/// Guest-visible fingerprint: mappings at sampled addresses plus OS event
/// counters.
fn fingerprint(technique: Technique, thp: bool) -> (Vec<Option<(u64, bool)>>, OsStats) {
    let mut cfg = SystemConfig::new(technique);
    if thp {
        cfg = cfg.with_thp();
    }
    let mut m = Machine::new(cfg);
    m.run_spec(&spec());
    let base = WorkloadSpec::REGION_BASE;
    let mappings = (0..96u64)
        .map(|i| {
            m.guest_mapping(base + i * 137 * 0x1000)
                .map(|(pte, _)| (pte.frame_raw(), pte.is_writable()))
        })
        .collect();
    (mappings, m.os().stats())
}

#[test]
fn guest_state_is_technique_independent_4k() {
    let reference = fingerprint(Technique::Native, false);
    for t in Technique::all().into_iter().skip(1) {
        let got = fingerprint(t, false);
        assert_eq!(got.0, reference.0, "mappings diverged under {t:?}");
        assert_eq!(got.1, reference.1, "OS counters diverged under {t:?}");
    }
}

#[test]
fn guest_state_is_technique_independent_2m() {
    let reference = fingerprint(Technique::Native, true);
    for t in Technique::all().into_iter().skip(1) {
        let got = fingerprint(t, true);
        assert_eq!(got.0, reference.0, "mappings diverged under {t:?} (THP)");
        assert_eq!(got.1, reference.1, "OS counters diverged under {t:?} (THP)");
    }
}

#[test]
fn costs_differ_even_though_state_does_not() {
    // Sanity check that the equivalence above is not vacuous: the cost
    // profiles of the techniques are very different on this workload.
    let mut shadow = Machine::new(SystemConfig::new(Technique::Shadow));
    let s = shadow.run_spec(&spec());
    let mut nested = Machine::new(SystemConfig::new(Technique::Nested));
    let n = nested.run_spec(&spec());
    assert!(s.traps.total_cycles() > n.traps.total_cycles() * 2);
    assert!(n.avg_refs_per_miss() > s.avg_refs_per_miss() * 2.0);
}
