//! The analyzer's clean-state contract: an unfaulted machine — any
//! technique, any amount of churn, with the shootdown log armed — lints
//! with **zero** diagnostics, and under chaos the report is a pure
//! function of machine state (same fault plan ⇒ byte-identical render).

use agile_paging::prelude::*;
use agile_paging::{Event, LintCode, ScenarioKind};

const BASE: u64 = 0x7000_0000_0000;

/// Heavy page-table churn: remaps, COW marking, clock scans — the state
/// transitions most likely to strand a stale shadow entry or leak a
/// table page if the bookkeeping were wrong.
fn churny_spec(name: &str, accesses: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        footprint: 8 << 20,
        pattern: Pattern::Uniform,
        write_fraction: 0.3,
        accesses,
        accesses_per_tick: (accesses / 4).max(1),
        churn: ChurnSpec {
            remap_every: Some(200),
            remap_pages: 8,
            cow_every: Some(350),
            cow_pages: 8,
            clock_scan_every: Some(500),
            scan_pages: 16,
            churn_zone: 0.25,
            ctx_switch_every: None,
            processes: 1,
        },
        prefault: false,
        prefault_writes: true,
        seed,
    }
}

#[test]
fn unfaulted_churny_runs_lint_clean_in_every_technique() {
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        m.enable_shootdown_log();
        m.run_spec(&churny_spec("lint-clean", 3_000, 71));
        let report = m.lint();
        assert!(
            report.is_clean(),
            "{t:?}: unfaulted run must lint clean:\n{}",
            report.render()
        );
    }
}

#[test]
fn multi_process_context_switching_lints_clean() {
    for t in Technique::all() {
        let mut spec = churny_spec("lint-multi", 4_000, 72);
        spec.churn.ctx_switch_every = Some(300);
        spec.churn.processes = 3;
        let mut m = Machine::new(SystemConfig::new(t));
        m.enable_shootdown_log();
        m.run_spec(&spec);
        let report = m.lint();
        assert!(
            report.is_clean(),
            "{t:?}: multi-process run must lint clean:\n{}",
            report.render()
        );
    }
}

#[test]
fn lint_is_pure_mid_run_and_leaves_the_machine_usable() {
    let mut m = Machine::new(SystemConfig::new(Technique::Agile(AgileOptions::default())));
    m.enable_shootdown_log();
    let pid = m.current_pid();
    m.os_mut().mmap(pid, BASE, 256 << 10, true);
    for i in 0..32u64 {
        m.touch(BASE + i * 0x1000, true).unwrap();
    }
    // Linting twice mid-run yields identical reports and perturbs
    // nothing: the machine keeps running and still lints clean.
    let a = m.lint().render();
    let b = m.lint().render();
    assert_eq!(a, b, "lint must be a pure function of machine state");
    assert!(m.lint().is_clean(), "{}", m.lint().render());
    for i in 0..32u64 {
        m.touch(BASE + i * 0x1000, false).unwrap();
    }
    m.run_event(Event::Tick);
    assert!(m.lint().is_clean(), "{}", m.lint().render());
}

#[test]
fn chaos_lint_reports_are_deterministic() {
    // Under an adversarial plan the report may legitimately be non-empty
    // (a planted fault that is statically visible rather than healed);
    // the contract is determinism, not silence.
    let plan = || {
        FaultPlan::new(0xC0FFEE)
            .drop_shootdowns(250)
            .defer_shootdowns(250, 16)
            .scenario(400, ScenarioKind::CorruptGuestPte { gva: BASE })
    };
    for t in Technique::all() {
        let run = || {
            let mut m = Machine::new(SystemConfig::new(t));
            m.enable_chaos(plan());
            m.run_spec(&churny_spec("lint-chaos", 2_000, 73));
            m.lint().render()
        };
        assert_eq!(run(), run(), "{t:?}: lint must be deterministic");
    }
}

#[test]
fn corrupt_guest_pte_reaims_to_a_mapped_neighbor_under_churn() {
    // The churny workload remaps pages constantly; the original target is
    // often unmapped by injection time. The scenario must still land on a
    // nearby mapped page instead of silently no-opping.
    // A churn-zone page (the last quarter of the 8 MiB footprint): the
    // likeliest region for the target to be unmapped at injection time.
    let target = WorkloadSpec::REGION_BASE + 1600 * 0x1000;
    let mut hits = 0;
    for seed in [81u64, 82, 83] {
        let mut m = Machine::new(SystemConfig::new(Technique::Shadow));
        m.enable_chaos(
            FaultPlan::new(0x99).scenario(900, ScenarioKind::CorruptGuestPte { gva: target }),
        );
        m.run_spec(&churny_spec("lint-reaim", 1_500, seed));
        let landed = m
            .degradation_events()
            .iter()
            .any(|e| e.kind == DegradationKind::InjectedFault && !e.detail.contains("no-op"));
        if landed {
            hits += 1;
        }
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }
    assert!(
        hits >= 2,
        "re-aiming must land the corruption on most churny runs, landed {hits}/3"
    );
}

#[test]
fn lint_sees_a_statically_visible_planted_fault_or_the_machine_healed_it() {
    // The deny-warnings semantics of the CI lint job: after a chaos run,
    // every planted fault is either healed (report clean) or statically
    // visible (typed diagnostic). A flipped *shadow* leaf over a fully
    // synced guest path is statically wrong the moment it lands — and
    // with the victim never re-touched, the runtime oracle can't see it,
    // so the analyzer is the only line of defense.
    let mut m = Machine::new(SystemConfig::new(Technique::Shadow));
    m.enable_chaos(FaultPlan::new(0x60).scenario(
        20,
        ScenarioKind::CorruptShadowPte {
            gva: BASE + 0x3000,
            bit: 12,
        },
    ));
    let pid = m.current_pid();
    m.os_mut().mmap(pid, BASE, 64 << 10, true);
    for i in 0..16u64 {
        m.touch(BASE + i * 0x1000, true).unwrap();
    }
    // CR3 write: resync point. The guest L1 page leaves the legal
    // unsynced window *before* the corruption lands at access 20.
    m.run_event(Event::ContextSwitch { to: 0 });
    for i in 8..14u64 {
        m.touch(BASE + i * 0x1000, false).unwrap();
    }
    let report = m.lint();
    let healed = m
        .degradation_events()
        .iter()
        .any(|e| e.kind == DegradationKind::HealedTranslation);
    assert!(
        healed || report.count(LintCode::ShadowFrameMismatch) >= 1,
        "planted shadow corruption must be healed or visible:\n{}",
        report.render()
    );
    assert!(
        report.count(LintCode::ShadowFrameMismatch) >= 1,
        "the untouched victim leaf is invisible at runtime; lint must see it:\n{}",
        report.render()
    );
}

#[test]
fn guest_pte_corruption_in_the_sync_window_is_legal_then_heals() {
    // Contrast case: a corrupted *guest* PTE marks its table page
    // unsynced, so the stale shadow leaf sits inside the protocol's legal
    // staleness window — lint stays quiet about the leaf, and the next
    // touch of the page heals it through the runtime oracle.
    let mut m = Machine::new(SystemConfig::new(Technique::Shadow));
    m.enable_chaos(
        FaultPlan::new(0x61).scenario(10, ScenarioKind::CorruptGuestPte { gva: BASE + 0x3000 }),
    );
    let pid = m.current_pid();
    m.os_mut().mmap(pid, BASE, 64 << 10, true);
    for i in 0..16u64 {
        m.touch(BASE + i * 0x1000, true).unwrap();
    }
    assert_eq!(
        m.lint().count(LintCode::ShadowFrameMismatch),
        0,
        "unsynced staleness is legal:\n{}",
        m.lint().render()
    );
    m.touch(BASE + 0x3000, false).unwrap();
    assert!(m.violations().is_empty(), "{:?}", m.violations());
    assert!(m.lint().is_clean(), "{}", m.lint().render());
}
