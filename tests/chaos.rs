//! The chaos-suite contract: every injected fault is either **fully
//! healed** (the paranoia oracles find zero violations afterwards) or it
//! **surfaces as a typed degradation report** — never a panic, never a
//! silent wrong translation. Every scenario here runs with paranoia on
//! (chaos arms it automatically) across the five techniques, and the same
//! `FaultPlan` always produces a byte-identical degradation log.

use agile_paging::prelude::*;
use agile_paging::{render_log, DegradationKind, Event, FaultPlan, Machine, ScenarioKind};
use std::time::Duration;

const BASE: u64 = 0x7000_0000_0000;

/// A workload with enough page-table churn (remaps, COW marking, clock
/// scans) to generate a steady stream of shootdown requests for the
/// background drop/defer dice to bite on.
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

fn kinds_in(events: &[agile_paging::DegradationEvent]) -> Vec<DegradationKind> {
    events.iter().map(|e| e.kind).collect()
}

// ---------------------------------------------------------------------
// Scenario 1: background shootdown drops, all five techniques.
// ---------------------------------------------------------------------

#[test]
fn dropped_shootdowns_heal_or_report_in_every_technique() {
    for t in Technique::all() {
        let plan = FaultPlan::new(0xD0).drop_shootdowns(300);
        // run() itself asserts zero residual oracle violations — the
        // "fully healed" half of the chaos contract.
        let artifact = RunRequest::new(SystemConfig::new(t), churny_spec("chaos-drop", 3_000, 21))
            .with_chaos(plan)
            .run();
        let kinds = kinds_in(&artifact.degradation);
        assert!(
            kinds.contains(&DegradationKind::DroppedShootdown),
            "{t:?}: churn under a 30% drop rate must drop something: {kinds:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Scenario 2: background shootdown deferral (late delivery).
// ---------------------------------------------------------------------

#[test]
fn deferred_shootdowns_are_delivered_late_and_stay_clean() {
    for t in [
        Technique::Shsp(ShspOptions::default()),
        Technique::Agile(AgileOptions::default()),
    ] {
        let plan = FaultPlan::new(0xDE).defer_shootdowns(400, 16);
        let artifact = RunRequest::new(SystemConfig::new(t), churny_spec("chaos-defer", 3_000, 22))
            .with_chaos(plan)
            .run();
        let kinds = kinds_in(&artifact.degradation);
        assert!(
            kinds.contains(&DegradationKind::DeferredShootdown),
            "{t:?}: {kinds:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Scenario 3: single-bit shadow-PTE corruption (wrong translation),
// detected by the walk oracle and healed by subtree rebuild — including
// Native's merged table, which has no guest table to lazily rebuild from
// on the walk path and needs the explicit re-mirror.
// ---------------------------------------------------------------------

#[test]
fn shadow_pte_bitflip_is_detected_and_healed() {
    for t in [
        Technique::Shadow,
        Technique::Agile(AgileOptions::default()),
        Technique::Native,
    ] {
        let victim = BASE + 0x3000;
        let mut m = Machine::new(SystemConfig::new(t));
        m.enable_chaos(FaultPlan::new(0x51).scenario(
            20,
            ScenarioKind::CorruptShadowPte {
                gva: victim,
                bit: 12,
            },
        ));
        let pid = m.current_pid();
        m.os_mut().mmap(pid, BASE, 64 << 10, true);
        for i in 0..16u64 {
            m.touch(BASE + i * 0x1000, true).unwrap();
        }
        for _ in 0..8 {
            m.touch(victim, false).unwrap();
        }
        assert!(m.violations().is_empty(), "{t:?}: {:?}", m.violations());
        let events = m.degradation_events();
        let kinds = kinds_in(events);
        assert!(kinds.contains(&DegradationKind::InjectedFault), "{t:?}");
        // Agile may have switched the victim's subtree to nested mode (no
        // shadow leaf to corrupt → recorded no-op); when the bit did land,
        // the wrong translation must have been caught and healed.
        let landed = events
            .iter()
            .any(|e| e.kind == DegradationKind::InjectedFault && !e.detail.contains("no-op"));
        assert!(
            !landed || kinds.contains(&DegradationKind::HealedTranslation),
            "{t:?}: a frame-bit flip is a wrong translation and must be healed: {events:?}"
        );
        if t != Technique::Agile(AgileOptions::default()) {
            assert!(landed, "{t:?}: the corruption must have landed: {events:?}");
        }
    }
}

/// A flipped switching bit (bit 9) on an agile shadow leaf: a leaf has no
/// next-level table to switch to, so the walk raises a reserved-bit shadow
/// fault, the VMM drops the leaf, and the retried walk rebuilds it.
#[test]
fn switching_bit_on_an_agile_shadow_leaf_faults_and_is_rebuilt() {
    let victim = BASE + 0x3000;
    // Start in shadow mode and stay there (no write count moves a page to
    // nested mode), so the victim has a shadow leaf to corrupt.
    let opts = AgileOptions {
        start_in_nested: false,
        write_threshold: u32::MAX,
        ..AgileOptions::default()
    };
    let mut m = Machine::new(SystemConfig::new(Technique::Agile(opts)));
    m.enable_chaos(FaultPlan::new(0x59).scenario(
        20,
        ScenarioKind::CorruptShadowPte {
            gva: victim,
            bit: 9,
        },
    ));
    let pid = m.current_pid();
    m.os_mut().mmap(pid, BASE, 64 << 10, true);
    for i in 0..16u64 {
        m.touch(BASE + i * 0x1000, true).unwrap();
    }
    for _ in 0..8 {
        m.touch(victim, false).unwrap();
    }
    assert!(m.violations().is_empty(), "{:?}", m.violations());
    let events = m.degradation_events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == DegradationKind::InjectedFault
                && e.detail.contains("flipped bit 9 of the shadow L1 leaf")),
        "the corruption must have landed on the leaf: {events:?}"
    );
}

// ---------------------------------------------------------------------
// Scenario 4: guest-PTE present-bit corruption. Nested heals organically
// (the next walk refaults and the OS remaps); shadow-backed modes are
// left with a stale shadow leaf the oracle catches and heals.
// ---------------------------------------------------------------------

#[test]
fn guest_pte_corruption_refaults_or_heals() {
    for t in [Technique::Nested, Technique::Shadow] {
        let victim = BASE + 0x5000;
        let mut m = Machine::new(SystemConfig::new(t));
        m.enable_chaos(
            FaultPlan::new(0x52).scenario(20, ScenarioKind::CorruptGuestPte { gva: victim }),
        );
        let pid = m.current_pid();
        m.os_mut().mmap(pid, BASE, 64 << 10, true);
        for i in 0..16u64 {
            m.touch(BASE + i * 0x1000, true).unwrap();
        }
        for _ in 0..8 {
            m.touch(victim, false).unwrap();
        }
        assert!(m.violations().is_empty(), "{t:?}: {:?}", m.violations());
        let kinds = kinds_in(m.degradation_events());
        assert!(kinds.contains(&DegradationKind::InjectedFault), "{t:?}");
        if t == Technique::Shadow {
            assert!(
                kinds.contains(&DegradationKind::HealedTranslation),
                "{t:?}: the stale shadow leaf must be caught: {kinds:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Scenario 5: trap storm against the agile switching policy. With the
// hysteresis guard armed, the policy falls the process back to nested
// mode instead of eating a VMtrap per write.
// ---------------------------------------------------------------------

#[test]
fn trap_storm_falls_back_to_nested_under_hysteresis() {
    // A high write threshold keeps the written subtrees in shadow mode,
    // so every storm write is a GptWrite VMtrap the guard can see.
    let opts = AgileOptions {
        storm_threshold: Some(64),
        write_threshold: 100_000,
        ..AgileOptions::default()
    };
    let mut m = Machine::new(SystemConfig::new(Technique::Agile(opts)));
    m.enable_chaos(FaultPlan::new(0x53).scenario(
        40,
        ScenarioKind::TrapStorm {
            base: BASE,
            pages: 8,
            writes_per_page: 32,
        },
    ));
    let pid = m.current_pid();
    m.os_mut().mmap(pid, BASE, 64 << 10, true);
    for i in 0..16u64 {
        m.touch(BASE + i * 0x1000, true).unwrap();
    }
    // Cross the scenario's access threshold, then close the interval so
    // the policy sees the storm.
    for i in 0..32u64 {
        m.touch(BASE + (i % 16) * 0x1000, false).unwrap();
    }
    m.run_event(Event::Tick);
    assert!(
        m.vmm().counters().storm_fallbacks > 0,
        "the storm guard must have fired: {:?}",
        m.vmm().counters()
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
    assert!(kinds_in(m.degradation_events()).contains(&DegradationKind::InjectedFault));
    // The fallback must not have wedged the machine.
    for i in 0..16u64 {
        m.touch(BASE + i * 0x1000, false).unwrap();
    }
}

#[test]
fn trap_storm_without_guard_still_heals_or_reports() {
    // Base paper policy (no storm guard): the storm is absorbed as
    // ordinary GptWrite traps; nothing may corrupt state.
    let mut m = Machine::new(SystemConfig::new(Technique::Agile(AgileOptions::default())));
    m.enable_chaos(FaultPlan::new(0x54).scenario(
        40,
        ScenarioKind::TrapStorm {
            base: BASE,
            pages: 4,
            writes_per_page: 16,
        },
    ));
    let pid = m.current_pid();
    m.os_mut().mmap(pid, BASE, 64 << 10, true);
    for i in 0..16u64 {
        m.touch(BASE + i * 0x1000, true).unwrap();
    }
    for i in 0..48u64 {
        m.touch(BASE + (i % 16) * 0x1000, false).unwrap();
    }
    m.run_event(Event::Tick);
    assert!(m.violations().is_empty(), "{:?}", m.violations());
    assert_eq!(m.vmm().counters().storm_fallbacks, 0);
}

// ---------------------------------------------------------------------
// Scenario 6: host frame exhaustion. The OOM path reclaims with capped
// backoff (and balloons the guest's recycle list back to the host)
// instead of panicking.
// ---------------------------------------------------------------------

#[test]
fn frame_pressure_triggers_reclaim_and_the_run_completes() {
    let mut m = Machine::new(SystemConfig::new(Technique::Nested));
    m.enable_chaos(
        FaultPlan::new(0x55).scenario(600, ScenarioKind::FramePressure { headroom: 24 }),
    );
    let pid = m.current_pid();
    m.os_mut().mmap(pid, BASE, 8 << 20, true);
    // Build up a resident set, then keep faulting fresh pages under the
    // capped budget: the watermark forces reclaim of the cold pages.
    let mut skipped = 0u64;
    for i in 0..2_000u64 {
        match m.try_touch(BASE + (i % 1024) * 0x1000, true) {
            Ok(()) => {}
            Err(agile_paging::AccessError::OutOfMemory) => skipped += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(m.violations().is_empty(), "{:?}", m.violations());
    let kinds = kinds_in(m.degradation_events());
    assert!(
        kinds.contains(&DegradationKind::OomReclaim),
        "pressure must have forced reclaim: {kinds:?}"
    );
    // Degradation, not loss: the overwhelming majority of accesses land.
    assert!(
        skipped < 200,
        "reclaim failed to keep the run alive: {skipped} skips"
    );
}

// ---------------------------------------------------------------------
// Scenario 7: a compound plan (drops + deferrals + corruption + storm)
// produces a byte-identical degradation log across runs — the
// determinism half of the contract, per technique.
// ---------------------------------------------------------------------

fn compound_plan() -> FaultPlan {
    FaultPlan::new(0xA11)
        .drop_shootdowns(200)
        .defer_shootdowns(200, 16)
        .scenario(
            400,
            ScenarioKind::CorruptShadowPte {
                gva: BASE + 0x2000,
                bit: 12,
            },
        )
        .scenario(800, ScenarioKind::CorruptGuestPte { gva: BASE + 0x4000 })
        .scenario(
            1_200,
            ScenarioKind::TrapStorm {
                base: BASE,
                pages: 4,
                writes_per_page: 8,
            },
        )
}

#[test]
fn same_fault_plan_yields_byte_identical_logs() {
    for t in Technique::all() {
        let run = || {
            let mut spec = churny_spec("chaos-det", 2_000, 33);
            spec.name = format!("chaos-det-{}", t.label());
            RunRequest::new(SystemConfig::new(t), spec)
                .with_chaos(compound_plan())
                .run()
        };
        let a = run();
        let b = run();
        assert!(
            !a.degradation.is_empty(),
            "{t:?}: the compound plan must inject something"
        );
        assert_eq!(
            render_log(&a.degradation),
            render_log(&b.degradation),
            "{t:?}: degradation log must be deterministic"
        );
        assert_eq!(a.fingerprint(), b.fingerprint(), "{t:?}");
    }
}

// ---------------------------------------------------------------------
// Scenario 8: runner-level recovery. A poisoned request is retried and
// then skipped with a typed event log; sibling results are bit-identical
// to an undisturbed plan's.
// ---------------------------------------------------------------------

#[test]
fn runner_recovery_isolates_a_poisoned_run() {
    let good = |seed| {
        RunRequest::new(
            SystemConfig::new(Technique::Shadow),
            churny_spec("good", 1_500, seed),
        )
    };
    // A zero footprint makes every generated access land outside the
    // workload's VMAs, so the machine panics mid-run.
    let mut bad_spec = churny_spec("bad", 1_500, 3);
    bad_spec.footprint = 0;
    let bad = RunRequest::new(SystemConfig::new(Technique::Shadow), bad_spec).with_label("bad-run");

    let reference: Vec<String> = Service::run_all(PlanOptions::with_threads(2), [good(1), good(2)])
        .iter()
        .map(|o| o.artifact().expect("clean run completes").fingerprint())
        .collect();

    let opts = PlanOptions {
        threads: 2,
        retries: 1,
        ..PlanOptions::default()
    };
    let outcomes = Service::run_all(opts, [good(1), bad, good(2)]);
    assert_eq!(outcomes.len(), 3);

    match &outcomes[1] {
        RunOutcome::Skipped {
            label,
            index,
            events,
        } => {
            assert_eq!(label, "bad-run");
            assert_eq!(*index, 1);
            let kinds = kinds_in(events);
            assert_eq!(
                kinds,
                vec![
                    DegradationKind::RunnerPanic,
                    DegradationKind::RunnerRetry,
                    DegradationKind::RunnerPanic,
                ],
                "one panic, one bounded retry, one final panic"
            );
            assert!(events[0].detail.contains("workload accesses"), "{events:?}");
        }
        other => panic!("poisoned run must be skipped, got {other:?}"),
    }
    // Siblings complete bit-identically to the undisturbed plan.
    let survivors: Vec<String> = [&outcomes[0], &outcomes[2]]
        .iter()
        .map(|o| o.artifact().expect("sibling completed").fingerprint())
        .collect();
    assert_eq!(survivors, reference);
}

#[test]
fn runner_timeout_stops_a_hung_run_cooperatively_and_keeps_siblings() {
    let opts = PlanOptions {
        threads: 2,
        timeout: Some(Duration::from_millis(40)),
        ..PlanOptions::default()
    };
    let quick = RunRequest::new(
        SystemConfig::new(Technique::Native),
        churny_spec("quick", 500, 5),
    );
    // Large enough to blow any 40 ms deadline by orders of magnitude,
    // with frequent tick boundaries so the stop lands promptly.
    let mut slow = churny_spec("slow", 30_000_000, 6);
    slow.accesses_per_tick = 20_000;
    let hung = RunRequest::new(SystemConfig::new(Technique::Nested), slow).with_label("hung-run");
    let outcomes = Service::run_all(opts, [quick, hung]);
    assert!(outcomes[0].artifact().is_some(), "quick sibling completes");
    match &outcomes[1] {
        RunOutcome::TimedOut { label, partial, .. } => {
            assert_eq!(label, "hung-run");
            // The run stopped at a tick boundary: partial stats were
            // retained, but nowhere near the full access count.
            assert!(partial.stats.accesses > 0, "partial stats retained");
            assert!(
                partial.stats.accesses < 30_000_000,
                "run must stop early, saw {} accesses",
                partial.stats.accesses
            );
            let last = partial.degradation.last().expect("timeout event logged");
            assert_eq!(last.kind, DegradationKind::Timeout);
            assert!(last.detail.contains("tick boundary"), "{}", last.detail);
        }
        other => panic!("hung run must time out with partial stats, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Cross-cutting: chaos artifacts serialize their degradation log, and a
// quiet plan stays quiet.
// ---------------------------------------------------------------------

#[test]
fn degradation_log_is_part_of_the_artifact_json() {
    let artifact = RunRequest::new(
        SystemConfig::new(Technique::Shadow),
        churny_spec("chaos-json", 2_000, 44),
    )
    .with_chaos(FaultPlan::new(0xE0).drop_shootdowns(300))
    .run();
    assert!(!artifact.degradation.is_empty());
    let parsed = Json::parse(&artifact.to_json().render()).expect("valid JSON");
    let rendered_len = match parsed.get("degradation") {
        Some(Json::Arr(items)) => Some(items.len()),
        _ => None,
    };
    assert_eq!(rendered_len, Some(artifact.degradation.len()));
}

#[test]
fn quiet_plan_injects_nothing_and_changes_nothing() {
    let spec = churny_spec("chaos-quiet", 2_000, 55);
    let base = RunRequest::new(
        SystemConfig::new(Technique::Agile(AgileOptions::default())).with_paranoia(true),
        spec.clone(),
    )
    .run();
    // Paranoia explicitly on so the config echo matches the base run's
    // (chaos forces it on inside the machine either way).
    let quiet = RunRequest::new(
        SystemConfig::new(Technique::Agile(AgileOptions::default())).with_paranoia(true),
        spec,
    )
    .with_chaos(FaultPlan::new(0))
    .run();
    assert!(quiet.degradation.is_empty(), "{:?}", quiet.degradation);
    assert_eq!(base.fingerprint(), quiet.fingerprint());
}
