//! Bounded interleaving explorer, end to end:
//!
//! 1. **Clean suites** — every technique explores to the pinned depth
//!    with zero diagnostics at every explored state, and two independent
//!    explorations render byte-identical reports (the determinism the
//!    `mc` gate's runs are byte-compared for across processes).
//! 2. **Teeth** — with the historical `drop_shadow_leaf` missed-flush
//!    bug re-planted behind its test-only knob, the explorer rediscovers
//!    it within a pinned state budget and emits a minimized
//!    [`CounterexampleTrace`] that replays to the identical findings.
//! 3. **Trace artifact** — the counterexample's sorted-key JSON
//!    round-trips byte-stably and replays from the parsed form.
//! 4. **Bisector** — a checkpointed run with a planted violation is
//!    bisected to its first violating tick; a clean run bisects to
//!    `None`.
//! 5. **Chaos composition** — exploration over a chaos-deferred plan
//!    exercises the `DeferredDelivery` choice point and stays clean
//!    (every injected fault healed), proving scheduler and chaos dice
//!    compose.
//! 6. **Answer 0 is production** — a scheduler that always answers 0
//!    leaves every snapshot byte where the unscheduled run leaves it.

use agile_core::{
    bisect_violation, bisect_violation_with, explore, replay, AgileOptions, Checkpoint,
    ChoicePoint, ChurnSpec, CounterexampleTrace, ExploreConfig, FaultPlan, Machine, Pattern,
    ScenarioKind, Scheduler, SystemConfig, Technique, ToJson, WorkloadSpec,
};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// Small but churny spec: remaps and COW breaks generate multi-request
/// flush batches (delivery-order branching) and ticks exercise the
/// switch-timing choice, while staying cheap enough to re-execute for
/// every schedule in debug builds. The footprint is deliberately tiny
/// (32 pages) so the working set revisits TLB-resident pages within a
/// few accesses — a stale cached translation is *hit*, not just held.
fn spec(label: &str, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("mc-{label}"),
        footprint: 128 << 10,
        pattern: Pattern::Zipf { theta: 0.7 },
        write_fraction: 0.4,
        accesses: 160,
        accesses_per_tick: 40,
        churn: ChurnSpec {
            remap_every: Some(30),
            remap_pages: 4,
            cow_every: Some(50),
            cow_pages: 2,
            clock_scan_every: None,
            scan_pages: 0,
            churn_zone: 0.5,
            ctx_switch_every: Some(70),
            processes: 2,
        },
        prefault: false,
        prefault_writes: true,
        seed,
    }
}

/// Runs `spec` on `machine`, checkpointing at every tick, and returns
/// the last `keep` checkpoints, oldest first: the window the bisector
/// takes.
fn run_keeping_checkpoints(
    machine: &mut Machine,
    spec: &WorkloadSpec,
    keep: usize,
) -> Vec<Checkpoint> {
    let mut window = VecDeque::new();
    machine.run(spec, 0, None, |m, at| {
        if at.is_tick {
            if window.len() == keep {
                window.pop_front();
            }
            window.push_back(m.checkpoint(at));
        }
        ControlFlow::<()>::Continue(())
    });
    window.into()
}

#[test]
fn clean_suites_explore_every_technique_without_findings() {
    for t in Technique::all() {
        let setup = move || {
            let mut m = Machine::new(SystemConfig::new(t).with_paranoia(true));
            m.enable_shootdown_log();
            m
        };
        let spec = spec(t.label(), 7);
        let first = explore(setup, &spec, &ExploreConfig::default());
        assert!(
            first.counterexample.is_none(),
            "{}: clean machine must explore clean, got {:?}",
            t.label(),
            first.counterexample
        );
        assert!(first.states > 0, "{}: explored nothing", t.label());
        // The shadow-bearing techniques must branch (shootdown delivery
        // order at least), or the suite is vacuous. Native and Nested run
        // far leaner flush traffic — they may reach delivery choice
        // points whose batch holds only one distinct scope (nothing to
        // permute), so a single schedule is legitimate there.
        if !matches!(t, Technique::Native | Technique::Nested) {
            assert!(
                first.schedules > 1,
                "{}: no branching reached — the suite is vacuous",
                t.label()
            );
        }
        let second = explore(
            move || {
                let mut m = Machine::new(SystemConfig::new(t).with_paranoia(true));
                m.enable_shootdown_log();
                m
            },
            &spec,
            &ExploreConfig::default(),
        );
        assert_eq!(
            first.render_line(),
            second.render_line(),
            "{}: exploration is not deterministic",
            t.label()
        );
        assert_eq!(
            first.to_json().render(),
            second.to_json().render(),
            "{}: JSON report drifted between runs",
            t.label()
        );
    }
}

/// The CI-pinned discovery budget for the re-planted bug: the explorer
/// must find it before inserting this many unique states.
const REPLANT_STATE_BUDGET: u64 = 96;

/// The host same-page-merge pass that makes `drop_shadow_leaf`'s range
/// shootdown load-bearing (guest-initiated remaps are covered by the
/// guest's own invlpg; only host-initiated remaps depend on the VMM's
/// flush). `max_heals_per_access: 0` surfaces oracle findings as recorded
/// violations instead of healing them away.
fn merge_plan(at_access: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(0x4A11).scenario(at_access, ScenarioKind::HostMerge { pages: 8 });
    plan.max_heals_per_access = 0;
    plan
}

fn merge_setup(suppress: bool) -> Machine {
    let mut m = Machine::new(
        SystemConfig::new(Technique::Agile(AgileOptions::default())).with_paranoia(true),
    );
    m.enable_shootdown_log();
    m.enable_chaos(merge_plan(20));
    m.chaos_suppress_leaf_flush(suppress);
    m
}

fn replanted_setup() -> Machine {
    merge_setup(true)
}

#[test]
fn explorer_rediscovers_the_replanted_missed_flush_bug() {
    let spec = spec("replant", 7);
    // Control: the same host-merge pass with the shootdown protocol
    // intact explores clean — the finding below is the re-planted bug,
    // not the scenario.
    let control = explore(|| merge_setup(false), &spec, &ExploreConfig::default());
    assert!(
        control.counterexample.is_none(),
        "host merge with the flush intact must be invisible, got {:?}",
        control.counterexample
    );
    let report = explore(replanted_setup, &spec, &ExploreConfig::default());
    let trace = report
        .counterexample
        .as_ref()
        .expect("the re-planted drop_shadow_leaf bug must be found");
    assert!(
        report.states <= REPLANT_STATE_BUDGET,
        "bug discovery took {} states (budget {REPLANT_STATE_BUDGET})",
        report.states
    );
    assert!(
        !trace.findings.is_empty(),
        "counterexample carries its findings"
    );
    // Minimized and replayable: driving a fresh machine through the
    // trace's schedule reproduces the identical findings at the same
    // event.
    let (event, findings) = replay(replanted_setup, &spec, trace).expect("trace must replay");
    assert_eq!(event, trace.event, "replay diverged in time");
    assert_eq!(findings, trace.findings, "replay diverged in findings");
    // 1-minimality: flipping any surviving non-default choice back to
    // the default schedule loses nothing the shrinker could have taken.
    for (i, &c) in trace.choices.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let mut weakened = trace.clone();
        weakened.choices[i] = 0;
        while weakened.choices.last() == Some(&0) {
            weakened.choices.pop();
        }
        assert!(
            replay(replanted_setup, &spec, &weakened).is_none(),
            "choice {i} was not load-bearing — trace is not minimal"
        );
    }
}

#[test]
fn counterexample_trace_json_is_byte_stable_and_replays_from_parse() {
    let spec = spec("replant", 7);
    let report = explore(replanted_setup, &spec, &ExploreConfig::default());
    let trace = report.counterexample.expect("bug found");
    let rendered = trace.to_json().render();
    let parsed = CounterexampleTrace::from_json(&rendered).expect("artifact parses");
    assert_eq!(parsed, trace, "JSON round trip lost information");
    assert_eq!(
        parsed.to_json().render(),
        rendered,
        "re-render is not byte-stable"
    );
    let (_, findings) = replay(replanted_setup, &spec, &parsed).expect("parsed trace replays");
    assert_eq!(findings, trace.findings);
}

#[test]
fn bisector_pins_the_first_violating_tick() {
    let cfg = SystemConfig::new(Technique::Agile(AgileOptions::default())).with_paranoia(true);
    let spec = spec("bisect", 11);
    // Clean run: the window fills, nothing to bisect.
    let mut clean = Machine::new(cfg);
    let window = run_keeping_checkpoints(&mut clean, &spec, 4);
    assert!(!window.is_empty(), "the run kept checkpoints");
    assert!(
        bisect_violation(cfg, &spec, &window).is_none(),
        "a clean run must not bisect to a violation"
    );
    // Planted run: a host merge pass in tick 2 with its shootdown
    // suppressed leaves stale translations that paranoia records as
    // violations mid-run — after at least one clean checkpoint.
    let mut planted = Machine::new(cfg);
    planted.enable_chaos(merge_plan(44));
    planted.chaos_suppress_leaf_flush(true);
    let window = run_keeping_checkpoints(&mut planted, &spec, 4);
    assert!(
        !planted.violations().is_empty(),
        "the planted bug must violate during the recorded run"
    );
    // The chaos dice/cursor state rides along inside each checkpoint,
    // but it only restores into a machine with the plan already armed —
    // and the control-plane suppression knob is never serialized at all.
    let report = bisect_violation_with(cfg, &spec, &window, |m| {
        m.enable_chaos(merge_plan(44));
        m.chaos_suppress_leaf_flush(true);
    })
    .expect("violation bisects");
    assert!(
        !report.findings.is_empty(),
        "bisection reports what it found"
    );
    if !report.truncated {
        assert!(
            report.first_bad_tick > report.from_ticks,
            "replay starts strictly before the violation"
        );
        // Bisection on the planted machine must rediscover the same
        // class of violation the run itself recorded.
        assert!(
            planted
                .violations()
                .iter()
                .any(|v| report.findings.iter().any(|f| f.contains(&v.detail))),
            "bisector findings {:?} disagree with the run's violations",
            report.findings
        );
    }
}

#[test]
fn chaos_deferred_exploration_composes_and_heals() {
    // COW-only churn: deferred *range* shootdowns still arise (the COW
    // write-protect flushes), but no table pages are freed mid-deferral,
    // so the shootdown-log analyzer has no missed-reuse window to flag
    // and the suite's cleanliness is purely the heal paths' doing.
    let mut spec = spec("chaos", 19);
    spec.churn.remap_every = None;
    spec.churn.remap_pages = 0;
    let setup = || {
        let mut m = Machine::new(SystemConfig::new(Technique::Agile(AgileOptions::default())));
        m.enable_chaos(FaultPlan::new(0xDEFE).defer_shootdowns(200, 2));
        m
    };
    let report = explore(
        setup,
        &spec,
        &ExploreConfig {
            fuel: 3,
            max_schedules: 48,
            max_states: 4_096,
        },
    );
    assert!(
        report.counterexample.is_none(),
        "chaos heals every deferred shootdown on every schedule, got {:?}",
        report.counterexample
    );
    assert!(
        report.schedules > 1,
        "deferred delivery must branch the schedule tree"
    );
}

/// Answers 0 at every choice point: the production schedule, by contract.
#[derive(Debug)]
struct AlwaysZero;

impl Scheduler for AlwaysZero {
    fn choose(&mut self, _: ChoicePoint, _: u32) -> u32 {
        0
    }
}

#[test]
fn a_scheduler_answering_zero_is_the_production_schedule() {
    // Remaps, COW breaks, clock scans and context switches between two
    // processes give multi-request drain batches on every path.
    let mut spec = spec("zero", 23);
    spec.churn.clock_scan_every = Some(45);
    spec.churn.scan_pages = 4;
    let plans = [
        None,
        Some(
            FaultPlan::new(0x2E60)
                .drop_shootdowns(150)
                .defer_shootdowns(150, 3),
        ),
    ];
    let mut differ = Vec::new();
    for t in Technique::all() {
        for plan in &plans {
            let run = |scheduled: bool| {
                let mut m = Machine::new(SystemConfig::new(t));
                m.enable_shootdown_log();
                if let Some(plan) = plan {
                    m.enable_chaos(plan.clone());
                }
                if scheduled {
                    m.set_scheduler(Box::new(AlwaysZero));
                }
                m.run_spec(&spec);
                m.snapshot().to_bytes()
            };
            if run(false) != run(true) {
                differ.push(format!("{} chaos={}", t.label(), plan.is_some()));
            }
        }
    }
    assert!(differ.is_empty(), "answer-0 runs diverge: {differ:?}");
}
