//! `agile-mc`: the bounded interleaving explorer as a CI gate.
//!
//! Two phases, printing **only deterministic content** (`gates` runs
//! the binary twice and byte-compares the output):
//!
//! 1. **Clean suites** — every technique explores the shootdown and
//!    technique-switch protocol to the pinned budgets. Any counterexample
//!    is an ordering bug in the simulator itself: the process exits
//!    non-zero and prints the minimized replayable trace.
//! 2. **Replant teeth** — the historical `drop_shadow_leaf` missed-flush
//!    bug is re-planted behind its test-only knob and the explorer must
//!    rediscover it within [`REPLANT_STATE_BUDGET`] unique states. A
//!    control run with the flush intact must stay clean, so the finding
//!    is the bug, not the host-merge scenario that exposes it. Failing
//!    either way — bug missed, budget blown, or control dirty — exits
//!    non-zero: the gate proves the explorer keeps its teeth.
//!
//! `--json` renders the same facts as one stable sorted-key JSON object.

use agile_core::{
    explore, AgileOptions, ChurnSpec, ExploreConfig, ExploreReport, FaultPlan, Json, Machine,
    Pattern, ScenarioKind, SystemConfig, Technique, ToJson, WorkloadSpec,
};
use std::process::ExitCode;

/// The CI-pinned discovery budget: the explorer must find the re-planted
/// bug before inserting this many unique states (mirrors the
/// `crates/core/tests/explore.rs` pin).
const REPLANT_STATE_BUDGET: u64 = 96;

/// The explorer workload: churny enough to reach every decision point,
/// tiny enough (32-page footprint) that stale TLB entries are re-hit
/// rather than merely held.
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

/// The host same-page-merge pass that makes `drop_shadow_leaf`'s range
/// shootdown load-bearing; heals disabled so the oracle records instead
/// of repairing.
fn merge_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(0x4A11).scenario(20, ScenarioKind::HostMerge { pages: 8 });
    plan.max_heals_per_access = 0;
    plan
}

fn merge_setup(suppress: bool) -> Machine {
    let mut m = Machine::new(
        SystemConfig::new(Technique::Agile(AgileOptions::default())).with_paranoia(true),
    );
    m.enable_shootdown_log();
    m.enable_chaos(merge_plan());
    m.chaos_suppress_leaf_flush(suppress);
    m
}

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    let mut dirty = false;
    let budget = ExploreConfig::default();

    let clean: Vec<(Technique, ExploreReport)> = Technique::all()
        .into_iter()
        .map(|t| {
            let report = explore(
                || {
                    let mut m = Machine::new(SystemConfig::new(t).with_paranoia(true));
                    m.enable_shootdown_log();
                    m
                },
                &spec(t.label(), 7),
                &budget,
            );
            (t, report)
        })
        .collect();
    for (t, report) in &clean {
        if report.counterexample.is_some() {
            dirty = true;
        }
        if !json {
            println!("technique={} {}", t.label(), report.render_line());
        }
    }

    let control = explore(|| merge_setup(false), &spec("replant", 7), &budget);
    let replant = explore(|| merge_setup(true), &spec("replant", 7), &budget);
    let found = replant.counterexample.is_some() && replant.states <= REPLANT_STATE_BUDGET;
    if control.counterexample.is_some() || !found {
        dirty = true;
    }
    if json {
        let out = Json::obj(vec![
            (
                "clean",
                Json::Arr(
                    clean
                        .iter()
                        .map(|(t, r)| {
                            Json::obj(vec![
                                ("report", r.to_json()),
                                ("technique", Json::Str(t.label().to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "replant",
                Json::obj(vec![
                    ("budget", Json::UInt(REPLANT_STATE_BUDGET)),
                    ("control", control.to_json()),
                    ("found", Json::Bool(found)),
                    ("report", replant.to_json()),
                ]),
            ),
        ]);
        println!("{}", out.render());
    } else {
        println!(
            "# replant: drop_shadow_leaf missed-flush bug, budget {REPLANT_STATE_BUDGET} states"
        );
        println!("control {}", control.render_line());
        println!("replant {}", replant.render_line());
        match &replant.counterexample {
            Some(trace) => println!("trace {}", trace.to_json().render()),
            None => println!("trace null"),
        }
    }

    if dirty {
        eprintln!(
            "mc: clean suite violated, control dirty, or the re-planted bug escaped the gate"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
