//! Bounded interleaving explorer: stateless model checking of the
//! shootdown and technique-switch protocol.
//!
//! The simulator's single deterministic schedule hides ordering bugs —
//! both historical protocol bugs this repo has caught (the
//! `drop_shadow_leaf` missed-flush window, the same-level switch-tie
//! nondeterminism) were only visible under a schedule nobody happened to
//! run. This module reifies the machine's concurrency decision points
//! behind the [`Scheduler`] trait and exhaustively enumerates every
//! schedule up to a configurable branching budget, checking the paranoia
//! oracles, the transition differ, and the static analyzer at every
//! explored state.
//!
//! Three decision points exist (see [`ChoicePoint`]):
//!
//! - **Flush delivery order** — shootdown IPIs race each other, so the
//!   order in which one drained batch's requests land is scheduler-owned
//!   (`Vmm::take_pending_flushes` sorts canonically; alternative 0 is
//!   that order, the production schedule).
//! - **Deferred-shootdown timing** — a chaos-deferred IPI that has come
//!   due may slip additional accesses before landing.
//! - **Technique-switch timing** — the agile interval policy may run at
//!   its tick boundary or postpone to the next one, modeling policy work
//!   racing the guest.
//!
//! The explorer is *stateless* in the model-checking sense: each schedule
//! re-executes the workload from scratch under a [`Scheduler`] that
//! replays a scripted choice prefix and defaults after it. Each distinct
//! state is checked once: an event that ends inside the replayed prefix
//! reproduces a state the parent schedule already checked and keyed —
//! the same choices give the same state, the determinism the dedup key
//! itself relies on — so it skips the checks and the snapshot. Visited
//! states are deduplicated by a hash of the machine's byte-stable
//! snapshot plus the event cursor, so schedules that commute back into
//! an already-seen state stop spawning extensions. Identical-scope flush
//! twins are never branched on at all — the sleep-set-style reduction
//! argued sound in DESIGN §5j.
//!
//! On a violating state the failing schedule is shrunk to a minimal
//! [`CounterexampleTrace`]: a byte-stable JSON artifact whose choice
//! script replays through the same runner path to the identical findings.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

use crate::machine::Machine;
use crate::runner::json::Json;
use crate::snapshot::machine_findings;
use agile_workloads::{Workload, WorkloadSpec};

/// One concurrency decision point reached during a run. The machine
/// passes the point's identity to [`Scheduler::choose`] together with the
/// number of alternatives; alternative 0 is always the behavior of the
/// production runtime (the single built-in schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoicePoint {
    /// Which pending IPI-carried flush request of the current drain batch
    /// is delivered next. Alternatives index the batch's *distinct* flush
    /// scopes in canonical order; `remaining` counts all undelivered
    /// IPI requests, so `remaining - alternatives` twins were pruned by
    /// the sleep-set reduction at this pick.
    FlushPick {
        /// Drain-batch id the pick belongs to.
        batch: u64,
        /// Undelivered IPI-carried requests at this pick (≥ alternatives).
        remaining: u32,
    },
    /// Whether a due chaos-deferred shootdown batch lands at this access
    /// boundary (0) or slips one more access (1).
    DeferredDelivery,
    /// Whether the agile interval policy runs at this tick boundary (0)
    /// or postpones to the next tick (1).
    SwitchTiming,
}

/// An interleaving scheduler: the machine consults it at every
/// [`ChoicePoint`] when installed via `Machine::set_scheduler`.
///
/// `choose` must return a value in `0..alternatives`; the machine clamps
/// out-of-range answers. A scheduler that always returns 0 reproduces
/// the production runtime's single schedule exactly.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Picks one of `alternatives` behaviors at `point`.
    fn choose(&mut self, point: ChoicePoint, alternatives: u32) -> u32;
}

/// What one choice point looked like when a scripted run passed it.
#[derive(Debug, Clone, Copy)]
struct TrailEntry {
    point: ChoicePoint,
    /// True alternative count at the point.
    alternatives: u32,
    chosen: u32,
    /// The branching budget was exhausted: the DFS must not extend here.
    capped: bool,
}

/// Replays a scripted choice prefix and defaults to 0 after it, recording
/// every choice point into a shared trail for the explorer to extend.
#[derive(Debug)]
struct ScriptedScheduler {
    script: Vec<u32>,
    fuel: usize,
    branches: usize,
    trail: Arc<Mutex<Vec<TrailEntry>>>,
}

impl Scheduler for ScriptedScheduler {
    fn choose(&mut self, point: ChoicePoint, alternatives: u32) -> u32 {
        let mut trail = self.trail.lock().expect("trail poisoned");
        let idx = trail.len();
        let capped = alternatives > 1 && self.branches >= self.fuel;
        if alternatives > 1 && !capped {
            self.branches += 1;
        }
        let chosen = self
            .script
            .get(idx)
            .copied()
            .unwrap_or(0)
            .min(alternatives.saturating_sub(1));
        trail.push(TrailEntry {
            point,
            alternatives,
            chosen,
            capped,
        });
        chosen
    }
}

/// Exploration budgets. Defaults are sized for the CI suite: deep enough
/// to branch on every decision point a small workload reaches, bounded
/// enough to finish in seconds in debug builds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum *branchable* choice points per schedule; points past the
    /// budget take their scripted/default value but spawn no extensions.
    pub fuel: usize,
    /// Maximum schedules (workload re-executions) to run.
    pub max_schedules: u64,
    /// Maximum unique states to insert into the dedup set. Checked before
    /// each schedule, so the last schedule run can insert states past it.
    pub max_states: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            fuel: 6,
            max_schedules: 512,
            max_states: 16_384,
        }
    }
}

/// A minimized, replayable schedule that drives the machine into a
/// violating state — the explorer's counterexample artifact.
///
/// The JSON rendering ([`CounterexampleTrace::to_json`]) has a stable
/// sorted-key schema and round-trips through
/// [`CounterexampleTrace::from_json`], so the artifact can be stored,
/// byte-compared across runs, and replayed later with [`replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterexampleTrace {
    /// Non-default choice script: the value fed to choice point `i`
    /// (points past the end take alternative 0). Minimal in the sense
    /// that flipping any single entry back to 0 loses the violation.
    pub choices: Vec<u32>,
    /// Configuration label of the violating machine.
    pub config: String,
    /// 1-based workload event at which the findings surfaced.
    pub event: u64,
    /// The findings at the violating state, one per line, exactly as
    /// [`replay`] reproduces them.
    pub findings: Vec<String>,
    /// Workload name the schedule ran.
    pub workload: String,
}

impl CounterexampleTrace {
    /// The trace as a stable sorted-key JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "choices",
                Json::Arr(
                    self.choices
                        .iter()
                        .map(|&c| Json::UInt(u64::from(c)))
                        .collect(),
                ),
            ),
            ("config", Json::Str(self.config.clone())),
            ("event", Json::UInt(self.event)),
            (
                "findings",
                Json::Arr(self.findings.iter().cloned().map(Json::Str).collect()),
            ),
            ("workload", Json::Str(self.workload.clone())),
        ])
    }

    /// Parses a trace rendered by [`CounterexampleTrace::to_json`].
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a missing/mistyped field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let choices = match v.get("choices") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|c| {
                    c.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| "bad choice".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()?,
            _ => return Err("missing choices".into()),
        };
        let findings = match v.get("findings") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "bad finding".to_string())
                })
                .collect::<Result<Vec<String>, String>>()?,
            _ => return Err("missing findings".into()),
        };
        Ok(CounterexampleTrace {
            choices,
            config: v
                .get("config")
                .and_then(Json::as_str)
                .ok_or("missing config")?
                .to_string(),
            event: v
                .get("event")
                .and_then(Json::as_u64)
                .ok_or("missing event")?,
            findings,
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing workload")?
                .to_string(),
        })
    }
}

/// What a bounded exploration covered and found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Schedules executed (workload re-runs, shrinking excluded).
    pub schedules: u64,
    /// Unique explored states (fresh state keys at event boundaries).
    pub states: u64,
    /// Event boundaries whose state was already visited — the measure of
    /// how often distinct schedules commute back together. Includes the
    /// boundaries of each extension's replayed prefix, whose states the
    /// parent schedule visited.
    pub deduped: u64,
    /// Extension alternatives suppressed because their branch state was
    /// already visited via another schedule.
    pub pruned_dedup: u64,
    /// Delivery permutations suppressed by the identical-scope sleep-set
    /// reduction inside the machine's scheduled drain.
    pub pruned_commute: u64,
    /// Extension alternatives suppressed by the `fuel` branching budget.
    pub pruned_capped: u64,
    /// Total choice points passed across all schedules.
    pub choice_points: u64,
    /// A schedule or state budget stopped the search before the tree was
    /// exhausted.
    pub budget_exhausted: bool,
    /// The first violating schedule found, minimized — `None` when every
    /// explored state was clean.
    pub counterexample: Option<CounterexampleTrace>,
}

impl ExploreReport {
    /// Deterministic one-line summary (the `mc` gate's table row).
    #[must_use]
    pub fn render_line(&self) -> String {
        format!(
            "schedules={} states={} deduped={} pruned_dedup={} pruned_commute={} \
             pruned_capped={} choice_points={} exhausted={} violation={}",
            self.schedules,
            self.states,
            self.deduped,
            self.pruned_dedup,
            self.pruned_commute,
            self.pruned_capped,
            self.choice_points,
            if self.budget_exhausted {
                "budget"
            } else {
                "tree"
            },
            self.counterexample.is_some(),
        )
    }

    /// The report as a stable sorted-key JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("budget_exhausted", Json::Bool(self.budget_exhausted)),
            ("choice_points", Json::UInt(self.choice_points)),
            (
                "counterexample",
                self.counterexample
                    .as_ref()
                    .map_or(Json::Null, CounterexampleTrace::to_json),
            ),
            ("deduped", Json::UInt(self.deduped)),
            ("pruned_capped", Json::UInt(self.pruned_capped)),
            ("pruned_commute", Json::UInt(self.pruned_commute)),
            ("pruned_dedup", Json::UInt(self.pruned_dedup)),
            ("schedules", Json::UInt(self.schedules)),
            ("states", Json::UInt(self.states)),
        ])
    }
}

/// One event boundary of a scripted run: the machine's state key and how
/// many choice points had been passed when the event completed.
struct Boundary {
    /// Visited-set key of the state, or `None` when the event replayed the
    /// parent schedule's prefix (the parent keyed that state).
    key: Option<u64>,
    trail_len: usize,
}

/// Visited-set key of `machine`'s state after `events` workload events:
/// the byte-stable snapshot plus the workload cursor. Equal keys mean
/// "same state, same remaining events" — the suffix tree behind them is
/// identical by determinism. The key never leaves the process, so only
/// equality matters and the std hasher serves; the printed and pinned
/// digest stays [`crate::snapshot::digest`].
fn state_key(machine: &Machine, events: u64) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(&machine.snapshot().to_bytes());
    h.write_u64(events);
    h.finish()
}

struct RunOutcome {
    trail: Vec<TrailEntry>,
    boundaries: Vec<Boundary>,
    violation: Option<(u64, Vec<String>)>,
}

/// Executes `spec` on a fresh machine from `setup` under the scripted
/// schedule, checking oracles and analyzer after every event that ends
/// at or past `prefix` choice points.
///
/// An event that ends before the trail reaches `prefix` entries has made
/// only the script's first choices, so when those replay a schedule that
/// already ran clean, the state is one that run checked and keyed: the
/// event skips the checks and the key, and its boundary records `None`.
/// The explorer passes `script.len()` (an extension is its parent's
/// chosen prefix plus one new alternative); shrinking and replay pass 0.
fn run_one<F: Fn() -> Machine>(
    setup: &F,
    spec: &WorkloadSpec,
    script: &[u32],
    fuel: usize,
    prefix: usize,
) -> RunOutcome {
    let mut machine = setup();
    let trail: Arc<Mutex<Vec<TrailEntry>>> = Arc::default();
    machine.set_scheduler(Box::new(ScriptedScheduler {
        script: script.to_vec(),
        fuel,
        branches: 0,
        trail: Arc::clone(&trail),
    }));
    let mut boundaries = Vec::new();
    let mut violation = None;
    let mut events: u64 = 0;
    for event in Workload::new(spec.clone()) {
        machine.run_event(event);
        events += 1;
        let trail_len = trail.lock().expect("trail poisoned").len();
        let key = if trail_len < prefix {
            // The skipped `lint` would have logged allocator reuse into
            // the shootdown log, which is snapshot state: keep that.
            machine.note_frame_reuse();
            None
        } else {
            let findings = machine_findings(&mut machine);
            if !findings.is_empty() {
                violation = Some((events, findings));
                break;
            }
            Some(state_key(&machine, events))
        };
        boundaries.push(Boundary { key, trail_len });
    }
    drop(machine);
    let trail = trail.lock().expect("trail poisoned").clone();
    RunOutcome {
        trail,
        boundaries,
        violation,
    }
}

/// Shrinks a violating choice script: repeatedly flips any non-default
/// choice back to 0 (and drops trailing defaults) while the violation
/// persists. The result is 1-minimal — flipping any single surviving
/// non-default entry loses the violation.
fn shrink<F: Fn() -> Machine>(
    setup: &F,
    spec: &WorkloadSpec,
    fuel: usize,
    mut best: Vec<u32>,
) -> Vec<u32> {
    while best.last() == Some(&0) {
        best.pop();
    }
    loop {
        let mut improved = false;
        for i in 0..best.len() {
            if best[i] == 0 {
                continue;
            }
            let mut cand = best.clone();
            cand[i] = 0;
            while cand.last() == Some(&0) {
                cand.pop();
            }
            if run_one(setup, spec, &cand, fuel, 0).violation.is_some() {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Explores every schedule of `spec` up to the budgets in `config`.
///
/// `setup` builds one fresh machine per schedule — arm paranoia,
/// shootdown logging, chaos plans, or planted-bug knobs there; the
/// explorer installs its own scripted [`Scheduler`] on top. Every
/// distinct state is checked once (paranoia violations, transition-differ
/// findings, static-analyzer diagnostics): each schedule checks every
/// workload event except those that end inside its replayed prefix,
/// whose states the parent schedule checked — the same choices give the
/// same state. The first violating schedule is shrunk to a minimal
/// [`CounterexampleTrace`] and the search stops. Everything is
/// deterministic: the same inputs produce byte-identical reports.
pub fn explore<F: Fn() -> Machine>(
    setup: F,
    spec: &WorkloadSpec,
    config: &ExploreConfig,
) -> ExploreReport {
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    let mut visited: HashSet<u64> = HashSet::new();
    let mut report = ExploreReport::default();
    while let Some(script) = stack.pop() {
        if report.schedules >= config.max_schedules || report.states >= config.max_states {
            report.budget_exhausted = true;
            break;
        }
        report.schedules += 1;
        let run = run_one(&setup, spec, &script, config.fuel, script.len());
        report.choice_points += run.trail.len() as u64;
        let fresh: Vec<bool> = run
            .boundaries
            .iter()
            .map(|b| b.key.is_some_and(|k| visited.insert(k)))
            .collect();
        for &f in &fresh {
            if f {
                report.states += 1;
            } else {
                report.deduped += 1;
            }
        }
        for entry in &run.trail {
            if let ChoicePoint::FlushPick { remaining, .. } = entry.point {
                report.pruned_commute += u64::from(remaining) - u64::from(entry.alternatives);
            }
            if entry.capped {
                report.pruned_capped += u64::from(entry.alternatives) - 1;
            }
        }
        if let Some((event, findings)) = run.violation {
            let chosen: Vec<u32> = run.trail.iter().map(|t| t.chosen).collect();
            let minimized = shrink(&setup, spec, config.fuel, chosen);
            let rerun = run_one(&setup, spec, &minimized, config.fuel, 0);
            let (event, findings) = rerun.violation.unwrap_or((event, findings));
            report.counterexample = Some(CounterexampleTrace {
                choices: minimized,
                config: setup().snapshot().config_label().to_string(),
                event,
                findings,
                workload: spec.name.clone(),
            });
            break;
        }
        // Extend at every branchable choice point past the scripted
        // prefix. Pushed deepest-first so the stack pops schedules in
        // lexicographic order — pinned state counts depend on it.
        let mut extensions: Vec<Vec<u32>> = Vec::new();
        for (i, entry) in run.trail.iter().enumerate() {
            if i < script.len() || entry.capped || entry.alternatives <= 1 {
                continue;
            }
            // Dedup prune: if the state *entering* this choice's event
            // was already visited via a different schedule (a boundary
            // past this run's own divergence point that was not fresh),
            // its whole subtree — including these alternatives — has
            // been or will be explored from the first visit.
            let converged = run
                .boundaries
                .iter()
                .rposition(|b| b.trail_len <= i)
                .is_some_and(|bi| run.boundaries[bi].trail_len >= script.len() && !fresh[bi]);
            if converged {
                report.pruned_dedup += u64::from(entry.alternatives) - 1;
                continue;
            }
            for alt in 1..entry.alternatives {
                let mut s: Vec<u32> = run.trail[..i].iter().map(|t| t.chosen).collect();
                s.push(alt);
                extensions.push(s);
            }
        }
        while let Some(s) = extensions.pop() {
            stack.push(s);
        }
    }
    report
}

/// Replays a [`CounterexampleTrace`]'s choice script on a fresh machine
/// from `setup` and returns the violating `(event, findings)` it drives
/// the run into, or `None` if the run stays clean (wrong setup or spec).
pub fn replay<F: Fn() -> Machine>(
    setup: F,
    spec: &WorkloadSpec,
    trace: &CounterexampleTrace,
) -> Option<(u64, Vec<String>)> {
    run_one(&setup, spec, &trace.choices, trace.choices.len().max(1), 0).violation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_json_round_trips_with_sorted_keys() {
        let trace = CounterexampleTrace {
            choices: vec![0, 2, 1],
            config: "4K:A".into(),
            event: 17,
            findings: vec!["violation[TlbHit]: stale".into()],
            workload: "unit".into(),
        };
        let text = trace.to_json().render();
        assert!(text.starts_with("{\"choices\":[0,2,1],\"config\":"));
        let back = CounterexampleTrace::from_json(&text).expect("parses");
        assert_eq!(back, trace);
        assert_eq!(back.to_json().render(), text, "render is byte-stable");
    }

    #[test]
    fn scripted_scheduler_defaults_and_clamps() {
        let trail: Arc<Mutex<Vec<TrailEntry>>> = Arc::default();
        let mut s = ScriptedScheduler {
            script: vec![9],
            fuel: 1,
            branches: 0,
            trail: Arc::clone(&trail),
        };
        // Script value 9 clamps to the last alternative.
        assert_eq!(s.choose(ChoicePoint::SwitchTiming, 2), 1);
        // Past the script: default 0; past the fuel: capped.
        assert_eq!(s.choose(ChoicePoint::DeferredDelivery, 2), 0);
        let t = trail.lock().expect("trail");
        assert!(!t[0].capped);
        assert!(t[1].capped);
    }

    /// The `mc` gate's workload at its seed.
    fn mc_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "mc-prefix".into(),
            footprint: 128 << 10,
            pattern: agile_workloads::Pattern::Zipf { theta: 0.7 },
            write_fraction: 0.4,
            accesses: 160,
            accesses_per_tick: 40,
            churn: agile_workloads::ChurnSpec {
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
            seed: 7,
        }
    }

    #[test]
    fn skipped_prefix_events_reach_the_states_a_full_run_keys() {
        use agile_vmm::{AgileOptions, ShspOptions, Technique};
        let spec = mc_spec();
        let fuel = 4;
        for t in [
            Technique::Shadow,
            Technique::Agile(AgileOptions::default()),
            Technique::Shsp(ShspOptions::default()),
        ] {
            let setup = || {
                let mut cfg = crate::config::SystemConfig::new(t);
                cfg.paranoia = true;
                let mut m = Machine::new(cfg);
                m.enable_shootdown_log();
                m
            };
            let root = run_one(&setup, &spec, &[], fuel, 0);
            assert!(root.violation.is_none());
            let root_keys: HashSet<u64> = root.boundaries.iter().filter_map(|b| b.key).collect();
            let (mut skipped, mut checked) = (0, 0);
            for (i, entry) in root.trail.iter().enumerate() {
                if entry.capped || entry.alternatives <= 1 {
                    continue;
                }
                let mut script: Vec<u32> = root.trail[..i].iter().map(|e| e.chosen).collect();
                script.push(1);
                let fast = run_one(&setup, &spec, &script, fuel, script.len());
                let full = run_one(&setup, &spec, &script, fuel, 0);
                assert!(fast.violation.is_none() && full.violation.is_none());
                assert_eq!(fast.boundaries.len(), full.boundaries.len());
                for (event, (f, b)) in fast.boundaries.iter().zip(&full.boundaries).enumerate() {
                    let key = b.key.expect("a run with no prefix keys every state");
                    let at = format!("{} extension at choice {i}, event {}", t.label(), event + 1);
                    match f.key {
                        Some(k) => {
                            assert_eq!(k, key, "post-prefix state differs: {at}");
                            checked += 1;
                        }
                        None => {
                            assert!(root_keys.contains(&key), "prefix state unseen: {at}");
                            skipped += 1;
                        }
                    }
                }
            }
            assert!(skipped > 0 && checked > 0, "{}: vacuous", t.label());
        }
    }
}
