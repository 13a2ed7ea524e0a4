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
//! replays a scripted choice prefix and defaults after it. A run depends
//! only on its script, so schedules run on every core: helper threads run
//! the scripts waiting on the DFS stack ahead of time, and one committing
//! thread takes their outcomes in the stack's order, owning the visited
//! set, every count and every extension, so the report is the one a
//! sequential search gives (see [`explore`]). Each distinct
//! state is checked once: an event that ends inside the replayed prefix
//! reproduces a state the parent schedule already checked and keyed —
//! the same choices give the same state, the determinism the dedup key
//! itself relies on — so it skips the checks and the key. Visited states
//! are deduplicated by a hash of the machine's byte-stable snapshot
//! payload plus the event cursor (`Machine::state_key`), so schedules
//! that commute back into an already-seen state stop spawning extensions.
//! The key never encodes the whole snapshot: it combines cached hashes of
//! the snapshot's parts (table pages, cache sets and slots, per-process
//! states and VMAs, the guest memory map, the shootdown log), re-hashing
//! a part only when its generation moved and skipping a structure whose
//! group generation stands still, with a word-at-a-time hash; the
//! analyzer's race pass likewise folds only the shootdown events logged
//! since the last check. So a state costs about what its event changed.
//! Identical-scope flush twins are never branched on at all — the
//! sleep-set-style reduction argued sound in DESIGN §5j.
//!
//! On a violating state the failing schedule is shrunk to a minimal
//! [`CounterexampleTrace`]: a byte-stable JSON artifact whose choice
//! script replays through the same runner path to the identical findings.

use std::collections::{HashMap, HashSet};
use std::num::NonZero;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::machine::Machine;
use crate::snapshot::machine_findings;
use agile_types::{Enc, Json, StateSink, ToJson};
use agile_workloads::WorkloadSpec;

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

/// Exploration budgets. The default is the `mc` gate's budget (fuel 4, 96
/// schedules, 8,192 states): deep enough to branch on every decision point
/// a small workload reaches, bounded enough to finish in seconds in debug
/// builds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum *branchable* choice points per schedule; points past the
    /// budget take their scripted/default value but spawn no extensions.
    pub fuel: usize,
    /// Maximum schedules (workload re-executions) to commit. Helpers may
    /// have run a few more by the time the search stops; their outcomes
    /// are discarded.
    pub max_schedules: u64,
    /// Maximum unique states to insert into the dedup set. Checked before
    /// each schedule, so the last schedule run can insert states past it.
    pub max_states: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            fuel: 4,
            max_schedules: 96,
            max_states: 8_192,
        }
    }
}

agile_types::record! {
    json;
    /// A minimized, replayable schedule that drives the machine into a
    /// violating state — the explorer's counterexample artifact.
    ///
    /// The JSON rendering ([`ToJson`]) is the fields in declaration order,
    /// which is sorted-key order, and round-trips through
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
}

impl CounterexampleTrace {
    /// Parses a trace rendered by its [`ToJson`] impl.
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
    /// Schedules committed (workload re-runs; shrinking and the runs
    /// discarded past a stop excluded).
    pub schedules: u64,
    /// Unique explored states (fresh state keys at event boundaries).
    pub states: u64,
    /// Event boundaries whose state was already visited — the measure of
    /// how often distinct schedules commute back together. Includes the
    /// boundaries of each extension's replayed prefix, whose states the
    /// parent schedule visited. A state counts as visited when its key
    /// (`Machine::state_key`) was seen; keys built from cached part
    /// hashes fall into the same classes as snapshot bytes, so this count
    /// is the one a whole-snapshot key gives.
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

    /// The report as a stable sorted-key JSON object. Written out rather
    /// than derived: its keys are sorted, while its fields are grouped by
    /// meaning.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("budget_exhausted", Json::Bool(self.budget_exhausted)),
            ("choice_points", Json::UInt(self.choice_points)),
            ("counterexample", self.counterexample.to_json()),
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

/// The hashes behind [`Machine::state_key`], cached between calls on one
/// machine.
///
/// The key hashes exactly the snapshot's payload bytes, split the way the
/// machine saves them through a [`StateSink`]:
///
/// - **parts**: each live table page, each set or slot of every
///   set-associative cache (TLB partitions, page-walk-cache skip tables,
///   nested TLB, context-pointer cache), the guest memory map, each
///   process's VMAs and the measurement baseline. Each part hashes as
///   `H(group, id, bytes)`, where the group is the structure's position in
///   the save; the key takes their wrapping sum. A part whose `(id,
///   generation)` matches the previous call's reuses its hash, and a group
///   whose own generation matches skips its parts altogether.
/// - **the log**: the shootdown log's events, folded in order into one
///   running hash from a cursor, since the log only grows.
/// - **the fresh part**: everything else, each part's header and counts
///   included, re-encoded into one reused buffer on every call.
///
/// Equal keys therefore mean equal snapshot bytes (up to 64-bit hash
/// collisions, as with any hashed key): the fresh bytes fix every header,
/// and the group and id in each part's hash fix where its bytes sit. The
/// cache lives with its machine: a group is known by its position, which
/// the machine's configuration fixes, and [`Machine::restore_from`]
/// starts a fresh cache.
#[derive(Debug)]
pub(crate) struct PartHashes {
    /// Per group, in save order, as of the last call.
    groups: Vec<Group>,
    fresh: Enc,
    scratch: Enc,
    /// Log items folded into `log_hash` so far.
    log_len: usize,
    log_hash: u64,
}

impl Default for PartHashes {
    fn default() -> Self {
        PartHashes {
            groups: Vec::new(),
            fresh: Enc::new(),
            scratch: Enc::new(),
            log_len: 0,
            log_hash: LOG_SEED,
        }
    }
}

#[derive(Debug, Default)]
struct Group {
    /// The group's generation at the last call; `None` before the first.
    generation: Option<(u64, u64)>,
    /// Wrapping sum of `parts`' hashes.
    sum: u64,
    /// By ascending id; a dense group's part `i` has id `i`.
    parts: Vec<PartHash>,
}

#[derive(Debug, Clone, Copy)]
struct PartHash {
    id: u64,
    generation: (u64, u64),
    hash: u64,
}

/// The running hash's start before any log item.
const LOG_SEED: u64 = 0x243f_6a88_85a3_08d3;

/// Constants of the key hash, from the hexadecimal digits of pi and e.
const K: [u64; 4] = [
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d1,
    0x082e_fa98_ec4e_6c89,
    0xb7e1_5162_8aed_2a6b,
];

/// The folded 128-bit product of `a` and `b`: each output bit depends on
/// every input bit of both.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Combines two hashes, order-sensitively.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    fold(a ^ K[0], b ^ K[1])
}

/// The key's 64-bit hash of `bytes` under `seed`. It reads the bytes 32 at
/// a time into two lanes, each folding a pair of little-endian words into
/// its state through one 128-bit multiply, zero-pads the tail, and
/// finishes with two more folds that take in both lanes and the length,
/// so every output bit depends on every input bit. It is not keyed
/// against adversaries: the explorer's inputs are its own states.
fn key_hash(seed: u64, bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
    let lanes = |(a, b): (u64, u64), block: &[u8]| {
        (
            fold(word(&block[..8]) ^ a, word(&block[8..16]) ^ K[3]),
            fold(word(&block[16..24]) ^ b, word(&block[24..]) ^ K[2]),
        )
    };
    let mut state = (seed ^ K[2], seed ^ K[3]);
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        state = lanes(state, block);
    }
    let tail = blocks.remainder();
    let mut last = [0u8; 32];
    last[..tail.len()].copy_from_slice(tail);
    let (a, b) = lanes(state, &last);
    mix(mix(a, b), bytes.len() as u64 ^ seed)
}

impl PartHashes {
    /// The key of `machine` after `events` workload events.
    pub(crate) fn key(&mut self, machine: &Machine, events: u64) -> u64 {
        self.fresh.clear();
        let mut sink = KeySink {
            cache: self,
            open: None,
            at: 0,
            sum: 0,
        };
        machine.save_to(&mut sink);
        sink.close();
        let seed = mix(mix(sink.sum, self.log_hash), events);
        key_hash(seed, self.fresh.as_bytes())
    }
}

/// One pass of [`PartHashes::key`] over the machine's save. Each group's
/// hashes are updated in place: a part that kept its id and generation
/// keeps its hash, and ids that vanished or appeared since the last call
/// are removed or inserted.
struct KeySink<'a> {
    cache: &'a mut PartHashes,
    /// The last group opened, and whether its parts follow.
    open: Option<(usize, bool)>,
    /// Position of the next part in the open group.
    at: usize,
    /// Wrapping sum of the closed groups' sums.
    sum: u64,
}

impl KeySink<'_> {
    /// Closes the open group: drops the parts it no longer has and folds
    /// its sum into the key's.
    fn close(&mut self) {
        let Some((g, rebuilt)) = self.open else {
            return;
        };
        let group = &mut self.cache.groups[g];
        if rebuilt {
            for gone in group.parts.drain(self.at..) {
                group.sum = group.sum.wrapping_sub(gone.hash);
            }
        }
        self.sum = self.sum.wrapping_add(group.sum);
    }
}

/// `H(group, id, bytes)` of one part whose bytes `encode` writes.
fn part_hash(scratch: &mut Enc, g: usize, id: u64, encode: impl FnOnce(&mut Enc)) -> u64 {
    scratch.clear();
    encode(scratch);
    key_hash(mix(g as u64, id), scratch.as_bytes())
}

impl StateSink for KeySink<'_> {
    fn enc(&mut self) -> &mut Enc {
        &mut self.cache.fresh
    }

    fn group(&mut self, generation: (u64, u64)) -> bool {
        self.close();
        let g = self.open.map_or(0, |(g, _)| g + 1);
        let groups = &mut self.cache.groups;
        if groups.len() == g {
            groups.push(Group::default());
        }
        let group = &mut groups[g];
        let rebuild = group.generation != Some(generation);
        group.generation = Some(generation);
        self.open = Some((g, rebuild));
        self.at = 0;
        rebuild
    }

    #[inline]
    fn part(&mut self, id: u64, generation: (u64, u64), encode: impl FnOnce(&mut Enc)) {
        let Some((g, true)) = self.open else {
            panic!("a part outside any open group");
        };
        let PartHashes {
            groups, scratch, ..
        } = &mut *self.cache;
        let group = &mut groups[g];
        let at = self.at;
        self.at += 1;
        while group.parts.get(at).is_some_and(|p| p.id < id) {
            let gone = group.parts.remove(at);
            group.sum = group.sum.wrapping_sub(gone.hash);
        }
        let old = match group.parts.get(at) {
            Some(p) if p.id == id && p.generation == generation => return,
            Some(p) if p.id == id => Some(p.hash),
            _ => None,
        };
        let part = PartHash {
            id,
            generation,
            hash: part_hash(scratch, g, id, encode),
        };
        group.sum = group.sum.wrapping_add(part.hash);
        match old {
            Some(hash) => {
                group.sum = group.sum.wrapping_sub(hash);
                group.parts[at] = part;
            }
            None => group.parts.insert(at, part),
        }
    }

    fn dense(
        &mut self,
        len: usize,
        generation: impl Fn(usize) -> (u64, u64),
        mut encode: impl FnMut(usize, &mut Enc),
    ) {
        let Some((g, true)) = self.open else {
            panic!("dense parts outside any open group");
        };
        self.at = len;
        let PartHashes {
            groups, scratch, ..
        } = &mut *self.cache;
        let group = &mut groups[g];
        for i in 0..len {
            let generation = generation(i);
            if group
                .parts
                .get(i)
                .is_some_and(|p| p.generation == generation)
            {
                continue;
            }
            let id = i as u64;
            let part = PartHash {
                id,
                generation,
                hash: part_hash(scratch, g, id, |e| encode(i, e)),
            };
            group.sum = group.sum.wrapping_add(part.hash);
            match group.parts.get_mut(i) {
                Some(old) => {
                    group.sum = group.sum.wrapping_sub(old.hash);
                    *old = part;
                }
                None => group.parts.push(part),
            }
        }
    }

    fn append_only(&mut self, len: usize, mut encode: impl FnMut(usize, &mut Enc)) {
        let cache = &mut *self.cache;
        if len < cache.log_len {
            cache.log_len = 0;
            cache.log_hash = LOG_SEED;
        }
        for i in cache.log_len..len {
            cache.scratch.clear();
            encode(i, &mut cache.scratch);
            cache.log_hash = mix(cache.log_hash, key_hash(i as u64, cache.scratch.as_bytes()));
        }
        cache.log_len = len;
    }
}

struct RunOutcome {
    trail: Vec<TrailEntry>,
    boundaries: Vec<Boundary>,
    violation: Option<(u64, Vec<String>)>,
}

/// How a run keys a checked state: the machine and its event cursor in,
/// the visited-set key out. Every thread that runs schedules calls it.
type Keyer<'a> = &'a (dyn Fn(&mut Machine, u64) -> u64 + Sync);

/// A violating run the search stopped at: its chosen trail, and the
/// violating event with its findings.
type Violation = (Vec<u32>, (u64, Vec<String>));

/// Executes `spec` on a fresh machine from `setup` under the scripted
/// schedule, checking oracles and analyzer after every event that ends
/// at or past `prefix` choice points and keying its state with `key`.
///
/// An event that ends before the trail reaches `prefix` entries has made
/// only the script's first choices, so when those replay a schedule that
/// already ran clean, the state is one that run checked and keyed: the
/// event skips the checks and the key, and its boundary records `None`.
/// The explorer passes `script.len()` (an extension is its parent's
/// chosen prefix plus one new alternative); shrinking and replay pass 0,
/// and a keyer that returns 0, since they read only the violation.
fn run_one<F: Fn() -> Machine>(
    setup: &F,
    spec: &WorkloadSpec,
    script: &[u32],
    fuel: usize,
    prefix: usize,
    key: Keyer,
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
    let (_, violation) = machine.run(spec, 0, None, |machine, at| {
        let trail_len = trail.lock().expect("trail poisoned").len();
        let key = if trail_len < prefix {
            // The skipped `lint` would have logged allocator reuse into
            // the shootdown log, which is snapshot state: keep that.
            machine.note_frame_reuse();
            None
        } else {
            let findings = machine_findings(machine);
            if !findings.is_empty() {
                return ControlFlow::Break((at.events, findings));
            }
            Some(key(machine, at.events))
        };
        boundaries.push(Boundary { key, trail_len });
        ControlFlow::Continue(())
    });
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
            if run_one(setup, spec, &cand, fuel, 0, &|_, _| 0)
                .violation
                .is_some()
            {
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
///
/// Schedules run on every core. The search is a DFS over choice scripts
/// kept on a stack, and the calling thread commits it: it pops the
/// scripts in order, inserts each run's state keys into the visited set,
/// counts the run and pushes its extensions. A run depends only on its
/// script, never on what was visited before it, so helper threads run the
/// top-most scripts still waiting on the stack and hand each outcome back
/// under its script; the committing thread waits for a helper's outcome,
/// or runs a script itself when no helper has started it. Every count,
/// the extension order, both budgets and the counterexample therefore
/// come out as a one-thread search gives them. That is why the helpers
/// have no setting: there is one of them per core beyond the caller's
/// ([`std::thread::available_parallelism`]), and the core count is only
/// queried, and helpers only spawned, once a second script is waiting. A
/// one-schedule exploration, or one on a one-core host, starts no thread.
/// Runs a helper started past the point where the search stops are
/// discarded. A panic in a helper's run is re-raised on the calling
/// thread when its script is committed, and dropped if the search stops
/// first. Every helper is stopped and joined before this returns, also
/// when the calling thread unwinds. `setup` is `Sync` because helpers
/// call it; shrinking runs on the calling thread alone.
pub fn explore<F: Fn() -> Machine + Sync>(
    setup: F,
    spec: &WorkloadSpec,
    config: &ExploreConfig,
) -> ExploreReport {
    explore_keyed(
        setup,
        spec,
        config,
        &|machine, events| machine.state_key(events),
        None,
    )
}

/// [`explore`] with the visited-set key of each checked state computed by
/// `key` (the differential tests wrap [`Machine::state_key`]), on
/// `workers` threads counting the committing one. `None` is [`explore`]'s
/// one per core; tests pin it to show the report does not depend on it.
fn explore_keyed<F: Fn() -> Machine + Sync>(
    setup: F,
    spec: &WorkloadSpec,
    config: &ExploreConfig,
    key: Keyer,
    workers: Option<usize>,
) -> ExploreReport {
    let run = |script: &[u32]| run_one(&setup, spec, script, config.fuel, script.len(), key);
    let (mut report, violation) = search(run, config, workers);
    if let Some((chosen, (event, findings))) = violation {
        let minimized = shrink(&setup, spec, config.fuel, chosen);
        let rerun = run_one(&setup, spec, &minimized, config.fuel, 0, &|_, _| 0);
        let (event, findings) = rerun.violation.unwrap_or((event, findings));
        report.counterexample = Some(CounterexampleTrace {
            choices: minimized,
            config: setup().snapshot().config_label().to_string(),
            event,
            findings,
            workload: spec.name.clone(),
        });
    }
    report
}

/// The DFS behind [`explore`], committed on the calling thread in stack
/// order while helpers run waiting scripts ahead of their commit. Stops
/// at a budget, or at the first violating run, which it returns for
/// shrinking with the report's counterexample still unset. `run` runs
/// the schedule of one choice script, on the calling thread and the
/// helpers alike: [`run_one`] in production, a stub in the executor's
/// tests. `workers` counts the calling thread; `None` queries the core
/// count.
fn search<R: Fn(&[u32]) -> RunOutcome + Sync>(
    run: R,
    config: &ExploreConfig,
    workers: Option<usize>,
) -> (ExploreReport, Option<Violation>) {
    let exec = Executor {
        run,
        queue: Mutex::new(Queue {
            stack: vec![Vec::new()],
            ..Queue::default()
        }),
        pushed: Condvar::new(),
        finished: Condvar::new(),
    };
    thread::scope(|scope| {
        let _stop = StopHelpers(&exec);
        let mut helpers_spawned = false;
        let mut visited: HashSet<u64> = HashSet::new();
        let mut report = ExploreReport::default();
        while let Some((script, started)) = exec.pop() {
            if report.schedules >= config.max_schedules || report.states >= config.max_states {
                report.budget_exhausted = true;
                break;
            }
            report.schedules += 1;
            let run = if started {
                exec.take(&script)
            } else {
                (exec.run)(&script)
            };
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
            if let Some(violation) = run.violation {
                let chosen: Vec<u32> = run.trail.iter().map(|t| t.chosen).collect();
                return (report, Some((chosen, violation)));
            }
            // Extend at every branchable choice point past the scripted
            // prefix, in lexicographic order; the stack pops them in that
            // order — pinned state counts depend on it.
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
            let waiting = exec.push(extensions);
            if !helpers_spawned && waiting >= 2 {
                helpers_spawned = true;
                let workers = workers
                    .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZero::get));
                for _ in 1..workers {
                    // A helper the OS refuses to start leaves its share
                    // of the runs to the committing thread.
                    if thread::Builder::new()
                        .spawn_scoped(scope, || exec.help())
                        .is_err()
                    {
                        break;
                    }
                }
            }
        }
        (report, None)
    })
}

/// The DFS stack, shared by the committing thread and the helpers that
/// run its waiting scripts ahead of their commit.
struct Executor<R> {
    run: R,
    queue: Mutex<Queue>,
    /// Wakes the helpers: scripts were pushed, or the search stopped.
    pushed: Condvar,
    /// Wakes the committing thread: a helper filed an outcome.
    finished: Condvar,
}

#[derive(Default)]
struct Queue {
    /// Scripts not yet committed; the next to commit is last.
    stack: Vec<Vec<u32>>,
    /// The scripts a helper has started: `None` while it runs, then its
    /// outcome or the panic that ended it, until the script is committed.
    started: HashMap<Vec<u32>, Option<thread::Result<RunOutcome>>>,
    /// The search is over; helpers exit.
    stopped: bool,
}

impl<R> Executor<R> {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Runs, and their panics, happen outside the lock, and every update
        // under it (one push, pop, insert or removal) leaves the queue
        // valid. So a poisoned guard is sound to take, and taking it keeps
        // the stop of an unwinding committer from panicking in `Drop`.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The committing thread's next script, and whether a helper started
    /// it. Popped under the lock, so no helper starts it afterwards.
    fn pop(&self) -> Option<(Vec<u32>, bool)> {
        let mut queue = self.lock();
        let script = queue.stack.pop()?;
        let started = queue.started.contains_key(&script);
        Some((script, started))
    }

    /// Pushes a run's extensions, first to commit last, and returns how
    /// many scripts now wait.
    fn push(&self, extensions: Vec<Vec<u32>>) -> usize {
        let mut queue = self.lock();
        queue.stack.extend(extensions.into_iter().rev());
        self.pushed.notify_all();
        queue.stack.len()
    }

    /// The outcome of a popped script that a helper started, once filed;
    /// the helper's panic is re-raised here, as the script commits.
    fn take(&self, script: &[u32]) -> RunOutcome {
        let mut queue = self
            .finished
            .wait_while(self.lock(), |q| matches!(q.started.get(script), Some(None)))
            .unwrap_or_else(PoisonError::into_inner);
        let ran = queue
            .started
            .remove(script)
            .flatten()
            .expect("a started script stays filed until it commits");
        drop(queue);
        ran.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }
}

impl<R: Fn(&[u32]) -> RunOutcome> Executor<R> {
    /// A helper: starts the top-most script nobody has started, runs it
    /// outside the lock and files the outcome, until the search stops.
    fn help(&self) {
        let mut queue = self.lock();
        loop {
            if queue.stopped {
                return;
            }
            let next = queue
                .stack
                .iter()
                .rev()
                .find(|s| !queue.started.contains_key(*s))
                .cloned();
            let Some(script) = next else {
                queue = self
                    .pushed
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            queue.started.insert(script.clone(), None);
            drop(queue);
            let ran = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(&script)));
            queue = self.lock();
            queue.started.insert(script, Some(ran));
            self.finished.notify_one();
        }
    }
}

/// Stops and wakes the helpers when the search ends, also by unwinding,
/// so the scope that joins them never waits on a parked helper.
struct StopHelpers<'e, R>(&'e Executor<R>);

impl<R> Drop for StopHelpers<'_, R> {
    fn drop(&mut self) {
        self.0.lock().stopped = true;
        self.0.pushed.notify_all();
    }
}

/// Replays a [`CounterexampleTrace`]'s choice script on a fresh machine
/// from `setup` and returns the violating `(event, findings)` it drives
/// the run into, or `None` if the run stays clean (wrong setup or spec).
pub fn replay<F: Fn() -> Machine>(
    setup: F,
    spec: &WorkloadSpec,
    trace: &CounterexampleTrace,
) -> Option<(u64, Vec<String>)> {
    let fuel = trace.choices.len().max(1);
    run_one(&setup, spec, &trace.choices, fuel, 0, &|_, _| 0).violation
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;

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

    /// A machine set-up that helper threads can call too.
    type Setup = Box<dyn Fn() -> Machine + Sync>;

    /// A clean suite's machine: `t` with paranoia and the shootdown log.
    fn clean_setup(t: agile_vmm::Technique) -> Setup {
        Box::new(move || {
            let mut m = Machine::new(crate::config::SystemConfig::new(t).with_paranoia(true));
            m.enable_shootdown_log();
            m
        })
    }

    /// The `mc` gate's seven suites: the five clean techniques, then the
    /// host-merge control and the re-planted missed-flush bug.
    fn mc_suites() -> Vec<(String, Setup)> {
        use crate::config::SystemConfig;
        use agile_vmm::{AgileOptions, Technique};
        let mut suites: Vec<(String, Setup)> = Technique::all()
            .into_iter()
            .map(|t| (t.label().to_string(), clean_setup(t)))
            .collect();
        for (name, suppress) in [("control", false), ("replant", true)] {
            let setup = move || {
                let mut plan = crate::chaos::FaultPlan::new(0x4A11)
                    .scenario(20, crate::chaos::ScenarioKind::HostMerge { pages: 8 });
                plan.max_heals_per_access = 0;
                let mut m = Machine::new(
                    SystemConfig::new(Technique::Agile(AgileOptions::default()))
                        .with_paranoia(true),
                );
                m.enable_shootdown_log();
                m.enable_chaos(plan);
                m.chaos_suppress_leaf_flush(suppress);
                m
            };
            suites.push((name.to_string(), Box::new(setup)));
        }
        suites
    }

    /// The event cursor plus a 128-bit fingerprint of a snapshot's
    /// payload-bearing bytes.
    type ByteClass = (u64, usize, u64, u64);

    /// What the differential keyer saw, shared by every thread that runs
    /// schedules.
    #[derive(Default)]
    struct KeyLog {
        checked: u64,
        /// States whose cached key differed from a fresh one.
        stale: Vec<String>,
        /// One key for two byte classes, or two keys for one.
        split: Vec<String>,
        class_of: HashMap<u64, ByteClass>,
        key_of: HashMap<ByteClass, u64>,
    }

    impl KeyLog {
        /// Keys `m` after `events` events through its cache, and logs a
        /// cached key that differs from a fresh one, and a key that two
        /// snapshot byte classes share or a class that two keys split.
        fn check(&mut self, name: &str, m: &mut Machine, events: u64) -> u64 {
            let key = m.state_key(events);
            let fresh = m.state_key_uncached(events);
            let bytes = m.snapshot().to_bytes();
            let mut h = DefaultHasher::new();
            h.write(&bytes);
            let class = (
                events,
                bytes.len(),
                crate::snapshot::digest(&bytes),
                h.finish(),
            );
            self.checked += 1;
            if key != fresh {
                self.stale.push(format!("{name} event {events}"));
            }
            if *self.class_of.entry(key).or_insert(class) != class {
                self.split
                    .push(format!("{name} event {events}: one key, two states"));
            }
            if *self.key_of.entry(class).or_insert(key) != key {
                self.split
                    .push(format!("{name} event {events}: one state, two keys"));
            }
            key
        }

        /// Asserts nothing was logged over more than `min` checked states.
        fn assert_clean(&self, min: u64) {
            let checked = self.checked;
            assert!(
                self.stale.is_empty(),
                "{} of {checked} checked states had a stale cached key, first {:?}",
                self.stale.len(),
                self.stale.first()
            );
            assert!(self.split.is_empty(), "{:?}", self.split);
            assert!(checked > min, "only {checked} states checked");
        }
    }

    #[test]
    fn cached_keys_equal_fresh_keys_and_snapshot_byte_classes() {
        let config = ExploreConfig::default();
        let mut all = KeyLog::default();
        for (name, setup) in mc_suites() {
            // Speculative runs past the budget are keyed too. A finding is
            // logged, not asserted, so none is lost with a discarded run.
            let log = Mutex::new(KeyLog::default());
            let keyer = |m: &mut Machine, events: u64| {
                let mut log = log.lock().expect("nothing panics holding the log");
                log.check(&name, m, events)
            };
            let report = explore_keyed(setup, &mc_spec(), &config, &keyer, None);
            assert!(report.states > 0, "{name}: nothing explored");
            let log = log.into_inner().expect("nothing panics holding the log");
            all.checked += log.checked;
            all.stale.extend(log.stale);
            all.split.extend(log.split);
        }
        all.assert_clean(7_000);
    }

    /// Runs `spec` on `machine` (from `resume`, when given) and checks, at
    /// every event boundary, that the race diagnostics of
    /// [`Machine::lint`], which resumes its fold, equal a fold of the
    /// whole log from scratch, in text and order. Returns how many race
    /// diagnostics it compared.
    fn lint_races_match_a_fold_from_scratch(
        name: &str,
        machine: &mut Machine,
        spec: &WorkloadSpec,
        resume: Option<&crate::snapshot::Checkpoint>,
    ) -> usize {
        use crate::analyze::{detect_shootdown_races, LintCode, LintReport};
        let mut compared = 0;
        let (_, mismatch) = machine.run(spec, 0, resume, |m, at| {
            let linted: Vec<_> = m
                .lint()
                .diags
                .into_iter()
                .filter(|d| {
                    matches!(
                        d.code,
                        LintCode::MissedShootdownReuse | LintCode::ShootdownNeverApplied
                    )
                })
                .collect();
            let scratch = detect_shootdown_races(m.shootdown_log().expect("the log is on"));
            let folded = m.folded_races();
            if folded != scratch || linted != LintReport::from_diags(scratch.clone()).diags {
                return ControlFlow::Break(format!(
                    "{name} event {}: folded {folded:?}, linted {linted:?}, from scratch \
                     {scratch:?}",
                    at.events
                ));
            }
            compared += scratch.len();
            ControlFlow::Continue(())
        });
        assert_eq!(mismatch, None);
        compared
    }

    /// An agile machine under the chaos plan `plan`.
    fn agile_under(plan: crate::chaos::FaultPlan) -> Machine {
        use agile_vmm::{AgileOptions, Technique};
        let cfg = crate::config::SystemConfig::new(Technique::Agile(AgileOptions::default()));
        let mut m = Machine::new(cfg);
        m.enable_chaos(plan);
        m
    }

    #[test]
    fn lint_race_fold_equals_a_fold_from_scratch() {
        use crate::chaos::FaultPlan;
        // The production schedules of the seven `mc` gate suites.
        for (name, setup) in mc_suites() {
            lint_races_match_a_fold_from_scratch(&name, &mut setup(), &mc_spec(), None);
        }
        // The deferred-shootdown set-up of the integration test
        // `chaos_deferred_exploration_composes_and_heals`: COW-only churn.
        let mut cow_only = mc_spec();
        cow_only.seed = 19;
        cow_only.churn.remap_every = None;
        cow_only.churn.remap_pages = 0;
        let mut deferred = agile_under(FaultPlan::new(0xDEFE).defer_shootdowns(200, 2));
        lint_races_match_a_fold_from_scratch("deferred", &mut deferred, &cow_only, None);
        // The `lint` gate's agile chaos run, cut to 600 accesses: dropped
        // and deferred shootdowns under remaps, which free table pages
        // inside the open windows. It reports races.
        let windows = || {
            agile_under(
                FaultPlan::new(0x00C0_FFEE)
                    .drop_shootdowns(250)
                    .defer_shootdowns(250, 16),
            )
        };
        let mut spec = mc_spec();
        spec.footprint = 8 << 20;
        spec.pattern = agile_workloads::Pattern::Uniform;
        spec.write_fraction = 0.3;
        spec.accesses = 600;
        spec.accesses_per_tick = 150;
        spec.churn = agile_workloads::ChurnSpec {
            remap_every: Some(200),
            remap_pages: 8,
            cow_every: Some(350),
            cow_pages: 8,
            clock_scan_every: Some(500),
            scan_pages: 16,
            churn_zone: 0.25,
            ctx_switch_every: Some(400),
            processes: 2,
        };
        let raced = lint_races_match_a_fold_from_scratch("windows", &mut windows(), &spec, None);
        assert!(
            raced > 0,
            "the remap run reported no race: the test is vacuous"
        );
        // The same run restored mid-way onto a machine whose fold has seen
        // the whole log, then resumed.
        let mut checkpoints = Vec::new();
        let mut m = windows();
        m.run(&spec, 0, None, |m, at| {
            if at.is_tick {
                checkpoints.push(m.checkpoint(at));
            }
            ControlFlow::<()>::Continue(())
        });
        assert!(!m.lint().is_clean(), "the whole run reports its races");
        let mid = &checkpoints[checkpoints.len() / 2];
        m.restore_from(&mid.snapshot).expect("restores");
        let restored = lint_races_match_a_fold_from_scratch("restored", &mut m, &spec, Some(mid));
        assert!(restored > 0, "the restored run reported no race");
    }

    /// What the lint differential saw: states compared, diagnostics seen,
    /// the narrowing counts of the machines it checked, and mismatches.
    #[derive(Default)]
    struct LintLog {
        checked: u64,
        diags: u64,
        stats: crate::analyze::StructuralStats,
        mismatches: Vec<String>,
    }

    impl LintLog {
        /// Lints `m` through its cache and logs a report whose structural
        /// and race diagnostics differ, in text or order, from
        /// [`crate::analyze::analyze`] of the same state from scratch.
        fn check(&mut self, name: &str, m: &mut Machine, events: u64) {
            use crate::analyze::{analyze, LintCode};
            let mut linted = m.lint();
            linted
                .diags
                .retain(|d| d.code != LintCode::TransitionDiverged);
            let scratch = analyze(m.mem(), m.vmm(), m.tlb(), m.shootdown_log());
            self.checked += 1;
            self.diags += scratch.diags.len() as u64;
            if linted != scratch && self.mismatches.len() < 8 {
                self.mismatches.push(format!(
                    "{name} event {events}: linted\n{}\nfrom scratch\n{}",
                    linted.render(),
                    scratch.render()
                ));
            }
        }

        /// Lints `m` at every event boundary of `spec` (from `resume`, when
        /// given), then adds its narrowing counts.
        fn run(
            &mut self,
            name: &str,
            m: &mut Machine,
            spec: &WorkloadSpec,
            resume: Option<&crate::snapshot::Checkpoint>,
        ) {
            m.run(spec, 0, resume, |m, at| {
                self.check(name, m, at.events);
                ControlFlow::<()>::Continue(())
            });
            self.add(m);
        }

        /// Adds `m`'s narrowing counts.
        fn add(&mut self, m: &Machine) {
            let (a, b) = (&mut self.stats, m.structural_stats());
            a.fresh += b.fresh;
            a.ownership_skipped += b.ownership_skipped;
            a.shadow_narrowed += b.shadow_narrowed;
            a.mode_narrowed += b.mode_narrowed;
            a.tlb_narrowed += b.tlb_narrowed;
        }

        /// Asserts no mismatch over more than `min` states, and that each
        /// pass narrowed its visit at some call.
        fn assert_clean(&self, min: u64) {
            assert!(
                self.mismatches.is_empty(),
                "{}",
                self.mismatches.join("\n\n")
            );
            assert!(self.checked > min, "only {} states checked", self.checked);
            let s = self.stats;
            let narrowed = [
                s.ownership_skipped,
                s.shadow_narrowed,
                s.mode_narrowed,
                s.tlb_narrowed,
            ];
            assert!(
                narrowed.iter().all(|&n| n > 0),
                "a pass never narrowed its visit, the test is vacuous: {s:?}"
            );
        }
    }

    #[test]
    fn lint_cache_equals_a_lint_from_scratch_on_the_mc_suites() {
        use crate::analyze::analyze;
        let mut log = LintLog::default();
        // The production schedules, linted and compared at every event.
        for (name, setup) in mc_suites() {
            log.run(&name, &mut setup(), &mc_spec(), None);
        }
        log.assert_clean(1_000);
        // The explored schedules: every checked state linted clean through
        // the machine's cache (a finding would have ended the run), so an
        // analysis from scratch must be clean too.
        let config = ExploreConfig::default();
        let dirty = Mutex::new(Vec::new());
        let checked = std::sync::atomic::AtomicU64::new(0);
        for (name, setup) in mc_suites() {
            let keyer = |m: &mut Machine, events: u64| {
                let scratch = analyze(m.mem(), m.vmm(), m.tlb(), m.shootdown_log());
                checked.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if !scratch.is_clean() {
                    let mut dirty = dirty.lock().expect("nothing panics holding the list");
                    dirty.push(format!("{name} event {events}:\n{}", scratch.render()));
                }
                m.state_key(events)
            };
            let report = explore_keyed(setup, &mc_spec(), &config, &keyer, None);
            assert_eq!(
                report.counterexample.is_some(),
                name == "replant",
                "{name}: only the re-planted bug is found"
            );
        }
        let dirty = dirty.into_inner().expect("nothing panics holding the list");
        assert!(dirty.is_empty(), "{}", dirty.join("\n"));
        assert!(checked.into_inner() > 7_000, "explored states");
    }

    /// The `lint` gate's workload, cut to `accesses` accesses.
    fn lint_gate_spec(label: &str, accesses: u64) -> WorkloadSpec {
        let mut spec = mc_spec();
        spec.name = format!("lint-{label}");
        spec.footprint = 8 << 20;
        spec.pattern = agile_workloads::Pattern::Uniform;
        spec.write_fraction = 0.3;
        spec.accesses = accesses;
        spec.accesses_per_tick = (accesses / 4).max(1);
        spec.churn = agile_workloads::ChurnSpec {
            remap_every: Some(200),
            remap_pages: 8,
            cow_every: Some(350),
            cow_pages: 8,
            clock_scan_every: Some(500),
            scan_pages: 16,
            churn_zone: 0.25,
            ctx_switch_every: Some(400),
            processes: 2,
        };
        spec
    }

    /// The `lint` gate's fault matrix: dropped and deferred shootdowns, a
    /// shadow and a guest PTE corruption, and a trap storm.
    fn lint_gate_faults() -> crate::chaos::FaultPlan {
        use crate::chaos::{FaultPlan, ScenarioKind};
        let base = WorkloadSpec::REGION_BASE;
        FaultPlan::new(0xC0FFEE)
            .drop_shootdowns(250)
            .defer_shootdowns(250, 16)
            .scenario(
                300,
                ScenarioKind::CorruptShadowPte {
                    gva: base + 0x2000,
                    bit: 12,
                },
            )
            .scenario(700, ScenarioKind::CorruptGuestPte { gva: base + 0x4000 })
            .scenario(
                1_100,
                ScenarioKind::TrapStorm {
                    base,
                    pages: 4,
                    writes_per_page: 8,
                },
            )
    }

    #[test]
    fn lint_cache_equals_a_lint_from_scratch_under_chaos_and_huge_pages() {
        use agile_vmm::Technique;
        let mut log = LintLog::default();
        // The `lint` gate's clean and chaos phases, cut to 1,200 accesses
        // (past the trap storm at 1,100).
        for t in Technique::all() {
            let spec = lint_gate_spec(t.label(), 1_200);
            let mut clean = Machine::new(crate::config::SystemConfig::new(t));
            clean.enable_shootdown_log();
            log.run(&format!("clean {}", t.label()), &mut clean, &spec, None);
            let mut chaos = Machine::new(crate::config::SystemConfig::new(t));
            chaos.enable_chaos(lint_gate_faults());
            log.run(&format!("chaos {}", t.label()), &mut chaos, &spec, None);
        }
        assert!(log.diags > 0, "no chaos state reported anything");
        // A 4 MiB THP spec with clock scans, remaps and COW, so 2 MiB TLB
        // entries overlap 4 KiB ones, then a 1 GiB page's fill and hits.
        let mut spec = mc_spec();
        spec.name = "mc-thp".into();
        spec.footprint = 4 << 20;
        spec.accesses = 360;
        spec.accesses_per_tick = 60;
        spec.churn.clock_scan_every = Some(90);
        spec.churn.scan_pages = 64;
        spec.churn.remap_pages = 48;
        spec.churn.cow_pages = 24;
        for t in Technique::all() {
            let name = format!("thp {}", t.label());
            let cfg = crate::config::SystemConfig::new(t)
                .with_thp()
                .with_paranoia(true);
            let mut m = Machine::new(cfg);
            m.enable_shootdown_log();
            log.run(&name, &mut m, &spec, None);
            let (pid, gigantic) = (m.current_pid(), 0x40_0000_0000);
            m.os_mut()
                .mmap_sized(pid, gigantic, 1 << 30, true, agile_types::PageSize::Size1G);
            for i in 0..3u64 {
                m.touch(gigantic + i * 0x1234_5000, i % 3 == 0)
                    .expect("mapped");
                log.check(&name, &mut m, spec.accesses + i);
            }
        }
        // The chaos agile run restored mid-way onto the machine that ran it
        // through: the restore empties the cache, and the resumed run
        // narrows again from there.
        let spec = lint_gate_spec("restored", 1_200);
        let agile = || {
            let cfg = crate::config::SystemConfig::new(Technique::Agile(
                agile_vmm::AgileOptions::default(),
            ));
            let mut m = Machine::new(cfg);
            m.enable_chaos(lint_gate_faults());
            m
        };
        let mut checkpoints = Vec::new();
        let mut m = agile();
        m.run(&spec, 0, None, |m, at| {
            let _ = m.lint();
            if at.is_tick {
                checkpoints.push(m.checkpoint(at));
            }
            ControlFlow::<()>::Continue(())
        });
        let mid = &checkpoints[checkpoints.len() / 2];
        m.restore_from(&mid.snapshot).expect("restores");
        assert_eq!(
            m.structural_stats(),
            crate::analyze::StructuralStats::default(),
            "a restore empties the lint cache"
        );
        log.run("restored", &mut m, &spec, Some(mid));
        log.assert_clean(9_000);
    }

    /// The table frame, index and entry at `level` on `va`'s walk through
    /// the host-space tree from `root`.
    fn entry_on_path(
        m: &Machine,
        root: agile_types::HostFrame,
        va: u64,
        level: agile_types::Level,
    ) -> (agile_types::HostFrame, usize, agile_types::Pte) {
        let va = agile_types::GuestVirtAddr::new(va);
        let mut frame = root;
        for l in agile_types::Level::top().walk_order() {
            let pte = m.mem().read_pte(frame, va.index(l));
            assert!(pte.is_present(), "{va:?} is mapped at {l:?}");
            if l == level {
                return (frame, va.index(l), pte);
            }
            frame = pte.host_frame();
        }
        unreachable!("every level is on the walk");
    }

    #[test]
    fn lint_cache_sees_faults_planted_after_a_clean_call() {
        use agile_types::{Asid, PageSize, Pte};
        let mut log = LintLog::default();
        let mut found = 0;
        // Each fault is planted behind the simulator's back on a shadow
        // machine paused at a tick (flushes drained) after a clean lint,
        // and checked.
        let mut plant = |name: &str, f: &dyn Fn(&mut Machine)| {
            let mut m = Machine::new(
                crate::config::SystemConfig::new(agile_vmm::Technique::Shadow).with_paranoia(true),
            );
            m.enable_shootdown_log();
            let (_, paused) = m.run(&mc_spec(), 0, None, |m, at| {
                log.check(name, m, at.events);
                match at.is_tick && at.ticks == 3 {
                    true => ControlFlow::Break(at.events),
                    false => ControlFlow::Continue(()),
                }
            });
            let events = paused.expect("the run reaches its third tick");
            assert!(m.lint().is_clean(), "{name}: the run pauses clean");
            f(&mut m);
            let before = log.diags;
            log.check(name, &mut m, events);
            log.add(&m);
            found += usize::from(log.diags > before);
        };
        let va = WorkloadSpec::REGION_BASE;
        let pid = |m: &Machine| m.current_pid();
        // A process and 4 KiB page whose shadow leaf is built and whose
        // guest path is synced, so the leaf is checked against the truth.
        let synced = |m: &Machine| {
            let synced = |pid, va| {
                agile_types::Level::top().walk_order().all(|l| {
                    m.vmm().page_mode(m.mem(), pid, va, l) == Some(agile_vmm::GptPageMode::Synced)
                })
            };
            let shadowed = |pid, va| {
                let root = m.vmm().spt_root(pid).expect("shadow root");
                let va = agile_types::GuestVirtAddr::new(va);
                let leaf = agile_types::Level::top()
                    .walk_order()
                    .try_fold(root, |frame, l| {
                        let pte = m.mem().read_pte(frame, va.index(l));
                        pte.is_present().then(|| pte.host_frame())
                    });
                leaf.is_some()
            };
            m.vmm()
                .processes()
                .into_iter()
                .flat_map(|pid| {
                    m.mapped_leaves(pid)
                        .into_iter()
                        .map(move |(va, _)| (pid, va))
                })
                .find(|&(pid, va)| synced(pid, va) && shadowed(pid, va))
                .expect("a synced, shadowed page")
        };
        // A shadow leaf's frame flips.
        plant("shadow leaf", &|m| {
            let (pid, va) = synced(m);
            let root = m.vmm().spt_root(pid).expect("shadow root");
            let (frame, index, pte) = entry_on_path(m, root, va, agile_types::Level::L1);
            m.plant_pte(frame, index, Pte::from_raw(pte.raw() ^ (1 << 12)));
        });
        // The guest leaf behind it flips instead: the shadow leaf no longer
        // matches the guest∘host composition.
        plant("guest leaf", &|m| {
            let (pid, va) = synced(m);
            let root = m.vmm().gpt_root(pid).expect("guest root");
            let root = m.vmm().backing(root).expect("backed");
            let va = agile_types::GuestVirtAddr::new(va);
            let mut frame = root;
            for l in agile_types::Level::top().walk_order() {
                let pte = m.mem().read_pte(frame, va.index(l));
                if l == agile_types::Level::L1 {
                    m.plant_pte(frame, va.index(l), Pte::from_raw(pte.raw() ^ (1 << 12)));
                    return;
                }
                let child = agile_types::GuestFrame::new(pte.frame_raw());
                frame = m.vmm().backing(child).expect("backed");
            }
        });
        // A 2 MiB TLB entry over the region's 4 KiB ones, to other frames.
        plant("tlb alias", &|m| {
            let asid = Asid::from(pid(m));
            let entry =
                agile_tlb::TlbEntry::new(agile_types::HostFrame::new(7), PageSize::Size2M, false);
            m.plant_tlb_entry(asid, va & !(PageSize::Size2M.bytes() - 1), entry);
        });
        // A shadow L2 pointer re-aimed at another live table page: that
        // page gets two owners and the old child none.
        plant("pointer", &|m| {
            let root = m.vmm().spt_root(pid(m)).expect("shadow root");
            let (frame, index, pte) = entry_on_path(m, root, va, agile_types::Level::L2);
            let other = m
                .mem()
                .table_frames()
                .into_iter()
                .find(|&f| f != pte.host_frame() && f != frame)
                .expect("another table page");
            m.plant_pte(frame, index, Pte::table(other));
        });
        assert_eq!(found, 4, "every planted fault is reported");
        log.assert_clean(100);
    }

    #[test]
    fn cached_keys_follow_huge_pages_clock_scans_and_chaos() {
        use agile_vmm::{AgileOptions, Technique};
        let mut spec = mc_spec();
        spec.name = "mc-thp".into();
        spec.footprint = 4 << 20;
        spec.accesses = 360;
        spec.accesses_per_tick = 60;
        spec.churn.clock_scan_every = Some(90);
        spec.churn.scan_pages = 64;
        spec.churn.remap_pages = 48;
        spec.churn.cow_pages = 24;
        let mut runs: Vec<(String, Machine)> = Technique::all()
            .into_iter()
            .map(|t| {
                let cfg = crate::config::SystemConfig::new(t)
                    .with_thp()
                    .with_paranoia(true);
                let mut m = Machine::new(cfg);
                m.enable_shootdown_log();
                (format!("thp {}", t.label()), m)
            })
            .collect();
        let mut chaos = Machine::new(crate::config::SystemConfig::new(Technique::Agile(
            AgileOptions::default(),
        )));
        chaos.enable_chaos(crate::chaos::FaultPlan::new(0x5EED).defer_shootdowns(300, 20));
        runs.push(("chaos".into(), chaos));
        let mut log = KeyLog::default();
        for (name, mut machine) in runs {
            let mut events = 0;
            machine.run(&spec, 0, None, |m, at| {
                events = at.events;
                log.check(&name, m, events);
                ControlFlow::<()>::Continue(())
            });
            // Then a 1 GiB page beside the workload's region, so the 1 GiB
            // TLB partition fills too.
            let (pid, gigantic) = (machine.current_pid(), 0x40_0000_0000);
            machine.os_mut().mmap_sized(
                pid,
                gigantic,
                1 << 30,
                true,
                agile_types::PageSize::Size1G,
            );
            // A fill, then hits: each moves the partition's one set.
            for i in 0..3u64 {
                let gva = gigantic + i * 0x1234_5000;
                machine.touch(gva, i % 3 == 0).expect("mapped");
                events += 1;
                log.check(&name, &mut machine, events);
            }
        }
        log.assert_clean(2_000);
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
                let mut m = Machine::new(crate::config::SystemConfig::new(t).with_paranoia(true));
                m.enable_shootdown_log();
                m
            };
            let key = |m: &mut Machine, events| m.state_key(events);
            let root = run_one(&setup, &spec, &[], fuel, 0, &key);
            assert!(root.violation.is_none());
            let root_keys: HashSet<u64> = root.boundaries.iter().filter_map(|b| b.key).collect();
            let (mut skipped, mut checked) = (0, 0);
            for (i, entry) in root.trail.iter().enumerate() {
                if entry.capped || entry.alternatives <= 1 {
                    continue;
                }
                let mut script: Vec<u32> = root.trail[..i].iter().map(|e| e.chosen).collect();
                script.push(1);
                let fast = run_one(&setup, &spec, &script, fuel, script.len(), &key);
                let full = run_one(&setup, &spec, &script, fuel, 0, &key);
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

    /// Explores `setup` at 1, 2 and 4 workers and checks that the three
    /// reports render the same bytes. Returns the report and how many
    /// states a thread other than the committing one keyed.
    fn same_at_any_worker_count(
        name: &str,
        setup: &Setup,
        spec: &WorkloadSpec,
        config: &ExploreConfig,
    ) -> (ExploreReport, u64) {
        let committer = thread::current().id();
        let off_committer = std::sync::atomic::AtomicU64::new(0);
        let keyer = |m: &mut Machine, events: u64| {
            if thread::current().id() != committer {
                off_committer.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            m.state_key(events)
        };
        let reports: Vec<ExploreReport> = [1, 2, 4]
            .into_iter()
            .map(|workers| explore_keyed(setup, spec, config, &keyer, Some(workers)))
            .collect();
        for (workers, report) in [2, 4].into_iter().zip(&reports[1..]) {
            assert_eq!(
                report.render_line(),
                reports[0].render_line(),
                "{name}: {workers} workers"
            );
            assert_eq!(
                report.to_json().render(),
                reports[0].to_json().render(),
                "{name}: {workers} workers"
            );
        }
        (reports[0].clone(), off_committer.into_inner())
    }

    #[test]
    fn executor_reports_are_the_same_at_any_worker_count_on_the_mc_suites() {
        use agile_vmm::{AgileOptions, Technique};
        let mut suites: Vec<(String, Setup, WorkloadSpec)> = mc_suites()
            .into_iter()
            .map(|(name, setup)| (name, setup, mc_spec()))
            .collect();
        let mut seeded = mc_spec();
        seeded.seed = 3;
        suites.push((
            "seeded-A".into(),
            clean_setup(Technique::Agile(AgileOptions::default())),
            seeded,
        ));
        let mut helped = 0;
        for (name, setup, spec) in &suites {
            let (report, off) =
                same_at_any_worker_count(name, setup, spec, &ExploreConfig::default());
            helped += off;
            assert!(!report.budget_exhausted, "{name}: the gate budget cut it");
            let found = report.counterexample.is_some();
            assert_eq!(found, name == "replant", "{name}: {}", report.render_line());
        }
        assert!(helped > 0, "no helper ran a schedule: the test is vacuous");
    }

    #[test]
    fn executor_reports_are_the_same_at_any_worker_count_past_a_budget() {
        use agile_vmm::{AgileOptions, Technique};
        let setup = clean_setup(Technique::Agile(AgileOptions::default()));
        for (name, config) in [
            (
                "schedule budget",
                ExploreConfig {
                    max_schedules: 6,
                    ..ExploreConfig::default()
                },
            ),
            (
                "state budget",
                ExploreConfig {
                    max_states: 700,
                    ..ExploreConfig::default()
                },
            ),
        ] {
            let (report, _) = same_at_any_worker_count(name, &setup, &mc_spec(), &config);
            assert!(report.budget_exhausted, "{name}: {}", report.render_line());
        }
    }

    /// A stub run: the root passes one choice point of three alternatives,
    /// so the search pushes the extensions `[1]` and `[2]`; each is a leaf.
    fn stub_outcome(script: &[u32]) -> RunOutcome {
        let chosen = script.first().copied().unwrap_or(0);
        RunOutcome {
            trail: vec![TrailEntry {
                point: ChoicePoint::SwitchTiming,
                alternatives: 3,
                chosen,
                capped: false,
            }],
            boundaries: vec![Boundary {
                key: Some(u64::from(chosen)),
                trail_len: 1,
            }],
            violation: None,
        }
    }

    /// Searches the stub tree at three workers with a run of `[2]` that
    /// panics. Runs `[1]` and `[2]` meet at a barrier, so `[2]` starts
    /// before `[1]` ends: on a helper, since the committing thread runs
    /// or waits for `[1]` until then. `[1]` violates if `violates`.
    fn search_with_a_helper_panic(
        config: &ExploreConfig,
        violates: bool,
    ) -> thread::Result<(ExploreReport, Option<Violation>)> {
        let meet = std::sync::Barrier::new(2);
        let run = |script: &[u32]| {
            if !script.is_empty() {
                meet.wait();
            }
            assert_ne!(script, [2], "the stub run of [2] fails");
            let mut outcome = stub_outcome(script);
            if violates && script == [1] {
                outcome.violation = Some((1, vec!["stub finding".into()]));
            }
            outcome
        };
        panic::catch_unwind(AssertUnwindSafe(|| search(run, config, Some(3))))
    }

    #[test]
    fn executor_reraises_a_helper_panic_when_its_script_commits() {
        let payload = search_with_a_helper_panic(&ExploreConfig::default(), false)
            .expect_err("the search commits [2]");
        let message = payload
            .downcast_ref::<String>()
            .expect("an assertion's payload");
        assert!(message.contains("the stub run of [2] fails"), "{message}");
    }

    #[test]
    fn executor_drops_a_helper_panic_past_a_counterexample() {
        let (report, violation) = search_with_a_helper_panic(&ExploreConfig::default(), true)
            .expect("the search stops at [1]");
        assert_eq!(violation.map(|(chosen, _)| chosen), Some(vec![1]));
        assert_eq!(report.schedules, 2);
    }

    #[test]
    fn executor_drops_a_helper_panic_past_a_budget() {
        let config = ExploreConfig {
            max_schedules: 2,
            ..ExploreConfig::default()
        };
        let (report, violation) =
            search_with_a_helper_panic(&config, false).expect("the budget stops before [2]");
        assert!(violation.is_none());
        assert!(report.budget_exhausted);
        assert_eq!(report.schedules, 2);
    }
}
