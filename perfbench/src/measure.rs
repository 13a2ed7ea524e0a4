//! The untraced run: end-to-end host-time metrics of one workload, with
//! every output checked.
//!
//! The workload runs whole passes until the requested time is spent, each
//! pass preceded by its set-up (building the seeded inputs and running one
//! warm-up unit), which is timed on its own. Spreading the set-ups over the
//! run lets their median describe the whole run rather than its first
//! moments. Each pass yields an output digest; every pass
//! must reproduce the first one, and each workload adds its own reference
//! check.
//!
//! Every time is scaled to the nominal host speed measured around its
//! pass (see [`crate::speed`]); the slowdown of each pass is kept with the
//! record, so the unscaled times can be recovered from it.

use crate::speed;
use crate::stats::{harmonic_mean, median, quantile, ratio, Digest};
use crate::workload::{
    churn_configs, churn_spec, fig5_options, fig5_requests, mc_budget, mc_suites, spec_accesses,
    Suite, Verdict, CHURN_ACCESSES, SHARDS,
};
use agile_core::types::SplitMix64;
use agile_core::{
    explore, DegradationEvent, DegradationKind, ExploreReport, Machine, RunArtifact, RunOutcome,
    RunRequest, Service, ServiceMetrics,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one untraced run measured and checked.
#[derive(Debug, Default, Clone)]
pub struct E2e {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Simulated data accesses per host second, one value per pass (the
    /// metric is all passes' accesses over all their time).
    pub accesses_per_s: Vec<f64>,
    /// How much slower than nominal the host ran during each pass; the
    /// times above are already divided by it.
    pub slowdown: Vec<f64>,
    /// Latency in milliseconds, measured from when the unit was due: a
    /// fig5 run from its matrix's submission; in the one-client closed
    /// loops, a churn technique run or a whole mc gate pass from when the
    /// previous one finished.
    pub latencies_ms: Vec<f64>,
    /// fig5 only: share of the shards' time spent running jobs, one value
    /// per pass. Kept with the record, not reported as a metric.
    pub busy_frac: Vec<f64>,
    /// Operations attempted: runs, jobs or explorer suites.
    pub attempted: u64,
    /// Operations that did not complete, failed a check, or skipped
    /// accesses under memory pressure.
    pub failed: u64,
    /// Digest of the deterministic output (identical on every pass).
    pub digest: String,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Whole passes run.
    pub passes: u64,
}

impl E2e {
    fn fail(&mut self, units: u64, problem: String) {
        self.failed += units;
        self.problems.push(problem);
    }

    /// Records one pass's digest: the first sets it, later ones must match.
    fn pass_digest(&mut self, digest: String, units: u64) {
        if self.digest.is_empty() {
            self.digest = digest;
        } else if self.digest != digest {
            self.fail(
                units,
                format!("pass {} digest {digest} != {}", self.passes, self.digest),
            );
        }
    }

    /// The end-to-end metrics as (name, value, unit).
    #[must_use]
    pub fn metrics(&self, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            (
                "sim_accesses_per_s",
                harmonic_mean(&self.accesses_per_s),
                "1/s",
            ),
            ("latency_p50_ms", quantile(&self.latencies_ms, 0.5), "ms"),
            ("latency_p90_ms", quantile(&self.latencies_ms, 0.9), "ms"),
            (
                "ok_frac",
                1.0 - ratio(self.failed as f64, self.attempted as f64),
                "frac",
            ),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    }

    /// Times one set-up on a fresh thread.
    fn setup(&mut self, once: &(impl Fn() + Sync)) {
        let secs = on_fresh_thread(|| {
            let t0 = Instant::now();
            once();
            t0.elapsed().as_secs_f64()
        });
        self.setup_s.push(secs);
    }

    /// Runs set-up then `pass` until `seconds` have gone by (at least
    /// once), sampling host speed on `threads` threads between passes.
    fn passes(
        &mut self,
        seconds: f64,
        threads: usize,
        setup: impl Fn() + Sync,
        mut pass: impl FnMut(&mut E2e),
    ) {
        let began = Instant::now();
        let mut before = speed::sample(threads);
        while self.passes == 0 || began.elapsed().as_secs_f64() < seconds {
            let marks = (
                self.setup_s.len(),
                self.accesses_per_s.len(),
                self.latencies_ms.len(),
            );
            self.setup(&setup);
            pass(self);
            let after = speed::sample(threads);
            let slowdown = speed::slowdown(before, after);
            for t in &mut self.setup_s[marks.0..] {
                *t /= slowdown;
            }
            for rate in &mut self.accesses_per_s[marks.1..] {
                *rate *= slowdown;
            }
            for t in &mut self.latencies_ms[marks.2..] {
                *t /= slowdown;
            }
            self.slowdown.push(slowdown);
            before = after;
            self.passes += 1;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn oom_skips(events: &[DegradationEvent]) -> u64 {
    events
        .iter()
        .filter(|e| e.kind == DegradationKind::OomSkip)
        .count() as u64
}

/// Runs `f` on a fresh thread and waits for it. Single-threaded units
/// run this way so the scheduler places each one anew: on a host whose
/// cores change speed under their neighbours' load, one long-lived thread
/// would tie a whole run to the luck of the core it started on.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("benchmark unit panicked"))
}

/// Runs one workload untraced for about `seconds` of passes.
#[must_use]
pub fn run(kind: crate::workload::Kind, seed: u64, seconds: f64) -> E2e {
    use crate::workload::Kind;
    match kind {
        Kind::Fig5 => fig5(seed, seconds),
        Kind::Churn => churn(seed, seconds),
        Kind::Mc => mc(seed, seconds),
    }
}

/// Submits `requests` to `service` and collects every outcome in job
/// order, with each one's finish time after `start`.
fn serve_batch(
    service: &Service,
    requests: Vec<RunRequest>,
    start: Instant,
) -> Vec<(RunOutcome, Duration)> {
    let n = requests.len();
    service.submit_all(requests);
    let mut done: Vec<Option<(RunOutcome, Duration)>> = vec![None; n];
    while let Some((id, outcome)) = service.next_result() {
        done[id.index()] = Some((outcome, start.elapsed()));
    }
    done.into_iter()
        .map(|d| d.expect("every submitted job finishes"))
        .collect()
}

/// One fig5 matrix pass: what the service returned and its own counters.
pub(crate) struct Fig5Pass {
    /// Each job's outcome in job order, with its finish time after the
    /// matrix was submitted.
    pub results: Vec<(RunOutcome, Duration)>,
    /// The service's counters at shutdown.
    pub service: ServiceMetrics,
    /// Submission to shutdown.
    pub wall: Duration,
}

impl Fig5Pass {
    /// Share of the shards' time spent running jobs.
    pub fn busy_frac(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * SHARDS as f64;
        ratio(self.service.run_nanos as f64 * 1e-9, capacity)
    }
}

/// Runs the fig5 matrix through a fresh service.
pub(crate) fn fig5_pass(requests: Vec<RunRequest>) -> Fig5Pass {
    let start = Instant::now();
    let service = Service::new(fig5_options());
    let results = serve_batch(&service, requests, start);
    let metrics = service.shutdown();
    Fig5Pass {
        results,
        service: metrics,
        wall: start.elapsed(),
    }
}

/// Checks one outcome and returns its artifact when it completed.
fn completed<'a>(out: &mut E2e, outcome: &'a RunOutcome) -> Option<&'a RunArtifact> {
    match outcome.artifact() {
        Some(a) => {
            let skipped = oom_skips(&a.degradation);
            if skipped > 0 {
                out.fail(skipped, format!("{}: {skipped} accesses skipped", a.label));
            }
            Some(a)
        }
        None => {
            out.fail(1, format!("{}: not completed", outcome.label()));
            None
        }
    }
}

fn fig5(seed: u64, seconds: f64) -> E2e {
    let mut out = E2e::default();
    let requests = fig5_requests(seed);
    let accesses: u64 = requests.iter().map(|r| spec_accesses(&r.spec)).sum();
    let mut fingerprints: Vec<String> = Vec::new();
    // Warm-up unit: dedup at 4K under base native, a short run.
    let setup = || {
        black_box(fig5_requests(seed)[3 * 8].run());
    };
    out.passes(seconds, SHARDS, setup, |out| {
        let pass = fig5_pass(requests.clone());
        out.accesses_per_s
            .push(accesses as f64 / pass.wall.as_secs_f64());
        out.busy_frac.push(pass.busy_frac());
        out.attempted += pass.results.len() as u64;
        let mut digest = Digest::default();
        fingerprints.clear();
        for (outcome, finished) in &pass.results {
            out.latencies_ms.push(ms(*finished));
            let text = completed(out, outcome).map_or_else(
                || format!("{}: incomplete", outcome.label()),
                RunArtifact::fingerprint,
            );
            digest.add(&text);
            fingerprints.push(text);
        }
        out.pass_digest(digest.hex(), pass.results.len() as u64);
    });
    // Reference: a seeded sample of the matrix, run directly and
    // serially, must match what the two-worker service produced.
    let mut rng = SplitMix64::new(SplitMix64::derive(seed, 0xF165));
    for _ in 0..2 {
        let i = rng.below(requests.len() as u64) as usize;
        out.attempted += 1;
        if requests[i].run().fingerprint() != fingerprints[i] {
            out.fail(
                1,
                format!("{}: differs from its serial run", requests[i].label),
            );
        }
    }
    out
}

/// Runs the churn spec on every technique; returns the output digest,
/// the `total-steps` sum and each run's latency.
fn churn_pass(seed: u64, accesses: u64) -> (Digest, u64, Vec<f64>) {
    let mut digest = Digest::default();
    let mut total_steps = 0;
    let mut latencies = Vec::new();
    for cfg in churn_configs() {
        let label = cfg.technique.label();
        let t0 = Instant::now();
        let profile = on_fresh_thread(|| {
            let mut machine = Machine::new(cfg);
            machine.run_spec(&churn_spec(label, accesses, seed));
            machine.profile()
        });
        latencies.push(ms(t0.elapsed()));
        digest.add(&profile.render(label));
        total_steps += profile.total_steps();
    }
    digest.add(&format!("total-steps {total_steps}"));
    (digest, total_steps, latencies)
}

/// Runs the `prof` churn spec on every technique and returns the
/// `total-steps` sum `prof` prints.
#[must_use]
pub fn churn_total_steps(seed: u64, accesses: u64) -> u64 {
    churn_pass(seed, accesses).1
}

fn churn(seed: u64, seconds: f64) -> E2e {
    let mut out = E2e::default();
    let configs = churn_configs().len() as u64;
    // Warm-up unit: a quarter-length run under base native.
    let setup = || {
        let cfg = churn_configs()[0];
        let mut machine = Machine::new(cfg);
        black_box(machine.run_spec(&churn_spec(cfg.technique.label(), CHURN_ACCESSES / 4, seed)));
    };
    out.passes(seconds, 1, setup, |out| {
        let start = Instant::now();
        let (digest, _, latencies) = churn_pass(seed, CHURN_ACCESSES);
        let wall = start.elapsed();
        out.accesses_per_s
            .push((configs * CHURN_ACCESSES) as f64 / wall.as_secs_f64());
        out.latencies_ms.extend(latencies);
        out.attempted += configs;
        out.pass_digest(digest.hex(), configs);
    });
    out
}

/// Data accesses the explorer simulated in schedules that ran to the end.
fn explored_accesses(suite: &Suite, report: &ExploreReport) -> u64 {
    let whole = report.schedules - u64::from(report.counterexample.is_some());
    whole * suite.spec.accesses
}

/// Checks one suite's report against the verdict the gate requires.
pub(crate) fn suite_problem(suite: &Suite, report: &ExploreReport) -> Option<String> {
    let found = report.counterexample.is_some();
    let ok = match suite.verdict {
        Verdict::Clean => !found,
        Verdict::CleanAt(states) => !found && report.states == states,
        Verdict::FoundAt(states) => found && report.states == states,
    };
    (!ok).then(|| format!("{}: {}", suite.label, report.render_line()))
}

/// One mc pass: every suite explored once, each on a fresh thread.
pub(crate) struct McPass {
    /// One report per suite, in suite order.
    pub reports: Vec<ExploreReport>,
    /// The whole pass.
    pub wall: Duration,
}

/// Explores every suite once.
pub(crate) fn mc_pass(suites: &[Suite]) -> McPass {
    let start = Instant::now();
    let reports = suites
        .iter()
        .map(|suite| on_fresh_thread(|| explore(|| suite.machine(), &suite.spec, &mc_budget())))
        .collect();
    McPass {
        reports,
        wall: start.elapsed(),
    }
}

fn mc(seed: u64, seconds: f64) -> E2e {
    let mut out = E2e::default();
    let suites = mc_suites(seed);
    // Warm-up unit: the base-native clean suite, the smallest.
    let setup = || {
        let warm = &mc_suites(seed)[0];
        black_box(explore(|| warm.machine(), &warm.spec, &mc_budget()));
    };
    out.passes(seconds, 1, setup, |out| {
        let pass = mc_pass(&suites);
        let mut digest = Digest::default();
        let mut accesses = 0;
        for (suite, report) in suites.iter().zip(&pass.reports) {
            accesses += explored_accesses(suite, report);
            out.attempted += 1;
            if let Some(problem) = suite_problem(suite, report) {
                out.fail(1, problem);
            }
            digest.add(&format!("{} {}", suite.label, report.to_json().render()));
        }
        out.accesses_per_s
            .push(accesses as f64 / pass.wall.as_secs_f64());
        out.latencies_ms.push(ms(pass.wall));
        out.pass_digest(digest.hex(), suites.len() as u64);
    });
    out
}
