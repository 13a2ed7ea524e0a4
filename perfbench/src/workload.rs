//! The benchmark workloads and the inputs each generates from the
//! benchmark seed.
//!
//! Every configuration is pinned here: paranoia is set explicitly on each
//! [`SystemConfig`] (so an inherited `AGILE_PARANOIA` cannot change what is
//! measured) and worker/shard counts are explicit constants, never "one
//! per core".

use agile_core::types::SplitMix64;
use agile_core::{
    profile, AgileOptions, ChurnSpec, ExploreConfig, FaultPlan, Machine, Pattern, PlanOptions,
    Profile, RunRequest, ScenarioKind, ShspOptions, SystemConfig, Technique, WorkloadSpec,
};

/// Service workers of the fig5 workload: the reference host has 2 cores.
/// The other workloads run one simulator thread at a time.
pub const SHARDS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The full Figure 5 matrix through the service: steady-state
    /// translation.
    Fig5,
    /// The churn-heavy profiling spec on every technique: page-table
    /// updates, flushes and VMtraps.
    Churn,
    /// The bounded explorer's CI suites: per-state lint, audit, snapshot
    /// and digest.
    Mc,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Fig5, Kind::Churn, Kind::Mc];

    /// The name used on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig5 => "fig5",
            Kind::Churn => "churn",
            Kind::Mc => "mc",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The five techniques in the simulator's usual order.
#[must_use]
pub fn techniques() -> [Technique; 5] {
    [
        Technique::Native,
        Technique::Nested,
        Technique::Shadow,
        Technique::Agile(AgileOptions::default()),
        Technique::Shsp(ShspOptions::default()),
    ]
}

/// A configuration with every knob the environment could reach set
/// explicitly.
#[must_use]
pub fn pinned(technique: Technique, thp: bool, paranoia: bool) -> SystemConfig {
    let cfg = SystemConfig::new(technique).with_paranoia(paranoia);
    if thp {
        cfg.with_thp()
    } else {
        cfg
    }
}

// ---------------------------------------------------------------- fig5

/// Data accesses per Figure 5 run. Every profile prefaults its footprint
/// first (about 203 000 guest-faulting accesses over the 8 profiles, next
/// to 8 × this many steady ones), so the length sets how much of the time
/// is fault handling. The `fig5` binary uses 1 000 000 (a 13 s matrix); at
/// 60 000 the traced run put 0.26 of machine time in faulting accesses
/// against 0.29 in hits and walks. At 400 000 it is 0.09 against 0.46,
/// and a matrix takes about 4.5 s on 2 workers.
pub const FIG5_ACCESSES: u64 = 400_000;

/// The Figure 5 matrix, in the order `experiments::fig5` builds it: 8
/// profiles × {4K, 2M} × {B, N, S, A}, a third of each run warm-up. The
/// benchmark seed picks each profile's workload seed (shared by the
/// profile's eight bars, so the bars stay comparable).
#[must_use]
pub fn fig5_requests(seed: u64) -> Vec<RunRequest> {
    let mut out = Vec::new();
    for (p, &wl) in Profile::ALL.iter().enumerate() {
        for thp in [false, true] {
            for technique in &techniques()[..4] {
                out.push(
                    RunRequest::new(pinned(*technique, thp, false), profile(wl, FIG5_ACCESSES))
                        .with_warmup(FIG5_ACCESSES / 3)
                        .with_seed(SplitMix64::derive(seed, p as u64)),
                );
            }
        }
    }
    out
}

/// Service options for one fig5 matrix pass (what `RunPlan` would use).
#[must_use]
pub fn fig5_options() -> PlanOptions {
    PlanOptions::with_threads(SHARDS)
}

// ---------------------------------------------------------------- churn

/// Data accesses per technique in the churn workload (5× `prof`).
pub const CHURN_ACCESSES: u64 = 100_000;

/// The `prof` churn-heavy spec: Zipf 0.8 over 16 MiB, remaps every 100
/// accesses, COW breaks every 150, clock scans every 400, 2 processes with
/// context switches. `prof` runs it at 20 000 accesses and seed 7.
#[must_use]
pub fn churn_spec(label: &str, accesses: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("prof-{label}"),
        footprint: 16 << 20,
        pattern: Pattern::Zipf { theta: 0.8 },
        write_fraction: 0.3,
        accesses,
        accesses_per_tick: 1_000,
        churn: ChurnSpec {
            remap_every: Some(100),
            remap_pages: 8,
            cow_every: Some(150),
            cow_pages: 8,
            clock_scan_every: Some(400),
            scan_pages: 32,
            churn_zone: 0.25,
            ctx_switch_every: Some(2_500),
            processes: 2,
        },
        prefault: false,
        prefault_writes: true,
        seed,
    }
}

/// One configuration per technique, paranoia off.
#[must_use]
pub fn churn_configs() -> Vec<SystemConfig> {
    techniques()
        .into_iter()
        .map(|t| pinned(t, false, false))
        .collect()
}

// ---------------------------------------------------------------- mc

/// Workload seed of the `mc` CI gate.
pub const MC_CI_SEED: u64 = 7;

/// Unique states each clean CI suite explores at [`MC_CI_SEED`], in
/// [`techniques`] order (B, N, S, A, SHSP); agile's 1997 is CI-pinned, and
/// the control run shares it.
pub const MC_CI_STATES: [u64; 5] = [184, 184, 2_180, 1_997, 798];

/// Unique states after which the re-planted missed-flush bug is found.
pub const REPLANT_STATES: u64 = 26;

/// The `mc` explorer workload: 32 pages, churny enough to reach every
/// decision point.
#[must_use]
pub fn mc_spec(label: &str, seed: u64) -> WorkloadSpec {
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

/// The `mc` gate's exploration budget.
#[must_use]
pub fn mc_budget() -> ExploreConfig {
    ExploreConfig {
        fuel: 4,
        max_schedules: 96,
        max_states: 8_192,
    }
}

/// How an explorer suite builds its machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteSetup {
    /// Paranoia and shootdown logging on.
    Clean(Technique),
    /// Agile under a host same-page-merge pass, heals off; `true`
    /// re-plants the `drop_shadow_leaf` missed-flush bug.
    Merge {
        /// Suppress the leaf flush (the re-planted bug).
        suppress: bool,
    },
}

/// What the gate requires of one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No counterexample.
    Clean,
    /// No counterexample, after exactly this many unique states.
    CleanAt(u64),
    /// A counterexample, found after exactly this many unique states.
    FoundAt(u64),
}

/// One explorer run of the mc workload.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Name in results.
    pub label: &'static str,
    /// Machine set-up.
    pub setup: SuiteSetup,
    /// The workload it explores.
    pub spec: WorkloadSpec,
    /// The required outcome.
    pub verdict: Verdict,
}

impl Suite {
    /// A fresh machine for one schedule.
    #[must_use]
    pub fn machine(&self) -> Machine {
        match self.setup {
            SuiteSetup::Clean(t) => {
                let mut m = Machine::new(pinned(t, false, true));
                m.enable_shootdown_log();
                m
            }
            SuiteSetup::Merge { suppress } => {
                let mut m = Machine::new(pinned(
                    Technique::Agile(AgileOptions::default()),
                    false,
                    true,
                ));
                m.enable_shootdown_log();
                let mut plan =
                    FaultPlan::new(0x4A11).scenario(20, ScenarioKind::HostMerge { pages: 8 });
                plan.max_heals_per_access = 0;
                m.enable_chaos(plan);
                m.chaos_suppress_leaf_flush(suppress);
                m
            }
        }
    }
}

/// The `mc` gate exactly as CI runs it (five clean suites, the control
/// and the replant, all on [`MC_CI_SEED`], with their pinned outcomes),
/// then one clean agile suite on the benchmark seed's workload. The gate's
/// own suites stay fixed so every seed does the same amount of search;
/// the seeded suite makes the inputs differ from seed to seed.
#[must_use]
pub fn mc_suites(seed: u64) -> Vec<Suite> {
    let labels = ["clean-B", "clean-N", "clean-S", "clean-A", "clean-SHSP"];
    let mut out: Vec<Suite> = techniques()
        .into_iter()
        .zip(labels)
        .zip(MC_CI_STATES)
        .map(|((t, label), states)| Suite {
            label,
            setup: SuiteSetup::Clean(t),
            spec: mc_spec(t.label(), MC_CI_SEED),
            verdict: Verdict::CleanAt(states),
        })
        .collect();
    for (label, suppress, verdict) in [
        ("control", false, Verdict::CleanAt(MC_CI_STATES[3])),
        ("replant", true, Verdict::FoundAt(REPLANT_STATES)),
    ] {
        out.push(Suite {
            label,
            setup: SuiteSetup::Merge { suppress },
            spec: mc_spec("replant", MC_CI_SEED),
            verdict,
        });
    }
    out.push(Suite {
        label: "seeded-A",
        setup: SuiteSetup::Clean(Technique::Agile(AgileOptions::default())),
        spec: mc_spec("seeded-A", seed),
        verdict: Verdict::Clean,
    });
    out
}

/// Every configuration a workload measures, for checking that the
/// environment cannot change them.
#[must_use]
pub fn configs(kind: Kind, seed: u64) -> Vec<SystemConfig> {
    match kind {
        Kind::Fig5 => fig5_requests(seed).iter().map(|r| r.config).collect(),
        Kind::Churn => churn_configs(),
        Kind::Mc => mc_suites(seed)
            .iter()
            .map(|s| *s.machine().config())
            .collect(),
    }
}

/// Data accesses a run of `spec` simulates, the prefault sweep included.
#[must_use]
pub fn spec_accesses(spec: &WorkloadSpec) -> u64 {
    let sweep = if spec.prefault {
        spec.churn.processes.max(1) as u64 * (spec.footprint / 4096)
    } else {
        0
    };
    spec.accesses + sweep
}
