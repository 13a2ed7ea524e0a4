//! The paper's §VI two-step trace-and-model methodology, reproduced and
//! cross-validated.
//!
//! The paper could not run agile paging on real hardware; it projected it:
//! step 1 traces page-table updates under shadow paging and emulates the
//! switching policy offline; step 2 classifies nested-run TLB misses against
//! the step-1 region lists; a linear model (Table IV) combines the fractions
//! with measured shadow/nested costs. We have a simulator, so we can do what
//! the authors could not: run the projection *and* the real thing, and
//! compare.

use super::ExperimentRun;
use crate::config::SystemConfig;
use crate::report::{pct, Table};
use crate::runner::{RunArtifact, RunOutcome, RunRequest};
use crate::service::{PlanOptions, Service};
use agile_trace::{LinearModel, Step1Analysis, Step2Analysis};
use agile_vmm::{AgileOptions, Technique};
use agile_workloads::{profile, Profile, WorkloadSpec};

agile_types::record! {
    json;
    /// One workload's projection vs. direct simulation.
    #[derive(Debug, Clone)]
    pub struct TwoStepRow {
        /// Workload name.
        pub workload: String,
        /// Fraction of VMM interventions eliminated (step 1's `F_V`).
        pub fv: f64,
        /// Fraction of misses served fully in shadow mode (1 − Σ `F_Ni`).
        pub shadow_fraction: f64,
        /// The model's projected total overhead for agile paging.
        pub projected_overhead: f64,
        /// Directly simulated agile overhead.
        pub simulated_overhead: f64,
    }
}

/// The three runs behind one workload's row: shadow and nested with the
/// instrumented (tracing) VMM, plus the direct agile simulation as ground
/// truth.
fn requests_for(spec: &WorkloadSpec, warmup: u64) -> [RunRequest; 3] {
    [
        RunRequest::new(SystemConfig::new(Technique::Shadow), spec.clone())
            .with_warmup(warmup)
            .with_trace(),
        RunRequest::new(SystemConfig::new(Technique::Nested), spec.clone())
            .with_warmup(warmup)
            .with_trace(),
        RunRequest::new(
            SystemConfig::new(Technique::Agile(AgileOptions::default())),
            spec.clone(),
        )
        .with_warmup(warmup),
    ]
}

/// Combines a workload's (shadow, nested, agile) artifacts into the
/// projection row.
fn row_from(shadow: &RunArtifact, nested: &RunArtifact, agile: &RunArtifact) -> TwoStepRow {
    // Step 1: switching policy emulated offline from the shadow trace.
    let step1 = Step1Analysis::from_trace(shadow.trace.as_ref().expect("shadow run traced"));
    // Step 2: BadgerTrap-style classification of the nested run's misses.
    let step2 =
        Step2Analysis::from_trace(nested.trace.as_ref().expect("nested run traced"), &step1);
    // Table IV linear model from the measured shadow/nested runs.
    let per_miss = |stats: &crate::stats::RunStats| {
        if stats.tlb.misses == 0 {
            0.0
        } else {
            stats.walk_cycles as f64 / stats.tlb.misses as f64
        }
    };
    let model = LinearModel {
        ideal_cycles: shadow.stats.ideal_cycles,
        shadow_vmm_cycles: shadow.stats.traps.total_cycles(),
        tlb_misses: shadow.stats.tlb.misses,
        shadow_cycles_per_miss: per_miss(&shadow.stats),
        nested_cycles_per_miss: per_miss(&nested.stats),
    };
    let projection = model.project(step1.fv(), step2.fn_fractions());
    TwoStepRow {
        workload: shadow.workload.clone(),
        fv: step1.fv(),
        shadow_fraction: step2.shadow_fraction(),
        projected_overhead: projection.total_overhead(),
        simulated_overhead: agile.stats.overheads().total(),
    }
}

/// Runs the two-step methodology for `workloads` (default: dedup, memcached,
/// gcc, mcf — the paper's spread of update intensity) at `accesses`, with
/// all 3×W constituent runs fanned across `threads` workers.
#[must_use]
pub fn twostep(
    accesses: u64,
    workloads: Option<&[Profile]>,
    threads: usize,
) -> ExperimentRun<TwoStepRow> {
    let default = [
        Profile::Mcf,
        Profile::Gcc,
        Profile::Memcached,
        Profile::Dedup,
    ];
    let list = workloads.unwrap_or(&default);
    let warmup = accesses / 3;
    let requests = list
        .iter()
        .flat_map(|&wl| requests_for(&profile(wl, accesses), warmup));
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows: Vec<TwoStepRow> = artifacts
        .chunks_exact(3)
        .map(|triple| row_from(&triple[0], &triple[1], &triple[2]))
        .collect();
    ExperimentRun {
        name: "twostep",
        text: render(&rows, accesses),
        rows,
        artifacts,
    }
}

/// Runs the two-step methodology for one workload spec with an explicit
/// warm-up boundary (serial).
#[must_use]
pub fn twostep_spec(spec: &WorkloadSpec, warmup: u64) -> TwoStepRow {
    let [shadow, nested, agile] = requests_for(spec, warmup).map(|req| req.run());
    row_from(&shadow, &nested, &agile)
}

fn render(rows: &[TwoStepRow], accesses: u64) -> String {
    let mut table = Table::new(vec![
        "workload".into(),
        "F_V (traps cut)".into(),
        "shadow-mode misses".into(),
        "projected agile".into(),
        "simulated agile".into(),
    ]);
    for r in rows {
        table.row(vec![
            r.workload.clone(),
            pct(r.fv),
            pct(r.shadow_fraction),
            pct(r.projected_overhead),
            pct(r.simulated_overhead),
        ]);
    }
    format!(
        "Two-step methodology (paper SVI): trace-and-model projection vs direct\n\
         simulation ({accesses} accesses; step 1 = shadow trace, step 2 =\n\
         BadgerTrap-style classification, Table IV linear model)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini(churny: bool) -> WorkloadSpec {
        WorkloadSpec {
            name: "twostep-mini".into(),
            footprint: 8 << 20,
            pattern: agile_workloads::Pattern::Uniform,
            write_fraction: 0.3,
            accesses: 40_000,
            accesses_per_tick: 4_000,
            churn: if churny {
                agile_workloads::ChurnSpec {
                    remap_every: Some(500),
                    remap_pages: 16,
                    churn_zone: 0.2,
                    ..agile_workloads::ChurnSpec::none()
                }
            } else {
                agile_workloads::ChurnSpec::none()
            },
            prefault: true,
            prefault_writes: true,
            seed: 77,
        }
    }

    #[test]
    fn projection_tracks_direct_simulation_on_quiet_workload() {
        let row = twostep_spec(&mini(false), 13_000);
        // Churn-free: the model should project ~shadow behaviour and land
        // close to the direct simulation.
        assert!(
            row.shadow_fraction > 0.8,
            "shadow fraction {}",
            row.shadow_fraction
        );
        let gap = (row.projected_overhead - row.simulated_overhead).abs();
        assert!(
            gap < 0.25,
            "projection {:.3} vs simulation {:.3}",
            row.projected_overhead,
            row.simulated_overhead
        );
    }

    #[test]
    fn update_heavy_workload_shows_trap_elimination() {
        let row = twostep_spec(&mini(true), 13_000);
        assert!(row.fv > 0.3, "F_V = {}", row.fv);
        assert!(row.shadow_fraction < 1.0);
    }
}
