//! Figure 5: execution-time overheads (page walks + VMM interventions)
//! for every workload under 4K/2M × {Base, Nested, Shadow, Agile}.

use super::ExperimentRun;
use crate::config::SystemConfig;
use crate::report::{pct, Table};
use crate::runner::{RunOutcome, RunRequest};
use crate::service::{PlanOptions, Service};
use agile_vmm::Technique;
use agile_workloads::{profile, Profile};

agile_types::record! {
    json;
    /// One Figure 5 bar: a workload × configuration pair.
    #[derive(Debug, Clone)]
    pub struct Fig5Row {
        /// Workload name.
        pub workload: String,
        /// Configuration label ("4K:B" … "2M:A").
        pub config: String,
        /// Page-walk overhead fraction (bottom bar segment).
        pub page_walk: f64,
        /// VMM-intervention overhead fraction (top dashed segment).
        pub vmm: f64,
        /// Combined overhead.
        pub total: f64,
        /// Average memory references per completed TLB-miss walk.
        pub avg_refs_per_miss: f64,
        /// TLB misses per thousand accesses.
        pub mpka: f64,
    }
}

/// The four techniques of Figure 5 in bar order: [`Technique::all`]
/// without SHSP, which the paper compares separately (Section VII-C).
pub(crate) fn techniques() -> [Technique; 4] {
    let [native, nested, shadow, agile, _shsp] = Technique::all();
    [native, nested, shadow, agile]
}

/// Runs the Figure 5 sweep with `accesses` data accesses per run across
/// `threads` workers. `workloads` defaults to all eight paper profiles
/// when `None`.
#[must_use]
pub fn fig5(
    accesses: u64,
    workloads: Option<&[Profile]>,
    threads: usize,
) -> ExperimentRun<Fig5Row> {
    let list = workloads.unwrap_or(&Profile::ALL);
    let mut requests = Vec::new();
    for &wl in list {
        for thp in [false, true] {
            for technique in techniques() {
                let mut cfg = SystemConfig::new(technique);
                if thp {
                    cfg = cfg.with_thp();
                }
                // Warm-up exclusion: the first third of the run populates
                // memory and tables; measurement covers the rest.
                requests
                    .push(RunRequest::new(cfg, profile(wl, accesses)).with_warmup(accesses / 3));
            }
        }
    }
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows = artifacts
        .iter()
        .map(|a| {
            let o = a.stats.overheads();
            Fig5Row {
                workload: a.workload.clone(),
                config: a.config.label(),
                page_walk: o.page_walk,
                vmm: o.vmm,
                total: o.total(),
                avg_refs_per_miss: a.stats.avg_refs_per_miss(),
                mpka: a.stats.mpka(),
            }
        })
        .collect::<Vec<_>>();
    ExperimentRun {
        name: "fig5",
        text: render(&rows, accesses),
        rows,
        artifacts,
    }
}

fn render(rows: &[Fig5Row], accesses: u64) -> String {
    let mut table = Table::new(vec![
        "workload".into(),
        "config".into(),
        "page-walk".into(),
        "vmtrap".into(),
        "total".into(),
        "avg refs/miss".into(),
        "MPKA".into(),
    ]);
    for r in rows {
        table.row(vec![
            r.workload.clone(),
            r.config.clone(),
            pct(r.page_walk),
            pct(r.vmm),
            pct(r.total),
            format!("{:.2}", r.avg_refs_per_miss),
            format!("{:.1}", r.mpka),
        ]);
    }
    format!(
        "Figure 5: execution time overheads (page walk + VMM intervention)\n\
         ({accesses} accesses per run; overheads normalized to ideal cycles)\n\n{}",
        table.render()
    )
}

/// Convenience: the best (lowest total overhead) of nested and shadow for a
/// workload's rows at one page size.
#[must_use]
pub fn best_of_constituents(rows: &[Fig5Row], workload: &str, thp: bool) -> Option<f64> {
    let prefix = if thp { "2M" } else { "4K" };
    let pick = |tech: &str| {
        rows.iter()
            .find(|r| r.workload == workload && r.config == format!("{prefix}:{tech}"))
            .map(|r| r.total)
    };
    match (pick("N"), pick("S")) {
        (Some(n), Some(s)) => Some(n.min(s)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quick two-workload sweep exercises the full pipeline. The real
    /// shape assertions live in the integration tests with more accesses.
    #[test]
    fn quick_sweep_produces_all_bars() {
        let run = fig5(4_000, Some(&[Profile::Mcf, Profile::Dedup]), 2);
        assert_eq!(run.rows.len(), 2 * 2 * 4);
        assert_eq!(run.artifacts.len(), run.rows.len());
        assert!(run.text.contains("4K:B"));
        assert!(run.text.contains("2M:A"));
        for r in &run.rows {
            assert!(r.total >= 0.0);
        }
    }

    #[test]
    fn best_of_constituents_picks_minimum() {
        let run = fig5(3_000, Some(&[Profile::Mcf]), 1);
        let best = best_of_constituents(&run.rows, "mcf", false).unwrap();
        let nested = run.rows.iter().find(|r| r.config == "4K:N").unwrap().total;
        let shadow = run.rows.iter().find(|r| r.config == "4K:S").unwrap().total;
        assert!((best - nested.min(shadow)).abs() < 1e-12);
    }
}
