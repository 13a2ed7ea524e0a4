//! Section VII-C: agile paging versus SHSP (selective hardware/software
//! paging), on a workload with alternating phases.
//!
//! SHSP switches an entire process temporally; agile paging is temporal
//! *and spatial*. A workload whose page-table churn is confined to part of
//! the address space shows the difference: SHSP must either eat nested-walk
//! latency everywhere or pay wholesale shadow rebuilds, while agile paging
//! nests only the churning subtree.

use super::ExperimentRun;
use crate::config::SystemConfig;
use crate::report::{pct, Table};
use crate::runner::{RunOutcome, RunRequest};
use crate::service::{PlanOptions, Service};
use agile_vmm::{AgileOptions, ShspOptions, Technique};
use agile_workloads::{ChurnSpec, Pattern, WorkloadSpec};

agile_types::record! {
    json;
    /// One technique's result on the phase workload.
    #[derive(Debug, Clone)]
    pub struct ShspRow {
        /// Technique label.
        pub technique: String,
        /// Page-walk overhead fraction.
        pub page_walk: f64,
        /// VMM-intervention overhead fraction.
        pub vmm: f64,
        /// Total overhead fraction.
        pub total_overhead: f64 as "total",
        /// Average memory references per completed TLB-miss walk.
        pub avg_refs_per_miss: f64,
    }
}

/// The phase workload: a large mostly-static footprint with a small
/// churning slice.
#[must_use]
pub fn phase_spec(accesses: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: "phase-mix".into(),
        footprint: 64 << 20,
        pattern: Pattern::Hotspot {
            hot_fraction: 0.3,
            hot_probability: 0.6,
        },
        write_fraction: 0.4,
        accesses,
        accesses_per_tick: (accesses / 8).max(1),
        churn: ChurnSpec {
            remap_every: Some((accesses / 64).max(1)),
            remap_pages: 32,
            ..ChurnSpec::none()
        },
        prefault: false,
        prefault_writes: true,
        seed: 0x5457,
    }
}

/// Runs the comparison across `threads` workers.
#[must_use]
pub fn shsp_compare(accesses: u64, threads: usize) -> ExperimentRun<ShspRow> {
    let techniques = [
        ("Nested", Technique::Nested),
        ("Shadow", Technique::Shadow),
        ("SHSP", Technique::Shsp(ShspOptions::default())),
        ("Agile", Technique::Agile(AgileOptions::default())),
    ];
    let requests = techniques.map(|(name, t)| {
        RunRequest::new(SystemConfig::new(t), phase_spec(accesses))
            .with_warmup(accesses / 4)
            .with_label(name)
    });
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows: Vec<ShspRow> = techniques
        .iter()
        .zip(&artifacts)
        .map(|((name, _), a)| {
            let o = a.stats.overheads();
            ShspRow {
                technique: (*name).to_string(),
                page_walk: o.page_walk,
                vmm: o.vmm,
                total_overhead: o.total(),
                avg_refs_per_miss: a.stats.avg_refs_per_miss(),
            }
        })
        .collect();
    ExperimentRun {
        name: "shsp",
        text: render(&rows, accesses),
        rows,
        artifacts,
    }
}

fn render(rows: &[ShspRow], accesses: u64) -> String {
    let mut table = Table::new(vec![
        "technique".into(),
        "page-walk".into(),
        "vmtrap".into(),
        "total".into(),
        "avg refs/miss".into(),
    ]);
    for r in rows {
        table.row(vec![
            r.technique.clone(),
            pct(r.page_walk),
            pct(r.vmm),
            pct(r.total_overhead),
            format!("{:.2}", r.avg_refs_per_miss),
        ]);
    }
    format!(
        "SHSP comparison (Section VII-C): phase-mix workload, {accesses} accesses\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_techniques_report() {
        let run = shsp_compare(6_000, 2);
        assert_eq!(run.rows.len(), 4);
        assert!(run.text.contains("SHSP"));
        assert!(run.text.contains("Agile"));
        assert_eq!(run.artifacts.len(), 4);
    }
}
