//! Section VI "Cost of VMtraps": the LMbench-style microbenchmark table.
//!
//! Each microbenchmark isolates one trap source under shadow paging; the
//! reported per-trap cost is VMM cycles divided by trap count, which (by
//! construction of the cost model) recovers the configured per-trap
//! latencies — the analogue of the paper measuring its platform's VMexit
//! costs before plugging them into the linear model.

use super::ExperimentRun;
use crate::config::SystemConfig;
use crate::report::Table;
use crate::runner::{RunOutcome, RunRequest};
use crate::service::{PlanOptions, Service};
use agile_vmm::{Technique, VmtrapKind};
use agile_workloads::micro_benches;

agile_types::record! {
    json;
    /// One microbenchmark result.
    #[derive(Debug, Clone)]
    pub struct VmtrapRow {
        /// Microbenchmark name.
        pub micro: String,
        /// Dominant trap kind observed.
        pub dominant: VmtrapKind,
        /// Traps of the dominant kind.
        pub count: u64,
        /// Measured cycles per dominant trap.
        pub cycles_each: f64,
        /// Total VMM cycles across all trap kinds.
        pub total_vmm_cycles: u64,
    }
}

/// Runs the microbenchmark suite under shadow paging across `threads`
/// workers.
#[must_use]
pub fn vmtrap_costs(accesses: u64, threads: usize) -> ExperimentRun<VmtrapRow> {
    let micros = micro_benches(accesses);
    let requests = micros.iter().map(|micro| {
        RunRequest::new(SystemConfig::new(Technique::Shadow), micro.spec.clone())
            .with_label(micro.name)
    });
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows: Vec<VmtrapRow> = micros
        .iter()
        .zip(&artifacts)
        .map(|(micro, a)| {
            let stats = &a.stats;
            let dominant = VmtrapKind::ALL
                .into_iter()
                .max_by_key(|k| stats.traps.cycles(*k))
                .expect("kinds non-empty");
            let count = stats.traps.count(dominant);
            let cycles_each = if count == 0 {
                0.0
            } else {
                stats.traps.cycles(dominant) as f64 / count as f64
            };
            VmtrapRow {
                micro: micro.name.to_string(),
                dominant,
                count,
                cycles_each,
                total_vmm_cycles: stats.traps.total_cycles(),
            }
        })
        .collect();
    ExperimentRun {
        name: "vmtraps",
        text: render(&rows, accesses),
        rows,
        artifacts,
    }
}

fn render(rows: &[VmtrapRow], accesses: u64) -> String {
    let mut table = Table::new(vec![
        "microbenchmark".into(),
        "dominant trap".into(),
        "traps".into(),
        "cycles/trap".into(),
        "total VMM cycles".into(),
    ]);
    for r in rows {
        table.row(vec![
            r.micro.clone(),
            r.dominant.label().to_string(),
            r.count.to_string(),
            format!("{:.0}", r.cycles_each),
            r.total_vmm_cycles.to_string(),
        ]);
    }
    format!(
        "Cost of VMtraps (Section VI): shadow paging, {accesses} accesses per micro\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_micro_produces_traps_in_the_thousands_of_cycles() {
        let run = vmtrap_costs(3_000, 2);
        assert_eq!(run.rows.len(), 4);
        for r in &run.rows {
            assert!(r.count > 0, "{} produced no traps", r.micro);
            assert!(
                r.cycles_each >= 1000.0,
                "{}: {} cycles/trap",
                r.micro,
                r.cycles_each
            );
        }
    }

    #[test]
    fn context_switch_micro_is_dominated_by_switch_traps() {
        let run = vmtrap_costs(3_000, 1);
        let ctx = run
            .rows
            .iter()
            .find(|r| r.micro == "context-switch")
            .unwrap();
        assert_eq!(ctx.dominant, VmtrapKind::ContextSwitch);
    }
}
