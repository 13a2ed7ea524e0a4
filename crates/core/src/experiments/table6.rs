//! Table VI: percentage of TLB misses served by each agile-paging mode
//! (4 KiB pages, no page walk caches).

use super::ExperimentRun;
use crate::config::SystemConfig;
use crate::report::Table;
use crate::runner::{Json, RunOutcome, RunRequest, ToJson};
use crate::service::{PlanOptions, Service};
use crate::stats::KindCounts;
use agile_vmm::{AgileOptions, Technique};
use agile_workloads::{profile, Profile};

/// One workload's mode breakdown.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Workload name.
    pub workload: String,
    /// Fractions in Table VI column order (Shadow, L4, L3, L2, L1,
    /// Nested).
    pub fractions: [f64; 6],
    /// Average memory references per TLB miss.
    pub avg_refs: f64,
}

/// The fractions are keyed by Table VI column label.
impl ToJson for Table6Row {
    fn to_json(&self) -> Json {
        let modes = KindCounts::TABLE6_ORDER
            .iter()
            .zip(self.fractions)
            .map(|(kind, f)| (kind.table6_label().to_string(), Json::Num(f)))
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("fractions", Json::Obj(modes)),
            ("avg_refs", Json::Num(self.avg_refs)),
        ])
    }
}

/// Runs the Table VI measurement: agile paging, 4 KiB pages, walk caches
/// disabled, `accesses` accesses per workload, across `threads` workers.
#[must_use]
pub fn table6(
    accesses: u64,
    workloads: Option<&[Profile]>,
    threads: usize,
) -> ExperimentRun<Table6Row> {
    let list = workloads.unwrap_or(&Profile::ALL);
    let requests = list.iter().map(|&wl| {
        let cfg = SystemConfig::new(Technique::Agile(AgileOptions::default())).without_pwc();
        RunRequest::new(cfg, profile(wl, accesses)).with_warmup(accesses / 3)
    });
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows: Vec<Table6Row> = artifacts
        .iter()
        .map(|a| {
            let mut fractions = [0.0; 6];
            for (i, kind) in KindCounts::TABLE6_ORDER.iter().enumerate() {
                fractions[i] = a.stats.kinds.fraction(*kind);
            }
            Table6Row {
                workload: a.workload.clone(),
                fractions,
                avg_refs: a.stats.avg_refs_per_miss(),
            }
        })
        .collect();
    ExperimentRun {
        name: "table6",
        text: render(&rows, accesses),
        rows,
        artifacts,
    }
}

fn render(rows: &[Table6Row], accesses: u64) -> String {
    let mut table = Table::new(vec![
        "workload".into(),
        "Shadow(4)".into(),
        "L4(8)".into(),
        "L3(12)".into(),
        "L2(16)".into(),
        "L1(20)".into(),
        "Nested(24)".into(),
        "avg refs".into(),
    ]);
    for r in rows {
        let mut cells = vec![r.workload.clone()];
        for f in r.fractions {
            cells.push(format!("{:.1}%", f * 100.0));
        }
        cells.push(format!("{:.2}", r.avg_refs));
        table.row(cells);
    }
    format!(
        "Table VI: TLB misses served by each agile-paging mode\n\
         (4 KiB pages, page walk caches disabled, {accesses} accesses)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_when_misses_exist() {
        let run = table6(5_000, Some(&[Profile::Mcf]), 1);
        let sum: f64 = run.rows[0].fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn quiet_workload_is_mostly_shadow() {
        // A churn-free workload whose footprint warms up quickly: once the
        // demand-fault storm passes and the policy reverts, essentially
        // everything is served in full shadow mode and avg refs stay near
        // 4. (The full-size Table VI run over the paper profiles needs more
        // accesses; this is the steady-state smoke check.)
        use crate::config::SystemConfig;
        use crate::machine::Machine;
        use agile_vmm::{AgileOptions, Technique};
        let spec = agile_workloads::WorkloadSpec {
            name: "quiet".into(),
            footprint: 4 << 20,
            pattern: agile_workloads::Pattern::PointerChase,
            write_fraction: 0.2,
            accesses: 20_000,
            accesses_per_tick: 2_000,
            churn: agile_workloads::ChurnSpec::none(),
            prefault: false,
            prefault_writes: true,
            seed: 5,
        };
        let cfg = SystemConfig::new(Technique::Agile(AgileOptions::default())).without_pwc();
        let stats = Machine::new(cfg).run_spec(&spec);
        let shadow = stats.kinds.fraction(agile_walk::WalkKind::FullShadow);
        assert!(shadow > 0.8, "shadow fraction {shadow}");
        assert!(
            stats.avg_refs_per_miss() < 6.0,
            "avg refs {}",
            stats.avg_refs_per_miss()
        );
    }
}
