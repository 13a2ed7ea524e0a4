//! Table I: the qualitative trade-off matrix, backed by measurements.
//!
//! Each claim in the paper's Table I is re-derived from a probe run: the
//! maximum memory references on a TLB miss come from measured walks, and
//! the "page table updates fast/slow" row comes from counting VMtraps on an
//! update-heavy probe.

use super::ExperimentRun;
use crate::config::SystemConfig;
use crate::report::Table;
use crate::runner::{RunOutcome, RunRequest};
use crate::service::{PlanOptions, Service};
use agile_vmm::{AgileOptions, Technique, VmtrapKind};
use agile_workloads::{ChurnSpec, Pattern, WorkloadSpec};

agile_types::record! {
    json;
    /// One technique's measured Table I column.
    #[derive(Debug, Clone)]
    pub struct Table1Row {
        /// Technique display name ("Base Native" … "Agile Paging").
        pub technique: String,
        /// Maximum memory references on a TLB miss (from the most expensive
        /// observed walk kind).
        pub max_refs: u32,
        /// Average memory references per TLB miss.
        pub avg_refs: f64,
        /// VMM cycles of page-table maintenance per guest page-table update.
        pub cycles_per_update: f64,
    }
}

impl Table1Row {
    /// The paper's qualitative "fast/slow" verdict for updates.
    #[must_use]
    pub fn update_label(&self) -> String {
        if self.cycles_per_update < 100.0 {
            format!("fast: direct ({:.0} cyc/update)", self.cycles_per_update)
        } else {
            format!(
                "slow: VMM-mediated ({:.0} cyc/update)",
                self.cycles_per_update
            )
        }
    }
}

fn probe_spec(accesses: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: "table1-probe".into(),
        footprint: 16 << 20,
        pattern: Pattern::Uniform,
        write_fraction: 0.5,
        accesses,
        accesses_per_tick: (accesses / 10).max(1),
        churn: ChurnSpec {
            remap_every: Some(500),
            remap_pages: 16,
            churn_zone: 0.10,
            ..ChurnSpec::none()
        },
        prefault: true,
        prefault_writes: true,
        seed: 99,
    }
}

/// Regenerates Table I on an update-heavy probe across `threads` workers.
#[must_use]
pub fn table1(accesses: u64, threads: usize) -> ExperimentRun<Table1Row> {
    let techniques = [
        ("Base Native", Technique::Native),
        ("Nested Paging", Technique::Nested),
        ("Shadow Paging", Technique::Shadow),
        ("Agile Paging", Technique::Agile(AgileOptions::default())),
    ];
    let requests = techniques.map(|(_, t)| {
        let cfg = SystemConfig::new(t).without_pwc();
        RunRequest::new(cfg, probe_spec(accesses)).with_warmup(accesses / 4)
    });
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows: Vec<Table1Row> = techniques
        .iter()
        .zip(&artifacts)
        .map(|((name, _), a)| {
            let stats = &a.stats;
            // Max refs per miss: derive from the most expensive observed
            // kind.
            let max_refs = crate::stats::KindCounts::TABLE6_ORDER
                .iter()
                .chain([&agile_walk::WalkKind::Native])
                .filter(|k| stats.kinds.count(**k) > 0)
                .map(|k| k.expected_refs_4k())
                .max()
                .unwrap_or(0);
            // VMM cycles attributable to page-table maintenance, per
            // update.
            let maintenance = stats.traps.cycles(VmtrapKind::GptWrite)
                + stats.traps.cycles(VmtrapKind::HiddenPageFault)
                + stats.traps.cycles(VmtrapKind::TlbFlush)
                + stats.traps.cycles(VmtrapKind::AdBitSync);
            Table1Row {
                technique: (*name).to_string(),
                max_refs,
                avg_refs: stats.avg_refs_per_miss(),
                cycles_per_update: maintenance as f64 / stats.vmm.gpt_writes_total.max(1) as f64,
            }
        })
        .collect();
    ExperimentRun {
        name: "table1",
        text: render(&rows, accesses),
        rows,
        artifacts,
    }
}

fn render(rows: &[Table1Row], accesses: u64) -> String {
    let mut table = Table::new(
        std::iter::once(String::new())
            .chain(rows.iter().map(|r| r.technique.clone()))
            .collect(),
    );
    table.row(vec![
        "TLB hit".into(),
        "fast (VA=>PA)".into(),
        "fast (gVA=>hPA)".into(),
        "fast (gVA=>hPA)".into(),
        "fast (gVA=>hPA)".into(),
    ]);
    table.row(
        std::iter::once("max refs on TLB miss".to_string())
            .chain(rows.iter().map(|r| r.max_refs.to_string()))
            .collect(),
    );
    table.row(
        std::iter::once("avg refs on TLB miss".to_string())
            .chain(rows.iter().map(|r| format!("{:.2}", r.avg_refs)))
            .collect(),
    );
    table.row(
        std::iter::once("page table updates".to_string())
            .chain(rows.iter().map(Table1Row::update_label))
            .collect(),
    );
    table.row(vec![
        "hardware support".into(),
        "1D page walk".into(),
        "2D+1D page walk".into(),
        "1D page walk".into(),
        "2D+1D walk + switching".into(),
    ]);
    format!(
        "Table I: technique trade-offs (measured on an update-heavy uniform probe,\n\
         walk caches disabled, {accesses} accesses)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_paper_claims() {
        let run = table1(6_000, 2);
        // Native/shadow max 4; nested max 24.
        assert!(run.text.contains("max refs on TLB miss  4"), "{}", run.text);
        assert!(run.text.contains("24"), "{}", run.text);
        assert!(run.text.contains("switching"), "{}", run.text);
        assert_eq!(run.rows.len(), 4);
        assert_eq!(run.artifacts.len(), 4);
    }
}
