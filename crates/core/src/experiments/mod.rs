//! Experiment runners: one per paper table/figure plus the ablations
//! called out in `DESIGN.md`.
//!
//! Every runner is deterministic, fans its run matrix through the
//! [`crate::runner`] engine (so `threads` only changes wall-clock time,
//! never results), and returns an [`ExperimentRun`]: a rendered text table
//! for humans, typed rows for tests, and the full [`RunArtifact`]s for
//! structured JSON/CSV emission.

pub mod ablate;
pub mod fig5;
pub mod shsp;
pub mod table1;
pub mod table2;
pub mod table6;
pub mod twostep;
pub mod vmtraps;

pub use ablate::{ablate_hw, ablate_interval, ablate_policy, ablate_pwc, AblateRow};
pub use fig5::{fig5, Fig5Row};
pub use shsp::{shsp_compare, ShspRow};
pub use table1::{table1, Table1Row};
pub use table2::{table2, Table2Row};
pub use table6::{table6, Table6Row};
pub use twostep::{twostep, TwoStepRow};
pub use vmtraps::{vmtrap_costs, VmtrapRow};

use crate::runner::{Json, RunArtifact, ToJson};

/// Schema tag embedded in every serialized experiment.
pub const EXPERIMENT_SCHEMA: &str = "agile-paging/experiment/v1";

/// The full result of one experiment: human-readable text, typed rows,
/// and the raw run artifacts behind them. Each row renders as one JSON
/// object ([`ToJson`]); nested objects become dotted columns in CSV.
#[derive(Debug, Clone)]
pub struct ExperimentRun<R> {
    /// Stable experiment name (the stem of its record under `results/`).
    pub name: &'static str,
    /// Rendered text table (what the binaries print).
    pub text: String,
    /// Typed result rows.
    pub rows: Vec<R>,
    /// Every underlying simulation run, in matrix order. Empty for
    /// experiments (Table II) whose unit of work is not a machine run.
    pub artifacts: Vec<RunArtifact>,
}

impl<R: ToJson> ExperimentRun<R> {
    /// Full JSON document: schema, name, rows, and per-run artifacts.
    ///
    /// Artifacts are rendered via [`RunArtifact::deterministic_json`] (no
    /// wall-clock timing), so the document is byte-identical run-to-run and
    /// at any thread count — the `gates` runner compares the emitted files
    /// at 1 and 8 threads to enforce it.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(EXPERIMENT_SCHEMA.into())),
            ("name", Json::Str(self.name.into())),
            ("rows", self.rows.to_json()),
            (
                "runs",
                Json::Arr(
                    self.artifacts
                        .iter()
                        .map(RunArtifact::deterministic_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// The rows flattened to CSV (dotted columns for nested objects).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let rows: Vec<Json> = self.rows.iter().map(ToJson::to_json).collect();
        agile_types::to_csv(&rows)
    }
}
