//! Facade crate for the agile-paging reproduction.
//!
//! Re-exports the full public API of [`agile_core`], which in turn re-exports
//! the substrate crates. See the workspace `README.md` for a tour and
//! `DESIGN.md` for the system inventory.
//!
//! For scripts and examples, `use agile_paging::prelude::*;` pulls in the
//! simulation API — configuration, the machine, the run engine, and the
//! workload library — without the long tail of substrate types.

#![forbid(unsafe_code)]

pub use agile_core::*;

/// The one-import surface for driving simulations.
///
/// ```
/// use agile_paging::prelude::*;
///
/// let artifact = RunRequest::new(
///     SystemConfig::new(Technique::Agile(AgileOptions::default())),
///     profile(Profile::Astar, 2_000),
/// )
/// .run();
/// assert!(artifact.stats.accesses > 0);
/// ```
pub mod prelude {
    pub use agile_core::runner::ARTIFACT_SCHEMA;
    pub use agile_core::types::SplitMix64;
    pub use agile_core::{
        micro_benches, profile, render_log, AgileOptions, CancelToken, ChurnSpec, DegradationKind,
        FaultPlan, FramePool, Host, HostConfig, JobId, JobState, JobStatus, Json, Machine,
        MigrationOutcome, Overheads, Pattern, PlanOptions, Profile, RunArtifact, RunOutcome,
        RunRequest, RunStats, ScenarioKind, Service, ServiceMetrics, ShspOptions, StopCause,
        SystemConfig, Technique, WorkloadSpec,
    };
}
