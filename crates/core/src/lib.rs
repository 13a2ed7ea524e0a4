//! Top-level simulator for the agile-paging reproduction.
//!
//! [`Machine`] wires the substrates together — simulated physical memory,
//! the guest OS, the VMM, the TLB hierarchy, the page walk caches, and the
//! hardware walker — and executes workload event streams under any of the
//! five techniques (base native, nested, shadow, agile, SHSP). [`RunStats`]
//! collects what the paper's evaluation measures; the [`experiments`]
//! module regenerates every table and figure (see `DESIGN.md` for the
//! index).
//!
//! # Quickstart
//!
//! ```
//! use agile_core::{Machine, SystemConfig};
//! use agile_vmm::Technique;
//! use agile_workloads::{ChurnSpec, Pattern, WorkloadSpec};
//!
//! let spec = WorkloadSpec {
//!     name: "hello".into(),
//!     footprint: 16 << 20,
//!     pattern: Pattern::Uniform,
//!     write_fraction: 0.3,
//!     accesses: 10_000,
//!     accesses_per_tick: 5_000,
//!     churn: ChurnSpec::none(),
//!     prefault: false,
//!     prefault_writes: true,
//!     seed: 1,
//! };
//! let mut machine = Machine::new(SystemConfig::new(Technique::Shadow));
//! let stats = machine.run_spec(&spec);
//! assert_eq!(stats.accesses, 10_000);
//! assert!(stats.tlb.misses > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod chaos;
mod config;
pub mod experiments;
pub mod explore;
pub mod host;
mod machine;
pub mod profile;
mod report;
pub mod runner;
pub mod service;
pub mod snapshot;
mod stats;
pub mod verify;

pub use analyze::{
    check_host_frames, detect_host_shootdown_races, detect_shootdown_races, FlushScope, LintCode,
    LintDiag, LintReport, LintSeverity, ShootdownEvent, ShootdownLog, VmFrameView, VmShootdownView,
};
pub use chaos::{
    render_log, ChaosScenario, DegradationEvent, DegradationKind, FaultPlan, ScenarioKind,
};
pub use config::{SystemConfig, HOST_REF_CYCLES, WALK_REF_CYCLES};
pub use explore::{
    explore, replay, ChoicePoint, CounterexampleTrace, ExploreConfig, ExploreReport, Scheduler,
};
pub use host::{Host, HostConfig, MigrationOutcome};
pub use machine::{AccessError, Boundary, Machine};
pub use profile::{FlushApplyStats, HotPathProfile};
pub use report::Table;
pub use runner::{Json, RecoveryControls, RunArtifact, RunOutcome, RunRequest, ToJson};
pub use service::{
    CancelToken, JobId, JobState, JobStatus, PlanOptions, Service, ServiceMetrics, StopCause,
};
pub use snapshot::{
    bisect_violation, bisect_violation_with, diff, digest, BisectReport, Checkpoint,
    CheckpointSlot, DiffIntent, MachineSnapshot, ProcessImage, TransitionView, WorkerKill,
    SNAPSHOT_VERSION,
};
pub use stats::{KindCounts, Overheads, RunStats};
pub use verify::{RefTranslation, Violation, ViolationSite};

pub use agile_guest::{FaultError, GuestOs, OsStats, SegFault, Vma, VmaBacking};
pub use agile_mem::{FramePool, PhysMem, VM_FRAME_SPAN};
pub use agile_tlb::{PwcConfig, TlbConfig, TlbEntry};
pub use agile_types as types;
pub use agile_vmm::{
    AgileOptions, NestedToShadowPolicy, ShspOptions, Technique, VmtrapCosts, VmtrapKind,
    VmtrapStats,
};
pub use agile_walk::{WalkKind, WalkStats};
pub use agile_workloads::{
    micro_benches, profile, ChurnSpec, Event, MicroBench, Pattern, Profile, Workload, WorkloadSpec,
};
