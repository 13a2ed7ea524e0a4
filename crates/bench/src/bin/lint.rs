//! `agile-lint`: whole-state static analysis of a paused machine.
//!
//! Two phases, both printing **only deterministic content** (`gates` runs
//! the binary twice and byte-compares the output):
//!
//! 1. **Clean phase** — every technique runs an unfaulted churn-heavy
//!    workload with the shootdown log armed, then lints. Any diagnostic
//!    is a bookkeeping bug in the simulator itself: deny-warnings
//!    semantics, the process exits non-zero.
//! 2. **Chaos phase** — the same fault matrix as the chaos smoke runs
//!    per technique and the final state is linted. Diagnostics here are
//!    *expected* when a planted fault is statically visible rather than
//!    healed; the contract is that the report is a pure function of the
//!    machine state, so the rendered output must be byte-stable.
//!
//! `--json` renders the same reports as one stable sorted-key JSON
//! object (one [`agile_core::LintReport::to_json`] per phase entry).

use agile_core::host::{Host, HostConfig};
use agile_core::types::VmId;
use agile_core::{
    AgileOptions, ChurnSpec, FaultPlan, Json, LintReport, Machine, Pattern, ScenarioKind,
    SystemConfig, Technique, WorkloadSpec,
};
use std::process::ExitCode;

const BASE: u64 = WorkloadSpec::REGION_BASE;
const ACCESSES: u64 = 3_000;

fn spec(label: &str, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("lint-{label}"),
        footprint: 8 << 20,
        pattern: Pattern::Uniform,
        write_fraction: 0.3,
        accesses: ACCESSES,
        accesses_per_tick: (ACCESSES / 4).max(1),
        churn: ChurnSpec {
            remap_every: Some(200),
            remap_pages: 8,
            cow_every: Some(350),
            cow_pages: 8,
            clock_scan_every: Some(500),
            scan_pages: 16,
            churn_zone: 0.25,
            ctx_switch_every: Some(400),
            processes: 2,
        },
        prefault: false,
        prefault_writes: true,
        seed,
    }
}

/// A lighter per-VM workload for the host phase (three VMs share one
/// pool, so the single-machine spec would be needlessly slow).
fn host_spec(label: &str, seed: u64) -> WorkloadSpec {
    let mut s = spec(label, seed);
    s.footprint = 1 << 20;
    s.accesses = 600;
    s.accesses_per_tick = 150;
    s
}

fn fault_matrix() -> FaultPlan {
    FaultPlan::new(0xC0FFEE)
        .drop_shootdowns(250)
        .defer_shootdowns(250, 16)
        .scenario(
            300,
            ScenarioKind::CorruptShadowPte {
                gva: BASE + 0x2000,
                bit: 12,
            },
        )
        .scenario(700, ScenarioKind::CorruptGuestPte { gva: BASE + 0x4000 })
        .scenario(
            1_100,
            ScenarioKind::TrapStorm {
                base: BASE,
                pages: 4,
                writes_per_page: 8,
            },
        )
}

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    let mut dirty = false;
    let mut clean_phase: Vec<(String, LintReport)> = Vec::new();
    let mut chaos_phase: Vec<(String, LintReport)> = Vec::new();

    if !json {
        println!("# agile-lint clean phase: unfaulted churn, shootdown log armed");
    }
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        m.enable_shootdown_log();
        m.run_spec(&spec(t.label(), 7));
        let report = m.lint();
        if !json {
            println!(
                "technique={} diagnostics={} clean={}",
                t.label(),
                report.diags.len(),
                report.is_clean(),
            );
            if !report.is_clean() {
                println!("{}", report.render());
            }
        }
        if !report.is_clean() {
            dirty = true;
        }
        clean_phase.push((t.label().to_string(), report));
    }

    if !json {
        println!("# agile-lint chaos phase: fault matrix, report must be deterministic");
    }
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        m.enable_chaos(fault_matrix());
        m.run_spec(&spec(t.label(), 7));
        let report = m.lint();
        if !json {
            println!("technique={} diagnostics={}", t.label(), report.diags.len());
            if !report.is_clean() {
                println!("{}", report.render());
            }
        }
        chaos_phase.push((t.label().to_string(), report));
    }

    if !json {
        println!("# agile-lint host phase: unfaulted 3-VM shared pool, deny diagnostics");
    }
    let host_report = {
        // Fault-free plans (all rates zero): the host arbitration itself —
        // lease grants, balloons, demotions, migration-free teardown — must
        // leave frame accounting that lints clean at host scope.
        let mut host = Host::new(HostConfig::new(384).initial_lease(64));
        let vm_techniques = [
            Technique::Agile(AgileOptions::default()),
            Technique::Nested,
            Technique::Shadow,
        ];
        for (i, t) in vm_techniques.into_iter().enumerate() {
            let i = i as u64;
            host.add_vm(
                SystemConfig::new(t),
                host_spec(&format!("host{i}"), 0x51 + i),
                FaultPlan::new(0x61 + i),
            );
        }
        host.run();
        host.teardown_vm(VmId::new(1));
        let report = host.lint();
        if !json {
            println!(
                "host diagnostics={} clean={} pool_conserved={}",
                report.diags.len(),
                report.is_clean(),
                host.pool().is_conserved(),
            );
            if !report.is_clean() {
                println!("{}", report.render());
            }
        }
        if !report.is_clean() {
            dirty = true;
        }
        report
    };

    if json {
        let phase = |entries: &[(String, LintReport)]| {
            Json::Arr(
                entries
                    .iter()
                    .map(|(label, r)| {
                        Json::obj(vec![
                            ("report", r.to_json()),
                            ("technique", Json::Str(label.clone())),
                        ])
                    })
                    .collect(),
            )
        };
        let out = Json::obj(vec![
            ("chaos", phase(&chaos_phase)),
            ("clean", phase(&clean_phase)),
            ("host", host_report.to_json()),
        ]);
        println!("{}", out.render());
    }

    if dirty {
        eprintln!("lint: diagnostics on an unfaulted machine (simulator bookkeeping bug)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
