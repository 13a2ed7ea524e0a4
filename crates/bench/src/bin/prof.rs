//! Hot-path micro-profiling smoke: runs one fixed churn-heavy workload
//! across all five techniques and prints each machine's deterministic
//! [`HotPathProfile`](agile_core::HotPathProfile) — per-phase step/visit
//! totals for the TLB → PWC → walk → fill inner loop plus the coalesced
//! flush-application counters — and a final `total-steps` guardrail line.
//!
//! Everything on stdout is a pure function of simulated state (no
//! wall-clock, no pointers, no map iteration order), so `gates` runs this
//! binary twice and byte-compares the output, and regresses on the exact
//! step counts rather than flaky timings. Wall-clock, when requested
//! with `--timings`, goes to stderr only.

use agile_core::{ChurnSpec, Machine, Pattern, SystemConfig, Technique, WorkloadSpec};

const ACCESSES: u64 = 20_000;

/// Churn-heavy profile workload: frequent remaps, COW breaks, and clock
/// scans so the flush-coalescing path is exercised alongside the walker.
fn spec(label: &str) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("prof-{label}"),
        footprint: 16 << 20,
        pattern: Pattern::Zipf { theta: 0.8 },
        write_fraction: 0.3,
        accesses: ACCESSES,
        accesses_per_tick: 1_000,
        churn: ChurnSpec {
            remap_every: Some(100),
            remap_pages: 8,
            cow_every: Some(150),
            cow_pages: 8,
            clock_scan_every: Some(400),
            scan_pages: 32,
            churn_zone: 0.25,
            ctx_switch_every: Some(2_500),
            processes: 2,
        },
        prefault: false,
        prefault_writes: true,
        seed: 7,
    }
}

fn main() {
    let timings = std::env::args().any(|a| a == "--timings");
    println!("# hot-path profile: {ACCESSES} accesses/technique, churn-heavy, seed 7");
    let mut total_steps = 0u64;
    for t in Technique::all() {
        let mut machine = Machine::new(SystemConfig::new(t));
        let started = std::time::Instant::now();
        machine.run_spec(&spec(t.label()));
        if timings {
            // Wall-clock is nondeterministic by nature: stderr only, so
            // stdout stays byte-comparable.
            eprintln!("{}: {:?}", t.label(), started.elapsed());
        }
        let profile = machine.profile();
        print!("{}", profile.render(t.label()));
        total_steps += profile.total_steps();
    }
    println!("total-steps {total_steps}");
}
