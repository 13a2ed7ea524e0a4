//! Quickstart: run one workload under all five techniques and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use agile_paging::{ChurnSpec, Machine, Pattern, SystemConfig, Technique, WorkloadSpec};

fn main() {
    // A workload with a hot set, a long tail, and a churning slice of its
    // address space — the mix agile paging is built for.
    let spec = WorkloadSpec {
        name: "quickstart".into(),
        footprint: 24 << 20,
        pattern: Pattern::Zipf { theta: 0.8 },
        write_fraction: 0.35,
        accesses: 200_000,
        accesses_per_tick: 20_000,
        churn: ChurnSpec {
            remap_every: Some(2_000),
            remap_pages: 16,
            cow_every: Some(4_000),
            cow_pages: 8,
            churn_zone: 0.10,
            ..ChurnSpec::none()
        },
        prefault: false,
        prefault_writes: true,
        seed: 42,
    };

    println!(
        "workload: {} ({} MiB footprint, {} accesses)\n",
        spec.name,
        spec.footprint >> 20,
        spec.accesses
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>14}",
        "technique", "walk %", "vmtrap %", "total %", "avg refs/miss"
    );
    for technique in Technique::all() {
        let mut machine = Machine::new(SystemConfig::new(technique));
        let stats = machine.run_spec_measured(&spec, spec.accesses / 4);
        let o = stats.overheads();
        println!(
            "{:<22} {:>9.1}% {:>9.1}% {:>9.1}% {:>14.2}",
            technique.name(),
            o.page_walk * 100.0,
            o.vmm * 100.0,
            o.total() * 100.0,
            stats.avg_refs_per_miss()
        );
    }
    println!("\nLower is better. Agile paging should match or beat the best of");
    println!("nested and shadow paging — that is the paper's headline claim;");
    println!("shsp is its closest prior work.");
}
