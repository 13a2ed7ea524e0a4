//! Run a fully custom workload/configuration on the simulator from
//! command-line flags. `simulate --help` prints the flag reference.

use agile_bench::SimArgs;
use agile_core::RunRequest;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sim = match SimArgs::parse(&args) {
        Ok(sim) => sim,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let artifact = RunRequest::new(sim.config, sim.spec.clone())
        .with_warmup(sim.warmup)
        .run();
    let stats = &artifact.stats;
    let o = stats.overheads();
    println!("configuration : {}", sim.config.label());
    println!(
        "accesses      : {} ({})",
        stats.accesses,
        sim.measured_window()
    );
    println!(
        "TLB misses    : {} (MPKA {:.1})",
        stats.tlb.misses,
        stats.mpka()
    );
    println!("avg refs/miss : {:.2}", stats.avg_refs_per_miss());
    println!("page-walk     : {:>7.1}%", o.page_walk * 100.0);
    println!("vmtrap        : {:>7.1}%", o.vmm * 100.0);
    println!("total overhead: {:>7.1}%", o.total() * 100.0);
    println!(
        "vmm events    : {} traps, {} to-nested, {} to-shadow, {} unsyncs",
        stats.traps.total_traps(),
        stats.vmm.to_nested,
        stats.vmm.to_shadow,
        stats.vmm.unsyncs
    );
    sim.emit(&artifact);
}
