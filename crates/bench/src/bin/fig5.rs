//! Regenerates the paper's Figure 5 (execution-time overheads for all
//! workloads under 4K/2M x {Base, Nested, Shadow, Agile}).
fn main() {
    let cli = agile_bench::BenchCli::from_env(1_000_000);
    let run = agile_core::experiments::fig5(cli.accesses, None, cli.threads);
    cli.finish(&run);
    // Headline claims (paper Section VII-A).
    let mut improvements = Vec::new();
    for wl in agile_core::Profile::ALL {
        for thp in [false, true] {
            let best =
                agile_core::experiments::fig5::best_of_constituents(&run.rows, wl.name(), thp);
            let agile = run
                .rows
                .iter()
                .find(|r| {
                    r.workload == wl.name()
                        && r.config == format!("{}:A", if thp { "2M" } else { "4K" })
                })
                .map(|r| r.total);
            if let (Some(best), Some(agile)) = (best, agile) {
                improvements.push(((1.0 + best) / (1.0 + agile) - 1.0) * 100.0);
                println!(
                    "{:>10} {}: best(N,S)={:6.1}%  agile={:6.1}%  improvement={:5.1}%",
                    wl.name(),
                    if thp { "2M" } else { "4K" },
                    best * 100.0,
                    agile * 100.0,
                    ((1.0 + best) / (1.0 + agile) - 1.0) * 100.0
                );
            }
        }
    }
    let avg = improvements.iter().sum::<f64>() / improvements.len().max(1) as f64;
    println!("\nmean speedup of agile over best(nested, shadow): {avg:.1}%");
}
