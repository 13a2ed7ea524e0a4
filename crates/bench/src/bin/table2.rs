//! Regenerates the paper's Table II (memory references per degree of nesting).
//! Fixture-based and serial: `--accesses` and `--threads` are accepted but
//! have no effect.
fn main() {
    let cli = agile_bench::BenchCli::from_env(1);
    cli.finish(&agile_core::experiments::table2());
}
