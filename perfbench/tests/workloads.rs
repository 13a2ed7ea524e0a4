//! The workloads reproduce the simulator's own CI inputs and vary with
//! the seed.

use agile_perfbench::measure::churn_total_steps;
use agile_perfbench::workload::{fig5_requests, mc_suites};

#[test]
fn churn_spec_reproduces_the_prof_step_pin() {
    // `prof` runs the same spec at 20 000 accesses and seed 7; CI pins it.
    assert_eq!(churn_total_steps(7, 20_000), 2_248_905);
}

#[test]
fn fig5_matrix_is_the_full_figure() {
    let requests = fig5_requests(1);
    assert_eq!(requests.len(), 8 * 2 * 4);
    let labels: Vec<String> = requests[..8].iter().map(|r| r.config.label()).collect();
    assert_eq!(
        labels,
        ["4K:B", "4K:N", "4K:S", "4K:A", "2M:B", "2M:N", "2M:S", "2M:A"]
    );
    assert_eq!(requests[0].spec.name, "graph500");
    let seeds = |s| fig5_requests(s).iter().map(|r| r.seed).collect::<Vec<_>>();
    assert_eq!(seeds(1), seeds(1));
    assert_ne!(seeds(1), seeds(2));
}

#[test]
fn mc_seed_moves_only_the_seeded_suite() {
    let a = mc_suites(1);
    let b = mc_suites(2);
    assert_eq!(a.len(), 8);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.spec.seed != y.spec.seed,
            x.label == "seeded-A",
            "{}",
            x.label
        );
    }
}
