//! Smoke tests for every experiment runner: each produces well-formed
//! output quickly (full-scale runs are the bench bins).

use agile_paging::experiments;
use agile_paging::Profile;

#[test]
fn table1_renders_all_techniques() {
    let run = experiments::table1(8_000, 2);
    for label in [
        "Base Native",
        "Nested Paging",
        "Shadow Paging",
        "Agile Paging",
    ] {
        assert!(
            run.text.contains(label),
            "missing {label} in:\n{}",
            run.text
        );
    }
}

#[test]
fn table2_reports_reference_breakdowns() {
    let run = experiments::table2();
    assert_eq!(run.rows.len(), 7);
    assert!(run.text.contains("paper"));
    for row in &run.rows {
        assert_eq!(
            u64::from(row.refs),
            row.shadow_refs + row.guest_refs + row.host_refs
        );
    }
}

#[test]
fn fig5_covers_every_bar_for_selected_workloads() {
    let run = experiments::fig5(6_000, Some(&[Profile::Astar]), 2);
    assert_eq!(run.rows.len(), 8, "2 page sizes x 4 techniques");
    for cfg in [
        "4K:B", "4K:N", "4K:S", "4K:A", "2M:B", "2M:N", "2M:S", "2M:A",
    ] {
        assert!(run.text.contains(cfg), "missing {cfg}");
    }
    assert_eq!(run.artifacts.len(), 8);
}

#[test]
fn table6_fractions_are_probabilities() {
    let run = experiments::table6(8_000, Some(&[Profile::Astar, Profile::Gcc]), 2);
    assert_eq!(run.rows.len(), 2);
    assert!(run.text.contains("Shadow(4)"));
    for row in &run.rows {
        let sum: f64 = row.fractions.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6 || sum == 0.0,
            "{}: {sum}",
            row.workload
        );
        for f in row.fractions {
            assert!((0.0..=1.0).contains(&f));
        }
        assert!(row.avg_refs >= 4.0 || row.avg_refs == 0.0);
        assert!(row.avg_refs <= 24.0);
    }
}

#[test]
fn vmtrap_costs_recovers_configured_latencies() {
    let run = experiments::vmtrap_costs(4_000, 2);
    assert_eq!(run.rows.len(), 4);
    assert!(run.text.contains("cycles/trap"));
    for row in &run.rows {
        assert!(row.count > 0, "{} produced no traps", row.micro);
    }
}

#[test]
fn ablations_render() {
    let hw = experiments::ablate_hw(4_000, 2);
    assert!(hw.text.contains("ad-sync traps"));
    let policy = experiments::ablate_policy(4_000, 2);
    assert!(policy.text.contains("dirty-bit-scan"));
    let pwc = experiments::ablate_pwc(4_000, 2);
    assert!(pwc.text.contains("avg refs/miss"));
}

#[test]
fn shsp_compare_reports_four_rows() {
    let run = experiments::shsp_compare(6_000, 2);
    assert_eq!(run.rows.len(), 4);
    assert!(run.text.contains("phase-mix"));
}

#[test]
fn experiment_json_and_csv_are_well_formed() {
    let run = experiments::table2();
    let json = run.to_json();
    assert_eq!(
        json.get("schema").and_then(|s| s.as_str()),
        Some(experiments::EXPERIMENT_SCHEMA)
    );
    assert_eq!(json.get("name").and_then(|s| s.as_str()), Some("table2"));
    let reparsed = agile_paging::Json::parse(&json.render()).expect("valid JSON");
    assert_eq!(reparsed.render(), json.render());
    let csv = run.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + run.rows.len(), "header + one line per row");
    assert!(lines[0].contains("label"));
}
