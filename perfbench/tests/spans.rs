//! Span arithmetic of the traced run.

use agile_perfbench::spans::{self, Recorder, Span};
use std::collections::BTreeMap;

fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        start_ns,
        end_ns,
    }
}

/// Self time per layer (the span name up to its first dot).
fn by_layer(tree: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, ns) in spans::self_time_by_name(tree) {
        let layer = name.split('.').next().expect("split yields one part");
        *out.entry(layer).or_insert(0) += ns;
    }
    out
}

/// Wall time the root spans cover.
fn wall_ns(tree: &[Span]) -> u64 {
    tree.iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

#[test]
fn self_time_is_duration_minus_child_coverage() {
    let tree = [
        span("replay.traced", None, 0, 100),
        span("machine.tick", Some(0), 10, 30),
        // Overlaps the first child: [10, 50) is covered once, not twice.
        span("machine.cow", Some(0), 20, 50),
        // Sticks out of its parent: only [90, 100) counts against it.
        span("machine.unmap", Some(0), 90, 120),
        span("snapshot.encode", Some(2), 25, 35),
    ];
    let selfs = spans::self_times(&tree);
    assert_eq!(selfs, vec![100 - 40 - 10, 20, 30 - 10, 30, 10]);
}

#[test]
fn self_times_partition_nested_spans() {
    let tree = [
        span("replay.traced", None, 0, 1_000),
        span("workloads.next", Some(0), 0, 100),
        span("machine.access_hit", Some(0), 100, 400),
        span("layers.walker", None, 1_000, 1_500),
        span("walk.1d", Some(3), 1_100, 1_300),
    ];
    let layers = by_layer(&tree);
    assert_eq!(layers["replay"], 600);
    assert_eq!(layers["workloads"], 100);
    assert_eq!(layers["machine"], 300);
    assert_eq!(layers["layers"], 300);
    assert_eq!(layers["walk"], 200);
    assert_eq!(layers.values().sum::<u64>(), wall_ns(&tree));
    let by_name = spans::self_time_by_name(&tree);
    assert_eq!(by_name["machine.access_hit"], 300);
}

#[test]
fn recorded_layer_shares_sum_to_at_most_the_traced_wall_time() {
    let mut rec = Recorder::new();
    let root = rec.enter("replay.traced");
    for _ in 0..50 {
        let t0 = rec.now_ns();
        std::hint::black_box((0..500).sum::<u64>());
        let t1 = rec.now_ns();
        rec.record("workloads.next", t0, t1);
        let inner = rec.enter("machine.tick");
        std::hint::black_box((0..2_000).sum::<u64>());
        rec.exit(inner);
    }
    rec.exit(root);
    let all = rec.spans();
    assert_eq!(all.len(), 101);
    assert!(all[1..].iter().all(|s| s.parent == Some(root)));
    let wall = wall_ns(all);
    assert_eq!(wall, all[0].duration_ns());
    let shares: Vec<f64> = by_layer(all)
        .values()
        .map(|&ns| ns as f64 / wall as f64)
        .collect();
    let total: f64 = shares.iter().sum();
    assert!(total <= 1.0 + 1e-12, "shares sum to {total}");
    assert!(shares.iter().all(|&s| (0.0..=1.0).contains(&s)));
}

#[test]
#[should_panic(expected = "spans close innermost first")]
fn spans_must_close_innermost_first() {
    let mut rec = Recorder::new();
    let outer = rec.enter("replay.traced");
    let _inner = rec.enter("machine.tick");
    rec.exit(outer);
}

#[test]
fn csv_lists_every_span_with_its_parent() {
    let tree = [
        span("replay.traced", None, 0, 10),
        span("machine.tick", Some(0), 2, 5),
    ];
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans.csv");
    spans::write_csv(&tree, &path).expect("write spans");
    let text = std::fs::read_to_string(&path).expect("read spans");
    std::fs::remove_file(&path).expect("clean up");
    assert_eq!(
        text,
        "id,parent,name,start_ns,end_ns\n0,,replay.traced,0,10\n1,0,machine.tick,2,5\n"
    );
}
