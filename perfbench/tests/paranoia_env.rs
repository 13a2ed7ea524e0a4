//! The measured configurations do not depend on the environment. Kept as
//! the only test in its binary: it sets a process-wide variable.

use agile_perfbench::workload::{configs, Kind};

#[test]
fn configs_ignore_agile_paranoia() {
    std::env::remove_var("AGILE_PARANOIA");
    let without: Vec<_> = Kind::ALL.iter().map(|&k| configs(k, 3)).collect();
    std::env::set_var("AGILE_PARANOIA", "1");
    let with: Vec<_> = Kind::ALL.iter().map(|&k| configs(k, 3)).collect();
    std::env::remove_var("AGILE_PARANOIA");
    assert_eq!(without, with);
    for (kind, cfgs) in Kind::ALL.iter().zip(&without) {
        assert!(!cfgs.is_empty());
        let paranoid = *kind == Kind::Mc;
        assert!(
            cfgs.iter().all(|c| c.paranoia == paranoid),
            "{} pins paranoia {paranoid}",
            kind.name()
        );
    }
}
