//! Checks every pinned output of the reproduction. Each row of
//! `results/gates.txt` (see [`agile_bench::gates`]) runs as a child
//! process of its sibling binary, in the directory of this one, at least
//! twice; the runs must exit 0, agree with each other, and equal their
//! references under `results/`. Run it from the repository root:
//!
//! ```text
//! cargo build --release --workspace && ./target/release/gates
//! ./target/release/gates --bless    # after a deliberate change
//! ```
//!
//! It prints one `ok`/`FAIL` line per row, a failure followed by the
//! first differing line, and exits 1 when any row fails. `--bless` is the
//! one writer of `results/`: it rewrites a row's references only when
//! all its runs exited 0 and agree. Without it, nothing in the repository
//! is written.

use agile_bench::gates::{agree, check_references, parse_manifest, run_row, MANIFEST, RESULTS};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
gates — check every pinned output against results/

usage: gates [--bless]

Runs each row of results/gates.txt through the binaries next to this one
(build them with `cargo build --release --workspace`), from the
repository root.

  --bless   rewrite the references a row's agreeing runs no longer match
  --help    this text
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => false,
        ["--bless"] => true,
        ["--help" | "-h"] => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rows = match std::fs::read_to_string(MANIFEST) {
        Err(e) => Err(format!(
            "cannot read {MANIFEST} ({e}); run gates from the repository root"
        )),
        Ok(text) => parse_manifest(&text),
    };
    let rows = match rows {
        Ok(rows) => rows,
        Err(msg) => {
            eprintln!("gates: {msg}");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe().expect("the running binary has a path");
    let bin_dir = exe.parent().expect("a binary lives in a directory");
    let scratch = std::env::temp_dir().join(format!("agile-gates-{}", std::process::id()));

    let mut failed = 0;
    for row in &rows {
        let started = Instant::now();
        let verdict = run_row(row, bin_dir, &scratch).and_then(|runs| {
            agree(row, &runs)?;
            check_references(row, &runs[0].outputs, Path::new(RESULTS), bless)
        });
        let secs = started.elapsed().as_secs_f64();
        match verdict {
            Ok(blessed) => {
                println!("ok   {secs:5.1}s  {}", row.command);
                for reference in blessed {
                    println!("      blessed {RESULTS}/{reference}");
                }
            }
            Err(report) => {
                failed += 1;
                println!(
                    "FAIL {secs:5.1}s  {}  ({MANIFEST}:{})",
                    row.command, row.line
                );
                for line in report.lines() {
                    println!("      {line}");
                }
            }
        }
    }
    // Best effort: the runs already removed their own directories.
    let _ = std::fs::remove_dir_all(&scratch);
    println!("gates: {} of {} rows ok", rows.len() - failed, rows.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
