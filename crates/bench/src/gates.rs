//! The pinned-output manifest, [`MANIFEST`], and the checks the `gates`
//! binary makes with it.
//!
//! Each row of the manifest is one command of an `agile-bench` binary and
//! the outputs every run of it must reproduce:
//!
//! ```text
//! [NAME=VALUE ...] BIN ARG... -> OUTPUT[=REFERENCE] ...
//! ```
//!
//! - Leading `NAME=VALUE` words set environment variables for the row.
//!   [`PARANOIA_ENV`] is removed from every run's environment unless the
//!   row sets it, so a caller's setting never leaks into a pin.
//! - One argument may be a *variant* `A|B|...`: the row runs once per
//!   alternative. A row without one runs twice.
//! - `{NAME}` inside an argument is a file the command writes; each run
//!   gets its own scratch path for it.
//! - Each `OUTPUT` is `stdout` or a `{NAME}` of the arguments. All runs
//!   must produce the same bytes for it, and when `=REFERENCE` names a
//!   file under `results/`, those bytes must equal that file.
//!
//! Blank lines and lines starting with `#` are ignored.

use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// The manifest's path, relative to the repository root.
pub const MANIFEST: &str = "results/gates.txt";

/// The directory the references live in, relative to the repository root.
pub const RESULTS: &str = "results";

/// The environment variable that turns the simulator's paranoia oracles
/// on; a run has it only when its row sets it.
pub const PARANOIA_ENV: &str = "AGILE_PARANOIA";

/// One output of a [`Row`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// `stdout`, or the name of a `{NAME}` placeholder in the arguments.
    pub name: String,
    /// File name under `results/` the output must equal; `None` when the
    /// runs need only agree with each other.
    pub reference: Option<String>,
}

/// One pinned command of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// 1-based line of the row in the manifest.
    pub line: usize,
    /// The command as written, everything before `->`.
    pub command: String,
    /// Environment variables the row sets.
    pub env: Vec<(String, String)>,
    /// The `agile-bench` binary the row runs.
    pub bin: String,
    /// The arguments; at most one is a variant `A|B|...`.
    pub args: Vec<String>,
    /// The outputs every run must reproduce.
    pub outputs: Vec<Output>,
}

impl Row {
    /// The runs of the row: one per alternative of its variant, or its
    /// arguments twice when it has none. Each comes with a label naming
    /// it in reports.
    #[must_use]
    pub fn runs(&self) -> Vec<(String, Vec<String>)> {
        match self.args.iter().position(|a| a.contains('|')) {
            Some(i) => self.args[i]
                .split('|')
                .map(|alt| {
                    let mut args = self.args.clone();
                    args[i] = alt.to_string();
                    (format!("run `{alt}`"), args)
                })
                .collect(),
            None => (1..=2)
                .map(|k| (format!("run {k}"), self.args.clone()))
                .collect(),
        }
    }
}

/// Parses the manifest text.
///
/// # Errors
///
/// Returns a message naming the manifest line of the first malformed row,
/// or of a reference that an earlier row already names.
pub fn parse_manifest(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let mut named: HashMap<String, usize> = HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let row = parse_row(line, text).map_err(|e| format!("{MANIFEST}:{line}: {e}"))?;
        for reference in row.outputs.iter().filter_map(|o| o.reference.as_ref()) {
            if let Some(first) = named.insert(reference.clone(), line) {
                return Err(format!(
                    "{MANIFEST}:{line}: reference {reference} is already named on line {first}"
                ));
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

fn parse_row(line: usize, text: &str) -> Result<Row, String> {
    let (command, outputs) = text
        .split_once("->")
        .ok_or("expected `BIN ARG... -> OUTPUT...`")?;
    let mut words = command.split_whitespace().peekable();
    let mut env = Vec::new();
    while let Some((name, value)) = words
        .peek()
        .and_then(|w| w.split_once('='))
        .filter(|(name, _)| is_env_name(name))
    {
        env.push((name.to_string(), value.to_string()));
        words.next();
    }
    let bin = words.next().ok_or("no binary before `->`")?.to_string();
    if bin.contains('/') {
        return Err(format!(
            "binary {bin} must be the name of an agile-bench binary, not a path"
        ));
    }
    let args: Vec<String> = words.map(String::from).collect();
    let mut variants = args.iter().filter(|a| a.contains('|'));
    if let Some(v) = variants.next() {
        if v.split('|').any(str::is_empty) {
            return Err(format!("empty alternative in variant {v}"));
        }
    }
    if let Some(v) = variants.next() {
        return Err(format!("more than one variant argument: {v}"));
    }
    let mut files = Vec::new();
    for arg in &args {
        files.extend(placeholders(arg)?);
    }
    let mut outs: Vec<Output> = Vec::new();
    for word in outputs.split_whitespace() {
        let (name, reference) = match word.split_once('=') {
            Some((name, reference)) => (name, Some(reference)),
            None => (word, None),
        };
        if name != "stdout" && !files.contains(&name) {
            return Err(format!(
                "output {name} is neither stdout nor a {{NAME}} of the arguments"
            ));
        }
        if outs.iter().any(|o| o.name == name) {
            return Err(format!("output {name} is listed twice"));
        }
        if let Some(r) = reference {
            if r.is_empty() || r.contains('/') || format!("{RESULTS}/{r}") == MANIFEST {
                return Err(format!(
                    "reference {r:?} must be the name of a file under {RESULTS}/ other than the manifest"
                ));
            }
        }
        outs.push(Output {
            name: name.to_string(),
            reference: reference.map(String::from),
        });
    }
    if outs.is_empty() {
        return Err("no outputs after `->`".into());
    }
    if let Some(file) = files.iter().find(|f| !outs.iter().any(|o| o.name == **f)) {
        return Err(format!("{{{file}}} is not listed as an output"));
    }
    Ok(Row {
        line,
        command: command.trim().to_string(),
        env,
        bin,
        args,
        outputs: outs,
    })
}

fn is_env_name(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_uppercase() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// The `{NAME}` placeholders of one argument.
fn placeholders(arg: &str) -> Result<Vec<&str>, String> {
    let mut names = Vec::new();
    let mut rest = arg;
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .ok_or(format!("unclosed {{ in argument {arg}"))?;
        let name = &rest[open + 1..open + close];
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad placeholder {{{name}}} in argument {arg}"));
        }
        names.push(name);
        rest = &rest[open + close + 1..];
    }
    Ok(names)
}

/// What one run of a row produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Names the run in reports: `run 2`, or ``run `8` `` for a variant
    /// alternative.
    pub label: String,
    /// `Err` says how the run failed: it could not start, exited
    /// non-zero, or did not write one of its files.
    pub exit: Result<(), String>,
    /// The bytes of each of the row's outputs, in [`Row::outputs`] order.
    pub outputs: Vec<Vec<u8>>,
}

/// Runs each of `row`'s [`Row::runs`] as a child process of
/// `bin_dir/<bin>`, in the current directory, with each `{NAME}` pointing
/// into a fresh directory under `scratch` that is removed afterwards.
///
/// # Errors
///
/// Returns a message naming the build command when the binary is missing,
/// or naming the directory that could not be created.
pub fn run_row(row: &Row, bin_dir: &Path, scratch: &Path) -> Result<Vec<Run>, String> {
    let exe = bin_dir.join(&row.bin);
    if !exe.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release --workspace`",
            exe.display()
        ));
    }
    let mut runs = Vec::new();
    for (k, (label, args)) in row.runs().into_iter().enumerate() {
        let dir = scratch.join(format!("line{}-run{k}", row.line));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let args: Vec<String> = args
            .iter()
            .map(|arg| {
                row.outputs.iter().fold(arg.clone(), |arg, o| {
                    arg.replace(
                        &format!("{{{}}}", o.name),
                        &dir.join(&o.name).to_string_lossy(),
                    )
                })
            })
            .collect();
        let run = match Command::new(&exe)
            .args(&args)
            .env_remove(PARANOIA_ENV)
            .envs(row.env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .output()
        {
            Err(e) => Run {
                label,
                exit: Err(format!("could not start {}: {e}", exe.display())),
                outputs: vec![Vec::new(); row.outputs.len()],
            },
            Ok(out) => {
                let mut exit = if out.status.success() {
                    Ok(())
                } else {
                    Err(format!("{}{}", out.status, stderr_tail(&out.stderr)))
                };
                let mut outputs = Vec::new();
                for o in &row.outputs {
                    if o.name == "stdout" {
                        outputs.push(out.stdout.clone());
                        continue;
                    }
                    match std::fs::read(dir.join(&o.name)) {
                        Ok(bytes) => outputs.push(bytes),
                        Err(e) => {
                            if exit.is_ok() {
                                exit = Err(format!("wrote no {{{}}}: {e}", o.name));
                            }
                            outputs.push(Vec::new());
                        }
                    }
                }
                Run {
                    label,
                    exit,
                    outputs,
                }
            }
        };
        // Best effort: a leftover scratch file changes no verdict.
        let _ = std::fs::remove_dir_all(&dir);
        runs.push(run);
    }
    Ok(runs)
}

/// The last lines of a failed run's stderr, indented for a report.
fn stderr_tail(stderr: &[u8]) -> String {
    let text = String::from_utf8_lossy(stderr);
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..]
        .iter()
        .map(|l| format!("\n  {l}"))
        .collect()
}

/// Checks that every run of `row` exited 0 and that all runs produced the
/// same bytes for each output.
///
/// # Errors
///
/// Returns a report naming the failed run, or the output that differs
/// between two runs with its [`first_difference`].
pub fn agree(row: &Row, runs: &[Run]) -> Result<(), String> {
    for run in runs {
        if let Err(e) = &run.exit {
            return Err(format!("{} failed: {e}", run.label));
        }
    }
    let Some((first, rest)) = runs.split_first() else {
        return Err("no runs".into());
    };
    for run in rest {
        for (k, output) in row.outputs.iter().enumerate() {
            if let Some(diff) = first_difference(&first.outputs[k], &run.outputs[k]) {
                return Err(format!(
                    "nondeterministic {}: {} and {} differ at {diff}",
                    output.name, first.label, run.label
                ));
            }
        }
    }
    Ok(())
}

/// Compares the agreed `outputs` of `row` with their references under
/// `results`. With `bless`, a reference that differs or is missing is
/// rewritten instead, and its file name is returned.
///
/// # Errors
///
/// Without `bless`, returns a report naming the output, the reference
/// and the [`first_difference`]; with it, a message naming a reference
/// that could not be written.
pub fn check_references(
    row: &Row,
    outputs: &[Vec<u8>],
    results: &Path,
    bless: bool,
) -> Result<Vec<String>, String> {
    let mut blessed = Vec::new();
    for (output, got) in row.outputs.iter().zip(outputs) {
        let Some(reference) = &output.reference else {
            continue;
        };
        let path = results.join(reference);
        let want = std::fs::read(&path);
        if want.as_ref().is_ok_and(|want| want == got) {
            continue;
        }
        if bless {
            std::fs::write(&path, got)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            blessed.push(reference.clone());
            continue;
        }
        return Err(match want {
            Err(e) => format!("cannot read {}: {e}", path.display()),
            Ok(want) => format!(
                "{} differs from {} at {}",
                output.name,
                path.display(),
                first_difference(&want, got).expect("the bytes differ")
            ),
        });
    }
    Ok(blessed)
}

/// A line at most this long is shown whole in a difference report.
const LINE_SHOWN_WHOLE: usize = 100;

/// Bytes shown on each side of the first difference on a longer line.
const WINDOW: usize = 32;

/// Where `actual` first departs from `expected`, or `None` when the two
/// are equal: the line number and byte offset of the first differing
/// byte (counted from 0), then that line of each side. A line longer than
/// 100 bytes, such as one-line JSON, is cut to 32 bytes either side of
/// the offset.
#[must_use]
pub fn first_difference(expected: &[u8], actual: &[u8]) -> Option<String> {
    let offset = match expected.iter().zip(actual).position(|(a, b)| a != b) {
        Some(offset) => offset,
        None if expected.len() == actual.len() => return None,
        None => expected.len().min(actual.len()),
    };
    let before = &expected[..offset];
    let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let show = |side: &[u8]| {
        let line_end = side[offset..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(side.len(), |i| offset + i);
        let (from, to) = if line_end - line_start <= LINE_SHOWN_WHOLE {
            (line_start, line_end)
        } else {
            (
                offset.saturating_sub(WINDOW).max(line_start),
                (offset + WINDOW).min(line_end),
            )
        };
        let mut shown = String::new();
        if from > line_start {
            shown.push_str("...");
        }
        for c in String::from_utf8_lossy(&side[from..to]).chars() {
            if c.is_control() {
                shown.extend(c.escape_default());
            } else {
                shown.push(c);
            }
        }
        if to < line_end {
            shown.push_str("...");
        }
        if to == side.len() {
            shown.push_str("<end>");
        }
        shown
    };
    Some(format!(
        "line {line}, byte {offset}\n  expected: {}\n  actual:   {}",
        show(expected),
        show(actual)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn repo_file(path: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path)
    }

    fn row(text: &str) -> Row {
        parse_manifest(text)
            .expect("a well-formed row")
            .pop()
            .expect("one row")
    }

    #[test]
    fn every_result_file_is_the_reference_of_exactly_one_row() {
        let text = std::fs::read_to_string(repo_file(MANIFEST)).expect("the manifest is committed");
        let rows = parse_manifest(&text).expect("the committed manifest parses");
        let mut named: Vec<String> = rows
            .iter()
            .flat_map(|r| r.outputs.iter().filter_map(|o| o.reference.clone()))
            .collect();
        named.sort();
        let mut files: Vec<String> = std::fs::read_dir(repo_file(RESULTS))
            .expect("results/ exists")
            .map(|e| {
                e.expect("readable entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| format!("{RESULTS}/{name}") != MANIFEST)
            .collect();
        files.sort();
        // `parse_manifest` rejects a reference named twice, so equal
        // sorted lists mean exactly one row per file.
        assert_eq!(named, files);
    }

    #[test]
    fn a_row_parses_its_env_variant_and_outputs() {
        let r = row("AGILE_PARANOIA=1 fig5 --threads 1|8 --json {json} -> stdout json=fig5.json");
        assert_eq!(r.line, 1);
        assert_eq!(
            r.command,
            "AGILE_PARANOIA=1 fig5 --threads 1|8 --json {json}"
        );
        assert_eq!(r.env, vec![("AGILE_PARANOIA".into(), "1".into())]);
        assert_eq!(r.bin, "fig5");
        assert_eq!(
            r.outputs,
            vec![
                Output {
                    name: "stdout".into(),
                    reference: None
                },
                Output {
                    name: "json".into(),
                    reference: Some("fig5.json".into())
                },
            ]
        );
        let runs = r.runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].1, ["--threads", "8", "--json", "{json}"]);
        assert_eq!(
            row("mc --json -> stdout").runs()[1],
            ("run 2".into(), vec!["--json".into()])
        );
    }

    #[test]
    fn a_malformed_row_is_an_error_naming_its_line() {
        for (text, says) in [
            ("mc --json", "expected `BIN ARG... -> OUTPUT...`"),
            (" -> stdout", "no binary"),
            ("AGILE_PARANOIA=1 -> stdout", "no binary"),
            ("mc ->", "no outputs"),
            ("../mc -> stdout", "not a path"),
            (
                "fig5 --threads 1|8 --accesses 5|6 -> stdout",
                "more than one variant",
            ),
            ("fig5 --threads 1| -> stdout", "empty alternative"),
            ("fig5 -> json", "neither stdout nor"),
            ("fig5 --json {json} -> stdout", "{json} is not listed"),
            ("fig5 --json {json -> json", "unclosed"),
            ("fig5 --json {} -> stdout", "bad placeholder"),
            ("mc -> stdout stdout", "listed twice"),
            ("mc -> stdout=", "must be the name of a file"),
            ("mc -> stdout=../x.txt", "must be the name of a file"),
            ("mc -> stdout=gates.txt", "other than the manifest"),
        ] {
            let err = parse_manifest(&format!("# header\n\n{text}\n")).unwrap_err();
            assert!(err.starts_with(&format!("{MANIFEST}:3: ")), "{text}: {err}");
            assert!(err.contains(says), "{text}: {err}");
        }
        let err = parse_manifest("mc -> stdout=a.txt\nlint -> stdout=a.txt\n").unwrap_err();
        assert_eq!(
            err,
            format!("{MANIFEST}:2: reference a.txt is already named on line 1")
        );
    }

    #[test]
    fn first_difference_names_the_line_of_a_multi_line_text() {
        let expected = b"# header\ntechnique=A states=1997\ntotal 3\n";
        let actual = b"# header\ntechnique=A states=1998\ntotal 3\n";
        assert_eq!(first_difference(expected, expected), None);
        assert_eq!(
            first_difference(expected, actual).unwrap(),
            "line 2, byte 31\n  expected: technique=A states=1997\n  actual:   technique=A states=1998"
        );
        // One side ends early.
        assert_eq!(
            first_difference(expected, &expected[..33]).unwrap(),
            "line 3, byte 33\n  expected: total 3\n  actual:   <end>"
        );
    }

    #[test]
    fn first_difference_windows_a_one_line_json_around_the_offset() {
        let expected = format!(
            "{{\"pad\":\"{}\",\"states\":1997,\"tail\":\"{}\"}}\n",
            "x".repeat(200),
            "y".repeat(200)
        );
        let offset = expected.find("1997").unwrap() + 3;
        let actual = expected.replacen("1997", "1998", 1);
        let report = first_difference(expected.as_bytes(), actual.as_bytes()).unwrap();
        let window = |s: &str| format!("...{}...", &s[offset - WINDOW..offset + WINDOW]);
        assert_eq!(
            report,
            format!(
                "line 1, byte {offset}\n  expected: {}\n  actual:   {}",
                window(&expected),
                window(&actual)
            )
        );
        assert!(report.contains("\"states\":1997") && report.contains("\"states\":1998"));
    }

    #[test]
    fn first_difference_escapes_control_bytes() {
        let report = first_difference(b"a\tb", b"a\x01b").unwrap();
        assert!(
            report.ends_with("expected: a\\tb<end>\n  actual:   a\\u{1}b<end>"),
            "{report}"
        );
    }

    fn run(label: &str, exit: Result<(), String>, outputs: &[&str]) -> Run {
        Run {
            label: label.into(),
            exit,
            outputs: outputs.iter().map(|o| o.as_bytes().to_vec()).collect(),
        }
    }

    #[test]
    fn runs_that_differ_are_nondeterministic() {
        let r = row("serve --shards 1|8 --out {out} -> out=serve.json");
        let ok = [
            run("run `1`", Ok(()), &["a\nb\n"]),
            run("run `8`", Ok(()), &["a\nb\n"]),
        ];
        assert_eq!(agree(&r, &ok), Ok(()));
        let varying = [
            run("run `1`", Ok(()), &["a\nb\n"]),
            run("run `8`", Ok(()), &["a\nc\n"]),
        ];
        let err = agree(&r, &varying).unwrap_err();
        assert!(
            err.starts_with("nondeterministic out: run `1` and run `8` differ at line 2"),
            "{err}"
        );
    }

    #[test]
    fn a_failed_run_fails_even_when_its_output_matches() {
        let r = row("mc -> stdout=mc.txt");
        let runs = [
            run("run 1", Ok(()), &["same\n"]),
            run("run 2", Err("exit status: 1".into()), &["same\n"]),
        ];
        assert_eq!(agree(&r, &runs), Err("run 2 failed: exit status: 1".into()));
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("agile-gates-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn references_are_compared_and_blessed_only_when_asked() {
        let dir = scratch("bless");
        let r = row("mc --json {json} -> stdout json=mc.json");
        std::fs::write(dir.join("mc.json"), "{\"a\":1}\n").unwrap();
        let same = [b"log\n".to_vec(), b"{\"a\":1}\n".to_vec()];
        assert_eq!(check_references(&r, &same, &dir, false), Ok(vec![]));
        let moved = [b"log\n".to_vec(), b"{\"a\":2}\n".to_vec()];
        let err = check_references(&r, &moved, &dir, false).unwrap_err();
        assert!(
            err.starts_with("json differs from ") && err.contains("mc.json at line 1, byte 5"),
            "{err}"
        );
        assert_eq!(std::fs::read(dir.join("mc.json")).unwrap(), same[1]);
        assert_eq!(
            check_references(&r, &moved, &dir, true),
            Ok(vec!["mc.json".into()])
        );
        assert_eq!(std::fs::read(dir.join("mc.json")).unwrap(), moved[1]);
        std::fs::remove_file(dir.join("mc.json")).unwrap();
        let err = check_references(&r, &moved, &dir, false).unwrap_err();
        assert!(
            err.starts_with("cannot read ") && err.contains("mc.json"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_missing_binary_names_the_build_command() {
        let dir = scratch("missing");
        let err = run_row(&row("fig5 -> stdout"), &dir, &dir).unwrap_err();
        assert!(
            err.contains("fig5 not found: build it with `cargo build --release --workspace`"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
