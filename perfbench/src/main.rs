//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]`
//!
//! Runs one workload in this process and prints one JSON line: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace
//! 1`), the output checks' verdict, and the output digest. `run.py` in
//! this directory builds this binary, runs it and reports the result.

use agile_core::Json;
use agile_perfbench::workload::Kind;
use agile_perfbench::{layers, measure, peak_rss_mb, spans, speed};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload fig5|churn|mc --seed N --seconds S \
                     --trace 0|1 [--spans PATH]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn metrics_json<S: AsRef<str>>(metrics: &[(S, f64, &str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.as_ref().to_string(),
                    Json::obj(vec![
                        ("unit", Json::Str((*unit).into())),
                        ("value", Json::Num(*value)),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = raw.as_slice() {
        if flag == speed::SAMPLE_FLAG {
            let Ok(threads) = threads.parse() else {
                eprintln!("{flag} takes a thread count");
                return ExitCode::from(2);
            };
            println!("{}", speed::measure(threads));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut samples = Json::Null;
    let (attempted, failed, problems, metrics, digest) = if args.trace {
        let traced = layers::run(args.kind, args.seed);
        if let Some(path) = &args.spans {
            if let Err(e) = spans::write_csv(&traced.spans, path) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        (
            traced.attempted,
            traced.problems.len() as u64,
            traced.problems,
            metrics_json(&traced.metrics),
            Json::Null,
        )
    } else {
        let e2e = measure::run(args.kind, args.seed, args.seconds);
        let metrics = metrics_json(&e2e.metrics(peak_rss_mb()));
        let list = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        samples = Json::obj(vec![
            ("setup_s", list(&e2e.setup_s)),
            ("sim_accesses_per_s", list(&e2e.accesses_per_s)),
            ("latency_ms", list(&e2e.latencies_ms)),
            ("busy_frac", list(&e2e.busy_frac)),
            ("slowdown", list(&e2e.slowdown)),
        ]);
        (
            e2e.attempted,
            e2e.failed,
            e2e.problems,
            metrics,
            Json::Str(e2e.digest),
        )
    };
    let out = Json::obj(vec![
        ("workload", Json::Str(args.kind.name().into())),
        ("seed", Json::UInt(args.seed)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        (
            "problems",
            Json::Arr(problems.into_iter().map(Json::Str).collect()),
        ),
        ("digest", digest),
        ("metrics", metrics),
        ("samples", samples),
    ]);
    println!("{}", out.render());
    ExitCode::SUCCESS
}
