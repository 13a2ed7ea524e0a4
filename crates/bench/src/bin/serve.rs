//! Run a JSON job file through the simulation service: submit every job,
//! stream completions as JSON lines, and write a deterministic ordered
//! result document. `serve --help` prints the flag and schema reference.
//!
//! The streamed lines arrive in **finish order** (nondeterministic — that
//! is the point of an async service); the `--out` document is ordered by
//! job id and contains only deterministic artifact bytes, so two runs of
//! the same job file — at *any* worker count — produce byte-identical
//! documents. The `gates` binary pins the document of
//! `crates/bench/jobs/serve-smoke.json` at 1, 2 and 8 shards.

use agile_bench::{check_run_window, write_artifact};
use agile_core::service::{JobState, PlanOptions, Service};
use agile_core::{profile, Json, Profile, RunOutcome, RunRequest, SystemConfig, Technique};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "\
serve — run a JSON job file through the simulation service

usage: serve JOBFILE [flags]

  --shards N     worker count (overrides the job file's threads; at
                 most one per job; artifacts are byte-identical at any
                 value)
  --out PATH     write the ordered deterministic result document here
  --quiet        suppress the per-completion stream on stdout
  --help         this text

job file schema:

  {
    \"options\": {            // all fields optional
      \"threads\": 4,          // workers (0 = one per core)
      \"timeout_ms\": 60000,   // cooperative per-job deadline
      \"retries\": 1,          // retry budget for panicking jobs
      \"seed_base\": 3405691582, // deterministic seed stream by job id
      \"checkpoint_ticks\": 8   // checkpoint cadence for crash recovery
    },
    \"jobs\": [
      {
        \"label\": \"nested-astar\",   // optional; defaults to technique-profile-N
        \"technique\": \"nested\",     // native|nested|shadow|agile|shsp
        \"profile\": \"astar\",        // memcached|canneal|astar|gcc|graph500|mcf|tigr|dedup
        \"accesses\": 4000,           // at least 1
        \"warmup\": 500,             // optional, default accesses/4; below the
                                   // accesses plus the profile's prefault sweep
        \"seed\": 7                  // optional; else the seed_base stream
      }
    ]
  }
";

struct ServeArgs {
    job_file: PathBuf,
    shards: Option<usize>,
    out: Option<PathBuf>,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut job_file: Option<PathBuf> = None;
    let mut shards = None;
    let mut out = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || -> Result<&String, String> { it.next().ok_or(format!("{flag} needs a value")) };
        match flag.as_str() {
            "--shards" => {
                shards = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|e| format!("--shards: {e}"))?,
                );
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--quiet" => quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if !other.starts_with('-') && job_file.is_none() => {
                job_file = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    Ok(ServeArgs {
        job_file: job_file.ok_or(format!("a JOBFILE is required\n\n{USAGE}"))?,
        shards,
        out,
        quiet,
    })
}

fn parse_profile(name: &str) -> Result<Profile, String> {
    Profile::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown profile {name}"))
}

/// Builds the service options and request list from a parsed job file.
fn load_jobs(doc: &Json) -> Result<(PlanOptions, Vec<RunRequest>), String> {
    let mut opts = PlanOptions::default();
    if let Some(o) = doc.get("options") {
        if let Some(n) = o.get("threads").and_then(Json::as_u64) {
            opts.threads = n as usize;
        }
        if let Some(ms) = o.get("timeout_ms").and_then(Json::as_u64) {
            opts.timeout = Some(Duration::from_millis(ms));
        }
        if let Some(n) = o.get("retries").and_then(Json::as_u64) {
            opts.retries = u32::try_from(n)
                .map_err(|_| format!("\"retries\": {n} is more than {}", u32::MAX))?;
        }
        if let Some(base) = o.get("seed_base").and_then(Json::as_u64) {
            opts.seed_base = Some(base);
        }
        if let Some(ticks) = o.get("checkpoint_ticks").and_then(Json::as_u64) {
            if ticks == 0 {
                return Err("\"checkpoint_ticks\": must be at least 1, got 0".into());
            }
            opts = opts.checkpoint_every(ticks);
        }
    }
    let Some(Json::Arr(jobs)) = doc.get("jobs") else {
        return Err("job file needs a \"jobs\" array".into());
    };
    let mut requests = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let field = |key: &str| -> Result<&Json, String> {
            job.get(key).ok_or(format!("job {i}: missing \"{key}\""))
        };
        let name = field("technique")?
            .as_str()
            .ok_or(format!("job {i}: \"technique\" must be a string"))?;
        let technique =
            Technique::from_name(name).ok_or(format!("job {i}: unknown technique {name}"))?;
        let prof = parse_profile(
            field("profile")?
                .as_str()
                .ok_or(format!("job {i}: \"profile\" must be a string"))?,
        )
        .map_err(|e| format!("job {i}: {e}"))?;
        let accesses = field("accesses")?
            .as_u64()
            .ok_or(format!("job {i}: \"accesses\" must be a number"))?;
        let warmup = match job.get("warmup") {
            Some(w) => w
                .as_u64()
                .ok_or(format!("job {i}: \"warmup\" must be a number"))?,
            None => accesses / 4,
        };
        let label = match job.get("label") {
            Some(l) => l
                .as_str()
                .ok_or(format!("job {i}: \"label\" must be a string"))?
                .to_string(),
            None => format!("{}-{}-{i}", technique.name(), prof.name()),
        };
        let spec = profile(prof, accesses);
        let names = (
            format!("job {i}: \"accesses\""),
            format!("job {i}: \"warmup\""),
        );
        check_run_window(&spec, warmup, (&names.0, &names.1))?;
        let mut request = RunRequest::new(SystemConfig::new(technique), spec)
            .with_warmup(warmup)
            .with_label(label);
        if let Some(seed) = job.get("seed") {
            request = request.with_seed(
                seed.as_u64()
                    .ok_or(format!("job {i}: \"seed\" must be a number"))?,
            );
        }
        requests.push(request);
    }
    Ok((opts, requests))
}

fn state_of(outcome: &RunOutcome) -> JobState {
    match outcome {
        RunOutcome::Completed(_) => JobState::Completed,
        RunOutcome::TimedOut { .. } => JobState::TimedOut,
        RunOutcome::Cancelled { .. } => JobState::Cancelled,
        RunOutcome::Skipped { .. } => JobState::Skipped,
    }
}

/// One streamed JSONL record (finish order; includes wall-clock, so it is
/// deliberately *not* part of the deterministic document).
fn stream_line(id: agile_core::JobId, outcome: &RunOutcome) -> String {
    let accesses = outcome
        .artifact()
        .or_else(|| outcome.partial_artifact())
        .map_or(0, |a| a.stats.accesses);
    Json::obj(vec![
        ("job", Json::Str(id.to_string())),
        ("label", Json::Str(outcome.label().to_string())),
        ("state", Json::Str(state_of(outcome).label().to_string())),
        ("accesses", Json::UInt(accesses)),
    ])
    .render()
}

/// The ordered deterministic document: per-job deterministic artifact
/// bytes (timing excluded), byte-identical at any worker count.
fn result_document(results: &[(agile_core::JobId, RunOutcome)]) -> Json {
    let jobs = results
        .iter()
        .map(|(id, outcome)| {
            let artifact = outcome
                .artifact()
                .or_else(|| outcome.partial_artifact())
                .map_or(Json::Null, agile_core::RunArtifact::deterministic_json);
            Json::obj(vec![
                ("job", Json::Str(id.to_string())),
                ("label", Json::Str(outcome.label().to_string())),
                ("state", Json::Str(state_of(outcome).label().to_string())),
                ("artifact", artifact),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str("agile-serve/1".into())),
        ("jobs", Json::Arr(jobs)),
    ])
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&args.job_file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.job_file.display());
            std::process::exit(2);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{}: invalid JSON: {e}", args.job_file.display());
            std::process::exit(2);
        }
    };
    let (mut opts, requests) = match load_jobs(&doc) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{}: {msg}", args.job_file.display());
            std::process::exit(2);
        }
    };
    if let Some(shards) = args.shards {
        opts.threads = shards;
    }
    // Service::new starts one thread per worker: none beyond the jobs.
    opts.threads = opts.workers_for(requests.len());

    let service = Service::new(opts);
    eprintln!(
        "serve: {} jobs across {} workers",
        requests.len(),
        service.workers()
    );
    service.submit_all(requests);
    let mut results = Vec::new();
    while let Some((id, outcome)) = service.next_result() {
        if !args.quiet {
            println!("{}", stream_line(id, &outcome));
        }
        results.push((id, outcome));
    }
    let metrics = service.shutdown();
    results.sort_by_key(|(id, _)| *id);

    if let Some(path) = &args.out {
        let rendered = format!("{}\n", result_document(&results).pretty());
        if let Err(msg) = write_artifact(path, &rendered) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "serve: {} submitted, {} completed, {} timed-out, {} cancelled, {} skipped",
        metrics.submitted, metrics.completed, metrics.timed_out, metrics.cancelled, metrics.skipped
    );
    eprintln!(
        "serve: max queue depth {}, mean queue {:?}, mean run {:?}",
        metrics.max_queue_depth,
        metrics.mean_queue_latency(),
        metrics.mean_run_latency()
    );
    eprintln!(
        "serve: {} checkpoints stored, {} orphaned jobs, {} resumed from checkpoint",
        metrics.checkpoints, metrics.orphans, metrics.resumes
    );
    if metrics.skipped > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(technique: &str) -> Result<Vec<RunRequest>, String> {
        let doc = Json::parse(&format!(
            r#"{{"jobs": [{{"technique": "{technique}", "profile": "mcf", "accesses": 100}}]}}"#
        ))
        .expect("valid JSON");
        load_jobs(&doc).map(|(_, requests)| requests)
    }

    #[test]
    fn every_technique_name_loads_and_labels_its_job() {
        for t in Technique::all() {
            let requests = load(t.name()).expect("known technique");
            assert_eq!(requests[0].config.technique, t);
            assert_eq!(requests[0].label, format!("{}-mcf-0", t.name()));
        }
    }

    #[test]
    fn unknown_technique_is_an_error_naming_the_job() {
        assert_eq!(
            load("hyper").map(|_| ()),
            Err("job 0: unknown technique hyper".to_string())
        );
    }

    /// The requests a one-job file with these job fields loads, or the
    /// error.
    fn load_job(fields: &str) -> Result<Vec<RunRequest>, String> {
        let doc = Json::parse(&format!(
            r#"{{"jobs": [{{"technique": "agile", "profile": "mcf", {fields}}}]}}"#
        ))
        .expect("valid JSON");
        load_jobs(&doc).map(|(_, requests)| requests)
    }

    #[test]
    fn a_job_of_no_access_is_an_error_naming_the_key() {
        assert!(load_job(r#""accesses": 1"#).is_ok());
        let err = load_job(r#""accesses": 0"#).map(|_| ()).unwrap_err();
        assert!(
            err.starts_with("job 0: \"accesses\": 0 is not a run"),
            "{err}"
        );
    }

    #[test]
    fn a_warmup_the_run_never_reaches_is_an_error_naming_the_key() {
        // mcf prefaults its 20,480 pages, which count toward the warm-up.
        assert!(load_job(r#""accesses": 1000, "warmup": 21479"#).is_ok());
        assert!(load_job(r#""accesses": 1000, "warmup": 0"#).is_ok());
        for warmup in [21_480, 5_000_000] {
            let fields = format!(r#""accesses": 1000, "warmup": {warmup}"#);
            let err = load_job(&fields).map(|_| ()).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "job 0: \"warmup\": {warmup} is not below the run's 21480 data accesses \
                     (1000 plus a prefault sweep of 20480)"
                )
            );
        }
    }

    /// The options a job file with `options` loads, or the error.
    fn load_options(options: &str) -> Result<PlanOptions, String> {
        let doc =
            Json::parse(&format!(r#"{{"options": {options}, "jobs": []}}"#)).expect("valid JSON");
        load_jobs(&doc).map(|(opts, _)| opts)
    }

    #[test]
    fn retries_past_u32_are_an_error_naming_the_key() {
        assert_eq!(
            load_options(r#"{"retries": 4294967295}"#).map(|o| o.retries),
            Ok(u32::MAX)
        );
        assert_eq!(
            load_options(r#"{"retries": 4294967296}"#).map(|o| o.retries),
            Err("\"retries\": 4294967296 is more than 4294967295".to_string())
        );
    }

    #[test]
    fn zero_checkpoint_ticks_are_an_error_naming_the_key() {
        assert_eq!(
            load_options(r#"{"checkpoint_ticks": 1}"#).map(|o| o.checkpoint_interval),
            Ok(Some(1))
        );
        assert_eq!(
            load_options(r#"{"checkpoint_ticks": 0}"#).map(|o| o.checkpoint_interval),
            Err("\"checkpoint_ticks\": must be at least 1, got 0".to_string())
        );
    }
}
