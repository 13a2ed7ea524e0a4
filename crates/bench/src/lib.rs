//! Benchmark harness for the agile-paging reproduction.
//!
//! Binaries (one per paper table/figure — see `DESIGN.md`): `table1`,
//! `table2`, `fig5`, `table6`, `vmtrap_costs`, `shsp_compare`, `twostep`,
//! `ablate_hw`, `ablate_policy`, `ablate_pwc`, `ablate_interval`. Each
//! accepts the shared [`BenchCli`] flags: `--accesses N`, `--quick`,
//! `--threads N`, `--json PATH`, `--csv PATH`. Each prints its rendered
//! text table and writes its structured results only where `--json` and
//! `--csv` say.
//!
//! The `simulate` binary runs a fully custom workload/configuration from
//! command-line flags (see [`SimArgs`]). The `gates` binary checks every
//! pinned output against its committed reference under `results/` (see
//! [`gates`]), and `gates --bless` is the one writer of those references.

#![forbid(unsafe_code)]

pub mod gates;

use agile_core::experiments::ExperimentRun;
use agile_core::{AgileOptions, ChurnSpec, Pattern, SystemConfig, Technique, WorkloadSpec};
use std::path::PathBuf;

/// The shared command-line surface of every experiment binary.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// Data accesses per run.
    pub accesses: u64,
    /// Worker threads for the run matrix (results are identical at any
    /// value).
    pub threads: usize,
    /// Write the structured results JSON here (`None` = do not write it).
    pub json: Option<PathBuf>,
    /// Write the flattened rows CSV here (`None` = do not write it).
    pub csv: Option<PathBuf>,
    /// Whether `--quick` was given.
    pub quick: bool,
}

impl BenchCli {
    /// Usage text for the shared flags.
    pub const USAGE: &'static str = "\
common flags (every experiment binary):

  --accesses N    data accesses per run
  --quick         small preset (default/10, at least 1000)
  --threads N     worker threads (default: all cores; results identical)
  --json PATH     write structured results JSON here
  --csv PATH      write flattened rows CSV here
  --help          this text
";

    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag or value; `--help`
    /// returns the usage text.
    pub fn parse(args: &[String], default_full: u64) -> Result<BenchCli, String> {
        let mut cli = BenchCli {
            accesses: default_full,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            json: None,
            csv: None,
            quick: false,
        };
        let mut explicit_accesses = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value =
                || -> Result<&String, String> { it.next().ok_or(format!("{flag} needs a value")) };
            match flag.as_str() {
                "--accesses" => {
                    cli.accesses = parse_num(flag, value()?)?;
                    explicit_accesses = true;
                }
                "--quick" => cli.quick = true,
                "--threads" => cli.threads = parse_num(flag, value()?)?.max(1) as usize,
                "--json" => cli.json = Some(PathBuf::from(value()?)),
                "--csv" => cli.csv = Some(PathBuf::from(value()?)),
                "--help" | "-h" => return Err(Self::USAGE.to_string()),
                other => return Err(format!("unknown flag {other}\n\n{}", Self::USAGE)),
            }
        }
        if cli.quick && !explicit_accesses {
            cli.accesses = (default_full / 10).max(1_000);
        }
        Ok(cli)
    }

    /// Parses the process arguments; prints usage/errors and exits on
    /// failure.
    #[must_use]
    pub fn from_env(default_full: u64) -> BenchCli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args, default_full) {
            Ok(cli) => cli,
            Err(msg) => {
                let help = args.iter().any(|a| a == "--help" || a == "-h");
                eprintln!("{msg}");
                std::process::exit(if help { 0 } else { 2 });
            }
        }
    }

    /// Prints the experiment's text table and writes the JSON/CSV
    /// artifacts that `--json`/`--csv` asked for; a failed write aborts
    /// the process with exit code 1 and an error naming the path.
    pub fn finish<R: agile_core::ToJson>(&self, run: &ExperimentRun<R>) {
        println!("{}", run.text);
        let json = self
            .json
            .as_ref()
            .map(|path| (path, format!("{}\n", run.to_json().pretty())));
        let csv = self.csv.as_ref().map(|path| (path, run.to_csv()));
        for (path, contents) in json.into_iter().chain(csv) {
            if let Err(msg) = write_artifact(path, &contents) {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// Writes `contents` to `path`, creating missing parent directories, and
/// logs the path to stderr.
///
/// # Errors
///
/// Returns a message naming the path on any filesystem failure.
pub fn write_artifact(path: &PathBuf, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create directory {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Checks that a run of `spec` with `warmup` warm-up accesses is one: at
/// least one data access, and a warm-up below the run's total, which
/// counts the prefault sweep (the machine counts its accesses toward the
/// warm-up, and a warm-up the run never reaches excludes nothing while
/// the artifact still reports it). The error names the flag or key that
/// set the value: `names` is (accesses, warm-up). `simulate` and `serve`
/// job files share this rule.
///
/// # Errors
///
/// Returns the message naming the offending value.
pub fn check_run_window(
    spec: &WorkloadSpec,
    warmup: u64,
    names: (&str, &str),
) -> Result<(), String> {
    let (accesses_name, warmup_name) = names;
    let accesses = spec.accesses;
    if accesses == 0 {
        return Err(format!(
            "{accesses_name}: 0 is not a run (at least 1 data access)"
        ));
    }
    let sweep = if spec.prefault {
        (spec.churn.processes.max(1) as u64).saturating_mul(spec.footprint / 4096)
    } else {
        0
    };
    let total = accesses.saturating_add(sweep);
    if warmup > 0 && warmup >= total {
        return Err(format!(
            "{warmup_name}: {warmup} is not below the run's {total} data accesses \
             ({accesses} plus a prefault sweep of {sweep})"
        ));
    }
    Ok(())
}

/// Parsed arguments for the `simulate` binary: a custom workload and
/// system configuration assembled from flags.
#[derive(Debug, Clone)]
pub struct SimArgs {
    /// System configuration (technique, page size, caches, cost knobs).
    pub config: SystemConfig,
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// Data accesses excluded from measurement at the start, counting
    /// the prefault sweep's; always below the run's total.
    pub warmup: u64,
    /// Write the run's artifact JSON here.
    pub json: Option<PathBuf>,
}

impl SimArgs {
    /// Usage text for the `simulate` binary.
    pub const USAGE: &'static str = "\
simulate — run a custom workload on the agile-paging simulator

  --technique T      native|nested|shadow|agile|shsp   (default agile)
  --pattern P        uniform | zipf:THETA | seq:STRIDE | chase |
                     hotspot:FRAC,PROB                 (default uniform)
  --footprint-mb N   footprint in MiB                  (default 64)
  --accesses N       data accesses                     (default 200000)
  --writes F         store fraction 0..1               (default 0.3)
  --remap-every N    remap churn period (accesses)
  --remap-pages N    pages per remap event             (default 16)
  --cow-every N      copy-on-write churn period
  --cow-pages N      pages per COW event               (default 8)
  --zone F           churn zone fraction               (default 0.1)
  --procs N          processes (round-robin)           (default 1)
  --ctx-every N      context-switch period
  --thp              transparent 2 MiB pages
  --no-pwc           disable page walk caches + nested TLB
  --no-prefault      skip the population sweep
  --warmup N         warm-up accesses excluded         (default accesses/4)
                     (the prefault sweep counts toward
                     them; must be below the run's total)
  --seed N           RNG seed                          (default 1)
  --json PATH        write the run artifact JSON here
";

    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<SimArgs, String> {
        let mut technique = Technique::Agile(AgileOptions::default());
        let mut pattern = Pattern::Uniform;
        let mut footprint_mb: u64 = 64;
        let mut accesses: u64 = 200_000;
        let mut writes: f64 = 0.3;
        let mut churn = ChurnSpec {
            churn_zone: 0.1,
            ..ChurnSpec::none()
        };
        let mut remap_pages = 16;
        let mut cow_pages = 8;
        let mut thp = false;
        let mut pwc = true;
        let mut prefault = true;
        let mut warmup: Option<u64> = None;
        let mut seed: u64 = 1;
        let mut json: Option<PathBuf> = None;

        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value =
                || -> Result<&String, String> { it.next().ok_or(format!("{flag} needs a value")) };
            match flag.as_str() {
                "--technique" => {
                    let name = value()?;
                    technique = Technique::from_name(name)
                        .ok_or_else(|| format!("unknown technique {name}"))?;
                }
                "--pattern" => {
                    let v = value()?.clone();
                    pattern = parse_pattern(&v)?;
                }
                "--footprint-mb" => footprint_mb = parse_num(flag, value()?)?,
                "--accesses" => accesses = parse_num(flag, value()?)?,
                "--writes" => writes = parse_fraction(flag, value()?)?,
                "--remap-every" => churn.remap_every = Some(parse_count(flag, value()?)?),
                "--remap-pages" => remap_pages = parse_count(flag, value()?)?,
                "--cow-every" => churn.cow_every = Some(parse_count(flag, value()?)?),
                "--cow-pages" => cow_pages = parse_count(flag, value()?)?,
                "--zone" => churn.churn_zone = parse_fraction(flag, value()?)?,
                "--procs" => churn.processes = parse_count(flag, value()?)? as usize,
                "--ctx-every" => churn.ctx_switch_every = Some(parse_count(flag, value()?)?),
                "--thp" => thp = true,
                "--no-pwc" => pwc = false,
                "--no-prefault" => prefault = false,
                "--warmup" => warmup = Some(parse_num(flag, value()?)?),
                "--seed" => seed = parse_num(flag, value()?)?,
                "--json" => json = Some(PathBuf::from(value()?)),
                "--help" | "-h" => return Err(Self::USAGE.to_string()),
                other => return Err(format!("unknown flag {other}\n\n{}", Self::USAGE)),
            }
        }
        churn.remap_pages = remap_pages;
        churn.cow_pages = cow_pages;

        let mut config = SystemConfig::new(technique);
        if thp {
            config = config.with_thp();
        }
        if !pwc {
            config = config.without_pwc();
        }
        let footprint = footprint_mb
            .checked_mul(1 << 20)
            .filter(|&bytes| bytes > 0)
            .ok_or(format!(
                "--footprint-mb: {footprint_mb} is not a footprint of at least 1 MiB"
            ))?;
        let spec = WorkloadSpec {
            name: "custom".into(),
            footprint,
            pattern,
            write_fraction: writes,
            accesses,
            accesses_per_tick: (accesses / 10).max(1),
            churn,
            prefault,
            prefault_writes: true,
            seed,
        };
        let warmup = warmup.unwrap_or(accesses / 4);
        check_run_window(&spec, warmup, ("--accesses", "--warmup"))?;
        // The zone runs as at least one page, so a zone that holds none
        // would churn a page it was not given.
        let pages = spec.pages();
        let churny = spec.churn.remap_every.is_some() || spec.churn.cow_every.is_some();
        if churny && pages as f64 * spec.churn.churn_zone < 1.0 {
            return Err(format!(
                "--zone: {} of the footprint's {pages} pages holds no page",
                spec.churn.churn_zone
            ));
        }
        // A churn window never spans more than the zone; a larger count
        // would run as the zone's.
        let zone = spec.churn_zone_pages();
        for (flag, every, pages) in [
            ("--remap-pages", spec.churn.remap_every, remap_pages),
            ("--cow-pages", spec.churn.cow_every, cow_pages),
        ] {
            if every.is_some() && pages > zone {
                return Err(format!(
                    "{flag}: {pages} is more than the churn zone's {zone} pages \
                     (--zone of the footprint)"
                ));
            }
        }
        Ok(SimArgs {
            config,
            spec,
            warmup,
            json,
        })
    }

    /// Which accesses the run's statistics cover, for the report line.
    #[must_use]
    pub fn measured_window(&self) -> String {
        match (self.warmup, self.spec.prefault) {
            (0, _) => "measured from the first access".to_string(),
            (w, true) => format!("measured after {w} warm-up accesses, prefault sweep included"),
            (w, false) => format!("measured after {w} warm-up accesses"),
        }
    }

    /// Writes the run artifact JSON when `--json` was given; a failed
    /// write aborts the process with exit code 1 and an error naming the
    /// path.
    pub fn emit(&self, artifact: &agile_core::RunArtifact) {
        if let Some(path) = &self.json {
            if let Err(msg) = write_artifact(path, &format!("{}\n", artifact.to_json().pretty())) {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
        }
    }
}

fn parse_num(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|e| format!("{flag}: bad number {v}: {e}"))
}

fn parse_float(flag: &str, v: &str) -> Result<f64, String> {
    v.parse()
        .map_err(|e| format!("{flag}: bad number {v}: {e}"))
}

/// A period or a count, which means nothing below 1.
fn parse_count(flag: &str, v: &str) -> Result<u64, String> {
    match parse_num(flag, v)? {
        0 => Err(format!("{flag}: must be at least 1, got 0")),
        n => Ok(n),
    }
}

/// A fraction in [0, 1]; NaN is rejected too.
fn parse_fraction(flag: &str, v: &str) -> Result<f64, String> {
    let x = parse_float(flag, v)?;
    if (0.0..=1.0).contains(&x) {
        Ok(x)
    } else {
        Err(format!("{flag}: must be in [0, 1], got {v}"))
    }
}

fn parse_pattern(v: &str) -> Result<Pattern, String> {
    let (kind, rest) = v.split_once(':').unwrap_or((v, ""));
    match kind {
        "uniform" => Ok(Pattern::Uniform),
        "chase" => Ok(Pattern::PointerChase),
        "zipf" => {
            let theta = parse_float("--pattern zipf", rest)?;
            if !(theta.is_finite() && theta >= 0.0) {
                return Err(format!(
                    "--pattern zipf: THETA must be finite and at least 0, got {rest}"
                ));
            }
            Ok(Pattern::Zipf { theta })
        }
        "seq" => Ok(Pattern::Sequential {
            stride_pages: parse_num("--pattern seq", rest)?,
        }),
        "hotspot" => {
            let (f, p) = rest
                .split_once(',')
                .ok_or("--pattern hotspot needs FRAC,PROB".to_string())?;
            Ok(Pattern::Hotspot {
                hot_fraction: parse_fraction("--pattern hotspot", f)?,
                hot_probability: parse_fraction("--pattern hotspot", p)?,
            })
        }
        other => Err(format!("--pattern: unknown pattern {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &str) -> Result<SimArgs, String> {
        SimArgs::parse(
            &words
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    fn parse_cli(words: &str, default: u64) -> Result<BenchCli, String> {
        BenchCli::parse(
            &words
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
            default,
        )
    }

    #[test]
    fn cli_defaults_to_full_run() {
        let cli = parse_cli("", 1_000_000).unwrap();
        assert_eq!(cli.accesses, 1_000_000);
        assert!(cli.threads >= 1);
        assert!(!cli.quick);
        assert!(cli.json.is_none());
        assert!(cli.csv.is_none());
    }

    #[test]
    fn cli_quick_scales_down_but_defers_to_explicit_accesses() {
        let cli = parse_cli("--quick", 1_000_000).unwrap();
        assert_eq!(cli.accesses, 100_000);
        let cli = parse_cli("--quick --accesses 777", 1_000_000).unwrap();
        assert_eq!(cli.accesses, 777);
        let cli = parse_cli("--quick", 5_000).unwrap();
        assert_eq!(cli.accesses, 1_000, "quick floor");
    }

    #[test]
    fn cli_full_flag_set_parses() {
        let cli = parse_cli(
            "--accesses 42 --threads 8 --json out/a.json --csv out/a.csv",
            100,
        )
        .unwrap();
        assert_eq!(cli.accesses, 42);
        assert_eq!(cli.threads, 8);
        assert_eq!(
            cli.json.as_deref(),
            Some(std::path::Path::new("out/a.json"))
        );
        assert_eq!(cli.csv.as_deref(), Some(std::path::Path::new("out/a.csv")));
    }

    #[test]
    fn cli_rejects_bad_input() {
        assert!(parse_cli("--bogus", 100).is_err());
        assert!(parse_cli("--accesses", 100).is_err());
        assert!(parse_cli("--threads zero", 100).is_err());
        assert!(parse_cli("--no-emit", 100).is_err());
        let help = parse_cli("--help", 100).unwrap_err();
        assert!(help.contains("--threads"));
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse("").unwrap();
        assert_eq!(a.spec.accesses, 200_000);
        assert_eq!(a.warmup, 50_000);
        assert!(matches!(a.config.technique, Technique::Agile(_)));
        assert!(a.json.is_none());
    }

    #[test]
    fn full_flag_set_parses() {
        let a = parse(
            "--technique shadow --pattern zipf:0.9 --footprint-mb 32 --accesses 1000 \
             --writes 0.5 --remap-every 100 --remap-pages 4 --cow-every 200 --cow-pages 2 \
             --zone 0.2 --procs 3 --ctx-every 50 --thp --no-pwc --no-prefault \
             --warmup 250 --seed 9 --json run.json",
        )
        .unwrap();
        assert!(matches!(a.config.technique, Technique::Shadow));
        assert!(matches!(a.spec.pattern, Pattern::Zipf { .. }));
        assert_eq!(a.spec.footprint, 32 << 20);
        assert_eq!(a.spec.churn.remap_every, Some(100));
        assert_eq!(a.spec.churn.remap_pages, 4);
        assert_eq!(a.spec.churn.processes, 3);
        assert!(a.config.thp);
        assert!(!a.config.pwc.enabled);
        assert!(!a.spec.prefault);
        assert_eq!(a.warmup, 250);
        assert_eq!(a.spec.seed, 9);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("run.json")));
    }

    #[test]
    fn the_report_names_the_measured_window() {
        let window = |words| parse(words).unwrap().measured_window();
        assert_eq!(
            window("--accesses 2000 --footprint-mb 4 --warmup 500"),
            "measured after 500 warm-up accesses, prefault sweep included"
        );
        assert_eq!(
            window("--accesses 2000 --no-prefault --warmup 500"),
            "measured after 500 warm-up accesses"
        );
        assert_eq!(
            window("--accesses 2000 --warmup 0"),
            "measured from the first access"
        );
    }

    #[test]
    fn pattern_variants_parse() {
        assert!(matches!(parse_pattern("uniform"), Ok(Pattern::Uniform)));
        assert!(matches!(parse_pattern("chase"), Ok(Pattern::PointerChase)));
        assert!(matches!(
            parse_pattern("seq:7"),
            Ok(Pattern::Sequential { stride_pages: 7 })
        ));
        assert!(matches!(
            parse_pattern("hotspot:0.1,0.9"),
            Ok(Pattern::Hotspot { .. })
        ));
        assert!(parse_pattern("zipf").is_err());
        assert!(parse_pattern("nope").is_err());
    }

    #[test]
    fn inputs_a_workload_cannot_run_are_rejected_naming_the_flag() {
        for (words, flag) in [
            ("--pattern zipf:nan", "--pattern zipf:"),
            ("--pattern zipf:-inf", "--pattern zipf:"),
            ("--pattern zipf:inf", "--pattern zipf:"),
            ("--pattern zipf:-100 --footprint-mb 64", "--pattern zipf:"),
            ("--pattern hotspot:5,0.9", "--pattern hotspot:"),
            ("--pattern hotspot:0.1,1.5", "--pattern hotspot:"),
            ("--pattern hotspot:-0.1,0.5", "--pattern hotspot:"),
            ("--pattern hotspot:nan,0.5", "--pattern hotspot:"),
            ("--pattern hotspot:0.5", "--pattern hotspot "),
            ("--footprint-mb 0", "--footprint-mb:"),
            ("--footprint-mb 18446744073709551615", "--footprint-mb:"),
            ("--writes 2", "--writes:"),
            ("--writes -0.1", "--writes:"),
            ("--writes nan", "--writes:"),
            ("--zone 5", "--zone:"),
            ("--zone nan", "--zone:"),
            ("--remap-every 0", "--remap-every:"),
            ("--cow-every 0", "--cow-every:"),
            ("--ctx-every 0", "--ctx-every:"),
            ("--procs 0", "--procs:"),
            ("--remap-pages 0", "--remap-pages:"),
            ("--cow-pages 0", "--cow-pages:"),
            ("--accesses 0", "--accesses:"),
            ("--accesses 0 --no-prefault", "--accesses:"),
            (
                "--footprint-mb 4 --remap-every 10 --remap-pages 103",
                "--remap-pages:",
            ),
            (
                "--footprint-mb 4 --remap-every 10 --remap-pages 100000",
                "--remap-pages:",
            ),
            (
                "--footprint-mb 4 --cow-every 10 --cow-pages 103",
                "--cow-pages:",
            ),
            (
                "--footprint-mb 4 --zone 0 --cow-every 10 --cow-pages 2",
                "--zone:",
            ),
            (
                "--footprint-mb 4 --zone 0 --cow-every 10 --cow-pages 1",
                "--zone:",
            ),
            (
                "--footprint-mb 4 --zone 0.0005 --cow-every 10 --cow-pages 1",
                "--zone:",
            ),
            ("--zone 0 --remap-every 10", "--zone:"),
            (
                "--accesses 2000 --footprint-mb 4 --warmup 3024",
                "--warmup:",
            ),
            ("--accesses 2000 --no-prefault --warmup 2000", "--warmup:"),
            (
                "--accesses 2000 --footprint-mb 4 --procs 2 --warmup 5000",
                "--warmup:",
            ),
        ] {
            let err = parse(words).unwrap_err();
            assert!(err.starts_with(flag), "{words}: {err}");
        }
        for words in [
            "--pattern zipf:0",
            "--pattern hotspot:0,0",
            "--pattern hotspot:1,1",
            "--footprint-mb 1",
            "--writes 0",
            "--writes 1",
            "--zone 0",
            "--zone 1",
            "--remap-every 1",
            "--ctx-every 1",
            "--procs 1",
            "--remap-pages 1",
            "--cow-pages 1",
            "--accesses 2000 --footprint-mb 4 --warmup 3023",
            "--accesses 2000 --no-prefault --warmup 1999",
            "--accesses 2000 --footprint-mb 4 --procs 2 --warmup 4047",
            "--accesses 1 --no-prefault",
            "--footprint-mb 4 --remap-every 10 --remap-pages 102",
            "--footprint-mb 4 --cow-every 10 --cow-pages 102",
            "--footprint-mb 4 --zone 0.001 --cow-every 10 --cow-pages 1",
            // Without its period the count is never used.
            "--footprint-mb 4 --remap-pages 100000",
            "--footprint-mb 4 --cow-pages 100000",
        ] {
            assert!(parse(words).is_ok(), "{words}");
        }
    }

    #[test]
    fn write_artifact_creates_missing_parent_dirs() {
        let base = std::env::temp_dir().join(format!(
            "agile-bench-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let path = base.join("deep/nested/out.json");
        write_artifact(&path, "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn write_artifact_errors_name_the_path() {
        // A regular file where a parent directory is needed forces
        // create_dir_all to fail; pre-fix this was a swallowed warning.
        let base = std::env::temp_dir().join(format!(
            "agile-bench-test-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&base).unwrap();
        let blocker = base.join("not-a-dir");
        std::fs::write(&blocker, "x").unwrap();
        let path = blocker.join("out.json");
        let err = write_artifact(&path, "{}\n").unwrap_err();
        assert!(
            err.contains("cannot create directory") && err.contains("not-a-dir"),
            "{err}"
        );
        // Writing to a path that is a directory fails at the write step.
        let dir_path = base.join("is-a-dir");
        std::fs::create_dir_all(&dir_path).unwrap();
        let err = write_artifact(&dir_path, "{}\n").unwrap_err();
        assert!(
            err.contains("cannot write") && err.contains("is-a-dir"),
            "{err}"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn bad_flags_report_errors() {
        assert!(parse("--bogus").is_err());
        assert!(parse("--accesses").is_err());
        assert!(parse("--accesses xyz").is_err());
        assert!(parse("--technique hyper").is_err());
        let help = parse("--help").unwrap_err();
        assert!(help.contains("simulate"));
    }
}
