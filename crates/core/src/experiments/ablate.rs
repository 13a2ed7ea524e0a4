//! Ablations for the design choices `DESIGN.md` calls out: the two
//! optional hardware optimizations (Section IV), the nested⇒shadow policy
//! choice (Section III-C), and the page walk caches (Section III-A).

use super::ExperimentRun;
use crate::config::SystemConfig;
use crate::report::{pct, Table};
use crate::runner::{Json, RunOutcome, RunRequest, ToJson};
use crate::service::{PlanOptions, Service};
use agile_vmm::{AgileOptions, NestedToShadowPolicy, Technique, VmtrapKind};
use agile_workloads::{profile, ChurnSpec, Pattern, Profile, WorkloadSpec};

/// One ablation variant's headline numbers. The per-ablation counters
/// (trap counts, conversion counts, …) ride in `extras`, keyed by the
/// rendered column name.
#[derive(Debug, Clone)]
pub struct AblateRow {
    /// Variant label ("no HW opts", "periodic-reset", "N/on", …).
    pub variant: String,
    /// VMtrap overhead fraction.
    pub vmm_overhead: f64,
    /// Total overhead fraction.
    pub total_overhead: f64,
    /// Ablation-specific counters, in column order.
    pub extras: Vec<(String, f64)>,
}

/// The extras are keyed by their column names.
impl ToJson for AblateRow {
    fn to_json(&self) -> Json {
        let extras = self
            .extras
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        Json::obj(vec![
            ("variant", Json::Str(self.variant.clone())),
            ("vmm_overhead", Json::Num(self.vmm_overhead)),
            ("total_overhead", Json::Num(self.total_overhead)),
            ("extras", Json::Obj(extras)),
        ])
    }
}

/// A/B 1: the hardware optimizations. Uses a context-switch-plus-A/D-heavy
/// workload where both optimizations matter.
#[must_use]
pub fn ablate_hw(accesses: u64, threads: usize) -> ExperimentRun<AblateRow> {
    // Read-first demand faulting builds read-only shadow leaves (the
    // dirty-bit tracking trick); later first-writes then need A/D
    // maintenance — a VMtrap without HW optimization 1, a counted nested
    // walk with it. Frequent guest context switches exercise HW
    // optimization 2. No page-table churn, so the agile policy leaves the
    // address space in shadow mode and the optimizations carry the signal.
    let spec = WorkloadSpec {
        name: "hw-opt-probe".into(),
        footprint: 16 << 20,
        pattern: Pattern::Uniform,
        write_fraction: 0.3,
        accesses,
        accesses_per_tick: (accesses / 10).max(1),
        churn: ChurnSpec {
            ctx_switch_every: Some(200),
            processes: 4,
            ..ChurnSpec::none()
        },
        prefault: true,
        prefault_writes: false,
        seed: 0xAB1,
    };
    let variants = [
        ("no HW opts", AgileOptions::without_hw_opts()),
        (
            "+A/D bits",
            AgileOptions {
                hw_ad_bits: true,
                ..AgileOptions::without_hw_opts()
            },
        ),
        (
            "+ctx cache",
            AgileOptions {
                hw_ctx_cache: true,
                ctx_cache_entries: 8,
                ..AgileOptions::without_hw_opts()
            },
        ),
        ("both (default)", AgileOptions::default()),
    ];
    let requests = variants.iter().map(|&(name, opts)| {
        RunRequest::new(SystemConfig::new(Technique::Agile(opts)), spec.clone())
            .with_warmup(accesses / 4)
            .with_label(name)
    });
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows: Vec<AblateRow> = variants
        .iter()
        .zip(&artifacts)
        .map(|((name, _), a)| {
            let o = a.stats.overheads();
            AblateRow {
                variant: (*name).to_string(),
                vmm_overhead: o.vmm,
                total_overhead: o.total(),
                extras: vec![
                    (
                        "ad-sync traps".into(),
                        a.stats.traps.count(VmtrapKind::AdBitSync) as f64,
                    ),
                    (
                        "ctx-switch traps".into(),
                        a.stats.traps.count(VmtrapKind::ContextSwitch) as f64,
                    ),
                    ("ad walks (hw)".into(), a.stats.ad_walks as f64),
                ],
            }
        })
        .collect();
    ExperimentRun {
        name: "ablate_hw",
        text: render(
            &rows,
            "variant",
            &format!("Ablation: hardware optimizations (Section IV), {accesses} accesses"),
        ),
        rows,
        artifacts,
    }
}

/// A/B 2: nested⇒shadow policy (periodic reset vs dirty-bit scan) on a
/// workload whose churn moves around, provoking oscillation under the
/// simple policy.
#[must_use]
pub fn ablate_policy(accesses: u64, threads: usize) -> ExperimentRun<AblateRow> {
    let mut spec = profile(Profile::Dedup, accesses);
    spec.name = "policy-probe(dedup)".into();
    let policies = [
        ("periodic-reset", NestedToShadowPolicy::PeriodicReset),
        ("dirty-bit-scan", NestedToShadowPolicy::DirtyBitScan),
    ];
    let requests = policies.iter().map(|&(name, policy)| {
        let opts = AgileOptions {
            nested_to_shadow: policy,
            ..AgileOptions::default()
        };
        RunRequest::new(SystemConfig::new(Technique::Agile(opts)), spec.clone())
            .with_warmup(accesses / 4)
            .with_label(name)
    });
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows: Vec<AblateRow> = policies
        .iter()
        .zip(&artifacts)
        .map(|((name, _), a)| {
            let o = a.stats.overheads();
            AblateRow {
                variant: (*name).to_string(),
                vmm_overhead: o.vmm,
                total_overhead: o.total(),
                extras: vec![
                    ("to-nested".into(), a.stats.vmm.to_nested as f64),
                    ("to-shadow".into(), a.stats.vmm.to_shadow as f64),
                    (
                        "hidden faults".into(),
                        a.stats.traps.count(VmtrapKind::HiddenPageFault) as f64,
                    ),
                ],
            }
        })
        .collect();
    ExperimentRun {
        name: "ablate_policy",
        text: render(
            &rows,
            "policy",
            &format!("Ablation: nested=>shadow policy (Section III-C), {accesses} accesses"),
        ),
        rows,
        artifacts,
    }
}

/// A/B 3: page walk caches on/off per technique (Section III-A).
#[must_use]
pub fn ablate_pwc(accesses: u64, threads: usize) -> ExperimentRun<AblateRow> {
    let spec = profile(Profile::Graph500, accesses);
    let mut requests = Vec::new();
    for technique in super::fig5::techniques() {
        for pwc_on in [true, false] {
            let mut cfg = SystemConfig::new(technique);
            if !pwc_on {
                cfg = cfg.without_pwc();
            }
            let label = format!(
                "{}/{}",
                technique.label(),
                if pwc_on { "on" } else { "off" }
            );
            requests.push(
                RunRequest::new(cfg, spec.clone())
                    .with_warmup(accesses / 4)
                    .with_label(label),
            );
        }
    }
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows: Vec<AblateRow> = artifacts
        .iter()
        .map(|a| {
            let o = a.stats.overheads();
            AblateRow {
                variant: a.label.clone(),
                vmm_overhead: o.vmm,
                total_overhead: o.total(),
                extras: vec![
                    ("avg refs/miss".into(), a.stats.avg_refs_per_miss()),
                    ("page-walk overhead".into(), o.page_walk),
                ],
            }
        })
        .collect();
    // This ablation's signal is the walk side, so render its own table
    // rather than the generic trap-centric one.
    let mut table = Table::new(vec![
        "technique".into(),
        "PWC".into(),
        "avg refs/miss".into(),
        "page-walk overhead".into(),
    ]);
    for r in &rows {
        let (tech, pwc) = r
            .variant
            .split_once('/')
            .unwrap_or((r.variant.as_str(), "?"));
        table.row(vec![
            tech.into(),
            pwc.into(),
            format!("{:.2}", r.extras[0].1),
            pct(r.extras[1].1),
        ]);
    }
    ExperimentRun {
        name: "ablate_pwc",
        text: format!(
            "Ablation: page walk caches (Section III-A), graph500 profile, {accesses} accesses\n\n{}",
            table.render()
        ),
        rows,
        artifacts,
    }
}

/// A/B 4 (extension beyond the paper): sensitivity of agile paging to the
/// policy interval length. The paper fixes it at ~1 s; this sweep shows the
/// mechanism is robust across a wide range — too-short intervals oscillate
/// (more conversions), too-long intervals adapt slowly (more traps before
/// nesting kicks in).
#[must_use]
pub fn ablate_interval(accesses: u64, threads: usize) -> ExperimentRun<AblateRow> {
    let divisors = [50u64, 20, 10, 5, 2];
    let requests = divisors.map(|divisor| {
        let mut spec = profile(Profile::Dedup, accesses);
        spec.accesses_per_tick = (accesses / divisor).max(1);
        RunRequest::new(
            SystemConfig::new(Technique::Agile(AgileOptions::default())),
            spec,
        )
        .with_warmup(accesses / 4)
        .with_label(divisor.to_string())
    });
    let artifacts: Vec<_> = Service::run_all(PlanOptions::with_threads(threads), requests)
        .into_iter()
        .map(RunOutcome::into_artifact)
        .collect();
    let rows: Vec<AblateRow> = divisors
        .iter()
        .zip(&artifacts)
        .map(|(divisor, a)| {
            let o = a.stats.overheads();
            AblateRow {
                variant: divisor.to_string(),
                vmm_overhead: o.vmm,
                total_overhead: o.total(),
                extras: vec![
                    ("to-nested".into(), a.stats.vmm.to_nested as f64),
                    ("to-shadow".into(), a.stats.vmm.to_shadow as f64),
                    (
                        "gpt-write traps".into(),
                        a.stats.traps.count(VmtrapKind::GptWrite) as f64,
                    ),
                ],
            }
        })
        .collect();
    ExperimentRun {
        name: "ablate_interval",
        text: render(
            &rows,
            "ticks/run",
            &format!(
                "Ablation (extension): policy interval length, dedup profile, {accesses} accesses"
            ),
        ),
        rows,
        artifacts,
    }
}

/// Shared renderer: variant column, the ablation's extra counters, then
/// the trap/total overheads.
fn render(rows: &[AblateRow], variant_header: &str, title: &str) -> String {
    let mut headers = vec![variant_header.to_string()];
    if let Some(first) = rows.first() {
        headers.extend(first.extras.iter().map(|(k, _)| k.clone()));
    }
    headers.push("vmtrap overhead".into());
    headers.push("total overhead".into());
    let mut table = Table::new(headers);
    for r in rows {
        let mut cells = vec![r.variant.clone()];
        cells.extend(r.extras.iter().map(|(_, v)| format!("{v:.0}")));
        cells.push(pct(r.vmm_overhead));
        cells.push(pct(r.total_overhead));
        table.row(cells);
    }
    format!("{title}\n\n{}", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hw_ablation_renders_four_variants() {
        let run = ablate_hw(3_000, 2);
        assert!(run.text.contains("no HW opts"));
        assert!(run.text.contains("both (default)"));
        assert_eq!(run.rows.len(), 4);
    }

    #[test]
    fn policy_ablation_renders_both_policies() {
        let run = ablate_policy(3_000, 2);
        assert!(run.text.contains("periodic-reset"));
        assert!(run.text.contains("dirty-bit-scan"));
    }

    #[test]
    fn pwc_ablation_shows_reduction() {
        let run = ablate_pwc(3_000, 2);
        assert!(run.text.contains("PWC"));
        assert!(run.text.contains("off"));
        assert_eq!(run.rows.len(), 8);
    }

    #[test]
    fn interval_ablation_sweeps_five_lengths() {
        let run = ablate_interval(4_000, 2);
        assert!(run.text.matches('\n').count() >= 9, "{}", run.text);
        assert!(run.text.contains("ticks/run"));
        assert_eq!(run.rows.len(), 5);
    }
}
