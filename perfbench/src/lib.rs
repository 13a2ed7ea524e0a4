//! Host-time benchmark of the agile-paging simulator.
//!
//! Every number here is host (wall-clock) time or a count derived from
//! it; end-to-end times are scaled to a nominal host speed. Simulated statistics are never metrics: they are output checks,
//! and must repeat exactly. The benchmark times calls into the
//! simulator's public API from outside and changes none of its crates.
//!
//! * [`workload`] — the three workloads and the inputs each generates from
//!   the seed, with every configuration pinned.
//! * [`measure`] — the untraced run: end-to-end metrics and output checks.
//! * [`layers`] — the traced run: per-layer timing from spans.
//! * [`spans`] — the span recorder and its self-time arithmetic.
//! * [`speed`] — the host-speed kernel the end-to-end times are scaled by.

pub mod layers;
pub mod measure;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod workload;

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
