//! Host speed, measured by a fixed reference kernel between passes.
//!
//! The benchmark runs on a shared virtual machine whose cores change
//! speed with their neighbours' load: the same simulator run can take
//! 30–50% longer for minutes at a time. A compute-only loop does not see
//! most of that slowdown, but a kernel that allocates, hashes and touches
//! a few MiB at random — as the simulator does — slows by about the same
//! share. Timing that kernel right before and right after each pass gives
//! the pass's host speed, and every end-to-end time is reported as it
//! would read on a host where the kernel takes [`NOMINAL_S`].
//!
//! Samples run in a child process (this executable with
//! [`SAMPLE_FLAG`]), so the kernel's memory never counts in the measured
//! process's peak RSS and its allocations never share the simulator's heap.
//!
//! The kernel shares no code with the simulator, so a change to the
//! simulator moves the reported numbers in full.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Median kernel time on the 2-vCPU reference host, in seconds.
pub const NOMINAL_S: f64 = 0.015;

/// Kernel repetitions per sample, after one untimed warm-up; the sample
/// is their median.
const REPS: usize = 5;

/// The command-line flag that makes this executable print one sample:
/// `--speed-sample THREADS`.
pub const SAMPLE_FLAG: &str = "--speed-sample";

/// Inserts and looks up pseudo-random keys in a map that grows to about
/// 180 000 entries.
fn kernel() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 1u64;
    let mut sum = 0u64;
    for i in 0..200_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 44, i);
        if let Some(v) = map.get(&((x >> 40) & 0xf_ffff)) {
            sum = sum.wrapping_add(*v);
        }
    }
    sum.wrapping_add(map.len() as u64)
}

fn sample_one() -> f64 {
    black_box(kernel());
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

/// Kernel seconds on `threads` threads of this process at once (one per
/// core the workload uses), averaged over the threads.
#[must_use]
pub fn measure(threads: usize) -> f64 {
    let threads = threads.max(1);
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(sample_one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("speed kernel panicked"))
            .sum()
    });
    total / threads as f64
}

/// [`measure`] run in a child process, which is waited for.
///
/// # Panics
///
/// If the child cannot be started or prints no sample.
#[must_use]
pub fn sample(threads: usize) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args([SAMPLE_FLAG, &threads.to_string()])
        .output()
        .expect("speed sampler starts");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("speed sampler failed: {out:?}"))
}

/// How much slower than nominal the host ran, given the kernel samples
/// taken before and after a pass: above 1 on a slow host.
#[must_use]
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_measure_positive() {
        assert_eq!(kernel(), kernel());
        assert!(measure(2) > 0.0);
    }

    #[test]
    fn slowdown_averages_the_two_samples() {
        assert!((slowdown(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!((slowdown(NOMINAL_S, 2.0 * NOMINAL_S) - 1.5).abs() < 1e-12);
    }
}
