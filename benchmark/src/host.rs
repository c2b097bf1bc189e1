//! Scaling end-to-end times to one host speed.
//!
//! The reference host is a 2-vCPU VM whose speed moves as other tenants
//! come and go: a fixed integer loop there took anywhere from 0.21 to
//! 0.26 s within one minute, and a whole 20 s run could read 50% slower
//! than the one before it. The raw latency medians of ten runs of one
//! commit spread by 7–36% of their median, so a bound tight enough to
//! catch a 10% regression would flag runs of unchanged code.
//!
//! So a run also measures the host. Between ops, at most every
//! [`SAMPLE_EVERY`] seconds, it times a fixed piece of reference work that
//! uses no code of the toolchain. Each op's time `t` is reported as
//! `t × R₀ / R`, where `R` is the median reference time sampled from
//! [`AROUND`] seconds before the op began to [`AROUND`] seconds after it
//! ended, and `R₀` ([`REFERENCE_S`]) is the reference work's time on the
//! quiet reference host. A change to the toolchain moves `t` and not `R`;
//! a slower host moves both. The raw times stay in each run's detail.

use crate::harness::timed;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The reference work's time on the reference host when it is quiet
/// (2-vCPU Xeon VM); scaled times read as times on that host.
pub const REFERENCE_S: f64 = 1.2e-3;
/// Least time between two samples of the reference work (a sample takes
/// about 3 ms, so about 6% of a run goes to sampling; none of it is
/// timed).
pub const SAMPLE_EVERY: f64 = 0.05;
/// How far before and after an op the samples that scale it may lie.
pub const AROUND: f64 = 0.25;

/// A fixed piece of work that uses the host the way a build does:
/// allocation, ordered maps, string formatting and sorting, and sweeps
/// over bit sets. It depends on no code of the toolchain, so no change
/// to the toolchain changes its time.
pub fn reference_work() -> u64 {
    let mut rng = crate::stats::Rng::new(0x5eed, 0);
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for i in 0..3000u32 {
        map.entry(rng.below(1 << 12)).or_default().push(i);
    }
    let mut names: Vec<String> =
        (0..1500).map(|i| format!("s{i}_{}", rng.next_u64() % 977)).collect();
    names.sort_unstable();
    let mut sets = vec![0u64; 8 * 1024];
    let mut acc = 0u64;
    for round in 0..16 {
        for j in 1..sets.len() {
            sets[j] |= sets[j - 1].rotate_left(round) ^ (j as u64);
            acc = acc.wrapping_add(u64::from(sets[j].count_ones()));
        }
    }
    acc ^ map.len() as u64 ^ names.len() as u64
}

/// A timed stretch of a run: when it began (seconds on the run's clock)
/// and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start, in seconds since the run's clock started.
    pub start: f64,
    /// Duration in seconds.
    pub secs: f64,
}

/// A run's clock and its samples of the reference work.
#[derive(Debug)]
pub struct HostClock {
    epoch: Instant,
    sampling: bool,
    /// (midpoint, seconds) of each sample, in time order.
    samples: Mutex<Vec<(f64, f64)>>,
}

impl HostClock {
    /// A clock starting now. Without `sampling` (the traced run) it never
    /// runs the reference work and scales nothing.
    pub fn new(sampling: bool) -> HostClock {
        HostClock { epoch: Instant::now(), sampling, samples: Mutex::new(Vec::new()) }
    }

    /// Seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Times the reference work if the last sample is [`SAMPLE_EVERY`]
    /// old. Client threads call this concurrently; one that finds another
    /// sampling skips.
    ///
    /// The work runs once untimed first. Right after an op, its first run
    /// pays for whatever the op left behind (a cold cache, a heap the
    /// allocator has just returned to the system): up to three times its
    /// usual time after an `edit-loop` set-up. That cost follows the
    /// workload, not the host. Scaled by first runs, `edit-loop`
    /// latencies over 10 runs spread by 8–10% of their median; scaled by
    /// second runs, by 2–4%.
    pub fn sample(&self) {
        if !self.sampling {
            return;
        }
        let Ok(mut samples) = self.samples.try_lock() else { return };
        if samples.last().is_some_and(|&(at, secs)| self.now() - (at + secs / 2.0) < SAMPLE_EVERY) {
            return;
        }
        std::hint::black_box(reference_work());
        let start = self.now();
        std::hint::black_box(reference_work());
        let secs = self.now() - start;
        samples.push((start + secs / 2.0, secs));
    }

    /// Runs and times one op (see [`timed`]).
    pub fn time<R>(&self, f: impl FnOnce() -> Result<R, String>) -> Result<(R, Interval), String> {
        let start = self.now();
        let (r, secs) = timed(f)?;
        Ok((r, Interval { start, secs }))
    }

    /// The median reference time over the whole run so far.
    pub fn reference_median(&self) -> Option<f64> {
        let samples = self.samples.lock().expect("host samples");
        crate::stats::median(&samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Each interval's duration scaled to the reference host's speed (see
    /// [`scale`]).
    pub fn scaled(&self, intervals: &[Interval]) -> Vec<f64> {
        scale(&self.samples.lock().expect("host samples"), intervals)
    }
}

/// Each interval's duration scaled to the reference host's speed:
/// `secs × R₀ / R` with `R` the median of the `samples` (midpoint,
/// seconds), in time order, from [`AROUND`] before the interval to
/// [`AROUND`] after it, or the nearest sample when none lies there.
/// Unscaled without samples.
pub fn scale(samples: &[(f64, f64)], intervals: &[Interval]) -> Vec<f64> {
    let at: Vec<f64> = samples.iter().map(|s| s.0).collect();
    intervals
        .iter()
        .map(|iv| {
            if samples.is_empty() {
                return iv.secs;
            }
            let lo = at.partition_point(|&t| t < iv.start - AROUND);
            let hi = at.partition_point(|&t| t <= iv.start + iv.secs + AROUND);
            let mut near: Vec<f64> = samples[lo..hi].iter().map(|s| s.1).collect();
            if near.is_empty() {
                let mid = iv.start + iv.secs / 2.0;
                let i = at.partition_point(|&t| t < mid).min(at.len() - 1);
                let j = i.saturating_sub(1);
                let k = if (at[i] - mid).abs() < (at[j] - mid).abs() { i } else { j };
                near.push(samples[k].1);
            }
            let r = crate::stats::median(&near).expect("at least one sample");
            iv.secs * REFERENCE_S / r
        })
        .collect()
}
