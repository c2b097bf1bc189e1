//! Sample statistics: medians, quartiles, the tail-percentile rule, the
//! geometric mean, and the seeded generator every workload draws from.

/// A metric's value together with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median of the samples, or the single value
    /// of a metric measured once per run.
    pub value: f64,
    /// First and third quartiles of the samples (equal to `value` for a
    /// single sample).
    pub q1: f64,
    /// See [`Summary::q1`].
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// A metric measured once.
    pub fn single(value: f64) -> Summary {
        Summary { value, q1: value, q3: value, n: 1 }
    }

    /// Median and quartiles of `samples` (`None` when there are none).
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let value = median(samples)?;
        let (q1, q3) = quartiles(samples).unwrap_or((value, value));
        Some(Summary { value, q1, q3, n: samples.len() })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads computed here agree with
/// ones computed from the same values in Python. `None` below two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// of a metric's per-run values (0 with fewer than two values or a zero
/// median).
pub fn spread(samples: &[f64]) -> f64 {
    match (quartiles(samples), median(samples)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

/// The `permille`-th percentile (e.g. 900 = p90) by the nearest-rank
/// method, refused (`None`) unless at least [`TAIL_BEYOND`] samples lie
/// beyond it: a tail read off fewer samples is one outlier, not a tail.
pub fn tail(samples: &[f64], permille: usize) -> Option<f64> {
    let n = samples.len();
    let rank = (n * permille).div_ceil(1000);
    if rank == 0 || n - rank < TAIL_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest of p99.9, p99 and p90 that [`tail`] will report for `n`
/// samples, as `(permille, label)`.
pub fn highest_tail(n: usize) -> Option<(usize, &'static str)> {
    [(999, "p99.9"), (990, "p99"), (900, "p90")]
        .into_iter()
        .find(|&(p, _)| n - (n * p).div_ceil(1000) >= TAIL_BEYOND)
}

/// Geometric mean of `num[i] / den[i]`: the average of per-program ratios
/// to a baseline (an arithmetic mean would let the longest-running
/// program dominate). `None` when empty or when any term is not positive.
pub fn geomean_ratio(num: &[f64], den: &[f64]) -> Option<f64> {
    if num.is_empty() || num.len() != den.len() {
        return None;
    }
    let mut log_sum = 0.0;
    for (&a, &b) in num.iter().zip(den) {
        if a <= 0.0 || b <= 0.0 {
            return None;
        }
        log_sum += (a / b).ln();
    }
    Some((log_sum / num.len() as f64).exp())
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream` so that different
    /// users of one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
