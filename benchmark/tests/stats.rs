//! The tail-percentile rule, quartiles, the geometric-mean ratio, the
//! host-speed scaling and the compare verdicts.

use ipra_benchmark::host::{scale, Interval, REFERENCE_S};
use ipra_benchmark::report::{verdict, Verdict};
use ipra_benchmark::stats::{geomean_ratio, highest_tail, median, quartiles, spread, tail, Rng};

fn ramp(n: usize) -> Vec<f64> {
    // Deliberately unsorted: every statistic must sort for itself.
    (1..=n).rev().map(|i| i as f64).collect()
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    assert_eq!(tail(&ramp(99), 900), None, "p90 of 99 is the 90th: 9 beyond");
    assert_eq!(tail(&ramp(100), 900), Some(90.0));
    assert_eq!(tail(&ramp(250), 900), Some(225.0));
    assert_eq!(tail(&ramp(999), 990), None);
    assert_eq!(tail(&ramp(1000), 990), Some(990.0));
    assert_eq!(tail(&[], 900), None);
}

#[test]
fn highest_tail_follows_the_sample_count() {
    assert_eq!(highest_tail(99), None);
    assert_eq!(highest_tail(100).map(|t| t.1), Some("p90"));
    assert_eq!(highest_tail(999).map(|t| t.1), Some("p90"));
    assert_eq!(highest_tail(1000).map(|t| t.1), Some("p99"));
    assert_eq!(highest_tail(10_000).map(|t| t.1), Some("p99.9"));
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    assert_eq!(quartiles(&[5.0]), None);
    assert_eq!(spread(&ramp(10)), (8.25 - 2.75) / 5.5);
    assert_eq!(spread(&[5.0]), 0.0);
    assert_eq!(median(&ramp(10)), Some(5.5));
    assert_eq!(median(&ramp(9)), Some(5.0));
}

#[test]
fn geomean_ratio_averages_per_program_ratios() {
    let g = geomean_ratio(&[2.0, 8.0], &[1.0, 1.0]).unwrap();
    assert!((g - 4.0).abs() < 1e-12);
    // Scale-free: a long program cannot dominate a short one.
    let g = geomean_ratio(&[50.0, 1e6 * 2.0], &[100.0, 1e6]).unwrap();
    assert!((g - 1.0).abs() < 1e-12);
    // Order-independent.
    let a = geomean_ratio(&[3.0, 5.0, 7.0], &[2.0, 4.0, 8.0]).unwrap();
    let b = geomean_ratio(&[7.0, 3.0, 5.0], &[8.0, 2.0, 4.0]).unwrap();
    assert!((a - b).abs() < 1e-12);
    assert_eq!(geomean_ratio(&[], &[]), None);
    assert_eq!(geomean_ratio(&[1.0], &[0.0]), None);
    assert_eq!(geomean_ratio(&[1.0, 2.0], &[1.0]), None);
}

#[test]
fn verdicts() {
    let base = [1.00, 1.01, 0.99, 1.00, 1.02];
    // 20% slower, tight spread, 10% bound.
    let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
    assert_eq!(verdict(&base, &slower, true, 0.10).1, Verdict::Regressed);
    // The same change on a higher-is-better metric is an improvement.
    assert_eq!(verdict(&base, &slower, false, 0.10).1, Verdict::Improved);
    // 2% slower within a 10% bound.
    let close = [1.02, 1.03, 1.01, 1.02, 1.04];
    assert_eq!(verdict(&base, &close, true, 0.10).1, Verdict::WithinBound);
    // Spread wider than the bound, overlapping runs: no verdict.
    let noisy = [0.7, 1.3, 0.8, 1.25, 1.0];
    assert_eq!(verdict(&base, &noisy, true, 0.10).1, Verdict::Unresolved);
    // A bound of zero (an exact metric) flags any change.
    assert_eq!(verdict(&[100.0, 100.0], &[101.0, 101.0], true, 0.0).1, Verdict::Regressed);
    assert_eq!(verdict(&[100.0, 100.0], &[100.0, 100.0], true, 0.0).1, Verdict::WithinBound);
    assert_eq!(verdict(&[101.0, 101.0], &[100.0, 100.0], true, 0.0).1, Verdict::Improved);
    // Better than a tight spread but by less than the bound, as two runs of
    // one commit can be: not a gain, even though every new run is lower.
    let same_commit = verdict(&[38.75, 38.7, 38.8], &[38.5, 38.45, 38.55], true, 0.2);
    assert_eq!(same_commit.1, Verdict::WithinBound);
    // Better by more than the bound but not the spread: a gain only when
    // every new run beats every base run.
    let wide = [1.0, 1.5, 0.9, 1.4, 1.1];
    assert_eq!(verdict(&wide, &[0.8, 0.82, 0.79, 0.81, 0.8], true, 0.2).1, Verdict::Improved);
    assert_eq!(verdict(&wide, &[0.8, 1.0, 0.7, 0.9, 0.8], true, 0.2).1, Verdict::Unresolved);
}

#[test]
fn host_scaling_uses_the_samples_around_each_op() {
    let r0 = REFERENCE_S;
    // The host ran at reference speed, then at half speed from t = 2 s.
    let samples = [(0.5, r0), (1.0, r0), (1.5, r0), (2.5, 2.0 * r0), (3.0, 2.0 * r0)];
    let op = |start, secs| Interval { start, secs };
    let scaled = scale(&samples, &[op(0.9, 0.2), op(2.6, 0.2), op(5.0, 0.4), op(1.7, 0.6)]);
    // Fast stretch: unchanged. Slow stretch: halved. Past the last sample:
    // the nearest one. Across the change: the samples at 1.5 s and 2.5 s
    // (r0 and 2 r0), whose median is 1.5 r0.
    let want = [0.2, 0.1, 0.2, 0.4];
    for (got, want) in scaled.iter().zip(want) {
        assert!((got - want).abs() < 1e-12, "{scaled:?}");
    }
    assert_eq!(scale(&[], &[op(1.0, 0.3)]), vec![0.3], "no samples: unscaled");
}

#[test]
fn seeded_generator_is_reproducible_and_stream_separated() {
    let draws = |seed, stream| {
        let mut r = Rng::new(seed, stream);
        (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draws(7, 1), draws(7, 1));
    assert_ne!(draws(7, 1), draws(7, 2));
    assert_ne!(draws(7, 1), draws(8, 1));
    let mut items: Vec<u32> = (0..50).collect();
    Rng::new(3, 0).shuffle(&mut items);
    let mut sorted = items.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    assert_ne!(items, sorted);
}
