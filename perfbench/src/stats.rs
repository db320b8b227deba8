//! Summary statistics: nearest-rank percentiles with the
//! ten-samples-beyond rule, medians and geometric means.

use std::time::Duration;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// sorted samples: `ceil(p/100 · n)`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(
        n > 0 && p > 0.0 && p <= 100.0,
        "rank of p{p} over {n} samples"
    );
    // Integer arithmetic on per-mille keeps p90 of 100 samples at rank
    // 90 exactly (0.9 * 100 is 90.00000000000001 in floating point).
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).max(1)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Nearest-rank percentile `p` of `samples`. Refuses (returns `Err`)
/// when fewer than ten samples lie beyond it, so a reported tail always
/// rests on at least ten observations.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{p} of no samples"));
    }
    let beyond = samples_beyond(samples.len(), p);
    if p < 100.0 && p > 50.0 && beyond < 10 {
        return Err(format!(
            "p{p} over {} samples has only {beyond} beyond it (need 10)",
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).expect("median of a non-empty sample")
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive ratios.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geometric mean of no ratios");
    assert!(ratios.iter().all(|r| *r > 0.0), "ratios must be positive");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Durations as milliseconds.
pub fn millis(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Items of all batches completed per second of the batches' summed
/// times.
pub fn items_per_s<T>(batches: &[Vec<T>], times: &[Duration]) -> f64 {
    let items: usize = batches.iter().map(Vec::len).sum();
    items as f64 / times.iter().sum::<Duration>().as_secs_f64()
}

/// `part / whole`, or `None` when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> Option<f64> {
    (whole > 0.0).then(|| part / whole)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(100, 90.0), 90);
        assert_eq!(nearest_rank(101, 90.0), 91);
        assert_eq!(nearest_rank(10, 50.0), 5);
        assert_eq!(nearest_rank(11, 50.0), 6);
        assert_eq!(nearest_rank(1, 90.0), 1);
        assert_eq!(nearest_rank(3, 100.0), 3);
    }

    #[test]
    fn percentiles_pick_an_observed_sample() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Ok(50.0));
        assert_eq!(percentile(&samples, 90.0), Ok(90.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ok: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(percentile(&ok, 90.0).is_ok());
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(percentile(&short, 90.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn geometric_mean_is_scale_free() {
        let g = geometric_mean(&[0.5, 2.0]);
        assert!((g - 1.0).abs() < 1e-12);
        let g = geometric_mean(&[1e-9, 1.0, 1.0]);
        assert!(
            (g - 1e-3).abs() < 1e-12,
            "one tiny ratio does not dominate: {g}"
        );
    }
}
