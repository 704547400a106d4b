//! Order statistics with an explicit sample-size rule.
//!
//! A tail percentile is reported only where the sample supports it:
//! at least [`MIN_BEYOND`] samples must lie beyond it. A metric named
//! `…_p99` falls back to the highest supported percentile on a small
//! sample, and the run prints which percentile it reported.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail metric may fall back to, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank index of percentile `p` in a sorted sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990 despite rounding.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Samples strictly after the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest percentile not above `wanted` that has at least
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`; `None` when not
/// even the median qualifies.
pub fn supported(n: usize, wanted: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending sample (NaN when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        f64::NAN
    } else {
        sorted[rank(sorted.len(), p)]
    }
}

/// Median of an unsorted sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Percentile of the fast end a timing figure reports: the 10th of
/// durations, the 90th of rates.
pub const FAST_PCT: f64 = 10.0;

/// The fast-end duration of a sample: its [`FAST_PCT`]-th percentile
/// (NaN when empty).
pub fn fast_time(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, FAST_PCT)
}

/// The fast-end rate of a sample: its (100 − [`FAST_PCT`])-th
/// percentile (NaN when empty).
pub fn fast_rate(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 100.0 - FAST_PCT)
}

/// The step-by-step minimum of repeated runs of the same steps: entry
/// `i` is the fastest time any run took for step `i`.
///
/// # Errors
///
/// When the runs took different numbers of steps (or there are none).
pub fn best_steps(runs: &[&[u64]]) -> Result<Vec<u64>, String> {
    let first = runs.first().ok_or("no runs to compose")?;
    if let Some(r) = runs.iter().find(|r| r.len() != first.len()) {
        return Err(format!(
            "repeated runs took {} and {} steps",
            first.len(),
            r.len()
        ));
    }
    Ok((0..first.len())
        .map(|i| runs.iter().map(|r| r[i]).min().unwrap_or(0))
        .collect())
}

/// Nanosecond durations as microseconds.
pub fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / 1e3).collect()
}

/// A latency-style distribution: median and a tail percentile the
/// sample supports.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported (≤ the one asked for).
    pub tail_pct: f64,
    /// Its value.
    pub tail: f64,
    /// Samples beyond the tail value.
    pub tail_beyond: usize,
}

impl Dist {
    /// Summarises `values`, asking for the `wanted` tail percentile.
    pub fn of(values: &[f64], wanted: f64) -> Dist {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = supported(v.len(), wanted).unwrap_or(50.0);
        Dist {
            n: v.len(),
            p50: percentile(&v, 50.0),
            tail_pct,
            tail: percentile(&v, tail_pct),
            tail_beyond: beyond(v.len(), tail_pct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported(1000, 99.0), Some(99.0));
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(supported(999, 99.0), Some(95.0));
        assert_eq!(supported(10_000, 99.0), Some(99.0), "never above wanted");
        assert_eq!(supported(10_000, 99.9), Some(99.9));
        assert_eq!(supported(200, 99.0), Some(95.0));
        assert_eq!(supported(20, 99.0), Some(50.0));
        assert_eq!(supported(19, 99.0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
        let d = Dist::of(&v, 99.0);
        assert_eq!((d.n, d.tail_pct, d.tail), (100, 90.0, 90.0));
        assert_eq!(d.tail_beyond, 10);
    }

    #[test]
    fn fast_end_and_step_composition() {
        let v: Vec<f64> = (1..=20).map(f64::from).rev().collect();
        assert_eq!((fast_time(&v), fast_rate(&v)), (2.0, 18.0));
        let (a, b) = ([5, 1, 7], [3, 4, 7]);
        assert_eq!(best_steps(&[&a, &b]), Ok(vec![3, 1, 7]));
        assert!(best_steps(&[&a, &b[..2]]).is_err());
        assert!(best_steps(&[]).is_err());
    }
}
