//! Order statistics behind every latency metric: nearest-rank percentiles
//! and the `_tail` rule.

/// Percentiles the `_tail` rule climbs, in basis points (1/100 of a
/// percent) so rank arithmetic stays exact in integers.
const TAIL_LADDER_BP: [u64; 8] = [5000, 7500, 9000, 9500, 9900, 9950, 9990, 9999];

/// Samples that must lie strictly beyond a percentile for it to count as
/// the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `bp` basis-point percentile among `n`
/// samples: `ceil(bp * n / 10000)`, at least 1.
fn rank(n: usize, bp: u64) -> usize {
    let r = (bp * n as u64).div_ceil(10_000) as usize;
    r.max(1)
}

/// Nearest-rank percentile (`bp` in basis points) of ascending `sorted`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
fn percentile_bp(sorted: &[f64], bp: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), bp).min(sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median; 0 for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile_bp(&sorted(values), 5000)
}

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 95.0).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples strictly beyond the percentile.
    pub beyond: usize,
}

/// The `_tail` rule: the highest ladder percentile (50, 75, 90, 95, 99,
/// 99.5, 99.9, 99.99) that has at least [`TAIL_MIN_BEYOND`] samples beyond
/// it. With fewer than 20 samples no percentile qualifies and the median is
/// returned with its (short) `beyond` count, so the shortfall is visible.
/// An empty sample set yields 0.
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let s = sorted(values);
    let bp = TAIL_LADDER_BP
        .iter()
        .copied()
        .filter(|&bp| n - rank(n, bp).min(n) >= TAIL_MIN_BEYOND)
        .max()
        .unwrap_or(TAIL_LADDER_BP[0]);
    Tail {
        percentile: bp as f64 / 100.0,
        value: percentile_bp(&s, bp),
        samples: n,
        beyond: n - rank(n, bp).min(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rule must sort.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 200 samples: p95 leaves exactly 10 beyond, p99 only 2.
        let t = tail(&ramp(200));
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 200);
        // 199 samples: p95 leaves 9 beyond, so the rule drops to p90.
        let t = tail(&ramp(199));
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 199 - 180);
        // 1000 samples: p99 leaves exactly 10.
        assert_eq!(tail(&ramp(1000)).percentile, 99.0);
        // 100_000 samples: p99.99 leaves exactly 10.
        let t = tail(&ramp(100_000));
        assert_eq!(t.percentile, 99.99);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_never_reports_fewer_than_ten_beyond_when_possible() {
        for n in 20..3000 {
            let t = tail(&ramp(n));
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n} {t:?}");
            // The next ladder step up would leave fewer than ten beyond.
            let next = TAIL_LADDER_BP
                .iter()
                .find(|&&bp| bp as f64 / 100.0 > t.percentile);
            if let Some(&bp) = next {
                assert!(n - rank(n, bp).min(n) < TAIL_MIN_BEYOND, "n={n}");
            }
        }
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_median() {
        let t = tail(&ramp(12));
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 6.0);
        assert!(t.beyond < TAIL_MIN_BEYOND);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
