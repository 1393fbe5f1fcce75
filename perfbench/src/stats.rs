//! The benchmark's own statistics: medians, the tail-percentile rule,
//! argmax agreement and failure counting.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value at the highest percentile that leaves
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile (0–100) of that rank.
    pub percentile: f64,
    /// Number of samples the tail was taken from.
    pub samples: usize,
}

/// The tail of `values`: with `n` samples sorted ascending, the sample of
/// rank `n − 10` (1-based), which is the `100·(n − 10)/n`-th percentile
/// and has exactly ten samples beyond it. `None` with fewer than eleven
/// samples, where no percentile has ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// Counts items whose dual-module argmax equals the dense argmax on the
/// same input.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agreement {
    items: u64,
    agree: u64,
}

impl Agreement {
    /// Records one item's pair of predictions.
    pub fn record(&mut self, dual: usize, dense: usize) {
        self.items += 1;
        self.agree += u64::from(dual == dense);
    }

    /// Share of items that agreed; 0 when nothing was recorded.
    pub fn frac(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.agree as f64 / self.items as f64
        }
    }
}

/// Attempted and failed operations of one run. Every item processed and
/// every correctness check is one attempt; a non-finite output, a failed
/// check, a dropped or refused request or a mismatched checksum is one
/// failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one attempt that failed unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// Records `n` attempts of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether every value of `values` is finite.
pub fn all_finite(values: &[f32]) -> bool {
    values.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.8), 80.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11usize, 12, 57, 100, 1000] {
            // descending input: the rule must sort
            let v: Vec<f64> = (1..=n).rev().map(|i| i as f64).collect();
            let t = tail(&v).expect("enough samples");
            let beyond = v.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.samples, n);
            assert_eq!(t.value, (n - TAIL_BEYOND) as f64);
        }
        let t = tail(&(1..=100).map(f64::from).collect::<Vec<_>>()).expect("100 samples");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        let t = tail(&(1..=1000).map(f64::from).collect::<Vec<_>>()).expect("1000 samples");
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert!(tail(&[1.0; 10]).is_none());
        assert!(tail(&[]).is_none());
        let t = tail(&[5.0; 11]).expect("eleven samples");
        assert_eq!(t.value, 5.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn agreement_counts_equal_argmaxes() {
        let mut a = Agreement::default();
        assert_eq!(a.frac(), 0.0);
        a.record(1, 1);
        a.record(2, 0);
        a.record(0, 0);
        a.record(3, 1);
        assert_eq!(a.frac(), 0.5);
    }

    #[test]
    fn tally_counts_checks_and_bulk_failures() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(t.check(true));
        assert!(!t.check(false));
        t.add(98, 3);
        assert_eq!(t.attempted, 100);
        assert_eq!(t.failed, 4);
        assert_eq!(t.failed_frac(), 0.04);
    }

    #[test]
    fn non_finite_values_are_detected() {
        assert!(all_finite(&[0.0, -1.5, 3.0]));
        assert!(!all_finite(&[0.0, f32::NAN]));
        assert!(!all_finite(&[f32::INFINITY]));
    }
}
