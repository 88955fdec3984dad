//! Sample summaries and the run fingerprint hash.

/// Percentiles a timing may be reported at, ascending.
const PERCENTILE_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Quantile `p` (0..=1) of an ascending slice, by the same rule as Python's
/// `statistics.quantiles` (exclusive method), so a spread computed here and
/// one computed by the driver agree.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
}

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at least
/// ten of `n` samples beyond it; the median when `n` is too small for any.
pub fn tail_percentile(n: usize) -> f64 {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
        .unwrap_or(50.0)
}

/// Median, quartiles, extremes and the eligible tail of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Which percentile [`Summary::tail`] is (see [`tail_percentile`]).
    pub tail_pct: f64,
    /// The sample value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). All-zero for no samples.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
                tail_pct: 50.0,
                tail: 0.0,
            };
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(s.len());
        Summary {
            n: s.len(),
            min: s[0],
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
            tail_pct,
            tail: quantile(&s, tail_pct / 100.0),
        }
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// The smallest of `samples` (0 for none): the estimate of a fixed piece of
/// work's time that one-sided host noise disturbs least.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Geometric mean of the positive entries of `values` (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    let pos: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if pos.is_empty() {
        return 0.0;
    }
    (pos.iter().map(|v| v.ln()).sum::<f64>() / pos.len() as f64).exp()
}

/// FNV-1a over 64-bit words: the `sim_fingerprint` hash. Word-wise so a
/// multi-megabyte pool image hashes in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a byte string in (length first, so concatenations differ).
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.25), 2.75);
        assert_eq!(quantile(&s, 0.5), 5.5);
        assert_eq!(quantile(&s, 0.75), 8.25);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let sum = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((sum.q1, sum.median, sum.q3), (1.0, 2.0, 3.0));
        assert_eq!((sum.min, sum.max, sum.n), (1.0, 3.0, 3));
    }

    #[test]
    fn single_and_empty_sample_sets_do_not_panic() {
        assert_eq!(Summary::of(&[]).n, 0);
        let one = Summary::of(&[7.5]);
        assert_eq!((one.q1, one.median, one.q3, one.tail), (7.5, 7.5, 7.5, 7.5));
        assert_eq!(one.spread(), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(21), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_ignores_non_positive_entries() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn fnv_is_order_and_length_sensitive() {
        let h = |words: &[u64]| {
            let mut f = Fnv::default();
            words.iter().for_each(|w| f.word(*w));
            f.finish()
        };
        assert_ne!(h(&[1, 2]), h(&[2, 1]));
        let mut a = Fnv::default();
        a.bytes(b"ab");
        a.bytes(b"c");
        let mut b = Fnv::default();
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
