//! Dependency-free log-bucketed histogram (HdrHistogram-style).
//!
//! Values are binned into buckets whose width doubles every octave, with
//! [`SUB`] sub-buckets per octave (≈12% relative resolution) — enough for
//! the paper's Fig. 8/9 shape plots without an external crate. Values
//! below [`SUB`] get exact unit buckets, so small region sizes (0, 1, 2, 3
//! stores) are never merged.

const SUB_BITS: u32 = 2;
/// Sub-buckets per power-of-two octave.
pub const SUB: usize = 1 << SUB_BITS;

/// Total bucket count (covers the full `u64` range).
pub const HIST_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// A fixed-size log-bucketed histogram over `u64` values.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: [u64; HIST_BUCKETS],
    n: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: [0; HIST_BUCKETS], n: 0, sum: 0, max: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
    (msb - SUB_BITS as usize) * SUB + sub + SUB
}

/// Smallest value mapping to bucket `i`.
fn lower_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let b = i - SUB;
    let msb = b / SUB + SUB_BITS as usize;
    let sub = (b % SUB) as u64;
    (1u64 << msb) + (sub << (msb - SUB_BITS as usize))
}

impl Hist {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, upper_bound_exclusive, count)`,
    /// ascending — the rows of the histogram CSVs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                let lo = lower_bound(i);
                let hi = if i + 1 < HIST_BUCKETS { lower_bound(i + 1) } else { u64::MAX };
                out.push((lo, hi, c));
            }
        }
        out
    }

    /// Value at quantile `q` (`q` in `[0, 1]`; 0 when empty).
    ///
    /// Semantics (exact over the bucketed data): the target rank is
    /// `max(1, ceil(q·n))`; the cumulative bucket counts are scanned in
    /// ascending order until the rank is covered, and the result is the
    /// **inclusive upper bound** of that bucket, clamped to [`Hist::max`].
    /// Because every recorded value lies at or below its bucket's upper
    /// bound, the result never under-reports: it equals the true
    /// order-statistic for values in the exact unit buckets (`< SUB`)
    /// and over-reports by at most one sub-bucket width (≈12% relative)
    /// above them. The clamp makes `value_at_quantile(1.0) == max()`
    /// exactly.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let hi = if i + 1 < HIST_BUCKETS { lower_bound(i + 1) - 1 } else { u64::MAX };
                return hi.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotonic() {
        // Every value maps into exactly the bucket whose bounds contain it.
        for i in 0..HIST_BUCKETS - 1 {
            let lo = lower_bound(i);
            let hi = lower_bound(i + 1);
            assert!(lo < hi, "bucket {i}: {lo} !< {hi}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi - 1), i, "upper edge of bucket {i}");
        }
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_of(v), v as usize);
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = Hist::default();
        for v in [1u64, 1, 2, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1104);
        assert_eq!(h.max(), 1000);
        let total: u64 = h.nonzero_buckets().iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 5);
        // 1 appears twice in its own exact bucket.
        assert!(h.nonzero_buckets().contains(&(1, 2, 2)));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(5);
        b.record(5);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 17);
        assert_eq!(a.max(), 7);
    }

    #[test]
    fn quantile_brackets_the_value() {
        let mut h = Hist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert!(h.value_at_quantile(0.0) >= 1);
        let p50 = h.value_at_quantile(0.5);
        assert!((40..=70).contains(&p50), "p50 bucket edge {p50}");
        assert!(h.value_at_quantile(1.0) >= 100);
        assert_eq!(Hist::default().value_at_quantile(0.5), 0);
    }

    #[test]
    fn value_at_quantile_is_exact_in_unit_buckets() {
        // Values below SUB land in exact unit buckets, so the quantile is
        // the true order-statistic.
        let mut h = Hist::default();
        for v in [0u64, 1, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.2), 0); // rank 1 of 5
        assert_eq!(h.value_at_quantile(0.5), 1); // rank 3
        assert_eq!(h.value_at_quantile(0.8), 2); // rank 4
        assert_eq!(h.value_at_quantile(1.0), 3);
    }

    #[test]
    fn value_at_quantile_never_under_reports_and_clamps_to_max() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for q in [0.5f64, 0.9, 0.99, 0.999] {
            let true_rank = ((q * 1000.0).ceil() as u64).max(1);
            let est = h.value_at_quantile(q);
            assert!(est >= true_rank, "q={q}: {est} < {true_rank}");
            // Over-report bounded by one sub-bucket (≈12% relative).
            assert!(est as f64 <= true_rank as f64 * (1.0 + 1.0 / SUB as f64) + 1.0);
        }
        // p100 is the exact max, not a bucket edge beyond it.
        assert_eq!(h.value_at_quantile(1.0), 1000);
        // Quantiles above the top recorded rank clamp to max too.
        let mut one = Hist::default();
        one.record(77);
        assert_eq!(one.value_at_quantile(0.999), 77);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Hist::default();
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.value_at_quantile(q), 0);
        }
    }

    #[test]
    fn merged_histogram_quantiles_match_combined_recording() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        let mut both = Hist::default();
        for v in 1..=500u64 {
            a.record(v);
            both.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v * 3);
            both.record(v * 3);
        }
        a.merge(&b);
        for q in [0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.value_at_quantile(q), both.value_at_quantile(q), "q={q}");
        }
        // Merging an empty histogram changes nothing.
        let snapshot = a.value_at_quantile(0.99);
        a.merge(&Hist::default());
        assert_eq!(a.value_at_quantile(0.99), snapshot);
    }
}
