//! Dynamic idempotent-region profiling (the paper's Fig. 8).
//!
//! The paper instruments benchmarks with Pin to collect the *dynamic*
//! distribution of stores per idempotent region and live-in registers per
//! region. Here a recorder collects the same quantities from the events:
//! every iDO boundary emits a `RegionBoundary` carrying how many persistent
//! stores the closed region performed and how many registers it read
//! before writing (its dynamic live-in set), and every FASE a `FaseEnter`.
//!
//! The buckets are exact counts, not a [`Hist`](crate::Hist): the
//! histogram's log buckets put 8 and 9 together, while Fig. 8's CSV has a
//! row for "≤ 8".

/// Profile buckets (0..=9, the last bucket saturating as "9+").
pub const PROFILE_BUCKETS: usize = 10;

/// Dynamic region statistics for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// `stores_hist[k]`: dynamic regions that performed exactly `k`
    /// persistent stores (last bucket saturates).
    pub stores_hist: [u64; PROFILE_BUCKETS],
    /// `inputs_hist[k]`: dynamic regions with exactly `k` live-in registers
    /// (last bucket saturates).
    pub inputs_hist: [u64; PROFILE_BUCKETS],
    /// Total dynamic regions closed.
    pub regions: u64,
    /// Total FASEs entered.
    pub fases: u64,
}

impl Profile {
    /// Counts one closed dynamic region.
    pub fn add_region(&mut self, stores: u64, live_in_regs: u64) {
        self.stores_hist[(stores as usize).min(PROFILE_BUCKETS - 1)] += 1;
        self.inputs_hist[(live_in_regs as usize).min(PROFILE_BUCKETS - 1)] += 1;
        self.regions += 1;
    }

    /// Cumulative distribution of stores per region:
    /// `cdf[k]` = fraction of regions with ≤ `k` stores.
    pub fn stores_cdf(&self) -> [f64; PROFILE_BUCKETS] {
        cdf(&self.stores_hist, self.regions)
    }

    /// Cumulative distribution of live-in registers per region.
    pub fn inputs_cdf(&self) -> [f64; PROFILE_BUCKETS] {
        cdf(&self.inputs_hist, self.regions)
    }

    /// Fraction of dynamic regions containing more than one store — the
    /// quantity the paper cites as ~30% (Memcached) to ~50% (Redis).
    pub fn frac_multi_store(&self) -> f64 {
        if self.regions == 0 {
            return 0.0;
        }
        let multi: u64 = self.stores_hist[2..].iter().sum();
        multi as f64 / self.regions as f64
    }

    /// Fraction of dynamic regions with fewer than 5 live-in registers —
    /// the paper reports >99%, implying a single cache-line flush per log
    /// operation.
    pub fn frac_inputs_below_5(&self) -> f64 {
        if self.regions == 0 {
            return 0.0;
        }
        let small: u64 = self.inputs_hist[..5].iter().sum();
        small as f64 / self.regions as f64
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..PROFILE_BUCKETS {
            self.stores_hist[i] += other.stores_hist[i];
            self.inputs_hist[i] += other.inputs_hist[i];
        }
        self.regions += other.regions;
        self.fases += other.fases;
    }
}

fn cdf(hist: &[u64; PROFILE_BUCKETS], total: u64) -> [f64; PROFILE_BUCKETS] {
    let mut out = [0.0; PROFILE_BUCKETS];
    if total == 0 {
        return out;
    }
    let mut acc = 0u64;
    for (i, h) in hist.iter().enumerate() {
        acc += h;
        out[i] = acc as f64 / total as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_cdf() {
        let mut p = Profile::default();
        p.add_region(0, 1);
        p.add_region(1, 2);
        p.add_region(3, 4);
        p.add_region(12, 20); // saturates
        assert_eq!(p.regions, 4);
        assert_eq!(p.stores_hist[0], 1);
        assert_eq!(p.stores_hist[PROFILE_BUCKETS - 1], 1);
        let cdf = p.stores_cdf();
        assert!((cdf[1] - 0.5).abs() < 1e-9);
        assert!((cdf[PROFILE_BUCKETS - 1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractions() {
        let mut p = Profile::default();
        p.add_region(0, 0);
        p.add_region(2, 1);
        assert!((p.frac_multi_store() - 0.5).abs() < 1e-9);
        assert!((p.frac_inputs_below_5() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Profile::default();
        a.add_region(1, 1);
        a.fases += 1;
        let mut b = Profile::default();
        b.add_region(2, 2);
        a.merge(&b);
        assert_eq!(a.regions, 2);
        assert_eq!(a.fases, 1);
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = Profile::default();
        assert_eq!(p.frac_multi_store(), 0.0);
        assert_eq!(p.stores_cdf(), [0.0; PROFILE_BUCKETS]);
    }
}
