//! Operation counters for persistence-cost analysis.

use std::sync::atomic::{AtomicU64, Ordering};

use ido_trace::StatsSnapshot;

use crate::pad::CachePadded;

/// The pool-global accumulator: per-handle counters (a plain
/// [`StatsSnapshot`] carried in each handle) are folded in here when a
/// handle merges or drops. Each counter sits in its own cache line: sweeps
/// running 64+ simulated threads fold per-handle stats in from many OS
/// threads at once, and unpadded neighbours false-share. Only the pool
/// holds one — a handle that embedded these seven padded lines paid ~450 B
/// of hot per-thread state for counters it never touched.
#[derive(Debug, Default)]
pub struct PersistStats([CachePadded<AtomicU64>; 7]);

impl PersistStats {
    /// Folds a handle's local counters into the accumulator.
    pub fn merge(&self, o: &StatsSnapshot) {
        for (acc, v) in self.0.iter().zip(o.to_array()) {
            acc.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the accumulated counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_array(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let g = PersistStats::default();
        let mut a = StatsSnapshot { loads: 3, fences: 1, log_bytes: 64, ..Default::default() };
        g.merge(&a);
        a.loads = 2;
        g.merge(&a);
        let s = g.snapshot();
        assert_eq!(s.loads, 5);
        assert_eq!(s.fences, 2);
        assert_eq!(s.log_bytes, 128);
    }

    #[test]
    fn display_is_nonempty() {
        let s = StatsSnapshot::from_array([1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(s.to_string(), "loads=1 stores=2 nt=3 clwb=4 fences=5 lines=6 logB=7");
    }
}
