//! Operation counters for persistence-cost analysis.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::pad::CachePadded;

/// The pool-global accumulator: per-handle counters (a plain
/// [`StatsSnapshot`] carried in each handle) are folded in here when a
/// handle merges or drops. Each counter sits in its own cache line: sweeps
/// running 64+ simulated threads fold per-handle stats in from many OS
/// threads at once, and unpadded neighbours false-share. Only the pool
/// holds one — a handle that embedded these seven padded lines paid ~450 B
/// of hot per-thread state for counters it never touched.
#[derive(Debug, Default)]
pub struct PersistStats {
    loads: CachePadded<AtomicU64>,
    stores: CachePadded<AtomicU64>,
    nt_stores: CachePadded<AtomicU64>,
    clwbs: CachePadded<AtomicU64>,
    fences: CachePadded<AtomicU64>,
    lines_persisted: CachePadded<AtomicU64>,
    log_bytes: CachePadded<AtomicU64>,
}

impl PersistStats {
    /// Folds a handle's local counters into the accumulator.
    pub fn merge(&self, o: &StatsSnapshot) {
        self.loads.fetch_add(o.loads, Ordering::Relaxed);
        self.stores.fetch_add(o.stores, Ordering::Relaxed);
        self.nt_stores.fetch_add(o.nt_stores, Ordering::Relaxed);
        self.clwbs.fetch_add(o.clwbs, Ordering::Relaxed);
        self.fences.fetch_add(o.fences, Ordering::Relaxed);
        self.lines_persisted.fetch_add(o.lines_persisted, Ordering::Relaxed);
        self.log_bytes.fetch_add(o.log_bytes, Ordering::Relaxed);
    }

    /// A point-in-time copy of the accumulated counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            nt_stores: self.nt_stores.load(Ordering::Relaxed),
            clwbs: self.clwbs.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            lines_persisted: self.lines_persisted.load(Ordering::Relaxed),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of the counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Word loads.
    pub loads: u64,
    /// Word stores (cached).
    pub stores: u64,
    /// Non-temporal stores.
    pub nt_stores: u64,
    /// `clwb`/`clflush` issues.
    pub clwbs: u64,
    /// Persist fences executed.
    pub fences: u64,
    /// Cache lines actually drained to NVM by fences.
    pub lines_persisted: u64,
    /// Bytes written into log structures (stores issued inside a
    /// [`log scope`](crate::PmemHandle::begin_log) — UNDO/REDO entry
    /// payloads, shadow register files, recovery markers).
    pub log_bytes: u64,
}

impl StatsSnapshot {
    /// Total persistence-related events (flush issues + fences + NT stores);
    /// a rough proxy for instrumentation overhead.
    pub fn persistence_events(&self) -> u64 {
        self.clwbs + self.fences + self.nt_stores
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loads={} stores={} nt={} clwb={} fences={} lines={} logB={}",
            self.loads,
            self.stores,
            self.nt_stores,
            self.clwbs,
            self.fences,
            self.lines_persisted,
            self.log_bytes
        )
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
        let s = StatsSnapshot::default();
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn persistence_events_sum() {
        let s = StatsSnapshot { clwbs: 2, fences: 3, nt_stores: 4, ..Default::default() };
        assert_eq!(s.persistence_events(), 9);
    }
}
