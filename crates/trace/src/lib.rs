//! Deterministic trace + metrics subsystem for the iDO reproduction.
//!
//! Every handle of the simulated NVM pool can carry a per-thread
//! fixed-capacity ring buffer of compact binary [`Event`]s, timestamped
//! with the handle's **simulated** clock. Because the simulation itself is
//! deterministic (single OS thread per VM, deterministic schedulers) and
//! the sweep engine reassembles results in input order, merged traces are
//! bit-identical across runs and across `IDO_JOBS` settings — wall-clock
//! time never enters the stream.
//!
//! The subsystem has three layers:
//!
//! * **Emission** ([`TraceHandle`] / [`TraceBuf`]): the disabled path is a
//!   single branch on an `Option<Box<_>>` (null-pointer optimized), and
//!   the enabled path writes into a preallocated ring — no allocation in
//!   the interpreter hot loop either way (pinned by
//!   `workloads/tests/no_alloc_hot_loop.rs`).
//! * **Aggregation** ([`Trace`]): per-scheme cost breakdown in simulated
//!   nanoseconds (useful work / log writes / clwb / fence stall — the
//!   paper's Fig. 7 axes) plus log-bucketed histograms ([`Hist`]) of FASE
//!   duration and region size (Fig. 8/9 style).
//! * **Export** ([`chrome::ChromeTrace`]): Chrome trace-event / Perfetto
//!   JSON, validated by the dependency-free parser in [`json`].
//!
//! Enable with `IDO_TRACE=1`; size the per-thread ring with
//! `IDO_TRACE_BUF` (events, default 32768). See the `trace_report` bench
//! binary for the end-to-end reporting pipeline.

#![deny(missing_docs)]

pub mod chrome;
mod event;
mod hist;
pub mod json;
mod ring;

pub use event::{Category, Event, EventKind, RecoveryPhase, EVENT_KINDS, RECOVERY_PHASES};
pub use hist::{Hist, HIST_BUCKETS};
pub use ring::{CostBreakdown, TraceBuf, TraceHandle};

/// Pool-level tracing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether handles created from the pool carry trace rings.
    pub enabled: bool,
    /// Ring capacity in events per handle (at least 1 when enabled).
    pub buf_entries: usize,
}

/// Default per-thread ring capacity in events (32768 × 32 B = 1 MiB).
pub const DEFAULT_BUF_ENTRIES: usize = 1 << 15;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: false, buf_entries: DEFAULT_BUF_ENTRIES }
    }
}

impl TraceConfig {
    /// An enabled config with the default ring size.
    pub fn on() -> Self {
        TraceConfig { enabled: true, ..TraceConfig::default() }
    }

    /// Reads `IDO_TRACE` (any value but `0`/empty enables) and
    /// `IDO_TRACE_BUF` (events per ring) from the environment.
    pub fn from_env() -> Self {
        let enabled = std::env::var("IDO_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
        let buf_entries = std::env::var("IDO_TRACE_BUF")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_BUF_ENTRIES);
        TraceConfig { enabled, buf_entries }
    }
}

/// A merged, time-ordered trace: the union of every folded per-thread
/// ring, with exact (overflow-immune) cost and histogram aggregates.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events ordered by `(ts_ns, thread, per-thread emission order)`.
    pub events: Vec<Event>,
    /// Total events emitted (including ones the rings overwrote).
    pub pushed: u64,
    /// Events lost to ring overflow (`pushed - events.len()`), exact.
    pub dropped: u64,
    /// Simulated-ns cost attribution, summed across threads. Updated at
    /// emission time, so exact even when the event ring overflowed.
    pub costs: CostBreakdown,
    /// FASE duration histogram (simulated ns per FASE).
    pub fase_hist: Hist,
    /// Region size histogram (stores per idempotent region).
    pub region_hist: Hist,
    /// Recovery phase totals, summed at emission like `costs`.
    recovery_ns: [u64; RECOVERY_PHASES],
}

impl Trace {
    /// Merges folded rings into one deterministic stream.
    ///
    /// Rings are ordered by thread id, concatenated in per-ring emission
    /// order, then stably sorted by timestamp — so ties break by
    /// `(thread, emission order)` and the result is independent of fold
    /// order (handle drop order).
    pub fn from_bufs(mut bufs: Vec<Box<TraceBuf>>) -> Trace {
        bufs.sort_by_key(|b| b.thread());
        let mut t = Trace::default();
        for b in &bufs {
            t.pushed += b.pushed();
            t.dropped += b.dropped();
            t.costs.merge(&b.costs);
            t.fase_hist.merge(&b.fase_hist);
            t.region_hist.merge(&b.region_hist);
            for (sum, ns) in t.recovery_ns.iter_mut().zip(b.recovery_ns) {
                *sum += ns;
            }
            b.for_each_ordered(|e| t.events.push(e));
        }
        t.events.sort_by_key(|e| e.ts_ns);
        t
    }

    /// Index of the first event where `self` and `other` differ, or
    /// `None` when one stream is a prefix of the other (compare lengths
    /// separately for full equality).
    ///
    /// Differential harnesses — notably the tier-1 vs tier-2 equivalence
    /// suite — use this to report the exact point two executions diverge
    /// instead of dumping both streams.
    pub fn first_divergence(&self, other: &Trace) -> Option<usize> {
        self.events.iter().zip(&other.events).position(|(a, b)| a != b)
    }

    /// Per-kind event counts, indexed by `EventKind as usize`.
    pub fn counts_by_kind(&self) -> [u64; EVENT_KINDS] {
        let mut counts = [0u64; EVENT_KINDS];
        for e in &self.events {
            counts[e.kind as usize] += 1;
        }
        counts
    }

    /// Summed durations of recovery phases, indexed by [`RecoveryPhase`]
    /// (`[scan, resume, release, rebuild]` in simulated ns): the duration
    /// payloads of every [`EventKind::RecoveryEnd`] emitted, including
    /// ones the rings have since overwritten.
    pub fn recovery_phase_ns(&self) -> [u64; RECOVERY_PHASES] {
        self.recovery_ns
    }

    /// Compact deterministic binary encoding (32 bytes per event plus a
    /// header); byte-equal iff the traces are identical. This is what the
    /// determinism tests compare.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.events.len() * 32);
        out.extend_from_slice(b"IDOTRACE");
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.pushed.to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.ts_ns.to_le_bytes());
            out.extend_from_slice(&e.a.to_le_bytes());
            out.extend_from_slice(&e.b.to_le_bytes());
            out.extend_from_slice(&(e.kind as u64).to_le_bytes()[..6]);
            out.extend_from_slice(&e.thread.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_disabled() {
        let c = TraceConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.buf_entries, DEFAULT_BUF_ENTRIES);
        assert!(TraceConfig::on().enabled);
    }

    fn buf_with(thread: u16, events: &[(u64, EventKind, u64, u64)]) -> Box<TraceBuf> {
        let mut b = TraceBuf::new(thread, 64);
        for &(ts, k, a, bb) in events {
            b.push(ts, k, a, bb);
        }
        b
    }

    #[test]
    fn merge_orders_by_time_then_thread() {
        let b0 = buf_with(1, &[(5, EventKind::Store, 1, 0), (9, EventKind::Fence, 0, 0)]);
        let b1 = buf_with(0, &[(5, EventKind::Clwb, 2, 0), (7, EventKind::Store, 3, 0)]);
        // Fold order must not matter.
        let t_ab = Trace::from_bufs(vec![b0, b1]);
        let b0 = buf_with(1, &[(5, EventKind::Store, 1, 0), (9, EventKind::Fence, 0, 0)]);
        let b1 = buf_with(0, &[(5, EventKind::Clwb, 2, 0), (7, EventKind::Store, 3, 0)]);
        let t_ba = Trace::from_bufs(vec![b1, b0]);
        assert_eq!(t_ab.encode(), t_ba.encode());
        let order: Vec<(u64, u16)> = t_ab.events.iter().map(|e| (e.ts_ns, e.thread)).collect();
        assert_eq!(order, vec![(5, 0), (5, 1), (7, 0), (9, 1)]);
    }

    #[test]
    fn first_divergence_points_at_the_first_differing_event() {
        let a = Trace::from_bufs(vec![buf_with(
            0,
            &[(1, EventKind::Store, 7, 0), (2, EventKind::Clwb, 7, 0), (3, EventKind::Fence, 0, 0)],
        )]);
        let b = Trace::from_bufs(vec![buf_with(
            0,
            &[(1, EventKind::Store, 7, 0), (2, EventKind::Clwb, 8, 0), (3, EventKind::Fence, 0, 0)],
        )]);
        assert_eq!(a.first_divergence(&b), Some(1));
        assert_eq!(a.first_divergence(&a.clone()), None);
        // A strict prefix has no divergence point; lengths tell it apart.
        let p = Trace::from_bufs(vec![buf_with(0, &[(1, EventKind::Store, 7, 0)])]);
        assert_eq!(p.first_divergence(&a), None);
    }

    #[test]
    fn recovery_phase_durations_sum_from_end_events() {
        let b = buf_with(
            0,
            &[
                (0, EventKind::RecoveryBegin, RecoveryPhase::Scan as u64, 0),
                (10, EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, 10),
                (10, EventKind::RecoveryBegin, RecoveryPhase::Resume as u64, 0),
                (30, EventKind::RecoveryEnd, RecoveryPhase::Resume as u64, 20),
                (31, EventKind::RecoveryBegin, RecoveryPhase::Scan as u64, 0),
                (36, EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, 5),
                (40, EventKind::RecoveryBegin, RecoveryPhase::Rebuild as u64, 0),
                (47, EventKind::RecoveryEnd, RecoveryPhase::Rebuild as u64, 7),
            ],
        );
        let t = Trace::from_bufs(vec![b]);
        assert_eq!(t.recovery_phase_ns(), [15, 20, 0, 7]);
    }

    #[test]
    fn counts_by_kind_counts_every_event() {
        let b = buf_with(
            3,
            &[(1, EventKind::Store, 0, 0), (2, EventKind::Store, 0, 0), (3, EventKind::Crash, 0, 0)],
        );
        let t = Trace::from_bufs(vec![b]);
        let counts = t.counts_by_kind();
        assert_eq!(counts[EventKind::Store as usize], 2);
        assert_eq!(counts[EventKind::Crash as usize], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn encode_reflects_dropped_and_pushed() {
        let mut b = TraceBuf::new(0, 2);
        for i in 0..5 {
            b.push(i, EventKind::Store, i, 0);
        }
        let t = Trace::from_bufs(vec![b]);
        assert_eq!(t.pushed, 5);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.events.len(), 2);
        assert_eq!(&t.encode()[..8], b"IDOTRACE");
    }
}
