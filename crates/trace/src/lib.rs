//! The observation plane of the iDO reproduction: one deterministic
//! recorder per pool handle, timestamped with the handle's **simulated**
//! clock.
//!
//! Every event a handle observes — a store, a fence, a FASE or region
//! boundary, an op marker, a recovery phase — is one call on its
//! [`Recorder`], which updates the aggregates computed at emission (the
//! Fig. 7 cost breakdown, FASE-duration and region-size [`Hist`]s,
//! recovery-phase totals, Fig. 8's region [`Profile`]) and then feeds its
//! two optional parts: a fixed-capacity ring of compact binary [`Event`]s
//! when tracing is on ([`TraceConfig`]), and a windowed timeline when
//! metrics are on ([`MetricsConfig`]). Because the simulation itself is
//! deterministic (single OS thread per VM, deterministic schedulers) and the
//! sweep engine reassembles results in input order, every export is
//! bit-identical across runs and across `IDO_JOBS` settings — wall-clock
//! time never enters it.
//!
//! * **Emission** ([`Recorder`]): a handle with everything off carries no
//!   recorder, so the disabled path is one untaken branch on a
//!   null-pointer-optimized `Option<Box<_>>`; the enabled path writes into
//!   storage preallocated at handle creation — no allocation in the
//!   interpreter hot loop either way (pinned by
//!   `workloads/tests/no_alloc_hot_loop.rs`).
//! * **Collection** ([`Collector`]): the pool hands recorders out and folds
//!   them back at handle drop; [`Trace`] merges the rings and aggregates,
//!   [`ServiceMetrics`] the timelines.
//! * **Export**: [`chrome::ChromeTrace`] (Chrome trace-event / Perfetto
//!   JSON, validated by the dependency-free parser in [`json`]), and
//!   [`ServiceMetrics`]'s CSV rows, Prometheus text and counter tracks.
//!
//! `ido trace <file.ido>` prints a scenario's events; the `trace_report`
//! bench binary is the end-to-end reporting pipeline.

#![deny(missing_docs)]

pub mod chrome;
mod event;
mod hist;
pub mod json;
mod metrics;
mod profile;
mod recorder;

pub use event::{Category, Event, EventKind, RecoveryPhase, EVENT_KINDS, RECOVERY_PHASES};
pub use hist::{Hist, HIST_BUCKETS};
pub use metrics::{MetricsConfig, ServiceMetrics, StatsSnapshot, WindowCell, OP_KINDS};
pub use profile::{Profile, PROFILE_BUCKETS};
pub use recorder::{Collector, CostBreakdown, Recorder};

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
}

/// A merged, time-ordered trace: the union of every folded per-thread
/// ring, with the aggregates its recorders computed at emission — exact
/// even where the rings overflowed.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events ordered by `(ts_ns, thread, per-thread emission order)`.
    pub events: Vec<Event>,
    /// Total events emitted (including ones the rings overwrote).
    pub pushed: u64,
    /// Events lost to ring overflow (`pushed - events.len()`), exact.
    pub dropped: u64,
    /// Simulated-ns cost attribution, summed across threads.
    pub costs: CostBreakdown,
    /// FASE duration histogram (simulated ns per FASE).
    pub fase_hist: Hist,
    /// Region size histogram (stores per idempotent region).
    pub region_hist: Hist,
    /// Fig. 8's dynamic region profile.
    pub profile: Profile,
    /// Recovery phase totals.
    recovery_ns: [u64; RECOVERY_PHASES],
}

impl Trace {
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

/// The trace a collector merges from one ring of `capacity` events per
/// `(thread, events)` entry, folded in the given order.
#[cfg(test)]
pub(crate) fn trace_of(capacity: usize, rings: &[(u16, &[(u64, EventKind, u64, u64)])]) -> Trace {
    let ring = TraceConfig { enabled: true, buf_entries: capacity };
    let mut c = Collector::new(ring, MetricsConfig::default());
    for &(thread, events) in rings {
        let mut r = Recorder::new(thread, ring, MetricsConfig::default());
        for &(ts, kind, a, b) in events {
            r.record(ts, kind, a, b, &StatsSnapshot::default());
        }
        c.fold(r);
    }
    c.take_trace().expect("tracing on")
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

    #[test]
    fn merge_orders_by_time_then_thread() {
        let r1: &[_] = &[(5, EventKind::Store, 1, 0), (9, EventKind::Fence, 0, 0)];
        let r0: &[_] = &[(5, EventKind::Clwb, 2, 0), (7, EventKind::Store, 3, 0)];
        // Fold order must not matter.
        let t_ab = trace_of(64, &[(1, r1), (0, r0)]);
        let t_ba = trace_of(64, &[(0, r0), (1, r1)]);
        assert_eq!(t_ab.encode(), t_ba.encode());
        let order: Vec<(u64, u16)> = t_ab.events.iter().map(|e| (e.ts_ns, e.thread)).collect();
        assert_eq!(order, vec![(5, 0), (5, 1), (7, 0), (9, 1)]);
    }

    #[test]
    fn first_divergence_points_at_the_first_differing_event() {
        let a = trace_of(
            64,
            &[(0, &[(1, EventKind::Store, 7, 0), (2, EventKind::Clwb, 7, 0), (3, EventKind::Fence, 0, 0)])],
        );
        let b = trace_of(
            64,
            &[(0, &[(1, EventKind::Store, 7, 0), (2, EventKind::Clwb, 8, 0), (3, EventKind::Fence, 0, 0)])],
        );
        assert_eq!(a.first_divergence(&b), Some(1));
        assert_eq!(a.first_divergence(&a.clone()), None);
        // A strict prefix has no divergence point; lengths tell it apart.
        let p = trace_of(64, &[(0, &[(1, EventKind::Store, 7, 0)])]);
        assert_eq!(p.first_divergence(&a), None);
    }

    #[test]
    fn recovery_phase_durations_sum_from_end_events() {
        let t = trace_of(
            64,
            &[(
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
            )],
        );
        assert_eq!(t.recovery_phase_ns(), [15, 20, 0, 7]);
    }

    #[test]
    fn counts_by_kind_counts_every_event() {
        let t = trace_of(
            64,
            &[(3, &[(1, EventKind::Store, 0, 0), (2, EventKind::Store, 0, 0), (3, EventKind::Crash, 0, 0)])],
        );
        let counts = t.counts_by_kind();
        assert_eq!(counts[EventKind::Store as usize], 2);
        assert_eq!(counts[EventKind::Crash as usize], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn encode_reflects_dropped_and_pushed() {
        let stores: Vec<_> = (0..5).map(|i| (i, EventKind::Store, i, 0)).collect();
        let t = trace_of(2, &[(0, &stores)]);
        assert_eq!(t.pushed, 5);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.events.len(), 2);
        assert_eq!(&t.encode()[..8], b"IDOTRACE");
    }
}
