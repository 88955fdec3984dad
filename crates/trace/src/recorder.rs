//! The one per-thread recorder every observation event reaches, and the
//! pool-side collector that hands recorders out and folds them back.

use crate::event::{Category, Event, EventKind, RecoveryPhase, RECOVERY_PHASES};
use crate::hist::Hist;
use crate::metrics::{MetricsConfig, ServiceMetrics, StatsSnapshot, Windows, OP_KINDS};
use crate::profile::Profile;
use crate::{Trace, TraceConfig};

/// Simulated-ns cost attribution accumulator (the Fig. 7 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Useful work: instructions, loads, application stores.
    pub work_ns: u64,
    /// Log writes (stores into log structures, logging taxes).
    pub log_ns: u64,
    /// `clwb` issue cost.
    pub clwb_ns: u64,
    /// Persist-fence stall.
    pub fence_ns: u64,
}

impl CostBreakdown {
    /// Adds `ns` to the given category.
    #[inline]
    pub fn add(&mut self, cat: Category, ns: u64) {
        match cat {
            Category::Work => self.work_ns += ns,
            Category::Log => self.log_ns += ns,
            Category::Clwb => self.clwb_ns += ns,
            Category::Fence => self.fence_ns += ns,
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &CostBreakdown) {
        self.work_ns += other.work_ns;
        self.log_ns += other.log_ns;
        self.clwb_ns += other.clwb_ns;
        self.fence_ns += other.fence_ns;
    }

    /// Total attributed simulated ns.
    pub fn total_ns(&self) -> u64 {
        self.work_ns + self.log_ns + self.clwb_ns + self.fence_ns
    }
}

/// A fixed-capacity event ring, fully preallocated: once full, a new event
/// overwrites the oldest.
#[derive(Debug)]
struct Ring {
    events: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events pushed, overwritten ones included.
    pushed: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring { events: Vec::with_capacity(capacity.max(1)), head: 0, pushed: 0 }
    }

    fn push(&mut self, e: Event) {
        self.pushed += 1;
        if self.events.len() < self.events.capacity() {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head += 1;
            if self.head == self.events.len() {
                self.head = 0;
            }
        }
    }

    /// Events lost to overflow — exactly `pushed - retained`.
    fn dropped(&self) -> u64 {
        self.pushed - self.events.len() as u64
    }

    /// Timestamp of the newest retained event (the handle's clock never
    /// runs backwards, so this is the ring's maximum timestamp).
    fn last_ts(&self) -> Option<u64> {
        let newest = if self.head == 0 { self.events.len().checked_sub(1)? } else { self.head - 1 };
        Some(self.events[newest].ts_ns)
    }

    /// Retained events, oldest first (emission order).
    fn ordered(&self) -> impl Iterator<Item = &Event> {
        self.events[self.head..].iter().chain(&self.events[..self.head])
    }
}

/// One pool handle's observation state: every event the handle observes
/// is one [`Recorder::record`] call, which updates each aggregate the event
/// feeds and then, when tracing, the event ring.
///
/// Aggregates are computed *at emission*, so they stay exact when the ring
/// overflows: the cost breakdown, the FASE-duration and region-size
/// [`Hist`]s, the recovery-phase totals and Fig. 8's region [`Profile`].
/// The ring exists only when the pool's [`TraceConfig`] is on, the
/// windowed timeline only when its [`MetricsConfig`] is; both are sized at
/// creation, so recording allocates nothing until the timeline outruns its
/// preallocated windows.
#[derive(Debug)]
pub struct Recorder {
    /// Trace-thread id, stamped on ring events.
    thread: u16,
    ring: Option<Ring>,
    /// Cost attribution. The handle accumulates its charges inline and
    /// folds them in here when it drops.
    pub costs: CostBreakdown,
    fase_hist: Hist,
    region_hist: Hist,
    /// Summed [`EventKind::RecoveryEnd`] durations per [`RecoveryPhase`].
    recovery_ns: [u64; RECOVERY_PHASES],
    profile: Profile,
    fase_enter_ns: u64,
    /// The open op span: `(kind, begin ts)`. Both exports read this one
    /// pairing: `OpEnd` carries the latency the windows record.
    open: Option<(usize, u64)>,
    windows: Option<Windows>,
}

impl Recorder {
    /// A recorder for trace thread `thread`, with a ring when `trace` is on
    /// and a windowed timeline when `metrics` is on.
    pub fn new(thread: u16, trace: TraceConfig, metrics: MetricsConfig) -> Box<Recorder> {
        Box::new(Recorder {
            thread,
            ring: trace.enabled.then(|| Ring::new(trace.buf_entries)),
            costs: CostBreakdown::default(),
            fase_hist: Hist::default(),
            region_hist: Hist::default(),
            recovery_ns: [0; RECOVERY_PHASES],
            profile: Profile::default(),
            fase_enter_ns: 0,
            open: None,
            windows: metrics.enabled.then(|| Windows::new(&metrics)),
        })
    }

    /// Observes one event at simulated time `ts`. `counters` are the
    /// emitting handle's persist counters, which a closing op span
    /// attributes to its window.
    ///
    /// Pairings: a `FaseExit` carries the time since the last `FaseEnter`;
    /// an `OpEnd` closes the open op span and carries its latency — or 0,
    /// recording no op, when no span is open. A `RecoveryEnd` carrying
    /// `(phase, d)` adds `d` to the phase total and splits `[ts − d, ts)`
    /// over the windows.
    #[inline]
    pub fn record(&mut self, ts: u64, kind: EventKind, a: u64, b: u64, counters: &StatsSnapshot) {
        let b = match kind {
            EventKind::FaseEnter => {
                self.fase_enter_ns = ts;
                self.profile.fases += 1;
                b
            }
            EventKind::FaseExit => {
                let d = ts.saturating_sub(self.fase_enter_ns);
                self.fase_hist.record(d);
                d
            }
            EventKind::RegionBoundary => {
                self.region_hist.record(a);
                self.profile.add_region(a, b);
                b
            }
            EventKind::OpBegin => {
                self.op_begin(ts, a);
                b
            }
            EventKind::OpEnd => self.op_end(ts, counters),
            EventKind::RecoveryEnd => {
                self.recovery_end(ts, a, b);
                b
            }
            _ => b,
        };
        if let Some(ring) = &mut self.ring {
            ring.push(Event { ts_ns: ts, a, b, kind, thread: self.thread });
        }
    }

    /// Opens an op span of `kind` (clamped). A begin arriving while a span
    /// is open replaces it; the windows count the discarded span.
    fn op_begin(&mut self, ts: u64, kind: u64) {
        let kind = (kind as usize).min(OP_KINDS - 1);
        if let (Some(_), Some(w)) = (self.open, &mut self.windows) {
            w.drop_span(kind);
        }
        self.open = Some((kind, ts));
    }

    /// Closes the open op span at `ts` and returns its latency (0 when no
    /// span is open).
    fn op_end(&mut self, ts: u64, counters: &StatsSnapshot) -> u64 {
        let Some((kind, begin)) = self.open.take() else { return 0 };
        if let Some(w) = &mut self.windows {
            w.close(kind, begin, ts, counters);
        }
        ts.saturating_sub(begin)
    }

    fn recovery_end(&mut self, ts: u64, phase: u64, d: u64) {
        let Some(p) = RecoveryPhase::from_u64(phase) else { return };
        self.recovery_ns[p as usize - 1] += d;
        if let Some(w) = &mut self.windows {
            w.recovery_span(p, ts.saturating_sub(d), ts);
        }
    }

    /// Moves the ring and the aggregates into `t`; the recorder keeps its
    /// windows.
    fn report_into(&mut self, t: &mut Trace) {
        let Some(ring) = self.ring.take() else { return };
        t.pushed += ring.pushed;
        t.dropped += ring.dropped();
        t.costs.merge(&self.costs);
        t.fase_hist.merge(&self.fase_hist);
        t.region_hist.merge(&self.region_hist);
        t.profile.merge(&self.profile);
        for (sum, ns) in t.recovery_ns.iter_mut().zip(self.recovery_ns) {
            *sum += ns;
        }
        t.events.extend(ring.ordered());
    }
}

/// A pool's observation state: the configuration handles created next
/// snapshot, and the recorders of dropped handles awaiting
/// [`Collector::take_trace`] / [`Collector::take_metrics`].
///
/// Each take reports its own part of every folded recorder and leaves the
/// other part for the other take, so the two may come in either order.
#[derive(Debug)]
pub struct Collector {
    trace: TraceConfig,
    metrics: MetricsConfig,
    /// The next trace-thread id: advanced only for recorders with a ring,
    /// reset by [`Collector::take_trace`]. Chrome `tid`s are these ids.
    next_tid: u64,
    folded: Vec<Box<Recorder>>,
}

impl Collector {
    /// A collector handing out recorders under `trace` and `metrics`.
    pub fn new(trace: TraceConfig, metrics: MetricsConfig) -> Collector {
        let mut c = Collector { trace, metrics, next_tid: 0, folded: Vec::new() };
        c.set_trace(trace);
        c.set_metrics(metrics);
        c
    }

    /// Reconfigures tracing for recorders handed out after this call.
    pub fn set_trace(&mut self, config: TraceConfig) {
        self.trace = TraceConfig { buf_entries: config.buf_entries.max(1), ..config };
    }

    /// Reconfigures windowed metrics for recorders handed out after this
    /// call.
    pub fn set_metrics(&mut self, config: MetricsConfig) {
        self.metrics = MetricsConfig { window_ns: config.window_ns.max(1), ..config };
    }

    /// A recorder for a new handle under the current configuration, or
    /// `None` when tracing and metrics are both off. The trace-thread id is
    /// the creation ordinal among handles with a ring (deterministic: the
    /// VM creates handles in program order).
    pub fn recorder(&mut self) -> Option<Box<Recorder>> {
        let (trace, metrics) = (self.trace, self.metrics);
        if !trace.enabled && !metrics.enabled {
            return None;
        }
        let mut thread = 0;
        if trace.enabled {
            thread = self.next_tid.min(u16::MAX as u64 - 1) as u16;
            self.next_tid += 1;
        }
        Some(Recorder::new(thread, trace, metrics))
    }

    /// Takes back a dropped handle's recorder.
    pub fn fold(&mut self, recorder: Box<Recorder>) {
        self.folded.push(recorder);
    }

    /// Records a crash as a pool-level event (thread `u16::MAX`) when
    /// tracing, timestamped at the latest simulated instant any folded
    /// thread reached — crashed threads' handles drop before the pool
    /// crashes, so this is the simulation's crash time.
    pub fn crash(&mut self, evicted: u64, dropped: u64) {
        if !self.trace.enabled {
            return;
        }
        let ts = self.folded.iter().filter_map(|r| r.ring.as_ref()?.last_ts()).max().unwrap_or(0);
        let mut r = Recorder::new(u16::MAX, TraceConfig { enabled: true, buf_entries: 1 }, MetricsConfig::default());
        r.record(ts, EventKind::Crash, evicted, dropped, &StatsSnapshot::default());
        self.folded.push(r);
    }

    /// Merges every folded ring into one deterministic [`Trace`] and resets
    /// the trace-thread ids; `None` when tracing is off and nothing was
    /// traced.
    ///
    /// Rings are ordered by thread id, concatenated in emission order, then
    /// stably sorted by timestamp — so ties break by `(thread, emission
    /// order)` and the result is independent of fold (handle drop) order.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.next_tid = 0;
        let mut traced: Vec<&mut Recorder> =
            self.folded.iter_mut().filter(|r| r.ring.is_some()).map(|r| &mut **r).collect();
        if traced.is_empty() && !self.trace.enabled {
            return None;
        }
        traced.sort_by_key(|r| r.thread);
        let mut t = Trace::default();
        for r in traced {
            r.report_into(&mut t);
        }
        t.events.sort_by_key(|e| e.ts_ns);
        self.folded.retain(|r| r.windows.is_some());
        Some(t)
    }

    /// Merges every folded timeline into one [`ServiceMetrics`]; `None`
    /// when metrics are off and nothing was metered.
    pub fn take_metrics(&mut self) -> Option<ServiceMetrics> {
        let windows: Vec<Windows> = self.folded.iter_mut().filter_map(|r| r.windows.take()).collect();
        if windows.is_empty() && !self.metrics.enabled {
            return None;
        }
        self.folded.retain(|r| r.ring.is_some());
        Some(ServiceMetrics::from_windows(self.metrics.window_ns, windows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(thread: u16, capacity: usize) -> Box<Recorder> {
        Recorder::new(thread, TraceConfig { enabled: true, buf_entries: capacity }, MetricsConfig::default())
    }

    fn push(r: &mut Recorder, ts: u64, kind: EventKind, a: u64, b: u64) {
        r.record(ts, kind, a, b, &StatsSnapshot::default());
    }

    fn ring(r: &Recorder) -> &Ring {
        r.ring.as_ref().expect("a ring")
    }

    fn last_event(r: &Recorder) -> Event {
        *ring(r).ordered().last().expect("an event")
    }

    #[test]
    fn ring_wrap_keeps_newest_and_counts_dropped_exactly() {
        let mut r = traced(7, 4);
        for i in 0..10u64 {
            push(&mut r, i, EventKind::Store, i, 0);
        }
        let ring = ring(&r);
        assert_eq!((ring.pushed, ring.events.len(), ring.dropped()), (10, 4, 6));
        let seen: Vec<u64> = ring.ordered().map(|e| e.a).collect();
        assert_eq!(seen, vec![6, 7, 8, 9], "oldest-first, newest retained");
        assert_eq!(ring.last_ts(), Some(9));
    }

    #[test]
    fn last_ts_tracks_newest_before_and_after_wrap() {
        let mut r = traced(0, 3);
        assert_eq!(ring(&r).last_ts(), None);
        push(&mut r, 4, EventKind::Store, 0, 0);
        assert_eq!(ring(&r).last_ts(), Some(4));
        for ts in 5..12u64 {
            push(&mut r, ts, EventKind::Store, 0, 0);
            assert_eq!(ring(&r).last_ts(), Some(ts));
        }
    }

    #[test]
    fn no_drop_before_capacity() {
        let mut r = traced(0, 8);
        for i in 0..8u64 {
            push(&mut r, i, EventKind::Clwb, i, 0);
        }
        assert_eq!(ring(&r).dropped(), 0);
        push(&mut r, 8, EventKind::Clwb, 8, 0);
        assert_eq!(ring(&r).dropped(), 1);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut r = traced(0, 0);
        push(&mut r, 1, EventKind::Fence, 0, 0);
        assert_eq!(ring(&r).events.len(), 1);
        push(&mut r, 2, EventKind::Fence, 0, 0);
        assert_eq!((ring(&r).events.len(), ring(&r).dropped()), (1, 1));
    }

    #[test]
    fn fase_pairing_records_duration_even_after_overflow() {
        let mut r = traced(0, 2);
        push(&mut r, 100, EventKind::FaseEnter, 0, 0);
        for i in 0..10u64 {
            push(&mut r, 100 + i, EventKind::Store, i, 0); // evicts the enter event
        }
        push(&mut r, 150, EventKind::FaseExit, 0, 0);
        assert_eq!(r.fase_hist.count(), 1);
        assert_eq!(r.fase_hist.sum(), 50, "duration from enter ts, not ring contents");
        assert_eq!(last_event(&r).b, 50, "FaseExit carries its duration");
    }

    #[test]
    fn recovery_phase_totals_survive_overflow() {
        let mut r = traced(0, 2);
        push(&mut r, 0, EventKind::RecoveryBegin, RecoveryPhase::Scan as u64, 0);
        push(&mut r, 10, EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, 10);
        for i in 0..10u64 {
            push(&mut r, 10 + i, EventKind::Clwb, i, 0); // evicts the scan markers
        }
        push(&mut r, 30, EventKind::RecoveryEnd, RecoveryPhase::Release as u64, 20);
        assert_eq!(r.recovery_ns, [10, 0, 20, 0]);
    }

    #[test]
    fn op_pairing_stamps_duration_on_op_end() {
        let mut r = traced(0, 8);
        push(&mut r, 100, EventKind::OpBegin, 2, 0);
        push(&mut r, 175, EventKind::OpEnd, 2, 0);
        assert_eq!(last_event(&r).b, 75, "OpEnd carries its duration");
        // A close with no span open carries nothing, not the span again.
        push(&mut r, 300, EventKind::OpEnd, 2, 0);
        assert_eq!(last_event(&r).b, 0);
    }

    #[test]
    fn region_boundary_feeds_region_hist_and_profile() {
        let mut r = traced(0, 16);
        push(&mut r, 1, EventKind::RegionBoundary, 3, 2);
        push(&mut r, 2, EventKind::RegionBoundary, 9, 1);
        push(&mut r, 3, EventKind::FaseEnter, 0, 0);
        assert_eq!((r.region_hist.count(), r.region_hist.sum()), (2, 12));
        assert_eq!((r.profile.regions, r.profile.fases), (2, 1));
        assert_eq!(r.profile.stores_hist[9], 1, "9 stays its own bucket");
    }

    /// Off, trace-only, metrics-only and both: a recorder exists exactly
    /// when something is on, ids advance only for rings, and either take
    /// leaves the other's part in place.
    #[test]
    fn collector_hands_out_one_recorder_and_each_take_leaves_the_other_part() {
        let mut c = Collector::new(TraceConfig::default(), MetricsConfig::default());
        assert!(c.recorder().is_none());
        assert!(c.take_trace().is_none() && c.take_metrics().is_none());

        c.set_metrics(MetricsConfig::with_window(1_000));
        let metered_only = c.recorder().expect("metrics on");
        assert!(metered_only.ring.is_none() && metered_only.windows.is_some());
        c.set_trace(TraceConfig { enabled: true, buf_entries: 8 });
        let (mut a, mut b) = (c.recorder().unwrap(), c.recorder().unwrap());
        assert_eq!((a.thread, b.thread), (0, 1), "ids count rings only");
        for r in [&mut a, &mut b] {
            push(r, 10, EventKind::OpBegin, 1, 0);
            push(r, 30, EventKind::OpEnd, 1, 0);
        }
        for r in [metered_only, b, a] {
            c.fold(r);
        }
        assert_eq!(c.take_metrics().expect("metered").total_ops(), 2);
        let t = c.take_trace().expect("traced");
        assert_eq!(t.events.len(), 4, "the metrics take left the rings");
        assert_eq!(c.take_metrics().unwrap().total_ops(), 0, "drained");
        assert!(c.folded.is_empty(), "both parts reported");
        assert_eq!(c.recorder().unwrap().thread, 0, "take_trace resets ids");
    }

    #[test]
    fn crash_event_is_stamped_at_the_latest_folded_instant() {
        let mut c = Collector::new(TraceConfig::on(), MetricsConfig::default());
        let mut r = c.recorder().unwrap();
        push(&mut r, 40, EventKind::Store, 0, 0);
        c.fold(r);
        c.crash(3, 1);
        let t = c.take_trace().unwrap();
        let crash = t.events.last().unwrap();
        assert_eq!((crash.kind, crash.ts_ns, crash.thread, crash.b), (EventKind::Crash, 40, u16::MAX, 1));
    }

    #[test]
    fn cost_breakdown_totals() {
        let mut c = CostBreakdown::default();
        c.add(Category::Work, 1);
        c.add(Category::Log, 2);
        c.add(Category::Clwb, 3);
        c.add(Category::Fence, 4);
        let mut d = CostBreakdown::default();
        d.merge(&c);
        d.merge(&c);
        assert_eq!(d.total_ns(), 20);
        assert_eq!(d.log_ns, 4);
    }
}
