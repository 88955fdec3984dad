//! Per-thread event rings and the zero-cost-when-off emission handle.

use crate::event::{Category, Event, EventKind, RecoveryPhase, RECOVERY_PHASES};
use crate::hist::Hist;

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

/// A per-thread fixed-capacity ring of [`Event`]s plus exact aggregates.
///
/// The ring is fully preallocated at construction; once full, new events
/// overwrite the oldest and the `dropped` count grows — but the cost
/// breakdown, the FASE/region histograms and the recovery phase totals are
/// updated *at emission time*, so aggregate reports stay exact under
/// overflow.
#[derive(Debug)]
pub struct TraceBuf {
    thread: u16,
    events: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    pushed: u64,
    /// Cost attribution for this thread (exact, overflow-immune).
    pub costs: CostBreakdown,
    /// FASE duration histogram (exact, overflow-immune).
    pub fase_hist: Hist,
    /// Region size histogram (exact, overflow-immune).
    pub region_hist: Hist,
    /// Summed [`EventKind::RecoveryEnd`] durations per [`RecoveryPhase`]
    /// (exact, overflow-immune: one recovery emits far more write-back
    /// events than a ring holds, evicting the early phases' markers).
    pub recovery_ns: [u64; RECOVERY_PHASES],
    fase_enter_ns: u64,
    op_enter_ns: u64,
}

impl TraceBuf {
    /// A ring for `thread` holding at most `capacity` events (min 1).
    pub fn new(thread: u16, capacity: usize) -> Box<TraceBuf> {
        Box::new(TraceBuf {
            thread,
            events: Vec::with_capacity(capacity.max(1)),
            head: 0,
            pushed: 0,
            costs: CostBreakdown::default(),
            fase_hist: Hist::default(),
            region_hist: Hist::default(),
            recovery_ns: [0; RECOVERY_PHASES],
            fase_enter_ns: 0,
            op_enter_ns: 0,
        })
    }

    /// The trace-thread id this ring records for.
    pub fn thread(&self) -> u16 {
        self.thread
    }

    /// Total events emitted into this ring (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events lost to ring overflow — exactly `pushed - retained`.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.events.len() as u64
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event (allocation-free: the ring was preallocated).
    #[inline]
    pub fn push(&mut self, ts_ns: u64, kind: EventKind, a: u64, b: u64) {
        match kind {
            EventKind::FaseEnter => self.fase_enter_ns = ts_ns,
            EventKind::FaseExit => {
                self.fase_hist.record(ts_ns.saturating_sub(self.fase_enter_ns));
            }
            EventKind::RegionBoundary => self.region_hist.record(a),
            EventKind::OpBegin => self.op_enter_ns = ts_ns,
            EventKind::RecoveryEnd => self.note_recovery_end(a, b),
            _ => {}
        }
        let b = match kind {
            EventKind::FaseExit => ts_ns.saturating_sub(self.fase_enter_ns),
            EventKind::OpEnd => ts_ns.saturating_sub(self.op_enter_ns),
            _ => b,
        };
        let e = Event { ts_ns, a, b, kind, thread: self.thread };
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

    /// Out of line: `push` is inlined into every memory operation of the
    /// interpreter, and a recovery emits a handful of these.
    #[cold]
    #[inline(never)]
    fn note_recovery_end(&mut self, phase: u64, duration_ns: u64) {
        if let Some(p) = RecoveryPhase::from_u64(phase) {
            self.recovery_ns[p as usize - 1] += duration_ns;
        }
    }

    /// Timestamp of the newest retained event (the handle's clock never
    /// runs backwards, so this is the ring's maximum timestamp).
    pub fn last_ts(&self) -> Option<u64> {
        if self.events.is_empty() {
            return None;
        }
        let newest = if self.head == 0 { self.events.len() - 1 } else { self.head - 1 };
        Some(self.events[newest].ts_ns)
    }

    /// Visits retained events oldest-first (emission order).
    pub fn for_each_ordered(&self, mut f: impl FnMut(Event)) {
        for e in &self.events[self.head..] {
            f(*e);
        }
        for e in &self.events[..self.head] {
            f(*e);
        }
    }
}

/// The emission handle a `PmemHandle` carries.
///
/// Disabled tracing is `TraceHandle(None)`: every emission point is a
/// single branch on a null-pointer-optimized `Option<Box<_>>`, so the
/// traced-off hot loop pays one predictable untaken branch per operation
/// and allocates nothing.
#[derive(Debug, Default)]
pub struct TraceHandle(Option<Box<TraceBuf>>);

impl TraceHandle {
    /// The disabled handle (`const`-foldable).
    pub const OFF: TraceHandle = TraceHandle(None);

    /// A handle recording into `buf`.
    pub fn new(buf: Box<TraceBuf>) -> TraceHandle {
        TraceHandle(Some(buf))
    }

    /// True when events are being recorded.
    #[inline(always)]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Emits an event (no-op when off).
    #[inline(always)]
    pub fn emit(&mut self, ts_ns: u64, kind: EventKind, a: u64, b: u64) {
        if let Some(buf) = &mut self.0 {
            buf.push(ts_ns, kind, a, b);
        }
    }

    /// Attributes `ns` of simulated time to `cat` (no-op when off).
    #[inline(always)]
    pub fn add_cost(&mut self, cat: Category, ns: u64) {
        if let Some(buf) = &mut self.0 {
            buf.costs.add(cat, ns);
        }
    }

    /// Direct access to the ring, when on — lets a hot path fold its cost
    /// attribution and event push under **one** branch instead of two.
    #[inline(always)]
    pub fn as_buf_mut(&mut self) -> Option<&mut TraceBuf> {
        self.0.as_deref_mut()
    }

    /// Takes the ring out (for folding into a pool-level collector).
    pub fn take(&mut self) -> Option<Box<TraceBuf>> {
        self.0.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wrap_keeps_newest_and_counts_dropped_exactly() {
        let mut b = TraceBuf::new(7, 4);
        for i in 0..10u64 {
            b.push(i, EventKind::Store, i, 0);
        }
        assert_eq!(b.pushed(), 10);
        assert_eq!(b.len(), 4);
        assert_eq!(b.dropped(), 6);
        let mut seen = Vec::new();
        b.for_each_ordered(|e| seen.push(e.a));
        assert_eq!(seen, vec![6, 7, 8, 9], "oldest-first, newest retained");
        assert_eq!(b.last_ts(), Some(9));
    }

    #[test]
    fn last_ts_tracks_newest_before_and_after_wrap() {
        let mut b = TraceBuf::new(0, 3);
        assert_eq!(b.last_ts(), None);
        b.push(4, EventKind::Store, 0, 0);
        assert_eq!(b.last_ts(), Some(4));
        for ts in 5..12u64 {
            b.push(ts, EventKind::Store, 0, 0);
            assert_eq!(b.last_ts(), Some(ts));
        }
    }

    #[test]
    fn no_drop_before_capacity() {
        let mut b = TraceBuf::new(0, 8);
        for i in 0..8u64 {
            b.push(i, EventKind::Clwb, i, 0);
        }
        assert_eq!(b.dropped(), 0);
        b.push(8, EventKind::Clwb, 8, 0);
        assert_eq!(b.dropped(), 1);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut b = TraceBuf::new(0, 0);
        b.push(1, EventKind::Fence, 0, 0);
        assert_eq!(b.len(), 1);
        b.push(2, EventKind::Fence, 0, 0);
        assert_eq!((b.len(), b.dropped()), (1, 1));
    }

    #[test]
    fn fase_pairing_records_duration_even_after_overflow() {
        let mut b = TraceBuf::new(0, 2);
        b.push(100, EventKind::FaseEnter, 0, 0);
        for i in 0..10u64 {
            b.push(100 + i, EventKind::Store, i, 0); // evicts the enter event
        }
        b.push(150, EventKind::FaseExit, 0, 0);
        assert_eq!(b.fase_hist.count(), 1);
        assert_eq!(b.fase_hist.sum(), 50, "duration from enter ts, not ring contents");
        let mut last = None;
        b.for_each_ordered(|e| last = Some(e));
        assert_eq!(last.unwrap().b, 50, "FaseExit carries its duration");
    }

    #[test]
    fn recovery_phase_totals_survive_overflow() {
        let mut b = TraceBuf::new(0, 2);
        b.push(0, EventKind::RecoveryBegin, RecoveryPhase::Scan as u64, 0);
        b.push(10, EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, 10);
        for i in 0..10u64 {
            b.push(10 + i, EventKind::Clwb, i, 0); // evicts the scan markers
        }
        b.push(30, EventKind::RecoveryEnd, RecoveryPhase::Release as u64, 20);
        assert_eq!(b.recovery_ns, [10, 0, 20, 0]);
    }

    #[test]
    fn op_pairing_stamps_duration_on_op_end() {
        let mut b = TraceBuf::new(0, 8);
        b.push(100, EventKind::OpBegin, 2, 0);
        b.push(175, EventKind::OpEnd, 2, 0);
        let mut last = None;
        b.for_each_ordered(|e| last = Some(e));
        assert_eq!(last.unwrap().b, 75, "OpEnd carries its duration");
    }

    #[test]
    fn region_boundary_feeds_region_hist() {
        let mut b = TraceBuf::new(0, 16);
        b.push(1, EventKind::RegionBoundary, 3, 2);
        b.push(2, EventKind::RegionBoundary, 5, 1);
        assert_eq!(b.region_hist.count(), 2);
        assert_eq!(b.region_hist.sum(), 8);
    }

    #[test]
    fn off_handle_is_inert() {
        let mut h = TraceHandle::OFF;
        assert!(!h.is_on());
        h.emit(1, EventKind::Store, 0, 0);
        h.add_cost(Category::Work, 10);
        assert!(h.take().is_none());
    }

    #[test]
    fn on_handle_records_and_takes() {
        let mut h = TraceHandle::new(TraceBuf::new(2, 8));
        assert!(h.is_on());
        h.emit(5, EventKind::LockAcquire, 42, 0);
        h.add_cost(Category::Fence, 30);
        let buf = h.take().unwrap();
        assert_eq!(buf.pushed(), 1);
        assert_eq!(buf.costs.fence_ns, 30);
        assert!(!h.is_on(), "taken handle is off");
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
