//! Windowed service metrics over the simulated clock: the questions a
//! service is judged on — per-operation latency quantiles, throughput over
//! time, and what clients observe *while a shard recovers*.
//!
//! A [`Recorder`](crate::Recorder) built under an enabled
//! [`MetricsConfig`] carries a `Windows` timeline: every closed op span
//! and every recovery phase lands in the window of its (global) simulated
//! time. Each timeline carries a `base_ns` offset added to the emitting
//! handle's segment-local clock, so a run that crashes and recovers lays
//! its pre-crash, recovery, and post-crash segments onto one global
//! timeline (the pool's `set_metrics`, like `set_trace`, affects only
//! handles created afterwards). [`ServiceMetrics`] is the cell-wise merge,
//! exported as CSV rows, a Prometheus-style text snapshot, and Perfetto
//! counter tracks.

use crate::chrome::ChromeTrace;
use crate::{Hist, RecoveryPhase, RECOVERY_PHASES};

/// Number of distinct operation kinds (0 = generic, 1 = get, 2 = put).
pub const OP_KINDS: usize = 3;

/// Stable display names for the op kinds, by index.
const OP_KIND_NAMES: [&str; OP_KINDS] = ["generic", "get", "put"];

/// Windows preallocated per buffer so the hot path never allocates while
/// the composed timeline stays under this many windows (growth beyond is
/// amortized and happens only at a window-boundary crossing).
const PREALLOC_WINDOWS: usize = 64;

/// Default window width: 1 simulated millisecond.
const DEFAULT_WINDOW_NS: u64 = 1_000_000;

/// Pool-level metrics configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Whether handles created from the pool carry a windowed timeline.
    pub enabled: bool,
    /// Window width in simulated ns (at least 1 when enabled).
    pub window_ns: u64,
    /// Global-timeline offset added to every handle-local timestamp.
    pub base_ns: u64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig { enabled: false, window_ns: DEFAULT_WINDOW_NS, base_ns: 0 }
    }
}

impl MetricsConfig {
    /// An enabled config with the default window width at base 0.
    pub fn on() -> Self {
        MetricsConfig { enabled: true, ..MetricsConfig::default() }
    }

    /// An enabled config with the given window width at base 0.
    pub fn with_window(window_ns: u64) -> Self {
        MetricsConfig { enabled: true, window_ns: window_ns.max(1), base_ns: 0 }
    }

    /// The same config with a different timeline base.
    pub fn at_base(self, base_ns: u64) -> Self {
        MetricsConfig { base_ns, ..self }
    }
}

/// The seven persist-counter column names, in [`StatsSnapshot::to_array`]
/// order — a macro so that longer headers can `concat!` it.
macro_rules! counter_header {
    () => {
        "loads,stores,nt_stores,clwbs,fences,lines_persisted,log_bytes"
    };
}

/// The persist-counter record: what a pool handle counts, what the pool
/// accumulates, and what a metrics window is attributed. Defined here, the
/// lowest crate that needs it, and re-exported as `ido_nvm::StatsSnapshot`.
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
    /// Bytes written into log structures (stores issued inside a pool
    /// handle's log scope — UNDO/REDO entry payloads, shadow register
    /// files, recovery markers).
    pub log_bytes: u64,
}

impl StatsSnapshot {
    /// CSV column names, matching [`StatsSnapshot::csv_fields`] order.
    pub const CSV_HEADER: &'static str = counter_header!();

    /// The counters in [`StatsSnapshot::CSV_HEADER`] order. With
    /// [`StatsSnapshot::from_array`], the one place the record is
    /// enumerated: every field-wise operation goes through the array.
    #[inline]
    pub fn to_array(&self) -> [u64; 7] {
        let s = self;
        [s.loads, s.stores, s.nt_stores, s.clwbs, s.fences, s.lines_persisted, s.log_bytes]
    }

    /// The inverse of [`StatsSnapshot::to_array`].
    #[inline]
    pub fn from_array(a: [u64; 7]) -> StatsSnapshot {
        let [loads, stores, nt_stores, clwbs, fences, lines_persisted, log_bytes] = a;
        StatsSnapshot { loads, stores, nt_stores, clwbs, fences, lines_persisted, log_bytes }
    }

    /// Field-wise `self - earlier`, counting clamped fields: returns the
    /// saturating delta plus the number of fields in which `earlier`
    /// exceeded `self` (0 = clean monotonic delta). Persist counters are
    /// monotonic, so each clamped field is a masked counter regression —
    /// the caller composed snapshots from different buffers or out of
    /// order. The windows count these into
    /// [`ServiceMetrics::clamped_counter_deltas`], which
    /// [`ServiceMetrics::validate`] reports.
    pub fn delta_since_counting(&self, earlier: &StatsSnapshot) -> (StatsSnapshot, u64) {
        let (mut delta, mut clamped) = (self.to_array(), 0);
        for (d, e) in delta.iter_mut().zip(earlier.to_array()) {
            clamped += u64::from(*d < e);
            *d = d.saturating_sub(e);
        }
        (StatsSnapshot::from_array(delta), clamped)
    }

    /// Field-wise accumulate.
    #[inline]
    pub fn add(&mut self, other: &StatsSnapshot) {
        let mut sum = self.to_array();
        for (s, o) in sum.iter_mut().zip(other.to_array()) {
            *s += o;
        }
        *self = StatsSnapshot::from_array(sum);
    }

    /// Comma-joined fields in [`StatsSnapshot::CSV_HEADER`] order.
    pub fn csv_fields(&self) -> String {
        self.to_array().map(|v| v.to_string()).join(",")
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [loads, stores, nt, clwb, fences, lines, log_b] = self.to_array();
        write!(f, "loads={loads} stores={stores} nt={nt} clwb={clwb} fences={fences} ")?;
        write!(f, "lines={lines} logB={log_b}")
    }
}

/// One window of the timeline: everything that completed inside
/// `[i·window_ns, (i+1)·window_ns)` on the global simulated clock.
#[derive(Debug, Clone, Default)]
pub struct WindowCell {
    /// Operations completed in this window, by op kind.
    pub ops: [u64; OP_KINDS],
    /// Latency histogram of those operations (simulated ns).
    pub lat: Hist,
    /// Persist-counter deltas attributed to this window.
    pub counters: StatsSnapshot,
    /// Recovery time spent inside this window, by phase
    /// (`[scan, resume, release, rebuild]`, simulated ns).
    pub recovery_ns: [u64; RECOVERY_PHASES],
}

impl WindowCell {
    /// Total operations completed in this window (the goodput numerator).
    pub fn goodput(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &WindowCell) {
        for (a, b) in self.ops.iter_mut().zip(other.ops.iter()) {
            *a += *b;
        }
        self.lat.merge(&other.lat);
        self.counters.add(&other.counters);
        for (a, b) in self.recovery_ns.iter_mut().zip(other.recovery_ns.iter()) {
            *a += *b;
        }
    }
}

/// The metrics part of a [`Recorder`](crate::Recorder): its closed op
/// spans and recovery phases laid onto windows of the global timeline. All
/// state is inline or preallocated; the window vector grows only when the
/// timeline outruns `PREALLOC_WINDOWS`, and only at a window-boundary
/// crossing.
#[derive(Debug)]
pub(crate) struct Windows {
    window_ns: u64,
    base_ns: u64,
    per_kind: [Hist; OP_KINDS],
    cells: Vec<WindowCell>,
    /// Counter snapshot at the last attribution point; the next op end
    /// attributes the delta since it to the current window.
    last: StatsSnapshot,
    dropped_spans: u64,
    clamped_spans: u64,
    clamped_counter_deltas: u64,
}

impl Windows {
    pub(crate) fn new(config: &MetricsConfig) -> Windows {
        let mut cells = Vec::new();
        cells.reserve_exact(PREALLOC_WINDOWS);
        Windows {
            window_ns: config.window_ns.max(1),
            base_ns: config.base_ns,
            per_kind: Default::default(),
            cells,
            last: StatsSnapshot::default(),
            dropped_spans: 0,
            clamped_spans: 0,
            clamped_counter_deltas: 0,
        }
    }

    #[inline]
    fn cell_at(&mut self, global_ts: u64) -> &mut WindowCell {
        let idx = (global_ts / self.window_ns) as usize;
        while self.cells.len() <= idx {
            self.cells.push(WindowCell::default());
        }
        &mut self.cells[idx]
    }

    /// Counts an open span of `kind` discarded by an overlapping begin.
    pub(crate) fn drop_span(&mut self, kind: usize) {
        self.dropped_spans += 1;
        debug_assert!(
            false,
            "op_begin(kind={kind}) with a span already open: \
             unbalanced begin/end instrumentation"
        );
    }

    /// Records the span `[begin, end)` (handle-local ns) of `kind`: its
    /// latency, and the counter delta since the previous close, go to the
    /// window containing the end. An end before its begin (the clock went
    /// backwards — always a harness bug) records zero latency and is
    /// counted; debug builds assert on it.
    pub(crate) fn close(&mut self, kind: usize, begin: u64, end: u64, counters: &StatsSnapshot) {
        if end < begin {
            self.clamped_spans += 1;
            debug_assert!(
                false,
                "op_end at {end} before its begin at {begin}: \
                 non-monotonic span timestamps"
            );
        }
        let lat = end.saturating_sub(begin);
        self.per_kind[kind].record(lat);
        let (delta, clamped) = counters.delta_since_counting(&self.last);
        if clamped > 0 {
            self.clamped_counter_deltas += clamped;
            debug_assert!(
                false,
                "persist counters regressed across an op span ({clamped} \
                 field(s) clamped): snapshots composed from different \
                 buffers or out of order"
            );
        }
        self.last = *counters;
        let cell = self.cell_at(self.base_ns + end);
        cell.ops[kind] += 1;
        cell.lat.record(lat);
        cell.counters.add(&delta);
    }

    /// Attributes the recovery span `[t0, t1)` (handle-local ns) of `phase`
    /// to every window it overlaps, split exactly.
    pub(crate) fn recovery_span(&mut self, phase: RecoveryPhase, t0: u64, t1: u64) {
        let pi = phase as usize - 1;
        let w = self.window_ns;
        let (mut cur, t1) = (self.base_ns + t0, self.base_ns + t1);
        while cur < t1 {
            let end = ((cur / w + 1) * w).min(t1);
            self.cell_at(cur).recovery_ns[pi] += end - cur;
            cur = end;
        }
    }
}

/// The merged, deterministic windowed view of a service run: the
/// cell-wise sum of every folded per-thread timeline (and, via
/// [`ServiceMetrics::merge`], of every shard).
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Window width in simulated ns.
    pub window_ns: u64,
    /// The windowed timeline, index = global ts / `window_ns`.
    pub windows: Vec<WindowCell>,
    /// Whole-run latency histograms by op kind.
    pub per_kind: [Hist; OP_KINDS],
    /// Global timestamps at which a pool crashed, in note order.
    pub crashes: Vec<u64>,
    /// Op spans discarded by an overlapping `op_begin` (the earlier begin
    /// is replaced): each is an op missing from goodput and latency, and
    /// means the instrumentation's markers are unbalanced.
    pub dropped_spans: u64,
    /// Op spans whose end came before their begin (the clock went
    /// backwards); their latency was recorded as zero.
    pub clamped_spans: u64,
    /// Counter-delta fields clamped to zero because the snapshot at an op
    /// end was *below* the previous attribution point: snapshots composed
    /// out of order, so the per-window persist columns undercount.
    pub clamped_counter_deltas: u64,
}

impl ServiceMetrics {
    /// CSV header matching [`ServiceMetrics::csv_rows`].
    pub const CSV_HEADER: &'static str = concat!(
        "window,start_ns,goodput,generic,gets,puts,p50_ns,p90_ns,p99_ns,p999_ns,",
        counter_header!(),
        ",scan_ns,resume_ns,release_ns,rebuild_ns"
    );

    /// Merges recorders' timelines, cell by cell, onto windows of
    /// `window_ns`. Every cell is an order-independent sum, so the result
    /// does not depend on fold (handle drop) order.
    pub(crate) fn from_windows(window_ns: u64, timelines: Vec<Windows>) -> ServiceMetrics {
        let mut m = ServiceMetrics { window_ns: window_ns.max(1), ..ServiceMetrics::default() };
        for w in timelines {
            m.merge(&ServiceMetrics {
                window_ns: m.window_ns,
                windows: w.cells,
                per_kind: w.per_kind,
                crashes: Vec::new(),
                dropped_spans: w.dropped_spans,
                clamped_spans: w.clamped_spans,
                clamped_counter_deltas: w.clamped_counter_deltas,
            });
        }
        m
    }

    /// Validates the span accounting: returns one human-readable finding
    /// per anomaly (empty = every op span was recorded exactly once with
    /// a well-formed latency). The service harness asserts this is empty
    /// at the end of a run; dashboards can surface it as a health check.
    pub fn validate(&self) -> Vec<String> {
        let mut findings = Vec::new();
        if self.dropped_spans > 0 {
            findings.push(format!(
                "{} op span(s) dropped by overlapping op_begin markers: \
                 goodput and latency undercount by that many ops",
                self.dropped_spans
            ));
        }
        if self.clamped_spans > 0 {
            findings.push(format!(
                "{} op span(s) had a non-monotonic end timestamp \
                 (latency clamped to zero)",
                self.clamped_spans
            ));
        }
        if self.clamped_counter_deltas > 0 {
            findings.push(format!(
                "{} persist-counter delta field(s) clamped to zero by a \
                 regressed snapshot: per-window persist columns \
                 undercount (buffer composition out of order)",
                self.clamped_counter_deltas
            ));
        }
        findings
    }

    /// Folds another timeline (e.g. a different shard of the same
    /// service) into `self`, cell-wise. Window widths must match.
    pub fn merge(&mut self, other: &ServiceMetrics) {
        assert_eq!(self.window_ns, other.window_ns, "window widths must match to merge");
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), WindowCell::default());
        }
        for (cell, o) in self.windows.iter_mut().zip(other.windows.iter()) {
            cell.merge(o);
        }
        for (h, o) in self.per_kind.iter_mut().zip(other.per_kind.iter()) {
            h.merge(o);
        }
        self.crashes.extend_from_slice(&other.crashes);
        self.dropped_spans += other.dropped_spans;
        self.clamped_spans += other.clamped_spans;
        self.clamped_counter_deltas += other.clamped_counter_deltas;
    }

    /// Records that a pool crashed at global timestamp `ts`.
    pub fn note_crash(&mut self, ts: u64) {
        self.crashes.push(ts);
    }

    /// Total operations completed across the whole timeline.
    pub fn total_ops(&self) -> u64 {
        self.windows.iter().map(WindowCell::goodput).sum()
    }

    /// Recovery-phase totals summed over all windows
    /// (`[scan, resume, release, rebuild]`, simulated ns).
    pub fn recovery_phase_totals(&self) -> [u64; RECOVERY_PHASES] {
        let mut out = [0u64; RECOVERY_PHASES];
        for w in &self.windows {
            for (t, v) in out.iter_mut().zip(w.recovery_ns.iter()) {
                *t += v;
            }
        }
        out
    }

    /// One CSV row per window, in [`ServiceMetrics::CSV_HEADER`] order.
    pub fn csv_rows(&self) -> Vec<String> {
        self.windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "{i},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    i as u64 * self.window_ns,
                    w.goodput(),
                    w.ops[0],
                    w.ops[1],
                    w.ops[2],
                    w.lat.value_at_quantile(0.50),
                    w.lat.value_at_quantile(0.90),
                    w.lat.value_at_quantile(0.99),
                    w.lat.value_at_quantile(0.999),
                    w.counters.csv_fields(),
                    w.recovery_ns[0],
                    w.recovery_ns[1],
                    w.recovery_ns[2],
                    w.recovery_ns[3],
                )
            })
            .collect()
    }

    /// A Prometheus text-exposition snapshot of the whole run. `labels`
    /// is spliced into every sample (e.g. `scheme="ido"`), empty for
    /// none. Deterministic: fixed metric order, integer values only.
    pub fn prometheus_text(&self, labels: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let lbl = |extra: &str| -> String {
            match (labels.is_empty(), extra.is_empty()) {
                (true, true) => String::new(),
                (true, false) => format!("{{{extra}}}"),
                (false, true) => format!("{{{labels}}}"),
                (false, false) => format!("{{{labels},{extra}}}"),
            }
        };
        out.push_str("# TYPE ido_ops_total counter\n");
        for (k, name) in OP_KIND_NAMES.iter().enumerate() {
            let total: u64 = self.windows.iter().map(|w| w.ops[k]).sum();
            let _ = writeln!(out, "ido_ops_total{} {total}", lbl(&format!("kind=\"{name}\"")));
        }
        out.push_str("# TYPE ido_op_latency_ns summary\n");
        for (k, name) in OP_KIND_NAMES.iter().enumerate() {
            let h = &self.per_kind[k];
            for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                let _ = writeln!(
                    out,
                    "ido_op_latency_ns{} {}",
                    lbl(&format!("kind=\"{name}\",quantile=\"{qs}\"")),
                    h.value_at_quantile(q)
                );
            }
            let _ = writeln!(out, "ido_op_latency_ns_sum{} {}", lbl(&format!("kind=\"{name}\"")), h.sum());
            let _ = writeln!(out, "ido_op_latency_ns_count{} {}", lbl(&format!("kind=\"{name}\"")), h.count());
        }
        out.push_str("# TYPE ido_recovery_ns_total counter\n");
        let totals = self.recovery_phase_totals();
        for (p, total) in RecoveryPhase::ALL.iter().zip(totals.iter()) {
            let _ = writeln!(
                out,
                "ido_recovery_ns_total{} {total}",
                lbl(&format!("phase=\"{}\"", p.name()))
            );
        }
        out.push_str("# TYPE ido_crashes_total counter\n");
        let _ = writeln!(out, "ido_crashes_total{} {}", lbl(""), self.crashes.len());
        out
    }

    /// Emits the windowed series as Perfetto counter tracks under
    /// process `pid`: one goodput track (per-kind sub-series), one
    /// latency-quantile track, and one recovery-progress track (ns of
    /// recovery work per window, by phase — the series that shows a
    /// shard coming back).
    pub fn add_counter_tracks(&self, chrome: &mut ChromeTrace, pid: u32) {
        for (i, w) in self.windows.iter().enumerate() {
            let ts = i as u64 * self.window_ns;
            chrome.add_counter(
                pid,
                "goodput (ops/window)",
                ts,
                &[("generic", w.ops[0]), ("get", w.ops[1]), ("put", w.ops[2])],
            );
            chrome.add_counter(
                pid,
                "op latency (ns)",
                ts,
                &[
                    ("p50", w.lat.value_at_quantile(0.50)),
                    ("p99", w.lat.value_at_quantile(0.99)),
                    ("p999", w.lat.value_at_quantile(0.999)),
                ],
            );
            chrome.add_counter(
                pid,
                "recovery (ns/window)",
                ts,
                &[
                    ("scan", w.recovery_ns[0]),
                    ("resume", w.recovery_ns[1]),
                    ("release", w.recovery_ns[2]),
                    ("rebuild", w.recovery_ns[3]),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, EventKind, Recorder, TraceConfig};

    fn counters(stores: u64, clwbs: u64) -> StatsSnapshot {
        StatsSnapshot { stores, clwbs, ..StatsSnapshot::default() }
    }

    /// A metrics-only recorder on 1 000-ns windows at `base`.
    fn metered(base: u64) -> Box<Recorder> {
        Recorder::new(0, TraceConfig::default(), MetricsConfig::with_window(1000).at_base(base))
    }

    fn begin(r: &mut Recorder, kind: u64, ts: u64) {
        r.record(ts, EventKind::OpBegin, kind, 0, &StatsSnapshot::default());
    }

    fn end(r: &mut Recorder, kind: u64, ts: u64, c: &StatsSnapshot) {
        r.record(ts, EventKind::OpEnd, kind, 0, c);
    }

    fn span(r: &mut Recorder, kind: u64, t0: u64, t1: u64, c: &StatsSnapshot) {
        begin(r, kind, t0);
        end(r, kind, t1, c);
    }

    fn recovery(r: &mut Recorder, phase: RecoveryPhase, t0: u64, t1: u64) {
        r.record(t1, EventKind::RecoveryEnd, phase as u64, t1 - t0, &StatsSnapshot::default());
    }

    /// The recorders' timelines merged the way the pool merges them.
    fn merged(recorders: Vec<Box<Recorder>>) -> ServiceMetrics {
        let mut c = Collector::new(TraceConfig::default(), MetricsConfig::with_window(1000));
        recorders.into_iter().for_each(|r| c.fold(r));
        c.take_metrics().expect("metrics on")
    }

    #[test]
    fn config_default_is_disabled() {
        let c = MetricsConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.window_ns, DEFAULT_WINDOW_NS);
        assert!(MetricsConfig::on().enabled);
        assert_eq!(MetricsConfig::with_window(500).at_base(77).base_ns, 77);
    }

    #[test]
    fn op_span_lands_in_the_end_window_with_latency_and_delta() {
        let mut b = metered(0);
        span(&mut b, 1, 950, 1100, &counters(5, 2));
        let m = merged(vec![b]);
        assert_eq!(m.windows.len(), 2);
        assert_eq!(m.windows[0].goodput(), 0);
        assert_eq!(m.windows[1].ops, [0, 1, 0]);
        assert_eq!(m.windows[1].lat.max(), 150);
        assert_eq!(m.windows[1].counters.stores, 5);
        assert_eq!(m.windows[1].counters.clwbs, 2);
        assert_eq!(m.per_kind[1].count(), 1);
    }

    #[test]
    fn counter_deltas_are_attributed_incrementally() {
        let mut b = metered(0);
        span(&mut b, 2, 0, 10, &counters(5, 0));
        span(&mut b, 2, 1500, 1600, &counters(12, 3));
        let m = merged(vec![b]);
        assert_eq!(m.windows[0].counters.stores, 5);
        assert_eq!(m.windows[1].counters.stores, 7, "delta since previous close");
        assert_eq!(m.windows[1].counters.clwbs, 3);
    }

    #[test]
    fn base_offset_shifts_the_timeline() {
        let mut b = metered(5000);
        span(&mut b, 0, 10, 20, &StatsSnapshot::default());
        let m = merged(vec![b]);
        assert_eq!(m.windows.len(), 6);
        assert_eq!(m.windows[5].ops[0], 1);
    }

    #[test]
    fn unmatched_end_is_ignored_and_kind_clamps() {
        let mut b = metered(0);
        end(&mut b, 1, 10, &StatsSnapshot::default());
        span(&mut b, 99, 20, 30, &StatsSnapshot::default());
        let m = merged(vec![b]);
        assert_eq!(m.total_ops(), 1);
        assert_eq!(m.windows[0].ops[OP_KINDS - 1], 1, "kind clamped to the last index");
    }

    #[test]
    fn overlapping_begin_is_counted_not_silent() {
        let mut b = metered(0);
        begin(&mut b, 1, 10);
        // Second begin while the first span is still open: debug builds
        // assert; the span loss is counted either way.
        let overlap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            begin(&mut b, 2, 20);
        }));
        assert_eq!(overlap.is_err(), cfg!(debug_assertions));
        end(&mut b, 2, 30, &StatsSnapshot::default());
        let m = merged(vec![b]);
        assert_eq!(m.dropped_spans, 1, "the discarded span must be counted");
        assert_eq!(m.total_ops(), 1, "only the surviving span lands");
        let findings = m.validate();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("dropped"), "{findings:?}");
    }

    #[test]
    fn non_monotonic_end_is_clamped_and_counted() {
        let mut b = metered(500);
        begin(&mut b, 0, 100);
        // An end timestamp before the begin: the clock went backwards.
        let backwards = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            end(&mut b, 0, 50, &StatsSnapshot::default());
        }));
        assert_eq!(backwards.is_err(), cfg!(debug_assertions));
        let m = merged(vec![b]);
        assert_eq!(m.clamped_spans, 1, "the clamp must be counted");
        if !cfg!(debug_assertions) {
            // Release builds record the span with zero latency.
            assert_eq!(m.per_kind[0].count(), 1);
            assert_eq!(m.per_kind[0].max(), 0);
        }
        assert!(m.validate().iter().any(|f| f.contains("non-monotonic")), "{:?}", m.validate());
    }

    #[test]
    fn regressed_counter_snapshot_is_clamped_and_counted() {
        // Direct delta: a regression in two fields clamps those fields
        // to zero and reports exactly two clamp events.
        let earlier = counters(10, 4);
        let later = counters(7, 2); // stores and clwbs both went backwards
        let (delta, clamped) = later.delta_since_counting(&earlier);
        assert_eq!(clamped, 2, "one clamp event per regressed field");
        assert_eq!(delta.stores, 0);
        assert_eq!(delta.clwbs, 0);
        // A monotonic pair is clean.
        assert_eq!(earlier.delta_since_counting(&later), (counters(3, 2), 0));

        // Through the recorder: an op span whose end snapshot regresses
        // asserts in debug builds and is counted either way.
        let mut b = metered(0);
        span(&mut b, 0, 0, 10, &counters(10, 4));
        begin(&mut b, 0, 20);
        let regress = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            end(&mut b, 0, 30, &counters(7, 2));
        }));
        assert_eq!(regress.is_err(), cfg!(debug_assertions));
        let m = merged(vec![b]);
        assert_eq!(m.clamped_counter_deltas, 2, "the masked regression must be counted");
        let findings = m.validate();
        assert!(
            findings.iter().any(|f| f.contains("persist-counter delta")),
            "{findings:?}"
        );

        // Merge sums the accounting across shards.
        let other = ServiceMetrics { window_ns: 1000, clamped_counter_deltas: 3, ..ServiceMetrics::default() };
        let mut total = ServiceMetrics { window_ns: 1000, ..ServiceMetrics::default() };
        total.merge(&m);
        total.merge(&other);
        assert_eq!(total.clamped_counter_deltas, 5);
    }

    #[test]
    fn clean_run_validates_empty_and_merge_sums_accounting() {
        let mut a = metered(0);
        span(&mut a, 1, 0, 10, &StatsSnapshot::default());
        assert!(merged(vec![a]).validate().is_empty());

        let x = ServiceMetrics { window_ns: 1000, dropped_spans: 2, clamped_spans: 1, ..ServiceMetrics::default() };
        let mut y = ServiceMetrics { window_ns: 1000, dropped_spans: 3, ..ServiceMetrics::default() };
        y.merge(&x);
        assert_eq!(y.dropped_spans, 5);
        assert_eq!(y.clamped_spans, 1);
    }

    #[test]
    fn recovery_span_splits_exactly_across_windows() {
        let mut b = metered(0);
        recovery(&mut b, RecoveryPhase::Scan, 500, 2500);
        recovery(&mut b, RecoveryPhase::Rebuild, 2500, 2600);
        let m = merged(vec![b]);
        assert_eq!(m.windows[0].recovery_ns[0], 500);
        assert_eq!(m.windows[1].recovery_ns[0], 1000);
        assert_eq!(m.windows[2].recovery_ns[0], 500);
        assert_eq!(m.windows[2].recovery_ns[3], 100);
        assert_eq!(m.recovery_phase_totals(), [2000, 0, 0, 100]);
    }

    #[test]
    fn display_is_nonempty() {
        let s = StatsSnapshot::from_array([1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(s.to_string(), "loads=1 stores=2 nt=3 clwb=4 fences=5 lines=6 logB=7");
    }

    #[test]
    fn merge_is_fold_order_independent() {
        let mk = |ts: u64| {
            let mut b = metered(0);
            span(&mut b, 1, ts, ts + 50, &StatsSnapshot::default());
            b
        };
        let a = merged(vec![mk(100), mk(2100)]);
        let b = merged(vec![mk(2100), mk(100)]);
        assert_eq!(a.csv_rows(), b.csv_rows());
        assert_eq!(a.total_ops(), 2);
    }

    #[test]
    fn shard_merge_sums_cells_and_keeps_crashes() {
        let mk = |ts: u64| {
            let mut b = metered(0);
            span(&mut b, 2, ts, ts + 10, &counters(1, 1));
            merged(vec![b])
        };
        let mut a = mk(100);
        a.note_crash(700);
        let b = mk(150);
        a.merge(&b);
        assert_eq!(a.windows[0].ops[2], 2);
        assert_eq!(a.windows[0].counters.stores, 2);
        assert_eq!(a.crashes, vec![700]);
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let mut b = metered(0);
        span(&mut b, 1, 10, 20, &counters(3, 1));
        let m = merged(vec![b]);
        let cols = ServiceMetrics::CSV_HEADER.split(',').count();
        for row in m.csv_rows() {
            assert_eq!(row.split(',').count(), cols, "row {row}");
        }
    }

    #[test]
    fn prometheus_snapshot_has_all_families() {
        let mut b = metered(0);
        span(&mut b, 1, 0, 40, &StatsSnapshot::default());
        recovery(&mut b, RecoveryPhase::Resume, 0, 300);
        let mut m = merged(vec![b]);
        m.note_crash(123);
        let text = m.prometheus_text("scheme=\"ido\"");
        assert!(text.contains("ido_ops_total{scheme=\"ido\",kind=\"get\"} 1"));
        assert!(text.contains("ido_op_latency_ns{scheme=\"ido\",kind=\"get\",quantile=\"0.99\"} 40"));
        assert!(text.contains("ido_recovery_ns_total{scheme=\"ido\",phase=\"resume\"} 300"));
        assert!(text.contains("ido_crashes_total{scheme=\"ido\"} 1"));
        // Unlabeled form still renders valid sample lines.
        let plain = m.prometheus_text("");
        assert!(plain.contains("ido_crashes_total 1"));
    }

    #[test]
    fn counter_tracks_render_into_chrome_export() {
        let mut b = metered(0);
        span(&mut b, 2, 100, 350, &StatsSnapshot::default());
        recovery(&mut b, RecoveryPhase::Scan, 1000, 1400);
        let m = merged(vec![b]);
        let mut c = ChromeTrace::new();
        c.add_process(1, "svc");
        m.add_counter_tracks(&mut c, 1);
        let s = c.finish();
        crate::json::validate_json(&s).expect("counter export is valid JSON");
        assert!(s.contains("goodput (ops/window)"));
        assert!(s.contains("\"p999\":250"));
        assert!(s.contains("\"scan\":400"));
    }
}
