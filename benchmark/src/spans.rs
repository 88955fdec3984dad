//! The benchmark's own in-memory span recorder.
//!
//! Every call the benchmark makes into a layer is wrapped in a span named
//! `<layer>.<function>`; spans nest under `bench.unit` and
//! `bench.repetition`. Recording happens only in the traced pass — with the
//! recorder off every method is one untaken branch, so the untraced pass
//! runs the same driver code without the clock reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<function>`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (one pipeline run, exploration or compile pair) it belongs to.
    pub unit: u32,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; `None` when the recorder is off.
pub type Open = Option<usize>;

/// Records spans in memory; written out once, when the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    /// A recording recorder.
    pub fn on() -> Recorder {
        Recorder {
            on: true,
            ..Recorder::off()
        }
    }

    /// Sets the unit id stamped on spans opened from now on.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `span` — and any span opened inside it that a caught panic
    /// left open — at the current time.
    pub fn end(&mut self, span: Open) {
        let Some(id) = span else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// that its direct children cover (children clipped to the parent, overlaps
/// counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(ps, pe), s.end_ns.clamp(ps, pe));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer over the subtree rooted at `root` (inclusive), ns.
/// The values sum to the root's duration.
pub fn layer_self_ns(spans: &[Span], root: usize) -> BTreeMap<&'static str, u64> {
    let self_ns = self_times_ns(spans);
    let mut in_tree = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Spans are stored in opening order, so a parent precedes its children.
        in_tree[i] = i == root || s.parent.is_some_and(|p| in_tree[p]);
        if in_tree[i] {
            *out.entry(s.layer()).or_insert(0) += self_ns[i];
        }
    }
    out
}

/// Self time by span *name* (not layer), pooled over every subtree whose
/// root is called `root_name` and was opened at index `from` or later, as a
/// share of those roots' total duration. Empty when there is no such root.
pub fn name_shares_under(spans: &[Span], from: usize, root_name: &str) -> BTreeMap<String, f64> {
    let self_ns = self_times_ns(spans);
    let mut in_tree = vec![false; spans.len()];
    let (mut total, mut by_name) = (0u64, BTreeMap::new());
    for (i, s) in spans.iter().enumerate().skip(from) {
        let is_root = s.name == root_name;
        in_tree[i] = is_root || s.parent.is_some_and(|p| in_tree[p]);
        if is_root {
            total += s.duration_ns();
        }
        if in_tree[i] {
            *by_name.entry(s.name.to_string()).or_insert(0u64) += self_ns[i];
        }
    }
    by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / total.max(1) as f64))
        .collect()
}

/// Durations of every span called `name`, ns, in recording order, with the
/// unit each belongs to.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<(u32, u64)> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.unit, s.duration_ns()))
        .collect()
}

/// Renders spans as Chrome trace-event JSON (`"X"` complete events, one
/// thread; load the file in Perfetto or `chrome://tracing`).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\n  \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "    {{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"id\":{i},\"parent\":{parent},\"unit\":{}}}}}",
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.duration_ns() / 1000,
            s.duration_ns() % 1000,
            s.name,
            s.layer(),
            s.unit,
        );
    }
    out.push_str("\n  ],\n  \"displayTimeUnit\": \"ns\"\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = vec![
            span("bench.repetition", 0, 100, None),
            span("vm.run", 10, 90, Some(0)),
            span("nvm.store", 20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn sibling_spans_each_count_once_and_overlap_counts_once() {
        let spans = vec![
            span("bench.unit", 0, 100, None),
            span("vm.new", 0, 30, Some(0)),
            span("vm.run", 30, 70, Some(0)),
            // Overlapping sibling (cannot happen on one thread, but the
            // arithmetic must not double-subtract).
            span("vm.crash", 60, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn zero_length_and_out_of_range_children_are_harmless() {
        let spans = vec![
            span("bench.unit", 10, 20, None),
            span("vm.spawn", 15, 15, Some(0)),
            span("vm.run", 5, 12, Some(0)), // starts before the parent: clipped
            span("vm.crash", 18, 40, Some(0)), // ends after the parent: clipped
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[0], 10 - 2 - 2);
        assert_eq!(t[1], 0);
    }

    #[test]
    fn layer_table_sums_to_the_root_duration() {
        let spans = vec![
            span("bench.repetition", 0, 1000, None),
            span("bench.unit", 0, 600, Some(0)),
            span("vm.new", 0, 100, Some(1)),
            span("vm.run", 100, 550, Some(1)),
            span("bench.unit", 600, 990, Some(0)),
            span("compiler.instrument_program", 610, 700, Some(4)),
            span("other.root", 2000, 3000, None),
        ];
        let table = layer_self_ns(&spans, 0);
        assert_eq!(table.values().sum::<u64>(), 1000);
        assert_eq!(table["vm"], 550);
        assert_eq!(table["compiler"], 90);
        assert_eq!(table["bench"], 360);
        assert!(!table.contains_key("other"));
    }

    #[test]
    fn name_shares_pool_every_matching_subtree() {
        let spans = vec![
            span("bench.reenacted_state", 0, 100, None), // before `from`: ignored
            span("vm.new", 0, 100, Some(0)),
            span("bench.reenacted_state", 100, 200, None),
            span("vm.new", 100, 130, Some(2)),
            span("vm.crash", 130, 190, Some(2)),
            span("bench.reenacted_state", 200, 300, None),
            span("vm.crash", 200, 300, Some(5)),
            span("vm.run", 300, 900, None), // under no root
        ];
        let shares = name_shares_under(&spans, 2, "bench.reenacted_state");
        assert_eq!(shares["vm.new"], 0.15);
        assert_eq!(shares["vm.crash"], 0.8);
        assert_eq!(shares["bench.reenacted_state"], 0.05);
        assert!(!shares.contains_key("vm.run"));
        assert!(name_shares_under(&spans, 0, "no.such.root").is_empty());
    }

    #[test]
    fn recorder_off_records_nothing_and_on_nests() {
        let mut off = Recorder::off();
        let s = off.begin("vm.run");
        off.end(s);
        assert!(off.spans().is_empty());

        let mut on = Recorder::on();
        on.set_unit(7);
        let outer = on.begin("bench.unit");
        on.time("vm.new", || ());
        let inner = on.begin("vm.run");
        let _leaked = on.begin("nvm.crash"); // left open, as after a caught panic
        let _ = inner;
        on.end(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.unit == 7 && s.end_ns >= s.start_ns));
        assert_eq!(
            spans[3].end_ns, spans[0].end_ns,
            "open children close with the parent"
        );
        on.time("vm.attach", || ());
        assert_eq!(on.spans()[4].parent, None, "the open stack was unwound");
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let spans = vec![
            span("bench.unit", 0, 2500, None),
            span("vm.run", 1001, 2002, Some(0)),
        ];
        let json = chrome_json(&spans);
        ido_trace::json::validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"ts\":1.001") && json.contains("\"dur\":1.001"));
        assert!(json.contains("\"cat\":\"vm\"") && json.contains("\"parent\":0"));
    }
}
