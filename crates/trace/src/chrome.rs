//! Chrome trace-event (Perfetto-loadable) JSON export.
//!
//! Emits the classic `{"traceEvents": [...]}` array format: `"X"`
//! (complete) events for FASEs and recovery phases, `"i"` (instant)
//! events for point kinds, and `"M"` metadata records naming each
//! process. Timestamps are simulated nanoseconds rendered as microseconds
//! with fixed three-decimal formatting, so identical traces always render
//! to identical bytes (determinism across `IDO_JOBS` is a hard
//! requirement; no floats are ever formatted through `f64`).

use std::fmt::Write as _;

use crate::event::{EventKind, RecoveryPhase};
use crate::Trace;

/// Incremental builder for one `.trace.json` file. Add processes and
/// traces in a deterministic order, then [`ChromeTrace::finish`].
#[derive(Debug, Default)]
pub struct ChromeTrace {
    body: String,
    first: bool,
}

/// Renders `ns` as a microsecond timestamp with exactly three decimals.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl ChromeTrace {
    /// An empty trace file builder.
    pub fn new() -> ChromeTrace {
        ChromeTrace { body: String::new(), first: true }
    }

    fn push_record(&mut self, record: &str) {
        if self.first {
            self.first = false;
        } else {
            self.body.push_str(",\n");
        }
        self.body.push_str("    ");
        self.body.push_str(record);
    }

    /// Names process `pid` (one process per scheme in `trace_report`).
    pub fn add_process(&mut self, pid: u32, name: &str) {
        let r = format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        );
        self.push_record(&r);
    }

    /// Adds every event of `trace` under process `pid`.
    ///
    /// FASE enter/exit pairs and recovery begin/end pairs become `"X"`
    /// spans (duration from the exit/end event's payload); everything
    /// else becomes an `"i"` instant. Every record carries the kind name
    /// in `args.k` so consumers (and the CI smoke) can filter by kind.
    pub fn add_trace(&mut self, pid: u32, trace: &Trace) {
        for e in &trace.events {
            let tid = e.thread;
            let k = e.kind.name();
            let r = match e.kind {
                // The exit/end event carries the duration; emit the span
                // at its start time. The matching enter/begin events are
                // kept as instants so incomplete pairs stay visible.
                EventKind::FaseExit => format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"name\":\"FASE\",\"cat\":\"fase\",\"args\":{{\"k\":\"{k}\"}}}}",
                    us(e.ts_ns.saturating_sub(e.b)),
                    us(e.b),
                ),
                EventKind::RecoveryEnd => {
                    let phase =
                        RecoveryPhase::from_u64(e.a).map_or("recovery", RecoveryPhase::name);
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                         \"name\":\"recovery:{phase}\",\"cat\":\"recovery\",\"args\":{{\"k\":\"{k}\"}}}}",
                        us(e.ts_ns.saturating_sub(e.b)),
                        us(e.b),
                    )
                }
                _ => format!(
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"{k}\",\"cat\":\"ev\",\"args\":{{\"k\":\"{k}\",\"a\":{},\"b\":{}}}}}",
                    us(e.ts_ns),
                    e.a,
                    e.b,
                ),
            };
            self.push_record(&r);
        }
    }

    /// Adds one sample to a counter track (`"C"` record).
    ///
    /// Perfetto renders successive samples of the same `(pid, name)` as a
    /// stepped area chart — one call per window boundary turns a windowed
    /// series into a counter track. `series` maps sub-series name →
    /// integer value (kept sorted by the caller for deterministic bytes);
    /// values are plain integers so no float formatting is involved.
    pub fn add_counter(&mut self, pid: u32, name: &str, ts_ns: u64, series: &[(&str, u64)]) {
        let mut args = String::new();
        for (i, (k, v)) in series.iter().enumerate() {
            if i > 0 {
                args.push(',');
            }
            let _ = write!(args, "\"{}\":{v}", esc(k));
        }
        let r = format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"name\":\"{}\",\"args\":{{{args}}}}}",
            us(ts_ns),
            esc(name),
        );
        self.push_record(&r);
    }

    /// Renders the complete `{"traceEvents": [...]}` document.
    pub fn finish(self) -> String {
        format!("{{\n  \"traceEvents\": [\n{}\n  ],\n  \"displayTimeUnit\": \"ns\"\n}}\n", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::json::validate_json;

    fn sample_trace() -> Trace {
        crate::trace_of(
            64,
            &[(
                0,
                &[
                    (0, EventKind::FaseEnter, 0, 0),
                    (10, EventKind::Store, 64, 7),
                    (20, EventKind::Clwb, 1, 0),
                    (1234, EventKind::FaseExit, 0, 0),
                    (2000, EventKind::RecoveryBegin, 1, 0),
                    (3500, EventKind::RecoveryEnd, 1, 1500),
                ],
            )],
        )
    }

    #[test]
    fn export_is_valid_json_with_spans_and_instants() {
        let mut c = ChromeTrace::new();
        c.add_process(3, "iDO \"quoted\"");
        c.add_trace(3, &sample_trace());
        let s = c.finish();
        validate_json(&s).expect("exporter must emit valid JSON");
        assert!(s.contains("\"ph\":\"M\""));
        assert!(s.contains("\\\"quoted\\\""));
        // The FASE span starts at exit - dur = 0 and lasts 1.234 us.
        assert!(s.contains("\"ph\":\"X\"") && s.contains("\"dur\":1.234"));
        assert!(s.contains("recovery:scan") && s.contains("\"dur\":1.500"));
        assert!(s.contains("\"k\":\"store\""));
    }

    #[test]
    fn timestamps_are_fixed_point_microseconds() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }

    #[test]
    fn identical_traces_render_identically() {
        let render = || {
            let mut c = ChromeTrace::new();
            c.add_process(0, "p");
            c.add_trace(0, &sample_trace());
            c.finish()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn counter_tracks_render_as_c_records() {
        let mut c = ChromeTrace::new();
        c.add_process(1, "svc");
        c.add_counter(1, "goodput", 0, &[("get", 10), ("put", 3)]);
        c.add_counter(1, "goodput", 1_000_000, &[("get", 12), ("put", 4)]);
        let s = c.finish();
        validate_json(&s).expect("counter export must emit valid JSON");
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("\"name\":\"goodput\""));
        assert!(s.contains("\"get\":12") && s.contains("\"put\":4"));
        assert!(s.contains("\"ts\":1000.000"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let c = ChromeTrace::new();
        validate_json(&c.finish()).expect("empty document parses");
    }
}
