//! Output: the driver's result line, the human-readable table, and the
//! per-workload report file.

use std::fmt::Write as _;

use crate::names::{end_to_end, per_layer, MetricDef};
use crate::run::Outcome;
use crate::stats::Summary;

/// A JSON number with all the digits `f64` has; non-finite values (a
/// division by a zero denominator) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The catalogue the pass reports: end-to-end untraced, per-layer traced.
fn catalogue(traced: bool) -> Vec<MetricDef> {
    if traced {
        per_layer()
    } else {
        end_to_end()
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, with every metric of the pass's catalogue.
///
/// # Panics
/// Panics if the outcome carries a metric the catalogue does not know —
/// a typo in a metric name must not silently report 0.
pub fn result_line(out: &Outcome) -> String {
    let defs = catalogue(out.traced);
    if let Some(stray) = out
        .metrics
        .keys()
        .find(|k| !defs.iter().any(|d| d.name == **k))
    {
        panic!("metric `{stray}` is not in the catalogue");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let v = out.metrics.get(&d.name).copied().unwrap_or(0.0);
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            num(v),
            d.unit
        );
    }
    line.push_str("}}");
    line
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"p{}\": {}}}",
        s.n,
        num(s.min),
        num(s.q1),
        num(s.median),
        num(s.q3),
        num(s.max),
        s.tail_pct,
        num(s.tail)
    )
}

/// The paper's and the issue's names for what the catalogue reports per
/// layer: `(display name, unit, catalogue name)`.
const SIM_ALIASES: [(&str, &str, &str); 5] = [
    ("sim_ido_mops", "Mops/sim_s", "scheme.sim_mops.ido"),
    ("sim_ido_clwb_per_op", "count", "scheme.clwb_per_op.ido"),
    ("sim_ido_fence_per_op", "count", "scheme.fence_per_op.ido"),
    ("sim_ido_recovery_us", "sim_us", "vm.sim_recovery_us.ido"),
    ("sim_ido_p99_us", "sim_us", "scheme.sim_p99_us.ido"),
];

/// The table a person reads (standard error).
pub fn human(out: &Outcome) -> String {
    let mut t = String::new();
    let pass = if out.traced { "traced" } else { "untraced" };
    let _ = writeln!(t, "== {} (seed {}, {pass} pass) ==", out.workload, out.seed);
    for (label, s) in [("wall_s", &out.wall), ("setup_s", &out.setup)] {
        let Some(s) = s else { continue };
        // The reported value first: the fastest repetition, the median round.
        let reported = if label == "wall_s" { s.min } else { s.median };
        let _ = writeln!(
            t,
            "{label:<34} {reported:>12.6} s          min {:.6}  q1 {:.6}  median {:.6}  q3 {:.6}  max {:.6}  n {}",
            s.min, s.q1, s.median, s.q3, s.max, s.n
        );
    }
    if !out.traced {
        let rss = out.metrics.get("peak_rss_mib").copied().unwrap_or(0.0);
        let _ = writeln!(t, "{:<34} {rss:>12.2} MiB", "peak_rss_mib");
        let rate = out.metrics.get("work_per_s").copied().unwrap_or(0.0);
        let _ = writeln!(
            t,
            "{:<34} {rate:>12.1} 1/s        ({}s per host second)",
            "work_per_s",
            out.work_item.name()
        );
        let (alias, scale) = out.work_item.rate_alias();
        let _ = writeln!(t, "{alias:<34} {:>12.4}", rate * scale);
    }
    let fail_share = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    let _ = writeln!(
        t,
        "{:<34} {fail_share:>12.6} share      ({} of {} units)",
        "fail_share", out.failed, out.attempted
    );
    for (alias, unit, name) in SIM_ALIASES {
        if let Some(v) = out.sim.get(name) {
            let _ = writeln!(t, "{alias:<34} {v:>12.4} {unit}");
        }
    }
    if !out.shape.is_empty() {
        let held = out.shape.iter().filter(|(_, ok)| *ok).count();
        let _ = writeln!(
            t,
            "{:<34} {:>12.4} share      ({held} of {} checks)",
            "paper_shape_pass_share",
            held as f64 / out.shape.len() as f64,
            out.shape.len()
        );
        for (name, _) in out.shape.iter().filter(|(_, ok)| !ok) {
            let _ = writeln!(t, "    does not hold: {name}");
        }
    }
    let _ = writeln!(t, "{:<34} {:#018x}", "sim_fingerprint", out.sim_fingerprint);
    if out.fill != (0.0, 0.0) {
        let _ = writeln!(
            t,
            "{:<34} fullest append log {:.0}%, fullest pool {:.0}% (guard at 75%)",
            "fill",
            out.fill.0 * 100.0,
            out.fill.1 * 100.0
        );
    }
    if out.traced {
        let _ = writeln!(t, "-- per-layer metrics --");
        for d in per_layer() {
            if let Some(v) = out.metrics.get(&d.name) {
                let _ = writeln!(t, "{:<40} {v:>16.4} {}", d.name, d.unit);
            }
        }
        let _ = writeln!(t, "-- layer self time, share of one traced repetition --");
        for (layer, share) in &out.layers {
            let _ = writeln!(t, "{layer:<40} {:>15.2}%", share * 100.0);
        }
        let _ = writeln!(
            t,
            "{:<40} {:>15.2}%",
            "(sum)",
            out.layers.values().sum::<f64>() * 100.0
        );
        if !out.probe_layers.is_empty() {
            let _ = writeln!(t, "-- one re-enacted crash state, share by call --");
            for (name, share) in &out.probe_layers {
                let _ = writeln!(t, "{name:<40} {:>15.2}%", share * 100.0);
            }
        }
    }
    for f in &out.failures {
        let _ = writeln!(t, "FAILED: {f}");
    }
    let _ = writeln!(t, "correct: {}", out.correct);
    t
}

/// The report file for `out/<workload>[.traced].json`.
pub fn file_json(out: &Outcome) -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"workload\": \"{}\",", out.workload);
    let _ = writeln!(j, "  \"seed\": {},", out.seed);
    let _ = writeln!(j, "  \"traced\": {},", out.traced);
    let _ = writeln!(
        j,
        "  \"sim_fingerprint\": \"{:#018x}\",",
        out.sim_fingerprint
    );
    let _ = writeln!(j, "  \"work_item\": \"{}\",", out.work_item.name());
    if let Some(s) = &out.wall {
        let _ = writeln!(j, "  \"wall_s\": {},", summary_json(s));
    }
    if let Some(s) = &out.setup {
        let _ = writeln!(j, "  \"setup_s\": {},", summary_json(s));
    }
    let samples: Vec<String> = out.wall_samples.iter().map(|v| num(*v)).collect();
    let _ = writeln!(j, "  \"wall_samples_s\": [{}],", samples.join(", "));
    let map = |m: &mut String, key: &str, entries: Vec<(String, String)>| {
        let body: Vec<String> = entries
            .into_iter()
            .map(|(k, v)| format!("\"{}\": {v}", esc(&k)))
            .collect();
        let _ = writeln!(m, "  \"{key}\": {{{}}},", body.join(", "));
    };
    map(
        &mut j,
        "sim",
        out.sim.iter().map(|(k, v)| (k.clone(), num(*v))).collect(),
    );
    map(
        &mut j,
        "shape",
        out.shape
            .iter()
            .map(|(k, ok)| (k.clone(), ok.to_string()))
            .collect(),
    );
    map(
        &mut j,
        "layers",
        out.layers
            .iter()
            .map(|(k, v)| (k.clone(), num(*v)))
            .collect(),
    );
    map(
        &mut j,
        "reenacted_state",
        out.probe_layers
            .iter()
            .map(|(k, v)| (k.clone(), num(*v)))
            .collect(),
    );
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    let _ = writeln!(j, "  \"failures\": [{}],", failures.join(", "));
    let _ = writeln!(j, "  \"result\": {}", result_line(out));
    j.push_str("}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_catalogue_and_parses() {
        for traced in [false, true] {
            let mut out = Outcome {
                traced,
                correct: true,
                attempted: 3,
                ..Outcome::default()
            };
            let defs = catalogue(traced);
            out.metrics.insert(defs[0].name.clone(), 1.25);
            let line = result_line(&out);
            ido_trace::json::validate_json(&line).expect("valid JSON");
            assert!(!line.contains('\n'));
            for d in &defs {
                assert!(
                    line.contains(&format!("\"{}\": {{\"value\": ", d.name)),
                    "{}",
                    d.name
                );
            }
            assert_eq!(line.matches("\"value\"").count(), defs.len());
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"
            ));
            ido_trace::json::validate_json(&file_json(&out)).expect("report file is valid JSON");
        }
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn a_misspelt_metric_name_is_an_error() {
        let mut out = Outcome {
            traced: true,
            ..Outcome::default()
        };
        out.metrics.insert("vm.run_mstep_per_s.ido".into(), 1.0);
        result_line(&out);
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_finite() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(f64::NAN), "0.0");
        assert_eq!(num(3.0), "3.0");
    }
}
