//! Both passes end to end on the cheapest workload: the result lines carry
//! exactly the catalogue, the traced pass attributes (almost) all of a
//! repetition to layers, and `compile_verify` never creates a VM.

use ido_benchmark::names::{end_to_end, per_layer};
use ido_benchmark::{report, run};

#[test]
fn untraced_pass_reports_every_end_to_end_metric_above_zero() {
    let out = run::untraced("compile_verify", 3, 0.05);
    assert!(out.correct, "{:?}", out.failures);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0 && out.sim_fingerprint != 0);
    for m in end_to_end() {
        assert!(out.metrics[&m.name] > 0.0, "{} must never be 0", m.name);
    }
    let wall = out.wall.expect("summary");
    assert!(wall.n >= 3 && wall.min <= wall.median && wall.median <= wall.max);
    assert_eq!(
        out.metrics["wall_s"], wall.min,
        "wall_s is the fastest repetition"
    );
    assert_eq!(out.setup.expect("summary").n, 3);
    ido_trace::json::validate_json(&report::result_line(&out)).expect("valid JSON");
    assert!(report::human(&out).contains("compile_kinst_per_s"));
}

#[test]
fn traced_pass_attributes_the_repetition_to_layers() {
    let (out, spans_json) = run::traced("compile_verify", 3, 0.05);
    assert!(out.correct, "{:?}", out.failures);
    ido_trace::json::validate_json(&spans_json).expect("span file is valid JSON");
    ido_trace::json::validate_json(&report::result_line(&out)).expect("valid JSON");

    let known: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
    assert!(out.metrics.keys().all(|k| known.contains(k)));
    let total: f64 = out.layers.values().sum();
    assert!((total - 1.0).abs() < 0.05, "layer table sums to {total}");
    assert!(out.metrics["bench.unattributed_share"] <= 0.05);
    assert!(out.metrics.contains_key("bench.trace_overhead_pct"));
    for layer in ["lang", "ir", "idem", "compiler", "verify"] {
        assert!(out.layers[layer] > 0.0, "{layer} did work");
    }
    for layer in ["vm", "nvm", "trace", "metrics", "crashtest"] {
        assert!(
            !out.layers.contains_key(layer),
            "compile_verify must not reach {layer}"
        );
    }
    assert!(
        !spans_json.contains("\"vm."),
        "compile_verify creates no Vm"
    );
    assert_eq!(out.metrics["lang.roundtrip_ok_share"], 1.0);
    assert!(out.metrics["idem.partition_us_per_kinst"] > 0.0);
}
