//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! [`benchmark_json`] written to a file; a test keeps the two identical.

use std::fmt::Write as _;

use ido_compiler::Scheme;
use ido_crashtest::DURABLE_SCHEMES;

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The six workloads and why each exists (one line, ≤ 200 characters).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "kv_write",
        "memcached-like table, 50% set, 4 threads, 7 schemes: scheme runtimes and the nvm store/clwb/fence/log-append path do most of the work",
    ),
    (
        "kv_read",
        "same program, threads and keys at 10% set: the load path of the same vm/nvm/scheme code, so a store-path gain that costs loads shows here",
    ),
    (
        "micro_scale",
        "Fig. 7 structures x 5 schemes x 1-64 threads at fixed total ops, plus the lock-free map: scheduler picking, lock table and hand-offs dominate at 16-64 threads",
    ),
    (
        "service_crash",
        "4 shards x 4 threads, crash one shard, recover online, resume, with metrics and tracing on: the only workload where recovery and the observation plane do real work",
    ),
    (
        "crash_oracle",
        "crash-state exploration of 5 structures x 6 durable schemes: thousands of short VM lifetimes, so Vm::new, pool, replay, crash, recover and verify dominate, not dispatch",
    ),
    (
        "compile_verify",
        "no VM: corpus files, builder programs and seeded synthetic FASE programs through parse, optimize, partition, instrument, verify; bypasses every vm/nvm change",
    ),
];

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
    pub name: String,
    /// Unit, at most 16 characters.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median a later change may lose (end-to-end only).
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics. Every workload reports every one, and none can
/// be 0, which is why the simulated-clock results (not defined where no VM
/// runs) live in [`per_layer`] instead.
///
/// The bounds follow the spread measured at HEAD (README.md, "Spread at
/// HEAD"). Over ten seeds `wall_s` spread 1.9-3.6 % in the sandbox's quiet
/// hours, but 6-15 % in its noisy ones, when a whole 20 s run is a quarter
/// slower than the next; a bound under that cannot be held, so the host
/// clocks get the widest bound the contract allows, and the quiet-hour
/// figures say what a careful comparison can resolve. `peak_rss_mib`
/// spread at most 5.9 %.
pub fn end_to_end() -> Vec<MetricDef> {
    let e = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        e("wall_s", "s", "lower", 0.25),
        e("setup_s", "s", "lower", 0.25),
        e("peak_rss_mib", "MiB", "lower", 0.15),
        e("work_per_s", "1/s", "higher", 0.25),
    ]
}

/// Metric-name suffix of a scheme.
pub fn scheme_tag(s: Scheme) -> &'static str {
    match s {
        Scheme::Origin => "origin",
        Scheme::Ido => "ido",
        Scheme::Atlas => "atlas",
        Scheme::Mnemosyne => "mnemosyne",
        Scheme::JustDo => "justdo",
        Scheme::Nvml => "nvml",
        Scheme::Nvthreads => "nvthreads",
        Scheme::Nvtraverse => "nvtraverse",
        Scheme::LfEager => "lfeager",
    }
}

/// The per-layer metrics, in report order. Layers are the crates.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("lang.parse_us_per_kinst", "us", "lower"),
        def("lang.roundtrip_ok_share", "share", "higher"),
        def("ir.opt_us_per_kinst", "us", "lower"),
        def("ir.decode_us_per_kinst", "us", "lower"),
        def("ir.tier2_compile_us_per_kinst", "us", "lower"),
        def("idem.partition_us_per_kinst", "us", "lower"),
        def("idem.regions_per_kinst", "count", "lower"),
        def("idem.stores_per_region", "count", "higher"),
        def("idem.inputs_per_region", "count", "lower"),
        def("compiler.instrument_us_per_kinst", "us", "lower"),
        def("compiler.instrument_us_per_kinst.ido", "us", "lower"),
    ];
    for s in Scheme::ALL {
        v.push(def(
            format!("compiler.code_growth.{}", scheme_tag(s)),
            "ratio",
            "lower",
        ));
    }
    v.extend([
        def("verify.us_per_kinst", "us", "lower"),
        def("verify.verdict_ok_share", "share", "higher"),
        def("workloads.build_program_us", "us", "lower"),
        def("workloads.setup_us", "us", "lower"),
        def("workloads.verify_us", "us", "lower"),
        def("vm.new_us", "us", "lower"),
        def("vm.spawn_us", "us", "lower"),
        def("vm.attach_us", "us", "lower"),
        def("vm.crash_us", "us", "lower"),
    ]);
    for s in Scheme::ALL {
        v.push(def(
            format!("vm.run_msteps_per_s.{}", scheme_tag(s)),
            "Msteps/s",
            "higher",
        ));
    }
    for t in ["t1", "t4", "t16", "t64", "tier2"] {
        v.push(def(
            format!("vm.run_msteps_per_s.{t}"),
            "Msteps/s",
            "higher",
        ));
    }
    v.extend([
        def("vm.tier2_speedup", "ratio", "higher"),
        def("vm.hooked_ns_per_step", "ns", "lower"),
        def("vm.recover_us.ido", "us", "lower"),
        def("vm.recover_us.atlas", "us", "lower"),
    ]);
    for s in DURABLE_SCHEMES {
        v.push(def(
            format!("vm.sim_recovery_us.{}", scheme_tag(s)),
            "sim_us",
            "lower",
        ));
    }
    for s in Scheme::ALL.iter().chain(&Scheme::LOCKFREE) {
        v.push(def(
            format!("scheme.sim_mops.{}", scheme_tag(*s)),
            "Mops/sim_s",
            "higher",
        ));
    }
    for s in Scheme::ALL {
        v.push(def(
            format!("scheme.clwb_per_op.{}", scheme_tag(s)),
            "count",
            "lower",
        ));
    }
    for s in Scheme::ALL {
        v.push(def(
            format!("scheme.fence_per_op.{}", scheme_tag(s)),
            "count",
            "lower",
        ));
    }
    for s in ["ido", "atlas", "justdo"] {
        v.push(def(
            format!("scheme.log_bytes_per_op.{s}"),
            "bytes",
            "lower",
        ));
    }
    v.push(def("scheme.sim_share.work.ido", "share", "higher"));
    for c in ["log", "clwb", "fence"] {
        v.push(def(format!("scheme.sim_share.{c}.ido"), "share", "lower"));
    }
    v.push(def("scheme.sim_p99_us.ido", "sim_us", "lower"));
    v.extend([
        def("nvm.pool_new_us", "us", "lower"),
        def("nvm.load_ns", "ns", "lower"),
        def("nvm.store_ns", "ns", "lower"),
        def("nvm.store_ns.journal", "ns", "lower"),
        def("nvm.persist_ns", "ns", "lower"),
        def("nvm.dirty_lines_us", "us", "lower"),
        def("nvm.crash_us", "us", "lower"),
        def("nvm.alloc_ns.legacy", "ns", "lower"),
        def("nvm.alloc_ns.sharded", "ns", "lower"),
        def("nvm.free_ns.legacy", "ns", "lower"),
        def("nvm.free_ns.sharded", "ns", "lower"),
        def("nvm.attach_rebuild_us.sharded", "us", "lower"),
        def("crashtest.boundaries_us", "us", "lower"),
        def("crashtest.state_us.p50", "us", "lower"),
        def("crashtest.state_us.p99", "us", "lower"),
        def("crashtest.states", "count", "higher"),
        def("crashtest.boundaries", "count", "higher"),
        def("crashtest.replay_steps_per_state", "count", "lower"),
        def("crashtest.recovery_states_per_s", "1/s", "higher"),
        def("crashtest.bug_found_states", "count", "lower"),
        def("trace.on_overhead_pct", "%", "lower"),
        def("trace.events_per_op", "count", "lower"),
        def("trace.dropped_share", "share", "lower"),
        def("trace.encode_us", "us", "lower"),
        def("trace.chrome_export_us", "us", "lower"),
        def("metrics.on_overhead_pct", "%", "lower"),
        def("metrics.merge_us", "us", "lower"),
        def("metrics.export_us", "us", "lower"),
        def("metrics.dropped_spans", "count", "lower"),
        def("par.speedup_jobs2", "ratio", "higher"),
        def("par.map_overhead_us", "us", "lower"),
        def("ladder.dispatch_ns_per_op", "ns", "lower"),
        def("ladder.scheme_ns_per_op", "ns", "lower"),
        def("ladder.sched_ns_per_op", "ns", "lower"),
        def("ladder.observe_ns_per_op", "ns", "lower"),
        def("bench.trace_overhead_pct", "%", "lower"),
        def("bench.unattributed_share", "share", "lower"),
        def("bench.paper_shape_pass_share", "share", "higher"),
        // The low 48 bits of `sim_fingerprint`, exact in a JSON number: equal
        // values at one seed mean no simulated result moved. No direction.
        def("bench.sim_fingerprint", "hash48", "higher"),
    ]);
    v
}

/// The builder contract's rule for workload and metric names.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The builder contract's rule for units.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_rule_accepts_the_contract_alphabet_only() {
        for ok in [
            "wall_s",
            "vm.run_msteps_per_s.t16",
            "a",
            "9lives",
            "x-y.z_0",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/y",
            "ünï",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_rule_accepts_the_contract_alphabet_only() {
        for ok in ["ms", "s", "1/s", "count", "%", "Mops/sim_s", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "seventeen_chars_x", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name.to_string()), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{name}: why"
            );
        }
        for m in e2e.iter().chain(&layers) {
            assert!(
                valid_name(&m.name) && seen.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(valid_unit(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        for m in &e2e {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = e2e.iter().map(|m| m.bound.unwrap()).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        assert!(benchmark_json().len() <= 64 << 10);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `run.sh --print-benchmark-json`"
        );
        ido_trace::json::validate_json(&committed).expect("valid JSON");
    }
}
