//! The harness's own guarantees: the decomposed driver is `run_workload`,
//! `--seed` reaches the guest, failures are counted instead of fatal, and
//! the fill guard trips before a log can overflow.

use ido_benchmark::driver::{
    assert_matches_run_workload, check_fill, run_point, unit, vm_config, SeededSpec, FILL_LIMIT,
};
use ido_benchmark::spans::Recorder;
use ido_benchmark::stats::Fnv;
use ido_benchmark::workloads::compile::synthetic_source;
use ido_benchmark::workloads::make;
use ido_compiler::Scheme;
use ido_lang::parse_scenario;
use ido_nvm::{AllocPolicy, MetricsConfig};
use ido_trace::TraceConfig;
use ido_workloads::kv::memcached::MemcachedSpec;
use ido_workloads::micro::{MapSpec, StackSpec};
use ido_workloads::service::ServiceSpec;
use ido_workloads::WorkloadSpec;

fn seeded(inner: Box<dyn WorkloadSpec>, seed_arg: usize, seed: u64) -> SeededSpec {
    SeededSpec::new(inner, Some(seed_arg), seed)
}

#[test]
fn decomposed_driver_reproduces_run_workload() {
    let cfg = vm_config(8, 1 << 12);
    for scheme in Scheme::ALL {
        assert_matches_run_workload(&seeded(Box::new(StackSpec), 2, 7), scheme, 3, 40, &cfg);
    }
    let map = seeded(
        Box::new(MapSpec {
            buckets: 16,
            key_range: 256,
        }),
        1,
        7,
    );
    for threads in [1, 4, 16] {
        assert_matches_run_workload(&map, Scheme::Ido, threads, 30, &cfg);
        assert_matches_run_workload(&map, Scheme::Atlas, threads, 30, &cfg);
    }
    let kv = seeded(
        Box::new(MemcachedSpec {
            buckets: 64,
            key_range: 1024,
            put_permille: 500,
        }),
        2,
        7,
    );
    assert_matches_run_workload(&kv, Scheme::Nvml, 4, 50, &cfg);

    // The service configuration: sharded allocator, metrics and tracing on.
    let mut service_cfg = vm_config(8, 1 << 12);
    service_cfg.alloc = AllocPolicy::Sharded { shards: 4 };
    service_cfg.pool.metrics = MetricsConfig::with_window(10_000);
    service_cfg.pool.trace = TraceConfig {
        enabled: true,
        buf_entries: 256,
    };
    let service = seeded(Box::new(ServiceSpec::with_range(256)), 2, 7);
    assert_matches_run_workload(&service, Scheme::Ido, 4, 60, &service_cfg);
    assert_matches_run_workload(&service, Scheme::Mnemosyne, 4, 60, &service_cfg);
}

fn point_fingerprint(seed: u64) -> (u64, u64) {
    let spec = seeded(
        Box::new(MapSpec {
            buckets: 16,
            key_range: 256,
        }),
        1,
        seed,
    );
    let p = run_point(
        &mut Recorder::off(),
        &spec,
        Scheme::Ido,
        4,
        50,
        vm_config(8, 1 << 12),
        true,
    );
    let mut h = Fnv::default();
    p.fingerprint(&mut h);
    h.word(p.image_hash);
    (h.finish(), p.total_ops)
}

#[test]
fn a_different_seed_changes_the_fingerprint_but_not_the_op_count() {
    let (a, ops_a) = point_fingerprint(1);
    let (a_again, _) = point_fingerprint(1);
    let (b, ops_b) = point_fingerprint(2);
    assert_eq!(a, a_again, "one seed, one fingerprint");
    assert_ne!(a, b, "--seed must reach the guest key streams");
    assert_eq!(ops_a, ops_b);
}

#[test]
fn whole_workload_fingerprints_follow_the_seed() {
    // compile_verify is the cheapest whole workload; its seed drives the
    // synthetic programs.
    let rep = |seed| {
        make("compile_verify", seed)
            .expect("known workload")
            .repetition(&mut Recorder::off(), true)
    };
    let (a, a_again, b) = (rep(1), rep(1), rep(2));
    assert_eq!(a.sim_fingerprint, a_again.sim_fingerprint);
    assert_ne!(a.sim_fingerprint, b.sim_fingerprint);
    assert_eq!(a.attempted, b.attempted, "same units whatever the seed");
    assert_eq!(
        (a.failed, b.failed),
        (0, 0),
        "{:?} {:?}",
        a.failures,
        b.failures
    );
    assert_eq!(
        a.sim["verify.verdict_ok_share"], 1.0,
        "every known-answer verdict matches at HEAD"
    );
    assert_eq!(
        a.sim["compiler.code_growth.origin"], 1.0,
        "Origin adds no code"
    );
    assert!(make("no_such_workload", 1).is_none());
}

#[test]
fn synthetic_programs_parse_and_hit_their_size() {
    for (seed, target) in [(1, 256usize), (2, 1024), (3, 4096)] {
        let text = synthetic_source(seed, target);
        let scenario =
            parse_scenario(&text).unwrap_or_else(|e| panic!("{}", e.render("synthetic", &text)));
        let program = scenario.program.expect("program section").program;
        let insts: usize = program.functions().iter().map(|f| f.num_insts()).sum();
        assert!(
            (target * 3 / 4..target * 5 / 4).contains(&insts),
            "asked for ~{target} instructions, generated {insts}"
        );
        assert_eq!(
            text,
            synthetic_source(seed, target),
            "same seed, same program"
        );
        assert_ne!(text, synthetic_source(seed + 1, target));
    }
}

#[test]
fn a_panicking_unit_is_an_error_not_a_crash_and_closes_its_spans() {
    let mut rec = Recorder::on();
    let r: Result<(), String> = unit(&mut rec, 9, |rec| {
        let _open = rec.begin("vm.run");
        panic!("append log overflow at entry 16384");
    });
    assert_eq!(r.unwrap_err(), "append log overflow at entry 16384");
    let ok = unit(&mut rec, 10, |rec| Ok(rec.time("vm.new", || 5)));
    assert_eq!(ok, Ok(5));
    let spans = rec.spans();
    assert_eq!(spans.len(), 4);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert_eq!(
        (spans[0].name, spans[0].unit, spans[1].parent),
        ("bench.unit", 9, Some(0))
    );
    assert_eq!(
        (spans[2].unit, spans[2].parent),
        (10, None),
        "the failed unit was closed"
    );
}

#[test]
fn the_fill_guard_trips_before_a_log_overflows() {
    let spec = seeded(Box::new(StackSpec), 2, 1);
    // Atlas appends several entries per operation and never truncates.
    let roomy = run_point(
        &mut Recorder::off(),
        &spec,
        Scheme::Atlas,
        2,
        60,
        vm_config(8, 1 << 12),
        false,
    );
    assert!(roomy.log_fill > 0.0 && roomy.log_fill < FILL_LIMIT);
    assert_eq!(check_fill(&roomy), Ok(()));
    let tight = run_point(
        &mut Recorder::off(),
        &spec,
        Scheme::Atlas,
        2,
        60,
        vm_config(8, 400),
        false,
    );
    assert!(tight.log_fill > FILL_LIMIT, "log fill {}", tight.log_fill);
    assert!(check_fill(&tight).unwrap_err().contains("append log"));
    // And an actual overflow is a failed unit, not a dead process.
    let overflow = unit(&mut Recorder::off(), 0, |rec| {
        Ok(run_point(
            rec,
            &spec,
            Scheme::Atlas,
            2,
            60,
            vm_config(8, 1 << 7),
            false,
        ))
    });
    assert!(overflow.unwrap_err().contains("append log overflow"));
}
