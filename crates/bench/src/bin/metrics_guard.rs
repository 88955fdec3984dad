//! Metrics-off overhead guard: the CI gate that pins "disabled metrics
//! are free" as a measured number, not a code-review promise.
//!
//! Two identical store loops run under Origin with metrics disabled; one
//! brackets every iteration with `op_begin`/`op_end` markers. With
//! metrics off each marker is a single untaken branch on a
//! null-pointer-optimized `Option`, so the *per-step* wall cost of the
//! marked loop must match the unmarked one. Host noise comes in phases
//! that outlast one run, so the gate compares the two loops within pairs
//! of back-to-back runs (which one goes first alternates) and takes the
//! median of the per-pair ratios: a slow phase moves both halves of a
//! pair, and one disturbed pair cannot move the median. Every pair is
//! printed. `IDO_GUARD_TOL` overrides the tolerance (fraction, default
//! 0.05).
//!
//! A metrics-on run is also measured and reported (informational — the
//! enabled path is priced separately by `service_bench`).

use std::time::Instant;

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_ir::{BinOp, Program, ProgramBuilder};
use ido_nvm::MetricsConfig;
use ido_vm::{RunOutcome, SchedPolicy, Vm, VmConfig};

/// Alternating (unmarked, marked) pairs; odd, so the median is one pair.
const PAIRS: usize = 9;

/// `worker(n)`: a store-per-iteration loop, optionally bracketed by
/// op-span markers — the same distilled hot path the zero-allocation
/// test pins, here priced in wall ns/step.
fn store_loop(markers: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("worker", 1);
    let n = f.param(0);
    let i = f.new_reg();
    let base = f.new_reg();

    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();

    f.alloc(base, 64i64);
    f.mov(i, 0i64);
    f.jump(head);

    f.switch_to(head);
    let c = f.new_reg();
    f.bin(BinOp::Lt, c, i, n);
    f.branch(c, body, exit);

    f.switch_to(body);
    if markers {
        f.op_begin(2i64);
    }
    f.store(base, 0, i);
    if markers {
        f.op_end(2i64);
    }
    f.bin(BinOp::Add, i, i, 1i64);
    f.jump(head);

    f.switch_to(exit);
    f.ret(None);
    f.finish().expect("guard loop verifies");
    pb.finish()
}

/// Wall nanoseconds per interpreter step of one run of `inst`.
fn ns_per_step(inst: &Instrumented, metrics: MetricsConfig, iters: u64) -> f64 {
    let mut cfg = VmConfig::for_tests();
    cfg.sched = SchedPolicy::MinClock;
    cfg.pool.metrics = metrics;
    let mut vm = Vm::new(inst.clone(), cfg);
    vm.spawn("worker", &[iters]);
    let t0 = Instant::now();
    assert_eq!(vm.run(), RunOutcome::Completed);
    t0.elapsed().as_nanos() as f64 / vm.steps() as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let quick = std::env::var("IDO_BENCH_QUICK").is_ok();
    let iters: u64 = if quick { 300_000 } else { 1_000_000 };
    let tol: f64 = std::env::var("IDO_GUARD_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let loop_for = |markers| {
        instrument_program(store_loop(markers), Scheme::Origin)
            .expect("origin instrumentation is the identity")
    };
    let (unmarked, marked) = (loop_for(false), loop_for(true));
    let off = MetricsConfig::default;

    println!("== metrics_guard — {iters} iterations, {PAIRS} alternating pairs ==");
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let (plain, marked_off) = if pair % 2 == 0 {
            let plain = ns_per_step(&unmarked, off(), iters);
            (plain, ns_per_step(&marked, off(), iters))
        } else {
            let marked_off = ns_per_step(&marked, off(), iters);
            (ns_per_step(&unmarked, off(), iters), marked_off)
        };
        let ratio = marked_off / plain;
        println!(
            "  pair {pair}: unmarked {plain:.3}, marked {marked_off:.3} ns/step  ({:+.2}%)",
            (ratio - 1.0) * 100.0
        );
        ratios.push(ratio);
    }
    let off_overhead = median(ratios) - 1.0;
    let marked_on = median(
        (0..PAIRS).map(|_| ns_per_step(&marked, MetricsConfig::with_window(1 << 40), iters)).collect(),
    );
    println!("  median per-pair overhead, metrics off: {:+.2}% per step", off_overhead * 100.0);
    println!("  marked, metrics on: {marked_on:.3} ns/step (median of {PAIRS} runs)");

    assert!(
        off_overhead <= tol,
        "disabled metrics must be free: marked loop costs {:.2}% more per step \
         (median of {PAIRS} pairs; tolerance {:.0}%)",
        off_overhead * 100.0,
        tol * 100.0
    );
    println!("metrics guard OK: disabled-path overhead {:.2}% <= {:.0}%", off_overhead * 100.0, tol * 100.0);
}
