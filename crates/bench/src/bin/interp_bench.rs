//! Interpreter wall-clock throughput benchmark — the repo's perf-trajectory
//! anchor.
//!
//! Every figure and every crash-oracle pass in this repro bottlenecks on the
//! `ido-vm` interpreter, so this binary measures what future PRs must not
//! regress:
//!
//! * **steps/sec** of the interpreter hot loop on fixed workloads —
//!   the twin counter under `Origin`/`iDO`, the hash map under
//!   `iDO`/`JustDo` (region tracking + boundary persists), the `iDO` map
//!   at 1/4/16/64 threads and fixed total ops (what scheduling costs as
//!   hand-offs multiply; the `steps/pick` column is the mean run-ahead
//!   length, `Vm::steps / Vm::sched_picks`), and two dispatch-bound
//!   microloops (pure arithmetic, and a branchy variant) where instruction
//!   dispatch itself is the cost;
//! * the same workloads on the **tier-2 block-compiled engine** (ISSUE 6),
//!   reported as a `tier2` series with per-bench speedups — tier 2 must
//!   hold ≥2× on the dispatch-bound loops while staying step-for-step
//!   identical (the harness asserts equal step counts per pair); and
//! * the **end-to-end wall-clock time of a `fig7`-style sweep** (schemes ×
//!   thread counts on the hash map), which additionally measures the
//!   deterministic parallel sweep engine.
//!
//! Results are printed as a table and written machine-readably to
//! `BENCH_interp.json` at the repo root so successive PRs have a perf
//! trajectory to compare against (see EXPERIMENTS.md for the recorded
//! history). `IDO_BENCH_QUICK=1` shrinks op counts for the CI smoke run.

use std::fmt::Write as _;
use std::time::Instant;

use ido_bench::{
    bench_config, ops_per_thread, sweep_threads, write_bench_json, LOG_PER_OP, NO_LOG,
};
use ido_compiler::Scheme;
use ido_ir::{BinOp, Program, ProgramBuilder};
use ido_vm::{ExecTier, Vm};
use ido_workloads::micro::{MapSpec, TwinSpec};
use ido_workloads::{run_workload, WorkloadSpec};

/// `worker(n)`: a counted loop of pure register arithmetic — no memory
/// traffic, so wall clock is interpreter dispatch and nothing else. The
/// workload where block compilation has the most to win.
struct ArithSpec;

impl WorkloadSpec for ArithSpec {
    fn name(&self) -> String {
        "arith".into()
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 1);
        let n = f.param(0);
        let i = f.new_reg();
        let acc = f.new_reg();
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.mov(i, 0i64);
        f.mov(acc, 1i64);
        f.jump(head);
        f.switch_to(head);
        let c = f.new_reg();
        f.bin(BinOp::Lt, c, i, n);
        f.branch(c, body, exit);
        f.switch_to(body);
        f.bin(BinOp::Add, acc, acc, i);
        f.bin(BinOp::Xor, acc, acc, 0x5aa5i64);
        f.bin(BinOp::Mul, acc, acc, 3i64);
        f.bin(BinOp::Add, i, i, 1i64);
        f.jump(head);
        f.switch_to(exit);
        f.ret(None);
        f.finish().expect("arith loop verifies");
        pb.finish()
    }

    fn setup(&self, _vm: &mut Vm, _threads: usize, _ops: u64) -> Vec<u64> {
        Vec::new()
    }

    fn worker_args(&self, _base: &[u64], _thread: usize, ops: u64) -> Vec<u64> {
        vec![ops]
    }

    fn verify(&self, _vm: &Vm, _base: &[u64], _total_ops: u64) {}
}

/// `worker(n)`: the arithmetic loop with a data-dependent branch diamond
/// per iteration — exercises the fused compare+branch superinstruction and
/// cross-block segment chaining rather than straight-line fusion.
struct BranchySpec;

impl WorkloadSpec for BranchySpec {
    fn name(&self) -> String {
        "branchy".into()
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 1);
        let n = f.param(0);
        let i = f.new_reg();
        let acc = f.new_reg();
        let head = f.new_block();
        let body = f.new_block();
        let odd = f.new_block();
        let even = f.new_block();
        let join = f.new_block();
        let exit = f.new_block();
        f.mov(i, 0i64);
        f.mov(acc, 0i64);
        f.jump(head);
        f.switch_to(head);
        let c = f.new_reg();
        f.bin(BinOp::Lt, c, i, n);
        f.branch(c, body, exit);
        f.switch_to(body);
        let par = f.new_reg();
        f.bin(BinOp::And, par, i, 1i64);
        f.branch(par, odd, even);
        f.switch_to(odd);
        f.bin(BinOp::Add, acc, acc, 3i64);
        f.jump(join);
        f.switch_to(even);
        f.bin(BinOp::Xor, acc, acc, i);
        f.jump(join);
        f.switch_to(join);
        f.bin(BinOp::Add, i, i, 1i64);
        f.jump(head);
        f.switch_to(exit);
        f.ret(None);
        f.finish().expect("branchy loop verifies");
        pb.finish()
    }

    fn setup(&self, _vm: &mut Vm, _threads: usize, _ops: u64) -> Vec<u64> {
        Vec::new()
    }

    fn worker_args(&self, _base: &[u64], _thread: usize, ops: u64) -> Vec<u64> {
        vec![ops]
    }

    fn verify(&self, _vm: &Vm, _base: &[u64], _total_ops: u64) {}
}

struct Measurement {
    name: &'static str,
    steps: u64,
    /// Mean steps a thread ran between scheduler hand-offs.
    steps_per_pick: f64,
    wall_ms: f64,
    steps_per_sec: f64,
}

fn measure_on(
    name: &'static str,
    scheme: Scheme,
    spec: &dyn WorkloadSpec,
    threads: usize,
    ops: u64,
    tier: ExecTier,
) -> Measurement {
    // One warmup run (page faults, lazy init), then the timed run.
    let mut cfg = bench_config(64, threads, ops, NO_LOG); // Origin, iDO, JUSTDO rows only
    cfg.tier = tier;
    run_workload(scheme, spec, threads, ops / 4 + 1, cfg.clone());
    let start = Instant::now();
    let stats = run_workload(scheme, spec, threads, ops, cfg);
    let wall = start.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    Measurement {
        name,
        steps: stats.steps,
        steps_per_pick: stats.steps as f64 / stats.sched_picks.max(1) as f64,
        wall_ms,
        steps_per_sec: stats.steps as f64 / wall.as_secs_f64(),
    }
}

fn main() {
    let quick = std::env::var("IDO_BENCH_QUICK").is_ok();
    let ops = ops_per_thread(if quick { 2_000 } else { 20_000 });
    let map = MapSpec { buckets: 64, key_range: 1024 };
    let arith_ops = ops * 8; // dispatch-bound loops are cheap per step

    let rows: Vec<(&'static str, Scheme, &dyn WorkloadSpec, usize, u64)> = vec![
        ("origin_twin_1t", Scheme::Origin, &TwinSpec, 1, ops),
        ("ido_twin_1t", Scheme::Ido, &TwinSpec, 1, ops),
        ("ido_map_1t", Scheme::Ido, &map, 1, ops),
        ("ido_map_4t", Scheme::Ido, &map, 4, ops / 4),
        ("ido_map_16t", Scheme::Ido, &map, 16, ops / 16),
        ("ido_map_64t", Scheme::Ido, &map, 64, ops / 64),
        ("justdo_map_4t", Scheme::JustDo, &map, 4, ops / 4),
        ("origin_arith_1t", Scheme::Origin, &ArithSpec, 1, arith_ops),
        ("origin_branchy_1t", Scheme::Origin, &BranchySpec, 1, arith_ops),
    ];

    let mut measurements = Vec::new();
    let mut tier2 = Vec::new();
    for &(name, scheme, spec, threads, n) in &rows {
        let t1 = measure_on(name, scheme, spec, threads, n, ExecTier::Tier1);
        let t2 = measure_on(name, scheme, spec, threads, n, ExecTier::Tier2);
        assert_eq!(
            t1.steps, t2.steps,
            "{name}: tier-2 must execute step-for-step identically"
        );
        measurements.push(t1);
        tier2.push(t2);
    }

    println!("== Interpreter throughput (wall clock) ==");
    println!(
        "{:>18} {:>12} {:>11} {:>14} {:>14} {:>8}",
        "bench", "steps", "steps/pick", "t1 steps/sec", "t2 steps/sec", "t2/t1"
    );
    for (m, m2) in measurements.iter().zip(&tier2) {
        println!(
            "{:>18} {:>12} {:>11.2} {:>14.0} {:>14.0} {:>7.2}x",
            m.name,
            m.steps,
            m.steps_per_pick,
            m.steps_per_sec,
            m2.steps_per_sec,
            m2.steps_per_sec / m.steps_per_sec
        );
    }

    // End-to-end sweep time: a fig7-style (scheme x threads) fan-out on the
    // hash map. This is the unit of work every figure binary repeats.
    let sweep_ops = if quick { 100 } else { 500 };
    let schemes = [Scheme::Origin, Scheme::Ido, Scheme::Atlas, Scheme::JustDo];
    let threads = [1usize, 2, 4, 8];
    let start = Instant::now();
    let curves = sweep_threads(&map, &schemes, &threads, sweep_ops, bench_config(64, 8, sweep_ops, LOG_PER_OP));
    let sweep_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(curves.len(), schemes.len());
    println!(
        "\nfig7-style sweep ({} schemes x {} thread counts, {} ops/thread): {:.1} ms (IDO_JOBS={})",
        schemes.len(),
        threads.len(),
        sweep_ops,
        sweep_wall_ms,
        ido_par::jobs(),
    );

    // Machine-readable trajectory point at the repo root.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ido-bench-interp-v2\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"jobs\": {},", ido_par::jobs());
    let _ = writeln!(json, "  \"ops_per_thread\": {ops},");
    let _ = writeln!(json, "  \"measurements\": [");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"steps\": {}, \"steps_per_pick\": {:.2}, \"wall_ms\": {:.3}, \"steps_per_sec\": {:.0}}}{comma}",
            m.name, m.steps, m.steps_per_pick, m.wall_ms, m.steps_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"tier2\": [");
    for (i, (m, m2)) in measurements.iter().zip(&tier2).enumerate() {
        let comma = if i + 1 == tier2.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"steps\": {}, \"wall_ms\": {:.3}, \"steps_per_sec\": {:.0}, \"speedup\": {:.3}}}{comma}",
            m2.name,
            m2.steps,
            m2.wall_ms,
            m2.steps_per_sec,
            m2.steps_per_sec / m.steps_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"sweep\": {{\"schemes\": {}, \"thread_counts\": {}, \"ops_per_thread\": {}, \"wall_ms\": {:.3}}}",
        schemes.len(),
        threads.len(),
        sweep_ops,
        sweep_wall_ms
    );
    json.push_str("}\n");
    write_bench_json("interp", quick, &json);
}
