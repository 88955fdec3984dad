//! Allocator scaling bench: global-mutex baseline vs the sharded two-level
//! allocator, 1–256 simulated threads.
//!
//! Drives [`NvAllocator`] directly (no VM) under the default NVM latency
//! model with a MinClock discrete-event loop: each simulated thread runs an
//! alloc/free churn script over every small size class plus occasional
//! large blocks, and the thread with the lowest clock always moves next —
//! the same scheduling rule the VM sweeps use. Results are purely
//! simulated (no wall-clock anywhere), so the emitted `BENCH_alloc.json`
//! is byte-identical across hosts and `IDO_JOBS` settings; CI diffs it.
//!
//! Also runs the free-list cliff regression: loads-per-op with 100k live
//! blocks must stay within a small constant factor of the 1k-live cost
//! (the legacy first-fit list is O(live); the sharded class caches and
//! bitfield carving are O(1) for hot sizes).
//!
//! `IDO_BENCH_QUICK=1` shrinks the sweep for CI smoke runs.

use std::fmt::Write as _;

use ido_nvm::alloc::{AllocPolicy, NvAllocator};
use ido_nvm::root::RootTable;
use ido_nvm::{PAddr, PmemHandle, PmemPool, PoolConfig};

/// Per-thread churn state.
struct Lane {
    h: PmemHandle,
    x: u64,
    live: Vec<PAddr>,
    done: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One (policy, thread-count) point: runs the churn script to completion
/// and returns `(sim_ns, total_ops)`.
fn run_point(policy: AllocPolicy, threads: usize, ops_per_thread: u64) -> (u64, u64) {
    let pool = PmemPool::new(PoolConfig { size: 64 << 20, ..PoolConfig::default() });
    let mut h = pool.handle();
    RootTable::format(&mut h);
    let alloc = NvAllocator::format_with(&mut h, pool.size(), policy);
    drop(h);

    let mut lanes: Vec<Lane> = (0..threads)
        .map(|i| {
            let mut h = pool.handle();
            h.set_shard(i as u32);
            Lane { h, x: 0x9E37_79B9 + 977 * i as u64, live: Vec::new(), done: 0 }
        })
        .collect();

    // MinClock DES loop: the laggard thread always issues the next op.
    loop {
        let Some(t) = lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.done < ops_per_thread)
            .min_by_key(|(i, l)| (l.h.clock_ns(), *i))
            .map(|(i, _)| i)
        else {
            break;
        };
        let lane = &mut lanes[t];
        let x = xorshift(&mut lane.x);
        // Free-heavy once the lane holds 64 blocks, alloc-heavy below.
        let do_free = !lane.live.is_empty() && (lane.live.len() >= 64 || x & 3 == 0);
        if do_free {
            let victim = (x >> 32) as usize % lane.live.len();
            let addr = lane.live.swap_remove(victim);
            alloc.free(&mut lane.h, addr).expect("free live block");
        } else {
            // 8..=512 in 8-byte steps covers every small class; every
            // 32nd alloc goes large to exercise the fallback list.
            let size =
                if x & 0x1F == 7 { 1024 + (x as usize & 0x3F8) } else { 8 + (x as usize >> 8 & 0x1F8) };
            let addr = alloc.alloc(&mut lane.h, size).expect("alloc");
            lane.live.push(addr);
        }
        lane.done += 1;
    }

    let sim_ns = lanes.iter().map(|l| l.h.clock_ns()).max().unwrap_or(0);
    (sim_ns, threads as u64 * ops_per_thread)
}

/// Measures allocator loads-per-op for `pairs` alloc/free pairs on a heap
/// already holding `live` blocks (sharded policy). O(1) behaviour means
/// this cost does not grow with `live`.
fn loads_per_op_at(live: usize, pairs: u64) -> f64 {
    let pool = PmemPool::new(PoolConfig { size: 64 << 20, ..PoolConfig::default() });
    let mut h = pool.handle();
    RootTable::format(&mut h);
    let alloc = NvAllocator::format_with(&mut h, pool.size(), AllocPolicy::Sharded { shards: 4 });
    // Grow the live population (48-byte class: one chunk per 42 slots).
    for _ in 0..live {
        alloc.alloc(&mut h, 48).expect("live block");
    }
    let before = h.stats().loads;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..pairs {
        let a = alloc.alloc(&mut h, 48).expect("pair alloc");
        let _ = xorshift(&mut x);
        alloc.free(&mut h, a).expect("pair free");
    }
    let after = h.stats().loads;
    (after - before) as f64 / (2 * pairs) as f64
}

fn policy_name(p: AllocPolicy) -> &'static str {
    match p {
        AllocPolicy::Legacy => "legacy",
        AllocPolicy::GlobalDes => "global-mutex",
        AllocPolicy::Sharded { .. } => "sharded",
    }
}

fn main() {
    let quick = std::env::var("IDO_BENCH_QUICK").is_ok_and(|v| v == "1");
    let thread_counts: &[usize] =
        if quick { &[1, 4, 16, 64] } else { &[1, 4, 16, 64, 128, 256] };
    let ops_per_thread: u64 = if quick { 300 } else { 1000 };

    // Fan the (policy × threads) points over ido-par; input-order
    // reassembly keeps the JSON identical for any job count.
    let policies = [AllocPolicy::GlobalDes, AllocPolicy::Sharded { shards: 256 }];
    let tasks: Vec<(AllocPolicy, usize)> = policies
        .iter()
        .flat_map(|&p| thread_counts.iter().map(move |&t| (p, t)))
        .collect();
    let results = ido_par::par_map(tasks, move |(policy, threads)| {
        run_point(policy, threads, ops_per_thread)
    });

    let mops = |sim_ns: u64, ops: u64| ops as f64 * 1e3 / sim_ns as f64;
    println!("== Allocator scaling ==  (Mops/s, simulated; {ops_per_thread} ops/thread)");
    println!("{:>8}{:>16}{:>16}", "threads", "global-mutex", "sharded");
    for (i, &t) in thread_counts.iter().enumerate() {
        let (g_ns, g_ops) = results[i];
        let (s_ns, s_ops) = results[thread_counts.len() + i];
        println!("{t:>8}{:>16.3}{:>16.3}", mops(g_ns, g_ops), mops(s_ns, s_ops));
    }

    // Acceptance gate: ≥ 4× at 64 threads.
    let i64t = thread_counts.iter().position(|&t| t == 64).expect("64T point");
    let (g_ns, _) = results[i64t];
    let (s_ns, _) = results[thread_counts.len() + i64t];
    let speedup = g_ns as f64 / s_ns as f64;
    println!("speedup at 64 threads: {speedup:.2}x (gate: >= 4x)");
    assert!(speedup >= 4.0, "sharded allocator must be >= 4x global mutex at 64T, got {speedup:.2}x");

    // Free-list cliff regression.
    let (lo_live, hi_live, pairs) = if quick { (1_000, 20_000, 500) } else { (1_000, 100_000, 1_000) };
    let lo = loads_per_op_at(lo_live, pairs);
    let hi = loads_per_op_at(hi_live, pairs);
    let ratio = hi / lo;
    println!("loads/op at {lo_live} live = {lo:.2}, at {hi_live} live = {hi:.2} (ratio {ratio:.2})");
    assert!(ratio < 3.0, "allocation cost must not scale with live blocks: ratio {ratio:.2}");
    assert!(hi < 64.0, "absolute loads/op blew up: {hi:.2}");

    // Deterministic JSON: simulated quantities only, fixed field order.
    let mut json = String::from("{\n  \"bench\": \"alloc\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"ops_per_thread\": {ops_per_thread},");
    let _ = writeln!(
        json,
        "  \"threads\": [{}],",
        thread_counts.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
    );
    json.push_str("  \"series\": [\n");
    for (pi, &policy) in policies.iter().enumerate() {
        let _ = write!(json, "    {{\"policy\": \"{}\", \"points\": [", policy_name(policy));
        for (i, &t) in thread_counts.iter().enumerate() {
            let (sim_ns, ops) = results[pi * thread_counts.len() + i];
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "{{\"threads\": {t}, \"sim_ns\": {sim_ns}, \"mops\": {:.4}}}",
                mops(sim_ns, ops)
            );
        }
        let _ = writeln!(json, "]}}{}", if pi + 1 < policies.len() { "," } else { "" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"speedup_64t\": {speedup:.4},");
    let _ = writeln!(
        json,
        "  \"o1_regression\": {{\"live_lo\": {lo_live}, \"live_hi\": {hi_live}, \
         \"loads_per_op_lo\": {lo:.4}, \"loads_per_op_hi\": {hi:.4}, \"ratio\": {ratio:.4}}}"
    );
    json.push_str("}\n");
    ido_bench::write_bench_json("alloc", &json);
}
