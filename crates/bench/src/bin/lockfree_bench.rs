//! Contention benchmark: the iDO lock-delineated hash map against the
//! recoverable lock-free persistent map, 1–256 threads, across read/write
//! mixes.
//!
//! Three series per mix:
//! - `ido-hoh` — the hand-over-hand locked map ([`HohMapMixSpec`])
//!   instrumented by iDO: persistence comes from idempotent-region
//!   boundaries delineated by the program's own locks;
//! - `nvtraverse` — the lock-free map ([`LfMapSpec`]) under the
//!   NVTraverse-style scheme: traverse without flushing, flush the
//!   window on exiting the traversal, recoverable CAS at the critical
//!   write;
//! - `lf-eager` — the same map with eager per-store flushing (the
//!   baseline NVTraverse improves on).
//!
//! All quantities are simulated (MinClock discrete-event scheduling, the
//! NVM latency model), so `BENCH_lockfree.json` is byte-identical across
//! hosts and `IDO_JOBS` settings; CI diffs a quick run at jobs=1 vs
//! jobs=2. `IDO_BENCH_QUICK=1` shrinks the sweep for that smoke gate.

use std::fmt::Write as _;

use ido_bench::{ops_per_thread, write_figure};
use ido_compiler::Scheme;
use ido_workloads::lockfree::LfMapSpec;
use ido_workloads::micro::HohMapMixSpec;
use ido_workloads::{bench_config, sweep, with_sharded_alloc, RunStats, WorkloadSpec, NO_LOG};

const BUCKETS: u64 = 64;
const KEY_RANGE: u64 = 1024;

struct Series {
    label: &'static str,
    stats: Vec<RunStats>,
}

fn main() {
    let quick = std::env::var("IDO_BENCH_QUICK").is_ok_and(|v| v == "1");
    let threads: &[usize] = if quick { &[1, 4, 16] } else { &[1, 4, 16, 64, 128, 256] };
    let mixes: &[u64] = if quick { &[500] } else { &[100, 500, 900] };
    let ops = ops_per_thread(if quick { 60 } else { 200 });
    // Sized for the largest thread count, over the sharded allocator (the
    // legacy global-mutex allocator would serialize spawn-time log
    // allocation and drown the signal). Neither iDO (fixed-slot region log)
    // nor the lock-free schemes (descriptor table) use the append log.
    let cfg = with_sharded_alloc(bench_config(1024, 256, ops, NO_LOG), 64);
    let run = |spec: &dyn WorkloadSpec, scheme: Scheme| {
        let points = threads.iter().map(|&t| (scheme, t, cfg.clone())).collect();
        sweep(ido_par::jobs(), spec, ops, points)
    };

    // One sweep per (mix, implementation). Each sweep fans its thread
    // counts over ido-par with input-order reassembly, so the output is
    // independent of the job count.
    let mut per_mix: Vec<(u64, Vec<Series>)> = Vec::new();
    for &put_permille in mixes {
        let hoh = HohMapMixSpec { buckets: BUCKETS, key_range: KEY_RANGE, put_permille };
        let lf = LfMapSpec { buckets: BUCKETS, key_range: KEY_RANGE, put_permille };
        let series = vec![
            Series {
                label: "ido-hoh",
                stats: run(&hoh, Scheme::Ido),
            },
            Series {
                label: "nvtraverse",
                stats: run(&lf, Scheme::Nvtraverse),
            },
            Series {
                label: "lf-eager",
                stats: run(&lf, Scheme::LfEager),
            },
        ];
        per_mix.push((put_permille, series));
    }

    // Human-readable table.
    for (put_permille, series) in &per_mix {
        println!(
            "== Lock-free contention — {put_permille}‰ puts ==  (Mops/s, simulated; {ops} ops/thread)"
        );
        print!("{:>8}", "threads");
        for s in series {
            print!("{:>14}", s.label);
        }
        println!();
        for (i, &t) in threads.iter().enumerate() {
            print!("{t:>8}");
            for s in series {
                print!("{:>14.3}", s.stats[i].mops());
            }
            println!();
        }
        let last = threads.len() - 1;
        println!(
            "shape: nvtraverse/ido-hoh at {}T = {:.2}x, nvtraverse/lf-eager = {:.2}x",
            threads[last],
            series[1].stats[last].mops() / series[0].stats[last].mops(),
            series[1].stats[last].mops() / series[2].stats[last].mops(),
        );
    }

    // Sanity gates on the persist cost story rather than on absolute
    // throughput: every point completes, and deferring traversal flushes
    // to the window must not write back more lines than flushing eagerly
    // at every store.
    for (put_permille, series) in &per_mix {
        for s in series {
            for p in &s.stats {
                assert!(p.mops() > 0.0, "{}‰/{}/{}T: zero throughput", put_permille, s.label, p.threads);
            }
        }
        for (i, &t) in threads.iter().enumerate() {
            let nvt = &series[1].stats[i].mem_stats;
            let eager = &series[2].stats[i].mem_stats;
            assert!(
                nvt.clwbs <= eager.clwbs,
                "{put_permille}‰/{t}T: window flushing issued more clwbs \
                 ({}) than eager flushing ({})",
                nvt.clwbs,
                eager.clwbs
            );
        }
    }

    // Deterministic JSON: simulated quantities only, fixed field order.
    let mut json = String::from("{\n  \"bench\": \"lockfree\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"ops_per_thread\": {ops},");
    let _ = writeln!(json, "  \"buckets\": {BUCKETS},");
    let _ = writeln!(json, "  \"key_range\": {KEY_RANGE},");
    let _ = writeln!(
        json,
        "  \"threads\": [{}],",
        threads.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
    );
    json.push_str("  \"mixes\": [\n");
    for (mi, (put_permille, series)) in per_mix.iter().enumerate() {
        let _ = writeln!(json, "    {{\"put_permille\": {put_permille}, \"series\": [");
        for (si, s) in series.iter().enumerate() {
            let _ = write!(json, "      {{\"impl\": \"{}\", \"points\": [", s.label);
            for (i, &t) in threads.iter().enumerate() {
                let p = &s.stats[i];
                if i > 0 {
                    json.push_str(", ");
                }
                let _ = write!(
                    json,
                    "{{\"threads\": {t}, \"sim_ns\": {}, \"mops\": {:.4}, \
                     \"clwbs\": {}, \"fences\": {}}}",
                    p.sim_ns, p.mops(), p.mem_stats.clwbs, p.mem_stats.fences
                );
            }
            let _ = writeln!(json, "]}}{}", if si + 1 < series.len() { "," } else { "" });
        }
        let _ = writeln!(json, "    ]}}{}", if mi + 1 < per_mix.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");
    write_figure("BENCH_lockfree.json", &json);
}
