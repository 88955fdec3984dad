//! Fig. 9: sensitivity to NVM latency. Re-runs the Memcached 32-thread
//! insertion-intensive point and the Redis "large" (1M-key) point with an
//! extra configurable delay (20–2000 ns) after each write-back, emulating
//! slower NVM media or a longer persistence data path.
//!
//! Paper shape to reproduce: iDO and Atlas hold their throughput up to a
//! delay of ~100 ns and degrade beyond it; JUSTDO suffers a 1.5–2×
//! slowdown already at 20 ns because it fences every store.

use ido_bench::{bench_config, ops_per_thread, run_point, with_nvm_delay, write_csv, LOG_PER_OP};
use ido_compiler::Scheme;
use ido_nvm::MetricsConfig;
use ido_workloads::kv::{memcached::MemcachedSpec, redis::RedisSpec};
use ido_workloads::WorkloadSpec;

const DELAYS_NS: [u64; 6] = [0, 20, 100, 500, 1000, 2000];

/// `(label, workload, threads, ops, heap MiB)`.
type Case = (&'static str, Box<dyn WorkloadSpec>, usize, u64, usize);

fn main() {
    let schemes = [Scheme::Ido, Scheme::Atlas, Scheme::JustDo];
    let cases: Vec<Case> = vec![
        (
            "memcached insert-intensive, 32 threads",
            Box::new(MemcachedSpec::insertion_intensive()),
            32,
            ops_per_thread(300),
            224,
        ),
        (
            "redis large (1M keys), 1 thread",
            Box::new(RedisSpec::with_range(1_000_000)),
            1,
            ops_per_thread(3000),
            448,
        ),
    ];

    let mut rows = Vec::new();
    for (label, spec, threads, ops, heap_mib) in &cases {
        println!("\n== Fig. 9 — {label} ==  (Mops/s; % of zero-delay in parens)");
        print!("{:>10}", "delay ns");
        for s in schemes {
            print!("{:>20}", s.name());
        }
        println!();
        let mut base = [0.0f64; 3];
        for delay in DELAYS_NS {
            let mut cfg = with_nvm_delay(bench_config(*heap_mib, *threads, *ops, LOG_PER_OP), delay);
            // Metrics on: the kv workloads bracket every op with span
            // markers, so each point also yields latency quantiles.
            cfg.pool.metrics = MetricsConfig::on();
            print!("{delay:>10}");
            for (si, scheme) in schemes.iter().enumerate() {
                let stats = run_point(spec.as_ref(), *scheme, *threads, *ops, cfg.clone());
                let mops = stats.mops();
                if delay == 0 {
                    base[si] = mops;
                }
                print!("{:>12.3} ({:>3.0}%)", mops, 100.0 * mops / base[si]);
                let m = stats.metrics.expect("metrics were enabled");
                // Whole-run quantiles over both op kinds (gets + puts).
                let mut lat = ido_trace::Hist::default();
                for h in &m.per_kind {
                    lat.merge(h);
                }
                rows.push(format!(
                    "{label},{delay},{},{mops:.4},{},{},{}",
                    scheme.name(),
                    lat.value_at_quantile(0.50),
                    lat.value_at_quantile(0.99),
                    lat.value_at_quantile(0.999),
                ));
            }
            println!();
        }
    }
    write_csv("fig9_latency", "case,delay_ns,scheme,mops,p50_ns,p99_ns,p999_ns", &rows);

    println!("\nshape check: JUSTDO should fall fastest with delay (it fences per store);");
    println!("iDO and Atlas should hold most of their throughput through ~100 ns.");
}
