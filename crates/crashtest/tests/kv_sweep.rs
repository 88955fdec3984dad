//! The oracle at application scale (ROADMAP item 5's gate): the
//! memcached-like store at 512 operations under iDO and Atlas, every
//! persist boundary, bounded lost-line cover. Forward-run exploration
//! makes this linear in run length — one replay of the run per worker
//! instead of one per crash state — which is what makes it a CI test.
//! Release builds only (`scripts/ci.sh` runs it in its crash-oracle stage):
//! every Atlas state recovers twice over a log that is never truncated,
//! which takes over a minute unoptimized.

use ido_compiler::Scheme;
use ido_crashtest::{explore, OracleConfig};
use ido_nvm::PoolConfig;
use ido_vm::VmConfig;
use ido_workloads::kv::memcached::MemcachedSpec;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow unoptimized; scripts/ci.sh runs it with --release"
)]
fn memcached_at_512_ops_survives_every_boundary_under_ido_and_atlas() {
    // Few buckets and keys: chains grow, updates and inserts both happen.
    let spec = MemcachedSpec {
        buckets: 16,
        key_range: 128,
        put_permille: 500,
    };
    let (threads, ops_per_thread) = (2usize, 256u64);
    let cfg = OracleConfig {
        threads,
        ops_per_thread,
        // Bounded cover: all four subsets of up to two dirty lines, else
        // lose everything / nothing / one line / all but one line.
        exhaustive_subset_limit: 2,
        max_subsets_per_step: 4,
        vm: VmConfig {
            // Atlas never truncates its log: room for every record of the run.
            log_entries: 1 << 14,
            pool: PoolConfig {
                size: 4 << 20,
                ..PoolConfig::small_for_tests()
            },
            ..VmConfig::for_tests()
        },
        ..OracleConfig::default()
    };
    for scheme in [Scheme::Ido, Scheme::Atlas] {
        let t = std::time::Instant::now();
        let e = explore(&spec, scheme, &cfg);
        assert!(e.counterexample.is_none(), "{e}");
        assert!(
            e.boundary_steps as u64 >= threads as u64 * ops_per_thread,
            "{e}"
        );
        assert!(e.crash_states_explored >= 2 * e.boundary_steps, "{e}");
        println!(
            "{e}; {} steps replayed, {} lines forked, {} recoveries run, {:.1} s",
            e.replayed_steps,
            e.forked_lines,
            e.recoveries_run,
            t.elapsed().as_secs_f64()
        );
    }
}
