//! `kv_write` and `kv_read`: the memcached-like table under all seven
//! lock-delineated schemes, at a set-heavy and a get-heavy mix.

use ido_compiler::Scheme;
use ido_vm::VmConfig;
use ido_workloads::kv::memcached::MemcachedSpec;

use crate::driver::{
    assert_matches_run_workload, check_fill, run_point, unit, vm_config, SeededSpec,
};
use crate::layers::{probe_nvm_access, probe_tier2};
use crate::shape;
use crate::spans::Recorder;
use crate::workloads::{Metrics, Rep, Workload};

/// Closed loop: each of the 4 simulated threads issues its next operation
/// when the previous one returns.
const THREADS: usize = 4;
/// Operations per thread. Bounded by log capacity, not time: Atlas never
/// truncates its log, so runs are lengthened by repetitions, never by ops.
const OPS: u64 = 5_000;
/// 65 536 keys, half pre-filled at set-up: a few MiB of chained items, far
/// beyond the host's L2.
const KEY_RANGE: u64 = 1 << 16;
const BUCKETS: u64 = 1 << 13;
/// Above glibc's 32 MiB ceiling for its adaptive mmap threshold, like the
/// figure binaries' pools: each image is a fresh zero mapping. A smaller
/// pool is recycled from the heap and cleared by `calloc` on every
/// `Vm::new`, which doubled this workload's wall time when tried.
const POOL_MIB: usize = 64;
/// Index of the xorshift state among `MemcachedSpec`'s worker arguments.
const SEED_ARG: usize = 2;

/// The memcached-like workload at one set rate.
pub struct Kv {
    spec: SeededSpec,
    cfg: VmConfig,
}

impl Kv {
    /// Builds the workload and checks the decomposed driver against
    /// `run_workload` on its iDO point.
    pub fn new(seed: u64, put_permille: u64) -> Kv {
        let spec = SeededSpec::new(
            Box::new(MemcachedSpec {
                buckets: BUCKETS,
                key_range: KEY_RANGE,
                put_permille,
            }),
            Some(SEED_ARG),
            seed,
        );
        let cfg = vm_config(POOL_MIB, 1 << 17);
        assert_matches_run_workload(&spec, Scheme::Ido, THREADS, OPS / 10, &cfg);
        Kv { spec, cfg }
    }
}

impl Workload for Kv {
    fn repetition(&self, rec: &mut Recorder, hash_images: bool) -> Rep {
        let mut rep = Rep::default();
        for (i, scheme) in Scheme::ALL.into_iter().enumerate() {
            let r = unit(rec, i as u32, |rec| {
                let p = run_point(
                    rec,
                    &self.spec,
                    scheme,
                    THREADS,
                    OPS,
                    self.cfg.clone(),
                    hash_images,
                );
                check_fill(&p).map(|()| p)
            });
            if let Some(point) = rep.book(scheme.name(), r) {
                rep.work += point.steps;
                rep.push_point(i as u32, "memcached", point);
            }
        }
        rep.shape = shape::memcached(&rep);
        rep.seal(hash_images)
    }

    fn probe(&self, _rec: &mut Recorder, out: &mut Metrics) {
        probe_nvm_access(out);
        probe_tier2(&[(&self.spec, THREADS, OPS)], &self.cfg, out);
    }
}
