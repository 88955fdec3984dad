//! `micro_scale`: the Fig. 7 structures under five schemes at 1-64
//! simulated threads and a fixed total op count per point, plus the
//! lock-free map under its two schemes.

use std::time::Instant;

use ido_compiler::Scheme;
use ido_trace::TraceConfig;
use ido_vm::VmConfig;
use ido_workloads::lockfree::LfMapSpec;
use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec};
use ido_workloads::{run_workload, WorkloadSpec};

use crate::driver::{
    assert_matches_run_workload, check_fill, run_point, unit, vm_config, SeededSpec,
};
use crate::layers::{fastest_run_ns, probe_nvm_access, probe_tier2};
use crate::shape;
use crate::spans::Recorder;
use crate::workloads::{Metrics, Rep, Workload};

const SCHEMES: [Scheme; 5] = [
    Scheme::Origin,
    Scheme::Ido,
    Scheme::Atlas,
    Scheme::Mnemosyne,
    Scheme::JustDo,
];
const THREADS: [usize; 4] = [1, 4, 16, 64];
const LF_THREADS: [usize; 2] = [1, 16];
/// Operations per point, split evenly over its threads (closed loop).
const TOTAL_OPS: u64 = 1_280;
/// Append-log entries per operation the longest-logging pair (Atlas on the
/// hand-over-hand list) may need; sizes each point's per-thread log.
const LOG_ENTRIES_PER_OP: u64 = 96;

struct Structure {
    name: &'static str,
    spec: SeededSpec,
    schemes: &'static [Scheme],
    threads: &'static [usize],
}

/// The scaling sweep.
pub struct MicroScale {
    structures: Vec<Structure>,
}

/// Per-point configuration: the log is sized from the point's ops per
/// thread, so 1 thread x 1 280 ops and 64 threads x 20 ops both fit their
/// logs in the pool with the same headroom.
fn point_cfg(ops_per_thread: u64) -> VmConfig {
    let log_entries = (ops_per_thread * LOG_ENTRIES_PER_OP).next_power_of_two() as usize;
    vm_config(64, log_entries)
}

impl MicroScale {
    /// Builds the sweep and checks the decomposed driver against
    /// `run_workload` on the hash map under iDO at 4 threads.
    pub fn new(seed: u64) -> MicroScale {
        let s = |name, inner: Box<dyn WorkloadSpec>, seed_arg, schemes, threads| Structure {
            name,
            spec: SeededSpec::new(inner, Some(seed_arg), seed),
            schemes,
            threads,
        };
        let structures = vec![
            s("stack", Box::new(StackSpec), 2, &SCHEMES[..], &THREADS[..]),
            s("queue", Box::new(QueueSpec), 3, &SCHEMES[..], &THREADS[..]),
            s(
                "list",
                Box::new(ListSpec { key_range: 64 }),
                1,
                &SCHEMES[..],
                &THREADS[..],
            ),
            s(
                "map",
                Box::new(MapSpec {
                    buckets: 64,
                    key_range: 1024,
                }),
                1,
                &SCHEMES[..],
                &THREADS[..],
            ),
            s(
                "lfmap",
                Box::new(LfMapSpec {
                    buckets: 64,
                    key_range: 1024,
                    put_permille: 500,
                }),
                3,
                &Scheme::LOCKFREE[..],
                &LF_THREADS[..],
            ),
        ];
        let map = &structures[3].spec;
        assert_matches_run_workload(
            map,
            Scheme::Ido,
            4,
            TOTAL_OPS / 4,
            &point_cfg(TOTAL_OPS / 4),
        );
        MicroScale { structures }
    }

    fn map(&self) -> &SeededSpec {
        &self.structures[3].spec
    }
}

impl Workload for MicroScale {
    fn repetition(&self, rec: &mut Recorder, hash_images: bool) -> Rep {
        let mut rep = Rep::default();
        let mut id = 0u32;
        for st in &self.structures {
            for &scheme in st.schemes {
                for &threads in st.threads {
                    let ops = TOTAL_OPS / threads as u64;
                    let r = unit(rec, id, |rec| {
                        let p = run_point(
                            rec,
                            &st.spec,
                            scheme,
                            threads,
                            ops,
                            point_cfg(ops),
                            hash_images,
                        );
                        check_fill(&p).map(|()| p)
                    });
                    if let Some(point) = rep.book(&format!("{} {scheme} {threads}T", st.name), r) {
                        rep.work += point.steps;
                        rep.push_point(id, st.name, point);
                    }
                    id += 1;
                }
            }
        }
        rep.shape = shape::micro(&rep);
        rep.seal(hash_images)
    }

    fn probe(&self, _rec: &mut Recorder, out: &mut Metrics) {
        probe_nvm_access(out);
        let tier2_points: Vec<(&dyn WorkloadSpec, usize, u64)> = self.structures[..4]
            .iter()
            .map(|st| (&st.spec as &dyn WorkloadSpec, 4, TOTAL_OPS / 4))
            .collect();
        probe_tier2(&tier2_points, &point_cfg(TOTAL_OPS / 4), out);
        self.probe_ladder(out);
        self.probe_par(out);
    }
}

impl MicroScale {
    /// The layer ladder on the hash map: host ns per op inside `Vm::run`,
    /// differenced between configurations that each add one layer's work.
    fn probe_ladder(&self, out: &mut Metrics) {
        let one = point_cfg(TOTAL_OPS);
        let sixteen = point_cfg(TOTAL_OPS / 16);
        let mut traced = one.clone();
        traced.pool.trace = TraceConfig::on();
        let map = self.map() as &dyn WorkloadSpec;
        let ns = fastest_run_ns(
            5,
            &[
                (map, Scheme::Origin, 1, TOTAL_OPS, &one),
                (map, Scheme::Ido, 1, TOTAL_OPS, &one),
                (map, Scheme::Ido, 16, TOTAL_OPS / 16, &sixteen),
                (map, Scheme::Ido, 1, TOTAL_OPS, &traced),
            ],
        );
        let per_op = |i: usize| ns[i] / TOTAL_OPS as f64;
        out.insert("ladder.dispatch_ns_per_op".into(), per_op(0));
        out.insert("ladder.scheme_ns_per_op".into(), per_op(1) - per_op(0));
        out.insert("ladder.sched_ns_per_op".into(), per_op(2) - per_op(1));
        out.insert("ladder.observe_ns_per_op".into(), per_op(3) - per_op(1));
    }

    /// `ido-par` on this host: fan-out cost of an empty map, and what two
    /// workers gain on eight real pipeline runs (fastest of five alternating
    /// rounds). The benchmark itself never fans out (`jobs = 1`), so these
    /// move no end-to-end metric.
    fn probe_par(&self, out: &mut Metrics) {
        let cfg = point_cfg(TOTAL_OPS / 4);
        let time = |f: &dyn Fn()| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        };
        let empty = |jobs| time(&|| drop(ido_par::par_map_jobs(jobs, vec![0u8; 64], |x| x)));
        let sweep = |jobs| {
            time(&|| {
                drop(ido_par::par_map_jobs(jobs, vec![Scheme::Ido; 8], |s| {
                    run_workload(s, self.map(), 4, TOTAL_OPS / 4, cfg.clone()).steps
                }))
            })
        };
        // [empty x1, empty x2, sweep x1, sweep x2]
        let mut best = [f64::INFINITY; 4];
        for _ in 0..5 {
            for (slot, ns) in best
                .iter_mut()
                .zip([empty(1), empty(2), sweep(1), sweep(2)])
            {
                *slot = slot.min(ns);
            }
        }
        out.insert("par.map_overhead_us".into(), (best[1] - best[0]) / 1e3);
        out.insert("par.speedup_jobs2".into(), best[2] / best[3]);
    }
}
