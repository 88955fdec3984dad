//! `crash_oracle`: systematic crash-state exploration of five small
//! structures under the six durable schemes, one crash-during-recovery
//! pass, and one injected-bug run that must yield a counterexample.

use ido_compiler::{instrument_program, Scheme};
use ido_crashtest::{
    check_crash_state, explore_jobs, explore_recovery, persist_boundaries, OracleConfig,
    DURABLE_SCHEMES,
};
use ido_nvm::CrashPolicy;
use ido_vm::{recover, RecoveryConfig, StepControl, Vm, VmConfig};
use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec, TwinSpec};
use ido_workloads::WorkloadSpec;
use std::time::Instant;

use crate::driver::{boot, splitmix, unit};
use crate::layers::{probe_nvm_lifecycle, vm_span_metrics};
use crate::spans::{durations_of, Recorder, Span};
use crate::stats::{fastest, quantile, Fnv};
use crate::workloads::{Metrics, Rep, UnitRun, WorkItem, Workload};

/// Work budgets at which the crash-during-recovery pass interrupts
/// recovery (as in `crates/crashtest/tests/recovery_crash.rs`).
const RECOVERY_BUDGETS: [u64; 4] = [1, 2, 5, 11];
/// The salt `ido-crashtest` mixes into its crash seed; re-enacted states
/// use the same one so they are the states the oracle checks.
const CRASH_SALT: u64 = 0x0bc3_5eed;

/// The exploration sweep.
///
/// What `--seed` may touch is narrow here. With 2 threads x 2 operations
/// per exploration, the key streams decide which operations run at all:
/// seeding them moved the state count, and with it `wall_s`, by ±25 %
/// between seeds, and seeding every exploration's scheduler still moved it
/// by ±5 %. A time per repetition is only comparable across seeds when the
/// repetition is the same work, so the seed perturbs the scheduler
/// interleaving of the twin-counter units alone (six explorations, the
/// recovery pass, the injected-bug run), whose symmetric operations keep
/// the number of persist boundaries the same whatever the interleaving.
pub struct CrashOracle {
    /// `(name, spec)`: twin, stack, queue, list, map.
    specs: Vec<(&'static str, Box<dyn WorkloadSpec>)>,
    cfg: OracleConfig,
    /// `cfg` with the scheduler seed perturbed by `--seed`.
    twin_cfg: OracleConfig,
}

impl CrashOracle {
    /// Builds the five specs and the seeded twin-counter configuration.
    pub fn new(seed: u64) -> CrashOracle {
        CrashOracle {
            specs: vec![
                ("twin", Box::new(TwinSpec)),
                ("stack", Box::new(StackSpec)),
                ("queue", Box::new(QueueSpec)),
                // 8 pre-filled nodes: with the default 32, JUSTDO's
                // hand-over-hand walk alone is over a second of states.
                ("list", Box::new(ListSpec { key_range: 16 })),
                ("map", Box::new(MapSpec::default())),
            ],
            cfg: OracleConfig::default(),
            twin_cfg: OracleConfig {
                seed: OracleConfig::default().seed ^ splitmix(seed),
                ..OracleConfig::default()
            },
        }
    }

    fn twin(&self) -> &dyn WorkloadSpec {
        self.specs[0].1.as_ref()
    }

    fn cfg_for(&self, spec: &str) -> &OracleConfig {
        if spec == "twin" {
            &self.twin_cfg
        } else {
            &self.cfg
        }
    }
}

impl Workload for CrashOracle {
    fn work_item(&self) -> WorkItem {
        WorkItem::CrashState
    }

    fn repetition(&self, rec: &mut Recorder, hash_images: bool) -> Rep {
        let mut rep = Rep::default();
        let mut h = Fnv::default();
        let (mut states, mut boundaries) = (0u64, 0u64);
        let mut id = 0u32;
        for (name, spec) in &self.specs {
            let cfg = self.cfg_for(name);
            for scheme in DURABLE_SCHEMES {
                let r = unit(rec, id, |rec| {
                    let e = rec.time("crashtest.explore_jobs", || {
                        explore_jobs(1, spec.as_ref(), scheme, cfg)
                    });
                    match &e.counterexample {
                        None => Ok(e),
                        Some(c) => Err(format!("counterexample: {c}")),
                    }
                });
                if let Some(e) = rep.book(&format!("{name} {scheme}"), r) {
                    states += e.crash_states_explored as u64;
                    boundaries += e.boundary_steps as u64;
                    for w in [
                        e.total_steps,
                        e.persist_events,
                        e.boundary_steps as u64,
                        e.crash_states_explored as u64,
                    ] {
                        h.word(w);
                    }
                }
                id += 1;
            }
        }
        rep.sim.insert("crashtest.states".into(), states as f64);
        rep.sim
            .insert("crashtest.boundaries".into(), boundaries as f64);

        // Crash *during* recovery: the twin counter under Atlas, whose
        // rollback and log retirement give the budgets something to cut.
        let r = unit(rec, id, |rec| {
            let e = rec.time("crashtest.explore_recovery", || {
                explore_recovery(
                    self.twin(),
                    Scheme::Atlas,
                    &self.twin_cfg,
                    &RECOVERY_BUDGETS,
                )
            });
            match &e.counterexample {
                None if e.interruptions > 0 => Ok(e),
                None => Err("no budget interrupted recovery: the pass proved nothing".into()),
                Some(c) => Err(format!("counterexample: {c}")),
            }
        });
        if let Some(e) = rep.book("recovery twin Atlas", r) {
            states += e.crash_states_explored as u64;
            for w in [
                e.boundary_steps as u64,
                e.interruptions as u64,
                e.crash_states_explored as u64,
            ] {
                h.word(w);
            }
        }
        id += 1;

        // Known answer "flagged": iDO with boundary store flushes skipped
        // must produce a counterexample.
        let r = unit(rec, id, |rec| {
            let mut buggy = self.twin_cfg.clone();
            buggy.vm.ido_bug_skip_store_flush = true;
            let e = rec.time("crashtest.explore_jobs", || {
                explore_jobs(1, self.twin(), Scheme::Ido, &buggy)
            });
            match &e.counterexample {
                Some(_) => Ok(e),
                None => Err("injected bug produced no counterexample".into()),
            }
        });
        if let Some(e) = rep.book("injected-bug twin iDO", r) {
            // Not counted as work: how many states it takes to find and
            // shrink the bug depends on the seeded interleaving, and the
            // work of a repetition must not.
            rep.sim.insert(
                "crashtest.bug_found_states".into(),
                e.crash_states_explored as f64,
            );
            let c = e.counterexample.expect("checked above");
            for w in [
                e.crash_states_explored as u64,
                e.shrink_attempts as u64,
                c.crash_step,
                c.lost_lines.len() as u64,
            ] {
                h.word(w);
            }
        }

        rep.work = states;
        rep.hashes.push(h.finish());
        rep.seal(hash_images)
    }

    fn span_metrics(&self, _spans: &[Span], _rep: &Rep, _out: &mut Metrics) {
        // One opaque `explore_jobs` span per unit: nothing to split here.
        // The probes re-enact sampled states call by call instead.
    }

    fn probe(&self, rec: &mut Recorder, out: &mut Metrics) {
        probe_nvm_lifecycle(out);
        let runs = self.probe_states(rec, out);
        vm_span_metrics(
            rec.spans(),
            &Rep {
                runs,
                ..Rep::default()
            },
            out,
        );
        self.probe_recovery(out);
        self.probe_hook(out);
    }
}

/// The VM configuration the oracle runs `cfg`'s explorations under.
fn vm_config_of(cfg: &OracleConfig) -> VmConfig {
    VmConfig {
        seed: cfg.seed,
        ..cfg.vm.clone()
    }
}

impl CrashOracle {
    /// Samples crash states — every persist boundary of every (spec,
    /// scheme) pair, losing all dirty lines — and for each (a) times the
    /// oracle's own `check_crash_state`, and (b) re-enacts it with public
    /// `Vm`/`recover` calls under spans, which splits a state's cost into
    /// new / replay / crash / recover / attach / verify.
    fn probe_states(&self, rec: &mut Recorder, out: &mut Metrics) -> Vec<UnitRun> {
        let mut replay_steps = 0u64;
        let mut runs = Vec::new();
        let mut id = 1000u32;
        for (name, spec) in &self.specs {
            let spec = spec.as_ref();
            let cfg = self.cfg_for(name);
            let vc = vm_config_of(cfg);
            for scheme in DURABLE_SCHEMES {
                rec.set_unit(id);
                let replayed_before = replay_steps;
                let inst = instrument_program(spec.build_program(), scheme).expect("instruments");
                let (_, _, boundaries) = rec.time("crashtest.persist_boundaries", || {
                    persist_boundaries(spec, &inst, cfg)
                });
                for &step in &boundaries {
                    let state = rec.begin("bench.reenacted_state");
                    // What the oracle builds per state: a fresh VM at step 0.
                    let (mut vm, base) = boot(
                        rec,
                        spec,
                        inst.clone(),
                        cfg.threads,
                        cfg.ops_per_thread,
                        vc.clone(),
                    );
                    rec.time("vm.run", || vm.run_steps(step));
                    let lost = rec.time("nvm.dirty_lines", || vm.pool().dirty_lines());
                    let pool = rec.time("vm.crash", || {
                        vm.crash_with(
                            cfg.seed ^ CRASH_SALT,
                            &CrashPolicy::losing(lost.iter().copied()),
                        )
                    });
                    rec.time("vm.recover", || {
                        recover(
                            pool.clone(),
                            inst.clone(),
                            vc.clone(),
                            RecoveryConfig::for_tests(),
                        )
                    });
                    let post = rec.time("vm.attach", || {
                        Vm::attach(pool.clone(), inst.clone(), vc.clone())
                    });
                    rec.time("workloads.verify", || {
                        spec.verify(&post, &base, cfg.threads as u64 * cfg.ops_per_thread)
                    });
                    drop(post);
                    rec.time("vm.recover", || {
                        recover(pool, inst.clone(), vc.clone(), RecoveryConfig::for_tests())
                    });
                    rec.end(state);

                    let verdict = rec.time("crashtest.check_crash_state", || {
                        check_crash_state(spec, &inst, cfg, step, &lost)
                    });
                    let _ = std::hint::black_box(verdict);
                    replay_steps += step;
                }
                runs.push(UnitRun {
                    unit: id,
                    scheme,
                    threads: cfg.threads,
                    steps: replay_steps - replayed_before,
                });
                id += 1;
            }
        }
        let mut state_us: Vec<f64> = durations_of(rec.spans(), "crashtest.check_crash_state")
            .into_iter()
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect();
        state_us.sort_by(f64::total_cmp);
        out.insert("crashtest.state_us.p50".into(), quantile(&state_us, 0.5));
        out.insert("crashtest.state_us.p99".into(), quantile(&state_us, 0.99));
        out.insert(
            "crashtest.replay_steps_per_state".into(),
            replay_steps as f64 / state_us.len() as f64,
        );
        runs
    }

    /// `crashtest.recovery_states_per_s`: the crash-during-recovery pass,
    /// timed on its own.
    fn probe_recovery(&self, out: &mut Metrics) {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let e = explore_recovery(
                    self.twin(),
                    Scheme::Atlas,
                    &self.twin_cfg,
                    &RECOVERY_BUDGETS,
                );
                t.elapsed().as_secs_f64() / e.crash_states_explored as f64
            })
            .collect();
        out.insert(
            "crashtest.recovery_states_per_s".into(),
            1.0 / fastest(&samples),
        );
    }

    /// `vm.hooked_ns_per_step`: the step loop with a hook installed, as the
    /// oracle's reference pass runs it.
    fn probe_hook(&self, out: &mut Metrics) {
        let cfg = OracleConfig {
            ops_per_thread: 200,
            ..self.twin_cfg.clone()
        };
        let inst =
            instrument_program(self.twin().build_program(), Scheme::Ido).expect("instruments");
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let (mut vm, _) = boot(
                    &mut Recorder::off(),
                    self.twin(),
                    inst.clone(),
                    cfg.threads,
                    cfg.ops_per_thread,
                    vm_config_of(&cfg),
                );
                vm.set_step_hook(Box::new(|_| StepControl::Continue));
                let t = Instant::now();
                vm.run();
                t.elapsed().as_nanos() as f64 / vm.steps().max(1) as f64
            })
            .collect();
        out.insert("vm.hooked_ns_per_step".into(), fastest(&samples));
    }
}
