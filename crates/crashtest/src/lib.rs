//! The crash oracle: systematic crash-point exploration with deterministic
//! replay and minimal-counterexample reporting.
//!
//! The property tests in this workspace *sample* crash points; this crate
//! *enumerates* them. For a workload run under a scheme, the oracle:
//!
//! 1. **Reference pass** — runs the workload once with a [`Vm`] step hook
//!    installed, recording the pool's persist-event counter after every
//!    interpreter step. Two crash points with the same counter value are
//!    crash-equivalent (no store, write-back, or fence separates them), so
//!    the distinct *persist boundaries* — step 0, every step whose counter
//!    advanced, and the final step — cover every reachable NVM crash state
//!    exactly once.
//! 2. **Crash-state exploration** — one *forward run* per worker: a live VM
//!    replays once to the first boundary of the worker's contiguous chunk
//!    and from then on only steps forward, boundary to boundary (the
//!    schedule is a pure function of the seed, program, and spawn order,
//!    and pausing does not perturb it). At each boundary it reads the set
//!    of dirty cache lines and, once per candidate *lost-line set* —
//!    exhaustively (all `2^n` subsets) when few lines are dirty, with a
//!    bounded cover (everything, nothing, every singleton, every
//!    co-singleton, plus seeded random subsets) when many are — *forks* the
//!    state: a scratch pool is re-synced to the live pool
//!    (`PmemPool::sync_from`, O(lines either changed)) and crashed with
//!    `CrashPolicy::Subset`. Nothing is rebuilt per state.
//! 3. **Verification** — after each injected crash the scheme's recovery
//!    runs, the workload's own invariants are checked, and recovery is
//!    re-run to confirm idempotence — all under `catch_unwind`.
//! 4. **Shrinking** — on failure, the lost-line set is greedily minimized
//!    (drop any line whose loss is not needed to fail), then the crash step
//!    is minimized to the earliest boundary where that set still fails. The
//!    resulting [`Counterexample`] carries everything needed to replay it —
//!    seed, VM config, crash step, lost lines — plus the persist-event
//!    journal tail leading into the crash. Shrinking, journal capture and
//!    [`Counterexample::reproduce`] use the from-scratch
//!    [`check_crash_state`] (a fresh VM replayed from step 0): they are
//!    rare, jump backwards, and are the independent reference the forked
//!    path is differentially tested against.
//!
//! Determinism: the VM's scheduler RNG lives in the VM and never observes
//! the step hook, so a run paused at every step, a run paused once at step
//! `k`, and an uninterrupted run all execute the identical schedule. Two
//! [`explore`] calls with the same [`OracleConfig`] therefore produce the
//! same report, and [`Counterexample::reproduce`] re-triggers the same
//! failure from the recorded seed.

#![deny(missing_docs)]

use std::cell::{Cell, RefCell};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;
use std::time::Instant;

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_nvm::{CrashPolicy, PersistEvent, PmemPool};
use ido_vm::{recover, recover_partial, RecoveryConfig, RunOutcome, StepControl, Vm, VmConfig};
use ido_workloads::WorkloadSpec;

/// Salt mixed into the crash seed so injected crashes are decorrelated from
/// the scheduling seed while staying deterministic.
const CRASH_SALT: u64 = 0x0bc3_5eed;

/// Salt for the *second* crash of a crash-during-recovery check, so the two
/// injected failures draw independent line-survival decisions.
const RECOVERY_CRASH_SALT: u64 = 0x7e_c0_7e_55;

/// The six durable schemes the oracle explores: iDO plus the five baseline
/// runtimes. `Origin` is excluded — it makes no durability promise, so
/// every crash state is vacuously "correct" for it.
pub const DURABLE_SCHEMES: [Scheme; 6] = [
    Scheme::Ido,
    Scheme::JustDo,
    Scheme::Atlas,
    Scheme::Mnemosyne,
    Scheme::Nvml,
    Scheme::Nvthreads,
];

/// Configuration for one exploration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Worker threads to spawn.
    pub threads: usize,
    /// Operations per worker thread. Keep `threads * ops_per_thread` small
    /// (≤ 50 ops total) so exhaustive boundary enumeration stays fast.
    pub ops_per_thread: u64,
    /// Seed for the VM scheduler; the whole exploration is a deterministic
    /// function of it (plus the workload, scheme, and config).
    pub seed: u64,
    /// When at most this many lines are dirty at a crash point, enumerate
    /// all `2^n` lost-line subsets; above it, fall back to the bounded
    /// cover. Values above ~10 make exploration explode.
    pub exhaustive_subset_limit: usize,
    /// Subset budget per crash point in bounded-cover mode.
    pub max_subsets_per_step: usize,
    /// How many persist events to retain for a counterexample's journal
    /// tail.
    pub journal_tail: usize,
    /// Base VM configuration (pool size, injected bugs, scheduler policy).
    /// The oracle overrides its `seed` with [`OracleConfig::seed`].
    pub vm: VmConfig,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            threads: 2,
            ops_per_thread: 2,
            seed: 0xD15C0,
            exhaustive_subset_limit: 5,
            max_subsets_per_step: 24,
            journal_tail: 16,
            vm: VmConfig::for_tests(),
        }
    }
}

impl OracleConfig {
    /// A minimal single-threaded configuration for CI smoke sweeps.
    pub fn smoke() -> Self {
        OracleConfig { threads: 1, ops_per_thread: 1, ..OracleConfig::default() }
    }

    /// The VM config actually used for runs: `vm` with the oracle's seed.
    fn vm_config(&self) -> VmConfig {
        let mut vc = self.vm.clone();
        vc.seed = self.seed;
        vc
    }

    /// Total operations across all workers.
    fn total_ops(&self) -> u64 {
        self.threads as u64 * self.ops_per_thread
    }
}

/// The result of exploring one (workload, scheme) pair.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Scheme explored.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Scheduling seed.
    pub seed: u64,
    /// Interpreter steps in the reference run.
    pub total_steps: u64,
    /// Persist events in the reference run.
    pub persist_events: u64,
    /// Distinct persist-boundary crash steps enumerated (the crash-state
    /// equivalence classes over all `total_steps + 1` crash points).
    pub boundary_steps: usize,
    /// Crash states actually checked: one per (boundary step, lost-line
    /// subset) pair.
    pub crash_states_explored: usize,
    /// Extra states checked while shrinking a counterexample.
    pub shrink_attempts: usize,
    /// Interpreter steps the workers' forward runs executed, summed. Each
    /// worker replays once to its chunk's first boundary and then only
    /// steps forward, so this is at most `jobs × total_steps` — exploration
    /// is linear in run length. A host-side cost: it varies with the job
    /// count and is therefore not part of the [`std::fmt::Display`] report.
    pub replayed_steps: u64,
    /// Cache lines `PmemPool::sync_from` copied to fork crash states, summed
    /// over workers (host-side, like `replayed_steps`).
    pub forked_lines: u64,
    /// Host wall-clock nanoseconds the whole exploration took, shrinking
    /// included (host-side: never in the [`std::fmt::Display`] report).
    pub host_ns: u64,
    /// The part of `host_ns` spent before the first crash state: instrument,
    /// reference pass, and building the forward run (with several workers,
    /// the first chunk's). What is left is the per-state path.
    pub setup_ns: u64,
    /// The minimal failing crash state, if any check failed.
    pub counterexample: Option<Counterexample>,
}

impl std::fmt::Display for Exploration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {} boundaries over {} steps ({} persist events), {} crash states: {}",
            self.workload,
            self.scheme,
            self.boundary_steps,
            self.total_steps,
            self.persist_events,
            self.crash_states_explored,
            match &self.counterexample {
                None => "all consistent".to_string(),
                Some(c) => format!("FAILED ({c})"),
            }
        )
    }
}

/// A minimal failing crash state, self-contained enough to replay.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Scheme that failed.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Scheduling seed (the replay key).
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Operations per worker.
    pub ops_per_thread: u64,
    /// The VM configuration of the failing run (includes any injected bug
    /// flags, so the reproduction is faithful).
    pub vm: VmConfig,
    /// Minimal interpreter step at which crashing triggers the failure.
    pub crash_step: u64,
    /// Minimal set of dirty cache lines whose loss triggers the failure.
    pub lost_lines: Vec<usize>,
    /// The panic message from recovery or invariant verification.
    pub failure: String,
    /// The persist events leading into (and including) the crash.
    pub journal_tail: Vec<PersistEvent>,
}

impl Counterexample {
    /// A human-readable recipe for reproducing this failure by hand.
    pub fn replay_recipe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} on '{}': spawn {} thread(s) x {} op(s), scheduler seed {:#x}",
            self.scheme, self.workload, self.threads, self.ops_per_thread, self.seed
        );
        let _ = writeln!(
            out,
            "# run exactly {} step(s), crash losing dirty line(s) {:?}, recover, verify",
            self.crash_step, self.lost_lines
        );
        let _ = writeln!(out, "# failure: {}", first_line(&self.failure));
        let _ = writeln!(out, "# journal tail:");
        for e in &self.journal_tail {
            let _ = writeln!(out, "#   {e}");
        }
        out
    }

    /// Replays this counterexample against `spec` (which must be the same
    /// workload it was found on).
    ///
    /// # Errors
    /// `Err(failure)` with the replayed failure message if the failure still
    /// reproduces; `Ok(())` if it no longer does (i.e. the bug is fixed).
    /// A counterexample that no longer names a crash state of this program
    /// — one of its lost lines is not dirty at its crash step — is also an
    /// `Err` ("lost line N is not dirty at step S"), never a silent "fixed".
    pub fn reproduce(&self, spec: &dyn WorkloadSpec) -> Result<(), String> {
        let cfg = OracleConfig {
            threads: self.threads,
            ops_per_thread: self.ops_per_thread,
            seed: self.seed,
            vm: self.vm.clone(),
            ..OracleConfig::default()
        };
        let inst = instrument(spec, self.scheme);
        check_crash_state(spec, &inst, &cfg, self.crash_step, &self.lost_lines)
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash at step {} losing lines {:?} (seed {:#x}): {}",
            self.crash_step,
            self.lost_lines,
            self.seed,
            first_line(&self.failure)
        )
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}

fn instrument(spec: &dyn WorkloadSpec, scheme: Scheme) -> Instrumented {
    instrument_program(spec.build_program(), scheme).expect("workload instruments cleanly")
}

/// Builds a VM at step 0: pool formatted, workload set up, workers spawned.
/// Everything downstream of this call is deterministic in `cfg.seed`.
fn make_vm(spec: &dyn WorkloadSpec, inst: &Instrumented, cfg: &OracleConfig) -> (Vm, Vec<u64>) {
    let mut vm = Vm::new(inst.clone(), cfg.vm_config());
    let base = spec.setup(&mut vm, cfg.threads, cfg.ops_per_thread);
    for t in 0..cfg.threads {
        let args = spec.worker_args(&base, t, cfg.ops_per_thread);
        vm.spawn("worker", &args);
    }
    (vm, base)
}

/// The reference pass: runs the workload to completion once and returns
/// `(total_steps, persist_events, boundaries)` where `boundaries` is the
/// ascending list of crash-distinct steps — step 0 (post-setup), every step
/// whose persist-event count advanced, and the final step.
///
/// # Panics
/// Panics if the workload does not run to completion.
pub fn persist_boundaries(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
) -> (u64, u64, Vec<u64>) {
    let (mut vm, _) = make_vm(spec, inst, cfg);
    // The hook keeps only the steps whose persist-event count advanced.
    let boundaries = Rc::new(RefCell::new(vec![0u64]));
    let sink = Rc::clone(&boundaries);
    let mut prev = vm.pool().persist_event_count();
    vm.set_step_hook(Box::new(move |info| {
        if info.persist_events != prev {
            prev = info.persist_events;
            sink.borrow_mut().push(info.step);
        }
        StepControl::Continue
    }));
    assert_eq!(vm.run(), RunOutcome::Completed, "reference run must complete");
    let total = vm.steps();
    let events = vm.pool().persist_event_count();
    let mut boundaries = boundaries.take();
    if *boundaries.last().unwrap() != total {
        boundaries.push(total);
    }
    (total, events, boundaries)
}

/// `Err` naming the first line of `lost` that is not dirty in `pool`, which
/// has run to `step`: losing a clean line is not a crash state, and
/// `CrashPolicy::Subset` would silently check a different one.
fn require_dirty(pool: &PmemPool, step: u64, lost: &[usize]) -> Result<(), String> {
    let dirty = pool.dirty_lines();
    match lost.iter().find(|l| dirty.binary_search(l).is_err()) {
        Some(l) => Err(format!("lost line {l} is not dirty at step {step}")),
        None => Ok(()),
    }
}

/// The from-scratch way to a crash state: a fresh VM replayed to `step` and
/// crashed losing exactly `lost_lines`. Returns the crashed pool and the
/// workload's setup values.
fn replay_and_crash(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    lost_lines: &[usize],
) -> Result<(PmemPool, Vec<u64>), String> {
    let (mut vm, base) = make_vm(spec, inst, cfg);
    vm.run_steps(step);
    require_dirty(vm.pool(), step, lost_lines)?;
    let pool = vm.crash_with(cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(lost_lines.iter().copied()));
    Ok((pool, base))
}

/// The verdict on a crashed `pool`: recover, verify the workload's
/// invariants on a re-attached VM, and recover again to confirm idempotence.
fn verify_recovery(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    base: &[u64],
    pool: &PmemPool,
) -> Result<(), String> {
    let vc = cfg.vm_config();
    quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let _ = recover(pool.clone(), inst.clone(), vc.clone(), RecoveryConfig::for_tests());
            let post = Vm::attach(pool.clone(), inst.clone(), vc.clone());
            spec.verify(&post, base, cfg.total_ops());
            drop(post);
            let second = recover(pool.clone(), inst.clone(), vc, RecoveryConfig::for_tests());
            assert_eq!(second.resumed, 0, "second recovery must find nothing to resume");
        }))
    })
    .map_err(panic_text)
}

/// The verdict on a crashed `pool` whose recovery is itself interrupted
/// after `recovery_budget` units of work and — if that interrupts it —
/// crashed again losing `recovery_lost`: a full recovery must then restore
/// the workload's invariants, and a further one find nothing left to do.
fn verify_interrupted_recovery(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    base: &[u64],
    pool: &PmemPool,
    recovery_budget: u64,
    recovery_lost: &[usize],
) -> Result<(), String> {
    let vc = cfg.vm_config();
    quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let complete =
                recover_partial(pool.clone(), inst.clone(), vc.clone(), recovery_budget);
            if !complete {
                pool.crash_with(
                    cfg.seed ^ RECOVERY_CRASH_SALT,
                    &CrashPolicy::losing(recovery_lost.iter().copied()),
                );
                let _ =
                    recover(pool.clone(), inst.clone(), vc.clone(), RecoveryConfig::for_tests());
            }
            let post = Vm::attach(pool.clone(), inst.clone(), vc.clone());
            spec.verify(&post, base, cfg.total_ops());
            drop(post);
            let second = recover(pool.clone(), inst.clone(), vc, RecoveryConfig::for_tests());
            assert_eq!(second.resumed, 0, "final recovery must find nothing to resume");
        }))
    })
    .map_err(panic_text)
}

/// Checks one crash state from scratch: replay a fresh VM to `step`, crash
/// losing exactly `lost_lines` of the dirty lines, recover, verify the
/// workload's invariants on a re-attached VM, and recover again to confirm
/// idempotence. [`explore`] reaches the same states by forking a forward
/// run instead; this is the reference it is tested against, and what
/// shrinking and [`Counterexample::reproduce`] use.
///
/// # Errors
/// The panic message of whichever stage failed, or "lost line N is not
/// dirty at step S" when `lost_lines` does not name a crash state.
pub fn check_crash_state(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    lost_lines: &[usize],
) -> Result<(), String> {
    let (pool, base) = replay_and_crash(spec, inst, cfg, step, lost_lines)?;
    verify_recovery(spec, inst, cfg, &base, &pool)
}

/// Checks one crash-**during-recovery** state from scratch: replay to
/// `step`, crash losing `lost_lines`, run recovery with a work budget of
/// `recovery_budget` (interpreter steps for resumption schemes, persist
/// operations for the log-processing baselines), and — if the budget
/// interrupts it — crash *again* losing exactly `recovery_lost` of the
/// lines the interrupted recovery left dirty. A full recovery must then
/// restore the workload's invariants, and a third recovery must find
/// nothing left to do.
///
/// # Errors
/// The panic message of whichever stage failed, or "lost line N is not
/// dirty at step S" when `lost_lines` does not name a crash state.
pub fn check_recovery_crash_state(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    lost_lines: &[usize],
    recovery_budget: u64,
    recovery_lost: &[usize],
) -> Result<(), String> {
    let (pool, base) = replay_and_crash(spec, inst, cfg, step, lost_lines)?;
    verify_interrupted_recovery(spec, inst, cfg, &base, &pool, recovery_budget, recovery_lost)
}

/// One worker's share of an exploration: a live VM that only ever steps
/// forward, and a scratch pool re-synced to the live one for every crash
/// state, so a state costs the lines it touched — no VM, pool or replay
/// per state.
struct ForwardRun<'a> {
    spec: &'a dyn WorkloadSpec,
    inst: &'a Instrumented,
    cfg: &'a OracleConfig,
    live: Vm,
    /// The workload's setup values (what `spec.verify` checks against).
    base: Vec<u64>,
    /// Paired with `live.pool()` for [`PmemPool::sync_from`]: both start
    /// zeroed and nothing else ever syncs from the live pool.
    scratch: PmemPool,
    forked_lines: u64,
}

impl<'a> ForwardRun<'a> {
    fn new(spec: &'a dyn WorkloadSpec, inst: &'a Instrumented, cfg: &'a OracleConfig) -> Self {
        let (live, base) = make_vm(spec, inst, cfg);
        let scratch = live.pool().scratch();
        ForwardRun { spec, inst, cfg, live, base, scratch, forked_lines: 0 }
    }

    /// Steps the live VM forward to absolute step `step` (a boundary at or
    /// after its current step) and returns the lines dirty there.
    fn advance_to(&mut self, step: u64) -> Vec<usize> {
        self.live.run_steps(step - self.live.steps());
        self.live.pool().dirty_lines()
    }

    /// Forks the live VM's current state into the scratch pool and crashes
    /// it losing exactly `lost` (a subset of the lines dirty right now).
    fn fork_and_crash(&mut self, lost: &[usize]) {
        self.forked_lines += self.scratch.sync_from(self.live.pool()) as u64;
        // What the from-scratch pool drops with its VM: handles of earlier
        // states' recoveries folded their rings into the scratch pool.
        drop((self.scratch.take_trace(), self.scratch.take_metrics()));
        let outcome = self
            .scratch
            .crash_with(self.cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(lost.iter().copied()));
        assert_eq!(outcome.lines_dropped, lost.len(), "forked state lost a line that was not dirty");
    }

    /// The forked [`check_crash_state`] at the live VM's current step.
    fn check(&mut self, lost: &[usize]) -> Result<(), String> {
        self.fork_and_crash(lost);
        verify_recovery(self.spec, self.inst, self.cfg, &self.base, &self.scratch)
    }

    /// The forked [`check_recovery_crash_state`] at the current step.
    fn check_recovery(
        &mut self,
        lost: &[usize],
        recovery_budget: u64,
        recovery_lost: &[usize],
    ) -> Result<(), String> {
        self.fork_and_crash(lost);
        verify_interrupted_recovery(
            self.spec,
            self.inst,
            self.cfg,
            &self.base,
            &self.scratch,
            recovery_budget,
            recovery_lost,
        )
    }

    /// The dirty-line set an interrupted recovery leaves behind: crash the
    /// current state losing `lost`, run recovery under `recovery_budget`.
    /// `None` when the recovery completes within the budget (nothing left
    /// to crash).
    fn interrupted_recovery_dirty(&mut self, lost: &[usize], recovery_budget: u64) -> Option<Vec<usize>> {
        self.fork_and_crash(lost);
        let complete = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                recover_partial(
                    self.scratch.clone(),
                    self.inst.clone(),
                    self.cfg.vm_config(),
                    recovery_budget,
                )
            }))
        })
        .unwrap_or(true); // a panicking recovery is caught by the checker proper
        (!complete).then(|| self.scratch.dirty_lines())
    }
}

/// What [`sweep`] returns: per-boundary outcomes in boundary order, up to
/// and including the first failing boundary, and the workers' summed costs.
struct Sweep<T> {
    outcomes: Vec<(u64, T)>,
    replayed_steps: u64,
    forked_lines: u64,
    /// When the first chunk's forward run stood ready: the end of set-up.
    ready: Instant,
}

/// `(host_ns, setup_ns)` of an exploration that began at `started`, had its
/// forward run `ready` ([`Sweep::ready`]) and ends now.
fn host_costs(started: Instant, ready: Instant) -> (u64, u64) {
    (started.elapsed().as_nanos() as u64, (ready - started).as_nanos() as u64)
}

/// Fans `boundaries` out over `jobs` workers (ido-par's deterministic
/// ordered map) as contiguous chunks. Each worker drives one
/// [`ForwardRun`] through its chunk, calling `at_boundary(run, step,
/// dirty)` with the live VM paused at each boundary; `Break` marks a
/// failing boundary and ends that worker's chunk. A boundary's outcome is a
/// pure function of (workload, scheme, config, step) — the forward run
/// reaches the same machine state as a fresh replay — and outcomes are
/// reassembled in boundary order and cut after the first failure, so the
/// result, and every counterexample derived from it, is identical for any
/// job count; only the two cost totals depend on it.
fn sweep<T: Send>(
    jobs: usize,
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    boundaries: &[u64],
    at_boundary: impl Fn(&mut ForwardRun<'_>, u64, Vec<usize>) -> ControlFlow<T, T> + Sync,
) -> Sweep<T> {
    // `boundaries` is never empty: step 0 is always one.
    let chunk_len = boundaries.len().div_ceil(jobs.max(1));
    let chunks: Vec<&[u64]> = boundaries.chunks(chunk_len).collect();
    let per_chunk = ido_par::par_map_jobs(jobs, chunks, |chunk| {
        let mut run = ForwardRun::new(spec, inst, cfg);
        let ready = Instant::now();
        let mut outcomes = Vec::with_capacity(chunk.len());
        let mut failed = false;
        for &step in chunk {
            let dirty = run.advance_to(step);
            let flow = at_boundary(&mut run, step, dirty);
            failed = flow.is_break();
            let (ControlFlow::Continue(outcome) | ControlFlow::Break(outcome)) = flow;
            outcomes.push((step, outcome));
            if failed {
                break;
            }
        }
        (outcomes, failed, run.live.steps(), run.forked_lines, ready)
    });
    let ready = per_chunk[0].4;
    let mut sweep = Sweep { outcomes: Vec::new(), replayed_steps: 0, forked_lines: 0, ready };
    let mut reached = true;
    for (outcomes, failed, steps, lines, _) in per_chunk {
        sweep.replayed_steps += steps;
        sweep.forked_lines += lines;
        if reached {
            sweep.outcomes.extend(outcomes);
            reached = !failed;
        }
    }
    sweep
}

/// A minimal failing crash-during-recovery state.
#[derive(Debug, Clone)]
pub struct RecoveryCounterexample {
    /// Scheme that failed.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Scheduling seed.
    pub seed: u64,
    /// Step of the first (application) crash.
    pub crash_step: u64,
    /// Lines lost by the first crash.
    pub lost_lines: Vec<usize>,
    /// Recovery work budget at which the second crash hit.
    pub recovery_budget: u64,
    /// Lines lost by the crash *during recovery*.
    pub recovery_lost_lines: Vec<usize>,
    /// The panic message of the failing stage.
    pub failure: String,
}

impl std::fmt::Display for RecoveryCounterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash at step {} losing {:?}, then crash after {} recovery unit(s) losing {:?} (seed {:#x}): {}",
            self.crash_step,
            self.lost_lines,
            self.recovery_budget,
            self.recovery_lost_lines,
            self.seed,
            first_line(&self.failure)
        )
    }
}

/// The result of a crash-during-recovery exploration.
#[derive(Debug, Clone)]
pub struct RecoveryExploration {
    /// Scheme explored.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Persist-boundary crash steps swept.
    pub boundary_steps: usize,
    /// (boundary, budget) pairs at which recovery was actually interrupted
    /// mid-protocol (budgets larger than the recovery's total work never
    /// interrupt and are skipped).
    pub interruptions: usize,
    /// Crash-during-recovery states checked: one per (boundary, budget,
    /// recovery-lost-subset) triple.
    pub crash_states_explored: usize,
    /// Interpreter steps the workers' forward runs executed (see
    /// [`Exploration::replayed_steps`]).
    pub replayed_steps: u64,
    /// Cache lines copied to fork crash states (see
    /// [`Exploration::forked_lines`]).
    pub forked_lines: u64,
    /// Host nanoseconds of the whole exploration (see
    /// [`Exploration::host_ns`]).
    pub host_ns: u64,
    /// Host nanoseconds before the first crash state (see
    /// [`Exploration::setup_ns`]).
    pub setup_ns: u64,
    /// The first failing state, minimized over its recovery-lost set.
    pub counterexample: Option<RecoveryCounterexample>,
}

impl std::fmt::Display for RecoveryExploration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} recovery-crash: {} boundaries, {} interruptions, {} states: {}",
            self.workload,
            self.scheme,
            self.boundary_steps,
            self.interruptions,
            self.crash_states_explored,
            match &self.counterexample {
                None => "all consistent".to_string(),
                Some(c) => format!("FAILED ({c})"),
            }
        )
    }
}

/// Sweeps crash-**during-recovery** states: for every persist-boundary
/// crash step, crash losing all dirty lines, interrupt the subsequent
/// recovery at each work budget in `budgets`, and crash again over
/// lost-line subsets of whatever the interrupted recovery left dirty. This
/// is the oracle's coverage of the recovery paths themselves — rollback and
/// replay writes, log retirement — which the plain [`explore`] sweep never
/// exercises mid-protocol.
pub fn explore_recovery(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    cfg: &OracleConfig,
    budgets: &[u64],
) -> RecoveryExploration {
    let started = Instant::now();
    let inst = instrument(spec, scheme);
    let (_, _, boundaries) = persist_boundaries(spec, &inst, cfg);

    // At each boundary the first crash loses everything dirty (the classic
    // drop-all crash maximizes the recovery work available to interrupt),
    // then each budget that actually interrupts the recovery fans out over
    // subsets of the mid-recovery dirty set. Every state re-forks the
    // boundary and re-runs the (cheap, budgeted) partial recovery rather
    // than forking a second time mid-recovery.
    struct AtBoundary {
        interruptions: usize,
        checked: usize,
        /// `(lost, budget, recovery_lost)` of the first failing state.
        fail: Option<(Vec<usize>, u64, Vec<usize>)>,
    }
    let swept = sweep(ido_par::jobs(), spec, &inst, cfg, &boundaries, |run, step, lost| {
        let mut at = AtBoundary { interruptions: 0, checked: 0, fail: None };
        for &budget in budgets {
            let Some(dirty) = run.interrupted_recovery_dirty(&lost, budget) else {
                continue;
            };
            at.interruptions += 1;
            for rec_lost in candidate_subsets(&dirty, cfg, step ^ budget.rotate_left(17)) {
                at.checked += 1;
                if run.check_recovery(&lost, budget, &rec_lost).is_err() {
                    at.fail = Some((lost, budget, rec_lost));
                    return ControlFlow::Break(at);
                }
            }
        }
        ControlFlow::Continue(at)
    });

    let mut interruptions = 0usize;
    let mut explored = 0usize;
    let mut counterexample = None;
    for (step, at) in swept.outcomes {
        interruptions += at.interruptions;
        explored += at.checked;
        if let Some((lost, budget, mut rec_lost)) = at.fail {
            // Greedily minimize the recovery-lost set.
            let mut failure = check_recovery_crash_state(
                spec, &inst, cfg, step, &lost, budget, &rec_lost,
            )
            .expect_err("failure must reproduce during shrinking");
            loop {
                let mut reduced = false;
                for i in 0..rec_lost.len() {
                    let mut cand = rec_lost.clone();
                    cand.remove(i);
                    if let Err(f) =
                        check_recovery_crash_state(spec, &inst, cfg, step, &lost, budget, &cand)
                    {
                        rec_lost = cand;
                        failure = f;
                        reduced = true;
                        break;
                    }
                }
                if !reduced {
                    break;
                }
            }
            counterexample = Some(RecoveryCounterexample {
                scheme,
                workload: spec.name(),
                seed: cfg.seed,
                crash_step: step,
                lost_lines: lost,
                recovery_budget: budget,
                recovery_lost_lines: rec_lost,
                failure,
            });
        }
    }

    let (host_ns, setup_ns) = host_costs(started, swept.ready);
    RecoveryExploration {
        scheme,
        workload: spec.name(),
        boundary_steps: boundaries.len(),
        interruptions,
        crash_states_explored: explored,
        replayed_steps: swept.replayed_steps,
        forked_lines: swept.forked_lines,
        host_ns,
        setup_ns,
        counterexample,
    }
}

/// Explores every persist-boundary crash step of `spec` under `scheme`,
/// covering lost-dirty-line subsets at each step, and shrinks the first
/// failure to a minimal [`Counterexample`].
pub fn explore(spec: &dyn WorkloadSpec, scheme: Scheme, cfg: &OracleConfig) -> Exploration {
    explore_jobs(ido_par::jobs(), spec, scheme, cfg)
}

/// [`explore`] with an explicit worker count for the boundary fan-out.
/// The determinism tests use this to compare `jobs = 1` against `jobs = N`
/// in-process without racing on the `IDO_JOBS` environment variable.
pub fn explore_jobs(
    jobs: usize,
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    cfg: &OracleConfig,
) -> Exploration {
    let started = Instant::now();
    let inst = instrument(spec, scheme);
    let (total_steps, persist_events, boundaries) = persist_boundaries(spec, &inst, cfg);

    // At each boundary: enumerate candidate lost-line subsets and stop at
    // the boundary's first failure.
    type AtBoundary = (usize, Option<(Vec<usize>, String)>);
    let swept = sweep(jobs, spec, &inst, cfg, &boundaries, |run, step, dirty| {
        let mut checked = 0usize;
        for lost in candidate_subsets(&dirty, cfg, step) {
            checked += 1;
            if let Err(failure) = run.check(&lost) {
                return ControlFlow::<AtBoundary, _>::Break((checked, Some((lost, failure))));
            }
        }
        ControlFlow::Continue((checked, None))
    });

    // `explored` counts every subset checked up to and including the first
    // failing one. Shrinking is serial and from scratch — it is a
    // data-dependent greedy walk from one failure, backwards in steps.
    let mut explored = 0usize;
    let mut shrinks = 0usize;
    let mut counterexample = None;
    for (step, (checked, fail)) in swept.outcomes {
        explored += checked;
        if let Some((lost, failure)) = fail {
            counterexample = Some(shrink(
                spec,
                &inst,
                cfg,
                scheme,
                &boundaries,
                step,
                lost,
                failure,
                &mut shrinks,
            ));
        }
    }

    let (host_ns, setup_ns) = host_costs(started, swept.ready);
    Exploration {
        scheme,
        workload: spec.name(),
        seed: cfg.seed,
        total_steps,
        persist_events,
        boundary_steps: boundaries.len(),
        crash_states_explored: explored,
        shrink_attempts: shrinks,
        replayed_steps: swept.replayed_steps,
        forked_lines: swept.forked_lines,
        host_ns,
        setup_ns,
        counterexample,
    }
}

/// Runs [`explore`] for every durable scheme (iDO + the five baselines).
pub fn explore_all(spec: &dyn WorkloadSpec, cfg: &OracleConfig) -> Vec<Exploration> {
    DURABLE_SCHEMES.iter().map(|&s| explore(spec, s, cfg)).collect()
}

/// Candidate lost-line sets for a crash point whose dirty lines are `dirty`,
/// in the order [`explore`] checks them: the full powerset when `dirty` is
/// small, a bounded deduplicated cover (full set, empty set, singletons,
/// co-singletons, subsets drawn from `(cfg.seed, step)`) when it is large.
/// The full set comes first — it is the classic drop-all-dirty crash and
/// the most likely to fail.
pub fn candidate_subsets(dirty: &[usize], cfg: &OracleConfig, step: u64) -> Vec<Vec<usize>> {
    let n = dirty.len();
    let pick = |mask: u64| -> Vec<usize> {
        dirty
            .iter()
            .enumerate()
            .filter(|(b, _)| mask & (1 << *b) != 0)
            .map(|(_, &l)| l)
            .collect()
    };
    if n <= cfg.exhaustive_subset_limit {
        // All 2^n subsets, descending mask so the full set is tried first.
        return (0..(1u64 << n)).rev().map(pick).collect();
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    fn push(s: Vec<usize>, seen: &mut std::collections::BTreeSet<Vec<usize>>, out: &mut Vec<Vec<usize>>) {
        if seen.insert(s.clone()) {
            out.push(s);
        }
    }
    push(dirty.to_vec(), &mut seen, &mut out); // lose everything (≡ DropDirty)
    push(Vec::new(), &mut seen, &mut out); // lose nothing (≡ perfectly-timed eviction)
    for i in 0..n {
        push(vec![dirty[i]], &mut seen, &mut out); // singletons
        let mut co = dirty.to_vec();
        co.remove(i);
        push(co, &mut seen, &mut out); // co-singletons
    }
    // Seeded xorshift fills the remaining budget with random subsets, one
    // word per 64 dirty lines; deterministic in (seed, step).
    let mut x = (cfg.seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    let mut next_word = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..cfg.max_subsets_per_step * 4 {
        if out.len() >= cfg.max_subsets_per_step {
            break;
        }
        let s: Vec<usize> = dirty
            .chunks(64)
            .flat_map(|lines| {
                let mask = next_word();
                lines.iter().enumerate().filter(move |(b, _)| mask >> b & 1 == 1).map(|(_, &l)| l)
            })
            .collect();
        push(s, &mut seen, &mut out);
    }
    out.truncate(cfg.max_subsets_per_step.max(2));
    out
}

/// Shrinks a failing `(step, lost)` pair: greedily drop lines that are not
/// needed to fail, then move the crash to the earliest boundary step where
/// the minimized set still fails. Captures the journal tail of the final
/// minimal case.
#[allow(clippy::too_many_arguments)]
fn shrink(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    scheme: Scheme,
    boundaries: &[u64],
    mut step: u64,
    mut lost: Vec<usize>,
    mut failure: String,
    attempts: &mut usize,
) -> Counterexample {
    loop {
        let mut reduced = false;
        for i in 0..lost.len() {
            let mut cand = lost.clone();
            cand.remove(i);
            *attempts += 1;
            if let Err(f) = check_crash_state(spec, inst, cfg, step, &cand) {
                lost = cand;
                failure = f;
                reduced = true;
                break;
            }
        }
        if !reduced {
            break;
        }
    }
    for &s in boundaries.iter().filter(|&&s| s < step) {
        *attempts += 1;
        // Where a line of `lost` is not dirty yet, (s, lost) is no crash state.
        let Ok((pool, base)) = replay_and_crash(spec, inst, cfg, s, &lost) else {
            continue;
        };
        if let Err(f) = verify_recovery(spec, inst, cfg, &base, &pool) {
            step = s;
            failure = f;
            break;
        }
    }
    let journal_tail = capture_journal(spec, inst, cfg, step, &lost);
    Counterexample {
        scheme,
        workload: spec.name(),
        seed: cfg.seed,
        threads: cfg.threads,
        ops_per_thread: cfg.ops_per_thread,
        vm: cfg.vm.clone(),
        crash_step: step,
        lost_lines: lost,
        failure,
        journal_tail,
    }
}

/// Replays the failing case once more with journal retention enabled and
/// returns the persist events leading into (and including) the crash.
fn capture_journal(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    lost: &[usize],
) -> Vec<PersistEvent> {
    let (mut vm, _) = make_vm(spec, inst, cfg);
    vm.pool().record_journal(cfg.journal_tail.max(1));
    vm.run_steps(step);
    let pool = vm.crash_with(cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(lost.iter().copied()));
    let tail = pool.journal_tail(cfg.journal_tail);
    pool.stop_journal();
    tail
}

/// Extracts a printable message from a caught panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic".to_string()
    }
}

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Suppresses the default panic-hook output for panics raised (and caught)
/// inside `f` on this thread. The oracle intentionally provokes panics by
/// the hundreds while probing and shrinking; printing a backtrace for each
/// would bury real output. Installed once, process-wide, forwarding to the
/// previous hook for every thread that is not currently probing — so
/// genuine test failures still print normally.
pub fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let r = f();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_workloads::micro::TwinSpec;

    #[test]
    fn exhaustive_subsets_enumerate_the_powerset() {
        let cfg = OracleConfig::default();
        let subs = candidate_subsets(&[4, 9, 11], &cfg, 0);
        assert_eq!(subs.len(), 8);
        assert_eq!(subs[0], vec![4, 9, 11], "full set is tried first");
        assert!(subs.contains(&vec![]));
        assert!(subs.contains(&vec![9]));
        assert!(subs.contains(&vec![4, 11]));
    }

    #[test]
    fn bounded_cover_is_deduplicated_and_bounded() {
        let cfg = OracleConfig {
            exhaustive_subset_limit: 3,
            max_subsets_per_step: 30,
            ..OracleConfig::default()
        };
        let dirty: Vec<usize> = (0..10).collect();
        let subs = candidate_subsets(&dirty, &cfg, 7);
        assert!(subs.len() <= 30);
        assert_eq!(subs[0], dirty, "full set first");
        assert!(subs.contains(&vec![]));
        for i in 0..10usize {
            assert!(subs.contains(&vec![i]), "singleton {{{i}}} covered");
        }
        let unique: std::collections::BTreeSet<_> = subs.iter().cloned().collect();
        assert_eq!(unique.len(), subs.len(), "no duplicate subsets");
        // Deterministic in (seed, step); the random tail varies by step.
        assert_eq!(subs, candidate_subsets(&dirty, &cfg, 7));
        assert_ne!(subs, candidate_subsets(&dirty, &cfg, 8));
    }

    #[test]
    fn random_subsets_lose_lines_past_the_64th() {
        // Regression: one xorshift word per subset, shifted once per line,
        // ran out after 64 lines, so no seeded draw ever lost a later one.
        let dirty: Vec<usize> = (1000..1200).collect();
        let fixed = 2 + 2 * dirty.len(); // all, none, singletons, co-singletons
        let cfg = OracleConfig { max_subsets_per_step: fixed + 16, ..OracleConfig::default() };
        let subs = candidate_subsets(&dirty, &cfg, 3);
        assert_eq!(subs.len(), fixed + 16);
        for (lo, hi) in [(0, 64), (64, 128), (128, 192), (192, 200)] {
            for s in &subs[fixed..] {
                let lost = s.iter().filter(|l| dirty[lo..hi].contains(l)).count();
                assert!(
                    lost > 0 && lost < hi - lo,
                    "a seeded draw loses {lost} of dirty[{lo}..{hi}]"
                );
            }
        }
        assert_eq!(subs, candidate_subsets(&dirty, &cfg, 3));
        assert_ne!(subs, candidate_subsets(&dirty, &cfg, 4));
        let reseeded = OracleConfig { seed: cfg.seed ^ 0xA5A5, ..cfg };
        assert_ne!(subs, candidate_subsets(&dirty, &reseeded, 3));
    }

    #[test]
    fn boundaries_start_at_zero_and_end_at_total() {
        let cfg = OracleConfig { threads: 1, ops_per_thread: 1, ..OracleConfig::default() };
        let inst = instrument(&TwinSpec, Scheme::Ido);
        let (total, events, bounds) = persist_boundaries(&TwinSpec, &inst, &cfg);
        assert!(total > 0 && events > 0);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), total);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(
            (bounds.len() as u64) <= total,
            "boundary compression must not exceed step count"
        );
        // Deterministic: same config, same boundaries.
        assert_eq!(persist_boundaries(&TwinSpec, &inst, &cfg), (total, events, bounds));
    }

    #[test]
    fn an_exploration_holds_the_decoded_program_once_and_leaves_none_behind() {
        // The per-state path hands the program to two recoveries and an
        // attach; none of them may decode it again or keep it. What holds
        // `inst.program.decoded()`: the program's cache, the handle below,
        // and the forward run's live VM.
        use std::sync::Arc;
        let cfg = OracleConfig::default();
        for scheme in [Scheme::Ido, Scheme::Nvml] {
            let inst = instrument(&TwinSpec, scheme);
            let decoded = inst.program.decoded();
            let idle = Arc::strong_count(&decoded);
            let (_, _, boundaries) = persist_boundaries(&TwinSpec, &inst, &cfg);
            assert_eq!(Arc::strong_count(&decoded), idle, "{scheme}: reference pass");
            let swept = sweep(1, &TwinSpec, &inst, &cfg, &boundaries, |run, step, dirty| {
                for lost in candidate_subsets(&dirty, &cfg, step) {
                    run.check(&lost).expect("a correct scheme");
                    run.check_recovery(&lost, 2, &[]).expect("a correct scheme");
                    assert_eq!(Arc::strong_count(&decoded), idle + 1, "{scheme}: step {step}");
                }
                ControlFlow::Continue(())
            });
            assert_eq!(swept.outcomes.len(), boundaries.len());
            assert_eq!(Arc::strong_count(&decoded), idle, "{scheme}: after the sweep");
            assert!(Arc::ptr_eq(&decoded, &inst.program.decoded()));
        }
    }

    #[test]
    fn check_crash_state_passes_on_a_correct_scheme() {
        let cfg = OracleConfig { threads: 1, ops_per_thread: 1, ..OracleConfig::default() };
        let inst = instrument(&TwinSpec, Scheme::Ido);
        assert_eq!(check_crash_state(&TwinSpec, &inst, &cfg, 0, &[]), Ok(()));
        let (total, _, _) = persist_boundaries(&TwinSpec, &inst, &cfg);
        assert_eq!(check_crash_state(&TwinSpec, &inst, &cfg, total, &[]), Ok(()));
    }
}
