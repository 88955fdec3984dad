//! The crash oracle: systematic crash-state exploration with deterministic
//! replay and minimal-counterexample reporting.
//!
//! The property tests in this workspace *sample* crash points; this crate
//! *enumerates* crash states. A [`CrashState`] is one value: the step a run
//! crashes at and the dirty cache lines that crash loses, plus, for a crash
//! *during recovery*, the work budget after which recovery crashes too and
//! the lines that second crash loses. Both kinds go through one path —
//! one way to reach a state, one verdict, one shrinker, one
//! [`Counterexample`] and one [`Exploration`]. For a workload run under a
//! scheme, the oracle:
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
//!    of dirty cache lines and builds states from candidate *lost-line
//!    sets* ([`candidate_subsets`]): all `2^n` subsets when few lines are
//!    dirty; when many are, everything, nothing, then singletons and
//!    co-singletons in line order, then seeded random subsets, cut to
//!    `max_subsets_per_step` — so with the default 24 and 12 or more dirty
//!    lines only the first 11 singletons and co-singletons are tried.
//!    [`explore`] crashes once per set; [`explore_recovery`] crashes losing
//!    every dirty line, cuts recovery short at each budget that interrupts
//!    it, and crashes again once per set of the lines recovery left dirty.
//!    Each state is *forked*: a scratch pool is re-synced to the live pool
//!    (`PmemPool::sync_from`, O(lines either changed)) and crashed with
//!    `CrashPolicy::Subset`. Nothing is rebuilt per state.
//! 3. **Verification** — after the state's last crash the scheme's recovery
//!    runs, the workload's own invariants are checked, and recovery is
//!    re-run to confirm idempotence — all under `catch_unwind`. The verdict
//!    is a function of the crashed persistent image, so each forward run
//!    keys every image (an XOR of 128-bit per-line keys, kept up to date
//!    from the lines the live pool writes back) and verifies an image once:
//!    a state whose image already passed reuses that verdict, skipping the
//!    fork, the crash and verification. Failing images are never
//!    remembered.
//! 4. **Shrinking** — on failure, every lost-line set of the state is
//!    greedily minimized (drop any line whose loss is not needed to fail),
//!    then the crash step is minimized to the earliest boundary where the
//!    state still fails. The resulting [`Counterexample`] carries
//!    everything needed to replay it — seed, VM config, the crash state —
//!    plus the persist-event journal tail leading into its last crash.
//!    Shrinking, journal capture and replaying a counterexample use the
//!    from-scratch [`CrashState::check`] (a fresh VM replayed from step 0):
//!    they are rare, jump backwards, and are the independent reference the
//!    forked path is differentially tested against.
//!
//! Determinism: the VM's scheduler RNG lives in the VM and never observes
//! the step hook, so a run paused at every step, a run paused once at step
//! `k`, and an uninterrupted run all execute the identical schedule. Two
//! [`explore`] calls with the same [`OracleConfig`] therefore produce the
//! same report, and [`CrashState::check`] of a counterexample's state under
//! its recorded config re-triggers the same failure. `ido-lang` writes a
//! counterexample as a `.ido` scenario file that `ido crashtest` replays.

#![deny(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;
use std::time::Instant;

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_nvm::{CrashPolicy, PersistEvent, PmemPool};
use ido_vm::{recover, recover_partial, RecoveryConfig, RunOutcome, StepControl, Vm, VmConfig};
use ido_workloads::{boot, WorkloadSpec};

/// Salt mixed into the crash seed so injected crashes are decorrelated from
/// the scheduling seed while staying deterministic.
const CRASH_SALT: u64 = 0x0bc3_5eed;

/// How many persist events a counterexample's journal tail keeps.
const JOURNAL_TAIL: usize = 16;

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
    /// Recoveries a crash-during-recovery sweep cut short: one per
    /// (boundary, budget) pair whose budget ran out before recovery
    /// finished (larger budgets are skipped). 0 for a plain sweep.
    pub interruptions: usize,
    /// Crash states actually checked: one per (boundary step, lost-line
    /// subset) pair, or per (boundary, budget, subset) triple for a crash
    /// during recovery.
    pub crash_states_explored: usize,
    /// Extra states checked while shrinking a counterexample.
    pub shrink_attempts: usize,
    /// Interpreter steps the workers' forward runs executed, summed. Each
    /// worker replays once to its chunk's first boundary and then only
    /// steps forward, so this is at most `jobs × total_steps` — exploration
    /// is linear in run length. A host-side cost: it varies with the job
    /// count and is therefore not part of the [`std::fmt::Display`] report.
    pub replayed_steps: u64,
    /// Distinct persistent images among the crash states checked: states
    /// whose last crash leaves byte-identical images count once. Counted
    /// over the same states as `crash_states_explored`, so it is identical
    /// for any job count; a failing state counts as an image of its own.
    pub distinct_images: usize,
    /// Cache lines `PmemPool::sync_from` copied to fork crash states, summed
    /// over workers (host-side, like `replayed_steps`).
    pub forked_lines: u64,
    /// Crash states whose recovery and verification the workers ran, summed:
    /// a state whose image a worker already saw pass reuses that verdict
    /// (see `ForwardRun::check`). Host-side, like `replayed_steps`: each
    /// worker remembers only the images it checked itself.
    pub recoveries_run: u64,
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
            "{}/{}: {} boundaries over {} steps ({} persist events), {} crash states ({} distinct images): {}",
            self.workload,
            self.scheme,
            self.boundary_steps,
            self.total_steps,
            self.persist_events,
            self.crash_states_explored,
            self.distinct_images,
            match &self.counterexample {
                None => "all consistent".to_string(),
                Some(c) => format!("FAILED ({c})"),
            }
        )
    }
}

/// One crash state: where a run crashes and which dirty lines the crash
/// loses, and — for a crash during recovery — where recovery crashes and
/// which lines that second crash loses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashState {
    /// Interpreter steps run before the crash.
    pub step: u64,
    /// Dirty lines the crash loses; the other dirty lines survive.
    pub lost: Vec<usize>,
    /// `(budget, lost)`: recovery is cut short after `budget` units of work
    /// (interpreter steps for the resumption schemes, persist operations for
    /// the log-processing ones) and crashes again, losing `lost` of the
    /// lines it left dirty. `None`: recovery runs to completion.
    pub recovery: Option<(u64, Vec<usize>)>,
}

impl CrashState {
    /// Checks this state from scratch: replay a fresh VM to `step`, crash
    /// losing `lost`, crash the recovery too if `recovery` says so, then
    /// recover, verify the workload's invariants on a re-attached VM, and
    /// recover again to confirm idempotence. [`explore`] and
    /// [`explore_recovery`] reach the same states by forking a forward run
    /// instead; this is the reference they are tested against, and what
    /// shrinking and a replayed counterexample use.
    ///
    /// # Errors
    /// The panic message of whichever stage failed. When the state is not a
    /// crash state of this run: "lost line N is not dirty at step S" (or
    /// "after B recovery unit(s)"), or "recovery completes within B
    /// unit(s)" when the budget does not interrupt recovery.
    pub fn check(
        &self,
        spec: &dyn WorkloadSpec,
        inst: &Instrumented,
        cfg: &OracleConfig,
    ) -> Result<(), String> {
        let (pool, base) = replay_and_crash(spec, inst, cfg, self, false)?;
        verify_recovery(spec, inst, cfg, &base, &pool)
    }

    /// This state without the `i`-th of its lost lines, counting the first
    /// crash's lines before the second crash's.
    fn without(&self, i: usize) -> CrashState {
        let mut smaller = self.clone();
        match (i.checked_sub(self.lost.len()), &mut smaller.recovery) {
            (None, _) => smaller.lost.remove(i),
            (Some(j), Some((_, lost))) => lost.remove(j),
            (Some(_), None) => unreachable!("line {i} of a state losing {} lines", self.lost.len()),
        };
        smaller
    }
}

/// A minimal failing crash state, self-contained enough to replay: its
/// [`CrashState`] checked under `threads`, `ops_per_thread`, `seed` and `vm`
/// fails again with `failure`.
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
    /// For a crash during recovery, the second crash
    /// ([`CrashState::recovery`]), its lost set minimized like `lost_lines`.
    pub recovery: Option<(u64, Vec<usize>)>,
    /// The panic message from recovery or invariant verification.
    pub failure: String,
    /// The persist events leading into (and including) the last crash, at
    /// most 16.
    pub journal_tail: Vec<PersistEvent>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "crash at step {} losing lines {:?}", self.crash_step, self.lost_lines)?;
        if let Some((budget, lost)) = &self.recovery {
            write!(f, ", then after {budget} recovery unit(s) losing lines {lost:?}")?;
        }
        write!(f, " (seed {:#x}): {}", self.seed, first_line(&self.failure))
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
    boot(spec, inst.clone(), cfg.threads, cfg.ops_per_thread, cfg.vm_config())
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

/// The reference run of `spec` under `inst` — the run [`persist_boundaries`]
/// steps through — to its end: [`RunOutcome::Completed`], or the
/// [`RunOutcome::Fault`] that stops it, which leaves no crash state to
/// explore (`persist_boundaries` panics on it).
pub fn reference_outcome(spec: &dyn WorkloadSpec, inst: &Instrumented, cfg: &OracleConfig) -> RunOutcome {
    make_vm(spec, inst, cfg).0.run()
}

/// `Err` naming the first line of `lost` that is not dirty in `pool`
/// (`when` says at which point): losing a clean line is not a crash state,
/// and `CrashPolicy::Subset` would silently check a different one.
fn require_dirty(pool: &PmemPool, lost: &[usize], when: std::fmt::Arguments) -> Result<(), String> {
    let dirty = pool.dirty_lines();
    match lost.iter().find(|l| dirty.binary_search(l).is_err()) {
        Some(l) => Err(format!("lost line {l} is not dirty {when}")),
        None => Ok(()),
    }
}

/// Runs recovery of the crashed `pool` for at most `budget` units of work:
/// `Ok(true)` when it finished, `Err` with the panic message if it panicked.
fn recovers_within(
    inst: &Instrumented,
    cfg: &OracleConfig,
    pool: &PmemPool,
    budget: u64,
) -> Result<bool, String> {
    quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            recover_partial(pool.clone(), inst.clone(), cfg.vm_config(), budget)
        }))
    })
    .map_err(panic_text)
}

/// Crashes the recovery of `pool`, which has crashed into `state`'s first
/// crash, as `state.recovery` says; nothing when it is `None`.
///
/// # Errors
/// The panic message if recovery panics within the budget. Otherwise, when
/// the budget does not interrupt recovery or a line to lose is not dirty
/// after it: either way `state` is not a crash state of this run.
fn crash_recovery(
    inst: &Instrumented,
    cfg: &OracleConfig,
    pool: &PmemPool,
    state: &CrashState,
) -> Result<(), String> {
    let Some((budget, lost)) = &state.recovery else {
        return Ok(());
    };
    if recovers_within(inst, cfg, pool, *budget)? {
        return Err(format!("recovery completes within {budget} unit(s): no crash during it"));
    }
    require_dirty(pool, lost, format_args!("after {budget} recovery unit(s)"))?;
    pool.crash_with(cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(lost.iter().copied()));
    Ok(())
}

/// The from-scratch way to `state`: a fresh VM replayed to its step and
/// crashed losing exactly its lost lines, then its recovery crashed if the
/// state says so. With `journal`, the pool retains the last
/// [`JOURNAL_TAIL`] persist events. Returns the crashed pool and the
/// workload's setup values.
fn replay_and_crash(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    state: &CrashState,
    journal: bool,
) -> Result<(PmemPool, Vec<u64>), String> {
    let (mut vm, base) = make_vm(spec, inst, cfg);
    if journal {
        vm.pool().record_journal(JOURNAL_TAIL);
    }
    vm.run_steps(state.step);
    require_dirty(vm.pool(), &state.lost, format_args!("at step {}", state.step))?;
    let pool = vm.crash_with(cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(state.lost.iter().copied()));
    crash_recovery(inst, cfg, &pool, state)?;
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

/// [`CrashState::check`] of the state that crashes at `step` losing exactly
/// `lost_lines` of the dirty lines and lets recovery run to completion.
///
/// # Errors
/// As [`CrashState::check`].
pub fn check_crash_state(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    lost_lines: &[usize],
) -> Result<(), String> {
    CrashState { step, lost: lost_lines.to_vec(), recovery: None }.check(spec, inst, cfg)
}

/// One worker's share of an exploration: a live VM that only ever steps
/// forward, and a scratch pool re-synced to the live one for every crash
/// state, so a state costs the lines it touched — no VM, pool or replay
/// per state.
///
/// A state's verdict is a function of the image its last crash leaves,
/// given the exploration's program, config and setup values (recovery,
/// the re-attached VM and the invariants read only the pool), so the run
/// also remembers the keys of the images it saw pass (`ok`) and checks
/// each image once. It keys a plain state before forking it, from the
/// live image's key and the dirty lines that survive; a crash during
/// recovery only after its second crash, from the lines the scratch pool
/// touched. Only passing verdicts are kept: a failing image is always
/// recovered again, so the first failure and its shrinking do not move.
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
    /// Per line the live pool ever changed the persistent image of, the
    /// key of that line there as of the current boundary; every other line
    /// is zero, whose key is 0.
    line_keys: HashMap<usize, u128>,
    /// The XOR of `line_keys`: the key of the live persistent image.
    image_key: u128,
    /// Per line dirty at the current boundary, ascending: the line, and
    /// what its surviving a crash XORs into `image_key`.
    survivors: Vec<(usize, u128)>,
    /// Keys of the crashed images whose verdict was `Ok`.
    ok: HashSet<u128>,
    forked_lines: u64,
    recoveries: u64,
}

/// A forked check that passed: the key of the state's crashed image, and
/// whether its verdict was remembered rather than recovered again.
#[derive(Debug, Clone, Copy)]
struct Passed {
    key: u128,
    remembered: bool,
}

impl<'a> ForwardRun<'a> {
    fn new(spec: &'a dyn WorkloadSpec, inst: &'a Instrumented, cfg: &'a OracleConfig) -> Self {
        let (live, base) = make_vm(spec, inst, cfg);
        let scratch = live.pool().scratch();
        ForwardRun {
            spec,
            inst,
            cfg,
            live,
            base,
            scratch,
            line_keys: HashMap::new(),
            image_key: 0,
            survivors: Vec::new(),
            ok: HashSet::new(),
            forked_lines: 0,
            recoveries: 0,
        }
    }

    /// Steps the live VM forward to absolute step `step` (a boundary at or
    /// after its current step), re-keys the lines whose persistent image it
    /// changed since the last sync, and returns the lines dirty there.
    fn advance_to(&mut self, step: u64) -> Vec<usize> {
        self.live.run_steps(step - self.live.steps());
        let pool = self.live.pool();
        for line in pool.touched_lines() {
            let key = pool.persistent_line_key(line);
            self.image_key ^= key ^ self.line_keys.insert(line, key).unwrap_or(0);
        }
        let dirty = pool.dirty_lines();
        self.survivors =
            dirty.iter().map(|&l| (l, self.line_key(l) ^ pool.volatile_line_key(l))).collect();
        dirty
    }

    /// The key of line `line` of the live persistent image.
    fn line_key(&self, line: usize) -> u128 {
        self.line_keys.get(&line).copied().unwrap_or(0)
    }

    /// The key of the image a crash of the live pool losing `lost` (an
    /// ascending subset of the dirty lines) leaves: every other dirty line
    /// writes its volatile contents back.
    fn crash_key(&self, lost: &[usize]) -> u128 {
        self.survivors
            .iter()
            .filter(|(line, _)| lost.binary_search(line).is_err())
            .fold(self.image_key, |key, (_, survives)| key ^ survives)
    }

    /// The key of the scratch pool's persistent image. It equalled the live
    /// one at the last sync, which was at this boundary; since then it
    /// differs at most in the lines it touched.
    fn scratch_key(&self) -> u128 {
        let pool = &self.scratch;
        pool.touched_lines()
            .into_iter()
            .fold(self.image_key, |key, l| key ^ self.line_key(l) ^ pool.persistent_line_key(l))
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

    /// The forked [`CrashState::check`] of `state`, whose step is the live
    /// VM's current one, unless its image already passed.
    fn check(&mut self, state: &CrashState) -> Result<Passed, String> {
        let key = if state.recovery.is_none() {
            self.crash_key(&state.lost)
        } else {
            self.fork_and_crash(&state.lost);
            crash_recovery(self.inst, self.cfg, &self.scratch, state)?;
            self.scratch_key()
        };
        if self.ok.contains(&key) {
            return Ok(Passed { key, remembered: true });
        }
        if state.recovery.is_none() {
            self.fork_and_crash(&state.lost);
        }
        debug_assert_eq!(key, self.scratch.persistent_key(), "the key of {state:?}");
        self.recoveries += 1;
        verify_recovery(self.spec, self.inst, self.cfg, &self.base, &self.scratch)?;
        self.ok.insert(key);
        Ok(Passed { key, remembered: false })
    }

    /// The lines an interrupted recovery leaves dirty: crash the current
    /// state losing `lost`, run recovery under `budget`. `None` when
    /// recovery finishes within the budget (nothing left to crash) or
    /// panics, which the unbudgeted recovery of the same crash does too.
    fn interrupted_recovery_dirty(&mut self, lost: &[usize], budget: u64) -> Option<Vec<usize>> {
        self.fork_and_crash(lost);
        let finished = recovers_within(self.inst, self.cfg, &self.scratch, budget).unwrap_or(true);
        (!finished).then(|| self.scratch.dirty_lines())
    }
}

/// What [`sweep`] returns: per-boundary outcomes in boundary order, up to
/// and including the first failing boundary, and the workers' summed costs.
struct Sweep<T> {
    outcomes: Vec<T>,
    replayed_steps: u64,
    forked_lines: u64,
    recoveries: u64,
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
/// job count; only the cost totals depend on it.
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
            outcomes.push(outcome);
            if failed {
                break;
            }
        }
        let costs = [run.live.steps(), run.forked_lines, run.recoveries];
        (outcomes, failed, costs, ready)
    });
    let ready = per_chunk[0].3;
    let mut sweep =
        Sweep { outcomes: Vec::new(), replayed_steps: 0, forked_lines: 0, recoveries: 0, ready };
    let mut reached = true;
    for (outcomes, failed, [steps, lines, recoveries], _) in per_chunk {
        sweep.replayed_steps += steps;
        sweep.forked_lines += lines;
        sweep.recoveries += recoveries;
        if reached {
            sweep.outcomes.extend(outcomes);
            reached = !failed;
        }
    }
    sweep
}

/// What [`check_boundary`] found at one boundary.
struct AtBoundary {
    /// Recoveries the boundary's budgets cut short.
    interrupted: usize,
    /// States checked, the failing one included.
    checked: usize,
    /// The first failing state and its failure; it ends the boundary.
    failed: Option<(CrashState, String)>,
}

/// Checks the crash states of the boundary at `step`, where `dirty` is
/// dirty, in order until one fails: one group per entry of `recoveries`.
/// `None` crashes once, losing each candidate subset of the dirty lines;
/// `Some(budget)` crashes losing all of them, cuts recovery short after
/// `budget` units of work and, if that interrupts it, crashes again losing
/// each candidate subset of the lines recovery left dirty. `passed` sees
/// every state that passed.
fn check_boundary(
    run: &mut ForwardRun<'_>,
    recoveries: &[Option<u64>],
    step: u64,
    dirty: &[usize],
    mut passed: impl FnMut(CrashState, Passed),
) -> AtBoundary {
    let mut at = AtBoundary { interrupted: 0, checked: 0, failed: None };
    for &budget in recoveries {
        let (lines, salt) = match budget {
            None => (dirty.to_vec(), step),
            Some(b) => match run.interrupted_recovery_dirty(dirty, b) {
                Some(left) => {
                    at.interrupted += 1;
                    (left, step ^ b.rotate_left(17))
                }
                None => continue,
            },
        };
        for lines_lost in candidate_subsets(&lines, run.cfg, salt) {
            let state = match budget {
                None => CrashState { step, lost: lines_lost, recovery: None },
                Some(b) => CrashState { step, lost: dirty.to_vec(), recovery: Some((b, lines_lost)) },
            };
            at.checked += 1;
            match run.check(&state) {
                Ok(p) => passed(state, p),
                Err(failure) => {
                    at.failed = Some((state, failure));
                    return at;
                }
            }
        }
    }
    at
}

/// The one sweep body behind [`explore_jobs`] and [`explore_recovery`]:
/// [`check_boundary`] at every persist boundary. The first failing state
/// is shrunk to a minimal [`Counterexample`].
fn explore_states(
    jobs: usize,
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    cfg: &OracleConfig,
    recoveries: &[Option<u64>],
) -> Exploration {
    let started = Instant::now();
    let inst = instrument(spec, scheme);
    let (total_steps, persist_events, boundaries) = persist_boundaries(spec, &inst, cfg);

    // Per boundary: what it found, and the keys of the images its worker
    // recovered there. A remembered image was recovered earlier by the same
    // worker — at this boundary or an earlier one of its chunk, kept
    // whenever this one is — so the kept boundaries' recovered keys are
    // all their images.
    let swept = sweep(jobs, spec, &inst, cfg, &boundaries, |run, step, dirty| {
        let mut keys = Vec::new();
        let at = check_boundary(run, recoveries, step, &dirty, |_, p| {
            if !p.remembered {
                keys.push(p.key);
            }
        });
        if at.failed.is_some() {
            ControlFlow::Break((at, keys))
        } else {
            ControlFlow::Continue((at, keys))
        }
    });

    // `explored` counts every state checked up to and including the first
    // failing one. Shrinking is serial and from scratch — it is a
    // data-dependent greedy walk from one failure, backwards in steps.
    let (mut interruptions, mut explored, mut shrinks) = (0, 0, 0);
    let mut images = HashSet::new();
    let mut counterexample = None;
    for (at, keys) in swept.outcomes {
        interruptions += at.interrupted;
        explored += at.checked;
        images.extend(keys);
        if let Some((state, failure)) = at.failed {
            counterexample =
                Some(shrink(spec, &inst, cfg, scheme, &boundaries, state, failure, &mut shrinks));
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
        interruptions,
        crash_states_explored: explored,
        shrink_attempts: shrinks,
        replayed_steps: swept.replayed_steps,
        // A failing image never passed, so it is one no other state had.
        distinct_images: images.len() + counterexample.is_some() as usize,
        forked_lines: swept.forked_lines,
        recoveries_run: swept.recoveries,
        host_ns,
        setup_ns,
        counterexample,
    }
}

/// Sweeps crash-**during-recovery** states: at every persist boundary,
/// crash losing all dirty lines, cut the subsequent recovery short at each
/// work budget in `budgets`, and crash again over candidate subsets of
/// whatever the interrupted recovery left dirty (budgets that let recovery
/// finish are skipped). This is the oracle's coverage of the recovery paths
/// themselves — rollback and replay writes, log retirement — which the
/// plain [`explore`] sweep never crashes mid-protocol. A failure shrinks to
/// a [`Counterexample`] whose `recovery` holds the second crash.
pub fn explore_recovery(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    cfg: &OracleConfig,
    budgets: &[u64],
) -> Exploration {
    let recoveries: Vec<Option<u64>> = budgets.iter().copied().map(Some).collect();
    explore_states(ido_par::jobs(), spec, scheme, cfg, &recoveries)
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
    explore_states(jobs, spec, scheme, cfg, &[None])
}

/// Runs [`explore`] for every durable scheme (iDO + the five baselines).
pub fn explore_all(spec: &dyn WorkloadSpec, cfg: &OracleConfig) -> Vec<Exploration> {
    DURABLE_SCHEMES.iter().map(|&s| explore(spec, s, cfg)).collect()
}

/// Candidate lost-line sets for a crash point whose dirty lines are `dirty`,
/// in the order [`explore`] checks them. When `dirty` is small, the full
/// powerset. When it is large, a deduplicated cover cut to
/// `cfg.max_subsets_per_step` (at least 2): the full set, the empty set,
/// then singleton and co-singleton of each line in turn, then subsets drawn
/// from `(cfg.seed, step)`. The cut keeps a prefix, so past
/// `(max_subsets_per_step - 2) / 2` dirty lines the later singletons and
/// co-singletons, and every drawn subset, are never tried. The full set
/// comes first — it is the classic drop-all-dirty crash and the most likely
/// to fail.
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

/// Shrinks a failing `state`: greedily drop lines of its lost sets that are
/// not needed to fail, then move the crash to the earliest boundary step
/// where the minimized state still fails. A candidate that is not a crash
/// state of this run is skipped; every candidate counts in `attempts`.
/// Captures the journal tail of the final minimal state.
#[allow(clippy::too_many_arguments)]
fn shrink(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    scheme: Scheme,
    boundaries: &[u64],
    mut state: CrashState,
    mut failure: String,
    attempts: &mut usize,
) -> Counterexample {
    // `Some((cand, failure))` when `cand` is a crash state and fails.
    let mut fails = |cand: CrashState| {
        *attempts += 1;
        let (pool, base) = replay_and_crash(spec, inst, cfg, &cand, false).ok()?;
        verify_recovery(spec, inst, cfg, &base, &pool).err().map(|f| (cand, f))
    };
    loop {
        let lines = state.lost.len() + state.recovery.as_ref().map_or(0, |(_, l)| l.len());
        let Some(smaller) = (0..lines).find_map(|i| fails(state.without(i))) else {
            break;
        };
        (state, failure) = smaller;
    }
    let last = state.step;
    let earlier = boundaries
        .iter()
        .take_while(|&&s| s < last)
        .find_map(|&step| fails(CrashState { step, ..state.clone() }));
    if let Some(earlier) = earlier {
        (state, failure) = earlier;
    }
    let (pool, _) =
        replay_and_crash(spec, inst, cfg, &state, true).expect("a shrunk state is a crash state");
    Counterexample {
        scheme,
        workload: spec.name(),
        seed: cfg.seed,
        threads: cfg.threads,
        ops_per_thread: cfg.ops_per_thread,
        vm: cfg.vm.clone(),
        crash_step: state.step,
        lost_lines: state.lost,
        recovery: state.recovery,
        failure,
        journal_tail: pool.journal_tail(JOURNAL_TAIL),
    }
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
    fn the_default_bounded_cover_is_a_prefix_of_eleven_singletons_and_co_singletons() {
        // 24 subsets: everything, nothing, then (singleton, co-singleton)
        // for the first 11 dirty lines. From the 12th line on, no singleton
        // is tried and no seeded subset fits.
        let cfg = OracleConfig::default();
        for n in [12usize, 13, 40] {
            let dirty: Vec<usize> = (500..500 + n).collect();
            let subs = candidate_subsets(&dirty, &cfg, 5);
            let mut prefix = vec![dirty.clone(), vec![]];
            for i in 0..11 {
                let mut co = dirty.clone();
                co.remove(i);
                prefix.extend([vec![dirty[i]], co]);
            }
            assert_eq!(subs, prefix, "{n} dirty lines");
            assert!(!subs.contains(&vec![dirty[11]]), "{n} dirty lines");
        }
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
                    let plain = CrashState { step, lost, recovery: None };
                    run.check(&plain).expect("a correct scheme");
                    if run.interrupted_recovery_dirty(&plain.lost, 2).is_some() {
                        let during = CrashState { recovery: Some((2, vec![])), ..plain };
                        run.check(&during).expect("a correct scheme");
                    }
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
    fn the_recovery_sweep_is_identical_for_any_job_count() {
        // Atlas's rollback and log retirement give every budget something
        // to cut; iDO with its boundary store flushes skipped fails, so the
        // shrunk crash-during-recovery counterexample is compared too.
        let recoveries = [1, 2, 5, 11].map(Some);
        let mut buggy = OracleConfig::default();
        buggy.vm.ido_bug_skip_store_flush = true;
        for (scheme, cfg) in [(Scheme::Atlas, OracleConfig::default()), (Scheme::Ido, buggy)] {
            let serial = explore_states(1, &TwinSpec, scheme, &cfg, &recoveries);
            assert!(serial.interruptions > 0, "{serial}");
            let cex = format!("{:?}", serial.counterexample);
            assert_eq!(serial.counterexample.is_some(), scheme == Scheme::Ido, "{serial}");
            for jobs in [2, 4] {
                let par = explore_states(jobs, &TwinSpec, scheme, &cfg, &recoveries);
                let counts = |e: &Exploration| {
                    (e.boundary_steps, e.interruptions, e.crash_states_explored, e.shrink_attempts)
                };
                assert_eq!(counts(&par), counts(&serial), "{scheme} jobs={jobs}");
                assert_eq!(par.to_string(), serial.to_string(), "{scheme} jobs={jobs}");
                assert_eq!(format!("{:?}", par.counterexample), cex, "{scheme} jobs={jobs}");
            }
        }
    }

    /// Every state whose verdict the memo reused — over the five
    /// structures under every durable scheme, and the twin counter crashed
    /// during recovery under Atlas — crashes, from scratch, into an image
    /// whose key is the one it was skipped under, and checks `Ok`. A key
    /// update that misses a line fails the first; recovery state that is
    /// not in the persistent image (a counter, a clock, a handle's queue)
    /// would differ between two states with one image, and one of them
    /// would fail the second.
    #[test]
    fn every_state_the_memo_skipped_checks_ok_from_scratch() {
        use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec};
        let cfg = OracleConfig::default();
        let list = ListSpec { key_range: 16 };
        let map = MapSpec::default();
        let structures: [&dyn WorkloadSpec; 5] = [&TwinSpec, &StackSpec, &QueueSpec, &list, &map];
        let plain = structures.into_iter().flat_map(|s| DURABLE_SCHEMES.map(|d| (s, d, vec![None])));
        let during = (&TwinSpec as &dyn WorkloadSpec, Scheme::Atlas, [1, 2, 5, 11].map(Some).to_vec());
        let mut skipped_anywhere = 0;
        for (spec, scheme, recoveries) in plain.chain([during]) {
            let what = format!("{}/{scheme} {recoveries:?}", spec.name());
            let inst = instrument(spec, scheme);
            let (_, _, boundaries) = persist_boundaries(spec, &inst, &cfg);
            let swept = sweep(1, spec, &inst, &cfg, &boundaries, |run, step, dirty| {
                let mut skipped = Vec::new();
                let at = check_boundary(run, &recoveries, step, &dirty, |state, p| {
                    if p.remembered {
                        skipped.push((state, p.key));
                    }
                });
                assert!(at.failed.is_none(), "{what}: {:?}", at.failed);
                ControlFlow::Continue((at.checked, skipped))
            });
            let states: usize = swept.outcomes.iter().map(|(checked, _)| checked).sum();
            let skipped: Vec<(CrashState, u128)> =
                swept.outcomes.into_iter().flat_map(|(_, s)| s).collect();
            assert_eq!(swept.recoveries + skipped.len() as u64, states as u64, "{what}");
            for (state, key) in &skipped {
                let (pool, base) = replay_and_crash(spec, &inst, &cfg, state, false).expect("a crash state");
                assert_eq!(pool.persistent_key(), *key, "{what}: {state:?}");
                let verdict = verify_recovery(spec, &inst, &cfg, &base, &pool);
                assert_eq!(verdict, Ok(()), "{what}: {state:?}");
            }
            skipped_anywhere += skipped.len();
        }
        assert!(skipped_anywhere > 0, "the memo never skipped a state");
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
