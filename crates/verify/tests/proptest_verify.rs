//! Property-based cross-validation of the static verifier.
//!
//! A generator builds random lock-protected programs — straight-line
//! read-modify-write chains, data-dependent branches, and counted loops
//! with computed store addresses — and checks, for each sample:
//!
//! 1. instrumentation under every scheme is verifier-clean (the verifier
//!    must not produce false positives on anything the instrumenter can
//!    emit);
//! 2. the injected `ido_bug_skip_store_flush` runtime is flagged
//!    statically, whatever the program shape; and
//! 3. verifier-clean programs survive an exhaustive crash-oracle pass —
//!    the dynamic half of the differential contract, on programs nobody
//!    hand-picked; and
//! 4. (ISSUE 6) the tier-2 block-compiled engine is observationally
//!    identical to the tier-1 interpreter on every generated shape —
//!    full runs under both schedulers, plus crash-at-every-persist-boundary
//!    replays whose crash-projected images must match byte for byte.

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_crashtest::{check_crash_state, explore, persist_boundaries, OracleConfig};
use ido_ir::{BinOp, Operand, Program, ProgramBuilder};
use ido_nvm::{CrashPolicy, PAddr};
use ido_verify::{verify_instrumented, Invariant, RuntimeModel};
use ido_vm::{ExecTier, RunOutcome, SchedPolicy, Vm, VmConfig};
use ido_workloads::{boot, WorkloadSpec};
use proptest::prelude::*;

/// Cells `0..OP_CELLS` are operated on by the random op list; cells
/// `OP_CELLS..CELLS` are written by the optional counted loop.
const OP_CELLS: usize = 8;
const MAX_TRIPS: u64 = 3;
const CELLS: usize = OP_CELLS + MAX_TRIPS as usize;
/// One cache line per cell, so crash-time line loss decorrelates cells.
const STRIDE: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `cell[dst] = val`
    StoreImm { dst: usize, val: u64 },
    /// `cell[dst] = cell[src] + imm` — a load/store antidependence when
    /// `src == dst`, which the instrumenter must cut.
    AddStore { src: usize, dst: usize, imm: u64 },
    /// `cell[dst] = if cell[cond] != 0 { hi } else { lo }`
    BranchStore { cond: usize, dst: usize, hi: u64, lo: u64 },
}

/// A randomly generated single-FASE workload: `worker(lock, cells)` takes
/// the lock, runs the op list, optionally runs a counted loop storing to
/// computed addresses, and releases the lock.
#[derive(Debug, Clone)]
struct RandomSpec {
    ops: Vec<Op>,
    trips: u64,
    init: Vec<u64>,
    tag: u64,
}

fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

impl RandomSpec {
    fn generate(seed: u64, n_ops: usize, trips: u64) -> Self {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let init: Vec<u64> = (0..CELLS).map(|_| xorshift(&mut s) % 3).collect();
        let ops = (0..n_ops)
            .map(|_| match xorshift(&mut s) % 3 {
                0 => Op::StoreImm {
                    dst: (xorshift(&mut s) % OP_CELLS as u64) as usize,
                    val: xorshift(&mut s) % 1000,
                },
                1 => Op::AddStore {
                    src: (xorshift(&mut s) % OP_CELLS as u64) as usize,
                    dst: (xorshift(&mut s) % OP_CELLS as u64) as usize,
                    imm: xorshift(&mut s) % 1000,
                },
                _ => Op::BranchStore {
                    cond: (xorshift(&mut s) % OP_CELLS as u64) as usize,
                    dst: (xorshift(&mut s) % OP_CELLS as u64) as usize,
                    hi: xorshift(&mut s) % 1000,
                    lo: 1000 + xorshift(&mut s) % 1000,
                },
            })
            .collect();
        RandomSpec { ops, trips, init, tag: seed }
    }

    /// One whole FASE applied to `s` — the generation-time twin of what
    /// the generated `worker` does at runtime.
    fn simulate(&self, s: &[u64]) -> Vec<u64> {
        let mut t = s.to_vec();
        for op in &self.ops {
            match *op {
                Op::StoreImm { dst, val } => t[dst] = val,
                Op::AddStore { src, dst, imm } => t[dst] = t[src].wrapping_add(imm),
                Op::BranchStore { cond, dst, hi, lo } => {
                    t[dst] = if t[cond] != 0 { hi } else { lo }
                }
            }
        }
        for i in 0..self.trips {
            t[OP_CELLS + i as usize] = 100 + 7 * i;
        }
        t
    }
}

impl WorkloadSpec for RandomSpec {
    fn name(&self) -> String {
        format!("random-{}", self.tag)
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 2);
        let lock = f.param(0);
        let base = f.param(1);
        f.lock(lock);
        for op in &self.ops {
            match *op {
                Op::StoreImm { dst, val } => {
                    f.store(base, (dst * STRIDE) as i64, val as i64);
                }
                Op::AddStore { src, dst, imm } => {
                    let v = f.new_reg();
                    let w = f.new_reg();
                    f.load(v, base, (src * STRIDE) as i64);
                    f.bin(BinOp::Add, w, v, imm as i64);
                    f.store(base, (dst * STRIDE) as i64, Operand::Reg(w));
                }
                Op::BranchStore { cond, dst, hi, lo } => {
                    let c = f.new_reg();
                    f.load(c, base, (cond * STRIDE) as i64);
                    let tb = f.new_block();
                    let eb = f.new_block();
                    let jb = f.new_block();
                    f.branch(c, tb, eb);
                    f.switch_to(tb);
                    f.store(base, (dst * STRIDE) as i64, hi as i64);
                    f.jump(jb);
                    f.switch_to(eb);
                    f.store(base, (dst * STRIDE) as i64, lo as i64);
                    f.jump(jb);
                    f.switch_to(jb);
                }
            }
        }
        if self.trips > 0 {
            // for i in 0..trips { cell[OP_CELLS + i] = 100 + 7*i } with the
            // address computed in registers — exercises loop-carried
            // live-ins at boundaries and the register WAR repair on `i`.
            let i = f.new_reg();
            f.mov(i, 0i64);
            let head = f.new_block();
            let body = f.new_block();
            let exit = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let c = f.new_reg();
            f.bin(BinOp::Lt, c, i, self.trips as i64);
            f.branch(c, body, exit);
            f.switch_to(body);
            let off = f.new_reg();
            let addr = f.new_reg();
            let val = f.new_reg();
            let val2 = f.new_reg();
            f.bin(BinOp::Mul, off, i, STRIDE as i64);
            f.bin(BinOp::Add, addr, base, Operand::Reg(off));
            f.bin(BinOp::Mul, val, i, 7i64);
            f.bin(BinOp::Add, val2, val, 100i64);
            f.store(addr, (OP_CELLS * STRIDE) as i64, Operand::Reg(val2));
            f.bin(BinOp::Add, i, i, 1i64);
            f.jump(head);
            f.switch_to(exit);
        }
        f.unlock(lock);
        f.ret(None);
        f.finish().expect("generated worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, _threads: usize, _ops: u64) -> Vec<u64> {
        let init = self.init.clone();
        vm.setup(move |h, alloc, _| {
            let lock = alloc.alloc(h, 8).expect("lock holder");
            let cells = alloc.alloc(h, CELLS * STRIDE).expect("cells");
            for (j, v) in init.iter().enumerate() {
                h.write_u64(cells + j * STRIDE, *v);
            }
            h.persist(cells, CELLS * STRIDE);
            vec![lock as u64, cells as u64]
        })
    }

    fn worker_args(&self, base: &[u64], _thread: usize, _ops: u64) -> Vec<u64> {
        vec![base[0], base[1]]
    }

    /// All-or-nothing: the cell array must equal the initial state advanced
    /// by a whole number of FASE passes — a torn FASE matches no k.
    fn verify(&self, vm: &Vm, base: &[u64], _total_ops: u64) {
        let mut h = vm.pool().handle();
        let cells = base[1] as PAddr;
        let got: Vec<u64> = (0..CELLS).map(|j| h.read_u64(cells + j * STRIDE)).collect();
        let mut state = self.init.clone();
        for _k in 0..=8 {
            if got == state {
                return;
            }
            state = self.simulate(&state);
        }
        panic!(
            "torn FASE: cells match no whole number of passes: got {got:?}, init {:?}",
            self.init
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn random_programs_verify_clean_and_survive_the_oracle(
        seed in 0u64..1_000_000,
        n_ops in 1usize..6,
        trips in 0u64..=MAX_TRIPS,
    ) {
        let spec = RandomSpec::generate(seed, n_ops, trips);

        // (1) No false positives: everything the instrumenter emits for
        // this program, under any scheme, is verifier-clean.
        for scheme in Scheme::ALL {
            let inst = instrument_program(spec.build_program(), scheme)
                .expect("generated program instruments");
            let diags = verify_instrumented(&inst, &RuntimeModel::for_tests());
            prop_assert!(diags.is_empty(), "{scheme}: {diags:?}");
        }

        // (2) The injected persist-ordering bug is flagged statically on
        // every program shape (each sample has at least one in-FASE store).
        let mut cfg = VmConfig::for_tests();
        cfg.ido_bug_skip_store_flush = true;
        let buggy = RuntimeModel::from_config(&cfg);
        let inst = instrument_program(spec.build_program(), Scheme::Ido).unwrap();
        let diags = verify_instrumented(&inst, &buggy);
        prop_assert!(
            diags.iter().any(|d| d.invariant == Invariant::PersistOrdering),
            "injected bug not flagged: {diags:?}"
        );

        // (3) Verifier-clean implies crash-atomic: an exhaustive oracle
        // pass (every persist boundary x lost-line subset) finds no
        // counterexample. Two schemes keep the dynamic half affordable:
        // the resumption scheme and one rollback baseline.
        for scheme in [Scheme::Ido, Scheme::Atlas] {
            let ex = explore(&spec, scheme, &OracleConfig::smoke());
            prop_assert!(
                ex.counterexample.is_none(),
                "{scheme}: oracle refuted a verifier-clean program: {:?}",
                ex.counterexample
            );
        }
    }
}

/// Runs `spec` to completion on `tier` and returns every cheap observable:
/// step count, final simulated clock, and the persistent pool image.
fn full_run(
    spec: &RandomSpec,
    inst: &Instrumented,
    tier: ExecTier,
    sched: SchedPolicy,
) -> (u64, u64, Vec<u8>) {
    let mut cfg = VmConfig::for_tests();
    cfg.sched = sched;
    cfg.tier = tier;
    let (mut vm, _) = boot(spec, inst.clone(), 2, 1, cfg);
    assert_eq!(vm.run(), RunOutcome::Completed, "{} ({tier:?}, {sched:?})", spec.name());
    (vm.steps(), vm.max_clock_ns(), vm.pool().persistent_snapshot())
}

/// Replays `spec` on `tier` to `step`, crashes (drop-dirty), and returns
/// the dirty-line set at the crash plus the crash-projected image.
fn crash_replay(
    spec: &RandomSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    tier: ExecTier,
    step: u64,
) -> (Vec<usize>, Vec<u8>) {
    let mut vc = cfg.vm.clone();
    vc.seed = cfg.seed;
    vc.tier = tier;
    let (mut vm, _) = boot(spec, inst.clone(), cfg.threads, 1, vc);
    vm.run_steps(step);
    let dirty = vm.pool().dirty_lines();
    let pool = vm.crash_with(cfg.seed ^ step, &CrashPolicy::DropDirty);
    (dirty, pool.persistent_snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn tier2_matches_tier1_on_random_programs_and_crash_replays(
        seed in 0u64..1_000_000,
        n_ops in 1usize..5,
        trips in 0u64..=MAX_TRIPS,
    ) {
        let spec = RandomSpec::generate(seed, n_ops, trips);

        // (1) Full-run equivalence on arbitrary CFG shapes, both
        // schedulers. MinClock drives cross-thread clock limits into the
        // segment gate; Random forces one-step segments while contended
        // and RNG burning once a single thread remains.
        for scheme in [Scheme::Ido, Scheme::JustDo, Scheme::Atlas] {
            let inst = instrument_program(spec.build_program(), scheme)
                .expect("generated program instruments");
            for sched in [SchedPolicy::MinClock, SchedPolicy::Random] {
                let t1 = full_run(&spec, &inst, ExecTier::Tier1, sched);
                let t2 = full_run(&spec, &inst, ExecTier::Tier2, sched);
                prop_assert_eq!(
                    &t1, &t2,
                    "{} under {} ({:?}): tiers diverge (steps, sim_ns, image)",
                    spec.name(), scheme, sched
                );
            }
        }

        // (2) Crash-at-every-boundary replays: the two tiers must agree on
        // where the persist boundaries fall, and at each boundary the
        // machine must hold the same dirty lines and crash-project to the
        // same image. Then the full oracle replay (crash + recover +
        // verify + idempotence) must pass on tier 2 at every boundary.
        let t1o = OracleConfig::default(); // 2 threads x 2 ops
        let mut t2o = t1o.clone();
        t2o.vm.tier = ExecTier::Tier2;
        let inst = instrument_program(spec.build_program(), Scheme::Ido).unwrap();

        let (steps1, events1, bounds1) = persist_boundaries(&spec, &inst, &t1o);
        let (steps2, events2, bounds2) = persist_boundaries(&spec, &inst, &t2o);
        prop_assert_eq!(steps1, steps2, "total steps diverge");
        prop_assert_eq!(events1, events2, "persist-event counts diverge");
        prop_assert_eq!(&bounds1, &bounds2, "persist boundaries diverge");

        for &step in &bounds1 {
            let t1 = crash_replay(&spec, &inst, &t1o, ExecTier::Tier1, step);
            let t2 = crash_replay(&spec, &inst, &t2o, ExecTier::Tier2, step);
            prop_assert_eq!(&t1.0, &t2.0, "dirty lines diverge at step {}", step);
            prop_assert!(t1.1 == t2.1, "crash-projected images diverge at step {}", step);
            prop_assert!(
                check_crash_state(&spec, &inst, &t2o, step, &[]).is_ok(),
                "tier-2 crash replay at step {} failed recovery", step
            );
        }
    }
}
