//! Property-based tests of the recoverable-CAS primitive: arbitrary
//! interleaved CAS/read schedules across a table of threads and cells,
//! with a crash injected at every persist boundary of an in-flight CAS.
//!
//! The property under test is the detectability contract from the
//! lock-free scheme family: after a crash at *any* persist event, each
//! thread's in-flight operation resolves taken xor not-taken — never
//! ambiguously — and the durable success counter agrees with the
//! surviving cell contents (no lost effect, no duplicated effect). The
//! schedules are DES-concurrent in the same sense as `alloc_shard.rs`:
//! operations from different simulated threads interleave in an
//! arbitrary seed-derived order over one pool.

use ido_lockfree::{align64, LfState, RcasThread, Resolution, CELL_TAG};
use ido_nvm::alloc::NvAllocator;
use ido_nvm::{PmemPool, PoolConfig, PAddr};
use proptest::prelude::*;

const THREADS: u32 = 3;
const CELLS: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    /// `(thread, cell, stale)` — a CAS whose expected value is the
    /// model's current value (`stale = false`, must succeed) or a value
    /// the cell never held (`stale = true`, must fail and close empty).
    Cas(u32, usize, bool),
    /// Read a cell and check it against the volatile model.
    Read(usize),
    /// `(thread, cell, trap_offset, seed)` — start a correct-expected
    /// CAS with a persist trap armed `trap_offset` events ahead, then
    /// crash the pool with `seed` and recover, whether or not the trap
    /// fired inside the operation.
    CrashDuringCas(u32, usize, u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u32..THREADS, 0usize..CELLS, prop::bool::ANY)
            .prop_map(|(t, c, stale)| Op::Cas(t, c, stale)),
        2 => (0usize..CELLS).prop_map(Op::Read),
        3 => (0u32..THREADS, 0usize..CELLS, 1u64..24, 0u64..1000)
            .prop_map(|(t, c, off, seed)| Op::CrashDuringCas(t, c, off, seed)),
    ]
}

struct Table {
    st: LfState,
    cells: [PAddr; CELLS],
}

fn fresh_table(pool: &PmemPool) -> Table {
    let mut h = pool.handle();
    let alloc = NvAllocator::format(&mut h, pool.size());
    let st = LfState::create(&mut h, &alloc, THREADS).expect("descriptor table");
    let raw = alloc.alloc(&mut h, CELLS * 64 + 64).expect("cells");
    let base = align64(raw);
    let mut cells = [0usize; CELLS];
    for (i, cell) in cells.iter_mut().enumerate() {
        *cell = base + 64 * i;
        h.write_u64(*cell, 0);
        h.write_u64(*cell + CELL_TAG, 0);
        h.persist(*cell, 16);
    }
    Table { st, cells }
}

fn attach_threads(pool: &PmemPool, st: &LfState) -> Vec<RcasThread> {
    let mut h = pool.handle();
    (0..THREADS).map(|t| RcasThread::attach(&mut h, st, t)).collect()
}

/// Replays `ops` against one pool and a volatile model, crashing and
/// recovering on every `CrashDuringCas`. Returns the observation trace
/// (results, read values, crash outcomes) the determinism test compares.
fn replay(pool: &PmemPool, ops: &[Op]) -> Vec<u64> {
    let table = fresh_table(pool);
    let st = table.st;
    let mut ths = attach_threads(pool, &st);
    // Volatile model: current value per cell, durable successes per
    // thread, and a monotone counter so installed values never repeat.
    let mut model = [0u64; CELLS];
    let mut done = vec![0u64; THREADS as usize];
    let mut next_val = 1u64;
    let mut trace = Vec::new();
    for op in ops {
        match *op {
            Op::Cas(t, c, stale) => {
                let expected = if stale { model[c] + 0xDEAD_0000 } else { model[c] };
                let new = next_val;
                next_val += 1;
                let mut h = pool.handle();
                let took = ths[t as usize].rcas(&mut h, &st, table.cells[c], expected, new);
                prop_assert_eq!(took, !stale, "CAS outcome disagrees with the model");
                if took {
                    model[c] = new;
                    done[t as usize] += 1;
                }
                prop_assert_eq!(st.done_count(&mut h, t), done[t as usize]);
                trace.push(took as u64);
            }
            Op::Read(c) => {
                let mut h = pool.handle();
                let v = h.read_u64(table.cells[c]);
                prop_assert_eq!(v, model[c], "cell {} diverged from the model", c);
                trace.push(v);
            }
            Op::CrashDuringCas(t, c, trap_offset, seed) => {
                let old = model[c];
                let new = next_val;
                next_val += 1;
                let mut h = pool.handle();
                pool.set_persist_trap(Some(pool.persist_event_count() + trap_offset));
                let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ths[t as usize].rcas(&mut h, &st, table.cells[c], old, new)
                }))
                .is_err();
                pool.set_persist_trap(None);
                drop(h);
                drop(std::mem::take(&mut ths));
                pool.crash(seed);
                let mut h = pool.handle();
                // Recovery must classify every descriptor; rerunning it is
                // a no-op (recovery itself may crash and restart).
                let r = st.resolve_and_close(&mut h, t);
                for u in 0..THREADS {
                    prop_assert_eq!(st.resolve(&mut h, u), Resolution::Closed);
                }
                // The detectability contract: the effect survived iff the
                // durable counter says so — taken xor not-taken, never
                // ambiguous, no lost or duplicated effect.
                let v = h.read_u64(table.cells[c]);
                prop_assert!(v == old || v == new, "cell holds a value never written");
                let dc = st.done_count(&mut h, t);
                prop_assert_eq!(
                    v == new,
                    dc == done[t as usize] + 1,
                    "effect presence ({} == {new}) disagrees with the durable \
                     counter ({dc} vs pre-crash {})",
                    v,
                    done[t as usize]
                );
                if v == new {
                    model[c] = new;
                    done[t as usize] += 1;
                }
                // Bystander threads' counters are untouched by recovery.
                for u in 0..THREADS {
                    prop_assert_eq!(st.done_count(&mut h, u), done[u as usize]);
                }
                drop(h);
                ths = attach_threads(pool, &st);
                trace.push(hit as u64);
                trace.push(match r {
                    Resolution::Closed => 0,
                    Resolution::Taken => 1,
                    Resolution::NotTaken => 2,
                });
                trace.push(v);
            }
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary CAS/read/crash schedules never leave an in-flight CAS
    /// ambiguous, never lose or duplicate a durable effect, and keep the
    /// cells consistent with the volatile model.
    #[test]
    fn rcas_crash_at_any_persist_boundary_is_unambiguous(
        ops in prop::collection::vec(op_strategy(), 1..100),
    ) {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        replay(&pool, &ops);
    }

    /// The same schedule on a fresh pool yields the same observation
    /// trace: crash loss and recovery are seed-deterministic.
    #[test]
    fn rcas_replay_is_deterministic(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let a = replay(&PmemPool::new(PoolConfig::small_for_tests()), &ops);
        let b = replay(&PmemPool::new(PoolConfig::small_for_tests()), &ops);
        prop_assert_eq!(a, b);
    }
}

/// `ido-par` fan-out does not perturb recoverable-CAS outcomes: the same
/// crash-sweep points produce identical traces under 1 and 2 workers —
/// the in-process twin of the CI `--jobs` diff on `ido sweep
/// corpus/figures/lockfree_lf_500.ido`.
#[test]
fn par_jobs_do_not_change_rcas_outcomes() {
    fn sweep_point(seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        let ops: Vec<Op> = (0..40)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let t = (x % THREADS as u64) as u32;
                let c = (x >> 8) as usize % CELLS;
                match x % 3 {
                    0 => Op::Cas(t, c, x & 8 == 0),
                    1 => Op::Read(c),
                    _ => Op::CrashDuringCas(t, c, 1 + (x >> 16) % 20, seed ^ i),
                }
            })
            .collect();
        replay(&PmemPool::new(PoolConfig::small_for_tests()), &ops)
    }
    let seeds: Vec<u64> = (0..6).map(|i| 0xD15C_0B01 + 733 * i).collect();
    let one = ido_par::par_map_jobs(1, seeds.clone(), sweep_point);
    let two = ido_par::par_map_jobs(2, seeds, sweep_point);
    assert_eq!(one, two, "worker count changed recoverable-CAS outcomes");
}
