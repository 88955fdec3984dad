//! Lock-free persistent workloads over the recoverable-CAS family
//! (`Scheme::Nvtraverse` / `Scheme::LfEager`, see `ido-lockfree`).
//!
//! These specs express the NVTraverse-style sorted list and hash map as IR
//! programs, so the full pipeline runs on them: `instrument_lockfree`
//! wraps every `Inst::Cas` with flush-window / prepare / publish runtime
//! ops, the VM executes the recoverable-CAS protocol (both tiers — tier 2
//! deopts at `Cas`, so the tiers agree by construction), and recovery
//! resolves in-flight descriptors instead of resuming FASEs.
//!
//! **Key discipline** (what makes the invariants exact): worker `t`
//! inserts key `(j << 8) | t` for its `j`-th insert, with value
//! `2·key + 1`. Keys are globally unique and per-thread sequential, so
//! after *any* crash + recovery:
//!
//! * the odd-value invariant catches any node whose contents line escaped
//!   unflushed (a zeroed or torn node has an even/wrong value);
//! * thread `t`'s keys present in the structure must be *exactly*
//!   `0..done(t)` — its first `done(t)` inserts, where `done(t)` is the
//!   durable success counter in its recoverable-CAS descriptor. A missing
//!   key is a lost effect, an extra key a duplicated/phantom effect, and
//!   either panics the verifier. This is the linearizability obligation
//!   of ISSUE 9 reduced to a checkable per-thread prefix property.

use ido_ir::{BinOp, FunctionBuilder, Operand, Program, ProgramBuilder, Reg};
use ido_lockfree::{align64, LfState, NvtList, NvtMap, NODE_BYTES, NODE_KEY, NODE_NEXT, NODE_NEXT_TAG, NODE_VAL};
use ido_nvm::{PAddr, PmemHandle};
use ido_vm::layout::Registry;
use ido_vm::Vm;

use crate::harness::WorkloadSpec;
use crate::util::{emit_bucket_hash, emit_xorshift};

/// Emits a lock-free sorted-list insert of `key`/`val` into the chain
/// anchored at the sentinel node in `head`. Allocates a 64-byte node from
/// `arena` (the arena base is line-aligned and slots are 64 B, so every
/// node is line-aligned — the cell `[next, tag]` pair must share a line
/// for the recoverable-CAS tag witness to be sound), initializes it, then
/// loops: traverse to the insertion point, link, CAS the predecessor's
/// next cell. A failed CAS (a racing insert changed the predecessor)
/// retries from the head. Keys are unique by construction, so there is no
/// duplicate path. Control continues at `cont` once the CAS is taken.
fn emit_lf_insert(
    f: &mut FunctionBuilder<'_>,
    head: Reg,
    key: Reg,
    val: Reg,
    arena: Reg,
    cont: ido_ir::BlockId,
) {
    let retry = f.new_block();
    let walk = f.new_block();
    let chk = f.new_block();
    let step = f.new_block();
    let at_pos = f.new_block();

    let node = f.new_reg();
    crate::util::emit_arena_take(f, node, arena, NODE_BYTES as i64);
    f.store(node, NODE_KEY as i64, Operand::Reg(key));
    f.store(node, NODE_VAL as i64, Operand::Reg(val));
    f.store(node, NODE_NEXT_TAG as i64, 0i64);
    f.jump(retry);

    f.switch_to(retry);
    let pred = f.new_reg();
    let cur = f.new_reg();
    f.mov(pred, Operand::Reg(head));
    f.load(cur, pred, NODE_NEXT as i64);
    f.jump(walk);

    // walk: stop at end-of-chain or at the first key >= ours.
    f.switch_to(walk);
    let is_end = f.new_reg();
    f.bin(BinOp::Eq, is_end, cur, 0i64);
    f.branch(is_end, at_pos, chk);

    f.switch_to(chk);
    let ck = f.new_reg();
    f.load(ck, cur, NODE_KEY as i64);
    let ge = f.new_reg();
    f.bin(BinOp::Ge, ge, ck, key);
    f.branch(ge, at_pos, step);

    f.switch_to(step);
    f.mov(pred, Operand::Reg(cur));
    f.load(cur, pred, NODE_NEXT as i64);
    f.jump(walk);

    // at_pos: link the node, then the critical write. Instrumentation
    // inserts LfFlushWindow + LfCasPrepare immediately before the Cas
    // (persisting the node contents and every traversed line first) and
    // LfCasPublish immediately after.
    f.switch_to(at_pos);
    f.store(node, NODE_NEXT as i64, Operand::Reg(cur));
    let taken = f.new_reg();
    f.cas(taken, pred, NODE_NEXT as i64, Operand::Reg(cur), Operand::Reg(node));
    f.branch(taken, cont, retry);
}

/// Emits a lock-free lookup of `key` in the chain anchored at `head`:
/// walk to the first key >= ours, load the value on a hit. Loads are
/// tracked into the flush window under NVTraverse (and flushed by the
/// next CAS's window flush), untracked under LF-Eager.
fn emit_lf_lookup(f: &mut FunctionBuilder<'_>, head: Reg, key: Reg, cont: ido_ir::BlockId) {
    let walk = f.new_block();
    let chk = f.new_block();
    let step = f.new_block();
    let at = f.new_block();
    let hit = f.new_block();

    let cur = f.new_reg();
    f.load(cur, head, NODE_NEXT as i64);
    f.jump(walk);

    f.switch_to(walk);
    let is_end = f.new_reg();
    f.bin(BinOp::Eq, is_end, cur, 0i64);
    f.branch(is_end, cont, chk);

    f.switch_to(chk);
    let ck = f.new_reg();
    f.load(ck, cur, NODE_KEY as i64);
    let ge = f.new_reg();
    f.bin(BinOp::Ge, ge, ck, key);
    f.branch(ge, at, step);

    f.switch_to(step);
    f.load(cur, cur, NODE_NEXT as i64);
    f.jump(walk);

    f.switch_to(at);
    let eq = f.new_reg();
    f.bin(BinOp::Eq, eq, ck, key);
    f.branch(eq, hit, cont);

    f.switch_to(hit);
    let v = f.new_reg();
    f.load(v, cur, NODE_VAL as i64);
    f.jump(cont);
}

/// Allocates a line-aligned per-run node arena: `threads × ops` 64-byte
/// slots. Separate from `micro::alloc_arena` because lock-free nodes
/// *must* start on a cache-line boundary (the over-allocated alignment
/// padding is leaked, like that of `NvtList::create`'s sentinel — see DESIGN.md
/// §13's caveats).
fn alloc_lf_arena(h: &mut PmemHandle, alloc: &ido_nvm::alloc::NvAllocator, threads: usize, ops: u64) -> PAddr {
    let total = threads as u64 * ops * NODE_BYTES as u64;
    let raw = alloc.alloc(h, total as usize + 64).expect("lock-free node arena");
    align64(raw)
}

/// Walks every chain of the structure, enforcing the odd-value invariant,
/// and checks that each registered thread's present keys are exactly its
/// first `done(t)` inserts (see the module docs). `chains` yields each
/// chain's sentinel.
fn check_prefix_invariant(vm: &Vm, chains: &[PAddr], bound: usize) {
    let mut h = vm.pool().handle();
    let st: LfState = vm.lf_state().expect("lock-free scheme must carry lf_state");
    let threads = Registry::open(&mut h).expect("thread registry").count(&mut h);

    // Collect (thread, seq) per present key across all chains.
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); threads];
    let mut total = 0usize;
    for &sentinel in chains {
        let mut cur = h.read_u64(sentinel + NODE_NEXT) as PAddr;
        while cur != 0 {
            total += 1;
            assert!(total <= bound, "structure holds more than {bound} keys: phantom inserts");
            let key = h.read_u64(cur + NODE_KEY);
            let val = h.read_u64(cur + NODE_VAL);
            assert_eq!(
                val,
                2 * key + 1,
                "node {cur:#x} key {key}: value {val} escaped before its contents \
                 line was persisted"
            );
            let t = (key & 0xFF) as usize;
            assert!(t < threads, "key {key:#x} claims unregistered thread {t}");
            per[t].push(key >> 8);
            cur = h.read_u64(cur + NODE_NEXT) as PAddr;
        }
    }

    let mut done_total = 0u64;
    for (t, seqs) in per.iter_mut().enumerate() {
        let done = st.done_count(&mut h, t as u32);
        done_total += done;
        seqs.sort_unstable();
        let want: Vec<u64> = (0..done).collect();
        assert_eq!(
            *seqs, want,
            "thread {t}: present keys must be exactly its first {done} \
             durably-taken inserts (missing = lost effect, extra = duplicated)"
        );
    }
    assert_eq!(total as u64, done_total, "chain population vs durable success counters");
}

// ---------------------------------------------------------------------
// Sorted list
// ---------------------------------------------------------------------

/// Insert-only lock-free sorted list: thread `t`'s `i`-th op inserts key
/// `(i << 8) | t` with value `2·key + 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LfListSpec;

impl WorkloadSpec for LfListSpec {
    fn name(&self) -> String {
        "lf-list".into()
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 4);
        let head = f.param(0);
        let tid = f.param(1);
        let n_ops = f.param(2);
        let arena = f.param(3);

        let i = f.new_reg();
        let loop_head = f.new_block();
        let body = f.new_block();
        let cont = f.new_block();
        let exit = f.new_block();

        f.mov(i, 0i64);
        f.jump(loop_head);

        f.switch_to(loop_head);
        let c = f.new_reg();
        f.bin(BinOp::Lt, c, i, n_ops);
        f.branch(c, body, exit);

        f.switch_to(body);
        let key = f.new_reg();
        f.bin(BinOp::Shl, key, i, 8i64);
        f.bin(BinOp::Or, key, key, tid);
        let val = f.new_reg();
        f.bin(BinOp::Mul, val, key, 2i64);
        f.bin(BinOp::Add, val, val, 1i64);
        emit_lf_insert(&mut f, head, key, val, arena, cont);

        f.switch_to(cont);
        f.bin(BinOp::Add, i, i, 1i64);
        f.jump(loop_head);

        f.switch_to(exit);
        f.ret(None);
        f.finish().expect("lf-list worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        vm.setup(|h, alloc, _| {
            let list = NvtList::create(h, alloc).expect("lf list");
            let arena = alloc_lf_arena(h, alloc, threads, ops);
            vec![list.head as u64, arena as u64, ops * NODE_BYTES as u64]
        })
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        let arena = base[1] + thread as u64 * base[2];
        vec![base[0], thread as u64, ops, arena]
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        let mut h = vm.pool().handle();
        let list = NvtList::attach(base[0] as PAddr);
        // Structural pass: alignment, strict ordering, cycle bound.
        list.check_invariants(&mut h, total_ops as usize);
        drop(h);
        // Semantic pass: per-thread durable-prefix exactness.
        check_prefix_invariant(vm, &[base[0] as PAddr], total_ops as usize);
    }
}

// ---------------------------------------------------------------------
// Hash map
// ---------------------------------------------------------------------

/// Lock-free hash map with a configurable get/put mix. Puts insert
/// per-thread sequential keys `(seq << 8) | t` (never colliding, so the
/// durable-prefix invariant stays exact even though the op mix is
/// random); gets draw uniform keys over the scaled key space and walk
/// their home bucket.
#[derive(Debug, Clone, Copy)]
pub struct LfMapSpec {
    /// Number of buckets.
    pub buckets: u64,
    /// Key range for lookups (scaled by 256 to cover the encoded space).
    pub key_range: u64,
    /// Puts per 1000 operations; the rest are gets.
    pub put_permille: u64,
}

impl Default for LfMapSpec {
    fn default() -> Self {
        LfMapSpec { buckets: 16, key_range: 128, put_permille: 500 }
    }
}

impl WorkloadSpec for LfMapSpec {
    fn name(&self) -> String {
        format!(
            "lf-map(buckets={},range={},put={}‰)",
            self.buckets, self.key_range, self.put_permille
        )
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 8);
        let dir = f.param(0); // [n_buckets][head_0]...
        let tid = f.param(1);
        let n_ops = f.param(2);
        let x = f.param(3);
        let n_buckets = f.param(4);
        let range_scaled = f.param(5); // key_range << 8
        let put_pm = f.param(6);
        let arena = f.param(7);

        let i = f.new_reg();
        let seq = f.new_reg();
        let loop_head = f.new_block();
        let body = f.new_block();
        let put_path = f.new_block();
        let get_path = f.new_block();
        let cont = f.new_block();
        let exit = f.new_block();

        f.mov(i, 0i64);
        f.mov(seq, 0i64);
        f.jump(loop_head);

        f.switch_to(loop_head);
        let c = f.new_reg();
        f.bin(BinOp::Lt, c, i, n_ops);
        f.branch(c, body, exit);

        f.switch_to(body);
        emit_xorshift(&mut f, x);
        // op kind: ((x >> 3) mod 1000) < put_permille
        let r = f.new_reg();
        f.bin(BinOp::Shr, r, x, 3i64);
        let rm = f.new_reg();
        f.bin(BinOp::And, rm, r, 0x7FFF_FFFFi64);
        let pm = f.new_reg();
        f.bin(BinOp::Rem, pm, rm, 1000i64);
        let is_put = f.new_reg();
        f.bin(BinOp::Lt, is_put, pm, put_pm);
        f.branch(is_put, put_path, get_path);

        // put: key = (seq << 8) | tid, advancing the per-thread sequence.
        f.switch_to(put_path);
        let pkey = f.new_reg();
        f.bin(BinOp::Shl, pkey, seq, 8i64);
        f.bin(BinOp::Or, pkey, pkey, tid);
        f.bin(BinOp::Add, seq, seq, 1i64);
        let pval = f.new_reg();
        f.bin(BinOp::Mul, pval, pkey, 2i64);
        f.bin(BinOp::Add, pval, pval, 1i64);
        let pb_ = f.new_reg();
        emit_bucket_hash(&mut f, pb_, pkey, n_buckets);
        let poff = f.new_reg();
        f.bin(BinOp::Mul, poff, pb_, 8i64);
        let pslot = f.new_reg();
        f.bin(BinOp::Add, pslot, dir, Operand::Reg(poff));
        let phead = f.new_reg();
        f.load(phead, pslot, 8);
        emit_lf_insert(&mut f, phead, pkey, pval, arena, cont);

        // get: uniform key over the scaled space, decorrelated bits.
        f.switch_to(get_path);
        let gkey = f.new_reg();
        let gr = f.new_reg();
        f.bin(BinOp::Shr, gr, x, 13i64);
        let grm = f.new_reg();
        f.bin(BinOp::And, grm, gr, 0x7FFF_FFFFi64);
        f.bin(BinOp::Rem, gkey, grm, range_scaled);
        let gb = f.new_reg();
        emit_bucket_hash(&mut f, gb, gkey, n_buckets);
        let goff = f.new_reg();
        f.bin(BinOp::Mul, goff, gb, 8i64);
        let gslot = f.new_reg();
        f.bin(BinOp::Add, gslot, dir, Operand::Reg(goff));
        let ghead = f.new_reg();
        f.load(ghead, gslot, 8);
        emit_lf_lookup(&mut f, ghead, gkey, cont);

        f.switch_to(cont);
        f.bin(BinOp::Add, i, i, 1i64);
        f.jump(loop_head);

        f.switch_to(exit);
        f.ret(None);
        f.finish().expect("lf-map worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let buckets = self.buckets;
        vm.setup(|h, alloc, _| {
            let map = NvtMap::create(h, alloc, buckets as u32).expect("lf map");
            let arena = alloc_lf_arena(h, alloc, threads, ops);
            vec![map.dir as u64, arena as u64, ops * NODE_BYTES as u64]
        })
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        let arena = base[1] + thread as u64 * base[2];
        vec![
            base[0],
            thread as u64,
            ops,
            0xC0FF_EE00u64 + 977 * thread as u64,
            self.buckets,
            self.key_range << 8,
            self.put_permille,
            arena,
        ]
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        let mut h = vm.pool().handle();
        let map = NvtMap::attach(&mut h, base[0] as PAddr);
        // Structural pass: per-bucket ordering/alignment + home-bucket
        // placement (recomputes the Fibonacci hash natively — this is
        // what pins the IR hash emitter to `NvtMap::bucket_of`).
        map.check_invariants(&mut h, total_ops as usize);
        let chains: Vec<PAddr> =
            (0..map.buckets()).map(|b| map.bucket(&mut h, b).head).collect();
        drop(h);
        check_prefix_invariant(vm, &chains, total_ops as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_workload;
    use crate::micro::HohMapMixSpec;
    use ido_compiler::{instrument_program, Scheme};
    use ido_nvm::PoolConfig;
    use ido_vm::{ExecTier, RunOutcome, SchedPolicy, VmConfig};

    fn small_config(tier: ExecTier) -> VmConfig {
        VmConfig {
            pool: PoolConfig { size: 8 << 20, ..PoolConfig::default() },
            tier,
            ..VmConfig::default()
        }
    }

    /// Completed runs must leave *exactly* ops-per-thread durable
    /// successes per thread — run manually (not via `run_workload`) so
    /// the post-completion exactness holds on top of the prefix
    /// invariant `verify` enforces.
    #[test]
    fn lf_list_inserts_exactly_under_both_schemes_and_tiers() {
        for scheme in Scheme::LOCKFREE {
            for tier in [ExecTier::Tier1, ExecTier::Tier2] {
                let spec = LfListSpec;
                let (threads, ops) = (3usize, 8u64);
                let program =
                    instrument_program(spec.build_program(), scheme).expect("instruments");
                let mut config = small_config(tier);
                config.sched = SchedPolicy::MinClock;
                let mut vm = Vm::new(program, config);
                let base = spec.setup(&mut vm, threads, ops);
                for t in 0..threads {
                    vm.spawn("worker", &spec.worker_args(&base, t, ops));
                }
                assert_eq!(vm.run(), RunOutcome::Completed, "{scheme}/{tier:?}");
                let total = threads as u64 * ops;
                spec.verify(&vm, &base, total);
                let st = vm.lf_state().expect("lf_state");
                let mut h = vm.pool().handle();
                for t in 0..threads {
                    assert_eq!(
                        st.done_count(&mut h, t as u32),
                        ops,
                        "{scheme}/{tier:?} thread {t}: completed run must close \
                         every insert"
                    );
                }
            }
        }
    }

    #[test]
    fn lf_map_mixed_ops_verify_under_both_schemes_and_tiers() {
        let spec = LfMapSpec { buckets: 8, key_range: 64, put_permille: 600 };
        for scheme in Scheme::LOCKFREE {
            for tier in [ExecTier::Tier1, ExecTier::Tier2] {
                let stats = run_workload(scheme, &spec, 3, 12, small_config(tier));
                assert_eq!(stats.total_ops, 36, "{scheme}/{tier:?}");
                assert!(stats.sim_ns > 0);
            }
        }
    }

    /// The two tiers must agree on persistence behavior, not just results:
    /// `Inst::Cas` is non-fusible, so tier 2 deopts into the same
    /// interpreter path and the persist-event counts match exactly.
    #[test]
    fn tiers_agree_on_persist_event_counts() {
        for scheme in Scheme::LOCKFREE {
            let spec = LfMapSpec { buckets: 4, key_range: 32, put_permille: 500 };
            let t1 = run_workload(scheme, &spec, 2, 10, small_config(ExecTier::Tier1));
            let t2 = run_workload(scheme, &spec, 2, 10, small_config(ExecTier::Tier2));
            assert_eq!(
                t1.mem_stats.clwbs, t2.mem_stats.clwbs,
                "{scheme}: tier write-back divergence"
            );
            assert_eq!(
                t1.mem_stats.fences, t2.mem_stats.fences,
                "{scheme}: tier fence divergence"
            );
        }
    }

    /// The lock-based comparator runs the same mix shape under iDO — the
    /// pairing `lockfree_bench` sweeps.
    #[test]
    fn hoh_map_mix_runs_under_ido_and_baselines() {
        let spec = HohMapMixSpec { buckets: 8, key_range: 64, put_permille: 600 };
        for scheme in [Scheme::Ido, Scheme::Atlas, Scheme::JustDo] {
            let stats = run_workload(scheme, &spec, 2, 20, small_config(ExecTier::Tier1));
            assert_eq!(stats.total_ops, 40, "{scheme}");
        }
    }
}
