//! The four microbenchmark workloads of Section V-B, as IR programs.
//!
//! Each builder produces a program with a single `worker` function that
//! performs `n_ops` randomly chosen operations on a shared structure, using
//! a thread-local xorshift generator — mirroring the JUSTDO paper's
//! stress-test methodology the iDO paper reuses. Nodes come from
//! pre-allocated per-thread arenas (and popped nodes are abandoned, not
//! freed), so the hot paths measure the persistence runtimes rather than
//! the allocator. The structures allow increasing degrees of parallelism:
//!
//! * [`StackSpec`] — one lock, tiny critical sections (serializes);
//! * [`QueueSpec`] — two locks (M&S), enqueue/dequeue overlap;
//! * [`ListSpec`] — hand-over-hand per-node locks (threads pipeline);
//! * [`MapSpec`] — hash of hand-over-hand lists (near-linear scaling).

use ido_ir::{BinOp, BlockId, FunctionBuilder, Operand, Program, ProgramBuilder, Reg};
use ido_lockfree::NvtMap;
use ido_nvm::alloc::NvAllocator;
use ido_nvm::{PmemHandle, PAddr};
use ido_vm::Vm;

use crate::harness::WorkloadSpec;
use crate::util::{emit_arena_take, emit_bucket_hash, emit_uniform_key, emit_xorshift};

// Node field offsets shared by the list-based structures:
// [next][key][value][lock_holder]
const NEXT: i64 = 0;
const KEY: i64 = 8;
const VAL: i64 = 16;
const HOLDER: i64 = 24;

/// Builds a sorted-chain node via direct pool access (setup-time only).
fn build_node(
    h: &mut PmemHandle,
    alloc: &NvAllocator,
    key: i64,
    value: u64,
    next: PAddr,
) -> PAddr {
    let node = alloc.alloc(h, 32).expect("setup node");
    let holder = alloc.alloc(h, 8).expect("setup holder");
    h.write_u64(node, next as u64);
    h.write_u64(node + 8, key as u64);
    h.write_u64(node + 16, value);
    h.write_u64(node + 24, holder as u64);
    h.persist(node, 32);
    node
}

/// Builds a sorted chain holding every even key in `0..range` and returns
/// the sentinel (key −1).
fn build_sorted_chain(h: &mut PmemHandle, alloc: &NvAllocator, range: u64) -> PAddr {
    let mut next = 0;
    let mut k = range as i64 - 1;
    while k >= 0 {
        if k % 2 == 0 {
            next = build_node(h, alloc, k, (k as u64) << 1, next);
        }
        k -= 1;
    }
    build_node(h, alloc, -1, 0, next)
}

fn alloc_arena(vm: &mut Vm, threads: usize, ops: u64, bytes_per_op: u64) -> PAddr {
    let total = threads as u64 * ops * bytes_per_op;
    vm.setup(|h, alloc, _| alloc.alloc(h, total as usize).expect("node arena"))
}

// ---------------------------------------------------------------------
// Stack
// ---------------------------------------------------------------------

/// The locked Treiber stack workload: 50% push / 50% pop.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackSpec;

impl WorkloadSpec for StackSpec {
    fn name(&self) -> String {
        "stack".into()
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 5);
        let lock = f.param(0);
        let header = f.param(1);
        let x = f.param(2);
        let n_ops = f.param(3);
        let arena = f.param(4);
        let i = f.new_reg();

        let head = f.new_block();
        let body = f.new_block();
        let push_blk = f.new_block();
        let pop_blk = f.new_block();
        let pop_do = f.new_block();
        let pop_empty = f.new_block();
        let cont = f.new_block();
        let exit = f.new_block();

        f.mov(i, 0i64);
        f.jump(head);

        f.switch_to(head);
        let c = f.new_reg();
        f.bin(BinOp::Lt, c, i, n_ops);
        f.branch(c, body, exit);

        f.switch_to(body);
        emit_xorshift(&mut f, x);
        let bit = f.new_reg();
        f.bin(BinOp::And, bit, x, 8i64);
        f.branch(bit, push_blk, pop_blk);

        // push: node from the arena, prepared outside the critical section.
        f.switch_to(push_blk);
        let node = f.new_reg();
        emit_arena_take(&mut f, node, arena, 16);
        f.store(node, 8, Operand::Reg(x));
        f.lock(lock);
        let h = f.new_reg();
        f.load(h, header, 0);
        f.store(node, 0, Operand::Reg(h));
        f.store(header, 0, Operand::Reg(node));
        f.unlock(lock);
        f.jump(cont);

        // pop (the node is abandoned, not freed: stress-test reclamation)
        f.switch_to(pop_blk);
        f.lock(lock);
        let h2 = f.new_reg();
        f.load(h2, header, 0);
        f.branch(h2, pop_do, pop_empty);

        f.switch_to(pop_do);
        let nx = f.new_reg();
        f.load(nx, h2, 0);
        f.store(header, 0, Operand::Reg(nx));
        f.unlock(lock);
        f.jump(cont);

        f.switch_to(pop_empty);
        f.unlock(lock);
        f.jump(cont);

        f.switch_to(cont);
        f.bin(BinOp::Add, i, i, 1i64);
        f.jump(head);

        f.switch_to(exit);
        f.ret(None);
        f.finish().expect("stack worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = alloc_arena(vm, threads, ops, 16);
        vm.setup(|h, alloc, _| {
            let lock = alloc.alloc(h, 8).expect("lock holder");
            let header = alloc.alloc(h, 8).expect("header");
            h.write_u64(header, 0);
            h.persist(header, 8);
            vec![lock as u64, header as u64, arena as u64, ops * 16]
        })
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        let arena = base[2] + thread as u64 * base[3];
        vec![base[0], base[1], 0x9E3779B9u64 + 977 * thread as u64, ops, arena]
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        let mut h = vm.pool().handle();
        let mut cur = h.read_u64(base[1] as PAddr) as PAddr;
        let mut n: u64 = 0;
        while cur != 0 {
            n += 1;
            assert!(n <= total_ops, "stack chain longer than total pushes: cycle");
            cur = h.read_u64(cur) as PAddr;
        }
    }
}

// ---------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------

/// The two-lock Michael–Scott queue workload: 50% enqueue / 50% dequeue.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueSpec;

impl WorkloadSpec for QueueSpec {
    fn name(&self) -> String {
        "queue".into()
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 6);
        let enq_lock = f.param(0);
        let deq_lock = f.param(1);
        let header = f.param(2); // [head, tail]
        let x = f.param(3);
        let n_ops = f.param(4);
        let arena = f.param(5);
        let i = f.new_reg();

        let head = f.new_block();
        let body = f.new_block();
        let enq = f.new_block();
        let deq = f.new_block();
        let deq_do = f.new_block();
        let deq_empty = f.new_block();
        let cont = f.new_block();
        let exit = f.new_block();

        f.mov(i, 0i64);
        f.jump(head);

        f.switch_to(head);
        let c = f.new_reg();
        f.bin(BinOp::Lt, c, i, n_ops);
        f.branch(c, body, exit);

        f.switch_to(body);
        emit_xorshift(&mut f, x);
        let bit = f.new_reg();
        f.bin(BinOp::And, bit, x, 8i64);
        f.branch(bit, enq, deq);

        // enqueue: node prepared before the critical section (M&S).
        f.switch_to(enq);
        let node = f.new_reg();
        emit_arena_take(&mut f, node, arena, 16);
        f.store(node, 0, 0i64);
        f.store(node, 8, Operand::Reg(x));
        f.lock(enq_lock);
        let t = f.new_reg();
        f.load(t, header, 8);
        f.store(t, 0, Operand::Reg(node));
        f.store(header, 8, Operand::Reg(node));
        f.unlock(enq_lock);
        f.jump(cont);

        // dequeue
        f.switch_to(deq);
        f.lock(deq_lock);
        let hd = f.new_reg();
        f.load(hd, header, 0);
        let nx = f.new_reg();
        f.load(nx, hd, 0);
        f.branch(nx, deq_do, deq_empty);

        f.switch_to(deq_do);
        let v = f.new_reg();
        f.load(v, nx, 8);
        f.store(header, 0, Operand::Reg(nx));
        f.unlock(deq_lock);
        f.jump(cont);

        f.switch_to(deq_empty);
        f.unlock(deq_lock);
        f.jump(cont);

        f.switch_to(cont);
        f.bin(BinOp::Add, i, i, 1i64);
        f.jump(head);

        f.switch_to(exit);
        f.ret(None);
        f.finish().expect("queue worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = alloc_arena(vm, threads, ops, 16);
        vm.setup(|h, alloc, _| {
            let enq_lock = alloc.alloc(h, 8).expect("enq lock");
            let deq_lock = alloc.alloc(h, 8).expect("deq lock");
            let header = alloc.alloc(h, 16).expect("header");
            let dummy = alloc.alloc(h, 16).expect("dummy");
            h.write_u64(dummy, 0);
            h.write_u64(header, dummy as u64);
            h.write_u64(header + 8, dummy as u64);
            h.persist(dummy, 16);
            h.persist(header, 16);
            vec![enq_lock as u64, deq_lock as u64, header as u64, arena as u64, ops * 16]
        })
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        let arena = base[3] + thread as u64 * base[4];
        vec![base[0], base[1], base[2], 0xABCD_EF01u64 + 31 * thread as u64, ops, arena]
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        let mut h = vm.pool().handle();
        let header = base[2] as PAddr;
        let tail = h.read_u64(header + 8) as PAddr;
        let mut cur = h.read_u64(header) as PAddr;
        let mut n = 0u64;
        loop {
            let next = h.read_u64(cur) as PAddr;
            if next == 0 {
                break;
            }
            n += 1;
            assert!(n <= total_ops + 1, "queue chain too long: cycle");
            cur = next;
        }
        assert_eq!(cur, tail, "queue tail must be the last node reachable from head");
    }
}

// ---------------------------------------------------------------------
// Hand-over-hand list body (shared by list and map)
// ---------------------------------------------------------------------

/// Emits the hand-over-hand get/put operation body. On entry the current
/// block must be positioned where the op starts; `sentinel` holds the
/// bucket's sentinel node address, `key` the target key, `x` the value to
/// put, `opbit` selects put (nonzero) or get, and `arena` is the node
/// arena cursor. Control continues at `cont`.
fn emit_hoh_op(
    f: &mut FunctionBuilder<'_>,
    sentinel: Reg,
    key: Reg,
    x: Reg,
    opbit: Reg,
    arena: Reg,
    cont: BlockId,
) {
    let walk = f.new_block();
    let step = f.new_block();
    let at_pos = f.new_block();
    let get_path = f.new_block();
    let get_check = f.new_block();
    let get_found = f.new_block();
    let put_path = f.new_block();
    let put_check = f.new_block();
    let update = f.new_block();
    let insert = f.new_block();
    let done = f.new_block();

    // Acquire the sentinel's lock; the FASE begins here.
    let pred = f.new_reg();
    let predh = f.new_reg();
    f.mov(pred, Operand::Reg(sentinel));
    f.load(predh, pred, HOLDER);
    f.lock(predh);
    f.jump(walk);

    // walk: stop when succ == 0 or succ.key >= key
    f.switch_to(walk);
    let succ = f.new_reg();
    f.load(succ, pred, NEXT);
    let is_end = f.new_reg();
    f.bin(BinOp::Eq, is_end, succ, 0i64);
    let go_pos = f.new_block();
    f.branch(is_end, at_pos, go_pos);
    f.switch_to(go_pos);
    let sk = f.new_reg();
    f.load(sk, succ, KEY);
    let ge = f.new_reg();
    f.bin(BinOp::Ge, ge, sk, key);
    f.branch(ge, at_pos, step);

    // step: hand-over-hand — lock successor, release predecessor.
    f.switch_to(step);
    let succh = f.new_reg();
    f.load(succh, succ, HOLDER);
    f.lock(succh);
    f.unlock(predh);
    f.mov(pred, Operand::Reg(succ));
    f.mov(predh, Operand::Reg(succh));
    f.jump(walk);

    f.switch_to(at_pos);
    f.branch(opbit, put_path, get_path);

    // get
    f.switch_to(get_path);
    let is_end2 = f.new_reg();
    f.bin(BinOp::Eq, is_end2, succ, 0i64);
    f.branch(is_end2, done, get_check);
    f.switch_to(get_check);
    let sk2 = f.new_reg();
    f.load(sk2, succ, KEY);
    let eq = f.new_reg();
    f.bin(BinOp::Eq, eq, sk2, key);
    f.branch(eq, get_found, done);
    f.switch_to(get_found);
    let gh = f.new_reg();
    f.load(gh, succ, HOLDER);
    f.lock(gh);
    let v = f.new_reg();
    f.load(v, succ, VAL);
    f.unlock(gh);
    f.jump(done);

    // put
    f.switch_to(put_path);
    let is_end3 = f.new_reg();
    f.bin(BinOp::Eq, is_end3, succ, 0i64);
    f.branch(is_end3, insert, put_check);
    f.switch_to(put_check);
    let sk3 = f.new_reg();
    f.load(sk3, succ, KEY);
    let eq2 = f.new_reg();
    f.bin(BinOp::Eq, eq2, sk3, key);
    f.branch(eq2, update, insert);

    f.switch_to(update);
    let uh = f.new_reg();
    f.load(uh, succ, HOLDER);
    f.lock(uh);
    f.store(succ, VAL, Operand::Reg(x));
    f.unlock(uh);
    f.jump(done);

    f.switch_to(insert);
    // node (32 B) and its lock-holder cell (8 B) share one arena slot.
    let node = f.new_reg();
    emit_arena_take(f, node, arena, 40);
    let holder = f.new_reg();
    f.bin(BinOp::Add, holder, node, 32i64);
    f.store(node, NEXT, Operand::Reg(succ));
    f.store(node, KEY, Operand::Reg(key));
    f.store(node, VAL, Operand::Reg(x));
    f.store(node, HOLDER, Operand::Reg(holder));
    f.store(pred, NEXT, Operand::Reg(node));
    f.jump(done);

    // done: release the final predecessor lock; FASE ends.
    f.switch_to(done);
    f.unlock(predh);
    f.jump(cont);
}

fn emit_worker_loop(
    f: &mut FunctionBuilder<'_>,
    x: Reg,
    n_ops: Reg,
    emit_op: impl FnOnce(&mut FunctionBuilder<'_>, BlockId),
) {
    let i = f.new_reg();
    let head = f.new_block();
    let body = f.new_block();
    let cont = f.new_block();
    let exit = f.new_block();

    f.mov(i, 0i64);
    f.jump(head);

    f.switch_to(head);
    let c = f.new_reg();
    f.bin(BinOp::Lt, c, i, n_ops);
    f.branch(c, body, exit);

    f.switch_to(body);
    emit_xorshift(f, x);
    emit_op(f, cont);

    f.switch_to(cont);
    f.bin(BinOp::Add, i, i, 1i64);
    f.jump(head);

    f.switch_to(exit);
    f.ret(None);
}

// ---------------------------------------------------------------------
// Ordered list
// ---------------------------------------------------------------------

/// The hand-over-hand ordered list workload: 50% get / 50% put over a
/// fixed key range.
#[derive(Debug, Clone, Copy)]
pub struct ListSpec {
    /// Key range (the paper uses a fixed range; half is pre-populated).
    pub key_range: u64,
}

impl Default for ListSpec {
    fn default() -> Self {
        ListSpec { key_range: 64 }
    }
}

impl WorkloadSpec for ListSpec {
    fn name(&self) -> String {
        format!("ordered-list(range={})", self.key_range)
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 5);
        let sentinel = f.param(0);
        let x = f.param(1);
        let n_ops = f.param(2);
        let range = f.param(3);
        let arena = f.param(4);
        emit_worker_loop(&mut f, x, n_ops, |f, cont| {
            let key = f.new_reg();
            emit_uniform_key(f, key, x, range);
            let opbit = f.new_reg();
            f.bin(BinOp::And, opbit, x, 16i64);
            emit_hoh_op(f, sentinel, key, x, opbit, arena, cont);
        });
        f.finish().expect("list worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = alloc_arena(vm, threads, ops, 40);
        let range = self.key_range;
        vm.setup(|h, alloc, _| {
            let sentinel = build_sorted_chain(h, alloc, range);
            vec![sentinel as u64, arena as u64, ops * 40]
        })
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        let arena = base[1] + thread as u64 * base[2];
        vec![base[0], 0x1234_5678u64 + 101 * thread as u64, ops, self.key_range, arena]
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        let mut h = vm.pool().handle();
        verify_sorted_chain(&mut h, base[0] as PAddr, total_ops + self.key_range, |_| {});
    }
}

/// Walks the chain from `sentinel`: keys strictly increase and it ends
/// within `bound` nodes. `on_key` sees every key but the sentinel's.
fn verify_sorted_chain(
    h: &mut PmemHandle,
    sentinel: PAddr,
    bound: u64,
    mut on_key: impl FnMut(i64),
) {
    let mut last = i64::MIN;
    let mut cur = sentinel;
    let mut n = 0u64;
    while cur != 0 {
        let k = h.read_u64(cur + 8) as i64;
        assert!(k > last || cur == sentinel, "chain keys not strictly increasing");
        if cur != sentinel {
            on_key(k);
        }
        last = k;
        n += 1;
        assert!(n <= bound + 2, "chain too long: cycle suspected");
        cur = h.read_u64(cur) as PAddr;
    }
}

// ---------------------------------------------------------------------
// Hash map
// ---------------------------------------------------------------------

/// The fixed-size hash map workload: 50% get / 50% put; each bucket is a
/// hand-over-hand ordered list, so cross-bucket operations never contend.
#[derive(Debug, Clone, Copy)]
pub struct MapSpec {
    /// Number of buckets.
    pub buckets: u64,
    /// Key range.
    pub key_range: u64,
}

impl Default for MapSpec {
    fn default() -> Self {
        MapSpec { buckets: 64, key_range: 1024 }
    }
}

impl WorkloadSpec for MapSpec {
    fn name(&self) -> String {
        format!("hash-map(buckets={},range={})", self.buckets, self.key_range)
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 6);
        let directory = f.param(0); // [n_buckets][sentinel_0]...
        let x = f.param(1);
        let n_ops = f.param(2);
        let range = f.param(3);
        let n_buckets = f.param(4);
        let arena = f.param(5);
        emit_worker_loop(&mut f, x, n_ops, |f, cont| {
            let key = f.new_reg();
            emit_uniform_key(f, key, x, range);
            let b = f.new_reg();
            emit_bucket_hash(f, b, key, n_buckets);
            // sentinel = directory[1 + b]
            let off = f.new_reg();
            f.bin(BinOp::Mul, off, b, 8i64);
            let slot = f.new_reg();
            f.bin(BinOp::Add, slot, directory, Operand::Reg(off));
            let sentinel = f.new_reg();
            f.load(sentinel, slot, 8);
            let opbit = f.new_reg();
            f.bin(BinOp::And, opbit, x, 16i64);
            emit_hoh_op(f, sentinel, key, x, opbit, arena, cont);
        });
        f.finish().expect("map worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = alloc_arena(vm, threads, ops, 40);
        let buckets = self.buckets;
        vm.setup(|h, alloc, _| {
            let directory = alloc.alloc(h, 8 + buckets as usize * 8).expect("directory");
            h.write_u64(directory, buckets);
            for i in 0..buckets as usize {
                // Buckets start with just a sentinel; population happens
                // through the workload itself.
                let sentinel = build_node(h, alloc, -1, 0, 0);
                h.write_u64(directory + 8 + i * 8, sentinel as u64);
            }
            h.persist(directory, 8 + buckets as usize * 8);
            vec![directory as u64, arena as u64, ops * 40]
        })
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        let arena = base[1] + thread as u64 * base[2];
        vec![
            base[0],
            0xFEED_BEEFu64 + 313 * thread as u64,
            ops,
            self.key_range,
            self.buckets,
            arena,
        ]
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        verify_hoh_map(&mut vm.pool().handle(), base[0] as PAddr, total_ops + 1);
    }
}

/// Every bucket chain is sorted and acyclic, and every key sits in its
/// home bucket. The home bucket is recomputed on the host by
/// [`NvtMap::bucket_of`] (the directory layout is the same), never by the
/// IR emitter `emit_bucket_hash` the workers ran: that independence is
/// what catches an emitter that hashes wrongly but consistently.
fn verify_hoh_map(h: &mut PmemHandle, directory: PAddr, bound: u64) {
    let map = NvtMap::attach(h, directory);
    for b in 0..map.buckets() {
        let sentinel = h.read_u64(directory + 8 + b as usize * 8) as PAddr;
        verify_sorted_chain(h, sentinel, bound, |key| {
            assert_eq!(map.bucket_of(key), b, "key {key} found in wrong bucket {b}");
        });
    }
}

/// The hand-over-hand hash map with a *configurable* get/put mix — the
/// lock-delineated comparator of the lock-free contention sweep (`workload
/// map` with `puts`, `corpus/figures/lockfree_hoh_*.ido`). Identical to
/// [`MapSpec`] except the op choice is a permille draw instead of the fixed
/// 50/50 bit, so the same read/write mixes can be applied to both the
/// iDO-instrumented lock-based map and the recoverable-CAS map. Kept
/// separate so [`MapSpec`]'s program (and the goldens derived from it)
/// stays byte-stable.
#[derive(Debug, Clone, Copy)]
pub struct HohMapMixSpec {
    /// Number of buckets.
    pub buckets: u64,
    /// Key range.
    pub key_range: u64,
    /// Puts per 1000 operations; the rest are gets.
    pub put_permille: u64,
}

impl WorkloadSpec for HohMapMixSpec {
    fn name(&self) -> String {
        format!(
            "hoh-map-mix(buckets={},range={},put={}‰)",
            self.buckets, self.key_range, self.put_permille
        )
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 7);
        let directory = f.param(0); // [n_buckets][sentinel_0]...
        let x = f.param(1);
        let n_ops = f.param(2);
        let range = f.param(3);
        let n_buckets = f.param(4);
        let put_pm = f.param(5);
        let arena = f.param(6);
        emit_worker_loop(&mut f, x, n_ops, |f, cont| {
            let key = f.new_reg();
            emit_uniform_key(f, key, x, range);
            let b = f.new_reg();
            emit_bucket_hash(f, b, key, n_buckets);
            let off = f.new_reg();
            f.bin(BinOp::Mul, off, b, 8i64);
            let slot = f.new_reg();
            f.bin(BinOp::Add, slot, directory, Operand::Reg(off));
            let sentinel = f.new_reg();
            f.load(sentinel, slot, 8);
            // opbit = ((x >> 13) mod 1000) < put_permille — different bits
            // than the key draw so op kind and key are decorrelated.
            let r = f.new_reg();
            f.bin(BinOp::Shr, r, x, 13i64);
            let rm = f.new_reg();
            f.bin(BinOp::And, rm, r, 0x7FFF_FFFFi64);
            let pm = f.new_reg();
            f.bin(BinOp::Rem, pm, rm, 1000i64);
            let opbit = f.new_reg();
            f.bin(BinOp::Lt, opbit, pm, put_pm);
            emit_hoh_op(f, sentinel, key, x, opbit, arena, cont);
        });
        f.finish().expect("hoh-map-mix worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = alloc_arena(vm, threads, ops, 40);
        let buckets = self.buckets;
        vm.setup(|h, alloc, _| {
            let directory = alloc.alloc(h, 8 + buckets as usize * 8).expect("directory");
            h.write_u64(directory, buckets);
            for i in 0..buckets as usize {
                let sentinel = build_node(h, alloc, -1, 0, 0);
                h.write_u64(directory + 8 + i * 8, sentinel as u64);
            }
            h.persist(directory, 8 + buckets as usize * 8);
            vec![directory as u64, arena as u64, ops * 40]
        })
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        let arena = base[1] + thread as u64 * base[2];
        vec![
            base[0],
            0xFEED_BEEFu64 + 313 * thread as u64,
            ops,
            self.key_range,
            self.buckets,
            self.put_permille,
            arena,
        ]
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        verify_hoh_map(&mut vm.pool().handle(), base[0] as PAddr, total_ops + 1);
    }
}

// ---------------------------------------------------------------------
// Twin counter (crash-oracle microbenchmark)
// ---------------------------------------------------------------------

/// The twin-counter workload: each operation, under one global lock,
/// increments two counter words that live on *different* cache lines.
///
/// This is the canonical crash-consistency probe (the invariant program of
/// `crates/vm/tests/crash_recovery.rs`, packaged as a [`WorkloadSpec`] so
/// the crash oracle in `ido-crashtest` can drive it): after any crash and
/// recovery the two words must agree — a disagreement is a torn FASE, and
/// because the words are on different lines, every partial write-back
/// schedule that could tear them is reachable by losing one line and not
/// the other.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwinSpec;

impl WorkloadSpec for TwinSpec {
    fn name(&self) -> String {
        "twin-counter".into()
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 3);
        let lock = f.param(0);
        let cell = f.param(1);
        let n_ops = f.param(2);

        let i = f.new_reg();
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();

        f.mov(i, 0i64);
        f.jump(head);

        f.switch_to(head);
        let c = f.new_reg();
        f.bin(BinOp::Lt, c, i, n_ops);
        f.branch(c, body, exit);

        f.switch_to(body);
        let a = f.new_reg();
        let a2 = f.new_reg();
        let b = f.new_reg();
        let b2 = f.new_reg();
        f.lock(lock);
        f.load(a, cell, 0);
        f.bin(BinOp::Add, a2, a, 1i64);
        f.store(cell, 0, Operand::Reg(a2));
        f.load(b, cell, 64);
        f.bin(BinOp::Add, b2, b, 1i64);
        f.store(cell, 64, Operand::Reg(b2));
        f.unlock(lock);
        f.bin(BinOp::Add, i, i, 1i64);
        f.jump(head);

        f.switch_to(exit);
        f.ret(None);
        f.finish().expect("twin worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, _threads: usize, _ops: u64) -> Vec<u64> {
        vm.setup(|h, alloc, _| {
            let lock = alloc.alloc(h, 8).expect("lock holder");
            let cell = alloc.alloc(h, 128).expect("twin cells");
            h.write_u64(cell, 0);
            h.write_u64(cell + 64, 0);
            h.persist(cell, 128);
            vec![lock as u64, cell as u64]
        })
    }

    fn worker_args(&self, base: &[u64], _thread: usize, ops: u64) -> Vec<u64> {
        vec![base[0], base[1], ops]
    }

    /// Prefix-safe invariants, valid after a crash and recovery as well as
    /// after a clean run: the twins agree (failure atomicity) and never
    /// exceed the number of FASEs issued (no double-applied increments).
    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        let mut h = vm.pool().handle();
        let cell = base[1] as PAddr;
        let v0 = h.read_u64(cell);
        let v64 = h.read_u64(cell + 64);
        assert_eq!(v0, v64, "torn FASE: twin counters disagree ({v0} vs {v64})");
        assert!(v0 <= total_ops, "overcounted: {v0} increments from {total_ops} FASEs");
    }
}

// ---------------------------------------------------------------------
// Allocator churn
// ---------------------------------------------------------------------

/// Slots in each thread's private persistent pointer array.
const CHURN_SLOTS: u64 = 64;

/// The allocator-stress workload: each thread churns a private array of
/// persistent pointer slots, allocating into empty slots and freeing full
/// ones, with sizes spread across every small size class. Unlike the four
/// Section V-B structures (which deliberately pre-allocate arenas so the
/// persistence runtimes dominate), this workload puts `nv_malloc`/`nv_free`
/// itself on the hot path — it is what the 64–256-thread allocator scaling
/// sweeps run to compare [`ido_nvm::AllocPolicy`] variants.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocChurnSpec;

impl WorkloadSpec for AllocChurnSpec {
    fn name(&self) -> String {
        "alloc_churn".into()
    }

    fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("worker", 3);
        let x = f.param(0);
        let n_ops = f.param(1);
        let slots = f.param(2);
        let i = f.new_reg();

        let head = f.new_block();
        let body = f.new_block();
        let do_alloc = f.new_block();
        let do_free = f.new_block();
        let cont = f.new_block();
        let exit = f.new_block();

        f.mov(i, 0i64);
        f.jump(head);

        f.switch_to(head);
        let c = f.new_reg();
        f.bin(BinOp::Lt, c, i, n_ops);
        f.branch(c, body, exit);

        f.switch_to(body);
        emit_xorshift(&mut f, x);
        // cell = &slots[x % CHURN_SLOTS]
        let off = f.new_reg();
        let cell = f.new_reg();
        f.bin(BinOp::And, off, x, (CHURN_SLOTS as i64 - 1) * 8);
        f.bin(BinOp::Add, cell, slots, off);
        let ptr = f.new_reg();
        f.load(ptr, cell, 0);
        f.branch(ptr, do_free, do_alloc);

        // Empty slot: allocate 8..=512 bytes (hits every small class) and
        // publish the address into the slot.
        f.switch_to(do_alloc);
        let size = f.new_reg();
        let node = f.new_reg();
        f.bin(BinOp::And, size, x, 0x1F8i64);
        f.bin(BinOp::Add, size, size, 8i64);
        f.alloc(node, size);
        f.store(node, 0, Operand::Reg(x));
        f.store(cell, 0, Operand::Reg(node));
        f.jump(cont);

        // Full slot: retire the pointer, then free the block.
        f.switch_to(do_free);
        f.store(cell, 0, 0i64);
        f.free(ptr);
        f.jump(cont);

        f.switch_to(cont);
        f.bin(BinOp::Add, i, i, 1i64);
        f.jump(head);

        f.switch_to(exit);
        f.ret(None);
        f.finish().expect("alloc churn worker verifies");
        pb.finish()
    }

    fn setup(&self, vm: &mut Vm, threads: usize, _ops: u64) -> Vec<u64> {
        vm.setup(|h, alloc, _| {
            let bytes = threads as u64 * CHURN_SLOTS * 8;
            let slots = alloc.alloc(h, bytes as usize).expect("churn slot array");
            for w in 0..threads as u64 * CHURN_SLOTS {
                h.write_u64(slots + (w * 8) as usize, 0);
            }
            h.persist(slots, bytes as usize);
            vec![slots as u64, bytes]
        })
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        let slots = base[0] + thread as u64 * CHURN_SLOTS * 8;
        vec![0x9E3779B9u64 + 977 * thread as u64, ops, slots]
    }

    fn verify(&self, vm: &Vm, base: &[u64], _total_ops: u64) {
        let mut h = vm.pool().handle();
        // Every published slot must hold a plausible heap pointer (and
        // distinct slots distinct pointers); the VM would already have
        // panicked on a double-alloc'd or corrupt free, so this checks the
        // slot array itself survived intact.
        let mut seen = std::collections::HashSet::new();
        for w in 0..base[1] / 8 {
            let v = h.read_u64(base[0] as PAddr + (w * 8) as usize) as PAddr;
            if v != 0 {
                assert_eq!(v % 8, 0, "slot holds unaligned pointer {v:#x}");
                assert!(seen.insert(v), "two slots hold the same block {v:#x}");
            }
        }
    }
}
