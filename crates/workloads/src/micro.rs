//! The four microbenchmark workloads of Section V-B, plus the twin counter
//! and allocator churn.
//!
//! Each program (`corpus/<kind>.ido`) has a single `worker` function that
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

use ido_ir::Program;
use ido_lockfree::NvtMap;
use ido_nvm::alloc::NvAllocator;
use ido_nvm::{PmemHandle, PAddr};
use ido_vm::Vm;

use crate::harness::WorkloadSpec;
use crate::{corpus_program, node_arena};

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
        corpus_program("stack")
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = node_arena(vm, threads, ops, 16);
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
        corpus_program("queue")
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = node_arena(vm, threads, ops, 16);
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
        corpus_program("list")
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = node_arena(vm, threads, ops, 40);
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
        corpus_program("map")
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = node_arena(vm, threads, ops, 40);
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
/// [`NvtMap::bucket_of`] (the directory layout is the same), never from
/// the hash code the workers ran: that independence is what catches a
/// program that hashes wrongly but consistently.
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
        corpus_program("map_mix")
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        let arena = node_arena(vm, threads, ops, 40);
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
        corpus_program("twin")
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
        corpus_program("alloc_churn")
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
