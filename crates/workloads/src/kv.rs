//! The Memcached-like and Redis-like key-value workloads (Section V-A).
//!
//! Both stores are bucket-chained hash tables over the simulated persistent
//! heap (node layout `[next][key][value]`); the network/protocol layers of
//! the real servers are irrelevant to persistence overhead and are elided.
//!
//! * [`memcached`]: multi-threaded with the coarse-grained single lock of
//!   Memcached 1.2.4 (the version the paper instruments via WHISPER);
//!   uniformly distributed keys; insertion-intensive (50% set) and
//!   search-intensive (10% set) mixes.
//! * [`redis`]: single-threaded; `put` operations are wrapped in
//!   programmer-delineated durable regions (the NVML-style annotations the
//!   paper builds on), `get`s run outside FASEs; 80% get / 20% put with a
//!   power-law key distribution over a configurable key range.
//!
//! The programs are `corpus/memcached.ido` and `corpus/redis.ido`. Each
//! operation pays a 300 ns `delay` for what the IR does not model: a
//! Memcached op's item bookkeeping and LRU maintenance, inside the global
//! lock, and a Redis op's command dispatch, before any durable region. Both
//! open their metrics span (`op_begin`, kind 1 = get, 2 = put) before the
//! lock, so a recorded latency includes the queueing behind it.

use ido_ir::Program;
use ido_nvm::alloc::NvAllocator;
use ido_nvm::{PmemHandle, PAddr};
use ido_vm::Vm;

use crate::harness::WorkloadSpec;
use crate::{corpus_program, node_arena};

// Item layout mirrors a real cache item: link, key, value, flags, cas id,
// and an expiry/LRU timestamp.
const ITEM_BYTES: i64 = 48;

fn build_chain_node(h: &mut PmemHandle, alloc: &NvAllocator, key: i64, value: u64, next: PAddr) -> PAddr {
    let node = alloc.alloc(h, ITEM_BYTES as usize).expect("setup node");
    h.write_u64(node, next as u64);
    h.write_u64(node + 8, key as u64);
    h.write_u64(node + 16, value);
    h.write_u64(node + 24, 0);
    h.write_u64(node + 32, 0);
    h.write_u64(node + 40, 0);
    h.persist(node, ITEM_BYTES as usize);
    node
}

/// The bucket the programs probe for `key`: `corpus/memcached.ido` and
/// `corpus/redis.ido` compute `((key · 0x9E3779B97F4A7C15) >> 32) mod
/// buckets`.
fn home_bucket(key: u64, buckets: u64) -> u64 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % buckets
}

/// Builds the hash directory `[n_buckets][head_0]…`, pre-populating even
/// keys of `0..range` into sorted chains, each in its home bucket. Returns
/// the directory address.
fn build_table(h: &mut PmemHandle, alloc: &NvAllocator, buckets: u64, range: u64) -> PAddr {
    let directory = alloc.alloc(h, 8 + buckets as usize * 8).expect("directory");
    h.write_u64(directory, buckets);
    let mut heads = vec![0 as PAddr; buckets as usize];
    let mut k = range as i64 - 1;
    while k >= 0 {
        if k % 2 == 0 {
            let b = home_bucket(k as u64, buckets);
            heads[b as usize] = build_chain_node(h, alloc, k, (k as u64) << 1, heads[b as usize]);
        }
        k -= 1;
    }
    for (i, head) in heads.iter().enumerate() {
        h.write_u64(directory + 8 + i * 8, *head as u64);
    }
    h.persist(directory, 8 + buckets as usize * 8);
    directory
}

/// The Memcached-like workload.
pub mod memcached {
    use super::*;

    /// Spec: multi-threaded coarse-locked KV cache.
    #[derive(Debug, Clone, Copy)]
    pub struct MemcachedSpec {
        /// Buckets in the hash table.
        pub buckets: u64,
        /// Key range (uniform keys).
        pub key_range: u64,
        /// Set-operation rate in permille (insertion-intensive = 500,
        /// search-intensive = 100).
        pub put_permille: u64,
    }

    impl MemcachedSpec {
        /// The paper's insertion-intensive mix (50% set / 50% get).
        pub fn insertion_intensive() -> Self {
            MemcachedSpec { buckets: 256, key_range: 4096, put_permille: 500 }
        }
    }

    impl WorkloadSpec for MemcachedSpec {
        fn name(&self) -> String {
            format!("memcached(put={}‰)", self.put_permille)
        }

        fn build_program(&self) -> Program {
            corpus_program("memcached")
        }

        fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
            let arena = node_arena(vm, threads, ops, ITEM_BYTES as u64);
            let (buckets, range) = (self.buckets, self.key_range);
            vm.setup(|h, alloc, _| {
                let lock = alloc.alloc(h, 8).expect("lock holder");
                let directory = build_table(h, alloc, buckets, range);
                vec![lock as u64, directory as u64, arena as u64, ops * ITEM_BYTES as u64]
            })
        }

        fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
            let arena = base[2] + thread as u64 * base[3];
            vec![
                base[0],
                base[1],
                0x5DEECE66Du64 + 7919 * thread as u64,
                ops,
                self.key_range,
                self.buckets,
                self.put_permille,
                arena,
            ]
        }

        fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
            verify_table(vm, base[1] as PAddr, total_ops + self.key_range);
        }
    }
}

/// The Redis-like workload.
pub mod redis {
    use super::*;

    /// Spec: single-threaded object store with programmer-delineated
    /// durable regions on the write path.
    #[derive(Debug, Clone, Copy)]
    pub struct RedisSpec {
        /// Buckets (fixed, so larger key ranges mean longer chains — the
        /// paper's "database grows, search dominates" effect).
        pub buckets: u64,
        /// Key range (the paper sweeps 10K / 100K / 1M).
        pub key_range: u64,
        /// Put rate in permille (the lru client issues 80% get / 20% put).
        pub put_permille: u64,
    }

    impl RedisSpec {
        /// A Redis instance over `key_range` keys (buckets fixed at 1024).
        pub fn with_range(key_range: u64) -> Self {
            RedisSpec { buckets: 1024, key_range, put_permille: 200 }
        }
    }

    impl WorkloadSpec for RedisSpec {
        fn name(&self) -> String {
            format!("redis(range={})", self.key_range)
        }

        fn build_program(&self) -> Program {
            corpus_program("redis")
        }

        fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
            let arena = node_arena(vm, threads, ops, ITEM_BYTES as u64);
            let (buckets, range) = (self.buckets, self.key_range);
            vm.setup(|h, alloc, _| {
                let directory = build_table(h, alloc, buckets, range);
                vec![directory as u64, arena as u64, ops * ITEM_BYTES as u64]
            })
        }

        fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
            let arena = base[1] + thread as u64 * base[2];
            vec![
                base[0],
                0xC0_FFEE_5EEDu64 + 271 * thread as u64,
                ops,
                self.key_range,
                self.buckets,
                self.put_permille,
                arena,
            ]
        }

        fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
            verify_table(vm, base[0] as PAddr, total_ops + self.key_range);
        }
    }
}

/// Every bucket chain is sorted and acyclic, and every key sits in its home
/// bucket, recomputed on the host by [`home_bucket`]. A key has one home
/// and a chain is strictly increasing, so no key appears twice.
fn verify_table(vm: &Vm, directory: PAddr, bound: u64) {
    let mut h = vm.pool().handle();
    let buckets = h.read_u64(directory);
    for i in 0..buckets as usize {
        let mut cur = h.read_u64(directory + 8 + i * 8) as PAddr;
        let mut last = i64::MIN;
        let mut n = 0u64;
        while cur != 0 {
            let k = h.read_u64(cur + 8) as i64;
            assert!(k > last, "bucket {i}: chain keys not strictly increasing");
            let home = home_bucket(k as u64, buckets);
            assert_eq!(home, i as u64, "key {k} found in wrong bucket {i}");
            last = k;
            n += 1;
            assert!(n <= bound, "bucket {i}: chain too long (cycle?)");
            cur = h.read_u64(cur) as PAddr;
        }
    }
}
