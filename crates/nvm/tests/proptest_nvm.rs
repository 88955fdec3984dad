//! Property-based tests of the NVM substrate: allocator safety under
//! arbitrary alloc/free/crash sequences, exact crash semantics of the
//! dual-image pool, the clean-line invariant its O(dirty) crash rests on,
//! and `sync_from`'s contract. (The differential of `crash_with` against
//! the full-reload loop it replaced lives next to that `#[cfg(test)]`
//! reference, in `src/pool.rs` — an integration test cannot see it.)

use ido_nvm::alloc::NvAllocator;
use ido_nvm::root::RootTable;
use ido_nvm::{CrashPolicy, PmemPool, PoolConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Every pool operation that can change a line's dirtiness or either
/// image, plus crashes. Addresses are word indices into the first 24 lines
/// so that operations keep landing on each other's lines.
#[derive(Debug, Clone)]
enum MemOp {
    Write(usize, u64),
    /// Onto whatever the line holds — clean or already dirty.
    NtStore(usize, u64),
    Clwb(usize),
    Sfence,
    Crash(u64, CrashPolicy),
}

fn crash_policy() -> impl Strategy<Value = CrashPolicy> {
    prop_oneof![
        1 => Just(CrashPolicy::DropDirty),
        1 => Just(CrashPolicy::EvictAll),
        1 => (0u16..=1000).prop_map(|persist_permille| CrashPolicy::Random { persist_permille }),
        // Loses the listed lines that are dirty (and any number are not).
        1 => prop::collection::vec(0usize..24, 0..8).prop_map(CrashPolicy::losing),
    ]
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    let word = 0usize..24 * 8;
    prop_oneof![
        4 => (word.clone(), 1u64..u64::MAX).prop_map(|(w, v)| MemOp::Write(w, v)),
        2 => (word.clone(), 1u64..u64::MAX).prop_map(|(w, v)| MemOp::NtStore(w, v)),
        2 => word.prop_map(MemOp::Clwb),
        2 => Just(MemOp::Sfence),
        1 => (0u64..1000, crash_policy()).prop_map(|(seed, p)| MemOp::Crash(seed, p)),
    ]
}

/// Applies `ops` through one handle, replaced after every crash (a crashed
/// process's handles, and their un-fenced write-back queues, are gone).
fn apply(pool: &PmemPool, ops: &[MemOp]) {
    let mut h = pool.handle();
    for op in ops {
        match *op {
            MemOp::Write(w, v) => h.write_u64(w * 8, v),
            MemOp::NtStore(w, v) => h.nt_store_u64(w * 8, v),
            MemOp::Clwb(w) => h.clwb(w * 8),
            MemOp::Sfence => h.sfence(),
            MemOp::Crash(seed, ref policy) => {
                drop(h);
                pool.crash_with(seed, policy);
                h = pool.handle();
            }
        }
    }
}

/// A 16 KiB pool: small enough to compare whole images per case.
fn small_pool() -> PmemPool {
    PmemPool::new(PoolConfig { size: 16 << 10, ..PoolConfig::small_for_tests() })
}

/// The volatile image, read word by word through a handle.
fn volatile_image(pool: &PmemPool) -> Vec<u64> {
    let mut h = pool.handle();
    (0..pool.size() / 8).map(|w| h.read_u64(w * 8)).collect()
}

fn persistent_image(pool: &PmemPool) -> Vec<u64> {
    (0..pool.size() / 8).map(|w| pool.read_u64_persistent(w * 8)).collect()
}

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(usize),
    Free(usize),  // index into live set
    Crash(u64),
}

fn alloc_op() -> impl Strategy<Value = AllocOp> {
    prop_oneof![
        4 => (8usize..256).prop_map(AllocOp::Alloc),
        3 => (0usize..64).prop_map(AllocOp::Free),
        1 => (0u64..1000).prop_map(AllocOp::Crash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Live allocations never overlap, survive crashes, and freed blocks
    /// are recyclable — for arbitrary operation sequences.
    #[test]
    fn allocator_never_overlaps_live_blocks(ops in prop::collection::vec(alloc_op(), 1..80)) {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        RootTable::format(&mut h);
        let mut alloc = NvAllocator::format(&mut h, pool.size());
        // live: payload addr -> size
        let mut live: BTreeMap<usize, usize> = BTreeMap::new();
        for op in ops {
            match op {
                AllocOp::Alloc(sz) => {
                    if let Ok(a) = alloc.alloc(&mut h, sz) {
                        // Must not overlap any live block.
                        for (&b, &bsz) in &live {
                            prop_assert!(
                                a + sz <= b || b + bsz <= a,
                                "overlap: new [{a},{}) vs live [{b},{})", a + sz, b + bsz
                            );
                        }
                        prop_assert_eq!(a % 8, 0);
                        live.insert(a, sz);
                    }
                }
                AllocOp::Free(i) => {
                    if !live.is_empty() {
                        let k = *live.keys().nth(i % live.len()).expect("nonempty");
                        live.remove(&k);
                        prop_assert!(alloc.free(&mut h, k).is_ok());
                    }
                }
                AllocOp::Crash(seed) => {
                    drop(h);
                    pool.crash(seed);
                    h = pool.handle();
                    alloc = NvAllocator::attach();
                    // Live blocks allocated before the crash must remain
                    // accounted for (their headers were persisted).
                    for (&b, _) in &live {
                        prop_assert!(alloc.size_of(&mut h, b).is_ok(), "lost block {b:#x}");
                    }
                }
            }
        }
    }

    /// DropDirty crash semantics: each word's post-crash value is exactly
    /// its last *fenced* value; fenced data is never lost.
    #[test]
    fn crash_preserves_exactly_fenced_words(
        writes in prop::collection::vec((0usize..64, 1u64..u64::MAX, prop::bool::ANY), 1..60),
    ) {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let base = 4096;
        let mut fenced: BTreeMap<usize, u64> = BTreeMap::new();
        for (slot, value, do_persist) in writes {
            let addr = base + slot * 64; // one word per line: independent fates
            h.write_u64(addr, value);
            if do_persist {
                h.persist(addr, 8);
                fenced.insert(slot, value);
            }
        }
        drop(h);
        pool.crash(1);
        let mut h = pool.handle();
        for slot in 0..64 {
            let addr = base + slot * 64;
            prop_assert_eq!(h.read_u64(addr), *fenced.get(&slot).unwrap_or(&0));
        }
    }

    /// Under ANY eviction policy, a fenced word is never lost and an
    /// unfenced word is either its last written value or its last fenced
    /// value — never anything else (no torn/invented values at word grain).
    #[test]
    fn random_evictions_only_expose_real_values(
        writes in prop::collection::vec((0usize..32, 1u64..u64::MAX), 1..40),
        permille in 0u16..=1000,
        seed in 0u64..10_000,
    ) {
        let cfg = PoolConfig {
            crash_policy: CrashPolicy::Random { persist_permille: permille },
            ..PoolConfig::small_for_tests()
        };
        let pool = PmemPool::new(cfg);
        let mut h = pool.handle();
        let base = 4096;
        let mut last_written: BTreeMap<usize, u64> = BTreeMap::new();
        let mut last_fenced: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, (slot, value)) in writes.iter().enumerate() {
            let addr = base + slot * 64;
            h.write_u64(addr, *value);
            last_written.insert(*slot, *value);
            if i % 3 == 0 {
                h.persist(addr, 8);
                last_fenced.insert(*slot, *value);
            }
        }
        drop(h);
        pool.crash(seed);
        let mut h = pool.handle();
        for slot in 0..32 {
            let addr = base + slot * 64;
            let got = h.read_u64(addr);
            let w = *last_written.get(&slot).unwrap_or(&0);
            let f = *last_fenced.get(&slot).unwrap_or(&0);
            prop_assert!(got == w || got == f, "slot {slot}: got {got}, want {w} or {f}");
        }
    }

    /// The clean-line invariant `crash_with` and `sync_from` rest on: at
    /// any point of any operation sequence, a line that is not dirty holds
    /// the same words in both images — and a crash, under every policy,
    /// leaves no line dirty, so then the images are equal everywhere.
    #[test]
    fn clean_lines_read_the_same_in_both_images(
        ops in prop::collection::vec(mem_op(), 0..80),
        seed in 0u64..1000,
        policy in crash_policy(),
    ) {
        let pool = small_pool();
        apply(&pool, &ops);
        let (v, p) = (volatile_image(&pool), persistent_image(&pool));
        for w in 0..v.len() {
            prop_assert!(
                v[w] == p[w] || pool.is_line_dirty(w * 8),
                "word {w} of a clean line: volatile {:#x}, persistent {:#x}", v[w], p[w]
            );
        }
        let dirty = pool.dirty_lines().len();
        let outcome = pool.crash_with(seed, &policy);
        prop_assert_eq!(outcome.lines_evicted + outcome.lines_dropped, dirty);
        prop_assert!(pool.dirty_lines().is_empty());
        prop_assert!(volatile_image(&pool) == persistent_image(&pool));
    }

    /// `sync_from` after arbitrary operations and crashes on both sides —
    /// including earlier syncs — makes the scratch pool equal to the live
    /// one in both images and the dirty set; it is idempotent, and a second
    /// sync has nothing left to copy.
    #[test]
    fn sync_from_makes_the_pair_equal_and_is_idempotent(
        rounds in prop::collection::vec(
            (prop::collection::vec(mem_op(), 0..40), prop::collection::vec(mem_op(), 0..40)),
            1..4,
        ),
    ) {
        let (live, scratch) = (small_pool(), small_pool());
        for (live_ops, scratch_ops) in &rounds {
            apply(&live, live_ops);
            apply(&scratch, scratch_ops);
            let copied = scratch.sync_from(&live);
            prop_assert!(copied <= 24, "copied {copied} lines of the 24 in play");
            prop_assert!(volatile_image(&scratch) == volatile_image(&live));
            prop_assert!(persistent_image(&scratch) == persistent_image(&live));
            prop_assert_eq!(scratch.dirty_lines(), live.dirty_lines());
            // Dirty lines stay in play until a fence or crash resolves them.
            prop_assert_eq!(scratch.sync_from(&live), live.dirty_lines().len());
            prop_assert!(volatile_image(&scratch) == volatile_image(&live));
            prop_assert!(persistent_image(&scratch) == persistent_image(&live));
        }
        // With nothing dirty either side, a second sync copies zero lines.
        live.crash_with(0, &CrashPolicy::DropDirty);
        scratch.sync_from(&live);
        prop_assert_eq!(scratch.sync_from(&live), 0);
        prop_assert!(volatile_image(&scratch) == volatile_image(&live));
    }
}
