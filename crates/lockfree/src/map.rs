//! A lock-free persistent hash map: a directory of NVTraverse sorted
//! lists, one per bucket (like [`crate::list`], layout, set-up and
//! verification only). The directory is immutable after creation, so only
//! the per-bucket lists ever need the recoverable-CAS protocol.

use ido_nvm::alloc::NvAllocator;
use ido_nvm::{NvmError, PmemHandle, PAddr};

use crate::list::NvtList;

/// A fixed-directory lock-free hash map.
#[derive(Debug, Clone, Copy)]
pub struct NvtMap {
    /// Directory base: `[bucket_count, head_0, head_1, ...]`.
    pub dir: PAddr,
    buckets: u32,
}

impl NvtMap {
    /// Allocates and persists an empty map with `buckets` chains.
    ///
    /// # Errors
    /// Propagates allocator exhaustion.
    pub fn create(h: &mut PmemHandle, alloc: &NvAllocator, buckets: u32) -> Result<NvtMap, NvmError> {
        let dir = alloc.alloc(h, 8 * (buckets as usize + 1))?;
        h.write_u64(dir, buckets as u64);
        for b in 0..buckets {
            let list = NvtList::create(h, alloc)?;
            h.write_u64(dir + 8 + 8 * b as usize, list.head as u64);
        }
        h.persist(dir, 8 * (buckets as usize + 1));
        Ok(NvtMap { dir, buckets })
    }

    /// Re-attaches to a map previously created at `dir`.
    pub fn attach(h: &mut PmemHandle, dir: PAddr) -> NvtMap {
        let buckets = h.read_u64(dir) as u32;
        NvtMap { dir, buckets }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// The home bucket of `key` (Fibonacci hashing: 64-bit multiply, top
    /// 32 bits, modulo the bucket count).
    pub fn bucket_of(&self, key: i64) -> u32 {
        (((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % self.buckets as u64) as u32
    }

    /// The chain of bucket `b`.
    pub fn bucket(&self, h: &mut PmemHandle, b: u32) -> NvtList {
        NvtList::attach(h.read_u64(self.dir + 8 + 8 * b as usize) as PAddr)
    }

    /// Checks every bucket's structural invariants plus home-bucket
    /// placement; returns the total key count.
    ///
    /// # Panics
    /// Panics when an invariant is violated.
    pub fn check_invariants(&self, h: &mut PmemHandle, bound: usize) -> usize {
        let mut total = 0;
        for b in 0..self.buckets {
            let keys = self.bucket(h, b).check_invariants(h, bound);
            for &k in &keys {
                assert_eq!(self.bucket_of(k), b, "key {k} stored outside its home bucket");
            }
            total += keys.len();
        }
        total
    }
}
