//! A lock-free persistent hash map: a directory of NVTraverse sorted
//! lists, one per bucket. The directory is immutable after creation, so
//! only the per-bucket lists ever need the recoverable-CAS protocol.

use ido_nvm::alloc::NvAllocator;
use ido_nvm::{NvmError, PmemHandle, PAddr};

use crate::desc::LfState;
use crate::list::NvtList;
use crate::rcas::{FlushWindow, RcasThread};

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

    /// Inserts `key -> val`; false if already present.
    ///
    /// # Errors
    /// Propagates allocator exhaustion.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &self,
        h: &mut PmemHandle,
        alloc: &NvAllocator,
        st: &LfState,
        th: &mut RcasThread,
        w: &mut FlushWindow,
        key: i64,
        val: u64,
    ) -> Result<bool, NvmError> {
        let b = self.bucket_of(key);
        self.bucket(h, b).insert(h, alloc, st, th, w, key, val)
    }

    /// Looks up `key`.
    pub fn lookup(&self, h: &mut PmemHandle, w: &mut FlushWindow, key: i64) -> Option<u64> {
        let b = self.bucket_of(key);
        self.bucket(h, b).lookup(h, w, key)
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

#[cfg(test)]
mod tests {
    use super::*;
    use ido_nvm::alloc::NvAllocator;
    use ido_nvm::{PmemPool, PoolConfig};

    #[test]
    fn map_insert_lookup_and_invariants() {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let alloc = NvAllocator::format(&mut h, pool.size());
        let st = LfState::create(&mut h, &alloc, 2).unwrap();
        let map = NvtMap::create(&mut h, &alloc, 4).unwrap();
        let mut th = RcasThread::attach(&mut h, &st, 0);
        let mut w = FlushWindow::new();
        for key in 0..32i64 {
            assert!(map.insert(&mut h, &alloc, &st, &mut th, &mut w, key, key as u64 * 2 + 1).unwrap());
        }
        assert!(!map.insert(&mut h, &alloc, &st, &mut th, &mut w, 7, 0).unwrap());
        drop(h);
        pool.crash(3);
        let mut h = pool.handle();
        let map = NvtMap::attach(&mut h, map.dir);
        assert_eq!(map.check_invariants(&mut h, 64), 32);
        for key in 0..32i64 {
            assert_eq!(map.lookup(&mut h, &mut w, key), Some(key as u64 * 2 + 1), "key {key}");
        }
    }
}
