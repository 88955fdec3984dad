//! An NVTraverse-style lock-free persistent sorted list: the node layout
//! and the host-side half, set-up and verification. The operations are IR
//! programs in `ido-workloads`, run by the VM under [`crate::rcas`]. Nodes
//! are cache-line-sized and aligned so each `next` cell's `[value, tag]`
//! pair shares a line.

use ido_nvm::alloc::NvAllocator;
use ido_nvm::{NvmError, PmemHandle, PAddr};

use crate::desc::{align64, CELL_TAG};

/// Node size: one cache line (the alloc over-provisions for alignment).
pub const NODE_BYTES: usize = 64;
/// Offset of the `next` cell's value word (the CAS target).
pub const NODE_NEXT: usize = 0;
/// Offset of the `next` cell's owner/sequence tag ([`CELL_TAG`]).
pub const NODE_NEXT_TAG: usize = CELL_TAG;
/// Offset of the key.
pub const NODE_KEY: usize = 16;
/// Offset of the value.
pub const NODE_VAL: usize = 24;

/// A lock-free sorted list rooted at a sentinel node.
#[derive(Debug, Clone, Copy)]
pub struct NvtList {
    /// Cache-line-aligned sentinel node (its key is never read).
    pub head: PAddr,
}

impl NvtList {
    /// Allocates and persists an empty list. The sentinel is aligned inside
    /// an over-provisioned allocation whose front padding is leaked.
    ///
    /// # Errors
    /// Propagates allocator exhaustion.
    pub fn create(h: &mut PmemHandle, alloc: &NvAllocator) -> Result<NvtList, NvmError> {
        let head = align64(alloc.alloc(h, NODE_BYTES + 64)?);
        for w in 0..(NODE_BYTES / 8) {
            h.write_u64(head + 8 * w, 0);
        }
        h.persist(head, NODE_BYTES);
        Ok(NvtList { head })
    }

    /// Re-attaches to a list previously created at `head`.
    pub fn attach(head: PAddr) -> NvtList {
        NvtList { head }
    }

    /// Walks the chain asserting structural invariants — strictly
    /// ascending keys, bounded length — and returns the keys in order.
    ///
    /// # Panics
    /// Panics when an invariant is violated.
    pub fn check_invariants(&self, h: &mut PmemHandle, bound: usize) -> Vec<i64> {
        let mut keys = Vec::new();
        let mut cur = h.read_u64(self.head + NODE_NEXT) as PAddr;
        let mut last = i64::MIN;
        while cur != 0 {
            assert!(keys.len() <= bound, "chain exceeds bound {bound}: cycle or corruption");
            assert_eq!(cur % 64, 0, "node {cur:#x} is not line-aligned");
            let key = h.read_u64(cur + NODE_KEY) as i64;
            assert!(key > last, "keys not strictly ascending: {last} then {key}");
            last = key;
            keys.push(key);
            cur = h.read_u64(cur + NODE_NEXT) as PAddr;
        }
        keys
    }
}
