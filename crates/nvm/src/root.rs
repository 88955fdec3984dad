//! Atlas-style persistent region management: pool header and named roots.
//!
//! The iDO paper reuses Atlas's region manager, which exposes persistent
//! memory regions as mappable files with named root objects from which all
//! live persistent data is reachable. Our simulated equivalent reserves the
//! first few cache lines of the pool for a header (magic number, generation
//! counter, clean-shutdown flag) and a fixed-size table of `(name hash,
//! address)` root slots. A recovery process re-attaches, validates the magic
//! number, and looks up its data structures by name.

use crate::pool::PmemHandle;
use crate::{NvmError, PAddr};

/// Pool-format magic number ("iDO!NVM!" little-endian-ish).
pub const MAGIC: u64 = 0x69444F21_4E564D21;

/// Address of the header line.
pub const HEADER_ADDR: PAddr = 0;
const MAGIC_ADDR: PAddr = 0;
const GENERATION_ADDR: PAddr = 8;
const CLEAN_SHUTDOWN_ADDR: PAddr = 16;

/// Address of the first root slot.
pub const ROOT_TABLE_ADDR: PAddr = 64;
/// Number of named root slots.
pub const N_ROOTS: usize = 64;
const ROOT_SLOT_BYTES: usize = 16;

/// Address of the allocator metadata line.
pub const ALLOC_META_ADDR: PAddr = ROOT_TABLE_ADDR + N_ROOTS * ROOT_SLOT_BYTES;

/// First address available to the persistent heap allocator.
pub const HEAP_START: PAddr = ALLOC_META_ADDR + 64;

/// FNV-1a hash of a root name. Zero is reserved for "empty slot", so the
/// hash is nudged to 1 if it would be 0.
pub fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// View over the pool's header and root table.
///
/// `RootTable` holds no state of its own; all state lives in persistent
/// memory, so it works identically before and after a crash.
#[derive(Debug, Clone, Copy, Default)]
pub struct RootTable;

impl RootTable {
    /// Formats a fresh pool: writes the magic number, zeroes the root table,
    /// and persists everything. Destroys any prior contents.
    pub fn format(h: &mut PmemHandle) -> Self {
        for i in 0..N_ROOTS {
            let slot = ROOT_TABLE_ADDR + i * ROOT_SLOT_BYTES;
            h.write_u64(slot, 0);
            h.write_u64(slot + 8, 0);
        }
        h.write_u64(GENERATION_ADDR, 0);
        h.write_u64(CLEAN_SHUTDOWN_ADDR, 1);
        h.write_u64(MAGIC_ADDR, MAGIC);
        h.persist(HEADER_ADDR, HEAP_START);
        RootTable
    }

    /// Re-attaches to a previously formatted pool (e.g. after a crash).
    ///
    /// # Errors
    /// Returns [`NvmError::CorruptHeader`] if the magic number is absent.
    pub fn attach(h: &mut PmemHandle) -> Result<Self, NvmError> {
        if h.read_u64(MAGIC_ADDR) != MAGIC {
            return Err(NvmError::CorruptHeader { detail: "missing magic number".into() });
        }
        Ok(RootTable)
    }

    /// True if the previous detach was clean (no crash since).
    pub fn was_clean_shutdown(&self, h: &mut PmemHandle) -> bool {
        h.read_u64(CLEAN_SHUTDOWN_ADDR) == 1
    }

    /// Marks the pool as in-use; a crash before [`RootTable::mark_clean`]
    /// will then be detectable on re-attach.
    pub fn mark_in_use(&self, h: &mut PmemHandle) {
        h.write_u64(CLEAN_SHUTDOWN_ADDR, 0);
        let gen = h.read_u64(GENERATION_ADDR);
        h.write_u64(GENERATION_ADDR, gen + 1);
        h.persist(HEADER_ADDR, 64);
    }

    /// Marks a clean shutdown.
    pub fn mark_clean(&self, h: &mut PmemHandle) {
        h.write_u64(CLEAN_SHUTDOWN_ADDR, 1);
        h.persist(HEADER_ADDR, 64);
    }

    /// Generation counter (bumped on every `mark_in_use`).
    pub fn generation(&self, h: &mut PmemHandle) -> u64 {
        h.read_u64(GENERATION_ADDR)
    }

    /// Durably associates `name` with `addr`, overwriting a prior binding.
    ///
    /// # Errors
    /// Returns [`NvmError::RootTableFull`] if all slots hold other names.
    pub fn set_root(&self, h: &mut PmemHandle, name: &str, addr: PAddr) -> Result<(), NvmError> {
        let hash = name_hash(name);
        let mut empty = None;
        for i in 0..N_ROOTS {
            let slot = ROOT_TABLE_ADDR + i * ROOT_SLOT_BYTES;
            let slot_hash = h.read_u64(slot);
            if slot_hash == hash {
                h.write_u64(slot + 8, addr as u64);
                h.persist(slot, ROOT_SLOT_BYTES);
                return Ok(());
            }
            if slot_hash == 0 && empty.is_none() {
                empty = Some(slot);
            }
        }
        let slot = empty.ok_or(NvmError::RootTableFull)?;
        // Write the address first, then the hash that makes the slot live,
        // so a crash can never expose a live slot with a garbage address.
        h.write_u64(slot + 8, addr as u64);
        h.persist(slot + 8, 8);
        h.write_u64(slot, hash);
        h.persist(slot, 8);
        Ok(())
    }

    /// Looks up the address bound to `name`.
    pub fn root(&self, h: &mut PmemHandle, name: &str) -> Option<PAddr> {
        let hash = name_hash(name);
        for i in 0..N_ROOTS {
            let slot = ROOT_TABLE_ADDR + i * ROOT_SLOT_BYTES;
            if h.read_u64(slot) == hash {
                return Some(h.read_u64(slot + 8) as PAddr);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PmemPool, PoolConfig};

    fn formatted() -> PmemPool {
        let p = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = p.handle();
        RootTable::format(&mut h);
        p
    }

    #[test]
    fn format_then_attach() {
        let p = formatted();
        let mut h = p.handle();
        assert!(RootTable::attach(&mut h).is_ok());
    }

    #[test]
    fn attach_unformatted_fails() {
        let p = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = p.handle();
        assert!(matches!(RootTable::attach(&mut h), Err(NvmError::CorruptHeader { .. })));
    }

    #[test]
    fn roots_survive_crash() {
        let p = formatted();
        let mut h = p.handle();
        let rt = RootTable::attach(&mut h).unwrap();
        rt.set_root(&mut h, "stack", 4096).unwrap();
        rt.set_root(&mut h, "queue", 8192).unwrap();
        drop(h);
        p.crash(0);
        let mut h = p.handle();
        let rt = RootTable::attach(&mut h).unwrap();
        assert_eq!(rt.root(&mut h, "stack"), Some(4096));
        assert_eq!(rt.root(&mut h, "queue"), Some(8192));
        assert_eq!(rt.root(&mut h, "absent"), None);
    }

    #[test]
    fn set_root_overwrites_existing() {
        let p = formatted();
        let mut h = p.handle();
        let rt = RootTable;
        rt.set_root(&mut h, "a", 100).unwrap();
        rt.set_root(&mut h, "a", 200).unwrap();
        assert_eq!(rt.root(&mut h, "a"), Some(200));
    }

    #[test]
    fn table_fills_up() {
        let p = formatted();
        let mut h = p.handle();
        let rt = RootTable;
        for i in 0..N_ROOTS {
            rt.set_root(&mut h, &format!("root{i}"), i * 8).unwrap();
        }
        assert!(matches!(rt.set_root(&mut h, "overflow", 1), Err(NvmError::RootTableFull)));
    }

    #[test]
    fn crash_detection_via_clean_flag() {
        let p = formatted();
        let mut h = p.handle();
        let rt = RootTable;
        assert!(rt.was_clean_shutdown(&mut h));
        rt.mark_in_use(&mut h);
        drop(h);
        p.crash(0);
        let mut h = p.handle();
        let rt = RootTable::attach(&mut h).unwrap();
        assert!(!rt.was_clean_shutdown(&mut h), "crash must be detectable");
        assert_eq!(rt.generation(&mut h), 1);
        rt.mark_clean(&mut h);
        assert!(rt.was_clean_shutdown(&mut h));
    }

    #[test]
    fn name_hash_never_zero_and_stable() {
        assert_ne!(name_hash(""), 0);
        assert_eq!(name_hash("abc"), name_hash("abc"));
        assert_ne!(name_hash("abc"), name_hash("abd"));
    }
}
