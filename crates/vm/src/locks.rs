//! Transient lock table.
//!
//! Locks themselves are *transient*: they live outside the persistent pool
//! and vanish at a crash, exactly as in the paper's indirect-locking design
//! (Section III-B). A lock is identified by the persistent address of its
//! *indirect lock holder* — an immutable persistent cell; the recovery
//! procedure allocates fresh transient locks for the holders found in the
//! per-thread `lock_array`s.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Dense VM thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// Seed-free multiplicative hasher for pool-address keys. Lock holders are
/// 8-byte-aligned pool addresses whose low bits carry no entropy; SipHash
/// (the std default) is both slower than needed on the hot lock path and
/// randomly seeded per process, which would make `HashMap` iteration order
/// a run-to-run variable. This hasher is deterministic, so any future code
/// that iterates the table cannot silently break schedule reproducibility.
#[derive(Debug, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci multiplicative hash; the xor-fold feeds the high
        // (well-mixed) bits into the bucket index.
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }
}

/// A `HashMap` keyed by pool addresses, using the deterministic
/// [`AddrHasher`].
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

#[derive(Debug, Default)]
struct LockState {
    owner: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
}

/// The VM's table of transient locks, keyed by indirect-holder address.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: AddrMap<LockState>,
}

/// Error from [`LockTable::release`]: the caller does not own the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotOwner;

impl std::fmt::Display for NotOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("releasing thread does not own the lock")
    }
}

impl std::error::Error for NotOwner {}

/// Result of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock was granted to the caller.
    Granted,
    /// The caller must block; it has been enqueued.
    Blocked,
    /// The caller already owns the lock (only legal during recovery, where
    /// re-executed acquires are no-ops).
    AlreadyHeld,
}

impl LockTable {
    /// An empty table (all locks free).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire `lock` for `t`.
    pub fn acquire(&mut self, lock: u64, t: ThreadId) -> Acquire {
        let s = self.locks.entry(lock).or_default();
        match s.owner {
            None => {
                s.owner = Some(t);
                Acquire::Granted
            }
            Some(o) if o == t => Acquire::AlreadyHeld,
            Some(_) => {
                if !s.waiters.contains(&t) {
                    s.waiters.push_back(t);
                }
                Acquire::Blocked
            }
        }
    }

    /// Grants `lock` to `t` unconditionally (recovery lock reassignment).
    ///
    /// # Panics
    /// Panics if the lock is already owned by a different thread — the
    /// per-thread lock arrays are mutually exclusive by construction, so
    /// this indicates log corruption.
    pub fn grant(&mut self, lock: u64, t: ThreadId) {
        let s = self.locks.entry(lock).or_default();
        match s.owner {
            None => s.owner = Some(t),
            Some(o) if o == t => {}
            Some(o) => panic!("lock {lock:#x} owned by {o:?} while granting to {t:?}"),
        }
    }

    /// Releases `lock` held by `t`, returning the thread to wake, if any.
    ///
    /// # Errors
    /// Returns [`NotOwner`] if `t` does not own the lock.
    pub fn release(&mut self, lock: u64, t: ThreadId) -> Result<Option<ThreadId>, NotOwner> {
        // No entry is an unowned lock: a recovery thread's idempotent
        // releases must not grow the table.
        let s = self.locks.get_mut(&lock).filter(|s| s.owner == Some(t)).ok_or(NotOwner)?;
        match s.waiters.pop_front() {
            Some(next) => {
                s.owner = Some(next);
                Ok(Some(next))
            }
            None => {
                s.owner = None;
                Ok(None)
            }
        }
    }

    /// The current owner of `lock`.
    pub fn owner(&self, lock: u64) -> Option<ThreadId> {
        self.locks.get(&lock).and_then(|s| s.owner)
    }

    /// True if `t` holds `lock`.
    pub fn holds(&self, lock: u64, t: ThreadId) -> bool {
        self.owner(lock) == Some(t)
    }

    /// Number of threads waiting on `lock`.
    pub fn waiters(&self, lock: u64) -> usize {
        self.locks.get(&lock).map_or(0, |s| s.waiters.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: u64 = 0x1000;

    #[test]
    fn acquire_release_cycle() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire(L, ThreadId(0)), Acquire::Granted);
        assert!(t.holds(L, ThreadId(0)));
        assert_eq!(t.release(L, ThreadId(0)), Ok(None));
        assert!(!t.holds(L, ThreadId(0)));
    }

    #[test]
    fn contention_queues_and_hands_off() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire(L, ThreadId(0)), Acquire::Granted);
        assert_eq!(t.acquire(L, ThreadId(1)), Acquire::Blocked);
        assert_eq!(t.acquire(L, ThreadId(2)), Acquire::Blocked);
        assert_eq!(t.waiters(L), 2);
        assert_eq!(t.release(L, ThreadId(0)), Ok(Some(ThreadId(1))));
        assert!(t.holds(L, ThreadId(1)), "FIFO handoff");
        assert_eq!(t.release(L, ThreadId(1)), Ok(Some(ThreadId(2))));
    }

    #[test]
    fn reacquire_reports_already_held() {
        let mut t = LockTable::new();
        t.acquire(L, ThreadId(0));
        assert_eq!(t.acquire(L, ThreadId(0)), Acquire::AlreadyHeld);
    }

    #[test]
    fn release_by_non_owner_rejected() {
        let mut t = LockTable::new();
        t.acquire(L, ThreadId(0));
        assert_eq!(t.release(L, ThreadId(1)), Err(NotOwner));
        assert_eq!(t.release(0x2000, ThreadId(1)), Err(NotOwner));
        assert_eq!(t.locks.len(), 1, "releasing a lock nobody acquired must not insert it");
        let mut empty = LockTable::new();
        assert_eq!(empty.release(L, ThreadId(0)), Err(NotOwner));
        assert!(empty.locks.is_empty());
    }

    #[test]
    fn grant_assigns_recovered_ownership() {
        let mut t = LockTable::new();
        t.grant(L, ThreadId(3));
        assert!(t.holds(L, ThreadId(3)));
        t.grant(L, ThreadId(3)); // idempotent
    }

    #[test]
    #[should_panic(expected = "owned by")]
    fn conflicting_grant_panics() {
        let mut t = LockTable::new();
        t.grant(L, ThreadId(0));
        t.grant(L, ThreadId(1));
    }

    #[test]
    fn duplicate_block_not_double_queued() {
        let mut t = LockTable::new();
        t.acquire(L, ThreadId(0));
        t.acquire(L, ThreadId(1));
        t.acquire(L, ThreadId(1));
        assert_eq!(t.waiters(L), 1);
    }
}
