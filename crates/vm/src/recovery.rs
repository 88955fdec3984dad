//! Post-crash recovery: the two entry points, their cost model and their
//! report. The procedures themselves — resumption for iDO and JUSTDO,
//! consistent-cut rollback for Atlas, suffix rollback for NVML, REDO replay
//! for Mnemosyne and NVThreads, descriptor resolution for the lock-free
//! pair — live with their schemes in [`crate::scheme`].

use ido_compiler::{Instrumented, Scheme};
use ido_nvm::PmemPool;

use crate::exec::VmConfig;
use crate::scheme;

/// Cost model for the constant part of recovery (Section V-D observes that
/// iDO recovery time is dominated by mapping the persistent region and
/// creating recovery threads — essentially constant).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// One-time cost: re-mapping the persistent region, log discovery.
    pub base_ns: u64,
    /// Per-recovery-thread creation and initialization cost.
    pub per_thread_ns: u64,
    /// CPU cost to examine one log entry during a scan (Atlas/NVML).
    pub entry_scan_ns: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            base_ns: 120_000_000, // 120 ms: mmap + attach
            per_thread_ns: 12_000_000, // 12 ms per recovery thread
            // Atlas recovery builds its happens-before graph with per-entry
            // allocation and hashing; a few hundred ns per entry.
            entry_scan_ns: 250,
        }
    }
}

impl RecoveryConfig {
    /// Zero-overhead config for unit tests that assert only on state.
    pub fn for_tests() -> Self {
        Self { base_ns: 0, per_thread_ns: 0, entry_scan_ns: 0 }
    }
}

/// What recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Scheme recovered.
    pub scheme: Scheme,
    /// Threads found in the registry.
    pub threads_scanned: usize,
    /// Interrupted FASEs resumed to completion (iDO/JUSTDO).
    pub resumed: usize,
    /// FASEs rolled back (Atlas: including dependence-invalidated ones;
    /// NVML: uncommitted transactions).
    pub rolled_back: usize,
    /// Committed REDO transactions replayed (Mnemosyne/NVThreads).
    pub replayed: usize,
    /// UNDO entries applied.
    pub undo_entries: usize,
    /// Total log entries scanned.
    pub log_entries_scanned: usize,
    /// Interpreter steps executed by recovery threads.
    pub steps: u64,
    /// Modeled wall-clock recovery time in simulated nanoseconds.
    pub sim_ns: u64,
}

/// Runs crash recovery on `pool` for the given instrumented program.
///
/// # Panics
/// Panics if the pool was never formatted or recovery itself deadlocks
/// (both indicate bugs in the scheme under test, which is what the crash
/// tests are for).
pub fn recover(
    pool: PmemPool,
    instrumented: Instrumented,
    vm_config: VmConfig,
    rc: RecoveryConfig,
) -> RecoveryReport {
    scheme::recover(pool, instrumented, vm_config, rc, u64::MAX)
        .expect("unbudgeted recovery runs to completion")
}

/// [`recover`] cut short after `budget` units of work, **without**
/// crashing: when the budget runs out the pool is left mid-protocol, its
/// dirty (unfenced) lines intact, so the caller can crash it with a policy
/// of its choosing (the crash oracle sweeps `PmemPool::crash_with` over
/// lost-line subsets at exactly this point; a test just calls
/// `PmemPool::crash`). One budget, one driver per scheme: the units are
/// interpreter steps of the recovery threads for the resumption schemes
/// (iDO, JUSTDO) and persist operations — rollback and replay write-backs,
/// descriptor closes, each step of the log-retirement protocol — for the
/// log-processing ones (Atlas, NVML, Mnemosyne, NVThreads, the lock-free
/// pair). Used to verify that recovery tolerates failures *during*
/// recovery: because resumption only ever re-executes idempotent regions,
/// rollback/replay writes are themselves idempotent, and log retirement is
/// crash-ordered (see [`crate::layout::RESET_SENTINEL`]), a second recovery
/// must succeed.
///
/// Returns `true` when recovery ran to completion within the budget
/// (nothing left to crash).
pub fn recover_partial(
    pool: PmemPool,
    instrumented: Instrumented,
    vm_config: VmConfig,
    budget: u64,
) -> bool {
    scheme::recover(pool, instrumented, vm_config, RecoveryConfig::for_tests(), budget).is_some()
}
