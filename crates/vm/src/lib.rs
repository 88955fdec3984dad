//! Execution substrate for the iDO reproduction: an interpreter for
//! instrumented IR programs over simulated NVM, with deterministic
//! multi-threaded scheduling, crash injection at any dynamic instruction,
//! and per-scheme recovery drivers.
//!
//! The VM exists because the paper's central claims are about *crash
//! consistency*: that after a fail-stop failure at an arbitrary point, each
//! scheme's recovery procedure restores all program invariants without
//! losing completed FASEs. Real SIGKILL-based testing can only sample crash
//! points; the VM can enumerate them. A typical test:
//!
//! 1. build a program with the `ido-ir` builder and lower it with
//!    `ido-compiler` for a scheme;
//! 2. run it in a [`Vm`] for some number of steps;
//! 3. [`Vm::crash`] — volatile state vanishes, un-persisted cache lines are
//!    dropped (or randomly evicted, per the pool's crash policy);
//! 4. [`recovery::recover`] — the scheme's recovery procedure runs
//!    (resumption for iDO/JUSTDO, consistent-cut rollback for Atlas, redo
//!    replay for Mnemosyne/NVThreads, undo for NVML);
//! 5. assert the data-structure invariants on the surviving persistent
//!    image.
//!
//! The VM also charges every memory, write-back, and fence operation to
//! per-thread simulated clocks via `ido-nvm`'s latency model, and reports
//! every dynamic idempotent region it closes (stores per region, live-in
//! registers per region — the paper's Fig. 8) as a trace event.

#![deny(missing_docs)]

mod bitset;
mod exec;
pub mod layout;
pub mod locks;
pub mod recovery;
mod sched;
mod scheme;
mod tier2;

pub use exec::{
    ExecTier, FaultKind, RunOutcome, SchedPolicy, Status, StepControl, StepHook, StepInfo, Vm,
    VmConfig,
    GLOBAL_TX_LOCK, LF_STATE_ROOT, MAX_THREADS, THREADS_ROOT,
};
pub use locks::ThreadId;
pub use recovery::{recover, recover_partial, RecoveryConfig, RecoveryReport};
pub use sched::MAX_CLOCK_NS;
