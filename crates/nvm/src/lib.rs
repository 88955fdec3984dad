//! Simulated hybrid nonvolatile memory substrate for the iDO reproduction.
//!
//! The iDO paper (MICRO 2018) assumes a near-term hybrid architecture: part of
//! main memory is nonvolatile, while the core, registers, and caches remain
//! volatile. Programs write persistent data through ordinary stores that land
//! in the (volatile) cache; data only survives a crash once its cache line has
//! been explicitly written back (`clwb`/`clflush`) and the write-back has been
//! ordered by a persist fence (`sfence`) — or once the line happens to be
//! evicted by the cache on its own schedule.
//!
//! This crate models exactly that contract in software:
//!
//! * [`PmemPool`] owns two images of the same address space: a **volatile**
//!   image (the cache + DRAM view that ordinary loads and stores touch) and a
//!   **persistent** image (the NVM view that survives [`PmemPool::crash`]).
//! * Stores mark the containing 64-byte line *dirty*. [`PmemHandle::clwb`]
//!   queues a write-back; [`PmemHandle::sfence`] completes all queued
//!   write-backs, copying those lines into the persistent image.
//! * A [`PmemPool::crash`] discards the volatile image. Each line that was
//!   dirty at crash time *may or may not* have been evicted beforehand, chosen
//!   pseudo-randomly — a correct failure-atomicity scheme must be safe under
//!   **every** subset, which is what the property tests in this workspace
//!   exercise.
//! * All operations charge simulated nanoseconds to a per-handle clock using a
//!   configurable [`LatencyModel`], reproducing the paper's NVM-latency
//!   sensitivity experiments (Fig. 9) deterministically.
//!
//! On top of the raw pool sit a crash-consistent free-list allocator
//! ([`alloc::NvAllocator`]) and an Atlas-style region manager with named
//! persistent roots ([`root::RootTable`]).
//!
//! A pool has one driver: the pool, its handles and its allocator stay on
//! the host thread that built them (none is `Send` or `Sync`), so every
//! simulated store, write-back and fence is plain loads and stores on host
//! memory.
//!
//! # Example
//!
//! ```
//! use ido_nvm::{PmemPool, PoolConfig};
//!
//! let pool = PmemPool::new(PoolConfig::default());
//! let mut h = pool.handle();
//! let addr = 4096;
//! h.write_u64(addr, 42);
//! h.clwb(addr);
//! h.sfence();
//! pool.crash(1);
//! let mut h = pool.handle();
//! assert_eq!(h.read_u64(addr), 42); // survived: it was flushed and fenced
//! ```

#![deny(missing_docs)]

pub mod alloc;
mod error;
pub mod journal;
mod latency;
mod line;
mod pool;
pub mod root;

pub use alloc::AllocPolicy;
pub use error::NvmError;
pub use journal::{PersistEvent, PersistEventKind};
pub use latency::LatencyModel;
pub use line::{line_of, line_offset, CACHE_LINE};
pub use pool::{CrashOutcome, CrashPolicy, PmemHandle, PmemPool, PoolConfig};
// Re-exported so pool users can read counters and configure windowed
// metrics without a direct ido-trace dependency. `StatsSnapshot` is the
// one persist-counter record, defined where the metrics windows need it.
pub use ido_trace::{MetricsConfig, ServiceMetrics, StatsSnapshot};

/// A byte offset into a [`PmemPool`]'s address space.
///
/// The pool address space starts at 0; word accesses must be 8-byte aligned,
/// matching the paper's assumption that writes are atomic at 8-byte
/// granularity.
pub type PAddr = usize;

/// The distinguished null address. Offset 0 is reserved by the pool header so
/// no live object ever has address 0.
pub const NULL: PAddr = 0;
