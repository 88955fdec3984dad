//! Benchmark workloads for the iDO reproduction.
//!
//! Every workload of the paper's evaluation is expressed as an `ido-ir`
//! program built here, so the complete compiler pipeline (FASE inference →
//! idempotent region formation → per-scheme instrumentation) runs on
//! exactly the code being measured:
//!
//! * the four JUSTDO **microbenchmarks** (Section V-B): locked Treiber
//!   stack, two-lock Michael–Scott queue, hand-over-hand ordered list, and
//!   the fixed-size hash map built from it ([`micro`]);
//! * a **Memcached-like** multi-threaded key-value cache with the
//!   coarse-grained locking of Memcached 1.2.4, driven by uniformly
//!   distributed keys in insertion-intensive (50/50) and search-intensive
//!   (10/90) mixes ([`kv::memcached`]);
//! * a **Redis-like** single-threaded object store using programmer-
//!   delineated durable regions, driven by a power-law key distribution
//!   over configurable key ranges with an 80/20 get/put mix
//!   ([`kv::redis`]);
//! * a **service-style** fixed-slot store with striped-lock puts and
//!   lock-free gets, designed to stay drivable across a crash (no arena
//!   cursor) — the crash-under-load workload of `service_bench`
//!   ([`service`]).
//!
//! The [`harness`] module runs any workload under any scheme in the VM's
//! min-clock (discrete-event) mode and reports simulated throughput, the
//! dynamic region profile (Fig. 8), persistence-operation counts, and the
//! log volumes recovery would have to process (Table I). Its [`boot`] is
//! how every workload run starts: VM, setup, one worker per thread.

#![deny(missing_docs)]

pub mod harness;
pub mod kv;
pub mod lockfree;
pub mod micro;
pub mod service;
mod util;

pub use harness::{
    bench_config, boot, list_log_per_op, run_workload, sweep, with_sharded_alloc, RunStats, WorkloadSpec,
    LOG_PER_OP, NO_LOG,
};

/// The standard workload suite, one boxed spec per benchmark, in the order
/// the figures present them: the four microbenchmarks, then the two
/// key-value stores. Sweep-style consumers (the static verifier's lint
/// mode, CI gates) iterate this instead of hand-listing specs so a new
/// workload is automatically covered.
pub fn standard_specs() -> Vec<Box<dyn WorkloadSpec>> {
    vec![
        Box::new(micro::StackSpec),
        Box::new(micro::QueueSpec),
        Box::new(micro::ListSpec::default()),
        Box::new(micro::MapSpec::default()),
        Box::new(kv::memcached::MemcachedSpec::insertion_intensive()),
        Box::new(kv::redis::RedisSpec::with_range(256)),
        Box::new(service::ServiceSpec::with_range(256)),
    ]
}

/// The lock-free workload suite (ISSUE 9): specs that only run under the
/// recoverable-CAS scheme family (`Scheme::LOCKFREE`). Kept separate from
/// [`standard_specs`] — the seven-spec standard suite is pinned by the
/// lint matrix and goldens, and these specs' `Inst::Cas` would be
/// rejected by the lock-delineated schemes' instrumentation anyway.
pub fn lockfree_specs() -> Vec<Box<dyn WorkloadSpec>> {
    vec![Box::new(lockfree::LfListSpec), Box::new(lockfree::LfMapSpec::default())]
}
