//! # ido-repro — iDO: Compiler-Directed Failure Atomicity for Nonvolatile Memory
//!
//! A full Rust reproduction of the MICRO 2018 paper by Liu, Izraelevitz,
//! Lee, Scott, Noh, and Jung. The workspace implements the paper's
//! contribution — **iDO logging**, failure atomicity for lock-delineated
//! FASEs via *recovery through idempotent-region resumption* — together
//! with every substrate it needs and every baseline it is evaluated
//! against. See `DESIGN.md` for the system inventory and the
//! per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! This umbrella crate re-exports the workspace members and hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`):
//!
//! * [`nvm`] — simulated hybrid NVM: volatile/persistent images,
//!   cache-line write-backs, persist fences, crash injection, latency
//!   model, persistent allocator, named roots.
//! * [`ir`] — the compiler IR with CFG, liveness and basicAA-style alias
//!   analysis.
//! * [`idem`] — idempotent region partitioning (antidependence cutting +
//!   register-WAR repair).
//! * [`compiler`] — FASE inference and per-scheme instrumentation.
//! * [`vm`] — the interpreter with deterministic scheduling, crash
//!   injection at any instruction, discrete-event timing, and the one
//!   runtime, log layout, and recovery procedure of every scheme (iDO,
//!   JUSTDO, Atlas, Mnemosyne, NVML, NVThreads).
//! * [`workloads`] — the paper's benchmark workloads (stack, queue,
//!   ordered list, hash map, memcached- and redis-like stores) and the
//!   throughput harness.
//! * [`crashtest`] — the systematic crash-point exploration oracle:
//!   persist-boundary enumeration, lost-line subset covers, deterministic
//!   replay, and minimal-counterexample shrinking.

pub use ido_crashtest as crashtest;
pub use ido_compiler as compiler;
pub use ido_idem as idem;
pub use ido_ir as ir;
pub use ido_nvm as nvm;
pub use ido_vm as vm;
pub use ido_workloads as workloads;
