//! The repo benchmark: six workloads, two clocks, per-layer timings taken
//! from outside. See `README.md` in this directory for the glossary and
//! `../BENCHMARK.json` for the contract with the driver.
//!
//! One process measures one workload. `--trace 0` reports the end-to-end
//! metrics with all benchmark tracing off; `--trace 1` repeats the workload
//! with the span recorder on and reports the per-layer metrics.

#![deny(missing_docs)]

pub mod driver;
pub mod layers;
pub mod names;
pub mod report;
pub mod run;
pub mod shape;
pub mod spans;
pub mod stats;
pub mod workloads;
