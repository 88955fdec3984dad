//! Idempotent region partitioning — the analysis at the heart of iDO.
//!
//! An *idempotent region* is a single-entry, possibly multi-exit subgraph of
//! the CFG that can be re-executed from its entry at any point during its
//! execution without changing its final output. Re-executability requires
//! that the region's **inputs** — variables live into the region and used
//! there — are never overwritten before the region completes (no
//! *antidependence* on inputs).
//!
//! Following De Kruijf et al. (PLDI 2012), whose scheme the iDO paper adopts
//! (Section IV-A-b), this crate partitions each function by placing **cuts**
//! (region boundaries) so that:
//!
//! * every *memory antidependence* — a load followed by a possibly-aliasing
//!   store — is separated by a cut. Cut positions are chosen by the
//!   right-endpoint greedy rule (cut immediately before the first violating
//!   store), which is the optimal solution to the interval-stabbing
//!   formulation of the paper's "hitting set" step; the [`antidep`] module
//!   enumerates the pairs so tests can verify every pair is cut;
//! * structural events that must delimit regions are cuts: function entry,
//!   each lock acquire (boundary *after* it) and release (boundary *before*
//!   it), programmer durable-region markers, and calls and allocator
//!   operations (runtime calls with external side effects). Loop back edges
//!   are deliberately **not** cut: a read-only traversal loop is idempotent
//!   as a whole (restarting re-traverses from scratch — why the paper's
//!   Redis read paths are nearly free), while loop-carried antidependences
//!   are found by the cross-block fixpoint, which propagates around back
//!   edges;
//! * every region is **single-entry**: a join whose predecessors lie in
//!   different regions starts a fresh region.
//!
//! Register antidependences are not cut; they are *repaired*, mirroring the
//! paper's live-interval extension. iDO logs each register into a fixed
//! per-register slot of the persistent `intRF`/`floatRF`; if a region both
//! consumed register `r` as an input and logged a new value into slot `r`,
//! a crash inside the region could restore the new value and re-execute
//! incorrectly. The paper prevents the register allocator from ever reusing
//! an input's register within a region; our virtual-register equivalent is
//! [`regions::partition`]'s WAR fixup: a definition of an input register `r`
//! is renamed to a fresh register `r'`, a region boundary is inserted
//! immediately after it, and the successor region begins with `mov r, r'`.
//! The old region then has `r` purely as an input and `r'` purely as an
//! output (distinct log slots); the new region defines `r` before any use.
//! This is exactly the split the paper's allocator-level mechanism induces
//! at machine level.
//!
//! Fixups are applied one at a time, always to the violation a from-scratch
//! analysis would meet first, so the instrumented text is a function of the
//! input alone; what a fixup *costs* is the zone forward of its marker up to
//! the next structural cut, not a whole-function analysis (the private
//! `formation` module has the argument, `tests/partition_equivalence.rs`
//! the old loop it is held to).
//!
//! # Example
//!
//! ```
//! use ido_ir::{ProgramBuilder, BinOp, Operand};
//! use ido_idem::partition;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.new_function("inc_cell", 1);
//! let p = f.param(0);
//! let v = f.new_reg();
//! f.load(v, p, 0);                 // v = mem[p]
//! f.bin(BinOp::Add, v, v, 1i64);   // v = v + 1   (register WAR on input v)
//! f.store(p, 0, Operand::Reg(v));  // mem[p] = v  (memory WAR on mem[p])
//! f.ret(None);
//! let id = f.finish().unwrap();
//! let mut prog = pb.finish();
//! let analysis = partition(prog.function_mut(id));
//! // The load/store antidependence and the register WAR both forced cuts.
//! assert!(analysis.regions().len() >= 2);
//! ```

#![deny(missing_docs)]

pub mod antidep;
mod formation;
pub mod hitting;
pub mod regions;
pub mod stats;

pub use regions::{
    analyze, analyze_with, partition, AliasMode, PartitionWork, Pos, Region, RegionAnalysis, RegionId,
};
pub use stats::{RegionStats, StaticRegionSummary};
