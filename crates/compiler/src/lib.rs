//! The iDO compiler: FASE inference and per-scheme instrumentation.
//!
//! This crate reproduces the three instrumentation phases of the iDO
//! compiler (Fig. 4 of the paper) on the `ido-ir` substrate, plus the
//! instrumentation performed by the baseline systems the paper compares
//! against:
//!
//! 1. **FASE inference and lock-ownership preservation** ([`fase`]): a
//!    lock-depth dataflow analysis identifies failure-atomic sections —
//!    maximal code regions in which at least one lock is held (or a
//!    programmer-delineated durable region is active). Lock and unlock
//!    operations are instrumented with the scheme's lock-tracking calls.
//! 2. **Idempotent region formation**: delegated to the `ido-idem` crate
//!    (antidependence cutting + single-entry construction + register WAR
//!    repair).
//! 3. **Preserving inputs and persisting outputs** ([`instrument`]): region
//!    boundaries inside FASEs receive `IdoBoundary` runtime ops carrying the
//!    static live-variable filter; the VM intersects it with the dynamically
//!    tracked set of modified registers to obtain `Def ∩ LiveOut` (Eq. 1)
//!    and persist-coalesces the result into as few cache lines as possible.
//!
//! The same driver lowers programs for the baseline schemes — JUSTDO
//! (per-store resumption logging with register shadowing), Atlas (per-store
//! UNDO + happens-before lock tracking), Mnemosyne (REDO transactions on a
//! global lock), NVML (annotated UNDO), NVThreads (page-granular REDO), and
//! Origin (uninstrumented) — so every system sees the identical program and
//! identical FASEs, as in the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use ido_ir::ProgramBuilder;
//! use ido_compiler::{instrument_program, Scheme};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.new_function("push", 2);
//! let lock = f.param(0);
//! let cell = f.param(1);
//! f.lock(lock);
//! f.store(cell, 0, 42i64);
//! f.unlock(lock);
//! f.ret(None);
//! f.finish().unwrap();
//! let out = instrument_program(pb.finish(), Scheme::Ido)?;
//! assert_eq!(out.scheme, Scheme::Ido);
//! # Ok::<(), ido_compiler::CompileError>(())
//! ```

#![deny(missing_docs)]

pub mod fase;
pub mod instrument;
mod scheme;

pub use fase::{FaseError, FaseMap};
pub use instrument::{instrument_program, CompileError, Instrumented};
pub use scheme::{Marker, Recovery, Scheme, SchemeInfo};
