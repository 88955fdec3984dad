//! Compiler intermediate representation for the iDO reproduction.
//!
//! The iDO compiler (MICRO 2018) operates on LLVM IR late enough in the
//! pipeline to reason about registers, stack slots, and memory operations.
//! The reproduction bands note that writing real LLVM passes from Rust is
//! impractical, so this crate provides the moral equivalent: a small,
//! well-specified register-machine IR with exactly the features the paper's
//! analyses need —
//!
//! * virtual **registers** in two classes (integer and floating point,
//!   mirroring the paper's `intRF`/`floatRF` log arrays),
//! * per-function **stack slots** (the "live stack variables" the iDO log
//!   must cover),
//! * **heap** loads/stores through `(base register + offset)` addresses into
//!   simulated persistent memory,
//! * **lock/unlock** operations from which FASEs are inferred,
//! * programmer-delineated **durable region** markers (the Redis use case),
//! * calls, branches, and an explicit CFG.
//!
//! On top of the IR live the classic analyses the iDO compiler uses:
//! liveness ([`liveness`]) and a conservative `basicAA`-style alias analysis
//! ([`alias`]). The idempotent-region partitioning itself lives in the
//! `ido-idem` crate; the FASE inference and per-scheme instrumentation passes
//! live in `ido-compiler`; execution lives in `ido-vm`.
//!
//! The IR has one textual form, which this crate both prints (`Display`
//! for [`Program`]) and parses back ([`text`]).
//!
//! # Example
//!
//! ```
//! use ido_ir::{ProgramBuilder, Operand, BinOp};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.new_function("add1", 1);
//! let p = f.param(0);
//! let r = f.new_reg();
//! f.bin(BinOp::Add, r, Operand::Reg(p), Operand::Imm(1));
//! f.ret(Some(Operand::Reg(r)));
//! let func = f.finish().unwrap();
//! let prog = pb.finish();
//! assert_eq!(prog.function(func).name(), "add1");
//! ```

#![deny(missing_docs)]

pub mod alias;
mod builder;
pub mod cfg;
pub mod dataflow;
mod decoded;
mod func;
mod inst;
pub mod liveness;
pub mod opt;
mod pretty;
mod reg;
pub mod semantics;
pub mod text;
pub mod tier2;
mod verify;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use decoded::{DecodedFunction, DecodedInst, DecodedProgram};
pub use func::{BasicBlock, BlockId, FuncId, Function, Pc, Program};
pub use inst::{BinOp, Inst, LockToken, MemEffect, MemLoc, RtOp};
pub use pretty::{is_bare_name, FnName};
pub use reg::{Operand, Reg, RegClass, StackSlot};
pub use semantics::{eval_binop, ALL_BINOPS};
pub use tier2::{T2Kind, Tier2Block, Tier2Entry, Tier2Function, Tier2Op, Tier2Program, Tier2Segment};
pub use verify::{verify_function, VerifyError};
