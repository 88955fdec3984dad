//! Benchmark workloads for the iDO reproduction.
//!
//! Every workload of the paper's evaluation is an `ido-ir` program, so the
//! complete compiler pipeline (FASE inference → idempotent region
//! formation → per-scheme instrumentation) runs on exactly the code being
//! measured. A workload's program is the program section of its
//! `corpus/<kind>.ido` file, compiled into this crate and parsed once per
//! process; this crate holds the rest of each workload in Rust: the
//! persistent set-up, each worker's arguments, and the verification of the
//! final state. The workloads are:
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

use std::sync::OnceLock;

use ido_ir::text::parse_program_section;
use ido_ir::Program;
use ido_nvm::PAddr;
use ido_vm::{FaultKind, Vm};

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

/// The corpus files whose program sections are the native specs'
/// programs, by name.
const CORPUS: [(&str, &str); 12] = [
    ("alloc_churn", include_str!("../../../corpus/alloc_churn.ido")),
    ("lf_list", include_str!("../../../corpus/lf_list.ido")),
    ("lf_map", include_str!("../../../corpus/lf_map.ido")),
    ("list", include_str!("../../../corpus/list.ido")),
    ("map", include_str!("../../../corpus/map.ido")),
    ("map_mix", include_str!("../../../corpus/map_mix.ido")),
    ("memcached", include_str!("../../../corpus/memcached.ido")),
    ("queue", include_str!("../../../corpus/queue.ido")),
    ("redis", include_str!("../../../corpus/redis.ido")),
    ("service", include_str!("../../../corpus/service.ido")),
    ("stack", include_str!("../../../corpus/stack.ido")),
    ("twin", include_str!("../../../corpus/twin.ido")),
];

/// The program of `corpus/<name>.ido`: a clone, which shares the parsed
/// program rather than copying it.
///
/// The twelve files are parsed together, on the first call in a process,
/// and kept. Parsing costs about ten times what building a program in
/// Rust did, so a file is not parsed per run; and parsing each file on its
/// own first use instead left the kept programs scattered among the pools'
/// allocations, which raised `micro_scale`'s peak RSS by 1.2 MiB.
///
/// # Panics
/// Panics if no corpus file has that name, or with the rendered diagnostic
/// if a file does not parse; `tests/corpus.rs` rules both out.
pub(crate) fn corpus_program(name: &str) -> Program {
    static PROGRAMS: OnceLock<Vec<Program>> = OnceLock::new();
    let programs = PROGRAMS.get_or_init(|| {
        CORPUS
            .iter()
            .map(|(file, source)| match parse_program_section(source) {
                Ok(parsed) => parsed.program,
                Err(e) => panic!("{}", e.render(&format!("corpus/{file}.ido"), source)),
            })
            .collect()
    });
    let i = CORPUS.iter().position(|(file, _)| *file == name).expect("a corpus file of that name");
    programs[i].clone()
}

/// Allocates a set-up node arena of `threads × ops × bytes_per_op` bytes
/// (see [`arena_or_fault`] for one the pool cannot hold).
pub(crate) fn node_arena(vm: &mut Vm, threads: usize, ops: u64, bytes_per_op: u64) -> PAddr {
    let total = threads as u64 * ops * bytes_per_op;
    let arena = vm.setup(|h, alloc, _| alloc.alloc(h, total as usize));
    arena_or_fault(vm, arena.map_err(|_| FaultKind::AllocFailed { size: total }))
}

/// A set-up's node arena. One the pool cannot hold is a guest fault,
/// recorded with [`Vm::setup_failed`], and reads as address 0: the run
/// stops before a worker uses it.
pub(crate) fn arena_or_fault(vm: &mut Vm, arena: Result<PAddr, FaultKind>) -> PAddr {
    arena.unwrap_or_else(|kind| {
        vm.setup_failed(kind);
        0
    })
}
