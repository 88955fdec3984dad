//! The scenario layer: a workload-spec header plus an optional program
//! section.
//!
//! ```text
//! # failure: ...            # optional leading comments, kept as `notes`
//! scenario stack_smoke {
//!   workload stack        # stack|queue|list|map|memcached|redis|service|twin|lf_list|lf_map|alloc_churn
//!   range 256             # optional: list|map|lf_map|redis|service key range
//!   buckets 64            # optional: map|lf_map buckets
//!   puts 500              # optional: memcached|map|lf_map set rate, permille
//!   threads 2             # or a sweep's list: 1,2,4
//!   ops 6
//!   delay 0,20,100        # optional, `ido sweep` only: a sweep parameter (`PARAMS`)
//!   schemes all           # `all`, `lockfree`, or explicit names (ido atlas ...)
//!   tier tier1            # optional, default tier1
//!   seed 0                # optional, default 0
//!   alloc sharded 64      # optional: the sharded allocator with 64 shards
//!   bug ido_bug_skip_store_flush          # optional: VmConfig bug fields
//!   crash at step 37 lose [83]            # optional: one crash state
//!   fault thread 0 at worker bb2 5 nv_malloc 1048576  # or: the fault the run stops with
//!   expect 2 times ido ge atlas at threads 4  # `ido sweep` only: a claim about the CSV
//! }
//!
//! fn worker(r0) regs=1 slots=0 {   # optional: replaces the workload's program
//!   ...
//! }
//! ```
//!
//! The named workload supplies setup, per-thread arguments, and final-state
//! verification; the program section (when present) replaces only the code.
//! Without one the workload runs its own program, the program section of
//! its `corpus/<kind>.ido` file. A reproducer always writes its program out,
//! so it replays the code it failed on.
//!
//! A scenario prints itself (`Display`) in the form it parses from, so a
//! crash-oracle [`Counterexample`] becomes a file through
//! [`Scenario::reproducer`]: the scenario narrowed to the failing scheme, with
//! the counterexample's seed, sizes, injected bugs and crash state, which
//! `ido crashtest` replays. A run that stops with a [`RunOutcome::Fault`]
//! becomes one through [`Scenario::fault_reproducer`]: its `fault` line
//! names the thread, the instruction and the fault.
//!
//! A `threads` list and any sweep-parameter line (`delay`, the iDO ablation
//! flags, `lock_cost_ns`) make the file a sweep: [`Scenario::sweep`] runs
//! every scheme × thread count × each listed parameter's values on a pool
//! sized for that point and returns one CSV, which is how `ido sweep`
//! regenerates the paper's throughput figures and ablations from
//! `corpus/figures/`.
//! Its `expect` lines are paper claims about that CSV ([`Claim`],
//! [`Scenario::check_claims`]). Every other subcommand runs one point and
//! rejects both ([`Scenario::check_one_point`]).

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::ops::RangeInclusive;

use ido_compiler::Scheme;
use ido_crashtest::{Counterexample, CrashState, OracleConfig};
use ido_ir::{BinOp, Pc, Program};
use ido_nvm::{AllocPolicy, MetricsConfig, StatsSnapshot};
use ido_trace::Hist;
use ido_vm::{ExecTier, FaultKind, RunOutcome, Vm, VmConfig};
use ido_workloads::{
    bench_config, kv, list_log_per_op, lockfree, micro, service, sweep, with_sharded_alloc,
    WorkloadSpec, LOG_PER_OP,
};

use ido_ir::text::lexer::{lex, Cursor, Tok};
use ido_ir::text::parser::{parse_binop_name, parse_program_tokens};
use ido_ir::text::{LangError, ParsedProgram, Span};

/// Which native workload a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Locked Treiber stack.
    Stack,
    /// Two-lock Michael–Scott queue.
    Queue,
    /// Hand-over-hand ordered list.
    List,
    /// Fixed-size hash map.
    Map,
    /// Memcached-like KV cache (insertion-intensive mix).
    Memcached,
    /// Redis-like object store (durable regions); takes `range`.
    Redis,
    /// Service-style fixed-slot store; takes `range`.
    Service,
    /// Twin counters on two cache lines (the crash oracle's probe).
    Twin,
    /// Lock-free list (recoverable-CAS family only).
    LfList,
    /// Lock-free hash map (recoverable-CAS family only).
    LfMap,
    /// Allocator churn: `nv_malloc` / `nv_free` on the hot path.
    AllocChurn,
}

/// Every workload kind with the name a `workload` line spells it by.
const KINDS: [(&str, WorkloadKind); 11] = [
    ("stack", WorkloadKind::Stack),
    ("queue", WorkloadKind::Queue),
    ("list", WorkloadKind::List),
    ("map", WorkloadKind::Map),
    ("memcached", WorkloadKind::Memcached),
    ("redis", WorkloadKind::Redis),
    ("service", WorkloadKind::Service),
    ("twin", WorkloadKind::Twin),
    ("lf_list", WorkloadKind::LfList),
    ("lf_map", WorkloadKind::LfMap),
    ("alloc_churn", WorkloadKind::AllocChurn),
];

/// One of [`VmConfig`]'s injected-bug switches.
type BugFlag = fn(&mut VmConfig) -> &mut bool;

/// The injected-bug switches of [`VmConfig`], by field name: what a `bug`
/// line names.
const BUGS: [(&str, BugFlag); 4] = [
    ("ido_bug_skip_store_flush", |c| &mut c.ido_bug_skip_store_flush),
    ("lf_bug_skip_window_flush", |c| &mut c.lf_bug_skip_window_flush),
    ("lf_bug_skip_publish", |c| &mut c.lf_bug_skip_publish),
    ("tier2_bug_misfuse_store_clwb", |c| &mut c.tier2_bug_misfuse_store_clwb),
];

/// A sweep parameter: a scenario key that takes a value list, as `threads`
/// does, and sets one [`VmConfig`] field at each point of the sweep. Its
/// key, its CSV column, its value where a file does not list it (the
/// field's in [`VmConfig::default`]), its largest value and its setter.
type Param = (&'static str, &'static str, u64, u64, fn(&mut VmConfig, u64));

/// The bound of an ns parameter. `delay` is charged once per pending line
/// at a fence (`LatencyModel::fence_cost`); a pool is mapped memory, under
/// 2^48 bytes and so 2^42 lines, and 2^42 lines × 2^20 ns stays below
/// 2^63. `lock_cost_ns` is charged as one sum per lock op, which tier 2
/// batches below the clock's 2^48 ns range before the gate stops it.
const MAX_PARAM_NS: u64 = 1 << 20;

/// The sweep parameters, in the order a sweep nests them (after schemes
/// and `threads`). The first, `delay`, is a column of every sweep CSV; each
/// other is a column, after `delay_ns`, only where a file lists it.
const PARAMS: [Param; 5] = [
    ("delay", "delay_ns", 0, MAX_PARAM_NS, |c, v| c.pool.latency.nvm_extra_delay_ns = v),
    ("ido_eager_step2_fence", "ido_eager_step2_fence", 0, 1, |c, v| c.ido_eager_step2_fence = v == 1),
    ("ido_unmerged_acquire_fence", "ido_unmerged_acquire_fence", 0, 1, |c, v| c.ido_unmerged_acquire_fence = v == 1),
    ("ido_no_coalescing", "ido_no_coalescing", 0, 1, |c, v| c.ido_no_coalescing = v == 1),
    ("lock_cost_ns", "lock_cost_ns", 20, MAX_PARAM_NS, |c, v| c.lock_cost_ns = v),
];

/// One point of a sweep: its thread count, then every parameter's value in
/// [`PARAMS`] order (its default where the file does not list it).
type Point = [u64; 1 + PARAMS.len()];

/// The coordinate of a [`Point`] that `key`, `threads` or a parameter,
/// names, and the sweep CSV column that holds it.
fn axis(key: &str) -> Option<(usize, &'static str)> {
    if key == "threads" {
        return Some((0, "threads"));
    }
    PARAMS.iter().position(|p| p.0 == key).map(|i| (i + 1, PARAMS[i].1))
}

/// `p` with its coordinate `c` moved to `v`.
fn set(mut p: Point, c: usize, v: u64) -> Point {
    p[c] = v;
    p
}

impl WorkloadKind {
    fn from_ident(s: &str) -> Option<WorkloadKind> {
        KINDS.iter().find(|(name, _)| *name == s).map(|&(_, k)| k)
    }

    /// The name a `workload` line spells this kind by.
    pub fn ident(self) -> &'static str {
        KINDS.iter().find(|&&(_, k)| k == self).expect("every kind has a name").0
    }

    /// True for the lock-free structures, which only run under
    /// [`Scheme::LOCKFREE`] (their `cas` is rejected by the lock-delineated
    /// schemes' instrumentation, and vice versa for `lock`).
    pub fn is_lockfree(self) -> bool {
        matches!(self, WorkloadKind::LfList | WorkloadKind::LfMap)
    }

    /// True when the workload takes a `range` parameter.
    pub fn takes_range(self) -> bool {
        use WorkloadKind::*;
        matches!(self, List | Map | LfMap | Redis | Service)
    }

    /// The schemes this workload can run under.
    pub fn allowed_schemes(self) -> &'static [Scheme] {
        if self.is_lockfree() {
            &Scheme::LOCKFREE
        } else {
            &Scheme::ALL
        }
    }
}

/// The name a `schemes` line spells `scheme` by: its display name as one
/// identifier (`LF-Eager` → `lf_eager`), which [`Scheme::from_name`] reads
/// back.
pub fn scheme_ident(scheme: Scheme) -> String {
    scheme.name().to_lowercase().replace('-', "_")
}

/// A fault a run stopped with ([`RunOutcome::Fault`]), with its pc named
/// the way `ido explain` lists the instrumented program: function, block,
/// instruction index. A `fault` line holds one:
/// `fault thread 0 at worker bb2 5 nv_malloc 1048576` (or `nv_free ADDR`,
/// `stack_overflow FRAME_BYTES`, `call_depth DEPTH`, `spawn BYTES`,
/// `log_full CAPACITY` or `clock NS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The faulting thread.
    pub thread: usize,
    /// The function of the faulting instruction.
    pub function: String,
    /// Its block.
    pub block: u32,
    /// Its index in the block.
    pub index: u32,
    /// What went wrong.
    pub kind: FaultKind,
}

impl Fault {
    /// The fault `outcome` reports, its pc resolved in `program` (the
    /// instrumented program the run executed); `None` for any other outcome.
    pub fn of(outcome: RunOutcome, program: &Program) -> Option<Fault> {
        let RunOutcome::Fault { thread, pc: Pc { func, block, index }, kind } = outcome else {
            return None;
        };
        Some(Fault {
            thread: thread.0,
            function: program.function(func).name().to_string(),
            block: block.0,
            index,
            kind,
        })
    }

    /// The `fault` line's words after `fault`.
    fn clause(&self) -> String {
        let (call, value) = match self.kind {
            FaultKind::AllocFailed { size } => ("nv_malloc", size),
            FaultKind::FreeFailed { addr } => ("nv_free", addr),
            FaultKind::StackOverflow { frame_bytes } => ("stack_overflow", frame_bytes),
            FaultKind::CallTooDeep { depth } => ("call_depth", depth),
            FaultKind::SpawnFailed { bytes } => ("spawn", bytes),
            FaultKind::LogFull { capacity } => ("log_full", capacity),
            FaultKind::ClockOutOfRange { clock } => ("clock", clock),
        };
        let Fault { thread, function, block, index, .. } = self;
        format!("thread {thread} at {function} bb{block} {index} {call} {value}")
    }
}

/// One side of an `expect` line, `[K times] SCHEME [COLUMN] [at AXIS V]`:
/// `K` times `SCHEME`'s `COLUMN` (default `mops`) at one point of the sweep.
#[derive(Debug, Clone)]
struct Term {
    times: Option<u64>,
    scheme: Scheme,
    scheme_span: Span,
    column: Option<&'static str>,
    at: Option<(String, u64, Span)>,
}

/// An `expect` line, `expect TERM CMP TERM [miss "REASON"]` with `CMP` one
/// of `gt ge lt le`: a claim `ido sweep` checks over its CSV. A side without
/// `at` takes the other's point; with neither, the claim holds at every
/// point. Equal when printed alike.
#[derive(Debug, Clone)]
pub struct Claim {
    lhs: Term,
    cmp: BinOp,
    rhs: Term,
    miss: Option<String>,
    span: Span,
}

impl PartialEq for Claim {
    fn eq(&self, other: &Claim) -> bool {
        self.to_string() == other.to_string()
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |t: &Term| {
            let times = t.times.map(|k| format!("{k} times ")).unwrap_or_default();
            let column = t.column.map(|c| format!(" {c}")).unwrap_or_default();
            let at = t.at.as_ref().map(|(axis, v, _)| format!(" at {axis} {v}")).unwrap_or_default();
            format!("{times}{}{column}{at}", scheme_ident(t.scheme))
        };
        let miss = self.miss.as_ref().map(|r| format!(" miss {r:?}")).unwrap_or_default();
        write!(f, "{} {} {}{miss}", side(&self.lhs), self.cmp, side(&self.rhs))
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Fault { thread, function, block, index, kind } = self;
        write!(f, "thread {thread} faulted at {function} bb{block} {index}: {kind}")
    }
}

/// A parsed `.ido` scenario. Two scenarios are equal when they print the
/// same.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The `#` comment lines at the top of the file, without the `#` and
    /// one following space. A reproducer keeps its failure line and journal
    /// tail here.
    pub notes: Vec<String>,
    /// Scenario name (the header's identifier).
    pub name: String,
    /// Workload kind.
    pub kind: WorkloadKind,
    /// `range` parameter, if given (list/map/redis/service only).
    pub range: Option<u64>,
    /// `buckets` parameter, if given (map only).
    pub buckets: Option<u64>,
    /// `puts` parameter: the set rate in permille, if given (memcached
    /// only).
    pub puts: Option<u64>,
    /// Worker thread counts: one, or a sweep's list.
    pub threads: Vec<usize>,
    /// Operations per thread.
    pub ops: u64,
    /// The sweep parameters the file lists (`PARAMS`), each with its
    /// values, in table order.
    pub params: Vec<(&'static str, Vec<u64>)>,
    /// Schemes to run, in declaration order.
    pub schemes: Vec<Scheme>,
    /// Execution tier.
    pub tier: ExecTier,
    /// Scheduler seed.
    pub seed: u64,
    /// Shard count of the sharded allocator (`alloc sharded N`); `None`
    /// for [`VmConfig`]'s default allocator.
    pub alloc: Option<usize>,
    /// The injected-bug fields of [`VmConfig`] the `bug` line switches on,
    /// in [`VmConfig`] order.
    pub bugs: Vec<&'static str>,
    /// The one crash state `ido crashtest` checks instead of exploring.
    pub crash: Option<CrashState>,
    /// The fault `ido crashtest` expects the run to stop with, instead of
    /// exploring. Never together with `crash`.
    pub fault: Option<Fault>,
    /// The `expect` lines, which only `ido sweep` checks.
    pub claims: Vec<Claim>,
    /// The optional program section (replaces the native program).
    pub program: Option<ParsedProgram>,
}

impl Scenario {
    /// The spec to hand to `run_workload`: the native workload, with the
    /// scenario's program (if any) substituted in.
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            native: self.native_spec(),
            program: self.program.as_ref().map(|p| p.program.clone()),
        }
    }

    /// The native Rust spec of the scenario's workload, with its `range`,
    /// `buckets` and `puts` where given.
    pub fn native_spec(&self) -> Box<dyn WorkloadSpec> {
        let range = |default| self.range.unwrap_or(default);
        match self.kind {
            WorkloadKind::Stack => Box::new(micro::StackSpec),
            WorkloadKind::Queue => Box::new(micro::QueueSpec),
            WorkloadKind::List => {
                Box::new(micro::ListSpec { key_range: range(micro::ListSpec::default().key_range) })
            }
            WorkloadKind::Map => {
                let d = micro::MapSpec::default();
                let (buckets, key_range) = (self.buckets.unwrap_or(d.buckets), range(d.key_range));
                match self.puts {
                    Some(put_permille) => Box::new(micro::HohMapMixSpec { buckets, key_range, put_permille }),
                    None => Box::new(micro::MapSpec { buckets, key_range }),
                }
            }
            WorkloadKind::Memcached => {
                let d = kv::memcached::MemcachedSpec::insertion_intensive();
                let put_permille = self.puts.unwrap_or(d.put_permille);
                Box::new(kv::memcached::MemcachedSpec { put_permille, ..d })
            }
            WorkloadKind::Redis => Box::new(kv::redis::RedisSpec::with_range(range(256))),
            WorkloadKind::Service => Box::new(service::ServiceSpec::with_range(range(256))),
            WorkloadKind::Twin => Box::new(micro::TwinSpec),
            WorkloadKind::LfList => Box::new(lockfree::LfListSpec),
            WorkloadKind::LfMap => {
                let d = lockfree::LfMapSpec::default();
                let (buckets, put_permille) = (self.buckets.unwrap_or(d.buckets), self.puts.unwrap_or(d.put_permille));
                Box::new(lockfree::LfMapSpec { buckets, key_range: range(d.key_range), put_permille })
            }
            WorkloadKind::AllocChurn => Box::new(micro::AllocChurnSpec),
        }
    }

    /// The keys a point of the sweep is named by, each with its values:
    /// `threads`, then every listed parameter.
    fn axes(&self) -> Vec<(&'static str, Vec<u64>)> {
        let threads = self.threads.iter().map(|&t| t as u64).collect();
        [("threads", threads)].into_iter().chain(self.params.iter().cloned()).collect()
    }

    /// Every point of the sweep, `threads` × each listed parameter's values
    /// in table order.
    fn points(&self) -> Vec<Point> {
        let mut points = vec![[0; 1 + PARAMS.len()]];
        PARAMS.iter().enumerate().for_each(|(i, p)| points[0][i + 1] = p.2);
        for (key, values) in self.axes() {
            let (c, _) = axis(key).expect("every axis is a coordinate");
            points = points.iter().flat_map(|&p| values.iter().map(move |&v| set(p, c, v))).collect();
        }
        points
    }

    /// `base` with the scenario's `seed`, `tier`, `alloc` and `bug` lines
    /// applied.
    pub fn vm_config(&self, mut base: VmConfig) -> VmConfig {
        base.seed = self.seed;
        base.tier = self.tier;
        if let Some(shards) = self.alloc {
            base.alloc = AllocPolicy::Sharded { shards };
        }
        for &(name, flag) in &BUGS {
            if self.bugs.contains(&name) {
                *flag(&mut base) = true;
            }
        }
        base
    }

    /// The crash oracle's configuration for this scenario:
    /// [`OracleConfig::default`] with its `threads` (the first count),
    /// `ops`, `seed`, `tier`, `alloc` and `bug` lines applied.
    pub fn oracle_config(&self) -> OracleConfig {
        let default = OracleConfig::default();
        OracleConfig {
            threads: self.threads[0],
            ops_per_thread: self.ops,
            seed: self.seed,
            vm: self.vm_config(default.vm.clone()),
            ..default
        }
    }

    /// The scenario that replays `cex`, a counterexample found on this
    /// scenario's workload: this one narrowed to `cex.scheme`, with the
    /// counterexample's seed, threads, ops, tier, injected bugs and crash
    /// state, the program section written out (the workload's own program
    /// when this scenario has none), and the failure line and journal tail
    /// as leading comments.
    ///
    /// # Errors
    /// Names what the scenario cannot express: a counterexample of another
    /// workload, or a `cex.vm` that differs from the configuration
    /// [`Scenario::oracle_config`] rebuilds (allocator, pool size, …) in any
    /// field. Such a file would replay a different run.
    pub fn reproducer(&self, cex: &Counterexample) -> Result<Scenario, String> {
        let spec = self.spec();
        if cex.workload != spec.name() {
            return Err(format!(
                "the counterexample is of workload `{}`, the scenario runs `{}`",
                cex.workload,
                spec.name()
            ));
        }
        let bugs = BUGS.iter().filter(|(_, flag)| *flag(&mut cex.vm.clone())).map(|&(n, _)| n);
        let mut notes = vec![
            format!("failure: {}", cex.failure.lines().next().unwrap_or_default()),
            "journal tail:".to_string(),
        ];
        notes.extend(cex.journal_tail.iter().map(|e| format!("  {e}")));
        let repro = Scenario {
            threads: vec![cex.threads],
            ops: cex.ops_per_thread,
            tier: cex.vm.tier,
            seed: cex.seed,
            alloc: match cex.vm.alloc {
                AllocPolicy::Sharded { shards } => Some(shards),
                _ => None,
            },
            bugs: bugs.collect(),
            crash: Some(CrashState {
                step: cex.crash_step,
                lost: cex.lost_lines.clone(),
                recovery: cex.recovery.clone(),
            }),
            fault: None,
            ..self.narrowed(cex.scheme, notes)
        };
        // The oracle runs on its own seed, never on `vm.seed`.
        let rebuilt = repro.oracle_config().vm;
        let found = VmConfig { seed: rebuilt.seed, ..cex.vm.clone() };
        match first_difference(&found, &rebuilt) {
            Some(field) => Err(format!(
                "the counterexample's VM config differs from the scenario's in `{field}`"
            )),
            None => Ok(repro),
        }
    }

    /// The scenario that replays `fault`, which this scenario's run under
    /// `scheme` stopped with: this one narrowed to `scheme`, with the
    /// `fault` line, the program section written out, and the fault as the
    /// leading failure note.
    pub fn fault_reproducer(&self, scheme: Scheme, fault: Fault) -> Scenario {
        let notes = vec![format!("failure: {fault}")];
        Scenario { crash: None, fault: Some(fault), ..self.narrowed(scheme, notes) }
    }

    /// This scenario as one point under `scheme` alone, with `notes` and
    /// its program section written out (the workload's own program when it
    /// has none): what a reproducer starts from.
    fn narrowed(&self, scheme: Scheme, notes: Vec<String>) -> Scenario {
        let program = self.program.clone().unwrap_or_else(|| ParsedProgram {
            program: self.spec().build_program(),
            inst_spans: HashMap::new(),
            fn_spans: Vec::new(),
        });
        Scenario {
            notes,
            threads: vec![self.threads[0]],
            params: Vec::new(),
            schemes: vec![scheme],
            program: Some(program),
            ..self.clone()
        }
    }

    /// The VM configuration of one sweep point: [`bench_config`]'s pool and
    /// logs for its `threads` × `ops`, the `alloc` line (the sharded
    /// allocator doubles the pool, see [`with_sharded_alloc`]), its value of
    /// every sweep parameter, metrics on in one window spanning the run
    /// (the sweep reads only the whole-run latency histograms, and a window
    /// per simulated millisecond per thread costs 170 MiB at 256 threads),
    /// and the `seed`, `tier` and `bug` lines.
    ///
    /// The heap is 256 MiB plus 64 B per key and per operation. A pool only
    /// just large enough moves numbers: with the sharded allocator at 64
    /// threads, NVThreads' memcached throughput changes in the fourth
    /// decimal below a 96 MiB heap. Pool images are mapped untouched, so
    /// the head-room costs no resident memory.
    fn point_config(&self, point: &Point) -> VmConfig {
        let threads = point[0] as usize;
        // Keys and operations, 64 B each.
        let items = self.range.unwrap_or(0) + threads as u64 * self.ops;
        let heap_mib = 256 + (items >> 14) as usize;
        let log_per_op = match self.kind {
            WorkloadKind::List => {
                list_log_per_op(self.range.unwrap_or(micro::ListSpec::default().key_range))
            }
            _ => LOG_PER_OP,
        };
        let mut cfg = bench_config(heap_mib, threads, self.ops, log_per_op);
        if let Some(shards) = self.alloc {
            cfg = with_sharded_alloc(cfg, shards);
        }
        for (param, &v) in PARAMS.iter().zip(&point[1..]) {
            (param.4)(&mut cfg, v);
        }
        cfg.pool.metrics = MetricsConfig::with_window(u64::MAX);
        self.vm_config(cfg)
    }

    /// Runs every scheme × sweep point ([`Scenario::points`]), in that
    /// order, over [`sweep`] with `jobs` workers, and returns the CSV: a
    /// header, then one row per point with its coordinates, the simulated
    /// time, throughput, whole-run op latency quantiles (zero for a workload
    /// without op spans) and every persistence counter. The text is the same
    /// for any `jobs`.
    pub fn sweep(&self, jobs: usize) -> String {
        let points = self.points();
        let runs = self.schemes.iter().flat_map(|&s| points.iter().map(move |p| (s, p)));
        let stats = sweep(jobs, &self.spec(), self.ops, runs.map(|(s, p)| (s, p[0] as usize, self.point_config(p))).collect());
        // `delay_ns` is the first parameter's column; each other listed one follows it.
        let listed: Vec<(usize, &str)> = self.params.iter().filter_map(|(key, _)| axis(key).filter(|&(c, _)| c > 1)).collect();
        let columns: String = listed.iter().map(|(_, column)| format!(",{column}")).collect();
        let mut csv = format!("workload,scheme,{POINT_COLUMNS}{columns},{RESULT_COLUMNS},{}\n", StatsSnapshot::CSV_HEADER);
        for (p, s) in points.iter().cycle().zip(&stats) {
            let mut lat = Hist::default();
            for h in &s.metrics.as_ref().expect("sweep points run with metrics on").per_kind {
                lat.merge(h);
            }
            let coords: String = listed.iter().map(|&(c, _)| format!(",{}", p[c])).collect();
            let _ = writeln!(
                csv,
                "{},{},{},{},{}{coords},{},{:.4},{},{},{},{}",
                self.kind.ident(),
                s.scheme.name(),
                s.threads,
                self.ops,
                p[1],
                s.sim_ns,
                s.mops(),
                lat.value_at_quantile(0.50),
                lat.value_at_quantile(0.99),
                lat.value_at_quantile(0.999),
                s.mem_stats.csv_fields(),
            );
        }
        csv
    }

    /// Checks every `expect` line over `csv`, the text [`Scenario::sweep`]
    /// returned: per claim, whether it came out as announced (it holds, or a
    /// known miss misses) and its line for stderr, with both sides at the
    /// first point where it misses, or else where it holds most narrowly.
    pub fn check_claims(&self, csv: &str) -> Vec<(bool, String)> {
        let rows: Vec<Vec<&str>> = csv.lines().map(|l| l.split(',').collect()).collect();
        let col = |name: &str| rows[0].iter().position(|&c| c == name).expect("a CSV column");
        // Each axis: its key, its coordinate and the index of its column.
        let axes: Vec<(&str, usize, usize)> = self
            .axes()
            .into_iter()
            .map(|(key, _)| axis(key).map(|(c, column)| (key, c, col(column))).expect("an axis"))
            .collect();
        // Side `t` at point `p`, with the coordinate its `at` names moved.
        let value = |t: &Term, p: Point, at: Option<&(String, u64, Span)>| {
            let p = at.map_or(p, |(key, v, _)| set(p, axis(key).expect("checked at parse").0, *v));
            let at_p = |r: &&Vec<&str>| axes.iter().all(|&(_, c, col)| r[col] == p[c].to_string());
            let row = rows.iter().skip(1).filter(|r| r[1] == t.scheme.name()).find(at_p).expect("every point has a row");
            t.times.unwrap_or(1) as f64 * row[col(t.column.unwrap_or("mops"))].parse::<f64>().expect("a numeric column")
        };
        let points = self.points();
        let check = |claim: &Claim| {
            // A side without `at` takes the other side's.
            let (lhs, rhs) = (&claim.lhs, &claim.rhs);
            let (l_at, r_at) = (lhs.at.as_ref().or(rhs.at.as_ref()), rhs.at.as_ref().or(lhs.at.as_ref()));
            let sides: Vec<(f64, f64, Point)> =
                points.iter().map(|&p| (value(lhs, p, l_at), value(rhs, p, r_at), p)).collect();
            let holds = |&(l, r, _): &(f64, f64, _)| match claim.cmp {
                BinOp::Gt => l > r,
                BinOp::Ge => l >= r,
                BinOp::Lt => l < r,
                _ => l <= r,
            };
            // How far the claim clears its bound at a point, as a ratio.
            let margin = |&(l, r, _): &(f64, f64, _)| match claim.cmp {
                BinOp::Gt | BinOp::Ge => l / r,
                _ => r / l,
            };
            let all = sides.iter().all(holds);
            let narrowest = sides.iter().min_by(|a, b| margin(a).total_cmp(&margin(b)));
            let shown = sides.iter().find(|s| !holds(s)).or(narrowest);
            let (l, r, p) = *shown.expect("a sweep has a point");
            // The point's coordinates that vary and that no `at` fixes.
            let fixed = |key: &str| [l_at, r_at].iter().flatten().any(|(k, _, _)| k == key);
            let coords: Vec<String> = axes
                .iter()
                .filter(|&&(key, ..)| !fixed(key) && (key != "threads" || self.threads.len() > 1))
                .map(|&(key, c, _)| format!("{key} {}", p[c]))
                .collect();
            let point = if coords.is_empty() { String::new() } else { format!(" at {}", coords.join(", ")) };
            let verdict = match (all, &claim.miss) {
                (true, None) => "holds",
                (false, None) => "MISSES",
                (false, Some(_)) => "known miss",
                (true, Some(_)) => "known miss HOLDS",
            };
            let [l, r] = [l, r].map(|v| (v * 1e4).round() / 1e4);
            (all != claim.miss.is_some(), format!("{verdict}: expect {claim}: {l} {} {r}{point}", claim.cmp))
        };
        self.claims.iter().map(check).collect()
    }

    /// Why every subcommand but `ido sweep` rejects this scenario, read from
    /// `source` at `path`: the key that makes it a sweep — `threads` when it
    /// lists more than one count, else the first sweep parameter it lists at
    /// all (the other subcommands keep [`VmConfig`]'s own values) — or its
    /// first `expect` line. A scenario of one point runs `threads[0]`.
    pub fn check_one_point(&self, path: &str, source: &str) -> Result<(), String> {
        let threads = (self.threads.len() > 1).then_some("threads");
        if let Some(axis) = threads.or(self.params.first().map(|&(key, _)| key)) {
            return Err(format!("{path}: `{axis}` makes this scenario a sweep: run it with `ido sweep {path}`"));
        }
        match self.claims.first() {
            Some(claim) => {
                let only = "only `ido sweep` checks an `expect` line";
                Err(LangError::new(only, claim.span, "a claim about the sweep").render(path, source))
            }
            None => Ok(()),
        }
    }
}

/// The sweep CSV's columns that name its point, before the listed
/// parameters' columns other than `delay_ns`.
const POINT_COLUMNS: &str = "threads,ops,delay_ns";

/// The sweep CSV's numeric result columns before the persistence counters.
const RESULT_COLUMNS: &str = "sim_ns,mops,p50_ns,p99_ns,p999_ns";

/// The path of the first field in which the pretty `Debug` forms of `a`
/// and `b` differ (`pool.size`), or `None` when they are equal. Reading the
/// `Debug` form covers every field, including ones added later.
fn first_difference(a: &impl fmt::Debug, b: &impl fmt::Debug) -> Option<String> {
    let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
    // The field names of the containers open at the current line.
    let mut path: Vec<&str> = Vec::new();
    for (x, y) in a.lines().zip(b.lines()) {
        let text = x.trim_start();
        path.truncate(((x.len() - text.len()) / 4).saturating_sub(1));
        let field = text.split(':').next().unwrap_or(text);
        if x != y {
            path.push(field);
            return Some(path.join("."));
        }
        if text.ends_with(['{', '(', '[']) {
            path.push(field);
        }
    }
    (a != b).then(|| "(trailing fields)".to_string())
}

impl fmt::Display for Scenario {
    /// The scenario in the form [`parse_scenario`] reads back: notes, the
    /// header (keys at their defaults left out), then the program section.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for note in &self.notes {
            let gap = if note.is_empty() { "" } else { " " };
            writeln!(f, "#{gap}{note}")?;
        }
        writeln!(f, "scenario {} {{", self.name)?;
        writeln!(f, "  workload {}", self.kind.ident())?;
        let params = [("range", self.range), ("buckets", self.buckets), ("puts", self.puts)];
        for (key, value) in params {
            if let Some(v) = value {
                writeln!(f, "  {key} {v}")?;
            }
        }
        writeln!(f, "  threads {}", comma_list(&self.threads))?;
        writeln!(f, "  ops {}", self.ops)?;
        for (key, values) in &self.params {
            writeln!(f, "  {key} {}", comma_list(values))?;
        }
        if self.schemes != self.kind.allowed_schemes() {
            let names: Vec<String> = self.schemes.iter().map(|&s| scheme_ident(s)).collect();
            writeln!(f, "  schemes {}", names.join(" "))?;
        }
        if self.tier == ExecTier::Tier2 {
            writeln!(f, "  tier tier2")?;
        }
        if self.seed != 0 {
            writeln!(f, "  seed {}", self.seed)?;
        }
        if let Some(shards) = self.alloc {
            writeln!(f, "  alloc sharded {shards}")?;
        }
        if !self.bugs.is_empty() {
            writeln!(f, "  bug {}", self.bugs.join(" "))?;
        }
        if let Some(crash) = &self.crash {
            write!(f, "  crash at step {} lose {:?}", crash.step, crash.lost)?;
            if let Some((budget, lost)) = &crash.recovery {
                write!(f, " then after {budget} recovery units lose {lost:?}")?;
            }
            writeln!(f)?;
        }
        if let Some(fault) = &self.fault {
            writeln!(f, "  fault {}", fault.clause())?;
        }
        for claim in &self.claims {
            writeln!(f, "  expect {claim}")?;
        }
        writeln!(f, "}}")?;
        if let Some(p) = &self.program {
            write!(f, "\n{}", p.program)?;
        }
        Ok(())
    }
}

/// `values` as a `threads` or sweep-parameter line spells them: `1,2,4`.
fn comma_list(values: &[impl fmt::Display]) -> String {
    values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

/// A [`WorkloadSpec`] that delegates everything to the scenario's native
/// workload except (when a program section was given) the program itself.
pub struct ScenarioSpec {
    native: Box<dyn WorkloadSpec>,
    program: Option<Program>,
}

impl WorkloadSpec for ScenarioSpec {
    fn name(&self) -> String {
        self.native.name()
    }

    fn build_program(&self) -> Program {
        match &self.program {
            Some(p) => p.clone(),
            None => self.native.build_program(),
        }
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        self.native.setup(vm, threads, ops)
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        self.native.worker_args(base, thread, ops)
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        self.native.verify(vm, base, total_ops)
    }
}

/// Parses the values of a `key` line, `v` or `v1,v2,…`: one value, or a
/// sweep's list, each in `bounds`. `ctx` names one value in an error, and
/// `out_of_range` is the error of a value outside `bounds`.
fn value_list(
    c: &mut Cursor,
    (key, key_span): (&str, Span),
    ctx: &str,
    bounds: RangeInclusive<u64>,
    out_of_range: &str,
) -> Result<Vec<u64>, LangError> {
    if matches!(c.peek().tok, Tok::Newline | Tok::Eof) {
        return Err(LangError::new(
            format!("`{key}` needs at least one value"),
            key_span,
            "empty list",
        ));
    }
    let mut values = Vec::new();
    loop {
        let (v, span) = c.expect_u64(ctx)?;
        if !bounds.contains(&v) {
            return Err(LangError::new(out_of_range, span, "out of range"));
        }
        values.push(v);
        if c.peek().tok != Tok::Comma {
            return Ok(values);
        }
        c.bump();
    }
}

/// Parses `lose [l1, l2, …]`: the dirty lines a crash loses.
fn lost_lines(c: &mut Cursor) -> Result<Vec<usize>, LangError> {
    c.expect_keyword("lose", "before the lost lines")?;
    c.expect(Tok::LBracket, "to open the lost-line list")?;
    let mut lines = Vec::new();
    while c.peek().tok != Tok::RBracket {
        if !lines.is_empty() {
            c.expect(Tok::Comma, "between lost lines")?;
        }
        lines.push(c.expect_u64("as a lost line")?.0 as usize);
    }
    c.bump();
    Ok(lines)
}

/// Parses the rest of a `crash` line: `at step N lose [..]`, optionally
/// followed by `then after B recovery units lose [..]`.
fn crash_state(c: &mut Cursor) -> Result<CrashState, LangError> {
    c.expect_keyword("at", "after `crash`")?;
    c.expect_keyword("step", "after `crash at`")?;
    let (step, _) = c.expect_u64("as the crash step")?;
    let lost = lost_lines(c)?;
    let recovery = if matches!(&c.peek().tok, Tok::Ident(w) if w == "then") {
        c.bump();
        c.expect_keyword("after", "after `then`")?;
        let (budget, _) = c.expect_u64("as the recovery budget")?;
        c.expect_keyword("recovery", "after the recovery budget")?;
        c.expect_keyword("units", "after `recovery`")?;
        Some((budget, lost_lines(c)?))
    } else {
        None
    };
    Ok(CrashState { step, lost, recovery })
}

/// Parses the rest of a `fault` line: `thread T at FUNCTION bbB I`, then
/// `nv_malloc SIZE`, `nv_free ADDR`, `stack_overflow FRAME_BYTES`,
/// `call_depth DEPTH`, `spawn BYTES`, `log_full CAPACITY` or `clock NS`.
fn fault_clause(c: &mut Cursor) -> Result<Fault, LangError> {
    c.expect_keyword("thread", "after `fault`")?;
    let (thread, _) = c.expect_u64("as the faulting thread")?;
    c.expect_keyword("at", "after the faulting thread")?;
    let (function, _) = c.expect_ident("as the faulting function")?;
    let (label, span) = c.expect_ident("as the faulting block")?;
    let block = label.strip_prefix("bb").and_then(|b| b.parse().ok()).ok_or_else(|| {
        LangError::new(format!("expected a block label `bbN`, found `{label}`"), span, "not a block")
    })?;
    let (index, span) = c.expect_u64("as the faulting instruction's index")?;
    let index = u32::try_from(index)
        .map_err(|_| LangError::new("instruction index out of range", span, "too large"))?;
    let (call, span) = c.expect_ident("as the faulting call")?;
    let (value, _) = c.expect_u64("as the call's operand")?;
    let kind = match call.as_str() {
        "nv_malloc" => FaultKind::AllocFailed { size: value },
        "nv_free" => FaultKind::FreeFailed { addr: value },
        "stack_overflow" => FaultKind::StackOverflow { frame_bytes: value },
        "call_depth" => FaultKind::CallTooDeep { depth: value },
        "spawn" => FaultKind::SpawnFailed { bytes: value },
        "log_full" => FaultKind::LogFull { capacity: value },
        "clock" => FaultKind::ClockOutOfRange { clock: value },
        _ => {
            return Err(LangError::new(
                format!("unknown fault `{call}`"),
                span,
                "expected `nv_malloc`, `nv_free`, `stack_overflow`, `call_depth`, `spawn`, `log_full` or `clock`",
            ))
        }
    };
    Ok(Fault { thread: thread as usize, function, block, index, kind })
}

/// Parses the rest of an `expect` line after its key at `key_span`. Its
/// schemes and `at` points are checked once the whole header is read.
fn claim(c: &mut Cursor, key_span: Span) -> Result<Claim, LangError> {
    let word = |c: &Cursor| if let Tok::Ident(w) = &c.peek().tok { w.clone() } else { String::new() };
    let term = |c: &mut Cursor| -> Result<Term, LangError> {
        let mut times = None;
        if let Tok::Int(_) = c.peek().tok {
            let (k, span) = c.expect_u64("as a multiplier")?;
            if k == 0 {
                return Err(LangError::new("a multiplier must be at least 1", span, "out of range"));
            }
            c.expect_keyword("times", "after a multiplier")?;
            times = Some(k);
        }
        let (name, scheme_span) = c.expect_ident("as a scheme")?;
        let scheme = Scheme::from_name(&name).ok_or_else(|| {
            LangError::new(format!("unknown scheme `{name}`"), scheme_span, "expected a scheme name")
        })?;
        let (w, mut column, mut at) = (word(c), None, None);
        if !["", "at", "miss", "gt", "ge", "lt", "le"].contains(&w.as_str()) {
            let mut columns =
                [POINT_COLUMNS, RESULT_COLUMNS, StatsSnapshot::CSV_HEADER].into_iter().flat_map(|c| c.split(','));
            let names = columns.clone().collect::<Vec<_>>().join(" ");
            let label = format!("expected a comparison, `at` or a column: {names}");
            let unknown = LangError::new(format!("unknown column `{w}`"), c.bump().span, label);
            column = Some(columns.find(|&col| col == w).ok_or(unknown)?);
        }
        if word(c) == "at" {
            c.bump();
            let (axis, span) = c.expect_ident("as the sweep axis")?;
            let (v, vspan) = c.expect_u64("as a point of the sweep axis")?;
            at = Some((axis, v, span.to(vspan)));
        }
        Ok(Term { times, scheme, scheme_span, column, at })
    };
    let lhs = term(c)?;
    let (op, span) = c.expect_ident("as a comparison")?;
    let cmp = parse_binop_name(&op)
        .filter(|o| matches!(o, BinOp::Gt | BinOp::Ge | BinOp::Lt | BinOp::Le))
        .ok_or_else(|| {
            LangError::new(format!("unknown comparison `{op}`"), span, "expected `gt`, `ge`, `lt` or `le`")
        })?;
    let (rhs, mut miss) = (term(c)?, None);
    if word(c) == "miss" {
        c.bump();
        let t = c.bump();
        let Tok::Str(reason) = t.tok else {
            let msg = format!("expected a quoted reason after `miss`, found {}", t.tok.describe());
            return Err(LangError::new(msg, t.span, "a known miss says why"));
        };
        miss = Some(reason);
    }
    Ok(Claim { lhs, cmp, rhs, miss, span: key_span.to(c.prev_span()) })
}

/// Parses a full `.ido` file: leading `#` notes, the `scenario` header
/// block, then an optional program section.
///
/// # Errors
/// Returns the first spanned [`LangError`]; duplicate-key and
/// range-on-wrong-workload errors carry a secondary label at the related
/// position.
pub fn parse_scenario(source: &str) -> Result<Scenario, LangError> {
    let notes = source
        .lines()
        .map_while(|l| l.strip_prefix('#'))
        .map(|n| n.strip_prefix(' ').unwrap_or(n).to_string())
        .collect();
    let mut c = Cursor::new(lex(source)?);
    c.eat_newlines();
    c.expect_keyword("scenario", "to start the file")?;
    let (name, _name_span) = c.expect_ident("as the scenario name")?;
    let open = c.expect(Tok::LBrace, "to open the scenario block")?;
    c.expect_line_end("one key per line")?;

    let mut seen: HashMap<String, Span> = HashMap::new();
    let mut kind: Option<(WorkloadKind, Span)> = None;
    let mut range: Option<(u64, Span)> = None;
    let mut buckets: Option<(u64, Span)> = None;
    let mut puts: Option<(u64, Span)> = None;
    let mut threads: Option<Vec<usize>> = None;
    let mut ops: Option<(u64, Span)> = None;
    let mut params: Vec<(usize, Vec<u64>)> = Vec::new();
    let mut alloc = None;
    let mut schemes: Option<Vec<(Scheme, Span)>> = None;
    let mut scheme_group: Option<(&'static [Scheme], Span)> = None;
    let mut tier = ExecTier::Tier1;
    let mut seed = 0u64;
    let mut bugs: Vec<&'static str> = Vec::new();
    let mut crash = None;
    let mut fault = None;
    let mut claims = Vec::new();

    let close = loop {
        c.eat_newlines();
        if c.peek().tok == Tok::RBrace {
            break c.bump();
        }
        let (key, key_span) = c.expect_ident("as a scenario key")?;
        if let Some(&first) = seen.get(&key).filter(|_| key != "expect") {
            return Err(LangError::new(
                format!("duplicate key `{key}`"),
                key_span,
                "redefined here",
            )
            .with_note(first, "first defined here"));
        }
        seen.insert(key.clone(), key_span);
        match key.as_str() {
            "workload" => {
                let (w, wspan) = c.expect_ident("as the workload name")?;
                let Some(k) = WorkloadKind::from_ident(&w) else {
                    let names: Vec<&str> = KINDS.iter().map(|(n, _)| *n).collect();
                    return Err(LangError::new(
                        format!("unknown workload `{w}`"),
                        wspan,
                        format!("expected one of: {}", names.join(" ")),
                    ));
                };
                kind = Some((k, key_span.to(wspan)));
            }
            "range" => {
                let (v, vspan) = c.expect_u64("as the key range")?;
                range = Some((v, key_span.to(vspan)));
            }
            "buckets" => {
                let (v, vspan) = c.expect_u64("as the bucket count")?;
                buckets = Some((v, key_span.to(vspan)));
            }
            "puts" => {
                let (v, vspan) = c.expect_u64("as the set rate in permille")?;
                if v > 1000 {
                    let msg = "set rate must be at most 1000‰";
                    return Err(LangError::new(msg, vspan, "out of range"));
                }
                puts = Some((v, key_span.to(vspan)));
            }
            "threads" => {
                let bound = "thread count must be between 1 and 4096";
                let counts = value_list(&mut c, (&key, key_span), "as a thread count", 1..=4096, bound)?;
                threads = Some(counts.into_iter().map(|v| v as usize).collect());
            }
            "alloc" => {
                let (w, wspan) = c.expect_ident("as the allocator")?;
                if w != "sharded" {
                    return Err(LangError::new(
                        format!("unknown allocator `{w}`"),
                        wspan,
                        "expected `sharded` and a shard count",
                    ));
                }
                let (n, nspan) = c.expect_u64("as the shard count")?;
                if n == 0 || n > 4096 {
                    return Err(LangError::new(
                        "shard count must be between 1 and 4096",
                        nspan,
                        "out of range",
                    ));
                }
                alloc = Some(n as usize);
            }
            "ops" => {
                let (v, vspan) = c.expect_u64("as the per-thread op count")?;
                if v == 0 {
                    return Err(LangError::new(
                        "per-thread op count must be at least 1",
                        vspan,
                        "out of range",
                    ));
                }
                ops = Some((v, vspan));
            }
            "schemes" => {
                let mut list = Vec::new();
                loop {
                    let t = c.peek().clone();
                    let Tok::Ident(w) = &t.tok else { break };
                    let w = w.clone();
                    c.bump();
                    match w.as_str() {
                        "all" => scheme_group = Some((&Scheme::ALL, t.span)),
                        "lockfree" => scheme_group = Some((&Scheme::LOCKFREE, t.span)),
                        _ => match Scheme::from_name(&w) {
                            Some(s) => list.push((s, t.span)),
                            None => {
                                return Err(LangError::new(
                                    format!("unknown scheme `{w}`"),
                                    t.span,
                                    "expected a scheme name, `all`, or `lockfree`",
                                ))
                            }
                        },
                    }
                }
                if list.is_empty() && scheme_group.is_none() {
                    return Err(LangError::new(
                        "`schemes` needs at least one scheme",
                        key_span,
                        "empty scheme list",
                    ));
                }
                if !list.is_empty() {
                    schemes = Some(list);
                }
            }
            "tier" => {
                let (w, wspan) = c.expect_ident("as the execution tier")?;
                tier = match w.as_str() {
                    "tier1" => ExecTier::Tier1,
                    "tier2" => ExecTier::Tier2,
                    _ => {
                        return Err(LangError::new(
                            format!("unknown tier `{w}`"),
                            wspan,
                            "expected `tier1` or `tier2`",
                        ))
                    }
                };
            }
            "seed" => {
                let (v, _) = c.expect_u64("as the scheduler seed")?;
                seed = v;
            }
            "bug" => {
                let mut named: Vec<String> = Vec::new();
                while let Tok::Ident(w) = &c.peek().tok {
                    if !BUGS.iter().any(|(n, _)| n == w) {
                        let names: Vec<&str> = BUGS.iter().map(|(n, _)| *n).collect();
                        return Err(LangError::new(
                            format!("unknown bug `{w}`"),
                            c.peek().span,
                            format!("expected a VmConfig bug field: {}", names.join(" ")),
                        ));
                    }
                    named.push(w.clone());
                    c.bump();
                }
                if named.is_empty() {
                    return Err(LangError::new(
                        "`bug` needs at least one field",
                        key_span,
                        "empty bug list",
                    ));
                }
                // In `VmConfig` order, each once.
                bugs = BUGS.iter().map(|&(n, _)| n).filter(|n| named.iter().any(|w| w == n)).collect();
            }
            "crash" | "fault" => {
                let other = if key == "crash" { "fault" } else { "crash" };
                if let Some(&other) = seen.get(other) {
                    return Err(LangError::new(
                        "`crash` and `fault` exclude each other",
                        key_span,
                        "a run that faults has no crash state to check",
                    )
                    .with_note(other, "the other one"));
                }
                if key == "crash" {
                    crash = Some(crash_state(&mut c)?);
                } else {
                    fault = Some(fault_clause(&mut c)?);
                }
            }
            "expect" => claims.push(claim(&mut c, key_span)?),
            _ => {
                let Some(i) = PARAMS.iter().position(|p| p.0 == key) else {
                    let params: Vec<&str> = PARAMS.iter().map(|p| p.0).collect();
                    let expected = format!(
                        "expected one of: workload range buckets puts threads ops schemes tier seed alloc bug \
                         crash fault expect, or a sweep parameter: {}",
                        params.join(" ")
                    );
                    return Err(LangError::new(format!("unknown scenario key `{key}`"), key_span, expected));
                };
                let max = PARAMS[i].3;
                let (ctx, bound) = match max {
                    1 => ("as 0 or 1", format!("`{key}` is 0 or 1")),
                    _ => ("as a value in ns", format!("`{key}` is at most {max} ns")),
                };
                params.push((i, value_list(&mut c, (&key, key_span), ctx, 0..=max, &bound)?));
            }
        }
        c.expect_line_end("one key per line")?;
    };

    // Required keys.
    let Some((kind, kind_span)) = kind else {
        return Err(LangError::new("scenario is missing `workload`", close.span, "block ends here")
            .with_note(open.span, "scenario opened here"));
    };
    let Some(threads) = threads else {
        return Err(LangError::new("scenario is missing `threads`", close.span, "block ends here")
            .with_note(open.span, "scenario opened here"));
    };
    let Some((ops, ops_span)) = ops else {
        return Err(LangError::new("scenario is missing `ops`", close.span, "block ends here")
            .with_note(open.span, "scenario opened here"));
    };
    // Guest loop counters compare as signed words, and a sweep point
    // budgets 64 B of pool per operation (`Scenario::point_config`).
    let most = *threads.iter().max().expect("`threads` has at least one value") as u64;
    if most.checked_mul(ops).and_then(|n| n.checked_mul(64)).map_or(true, |b| b > i64::MAX as u64) {
        return Err(LangError::new(
            "per-thread op count too large: threads × ops × 64 B must fit a signed 64-bit word",
            ops_span,
            "out of range",
        ));
    }
    // A point's heap starts at 256 MiB, which holds a map directory of up
    // to 2^20 buckets: 8 B and a sentinel of at most 128 B each.
    if let Some((_, span)) = buckets.filter(|&(b, _)| b == 0 || b > 1 << 20) {
        return Err(LangError::new("bucket count must be between 1 and 1048576", span, "out of range"));
    }

    // Cross-key validation: a workload parameter only where it applies.
    let maps = matches!(kind, WorkloadKind::Map | WorkloadKind::LfMap);
    for (key, given, applies, workloads) in [
        ("range", range, kind.takes_range(), "the list, map, lf_map, redis and service workloads"),
        ("buckets", buckets, maps, "the map and lf_map workloads"),
        ("puts", puts, maps || kind == WorkloadKind::Memcached, "the memcached, map and lf_map workloads"),
    ] {
        if let Some((_, span)) = given.filter(|_| !applies) {
            return Err(LangError::new(
                format!("`{key}` only applies to {workloads}"),
                span,
                format!("{key} given here"),
            )
            .with_note(kind_span, "for this workload"));
        }
    }
    let allowed = kind.allowed_schemes();
    let schemes: Vec<Scheme> = match (schemes, scheme_group) {
        (Some(list), _) => {
            for &(s, sspan) in &list {
                if !allowed.contains(&s) {
                    return Err(LangError::new(
                        format!("scheme {} cannot run this workload", s.name()),
                        sspan,
                        if kind.is_lockfree() {
                            "lock-free workloads only run under `lockfree` schemes"
                        } else {
                            "lock-delineated workloads cannot run under the lock-free family"
                        },
                    )
                    .with_note(kind_span, "workload declared here"));
                }
            }
            list.into_iter().map(|(s, _)| s).collect()
        }
        (None, Some((group, gspan))) => {
            if group.iter().any(|s| !allowed.contains(s)) {
                return Err(LangError::new(
                    "scheme group does not match the workload",
                    gspan,
                    if kind.is_lockfree() {
                        "lock-free workloads need `schemes lockfree`"
                    } else {
                        "this workload needs `schemes all` or explicit lock-delineated schemes"
                    },
                )
                .with_note(kind_span, "workload declared here"));
            }
            group.to_vec()
        }
        (None, None) => allowed.to_vec(),
    };

    // Optional program section.
    c.eat_newlines();
    let program = if c.peek().tok == Tok::Eof {
        None
    } else {
        let parsed = parse_program_tokens(c)?;
        if parsed.program.find("worker").is_none() {
            return Err(LangError::new(
                "program section defines no `worker` function",
                parsed.fn_spans[0],
                "the harness spawns `worker` on every thread",
            ));
        }
        Some(parsed)
    };

    let [range, buckets, puts] = [range, buckets, puts].map(|p| p.map(|(v, _)| v));
    // In table order, the order a sweep nests them.
    params.sort_by_key(|&(i, _)| i);
    let params = params.into_iter().map(|(i, values)| (PARAMS[i].0, values)).collect();
    let scenario = Scenario {
        notes,
        name,
        kind,
        range,
        buckets,
        puts,
        threads,
        ops,
        params,
        schemes,
        tier,
        seed,
        alloc,
        bugs,
        crash,
        fault,
        claims,
        program,
    };
    // Each side's scheme runs in the sweep, and its `at` names a value of
    // one of the sweep's axes.
    let axes = scenario.axes();
    for term in scenario.claims.iter().flat_map(|c| [&c.lhs, &c.rhs]) {
        if !scenario.schemes.contains(&term.scheme) {
            let msg = format!("scheme {} is not in `schemes`", term.scheme.name());
            return Err(LangError::new(msg, term.scheme_span, "no point of the sweep runs it"));
        }
        let on_an_axis = |(key, v, _): &&(String, u64, Span)| axes.iter().any(|(k, vs)| k == key && vs.contains(v));
        if let Some((key, v, span)) = term.at.as_ref().filter(|at| !on_an_axis(at)) {
            let msg = format!("`{key} {v}` is not a point of this file's sweep");
            let points: Vec<String> = axes.iter().map(|(k, vs)| format!("{k} {}", comma_list(vs))).collect();
            return Err(LangError::new(msg, *span, format!("the points are {}", points.join("; "))));
        }
    }
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_nvm::LatencyModel;

    #[test]
    fn minimal_scenario_gets_defaults() {
        let s = parse_scenario("scenario smoke {\n  workload stack\n  threads 2\n  ops 6\n}\n")
            .unwrap();
        assert_eq!(s.name, "smoke");
        assert_eq!(s.kind, WorkloadKind::Stack);
        assert_eq!(s.threads, [2]);
        assert_eq!(s.ops, 6);
        assert_eq!((s.params.as_slice(), s.alloc, s.check_one_point("x", "")), (&[][..], None, Ok(())));
        assert_eq!(s.schemes, Scheme::ALL.to_vec());
        assert_eq!(s.tier, ExecTier::Tier1);
        assert_eq!(s.seed, 0);
        assert!(s.notes.is_empty() && s.bugs.is_empty() && s.crash.is_none());
        assert!(s.program.is_none());
        assert_eq!(s.spec().name(), "stack");
    }

    #[test]
    fn explicit_keys_parse() {
        let src = "scenario svc {\n  workload service\n  range 128\n  threads 4\n  ops 50\n  schemes ido justdo\n  tier tier2\n  seed 42\n}\n";
        let s = parse_scenario(src).unwrap();
        assert_eq!(s.kind, WorkloadKind::Service);
        assert_eq!(s.range, Some(128));
        assert_eq!(s.schemes, vec![Scheme::Ido, Scheme::JustDo]);
        assert_eq!(s.tier, ExecTier::Tier2);
        assert_eq!(s.seed, 42);
        assert_eq!(s.spec().name(), "service(range=128)");
    }

    #[test]
    fn lockfree_workloads_default_to_the_lockfree_family() {
        let s = parse_scenario("scenario lf {\n  workload lf_list\n  threads 2\n  ops 4\n}\n")
            .unwrap();
        assert_eq!(s.schemes, Scheme::LOCKFREE.to_vec());
    }

    #[test]
    fn scheme_names_are_case_insensitive() {
        let src = "scenario x {\n  workload queue\n  threads 1\n  ops 2\n  schemes iDO JUSTDO NVThreads\n}\n";
        let s = parse_scenario(src).unwrap();
        assert_eq!(s.schemes, vec![Scheme::Ido, Scheme::JustDo, Scheme::Nvthreads]);
    }

    #[test]
    fn duplicate_key_is_a_two_label_error() {
        let src = "scenario x {\n  workload stack\n  threads 2\n  threads 4\n  ops 6\n}\n";
        let e = parse_scenario(src).unwrap_err();
        assert!(e.message.contains("duplicate key `threads`"), "{e:?}");
        assert_eq!(e.secondary.len(), 1);
        let r = e.render("x.ido", src);
        assert!(r.contains("first defined here"), "{r}");
    }

    #[test]
    fn unknown_scheme_is_spanned() {
        let src = "scenario x {\n  workload stack\n  threads 2\n  ops 6\n  schemes frobnicate\n}\n";
        let e = parse_scenario(src).unwrap_err();
        assert!(e.message.contains("unknown scheme `frobnicate`"), "{e:?}");
        assert_eq!(&src[e.primary.span.start..e.primary.span.end], "frobnicate");
    }

    #[test]
    fn range_on_a_rangeless_workload_is_rejected() {
        let src = "scenario x {\n  workload stack\n  range 64\n  threads 2\n  ops 6\n}\n";
        let e = parse_scenario(src).unwrap_err();
        assert!(e.message.contains("range"), "{e:?}");
        assert_eq!(e.secondary.len(), 1);
    }

    #[test]
    fn incompatible_scheme_for_workload_is_rejected() {
        let src = "scenario x {\n  workload lf_list\n  threads 2\n  ops 4\n  schemes ido\n}\n";
        let e = parse_scenario(src).unwrap_err();
        assert!(e.message.contains("cannot run this workload"), "{e:?}");
        let src = "scenario x {\n  workload stack\n  threads 2\n  ops 4\n  schemes lockfree\n}\n";
        let e = parse_scenario(src).unwrap_err();
        assert!(e.message.contains("does not match"), "{e:?}");
    }

    #[test]
    fn missing_required_keys_are_reported() {
        let e = parse_scenario("scenario x {\n  workload stack\n  threads 2\n}\n").unwrap_err();
        assert!(e.message.contains("missing `ops`"), "{e:?}");
        let e = parse_scenario("scenario x {\n  threads 2\n  ops 6\n}\n").unwrap_err();
        assert!(e.message.contains("missing `workload`"), "{e:?}");
    }

    #[test]
    fn program_section_replaces_the_program() {
        let src = "scenario x {\n  workload stack\n  threads 1\n  ops 2\n}\n\nfn worker(r0, r1, r2) regs=3 slots=0 {\n  bb0:\n    ret\n}\n";
        let s = parse_scenario(src).unwrap();
        let p = s.program.as_ref().unwrap();
        assert!(p.program.find("worker").is_some());
        assert_eq!(s.spec().build_program(), p.program);
    }

    #[test]
    fn program_section_without_worker_is_rejected() {
        let src = "scenario x {\n  workload stack\n  threads 1\n  ops 2\n}\n\nfn helper() regs=0 slots=0 {\n  bb0:\n    ret\n}\n";
        let e = parse_scenario(src).unwrap_err();
        assert!(e.message.contains("no `worker`"), "{e:?}");
    }

    /// Parses `src`, requires it to print as itself, and returns it.
    fn printed_as_itself(src: &str) -> Scenario {
        let s = parse_scenario(src).unwrap_or_else(|e| panic!("{}", e.render("x.ido", src)));
        assert_eq!(s.to_string(), src);
        assert_eq!(parse_scenario(&s.to_string()).unwrap(), s);
        s
    }

    #[test]
    fn every_clause_form_prints_as_it_parses() {
        let header = "scenario x {\n  workload twin\n  threads 2\n  ops 2\n  schemes ido\n  seed 7\n";
        let s = printed_as_itself(&format!("{header}}}\n"));
        assert_eq!((s.kind, s.spec().name()), (WorkloadKind::Twin, "twin-counter".to_string()));
        let s = printed_as_itself(&format!("{header}  bug ido_bug_skip_store_flush\n}}\n"));
        assert_eq!(s.bugs, ["ido_bug_skip_store_flush"]);
        let s = printed_as_itself(&format!("{header}  crash at step 37 lose [83]\n}}\n"));
        assert_eq!(s.crash, Some(CrashState { step: 37, lost: vec![83], recovery: None }));
        let s = printed_as_itself(&format!("{header}  crash at step 0 lose []\n}}\n"));
        assert_eq!(s.crash, Some(CrashState { step: 0, lost: vec![], recovery: None }));
        let s = printed_as_itself(
            "# failure: torn\n#\n#   #3 clwb line 9\nscenario x {\n  workload twin\n  threads 2\n  \
             ops 2\n  schemes ido\n  tier tier2\n  seed 7\n  \
             bug lf_bug_skip_window_flush tier2_bug_misfuse_store_clwb\n  \
             crash at step 12 lose [4, 5] then after 11 recovery units lose [83]\n}\n\n\
             fn worker(r0) regs=1 slots=0 {\n  bb0:\n    ret\n}\n",
        );
        assert_eq!(s.notes, ["failure: torn", "", "  #3 clwb line 9"]);
        assert_eq!(s.bugs, ["lf_bug_skip_window_flush", "tier2_bug_misfuse_store_clwb"]);
        assert_eq!(s.crash.unwrap().recovery, Some((11, vec![83])));
        // A lock-free scheme prints as an identifier the lexer reads back.
        printed_as_itself("scenario lf {\n  workload lf_list\n  threads 1\n  ops 1\n  schemes lf_eager\n}\n");
        // The sweep axes, the workload parameters and the allocator.
        let s = printed_as_itself(
            "scenario m {\n  workload memcached\n  puts 100\n  threads 1,2,4\n  ops 3\n  \
             delay 0,20\n  alloc sharded 8\n}\n",
        );
        assert_eq!((s.threads.as_slice(), s.params.as_slice()), (&[1, 2, 4][..], &[("delay", vec![0, 20])][..]));
        assert_eq!(s.spec().name(), "memcached(put=100‰)");
        assert!(s.check_one_point("m.ido", "").unwrap_err().contains("`threads` makes this scenario a sweep"));
        assert_eq!(s.vm_config(VmConfig::for_tests()).alloc, AllocPolicy::Sharded { shards: 8 });
        let s = printed_as_itself("scenario m {\n  workload map\n  range 512\n  buckets 16\n  threads 2\n  ops 3\n}\n");
        assert_eq!(s.spec().name(), "hash-map(buckets=16,range=512)");
        let s = printed_as_itself("scenario l {\n  workload list\n  range 32\n  threads 1\n  ops 1\n  delay 100\n}\n");
        assert_eq!(s.spec().name(), "ordered-list(range=32)");
        assert!(s.check_one_point("l.ido", "").unwrap_err().contains("`delay` makes this scenario a sweep"));
        let s = printed_as_itself("scenario c {\n  workload alloc_churn\n  threads 1\n  ops 1\n}\n");
        assert_eq!(s.spec().name(), "alloc_churn");
        // `puts` makes the map the mixed-op one; `lf_map` takes all three keys.
        let s = printed_as_itself("scenario m {\n  workload map\n  range 64\n  buckets 8\n  puts 600\n  threads 1\n  ops 3\n}\n");
        assert_eq!(s.spec().name(), "hoh-map-mix(buckets=8,range=64,put=600‰)");
        let s = printed_as_itself("scenario l {\n  workload lf_map\n  range 1024\n  buckets 64\n  puts 100\n  threads 1\n  ops 3\n}\n");
        assert_eq!(s.spec().name(), "lf-map(buckets=64,range=1024,put=100‰)");
        // `expect` repeats, and each form prints as written.
        let s = printed_as_itself(
            "scenario e {\n  workload stack\n  threads 1,2\n  ops 1\n  schemes origin ido\n  \
             expect origin gt ido\n  expect 2 times ido mops at threads 2 ge 1 times ido at threads 1\n  \
             expect ido clwbs le 3 times origin fences miss \"why \\\"not\\\"\"\n}\n",
        );
        assert_eq!(s.claims.len(), 3);
        assert_eq!(s.claims[2].miss.as_deref(), Some("why \"not\""));
        assert_eq!((s.claims[1].lhs.at.as_ref().map(|a| (&*a.0, a.1)), s.claims[1].cmp), (Some(("threads", 2)), BinOp::Ge));
        assert!(s.check_one_point("e.ido", "").unwrap_err().contains("`threads` makes this scenario a sweep"));
    }

    #[test]
    fn claims_are_checked_over_the_sweep_csv() {
        let s = parse_scenario(
            "scenario c {\n  workload stack\n  threads 1,2\n  ops 1\n  schemes origin ido\n  \
             expect origin gt 2 times ido\n  expect ido at threads 2 ge 2 times ido at threads 1\n  \
             expect ido ge origin at threads 2\n  expect ido gt origin miss \"slower\"\n  \
             expect origin clwbs le ido clwbs at threads 1 miss \"none\"\n}\n",
        )
        .unwrap();
        let row = |scheme, threads, mops, clwbs| format!("stack,{scheme},{threads},1,0,0,{mops},0,0,0,0,0,0,{clwbs},0,0,0");
        let header = format!("workload,scheme,{POINT_COLUMNS},{RESULT_COLUMNS},{}", StatsSnapshot::CSV_HEADER);
        let rows = [header, row("Origin", 1, "3", 0), row("Origin", 2, "5", 0), row("iDO", 1, "1", 4), row("iDO", 2, "2.0001", 4)];
        let checked = s.check_claims(&(rows.join("\n") + "\n"));
        let want = [
            (true, "holds: expect origin gt 2 times ido: 5 gt 4.0002 at threads 2"),
            (true, "holds: expect ido at threads 2 ge 2 times ido at threads 1: 2.0001 ge 2"),
            (false, "MISSES: expect ido ge origin at threads 2: 2.0001 ge 5"),
            (true, "known miss: expect ido gt origin miss \"slower\": 1 gt 3 at threads 1"),
            (false, "known miss HOLDS: expect origin clwbs le ido clwbs at threads 1 miss \"none\": 0 le 4"),
        ];
        assert_eq!(checked, want.map(|(ok, line)| (ok, line.to_string())));
    }

    #[test]
    fn sweep_parameters_print_as_they_parse_in_table_order() {
        // Listed in any order, printed and nested in `PARAMS` order.
        let src = "scenario a {\n  workload stack\n  threads 1,2\n  ops 1\n  lock_cost_ns 0,20\n  \
                   ido_no_coalescing 0,1\n  delay 5\n  schemes ido\n}\n";
        let s = parse_scenario(src).unwrap();
        let printed = printed_as_itself(&s.to_string());
        assert_eq!(printed.params, [("delay", vec![5]), ("ido_no_coalescing", vec![0, 1]), ("lock_cost_ns", vec![0, 20])]);
        let coords: Vec<[u64; 3]> = s.points().iter().map(|p| [p[0], p[4], p[5]]).collect();
        assert_eq!(coords[..4], [[1, 0, 0], [1, 0, 20], [1, 1, 0], [1, 1, 20]]);
        assert_eq!(coords.len(), 8);
        let cfg = s.point_config(&s.points()[3]);
        assert_eq!((cfg.pool.latency.nvm_extra_delay_ns, cfg.ido_no_coalescing, cfg.lock_cost_ns), (5, true, 20));
        let flags = parse_scenario(&src.replace("threads 1,2", "threads 1").replace("  delay 5\n", "")).unwrap();
        assert!(flags.check_one_point("a.ido", "").unwrap_err().contains("`ido_no_coalescing` makes this scenario a sweep"));
    }

    #[test]
    fn every_default_is_the_vm_configs_own() {
        let mut cfg = VmConfig::default();
        for (key, column, default, _, set) in PARAMS {
            set(&mut cfg, default);
            assert_eq!(column == key, key != "delay", "only `delay` has a column of its own");
        }
        assert_eq!(first_difference(&cfg, &VmConfig::default()), None);
    }

    #[test]
    fn a_claim_at_a_flag_moves_that_coordinate_over_every_other_point() {
        let s = parse_scenario(
            "scenario f {\n  workload stack\n  threads 1,2\n  ops 1\n  ido_no_coalescing 0,1\n  schemes ido\n  \
             expect ido at ido_no_coalescing 0 gt ido at ido_no_coalescing 1\n  \
             expect ido at threads 2 gt ido at threads 1\n  \
             expect 2 times ido at ido_no_coalescing 1 gt ido at ido_no_coalescing 0\n}\n",
        )
        .unwrap();
        let header = format!("workload,scheme,{POINT_COLUMNS},ido_no_coalescing,{RESULT_COLUMNS},{}", StatsSnapshot::CSV_HEADER);
        let zeros = ",0".repeat(StatsSnapshot::CSV_HEADER.split(',').count());
        let row = |threads, flag, mops| format!("stack,iDO,{threads},1,0,{flag},0,{mops},0,0,0{zeros}");
        let rows = [header, row(1, 0, "4"), row(1, 1, "3"), row(2, 0, "2"), row(2, 1, "2.5")];
        let checked = s.check_claims(&(rows.join("\n") + "\n"));
        let want = [
            (false, "MISSES: expect ido at ido_no_coalescing 0 gt ido at ido_no_coalescing 1: 2 gt 2.5 at threads 2"),
            (false, "MISSES: expect ido at threads 2 gt ido at threads 1: 2 gt 4 at ido_no_coalescing 0"),
            (true, "holds: expect 2 times ido at ido_no_coalescing 1 gt ido at ido_no_coalescing 0: 6 gt 4 at threads 1"),
        ];
        assert_eq!(checked, want.map(|(ok, line)| (ok, line.to_string())));
    }

    #[test]
    fn a_sweep_point_is_sized_for_its_own_threads() {
        let src = "scenario m {\n  workload list\n  range 256\n  threads 1,64\n  ops 300\n  \
                   delay 0,20\n  seed 3\n  alloc sharded 4\n}\n";
        let s = parse_scenario(src).unwrap();
        let points = s.points();
        let coords: Vec<[u64; 2]> = points.iter().map(|p| [p[0], p[1]]).collect();
        assert_eq!(coords, [[1, 0], [1, 20], [64, 0], [64, 20]]);
        let (one, many) = (s.point_config(&points[0]), s.point_config(&points[3]));
        assert!(one.pool.size < many.pool.size && many.max_threads >= 64);
        assert_eq!(one.log_entries, (300 * list_log_per_op(256)).next_multiple_of(1 << 10));
        assert_eq!(one.pool.latency, LatencyModel::default());
        assert_eq!(many.pool.latency, LatencyModel { nvm_extra_delay_ns: 20, ..LatencyModel::default() });
        assert_eq!((many.alloc, many.seed), (AllocPolicy::Sharded { shards: 4 }, 3));
        let legacy = parse_scenario(&src.replace("  alloc sharded 4\n", "")).unwrap();
        assert_eq!(legacy.point_config(&points[3]).pool.size * 2, many.pool.size, "sharded doubles the pool");
        assert!(many.pool.metrics.enabled);
    }

    #[test]
    fn bad_sweep_and_parameter_clauses_are_spanned() {
        for (workload, clause, message, spanned) in [
            ("stack", "threads", "`threads` needs at least one value", "threads"),
            ("stack", "delay", "`delay` needs at least one value", "delay"),
            ("stack", "threads 1,0,4", "thread count must be between 1 and 4096", "0"),
            ("stack", "delay 0,x", "expected integer as a value in ns, found `x`", "x"),
            ("stack", "delay 0,1048577", "`delay` is at most 1048576 ns", "1048577"),
            ("stack", "lock_cost_ns 18446744073709551615", "`lock_cost_ns` is at most 1048576 ns", "18446744073709551615"),
            ("stack", "ido_no_coalescing 0,2", "`ido_no_coalescing` is 0 or 1", "2"),
            ("stack", "ido_eager_step2_fence x", "expected integer as 0 or 1, found `x`", "x"),
            ("stack", "threads x", "expected integer as a thread count, found `x`", "x"),
            ("memcached", "buckets 4", "`buckets` only applies to the map and lf_map workloads", "buckets 4"),
            ("stack", "puts 100", "`puts` only applies to the memcached, map and lf_map workloads", "puts 100"),
            ("map", "buckets 0", "bucket count must be between 1 and 1048576", "buckets 0"),
            ("lf_map", "buckets 1099511627776", "bucket count must be between 1 and 1048576", "buckets 1099511627776"),
            ("memcached", "puts 1001", "set rate must be at most 1000‰", "1001"),
            ("stack", "alloc global 4", "unknown allocator `global`", "global"),
            ("stack", "alloc sharded 0", "shard count must be between 1 and 4096", "0"),
            ("stack", "ops 9223372036854775808", "per-thread op count too large", "9223372036854775808"),
            ("memcached", "threads 4\n  ops 4611686018427387904", "op count too large", "4611686018427387904"),
            // 2^56 ops fit one thread's 64 B budget; the largest count decides.
            ("stack", "ops 72057594037927936\n  threads 1,4", "op count too large", "72057594037927936"),
        ] {
            let mut src = format!("scenario x {{\n  workload {workload}\n  threads 2\n  ops 2\n  {clause}\n}}\n");
            for key in ["threads", "ops"].into_iter().filter(|k| clause.contains(k)) {
                src = src.replacen(&format!("  {key} 2\n"), "", 1);
            }
            let e = parse_scenario(&src).unwrap_err();
            assert!(e.message.contains(message), "{clause}: {e:?}");
            assert_eq!(&src[e.primary.span.start..e.primary.span.end], spanned, "{clause}");
        }
    }

    #[test]
    fn bad_expect_clauses_are_spanned() {
        let header = "scenario x {\n  workload stack\n  threads 1,4\n  ops 2\n  schemes origin ido\n";
        for (clause, message, spanned) in [
            ("expect ido gt atlas", "scheme Atlas is not in `schemes`", "atlas"),
            ("expect ido flushes gt origin", "unknown column `flushes`", "flushes"),
            ("expect ido at threads 2 gt origin", "`threads 2` is not a point", "threads 2"),
            ("expect ido at delay 0 gt origin", "`delay 0` is not a point", "delay 0"),
            ("expect ido at cores 4 gt origin", "`cores 4` is not a point", "cores 4"),
            ("expect 0 times ido gt origin", "a multiplier must be at least 1", "0"),
            ("expect 2 ido gt origin", "expected `times` after a multiplier", "ido"),
            ("expect ido eq origin", "unknown column `eq`", "eq"),
            ("expect ido mops eq origin", "unknown comparison `eq`", "eq"),
            ("expect ido gt origin miss why", "expected a quoted reason after `miss`", "why"),
            ("expect ido gt origin miss", "expected a quoted reason after `miss`", "\n"),
        ] {
            let src = format!("{header}  {clause}\n}}\n");
            let e = parse_scenario(&src).unwrap_err();
            assert!(e.message.contains(message), "{clause}: {e:?}");
            assert_eq!(&src[e.primary.span.start..e.primary.span.end], spanned, "{clause}");
        }
    }

    #[test]
    fn bug_fields_apply_to_the_vm_and_the_oracle() {
        let src = "scenario x {\n  workload twin\n  threads 3\n  ops 5\n  tier tier2\n  seed 9\n  \
                   bug lf_bug_skip_publish ido_bug_skip_store_flush lf_bug_skip_publish\n}\n";
        let s = parse_scenario(src).unwrap();
        assert_eq!(s.bugs, ["ido_bug_skip_store_flush", "lf_bug_skip_publish"], "VmConfig order, once");
        let cfg = s.oracle_config();
        assert_eq!((cfg.threads, cfg.ops_per_thread, cfg.seed), (3, 5, 9));
        assert!(cfg.vm.ido_bug_skip_store_flush && cfg.vm.lf_bug_skip_publish);
        assert!(!cfg.vm.lf_bug_skip_window_flush && !cfg.vm.tier2_bug_misfuse_store_clwb);
        assert_eq!(cfg.vm.tier, ExecTier::Tier2);
        assert_eq!(cfg.exhaustive_subset_limit, OracleConfig::default().exhaustive_subset_limit);
    }

    #[test]
    fn bad_crash_and_bug_clauses_are_spanned() {
        let header = "scenario x {\n  workload twin\n  threads 2\n  ops 2\n";
        for (clause, message, spanned) in [
            ("bug ido_bug_skip_everything", "unknown bug `ido_bug_skip_everything`", "ido_bug_skip_everything"),
            ("bug", "`bug` needs at least one field", "bug"),
            ("crash at step 3 lose [1, x]", "expected integer as a lost line", "x"),
            ("crash at step 3 lose [1 2]", "expected `,` between lost lines", "2"),
            ("crash at 3 lose []", "after `crash at`, found `3`", "3"),
            ("crash at step 3 lose [] then after 2 units lose []", "expected `recovery`", "units"),
        ] {
            let src = format!("{header}  {clause}\n}}\n");
            let e = parse_scenario(&src).unwrap_err();
            assert!(e.message.contains(message), "{clause}: {e:?}");
            assert_eq!(&src[e.primary.span.start..e.primary.span.end], spanned, "{clause}");
        }
    }

    #[test]
    fn a_fault_line_prints_as_it_parses_and_excludes_a_crash_line() {
        let header = "scenario x {\n  workload stack\n  threads 1\n  ops 1\n";
        let s = printed_as_itself(&format!("{header}  fault thread 0 at worker bb2 5 nv_malloc 64\n}}\n"));
        let fault = Fault {
            thread: 0,
            function: "worker".into(),
            block: 2,
            index: 5,
            kind: FaultKind::AllocFailed { size: 64 },
        };
        assert_eq!(s.fault.as_ref(), Some(&fault));
        assert_eq!(fault.to_string(), "thread 0 faulted at worker bb2 5: nv_malloc of 64 bytes failed");
        let s = printed_as_itself(&format!("{header}  fault thread 1 at push bb0 0 nv_free 4104\n}}\n"));
        assert_eq!(s.fault.unwrap().kind, FaultKind::FreeFailed { addr: 4104 });
        let s = printed_as_itself(&format!("{header}  fault thread 0 at worker bb1 0 stack_overflow 8\n}}\n"));
        assert_eq!(s.fault.unwrap().kind, FaultKind::StackOverflow { frame_bytes: 8 });
        let s = printed_as_itself(&format!("{header}  fault thread 0 at worker bb1 9 call_depth 4096\n}}\n"));
        assert_eq!(s.fault.unwrap().kind, FaultKind::CallTooDeep { depth: 4096 });
        let s = printed_as_itself(&format!("{header}  fault thread 41 at worker bb0 0 spawn 16480\n}}\n"));
        assert_eq!(s.fault.unwrap().kind, FaultKind::SpawnFailed { bytes: 16480 });
        let s = printed_as_itself(&format!("{header}  fault thread 0 at worker bb3 1 log_full 512\n}}\n"));
        assert_eq!(s.fault.unwrap().kind, FaultKind::LogFull { capacity: 512 });
        let s = printed_as_itself(&format!("{header}  fault thread 0 at worker bb0 2 clock 281474976711654\n}}\n"));
        assert_eq!(s.fault.unwrap().kind, FaultKind::ClockOutOfRange { clock: 281474976711654 });
        for (clause, message, spanned) in [
            ("fault thread 0 at worker 2 5 nv_malloc 64", "as the faulting block", "2"),
            ("fault thread 0 at worker b2 5 nv_malloc 64", "expected a block label `bbN`", "b2"),
            ("fault thread 0 at worker bb2 5 nv_calloc 64", "unknown fault `nv_calloc`", "nv_calloc"),
            ("fault at worker bb2 5 nv_malloc 64", "expected `thread` after `fault`", "at"),
            ("crash at step 3 lose []\n  fault thread 0 at w bb0 0 nv_free 8", "exclude each other", "fault"),
        ] {
            let src = format!("{header}  {clause}\n}}\n");
            let e = parse_scenario(&src).unwrap_err();
            assert!(e.message.contains(message), "{clause}: {e:?}");
            assert_eq!(&src[e.primary.span.start..e.primary.span.end], spanned, "{clause}");
        }
    }

    #[test]
    fn first_difference_names_the_nested_field() {
        let a = VmConfig::for_tests();
        assert_eq!(first_difference(&a, &a.clone()), None);
        let b = VmConfig { stack_bytes: 1, ..a.clone() };
        assert_eq!(first_difference(&a, &b).as_deref(), Some("stack_bytes"));
        let mut c = a.clone();
        c.pool.size *= 2;
        assert_eq!(first_difference(&a, &c).as_deref(), Some("pool.size"));
        let d = VmConfig { sched: ido_vm::SchedPolicy::MinClock, ..a.clone() };
        assert_eq!(first_difference(&a, &d).as_deref(), Some("sched"));
    }
}
