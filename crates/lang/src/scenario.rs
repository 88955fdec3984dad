//! The scenario layer: a workload-spec header plus an optional program
//! section.
//!
//! ```text
//! # failure: ...            # optional leading comments, kept as `notes`
//! scenario stack_smoke {
//!   workload stack        # stack|queue|list|map|memcached|redis|service|twin|lf_list|lf_map|alloc_churn
//!   range 256             # optional: list|map|redis|service key range
//!   buckets 64            # optional: map buckets
//!   puts 500              # optional: memcached set rate, permille
//!   threads 2             # or a sweep's list: 1,2,4
//!   ops 6
//!   delay 0,20,100        # optional, `ido sweep` only: extra NVM ns per write-back
//!   schemes all           # `all`, `lockfree`, or explicit names (ido atlas ...)
//!   tier tier1            # optional, default tier1
//!   seed 0                # optional, default 0
//!   alloc sharded 64      # optional: the sharded allocator with 64 shards
//!   bug ido_bug_skip_store_flush          # optional: VmConfig bug fields
//!   crash at step 37 lose [83]            # optional: one crash state
//!   fault thread 0 at worker bb2 5 nv_malloc 1048576  # or: the fault the run stops with
//! }
//!
//! fn worker(r0) regs=1 slots=0 {   # optional: replaces the workload's program
//!   ...
//! }
//! ```
//!
//! The named workload supplies setup, per-thread arguments, and final-state
//! verification; the program section (when present) replaces only the code.
//! That split is what lets a corpus-driven run be compared byte-for-byte
//! against its Rust-builder equivalent: same setup, same verification, the
//! only moving part is whether the program came from the builder or the
//! parser.
//!
//! A scenario prints itself (`Display`) in the form it parses from, so a
//! crash-oracle [`Counterexample`] becomes a file through
//! [`Scenario::reproducer`]: the scenario narrowed to the failing scheme, with
//! the counterexample's seed, sizes, injected bugs and crash state, which
//! `ido crashtest` replays. A run that stops with a [`RunOutcome::Fault`]
//! becomes one through [`Scenario::fault_reproducer`]: its `fault` line
//! names the thread, the instruction and the fault.
//!
//! A `threads` list and a `delay` list make the file a sweep:
//! [`Scenario::sweep`] runs every scheme × thread count × delay on a pool
//! sized for that point and returns one CSV, which is how `ido sweep`
//! regenerates the paper's throughput figures from `corpus/figures/`.
//! Every other subcommand runs one point and rejects a sweep
//! ([`Scenario::sweep_axis`]).

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use ido_compiler::Scheme;
use ido_crashtest::{Counterexample, CrashState, OracleConfig};
use ido_ir::{Pc, Program};
use ido_nvm::{AllocPolicy, LatencyModel, MetricsConfig, StatsSnapshot};
use ido_trace::Hist;
use ido_vm::{ExecTier, FaultKind, RunOutcome, Vm, VmConfig};
use ido_workloads::{
    bench_config, kv, list_log_per_op, lockfree, micro, service, sweep, with_sharded_alloc,
    WorkloadSpec, LOG_PER_OP,
};

use crate::diag::{LangError, Span};
use crate::lexer::{lex, Cursor, Tok};
use crate::parser::{parse_program_tokens, ParsedProgram};

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
        matches!(self, List | Map | Redis | Service)
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
/// `fault thread 0 at worker bb2 5 nv_malloc 1048576` (or `nv_free ADDR`).
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
        };
        let Fault { thread, function, block, index, .. } = self;
        format!("thread {thread} at {function} bb{block} {index} {call} {value}")
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
    /// Extra NVM delays in ns ([`LatencyModel::with_nvm_delay`]), a sweep
    /// axis; `[0]`, the default latency model, when not given.
    pub delay: Vec<u64>,
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
                let buckets = self.buckets.unwrap_or(d.buckets);
                Box::new(micro::MapSpec { buckets, key_range: range(d.key_range) })
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
            WorkloadKind::LfMap => Box::new(lockfree::LfMapSpec::default()),
            WorkloadKind::AllocChurn => Box::new(micro::AllocChurnSpec),
        }
    }

    /// The axis that makes this scenario a sweep, which only `ido sweep`
    /// runs: `threads` when it lists more than one count, `delay` when it
    /// is given at all (the other subcommands keep their own latency
    /// model). `None` for a scenario of one point, whose thread count is
    /// `threads[0]`.
    pub fn sweep_axis(&self) -> Option<&'static str> {
        if self.threads.len() > 1 {
            Some("threads")
        } else if self.delay != [0] {
            Some("delay")
        } else {
            None
        }
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
            delay: vec![0],
            schemes: vec![scheme],
            program: Some(program),
            ..self.clone()
        }
    }

    /// The VM configuration of one sweep point: [`bench_config`]'s pool and
    /// logs for `threads` × `ops`, the `alloc` line (the sharded allocator
    /// doubles the pool, see [`with_sharded_alloc`]), the default latency
    /// model plus `delay` ns, metrics on in one window spanning the run
    /// (the sweep reads only the whole-run latency histograms, and a window
    /// per simulated millisecond per thread costs 170 MiB at 256 threads),
    /// and the `seed`, `tier` and `bug` lines.
    ///
    /// The heap is 256 MiB plus 64 B per key and per operation. A pool only
    /// just large enough moves numbers: with the sharded allocator at 64
    /// threads, NVThreads' memcached throughput changes in the fourth
    /// decimal below a 96 MiB heap. Pool images are mapped untouched, so
    /// the head-room costs no resident memory.
    pub fn point_config(&self, threads: usize, delay: u64) -> VmConfig {
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
        cfg.pool.latency = LatencyModel::with_nvm_delay(delay);
        cfg.pool.metrics = MetricsConfig::with_window(u64::MAX);
        self.vm_config(cfg)
    }

    /// Runs every scheme × `threads` × `delay` point, in that order, over
    /// [`sweep`] with `jobs` workers, and returns the CSV: a header, then
    /// one row per point with the simulated time, throughput, whole-run op
    /// latency quantiles (zero for a workload without op spans) and every
    /// persistence counter. The text is the same for any `jobs`.
    pub fn sweep(&self, jobs: usize) -> String {
        let mut axes = Vec::new();
        for &scheme in &self.schemes {
            for &threads in &self.threads {
                axes.extend(self.delay.iter().map(|&delay| (scheme, threads, delay)));
            }
        }
        let points = axes.iter().map(|&(s, t, d)| (s, t, self.point_config(t, d))).collect();
        let stats = sweep(jobs, &self.spec(), self.ops, points);
        let mut csv = format!(
            "workload,scheme,threads,ops,delay_ns,sim_ns,mops,p50_ns,p99_ns,p999_ns,{}\n",
            StatsSnapshot::CSV_HEADER
        );
        for ((_, _, delay), s) in axes.iter().zip(&stats) {
            let mut lat = Hist::default();
            for h in &s.metrics.as_ref().expect("sweep points run with metrics on").per_kind {
                lat.merge(h);
            }
            let _ = writeln!(
                csv,
                "{},{},{},{},{delay},{},{:.4},{},{},{},{}",
                self.kind.ident(),
                s.scheme.name(),
                s.threads,
                self.ops,
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
}

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
        if self.delay != [0] {
            writeln!(f, "  delay {}", comma_list(&self.delay))?;
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
        writeln!(f, "}}")?;
        if let Some(p) = &self.program {
            write!(f, "\n{}", p.program)?;
        }
        Ok(())
    }
}

/// `values` as a `threads` or `delay` line spells them: `1,2,4`.
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
/// sweep's list. `ctx` names one value in an error.
fn value_list(
    c: &mut Cursor,
    key: &str,
    key_span: Span,
    ctx: &str,
) -> Result<Vec<(u64, Span)>, LangError> {
    if matches!(c.peek().tok, Tok::Newline | Tok::Eof) {
        return Err(LangError::new(
            format!("`{key}` needs at least one value"),
            key_span,
            "empty list",
        ));
    }
    let mut values = vec![c.expect_u64(ctx)?];
    while c.peek().tok == Tok::Comma {
        c.bump();
        values.push(c.expect_u64(ctx)?);
    }
    Ok(values)
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
/// `nv_malloc SIZE` or `nv_free ADDR`.
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
        _ => {
            return Err(LangError::new(
                format!("unknown fault `{call}`"),
                span,
                "expected `nv_malloc` or `nv_free`",
            ))
        }
    };
    Ok(Fault { thread: thread as usize, function, block, index, kind })
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
    let mut delay = vec![0];
    let mut alloc = None;
    let mut schemes: Option<Vec<(Scheme, Span)>> = None;
    let mut scheme_group: Option<(&'static [Scheme], Span)> = None;
    let mut tier = ExecTier::Tier1;
    let mut seed = 0u64;
    let mut bugs: Vec<&'static str> = Vec::new();
    let mut crash = None;
    let mut fault = None;

    let close = loop {
        c.eat_newlines();
        if c.peek().tok == Tok::RBrace {
            break c.bump();
        }
        let (key, key_span) = c.expect_ident("as a scenario key")?;
        if let Some(&first) = seen.get(&key) {
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
                let mut counts = Vec::new();
                for (v, vspan) in value_list(&mut c, &key, key_span, "as a thread count")? {
                    if v == 0 || v > 4096 {
                        return Err(LangError::new(
                            "thread count must be between 1 and 4096",
                            vspan,
                            "out of range",
                        ));
                    }
                    counts.push(v as usize);
                }
                threads = Some(counts);
            }
            "delay" => {
                let values = value_list(&mut c, &key, key_span, "as a delay in ns")?;
                delay = values.into_iter().map(|(v, _)| v).collect();
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
            _ => {
                return Err(LangError::new(
                    format!("unknown scenario key `{key}`"),
                    key_span,
                    "expected one of: workload range buckets puts threads ops delay schemes tier seed \
                     alloc bug crash fault",
                ))
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

    // Cross-key validation: a workload parameter only where it applies.
    for (key, given, applies, workloads) in [
        ("range", range, kind.takes_range(), "the list, map, redis and service workloads"),
        ("buckets", buckets, kind == WorkloadKind::Map, "the map workload"),
        ("puts", puts, kind == WorkloadKind::Memcached, "the memcached workload"),
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
    Ok(Scenario {
        notes,
        name,
        kind,
        range,
        buckets,
        puts,
        threads,
        ops,
        delay,
        schemes,
        tier,
        seed,
        alloc,
        bugs,
        crash,
        fault,
        program,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_gets_defaults() {
        let s = parse_scenario("scenario smoke {\n  workload stack\n  threads 2\n  ops 6\n}\n")
            .unwrap();
        assert_eq!(s.name, "smoke");
        assert_eq!(s.kind, WorkloadKind::Stack);
        assert_eq!(s.threads, [2]);
        assert_eq!(s.ops, 6);
        assert_eq!((s.delay.as_slice(), s.alloc, s.sweep_axis()), (&[0][..], None, None));
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
        assert_eq!((s.threads.as_slice(), s.delay.as_slice()), (&[1, 2, 4][..], &[0, 20][..]));
        assert_eq!((s.spec().name(), s.sweep_axis()), ("memcached(put=100‰)".to_string(), Some("threads")));
        assert_eq!(s.vm_config(VmConfig::for_tests()).alloc, AllocPolicy::Sharded { shards: 8 });
        let s = printed_as_itself("scenario m {\n  workload map\n  range 512\n  buckets 16\n  threads 2\n  ops 3\n}\n");
        assert_eq!(s.spec().name(), "hash-map(buckets=16,range=512)");
        let s = printed_as_itself("scenario l {\n  workload list\n  range 32\n  threads 1\n  ops 1\n  delay 100\n}\n");
        assert_eq!((s.spec().name(), s.sweep_axis()), ("ordered-list(range=32)".to_string(), Some("delay")));
        let s = printed_as_itself("scenario c {\n  workload alloc_churn\n  threads 1\n  ops 1\n}\n");
        assert_eq!(s.spec().name(), "alloc_churn");
    }

    #[test]
    fn a_sweep_point_is_sized_for_its_own_threads() {
        let src = "scenario m {\n  workload list\n  range 256\n  threads 1,64\n  ops 300\n  \
                   delay 0,20\n  seed 3\n  alloc sharded 4\n}\n";
        let s = parse_scenario(src).unwrap();
        let (one, many) = (s.point_config(1, 0), s.point_config(64, 20));
        assert!(one.pool.size < many.pool.size && many.max_threads >= 64);
        assert_eq!(one.log_entries, (300 * list_log_per_op(256)).next_multiple_of(1 << 10));
        assert_eq!(one.pool.latency, LatencyModel::default());
        assert_eq!(many.pool.latency, LatencyModel::with_nvm_delay(20));
        assert_eq!((many.alloc, many.seed), (AllocPolicy::Sharded { shards: 4 }, 3));
        let legacy = parse_scenario(&src.replace("  alloc sharded 4\n", "")).unwrap();
        assert_eq!(legacy.point_config(64, 20).pool.size * 2, many.pool.size, "sharded doubles the pool");
        assert!(many.pool.metrics.enabled);
    }

    #[test]
    fn bad_sweep_and_parameter_clauses_are_spanned() {
        for (workload, clause, message, spanned) in [
            ("stack", "threads", "`threads` needs at least one value", "threads"),
            ("stack", "delay", "`delay` needs at least one value", "delay"),
            ("stack", "threads 1,0,4", "thread count must be between 1 and 4096", "0"),
            ("stack", "delay 0,x", "expected integer as a delay in ns, found `x`", "x"),
            ("stack", "threads x", "expected integer as a thread count, found `x`", "x"),
            ("memcached", "buckets 4", "`buckets` only applies to the map workload", "buckets 4"),
            ("map", "puts 100", "`puts` only applies to the memcached workload", "puts 100"),
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
