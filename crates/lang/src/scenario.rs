//! The scenario layer: a workload-spec header plus an optional program
//! section.
//!
//! ```text
//! scenario stack_smoke {
//!   workload stack        # stack|queue|list|map|memcached|redis|service|lf_list|lf_map
//!   threads 2
//!   ops 6
//!   schemes all           # `all`, `lockfree`, or explicit names (ido atlas ...)
//!   tier tier1            # optional, default tier1
//!   seed 0                # optional, default 0
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

use std::collections::HashMap;

use ido_compiler::Scheme;
use ido_ir::Program;
use ido_vm::{ExecTier, Vm};
use ido_workloads::{kv, lockfree, micro, service, WorkloadSpec};

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
    /// Lock-free list (recoverable-CAS family only).
    LfList,
    /// Lock-free hash map (recoverable-CAS family only).
    LfMap,
}

impl WorkloadKind {
    fn from_ident(s: &str) -> Option<WorkloadKind> {
        Some(match s {
            "stack" => WorkloadKind::Stack,
            "queue" => WorkloadKind::Queue,
            "list" => WorkloadKind::List,
            "map" => WorkloadKind::Map,
            "memcached" => WorkloadKind::Memcached,
            "redis" => WorkloadKind::Redis,
            "service" => WorkloadKind::Service,
            "lf_list" => WorkloadKind::LfList,
            "lf_map" => WorkloadKind::LfMap,
            _ => return None,
        })
    }

    /// True for the lock-free structures, which only run under
    /// [`Scheme::LOCKFREE`] (their `cas` is rejected by the lock-delineated
    /// schemes' instrumentation, and vice versa for `lock`).
    pub fn is_lockfree(self) -> bool {
        matches!(self, WorkloadKind::LfList | WorkloadKind::LfMap)
    }

    /// True when the workload takes a `range` parameter.
    pub fn takes_range(self) -> bool {
        matches!(self, WorkloadKind::Redis | WorkloadKind::Service)
    }

    /// The schemes this workload can run under.
    pub fn allowed_schemes(self) -> &'static [Scheme] {
        if self.is_lockfree() {
            &Scheme::LOCKFREE
        } else {
            &Scheme::ALL
        }
    }

    /// Builds the native Rust spec for this kind (with the scenario's
    /// `range`, where applicable).
    pub fn native_spec(self, range: Option<u64>) -> Box<dyn WorkloadSpec> {
        let range = range.unwrap_or(256);
        match self {
            WorkloadKind::Stack => Box::new(micro::StackSpec),
            WorkloadKind::Queue => Box::new(micro::QueueSpec),
            WorkloadKind::List => Box::new(micro::ListSpec::default()),
            WorkloadKind::Map => Box::new(micro::MapSpec::default()),
            WorkloadKind::Memcached => {
                Box::new(kv::memcached::MemcachedSpec::insertion_intensive())
            }
            WorkloadKind::Redis => Box::new(kv::redis::RedisSpec::with_range(range)),
            WorkloadKind::Service => Box::new(service::ServiceSpec::with_range(range)),
            WorkloadKind::LfList => Box::new(lockfree::LfListSpec),
            WorkloadKind::LfMap => Box::new(lockfree::LfMapSpec::default()),
        }
    }
}

/// A parsed `.ido` scenario.
#[derive(Debug)]
pub struct Scenario {
    /// Scenario name (the header's identifier).
    pub name: String,
    /// Workload kind.
    pub kind: WorkloadKind,
    /// `range` parameter, if given (redis/service only).
    pub range: Option<u64>,
    /// Worker thread count.
    pub threads: usize,
    /// Operations per thread.
    pub ops: u64,
    /// Schemes to run, in declaration order.
    pub schemes: Vec<Scheme>,
    /// Execution tier.
    pub tier: ExecTier,
    /// Scheduler seed.
    pub seed: u64,
    /// The optional program section (replaces the native program).
    pub program: Option<ParsedProgram>,
}

impl Scenario {
    /// The spec to hand to `run_workload`: the native workload, with the
    /// scenario's program (if any) substituted in.
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            native: self.kind.native_spec(self.range),
            program: self.program.as_ref().map(|p| p.program.clone()),
        }
    }
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

/// Parses a full `.ido` file: the `scenario` header block, then an
/// optional program section.
///
/// # Errors
/// Returns the first spanned [`LangError`]; duplicate-key and
/// range-on-wrong-workload errors carry a secondary label at the related
/// position.
pub fn parse_scenario(source: &str) -> Result<Scenario, LangError> {
    let mut c = Cursor::new(lex(source)?);
    c.eat_newlines();
    c.expect_keyword("scenario", "to start the file")?;
    let (name, _name_span) = c.expect_ident("as the scenario name")?;
    let open = c.expect(Tok::LBrace, "to open the scenario block")?;
    c.expect_line_end("one key per line")?;

    let mut seen: HashMap<String, Span> = HashMap::new();
    let mut kind: Option<(WorkloadKind, Span)> = None;
    let mut range: Option<(u64, Span)> = None;
    let mut threads: Option<usize> = None;
    let mut ops: Option<u64> = None;
    let mut schemes: Option<Vec<(Scheme, Span)>> = None;
    let mut scheme_group: Option<(&'static [Scheme], Span)> = None;
    let mut tier = ExecTier::Tier1;
    let mut seed = 0u64;

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
                    return Err(LangError::new(
                        format!("unknown workload `{w}`"),
                        wspan,
                        "expected one of: stack queue list map memcached redis service lf_list lf_map",
                    ));
                };
                kind = Some((k, key_span.to(wspan)));
            }
            "range" => {
                let (v, vspan) = c.expect_u64("as the key range")?;
                range = Some((v, key_span.to(vspan)));
            }
            "threads" => {
                let (v, vspan) = c.expect_u64("as the thread count")?;
                if v == 0 || v > 4096 {
                    return Err(LangError::new(
                        "thread count must be between 1 and 4096",
                        vspan,
                        "out of range",
                    ));
                }
                threads = Some(v as usize);
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
                ops = Some(v);
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
            _ => {
                return Err(LangError::new(
                    format!("unknown scenario key `{key}`"),
                    key_span,
                    "expected one of: workload range threads ops schemes tier seed",
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
    let Some(ops) = ops else {
        return Err(LangError::new("scenario is missing `ops`", close.span, "block ends here")
            .with_note(open.span, "scenario opened here"));
    };

    // Cross-key validation.
    if let Some((_, rspan)) = range.filter(|_| !kind.takes_range()) {
        return Err(LangError::new(
            "`range` only applies to the redis and service workloads",
            rspan,
            "range given here",
        )
        .with_note(kind_span, "for this workload"));
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

    Ok(Scenario { name, kind, range: range.map(|(v, _)| v), threads, ops, schemes, tier, seed, program })
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
        assert_eq!(s.threads, 2);
        assert_eq!(s.ops, 6);
        assert_eq!(s.schemes, Scheme::ALL.to_vec());
        assert_eq!(s.tier, ExecTier::Tier1);
        assert_eq!(s.seed, 0);
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
}
