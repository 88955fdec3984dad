//! `compile_verify`: the compiler and verifier front to back, with no VM.
//!
//! Inputs: the nine corpus scenarios (text), the `standard_specs()`
//! builder programs, and three seeded synthetic FASE programs of roughly
//! 256 / 1 024 / 4 096 instructions (text). Each goes through
//! `parse_scenario` (text only) → `optimize_program` → `idem::partition` →
//! `instrument_program` × schemes → `verify_instrumented` under the honest
//! runtime model and two injected-bug models whose verdicts are known.

use std::fmt::Write as _;

use ido_compiler::{instrument_program, Scheme};
use ido_ir::opt::optimize_program;
use ido_ir::{DecodedProgram, Program, Tier2Program};
use ido_lang::{parse_program_text, parse_scenario};
use ido_verify::{verify_instrumented, Invariant, RuntimeModel};
use ido_vm::VmConfig;
use ido_workloads::{standard_specs, WorkloadSpec};

use crate::driver::{splitmix, unit};
use crate::layers::{mean_us, ns_per_call};
use crate::names::scheme_tag;
use crate::spans::{durations_of, Recorder, Span};
use crate::stats::Fnv;
use crate::workloads::{Metrics, Rep, WorkItem, Workload};

const CORPUS: [(&str, &str); 9] = [
    ("lf_list", include_str!("../../../corpus/lf_list.ido")),
    ("lf_map", include_str!("../../../corpus/lf_map.ido")),
    ("list", include_str!("../../../corpus/list.ido")),
    ("map", include_str!("../../../corpus/map.ido")),
    ("memcached", include_str!("../../../corpus/memcached.ido")),
    ("queue", include_str!("../../../corpus/queue.ido")),
    ("redis", include_str!("../../../corpus/redis.ido")),
    ("service", include_str!("../../../corpus/service.ido")),
    ("stack", include_str!("../../../corpus/stack.ido")),
];
const SYNTHETIC_SIZES: [usize; 3] = [256, 1024, 4096];

enum Source {
    /// A `.ido` file: scenario header plus program text.
    Text(String),
    /// A Rust-builder program.
    Builder(Box<dyn WorkloadSpec>),
}

/// The compile-and-verify sweep.
pub struct CompileVerify {
    sources: Vec<(String, Source)>,
    /// Hash of every text input: the inputs are part of what a seed means.
    inputs: u64,
    /// Source size (thousands of instructions) and scheme of every unit, in
    /// unit-id order (front-end units carry no scheme).
    units: Vec<(f64, Option<Scheme>)>,
    /// `[honest, skip-store-flush, torn-log-layout]`.
    models: [RuntimeModel; 3],
}

/// Whether `scheme`'s code must be flagged under model `m` (0 = honest).
fn expect_flagged(scheme: Scheme, m: usize) -> bool {
    match m {
        // Boundaries stop flushing region stores; the lock-free window is
        // never written back.
        1 => matches!(scheme, Scheme::Ido | Scheme::Nvtraverse),
        // Append-log entries straddle lines; the CAS cell is not flushed
        // before the descriptor closes.
        2 => matches!(
            scheme,
            Scheme::Atlas
                | Scheme::Mnemosyne
                | Scheme::Nvml
                | Scheme::Nvthreads
                | Scheme::Nvtraverse
                | Scheme::LfEager
        ),
        _ => false,
    }
}

/// Largest synthetic function, instructions. Region formation is
/// quadratic in function size (a 4 096-instruction function takes ~2 s to
/// partition at HEAD, a 512-instruction one ~25 ms), so larger programs
/// grow by functions, as real ones do.
const MAX_FN_INSTS: usize = 512;

/// A seeded FASE program of about `target` instructions in the canonical
/// text format, in functions of at most [`MAX_FN_INSTS`]: each is a counted
/// loop over a chain of lock-delimited segments mixing ALU work, persistent
/// loads and stores and a branch diamond, with temporaries drawn from a
/// small register pool (so regions meet real write-after-read hazards);
/// `worker` calls the others outside its FASEs.
pub fn synthetic_source(seed: u64, target: usize) -> String {
    let xorshift = |x: &mut u64, n: u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        (*x >> 11) % n
    };
    // Two streams: the shape (how many ALU operations and stores each
    // segment has, and which registers they use) depends on the size only,
    // the contents (offsets, operators, constants) on the seed. Compile
    // time follows the shape — seeding the registers too moved `wall_s` by
    // ±3.5 % between seeds, seeding the segment lengths by more — so every
    // seed costs about the same, while alias analysis and region formation
    // still see different code.
    let (mut shape_x, mut x) = (
        splitmix(target as u64) | 1,
        splitmix(seed ^ target as u64) | 1,
    );
    let mut shape = |n: u64| xorshift(&mut shape_x, n);
    let mut rnd = |n: u64| xorshift(&mut x, n);
    const FIRST_TMP: u64 = 7;
    const TMPS: u64 = 20;
    let tmp = |r: u64| format!("r{}", FIRST_TMP + r);
    let off = |r: u64| r * 8;
    let n_fns = target.div_ceil(MAX_FN_INSTS);
    let mut out =
        format!("scenario synthetic_{target} {{\n  workload stack\n  threads 1\n  ops 1\n}}\n");
    for f in 0..n_fns {
        let name = if f == 0 {
            "worker".to_string()
        } else {
            format!("part{f}")
        };
        let _ = write!(
            out,
            "\nfn {name}(r0, r1, r2, r3, r4) regs={} slots=0 {{\n  bb0:\n    r5 = 0\n",
            FIRST_TMP + TMPS
        );
        for r in 0..TMPS {
            let _ = writeln!(out, "    {} = r2", tmp(r));
        }
        let mut body = String::new();
        let mut insts = TMPS as usize + 8; // prologue, loop head, latch and exit
        let mut bb = 2; // bb0 = entry, bb1 = loop head
        while insts < target / n_fns {
            let (a, b, c, d) = (
                tmp(shape(TMPS)),
                tmp(shape(TMPS)),
                tmp(shape(TMPS)),
                tmp(shape(TMPS)),
            );
            let _ = writeln!(body, "  bb{bb}:");
            let alu = 2 + shape(6);
            for _ in 0..alu {
                let op = ["add", "xor", "shl", "shr", "and", "mul"][rnd(6) as usize];
                let _ = writeln!(body, "    {} = {op} r2, {}", tmp(shape(TMPS)), 1 + rnd(13));
            }
            let _ = writeln!(body, "    lock r0");
            let _ = writeln!(body, "    {a} = mem[r1+{}]", off(rnd(32)));
            let _ = writeln!(body, "    {b} = add {a}, r2");
            let _ = writeln!(body, "    mem[r1+{}] = {b}", off(rnd(32)));
            let stores = 1 + shape(3);
            for _ in 0..stores {
                let _ = writeln!(body, "    mem[r1+{}] = {}", off(rnd(32)), tmp(shape(TMPS)));
            }
            let _ = writeln!(body, "    {c} = and {b}, 1");
            let _ = writeln!(body, "    br {c} ? bb{} : bb{}", bb + 1, bb + 2);
            let _ = writeln!(body, "  bb{}:", bb + 1);
            let _ = writeln!(body, "    mem[r1+{}] = {a}", off(rnd(32)));
            let _ = writeln!(body, "    jump bb{}", bb + 3);
            let _ = writeln!(body, "  bb{}:", bb + 2);
            let _ = writeln!(body, "    {d} = mem[r1+{}]", off(rnd(32)));
            let _ = writeln!(body, "    mem[r1+{}] = {d}", off(rnd(32)));
            let _ = writeln!(body, "    jump bb{}", bb + 3);
            let _ = writeln!(body, "  bb{}:", bb + 3);
            let _ = writeln!(body, "    unlock r0");
            let _ = writeln!(body, "    r2 = add r2, {c}");
            let _ = writeln!(body, "    jump bb{}", bb + 4);
            insts += alu as usize + stores as usize + 15;
            bb += 4;
        }
        let (latch, exit) = (bb, bb + 1);
        let _ = write!(
            out,
            "    jump bb1\n  bb1:\n    r6 = lt r5, r3\n    br r6 ? bb2 : bb{exit}\n"
        );
        out.push_str(&body);
        let _ = writeln!(out, "  bb{latch}:");
        if f == 0 {
            for callee in 1..n_fns {
                let _ = writeln!(out, "    call fn{callee}(r0, r1, r2, r3, r4)");
            }
        }
        let _ = write!(
            out,
            "    r5 = add r5, 1\n    jump bb1\n  bb{exit}:\n    ret\n}}\n"
        );
    }
    out
}

fn inst_count(p: &Program) -> u64 {
    p.functions().iter().map(|f| f.num_insts() as u64).sum()
}

/// Source size (thousands of instructions) and scheme of every unit the
/// sources will make, in unit-id order.
fn unit_sizes(sources: &[(String, Source)]) -> Vec<(f64, Option<Scheme>)> {
    let mut out = Vec::new();
    for (_, source) in sources {
        let (program, schemes) = match source {
            Source::Text(text) => match parse_scenario(text) {
                Ok(s) => (s.program.map(|p| p.program), s.schemes),
                Err(_) => (None, Vec::new()),
            },
            Source::Builder(spec) => (Some(spec.build_program()), Scheme::ALL.to_vec()),
        };
        let kinst = program.as_ref().map_or(0.0, |p| inst_count(p) as f64 / 1e3);
        out.push((kinst, None));
        out.extend(schemes.into_iter().map(|s| (kinst, Some(s))));
    }
    out
}

/// Deterministic totals of one repetition.
#[derive(Default)]
struct Totals {
    source_insts: u64,
    optimized_insts: u64,
    regions: u64,
    region_stores: u64,
    region_inputs: u64,
    verdicts: u64,
    verdicts_ok: u64,
    /// `(scheme, instrumented insts, optimized insts of the same programs)`.
    growth: Vec<(Scheme, u64, u64)>,
}

impl CompileVerify {
    /// Generates the inputs from `seed` and builds the three runtime models.
    pub fn new(seed: u64) -> CompileVerify {
        let mut sources: Vec<(String, Source)> = CORPUS
            .iter()
            .map(|(n, text)| (format!("corpus/{n}"), Source::Text((*text).to_string())))
            .collect();
        for spec in standard_specs() {
            sources.push((format!("builder/{}", spec.name()), Source::Builder(spec)));
        }
        for size in SYNTHETIC_SIZES {
            sources.push((
                format!("synthetic/{size}"),
                Source::Text(synthetic_source(seed, size)),
            ));
        }
        let honest = RuntimeModel::from_config(&VmConfig::default());
        let skip_flush = RuntimeModel {
            boundary_flushes_region_stores: false,
            lf_window_flushed: false,
            ..honest.clone()
        };
        let torn_layout = RuntimeModel {
            lf_publish_flushes_cell: false,
            layout_violations: vec![(
                Invariant::LogLayout,
                "injected: entry straddles a cache line".into(),
            )],
            ..honest.clone()
        };
        let mut h = Fnv::default();
        for (_, source) in &sources {
            if let Source::Text(text) = source {
                h.bytes(text.as_bytes());
            }
        }
        let units = unit_sizes(&sources);
        CompileVerify {
            sources,
            inputs: h.finish(),
            units,
            models: [honest, skip_flush, torn_layout],
        }
    }

    /// Front half for one source: parse (text only), optimize, partition.
    fn front(
        &self,
        rec: &mut Recorder,
        source: &Source,
        t: &mut Totals,
    ) -> Result<(Program, Vec<Scheme>), String> {
        let (mut program, schemes) = match source {
            Source::Text(text) => {
                let scenario = rec
                    .time("lang.parse_scenario", || parse_scenario(text))
                    .map_err(|e| e.to_string())?;
                let parsed = scenario.program.ok_or("scenario has no program section")?;
                (parsed.program, scenario.schemes)
            }
            Source::Builder(spec) => (
                rec.time("workloads.build_program", || spec.build_program()),
                Scheme::ALL.to_vec(),
            ),
        };
        t.source_insts += inst_count(&program);
        rec.time("ir.optimize_program", || optimize_program(&mut program));
        t.optimized_insts += inst_count(&program);
        // Region formation on a copy: `instrument_program` partitions
        // again itself (for iDO), on the program it is given.
        let mut copy = program.clone();
        for i in 0..copy.functions().len() {
            let func = copy.function_mut(ido_ir::FuncId(i as u32));
            let analysis = rec.time("idem.partition", || ido_idem::partition(func));
            for r in analysis.regions() {
                t.regions += 1;
                t.region_stores += r.num_stores() as u64;
                t.region_inputs += r.num_inputs() as u64;
            }
        }
        Ok((program, schemes))
    }

    /// Back half for one (program, scheme) pair: instrument, then verify
    /// under each model and compare with the known answer.
    fn pair(
        &self,
        rec: &mut Recorder,
        program: &Program,
        scheme: Scheme,
        t: &mut Totals,
    ) -> Result<(), String> {
        let inst = rec
            .time("compiler.instrument_program", || {
                instrument_program(program.clone(), scheme)
            })
            .map_err(|e| e.to_string())?;
        t.growth
            .push((scheme, inst_count(&inst.program), inst_count(program)));
        let mut wrong = Vec::new();
        for (m, model) in self.models.iter().enumerate() {
            let diags = rec.time("verify.verify_instrumented", || {
                verify_instrumented(&inst, model)
            });
            t.verdicts += 1;
            if diags.is_empty() == expect_flagged(scheme, m) {
                wrong.push(format!("model {m}: {} diagnostic(s)", diags.len()));
            } else {
                t.verdicts_ok += 1;
            }
        }
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(format!("wrong verdict under {}", wrong.join(", ")))
        }
    }
}

impl Workload for CompileVerify {
    fn work_item(&self) -> WorkItem {
        WorkItem::SourceInstruction
    }

    fn repetition(&self, rec: &mut Recorder, hash_images: bool) -> Rep {
        let mut rep = Rep::default();
        let mut t = Totals::default();
        let mut id = 0u32;
        for (name, source) in &self.sources {
            let front = unit(rec, id, |rec| self.front(rec, source, &mut t));
            id += 1;
            let Some((program, schemes)) = rep.book(name, front) else {
                continue;
            };
            for scheme in schemes {
                let r = unit(rec, id, |rec| self.pair(rec, &program, scheme, &mut t));
                rep.book(&format!("{name} {scheme}"), r);
                id += 1;
            }
        }
        rep.work = t.source_insts;
        let kinst = t.optimized_insts as f64 / 1e3;
        rep.sim
            .insert("idem.regions_per_kinst".into(), t.regions as f64 / kinst);
        rep.sim.insert(
            "idem.stores_per_region".into(),
            t.region_stores as f64 / t.regions.max(1) as f64,
        );
        rep.sim.insert(
            "idem.inputs_per_region".into(),
            t.region_inputs as f64 / t.regions.max(1) as f64,
        );
        rep.sim.insert(
            "verify.verdict_ok_share".into(),
            t.verdicts_ok as f64 / t.verdicts.max(1) as f64,
        );
        for scheme in Scheme::ALL {
            let (after, before) = t
                .growth
                .iter()
                .filter(|(s, _, _)| *s == scheme)
                .fold((0, 0), |(a, b), (_, x, y)| (a + x, b + y));
            rep.sim.insert(
                format!("compiler.code_growth.{}", scheme_tag(scheme)),
                after as f64 / before.max(1) as f64,
            );
        }
        let mut h = Fnv::default();
        for w in [
            t.source_insts,
            t.optimized_insts,
            t.regions,
            t.region_stores,
            t.region_inputs,
            t.verdicts_ok,
        ] {
            h.word(w);
        }
        t.growth.iter().for_each(|(_, after, _)| h.word(*after));
        rep.hashes.extend([self.inputs, h.finish()]);
        rep.seal(hash_images)
    }

    fn span_metrics(&self, spans: &[Span], _rep: &Rep, out: &mut Metrics) {
        // Host µs per 1 000 source instructions *per call*: each span is
        // weighed by the size of the program its unit compiled, so the
        // figure does not move when a scheme or a model is added.
        let per_kinst = |span: &str, only: Option<Scheme>| {
            let (mut ns, mut kinst) = (0u64, 0.0);
            for (unit, d) in durations_of(spans, span) {
                let Some((k, scheme)) = self.units.get(unit as usize) else {
                    continue;
                };
                if only.is_none() || only == *scheme {
                    ns += d;
                    kinst += k;
                }
            }
            (kinst > 0.0).then(|| ns as f64 / 1e3 / kinst)
        };
        for (span, metric, only) in [
            ("lang.parse_scenario", "lang.parse_us_per_kinst", None),
            ("ir.optimize_program", "ir.opt_us_per_kinst", None),
            ("idem.partition", "idem.partition_us_per_kinst", None),
            (
                "compiler.instrument_program",
                "compiler.instrument_us_per_kinst",
                None,
            ),
            (
                "compiler.instrument_program",
                "compiler.instrument_us_per_kinst.ido",
                Some(Scheme::Ido),
            ),
            ("verify.verify_instrumented", "verify.us_per_kinst", None),
        ] {
            if let Some(v) = per_kinst(span, only) {
                out.insert(metric.into(), v);
            }
        }
        if let Some(us) = mean_us(spans, "workloads.build_program") {
            out.insert("workloads.build_program_us".into(), us);
        }
    }

    fn probe(&self, _rec: &mut Recorder, out: &mut Metrics) {
        // Text → program → text → program → text must be a fixpoint.
        let (mut ok, mut n) = (0, 0);
        for (_, source) in &self.sources {
            let Source::Text(text) = source else { continue };
            n += 1;
            let round = || {
                let first = parse_scenario(text).ok()?.program?.program.to_string();
                let second = parse_program_text(&first).ok()?.program.to_string();
                Some(first == second)
            };
            ok += usize::from(round() == Some(true));
        }
        out.insert(
            "lang.roundtrip_ok_share".into(),
            ok as f64 / n.max(1) as f64,
        );

        // What every `Vm::new` pays before it runs anything: decoding (and,
        // on tier 2, block-compiling) the instrumented program.
        let programs: Vec<Program> = self
            .sources
            .iter()
            .filter_map(|(_, s)| match s {
                Source::Builder(spec) => instrument_program(spec.build_program(), Scheme::Ido).ok(),
                Source::Text(_) => None,
            })
            .map(|i| i.program)
            .collect();
        let kinst = programs.iter().map(inst_count).sum::<u64>() as f64 / 1e3;
        let decode = ns_per_call(7, 20, |_| {
            programs
                .iter()
                .for_each(|p| drop(std::hint::black_box(DecodedProgram::decode(p))));
        });
        let tier2 = ns_per_call(7, 20, |_| {
            programs
                .iter()
                .for_each(|p| drop(std::hint::black_box(Tier2Program::compile(p))));
        });
        out.insert("ir.decode_us_per_kinst".into(), decode / 1e3 / kinst);
        out.insert("ir.tier2_compile_us_per_kinst".into(), tier2 / 1e3 / kinst);
    }
}
