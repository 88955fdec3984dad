//! Corpus gates: `corpus/<kind>.ido` is the one definition of each
//! workload's program. Every file parses, its program round-trips through
//! the pretty-printer, and the native spec its header names is the spec
//! that compiles that very file in, so no spec can read another's program.
//!
//! A deterministic mutation fuzzer then hammers each corpus file: every
//! seeded mutation must either fail to parse with a diagnostic whose
//! spans stay inside the mutated source, or survive the whole
//! compile→verify front half (pretty-print round-trip, instrumentation,
//! static verification) without panicking. Mutated programs are *not*
//! executed — a mutated loop bound can diverge and the VM has no step
//! budget — so the crash-oracle smoke runs on unmutated scenarios only.

use std::fs;
use std::path::PathBuf;

use ido_compiler::{instrument_program, Scheme};
use ido_crashtest::OracleConfig;
use ido_ir::text::parse_program_section;
use ido_lang::{parse_program_text, parse_scenario, Scenario};
use ido_vm::VmConfig;
use ido_verify::{verify_instrumented, RuntimeModel};

/// One file per native workload spec, named after the `workload` it
/// declares; `map_mix` is `workload map` with a `puts` line.
const CORPUS: [&str; 12] = [
    "alloc_churn",
    "lf_list",
    "lf_map",
    "list",
    "map",
    "map_mix",
    "memcached",
    "queue",
    "redis",
    "service",
    "stack",
    "twin",
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn read_corpus(name: &str) -> String {
    let path = corpus_dir().join(format!("{name}.ido"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn parse_corpus(name: &str) -> (String, Scenario) {
    let src = read_corpus(name);
    let scenario = parse_scenario(&src)
        .unwrap_or_else(|e| panic!("{}", e.render(&format!("{name}.ido"), &src)));
    (src, scenario)
}

/// The corpus is a curated set: a stray or missing file is a checked-in
/// mistake, not a new workload. (`corpus/regress/`, `corpus/figures/` and
/// `corpus/oracle/` hold header-only or reproducer files, which
/// `tests/regress.rs` and `ido` itself cover.) Each file's header names
/// the kind whose native spec compiles the file in: the spec's program is
/// the file's, and the header-skipping parse the spec uses reads the same
/// program as the scenario parser.
#[test]
fn corpus_holds_one_program_per_workload_spec() {
    let mut found: Vec<String> = fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .map(|e| e.unwrap())
        .filter(|e| e.path().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    found.sort();
    let expected: Vec<String> = CORPUS.iter().map(|n| format!("{n}.ido")).collect();
    assert_eq!(found, expected, "corpus/ contents drifted from the expected twelve files");
    for name in CORPUS {
        let (src, scenario) = parse_corpus(name);
        let (kind, mix) = name.strip_suffix("_mix").map_or((name, false), |k| (k, true));
        assert_eq!(scenario.kind.ident(), kind, "{name}.ido: wrong `workload` line");
        assert_eq!(scenario.puts.is_some(), mix, "{name}.ido: a `puts` line only in a `_mix` file");
        let section = parse_program_section(&src)
            .unwrap_or_else(|e| panic!("{}", e.render(&format!("{name}.ido"), &src)));
        assert_eq!(scenario.program.as_ref(), Some(&section), "{name}.ido: the two parses disagree");
        assert_eq!(
            scenario.native_spec().build_program(),
            section.program,
            "{name}.ido: the `{kind}` spec compiles in another file"
        );
    }
}

/// Every corpus file parses, carries an explicit program section, and that
/// program round-trips exactly through the canonical pretty-printer.
#[test]
fn corpus_programs_round_trip_through_the_pretty_printer() {
    for name in CORPUS {
        let (_, scenario) = parse_corpus(name);
        let parsed = scenario
            .program
            .as_ref()
            .unwrap_or_else(|| panic!("{name}.ido has no program section"));
        let printed = format!("{}", parsed.program);
        let reparsed = parse_program_text(&printed)
            .unwrap_or_else(|e| panic!("{name}.ido: reparse failed:\n{}", e.render("pretty", &printed)));
        assert_eq!(
            format!("{}", reparsed.program),
            printed,
            "{name}.ido: pretty-print is not a fixpoint"
        );
    }
}

/// A tiny deterministic LCG; the fuzzer must not depend on ambient
/// randomness so failures replay from the printed (file, round) pair.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// ASCII bytes a mutation may introduce: enough to corrupt identifiers,
/// numbers, punctuation, and line structure without leaving ASCII.
const FUZZ_BYTES: &[u8] = b"abcrsz0159{}[]()=+-<>,:?#\"\n .";

fn mutate(src: &str, rng: &mut Lcg) -> Option<String> {
    let mut bytes = src.as_bytes().to_vec();
    match rng.below(4) {
        0 => {
            // Overwrite one byte.
            let i = rng.below(bytes.len());
            bytes[i] = FUZZ_BYTES[rng.below(FUZZ_BYTES.len())];
        }
        1 => {
            // Insert one byte.
            let i = rng.below(bytes.len() + 1);
            bytes.insert(i, FUZZ_BYTES[rng.below(FUZZ_BYTES.len())]);
        }
        2 => {
            // Delete a short run.
            let i = rng.below(bytes.len());
            let n = (1 + rng.below(8)).min(bytes.len() - i);
            bytes.drain(i..i + n);
        }
        _ => {
            // Truncate (models a partially-written file).
            bytes.truncate(rng.below(bytes.len() + 1));
        }
    }
    let mutated = String::from_utf8(bytes).ok()?;
    (mutated != src).then_some(mutated)
}

/// Mutation fuzz: each seeded corruption either fails to parse with a
/// spanned diagnostic (all spans in bounds, so the renderer can excerpt
/// the mutated source without panicking) or survives pretty-print
/// round-trip + instrumentation + static verification under every scheme
/// the scenario names. No mutated program is ever executed.
#[test]
fn corpus_mutations_parse_fail_with_spans_or_survive_compile_and_verify() {
    const ROUNDS: usize = 48;
    for (fi, name) in CORPUS.iter().enumerate() {
        let src = read_corpus(name);
        let mut rng = Lcg(0x1d0_c0de ^ (fi as u64) << 32);
        for round in 0..ROUNDS {
            let Some(mutated) = mutate(&src, &mut rng) else { continue };
            let what = format!("{name}.ido mutation round {round}");
            match parse_scenario(&mutated) {
                Err(e) => {
                    assert!(
                        e.primary.span.in_bounds(mutated.len()),
                        "{what}: primary span {:?} out of bounds (len {})",
                        e.primary.span,
                        mutated.len()
                    );
                    for note in &e.secondary {
                        assert!(
                            note.span.in_bounds(mutated.len()),
                            "{what}: secondary span {:?} out of bounds",
                            note.span
                        );
                    }
                    // The renderer must excerpt the mutated source cleanly.
                    let _ = e.render("fuzz.ido", &mutated);
                }
                Ok(scenario) => {
                    let Some(parsed) = &scenario.program else { continue };
                    let printed = format!("{}", parsed.program);
                    let reparsed = parse_program_text(&printed).unwrap_or_else(|e| {
                        panic!("{what}: accepted program does not reparse:\n{}", e.render("pretty", &printed))
                    });
                    assert_eq!(
                        format!("{}", reparsed.program),
                        printed,
                        "{what}: accepted program is not a pretty-print fixpoint"
                    );
                    for &scheme in &scenario.schemes {
                        // Either outcome of instrumentation is fine; what
                        // must not happen is a panic.
                        if let Ok(inst) = instrument_program(parsed.program.clone(), scheme) {
                            let model = RuntimeModel::from_config(&VmConfig::for_tests());
                            let _ = verify_instrumented(&inst, &model);
                        }
                    }
                }
            }
        }
    }
}

/// Crash-oracle smoke over unmutated corpus scenarios: one durable and
/// one scheme-per-line KV scenario survive exhaustive smoke-level crash
/// injection under iDO with zero counterexamples.
#[test]
fn corpus_scenarios_survive_the_crash_oracle_smoke() {
    for name in ["stack", "redis"] {
        let (_, scenario) = parse_corpus(name);
        let spec = scenario.spec();
        let mut cfg = OracleConfig::smoke();
        cfg.vm.seed = scenario.seed;
        cfg.vm.tier = scenario.tier;
        let exploration = ido_crashtest::explore(&spec, Scheme::Ido, &cfg);
        assert!(
            exploration.counterexample.is_none(),
            "{name}.ido: crash-oracle smoke found a counterexample:\n{exploration}"
        );
    }
}
