//! The regression corpus: every `corpus/regress/*.ido` file is a
//! reproducer `ido crashtest` writes and replays. Most hold a counterexample
//! the crash oracle finds against an injected bug, written by
//! `Scenario::reproducer`; per such file:
//!
//! 1. the library oracle finds the counterexample again at the file's own
//!    configuration, and its reproducer prints byte-identical to the file
//!    (a golden: regenerate with `IDO_BLESS=1 cargo test --test regress`);
//! 2. `ido crashtest <file>` exits 1 with the recorded failure line;
//! 3. without its `bug` line the honest runtime cannot reach the state:
//!    exit 1, "lost line N is not dirty …";
//! 4. without its `bug` line and with every `lose` list emptied, the state
//!    recovers: exit 0.
//!
//! A file with a `fault` line instead holds a run that faults, written by
//! `Scenario::fault_reproducer`: it regenerates byte for byte from the
//! library's reference run, `ido crashtest` replays it to the recorded
//! fault, and `ido explain` renders the fault at its instruction.
//!
//! Printing also round-trips (`parse(print(s)) == s`) over every corpus,
//! regress and figure file, and a regress or figure file prints as itself.

use std::path::{Path, PathBuf};
use std::process::Command;

use ido_compiler::instrument_program;
use ido_crashtest::{explore_jobs, explore_recovery, reference_outcome};
use ido_lang::{parse_scenario, Fault, Scenario};
use ido_workloads::WorkloadSpec;

/// The work budgets a regress file with a `then after` clause was found
/// at: the recovery sweep's, as `fork_equivalence` runs it.
const RECOVERY_BUDGETS: [u64; 4] = [1, 2, 5, 11];

fn dir(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(sub)
}

/// The `.ido` files directly in `corpus/<sub>`, sorted.
fn ido_files(sub: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir(sub))
        .unwrap_or_else(|e| panic!("{sub}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ido"))
        .collect();
    files.sort();
    files
}

fn parse(path: &Path, source: &str) -> Scenario {
    parse_scenario(source)
        .unwrap_or_else(|e| panic!("{}", e.render(&path.display().to_string(), source)))
}

/// The reproducer the library oracle writes for `file`'s scenario with its
/// crash state or fault forgotten, found with `jobs` workers where the
/// sweep takes a job count.
fn regenerate(file: &Scenario, jobs: usize) -> String {
    let base = Scenario {
        notes: Vec::new(),
        crash: None,
        fault: None,
        ..file.clone()
    };
    let (spec, cfg, scheme) = (base.spec(), base.oracle_config(), base.schemes[0]);
    if file.fault.is_some() {
        let inst = instrument_program(spec.build_program(), scheme).expect("instruments");
        let outcome = reference_outcome(&spec, &inst, &cfg);
        let fault = Fault::of(outcome, &inst.program)
            .unwrap_or_else(|| panic!("{}: the run does not fault: {outcome:?}", file.name));
        return base.fault_reproducer(scheme, fault).to_string();
    }
    let recovery = file.crash.as_ref().is_some_and(|c| c.recovery.is_some());
    let ex = if recovery {
        explore_recovery(&spec, scheme, &cfg, &RECOVERY_BUDGETS)
    } else {
        explore_jobs(jobs, &spec, scheme, &cfg)
    };
    let cex = ex
        .counterexample
        .as_ref()
        .unwrap_or_else(|| panic!("{}: no counterexample: {ex}", file.name));
    base.reproducer(cex)
        .unwrap_or_else(|e| panic!("{}: {e}", file.name))
        .to_string()
}

/// Runs `ido crashtest` on `source`, written to a file of its own.
fn crashtest(name: &str, source: &str) -> (Option<i32>, String) {
    ido("crashtest", name, source)
}

/// Runs `ido <command>` on `source`, written to a file of its own.
fn ido(command: &str, name: &str, source: &str) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!("ido_regress_{}_{name}.ido", std::process::id()));
    std::fs::write(&path, source).expect("scenario file written");
    let out = Command::new(env!("CARGO_BIN_EXE_ido"))
        .arg(command)
        .arg(&path)
        .output()
        .expect("the ido binary runs");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (
        out.status.code(),
        stdout + &String::from_utf8_lossy(&out.stderr),
    )
}

#[test]
fn the_regress_corpus_holds_the_six_reproducers() {
    let names: Vec<String> = ido_files("corpus/regress")
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        [
            "oversized_alloc_churn",
            "skip_publish_lf_list",
            "skip_store_flush_queue",
            "skip_store_flush_twin",
            "skip_store_flush_twin_recovery",
            "skip_window_flush_lf_list",
        ]
    );
}

#[test]
fn each_reproducer_regenerates_from_the_library_oracle_byte_for_byte() {
    let bless = std::env::var("IDO_BLESS").is_ok_and(|v| v == "1");
    for path in ido_files("corpus/regress") {
        let source = std::fs::read_to_string(&path).unwrap();
        let file = parse(&path, &source);
        for jobs in [1, 2] {
            let regenerated = regenerate(&file, jobs);
            if bless {
                std::fs::write(&path, &regenerated).unwrap();
                break;
            }
            assert_eq!(
                regenerated,
                source,
                "{} (jobs {jobs}) — if intentional, regenerate with IDO_BLESS=1",
                path.display()
            );
        }
    }
}

#[test]
fn each_reproducer_replays_and_only_its_bug_reaches_the_state() {
    for path in ido_files("corpus/regress") {
        let source = std::fs::read_to_string(&path).unwrap();
        let file = parse(&path, &source);
        let name = &file.name;
        if file.fault.is_some() {
            continue; // `each_fault_reproducer_replays_its_fault`
        }
        let crash = file
            .crash
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: no crash line"));
        let recorded = file.notes[0]
            .strip_prefix("failure: ")
            .expect("a failure note");

        let (code, out) = crashtest(name, &source);
        assert_eq!(code, Some(1), "{name}:\n{out}");
        assert!(
            out.contains(&format!(": FAILED: {recorded}\n")),
            "{name}: not the recorded failure:\n{out}"
        );

        let honest = Scenario {
            bugs: Vec::new(),
            ..file.clone()
        };
        let unreachable = match (crash.lost.first(), &crash.recovery) {
            (Some(line), _) => format!("lost line {line} is not dirty at step {}", crash.step),
            (None, Some((budget, lost))) => {
                format!(
                    "lost line {} is not dirty after {budget} recovery unit(s)",
                    lost[0]
                )
            }
            (None, None) => panic!("{name}: a crash losing nothing is no reproducer"),
        };
        let (code, out) = crashtest(name, &honest.to_string());
        assert_eq!(code, Some(1), "{name} without its bug:\n{out}");
        assert!(
            out.contains(&format!(": FAILED: {unreachable}\n")),
            "{name} without its bug:\n{out}"
        );

        let mut losing_nothing = honest;
        let state = losing_nothing.crash.as_mut().expect("a crash line");
        state.lost.clear();
        if let Some((_, lost)) = &mut state.recovery {
            lost.clear();
        }
        let (code, out) = crashtest(name, &losing_nothing.to_string());
        assert_eq!(
            code,
            Some(0),
            "{name} without its bug, losing nothing:\n{out}"
        );
        assert!(out.contains(": consistent\n"), "{name}:\n{out}");
    }
}

#[test]
fn each_fault_reproducer_replays_its_fault() {
    let mut faults = 0;
    for path in ido_files("corpus/regress") {
        let source = std::fs::read_to_string(&path).unwrap();
        let file = parse(&path, &source);
        let (name, Some(fault)) = (&file.name, &file.fault) else {
            continue;
        };
        faults += 1;
        let recorded = file.notes[0]
            .strip_prefix("failure: ")
            .expect("a failure note");
        assert_eq!(recorded, fault.to_string(), "{name}");

        let (code, out) = crashtest(name, &source);
        assert_eq!(code, Some(1), "{name}:\n{out}");
        assert!(
            out.contains(&format!(": FAILED: {recorded}\n")),
            "{name}: not the recorded fault:\n{out}"
        );
        assert!(out.contains("replayed to its fault"), "{name}:\n{out}");
        assert!(!out.contains("replay: "), "{name}: a replay writes no reproducer:\n{out}");

        let (code, out) = ido("explain", name, &source);
        assert_eq!(code, Some(1), "{name}:\n{out}");
        assert!(
            out.contains(&format!("fault: thread {}: {}\n", fault.thread, fault.kind)),
            "{name}:\n{out}"
        );
        assert!(out.contains(" faulting instruction\n"), "{name}:\n{out}");
    }
    assert_eq!(faults, 1, "the fault reproducers");
}

#[test]
fn scenarios_print_as_they_parse() {
    for path in ido_files("corpus")
        .into_iter()
        .chain(ido_files("corpus/regress"))
        .chain(ido_files("corpus/figures"))
    {
        let source = std::fs::read_to_string(&path).unwrap();
        let scenario = parse(&path, &source);
        let printed = scenario.to_string();
        assert_eq!(parse(&path, &printed), scenario, "{}", path.display());
        assert_eq!(
            parse(&path, &printed).to_string(),
            printed,
            "{}",
            path.display()
        );
    }
    for path in ido_files("corpus/regress").into_iter().chain(ido_files("corpus/figures")) {
        let source = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            parse(&path, &source).to_string(),
            source,
            "{}",
            path.display()
        );
    }
}

/// A counterexample whose VM config a scenario cannot state, or of another
/// workload, gets no file: it would replay a different run.
#[test]
fn a_counterexample_no_scenario_restates_has_no_reproducer() {
    let read = |name: &str| {
        let path = dir(&format!("corpus/regress/{name}.ido"));
        parse(&path, &std::fs::read_to_string(&path).unwrap())
    };
    let twin = read("skip_store_flush_twin");
    let mut cfg = twin.oracle_config();
    cfg.vm.pool.size *= 2;
    let ex = explore_jobs(1, &twin.spec(), twin.schemes[0], &cfg);
    let cex = ex
        .counterexample
        .expect("the bug is caught in a larger pool too");
    assert_eq!(
        twin.reproducer(&cex).unwrap_err(),
        "the counterexample's VM config differs from the scenario's in `pool.size`"
    );
    let err = read("skip_store_flush_queue").reproducer(&cex).unwrap_err();
    assert!(err.contains("workload `twin-counter`"), "{err}");
}
