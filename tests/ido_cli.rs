//! The `ido` binary on scenarios that once crashed the compiler or ran to
//! a silently wrong answer: whatever a `.ido` file says, `ido verify`
//! answers with diagnostics or success, never a host panic, and `ido run`
//! never reports a simulated clock that wrapped.

use std::process::Command;

/// What one run of the binary left behind.
struct Ran {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Writes `source` to a file of its own and runs `ido <command>` on it.
fn ido(command: &str, name: &str, source: &str) -> Ran {
    let path = std::env::temp_dir().join(format!("ido_cli_{}_{name}.ido", std::process::id()));
    std::fs::write(&path, source).expect("scenario file written");
    let out = Command::new(env!("CARGO_BIN_EXE_ido"))
        .arg(command)
        .arg(&path)
        .output()
        .expect("the ido binary runs");
    let _ = std::fs::remove_file(&path);
    Ran {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// The source of `corpus/<file>`.
fn corpus(file: &str) -> String {
    let path = format!("{}/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `corpus/stack.ido` with two delays of `first` and `second` ns at the top
/// of `worker`.
fn stack_with_delays(first: u64, second: u64) -> String {
    let source = corpus("stack.ido");
    let delays = format!("  bb0:\n    delay {first} ns\n    delay {second} ns\n");
    assert_eq!(source.matches("  bb0:\n").count(), 1, "worker is the only function");
    source.replacen("  bb0:\n", &delays, 1)
}

/// Two delays that sum past 2⁶⁴ once ran to exit code 0 and `"sim_ns":608`:
/// the clock wrapped, 584 simulated years were reported as 608 ns, and the
/// wrapped thread became MinClock's favourite. A literal beyond the
/// scheduler's range is now a span diagnostic.
#[test]
fn a_delay_beyond_the_clock_range_is_a_parse_diagnostic() {
    let Ran { code, stdout, stderr } =
        ido("run", "wrap", &stack_with_delays(18_446_744_073_709_551_000, 1000));
    assert_eq!(code, Some(2), "{stdout}\n{stderr}");
    assert!(!stdout.contains("sim_ns"), "a run was reported:\n{stdout}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("exceeds the simulated clock's range") && stderr.contains(":9:11"),
        "no span diagnostic:\n{stderr}"
    );
}

/// Each delay is inside the range, their sum is not: the run stops with the
/// failure that names the thread (a guest fault — ROADMAP item 3 turns it
/// into `RunOutcome::Fault`), on either tier, and reports no result.
#[test]
fn delays_that_sum_past_the_clock_range_stop_the_run_by_name() {
    let source = stack_with_delays(ido_vm::MAX_CLOCK_NS, 1000);
    for tier in ["tier1", "tier2"] {
        let source = source.replace("  ops 4\n", &format!("  ops 4\n  tier {tier}\n"));
        let Ran { code, stdout, stderr } = ido("run", &format!("sum_{tier}"), &source);
        assert_ne!(code, Some(0), "{tier}:\n{stdout}");
        assert!(!stdout.contains("sim_ns"), "{tier}: a run was reported:\n{stdout}");
        assert!(
            stderr.contains("simulated clock 281474976711654 ns left the scheduler's range"),
            "{tier}: not the named failure:\n{stderr}"
        );
    }
}

/// A CAS that writes its result into a register the region also reads: the
/// register-WAR fixup has to rename the CAS destination (`rename_def` had
/// no arm for it and panicked with "does not define a register").
#[test]
fn a_cas_that_redefines_a_region_input_compiles_under_ido() {
    let Ran { code, stdout, stderr } = ido(
        "verify",
        "cas",
        "scenario cas_redefines_input {\n  workload stack\n  threads 1\n  ops 1\n  schemes ido\n}\n\n\
         fn worker(r0, r1, r2, r3, r4) regs=5 slots=0 {\n  bb0:\n    r4 = add r1, 1\n    \
         r1 = cas mem[r0+0] r1 -> r4\n    mem[r0+8] = r1\n    ret\n}\n",
    );
    assert!(
        !stderr.contains("panicked"),
        "ido verify panicked:\n{stderr}"
    );
    assert!(
        matches!(code, Some(0 | 1)),
        "exit {code:?}\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains("verify:"), "no verdict printed:\n{stdout}");
}

/// `ido crashtest` once skipped every scheme outside the six lock-delineated
/// ones and reported success on the lock-free corpus with nothing explored,
/// although both of its schemes have a durability contract.
#[test]
fn crashtest_explores_the_lockfree_pair() {
    let Ran { code, stdout, stderr } = ido("crashtest", "lf_list", &corpus("lf_list.ido"));
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(stdout.contains("2 scheme(s) explored, 0 counterexample(s)"), "{stdout}");
    assert!(!stdout.contains("skipping"), "{stdout}");
}

/// The one scheme with no contract to check is the one with no recovery.
#[test]
fn crashtest_skips_only_origin() {
    let source = corpus("stack.ido").replacen("  ops 4\n", "  ops 4\n  schemes origin ido\n", 1);
    let Ran { code, stdout, stderr } = ido("crashtest", "origin", &source);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(stdout.contains("skipping Origin"), "{stdout}");
    assert!(stdout.contains("1 scheme(s) explored, 0 counterexample(s)"), "{stdout}");
}
