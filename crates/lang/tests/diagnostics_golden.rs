//! Golden tests for parser and scenario diagnostics (ISSUE 10 satellite
//! #4): the rendered output — message, file:line:col arrow, source
//! excerpt, caret run, secondary notes — is pinned byte-for-byte, so a
//! refactor that shifts a span or drops a note fails loudly.
//!
//! Regenerate with `IDO_BLESS=1 cargo test -p ido-lang --test
//! diagnostics_golden` after an intentional change, and review the diff.

use std::path::PathBuf;

use ido_lang::{parse_program_text, parse_scenario};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("diag_{name}.txt"))
}

fn check(name: &str, got: &str) {
    let bless = std::env::var("IDO_BLESS").is_ok_and(|v| v == "1");
    let path = golden_path(name);
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); regenerate with IDO_BLESS=1", path.display())
    });
    assert_eq!(
        got,
        want,
        "diagnostic `{name}` diverged from {} — if intentional, regenerate with IDO_BLESS=1",
        path.display()
    );
}

fn program_error(name: &str, src: &str) {
    let err = parse_program_text(src).expect_err("source must not parse");
    assert!(err.primary.span.in_bounds(src.len()), "primary span out of bounds");
    for note in &err.secondary {
        assert!(note.span.in_bounds(src.len()), "secondary span out of bounds");
    }
    check(name, &err.render(&format!("{name}.ido"), src));
}

fn scenario_error(name: &str, src: &str) {
    let err = parse_scenario(src).expect_err("scenario must not parse");
    assert!(err.primary.span.in_bounds(src.len()), "primary span out of bounds");
    check(name, &err.render(&format!("{name}.ido"), src));
}

/// A lexically bad token: the caret must sit on the exact byte.
#[test]
fn bad_token_diagnostic() {
    program_error(
        "bad_token",
        "fn worker() regs=1 slots=0 {\n  bb0:\n    r0 = 1 @ 2\n    ret\n}\n",
    );
}

/// An unclosed function body: the error carries two labels — the EOF
/// position and a note pointing back at the header that opened the body.
#[test]
fn unclosed_block_diagnostic() {
    program_error(
        "unclosed_block",
        "fn worker() regs=1 slots=0 {\n  bb0:\n    r0 = 1\n    ret\n",
    );
}

/// A register past the declared `regs=` bound: two labels again — the
/// offending use and the declaration it violates.
#[test]
fn register_bound_diagnostic() {
    program_error(
        "register_bound",
        "fn worker() regs=2 slots=0 {\n  bb0:\n    r5 = 7\n    ret\n}\n",
    );
}

/// An unknown scheme name in a scenario header.
#[test]
fn unknown_scheme_diagnostic() {
    scenario_error(
        "unknown_scheme",
        "scenario s {\n  workload stack\n  threads 1\n  ops 1\n  schemes ido pmdk\n}\n",
    );
}

/// A duplicated scenario key: primary on the second occurrence, note on
/// the first.
#[test]
fn duplicate_key_diagnostic() {
    scenario_error(
        "duplicate_key",
        "scenario s {\n  workload stack\n  threads 1\n  threads 2\n  ops 1\n}\n",
    );
}

/// Span correctness probe: the caret for a mid-line error must cover the
/// offending token exactly, which the rendered excerpt makes visible.
#[test]
fn midline_span_diagnostic() {
    program_error(
        "midline_span",
        "fn worker() regs=2 slots=1 {\n  bb0:\n    stack[s0] = r1 extra\n    ret\n}\n",
    );
}

/// A `delay` the simulated clock cannot represent (ISSUE 19): rejected where
/// it is written, with the bound, instead of wrapping the clock at run time.
#[test]
fn delay_out_of_range_diagnostic() {
    program_error(
        "delay_out_of_range",
        "fn worker() regs=1 slots=0 {\n  bb0:\n    delay 18446744073709551000 ns\n    ret\n}\n",
    );
}

/// A mnemonic of the per-scheme `Rt` ops ISSUE 24 folded into
/// `rt.store_record`: an unknown runtime op, not a silent alias.
#[test]
fn unknown_rt_op_diagnostic() {
    program_error(
        "unknown_rt_op",
        "fn worker(r0, r1) regs=2 slots=0 {\n  bb0:\n    rt.atlas_undo [r1+0]\n    ret\n}\n",
    );
}

/// A reproducer's `crash` line with a lost line that is not an integer: the
/// caret sits on the offending list element.
#[test]
fn crash_clause_diagnostic() {
    scenario_error(
        "crash_clause",
        "scenario x {\n  workload twin\n  threads 2\n  ops 2\n  crash at step 20 lose [82, line9]\n}\n",
    );
}

/// A two-point sweep of Origin and iDO with one more header line, `line`.
fn sweep_with(line: &str) -> String {
    format!("scenario s {{\n  workload stack\n  threads 1,4\n  ops 2\n  schemes origin ido\n  {line}\n}}\n")
}

/// An `expect` side naming a scheme the file does not run: spanned at the
/// scheme once the whole header is read.
#[test]
fn expect_scheme_not_swept_diagnostic() {
    scenario_error("expect_scheme_not_swept", &sweep_with("expect ido ge 2 times atlas"));
}

/// An `expect` column the sweep CSV does not have.
#[test]
fn expect_unknown_column_diagnostic() {
    scenario_error("expect_unknown_column", &sweep_with("expect ido flushes le origin flushes"));
}

/// An `at` value that is not in the file's `threads` list.
#[test]
fn expect_at_not_a_point_diagnostic() {
    scenario_error("expect_at_not_a_point", &sweep_with("expect ido at threads 16 gt origin"));
}

/// An `at` on an axis the file does not sweep.
#[test]
fn expect_at_wrong_axis_diagnostic() {
    scenario_error("expect_at_wrong_axis", &sweep_with("expect ido at delay 20 gt origin"));
}

/// An `at` on a sweep parameter the file does not list: the label names
/// every axis and its values.
#[test]
fn expect_at_unlisted_key_diagnostic() {
    let src = sweep_with("ido_eager_step2_fence 0,1\n  expect ido at ido_no_coalescing 1 gt origin");
    scenario_error("expect_at_unlisted_key", &src);
}

/// A sweep parameter past its bound: `delay 2^64 - 1` once ran, its
/// per-line charge wrapping to a row with `sim_ns` 3529.
#[test]
fn param_out_of_range_diagnostic() {
    scenario_error("param_out_of_range", &sweep_with("delay 0,18446744073709551615"));
}

/// A key that is neither a scenario key nor a sweep parameter.
#[test]
fn unknown_key_diagnostic() {
    scenario_error("unknown_key", &sweep_with("cores 4"));
}

/// A multiplier of zero.
#[test]
fn expect_zero_times_diagnostic() {
    scenario_error("expect_zero_times", &sweep_with("expect 0 times ido le origin"));
}

/// A known miss without its reason.
#[test]
fn expect_miss_without_reason_diagnostic() {
    scenario_error("expect_miss_without_reason", &sweep_with("expect ido gt origin miss item8"));
}

/// An `expect` line in a file `ido run` (or any subcommand but `sweep`) is
/// handed: spanned at the claim, which only a sweep checks.
#[test]
fn expect_under_run_diagnostic() {
    let src = "scenario s {\n  workload stack\n  threads 2\n  ops 2\n  schemes origin ido\n  expect origin gt ido\n}\n";
    let scenario = parse_scenario(src).expect("the scenario parses");
    check("expect_under_run", &scenario.check_one_point("expect_under_run.ido", src).expect_err("a claim is a sweep's"));
}

/// A map without buckets: its workers would hash into an empty directory
/// and read past it.
#[test]
fn buckets_zero_diagnostic() {
    scenario_error("buckets_zero", "scenario s {\n  workload map\n  buckets 0\n  threads 1\n  ops 2\n}\n");
}

/// More buckets than a sweep point's heap holds a directory for.
#[test]
fn buckets_too_many_diagnostic() {
    scenario_error(
        "buckets_too_many",
        "scenario s {\n  workload lf_map\n  buckets 1099511627776\n  threads 1\n  ops 2\n}\n",
    );
}
