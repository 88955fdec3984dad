//! The `ido` binary on scenarios that once crashed the compiler: whatever a
//! `.ido` file says, `ido verify` answers with diagnostics or success,
//! never a host panic.

use std::process::Command;

/// Writes `source` to a file of its own and runs `ido verify` on it.
fn ido_verify(name: &str, source: &str) -> std::process::Output {
    let path = std::env::temp_dir().join(format!("ido_cli_{}_{name}.ido", std::process::id()));
    std::fs::write(&path, source).expect("scenario file written");
    let out = Command::new(env!("CARGO_BIN_EXE_ido"))
        .arg("verify")
        .arg(&path)
        .output()
        .expect("the ido binary runs");
    let _ = std::fs::remove_file(&path);
    out
}

/// A CAS that writes its result into a register the region also reads: the
/// register-WAR fixup has to rename the CAS destination (`rename_def` had
/// no arm for it and panicked with "does not define a register").
#[test]
fn a_cas_that_redefines_a_region_input_compiles_under_ido() {
    let out = ido_verify(
        "cas",
        "scenario cas_redefines_input {\n  workload stack\n  threads 1\n  ops 1\n  schemes ido\n}\n\n\
         fn worker(r0, r1, r2, r3, r4) regs=5 slots=0 {\n  bb0:\n    r4 = add r1, 1\n    \
         r1 = cas mem[r0+0] r1 -> r4\n    mem[r0+8] = r1\n    ret\n}\n",
    );
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        !stderr.contains("panicked"),
        "ido verify panicked:\n{stderr}"
    );
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "exit {:?}\n{stdout}\n{stderr}",
        out.status.code()
    );
    assert!(stdout.contains("verify:"), "no verdict printed:\n{stdout}");
}
