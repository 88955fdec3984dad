//! Shared plumbing for the table and report binaries.
//!
//! Each binary in `src/bin/` regenerates one table or report of the paper
//! (see `DESIGN.md` for the index; the throughput figures are scenario
//! files under `corpus/figures/`, run by `ido sweep`). This library holds
//! the ops override and the one writer of `target/figures/`. The sizing
//! rule and the sweep engine are `ido-workloads`'.

#![deny(missing_docs)]

use std::fs;
use std::path::Path;

/// Number of operations per thread, overridable with `IDO_BENCH_OPS`.
///
/// # Panics
/// Panics if `IDO_BENCH_OPS` is set but is not a whole number: a typo must
/// not quietly run the default size.
pub fn ops_per_thread(default: u64) -> u64 {
    match std::env::var("IDO_BENCH_OPS") {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("IDO_BENCH_OPS={v:?} is not a whole number")),
        Err(_) => default,
    }
}

/// Writes `body` to `target/figures/<file>` and names the file on stdout.
///
/// # Panics
/// Panics if the directory or the file cannot be written, so a binary never
/// exits 0 without its output.
pub fn write_figure(file: &str, body: &str) {
    let dir = Path::new("target/figures");
    let path = dir.join(file);
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(&path, body))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Writes `header` and `rows` as `target/figures/<name>.csv` through
/// [`write_figure`].
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let mut body = format!("{header}\n");
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    write_figure(&format!("{name}.csv"), &body);
}
