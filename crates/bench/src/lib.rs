//! Shared plumbing for the table and report binaries.
//!
//! Each binary in `src/bin/` regenerates one table or report of the paper
//! (see `DESIGN.md` for the index; the throughput figures are scenario
//! files under `corpus/figures/`, run by `ido sweep`). Each runs at the one
//! size `EXPERIMENTS.md` reports; this library holds the one writer of
//! `target/figures/`. The sizing rule, the sweep engine and `boot` are
//! `ido-workloads`'.

#![deny(missing_docs)]

use std::fs;
use std::path::Path;

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
