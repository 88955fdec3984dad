//! Region formation is linear in function size: the work one `partition`
//! call reports — fixups, positions re-derived after them, positions
//! scanned for violations — grows with the function, not with its square.
//! The counts are the assertion; the wall-clock bound is a loose backstop
//! (the whole-function-analysis-per-fixup loop this replaced took 1.6–2.1 s
//! for 4 096 instructions in a release build).

mod common;

use std::time::{Duration, Instant};

use ido_idem::regions::{find_war_violation, partition_counted};

/// Re-derived positions per instruction (measured: 0.40–0.51 at every
/// size; a fixup's zone is about eight positions and one instruction in
/// sixteen needs a fixup).
const REANALYSED_PER_INST: usize = 1;
/// Scanned positions per instruction: every region once (1.0) plus the
/// regions each zone touched (measured: 1.5–1.8 at every size).
const SCANNED_PER_INST: usize = 3;

#[test]
fn work_is_linear_from_256_to_8192_instructions() {
    let mut per_inst = Vec::new();
    for size in [256, 1024, 4096, 8192] {
        let mut func = common::synthetic_function(1, size);
        let insts = func.num_insts();
        let start = Instant::now();
        let (analysis, work) = partition_counted(&mut func);
        let elapsed = start.elapsed();
        println!(
            "{insts:5} instructions: {:4} fixups, {:5} positions re-analysed ({:.1} per fixup), \
             {:5} scanned, {} regions, {elapsed:?}",
            work.fixups,
            work.positions_reanalysed,
            work.positions_reanalysed as f64 / work.fixups.max(1) as f64,
            work.positions_scanned,
            analysis.regions().len(),
        );
        assert!(
            work.fixups > insts / 40,
            "{insts}: the function barely needs repairing"
        );
        assert_eq!(find_war_violation(&func, &analysis), None);
        assert!(
            work.positions_reanalysed <= REANALYSED_PER_INST * insts,
            "{insts} instructions: {} positions re-analysed",
            work.positions_reanalysed
        );
        assert!(
            work.positions_scanned <= SCANNED_PER_INST * insts,
            "{insts} instructions: {} positions scanned",
            work.positions_scanned
        );
        per_inst.push((work.positions_reanalysed + work.positions_scanned) as f64 / insts as f64);
        if size == 8192 && !cfg!(debug_assertions) {
            assert!(
                elapsed < Duration::from_millis(500),
                "8 192 instructions took {elapsed:?}"
            );
        }
    }
    // Flat, not merely bounded: 32 times the instructions, the same work
    // per instruction (measured 1.9–2.3; the smallest function is the
    // noisiest).
    let (lo, hi) = per_inst
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    assert!(
        hi <= 1.5 * lo,
        "work per instruction drifts with size: {per_inst:?}"
    );
}
