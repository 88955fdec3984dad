//! Serial/parallel equivalence of the sweep engine: the ordered parallel
//! map makes the worker count unobservable, so a scenario sweep's CSV is
//! the same bytes at `jobs = 1` and `jobs = 4`, its rows in scheme ×
//! threads × delay order.
//!
//! The job count is passed explicitly rather than through `IDO_JOBS`,
//! because the process environment is shared across the test harness's
//! threads.

use ido_lang::parse_scenario;

#[test]
fn a_sweep_is_byte_identical_for_any_job_count() {
    let scenario = parse_scenario(
        "scenario sweep {\n  workload map\n  range 256\n  buckets 16\n  threads 1,2,4\n  ops 30\n  \
         delay 0,100\n  schemes origin ido atlas justdo\n}\n",
    )
    .unwrap();
    let serial = scenario.sweep(1);
    for jobs in [2, 4] {
        assert_eq!(serial, scenario.sweep(jobs), "CSV differs at jobs={jobs}");
    }

    let rows: Vec<Vec<&str>> = serial.lines().skip(1).map(|l| l.split(',').collect()).collect();
    let order: Vec<(&str, &str, &str)> = rows.iter().map(|r| (r[1], r[2], r[4])).collect();
    let mut want = Vec::new();
    for scheme in ["Origin", "iDO", "Atlas", "JUSTDO"] {
        for threads in ["1", "2", "4"] {
            want.extend(["0", "100"].map(|delay| (scheme, threads, delay)));
        }
    }
    assert_eq!(order, want, "rows follow schemes x threads x delay");
    let header = serial.lines().next().unwrap();
    assert!(rows.iter().all(|r| r.len() == header.split(',').count() && r[0] == "map"));
}
