//! Serial/parallel equivalence of the sweep engine: the ordered parallel
//! map makes the worker count unobservable, so a scenario sweep's CSV is
//! the same bytes at `jobs = 1` and `jobs = 4`, its rows in scheme ×
//! threads × each listed sweep parameter order.
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

/// A sweep over a delay list and a flag list: one more column, after
/// `delay_ns`, and rows in schemes × threads × delay × flag order, the
/// parameters nested in table order whatever order the file lists them in.
#[test]
fn a_sweep_over_parameter_lists_is_byte_identical_for_any_job_count() {
    let scenario = parse_scenario(
        "scenario flags {\n  workload stack\n  threads 1,2\n  ops 20\n  ido_no_coalescing 0,1\n  \
         delay 0,100\n  schemes origin ido\n}\n",
    )
    .unwrap();
    let serial = scenario.sweep(1);
    for jobs in [2, 4] {
        assert_eq!(serial, scenario.sweep(jobs), "CSV differs at jobs={jobs}");
    }

    let header: Vec<&str> = serial.lines().next().unwrap().split(',').collect();
    assert_eq!(header[2..7], ["threads", "ops", "delay_ns", "ido_no_coalescing", "sim_ns"]);
    let rows: Vec<Vec<&str>> = serial.lines().skip(1).map(|l| l.split(',').collect()).collect();
    let order: Vec<[&str; 4]> = rows.iter().map(|r| [r[1], r[2], r[4], r[5]]).collect();
    let mut want = Vec::new();
    for scheme in ["Origin", "iDO"] {
        for threads in ["1", "2"] {
            for delay in ["0", "100"] {
                want.extend(["0", "1"].map(|flag| [scheme, threads, delay, flag]));
            }
        }
    }
    assert_eq!(order, want, "rows follow schemes x threads x delay x ido_no_coalescing");
    assert!(rows.iter().all(|r| r.len() == header.len()));
    // The flag is iDO's: it moves iDO's time and leaves Origin's alone.
    let sim_ns = |i: usize| rows[i][6].parse::<u64>().unwrap();
    assert_eq!((sim_ns(0), sim_ns(2)), (sim_ns(1), sim_ns(3)), "Origin ignores the flag");
    assert!(sim_ns(9) > sim_ns(8), "no coalescing costs iDO time");
}
