//! `ido` — the command-line driver for `.ido` scenario files.
//!
//! ```text
//! ido sweep <file.ido> [--jobs N]
//! ido run <file.ido> [--jobs N] [--compare-builder]
//! ido verify <file.ido>
//! ido explain <file.ido>
//! ido crashtest <file.ido>
//! ido trace <file.ido> [--limit N]
//! ido emit <file.ido>
//! ```
//!
//! Output is deterministic: `sweep` prints one CSV row per point and `run`
//! one stable JSON line per scheme, in the scenario's declaration order
//! regardless of `--jobs`, so CI can byte-compare runs at different
//! parallelism. `sweep` is the only subcommand that takes a `threads` list
//! or a `delay` line, and each subcommand rejects a flag it does not take.
//! Parse errors render with the offending line and a caret; verifier
//! findings are renderable as spanned witness paths via `explain`, which
//! also renders a run that faults at its instruction. A scenario's `bug`
//! line applies to every subcommand; its `crash` and `fault` lines are
//! `crashtest`'s alone.

use std::process::ExitCode;

use ido_compiler::{instrument_program, Instrumented, Recovery, Scheme};
use ido_crashtest::{explore_jobs, reference_outcome};
use ido_lang::{
    parse_scenario, render_diagnostic, render_fault, scheme_ident, Fault, Listing, Scenario,
};
use ido_nvm::StatsSnapshot;
use ido_trace::TraceConfig;
use ido_vm::{ExecTier, RunOutcome, SchedPolicy, Vm, VmConfig};
use ido_workloads::WorkloadSpec;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: ido <sweep|run|verify|explain|crashtest|trace|emit> <file.ido> [flags]\n\
     \n\
     sweep      run every scheme x threads x delay point on a pool sized for it;\n\
     \x20          one CSV on stdout (how corpus/figures/*.ido regenerate)\n\
     \x20          --jobs N            parallel runner threads (default: IDO_JOBS or 1)\n\
     run        run the scenario under every listed scheme; one JSON line each\n\
     \x20          --jobs N            parallel runner threads (default: IDO_JOBS or 1)\n\
     \x20          --compare-builder   also run the native Rust-builder program and\n\
     \x20                              require byte-identical results\n\
     verify     instrument + statically verify each scheme; print findings\n\
     explain    like verify, but render each finding with its witness path,\n\
     \x20          and a run that faults at the faulting instruction\n\
     crashtest  run the crash oracle on the durable schemes; each counterexample\n\
     \x20          is written to target/replay/ as a scenario with a `crash` line\n\
     \x20          (a `fault` line for a run that faults), and on such a scenario\n\
     \x20          crashtest checks that one crash state (replays that fault)\n\
     trace      run the first scheme with event tracing; dump events\n\
     \x20          --limit N           events to print (default 40)\n\
     emit       print the scenario's program in canonical textual form"
        .to_string()
}

/// The flags after the file: each one `cmd` takes, with its integer value
/// where it takes one. Anything else is a usage error.
fn parse_flags(cmd: &str, args: &[String]) -> Result<Vec<(&'static str, u64)>, String> {
    // (flag, takes a value)
    let known: &[(&str, bool)] = match cmd {
        "sweep" => &[("--jobs", true)],
        "run" => &[("--jobs", true), ("--compare-builder", false)],
        "trace" => &[("--limit", true)],
        "verify" | "explain" | "crashtest" | "emit" => &[],
        _ => return Err(format!("unknown subcommand `{cmd}`\n{}", usage())),
    };
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(&(name, valued)) = known.iter().find(|(name, _)| arg == name) else {
            return Err(format!("`ido {cmd}` takes no flag `{arg}`\n{}", usage()));
        };
        let value = if valued {
            args.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} needs an integer argument"))?
        } else {
            0
        };
        flags.push((name, value));
    }
    Ok(flags)
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let cmd = args.first().ok_or_else(usage)?.as_str();
    let path = args.get(1).ok_or_else(usage)?.clone();
    let flags = parse_flags(cmd, &args[2..])?;
    let flag = |name| flags.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v);
    let jobs = flag("--jobs").map_or_else(ido_par::jobs, |n| (n as usize).max(1));
    let source = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let scenario = parse_scenario(&source).map_err(|e| e.render(&path, &source))?;
    if cmd == "sweep" {
        emit_out(&scenario.sweep(jobs));
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(axis) = scenario.sweep_axis() {
        return Err(format!(
            "{path}: `{axis}` makes this scenario a sweep: run it with `ido sweep {path}`"
        ));
    }
    match cmd {
        "run" => cmd_run(&scenario, jobs, flag("--compare-builder").is_some()),
        "verify" => cmd_verify(&scenario, false),
        "explain" => cmd_verify(&scenario, true),
        "crashtest" => cmd_crashtest(&scenario),
        "trace" => cmd_trace(&scenario, flag("--limit").unwrap_or(40) as usize),
        _ => cmd_emit(&scenario),
    }
}

/// Writes to stdout, treating a closed pipe (`ido emit ... | head`) as a
/// clean early exit rather than a panic.
fn emit_out(s: &str) -> bool {
    use std::io::Write as _;
    std::io::stdout().write_all(s.as_bytes()).is_ok()
}

/// The VM configuration of `run`, `verify`, `explain` and `trace`: the
/// test-sized config under the MinClock scheduler, with the scenario's
/// seed, tier, allocator and bugs.
fn vm_config(scenario: &Scenario) -> VmConfig {
    let mut cfg = VmConfig::for_tests();
    cfg.sched = SchedPolicy::MinClock;
    scenario.vm_config(cfg)
}

/// Instruments `spec`'s program for `scheme`.
fn instrument_for(spec: &dyn WorkloadSpec, scheme: Scheme) -> Result<Instrumented, String> {
    instrument_program(spec.build_program(), scheme)
        .map_err(|e| format!("instrumentation failed under {}: {e:?}", scheme.name()))
}

/// The one set-up path: build a VM for `inst` on `cfg`, set the workload
/// up and spawn a worker per scenario thread. Returns the VM and the
/// workload's setup values.
fn boot(spec: &dyn WorkloadSpec, inst: Instrumented, scenario: &Scenario, cfg: VmConfig) -> (Vm, Vec<u64>) {
    let mut vm = Vm::new(inst, cfg);
    let base = spec.setup(&mut vm, scenario.threads[0], scenario.ops);
    for t in 0..scenario.threads[0] {
        vm.spawn("worker", &spec.worker_args(&base, t, scenario.ops));
    }
    (vm, base)
}

/// [`boot`] `spec` instrumented for `scheme` and run it to completion.
///
/// # Errors
/// Instrumentation failures, and a run that stops with a fault (named).
fn run_to_completion(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    scenario: &Scenario,
    cfg: VmConfig,
) -> Result<(Vm, Vec<u64>), String> {
    let (mut vm, base) = boot(spec, instrument_for(spec, scheme)?, scenario, cfg);
    let outcome = vm.run();
    if let Some(fault) = Fault::of(outcome, vm.program()) {
        return Err(format!("{} under {scheme}: {fault}", spec.name()));
    }
    assert_eq!(outcome, RunOutcome::Completed, "{} under {scheme}", spec.name());
    Ok((vm, base))
}

/// Everything `run` observes about one scheme's execution.
struct Observed {
    steps: u64,
    sim_ns: u64,
    stats: StatsSnapshot,
    image_fnv: u64,
}

/// Runs `spec` under `scheme` and captures the observables (the same set
/// the cross-tier differential gates compare).
fn observe(spec: &dyn WorkloadSpec, scheme: Scheme, scenario: &Scenario) -> Result<Observed, String> {
    let (vm, base) = run_to_completion(spec, scheme, scenario, vm_config(scenario))?;
    spec.verify(&vm, &base, scenario.threads[0] as u64 * scenario.ops);
    let steps = vm.steps();
    let sim_ns = vm.max_clock_ns();
    let image = vm.pool().persistent_snapshot();
    let pool = vm.pool().clone();
    drop(vm);
    Ok(Observed { steps, sim_ns, stats: pool.global_stats(), image_fnv: fnv64(&image) })
}

/// FNV-1a over the persistent pool image: a compact, dependency-free
/// fingerprint for byte-compare gates.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn tier_name(t: ExecTier) -> &'static str {
    match t {
        ExecTier::Tier1 => "tier1",
        ExecTier::Tier2 => "tier2",
    }
}

fn json_line(scenario: &Scenario, spec: &dyn WorkloadSpec, scheme: Scheme, o: &Observed) -> String {
    let names = StatsSnapshot::CSV_HEADER.split(',');
    let counters: Vec<String> =
        names.zip(o.stats.to_array()).map(|(name, v)| format!("\"{name}\":{v}")).collect();
    format!(
        "{{\"scheme\":\"{}\",\"workload\":\"{}\",\"threads\":{},\"ops\":{},\"tier\":\"{}\",\"seed\":{},\"sim_ns\":{},\"steps\":{},{},\"image_fnv\":\"{:#018x}\"}}",
        scheme.name(),
        spec.name(),
        scenario.threads[0],
        scenario.ops,
        tier_name(scenario.tier),
        scenario.seed,
        o.sim_ns,
        o.steps,
        counters.join(","),
        o.image_fnv,
    )
}

fn cmd_run(scenario: &Scenario, jobs: usize, compare: bool) -> Result<ExitCode, String> {
    let spec = scenario.spec();

    // Fan the schemes out over the deterministic parallel map; results come
    // back in scheme order, so the printed output is independent of `jobs`.
    let schemes = scenario.schemes.clone();
    let results = ido_par::par_map_jobs(jobs, schemes.clone(), |scheme| {
        observe(&spec, scheme, scenario)
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    for (scheme, o) in schemes.iter().zip(&results) {
        println!("{}", json_line(scenario, &spec, *scheme, o));
    }

    if compare {
        let native = scenario.native_spec();
        for (scheme, corpus) in schemes.iter().zip(&results) {
            let builder = observe(native.as_ref(), *scheme, scenario)?;
            let same = corpus.steps == builder.steps
                && corpus.sim_ns == builder.sim_ns
                && corpus.stats == builder.stats
                && corpus.image_fnv == builder.image_fnv;
            if !same {
                eprintln!(
                    "compare-builder MISMATCH under {}: corpus (steps={}, sim_ns={}, fnv={:#x}) vs builder (steps={}, sim_ns={}, fnv={:#x})",
                    scheme.name(),
                    corpus.steps,
                    corpus.sim_ns,
                    corpus.image_fnv,
                    builder.steps,
                    builder.sim_ns,
                    builder.image_fnv
                );
                return Ok(ExitCode::from(1));
            }
        }
        println!("compare-builder: {} scheme(s) byte-identical to the Rust builder", schemes.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(scenario: &Scenario, explain: bool) -> Result<ExitCode, String> {
    let model = ido_verify::RuntimeModel::from_config(&vm_config(scenario));
    let spec = scenario.spec();
    let mut findings = 0usize;
    for &scheme in &scenario.schemes {
        let inst = instrument_for(&spec, scheme)?;
        let diags = ido_verify::verify_instrumented(&inst, &model);
        if explain {
            let listing = Listing::new(&inst.program);
            for d in &diags {
                print!("{}", render_diagnostic(d, &listing));
            }
            // What the static verdicts cannot see: a run that faults.
            let (mut vm, _) = boot(&spec, inst.clone(), scenario, vm_config(scenario));
            if let Some(fault) = Fault::of(vm.run(), &inst.program) {
                print!("{}", render_fault(&fault, scheme, &listing));
                findings += 1;
            }
        } else {
            for d in &diags {
                println!("{d}");
            }
        }
        findings += diags.len();
    }
    if findings == 0 {
        println!(
            "verify: {} scheme(s) clean on workload `{}`",
            scenario.schemes.len(),
            spec.name()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!("verify: {findings} finding(s)");
        Ok(ExitCode::from(1))
    }
}

/// The crash oracle at [`Scenario::oracle_config`] over every listed scheme
/// with a recovery. Without a `crash` line it explores; each counterexample
/// becomes `target/replay/<scenario>-<scheme>.ido`, the reproducer whose
/// `crash` line makes this command check that one state instead. A run
/// that faults has no crash state: the fault is the failure, and its
/// reproducer's `fault` line makes this command replay the run to it.
fn cmd_crashtest(scenario: &Scenario) -> Result<ExitCode, String> {
    let spec = scenario.spec();
    let cfg = scenario.oracle_config();
    let mut failed = 0usize;
    let mut ran = 0usize;
    for &scheme in &scenario.schemes {
        if scheme.info().recovery == Recovery::None {
            println!("crashtest: skipping {} (no durability contract to check)", scheme.name());
            continue;
        }
        ran += 1;
        let inst = instrument_for(&spec, scheme)?;
        if let Some(fault) = Fault::of(reference_outcome(&spec, &inst, &cfg), &inst.program) {
            println!("{}/{scheme}: FAILED: {fault}", spec.name());
            failed += 1;
            if scenario.fault.is_none() {
                write_reproducer(&scenario.fault_reproducer(scheme, fault), scheme)?;
            }
            continue;
        }
        if scenario.fault.is_some() {
            println!("{}/{scheme}: completes without a fault", spec.name());
            continue;
        }
        if let Some(state) = &scenario.crash {
            if let Err(failure) = state.check(&spec, &inst, &cfg) {
                let first = failure.lines().next().unwrap_or_default();
                println!("{}/{scheme}: FAILED: {first}", spec.name());
                failed += 1;
            } else {
                println!("{}/{scheme}: consistent", spec.name());
            }
            continue;
        }
        let ex = explore_jobs(ido_par::jobs(), &spec, scheme, &cfg);
        println!("{ex}");
        // Host-side: each worker recovers every image it has not seen pass.
        println!("  recoveries run: {} over {} worker(s)", ex.recoveries_run, ido_par::jobs());
        if let Some(cex) = &ex.counterexample {
            failed += 1;
            write_reproducer(&scenario.reproducer(cex)?, scheme)?;
        }
    }
    let what = match (&scenario.crash, &scenario.fault) {
        (Some(_), _) => "checked at one crash state",
        (_, Some(_)) => "replayed to its fault",
        _ => "explored",
    };
    println!("crashtest: {ran} scheme(s) {what}, {failed} counterexample(s)");
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// Writes `reproducer`, found under `scheme`, to
/// `target/replay/<scenario>-<scheme>.ido` and prints the line replaying it.
fn write_reproducer(reproducer: &Scenario, scheme: Scheme) -> Result<(), String> {
    let path = format!("target/replay/{}-{}.ido", reproducer.name, scheme_ident(scheme));
    std::fs::create_dir_all("target/replay")
        .and_then(|()| std::fs::write(&path, reproducer.to_string()))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("replay: ido crashtest {path}");
    Ok(())
}

fn cmd_trace(scenario: &Scenario, limit: usize) -> Result<ExitCode, String> {
    let scheme = *scenario.schemes.first().expect("scenario always has schemes");
    let mut cfg = vm_config(scenario);
    cfg.pool.trace = TraceConfig::on();
    let (vm, _) = run_to_completion(&scenario.spec(), scheme, scenario, cfg)?;
    let pool = vm.pool().clone();
    drop(vm);
    let trace = pool.take_trace().expect("tracing was enabled");
    println!(
        "trace: {} event(s) under {} ({} dropped)",
        trace.pushed,
        scheme.name(),
        trace.dropped
    );
    for ev in trace.events.iter().take(limit) {
        if !emit_out(&format!("{ev:?}\n")) {
            return Ok(ExitCode::SUCCESS);
        }
    }
    if trace.events.len() > limit {
        println!("... {} more (raise --limit)", trace.events.len() - limit);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_emit(scenario: &Scenario) -> Result<ExitCode, String> {
    emit_out(&scenario.spec().build_program().to_string());
    Ok(ExitCode::SUCCESS)
}
