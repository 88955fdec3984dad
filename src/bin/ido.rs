//! `ido` — the command-line driver for `.ido` scenario files.
//!
//! ```text
//! ido run <file.ido> [--jobs N] [--compare-builder]
//! ido verify <file.ido>
//! ido explain <file.ido> [--inject-skip-store-flush]
//! ido crashtest <file.ido>
//! ido trace <file.ido> [--limit N]
//! ido emit <file.ido>
//! ```
//!
//! Output is deterministic: `run` prints one stable JSON line per scheme
//! in the scenario's declaration order regardless of `--jobs`, so CI can
//! byte-compare runs at different parallelism. Parse errors render with
//! the offending line and a caret; verifier findings are renderable as
//! spanned witness paths via `explain`.

use std::process::ExitCode;

use ido_compiler::{instrument_program, Instrumented, Recovery, Scheme};
use ido_crashtest::{explore_jobs, OracleConfig};
use ido_lang::{parse_scenario, render_diagnostic, LangError, Listing, Scenario, ScenarioSpec};
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
    "usage: ido <run|verify|explain|crashtest|trace|emit> <file.ido> [flags]\n\
     \n\
     run        run the scenario under every listed scheme; one JSON line each\n\
     \x20          --jobs N            parallel runner threads (default: IDO_JOBS or 1)\n\
     \x20          --compare-builder   also run the native Rust-builder program and\n\
     \x20                              require byte-identical results\n\
     verify     instrument + statically verify each scheme; print findings\n\
     explain    like verify, but render each finding with its witness path\n\
     \x20          --inject-skip-store-flush   enable the iDO store-flush bug injection\n\
     crashtest  run the crash oracle (smoke budget) on the durable schemes\n\
     trace      run the first scheme with event tracing; dump events\n\
     \x20          --limit N           events to print (default 40)\n\
     emit       print the scenario's program in canonical textual form"
        .to_string()
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let cmd = args.first().ok_or_else(usage)?.as_str();
    let path = args.get(1).ok_or_else(usage)?.clone();
    let source = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let scenario = match parse_scenario(&source) {
        Ok(s) => s,
        Err(e) => return Err(render_err(&e, &path, &source)),
    };
    let flags = &args[2..];
    match cmd {
        "run" => cmd_run(&scenario, flags),
        "verify" => cmd_verify(&scenario, false, flags),
        "explain" => cmd_verify(&scenario, true, flags),
        "crashtest" => cmd_crashtest(&scenario),
        "trace" => cmd_trace(&scenario, flags),
        "emit" => cmd_emit(&scenario),
        other => Err(format!("unknown subcommand `{other}`\n{}", usage())),
    }
}

fn render_err(e: &LangError, path: &str, source: &str) -> String {
    e.render(path, source)
}

/// Writes to stdout, treating a closed pipe (`ido emit ... | head`) as a
/// clean early exit rather than a panic.
fn emit_out(s: &str) -> bool {
    use std::io::Write as _;
    std::io::stdout().write_all(s.as_bytes()).is_ok()
}

fn flag_value(flags: &[String], name: &str) -> Result<Option<u64>, String> {
    match flags.iter().position(|f| f == name) {
        None => Ok(None),
        Some(i) => flags
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs an integer argument")),
    }
}

fn vm_config(scenario: &Scenario) -> VmConfig {
    let mut cfg = VmConfig::for_tests();
    cfg.seed = scenario.seed;
    cfg.tier = scenario.tier;
    cfg.sched = SchedPolicy::MinClock;
    cfg
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
fn observe(spec: &dyn WorkloadSpec, scheme: Scheme, scenario: &Scenario) -> Observed {
    let inst = instrument_program(spec.build_program(), scheme).unwrap_or_else(|e| {
        panic!("{} does not instrument under {scheme}: {e:?}", spec.name())
    });
    let mut vm = Vm::new(inst, vm_config(scenario));
    let base = spec.setup(&mut vm, scenario.threads, scenario.ops);
    for t in 0..scenario.threads {
        vm.spawn("worker", &spec.worker_args(&base, t, scenario.ops));
    }
    assert_eq!(vm.run(), RunOutcome::Completed, "{} under {scheme}", spec.name());
    spec.verify(&vm, &base, scenario.threads as u64 * scenario.ops);
    let steps = vm.steps();
    let sim_ns = vm.max_clock_ns();
    let image = vm.pool().persistent_snapshot();
    let pool = vm.pool().clone();
    drop(vm);
    Observed { steps, sim_ns, stats: pool.global_stats(), image_fnv: fnv64(&image) }
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
        scenario.threads,
        scenario.ops,
        tier_name(scenario.tier),
        scenario.seed,
        o.sim_ns,
        o.steps,
        counters.join(","),
        o.image_fnv,
    )
}

fn cmd_run(scenario: &Scenario, flags: &[String]) -> Result<ExitCode, String> {
    let jobs = match flag_value(flags, "--jobs")? {
        Some(n) => (n as usize).max(1),
        None => ido_par::jobs(),
    };
    let compare = flags.iter().any(|f| f == "--compare-builder");
    let spec = scenario.spec();

    // Fan the schemes out over the deterministic parallel map; results come
    // back in scheme order, so the printed output is independent of `jobs`.
    let schemes = scenario.schemes.clone();
    let results = ido_par::par_map_jobs(jobs, schemes.clone(), |scheme| {
        observe(&spec, scheme, scenario)
    });
    for (scheme, o) in schemes.iter().zip(&results) {
        println!("{}", json_line(scenario, &spec, *scheme, o));
    }

    if compare {
        let native = scenario.kind.native_spec(scenario.range);
        for (scheme, corpus) in schemes.iter().zip(&results) {
            let builder = observe(native.as_ref(), *scheme, scenario);
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

/// Instruments the scenario's program for `scheme`.
fn instrument_for(spec: &ScenarioSpec, scheme: Scheme) -> Result<Instrumented, String> {
    instrument_program(spec.build_program(), scheme)
        .map_err(|e| format!("instrumentation failed under {}: {e:?}", scheme.name()))
}

fn cmd_verify(scenario: &Scenario, explain: bool, flags: &[String]) -> Result<ExitCode, String> {
    let mut cfg = vm_config(scenario);
    if flags.iter().any(|f| f == "--inject-skip-store-flush") {
        cfg.ido_bug_skip_store_flush = true;
    }
    let model = ido_verify::RuntimeModel::from_config(&cfg);
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

fn cmd_crashtest(scenario: &Scenario) -> Result<ExitCode, String> {
    let spec = scenario.spec();
    let mut cfg = OracleConfig::smoke();
    cfg.vm = vm_config(scenario);
    let mut failed = 0usize;
    let mut ran = 0usize;
    for &scheme in &scenario.schemes {
        if scheme.info().recovery == Recovery::None {
            println!("crashtest: skipping {} (no durability contract to check)", scheme.name());
            continue;
        }
        let ex = explore_jobs(ido_par::jobs(), &spec, scheme, &cfg);
        println!("{ex}");
        ran += 1;
        if let Some(c) = &ex.counterexample {
            eprint!("{}", c.replay_recipe());
            failed += 1;
        }
    }
    println!("crashtest: {ran} scheme(s) explored, {failed} counterexample(s)");
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn cmd_trace(scenario: &Scenario, flags: &[String]) -> Result<ExitCode, String> {
    let limit = flag_value(flags, "--limit")?.unwrap_or(40) as usize;
    let scheme = *scenario.schemes.first().expect("scenario always has schemes");
    let spec = scenario.spec();
    let inst = instrument_for(&spec, scheme)?;
    let mut cfg = vm_config(scenario);
    cfg.pool.trace = TraceConfig::on();
    let mut vm = Vm::new(inst, cfg);
    let base = spec.setup(&mut vm, scenario.threads, scenario.ops);
    for t in 0..scenario.threads {
        vm.spawn("worker", &spec.worker_args(&base, t, scenario.ops));
    }
    assert_eq!(vm.run(), RunOutcome::Completed);
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
    let program = match &scenario.program {
        Some(p) => p.program.clone(),
        None => scenario.kind.native_spec(scenario.range).build_program(),
    };
    emit_out(&format!("{program}"));
    Ok(ExitCode::SUCCESS)
}
