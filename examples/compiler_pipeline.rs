//! The compiler-directed pipeline, end to end:
//!
//! 1. build a lock-based program in the IR;
//! 2. partition it into idempotent regions (watch the antidependence cuts
//!    and the register-WAR repair land);
//! 3. instrument it for iDO;
//! 4. run it in the VM, crash at an arbitrary instruction, and recover via
//!    resumption.
//!
//! Run with: `cargo run --example compiler_pipeline`

use ido_compiler::{instrument_program, Scheme};
use ido_idem::regions::partition_counted;
use ido_ir::{BinOp, Operand, ProgramBuilder};
use ido_vm::{recover, RecoveryConfig, Vm, VmConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // fn transfer(lock, from, to): under `lock`, move 10 units between two
    // persistent accounts — the canonical failure-atomicity example.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("transfer", 3);
    let lock = f.param(0);
    let from = f.param(1);
    let to = f.param(2);
    let a = f.new_reg();
    let a2 = f.new_reg();
    let b = f.new_reg();
    let b2 = f.new_reg();
    f.lock(lock);
    f.load(a, from, 0);
    f.bin(BinOp::Sub, a2, a, 10i64);
    f.store(from, 0, Operand::Reg(a2));
    f.load(b, to, 0);
    f.bin(BinOp::Add, b2, b, 10i64);
    f.store(to, 0, Operand::Reg(b2));
    f.unlock(lock);
    f.ret(None);
    let id = f.finish()?;
    let mut program = pb.finish();

    // Phase 2: idempotent region formation, with the work it reports about
    // itself (instrumentation below finds the function already repaired).
    let (analysis, work) = partition_counted(program.function_mut(id));
    println!("== idempotent regions ==");
    println!(
        "  {}: {} instrs, {} WAR fixups, {} positions re-analysed, {} scanned",
        program.function(id).name(),
        program.function(id).num_insts(),
        work.fixups,
        work.positions_reanalysed,
        work.positions_scanned
    );
    for r in analysis.regions() {
        println!(
            "  region {:?}: entry {:?}, {} instrs, {} stores, inputs {:?}",
            r.id,
            r.entry,
            r.members.len(),
            r.num_stores(),
            r.input_regs
        );
    }

    // Phases 1+3: FASE inference + iDO instrumentation.
    let instrumented = instrument_program(program, Scheme::Ido)?;
    println!("\n== instrumented ==\n{}", instrumented.program.function(id));

    // Execute, crash mid-FASE, recover.
    let cfg = VmConfig::default();
    let mut vm = Vm::new(instrumented.clone(), cfg.clone());
    let (lock_holder, accounts) = vm.setup(|h, alloc, _| {
        let l = alloc.alloc(h, 8).expect("lock holder");
        let acct = alloc.alloc(h, 64).expect("accounts");
        h.write_u64(acct, 100); // from
        h.write_u64(acct + 8, 0); // to
        h.persist(acct, 16);
        (l, acct)
    });
    vm.spawn("transfer", &[lock_holder as u64, accounts as u64, accounts as u64 + 8]);

    let crash_step = 14; // mid-FASE, between the two account updates
    vm.run_steps(crash_step);
    let pool = vm.crash(7);
    println!("crashed after {crash_step} instructions");
    {
        let mut h = pool.handle();
        println!(
            "post-crash (pre-recovery): from={} to={} — possibly mid-transfer",
            h.read_u64(accounts),
            h.read_u64(accounts + 8)
        );
    }

    let report = recover(pool.clone(), instrumented, cfg, RecoveryConfig::for_tests());
    let mut h = pool.handle();
    let (from_v, to_v) = (h.read_u64(accounts), h.read_u64(accounts + 8));
    println!(
        "after recovery ({} FASE resumed): from={from_v} to={to_v}",
        report.resumed
    );
    assert_eq!(from_v + to_v, 100, "money is conserved");
    assert!(to_v == 0 || to_v == 10, "transfer is all-or-nothing");
    println!("the interrupted FASE ran forward to completion: atomic transfer.");
    Ok(())
}
