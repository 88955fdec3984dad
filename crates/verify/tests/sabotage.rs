//! Detection-strength regression tests: take a correctly instrumented
//! program, sabotage one instrumentation decision the way a compiler bug
//! would (drop a record, forget a live-in, skip a cut), and assert the
//! verifier reports exactly that invariant.
//!
//! These tests are the static twins of the crash oracle's
//! injected-bug acceptance tests: each mutation corresponds to a latent
//! instrumentation bug the ISSUE's bug sweep was hunting for, pinned here
//! so a regression is caught at lint time rather than by exploration.

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_ir::{BlockId, FuncId, Inst, Operand, Program, ProgramBuilder, RtOp, StoreTarget};
use ido_verify::{verify_instrumented, Invariant, RuntimeModel};

/// worker(lock, p): one FASE containing an antidependent load/store pair
/// (`[p+0]` is read, incremented, written back).
fn sample_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("worker", 2);
    let l = f.param(0);
    let p = f.param(1);
    let v = f.new_reg();
    let w = f.new_reg();
    f.lock(l);
    f.load(v, p, 0);
    f.bin(ido_ir::BinOp::Add, w, v, 1i64);
    f.store(p, 0, Operand::Reg(w));
    f.unlock(l);
    f.ret(None);
    f.finish().unwrap();
    pb.finish()
}

fn instrumented(scheme: Scheme) -> Instrumented {
    instrument_program(sample_program(), scheme).unwrap()
}

/// Removes the first instruction matching `pred` from the program,
/// panicking if none matches (the sabotage must actually happen).
fn remove_first(inst: &mut Instrumented, pred: impl Fn(&Inst) -> bool) {
    let func = inst.program.function_mut(FuncId(0));
    for bi in 0..func.num_blocks() {
        let bb = func.block_mut(BlockId(bi as u32));
        if let Some(i) = bb.insts.iter().position(&pred) {
            bb.insts.remove(i);
            return;
        }
    }
    panic!("no instruction matched the sabotage predicate");
}

/// Removes every instruction matching `pred` (at least one must match).
fn remove_all(inst: &mut Instrumented, pred: impl Fn(&Inst) -> bool) {
    let mut removed = 0;
    let func = inst.program.function_mut(FuncId(0));
    for bi in 0..func.num_blocks() {
        let bb = func.block_mut(BlockId(bi as u32));
        let before = bb.insts.len();
        bb.insts.retain(|i| !pred(i));
        removed += before - bb.insts.len();
    }
    assert!(removed > 0, "no instruction matched the sabotage predicate");
}

fn diags_of(inst: &Instrumented) -> Vec<ido_verify::Diagnostic> {
    verify_instrumented(inst, &RuntimeModel::for_tests())
}

fn assert_flags(inst: &Instrumented, invariant: Invariant) {
    let diags = diags_of(inst);
    assert!(
        diags.iter().any(|d| d.invariant == invariant),
        "expected a {invariant} finding, got: {diags:?}"
    );
}

#[test]
fn clean_instrumentation_verifies_for_all_schemes() {
    for scheme in Scheme::ALL {
        let inst = instrumented(scheme);
        let diags = diags_of(&inst);
        assert!(diags.is_empty(), "{scheme}: {diags:?}");
    }
}

// ---- iDO region invariants ----

#[test]
fn removing_all_boundaries_breaks_coverage_and_antidep_cut() {
    let mut inst = instrumented(Scheme::Ido);
    remove_all(&mut inst, |i| matches!(i, Inst::Rt(RtOp::IdoBoundary { .. })));
    let diags = diags_of(&inst);
    assert!(
        diags.iter().any(|d| d.invariant == Invariant::BoundaryCoverage),
        "store with no preceding boundary must be flagged: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.invariant == Invariant::AntidepCut),
        "uncut load/store antidependence must be flagged: {diags:?}"
    );
}

#[test]
fn boundary_coverage_witness_traces_back_to_fase_entry() {
    let mut inst = instrumented(Scheme::Ido);
    remove_all(&mut inst, |i| matches!(i, Inst::Rt(RtOp::IdoBoundary { .. })));
    let diags = diags_of(&inst);
    let d = diags
        .iter()
        .find(|d| d.invariant == Invariant::BoundaryCoverage)
        .expect("coverage finding");
    assert!(d.witness.len() >= 2, "witness path should span entry -> store: {d:?}");
    assert_eq!(*d.witness.last().unwrap(), d.pos.unwrap(), "witness ends at the store");
}

#[test]
fn dropping_a_logged_live_in_is_flagged() {
    let mut inst = instrumented(Scheme::Ido);
    // Sabotage the boundary with the richest filter: forget one register.
    let func = inst.program.function_mut(FuncId(0));
    let mut best: Option<(BlockId, usize, usize)> = None;
    for bi in 0..func.num_blocks() {
        let b = BlockId(bi as u32);
        for (i, ins) in func.block(b).insts.iter().enumerate() {
            if let Inst::Rt(RtOp::IdoBoundary { out_regs, .. }) = ins {
                if best.map_or(true, |(_, _, n)| out_regs.len() > n) && !out_regs.is_empty() {
                    best = Some((b, i, out_regs.len()));
                }
            }
        }
    }
    let (b, i, _) = best.expect("a boundary with a non-empty filter");
    if let Inst::Rt(RtOp::IdoBoundary { out_regs, .. }) = &mut func.block_mut(b).insts[i] {
        out_regs.remove(0);
    }
    assert_flags(&inst, Invariant::LiveInLogged);
}

#[test]
fn redefining_a_region_input_after_use_is_flagged() {
    let mut inst = instrumented(Scheme::Ido);
    // Find the heap store (the last region's sole member) and clobber one
    // of the registers it consumed, inside the same region. `mov w, w` is
    // semantically inert, so only the verifier should object.
    let func = inst.program.function_mut(FuncId(0));
    let mut site = None;
    'outer: for bi in 0..func.num_blocks() {
        let b = BlockId(bi as u32);
        for (i, ins) in func.block(b).insts.iter().enumerate() {
            if let Inst::Store { src: Operand::Reg(w), .. } = ins {
                site = Some((b, i, *w));
                break 'outer;
            }
        }
    }
    let (b, i, w) = site.expect("a store with a register source");
    func.block_mut(b).insts.insert(i + 1, Inst::Mov { dst: w, src: Operand::Reg(w) });
    assert_flags(&inst, Invariant::RegisterWarCut);
}

#[test]
fn removing_ido_lock_records_is_flagged() {
    for scheme in [Scheme::Ido, Scheme::JustDo, Scheme::Atlas] {
        let mut inst = instrumented(scheme);
        remove_first(&mut inst, |i| matches!(i, Inst::Rt(RtOp::LockAcquired { .. })));
        assert_flags(&inst, Invariant::LockRecord);

        let mut inst = instrumented(scheme);
        remove_first(&mut inst, |i| matches!(i, Inst::Rt(RtOp::LockReleasing { .. })));
        assert_flags(&inst, Invariant::LockRecord);
    }
}

#[test]
fn removing_fase_exit_marker_is_flagged() {
    for scheme in [Scheme::Ido, Scheme::JustDo, Scheme::Atlas, Scheme::Nvml, Scheme::Nvthreads] {
        let mut inst = instrumented(scheme);
        remove_first(&mut inst, |i| matches!(i, Inst::Rt(RtOp::FaseEnd)));
        assert_flags(&inst, Invariant::CommitOnExit);
    }
}

// ---- Baseline logging contracts ----

#[test]
fn removing_per_store_records_is_flagged() {
    for scheme in [Scheme::JustDo, Scheme::Atlas, Scheme::Nvml, Scheme::Nvthreads] {
        let mut inst = instrumented(scheme);
        remove_first(&mut inst, |i| matches!(i, Inst::Rt(RtOp::StoreRecord { .. })));
        let diags = diags_of(&inst);
        assert!(
            diags.iter().any(|d| d.invariant == Invariant::StoreLogged),
            "{scheme}: store without its record must be flagged: {diags:?}"
        );
    }
}

#[test]
fn mismatched_record_address_is_flagged() {
    // A record that exists but protects the wrong word is as bad as a
    // missing one.
    let mut inst = instrumented(Scheme::Atlas);
    let func = inst.program.function_mut(FuncId(0));
    let mut patched = false;
    for bi in 0..func.num_blocks() {
        let b = BlockId(bi as u32);
        for ins in &mut func.block_mut(b).insts {
            if let Inst::Rt(RtOp::StoreRecord { target: StoreTarget::Heap { offset, .. }, .. }) = ins
            {
                *offset += 8;
                patched = true;
            }
        }
    }
    assert!(patched);
    assert_flags(&inst, Invariant::StoreLogged);
}

#[test]
fn removing_a_justdo_shadow_is_flagged() {
    let mut inst = instrumented(Scheme::JustDo);
    remove_first(&mut inst, |i| matches!(i, Inst::Rt(RtOp::JustDoShadow { .. })));
    assert_flags(&inst, Invariant::ShadowMissing);
}

#[test]
fn mnemosyne_store_outside_transaction_is_flagged() {
    let mut inst = instrumented(Scheme::Mnemosyne);
    remove_first(&mut inst, |i| matches!(i, Inst::Rt(RtOp::TxBegin)));
    let diags = diags_of(&inst);
    assert!(
        diags.iter().any(|d| d.invariant == Invariant::StoreLogged),
        "store outside any open transaction must be flagged: {diags:?}"
    );

    let mut inst = instrumented(Scheme::Mnemosyne);
    remove_first(&mut inst, |i| matches!(i, Inst::Rt(RtOp::TxCommit)));
    assert_flags(&inst, Invariant::CommitOnExit);
}

#[test]
fn origin_makes_no_promises_and_is_never_flagged() {
    // Sabotaging Origin is meaningless: it has no runtime ops to remove
    // and no invariants to violate.
    let inst = instrumented(Scheme::Origin);
    assert!(diags_of(&inst).is_empty());
}
