//! The gate for "identical": `partition` repairs register WARs zone by
//! zone, the reference (`common/reference.rs`, the pre-PR-17 loop) by one
//! whole-function analysis per fixup, and on every input the two must
//! produce byte-identical function text, the same register count and an
//! equal `RegionAnalysis`. Plus one test per fact the incremental state
//! stands on (see `src/formation.rs`), each failing with the position that
//! broke it.

mod common;
// The old code as it was, not as rustfmt would have it.
#[rustfmt::skip]
#[path = "common/reference.rs"]
mod reference;

use std::collections::BTreeSet;

use ido_idem::antidep::{check_partition, uncut_pairs};
use ido_idem::regions::{find_war_violation, partition_counted};
use ido_idem::{analyze, Pos, Region, RegionAnalysis};
use ido_ir::cfg::Cfg;
use ido_ir::liveness::{Liveness, Var};
use ido_ir::opt::optimize_program;
use ido_ir::{BinOp, BlockId, Function, Operand, Program, ProgramBuilder};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use reference::RefAnalysis;

/// Every function of `program`, as written and after `optimize_program`
/// (the benchmark partitions optimized code, `instrument_program` whatever
/// it is given).
fn functions_of(name: &str, program: Program, out: &mut Vec<(String, Function)>) {
    let mut optimized = program.clone();
    optimize_program(&mut optimized);
    for (tag, p) in [("", &program), (" (optimized)", &optimized)] {
        for f in p.functions() {
            out.push((format!("{name}::{}{tag}", f.name()), f.clone()));
        }
    }
}

/// The nine corpus programs and the seven standard builders.
fn fixed_inputs() -> Vec<(String, Function)> {
    let mut out = Vec::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("corpus entry reads").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 9, "corpus/ holds the nine standard scenarios");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let scenario = ido_lang::parse_scenario(&text).expect("corpus file parses");
        let program = scenario.program.expect("corpus file has a program").program;
        functions_of(
            &format!("corpus/{}", path.file_stem().unwrap().to_string_lossy()),
            program,
            &mut out,
        );
    }
    for spec in ido_workloads::standard_specs() {
        functions_of(
            &format!("builder/{}", spec.name()),
            spec.build_program(),
            &mut out,
        );
    }
    out
}

fn same_analysis(name: &str, func: &Function, got: &RegionAnalysis, want: &RefAnalysis) {
    assert_eq!(got.cuts(), &want.cuts, "{name}: cuts");
    assert_eq!(
        got.regions().len(),
        want.regions.len(),
        "{name}: region count"
    );
    for (g, w) in got.regions().iter().zip(&want.regions) {
        assert_eq!(g, w, "{name}: region {:?} (entry {:?})", w.id, w.entry);
    }
    for (pos, _) in func.iter_insts() {
        assert_eq!(
            got.region_at(pos),
            want.region_of.get(&pos).copied(),
            "{name}: region of {pos:?}"
        );
    }
}

/// `partition` against the reference loop on one function.
fn assert_equivalent(name: &str, original: &Function) {
    same_analysis(
        name,
        original,
        &analyze(original),
        &reference::analyze(original),
    );
    let (mut new, mut old) = (original.clone(), original.clone());
    let (analysis, work) = partition_counted(&mut new);
    let expected = reference::partition(&mut old);
    assert_eq!(
        new.to_string(),
        old.to_string(),
        "{name}: instrumented text"
    );
    assert_eq!(new.num_regs(), old.num_regs(), "{name}: register count");
    same_analysis(name, &new, &analysis, &expected);
    assert_eq!(
        work.fixups as u32,
        new.num_regs() - original.num_regs(),
        "{name}: fixups counted"
    );
    // The invariants the result has always been held to.
    assert!(
        uncut_pairs(&new, &analysis).is_empty(),
        "{name}: uncut antidependence"
    );
    assert_eq!(
        find_war_violation(&new, &analysis),
        None,
        "{name}: register WAR left"
    );
    let problems = check_partition(&new, &analysis);
    assert!(problems.is_empty(), "{name}: {problems:?}");
}

#[test]
fn corpus_and_builder_programs_partition_identically() {
    let inputs = fixed_inputs();
    assert!(inputs.len() >= 2 * (9 + 7));
    for (name, func) in &inputs {
        assert_equivalent(name, func);
    }
}

#[test]
fn synthetic_fase_functions_partition_identically() {
    // The reference is quadratic: ~2 s for the 2 048-instruction function
    // in a release build, far more unoptimized.
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[64, 256, 512]
    } else {
        &[64, 256, 1024, 2048]
    };
    for &size in sizes {
        for seed in 1..=3 {
            let func = common::synthetic_function(seed, size);
            assert!(
                func.num_insts().abs_diff(size) <= size / 8,
                "generator misses its size"
            );
            assert_equivalent(&format!("synthetic/{size} seed {seed}"), &func);
        }
    }
}

/// The op language of `tests/proptest_regions.rs`, extended with what that
/// generator never emits: locks, calls, allocation and CAS.
#[derive(Debug, Clone)]
enum Op {
    Load {
        dst: u8,
        base: u8,
        off: u8,
    },
    Store {
        base: u8,
        off: u8,
        src: u8,
    },
    Alu {
        dst: u8,
        a: u8,
        b: u8,
    },
    LoadStack {
        dst: u8,
        slot: u8,
    },
    StoreStack {
        slot: u8,
        src: u8,
    },
    Lock,
    Unlock,
    Call {
        ret: u8,
        arg: u8,
    },
    Alloc {
        dst: u8,
    },
    Cas {
        dst: u8,
        base: u8,
        off: u8,
        expected: u8,
        new: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..6u8, 0..3u8, 0..4u8).prop_map(|(dst, base, off)| Op::Load { dst, base, off }),
        4 => (0..3u8, 0..4u8, 0..6u8).prop_map(|(base, off, src)| Op::Store { base, off, src }),
        4 => (0..6u8, 0..6u8, 0..6u8).prop_map(|(dst, a, b)| Op::Alu { dst, a, b }),
        2 => (0..6u8, 0..3u8).prop_map(|(dst, slot)| Op::LoadStack { dst, slot }),
        2 => (0..3u8, 0..6u8).prop_map(|(slot, src)| Op::StoreStack { slot, src }),
        1 => Just(Op::Lock),
        1 => Just(Op::Unlock),
        1 => (0..7u8, 0..6u8).prop_map(|(ret, arg)| Op::Call { ret, arg }),
        1 => (0..6u8).prop_map(|dst| Op::Alloc { dst }),
        2 => (0..6u8, 0..3u8, 0..4u8, 0..6u8, 0..6u8)
            .prop_map(|(dst, base, off, expected, new)| Op::Cas { dst, base, off, expected, new }),
    ]
}

/// A random function: `ops` dealt over an entry block, a loop head (a
/// non-entry block with a back edge into it when `shape & 1`), a branch
/// diamond and a latch, plus an unreachable block when `shape & 2`.
fn random_function(ops: &[Op], splits: [usize; 4], shape: u8) -> Function {
    let mut pb = ProgramBuilder::new();
    let callee = pb.declare("callee");
    let mut f = pb.new_function("p", 3);
    let params = [f.param(0), f.param(1), f.param(2)];
    let regs: Vec<_> = (0..6).map(|_| f.new_reg()).collect();
    let slots: Vec<_> = (0..3).map(|_| f.new_stack_slot()).collect();
    for (i, r) in regs.iter().enumerate() {
        f.mov(*r, i as i64 + 1);
    }
    for s in &slots {
        f.store_stack(*s, 0i64);
    }
    let [head, then_bb, else_bb, latch, exit] = [(); 5].map(|_| f.new_block());
    let emit = |f: &mut ido_ir::FunctionBuilder<'_>, op: &Op| {
        let reg = |i: u8| regs[i as usize % 6];
        let base = |i: u8| params[i as usize % 3];
        let off = |o: u8| (o as i64 % 4) * 8;
        match *op {
            Op::Load {
                dst,
                base: b,
                off: o,
            } => f.load(reg(dst), base(b), off(o)),
            Op::Store {
                base: b,
                off: o,
                src,
            } => f.store(base(b), off(o), Operand::Reg(reg(src))),
            Op::Alu { dst, a, b } => f.bin(BinOp::Add, reg(dst), reg(a), Operand::Reg(reg(b))),
            Op::LoadStack { dst, slot } => f.load_stack(reg(dst), slots[slot as usize % 3]),
            Op::StoreStack { slot, src } => {
                f.store_stack(slots[slot as usize % 3], Operand::Reg(reg(src)))
            }
            Op::Lock => f.lock(params[0]),
            Op::Unlock => f.unlock(params[0]),
            Op::Call { ret, arg } => f.call(
                callee,
                vec![Operand::Reg(reg(arg))],
                (ret < 6).then(|| reg(ret)),
            ),
            Op::Alloc { dst } => f.alloc(reg(dst), 16i64),
            Op::Cas {
                dst,
                base: b,
                off: o,
                expected,
                new,
            } => f.cas(reg(dst), base(b), off(o), reg(expected), reg(new)),
        }
    };
    let mut at = [0; 5];
    let mut sorted = splits.map(|s| s.min(ops.len()));
    sorted.sort_unstable();
    at[..4].copy_from_slice(&sorted);
    at[4] = ops.len();
    let chunk = |k: usize| &ops[if k == 0 { 0 } else { at[k - 1] }..at[k]];

    chunk(0).iter().for_each(|op| emit(&mut f, op));
    f.jump(head);
    f.switch_to(head);
    chunk(1).iter().for_each(|op| emit(&mut f, op));
    f.branch(regs[0], then_bb, else_bb);
    f.switch_to(then_bb);
    chunk(2).iter().for_each(|op| emit(&mut f, op));
    f.jump(latch);
    f.switch_to(else_bb);
    chunk(3).iter().for_each(|op| emit(&mut f, op));
    f.jump(latch);
    f.switch_to(latch);
    chunk(4).iter().for_each(|op| emit(&mut f, op));
    if shape & 1 != 0 {
        f.branch(regs[1], head, exit);
    } else {
        f.jump(exit);
    }
    f.switch_to(exit);
    f.ret(Some(Operand::Reg(regs[2])));
    if shape & 2 != 0 {
        let dead = f.new_block();
        f.switch_to(dead);
        chunk(2).iter().for_each(|op| emit(&mut f, op));
        f.jump(latch);
    }
    let id = f.finish().expect("generated function verifies");
    let mut g = pb.new_function("callee", 1);
    g.ret(None);
    g.finish().expect("callee verifies");
    pb.finish().function(id).clone()
}

fn random_function_strategy() -> impl Strategy<Value = Function> {
    (
        prop::collection::vec(op_strategy(), 1..48),
        (0usize..48, 0usize..48, 0usize..48, 0usize..48),
        0u8..4,
    )
        .prop_map(|(ops, (a, b, c, d), shape)| random_function(&ops, [a, b, c, d], shape))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_functions_partition_identically(func in random_function_strategy()) {
        assert_equivalent("random", &func);
    }
}

/// Inputs for the three invariant tests: everything fixed, two synthetic
/// sizes, and a few hundred random functions.
fn invariant_inputs() -> Vec<(String, Function)> {
    let mut inputs = fixed_inputs();
    for size in [64, 256] {
        inputs.push((
            format!("synthetic/{size}"),
            common::synthetic_function(1, size),
        ));
    }
    let strategy = random_function_strategy();
    for seed in 0..300 {
        inputs.push((
            format!("random/{seed}"),
            strategy.generate(&mut TestRng::new(seed)),
        ));
    }
    inputs
}

/// One step of the reference loop.
struct Fixup<'a> {
    name: &'a str,
    pos: Pos,
    before: &'a Function,
    before_analysis: &'a RefAnalysis,
    after: &'a Function,
}

/// Runs the reference loop on every input and hands each fixup to `check`.
fn for_each_fixup(mut check: impl FnMut(&Fixup<'_>)) {
    let mut fixups = 0;
    for (name, original) in invariant_inputs() {
        let mut func = original;
        loop {
            let analysis = reference::analyze(&func);
            let Some((pos, r)) = reference::find_war_violation(&func, &analysis) else {
                break;
            };
            let before = func.clone();
            reference::apply_war_fixup(&mut func, pos, r);
            check(&Fixup {
                name: &name,
                pos,
                before: &before,
                before_analysis: &analysis,
                after: &func,
            });
            fixups += 1;
        }
    }
    assert!(fixups > 500, "only {fixups} fixups exercised");
}

/// Invariant 1: a fixup adds no block and changes no terminator, so the
/// CFG, its reverse postorder and reachability are computed once.
#[test]
fn a_fixup_leaves_the_cfg_alone() {
    for_each_fixup(|fx| {
        let (a, b) = (Cfg::new(fx.before), Cfg::new(fx.after));
        let at = format!("{}: fixup at {:?}", fx.name, fx.pos);
        assert_eq!(
            fx.before.num_blocks(),
            fx.after.num_blocks(),
            "{at}: block count"
        );
        for bi in 0..fx.before.num_blocks() {
            let blk = BlockId(bi as u32);
            assert_eq!(a.succs(blk), b.succs(blk), "{at}: successors of {blk:?}");
            assert_eq!(a.preds(blk), b.preds(blk), "{at}: predecessors of {blk:?}");
        }
        assert_eq!(a.rpo(), b.rpo(), "{at}: reverse postorder");
        assert_eq!(a.reachable(), b.reachable(), "{at}: reachability");
    });
}

/// Invariant 2: block-level liveness of every pre-existing variable is
/// unchanged, and the fresh register crosses no block edge.
#[test]
fn a_fixup_leaves_block_liveness_alone() {
    for_each_fixup(|fx| {
        let a = Liveness::new(fx.before, &Cfg::new(fx.before));
        let b = Liveness::new(fx.after, &Cfg::new(fx.after));
        let fresh = Var::Reg(fx.before.num_regs());
        for bi in 0..fx.before.num_blocks() {
            let blk = BlockId(bi as u32);
            let at = format!("{}: fixup at {:?}, block {blk:?}", fx.name, fx.pos);
            assert_eq!(a.live_in(blk), b.live_in(blk), "{at}: live-in");
            assert_eq!(a.live_out(blk), b.live_out(blk), "{at}: live-out");
            assert!(
                !b.live_in(blk).contains(&fresh),
                "{at}: fresh register live-in"
            );
            assert!(
                !b.live_out(blk).contains(&fresh),
                "{at}: fresh register live-out"
            );
        }
    });
}

/// The zone of the marker at `(b, start)` in `func`: positions
/// forward-reachable from it without crossing another structural cut. An
/// independent, position-at-a-time formulation of `Formation::zone`.
fn zone_of(func: &Function, (b, start): Pos) -> BTreeSet<Pos> {
    let structural = reference::structural_cuts(func);
    let mut zone = BTreeSet::from([(b, start)]);
    let mut work = vec![(b, start)];
    while let Some((blk, i)) = work.pop() {
        let insts = &func.block(blk).insts;
        let next: Vec<Pos> = if i + 1 < insts.len() {
            vec![(blk, i + 1)]
        } else {
            insts[i].targets().into_iter().map(|t| (t, 0)).collect()
        };
        for p in next {
            if !structural.contains(&p) && zone.insert(p) {
                work.push(p);
            }
        }
    }
    zone
}

/// Invariant 3: a structural cut is a firewall. Outside the split region
/// and the marker's zone, no position gains or loses a cut or changes
/// region, and every region keeps its members, inputs, outputs and stores.
#[test]
fn a_fixup_changes_nothing_outside_its_zone_and_the_split_region() {
    for_each_fixup(|fx| {
        let (b, i) = fx.pos;
        let shift = |(blk, j): Pos| {
            if blk == b && j > i {
                (blk, j + 2)
            } else {
                (blk, j)
            }
        };
        let before = fx.before_analysis;
        let after = reference::analyze(fx.after);
        let zone = zone_of(fx.after, (b, i + 1));
        let split = before.region_of[&fx.pos];
        let at = format!("{}: fixup at {:?}", fx.name, fx.pos);
        let entry_of = |a: &RefAnalysis, p: Pos| a.regions[a.region_of[&p].0 as usize].entry;

        for (p, _) in fx.before.iter_insts() {
            if before.region_of[&p] == split || zone.contains(&shift(p)) {
                continue;
            }
            let q = shift(p);
            assert_eq!(
                before.cuts.contains(&p),
                after.cuts.contains(&q),
                "{at}: cut at {p:?}"
            );
            assert_eq!(
                shift(entry_of(before, p)),
                entry_of(&after, q),
                "{at}: region of {p:?}"
            );
        }
        for old in &before.regions {
            if old.id == split || old.members.iter().any(|&p| zone.contains(&shift(p))) {
                continue;
            }
            let new = &after.regions[after.region_of[&shift(old.entry)].0 as usize];
            let moved = Region {
                id: new.id,
                entry: shift(old.entry),
                members: old.members.iter().map(|&p| shift(p)).collect(),
                ..old.clone()
            };
            assert_eq!(&moved, new, "{at}: region entered at {:?}", old.entry);
        }
    });
}

/// What invariant 3 does *not* say: that regions numbered before the split
/// one stay clean. Here the zone of a fixup in the loop body runs around the
/// back edge into the loop head, which comes first in reverse postorder;
/// the antidependence cut there (the body's load against the head's store)
/// vanishes behind the new marker, two regions merge, and the merged one
/// redefines its input `k`. The next fixup is therefore *earlier* in region
/// order than the one just applied — `partition` has to rescan every region
/// a zone touched, not resume at the split one.
#[test]
fn a_zone_can_dirty_an_earlier_region() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("f", 4);
    let [p, q, n, k] = [0, 1, 2, 3].map(|i| f.param(i));
    let [ctr, c, t, y] = [(); 4].map(|_| f.new_reg());
    let [head, body, exit] = [(); 3].map(|_| f.new_block());
    f.mov(ctr, 0i64);
    f.jump(head);
    f.switch_to(head);
    f.bin(BinOp::Lt, c, ctr, n);
    f.bin(BinOp::Add, t, k, 1i64);
    f.store(q, 0, Operand::Reg(c)); // cut only because of the body's load
    f.mov(k, Operand::Reg(t));
    f.branch(c, body, exit);
    f.switch_to(body);
    f.lock(p);
    f.load(y, p, 8);
    f.bin(BinOp::Add, ctr, ctr, Operand::Reg(y)); // the first violation
    f.jump(head);
    f.switch_to(exit);
    f.ret(None);
    let id = f.finish().unwrap();
    let original = pb.finish().function(id).clone();

    let mut func = original.clone();
    let first = reference::analyze(&func);
    let (pos, r) = reference::find_war_violation(&func, &first).expect("a violation");
    assert_eq!((pos, r), ((body, 2), ctr));
    assert!(
        first.cuts.contains(&(head, 2)),
        "the store starts a region before the fixup"
    );
    reference::apply_war_fixup(&mut func, pos, r);
    let second = reference::analyze(&func);
    assert!(
        !second.cuts.contains(&(head, 2)),
        "and no longer does behind the marker"
    );
    let (next, r) = reference::find_war_violation(&func, &second).expect("a second violation");
    assert_eq!((next, r), ((head, 3), k));
    let split_entry = second.regions[second.region_of[&pos].0 as usize].id;
    assert!(
        second.region_of[&next] < split_entry,
        "it lies in a lower-numbered region"
    );

    assert_equivalent("earlier-region", &original);
}
