//! Shared by the region-formation tests: a seeded synthetic FASE function.

use std::fmt::Write as _;

use ido_ir::{FuncId, Function};

/// One function of about `target` instructions in the style of the repo
/// benchmark's `synthetic_source` (which cannot be a dependency): a counted
/// outer loop over a chain of lock-delimited segments mixing ALU work,
/// persistent loads and stores and a branch diamond, with temporaries drawn
/// from a pool of 20 registers so regions meet real write-after-read
/// hazards. Unlike the benchmark's, the function is not capped in size.
pub fn synthetic_function(seed: u64, target: usize) -> Function {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ target as u64 | 1;
    let mut rnd = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) % n
    };
    const FIRST_TMP: u64 = 7;
    const TMPS: u64 = 20;
    let tmp = |r: u64| format!("r{}", FIRST_TMP + r);
    let mut out = format!(
        "fn worker(r0, r1, r2, r3, r4) regs={} slots=0 {{\n  bb0:\n    r5 = 0\n",
        FIRST_TMP + TMPS
    );
    for r in 0..TMPS {
        let _ = writeln!(out, "    {} = r2", tmp(r));
    }
    let mut body = String::new();
    let mut insts = TMPS as usize + 8; // prologue, loop head, latch and exit
    let mut bb = 2; // bb0 = entry, bb1 = loop head
    while insts < target {
        let (a, b, c, d) = (
            tmp(rnd(TMPS)),
            tmp(rnd(TMPS)),
            tmp(rnd(TMPS)),
            tmp(rnd(TMPS)),
        );
        let _ = writeln!(body, "  bb{bb}:");
        let alu = 2 + rnd(6);
        for _ in 0..alu {
            let op = ["add", "xor", "shl", "shr", "and", "mul"][rnd(6) as usize];
            let _ = writeln!(body, "    {} = {op} r2, {}", tmp(rnd(TMPS)), 1 + rnd(13));
        }
        let _ = writeln!(body, "    lock r0");
        let _ = writeln!(body, "    {a} = mem[r1+{}]", rnd(32) * 8);
        let _ = writeln!(body, "    {b} = add {a}, r2");
        let _ = writeln!(body, "    mem[r1+{}] = {b}", rnd(32) * 8);
        let stores = 1 + rnd(3);
        for _ in 0..stores {
            let _ = writeln!(body, "    mem[r1+{}] = {}", rnd(32) * 8, tmp(rnd(TMPS)));
        }
        let _ = writeln!(body, "    {c} = and {b}, 1");
        let _ = writeln!(body, "    br {c} ? bb{} : bb{}", bb + 1, bb + 2);
        let _ = writeln!(body, "  bb{}:", bb + 1);
        let _ = writeln!(body, "    mem[r1+{}] = {a}", rnd(32) * 8);
        let _ = writeln!(body, "    jump bb{}", bb + 3);
        let _ = writeln!(body, "  bb{}:", bb + 2);
        let _ = writeln!(body, "    {d} = mem[r1+{}]", rnd(32) * 8);
        let _ = writeln!(body, "    mem[r1+{}] = {d}", rnd(32) * 8);
        let _ = writeln!(body, "    jump bb{}", bb + 3);
        let _ = writeln!(body, "  bb{}:", bb + 3);
        let _ = writeln!(body, "    unlock r0");
        let _ = writeln!(body, "    r2 = add r2, {c}");
        let _ = writeln!(body, "    jump bb{}", bb + 4);
        insts += alu as usize + stores as usize + 15;
        bb += 4;
    }
    let (latch, exit) = (bb, bb + 1);
    let _ = write!(
        out,
        "    jump bb1\n  bb1:\n    r6 = lt r5, r3\n    br r6 ? bb2 : bb{exit}\n"
    );
    out.push_str(&body);
    let _ = write!(
        out,
        "  bb{latch}:\n    r5 = add r5, 1\n    jump bb1\n  bb{exit}:\n    ret\n}}\n"
    );
    let parsed = ido_ir::text::parse_program_text(&out).expect("the generated text parses");
    parsed.program.function(FuncId(0)).clone()
}
