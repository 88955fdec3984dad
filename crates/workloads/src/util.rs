//! Shared IR-emission helpers for the workload builders.

use ido_ir::{BinOp, FunctionBuilder, Operand, Reg};

/// Emits an xorshift64 step: `x = xorshift(x)`. Six ALU instructions, all
/// register-resident (the WAR repair in `ido-idem` splits the final write
/// when `x` is a region input, exactly as the paper's live-interval
/// extension would).
pub fn emit_xorshift(f: &mut FunctionBuilder<'_>, x: Reg) {
    let t = f.new_reg();
    f.bin(BinOp::Shl, t, x, 13i64);
    f.bin(BinOp::Xor, x, x, t);
    let t2 = f.new_reg();
    f.bin(BinOp::Shr, t2, x, 7i64);
    f.bin(BinOp::Xor, x, x, t2);
    let t3 = f.new_reg();
    f.bin(BinOp::Shl, t3, x, 17i64);
    f.bin(BinOp::Xor, x, x, t3);
}

/// Emits `dst = (x >> 3) mod range` with the sign bit cleared, for uniform
/// key draws. `range` is a register holding the key range.
pub fn emit_uniform_key(f: &mut FunctionBuilder<'_>, dst: Reg, x: Reg, range: Reg) {
    let pos = f.new_reg();
    f.bin(BinOp::Shr, pos, x, 3i64);
    let masked = f.new_reg();
    f.bin(BinOp::And, masked, pos, 0x7FFF_FFFFi64);
    f.bin(BinOp::Rem, dst, masked, range);
}

/// Emits a power-law-skewed key draw: squaring a uniform variate
/// concentrates mass near zero, approximating the paper's power-law client
/// distribution. `dst = ((u*u) >> 20) mod range` with `u` a 20-bit uniform.
pub fn emit_powerlaw_key(f: &mut FunctionBuilder<'_>, dst: Reg, x: Reg, range: Reg) {
    let u = f.new_reg();
    let shifted = f.new_reg();
    f.bin(BinOp::Shr, shifted, x, 5i64);
    f.bin(BinOp::And, u, shifted, 0xF_FFFFi64); // 20-bit uniform
    let sq = f.new_reg();
    f.bin(BinOp::Mul, sq, u, Operand::Reg(u));
    let scaled = f.new_reg();
    f.bin(BinOp::Shr, scaled, sq, 20i64);
    f.bin(BinOp::Rem, dst, scaled, range);
}

/// Emits a bump-pointer node grab from a pre-allocated arena:
/// `dst = cursor; cursor += size`. The benchmarks pre-allocate their node
/// pools (standard stress-test practice, also used by the JUSTDO
/// microbenchmarks) so the hot paths measure the persistence runtimes, not
/// the allocator.
pub fn emit_arena_take(f: &mut FunctionBuilder<'_>, dst: Reg, cursor: Reg, size: i64) {
    f.mov(dst, Operand::Reg(cursor));
    f.bin(BinOp::Add, cursor, cursor, size);
}

/// Emits the Fibonacci bucket hash
/// `dst = ((key * 0x9E37_79B9_7F4A_7C15) >> 32) mod buckets`, bit-exact
/// with the host-side `NvtMap::bucket_of`.
///
/// Bit-exactness matters: the map workloads' `verify` recompute the hash
/// on the host to assert home-bucket placement on every crash state the
/// oracle explores, so the IR workers and the host code must agree on
/// every key's bucket. (The original emitter multiplied by a truncated
/// 32-bit constant and shifted by 16 — disagreeing with the host hash for
/// almost every key, which that check surfaced.)
pub fn emit_bucket_hash(f: &mut FunctionBuilder<'_>, dst: Reg, key: Reg, buckets: Reg) {
    let mixed = f.new_reg();
    f.bin(BinOp::Mul, mixed, key, 0x9E37_79B9_7F4A_7C15u64 as i64);
    let hi = f.new_reg();
    f.bin(BinOp::Shr, hi, mixed, 32i64); // logical shift: top 32 bits clear
    f.bin(BinOp::Rem, dst, hi, buckets);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_ir::ProgramBuilder;

    #[test]
    fn helpers_emit_valid_code() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("t", 2);
        let x = f.param(0);
        let range = f.param(1);
        let k1 = f.new_reg();
        let k2 = f.new_reg();
        let b = f.new_reg();
        emit_xorshift(&mut f, x);
        emit_uniform_key(&mut f, k1, x, range);
        emit_powerlaw_key(&mut f, k2, x, range);
        emit_bucket_hash(&mut f, b, k1, range);
        let b2 = f.new_reg();
        emit_bucket_hash(&mut f, b2, k2, range);
        f.ret(Some(Operand::Reg(b)));
        assert!(f.finish().is_ok());
    }
}
