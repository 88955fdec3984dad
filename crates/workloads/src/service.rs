//! A service-style KV workload over a fixed-slot table — the
//! crash-under-load workload behind the `service_bench` driver.
//!
//! Unlike the chained kv stores, every key owns a fixed 16-byte slot
//! (`[VAL][CHK]`): no allocation and no arena cursor, so a crashed pool
//! can be re-attached and driven further with fresh workers — exactly
//! what an online-recovery benchmark needs (an arena cursor lives in a
//! register and would not survive the crash). A `put` is a striped-lock
//! FASE writing the value word `VAL = (key << 20) | seq` and its checksum
//! word `CHK = VAL ^ CHK_MAGIC`; a `get` is a lock-free pair of reads.
//! Keys follow the same power-law (zipfian-like) distribution as the
//! redis workload, so a handful of hot keys dominate the traffic.
//!
//! Every operation is bracketed by metrics span markers (`op_begin` /
//! `op_end`, kind 1 = get, 2 = put), which is what feeds the windowed
//! latency series of `service_bench`.
//!
//! The program is `corpus/service.ido`; each operation pays a 200 ns
//! `delay` for request parsing and dispatch.

use ido_ir::Program;
use ido_nvm::{PmemHandle, PAddr};
use ido_vm::Vm;

use crate::harness::WorkloadSpec;
use crate::corpus_program;

/// Checksum mask: a written slot always satisfies `CHK == VAL ^ CHK_MAGIC`;
/// `(0, 0)` means "never written".
pub const CHK_MAGIC: u64 = 0x5EED_CAFE_F00D_BEEF;
/// Lock stripes guarding the slots (`lock = stripe_base + (key % stripes)`).
pub const LOCK_STRIPES: u64 = 64;
const SLOT_BYTES: u64 = 16;

/// Spec: fixed-slot KV service with striped-lock puts and lock-free gets.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    /// Number of keys (each owns one 16-byte slot).
    pub key_range: u64,
    /// Put rate in permille.
    pub put_permille: u64,
}

impl ServiceSpec {
    /// A service over `key_range` keys with the redis-like 80/20 get/put mix.
    pub fn with_range(key_range: u64) -> Self {
        ServiceSpec { key_range, put_permille: 200 }
    }
}

impl WorkloadSpec for ServiceSpec {
    fn name(&self) -> String {
        format!("service(range={})", self.key_range)
    }

    fn build_program(&self) -> Program {
        corpus_program("service")
    }

    fn setup(&self, vm: &mut Vm, _threads: usize, _ops: u64) -> Vec<u64> {
        let range = self.key_range;
        vm.setup(|h, alloc, _| {
            let lock_base = alloc.alloc(h, (LOCK_STRIPES * 8) as usize).expect("lock stripes");
            let table = alloc.alloc(h, (range * SLOT_BYTES) as usize).expect("slot table");
            // Fresh allocations are zero in both pool images, and (0, 0)
            // reads as "never written" — no formatting pass needed.
            vec![lock_base as u64, table as u64]
        })
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        vec![
            base[0],
            base[1],
            0xDEC0_DE5Eu64 + 104_729 * thread as u64,
            ops,
            self.key_range,
            self.put_permille,
        ]
    }

    fn verify(&self, vm: &Vm, base: &[u64], _total_ops: u64) {
        let mut h = vm.pool().handle();
        verify_slots(&mut h, base[1] as PAddr, self.key_range);
    }
}

/// Checks every slot of a service table: either never written or a
/// consistent `(VAL, CHK)` pair carrying its own key.
///
/// Exposed separately so crash drivers can re-check the table on a
/// recovered pool without a [`Vm`].
///
/// # Panics
/// Panics on a torn pair or a value under the wrong key.
pub fn verify_slots(h: &mut PmemHandle, table: PAddr, key_range: u64) {
    for k in 0..key_range {
        let base = table + (k * SLOT_BYTES) as usize;
        let v = h.read_u64(base);
        let c = h.read_u64(base + 8);
        if v == 0 && c == 0 {
            continue; // never written
        }
        assert_eq!(c, v ^ CHK_MAGIC, "slot {k}: torn value/checksum pair");
        assert_eq!(v >> 20, k, "slot {k}: value written under the wrong key");
    }
}
