//! A VM built after another one of the same pool size was dropped, on the
//! same host thread, allocates no pool image: the pool's memory is the
//! dropped pool's, zeroed where it was used, so `Vm::new` does no O(pool)
//! work. The crash oracle builds VMs by the thousand (two per workload and
//! scheme, one per from-scratch check), and this is what keeps that cheap.
//!
//! A counting `#[global_allocator]` sums the bytes the measuring thread
//! asks for while it builds the second VM; they must come to less than one
//! pool image. Counting is scoped to that thread, as in
//! `no_alloc_hot_loop.rs`, so libtest's other threads cannot pollute it.
//! Both a heap-served 1 MiB pool and a mapped 64 MiB one are checked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ido_compiler::{instrument_program, Scheme};
use ido_ir::{BinOp, ProgramBuilder};
use ido_vm::{Vm, VmConfig};

struct CountingAlloc;

// The bytes the measuring thread asked for, while it measures. `const`-init
// TLS never allocates, so reading it inside the allocator cannot recurse;
// `try_with` covers TLS teardown. Per thread, so the tests below can run
// side by side.
thread_local! {
    static MEASURED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    let _ = MEASURED.try_with(|m| m.set(m.get().map(|b| b + bytes as u64)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        note(n);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `worker(n)`: a store per iteration of a counted loop.
fn store_loop() -> ido_ir::Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("worker", 1);
    let n = f.param(0);
    let i = f.new_reg();
    let base = f.new_reg();

    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();

    f.alloc(base, 64i64);
    f.mov(i, 0i64);
    f.jump(head);

    f.switch_to(head);
    let c = f.new_reg();
    f.bin(BinOp::Lt, c, i, n);
    f.branch(c, body, exit);

    f.switch_to(body);
    f.lock(base);
    f.store(base, 8, i);
    f.unlock(base);
    f.bin(BinOp::Add, i, i, 1i64);
    f.jump(head);

    f.switch_to(exit);
    f.ret(None);
    f.finish().expect("store loop verifies");
    pb.finish()
}

#[test]
fn the_second_vm_on_a_thread_allocates_no_pool_image() {
    second_vm_allocates_less_than_an_image(VmConfig::for_tests());
}

/// The same for a 64 MiB pool, whose images are fresh mappings: the
/// dropped pool's spare gives back most of its pages but keeps its
/// mapping for the next pool of its size.
#[test]
fn the_second_64_mib_vm_on_a_thread_allocates_no_pool_image() {
    let mut cfg = VmConfig::for_tests();
    cfg.pool.size = 64 << 20;
    second_vm_allocates_less_than_an_image(cfg);
}

fn second_vm_allocates_less_than_an_image(cfg: VmConfig) {
    let inst = instrument_program(store_loop(), Scheme::Ido).expect("instrumentation");
    let image = cfg.pool.size as u64;

    // The first VM runs, so its pool has lines to clear when it drops.
    let mut first = Vm::new(inst.clone(), cfg.clone());
    first.spawn("worker", &[100]);
    first.run();
    drop(first);

    MEASURED.with(|m| m.set(Some(0)));
    let second = Vm::new(inst, cfg);
    let bytes = MEASURED.with(Cell::take).expect("measuring");
    assert!(bytes < image, "the second Vm::new allocated {bytes} B, a pool image is {image} B");
    drop(second);
}
