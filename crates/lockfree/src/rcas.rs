//! The recoverable-CAS protocol in its three persist-ordered steps — each
//! one `Rt` op or instruction of the VM's instrumented code — and the
//! NVTraverse flush window. The steps' *access sequence* is a contract:
//! loads cost simulated nanoseconds, so the figures, the decoded goldens
//! and the benchmark's fingerprints pin the order and number of reads,
//! stores, write-backs and fences here to the byte.

use ido_nvm::{line_of, PmemHandle, CACHE_LINE, PAddr};

use crate::desc::{
    encode_tag, tag_owner, tag_seq, LfState, CELL_TAG, DESC_EXPECTED, DESC_NEW, DESC_SEQ,
    DESC_STATE, DESC_SUPER, DESC_TARGET, STATE_INFLIGHT,
};

/// The set of cache lines an operation has touched since its last flush —
/// NVTraverse's "journey": traversal reads and node-initialization writes
/// go unflushed until the operation exits the traversal phase, then the
/// whole window is written back with a single fence before the critical
/// CAS. This persists every link the CAS depends on (so no durable state
/// can be built on a value that a crash could revert) and the new node's
/// contents (so a crash can never expose a reachable node with torn
/// contents).
#[derive(Debug, Default)]
pub struct FlushWindow {
    lines: Vec<PAddr>,
}

impl FlushWindow {
    /// Notes that the operation touched `addr`, by a store or a load.
    #[inline]
    pub fn note(&mut self, addr: PAddr) {
        // `line_of` yields a line *index*; store the line-start byte
        // address so `flush` can hand it straight to `clwb`.
        self.lines.push(line_of(addr) * CACHE_LINE);
    }

    /// Writes back every noted line that is still volatile (sorted,
    /// deduplicated, dirty-filtered) and fences once, emptying the window.
    ///
    /// The dirty filter is sound because the structures maintain the
    /// NVTraverse reachability invariant: a published node was flushed by
    /// its inserter before the linking CAS, so a traversed line can only
    /// be non-persistent when it holds this op's own stores or a
    /// neighbor's not-yet-published install — exactly the lines the
    /// paper's "critical zone" rule flushes.
    #[inline]
    pub fn flush(&mut self, h: &mut PmemHandle) {
        self.lines.sort_unstable();
        self.lines.dedup();
        for &line in &self.lines {
            if h.is_line_dirty(line) {
                h.clwb(line);
            }
        }
        h.sfence();
        self.lines.clear();
    }

    /// Forgets the window without writing anything back.
    #[inline]
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

/// Step 1: durably publish thread `t`'s in-flight descriptor (one line,
/// one write-back + fence) before the CAS touches the cell. The sequence
/// number continues from the persisted one, so a re-attach after a crash
/// never reuses a sequence number.
#[inline]
pub fn prepare(h: &mut PmemHandle, st: LfState, t: u32, target: PAddr, expected: u64, new: u64) {
    let slot = st.slot(t);
    let s = h.read_u64(slot + DESC_SEQ) + 1;
    h.write_u64(slot + DESC_SEQ, s);
    h.write_u64(slot + DESC_TARGET, target as u64);
    h.write_u64(slot + DESC_EXPECTED, expected);
    h.write_u64(slot + DESC_NEW, new);
    h.write_u64(slot + DESC_STATE, STATE_INFLIGHT);
    h.clwb(slot);
    h.sfence();
}

/// Step 2, the compare-and-swap: true when `mem[target]` held `expected`
/// and `new` was installed. `target` is the cell's value word; its
/// owner/sequence tag lives at `target + 8` and must share the cache line
/// ([`CELL_TAG`]).
#[inline]
pub fn exchange(
    h: &mut PmemHandle,
    st: LfState,
    t: u32,
    target: PAddr,
    expected: u64,
    new: u64,
) -> bool {
    if h.read_u64(target) != expected {
        // Nothing written: recovery would resolve not-taken, and
        // `publish` closes the descriptor.
        return false;
    }
    // Persist the outgoing occupant before overwriting it, and credit
    // a superseded owner so its crashed publish stays detectable.
    let prev_tag = h.read_u64(target + CELL_TAG);
    h.clwb(target);
    h.sfence();
    if let Some(prev_owner) = tag_owner(prev_tag).filter(|owner| *owner < st.threads) {
        let prev_slot = st.slot(prev_owner);
        let prev_seq = tag_seq(prev_tag);
        if h.read_u64(prev_slot + DESC_SUPER) < prev_seq {
            h.write_u64(prev_slot + DESC_SUPER, prev_seq);
            h.clwb(prev_slot);
            h.sfence();
        }
    }
    // Install (volatile; the pair shares a line so it cannot tear). The
    // tag's sequence number is the one `prepare` just persisted.
    let s = h.read_u64(st.slot(t) + DESC_SEQ);
    h.write_u64(target, new);
    h.write_u64(target + CELL_TAG, encode_tag(t, s));
    true
}

/// Step 3: persist-before-escape (write back + fence the cell of a
/// `taken` CAS), then durably close the descriptor. A failed CAS closes
/// durably too (done-empty): that persist per attempt is the
/// descriptor-tracking tax the bench attributes to the lock-free family.
/// Only the VM's injected bug passes `flush_cell = false`.
#[inline]
pub fn publish(
    h: &mut PmemHandle,
    st: LfState,
    t: u32,
    target: PAddr,
    taken: bool,
    flush_cell: bool,
) {
    if taken && flush_cell {
        h.clwb(target);
        h.sfence();
    }
    st.close(h, t, taken);
}

/// A host-side caller of the three steps for one thread slot.
#[derive(Debug)]
pub struct RcasThread {
    /// This thread's slot in the [`LfState`] table.
    pub t: u32,
}

impl RcasThread {
    /// An issuing context for thread `t`. Reads nothing: the sequence
    /// number lives in the descriptor, where [`prepare`] finds it.
    pub fn attach(_h: &mut PmemHandle, st: &LfState, t: u32) -> RcasThread {
        assert!(t < st.threads, "thread {t} has no slot in a table of {}", st.threads);
        RcasThread { t }
    }

    /// The recoverable CAS. The caller must flush its [`FlushWindow`]
    /// immediately before (the instrumenter enforces this structurally).
    ///
    /// Linearization is the caller's schedule — the simulated-NVM handle
    /// is not itself atomic; the VM serializes conflicting steps. What the
    /// protocol guarantees is the *crash* contract: after a crash at any
    /// persist boundary, [`LfState::resolve`] returns taken or not-taken,
    /// never an ambiguous or inconsistent answer.
    pub fn rcas(
        &mut self,
        h: &mut PmemHandle,
        st: &LfState,
        target: PAddr,
        expected: u64,
        new: u64,
    ) -> bool {
        prepare(h, *st, self.t, target, expected, new);
        let taken = exchange(h, *st, self.t, target, expected, new);
        publish(h, *st, self.t, target, taken, true);
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::Resolution;
    use ido_nvm::alloc::NvAllocator;
    use ido_nvm::{PmemPool, PoolConfig};

    fn setup() -> (PmemPool, NvAllocator, LfState, PAddr) {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let alloc = NvAllocator::format(&mut h, pool.size());
        let st = LfState::create(&mut h, &alloc, 4).unwrap();
        let raw = alloc.alloc(&mut h, 128).unwrap();
        let cell = crate::desc::align64(raw);
        h.write_u64(cell, 0);
        h.write_u64(cell + CELL_TAG, 0);
        h.persist(cell, 16);
        drop(h);
        (pool, alloc, st, cell)
    }

    #[test]
    fn successful_cas_is_durable_and_closed() {
        let (pool, _alloc, st, cell) = setup();
        let mut h = pool.handle();
        let mut th = RcasThread::attach(&mut h, &st, 0);
        assert!(th.rcas(&mut h, &st, cell, 0, 41));
        assert!(!th.rcas(&mut h, &st, cell, 0, 42), "stale expected fails");
        assert!(th.rcas(&mut h, &st, cell, 41, 43));
        drop(h);
        pool.crash(1);
        let mut h = pool.handle();
        assert_eq!(h.read_u64(cell), 43);
        assert_eq!(st.resolve(&mut h, 0), Resolution::Closed);
        assert_eq!(st.done_count(&mut h, 0), 2);
    }

    #[test]
    fn crash_at_every_persist_boundary_resolves_unambiguously() {
        // Sweep a trap over every persist the second CAS performs; after
        // each simulated crash, recovery must classify the in-flight
        // operation as taken xor not-taken, consistently with memory.
        for trap in 1..32u64 {
            let (pool, _alloc, st, cell) = setup();
            let mut h = pool.handle();
            let mut th = RcasThread::attach(&mut h, &st, 1);
            assert!(th.rcas(&mut h, &st, cell, 0, 7));
            let base_events = pool.persist_event_count();
            pool.set_persist_trap(Some(base_events + trap));
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                th.rcas(&mut h, &st, cell, 7, 9)
            }))
            .is_err();
            pool.set_persist_trap(None);
            drop(h);
            if !hit {
                break; // trap beyond the op's last persist: sweep done
            }
            pool.crash(0xC0FFEE ^ trap);
            let mut h = pool.handle();
            let r = st.resolve_and_close(&mut h, 1);
            let v = h.read_u64(cell);
            match r {
                Resolution::Taken => assert_eq!(v, 9, "trap {trap}"),
                Resolution::NotTaken => assert_eq!(v, 7, "trap {trap}"),
                Resolution::Closed => assert!(v == 7 || v == 9, "trap {trap}"),
            }
            // Recovery is idempotent: a second pass finds nothing open.
            assert_eq!(st.resolve(&mut h, 1), Resolution::Closed, "trap {trap}");
        }
    }
}
