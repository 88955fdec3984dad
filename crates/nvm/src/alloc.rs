//! Crash-consistent persistent heap allocation (`nv_malloc` / `nv_free`).
//!
//! Three allocator policies share one facade, [`NvAllocator`]:
//!
//! * [`AllocPolicy::Legacy`] — the original Atlas-style global free list:
//!   a persistent first-fit list and bump pointer hold the state, and
//!   callers pay no simulated contention. This is the default and stays
//!   byte-identical to the historical behaviour (the trace and decoded
//!   goldens pin its event sequences).
//! * [`AllocPolicy::GlobalDes`] — the same persistent layout, but calls
//!   additionally serialize on a discrete-event availability clock: a
//!   thread whose simulated clock is behind the allocator's last-release
//!   time waits, exactly like the VM's lock handoff model. This is the
//!   honest "global mutex" baseline for the scaling sweeps: with 64
//!   threads allocating, simulated throughput caps at one allocation per
//!   critical-section length.
//! * [`AllocPolicy::Sharded`] — an llfree-style two-level allocator. The
//!   **lower level** is persistent: the small-object heap is carved into
//!   2 KiB chunks, each described by one cache-line descriptor holding a
//!   size-class word and a 256-bit occupancy bitfield. The **upper
//!   level** is volatile and rebuilt on attach: per-shard (per-core)
//!   free-slot caches and active chunks, indexed by the handle's
//!   [`shard id`](crate::PmemHandle::shard), with cross-shard stealing on
//!   local exhaustion and a slow-path fallback to the legacy list for
//!   large blocks. Each shard has its own availability clock, so
//!   same-shard callers serialize but distinct shards proceed in
//!   parallel; only refills, steals, and large blocks touch the global
//!   clock.
//!
//! # Crash consistency
//!
//! All persistent metadata updates are ordered with `clwb`+`sfence` such
//! that a crash at any point leaves the heap *consistent*. As in Atlas
//! (and unlike a full Makalu-style recoverable allocator), a crash
//! between reserving a block and the application publishing it can leak
//! that block — it never corrupts the heap or double-allocates live
//! memory. Concretely, for the sharded lower level:
//!
//! * A chunk's class word is persisted **before** any occupancy bit in it
//!   can be set, so recovery can always interpret the bitfield.
//! * An allocation persists its occupancy bit **before** returning; a
//!   crash before the persist completes rolls the reservation back (the
//!   slot reads free again and the caller never saw the address), a crash
//!   after it leaks at most that one slot.
//! * A free persists the cleared bit before the slot is handed to any
//!   volatile cache; a crash mid-free leaves the bit set — a leak, never
//!   a double-link.
//! * The volatile caches are *hints*: every handout re-checks and sets
//!   the persistent bit before handing the slot out, so a stale hint is
//!   skipped rather than double-allocated. The bitfields are the single
//!   source of truth, which is also what [`NvAllocator::attach_with`]
//!   rebuilds the upper level from.
//!
//! # Layout
//!
//! Legacy/large blocks are `[header: u64][payload]`; the header stores
//! the payload size with the high bit set while allocated. The sharded
//! small-object region sits at the bottom of the heap:
//!
//! ```text
//! HEAP_START:  [magic][n_chunks][n_shards][large_start]  (one line)
//! desc[0..n]:  [class: u64][reserved: 24 B][bitmap: 4 × u64]  (one line each)
//! chunk[0..n]: 2048 B of slots, class-sized
//! large_start: legacy bump + first-fit region for blocks > 512 B
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::pool::PmemHandle;
use crate::root::{ALLOC_META_ADDR, HEAP_START};
use crate::{NvmError, PAddr};
use ido_trace::RecoveryPhase;

const ALLOCATED_BIT: u64 = 1 << 63;
const HEADER_BYTES: usize = 8;
/// Minimum payload so a freed block can hold a free-list link.
const MIN_PAYLOAD: usize = 8;

const BUMP_ADDR: PAddr = ALLOC_META_ADDR;
const FREE_HEAD_ADDR: PAddr = ALLOC_META_ADDR + 8;
const HEAP_END_ADDR: PAddr = ALLOC_META_ADDR + 16;

/// Identifies a sharded-formatted heap (stored at `HEAP_START`; the high
/// bit is clear, so it can never collide with a legacy allocated header).
pub const SHARD_MAGIC: u64 = 0x1D0A_110C_5EED_0001;
/// Bytes per small-object chunk.
pub const CHUNK_BYTES: usize = 2048;
/// Bytes per chunk descriptor (one cache line).
pub const DESC_BYTES: usize = 64;
/// Offset of the occupancy bitfield within a descriptor.
const BITMAP_OFF: usize = 32;
/// Size classes served by the chunked small-object level; larger requests
/// fall back to the legacy list.
pub const CLASS_SIZES: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];
/// Number of size classes.
pub const N_CLASSES: usize = CLASS_SIZES.len();
/// Largest request served by the small-object level.
pub const MAX_SMALL: usize = 512;
/// Upper bound on chunks per pool (keeps attach scans bounded).
const MAX_CHUNKS: usize = 1 << 16;

const META_MAGIC: PAddr = HEAP_START;
const META_NCHUNKS: PAddr = HEAP_START + 8;
const META_NSHARDS: PAddr = HEAP_START + 16;
const META_LARGE_START: PAddr = HEAP_START + 24;
const DESC_BASE: PAddr = HEAP_START + DESC_BYTES;

/// Allocator policy: how [`NvAllocator`] lays out and serializes the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Historical global free list, no simulated contention cost.
    #[default]
    Legacy,
    /// Global free list serialized on a discrete-event availability clock
    /// (the honest global-mutex baseline for scaling sweeps).
    GlobalDes,
    /// Two-level llfree-style allocator with `shards` per-core upper-level
    /// shards (clamped to ≥ 1).
    Sharded {
        /// Number of upper-level shards; handles map to `shard % shards`.
        shards: usize,
    },
}

fn class_index(need: usize) -> usize {
    CLASS_SIZES.iter().position(|&c| c >= need).expect("need fits a small class")
}

fn slots_per_chunk(k: usize) -> usize {
    (CHUNK_BYTES / CLASS_SIZES[k]).min(256)
}

/// Crash-consistent persistent heap allocator facade.
///
/// The struct itself holds only transient state — the DES availability
/// clocks and the sharded upper level; all allocator metadata that matters
/// across a crash is in the pool. Clones share that state. Like the pool it
/// serves, it has one driver and stays on the host thread that built it:
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<ido_nvm::alloc::NvAllocator>();
/// ```
///
/// ```compile_fail,E0277
/// fn sync<T: Sync>() {}
/// sync::<ido_nvm::alloc::NvAllocator>();
/// ```
#[derive(Debug, Clone)]
pub struct NvAllocator {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    Legacy,
    GlobalDes { avail: Rc<Cell<u64>> },
    Sharded { state: Rc<RefCell<ShardedState>> },
}

/// Volatile upper level of the sharded allocator, rebuilt on attach.
#[derive(Debug)]
struct ShardedState {
    n_chunks: usize,
    chunks_base: PAddr,
    large_start: PAddr,
    shards: Vec<Shard>,
    /// Unformatted chunks (class word zero), popped lowest-address first.
    free_chunks: Vec<u32>,
    /// Formatted chunks believed to hold free slots, per class (hints;
    /// the bitfield is re-checked on every handout).
    partial: [Vec<u32>; N_CLASSES],
    /// DES availability of the global structures (refill, steal, large).
    global_avail: u64,
}

/// One upper-level shard. `avail` is its DES availability clock: callers
/// mapped to this shard serialize on it, callers on other shards don't.
#[derive(Debug, Default)]
struct Shard {
    avail: u64,
    /// Chunk currently being carved per class, with the next slot probe
    /// position (amortizes the bitfield scan to O(1) per allocation).
    active: [Option<u32>; N_CLASSES],
    next_slot: [u32; N_CLASSES],
    /// Freed-slot address cache per class: O(1) reuse of hot sizes.
    cache: [Vec<PAddr>; N_CLASSES],
}

impl NvAllocator {
    /// Initializes legacy allocator metadata in a freshly formatted pool
    /// (equivalent to [`NvAllocator::format_with`] under
    /// [`AllocPolicy::Legacy`]). The heap spans `[HEAP_START, heap_end)`.
    pub fn format(h: &mut PmemHandle, heap_end: PAddr) -> Self {
        Self::format_with(h, heap_end, AllocPolicy::Legacy)
    }

    /// Initializes allocator metadata for `policy` in a freshly formatted
    /// pool. The heap spans `[HEAP_START, heap_end)`.
    pub fn format_with(h: &mut PmemHandle, heap_end: PAddr, policy: AllocPolicy) -> Self {
        assert!(heap_end > HEAP_START, "heap must be non-empty");
        match policy {
            AllocPolicy::Legacy | AllocPolicy::GlobalDes => {
                h.write_u64(BUMP_ADDR, HEAP_START as u64);
                h.write_u64(FREE_HEAD_ADDR, 0);
                h.write_u64(HEAP_END_ADDR, heap_end as u64);
                h.persist(ALLOC_META_ADDR, 24);
                let inner = match policy {
                    AllocPolicy::Legacy => Inner::Legacy,
                    _ => Inner::GlobalDes { avail: Rc::default() },
                };
                NvAllocator { inner }
            }
            AllocPolicy::Sharded { shards } => {
                let n_shards = shards.max(1);
                // Budget roughly half the heap for chunks + descriptors;
                // the rest stays with the legacy large-object region.
                let budget = heap_end.saturating_sub(DESC_BASE) / 2;
                let n_chunks = (budget / (DESC_BYTES + CHUNK_BYTES)).min(MAX_CHUNKS);
                let chunks_base = DESC_BASE + n_chunks * DESC_BYTES;
                let large_start = chunks_base + n_chunks * CHUNK_BYTES;
                assert!(
                    large_start + HEADER_BYTES + MIN_PAYLOAD <= heap_end,
                    "heap too small for a sharded format"
                );
                h.write_u64(META_MAGIC, SHARD_MAGIC);
                h.write_u64(META_NCHUNKS, n_chunks as u64);
                h.write_u64(META_NSHARDS, n_shards as u64);
                h.write_u64(META_LARGE_START, large_start as u64);
                h.persist(META_MAGIC, 32);
                // Chunk descriptors rely on the pool's zero initial state:
                // class word 0 = unformatted. The legacy words manage the
                // large region above the chunks.
                h.write_u64(BUMP_ADDR, large_start as u64);
                h.write_u64(FREE_HEAD_ADDR, 0);
                h.write_u64(HEAP_END_ADDR, heap_end as u64);
                h.persist(ALLOC_META_ADDR, 24);
                let state = ShardedState {
                    n_chunks,
                    chunks_base,
                    large_start,
                    shards: (0..n_shards).map(|_| Shard::default()).collect(),
                    free_chunks: (0..n_chunks as u32).rev().collect(),
                    partial: Default::default(),
                    global_avail: 0,
                };
                NvAllocator { inner: Inner::Sharded { state: Rc::new(RefCell::new(state)) } }
            }
        }
    }

    /// Re-attaches to legacy allocator metadata after a crash or restart.
    pub fn attach() -> Self {
        NvAllocator { inner: Inner::Legacy }
    }

    /// Re-attaches to allocator metadata after a crash or restart.
    ///
    /// For [`AllocPolicy::Sharded`] this performs the recovery scan: it
    /// reads every chunk descriptor through `h` (charging honest
    /// simulated time) and rebuilds the volatile upper level — free and
    /// partial chunk lists — from the persistent bitfields. Shard caches
    /// restart empty; slots whose free was in flight at the crash stay
    /// marked allocated (leaked, by design).
    ///
    /// # Panics
    /// Panics if `policy` is sharded but the pool was not sharded-formatted.
    pub fn attach_with(h: &mut PmemHandle, policy: AllocPolicy) -> Self {
        match policy {
            AllocPolicy::Legacy => Self::attach(),
            AllocPolicy::GlobalDes => {
                NvAllocator { inner: Inner::GlobalDes { avail: Rc::default() } }
            }
            AllocPolicy::Sharded { shards } => {
                let rebuild_t0 = h.recovery_begin(RecoveryPhase::Rebuild);
                let magic = h.read_u64(META_MAGIC);
                assert_eq!(magic, SHARD_MAGIC, "pool is not sharded-formatted");
                let n_chunks = h.read_u64(META_NCHUNKS) as usize;
                assert!(n_chunks <= MAX_CHUNKS, "corrupt chunk count");
                let n_shards = shards.max(1);
                let chunks_base = DESC_BASE + n_chunks * DESC_BYTES;
                let large_start = h.read_u64(META_LARGE_START) as usize;
                assert_eq!(large_start, chunks_base + n_chunks * CHUNK_BYTES, "corrupt layout");
                let mut state = ShardedState {
                    n_chunks,
                    chunks_base,
                    large_start,
                    shards: (0..n_shards).map(|_| Shard::default()).collect(),
                    free_chunks: Vec::new(),
                    partial: Default::default(),
                    global_avail: 0,
                };
                for c in (0..n_chunks).rev() {
                    let desc = DESC_BASE + c * DESC_BYTES;
                    let cw = h.read_u64(desc) as usize;
                    if cw == 0 {
                        state.free_chunks.push(c as u32);
                        continue;
                    }
                    let k = CLASS_SIZES
                        .iter()
                        .position(|&s| s == cw)
                        .unwrap_or_else(|| panic!("corrupt class word {cw} in chunk {c}"));
                    let spc = slots_per_chunk(k);
                    let mut any_free = false;
                    for wi in 0..spc.div_ceil(64) {
                        let w = h.read_u64(desc + BITMAP_OFF + wi * 8);
                        let valid = (spc - wi * 64).min(64);
                        let vmask = if valid == 64 { !0u64 } else { (1u64 << valid) - 1 };
                        if !w & vmask != 0 {
                            any_free = true;
                        }
                    }
                    if any_free {
                        state.partial[k].push(c as u32);
                    }
                }
                h.recovery_end(RecoveryPhase::Rebuild, rebuild_t0);
                NvAllocator { inner: Inner::Sharded { state: Rc::new(RefCell::new(state)) } }
            }
        }
    }

    /// The policy this allocator instance runs under.
    pub fn policy(&self) -> AllocPolicy {
        match &self.inner {
            Inner::Legacy => AllocPolicy::Legacy,
            Inner::GlobalDes { .. } => AllocPolicy::GlobalDes,
            Inner::Sharded { state } => AllocPolicy::Sharded { shards: state.borrow().shards.len() },
        }
    }

    /// Allocates `size` bytes of persistent memory, returning the payload
    /// address (always 8-byte aligned).
    ///
    /// # Errors
    /// Returns [`NvmError::OutOfMemory`] when no level can satisfy the
    /// request.
    pub fn alloc(&self, h: &mut PmemHandle, size: usize) -> Result<PAddr, NvmError> {
        let need = size.max(MIN_PAYLOAD).next_multiple_of(8);
        match &self.inner {
            Inner::Legacy => list_alloc(h, need, size),
            Inner::GlobalDes { avail } => {
                des_wait(h, avail.get());
                let r = list_alloc(h, need, size);
                avail.set(h.clock_ns());
                r
            }
            Inner::Sharded { state } => {
                let mut st = state.borrow_mut();
                if st.n_chunks == 0 || need > MAX_SMALL {
                    des_wait(h, st.global_avail);
                    let r = list_alloc(h, need, size);
                    st.global_avail = h.clock_ns();
                    return r;
                }
                let k = class_index(need);
                let s = h.shard() as usize % st.shards.len();
                des_wait(h, st.shards[s].avail);
                let r = st.alloc_small(h, s, k, size);
                st.shards[s].avail = h.clock_ns();
                r
            }
        }
    }

    /// Returns the payload size recorded for the allocation at `addr`.
    ///
    /// # Errors
    /// Returns [`NvmError::InvalidFree`] if `addr` is not a live allocation.
    pub fn size_of(&self, h: &mut PmemHandle, addr: PAddr) -> Result<usize, NvmError> {
        match &self.inner {
            Inner::Legacy | Inner::GlobalDes { .. } => header_size(h, addr, HEAP_START),
            Inner::Sharded { state } => {
                let st = state.borrow();
                if st.in_small_region(addr) {
                    st.small_slot(h, addr).map(|(_, _, _, cw)| cw)
                } else {
                    header_size(h, addr, st.large_start)
                }
            }
        }
    }

    /// Frees the allocation at payload address `addr`.
    ///
    /// # Errors
    /// Returns [`NvmError::InvalidFree`] if `addr` is not a live allocation.
    pub fn free(&self, h: &mut PmemHandle, addr: PAddr) -> Result<(), NvmError> {
        match &self.inner {
            Inner::Legacy => {
                let size = header_size(h, addr, HEAP_START)?;
                push_free(h, addr, size);
                Ok(())
            }
            Inner::GlobalDes { avail } => {
                des_wait(h, avail.get());
                let size = header_size(h, addr, HEAP_START)?;
                push_free(h, addr, size);
                avail.set(h.clock_ns());
                Ok(())
            }
            Inner::Sharded { state } => {
                let mut st = state.borrow_mut();
                if st.in_small_region(addr) {
                    let s = h.shard() as usize % st.shards.len();
                    des_wait(h, st.shards[s].avail);
                    let r = st.free_small(h, addr, s);
                    st.shards[s].avail = h.clock_ns();
                    r
                } else {
                    des_wait(h, st.global_avail);
                    let size = header_size(h, addr, st.large_start)?;
                    push_free(h, addr, size);
                    st.global_avail = h.clock_ns();
                    Ok(())
                }
            }
        }
    }

    /// Bytes consumed by the bump region so far (diagnostics). For the
    /// sharded policy this covers the large-object region only.
    pub fn high_water(&self, h: &mut PmemHandle) -> usize {
        let floor = match &self.inner {
            Inner::Legacy | Inner::GlobalDes { .. } => HEAP_START,
            Inner::Sharded { state } => state.borrow().large_start,
        };
        h.read_u64(BUMP_ADDR) as usize - floor
    }

    /// Number of blocks on the (large-object) free list (diagnostics; O(n)).
    pub fn free_blocks(&self, h: &mut PmemHandle) -> usize {
        let mut n = 0;
        let mut cur = h.read_u64(FREE_HEAD_ADDR) as PAddr;
        while cur != 0 {
            n += 1;
            cur = h.read_u64(cur) as PAddr;
        }
        n
    }
}

/// Waits (advancing `h`'s simulated clock) until `avail`: the DES model of
/// blocking on a resource another thread released at time `avail`.
fn des_wait(h: &mut PmemHandle, avail: u64) {
    let wait = avail.saturating_sub(h.clock_ns());
    if wait > 0 {
        h.advance(wait);
    }
}

impl ShardedState {
    fn in_small_region(&self, addr: PAddr) -> bool {
        self.n_chunks > 0 && (self.chunks_base..self.large_start).contains(&addr)
    }

    /// Resolves a small-region address to `(desc, bitmap word addr, bit,
    /// class size)`, validating alignment and that the chunk is formatted.
    fn small_slot(
        &self,
        h: &mut PmemHandle,
        addr: PAddr,
    ) -> Result<(PAddr, PAddr, u64, usize), NvmError> {
        let off = addr - self.chunks_base;
        let chunk = off / CHUNK_BYTES;
        let within = off % CHUNK_BYTES;
        let desc = DESC_BASE + chunk * DESC_BYTES;
        let cw = h.read_u64(desc) as usize;
        let Some(k) = CLASS_SIZES.iter().position(|&s| s == cw) else {
            return Err(NvmError::InvalidFree { addr });
        };
        if within % cw != 0 {
            return Err(NvmError::InvalidFree { addr });
        }
        let slot = within / cw;
        if slot >= slots_per_chunk(k) {
            return Err(NvmError::InvalidFree { addr });
        }
        let wa = desc + BITMAP_OFF + (slot / 64) * 8;
        Ok((desc, wa, 1u64 << (slot % 64), cw))
    }

    /// Claims a cached slot hint: re-checks the persistent bit and sets it.
    /// Returns `false` (hint dropped) if the slot is already taken — the
    /// bitfield is the source of truth, so stale hints can never
    /// double-allocate.
    fn try_claim(&self, h: &mut PmemHandle, addr: PAddr, k: usize) -> bool {
        let off = addr - self.chunks_base;
        let chunk = off / CHUNK_BYTES;
        let slot = (off % CHUNK_BYTES) / CLASS_SIZES[k];
        let wa = DESC_BASE + chunk * DESC_BYTES + BITMAP_OFF + (slot / 64) * 8;
        let bit = 1u64 << (slot % 64);
        let w = h.read_u64(wa);
        if w & bit != 0 {
            return false;
        }
        h.write_u64(wa, w | bit);
        h.persist(wa, 8);
        true
    }

    /// The small-object allocation path for shard `s`, class `k`.
    fn alloc_small(
        &mut self,
        h: &mut PmemHandle,
        s: usize,
        k: usize,
        requested: usize,
    ) -> Result<PAddr, NvmError> {
        loop {
            // Fast path 1: reuse a freed slot from the local cache.
            while let Some(addr) = self.shards[s].cache[k].pop() {
                if self.try_claim(h, addr, k) {
                    return Ok(addr);
                }
            }
            // Fast path 2: carve the next slot from the active chunk.
            if let Some(c) = self.shards[s].active[k] {
                if let Some(addr) = self.scan_chunk(h, c, k, s) {
                    return Ok(addr);
                }
                self.shards[s].active[k] = None;
            }
            // Slow path: refill from the global structures.
            des_wait(h, self.global_avail);
            let refilled = self.refill(h, s, k);
            self.global_avail = h.clock_ns();
            if !refilled {
                // Final fallback: the legacy large-object list. Its
                // leak-never-corrupt property carries the same guarantee.
                return list_alloc(h, CLASS_SIZES[k], requested);
            }
        }
    }

    /// Scans the active chunk's bitfield from the shard's probe position,
    /// claiming the first free slot. O(bitmap words) per call, amortized
    /// O(1) per allocation over the chunk's lifetime.
    fn scan_chunk(&mut self, h: &mut PmemHandle, c: u32, k: usize, s: usize) -> Option<PAddr> {
        let spc = slots_per_chunk(k);
        let size = CLASS_SIZES[k];
        let chunk_base = self.chunks_base + c as usize * CHUNK_BYTES;
        let desc = DESC_BASE + c as usize * DESC_BYTES;
        let mut slot = self.shards[s].next_slot[k] as usize;
        while slot < spc {
            let wi = slot / 64;
            let lo = wi * 64;
            let wa = desc + BITMAP_OFF + wi * 8;
            let w = h.read_u64(wa);
            let valid = (spc - lo).min(64);
            let vmask = if valid == 64 { !0u64 } else { (1u64 << valid) - 1 };
            let free = !w & vmask & !((1u64 << (slot - lo)) - 1);
            if free != 0 {
                let b = free.trailing_zeros() as usize;
                h.write_u64(wa, w | (1u64 << b));
                h.persist(wa, 8);
                self.shards[s].next_slot[k] = (lo + b + 1) as u32;
                return Some(chunk_base + (lo + b) * size);
            }
            slot = lo + 64;
        }
        None
    }

    /// Refills shard `s` for class `k` from the global structures:
    /// a partial chunk, then a fresh chunk, then a steal of half the
    /// richest other shard's cache. Returns `false` when all are empty.
    fn refill(&mut self, h: &mut PmemHandle, s: usize, k: usize) -> bool {
        if let Some(c) = self.partial[k].pop() {
            self.shards[s].active[k] = Some(c);
            self.shards[s].next_slot[k] = 0;
            return true;
        }
        if let Some(c) = self.free_chunks.pop() {
            let desc = DESC_BASE + c as usize * DESC_BYTES;
            // The class word must be durable before any occupancy bit can
            // be set: recovery needs it to interpret the bitfield.
            h.write_u64(desc, CLASS_SIZES[k] as u64);
            h.persist(desc, 8);
            self.shards[s].active[k] = Some(c);
            self.shards[s].next_slot[k] = 0;
            return true;
        }
        // Steal from the richest other shard (ties to the lowest index,
        // keeping the choice deterministic).
        let victim = (0..self.shards.len())
            .filter(|&i| i != s && !self.shards[i].cache[k].is_empty())
            .max_by_key(|&i| (self.shards[i].cache[k].len(), std::cmp::Reverse(i)));
        if let Some(v) = victim {
            // Stealing rummages in the victim's lists: serialize with it.
            des_wait(h, self.shards[v].avail);
            let len = self.shards[v].cache[k].len();
            let moved = self.shards[v].cache[k].split_off(len - len.div_ceil(2));
            self.shards[v].avail = h.clock_ns();
            self.shards[s].cache[k].extend(moved);
            return true;
        }
        false
    }

    /// Frees a small-region slot into shard `s`'s cache.
    fn free_small(&mut self, h: &mut PmemHandle, addr: PAddr, s: usize) -> Result<(), NvmError> {
        let (_, wa, bit, cw) = self.small_slot(h, addr)?;
        let w = h.read_u64(wa);
        if w & bit == 0 {
            return Err(NvmError::InvalidFree { addr });
        }
        // Clear and persist the bit before the slot becomes reusable: a
        // crash here leaks the slot (bit still set) but can never leave it
        // both cached and allocated.
        h.write_u64(wa, w & !bit);
        h.persist(wa, 8);
        self.shards[s].cache[class_index(cw)].push(addr);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The legacy first-fit list + bump region (also the sharded large path).
// ---------------------------------------------------------------------

/// First-fit allocation from the persistent free list, falling back to the
/// bump pointer. `requested` is only for the error report.
fn list_alloc(h: &mut PmemHandle, need: usize, requested: usize) -> Result<PAddr, NvmError> {
    // First-fit scan of the free list.
    let mut prev: PAddr = 0;
    let mut cur = h.read_u64(FREE_HEAD_ADDR) as PAddr;
    while cur != 0 {
        let header = h.read_u64(cur - HEADER_BYTES);
        debug_assert_eq!(header & ALLOCATED_BIT, 0, "free list holds allocated block");
        let block_size = header as usize;
        let next = h.read_u64(cur) as PAddr;
        if block_size >= need {
            // Unlink. Persist the link update before flipping the header
            // so a crash never leaves an allocated block on the list.
            if prev == 0 {
                h.write_u64(FREE_HEAD_ADDR, next as u64);
                h.persist(FREE_HEAD_ADDR, 8);
            } else {
                h.write_u64(prev, next as u64);
                h.persist(prev, 8);
            }
            let remainder = block_size - need;
            if remainder >= HEADER_BYTES + MIN_PAYLOAD {
                // Split: publish the tail as a new free block first.
                let tail_payload = cur + need + HEADER_BYTES;
                push_free(h, tail_payload, remainder - HEADER_BYTES);
                h.write_u64(cur - HEADER_BYTES, need as u64 | ALLOCATED_BIT);
            } else {
                h.write_u64(cur - HEADER_BYTES, block_size as u64 | ALLOCATED_BIT);
            }
            h.persist(cur - HEADER_BYTES, 8);
            return Ok(cur);
        }
        prev = cur;
        cur = next;
    }

    // Bump allocation.
    let bump = h.read_u64(BUMP_ADDR) as PAddr;
    let heap_end = h.read_u64(HEAP_END_ADDR) as PAddr;
    let payload = bump + HEADER_BYTES;
    let new_bump = payload + need;
    if new_bump > heap_end {
        return Err(NvmError::OutOfMemory { requested });
    }
    // Header first, bump second: a crash in between rolls the reservation
    // back (the stale bump re-covers the block), never corrupting state.
    h.write_u64(bump, need as u64 | ALLOCATED_BIT);
    h.persist(bump, 8);
    h.write_u64(BUMP_ADDR, new_bump as u64);
    h.persist(BUMP_ADDR, 8);
    Ok(payload)
}

/// Reads and validates a `[header][payload]` block's payload size.
/// `floor` is the lowest address the containing region can start at.
fn header_size(h: &mut PmemHandle, addr: PAddr, floor: PAddr) -> Result<usize, NvmError> {
    if addr < floor + HEADER_BYTES || !addr.is_multiple_of(8) {
        return Err(NvmError::InvalidFree { addr });
    }
    let header = h.read_u64(addr - HEADER_BYTES);
    if header & ALLOCATED_BIT == 0 || header == 0 {
        return Err(NvmError::InvalidFree { addr });
    }
    Ok((header & !ALLOCATED_BIT) as usize)
}

/// Links a block (payload `addr`, payload `size`) into the free list with
/// crash-safe ordering: link word, then header, then head pointer.
fn push_free(h: &mut PmemHandle, addr: PAddr, size: usize) {
    let head = h.read_u64(FREE_HEAD_ADDR);
    h.write_u64(addr, head);
    h.persist(addr, 8);
    h.write_u64(addr - HEADER_BYTES, size as u64); // clears ALLOCATED_BIT
    h.persist(addr - HEADER_BYTES, 8);
    h.write_u64(FREE_HEAD_ADDR, addr as u64);
    h.persist(FREE_HEAD_ADDR, 8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PmemPool, PoolConfig};
    use crate::root::RootTable;

    fn setup() -> (PmemPool, NvAllocator) {
        let p = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = p.handle();
        RootTable::format(&mut h);
        let a = NvAllocator::format(&mut h, p.size());
        (p, a)
    }

    fn setup_sharded(shards: usize) -> (PmemPool, NvAllocator) {
        let p = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = p.handle();
        RootTable::format(&mut h);
        let a = NvAllocator::format_with(&mut h, p.size(), AllocPolicy::Sharded { shards });
        (p, a)
    }

    #[test]
    fn alloc_returns_aligned_disjoint_blocks() {
        let (p, a) = setup();
        let mut h = p.handle();
        let x = a.alloc(&mut h, 24).unwrap();
        let y = a.alloc(&mut h, 24).unwrap();
        assert_eq!(x % 8, 0);
        assert_eq!(y % 8, 0);
        assert!(y >= x + 24 + HEADER_BYTES || x >= y + 24 + HEADER_BYTES);
    }

    #[test]
    fn size_is_recorded_and_rounded() {
        let (p, a) = setup();
        let mut h = p.handle();
        let x = a.alloc(&mut h, 5).unwrap();
        assert_eq!(a.size_of(&mut h, x).unwrap(), 8);
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let (p, a) = setup();
        let mut h = p.handle();
        let x = a.alloc(&mut h, 32).unwrap();
        a.free(&mut h, x).unwrap();
        let y = a.alloc(&mut h, 32).unwrap();
        assert_eq!(x, y, "freed block should be reused");
    }

    #[test]
    fn split_leaves_usable_remainder() {
        let (p, a) = setup();
        let mut h = p.handle();
        let x = a.alloc(&mut h, 128).unwrap();
        a.free(&mut h, x).unwrap();
        let y = a.alloc(&mut h, 32).unwrap();
        let z = a.alloc(&mut h, 32).unwrap();
        assert_eq!(y, x);
        assert!(z > x && z < x + 128 + HEADER_BYTES, "remainder of split should be reused");
    }

    #[test]
    fn double_free_rejected() {
        let (p, a) = setup();
        let mut h = p.handle();
        let x = a.alloc(&mut h, 16).unwrap();
        a.free(&mut h, x).unwrap();
        assert!(matches!(a.free(&mut h, x), Err(NvmError::InvalidFree { .. })));
    }

    #[test]
    fn bogus_free_rejected() {
        let (p, a) = setup();
        let mut h = p.handle();
        assert!(a.free(&mut h, 3).is_err());
        assert!(a.free(&mut h, HEAP_START).is_err());
    }

    #[test]
    fn out_of_memory_reported() {
        let p = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = p.handle();
        RootTable::format(&mut h);
        let a = NvAllocator::format(&mut h, HEAP_START + 64);
        assert!(a.alloc(&mut h, 32).is_ok());
        assert!(matches!(a.alloc(&mut h, 64), Err(NvmError::OutOfMemory { .. })));
    }

    #[test]
    fn allocator_state_survives_crash() {
        let (p, a) = setup();
        let mut h = p.handle();
        let x = a.alloc(&mut h, 16).unwrap();
        h.write_u64(x, 0xAA);
        h.persist(x, 8);
        drop(h);
        p.crash(0);
        let a = NvAllocator::attach();
        let mut h = p.handle();
        // The old allocation is still accounted for: new blocks don't overlap.
        let y = a.alloc(&mut h, 16).unwrap();
        assert_ne!(x, y);
        assert_eq!(h.read_u64(x), 0xAA);
    }

    #[test]
    fn free_list_survives_crash() {
        let (p, a) = setup();
        let mut h = p.handle();
        let x = a.alloc(&mut h, 48).unwrap();
        a.free(&mut h, x).unwrap();
        drop(h);
        p.crash(0);
        let a = NvAllocator::attach();
        let mut h = p.handle();
        assert_eq!(a.free_blocks(&mut h), 1);
        let y = a.alloc(&mut h, 48).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn many_alloc_free_cycles_do_not_grow_heap_unboundedly() {
        let (p, a) = setup();
        let mut h = p.handle();
        let first = a.alloc(&mut h, 64).unwrap();
        a.free(&mut h, first).unwrap();
        let base = a.high_water(&mut h);
        for _ in 0..1000 {
            let x = a.alloc(&mut h, 64).unwrap();
            a.free(&mut h, x).unwrap();
        }
        assert_eq!(a.high_water(&mut h), base, "recycling must not bump the high-water mark");
    }

    // ------------------------------------------------------------------
    // Sharded policy
    // ------------------------------------------------------------------

    #[test]
    fn sharded_small_allocs_are_aligned_and_disjoint() {
        let (p, a) = setup_sharded(4);
        let mut h = p.handle();
        let mut blocks = Vec::new();
        for size in [1usize, 8, 9, 24, 64, 100, 500, 512] {
            let x = a.alloc(&mut h, size).unwrap();
            assert_eq!(x % 8, 0, "unaligned block for size {size}");
            let rounded = a.size_of(&mut h, x).unwrap();
            assert!(rounded >= size);
            blocks.push((x, rounded));
        }
        for (i, &(x, xs)) in blocks.iter().enumerate() {
            for &(y, ys) in &blocks[i + 1..] {
                assert!(x + xs <= y || y + ys <= x, "blocks overlap: {x:#x} and {y:#x}");
            }
        }
    }

    #[test]
    fn sharded_free_then_alloc_reuses_slot() {
        let (p, a) = setup_sharded(2);
        let mut h = p.handle();
        let x = a.alloc(&mut h, 32).unwrap();
        a.free(&mut h, x).unwrap();
        let y = a.alloc(&mut h, 32).unwrap();
        assert_eq!(x, y, "same-shard free feeds the cache");
    }

    #[test]
    fn sharded_double_and_bogus_free_rejected() {
        let (p, a) = setup_sharded(2);
        let mut h = p.handle();
        let x = a.alloc(&mut h, 16).unwrap();
        a.free(&mut h, x).unwrap();
        assert!(matches!(a.free(&mut h, x), Err(NvmError::InvalidFree { .. })));
        assert!(a.free(&mut h, x + 4).is_err(), "misaligned");
        assert!(a.free(&mut h, 3).is_err());
        let y = a.alloc(&mut h, 16).unwrap();
        assert!(a.free(&mut h, y + 16).is_err(), "wrong slot boundary");
    }

    #[test]
    fn sharded_shards_carve_distinct_chunks() {
        let (p, a) = setup_sharded(2);
        let mut h0 = p.handle();
        let mut h1 = p.handle();
        h1.set_shard(1);
        let x = a.alloc(&mut h0, 64).unwrap();
        let y = a.alloc(&mut h1, 64).unwrap();
        assert_ne!(
            (x - (x % CHUNK_BYTES)),
            (y - (y % CHUNK_BYTES)),
            "different shards must carve different chunks"
        );
    }

    #[test]
    fn sharded_cross_shard_free_and_steal() {
        let (p, a) = setup_sharded(2);
        let mut h0 = p.handle();
        let mut h1 = p.handle();
        h1.set_shard(1);
        // Shard 0 allocates, shard 1 frees: slots land in shard 1's cache.
        let blocks: Vec<_> = (0..8).map(|_| a.alloc(&mut h0, 48).unwrap()).collect();
        for &b in &blocks {
            a.free(&mut h1, b).unwrap();
        }
        // Re-allocating from shard 1 drains its cache (same addresses).
        let again = a.alloc(&mut h1, 48).unwrap();
        assert!(blocks.contains(&again), "freed slot must be reused via the cache");
        for _ in 0..7 {
            a.alloc(&mut h1, 48).unwrap();
        }
    }

    #[test]
    fn sharded_large_blocks_fall_back_to_list() {
        let (p, a) = setup_sharded(2);
        let mut h = p.handle();
        let x = a.alloc(&mut h, 4096).unwrap();
        assert_eq!(a.size_of(&mut h, x).unwrap(), 4096);
        a.free(&mut h, x).unwrap();
        let y = a.alloc(&mut h, 4096).unwrap();
        assert_eq!(x, y, "large blocks recycle through the legacy list");
        assert!(a.free_blocks(&mut h) <= 1);
    }

    #[test]
    fn sharded_survives_crash_and_reattach() {
        let (p, a) = setup_sharded(2);
        let mut h = p.handle();
        let x = a.alloc(&mut h, 64).unwrap();
        let dead = a.alloc(&mut h, 64).unwrap();
        a.free(&mut h, dead).unwrap();
        h.write_u64(x, 0xBEEF);
        h.persist(x, 8);
        drop(h);
        p.crash(0);
        let mut h = p.handle();
        let a = NvAllocator::attach_with(&mut h, AllocPolicy::Sharded { shards: 2 });
        assert_eq!(h.read_u64(x), 0xBEEF);
        // The live slot stays allocated — new allocations never return it —
        // while the durably freed slot is findable via the partial-chunk scan.
        let mut found_dead = false;
        for _ in 0..40 {
            let y = a.alloc(&mut h, 64).unwrap();
            assert_ne!(x, y, "live slot double-allocated after recovery");
            found_dead |= y == dead;
        }
        assert!(found_dead, "durably freed slot must be recovered as free");
    }

    #[test]
    fn sharded_exhaustion_falls_back_then_reports_oom() {
        let p = PmemPool::new(PoolConfig { size: 64 << 10, ..PoolConfig::small_for_tests() });
        let mut h = p.handle();
        RootTable::format(&mut h);
        let a = NvAllocator::format_with(&mut h, p.size(), AllocPolicy::Sharded { shards: 1 });
        let mut n = 0u32;
        loop {
            match a.alloc(&mut h, 512) {
                Ok(_) => n += 1,
                Err(NvmError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error: {e:?}"),
            }
            assert!(n < 10_000, "tiny pool must exhaust");
        }
        assert!(n > 10, "should have carved chunks and the large region first");
    }

    #[test]
    fn sharded_des_serializes_same_shard_but_not_cross_shard() {
        // Needs the real latency model: contention is invisible at zero cost.
        let p = PmemPool::new(PoolConfig {
            size: 1 << 20,
            trace: PoolConfig::small_for_tests().trace,
            ..PoolConfig::default()
        });
        let mut h = p.handle();
        RootTable::format(&mut h);
        let a = NvAllocator::format_with(&mut h, p.size(), AllocPolicy::Sharded { shards: 2 });
        drop(h);
        // Same shard: the second caller's clock is pushed past the first's.
        let mut h0 = p.handle();
        let mut h1 = p.handle();
        a.alloc(&mut h0, 64).unwrap();
        let t0 = h0.clock_ns();
        assert!(t0 > 0, "default-latency ops must consume simulated time");
        a.alloc(&mut h1, 64).unwrap();
        assert!(h1.clock_ns() >= t0, "same-shard allocs serialize on the DES clock");
        // Cross shard: a fresh handle on the other shard does not wait for
        // shard 0 (its clock stays below shard 0's availability).
        let mut h2 = p.handle();
        h2.set_shard(1);
        a.alloc(&mut h2, 64).unwrap();
        assert!(
            h2.clock_ns() < h1.clock_ns(),
            "cross-shard alloc must not serialize behind the busy shard"
        );
    }

    #[test]
    fn global_des_serializes_every_call() {
        let p = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = p.handle();
        RootTable::format(&mut h);
        let a = NvAllocator::format_with(&mut h, p.size(), AllocPolicy::GlobalDes);
        let mut h0 = p.handle();
        let mut h1 = p.handle();
        a.alloc(&mut h0, 64).unwrap();
        a.alloc(&mut h1, 64).unwrap();
        assert!(h1.clock_ns() >= h0.clock_ns(), "global DES serializes all callers");
    }

    #[test]
    fn policy_is_reported() {
        let (_p, a) = setup();
        assert_eq!(a.policy(), AllocPolicy::Legacy);
        let (_p, a) = setup_sharded(3);
        assert_eq!(a.policy(), AllocPolicy::Sharded { shards: 3 });
    }
}
