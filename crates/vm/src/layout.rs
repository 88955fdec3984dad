//! Persistent log layouts for every scheme's per-thread state.
//!
//! All per-thread runtime state that must survive a crash lives in the
//! simulated NVM pool, laid out here — the resumption logs, the append log,
//! and the two pieces more than one scheme or crate reads: the thread
//! [`Registry`] and the [`LockArray`]. Offsets are in bytes from the start
//! of the thread's log allocation.

use ido_ir::Pc;
use ido_nvm::root::RootTable;
use ido_nvm::{PmemHandle, PAddr};

/// Maximum locks a thread may hold simultaneously (size of the paper's
/// `lock_array`).
pub const LOCK_ARRAY_SLOTS: usize = 64;

/// Encodes a PC for persistent storage; 0 is reserved for "none".
pub fn encode_pc(pc: Pc) -> u64 {
    // The `+ 1` must not carry out of the index field: `Pc::encode` packs
    // the instruction index in the low 20 bits, so an index of exactly
    // `MAX_INDEX` would decode as `(block, 0)` of the *next* block.
    assert!(pc.index < Pc::MAX_INDEX, "inst index {} unencodable as a persistent pc", pc.index);
    pc.encode() + 1
}

/// Decodes a persistent PC word; `None` if the stored word is the reserved
/// null value.
pub fn decode_pc(word: u64) -> Option<Pc> {
    if word == 0 {
        None
    } else {
        Some(Pc::decode(word - 1))
    }
}

/// The persistent thread registry, published under
/// [`THREADS_ROOT`](crate::THREADS_ROOT): a count word followed by one
/// four-word [`RegistryEntry`] per spawned thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registry {
    /// Address of the count word.
    pub base: PAddr,
}

/// The four areas `spawn` allocates for a thread, in the order stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Base of the iDO [`ResumeLog`].
    pub ido: PAddr,
    /// Base of the JUSTDO [`ResumeLog`].
    pub justdo: PAddr,
    /// Base of the [`AppendLogLayout`].
    pub append: PAddr,
    /// Base of the persistent stack area.
    pub stack: PAddr,
}

impl RegistryEntry {
    /// This thread's append log, `capacity` entries long.
    pub fn append_log(&self, capacity: usize) -> AppendLogLayout {
        AppendLogLayout { base: self.append, capacity }
    }
}

impl Registry {
    /// Bytes needed to register up to `max_threads` threads.
    pub fn size_for(max_threads: usize) -> usize {
        8 + max_threads * 32
    }

    /// Finds a formatted pool's registry; `None` if no VM ever published one.
    pub fn open(h: &mut PmemHandle) -> Option<Registry> {
        RootTable.root(h, crate::THREADS_ROOT).map(|base| Registry { base })
    }

    /// Number of registered threads.
    pub fn count(&self, h: &mut PmemHandle) -> usize {
        h.read_u64(self.base) as usize
    }

    fn entry_addr(&self, i: usize) -> PAddr {
        self.base + 8 + i * 32
    }

    /// Reads thread `i`'s entry (four loads).
    pub fn entry(&self, h: &mut PmemHandle, i: usize) -> RegistryEntry {
        let e = self.entry_addr(i);
        RegistryEntry {
            ido: h.read_u64(e) as PAddr,
            justdo: h.read_u64(e + 8) as PAddr,
            append: h.read_u64(e + 16) as PAddr,
            stack: h.read_u64(e + 24) as PAddr,
        }
    }

    /// Thread `i`'s append log, read with the one load of its base word.
    pub fn append_log(&self, h: &mut PmemHandle, i: usize, capacity: usize) -> AppendLogLayout {
        AppendLogLayout { base: h.read_u64(self.entry_addr(i) + 16) as PAddr, capacity }
    }

    /// Durably registers thread `i`: the entry first, then the count.
    pub fn publish(&self, h: &mut PmemHandle, i: usize, entry: RegistryEntry) {
        let e = self.entry_addr(i);
        h.write_u64(e, entry.ido as u64);
        h.write_u64(e + 8, entry.justdo as u64);
        h.write_u64(e + 16, entry.append as u64);
        h.write_u64(e + 24, entry.stack as u64);
        h.persist(e, 32);
        h.write_u64(self.base, (i + 1) as u64);
        h.persist(self.base, 8);
    }
}

/// How a lock record is fenced — the whole difference between iDO's and
/// JUSTDO's use of the one [`LockArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockFence {
    /// iDO acquire: slot and bitmap written back together, *not* fenced
    /// (the region boundary that follows every acquisition drains them).
    Deferred,
    /// iDO, as in the paper: slot and bitmap under a single fence.
    Single,
    /// JUSTDO: intention, then ownership — the slot persists before the
    /// bitmap bit claims it, the bit clears durably before the slot is wiped.
    TwoPhase,
}

/// The paper's `lock_array` of indirect lock holders: a live-slot bitmap
/// word followed by [`LOCK_ARRAY_SLOTS`] lock addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockArray {
    /// Address of the bitmap word; the slots follow it.
    pub base: PAddr,
}

impl LockArray {
    /// Bytes the bitmap and the slots occupy.
    pub const BYTES: usize = 8 + LOCK_ARRAY_SLOTS * 8;

    /// Address of the live-slot bitmap.
    pub fn bitmap(&self) -> PAddr {
        self.base
    }

    /// Address of slot `i`.
    pub fn slot(&self, i: usize) -> PAddr {
        assert!(i < LOCK_ARRAY_SLOTS);
        self.base + 8 + i * 8
    }

    /// Reads the `(slot, lock)` pairs whose bitmap bit is set.
    pub fn read_held(&self, h: &mut PmemHandle) -> Vec<(usize, u64)> {
        let bitmap = h.read_u64(self.bitmap());
        (0..LOCK_ARRAY_SLOTS)
            .filter(|i| bitmap & (1 << i) != 0)
            .map(|i| (i, h.read_u64(self.slot(i))))
            .collect()
    }

    /// Records that `lock` is now held, in `slot`.
    pub fn record_acquire(&self, h: &mut PmemHandle, slot: usize, lock: u64, fence: LockFence) {
        let (slot_addr, bitmap_addr) = (self.slot(slot), self.bitmap());
        let two_phase = fence == LockFence::TwoPhase;
        h.begin_log();
        h.write_u64(slot_addr, lock);
        if two_phase {
            h.clwb(slot_addr);
            h.sfence();
        }
        let bm = h.read_u64(bitmap_addr);
        h.write_u64(bitmap_addr, bm | (1 << slot));
        if !two_phase {
            h.clwb(slot_addr);
        }
        h.clwb(bitmap_addr);
        h.end_log();
        if fence != LockFence::Deferred {
            h.sfence();
        }
    }

    /// Records that the lock in `slot` is being released (always fenced).
    pub fn record_release(&self, h: &mut PmemHandle, slot: usize, fence: LockFence) {
        let (slot_addr, bitmap_addr) = (self.slot(slot), self.bitmap());
        let two_phase = fence == LockFence::TwoPhase;
        h.begin_log();
        let bm = h.read_u64(bitmap_addr);
        h.write_u64(bitmap_addr, bm & !(1u64 << slot));
        if two_phase {
            h.clwb(bitmap_addr);
            h.sfence();
        }
        h.write_u64(slot_addr, 0);
        h.clwb(slot_addr);
        if !two_phase {
            h.clwb(bitmap_addr);
        }
        h.end_log();
        h.sfence();
    }

    /// Durably drops every record (recovery's robbed-lock case).
    pub fn clear(&self, h: &mut PmemHandle) {
        h.write_u64(self.bitmap(), 0);
        h.persist(self.bitmap(), 8);
    }
}

/// The per-thread log of a scheme that recovers by resumption:
/// `[pc][scheme words][stack base][lock array][register image]`.
///
/// * iDO's `iDO_Log` (Fig. 3) has no scheme words: `pc` is `recovery_pc` and
///   the image holds the registers live out of the last region. The paper
///   splits it into `intRF` and `floatRF`; our IR gives every virtual
///   register a unique id, so a single array serves both classes with
///   identical semantics (a fixed slot per register, enabling persist
///   coalescing of up to 8 slots per cache-line write-back).
/// * JUSTDO's log has two, the ⟨addr, value⟩ of the store `pc` points at,
///   and the image is the shadow register file required by the
///   no-register-caching rule.
#[derive(Debug, Clone, Copy)]
pub struct ResumeLog {
    /// Base address of the log in the pool.
    pub base: PAddr,
    /// Number of register slots.
    pub max_regs: u32,
    scheme_words: usize,
}

impl ResumeLog {
    /// An iDO log at `base`.
    pub fn ido(base: PAddr, max_regs: u32) -> ResumeLog {
        ResumeLog { base, max_regs, scheme_words: 0 }
    }

    /// A JUSTDO log at `base`.
    pub fn justdo(base: PAddr, max_regs: u32) -> ResumeLog {
        ResumeLog { base, max_regs, scheme_words: 2 }
    }

    /// Bytes the log occupies.
    pub fn size(&self) -> usize {
        self.regs() + self.max_regs as usize * 8 - self.base
    }

    /// Address of the encoded pc recovery resumes at; 0 there = no FASE in
    /// progress.
    pub fn pc(&self) -> PAddr {
        self.base
    }

    /// JUSTDO: address of the logged store's target.
    pub fn store_addr(&self) -> PAddr {
        assert_eq!(self.scheme_words, 2, "an iDO log records no store");
        self.base + 8
    }

    /// JUSTDO: address of the logged store's value.
    pub fn store_value(&self) -> PAddr {
        self.store_addr() + 8
    }

    /// Address of the saved stack-frame base.
    pub fn stack_base(&self) -> PAddr {
        self.base + 8 + self.scheme_words * 8
    }

    /// The `lock_array`.
    pub fn locks(&self) -> LockArray {
        LockArray { base: self.stack_base() + 8 }
    }

    fn regs(&self) -> PAddr {
        self.locks().base + LockArray::BYTES
    }

    /// Address of the image slot for register id `r`.
    pub fn reg_slot(&self, r: u32) -> PAddr {
        assert!(r < self.max_regs, "register {r} outside log ({} slots)", self.max_regs);
        self.regs() + r as usize * 8
    }
}

/// Kinds of entries in the append-only UNDO/event logs used by Atlas, NVML,
/// and NVThreads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum LogEntryKind {
    /// UNDO: `(addr, old_value)`.
    Undo = 1,
    /// A FASE began.
    FaseBegin = 2,
    /// A FASE committed (all its stores persisted).
    Commit = 3,
    /// Lock acquired: `(lock, observed_release_stamp)`.
    LockAcquire = 4,
    /// Lock released: `(lock, my_stamp)`.
    LockRelease = 5,
    /// REDO: `(addr, new_value)` (Mnemosyne write set, NVThreads pages).
    Redo = 6,
}

impl LogEntryKind {
    /// Decodes a stored kind word.
    pub fn from_word(w: u64) -> Option<LogEntryKind> {
        match w {
            1 => Some(LogEntryKind::Undo),
            2 => Some(LogEntryKind::FaseBegin),
            3 => Some(LogEntryKind::Commit),
            4 => Some(LogEntryKind::LockAcquire),
            5 => Some(LogEntryKind::LockRelease),
            6 => Some(LogEntryKind::Redo),
            _ => None,
        }
    }
}

/// An append-only per-thread log of 32-byte entries
/// `(kind, a, b, global_stamp)` — the Atlas paper's 32-bytes-per-store
/// format (Section IV-B: "a system like Atlas, which logs 32 bytes of
/// information for every store, can persist at most two contiguous log
/// entries in a single 64-byte cache line write-back").
#[derive(Debug, Clone, Copy)]
pub struct AppendLogLayout {
    /// Base address.
    pub base: PAddr,
    /// Capacity in entries.
    pub capacity: usize,
}

/// Size of one append-log entry in bytes.
pub const APPEND_ENTRY_BYTES: usize = 32;

/// Value published into the append log's length word for the duration of a
/// [`AppendLogLayout::reset`]. While it is present, the log's contents are
/// retired garbage: [`AppendLogLayout::scan_len`] reports the log empty and
/// the next reset purges the whole entry array. Without this marker a crash
/// mid-reset can persist the zeroed length word *before* all entry-zeroing
/// write-backs, leaving a valid-looking stale tail that a later append
/// would reconnect into the live log — recovery would then replay retired
/// (already-committed or rolled-back) records as a phantom transaction.
pub const RESET_SENTINEL: u64 = u64::MAX;

impl AppendLogLayout {
    const LEN: usize = 0;
    const ENTRIES: usize = 64; // keep the length word on its own line

    /// Bytes needed for `capacity` entries (including alignment slack for
    /// the entry array).
    pub fn size_for(capacity: usize) -> usize {
        Self::ENTRIES + APPEND_ENTRY_BYTES + capacity * APPEND_ENTRY_BYTES
    }

    /// Address of the persisted entry count.
    pub fn len_addr(&self) -> PAddr {
        self.base + Self::LEN
    }

    /// Address of entry `i`. The entry array is rounded up to a 32-byte
    /// boundary so a 32-byte entry never straddles a cache line: `append`
    /// issues a single write-back per entry, which is only crash-atomic if
    /// the whole entry lives on that one line. (The allocator hands out
    /// 8-aligned regions, so an unaligned base would split every other
    /// entry across two lines — and a crash evicting one line but not the
    /// other would leave a *valid-looking* entry with torn payload fields.
    /// The crash oracle found exactly that: Atlas rollback applying a
    /// half-persisted UNDO record's stale old-value.)
    pub fn entry_addr(&self, i: usize) -> PAddr {
        assert!(i < self.capacity, "append log overflow at entry {i}");
        let entries =
            (self.base + Self::ENTRIES + (APPEND_ENTRY_BYTES - 1)) & !(APPEND_ENTRY_BYTES - 1);
        entries + i * APPEND_ENTRY_BYTES
    }

    /// Cursor position hint (updated without fencing; authoritative count
    /// comes from [`AppendLogLayout::scan_len`]). A [`RESET_SENTINEL`] (or
    /// any out-of-range stale hint) reads as empty/clamped.
    pub fn len(&self, h: &mut PmemHandle) -> usize {
        let w = h.read_u64(self.len_addr());
        if w == RESET_SENTINEL {
            return 0;
        }
        (w as usize).min(self.capacity)
    }

    /// True when the log holds no entries.
    pub fn is_empty(&self, h: &mut PmemHandle) -> bool {
        self.len(h) == 0
    }

    /// Authoritative entry count after a crash: entries are valid by
    /// content (a decodable kind word), so recovery scans until the first
    /// zero kind. This is Atlas's trick for publishing a log entry with a
    /// **single** persist fence — no separately-fenced length word.
    pub fn scan_len(&self, h: &mut PmemHandle) -> usize {
        if h.read_u64(self.len_addr()) == RESET_SENTINEL {
            // A reset was in flight at the crash: every surviving entry is
            // retired garbage awaiting the purge, not live log content.
            return 0;
        }
        for i in 0..self.capacity {
            if LogEntryKind::from_word(h.read_u64(self.entry_addr(i))).is_none() {
                return i;
            }
        }
        self.capacity
    }

    /// Appends an entry: four words, one write-back, one fence. The kind
    /// word doubles as the validity marker. The length hint is updated
    /// without a fence.
    ///
    /// # Panics
    /// Panics if the log is full.
    pub fn append(&self, h: &mut PmemHandle, kind: LogEntryKind, a: u64, b: u64, stamp: u64) {
        self.append_batch(h, &[(kind, a, b, stamp)]);
    }

    /// Appends several entries under a single persist fence (used by NVML's
    /// object-granularity `TX_ADD`, which snapshots a whole cache line).
    pub fn append_batch(&self, h: &mut PmemHandle, entries: &[(LogEntryKind, u64, u64, u64)]) {
        let n = self.len(h);
        h.begin_log();
        for (k, (kind, a, b, stamp)) in entries.iter().enumerate() {
            let e = self.entry_addr(n + k);
            h.write_u64(e, *kind as u64);
            h.write_u64(e + 8, *a);
            h.write_u64(e + 16, *b);
            h.write_u64(e + 24, *stamp);
            h.clwb(e);
        }
        h.sfence();
        h.write_u64(self.len_addr(), (n + entries.len()) as u64);
        h.end_log();
        h.observe(
            ido_trace::EventKind::LogAppend,
            entries.len() as u64,
            (entries.len() * APPEND_ENTRY_BYTES) as u64,
        );
    }

    /// Reads entry `i`.
    pub fn read(&self, h: &mut PmemHandle, i: usize) -> (Option<LogEntryKind>, u64, u64, u64) {
        let e = self.entry_addr(i);
        (
            LogEntryKind::from_word(h.read_u64(e)),
            h.read_u64(e + 8),
            h.read_u64(e + 16),
            h.read_u64(e + 24),
        )
    }

    /// Durably resets the log to empty, zeroing the used prefix so the
    /// content-validity scan terminates.
    ///
    /// Crash-safe via the [`RESET_SENTINEL`] protocol: the length word is
    /// durably set to the sentinel *before* any entry is zeroed, so a crash
    /// at any interior point leaves the log observably "reset in progress"
    /// (scanned as empty) rather than half-retired. The zeroed length word
    /// is only published after the entry zeroes are fenced.
    pub fn reset(&self, h: &mut PmemHandle) {
        let done = self.reset_budgeted(h, &mut { u64::MAX });
        debug_assert!(done, "unbudgeted reset always completes");
    }

    /// [`AppendLogLayout::reset`] with a persist-operation budget, for
    /// crash-during-recovery exploration. Each durable step (a fenced
    /// sentinel publish, one entry-zero write-back, the final length
    /// publish) costs one unit, decremented from `*budget` in place so one
    /// budget can span several logs. Returns `false` — with **no** trailing
    /// fence, so in-flight write-backs stay crash-vulnerable — when the
    /// budget runs out before the reset retires.
    pub fn reset_budgeted(&self, h: &mut PmemHandle, budget: &mut u64) -> bool {
        let left = budget;
        let raw_len = h.read_u64(self.len_addr());
        let interrupted = raw_len == RESET_SENTINEL;
        let used = if interrupted {
            // A previous reset was cut short. Its zeroed prefix says
            // nothing about how far it got, so purge the whole array.
            self.capacity
        } else {
            self.scan_len(h).max((raw_len as usize).min(self.capacity))
        };
        if used == 0 && !interrupted {
            return true; // already durably empty
        }
        h.begin_log();
        if !interrupted {
            if *left == 0 {
                h.end_log();
                return false;
            }
            h.write_u64(self.len_addr(), RESET_SENTINEL);
            h.clwb(self.len_addr());
            h.sfence();
            *left -= 1;
        }
        for i in 0..used {
            if *left == 0 {
                h.end_log();
                return false;
            }
            let e = self.entry_addr(i);
            h.write_u64(e, 0);
            h.clwb(e);
            *left -= 1;
        }
        // Entries must be durably zero before the length word says
        // "empty"; otherwise a crash could persist len = 0 while stale
        // valid-looking entries survive for a later append to reconnect.
        h.sfence();
        if *left == 0 {
            h.end_log();
            return false;
        }
        h.write_u64(self.len_addr(), 0);
        h.clwb(self.len_addr());
        h.sfence();
        h.end_log();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_ir::{BlockId, FuncId};
    use ido_nvm::{PmemPool, PoolConfig};

    #[test]
    fn pc_encoding_reserves_zero() {
        let pc = Pc { func: FuncId(0), block: BlockId(0), index: 0 };
        assert_ne!(encode_pc(pc), 0);
        assert_eq!(decode_pc(encode_pc(pc)), Some(pc));
        assert_eq!(decode_pc(0), None);
    }

    #[test]
    fn ido_layout_offsets_disjoint() {
        for (l, first_word) in [(ResumeLog::ido(4096, 16), 8), (ResumeLog::justdo(4096, 16), 24)] {
            assert_eq!(l.stack_base() - l.pc(), first_word);
            assert!(l.stack_base() < l.locks().bitmap());
            assert!(l.locks().bitmap() < l.locks().slot(0));
            assert!(l.locks().slot(LOCK_ARRAY_SLOTS - 1) < l.reg_slot(0));
            assert_eq!(l.reg_slot(1) - l.reg_slot(0), 8);
            assert_eq!(l.size(), (l.reg_slot(15) - 4096) + 8);
        }
        let l = ResumeLog::justdo(4096, 16);
        assert!(l.pc() < l.store_addr() && l.store_value() < l.stack_base());
    }

    #[test]
    fn append_entries_never_straddle_cache_lines() {
        // Regression for a crash-oracle finding: log regions come from the
        // 8-aligned allocator, and a 32-byte entry crossing a cache-line
        // boundary can persist half under a partial-eviction crash — a
        // valid kind word with torn payload, which Atlas rollback then
        // applies. The layout must align entries so the single per-entry
        // write-back covers the whole entry.
        for base in [4096, 4096 + 8, 4096 + 16, 4096 + 24, 4096 + 40] {
            let log = AppendLogLayout { base, capacity: 8 };
            for i in 0..8 {
                let e = log.entry_addr(i);
                assert_eq!(
                    e / 64,
                    (e + APPEND_ENTRY_BYTES - 1) / 64,
                    "entry {i} at base {base:#x} straddles a line"
                );
            }
            assert!(
                log.entry_addr(7) + APPEND_ENTRY_BYTES <= base + AppendLogLayout::size_for(8),
                "size_for must cover the aligned entry array (base {base:#x})"
            );
        }
    }

    #[test]
    fn half_persisted_straddling_entry_would_tear() {
        // The failure mode the alignment prevents, demonstrated directly:
        // write a 32-byte record across two lines, persist only the first,
        // and observe a valid kind word with a zero payload tail.
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let e: PAddr = 4096 + 48; // last 16 bytes of line 64, first 16 of line 65
        h.write_u64(e, LogEntryKind::Undo as u64);
        h.write_u64(e + 8, 0x14a8);
        h.write_u64(e + 16, 7); // old value, on the second line
        h.write_u64(e + 24, 9);
        h.clwb(e); // first line only — what an unaligned append amounted to
        h.sfence();
        drop(h);
        pool.crash(0);
        let mut h = pool.handle();
        assert_eq!(LogEntryKind::from_word(h.read_u64(e)), Some(LogEntryKind::Undo));
        assert_eq!(h.read_u64(e + 16), 0, "payload tail lost: the entry is torn");
    }

    #[test]
    fn append_log_roundtrip_and_crash_safety() {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let log = AppendLogLayout { base: 4096, capacity: 32 };
        log.reset(&mut h);
        log.append(&mut h, LogEntryKind::Undo, 100, 7, 1);
        log.append(&mut h, LogEntryKind::Commit, 0, 0, 2);
        assert_eq!(log.len(&mut h), 2);
        let (k, a, b, s) = log.read(&mut h, 0);
        assert_eq!(k, Some(LogEntryKind::Undo));
        assert_eq!((a, b, s), (100, 7, 1));
        drop(h);
        pool.crash(0);
        let mut h = pool.handle();
        assert_eq!(log.scan_len(&mut h), 2, "fenced entries survive a crash");
        let (k, ..) = log.read(&mut h, 1);
        assert_eq!(k, Some(LogEntryKind::Commit));
    }

    #[test]
    fn unfenced_append_not_visible_after_crash() {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let log = AppendLogLayout { base: 4096, capacity: 32 };
        log.reset(&mut h);
        // Simulate a torn append: entry written and written back, but never
        // fenced (and the crash policy drops dirty lines).
        let e = log.entry_addr(0);
        h.write_u64(e, LogEntryKind::Undo as u64);
        h.clwb(e);
        drop(h);
        pool.crash(0);
        let mut h = pool.handle();
        assert_eq!(log.scan_len(&mut h), 0);
    }

    #[test]
    fn batch_append_publishes_all_entries_under_one_fence() {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let log = AppendLogLayout { base: 4096, capacity: 32 };
        log.reset(&mut h);
        let fences_before = h.stats().fences;
        log.append_batch(
            &mut h,
            &[
                (LogEntryKind::Undo, 1, 2, 0),
                (LogEntryKind::Undo, 3, 4, 0),
                (LogEntryKind::Undo, 5, 6, 0),
            ],
        );
        assert_eq!(h.stats().fences - fences_before, 1);
        drop(h);
        pool.crash(0);
        let mut h = pool.handle();
        assert_eq!(log.scan_len(&mut h), 3);
    }

    #[test]
    fn reset_zeroes_scanned_prefix() {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let log = AppendLogLayout { base: 4096, capacity: 32 };
        log.reset(&mut h);
        log.append(&mut h, LogEntryKind::Undo, 1, 2, 3);
        log.reset(&mut h);
        assert_eq!(log.scan_len(&mut h), 0);
        drop(h);
        pool.crash(0);
        let mut h = pool.handle();
        assert_eq!(log.scan_len(&mut h), 0, "reset is durable");
    }

    #[test]
    fn reset_sentinel_reads_as_empty() {
        // While a reset is in flight the length word holds the sentinel and
        // the log's (retired) contents must not be scannable.
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let log = AppendLogLayout { base: 4096, capacity: 32 };
        log.append(&mut h, LogEntryKind::Undo, 1, 2, 3);
        log.append(&mut h, LogEntryKind::Commit, 0, 0, 4);
        h.write_u64(log.len_addr(), RESET_SENTINEL);
        h.clwb(log.len_addr());
        h.sfence();
        assert_eq!(log.scan_len(&mut h), 0);
        assert_eq!(log.len(&mut h), 0);
        assert!(log.is_empty(&mut h));
    }

    #[test]
    fn interrupted_reset_does_not_resurrect_stale_tail() {
        // Regression: the old reset zeroed entries and the length word under
        // a single trailing fence, so a crash mid-reset could durably zero
        // entry 0 and the length word while entries 1.. survived as a
        // valid-looking stale tail (including a Commit) — which the next
        // append would reconnect into the live log, and recovery would then
        // replay retired records as a phantom committed transaction.
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let log = AppendLogLayout { base: 4096, capacity: 32 };
        log.append(&mut h, LogEntryKind::Redo, 100, 7, 1);
        log.append(&mut h, LogEntryKind::Redo, 108, 9, 2);
        log.append(&mut h, LogEntryKind::Commit, 0, 0, 3);
        // A reset that crashes after publishing the sentinel but before any
        // entry-zero write-back persisted.
        assert!(!log.reset_budgeted(&mut h, &mut 1), "budget of 1 covers only the sentinel");
        drop(h);
        pool.crash(0);
        let mut h = pool.handle();
        assert_eq!(log.scan_len(&mut h), 0, "in-flight reset must scan as empty");
        // Recovery re-runs the reset; stale entries must be purged for good.
        log.reset(&mut h);
        assert_eq!(h.read_u64(log.len_addr()), 0);
        log.append(&mut h, LogEntryKind::Undo, 200, 1, 9);
        assert_eq!(
            log.scan_len(&mut h),
            1,
            "a fresh append must not reconnect the retired tail"
        );
        let (k, ..) = log.read(&mut h, 1);
        assert_eq!(k, None, "entry 1 stays retired");
    }

    #[test]
    fn budgeted_reset_completes_incrementally() {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let log = AppendLogLayout { base: 4096, capacity: 8 };
        for i in 0..5 {
            log.append(&mut h, LogEntryKind::Undo, i, i, i);
        }
        assert!(!log.reset_budgeted(&mut h, &mut 3));
        // Once interrupted, a resume purges the full capacity (8 entries)
        // plus the final length publish = 9 units.
        assert!(!log.reset_budgeted(&mut h, &mut 8));
        assert!(log.reset_budgeted(&mut h, &mut 9));
        assert_eq!(log.scan_len(&mut h), 0);
        assert_eq!(h.read_u64(log.len_addr()), 0);
        drop(h);
        pool.crash(0);
        let mut h = pool.handle();
        assert_eq!(log.scan_len(&mut h), 0, "completed reset is durable");
    }

    #[test]
    #[should_panic(expected = "unencodable")]
    fn encode_pc_rejects_index_that_would_carry() {
        // index == MAX_INDEX would `+ 1` into the block field and decode as
        // the next block's instruction 0.
        let _ = encode_pc(Pc { func: FuncId(0), block: BlockId(0), index: Pc::MAX_INDEX });
    }

    #[test]
    fn stale_oversized_len_hint_is_clamped() {
        // An unfenced length hint can persist garbage; `len` must clamp it
        // so reset's prefix walk cannot index past capacity.
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let log = AppendLogLayout { base: 4096, capacity: 8 };
        h.write_u64(log.len_addr(), 10_000);
        assert_eq!(log.len(&mut h), 8);
        log.reset(&mut h); // must not panic in entry_addr
        assert_eq!(log.scan_len(&mut h), 0);
    }

    #[test]
    fn held_locks_reflect_bitmap() {
        let pool = PmemPool::new(PoolConfig::small_for_tests());
        let mut h = pool.handle();
        let l = ResumeLog::ido(4096, 4).locks();
        h.write_u64(l.slot(0), 111);
        h.write_u64(l.slot(3), 333);
        h.write_u64(l.bitmap(), 0b1001);
        assert_eq!(l.read_held(&mut h), vec![(0, 111), (3, 333)]);
    }

    #[test]
    fn log_entry_kind_roundtrip() {
        for k in [
            LogEntryKind::Undo,
            LogEntryKind::FaseBegin,
            LogEntryKind::Commit,
            LogEntryKind::LockAcquire,
            LogEntryKind::LockRelease,
            LogEntryKind::Redo,
        ] {
            assert_eq!(LogEntryKind::from_word(k as u64), Some(k));
        }
        assert_eq!(LogEntryKind::from_word(99), None);
    }
}
