//! Mnemosyne and NVThreads: buffered writes, REDO records. Inside a
//! transaction neither writes memory: stores go to a volatile write set that
//! loads read through, and reach NVM only at commit, behind a REDO log that
//! recovery replays if committed and discards if not. Mnemosyne appends a
//! word-granular entry per store with non-temporal stores, under one global
//! lock that subsumes the program's own; NVThreads tracks dirty *pages*
//! (copy-on-write at first touch) and writes the whole log at commit.

use std::collections::{HashMap, HashSet};

use ido_ir::RtOp;
use ido_nvm::{PAddr, PmemHandle};
use ido_trace::{Category, EventKind, RecoveryPhase};

use super::{Effect, RecoverCx, RtCx, Stamp};
use crate::exec::{FaultKind, Status, VmConfig, GLOBAL_TX_LOCK};
use crate::layout::{AppendLogLayout, LogEntryKind};
use crate::locks::{Acquire, ThreadId};

/// What both schemes' threads share: the REDO log and the write set of the
/// open transaction.
pub(crate) struct TxBuffer {
    log: AppendLogLayout,
    in_tx: bool,
    /// Commit drains sort by address, so an unordered map is safe here.
    write_set: HashMap<PAddr, u64>,
    /// The last commit's write set, sorted; kept for its capacity.
    drained: Vec<(PAddr, u64)>,
}

impl TxBuffer {
    fn new(log: AppendLogLayout) -> TxBuffer {
        TxBuffer { log, in_tx: false, write_set: HashMap::new(), drained: Vec::new() }
    }

    fn begin(&mut self) {
        self.in_tx = true;
        self.write_set.clear();
    }

    #[inline]
    pub(super) fn load(&self, h: &mut PmemHandle, addr: PAddr) -> u64 {
        if self.in_tx {
            if let Some(v) = self.write_set.get(&addr) {
                // Still charge a (cheap) lookup as a cached load.
                h.advance(1);
                return *v;
            }
        }
        h.read_u64(addr)
    }

    /// Closes the transaction and drains its write set into ascending
    /// address order — the iteration order of the previous
    /// `BTreeMap<PAddr, u64>` representation — so commit-time log appends
    /// and publications stay byte-identical.
    fn end(&mut self) -> &[(PAddr, u64)] {
        self.in_tx = false;
        self.drained.clear();
        self.drained.extend(self.write_set.drain());
        self.drained.sort_unstable_by_key(|&(a, _)| a);
        &self.drained
    }
}

/// A Mnemosyne thread's volatile state.
pub(crate) struct MnemosyneThread {
    pub(super) tx: TxBuffer,
    /// Next free log entry (entries are NT-stored in place, not appended
    /// through the length word).
    cursor: usize,
    /// Set by a store that found no room for its entry and the commit
    /// record after it; the commit turns it into a `log_full` fault, so the
    /// store path needs no fault channel.
    overflowed: bool,
}

impl MnemosyneThread {
    pub(super) fn new(log: AppendLogLayout) -> MnemosyneThread {
        MnemosyneThread { tx: TxBuffer::new(log), cursor: 0, overflowed: false }
    }

    /// NT-stores the log entry at the cursor, kind word last, so a torn
    /// entry is invisible to the recovery scan.
    fn nt_entry(&self, h: &mut PmemHandle, kind: LogEntryKind, a: u64, b: u64) {
        let e = self.tx.log.entry_addr(self.cursor);
        h.begin_log();
        h.nt_store_u64(e + 8, a);
        h.nt_store_u64(e + 16, b);
        h.nt_store_u64(e + 24, 0);
        h.nt_store_u64(e, kind as u64);
        h.end_log();
        h.observe(EventKind::LogAppend, 1, 32);
    }

    #[inline]
    pub(super) fn store(&mut self, h: &mut PmemHandle, addr: PAddr, value: u64) {
        if !self.tx.in_tx {
            return h.write_u64(addr, value);
        }
        // Buffer the write; append a REDO entry if the commit record still
        // fits after it.
        if self.cursor + 1 < self.tx.log.capacity {
            self.nt_entry(h, LogEntryKind::Redo, addr as u64, value);
            self.cursor += 1;
        } else {
            self.overflowed = true;
        }
        self.tx.write_set.insert(addr, value);
    }

    fn commit(&mut self, h: &mut PmemHandle) {
        // NT-store appends are already durable; fence orders them, then the
        // commit record publishes the transaction.
        h.sfence();
        self.nt_entry(h, LogEntryKind::Commit, 0, 0);
        h.sfence();
        // Apply the write set in place (ascending address order, matching
        // the old `BTreeMap` drain) and persist it.
        for &(addr, v) in self.tx.end() {
            h.write_u64(addr, v);
            h.clwb(addr);
        }
        h.sfence();
        // Retire the log: invalidate every entry this transaction used.
        // Zeroing only entry 0 is not enough — the next transaction's
        // NT-stored redo entry re-validates slot 0, and the recovery scan
        // would then read the stale tail (old redo entries plus the old
        // commit record) as a phantom committed transaction. The crash
        // oracle found exactly that tear.
        h.begin_log();
        for i in 0..=self.cursor {
            h.nt_store_u64(self.tx.log.entry_addr(i), 0);
        }
        h.end_log();
        h.sfence();
        self.cursor = 0;
    }

    pub(super) fn rt(&mut self, cx: &mut RtCx<'_>, op: &RtOp) -> Effect {
        match op {
            RtOp::TxBegin => {
                cx.handle.advance(cx.config.lock_cost_ns);
                if cx.locks.acquire(GLOBAL_TX_LOCK, ThreadId(cx.t)) == Acquire::Blocked {
                    *cx.status = Status::Blocked(GLOBAL_TX_LOCK);
                    return Effect::Stay;
                }
                self.tx.begin();
                self.cursor = 0;
                cx.handle.observe(EventKind::LockAcquire, GLOBAL_TX_LOCK, 0);
                cx.handle.observe(EventKind::FaseEnter, 0, 0);
                Effect::Next
            }
            RtOp::TxCommit => {
                if self.overflowed {
                    let capacity = self.tx.log.capacity as u64;
                    return Effect::Fault(FaultKind::LogFull { capacity });
                }
                self.commit(cx.handle);
                cx.handle.advance(cx.config.lock_cost_ns);
                cx.handle.observe(EventKind::FaseExit, 0, 0);
                cx.handle.observe(EventKind::LockRelease, GLOBAL_TX_LOCK, 0);
                match cx.locks.release(GLOBAL_TX_LOCK, ThreadId(cx.t)) {
                    Ok(Some(next)) => Effect::Wake(next),
                    _ => Effect::Next,
                }
            }
            _ => super::foreign(op, "Mnemosyne"),
        }
    }
}

/// An NVThreads thread's volatile state.
pub(crate) struct NvthreadsThread {
    pub(super) tx: TxBuffer,
    /// Boxed: inline, the set makes `SchemeState` 144 B and a thread's
    /// context 512 B, past `thread_ctx_stays_compact`'s 496 B, and the step
    /// loop switches between threads on every hand-off.
    dirty_pages: Box<HashSet<usize>>,
}

impl NvthreadsThread {
    pub(super) fn new(log: AppendLogLayout) -> NvthreadsThread {
        NvthreadsThread { tx: TxBuffer::new(log), dirty_pages: Box::default() }
    }

    #[inline]
    pub(super) fn store(&mut self, h: &mut PmemHandle, addr: PAddr, value: u64) {
        if self.tx.in_tx {
            self.tx.write_set.insert(addr, value);
        } else {
            h.write_u64(addr, value);
        }
    }

    pub(super) fn rt(&mut self, stamp: &mut Stamp, cx: &mut RtCx<'_>, op: &RtOp) -> Effect {
        match op {
            RtOp::FaseBegin => {
                self.tx.begin();
                self.dirty_pages.clear();
            }
            RtOp::FaseEnd => {
                if let Err(fault) = self.commit(cx.handle, stamp.next(), cx.config) {
                    return Effect::Fault(fault);
                }
            }
            &RtOp::StoreRecord { target, .. } => {
                let addr = cx.frame.target_addr(target);
                self.touch(cx.handle, addr, cx.config);
            }
            _ => return super::foreign(op, "NVThreads"),
        }
        Effect::Next
    }

    fn touch(&mut self, h: &mut PmemHandle, addr: PAddr, config: &VmConfig) {
        if self.dirty_pages.insert(addr / config.page_bytes) {
            // First touch: copy-on-write page duplication (a logging tax).
            h.advance_as(Category::Log, config.page_copy_ns);
        }
    }

    fn commit(&mut self, h: &mut PmemHandle, stamp: u64, config: &VmConfig) -> Result<(), FaultKind> {
        let pages = self.dirty_pages.len() as u64;
        let log = self.tx.log;
        // Drain the write set in ascending address order for both the log
        // entries and the in-place publication.
        let writes = self.tx.end();
        // Write dirty pages to the redo log (word-precise entries for
        // replay; page-granular cost).
        h.advance_as(Category::Log, pages * config.page_log_ns);
        if !writes.is_empty() {
            let entries = writes.iter().map(|&(a, v)| (LogEntryKind::Redo, a as u64, v, stamp));
            log.append_batch(h, entries)?;
        }
        log.append(h, LogEntryKind::Commit, 0, 0, stamp)?;
        // Publish the write set in place, persist, then retire the log.
        for &(addr, v) in writes {
            h.write_u64(addr, v);
            h.clwb(addr);
        }
        h.sfence();
        log.reset(h);
        self.dirty_pages.clear();
        Ok(())
    }
}

/// Mnemosyne / NVThreads recovery: replay committed REDO logs; discard
/// uncommitted ones. The budget counts persist operations: each replay
/// write-back and each step of log retirement; `None` (mid-protocol,
/// unfenced) when it runs out.
pub(super) fn recover(cx: &mut RecoverCx<'_>) -> Option<()> {
    for areas in cx.threads {
        let log = areas.append_log(cx.vm_config.log_entries);
        let (n, committed) = cx.phase(RecoveryPhase::Scan, |cx| {
            let n = log.scan_len(cx.h);
            cx.report.log_entries_scanned += n;
            let mut committed = false;
            for i in 0..n {
                let (kind, ..) = log.read(cx.h, i);
                cx.h.advance(cx.rc.entry_scan_ns);
                committed |= kind == Some(LogEntryKind::Commit);
            }
            Some((n, committed))
        })?;
        if n == 0 {
            continue;
        }
        cx.phase(RecoveryPhase::Resume, |cx| {
            if !committed {
                cx.report.rolled_back += 1;
                return Some(());
            }
            for i in 0..n {
                let (kind, a, b, _) = log.read(cx.h, i);
                if kind == Some(LogEntryKind::Redo) {
                    cx.spend()?; // crash mid-replay
                    cx.h.write_u64(a as PAddr, b);
                    cx.h.clwb(a as PAddr);
                }
            }
            cx.h.sfence();
            cx.report.replayed += 1;
            Some(())
        })?;
        // `None`: crash mid-retirement.
        cx.phase(RecoveryPhase::Release, |cx| log.reset_budgeted(cx.h, cx.budget).then_some(()))?;
    }
    cx.finish(cx.h.clock_ns())
}
