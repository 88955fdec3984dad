//! Atlas and NVML: UNDO records in the append log. Both store in place,
//! log the old value first, defer a FASE's write-backs to its end, and
//! recover by rolling uncommitted FASEs back. Atlas logs 32 bytes per store
//! plus a record per lock operation (serialized on its runtime's shared
//! dependence tables) and must roll back to a globally consistent cut; NVML
//! snapshots whole objects once per FASE and undoes each thread's
//! uncommitted suffix.

use std::collections::{HashMap, HashSet};

use ido_ir::RtOp;
use ido_nvm::{PAddr, PmemHandle};
use ido_trace::{Category, RecoveryPhase};

use super::{flush_stores, Effect, RecoverCx, RtCx, Stamp};
use crate::exec::VmConfig;
use crate::layout::{AppendLogLayout, LogEntryKind};

/// An Atlas or NVML thread's volatile state.
pub(crate) struct UndoThread {
    /// Which of the two it serves: Atlas records lock operations and logs
    /// per store, NVML snapshots per object.
    atlas: bool,
    log: AppendLogLayout,
    /// The FASE's stores, written back at its end.
    fase_stores: Vec<PAddr>,
    /// NVML: objects already snapshotted in this FASE.
    nvml_added: HashSet<PAddr>,
}

impl UndoThread {
    pub(super) fn new(atlas: bool, log: AppendLogLayout) -> UndoThread {
        UndoThread { atlas, log, fase_stores: Vec::new(), nvml_added: HashSet::new() }
    }

    #[inline]
    pub(super) fn store(&mut self, h: &mut PmemHandle, addr: PAddr, value: u64) {
        h.write_u64(addr, value);
        self.fase_stores.push(addr);
    }
}

/// What an Atlas or NVML VM keeps for all its threads.
pub(crate) struct Runtime {
    stamp: Stamp,
    /// Atlas: the stamp of each lock's latest release — the happens-before
    /// edge its next acquirer records.
    lock_release_stamps: HashMap<u64, u64>,
    /// DES availability time of Atlas's internal runtime synchronization
    /// (global dependence-tracking tables). Lock-tracking events serialize
    /// on it, which is what saturates Atlas on scalable structures
    /// (Section V-B: "Atlas and Mnemosyne quickly saturate their runtime's
    /// synchronization").
    rt_available: u64,
}

impl Runtime {
    pub(super) fn new() -> Runtime {
        Runtime { stamp: Stamp(1), lock_release_stamps: HashMap::new(), rt_available: 0 }
    }
}

impl UndoThread {
    pub(super) fn rt(&mut self, shared: &mut Runtime, cx: &mut RtCx<'_>, op: &RtOp) -> Effect {
        let (th, config) = (&mut *cx.th, cx.config);
        match op {
            RtOp::FaseBegin => {
                self.fase_stores.clear();
                self.nvml_added.clear();
                self.log.append(&mut th.handle, LogEntryKind::FaseBegin, 0, 0, shared.stamp.next());
            }
            RtOp::FaseEnd => {
                let stamp = shared.stamp.next();
                // UNDO systems defer the FASE's writes-back to here.
                flush_stores(&mut th.handle, &mut self.fase_stores);
                th.handle.sfence();
                self.log.append(&mut th.handle, LogEntryKind::Commit, 0, 0, stamp);
            }
            &RtOp::StoreRecord { target, .. } => {
                let addr = th.target_addr(target);
                if self.atlas {
                    self.atlas_undo(shared, &mut th.handle, config, addr);
                } else {
                    self.nvml_tx_add(shared, &mut th.handle, addr);
                }
            }
            &RtOp::LockAcquired { lock } if self.atlas => {
                let l = th.eval(lock);
                let observed = *shared.lock_release_stamps.get(&l).unwrap_or(&0);
                let stamp = shared.stamp.next();
                let record = (LogEntryKind::LockAcquire, l, observed, stamp);
                self.atlas_lock_record(shared, &mut th.handle, config, record);
            }
            &RtOp::LockReleasing { lock } if self.atlas => {
                let l = th.eval(lock);
                let stamp = shared.stamp.next();
                shared.lock_release_stamps.insert(l, stamp);
                let record = (LogEntryKind::LockRelease, l, stamp, stamp);
                self.atlas_lock_record(shared, &mut th.handle, config, record);
            }
            _ => return super::foreign(op, if self.atlas { "Atlas" } else { "NVML" }),
        }
        Effect::Next
    }

    fn atlas_undo(&self, shared: &mut Runtime, h: &mut PmemHandle, config: &VmConfig, addr: PAddr) {
        let stamp = shared.stamp.next();
        h.advance_as(Category::Log, config.atlas_tracking_ns);
        let old = h.read_u64(addr);
        self.log.append(h, LogEntryKind::Undo, addr as u64, old, stamp);
    }

    /// A lock-tracking event: serialize on Atlas's internal runtime
    /// synchronization (the thread waits until the shared tracking tables
    /// are free and occupies them for the tracking duration), pay the
    /// dependence bookkeeping, append the `(kind, a, b, stamp)` record.
    fn atlas_lock_record(
        &self,
        shared: &mut Runtime,
        h: &mut PmemHandle,
        config: &VmConfig,
        (kind, a, b, stamp): (LogEntryKind, u64, u64, u64),
    ) {
        let now = h.clock_ns().max(shared.rt_available);
        h.set_clock_ns(now);
        shared.rt_available = now + config.atlas_rt_serial_ns;
        h.advance_as(Category::Log, config.atlas_tracking_ns);
        self.log.append(h, kind, a, b, stamp);
    }

    fn nvml_tx_add(&mut self, shared: &mut Runtime, h: &mut PmemHandle, addr: PAddr) {
        // Object granularity: snapshot the containing cache line once per
        // FASE (`TX_ADD` deduplicates by range).
        let obj = addr & !63;
        if !self.nvml_added.insert(obj) {
            return;
        }
        let stamp = shared.stamp.next();
        let mut entries = Vec::with_capacity(8);
        for w in 0..8 {
            let a = obj + w * 8;
            entries.push((LogEntryKind::Undo, a as u64, h.read_u64(a), stamp));
        }
        self.log.append_batch(h, &entries); // one fence per object
    }
}

#[derive(Debug, Default)]
struct FaseRec {
    committed: bool,
    undo: Vec<(u64, u64, u64)>, // (addr, old, stamp)
    acquires: Vec<(u64, u64)>,  // (lock, observed release stamp)
    releases: Vec<(u64, u64)>,  // (lock, stamp)
}

/// Atlas recovery: scan every thread's UNDO log, compute the globally
/// consistent cut by following the happens-before edges recorded at lock
/// operations (an interrupted FASE invalidates every FASE that later
/// acquired a lock it released), and roll back all invalidated FASEs in
/// reverse timestamp order — the work that makes Atlas recovery time grow
/// with log volume (Table I). The budget counts persist operations: each
/// rollback write-back and each step of log retirement; `None`
/// (mid-protocol, unfenced) when it runs out.
pub(super) fn recover_atlas(cx: &mut RecoverCx<'_>) -> Option<()> {
    let capacity = cx.vm_config.log_entries;
    // 1. Scan every thread's log into FASE records.
    let fases = cx.phase(RecoveryPhase::Scan, |cx| {
        let mut fases: Vec<FaseRec> = Vec::new();
        for areas in cx.threads {
            let log = areas.append_log(capacity);
            let n = log.scan_len(cx.h);
            cx.report.log_entries_scanned += n;
            let mut cur: Option<FaseRec> = None;
            for i in 0..n {
                let (kind, a, b, stamp) = log.read(cx.h, i);
                cx.h.advance(cx.rc.entry_scan_ns);
                match (kind, cur.as_mut()) {
                    // A record still open here was interrupted before commit.
                    (Some(LogEntryKind::FaseBegin), _) => {
                        fases.extend(cur.replace(FaseRec::default()));
                    }
                    (Some(LogEntryKind::Undo), Some(f)) => f.undo.push((a, b, stamp)),
                    (Some(LogEntryKind::LockAcquire), Some(f)) => f.acquires.push((a, b)),
                    (Some(LogEntryKind::LockRelease), Some(f)) => f.releases.push((a, b)),
                    (Some(LogEntryKind::Commit), Some(f)) => {
                        f.committed = true;
                        fases.extend(cur.take());
                    }
                    _ => {}
                }
            }
            fases.extend(cur);
        }
        Some(fases)
    })?;

    cx.phase(RecoveryPhase::Resume, |cx| {
        // 2. Compute the invalidated set: interrupted FASEs, plus (to a
        // fixed point) any FASE that acquired a lock whose observed release
        // stamp was produced by an invalidated FASE.
        let mut release_owner: HashMap<(u64, u64), usize> = HashMap::new();
        for (fi, f) in fases.iter().enumerate() {
            for &(lock, stamp) in &f.releases {
                release_owner.insert((lock, stamp), fi);
            }
        }
        let mut undone: Vec<bool> = fases.iter().map(|f| !f.committed).collect();
        loop {
            let mut changed = false;
            for fi in 0..fases.len() {
                if undone[fi] {
                    continue;
                }
                for &(lock, observed) in &fases[fi].acquires {
                    if observed == 0 {
                        continue;
                    }
                    if let Some(&owner) = release_owner.get(&(lock, observed)) {
                        if undone[owner] {
                            undone[fi] = true;
                            changed = true;
                            break;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // 3. Roll back all invalidated FASEs' stores in reverse stamp order.
        let mut rollback: Vec<(u64, u64, u64)> = Vec::new();
        for (fi, f) in fases.iter().enumerate() {
            if undone[fi] {
                rollback.extend(f.undo.iter().copied());
            }
        }
        rollback.sort_by_key(|&(_, _, stamp)| std::cmp::Reverse(stamp));
        for &(addr, old, _) in &rollback {
            cx.spend()?; // crash mid-rollback: writes so far unfenced
            cx.h.write_u64(addr as PAddr, old);
            cx.h.clwb(addr as PAddr);
        }
        cx.h.sfence();
        cx.report.rolled_back = undone.iter().filter(|u| **u).count();
        cx.report.undo_entries = rollback.len();
        Some(())
    })?;

    // 4. Retire the logs (`None`: crash mid-retirement).
    cx.phase(RecoveryPhase::Release, |cx| {
        cx.threads.iter().try_for_each(|areas| {
            areas.append_log(capacity).reset_budgeted(cx.h, cx.budget).then_some(())
        })
    })?;
    cx.finish(cx.h.clock_ns())
}

/// NVML recovery: undo each thread's uncommitted trailing transaction.
/// Budgeted like [`recover_atlas`].
pub(super) fn recover_nvml(cx: &mut RecoverCx<'_>) -> Option<()> {
    for areas in cx.threads {
        let log = areas.append_log(cx.vm_config.log_entries);
        // Per-log segmented phases: the durations of all segments of one
        // phase sum to that phase's total recovery time.
        let (n, suffix_start) = cx.phase(RecoveryPhase::Scan, |cx| {
            let n = log.scan_len(cx.h);
            cx.report.log_entries_scanned += n;
            // Find the start of the uncommitted suffix.
            let mut suffix_start = 0;
            for i in 0..n {
                let (kind, ..) = log.read(cx.h, i);
                cx.h.advance(cx.rc.entry_scan_ns);
                if kind == Some(LogEntryKind::Commit) {
                    suffix_start = i + 1;
                }
            }
            Some((n, suffix_start))
        })?;
        cx.phase(RecoveryPhase::Resume, |cx| {
            let before = cx.report.undo_entries;
            for i in (suffix_start..n).rev() {
                let (kind, a, b, _) = log.read(cx.h, i);
                if kind == Some(LogEntryKind::Undo) {
                    cx.spend()?; // crash mid-rollback
                    cx.h.write_u64(a as PAddr, b);
                    cx.h.clwb(a as PAddr);
                    cx.report.undo_entries += 1;
                }
            }
            if cx.report.undo_entries > before {
                cx.h.sfence();
                cx.report.rolled_back += 1;
            }
            Some(())
        })?;
        // `None`: crash mid-retirement.
        cx.phase(RecoveryPhase::Release, |cx| log.reset_budgeted(cx.h, cx.budget).then_some(()))?;
    }
    cx.finish(cx.h.clock_ns())
}
