//! The runtime model the static verifier checks code against.
//!
//! The instrumented IR only *names* runtime operations (`IdoBoundary`,
//! `StoreRecord`, ...); what those operations persist, and in which
//! order, is decided by the VM configuration and the persistent log
//! layouts. [`RuntimeModel`] captures the facts the static analysis needs:
//!
//! - configuration-dependent persist ordering (the `ido_bug_*` injection
//!   flags and correctness-neutral ablation fences), read straight from
//!   the [`VmConfig`] the program will run under, and
//! - structural log-layout invariants, *probed dynamically* on a scratch
//!   pool at model construction: append-log entries must not straddle
//!   cache lines (single-line loss would tear an entry), and interrupted
//!   or completed log retirement must never resurrect a stale tail. These
//!   probes re-flag, mechanically, the two seed bugs the crash oracle
//!   originally found (entry straddling; partial retirement zeroing) if
//!   they are ever reintroduced.

use ido_compiler::Scheme;
use ido_nvm::{PmemPool, PoolConfig, CACHE_LINE};
use ido_vm::layout::{AppendLogLayout, LogEntryKind, APPEND_ENTRY_BYTES};
use ido_vm::VmConfig;

use crate::diag::{Diagnostic, Invariant};

/// Facts about the runtime that the static checks consume.
#[derive(Debug, Clone)]
pub struct RuntimeModel {
    /// True when each iDO boundary writes back and fences the region's
    /// tracked stores *before* durably advancing `recovery_pc` past them
    /// (the paper's persist-ordering contract). False under the
    /// `ido_bug_skip_store_flush` injection, which the verifier must flag
    /// as a [`Invariant::PersistOrdering`] violation.
    pub boundary_flushes_region_stores: bool,
    /// True when the `recovery_pc` update is fenced eagerly inside the
    /// boundary (ablation). Correctness-neutral: the deferred variant
    /// fences before the next region's first store, which is equally
    /// sound, so this field produces no diagnostics.
    pub eager_recovery_pc_fence: bool,
    /// Lock-free family: true when `LfFlushWindow` actually writes back
    /// and fences the tracked window (false under
    /// `lf_bug_skip_window_flush`, which the verifier flags as
    /// [`Invariant::FlushOnTraverseExit`] for NVTraverse).
    pub lf_window_flushed: bool,
    /// Lock-free family: true when `LfCasPublish` writes back the CAS
    /// cell's line before durably closing the descriptor (false under
    /// `lf_bug_skip_publish`, flagged as
    /// [`Invariant::PersistBeforeEscape`]).
    pub lf_publish_flushes_cell: bool,
    /// Violations found by the dynamic layout probes, materialized into
    /// [`Diagnostic`]s per scheme by [`RuntimeModel::layout_diagnostics`].
    pub layout_violations: Vec<(Invariant, String)>,
}

impl RuntimeModel {
    /// Builds the model for programs that will run under `cfg`, running
    /// the layout probes on a scratch pool.
    pub fn from_config(cfg: &VmConfig) -> Self {
        RuntimeModel {
            boundary_flushes_region_stores: !cfg.ido_bug_skip_store_flush,
            eager_recovery_pc_fence: cfg.ido_eager_step2_fence,
            lf_window_flushed: !cfg.lf_bug_skip_window_flush,
            lf_publish_flushes_cell: !cfg.lf_bug_skip_publish,
            layout_violations: probe_layouts(),
        }
    }

    /// The model for the default test configuration.
    pub fn for_tests() -> Self {
        RuntimeModel::from_config(&VmConfig::for_tests())
    }

    /// Probed layout violations as diagnostics, for the schemes whose
    /// recovery consumes the append log (Atlas, Mnemosyne, NVML,
    /// NVThreads). iDO and JUSTDO recovery read fixed-slot logs that have
    /// no variable-length retirement protocol.
    pub fn layout_diagnostics(&self, scheme: Scheme) -> Vec<Diagnostic> {
        let uses_append_log = matches!(
            scheme,
            Scheme::Atlas | Scheme::Mnemosyne | Scheme::Nvml | Scheme::Nvthreads
        );
        if !uses_append_log {
            return Vec::new();
        }
        self.layout_violations
            .iter()
            .map(|(invariant, message)| Diagnostic {
                scheme,
                function: "<runtime log layout>".into(),
                pos: None,
                invariant: *invariant,
                message: message.clone(),
                witness: Vec::new(),
            })
            .collect()
    }
}

/// Runs the structural probes on a scratch pool and reports violations.
fn probe_layouts() -> Vec<(Invariant, String)> {
    let mut violations = Vec::new();
    let pool = PmemPool::new(PoolConfig { size: 1 << 16, ..PoolConfig::default() });
    let mut h = pool.handle();
    // A worst-case 8-aligned base: the allocator guarantees only 8-byte
    // alignment, so the layout itself must keep entries on single lines
    // (that internal round-up is the PR-1 fix; if it regresses, probe 1
    // fires).
    let log = AppendLogLayout { base: 4096 + 8, capacity: 8 };

    // Probe 1: no entry may straddle a cache line. An entry that spans two
    // lines can persist half under a crash that loses one line — the
    // original seed bug behind torn Atlas UNDO records.
    for i in 0..log.capacity {
        let addr = log.entry_addr(i);
        if addr / CACHE_LINE != (addr + APPEND_ENTRY_BYTES - 1) / CACHE_LINE {
            violations.push((
                Invariant::LogLayout,
                format!(
                    "append-log entry {i} straddles a cache line \
                     (addr {addr:#x}, {APPEND_ENTRY_BYTES} bytes): \
                     single-line loss tears the entry"
                ),
            ));
            break;
        }
    }

    // Probe 2: completed retirement must clear the *whole* used prefix.
    // If reset only zeroes a prefix of the used entries, the next append
    // reconnects the stale tail — a phantom committed transaction on the
    // following recovery (the original Mnemosyne retirement seed bug).
    log.append(&mut h, LogEntryKind::Redo, 0x10, 0x11, 1).expect("the probe log has room");
    log.append(&mut h, LogEntryKind::Commit, 0x20, 0x21, 2).expect("the probe log has room");
    log.reset(&mut h);
    log.append(&mut h, LogEntryKind::Redo, 0x30, 0x31, 3).expect("the probe log has room");
    let recovered = log.scan_len(&mut h);
    if recovered != 1 {
        violations.push((
            Invariant::RecoveryIdempotence,
            format!(
                "log retirement left a stale tail: after reset and one \
                 append, scan recovers {recovered} entries (want 1) — a \
                 stale commit record can resurrect a retired transaction"
            ),
        ));
    }
    log.reset(&mut h);

    // Probe 3: retirement interrupted after its first persist must leave
    // the log *empty* to a scanner, not expose the half-cleared contents.
    log.append(&mut h, LogEntryKind::Commit, 0x40, 0x41, 4).expect("the probe log has room");
    let mut budget = 1u64; // enough to publish intent, not to clear
    let complete = log.reset_budgeted(&mut h, &mut budget);
    if !complete {
        let seen = log.scan_len(&mut h);
        if seen != 0 || log.len(&mut h) != 0 {
            violations.push((
                Invariant::RecoveryIdempotence,
                format!(
                    "interrupted log retirement exposes {seen} retired \
                     entries to the next recovery instead of an empty log"
                ),
            ));
        }
        // Finishing the interrupted reset must also converge to empty.
        log.reset(&mut h);
    }
    if log.scan_len(&mut h) != 0 {
        violations.push((
            Invariant::RecoveryIdempotence,
            "log retirement did not converge to an empty log".to_string(),
        ));
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_layouts_pass_all_probes() {
        let model = RuntimeModel::for_tests();
        assert!(
            model.layout_violations.is_empty(),
            "layout probes found violations: {:?}",
            model.layout_violations
        );
        assert!(model.boundary_flushes_region_stores);
    }

    #[test]
    fn injected_skip_store_flush_shows_in_model() {
        let mut cfg = VmConfig::for_tests();
        cfg.ido_bug_skip_store_flush = true;
        let model = RuntimeModel::from_config(&cfg);
        assert!(!model.boundary_flushes_region_stores);
    }

    /// Re-flags PR-1 seed bug #1 if reintroduced: the pre-fix layout
    /// placed entries at `base + 64 + i*32` with no alignment round-up, so
    /// an 8-aligned base (which the allocator may hand out, and which the
    /// probe now uses) puts every entry across two cache lines. The
    /// straddle condition catches exactly that formula.
    #[test]
    fn probe_condition_catches_unaligned_entry_carving() {
        let base = 4096 + 8; // worst-case allocator alignment
        let prefix_entry_addr = |i: usize| base + 64 + i * APPEND_ENTRY_BYTES;
        let straddles = (0..8).any(|i| {
            let a = prefix_entry_addr(i);
            a / CACHE_LINE != (a + APPEND_ENTRY_BYTES - 1) / CACHE_LINE
        });
        assert!(straddles, "the pre-fix formula must trip the straddle condition");
        // ...and the fixed layout keeps entries on single lines from the
        // same worst-case base, so probe 1 passes on the current tree.
        let log = AppendLogLayout { base, capacity: 8 };
        for i in 0..log.capacity {
            let a = log.entry_addr(i);
            assert_eq!(
                a / CACHE_LINE,
                (a + APPEND_ENTRY_BYTES - 1) / CACHE_LINE,
                "fixed layout must not straddle (entry {i})"
            );
        }
    }

    /// Re-flags PR-1 seed bug #2 if reintroduced: a retirement that zeroes
    /// only the first entry (what the old `reset` did) leaves the stale
    /// tail reconnectable, and probe 2's scan condition catches it.
    #[test]
    fn probe_condition_catches_prefix_only_retirement() {
        let pool = PmemPool::new(PoolConfig { size: 1 << 16, ..PoolConfig::default() });
        let mut h = pool.handle();
        let log = AppendLogLayout { base: 4096, capacity: 8 };
        log.append(&mut h, LogEntryKind::Redo, 0x10, 0x11, 1).expect("the probe log has room");
        log.append(&mut h, LogEntryKind::Commit, 0x20, 0x21, 2).expect("the probe log has room");
        // Emulate the buggy reset: clear the len word and entry 0 only.
        h.write_u64(log.entry_addr(0), 0);
        h.write_u64(log.len_addr(), 0);
        // The next append reconnects the stale commit record...
        log.append(&mut h, LogEntryKind::Redo, 0x30, 0x31, 3).expect("the probe log has room");
        let recovered = log.scan_len(&mut h);
        // ...which is exactly the condition probe 2 reports on.
        assert_ne!(recovered, 1, "prefix-only retirement must trip the probe");
    }

    #[test]
    fn layout_diagnostics_only_for_append_log_schemes() {
        let mut model = RuntimeModel::for_tests();
        model
            .layout_violations
            .push((Invariant::LogLayout, "synthetic".into()));
        assert_eq!(model.layout_diagnostics(Scheme::Atlas).len(), 1);
        assert_eq!(model.layout_diagnostics(Scheme::Mnemosyne).len(), 1);
        assert!(model.layout_diagnostics(Scheme::Ido).is_empty());
        assert!(model.layout_diagnostics(Scheme::Origin).is_empty());
    }
}
