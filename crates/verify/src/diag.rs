//! Structured verifier diagnostics.
//!
//! Every finding names the scheme, function, and position it refers to,
//! the invariant it violates, and (where the analysis can produce one) a
//! witness path: the sequence of positions along which the violation is
//! reachable. A diagnostic is designed to be actionable on its own — the
//! message states what durable state can tear and why.

use std::fmt;

use ido_compiler::Scheme;
use ido_idem::Pos;

/// The atomicity invariant a [`Diagnostic`] refers to.
///
/// The iDO invariants (first five) come from the paper's resumption
/// contract: after a crash, recovery restores the persistent register file
/// logged at the last boundary and re-executes the open region, so every
/// store must be covered by a boundary, every live-in must be logged, and
/// nothing the region consumed may have been overwritten. The baseline
/// invariants mirror the UNDO/REDO contracts of JUSTDO, Atlas, Mnemosyne,
/// NVML, and NVThreads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Invariant {
    /// iDO: on every path from FASE entry, a region boundary executes
    /// before this NVM store (otherwise `recovery_pc` is stale when the
    /// store tears).
    BoundaryCoverage,
    /// iDO: the live-in filter logged at a boundary must cover every
    /// register and stack slot live into the region it opens.
    LiveInLogged,
    /// iDO: a memory antidependence (load, then possibly-aliasing store)
    /// crosses a region uncut — re-executing the region after a crash
    /// would read the overwritten value.
    AntidepCut,
    /// iDO: a region-input register is redefined inside its own region
    /// after being read — re-execution would consume the clobbered value.
    RegisterWarCut,
    /// iDO: a boundary advances `recovery_pc` without first persisting the
    /// region's tracked stores (log writes must be followed by
    /// persist+fence before the next region's first store).
    PersistOrdering,
    /// Baselines: a FASE store lacks its matching log record on some path
    /// (an adjacent UNDO/REDO/page-touch record for the per-store schemes,
    /// an open transaction for Mnemosyne).
    StoreLogged,
    /// JUSTDO: a register defined inside a FASE is not shadowed through to
    /// persistent memory (violating the no-register-caching rule).
    ShadowMissing,
    /// FASE exit is not marked (commit / `FaseEnd`) before the final lock
    /// release, so log retirement is not ordered before the lock becomes
    /// observable as free.
    CommitOnExit,
    /// A lock operation inside a FASE lacks its scheme's tracking record
    /// (or the FASE-entry marker for schemes that need one).
    LockRecord,
    /// The persistent log layout violates a structural invariant (probed
    /// dynamically on a scratch pool — e.g. an append-log entry straddling
    /// a cache line, which tears under single-line loss).
    LogLayout,
    /// A log maintenance step is not crash-safe (probed dynamically —
    /// e.g. log retirement that can resurrect a stale committed tail).
    RecoveryIdempotence,
    /// Lock-free family: a recoverable CAS executes without the window
    /// flush (NVTraverse's flush-on-traverse-exit), so the installed
    /// value can escape while lines it depends on are still volatile.
    FlushOnTraverseExit,
    /// Lock-free family: a recoverable CAS completes without writing
    /// back its cell line before the descriptor closes, so a completed
    /// operation's effect can be lost.
    PersistBeforeEscape,
    /// Lock-free family: a CAS is not announced by an adjacent matching
    /// persistent descriptor (or a descriptor op is orphaned), so a
    /// crash leaves an in-flight operation recovery cannot resolve
    /// taken-xor-not-taken.
    CasDetectable,
    /// iDO and JUSTDO: a CAS inside a lock-based FASE whose result is live
    /// after it. Resumption runs the CAS again, and a second run that
    /// finds the first one's durable write fails, so the FASE can take the
    /// other path.
    CasResultDead,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Invariant::BoundaryCoverage => "boundary-coverage",
            Invariant::LiveInLogged => "live-in-logged",
            Invariant::AntidepCut => "antidep-cut",
            Invariant::RegisterWarCut => "register-war-cut",
            Invariant::PersistOrdering => "persist-ordering",
            Invariant::StoreLogged => "store-logged",
            Invariant::ShadowMissing => "shadow-missing",
            Invariant::CommitOnExit => "commit-on-exit",
            Invariant::LockRecord => "lock-record",
            Invariant::LogLayout => "log-layout",
            Invariant::RecoveryIdempotence => "recovery-idempotence",
            Invariant::FlushOnTraverseExit => "flush-on-traverse-exit",
            Invariant::PersistBeforeEscape => "persist-before-escape",
            Invariant::CasDetectable => "cas-detectable",
            Invariant::CasResultDead => "cas-result-dead",
        };
        f.write_str(s)
    }
}

/// One verifier finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Scheme whose invariant is violated.
    pub scheme: Scheme,
    /// Function the violation is in (`"<runtime log layout>"` for probed
    /// layout findings, which are not tied to program code).
    pub function: String,
    /// Position of the violating instruction, when the finding anchors to
    /// one.
    pub pos: Option<Pos>,
    /// The violated invariant.
    pub invariant: Invariant,
    /// Human-readable statement of the defect.
    pub message: String,
    /// Positions along which the violation is reachable (first element is
    /// the origin — e.g. the FASE entry or the antidependent load; last is
    /// the violating instruction).
    pub witness: Vec<Pos>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.scheme, self.function)?;
        if let Some((b, i)) = self.pos {
            write!(f, "@b{}:{}", b.0, i)?;
        }
        write!(f, ": {}: {}", self.invariant, self.message)?;
        if !self.witness.is_empty() {
            let path: Vec<String> =
                self.witness.iter().map(|(b, i)| format!("b{}:{}", b.0, i)).collect();
            write!(f, " [path: {}]", path.join(" -> "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_ir::BlockId;

    #[test]
    fn diagnostic_display_includes_position_and_witness() {
        let d = Diagnostic {
            scheme: Scheme::Ido,
            function: "worker".into(),
            pos: Some((BlockId(2), 5)),
            invariant: Invariant::BoundaryCoverage,
            message: "store not covered".into(),
            witness: vec![(BlockId(0), 1), (BlockId(2), 5)],
        };
        let s = d.to_string();
        assert!(s.contains("worker@b2:5"), "{s}");
        assert!(s.contains("boundary-coverage"), "{s}");
        assert!(s.contains("b0:1 -> b2:5"), "{s}");
    }
}
