//! The failure-atomicity schemes compared in the paper's evaluation.

/// A failure-atomicity scheme (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Uninstrumented, crash-vulnerable code — the performance baseline.
    Origin,
    /// iDO logging: recovery via resumption at idempotent-region
    /// granularity (the paper's contribution).
    Ido,
    /// JUSTDO logging: recovery via resumption with a log entry per store.
    JustDo,
    /// Atlas: lock-inferred FASEs with per-store UNDO logging and
    /// cross-FASE dependence tracking.
    Atlas,
    /// Mnemosyne: REDO-logged durable transactions (FASEs treated as
    /// transactions on a single global lock, as in the paper).
    Mnemosyne,
    /// NVML: programmer-annotated object-granularity UNDO logging.
    Nvml,
    /// NVThreads: page-granularity REDO logging at lock release.
    Nvthreads,
    /// NVTraverse-style lock-free persistence: traverse without flushing,
    /// flush the touched window only on exiting the traversal phase, then
    /// perform a recoverable (detectable) CAS as the critical write. Not
    /// part of the paper's lock-delineated evaluation matrix; a rival
    /// scheme family from the retrieved related work.
    Nvtraverse,
    /// Eager lock-free persistence: every store (and the CAS cell) is
    /// written back and fenced immediately — the flush-everything
    /// contrast point for NVTraverse's deferred-flush rule, still using
    /// the same detectable-CAS descriptors.
    LfEager,
}

impl Scheme {
    /// All schemes, in the order the paper's figures present them.
    pub const ALL: [Scheme; 7] = [
        Scheme::Origin,
        Scheme::Ido,
        Scheme::Atlas,
        Scheme::Mnemosyne,
        Scheme::JustDo,
        Scheme::Nvml,
        Scheme::Nvthreads,
    ];

    /// The lock-free scheme family (kept out of [`Scheme::ALL`]: the
    /// paper's figures, lint matrix, and goldens enumerate only the seven
    /// lock-delineated schemes; lock-free workloads opt in explicitly).
    pub const LOCKFREE: [Scheme; 2] = [Scheme::Nvtraverse, Scheme::LfEager];

    /// This scheme's row of the table: what Table II says about it and what
    /// the instrumentation pass weaves in for it.
    pub const fn info(self) -> &'static SchemeInfo {
        match self {
            Scheme::Origin => &ORIGIN,
            Scheme::Ido => &IDO,
            Scheme::JustDo => &JUSTDO,
            Scheme::Atlas => &ATLAS,
            Scheme::Mnemosyne => &MNEMOSYNE,
            Scheme::Nvml => &NVML,
            Scheme::Nvthreads => &NVTHREADS,
            Scheme::Nvtraverse => &NVTRAVERSE,
            Scheme::LfEager => &LF_EAGER,
        }
    }

    /// The scheme a name spells, ignoring case, `_` and `-`: `iDO`, `ido`,
    /// `JUSTDO`, `lf_eager` and `LF-Eager` all resolve.
    pub fn from_name(s: &str) -> Option<Scheme> {
        let norm = |s: &str| -> String {
            s.chars().filter(|c| !matches!(c, '_' | '-')).flat_map(char::to_lowercase).collect()
        };
        let want = norm(s);
        Scheme::ALL.into_iter().chain(Scheme::LOCKFREE).find(|s| norm(s.name()) == want)
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// True for schemes that recover by resuming interrupted FASEs forward
    /// (rather than rolling back or replaying).
    pub fn recovers_by_resumption(self) -> bool {
        self.info().recovery == Recovery::Resumption
    }

    /// True for schemes that must track cross-FASE dependences (Table II).
    pub fn needs_dependence_tracking(self) -> bool {
        self.info().dependence_tracking
    }

    /// True for the lock-free persistence family ([`Scheme::LOCKFREE`]):
    /// no lock-delineated FASEs; durability hangs off the recoverable-CAS
    /// protocol instead of region or store logs.
    pub fn is_lockfree(self) -> bool {
        self.info().cas_protocol
    }
}

/// How a scheme recovers (Table II's "Recovery" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// No recovery: a crash leaves whatever reached NVM.
    None,
    /// Interrupted FASEs run forward to completion.
    Resumption,
    /// Uncommitted FASEs are rolled back from an UNDO log.
    Undo,
    /// Committed transactions are replayed from a REDO log.
    Redo,
    /// Each in-flight CAS descriptor is resolved to taken xor not-taken.
    CasResolve,
}

impl std::fmt::Display for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            Recovery::None => "(none)",
            Recovery::Resumption => "Resumption",
            Recovery::Undo => "UNDO",
            Recovery::Redo => "REDO",
            Recovery::CasResolve => "CAS resolve",
        })
    }
}

/// Which pair of runtime ops brackets a FASE.
#[derive(Debug, Clone, Copy)]
pub enum Marker {
    /// `rt.fase_begin` / `rt.fase_end`.
    Fase,
    /// `rt.tx_begin` / `rt.tx_commit`: the FASE is a durable transaction.
    Tx,
}

/// One scheme's row: Table II's five columns, then what the instrumentation
/// pass lowers by. `ido-verify` deliberately does not read the lowering
/// half — its obligations are a second opinion on it.
#[derive(Debug, Clone, Copy)]
pub struct SchemeInfo {
    /// Display name matching the paper.
    pub name: &'static str,
    /// Table II: what delineates a failure-atomic region.
    pub region_semantics: &'static str,
    /// Table II: recovery method.
    pub recovery: Recovery,
    /// Table II: logging granularity.
    pub logging_granularity: &'static str,
    /// Table II: must track cross-FASE dependences.
    pub dependence_tracking: bool,
    /// Table II: may keep FASE state in registers and caches.
    pub transient_caches: bool,
    /// The ops bracketing each FASE; `None` leaves FASEs unmarked.
    pub marker: Option<Marker>,
    /// `rt.lock_acquired` after every lock, `rt.lock_releasing` before
    /// every unlock.
    pub lock_records: bool,
    /// `rt.store_record` before every FASE store.
    pub store_records: bool,
    /// `rt.justdo_shadow` after every register definition inside a FASE.
    pub shadows_defs: bool,
    /// Idempotent region formation, and `rt.ido_boundary` at every region
    /// entry inside a FASE.
    pub region_boundaries: bool,
    /// The flush-window / prepare / publish protocol around every `cas`,
    /// instead of any FASE lowering.
    pub cas_protocol: bool,
}

/// A row's Table II half, in the paper's column order, with nothing lowered.
const fn table2(
    name: &'static str,
    region_semantics: &'static str,
    recovery: Recovery,
    logging_granularity: &'static str,
    dependence_tracking: bool,
    transient_caches: bool,
) -> SchemeInfo {
    SchemeInfo {
        name,
        region_semantics,
        recovery,
        logging_granularity,
        dependence_tracking,
        transient_caches,
        marker: None,
        lock_records: false,
        store_records: false,
        shadows_defs: false,
        region_boundaries: false,
        cas_protocol: false,
    }
}

// The table. Each row is Table II's line (the lock-free pair is outside the
// paper's table: no lock-delineated FASEs at all — durability hangs off the
// recoverable-CAS descriptor, resolved, not resumed, at recovery), then what
// the pass adds for it.
const INFERRED: &str = "Lock-inferred FASE";
const FASE: Option<Marker> = Some(Marker::Fase);
const ORIGIN: SchemeInfo = table2("Origin", "(none)", Recovery::None, "(none)", false, true);
const IDO: SchemeInfo = SchemeInfo {
    marker: FASE, lock_records: true, region_boundaries: true,
    ..table2("iDO", INFERRED, Recovery::Resumption, "Idempotent Region", false, true)
};
const JUSTDO: SchemeInfo = SchemeInfo {
    marker: FASE, lock_records: true, store_records: true, shadows_defs: true,
    ..table2("JUSTDO", INFERRED, Recovery::Resumption, "Store", false, false)
};
const ATLAS: SchemeInfo = SchemeInfo {
    marker: FASE, lock_records: true, store_records: true,
    ..table2("Atlas", INFERRED, Recovery::Undo, "Store", true, true)
};
const MNEMOSYNE: SchemeInfo = SchemeInfo {
    marker: Some(Marker::Tx),
    ..table2("Mnemosyne", "C++ Transactions", Recovery::Redo, "Store", false, true)
};
const NVML: SchemeInfo = SchemeInfo {
    marker: FASE, store_records: true,
    ..table2("NVML", "Programmer Delineated", Recovery::Undo, "Object", false, true)
};
const NVTHREADS: SchemeInfo = SchemeInfo {
    marker: FASE, store_records: true,
    ..table2("NVThreads", INFERRED, Recovery::Redo, "Page", true, true)
};
const NVTRAVERSE: SchemeInfo = SchemeInfo {
    cas_protocol: true,
    ..table2("NVTraverse", "Lock-free op", Recovery::CasResolve, "Cache line", false, true)
};
const LF_EAGER: SchemeInfo = SchemeInfo {
    cas_protocol: true,
    ..table2("LF-Eager", "Lock-free op", Recovery::CasResolve, "Store", false, true)
};

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut names: Vec<_> =
            Scheme::ALL.iter().chain(Scheme::LOCKFREE.iter()).map(|s| s.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Scheme::ALL.len() + Scheme::LOCKFREE.len());
    }

    #[test]
    fn lockfree_family_is_disjoint_from_the_paper_matrix() {
        for s in Scheme::LOCKFREE {
            assert!(s.is_lockfree());
            assert!(!s.recovers_by_resumption());
            assert!(!Scheme::ALL.contains(&s));
        }
        for s in Scheme::ALL {
            assert!(!s.is_lockfree());
        }
    }

    #[test]
    fn every_name_resolves_back_to_its_scheme() {
        for s in Scheme::ALL.into_iter().chain(Scheme::LOCKFREE) {
            assert_eq!(Scheme::from_name(s.name()), Some(s));
        }
        assert_eq!(Scheme::from_name("lf_eager"), Some(Scheme::LfEager));
        assert_eq!(Scheme::from_name("JustDo"), Some(Scheme::JustDo));
        assert_eq!(Scheme::from_name("undo"), None);
        assert_eq!(Scheme::from_name(""), None);
    }

    /// The predicates' truth table, written out here rather than read from
    /// the rows it holds them to.
    #[test]
    fn derived_predicates_keep_their_truth_table() {
        use Scheme::*;
        for s in Scheme::ALL.into_iter().chain(Scheme::LOCKFREE) {
            assert_eq!(s.recovers_by_resumption(), matches!(s, Ido | JustDo), "{s}");
            assert_eq!(s.needs_dependence_tracking(), matches!(s, Atlas | Nvthreads), "{s}");
            assert_eq!(s.is_lockfree(), matches!(s, Nvtraverse | LfEager), "{s}");
            assert_eq!(s.info().recovery == Recovery::None, s == Origin, "{s}");
        }
    }

    #[test]
    fn table_two_properties() {
        assert!(Scheme::Ido.recovers_by_resumption());
        assert!(Scheme::JustDo.recovers_by_resumption());
        assert!(!Scheme::Atlas.recovers_by_resumption());
        assert!(Scheme::Atlas.needs_dependence_tracking());
        assert!(!Scheme::Ido.needs_dependence_tracking());
        assert!(!Scheme::Mnemosyne.needs_dependence_tracking());
    }
}
