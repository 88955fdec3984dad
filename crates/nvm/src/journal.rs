//! The persist-event journal: a sequenced record of every operation that
//! changes the pool's persistence state.
//!
//! Every store, non-temporal store, write-back, fence, and crash advances a
//! global *persist sequence number*, whether or not recording is enabled.
//! The sequence number is what the crash oracle uses to find "interesting"
//! crash points: two crash points are crash-equivalent iff no persist event
//! separates them, so only steps whose persist sequence advanced need to be
//! explored. When recording is enabled the journal additionally retains the
//! most recent events in a bounded ring, so a failing exploration can report
//! the journal tail leading up to the crash.
//!
//! Recording costs one counter increment per persist-relevant operation when
//! disabled (the default), and one ring push when enabled. The journal
//! belongs to one pool, and a pool has one driver, so both are plain
//! memory operations.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use crate::PAddr;

/// One persistence-state transition, with its global sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistEvent {
    /// Position in the pool-global persist-event order (starts at 0).
    pub seq: u64,
    /// What happened.
    pub kind: PersistEventKind,
}

/// The kinds of operation that change persistence state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistEventKind {
    /// A cached store: the volatile image changed and the containing line
    /// became (or stayed) dirty. `line_was_clean` records the dirty-line
    /// transition: true iff this store dirtied a previously-clean line.
    Store {
        /// Word address stored to.
        addr: PAddr,
        /// Value stored.
        value: u64,
        /// True iff the containing line was clean before this store.
        line_was_clean: bool,
    },
    /// A non-temporal store: both images updated, immediately durable.
    NtStore {
        /// Word address stored to.
        addr: PAddr,
        /// Value stored.
        value: u64,
    },
    /// A `clwb` was issued for a line (durable only after the next fence).
    Clwb {
        /// The line written back.
        line: usize,
    },
    /// An `sfence` drained the handle's pending write-backs.
    Sfence {
        /// The lines made durable by this fence, in issue order.
        lines: Vec<usize>,
    },
    /// A crash was injected.
    Crash {
        /// Name of the policy that resolved dirty lines.
        policy: &'static str,
        /// Dirty lines that survived (were evicted in time).
        evicted: usize,
        /// Dirty lines whose un-fenced contents were lost.
        dropped: usize,
    },
}

impl PersistEventKind {
    /// Short display tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            PersistEventKind::Store { .. } => "store",
            PersistEventKind::NtStore { .. } => "nt_store",
            PersistEventKind::Clwb { .. } => "clwb",
            PersistEventKind::Sfence { .. } => "sfence",
            PersistEventKind::Crash { .. } => "crash",
        }
    }
}

impl std::fmt::Display for PersistEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            PersistEventKind::Store { addr, value, line_was_clean } => write!(
                f,
                "#{} store [{addr:#x}] = {value:#x}{}",
                self.seq,
                if *line_was_clean { " (dirties line)" } else { "" }
            ),
            PersistEventKind::NtStore { addr, value } => {
                write!(f, "#{} nt_store [{addr:#x}] = {value:#x}", self.seq)
            }
            PersistEventKind::Clwb { line } => write!(f, "#{} clwb line {line}", self.seq),
            PersistEventKind::Sfence { lines } => {
                write!(f, "#{} sfence persists lines {lines:?}", self.seq)
            }
            PersistEventKind::Crash { policy, evicted, dropped } => write!(
                f,
                "#{} crash ({policy}: {evicted} evicted, {dropped} dropped)",
                self.seq
            ),
        }
    }
}

/// Pool-internal journal state: the always-on sequence counter plus the
/// optionally-recording bounded event ring.
pub(crate) struct Journal {
    seq: Cell<u64>,
    recording: Cell<bool>,
    capacity: Cell<usize>,
    ring: RefCell<VecDeque<PersistEvent>>,
    /// Persist-event number at which to simulate a mid-operation crash by
    /// panicking (`u64::MAX` = disarmed). Lets the oracle interrupt
    /// composite operations (e.g. one allocator call spanning several
    /// flush+fence sequences) at *every* flush boundary, not just between
    /// calls.
    trap_at: Cell<u64>,
}

impl Default for Journal {
    fn default() -> Self {
        Journal {
            seq: Cell::new(0),
            recording: Cell::new(false),
            capacity: Cell::new(0),
            ring: RefCell::new(VecDeque::new()),
            trap_at: Cell::new(u64::MAX),
        }
    }
}

impl Journal {
    /// Total persist events so far (counted even while not recording).
    pub(crate) fn seq(&self) -> u64 {
        self.seq.get()
    }

    /// Advances the sequence number; materializes and retains the event
    /// only when recording. `kind` is lazily built so the disabled path
    /// stays one counter increment plus two flag loads — inlined
    /// into every store/clwb/sfence, with the ring push and the trap
    /// panic outlined as cold paths.
    #[inline(always)]
    pub(crate) fn record(&self, kind: impl FnOnce() -> PersistEventKind) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        if self.recording.get() {
            self.retain(seq, kind());
        }
        if seq + 1 == self.trap_at.get() {
            self.trap(seq);
        }
    }

    /// Ring-push slow path of [`Journal::record`].
    #[cold]
    fn retain(&self, seq: u64, kind: PersistEventKind) {
        let mut ring = self.ring.borrow_mut();
        let cap = self.capacity.get();
        if cap > 0 {
            if ring.len() == cap {
                ring.pop_front();
            }
            ring.push_back(PersistEvent { seq, kind });
        }
    }

    /// Persist-trap slow path of [`Journal::record`].
    #[cold]
    fn trap(&self, seq: u64) -> ! {
        // Disarm before unwinding so the post-crash machinery (the
        // injected Crash event, recovery's own persists) doesn't re-trap.
        self.trap_at.set(u64::MAX);
        panic!("persist-trap: simulated crash at persist event {}", seq + 1);
    }

    /// Arms (or with `None` disarms) the persist trap: the operation that
    /// produces persist event number `at` (1-based) panics, simulating a
    /// crash in the middle of a composite operation. Auto-disarms on firing.
    pub(crate) fn set_trap(&self, at: Option<u64>) {
        self.trap_at.set(at.unwrap_or(u64::MAX));
    }

    /// Starts retaining events in a ring of at most `capacity` entries.
    pub(crate) fn start(&self, capacity: usize) {
        self.capacity.set(capacity.max(1));
        self.recording.set(true);
    }

    /// Stops retaining events (the sequence counter keeps advancing).
    pub(crate) fn stop(&self) {
        self.recording.set(false);
    }

    /// The most recent `n` retained events, oldest first.
    pub(crate) fn tail(&self, n: usize) -> Vec<PersistEvent> {
        let ring = self.ring.borrow();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_advances_without_recording() {
        let j = Journal::default();
        j.record(|| PersistEventKind::Clwb { line: 1 });
        j.record(|| PersistEventKind::Clwb { line: 2 });
        assert_eq!(j.seq(), 2);
        assert!(j.tail(10).is_empty(), "nothing retained while disabled");
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let j = Journal::default();
        j.start(3);
        for line in 0..5 {
            j.record(|| PersistEventKind::Clwb { line });
        }
        let tail = j.tail(10);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].seq, 2);
        assert_eq!(tail[2].seq, 4);
        assert_eq!(j.tail(2).len(), 2);
    }

    #[test]
    fn stop_retains_nothing_more_but_keeps_counting() {
        let j = Journal::default();
        j.start(8);
        j.record(|| PersistEventKind::Clwb { line: 0 });
        j.stop();
        j.record(|| PersistEventKind::Clwb { line: 1 });
        assert_eq!(j.tail(10).len(), 1, "not retained after stop");
        assert_eq!(j.seq(), 2, "still counted after stop");
    }

    #[test]
    fn trap_fires_once_at_the_armed_event() {
        let j = Journal::default();
        j.record(|| PersistEventKind::Clwb { line: 0 });
        j.set_trap(Some(3));
        j.record(|| PersistEventKind::Clwb { line: 1 }); // event 2: no trap
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            j.record(|| PersistEventKind::Clwb { line: 2 }); // event 3: trap
        }));
        assert!(r.is_err(), "trap must fire at event 3");
        assert_eq!(j.seq(), 3, "the trapped event still counts");
        j.record(|| PersistEventKind::Clwb { line: 3 }); // disarmed: no panic
        assert_eq!(j.seq(), 4);
    }

    #[test]
    fn events_display_compactly() {
        let e = PersistEvent {
            seq: 7,
            kind: PersistEventKind::Store { addr: 0x40, value: 9, line_was_clean: true },
        };
        assert_eq!(e.to_string(), "#7 store [0x40] = 0x9 (dirties line)");
        assert_eq!(e.kind.tag(), "store");
    }
}
