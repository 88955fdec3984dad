//! The persistent per-thread CAS descriptor table and its recovery
//! resolution. The words defined here are read and written by this crate
//! only: the three protocol steps in [`crate::rcas`] and the resolution
//! below, which the VM's budgeted recovery driver calls per thread.

use ido_nvm::alloc::NvAllocator;
use ido_nvm::{NvmError, PmemHandle, CACHE_LINE, PAddr};

/// Bytes per thread descriptor (one cache line, so a descriptor update is
/// a single write-back + fence and the words never tear apart).
pub const DESC_BYTES: usize = 64;
/// Offset of the state word ([`STATE_IDLE`] .. [`STATE_DONE_EMPTY`]).
pub const DESC_STATE: usize = 0;
/// Offset of the sequence number of the thread's current/last CAS.
pub const DESC_SEQ: usize = 8;
/// Offset of the CAS target cell address.
pub const DESC_TARGET: usize = 16;
/// Offset of the expected value.
pub const DESC_EXPECTED: usize = 24;
/// Offset of the new value.
pub const DESC_NEW: usize = 32;
/// Offset of the supersede credit: the highest sequence number of this
/// thread's CASes whose installed value a *successor* persisted before
/// overwriting. Written by other threads, read by recovery.
pub const DESC_SUPER: usize = 40;
/// Offset of the durable success counter: the number of this thread's
/// CASes that are durably published (or resolved taken by recovery).
pub const DESC_DONE: usize = 48;

/// Descriptor state: no operation recorded.
pub const STATE_IDLE: u64 = 0;
/// Descriptor state: a CAS is prepared/executing — recovery must resolve.
pub const STATE_INFLIGHT: u64 = 1;
/// Descriptor state: the recorded CAS took effect, durably.
pub const STATE_DONE_TAKEN: u64 = 2;
/// Descriptor state: the recorded CAS did not take effect.
pub const STATE_DONE_EMPTY: u64 = 3;

/// Byte offset of a cell's owner/sequence tag word relative to its value
/// word. The pair must share a cache line (keep cells 16-byte-aligned
/// within a 64-byte-aligned object) so the two words persist or drop
/// together under line-granular crash loss.
pub const CELL_TAG: usize = 8;

/// Encodes a cell tag from an owner thread and a sequence number. Owner
/// ids are offset by one so the all-zero word means "never CASed".
pub fn encode_tag(owner: u32, seq: u64) -> u64 {
    ((owner as u64 + 1) << 32) | (seq & 0xFFFF_FFFF)
}

/// The owner thread encoded in `tag`, or `None` for the initial zero tag.
pub fn tag_owner(tag: u64) -> Option<u32> {
    let hi = tag >> 32;
    if hi == 0 {
        None
    } else {
        Some((hi - 1) as u32)
    }
}

/// The sequence number encoded in `tag`.
pub fn tag_seq(tag: u64) -> u64 {
    tag & 0xFFFF_FFFF
}

/// Rounds `addr` up to the next cache-line boundary.
pub fn align64(addr: PAddr) -> PAddr {
    (addr + CACHE_LINE - 1) & !(CACHE_LINE - 1)
}

/// The persistent descriptor table: one cache line per thread.
#[derive(Debug, Clone, Copy)]
pub struct LfState {
    /// Cache-line-aligned base of the table.
    pub base: PAddr,
    /// Number of thread slots.
    pub threads: u32,
}

/// How recovery classified one thread's descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// No in-flight operation (idle or already durably closed).
    Closed,
    /// The in-flight CAS took effect (witnessed by the cell tag or the
    /// supersede credit).
    Taken,
    /// The in-flight CAS did not take effect.
    NotTaken,
}

impl LfState {
    /// Allocates and zeroes a table for `threads` slots, persisting it.
    ///
    /// # Errors
    /// Propagates allocator exhaustion.
    pub fn create(h: &mut PmemHandle, alloc: &NvAllocator, threads: u32) -> Result<Self, NvmError> {
        let raw = alloc.alloc(h, DESC_BYTES * threads as usize + CACHE_LINE)?;
        let st = LfState { base: align64(raw), threads };
        for t in 0..threads {
            let slot = st.slot(t);
            for w in 0..(DESC_BYTES / 8) {
                h.write_u64(slot + 8 * w, 0);
            }
            h.clwb(slot);
        }
        h.sfence();
        Ok(st)
    }

    /// The descriptor line of thread `t`.
    pub fn slot(&self, t: u32) -> PAddr {
        debug_assert!(t < self.threads);
        self.base + DESC_BYTES * t as usize
    }

    /// Classifies thread `t`'s descriptor without writing anything.
    ///
    /// The resolution is total and unambiguous: a descriptor is either not
    /// in flight, or it resolves to exactly one of taken/not-taken (the
    /// two taken-witnesses may coincide, which is agreement, never
    /// contradiction). The function asserts the structural fact the
    /// protocol guarantees: a tag-witnessed taken CAS always shows the
    /// installed value, because the cell's value and tag share a line.
    pub fn resolve(&self, h: &mut PmemHandle, t: u32) -> Resolution {
        let slot = self.slot(t);
        if h.read_u64(slot + DESC_STATE) != STATE_INFLIGHT {
            return Resolution::Closed;
        }
        let seq = h.read_u64(slot + DESC_SEQ);
        let target = h.read_u64(slot + DESC_TARGET) as PAddr;
        let tag = h.read_u64(target + CELL_TAG);
        let superseded = h.read_u64(slot + DESC_SUPER) >= seq;
        if tag == encode_tag(t, seq) {
            // Note the witnesses may *coincide* (a successor can flush this
            // cell and post the credit, then crash before its own install
            // persists) — that is agreement on Taken, not ambiguity.
            let new = h.read_u64(slot + DESC_NEW);
            assert_eq!(
                h.read_u64(target),
                new,
                "cell tag owned by thread {t} seq {seq} but the installed \
                 value is missing — the cell pair tore across lines"
            );
            Resolution::Taken
        } else if superseded {
            Resolution::Taken
        } else {
            Resolution::NotTaken
        }
    }

    /// Durably closes thread `t`'s descriptor as done-taken or done-empty,
    /// bumping the durable success counter on a taken CAS (one write-back
    /// + fence): the tail of [`crate::rcas::publish`] and of recovery.
    #[inline]
    pub(crate) fn close(&self, h: &mut PmemHandle, t: u32, taken: bool) {
        let slot = self.slot(t);
        if taken {
            let done = h.read_u64(slot + DESC_DONE);
            h.write_u64(slot + DESC_DONE, done + 1);
            h.write_u64(slot + DESC_STATE, STATE_DONE_TAKEN);
        } else {
            h.write_u64(slot + DESC_STATE, STATE_DONE_EMPTY);
        }
        h.clwb(slot);
        h.sfence();
    }

    /// Resolves thread `t`'s descriptor and durably closes it.
    /// Idempotent — a second pass finds the descriptor closed and does
    /// nothing, so recovery may itself crash and rerun.
    pub fn resolve_and_close(&self, h: &mut PmemHandle, t: u32) -> Resolution {
        let r = self.resolve(h, t);
        if r != Resolution::Closed {
            self.close(h, t, r == Resolution::Taken);
        }
        r
    }

    /// The durable success count of thread `t`.
    pub fn done_count(&self, h: &mut PmemHandle, t: u32) -> u64 {
        h.read_u64(self.slot(t) + DESC_DONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip_and_zero_is_unowned() {
        assert_eq!(tag_owner(0), None);
        for (owner, seq) in [(0u32, 0u64), (7, 3), (255, 0xFFFF_FFFF)] {
            let t = encode_tag(owner, seq);
            assert_eq!(tag_owner(t), Some(owner));
            assert_eq!(tag_seq(t), seq);
            assert_ne!(t, 0);
        }
    }

    #[test]
    fn align64_rounds_up() {
        assert_eq!(align64(0), 0);
        assert_eq!(align64(1), 64);
        assert_eq!(align64(64), 64);
        assert_eq!(align64(65), 128);
    }
}
