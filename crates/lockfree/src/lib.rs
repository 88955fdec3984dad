//! `ido-lockfree`: recoverable lock-free persistence over `ido-nvm`.
//!
//! All seven schemes in the paper's matrix protect *lock-delineated*
//! FASEs. This crate implements the rival universe from the retrieved
//! related work (NVTraverse; Tracking-in-Order-to-Recover): lock-free
//! persistent structures whose only synchronization is a **recoverable
//! compare-and-swap** — a CAS whose outcome is *detectable* after a
//! crash, so recovery can tell for every in-flight operation whether it
//! took effect, never ambiguously.
//!
//! The protocol, per CAS by thread `t` with sequence number `s` — a
//! window flush, then the three steps of [`rcas`], the only code that
//! touches a descriptor word or a cell tag (`ido-vm` runs one step per
//! `Rt` op or `cas`; [`RcasThread::rcas`] is their composition):
//!
//! 0. **Flush window** (NVTraverse's flush-on-traverse-exit): write back
//!    and fence every line the operation read or wrote since its last
//!    window flush. This persists the new node's contents *and* every
//!    link the critical write depends on before the CAS value can escape
//!    to other threads.
//! 1. **Prepare**: durably publish the thread's descriptor — one cache
//!    line holding `(state=in-flight, s, target, expected, new)`.
//! 2. **Exchange**: the CAS on the two-word cell `[value, owner/seq tag]`
//!    (one cache line, so the pair persists or drops atomically). On
//!    success the outgoing occupant is persisted first and a superseded
//!    owner is credited in its descriptor's `super` word, then
//!    `value=new` and `tag=(t,s)` are installed.
//! 3. **Publish** (persist-before-escape): write back + fence the cell
//!    line, then durably close the descriptor, bumping the thread's
//!    durable success counter on a taken CAS.
//!
//! Detectability: after any crash, `taken(t) ⟺ cell.tag == (t, s) ∨
//! super[t] ≥ s` — the tag witnesses an un-overwritten installed value
//! (value and tag share a line, so one implies the other), and the
//! `super` credit witnesses an installed value that a successor persisted
//! before overwriting. Exactly one of taken/not-taken holds; see
//! `DESIGN.md` §13 for the window-by-window argument and its caveats.
//!
//! Every primitive goes through [`ido_nvm::PmemHandle`], so write-backs
//! and fences charge simulated nanoseconds exactly like the allocator's
//! persist path.

#![deny(missing_docs)]

pub mod desc;
pub mod list;
pub mod map;
pub mod rcas;

pub use desc::{
    align64, encode_tag, tag_owner, tag_seq, LfState, Resolution, CELL_TAG,
    DESC_BYTES, DESC_DONE, DESC_EXPECTED, DESC_NEW, DESC_SEQ, DESC_STATE, DESC_SUPER, DESC_TARGET,
    STATE_DONE_EMPTY, STATE_DONE_TAKEN, STATE_IDLE, STATE_INFLIGHT,
};
pub use list::{NvtList, NODE_BYTES, NODE_KEY, NODE_NEXT, NODE_NEXT_TAG, NODE_VAL};
pub use map::NvtMap;
pub use rcas::{FlushWindow, RcasThread};
