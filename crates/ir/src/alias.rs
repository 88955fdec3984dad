//! Conservative, `basicAA`-style alias analysis.
//!
//! The iDO compiler uses LLVM's `basicAA` to find memory antidependences
//! (a load followed by a possibly-aliasing store), which become the cutting
//! points for idempotent region formation. The paper explicitly notes that
//! `basicAA` is "quite conservative" and that better alias analysis would
//! enlarge regions; we reproduce that conservative flavor:
//!
//! * Two stack-slot accesses alias iff they name the same slot.
//! * A stack-slot access never aliases a heap access (slots are not
//!   address-taken in this IR).
//! * Two heap accesses through the *same base register* (with no intervening
//!   redefinition of that register — the caller guarantees this) alias iff
//!   their offsets overlap.
//! * Heap accesses through different base registers **may** alias, unless
//!   one base is a fresh allocation (`Alloc`) that postdates the other
//!   access — freshly allocated memory cannot alias anything older.

use crate::inst::MemLoc;

/// Result of an alias query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasResult {
    /// Provably the same word.
    Must,
    /// Provably disjoint.
    No,
    /// Unknown; must be treated as aliasing.
    May,
}

/// Width, in bytes, of every access in this IR.
pub const ACCESS_BYTES: i64 = 8;

/// Queries whether two locations may refer to overlapping memory.
///
/// `same_base_valid` must be true only if no definition of a shared base
/// register occurs between the two accesses being compared; when false,
/// same-register comparisons degrade to [`AliasResult::May`].
pub fn alias(a: MemLoc, b: MemLoc, same_base_valid: bool) -> AliasResult {
    match (a, b) {
        (MemLoc::Stack(x), MemLoc::Stack(y)) => {
            if x == y {
                AliasResult::Must
            } else {
                AliasResult::No
            }
        }
        (MemLoc::Stack(_), MemLoc::Heap { .. }) | (MemLoc::Heap { .. }, MemLoc::Stack(_)) => {
            AliasResult::No
        }
        (MemLoc::Heap { base: b1, offset: o1 }, MemLoc::Heap { base: b2, offset: o2 }) => {
            if b1 == b2 {
                if !same_base_valid {
                    return AliasResult::May;
                }
                if o1 == o2 {
                    AliasResult::Must
                } else if (o1 - o2).abs() >= ACCESS_BYTES {
                    AliasResult::No
                } else {
                    AliasResult::May
                }
            } else {
                AliasResult::May
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Reg, StackSlot};

    fn r(id: u32) -> Reg {
        Reg::int(id)
    }

    #[test]
    fn stack_slots_alias_exactly() {
        let a = MemLoc::Stack(StackSlot(0));
        let b = MemLoc::Stack(StackSlot(1));
        assert_eq!(alias(a, a, true), AliasResult::Must);
        assert_eq!(alias(a, b, true), AliasResult::No);
    }

    #[test]
    fn stack_never_aliases_heap() {
        let s = MemLoc::Stack(StackSlot(0));
        let h = MemLoc::Heap { base: r(1), offset: 0 };
        assert_eq!(alias(s, h, true), AliasResult::No);
        assert_eq!(alias(h, s, true), AliasResult::No);
    }

    #[test]
    fn same_base_offsets_resolve() {
        let a = MemLoc::Heap { base: r(1), offset: 0 };
        let b = MemLoc::Heap { base: r(1), offset: 8 };
        assert_eq!(alias(a, a, true), AliasResult::Must);
        assert_eq!(alias(a, b, true), AliasResult::No);
    }

    #[test]
    fn same_base_invalidated_by_redefinition() {
        let a = MemLoc::Heap { base: r(1), offset: 0 };
        let b = MemLoc::Heap { base: r(1), offset: 8 };
        assert_eq!(alias(a, b, false), AliasResult::May);
        assert_eq!(alias(a, a, false), AliasResult::May);
    }

    #[test]
    fn different_bases_may_alias() {
        let a = MemLoc::Heap { base: r(1), offset: 0 };
        let b = MemLoc::Heap { base: r(2), offset: 0 };
        assert_eq!(alias(a, b, true), AliasResult::May);
    }
}
