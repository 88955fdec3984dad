//! Fixed-capacity register bitsets for iDO's per-access register tracking
//! (`scheme::resumption::RegTracking`).
//!
//! Under iDO every register read and write updates up to three sets
//! (written, dirty, read before write); no other scheme keeps them. As
//! `BTreeSet`s those updates are pointer-chasing tree operations on the
//! hottest path; as bitsets they are one shift, one mask, and one OR on a
//! word that stays in L1. Capacity is fixed at construction from the
//! program's `max_regs` (`next_reg` upper bound), so membership never
//! allocates.
//!
//! Determinism note: iDO's boundary only ever *counts* or *tests* these
//! sets, or filters an already-ordered list (`live_filter`) through them —
//! it never iterates a bitset to produce an ordering. So the change from
//! ordered trees to bitsets cannot perturb any observable event order.

/// A fixed-capacity set of register ids backed by `u64` words.
#[derive(Debug, Clone)]
pub(crate) struct RegBitset {
    words: Box<[u64]>,
}

impl RegBitset {
    /// An empty set with capacity for register ids `0..max_regs`.
    pub(crate) fn new(max_regs: u32) -> RegBitset {
        RegBitset { words: vec![0; (max_regs as usize).div_ceil(64)].into_boxed_slice() }
    }

    /// Inserts `id` (no-op if present).
    #[inline(always)]
    pub(crate) fn insert(&mut self, id: u32) {
        self.words[(id / 64) as usize] |= 1u64 << (id % 64);
    }

    /// Membership test.
    #[inline(always)]
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.words[(id / 64) as usize] & (1u64 << (id % 64)) != 0
    }

    /// Inserts every id in `0..n`.
    #[inline]
    pub(crate) fn insert_range(&mut self, n: u32) {
        let full = (n / 64) as usize;
        for w in &mut self.words[..full] {
            *w = u64::MAX;
        }
        let rem = n % 64;
        if rem != 0 {
            self.words[full] |= (1u64 << rem) - 1;
        }
    }

    /// Removes all elements (keeps capacity).
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements.
    #[inline]
    pub(crate) fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = RegBitset::new(130);
        assert!(!s.contains(0));
        for id in [0, 1, 63, 64, 65, 127, 128, 129] {
            s.insert(id);
            assert!(s.contains(id), "{id}");
        }
        s.insert(64); // duplicate
        assert_eq!(s.count(), 8);
        assert!(!s.contains(2));
        s.clear();
        assert_eq!(s.count(), 0);
        assert!(!s.contains(64));
    }

    #[test]
    fn insert_range_matches_per_element_inserts() {
        for n in [0u32, 1, 5, 63, 64, 65, 128, 130] {
            let mut a = RegBitset::new(130);
            a.insert_range(n);
            let mut b = RegBitset::new(130);
            for id in 0..n {
                b.insert(id);
            }
            assert_eq!(a.count(), n, "range 0..{n}");
            for id in 0..130 {
                assert_eq!(a.contains(id), b.contains(id), "id {id} of range 0..{n}");
            }
        }
    }
}
