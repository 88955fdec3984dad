//! Cache-line geometry helpers.

/// Size of a cache line in bytes. Write-back to NVM happens at this
/// granularity, matching the x86 machines the paper targets.
pub const CACHE_LINE: usize = 64;

/// Number of 8-byte words per cache line.
pub(crate) const WORDS_PER_LINE: usize = CACHE_LINE / 8;

/// Index of the cache line containing byte address `addr`.
#[inline]
pub fn line_of(addr: usize) -> usize {
    addr / CACHE_LINE
}

/// Offset of `addr` within its cache line.
#[inline]
pub fn line_offset(addr: usize) -> usize {
    addr % CACHE_LINE
}

/// The 128-bit key of line `line` holding `words`: 0 for an all-zero line,
/// else two independent 64-bit chains (a MurmurHash3 and a SplitMix64
/// finalizer, each seeded with the line index) over its eight words. An
/// image's key is the XOR of its lines' keys, so a line that changes
/// updates it in O(1), and the all-zero lines a sparse image never visits
/// contribute nothing. Equal images have equal keys; two different images
/// collide with probability about 2^-128 per pair.
pub(crate) fn line_key(line: usize, words: &[u64; WORDS_PER_LINE]) -> u128 {
    if words.iter().all(|&w| w == 0) {
        return 0;
    }
    fn murmur(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ x >> 33
    }
    fn splitmix(mut x: u64) -> u64 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ x >> 31
    }
    let (mut a, mut b) = (0x9e37_79b9_7f4a_7c15 ^ line as u64, !(line as u64).rotate_left(32));
    for &w in words {
        a = murmur(a ^ w);
        b = splitmix(b.wrapping_add(w));
    }
    (a as u128) << 64 | b as u128
}

/// Iterator over the line indices spanned by the byte range `[addr, addr+len)`.
pub(crate) fn lines_spanning(addr: usize, len: usize) -> impl Iterator<Item = usize> {
    let first = line_of(addr);
    let last = if len == 0 { first } else { line_of(addr + len - 1) };
    first..=last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_offset(65), 1);
    }

    #[test]
    fn a_line_key_is_zero_only_for_a_zero_line_and_names_line_and_word() {
        assert_eq!(line_key(7, &[0; WORDS_PER_LINE]), 0);
        let mut words = [0u64; WORDS_PER_LINE];
        words[3] = 1;
        let key = line_key(7, &words);
        assert_ne!(key, 0);
        assert_ne!(key, line_key(8, &words), "another line");
        words.swap(3, 4);
        assert_ne!(key, line_key(7, &words), "another word");
    }

    #[test]
    fn spanning_single_line() {
        let v: Vec<_> = lines_spanning(8, 8).collect();
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn spanning_multiple_lines() {
        let v: Vec<_> = lines_spanning(60, 16).collect();
        assert_eq!(v, vec![0, 1]);
    }

    #[test]
    fn spanning_zero_len() {
        let v: Vec<_> = lines_spanning(128, 0).collect();
        assert_eq!(v, vec![2]);
    }
}
