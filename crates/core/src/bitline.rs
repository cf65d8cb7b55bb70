//! Bit-vector line utilities.
//!
//! A *line* is one row (or one column, after transposition) of an
//! [`AtomGrid`](crate::grid::AtomGrid), stored as little-endian `u64`
//! words with an explicit logical width. The shift kernel (software in
//! [`crate::kernel`], hardware model in `qrm-fpga`) manipulates lines with
//! these primitives, so both implementations share exact semantics.
//!
//! Position 0 is the compression corner; a *suffix shift at hole `h`*
//! moves every atom at positions `> h` one site toward 0 — the paper's
//! elementary move (§III-A: "we move all atoms positioned to the left of
//! each hole, shifting them one step").

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// Returns the number of words needed for `width` bits.
pub const fn words_for(width: usize) -> usize {
    width.div_ceil(WORD_BITS)
}

/// Reads bit `pos`.
///
/// # Panics
///
/// Panics when `pos / 64` exceeds the slice.
#[inline]
pub fn get(words: &[u64], pos: usize) -> bool {
    (words[pos / WORD_BITS] >> (pos % WORD_BITS)) & 1 == 1
}

/// Writes bit `pos`.
///
/// # Panics
///
/// Panics when `pos / 64` exceeds the slice.
#[inline]
pub fn set(words: &mut [u64], pos: usize, value: bool) {
    let mask = 1u64 << (pos % WORD_BITS);
    if value {
        words[pos / WORD_BITS] |= mask;
    } else {
        words[pos / WORD_BITS] &= !mask;
    }
}

/// Population count of the whole line.
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Position of the highest set bit, or `None` for an empty line.
///
/// ```
/// let line = [0b1010u64];
/// assert_eq!(qrm_core::bitline::highest_one(&line), Some(3));
/// assert_eq!(qrm_core::bitline::highest_one(&[0u64]), None);
/// ```
pub fn highest_one(words: &[u64]) -> Option<usize> {
    for (i, &w) in words.iter().enumerate().rev() {
        if w != 0 {
            return Some(i * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize));
        }
    }
    None
}

/// Position of the lowest set bit, or `None` for an empty line.
pub fn lowest_one(words: &[u64]) -> Option<usize> {
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            return Some(i * WORD_BITS + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Position of the lowest **zero** bit in `lo..hi`, or `None` when the
/// range is fully occupied (or empty).
///
/// ```
/// let line = [0b0111u64];
/// assert_eq!(qrm_core::bitline::lowest_zero_in(&line, 0, 8), Some(3));
/// assert_eq!(qrm_core::bitline::lowest_zero_in(&line, 0, 3), None);
/// ```
pub fn lowest_zero_in(words: &[u64], lo: usize, hi: usize) -> Option<usize> {
    if lo >= hi {
        return None;
    }
    let mut pos = lo;
    while pos < hi {
        let w = pos / WORD_BITS;
        let b = pos % WORD_BITS;
        // Invert and mask off bits below `pos` within this word.
        let inv = !words[w] & (u64::MAX << b);
        if inv != 0 {
            let cand = w * WORD_BITS + inv.trailing_zeros() as usize;
            return if cand < hi { Some(cand) } else { None };
        }
        pos = (w + 1) * WORD_BITS;
    }
    None
}

/// The lowest *eligible hole* for a suffix shift within `[floor, limit)`:
/// the lowest empty position `h >= floor`, `h < limit`, with at least one
/// atom at a position `> h`. Returns `None` when no shift can fire.
///
/// ```
/// // atoms at 2 and 5; floor 0: hole 0 is eligible.
/// let line = [0b100100u64];
/// assert_eq!(qrm_core::bitline::eligible_hole(&line, 0, 6), Some(0));
/// // floor 3: hole 3 eligible (atom at 5 above it).
/// assert_eq!(qrm_core::bitline::eligible_hole(&line, 3, 6), Some(3));
/// // nothing above position 5.
/// assert_eq!(qrm_core::bitline::eligible_hole(&line, 5, 6), None);
/// ```
pub fn eligible_hole(words: &[u64], floor: usize, limit: usize) -> Option<usize> {
    let top = highest_one(words)?;
    // A hole at h needs an atom above it, so h < top; also h < limit.
    lowest_zero_in(words, floor, limit.min(top))
}

/// Applies a suffix shift at `hole`: every bit at position `> hole` moves
/// one position down within the logical `width`. Bits `<= hole` are
/// untouched; the top position becomes empty.
///
/// # Panics
///
/// Debug-asserts that position `hole` is empty.
///
/// ```
/// let mut line = [0b110100u64];
/// qrm_core::bitline::suffix_shift(&mut line, 0, 64);
/// assert_eq!(line[0], 0b011010);
/// ```
pub fn suffix_shift(words: &mut [u64], hole: usize, width: usize) {
    debug_assert!(hole < width, "hole {hole} beyond width {width}");
    debug_assert!(!get(words, hole), "suffix shift target {hole} is occupied");
    let w0 = hole / WORD_BITS;
    let b0 = hole % WORD_BITS;
    let n = words_for(width);
    // Shift words w0..n right by one bit, carrying across boundaries, then
    // restore the untouched low bits of word w0 (positions <= hole).
    let keep = words[w0] & low_mask(b0); // bits strictly below hole (hole bit itself is 0)
    for i in w0..n {
        let next = if i + 1 < n { words[i + 1] } else { 0 };
        words[i] = (words[i] >> 1) | (next << (WORD_BITS - 1));
    }
    words[w0] = (words[w0] & !low_mask(b0)) | keep;
    // Clear any bit that slid in above the logical width (none can, since
    // we only shift down, but keep the tail clean for safety).
    let tail = width % WORD_BITS;
    if tail != 0 {
        words[n - 1] &= low_mask(tail);
    }
}

/// Mask with bits `0..bits` set.
#[inline]
fn low_mask(bits: usize) -> u64 {
    if bits >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Collects the set-bit positions of a line into a vector.
pub fn ones(words: &[u64], width: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count_ones(words));
    for (i, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let pos = i * WORD_BITS + w.trailing_zeros() as usize;
            if pos < width {
                out.push(pos);
            }
            w &= w - 1;
        }
    }
    out
}

/// Writes `words` shifted one position toward higher indices
/// (west-to-east) into `out`, dropping any bit that would leave `width`.
/// The reference the merge's in-place batch apply is tested against.
///
/// # Panics
///
/// Panics when `out` is shorter than `words`.
#[cfg(test)]
pub(crate) fn shift_up_one_into(words: &[u64], width: usize, out: &mut [u64]) {
    let n = words.len();
    let mut carry = 0u64;
    for (o, &w) in out[..n].iter_mut().zip(words) {
        *o = (w << 1) | carry;
        carry = w >> (WORD_BITS - 1);
    }
    let tail = width % WORD_BITS;
    if tail != 0 {
        out[n - 1] &= low_mask(tail);
    }
}

/// Writes `words` shifted one position toward lower indices
/// (east-to-west) into `out`, dropping bit 0.
///
/// # Panics
///
/// Panics when `out` is shorter than `words`.
#[cfg(test)]
pub(crate) fn shift_down_one_into(words: &[u64], out: &mut [u64]) {
    for (i, (o, &w)) in out[..words.len()].iter_mut().zip(words).enumerate() {
        let next = words.get(i + 1).copied().unwrap_or(0);
        *o = (w >> 1) | (next << (WORD_BITS - 1));
    }
}

/// Builds a mask with bits `lo..hi` set, `len_words` words long.
pub fn range_mask(len_words: usize, lo: usize, hi: usize) -> Vec<u64> {
    let mut m = vec![0u64; len_words];
    set_range(&mut m, lo, hi);
    m
}

/// Sets bits `lo..hi` of `words` (clamped to its length), word by word.
pub(crate) fn set_range(words: &mut [u64], lo: usize, hi: usize) {
    let hi = hi.min(words.len() * WORD_BITS);
    if lo >= hi {
        return;
    }
    let first = lo / WORD_BITS;
    for (i, word) in words[..hi.div_ceil(WORD_BITS)]
        .iter_mut()
        .enumerate()
        .skip(first)
    {
        *word |= word_mask(i, lo, hi);
    }
}

/// The bits of `lo..hi` that fall in word `i`, as a mask of that word.
/// The range must overlap the word.
pub(crate) fn word_mask(i: usize, lo: usize, hi: usize) -> u64 {
    let (start, end) = (i * WORD_BITS, (i + 1) * WORD_BITS);
    debug_assert!(lo < end && start < hi, "range {lo}..{hi} misses word {i}");
    (u64::MAX << (lo.max(start) - start)) & (u64::MAX >> (end - hi.min(end)))
}

/// Writes bits `lo..lo + len` of `src` to bits `0..len` of `dst`,
/// mirrored (bit `lo + len - 1` first) when `mirror` is set, a word at a
/// time. Bits of `dst` at or above `len` are cleared.
pub(crate) fn copy_range(src: &[u64], lo: usize, len: usize, mirror: bool, dst: &mut [u64]) {
    for (j, d) in dst.iter_mut().enumerate() {
        let at = j * WORD_BITS;
        *d = if mirror {
            // Destination bits `at..at + 64` are source bits
            // `lo + len - at - 64..lo + len - at`, reversed.
            window(src, (lo + len) as isize - (at + WORD_BITS) as isize).reverse_bits()
        } else {
            window(src, (lo + at) as isize)
        };
    }
    let tail = len % WORD_BITS;
    if let (Some(last), true) = (dst.last_mut(), tail != 0) {
        *last &= low_mask(tail);
    }
}

/// The 64 bits of `words` from bit `start` up; bits before the start or
/// past the end of the slice read as zero.
fn window(words: &[u64], start: isize) -> u64 {
    let word = start.div_euclid(WORD_BITS as isize);
    let bit = start.rem_euclid(WORD_BITS as isize) as usize;
    let get = |i: isize| {
        usize::try_from(i)
            .ok()
            .and_then(|i| words.get(i))
            .copied()
            .unwrap_or(0)
    };
    let low = get(word) >> bit;
    if bit == 0 {
        low
    } else {
        low | get(word + 1) << (WORD_BITS - bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn whole_line_shifts_are_inverse_up_to_edges(width in 1usize..150, seed in any::<u64>()) {
            let mut rng = crate::loading::seeded_rng(seed);
            let mut line = vec![0u64; words_for(width)];
            for pos in 0..width {
                set(&mut line, pos, rand::Rng::gen_bool(&mut rng, 0.5));
            }
            // down(up(x)) == x when no bit falls off the top
            if highest_one(&line).is_none_or(|t| t + 1 < width) {
                let mut up = vec![0u64; line.len()];
                shift_up_one_into(&line, width, &mut up);
                let mut back = vec![0u64; line.len()];
                shift_down_one_into(&up, &mut back);
                prop_assert_eq!(back, line);
            }
        }
    }

    /// Bit-by-bit reference for the word-level suffix shift.
    fn suffix_shift_ref(words: &mut [u64], hole: usize, width: usize) {
        for pos in hole..width.saturating_sub(1) {
            let above = get(words, pos + 1);
            set(words, pos, above);
        }
        if width > 0 {
            set(words, width - 1, false);
        }
    }

    #[test]
    fn get_set_roundtrip_across_words() {
        let mut w = vec![0u64; 2];
        for pos in [0, 1, 63, 64, 65, 127] {
            set(&mut w, pos, true);
            assert!(get(&w, pos));
            set(&mut w, pos, false);
            assert!(!get(&w, pos));
        }
    }

    #[test]
    fn highest_lowest() {
        let mut w = vec![0u64; 2];
        assert_eq!(highest_one(&w), None);
        assert_eq!(lowest_one(&w), None);
        set(&mut w, 5, true);
        set(&mut w, 100, true);
        assert_eq!(lowest_one(&w), Some(5));
        assert_eq!(highest_one(&w), Some(100));
    }

    #[test]
    fn lowest_zero_in_ranges() {
        let w = [0b0111u64, u64::MAX];
        assert_eq!(lowest_zero_in(&w, 0, 128), Some(3));
        assert_eq!(lowest_zero_in(&w, 0, 3), None);
        assert_eq!(lowest_zero_in(&w, 4, 64), Some(4));
        // second word fully occupied
        assert_eq!(lowest_zero_in(&[u64::MAX, u64::MAX], 0, 128), None);
        assert_eq!(lowest_zero_in(&w, 5, 5), None);
    }

    #[test]
    fn eligible_hole_cases() {
        assert_eq!(eligible_hole(&[0u64], 0, 64), None);
        assert_eq!(eligible_hole(&[0b111u64], 0, 64), None);
        assert_eq!(eligible_hole(&[0b101u64], 0, 64), Some(1));
        assert_eq!(eligible_hole(&[0b101u64], 2, 64), None);
        assert_eq!(eligible_hole(&[0b1001u64], 1, 1), None);
        assert_eq!(eligible_hole(&[0b1001u64], 1, 4), Some(1));
    }

    #[test]
    fn suffix_shift_behaviour() {
        let mut w = vec![0b110100u64];
        suffix_shift(&mut w, 0, 64);
        assert_eq!(w[0], 0b011010);
        let mut w = vec![0b110101u64];
        suffix_shift(&mut w, 3, 64);
        assert_eq!(w[0], 0b011101);
    }

    #[test]
    fn suffix_shift_across_word_boundary() {
        let width = 130;
        let mut w = vec![0u64; words_for(width)];
        set(&mut w, 63, true);
        set(&mut w, 64, true);
        set(&mut w, 129, true);
        suffix_shift(&mut w, 0, width);
        assert_eq!(ones(&w, width), vec![62, 63, 128]);
    }

    #[test]
    fn suffix_shift_matches_reference_exhaustively() {
        // All 10-bit patterns, all holes: word-level == bit-level.
        let width = 10;
        for pattern in 0u64..(1 << width) {
            for hole in 0..width {
                if (pattern >> hole) & 1 == 1 {
                    continue; // not a hole
                }
                let mut a = vec![pattern];
                let mut b = vec![pattern];
                suffix_shift(&mut a, hole, width);
                suffix_shift_ref(&mut b, hole, width);
                assert_eq!(a, b, "pattern {pattern:#b} hole {hole}");
            }
        }
    }

    #[test]
    fn suffix_shift_multiword_matches_reference() {
        // Pseudo-random multi-word lines.
        let width = 150;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let line: Vec<u64> = (0..words_for(width)).map(|_| next()).collect();
            let mut line = line;
            // mask tail
            line[2] &= (1u64 << (width - 128)) - 1;
            if let Some(h) = lowest_zero_in(&line, 0, width) {
                let mut a = line.clone();
                let mut b = line.clone();
                suffix_shift(&mut a, h, width);
                suffix_shift_ref(&mut b, h, width);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn suffix_shift_preserves_count_and_low_bits() {
        let width = 90;
        let mut w = vec![0u64; words_for(width)];
        for pos in [1, 3, 40, 70, 89] {
            set(&mut w, pos, true);
        }
        let before = count_ones(&w);
        suffix_shift(&mut w, 2, width);
        assert_eq!(count_ones(&w), before);
        assert_eq!(ones(&w, width), vec![1, 2, 39, 69, 88]);
    }

    #[test]
    fn ones_and_range_mask() {
        let m = range_mask(2, 60, 70);
        assert_eq!(ones(&m, 128), (60..70).collect::<Vec<_>>());
        assert_eq!(count_ones(&m), 10);
    }

    #[test]
    fn whole_line_shifts() {
        let width = 130;
        let mut w = vec![0u64; words_for(width)];
        for pos in [0, 63, 64, 129] {
            set(&mut w, pos, true);
        }
        let mut up = vec![u64::MAX; w.len()];
        shift_up_one_into(&w, width, &mut up);
        assert_eq!(ones(&up, width), vec![1, 64, 65]); // 129 dropped
        let mut down = vec![u64::MAX; w.len()];
        shift_down_one_into(&w, &mut down);
        assert_eq!(ones(&down, width), vec![62, 63, 128]); // 0 dropped
    }

    #[test]
    fn words_for_sizes() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(130), 3);
    }
}
