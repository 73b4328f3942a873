//! Candidate bitmaps (paper §4.3).
//!
//! One row per query node, one bit per data node, stored row-major and
//! contiguous so the filter kernel's accesses coalesce. The paper updates
//! bits with atomics and relies on a warp's neighbouring lanes to merge
//! them into word transactions. The host executor has no warp, so the
//! filter kernels update a word at a time themselves: init ORs each
//! (row, word, label) mask with one [`CandidateBitmap::or_word`], an
//! atomic RMW because work-groups whose size is not a multiple of 64
//! share their boundary words. The clearing kernels judge each verdict
//! class once per word over the union of its rows' live bits
//! ([`CandidateBitmap::fail_bits`]), and each row of the class, owned by
//! one work-item, then takes one load and one store per word
//! ([`CandidateBitmap::clear_words_failing`]; DESIGN.md §19, §23). The per-bit
//! [`CandidateBitmap::set`] and [`CandidateBitmap::clear`] remain for the
//! oracles, and the per-bit
//! [`CandidateBitmap::retain_row`] is the class walk's test oracle.
//!
//! Storage is always `AtomicU64`; the configurable *word width*
//! ([`WordWidth`], Table 1's "candidates bitmap integer") controls the
//! modeled memory-transaction granularity that the kernels charge to the
//! device counters, mirroring the tunable the paper exposes.

use std::sync::atomic::{AtomicU64, Ordering};

/// Work whose inner loops count bits: [`with_popcnt`] runs it.
pub(crate) trait CountsBits {
    type Out;
    /// The work itself; implementations mark it `#[inline(always)]` so
    /// that it compiles into [`with_popcnt`]'s `popcnt` context.
    fn run(self) -> Self::Out;
}

/// Runs `work` with the `popcnt` instruction enabled when the CPU has it
/// (checked at run time), so the `count_ones` calls it inlines compile to
/// one instruction instead of baseline x86-64's bit-twiddling sequence.
/// The result is the same either way; the filter pass and the signature
/// build count bits in their inner loops.
#[inline]
pub(crate) fn with_popcnt<W: CountsBits>(work: W) -> W::Out {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "popcnt")]
        fn enabled<W: CountsBits>(work: W) -> W::Out {
            work.run()
        }
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: `enabled` is compiled for the `popcnt` feature only,
            // and the CPU was just found to support it.
            return unsafe { enabled(work) };
        }
    }
    work.run()
}

/// Modeled bitmap word width (Table 1: 32-bit on V100S / Max 1100, 64-bit
/// on MI100).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WordWidth {
    /// 32-bit words.
    U32,
    /// 64-bit words (default).
    #[default]
    U64,
}

impl WordWidth {
    /// Bytes per modeled memory transaction on the bitmap.
    pub fn bytes(self) -> u64 {
        match self {
            WordWidth::U32 => 4,
            WordWidth::U64 => 8,
        }
    }
}

/// Row-major candidate bitmap: `rows` query nodes × `cols` data nodes.
pub struct CandidateBitmap {
    words: Vec<AtomicU64>,
    words_per_row: usize,
    rows: usize,
    cols: usize,
    word_width: WordWidth,
}

impl CandidateBitmap {
    /// Allocates an all-zero bitmap.
    pub fn new(rows: usize, cols: usize, word_width: WordWidth) -> Self {
        let words_per_row = cols.div_ceil(64);
        let words = (0..rows * words_per_row)
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            words,
            words_per_row,
            rows,
            cols,
            word_width,
        }
    }

    /// Number of rows (query nodes).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (data nodes).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The modeled word width.
    pub fn word_width(&self) -> WordWidth {
        self.word_width
    }

    /// Bitmap memory footprint in bytes per the §5.1.3 formula
    /// `⌈|V_Q| × |V_D| / 8⌉` — the packed-bit size the paper reports.
    /// The allocation itself pads every row to a whole number of 64-bit
    /// words; that (strictly larger) figure is
    /// [`padded_memory_bytes`](Self::padded_memory_bytes).
    pub fn memory_bytes(&self) -> usize {
        (self.rows * self.cols).div_ceil(8)
    }

    /// Allocated bytes including per-row word padding:
    /// `rows × ⌈cols/64⌉ × 8`. Equals [`memory_bytes`](Self::memory_bytes)
    /// when `cols` is a multiple of 64; otherwise larger by up to
    /// `rows × 8` bytes.
    pub fn padded_memory_bytes(&self) -> usize {
        self.rows * self.words_per_row * 8
    }

    /// Words each row occupies (`⌈cols/64⌉`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    #[inline]
    fn index(&self, row: usize, col: usize) -> (usize, u64) {
        debug_assert!(row < self.rows && col < self.cols);
        (row * self.words_per_row + col / 64, 1u64 << (col % 64))
    }

    /// Atomically sets the bit (marks `col` a candidate for `row`).
    // sigmo-lint: allow(uncharged-access) — this IS the word the cost
    // model prices; every kernel call site charges it via add_word_writes.
    #[inline]
    pub fn set(&self, row: usize, col: usize) {
        let (w, bit) = self.index(row, col);
        self.words[w].fetch_or(bit, Ordering::Relaxed);
    }

    /// Atomically clears the bit.
    // sigmo-lint: allow(uncharged-access) — primitive word write; call
    // sites charge the traffic (see `set`).
    #[inline]
    pub fn clear(&self, row: usize, col: usize) {
        let (w, bit) = self.index(row, col);
        self.words[w].fetch_and(!bit, Ordering::Relaxed);
    }

    /// Atomically ORs `mask` into word `word` of `row` (bit `i` of the
    /// mask is column `64 × word + i`): the word-wide form of
    /// [`set`](Self::set) that the init kernel issues once per (row, word,
    /// label). Stays an RMW because work-groups whose size is not a
    /// multiple of 64 share their boundary words.
    // sigmo-lint: allow(uncharged-access) — primitive word write; the
    // init kernel charges one set per mask bit (see `set`).
    #[inline]
    pub fn or_word(&self, row: usize, word: usize, mask: u64) {
        debug_assert!(row < self.rows && word < self.words_per_row);
        self.words[row * self.words_per_row + word].fetch_or(mask, Ordering::Relaxed);
    }

    /// Keeps the set bits of `row` for which `keep(col)` holds and clears
    /// the rest, one word at a time: each word is loaded once, its failing
    /// bits are gathered into a kill mask, and a word with any failure
    /// costs one `fetch_and(!kill)` instead of one RMW per bit. Returns
    /// `(tested, cleared)`: the set bits `keep` judged and how many of
    /// them it cleared. The caller must own the row for the walk (no
    /// concurrent writer). The filter pass judges a class once and clears
    /// its rows with [`clear_words_failing`](Self::clear_words_failing); this
    /// per-bit walk is its test oracle.
    // sigmo-lint: allow(uncharged-access, unbounded-kernel-loop) — primitive
    // row walk: callers charge the words, tests and clears it reports; the
    // inner loop clears one bit of a loaded word per pass (≤ 64).
    // sigmo-lint: allow(relaxed-read-in-report) — the walking work-item
    // owns the row, so no writer races its loads and the counts it
    // reports are exact.
    pub fn retain_row(&self, row: usize, mut keep: impl FnMut(usize) -> bool) -> (u64, u64) {
        debug_assert!(row < self.rows);
        let base = row * self.words_per_row;
        let (mut tested, mut cleared) = (0u64, 0u64);
        for (w, word) in self.words[base..base + self.words_per_row]
            .iter()
            .enumerate()
        {
            let mut bits = word.load(Ordering::Relaxed);
            tested += u64::from(bits.count_ones());
            let mut kill = 0u64;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                kill |= u64::from(!keep(w * 64 + bit as usize)) << bit;
                bits &= bits - 1;
            }
            if kill != 0 {
                word.fetch_and(!kill, Ordering::Relaxed);
                cleared += u64::from(kill.count_ones());
            }
        }
        (tested, cleared)
    }

    /// The bits of `live` (word `word` of some row) that `keep` rejects:
    /// `keep(col)` runs once per set bit and its verdict is OR-ed into the
    /// mask without a branch.
    // sigmo-lint: allow(unbounded-kernel-loop) — one set bit of a loaded
    // word per pass (≤ 64).
    #[inline]
    pub fn fail_bits(live: u64, word: usize, mut keep: impl FnMut(usize) -> bool) -> u64 {
        let (mut fail, mut bits) = (0u64, live);
        while bits != 0 {
            let bit = bits.trailing_zeros();
            fail |= u64::from(!keep(word * 64 + bit as usize)) << bit;
            bits &= bits - 1;
        }
        fail
    }

    /// The live words of `row` among the `n` words from `w0` (bit `k` set
    /// iff word `w0 + k` holds a candidate; `n ≤ 64`) and their candidate
    /// count: the per-row live-word summary the fused filter pass keeps.
    // sigmo-lint: allow(uncharged-access) — primitive row walk: callers
    // charge the words it reports.
    // sigmo-lint: allow(relaxed-read-in-report) — the filter's work-item
    // owns these words; report paths read after the launch joined.
    #[inline(always)]
    pub fn live_words(&self, row: usize, w0: usize, n: usize) -> (u64, u64) {
        debug_assert!(row < self.rows && n <= 64 && w0 + n <= self.words_per_row);
        let base = row * self.words_per_row + w0;
        let (mut live, mut count) = (0u64, 0u64);
        for (k, word) in self.words[base..base + n].iter().enumerate() {
            let bits = word.load(Ordering::Relaxed);
            live |= u64::from(bits != 0) << k;
            count += u64::from(bits.count_ones());
        }
        (live, count)
    }

    /// ORs the `acc.len()` words of `row` from `w0` into `acc`.
    // sigmo-lint: allow(relaxed-read-in-report) — the filter's class
    // work-item owns the rows it ORs.
    #[inline]
    pub fn or_words_into(&self, row: usize, w0: usize, acc: &mut [u64]) {
        let base = row * self.words_per_row + w0;
        let words = &self.words[base..base + acc.len()];
        for (acc, word) in acc.iter_mut().zip(words) {
            *acc |= word.load(Ordering::Relaxed);
        }
    }

    /// Clears from the `fail.len()` words of `row` from `w0` the bits
    /// `fail` marks (bit `i` of `fail[k]` is column `64 (w0 + k) + i`):
    /// one load and one store per word, without a branch. Returns
    /// `(tested, cleared, live)`: the row's live bits there, how many were
    /// cleared, and the words still live after (bit `k` for word
    /// `w0 + k`). The caller must own the words (no concurrent reader or
    /// writer), which is why a plain store can replace the `fetch_and`.
    // sigmo-lint: allow(uncharged-access) — primitive row walk: callers
    // charge the words, tests and clears it reports.
    // sigmo-lint: allow(relaxed-read-in-report) — the walking work-item
    // owns the words, so no writer races its loads and the counts it
    // reports are exact.
    #[inline(always)]
    pub fn clear_words_failing(&self, row: usize, w0: usize, fail: &[u64]) -> (u64, u64, u64) {
        let base = row * self.words_per_row + w0;
        let (mut tested, mut cleared, mut live) = (0u64, 0u64, 0u64);
        for (k, (word, &fail)) in self.words[base..base + fail.len()]
            .iter()
            .zip(fail)
            .enumerate()
        {
            let x = word.load(Ordering::Relaxed);
            let kill = x & fail;
            word.store(x ^ kill, Ordering::Relaxed);
            tested += u64::from(x.count_ones());
            cleared += u64::from(kill.count_ones());
            live |= u64::from(x != kill) << k;
        }
        (tested, cleared, live)
    }

    /// Loads word `w` of `row`.
    // sigmo-lint: allow(relaxed-read-in-report) — the mapping kernel
    // reads after the filter launch joined.
    #[inline]
    pub fn word(&self, row: usize, w: usize) -> u64 {
        self.words[row * self.words_per_row + w].load(Ordering::Relaxed)
    }

    /// Overwrites this bitmap with the contents of `other`, word by word.
    /// Both bitmaps must have identical dimensions. Used to restore a
    /// snapshot (e.g. re-running refinement from the same initial state).
    pub fn copy_from(&self, other: &CandidateBitmap) {
        assert_eq!(self.rows, other.rows, "row count mismatch");
        assert_eq!(self.cols, other.cols, "column count mismatch");
        for (dst, src) in self.words.iter().zip(other.words.iter()) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Tests the bit.
    // sigmo-lint: allow(relaxed-read-in-report) — report paths call this
    // only after the writing launch joined; in-kernel probes read bits
    // that refinement clears monotonically.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        let (w, bit) = self.index(row, col);
        self.words[w].load(Ordering::Relaxed) & bit != 0
    }

    /// Number of candidates in a row (popcount over the whole row).
    // sigmo-lint: allow(relaxed-read-in-report) — reporting counts rows
    // after the writing launch joined; the words are then quiescent.
    pub fn row_count(&self, row: usize) -> usize {
        let lo = row * self.words_per_row;
        self.words[lo..lo + self.words_per_row]
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Number of candidates for `row` within the column range
    /// `[col_lo, col_hi)` — used to detect zero-candidate query nodes per
    /// data graph during mapping.
    pub fn row_count_in_range(&self, row: usize, col_lo: usize, col_hi: usize) -> usize {
        debug_assert!(col_lo <= col_hi && col_hi <= self.cols);
        if col_lo == col_hi {
            return 0;
        }
        let base = row * self.words_per_row;
        let first_word = col_lo / 64;
        let last_word = (col_hi - 1) / 64;
        let mut total = 0usize;
        for w in first_word..=last_word {
            total += self.masked_word(base, w, col_lo, col_hi).count_ones() as usize;
        }
        total
    }

    /// True when `row` has at least one candidate within `[col_lo, col_hi)`.
    pub fn row_any_in_range(&self, row: usize, col_lo: usize, col_hi: usize) -> bool {
        debug_assert!(col_lo <= col_hi && col_hi <= self.cols);
        if col_lo == col_hi {
            return false;
        }
        let base = row * self.words_per_row;
        let first_word = col_lo / 64;
        let last_word = (col_hi - 1) / 64;
        for w in first_word..=last_word {
            if self.masked_word(base, w, col_lo, col_hi) != 0 {
                return true;
            }
        }
        false
    }

    /// Loads one word of `row` masked to `[col_lo, col_hi)`; `w` is a
    /// word index within the row. Shared by all word-parallel scans.
    // sigmo-lint: allow(relaxed-read-in-report) — report-path scans run
    // after the writing launch joined (see `get`).
    #[inline]
    fn masked_word(&self, base: usize, w: usize, col_lo: usize, col_hi: usize) -> u64 {
        let mut bits = self.words[base + w].load(Ordering::Relaxed);
        if w == col_lo / 64 {
            bits &= u64::MAX << (col_lo % 64);
        }
        if w == (col_hi - 1) / 64 {
            let top = col_hi % 64;
            if top != 0 {
                bits &= u64::MAX >> (64 - top);
            }
        }
        bits
    }

    /// Iterates the set columns of `row` within `[col_lo, col_hi)` in
    /// ascending order, one 64-bit word at a time: each word is loaded
    /// once and its set bits extracted with `trailing_zeros` /
    /// `bits &= bits - 1`, so sparse rows cost O(words + set bits) loads
    /// instead of one load per column (§4.3's bitset enumeration).
    pub fn iter_set_in_range(
        &self,
        row: usize,
        col_lo: usize,
        col_hi: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        debug_assert!(col_lo <= col_hi && col_hi <= self.cols);
        let base = row * self.words_per_row;
        let first_word = col_lo / 64;
        let last_word = if col_lo == col_hi {
            0
        } else {
            (col_hi - 1) / 64
        };
        let mut w = first_word;
        let mut bits = if col_lo == col_hi {
            0
        } else {
            self.masked_word(base, w, col_lo, col_hi)
        };
        std::iter::from_fn(move || {
            if col_lo == col_hi {
                return None;
            }
            // sigmo-lint: allow(unbounded-kernel-loop) — each pass either
            // clears one bit or advances one word; bounded by the row span.
            loop {
                if bits != 0 {
                    let col = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    return Some(col);
                }
                if w == last_word {
                    return None;
                }
                w += 1;
                bits = self.masked_word(base, w, col_lo, col_hi);
            }
        })
    }

    /// First set column of `row` at or after `col_lo` (and below
    /// `col_hi`), found by scanning words — the join's depth-0 cursor
    /// advance. Returns `None` when the rest of the range is empty.
    pub fn next_set_in_range(&self, row: usize, col_lo: usize, col_hi: usize) -> Option<usize> {
        debug_assert!(col_lo <= col_hi && col_hi <= self.cols);
        if col_lo == col_hi {
            return None;
        }
        let base = row * self.words_per_row;
        let first_word = col_lo / 64;
        let last_word = (col_hi - 1) / 64;
        for w in first_word..=last_word {
            let bits = self.masked_word(base, w, col_lo, col_hi);
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// [`row_any_in_range`](Self::row_any_in_range) plus the number of
    /// words actually loaded before the early exit — the figure the
    /// mapping kernels charge to the device counters.
    pub fn row_any_in_range_counted(
        &self,
        row: usize,
        col_lo: usize,
        col_hi: usize,
    ) -> (bool, u64) {
        debug_assert!(col_lo <= col_hi && col_hi <= self.cols);
        if col_lo == col_hi {
            return (false, 0);
        }
        let base = row * self.words_per_row;
        let first_word = col_lo / 64;
        let last_word = (col_hi - 1) / 64;
        let mut loaded = 0u64;
        for w in first_word..=last_word {
            loaded += 1;
            if self.masked_word(base, w, col_lo, col_hi) != 0 {
                return (true, loaded);
            }
        }
        (false, loaded)
    }

    /// Number of 64-bit words a `[col_lo, col_hi)` scan of one row spans.
    pub fn words_in_range(col_lo: usize, col_hi: usize) -> u64 {
        if col_lo >= col_hi {
            0
        } else {
            ((col_hi - 1) / 64 - col_lo / 64 + 1) as u64
        }
    }

    /// Total candidates across all rows (Figure 5's "total candidates").
    pub fn total_count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Modeled memory transactions (in bytes) for touching `n_bits`
    /// scattered bits, given the configured word width.
    pub fn modeled_bytes_for_bits(&self, n_bits: u64) -> u64 {
        n_bits * self.word_width.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let b = CandidateBitmap::new(3, 100, WordWidth::U64);
        assert!(!b.get(1, 63));
        b.set(1, 63);
        b.set(1, 64);
        assert!(b.get(1, 63));
        assert!(b.get(1, 64));
        assert!(!b.get(0, 63));
        b.clear(1, 63);
        assert!(!b.get(1, 63));
        assert!(b.get(1, 64));
    }

    #[test]
    fn row_isolation() {
        let b = CandidateBitmap::new(2, 10, WordWidth::U64);
        b.set(0, 5);
        assert_eq!(b.row_count(0), 1);
        assert_eq!(b.row_count(1), 0);
    }

    #[test]
    fn row_count_in_range_handles_word_boundaries() {
        let b = CandidateBitmap::new(1, 200, WordWidth::U64);
        for c in [0, 1, 63, 64, 65, 127, 128, 199] {
            b.set(0, c);
        }
        assert_eq!(b.row_count_in_range(0, 0, 200), 8);
        assert_eq!(b.row_count_in_range(0, 1, 64), 2); // 1, 63
        assert_eq!(b.row_count_in_range(0, 64, 128), 3); // 64, 65, 127
        assert_eq!(b.row_count_in_range(0, 63, 65), 2); // 63, 64
        assert_eq!(b.row_count_in_range(0, 130, 199), 0);
        assert_eq!(b.row_count_in_range(0, 199, 200), 1);
        assert_eq!(b.row_count_in_range(0, 50, 50), 0);
    }

    #[test]
    fn row_any_in_range_matches_count() {
        let b = CandidateBitmap::new(1, 300, WordWidth::U64);
        b.set(0, 150);
        for (lo, hi) in [(0, 300), (100, 200), (150, 151), (0, 150), (151, 300)] {
            assert_eq!(
                b.row_any_in_range(0, lo, hi),
                b.row_count_in_range(0, lo, hi) > 0,
                "range [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn iter_set_in_range_ascending() {
        let b = CandidateBitmap::new(1, 130, WordWidth::U64);
        for c in [3, 64, 100, 129] {
            b.set(0, c);
        }
        let got: Vec<usize> = b.iter_set_in_range(0, 0, 130).collect();
        assert_eq!(got, vec![3, 64, 100, 129]);
        let got: Vec<usize> = b.iter_set_in_range(0, 4, 129).collect();
        assert_eq!(got, vec![64, 100]);
        let got: Vec<usize> = b.iter_set_in_range(0, 50, 50).collect();
        assert!(got.is_empty());
    }

    #[test]
    fn iter_set_in_range_matches_per_bit_scan() {
        // Dense-ish row with bits straddling every word boundary; every
        // sub-range must agree with a naive column-by-column probe.
        let b = CandidateBitmap::new(2, 200, WordWidth::U64);
        for c in [0, 1, 62, 63, 64, 65, 126, 127, 128, 191, 192, 199] {
            b.set(1, c);
        }
        for lo in [0usize, 1, 63, 64, 65, 128, 190, 199, 200] {
            for hi in [lo, 64, 65, 128, 192, 199, 200] {
                if hi < lo {
                    continue;
                }
                let fast: Vec<usize> = b.iter_set_in_range(1, lo, hi).collect();
                let slow: Vec<usize> = (lo..hi).filter(|&c| b.get(1, c)).collect();
                assert_eq!(fast, slow, "range [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn retain_row_matches_per_bit_scan_at_word_seams() {
        // Bits on both sides of every word seam, in a row whose last word
        // is partial; the verdict kills every third column.
        let cols = [0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 190, 191, 192, 199];
        let fresh = || {
            let b = CandidateBitmap::new(3, 200, WordWidth::U64);
            for &c in &cols {
                b.set(1, c);
            }
            b.set(0, 63);
            b.set(2, 64);
            b
        };
        let keep = |c: usize| !c.is_multiple_of(3);
        let fast = fresh();
        let got = fast.retain_row(1, keep);
        let slow = fresh();
        let (mut tested, mut cleared) = (0u64, 0u64);
        for c in 0..200 {
            if slow.get(1, c) {
                tested += 1;
                if !keep(c) {
                    slow.clear(1, c);
                    cleared += 1;
                }
            }
        }
        assert_eq!(got, (tested, cleared));
        assert_eq!(got, (14, 5));
        for r in 0..3 {
            for c in 0..200 {
                assert_eq!(fast.get(r, c), slow.get(r, c), "bit ({r}, {c})");
            }
        }
        assert_eq!(fresh().retain_row(1, |_| true), (14, 0));
        assert_eq!(
            CandidateBitmap::new(1, 200, WordWidth::U64).retain_row(0, |_| false),
            (0, 0)
        );
    }

    #[test]
    fn or_word_sets_exactly_the_mask() {
        let b = CandidateBitmap::new(2, 130, WordWidth::U64);
        b.or_word(1, 1, 1 | 1 << 63);
        b.or_word(1, 2, 0b10);
        b.or_word(1, 1, 1 << 5);
        let got: Vec<usize> = b.iter_set_in_range(1, 0, 130).collect();
        assert_eq!(got, vec![64, 69, 127, 129]);
        assert_eq!(b.row_count(0), 0);
    }

    #[test]
    fn next_set_in_range_finds_first() {
        let b = CandidateBitmap::new(1, 300, WordWidth::U64);
        for c in [70, 150, 299] {
            b.set(0, c);
        }
        assert_eq!(b.next_set_in_range(0, 0, 300), Some(70));
        assert_eq!(b.next_set_in_range(0, 70, 300), Some(70));
        assert_eq!(b.next_set_in_range(0, 71, 300), Some(150));
        assert_eq!(b.next_set_in_range(0, 151, 300), Some(299));
        assert_eq!(b.next_set_in_range(0, 151, 299), None);
        assert_eq!(b.next_set_in_range(0, 10, 10), None);
    }

    #[test]
    fn row_any_in_range_counted_reports_early_exit() {
        let b = CandidateBitmap::new(1, 64 * 8, WordWidth::U64);
        b.set(0, 5); // first word of the range
        let (any, words) = b.row_any_in_range_counted(0, 0, 512);
        assert!(any);
        assert_eq!(words, 1);
        // Empty range scan touches every word.
        let (any, words) = b.row_any_in_range_counted(0, 64, 512);
        assert!(!any);
        assert_eq!(words, 7);
        assert_eq!(CandidateBitmap::words_in_range(64, 512), 7);
        assert_eq!(CandidateBitmap::words_in_range(10, 10), 0);
        assert_eq!(CandidateBitmap::words_in_range(63, 65), 2);
    }

    #[test]
    fn copy_from_restores_snapshot() {
        let a = CandidateBitmap::new(3, 100, WordWidth::U64);
        for (r, c) in [(0, 0), (1, 63), (1, 64), (2, 99)] {
            a.set(r, c);
        }
        let b = CandidateBitmap::new(3, 100, WordWidth::U64);
        b.set(0, 50); // stale content that must be overwritten
        b.copy_from(&a);
        for r in 0..3 {
            for c in 0..100 {
                assert_eq!(a.get(r, c), b.get(r, c), "bit ({r}, {c})");
            }
        }
    }

    #[test]
    fn memory_formula_matches_paper() {
        // §5.1.3: 3,413 query nodes × 2,745,872 data nodes / 8 ≈ 1.17 GB.
        let rows = 3413usize;
        let cols = 2_745_872usize;
        let expected = (rows * cols).div_ceil(8);
        // We can't afford to allocate it; check the formula on a small one.
        let b = CandidateBitmap::new(10, 640, WordWidth::U64);
        assert_eq!(b.memory_bytes(), 10 * 640 / 8);
        assert_eq!(b.padded_memory_bytes(), b.memory_bytes()); // 640 % 64 == 0
        assert!(expected as f64 / 1e9 > 1.0 && (expected as f64 / 1e9) < 1.3);
    }

    #[test]
    fn padded_bytes_exceed_packed_when_cols_unaligned() {
        // 100 cols pack to ⌈3×100/8⌉ = 38 bytes but allocate 2 words/row.
        let b = CandidateBitmap::new(3, 100, WordWidth::U64);
        assert_eq!(b.memory_bytes(), 38);
        assert_eq!(b.padded_memory_bytes(), 3 * 2 * 8);
        assert!(b.padded_memory_bytes() > b.memory_bytes());
        assert_eq!(b.words_per_row(), 2);
    }

    #[test]
    fn concurrent_sets_do_not_lose_bits() {
        use std::sync::Arc;
        let b = Arc::new(CandidateBitmap::new(1, 64 * 8, WordWidth::U64));
        let mut handles = Vec::new();
        for t in 0..8usize {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                // All threads write into the same words.
                for c in (t..512).step_by(8) {
                    b.set(0, c);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.row_count(0), 512);
    }

    #[test]
    fn word_width_changes_modeled_traffic_only() {
        let b32 = CandidateBitmap::new(1, 64, WordWidth::U32);
        let b64 = CandidateBitmap::new(1, 64, WordWidth::U64);
        assert_eq!(b32.modeled_bytes_for_bits(10), 40);
        assert_eq!(b64.modeled_bytes_for_bits(10), 80);
        // Same logical behavior regardless of modeled width.
        b32.set(0, 5);
        b64.set(0, 5);
        assert_eq!(b32.get(0, 5), b64.get(0, 5));
    }

    #[test]
    fn total_count_sums_rows() {
        let b = CandidateBitmap::new(3, 70, WordWidth::U64);
        b.set(0, 0);
        b.set(1, 69);
        b.set(2, 35);
        b.set(2, 36);
        assert_eq!(b.total_count(), 4);
    }
}
