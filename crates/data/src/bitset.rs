//! Fixed-width bitset masks over object ids — the selection substrate of the
//! rank-centric slice engine.
//!
//! A subspace-slice selection is the intersection of `|S| − 1` per-attribute
//! conditions, each of which is a contiguous *rank window* in one
//! attribute's sorted order. [`SliceMask`] materialises such a selection as
//! one bit per object, so conditions combine in `O(N/64)` word operations
//! (or `O(popcount)` rank probes) instead of the `O(N · |S|)` per-object
//! counter updates of a hits-counting sampler.
//!
//! The mask deliberately has no growth or set-algebra bells: exactly the
//! operations the slice engine and the RIS neighbourhood counter's box
//! prefilter need — clear, fill-from-id-block, XOR of two prefix masks,
//! id toggles, in-place AND, rank-window refinement, popcount, and set-bit
//! iteration in ascending id order.

/// A bitset over object ids `0..n`, one `u64` word per 64 objects.
///
/// Bits at positions `>= n` in the last word are never set; every operation
/// preserves that invariant when given in-range ids (see
/// [`SliceMask::fill_from_ids`]), so [`SliceMask::count_ones`] needs no
/// masking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceMask {
    words: Vec<u64>,
    n: usize,
}

impl SliceMask {
    /// An empty mask over `n` objects.
    pub fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            n,
        }
    }

    /// Number of objects the mask ranges over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Zeroes every bit (`O(N/64)`).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets the bits of every id in `ids` (does not clear first).
    ///
    /// This is the "set from sorted block" entry: `ids` is typically a
    /// contiguous window of one attribute's argsort permutation.
    ///
    /// Ids must lie in `0..n`, which only debug builds check: every caller
    /// passes ids from an in-process argsort or from a permutation the
    /// model loader validated. In a release build an id `>= n` that still
    /// falls inside the last word silently sets a padding bit (breaking the
    /// invariant above); only an id past the last word panics.
    #[inline]
    pub fn fill_from_ids(&mut self, ids: &[u32]) {
        for &id in ids {
            let id = id as usize;
            debug_assert!(id < self.n, "object id {id} out of range 0..{}", self.n);
            self.words[id >> 6] |= 1u64 << (id & 63);
        }
    }

    /// Flips the bits of every id in `ids`. The slice sampler cuts a rank
    /// window out of two prefix masks with it: the ids between a window end
    /// and the nearest prefix end are either in the XOR and not the window,
    /// or the other way round, and one flip fixes either.
    ///
    /// Ids must lie in `0..n`, checked only in debug builds, as for
    /// [`SliceMask::fill_from_ids`]: in a release build an id `>= n` inside
    /// the last word silently flips a padding bit, and only an id past the
    /// last word panics.
    #[inline]
    pub fn toggle_ids(&mut self, ids: &[u32]) {
        for &id in ids {
            let id = id as usize;
            debug_assert!(id < self.n, "object id {id} out of range 0..{}", self.n);
            self.words[id >> 6] ^= 1u64 << (id & 63);
        }
    }

    /// Overwrites this mask with `a XOR b` in one word pass. For two prefix
    /// masks of one sorted order (the ids of rank below `p` and below `q`)
    /// that is the rank window between `p` and `q`.
    ///
    /// # Panics
    /// Panics if the masks range over different object counts.
    pub fn xor_of(&mut self, a: &SliceMask, b: &SliceMask) {
        assert!(
            self.n == a.n && a.n == b.n,
            "mask XOR requires equal domains"
        );
        for ((w, x), y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *w = x ^ y;
        }
    }

    /// Sets one bit.
    ///
    /// # Panics
    /// Panics if `id >= n`.
    #[inline]
    pub fn insert(&mut self, id: usize) {
        assert!(id < self.n, "object id {id} out of range 0..{}", self.n);
        self.words[id >> 6] |= 1u64 << (id & 63);
    }

    /// Whether object `id` is selected.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        debug_assert!(id < self.n);
        self.words[id >> 6] & (1u64 << (id & 63)) != 0
    }

    /// In-place intersection with another mask (`O(N/64)` word ANDs).
    ///
    /// # Panics
    /// Panics if the masks range over different object counts.
    pub fn and_assign(&mut self, other: &SliceMask) {
        assert_eq!(self.n, other.n, "mask intersection requires equal domains");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Fused in-place intersection **and** popcount: one pass over the words
    /// doing `AND` + `count_ones`, returning the size of the intersection.
    ///
    /// Use this instead of [`SliceMask::and_assign`] followed by
    /// [`SliceMask::count_ones`] whenever the count is needed right after
    /// the final intersection (the slice sampler's last condition): it
    /// halves the memory traffic over the word array.
    ///
    /// # Panics
    /// Panics if the masks range over different object counts.
    pub fn and_assign_popcount(&mut self, other: &SliceMask) -> usize {
        assert_eq!(self.n, other.n, "mask intersection requires equal domains");
        let mut count = 0usize;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let v = *w & o;
            *w = v;
            count += v.count_ones() as usize;
        }
        count
    }

    /// Keeps only the selected objects whose `ranks[id]` lies in
    /// `[lo, hi)` — the rank-aware refinement that applies one slice
    /// condition in `O(popcount)` probes instead of building and ANDing a
    /// second mask.
    ///
    /// `ranks` is an attribute's inverse argsort permutation
    /// ([`crate::index::RankIndex::rank`]).
    pub fn retain_rank_window(&mut self, ranks: &[u32], lo: u32, hi: u32) {
        debug_assert_eq!(ranks.len(), self.n);
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut remaining = *word;
            while remaining != 0 {
                let bit = remaining.trailing_zeros() as usize;
                let id = (wi << 6) | bit;
                let r = ranks[id];
                if r < lo || r >= hi {
                    *word &= !(1u64 << bit);
                }
                remaining &= remaining - 1;
            }
        }
    }

    /// Number of selected objects (`O(N/64)` popcounts).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the selected object ids in ascending order.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The backing words (read-only; for word-level consumers and tests).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl<'a> IntoIterator for &'a SliceMask {
    type Item = u32;
    type IntoIter = SetBits<'a>;
    fn into_iter(self) -> SetBits<'a> {
        self.iter()
    }
}

/// Iterator over the set bits of a [`SliceMask`], ascending.
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(((self.word_idx as u32) << 6) | bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask() {
        let m = SliceMask::new(100);
        assert_eq!(m.count_ones(), 0);
        assert_eq!(m.iter().count(), 0);
        assert!(!m.contains(0));
        assert_eq!(m.n(), 100);
    }

    #[test]
    fn fill_and_iterate_in_ascending_order() {
        let mut m = SliceMask::new(200);
        m.fill_from_ids(&[150, 3, 64, 63, 199, 0]);
        assert_eq!(m.count_ones(), 6);
        let ids: Vec<u32> = m.iter().collect();
        assert_eq!(ids, vec![0, 3, 63, 64, 150, 199]);
        assert!(m.contains(64));
        assert!(!m.contains(65));
    }

    #[test]
    fn and_assign_intersects() {
        let mut a = SliceMask::new(130);
        let mut b = SliceMask::new(130);
        a.fill_from_ids(&[1, 2, 3, 70, 128]);
        b.fill_from_ids(&[2, 3, 4, 128, 129]);
        a.and_assign(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 3, 128]);
    }

    #[test]
    fn retain_rank_window_filters_by_rank() {
        // Object ids 0..8 with ranks equal to the reversed id.
        let ranks: Vec<u32> = (0..8).rev().collect();
        let mut m = SliceMask::new(8);
        m.fill_from_ids(&[0, 1, 2, 3, 4, 5, 6, 7]);
        // Keep ranks 2..5 → ids with rank 2,3,4 → ids 5,4,3.
        m.retain_rank_window(&ranks, 2, 5);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn retain_matches_and_of_window_mask() {
        // retain_rank_window must agree with materialising the window as a
        // mask and ANDing.
        let n = 300;
        let order: Vec<u32> = (0..n as u32).map(|i| (i * 7) % n as u32).collect();
        let mut rank = vec![0u32; n];
        for (pos, &id) in order.iter().enumerate() {
            rank[id as usize] = pos as u32;
        }
        let mut a = SliceMask::new(n);
        a.fill_from_ids(&(0..n as u32).filter(|i| i % 3 == 0).collect::<Vec<_>>());
        let mut b = a.clone();

        a.retain_rank_window(&rank, 40, 160);
        let mut window = SliceMask::new(n);
        window.fill_from_ids(&order[40..160]);
        b.and_assign(&window);
        assert_eq!(a, b);
    }

    #[test]
    fn fused_and_popcount_matches_two_pass() {
        let n = 500;
        let mut a = SliceMask::new(n);
        let mut b = SliceMask::new(n);
        a.fill_from_ids(&(0..n as u32).filter(|i| i % 3 == 0).collect::<Vec<_>>());
        b.fill_from_ids(&(0..n as u32).filter(|i| i % 5 == 0).collect::<Vec<_>>());
        let mut reference = a.clone();
        reference.and_assign(&b);
        let count = a.and_assign_popcount(&b);
        assert_eq!(a, reference);
        assert_eq!(count, reference.count_ones());
        // Every multiple of 15 in range.
        assert_eq!(count, n.div_ceil(15));
    }

    #[test]
    #[should_panic]
    fn fused_and_rejects_mismatched_domains() {
        let mut a = SliceMask::new(10);
        let b = SliceMask::new(11);
        a.and_assign_popcount(&b);
    }

    #[test]
    fn toggle_ids_flips_set_and_unset_bits() {
        let mut m = SliceMask::new(200);
        m.fill_from_ids(&[1, 5, 64, 150, 199]);
        m.toggle_ids(&[5, 150, 7]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 7, 64, 199]);
        m.toggle_ids(&[7, 5, 150]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 5, 64, 150, 199]);
    }

    #[test]
    fn xor_of_overwrites_with_the_symmetric_difference() {
        let mut a = SliceMask::new(130);
        let mut b = SliceMask::new(130);
        a.fill_from_ids(&[0, 3, 64, 100, 129]);
        b.fill_from_ids(&[3, 64, 65]);
        let mut m = SliceMask::new(130);
        m.fill_from_ids(&[1, 2, 99]);
        m.xor_of(&a, &b);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 65, 100, 129]);
    }

    #[test]
    #[should_panic]
    fn xor_of_rejects_mismatched_domains() {
        let mut m = SliceMask::new(10);
        m.xor_of(&SliceMask::new(10), &SliceMask::new(11));
    }

    #[test]
    fn clear_resets() {
        let mut m = SliceMask::new(65);
        m.fill_from_ids(&[0, 64]);
        m.clear();
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    fn insert_single_bits() {
        let mut m = SliceMask::new(70);
        m.insert(69);
        m.insert(0);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 69]);
    }

    // The range check is a `debug_assert`: in a release build id 10 of a
    // 10-bit mask lands in the last word's padding and sets a bit instead.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn rejects_out_of_range_id() {
        let mut m = SliceMask::new(10);
        m.fill_from_ids(&[10]);
    }

    #[test]
    #[should_panic]
    fn rejects_mismatched_domains() {
        let mut a = SliceMask::new(10);
        let b = SliceMask::new(11);
        a.and_assign(&b);
    }
}
