//! The [`SetMatrix`]: many [`BitSet`] rows over one shared universe.
//!
//! One row per procedure, with the split-row primitives equation (4) of
//! Cooper–Kennedy 1988 needs (`GMOD[p] ∪= GMOD[q] ∖ LOCAL[q]`).

use std::fmt;

use crate::{BitSet, Iter};

/// A rectangular matrix of [`BitSet`] rows over the universe `0..cols`.
///
/// # Examples
///
/// ```
/// use modref_bitset::{BitSet, SetMatrix};
///
/// let mut m: SetMatrix = SetMatrix::new(3, 10);
/// m.insert(0, 4);
/// m.insert(1, 7);
/// m.or_rows(0, 1); // row0 ∪= row1
/// assert!(m.contains(0, 7));
/// assert!(!m.contains(1, 4));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SetMatrix {
    cols: usize,
    rows: Vec<BitSet>,
}

impl SetMatrix {
    /// Creates an all-empty matrix with `rows` rows over universe `0..cols`.
    pub fn new(rows: usize, cols: usize) -> Self {
        SetMatrix {
            cols,
            rows: vec![BitSet::new(cols); rows],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Size of the shared universe (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets bit `col` in row `row`; returns `true` if it was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn insert(&mut self, row: usize, col: usize) -> bool {
        self.rows[row].insert(col)
    }

    /// Clears bit `col` in row `row`; returns `true` if it was set.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn remove(&mut self, row: usize, col: usize) -> bool {
        self.rows[row].remove(col)
    }

    /// Tests bit `col` in row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range. Columns past the universe read as
    /// `false`.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.rows[row].contains(col)
    }

    /// `row[dst] ∪= row[src]`; returns `true` if the destination changed.
    ///
    /// `dst == src` is allowed and is a no-op.
    pub fn or_rows(&mut self, dst: usize, src: usize) -> bool {
        if dst == src {
            self.check_row(dst);
            return false;
        }
        let (d, s) = self.two_rows(dst, src);
        d.union_with(s)
    }

    /// `row[dst] ∪= row[src] ∖ mask` where `mask` is an external set of the
    /// same universe (e.g. `LOCAL[q]`); returns `true` if `dst` changed.
    ///
    /// `dst == src` applies `row[dst] ∪= row[dst] ∖ mask`, a no-op.
    ///
    /// # Examples
    ///
    /// Equation (4) of Cooper–Kennedy 1988, `GMOD[p] ∪= GMOD[q] ∖ LOCAL[q]`,
    /// on one matrix of `GMOD` rows:
    ///
    /// ```
    /// use modref_bitset::{BitSet, SetMatrix};
    ///
    /// let (p, q) = (0, 1);
    /// let mut gmod: SetMatrix = SetMatrix::new(2, 8);
    /// gmod.insert(q, 3); // a global q writes
    /// gmod.insert(q, 5); // a local of q
    /// let local_q = BitSet::from_iter_with_domain(8, [5]);
    /// assert!(gmod.or_rows_minus(p, q, &local_q));
    /// assert_eq!(gmod.row_iter(p).collect::<Vec<_>>(), vec![3]);
    /// ```
    pub fn or_rows_minus(&mut self, dst: usize, src: usize, mask: &BitSet) -> bool {
        if dst == src {
            self.check_row(dst);
            return false;
        }
        let (d, s) = self.two_rows(dst, src);
        d.union_with_difference(s, mask)
    }

    /// `row[dst] ∪= row[src] ∩ mask`; returns `true` if `dst` changed.
    pub fn or_rows_masked(&mut self, dst: usize, src: usize, mask: &BitSet) -> bool {
        if dst == src {
            self.check_row(dst);
            return false;
        }
        let (d, s) = self.two_rows(dst, src);
        d.union_with_intersection(s, mask)
    }

    /// `row[dst] ∪= set`; returns `true` if the row changed.
    pub fn or_row_with_set(&mut self, dst: usize, set: &BitSet) -> bool {
        self.rows[dst].union_with(set)
    }

    /// Shared view of row `row`.
    pub fn row(&self, row: usize) -> &BitSet {
        &self.rows[row]
    }

    /// Copies row `src` into a fresh set.
    pub fn row_to_set(&self, src: usize) -> BitSet {
        self.rows[src].clone()
    }

    /// Replaces row `dst` with the contents of `set`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or `set.domain() != self.cols()`.
    pub fn set_row(&mut self, dst: usize, set: &BitSet) {
        assert_eq!(set.domain(), self.cols, "set domain mismatch");
        self.rows[dst] = set.clone();
    }

    /// Consumes the matrix, yielding its rows.
    pub fn into_rows(self) -> Vec<BitSet> {
        self.rows
    }

    /// Iterates over the set columns of row `row`, ascending.
    pub fn row_iter(&self, row: usize) -> Iter<'_> {
        self.rows[row].iter()
    }

    /// Number of set bits in row `row`.
    pub fn row_len(&self, row: usize) -> usize {
        self.rows[row].len()
    }

    /// Returns `true` if rows `a` and `b` hold identical sets.
    pub fn rows_equal(&self, a: usize, b: usize) -> bool {
        self.rows[a] == self.rows[b]
    }

    fn check_row(&self, row: usize) {
        assert!(
            row < self.rows.len(),
            "row {row} out of range 0..{}",
            self.rows.len()
        );
    }

    /// Splits the storage into one mutable and one shared row.
    fn two_rows(&mut self, dst: usize, src: usize) -> (&mut BitSet, &BitSet) {
        debug_assert_ne!(dst, src);
        if dst < src {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        }
    }
}

impl fmt::Debug for SetMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut dbg = f.debug_map();
        for (r, row) in self.rows.iter().enumerate() {
            dbg.entry(&r, &row.iter().collect::<Vec<_>>());
        }
        dbg.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitSet;

    #[test]
    fn dense_rows() {
        let mut m = SetMatrix::new(3, 100);
        assert!(m.insert(0, 1));
        assert!(!m.insert(0, 1));
        assert!(m.remove(0, 1));
        assert!(!m.remove(0, 1));
        assert!(!m.contains(0, 1));
        assert!(m.insert(0, 1));
        assert!(m.insert(2, 69));
        assert!(m.or_rows(0, 2));
        assert!(m.contains(0, 69));
        assert!(!m.or_rows(0, 0));
        let local = BitSet::from_iter_with_domain(100, [69]);
        assert!(m.or_rows_minus(1, 0, &local));
        assert!(m.contains(1, 1) && !m.contains(1, 69));
        assert!(m.or_rows_masked(1, 0, &local));
        assert!(m.contains(1, 69));
        assert_eq!(m.row_len(1), 2);
        let s = BitSet::from_iter_with_domain(100, [0, 63, 64, 99]);
        m.set_row(2, &s);
        assert_eq!(m.row_to_set(2), s);
        assert_eq!(m.row_iter(2).collect::<Vec<_>>(), vec![0, 63, 64, 99]);
        assert!(!m.rows_equal(0, 2));
        m.or_row_with_set(0, &s);
        assert!(m.remove(0, 69));
        assert_eq!(m.row(0).len(), 5);
    }

    #[test]
    fn insert_contains_remove() {
        let mut m: SetMatrix = SetMatrix::new(4, 130);
        assert!(m.insert(2, 129));
        assert!(!m.insert(2, 129));
        assert!(m.contains(2, 129));
        assert!(!m.contains(1, 129));
        assert!(m.remove(2, 129));
        assert!(!m.remove(2, 129));
    }

    #[test]
    fn or_rows_self_is_noop() {
        let mut m: SetMatrix = SetMatrix::new(2, 64);
        m.insert(1, 5);
        assert!(!m.or_rows(1, 1));
        assert!(m.contains(1, 5));
    }

    #[test]
    fn or_rows_minus_applies_mask() {
        let mut m: SetMatrix = SetMatrix::new(2, 100);
        m.insert(1, 10);
        m.insert(1, 20);
        let local = BitSet::from_iter_with_domain(100, [20]);
        assert!(m.or_rows_minus(0, 1, &local));
        assert!(m.contains(0, 10));
        assert!(!m.contains(0, 20));
    }

    #[test]
    fn or_rows_masked_applies_mask() {
        let mut m: SetMatrix = SetMatrix::new(2, 100);
        m.insert(1, 10);
        m.insert(1, 20);
        let mask = BitSet::from_iter_with_domain(100, [20]);
        assert!(m.or_rows_masked(0, 1, &mask));
        assert!(!m.contains(0, 10));
        assert!(m.contains(0, 20));
    }

    #[test]
    fn row_set_round_trip() {
        let mut m: SetMatrix = SetMatrix::new(2, 90);
        let s = BitSet::from_iter_with_domain(90, [0, 63, 64, 89]);
        m.set_row(1, &s);
        assert_eq!(m.row_to_set(1), s);
        assert_eq!(m.row_len(1), 4);
        assert_eq!(m.row_iter(1).collect::<Vec<_>>(), vec![0, 63, 64, 89]);
        let mut m2 = m.clone();
        m2.or_row_with_set(0, &s);
        assert!(m2.rows_equal(0, 1));
        assert!(!m.rows_equal(0, 1));
    }

    #[test]
    fn or_rows_both_orders() {
        // `dst` below and above `src` take the two halves of the row
        // split.
        let mut m: SetMatrix = SetMatrix::new(3, 70);
        m.insert(0, 1);
        m.insert(2, 69);
        assert!(m.or_rows(0, 2));
        assert!(m.contains(0, 69));
        assert!(m.or_rows(2, 0));
        assert!(m.contains(2, 1));
        assert!(!m.or_rows(2, 0));
    }

    #[test]
    fn zero_column_matrix() {
        let mut m: SetMatrix = SetMatrix::new(3, 0);
        assert!(!m.or_rows(0, 1));
        assert_eq!(m.row_len(2), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_row_panics() {
        SetMatrix::new(2, 8).insert(5, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn self_or_checks_bounds() {
        let mut m: SetMatrix = SetMatrix::new(2, 8);
        m.or_rows(5, 5);
    }
}
