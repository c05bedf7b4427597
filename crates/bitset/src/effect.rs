//! The [`EffectSet`] trait: the set vocabulary every solver phase uses.
//!
//! Every solver in the workspace manipulates *effect sets* — subsets of the
//! program's variable universe (`MOD`, `USE`, `GMOD`, …). The paper states
//! its complexity bounds in whole-vector *bit-vector steps* over the dense
//! "exceedingly long bit vectors" of §4, which [`BitSet`] implements. The
//! trait names that operation set once and adds the `*_counted` variants
//! that charge the cost model one step per whole-vector operation.

use std::fmt;
use std::hash::Hash;

use crate::{BitSet, OpCounter};

/// Error returned by the fallible (`try_*`) binary set operations when the
/// two operands draw from different universes.
///
/// The infallible operations (`union_with`, …) *debug-assert* equal domains
/// and document the release-build contract instead of checking on every
/// hot-loop call; use the `try_*` forms at trust boundaries (deserialised
/// input, cross-program sets) where a typed error is worth the branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainMismatch {
    /// Domain of the left-hand (receiver) set.
    pub left: usize,
    /// Domain of the right-hand (argument) set.
    pub right: usize,
}

impl fmt::Display for DomainMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit-set domain mismatch: {} vs {}",
            self.left, self.right
        )
    }
}

impl std::error::Error for DomainMismatch {}

/// A set of `usize` elements drawn from a fixed universe `0..domain`,
/// as used by every solver phase.
///
/// # Contract
///
/// * Binary operations require both operands to share one domain. This is
///   debug-asserted; in release builds a mismatch yields an unspecified
///   (but memory-safe) result. Use the `try_*` inherent methods on
///   [`BitSet`] where a typed [`DomainMismatch`] error is needed.
/// * `Eq`/`Hash` are canonical over `(domain, elements)`.
/// * [`iter`](EffectSet::iter) yields elements in ascending order.
/// * The `*_counted` variants charge the paper's cost model exactly one
///   `bitvec_steps` per whole-vector operation.
pub trait EffectSet:
    Clone + PartialEq + Eq + Hash + fmt::Debug + Default + Send + Sync + 'static
{
    /// Ascending iterator over the elements.
    type ElemIter<'a>: Iterator<Item = usize> + 'a
    where
        Self: 'a;

    /// Creates an empty set over `0..domain`.
    fn empty(domain: usize) -> Self;

    /// Creates a set containing every element of `0..domain`.
    fn full(domain: usize) -> Self;

    /// The size of the universe this set draws from.
    fn domain(&self) -> usize;

    /// Number of elements currently in the set.
    fn len(&self) -> usize;

    /// Returns `true` if the set contains no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `x`, returning `true` if it was not already present.
    ///
    /// Panics if `x >= self.domain()`.
    fn insert(&mut self, x: usize) -> bool;

    /// Removes `x`, returning `true` if it was present.
    ///
    /// Panics if `x >= self.domain()`.
    fn remove(&mut self, x: usize) -> bool;

    /// Tests membership of `x`. Elements outside the universe are absent.
    fn contains(&self, x: usize) -> bool;

    /// Removes every element.
    fn clear(&mut self);

    /// `self ∪= other`; returns `true` if `self` changed.
    fn union_with(&mut self, other: &Self) -> bool;

    /// `self ∩= other`; returns `true` if `self` changed.
    fn intersect_with(&mut self, other: &Self) -> bool;

    /// `self ∖= other`; returns `true` if `self` changed.
    fn difference_with(&mut self, other: &Self) -> bool;

    /// `self ∪= src ∖ minus` in one pass; returns `true` if `self` changed.
    ///
    /// The single-step form of the paper's equation (4).
    fn union_with_difference(&mut self, src: &Self, minus: &Self) -> bool;

    /// `self ∪= src ∩ mask` in one pass; returns `true` if `self` changed.
    fn union_with_intersection(&mut self, src: &Self, mask: &Self) -> bool;

    /// Returns `true` if the two sets share no element.
    fn is_disjoint(&self, other: &Self) -> bool;

    /// Returns `true` if every element of `self` is in `other`.
    fn is_subset(&self, other: &Self) -> bool;

    /// Iterates over the elements in ascending order.
    fn iter(&self) -> Self::ElemIter<'_>;

    /// Bytes of heap storage currently owned by this set (excluding the
    /// inline struct itself). Feeds the benchmark's `bitset.answer_bytes`
    /// layer metric.
    fn heap_bytes(&self) -> usize;

    /// Builds a set from an iterator of elements.
    fn from_elems<I: IntoIterator<Item = usize>>(domain: usize, elems: I) -> Self {
        let mut s = Self::empty(domain);
        for x in elems {
            s.insert(x);
        }
        s
    }

    /// [`union_with`](EffectSet::union_with), charged as one bit-vector step.
    fn union_with_counted(&mut self, other: &Self, ops: &mut OpCounter) -> bool {
        ops.bitvec_steps += 1;
        self.union_with(other)
    }

    /// [`intersect_with`](EffectSet::intersect_with), charged as one
    /// bit-vector step.
    fn intersect_with_counted(&mut self, other: &Self, ops: &mut OpCounter) -> bool {
        ops.bitvec_steps += 1;
        self.intersect_with(other)
    }

    /// [`difference_with`](EffectSet::difference_with), charged as one
    /// bit-vector step.
    fn difference_with_counted(&mut self, other: &Self, ops: &mut OpCounter) -> bool {
        ops.bitvec_steps += 1;
        self.difference_with(other)
    }

    /// [`union_with_difference`](EffectSet::union_with_difference), charged
    /// as one bit-vector step (the paper's per-edge cost in `findgmod`).
    fn union_with_difference_counted(
        &mut self,
        src: &Self,
        minus: &Self,
        ops: &mut OpCounter,
    ) -> bool {
        ops.bitvec_steps += 1;
        self.union_with_difference(src, minus)
    }

    /// [`union_with_intersection`](EffectSet::union_with_intersection),
    /// charged as one bit-vector step.
    fn union_with_intersection_counted(
        &mut self,
        src: &Self,
        mask: &Self,
        ops: &mut OpCounter,
    ) -> bool {
        ops.bitvec_steps += 1;
        self.union_with_intersection(src, mask)
    }
}

impl EffectSet for BitSet {
    type ElemIter<'a> = crate::Iter<'a>;

    fn empty(domain: usize) -> Self {
        BitSet::new(domain)
    }

    fn full(domain: usize) -> Self {
        BitSet::full(domain)
    }

    fn domain(&self) -> usize {
        BitSet::domain(self)
    }

    fn len(&self) -> usize {
        BitSet::len(self)
    }

    fn is_empty(&self) -> bool {
        BitSet::is_empty(self)
    }

    fn insert(&mut self, x: usize) -> bool {
        BitSet::insert(self, x)
    }

    fn remove(&mut self, x: usize) -> bool {
        BitSet::remove(self, x)
    }

    fn contains(&self, x: usize) -> bool {
        BitSet::contains(self, x)
    }

    fn clear(&mut self) {
        BitSet::clear(self)
    }

    fn union_with(&mut self, other: &Self) -> bool {
        BitSet::union_with(self, other)
    }

    fn intersect_with(&mut self, other: &Self) -> bool {
        BitSet::intersect_with(self, other)
    }

    fn difference_with(&mut self, other: &Self) -> bool {
        BitSet::difference_with(self, other)
    }

    fn union_with_difference(&mut self, src: &Self, minus: &Self) -> bool {
        BitSet::union_with_difference(self, src, minus)
    }

    fn union_with_intersection(&mut self, src: &Self, mask: &Self) -> bool {
        BitSet::union_with_intersection(self, src, mask)
    }

    fn is_disjoint(&self, other: &Self) -> bool {
        BitSet::is_disjoint(self, other)
    }

    fn is_subset(&self, other: &Self) -> bool {
        BitSet::is_subset(self, other)
    }

    fn iter(&self) -> Self::ElemIter<'_> {
        BitSet::iter(self)
    }

    fn heap_bytes(&self) -> usize {
        self.as_words().len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_mismatch_display() {
        let e = DomainMismatch { left: 3, right: 7 };
        assert_eq!(e.to_string(), "bit-set domain mismatch: 3 vs 7");
    }

    #[test]
    fn dense_effect_set_round_trip() {
        let mut s = <BitSet as EffectSet>::empty(130);
        EffectSet::insert(&mut s, 5);
        EffectSet::insert(&mut s, 129);
        let d = <BitSet as EffectSet>::from_elems(130, [129, 5]);
        assert_eq!(d, s);
        assert_eq!(EffectSet::iter(&d).collect::<Vec<_>>(), vec![5, 129]);
        assert_eq!(EffectSet::heap_bytes(&d), 3 * 8);
        let full = <BitSet as EffectSet>::full(70);
        assert_eq!(EffectSet::len(&full), 70);
    }

    #[test]
    fn counted_ops_charge_one_step_each() {
        let mut ops = OpCounter::new();
        let mut a = BitSet::from_iter_with_domain(64, [1]);
        let b = BitSet::from_iter_with_domain(64, [2]);
        a.union_with_counted(&b, &mut ops);
        a.intersect_with_counted(&b, &mut ops);
        a.difference_with_counted(&b, &mut ops);
        let c = b.clone();
        a.union_with_difference_counted(&b, &c, &mut ops);
        a.union_with_intersection_counted(&b, &c, &mut ops);
        assert_eq!(ops.bitvec_steps, 5);
    }
}
