#![warn(missing_docs)]

//! Dense bit-vector sets for interprocedural data-flow analysis.
//!
//! The algorithms of Cooper & Kennedy (PLDI 1988) state their complexity in
//! *bit-vector steps*: whole-vector boolean operations over a universe of
//! variables that, for interprocedural problems, grows linearly with program
//! size (§1 of the paper). This crate provides the two set types every
//! solver in the workspace uses:
//!
//! * [`BitSet`] — a fixed-universe dense set of `usize` elements.
//! * [`SetMatrix`] — a rectangular array of rows over one shared universe,
//!   with the split-row operations (`or_rows`, `or_rows_masked`) that
//!   equation (4) of the paper needs (`GMOD[p] ∪= GMOD[q] ∖ LOCAL[q]`).
//!
//! Both types are plain data: no interior mutability, `Clone`/`Eq`, and
//! deterministic iteration in ascending element order.
//!
//! The [`EffectSet`] trait names the set operations every solver phase
//! uses, including the `*_counted` forms that charge the paper's cost
//! model; [`BitSet`] is its implementation.
//!
//! # Examples
//!
//! ```
//! use modref_bitset::BitSet;
//!
//! let mut a = BitSet::new(128);
//! a.insert(3);
//! a.insert(96);
//! let mut b = BitSet::new(128);
//! b.insert(96);
//! b.insert(100);
//! let changed = a.union_with(&b);
//! assert!(changed);
//! assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 96, 100]);
//! ```

mod bitset;
mod counter;
mod effect;
mod matrix;

pub use bitset::{BitSet, Iter};
pub use counter::OpCounter;
pub use effect::{DomainMismatch, EffectSet};
pub use matrix::SetMatrix;

/// Number of bits per storage word.
pub(crate) const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `bits` bits.
pub(crate) const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

#[cfg(test)]
mod tests {
    use super::words_for;

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }
}
