//! The counting semiring (N, +, ·, 0, 1).
//!
//! Specializing provenance polynomials to N by valuating each token with
//! its tuple's multiplicity yields exactly the bag-semantics multiplicity
//! of the output tuple — the fundamental commutation property, used by the
//! engine's property tests as an end-to-end oracle.
//!
//! Arithmetic saturates at `u64::MAX`: every count at or past it is one
//! value, "at least `u64::MAX`". That is still a commutative semiring —
//! the image of ℕ under `n ↦ min(n, u64::MAX)`, which respects `+` and
//! `·` — so evaluation still commutes with it, and a 40-deep diamond
//! chain's 2⁴⁰ derivations, or far more, count without overflow.

use super::Semiring;

/// Natural numbers under arithmetic saturating at `u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Natural(pub u64);

impl Semiring for Natural {
    fn zero() -> Self {
        Natural(0)
    }
    fn one() -> Self {
        Natural(1)
    }
    fn plus(&self, other: &Self) -> Self {
        Natural(self.0.saturating_add(other.0))
    }
    fn times(&self, other: &Self) -> Self {
        Natural(self.0.saturating_mul(other.0))
    }
    /// Set-semantics collapse: a positive count deduplicates to 1.
    fn delta(&self) -> Self {
        Natural(u64::from(self.0 > 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn delta_collapses_counts() {
        assert_eq!(Natural(7).delta(), Natural(1));
        assert_eq!(Natural(0).delta(), Natural(0));
    }

    #[test]
    fn saturates_at_the_cap() {
        assert_eq!(Natural(u64::MAX).plus(&Natural(1)), Natural(u64::MAX));
        assert_eq!(Natural(u64::MAX).times(&Natural(2)), Natural(u64::MAX));
        assert_eq!(Natural(u64::MAX).times(&Natural(0)), Natural(0));
    }

    /// Small values, and values within a few thousand of the cap.
    fn near_cap() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..1000,
            u64::MAX - 3000..u64::MAX,
            Just(u64::MAX),
            1u64 << 32..(1 << 32) + 8
        ]
    }

    proptest! {
        #[test]
        fn laws(a in near_cap(), b in near_cap(), c in near_cap()) {
            crate::semiring::laws::check_laws(Natural(a), Natural(b), Natural(c));
        }
    }
}
