//! The semiring provenance framework (paper §2.3).
//!
//! Input tuples are annotated with *provenance tokens* drawn from a set X.
//! Query evaluation combines annotations with `+` (alternative derivation:
//! union, projection) and `·` (joint derivation: join, product), yielding
//! elements of the free commutative semiring N\[X\] — provenance
//! polynomials. Two extensions from the paper's foundations:
//!
//! - **δ** (delta): a unary duplicate-elimination operator annotating
//!   group-by / DISTINCT results with `δ(t₁ + … + tₙ)`;
//! - **⊗** (tensor): aggregate results are *values with provenance*,
//!   formal sums `Σᵢ tᵢ ⊗ vᵢ` pairing each aggregated value with the
//!   provenance of its tuple (see [`crate::agg`]).
//!
//! [`ProvExpr`] is the symbolic expression tree; [`Polynomial`] its
//! canonical N\[X\] normal form (for δ-free expressions). The
//! [`Semiring`] trait plus [`eval::eval_expr`] realize the framework's
//! central theorem — evaluation commutes with semiring homomorphisms — so
//! the same expression can be specialized to a count, a boolean, a cost,
//! a lineage set, or why-provenance. `WHY` and `EVAL` evaluate the graph
//! itself rather than its expansion ([`crate::query::circuit`]);
//! `eval_expr` is their test oracle.

pub mod boolean;
pub mod eval;
pub mod expr;
pub mod lineage;
pub mod natural;
pub mod polynomial;
pub mod tropical;
pub mod whyprov;

pub use expr::{ProvExpr, Token};
pub use polynomial::{Monomial, Polynomial};

/// A commutative semiring (K, +, ·, 0, 1).
///
/// Laws (verified by property tests for every implementation in this
/// crate):
///
/// - `(K, +, 0)` is a commutative monoid;
/// - `(K, ·, 1)` is a commutative monoid;
/// - `·` distributes over `+`;
/// - `0` annihilates: `0 · a = 0`.
pub trait Semiring: Clone + PartialEq + std::fmt::Debug {
    /// The additive identity; annotates absent tuples.
    fn zero() -> Self;
    /// The multiplicative identity; annotates tuples whose provenance is
    /// not tracked.
    fn one() -> Self;
    /// Alternative use of data (union / projection collapse).
    fn plus(&self, other: &Self) -> Self;
    /// Joint use of data (join / cartesian product).
    fn times(&self, other: &Self) -> Self;

    /// Duplicate elimination (§2.3): a group-by or DISTINCT result whose
    /// members have provenances t₁…tₙ is annotated `δ(t₁ + … + tₙ)`.
    /// δ is characterized by the equations
    ///
    /// - `δ(0) = 0`, `δ(1) = 1`;
    /// - `δ(δ(a)) = δ(a)` (idempotence);
    /// - `δ(a)·δ(a) = δ(a)` (multiplicative idempotence of dedup).
    ///
    /// The default is the identity, which satisfies them wherever `+`
    /// is idempotent (boolean, tropical, lineage, why). For counting,
    /// δ(a) = "1 if a ≠ 0 else 0" matches set semantics; [`ProvExpr`]
    /// keeps δ symbolic.
    fn delta(&self) -> Self {
        self.clone()
    }

    /// Is this the additive identity? Used by deletion propagation.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }
}

/// Sum an iterator of semiring values (a `+` node's fold in
/// [`crate::query::circuit::Valued`]). The first value seeds the fold,
/// so a lone part passes through without a copy.
pub fn sum<K: Semiring>(items: impl IntoIterator<Item = K>) -> K {
    let mut items = items.into_iter();
    let first = items.next().unwrap_or_else(K::zero);
    items.fold(first, |acc, x| acc.plus(&x))
}

/// Multiply an iterator of semiring values (a `·` node's fold), seeded
/// like [`sum`].
pub fn product<K: Semiring>(items: impl IntoIterator<Item = K>) -> K {
    let mut items = items.into_iter();
    let first = items.next().unwrap_or_else(K::one);
    items.fold(first, |acc, x| acc.times(&x))
}

#[cfg(test)]
pub(crate) mod laws {
    //! Reusable semiring-law checks, instantiated by each implementation's
    //! property tests.
    use super::Semiring;

    pub fn check_laws<K: Semiring>(a: K, b: K, c: K) {
        // commutative monoid (+, 0)
        assert_eq!(a.plus(&b), b.plus(&a), "+ commutes");
        assert_eq!(a.plus(&b).plus(&c), a.plus(&b.plus(&c)), "+ associates");
        assert_eq!(a.plus(&K::zero()), a, "0 is + identity");
        // commutative monoid (·, 1)
        assert_eq!(a.times(&b), b.times(&a), "· commutes");
        assert_eq!(a.times(&b).times(&c), a.times(&b.times(&c)), "· associates");
        assert_eq!(a.times(&K::one()), a, "1 is · identity");
        // distributivity
        assert_eq!(
            a.times(&b.plus(&c)),
            a.times(&b).plus(&a.times(&c)),
            "· distributes over +"
        );
        // annihilation
        assert_eq!(a.times(&K::zero()), K::zero(), "0 annihilates");
    }
}
