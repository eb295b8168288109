//! Canonical N\[X\] provenance polynomials.

use std::collections::BTreeMap;
use std::fmt;

use super::expr::{ProvExpr, Token};
use super::Semiring;

/// A monomial: tokens with positive integer exponents, e.g. `x²·y`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial(BTreeMap<Token, u32>);

impl Monomial {
    /// The empty monomial (the constant 1).
    pub fn unit() -> Self {
        Monomial(BTreeMap::new())
    }

    /// A single token.
    pub fn token(t: Token) -> Self {
        let mut m = BTreeMap::new();
        m.insert(t, 1);
        Monomial(m)
    }

    /// Multiply two monomials (exponents add).
    pub fn times(&self, other: &Monomial) -> Monomial {
        let mut m = self.0.clone();
        for (t, e) in &other.0 {
            *m.entry(t.clone()).or_insert(0) += e;
        }
        Monomial(m)
    }

    /// Total degree.
    pub fn degree(&self) -> u32 {
        self.0.values().sum()
    }

    /// Token → exponent pairs.
    pub fn factors(&self) -> impl Iterator<Item = (&Token, u32)> {
        self.0.iter().map(|(t, e)| (t, *e))
    }

    /// Does the monomial mention `t`?
    pub fn mentions(&self, t: &Token) -> bool {
        self.0.contains_key(t)
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "1");
        }
        for (i, (t, e)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            if *e == 1 {
                write!(f, "{t}")?;
            } else {
                write!(f, "{t}^{e}")?;
            }
        }
        Ok(())
    }
}

/// An element of N\[X\]: a finite formal sum of monomials with natural
/// coefficients. This is the *free* commutative semiring over X — the
/// most general provenance annotation, from which every other semiring's
/// answer is derived by homomorphism (see [`super::eval`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Polynomial {
    terms: BTreeMap<Monomial, u64>,
}

impl Polynomial {
    /// A single token as a polynomial.
    pub fn token(t: impl Into<Token>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(Monomial::token(t.into()), 1);
        Polynomial { terms }
    }

    /// A natural-number constant.
    pub fn constant(n: u64) -> Self {
        let mut terms = BTreeMap::new();
        if n > 0 {
            terms.insert(Monomial::unit(), n);
        }
        Polynomial { terms }
    }

    /// The monomial → coefficient map.
    pub fn terms(&self) -> &BTreeMap<Monomial, u64> {
        &self.terms
    }

    /// The size of the fully expanded polynomial: Σ over terms of
    /// (coefficient-is-counted-once + monomial degree). Used by the
    /// representation ablation against graph node counts.
    pub fn expanded_size(&self) -> usize {
        self.terms.keys().map(|m| 1 + m.degree() as usize).sum()
    }

    /// Expand a δ-free [`ProvExpr`] to its canonical polynomial.
    ///
    /// Returns `None` if the expression contains δ, which has no
    /// polynomial normal form (δ is kept symbolic in graphs).
    pub fn from_expr(e: &ProvExpr) -> Option<Polynomial> {
        match e {
            ProvExpr::Zero => Some(Polynomial::zero()),
            ProvExpr::One => Some(Polynomial::one()),
            ProvExpr::Tok(t) => Some(Polynomial::token(t.clone())),
            ProvExpr::Sum(v) => {
                let mut acc = Polynomial::zero();
                for p in v {
                    acc = acc.plus(&Polynomial::from_expr(p)?);
                }
                Some(acc)
            }
            ProvExpr::Prod(v) => {
                let mut acc = Polynomial::one();
                for p in v {
                    acc = acc.times(&Polynomial::from_expr(p)?);
                }
                Some(acc)
            }
            ProvExpr::Delta(_) => None,
        }
    }

    /// Substitute 0 for `t` — the polynomial counterpart of deletion
    /// propagation: every monomial mentioning `t` vanishes.
    pub fn delete_token(&self, t: &Token) -> Polynomial {
        Polynomial {
            terms: self
                .terms
                .iter()
                .filter(|(m, _)| !m.mentions(t))
                .map(|(m, c)| (m.clone(), *c))
                .collect(),
        }
    }
}

impl Semiring for Polynomial {
    fn zero() -> Self {
        Polynomial {
            terms: BTreeMap::new(),
        }
    }

    fn one() -> Self {
        Polynomial::constant(1)
    }

    /// Copies the larger operand and adds the smaller one's terms in.
    fn plus(&self, other: &Self) -> Self {
        let (big, small) = match self.terms.len() >= other.terms.len() {
            true => (self, other),
            false => (other, self),
        };
        let mut terms = big.terms.clone();
        for (m, c) in &small.terms {
            *terms.entry(m.clone()).or_insert(0) += c;
        }
        Polynomial { terms }
    }

    fn times(&self, other: &Self) -> Self {
        let mut terms: BTreeMap<Monomial, u64> = BTreeMap::new();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                *terms.entry(ma.times(mb)).or_insert(0) += ca * cb;
            }
        }
        Polynomial { terms }
    }

    /// δ has no canonical polynomial form; within N\[X\] we approximate it
    /// as the identity (the graph and [`ProvExpr`] forms keep δ exact).
    fn delta(&self) -> Self {
        self.clone()
    }

    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (m, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if *c != 1 {
                write!(f, "{c}")?;
                if m.degree() > 0 {
                    write!(f, "·")?;
                }
                if m.degree() > 0 {
                    write!(f, "{m}")?;
                }
            } else {
                write!(f, "{m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(s: &str) -> Polynomial {
        Polynomial::token(Token::new(s))
    }

    #[test]
    fn join_produces_products() {
        // (a + b) · c = a·c + b·c
        let p = tok("a").plus(&tok("b")).times(&tok("c"));
        assert_eq!(p.terms().len(), 2);
        assert_eq!(p.to_string(), "a·c + b·c");
    }

    #[test]
    fn self_join_squares() {
        let p = tok("a").times(&tok("a"));
        assert_eq!(p.to_string(), "a^2");
    }

    #[test]
    fn union_sums_coefficients() {
        let p = tok("a").plus(&tok("a"));
        assert_eq!(p.to_string(), "2·a");
    }

    #[test]
    fn from_expr_matches_manual() {
        let e = ProvExpr::prod(vec![
            ProvExpr::sum(vec![ProvExpr::tok("a"), ProvExpr::tok("b")]),
            ProvExpr::tok("c"),
        ]);
        let p = Polynomial::from_expr(&e).unwrap();
        assert_eq!(p, tok("a").plus(&tok("b")).times(&tok("c")));
    }

    #[test]
    fn from_expr_rejects_delta() {
        let e = ProvExpr::delta(ProvExpr::tok("a"));
        assert!(Polynomial::from_expr(&e).is_none());
    }

    #[test]
    fn delete_token_kills_mentioning_monomials() {
        let p = tok("a").times(&tok("b")).plus(&tok("c"));
        let q = p.delete_token(&Token::new("a"));
        assert_eq!(q.to_string(), "c");
        let r = p.delete_token(&Token::new("c"));
        assert_eq!(r.to_string(), "a·b");
    }

    #[test]
    fn constant_zero_is_zero() {
        assert!(Polynomial::constant(0).is_zero());
        assert_eq!(Polynomial::constant(0), Polynomial::zero());
    }

    #[test]
    fn expanded_size_grows_with_distribution() {
        // (a+b)·(c+d) has 4 monomials of degree 2 → expanded 12
        let p = tok("a").plus(&tok("b")).times(&tok("c").plus(&tok("d")));
        assert_eq!(p.terms().len(), 4);
        assert_eq!(p.expanded_size(), 12);
    }

    #[test]
    fn semiring_laws_hold_on_samples() {
        let a = tok("x").plus(&Polynomial::constant(2));
        let b = tok("y").times(&tok("x"));
        let c = tok("z");
        crate::semiring::laws::check_laws(a, b, c);
    }
}
