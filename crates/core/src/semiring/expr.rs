//! Symbolic provenance expressions.

use std::fmt;
use std::sync::Arc;

/// A provenance token: the "atomic" annotation of one input tuple
/// (tuple identifiers in the paper, e.g. `C2` for a car in the dealer's
/// state or `I1` for a bid request).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub Arc<str>);

impl Token {
    pub fn new(s: impl AsRef<str>) -> Self {
        Token(Arc::from(s.as_ref()))
    }
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Token {
    fn from(s: &str) -> Self {
        Token::new(s)
    }
}

/// A symbolic provenance expression over tokens: the tree form of
/// N\[X\] elements extended with δ.
///
/// Sums and products are n-ary (flattened) to keep trees shallow; the
/// canonical polynomial form lives in [`super::Polynomial`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProvExpr {
    /// Absent data.
    Zero,
    /// Untracked data.
    One,
    /// An input-tuple token.
    Tok(Token),
    /// Alternative derivations.
    Sum(Vec<ProvExpr>),
    /// Joint derivations.
    Prod(Vec<ProvExpr>),
    /// Duplicate elimination (group-by / DISTINCT).
    Delta(Box<ProvExpr>),
}

impl ProvExpr {
    pub fn tok(s: impl AsRef<str>) -> Self {
        ProvExpr::Tok(Token::new(s))
    }

    /// Smart sum constructor: drops zeros, flattens nested sums, and
    /// collapses singleton/empty cases.
    pub fn sum(parts: impl IntoIterator<Item = ProvExpr>) -> Self {
        let mut out = Vec::new();
        for p in parts {
            match p {
                ProvExpr::Zero => {}
                ProvExpr::Sum(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => ProvExpr::Zero,
            1 => out.pop().expect("len checked"),
            _ => ProvExpr::Sum(out),
        }
    }

    /// Smart product constructor: short-circuits zero, drops ones,
    /// flattens nested products.
    pub fn prod(parts: impl IntoIterator<Item = ProvExpr>) -> Self {
        let mut out = Vec::new();
        for p in parts {
            match p {
                ProvExpr::Zero => return ProvExpr::Zero,
                ProvExpr::One => {}
                ProvExpr::Prod(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => ProvExpr::One,
            1 => out.pop().expect("len checked"),
            _ => ProvExpr::Prod(out),
        }
    }

    /// δ wrapper; δ(0) = 0 (no derivations ⇒ nothing to deduplicate).
    pub fn delta(inner: ProvExpr) -> Self {
        match inner {
            ProvExpr::Zero => ProvExpr::Zero,
            other => ProvExpr::Delta(Box::new(other)),
        }
    }

    /// All distinct tokens mentioned by the expression.
    pub fn tokens(&self) -> std::collections::BTreeSet<&Token> {
        let mut set = std::collections::BTreeSet::new();
        self.collect_tokens(&mut set);
        set
    }

    fn collect_tokens<'a>(&'a self, into: &mut std::collections::BTreeSet<&'a Token>) {
        match self {
            ProvExpr::Zero | ProvExpr::One => {}
            ProvExpr::Tok(t) => {
                into.insert(t);
            }
            ProvExpr::Sum(v) | ProvExpr::Prod(v) => {
                for p in v {
                    p.collect_tokens(into);
                }
            }
            ProvExpr::Delta(p) => p.collect_tokens(into),
        }
    }

    /// Number of operators + leaves: the size of the *expanded* symbolic
    /// representation. Compared against graph size in the representation
    /// ablation (graphs share sub-expressions; trees do not).
    pub fn size(&self) -> usize {
        match self {
            ProvExpr::Zero | ProvExpr::One | ProvExpr::Tok(_) => 1,
            ProvExpr::Sum(v) | ProvExpr::Prod(v) => 1 + v.iter().map(ProvExpr::size).sum::<usize>(),
            ProvExpr::Delta(p) => 1 + p.size(),
        }
    }

    /// Nesting depth: 1 for a leaf, one more than the deepest part for
    /// an operator. Recursive, like `Display` and drop.
    pub fn depth(&self) -> u32 {
        match self {
            ProvExpr::Zero | ProvExpr::One | ProvExpr::Tok(_) => 1,
            ProvExpr::Sum(v) | ProvExpr::Prod(v) => {
                1 + v.iter().map(ProvExpr::depth).max().unwrap_or(0)
            }
            ProvExpr::Delta(p) => 1 + p.depth(),
        }
    }
}

impl fmt::Display for ProvExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// Writes `e`, parenthesised if it is a sum inside a product.
        fn wrap(e: &ProvExpr, f: &mut fmt::Formatter<'_>, parent_prod: bool) -> fmt::Result {
            let (parts, prod) = match e {
                ProvExpr::Zero => return f.write_str("0"),
                ProvExpr::One => return f.write_str("1"),
                ProvExpr::Tok(t) => return f.write_str(t.as_str()),
                ProvExpr::Delta(p) => {
                    f.write_str("δ(")?;
                    wrap(p, f, false)?;
                    return f.write_str(")");
                }
                ProvExpr::Sum(v) => (v, false),
                ProvExpr::Prod(v) => (v, true),
            };
            let (sep, paren) = if prod {
                ("·", false)
            } else {
                (" + ", parent_prod)
            };
            f.write_str(if paren { "(" } else { "" })?;
            for (i, p) in parts.iter().enumerate() {
                f.write_str(if i == 0 { "" } else { sep })?;
                wrap(p, f, prod)?;
            }
            f.write_str(if paren { ")" } else { "" })
        }
        wrap(self, f, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_sum_flattens_and_drops_zero() {
        let e = ProvExpr::sum(vec![
            ProvExpr::tok("a"),
            ProvExpr::Zero,
            ProvExpr::sum(vec![ProvExpr::tok("b"), ProvExpr::tok("c")]),
        ]);
        assert_eq!(e.to_string(), "a + b + c");
    }

    #[test]
    fn smart_prod_short_circuits_zero() {
        let e = ProvExpr::prod(vec![ProvExpr::tok("a"), ProvExpr::Zero]);
        assert_eq!(e, ProvExpr::Zero);
    }

    #[test]
    fn smart_prod_drops_one() {
        let e = ProvExpr::prod(vec![ProvExpr::One, ProvExpr::tok("a")]);
        assert_eq!(e, ProvExpr::tok("a"));
    }

    #[test]
    fn empty_sum_is_zero_empty_prod_is_one() {
        assert_eq!(ProvExpr::sum(vec![]), ProvExpr::Zero);
        assert_eq!(ProvExpr::prod(vec![]), ProvExpr::One);
    }

    #[test]
    fn delta_of_zero_is_zero() {
        assert_eq!(ProvExpr::delta(ProvExpr::Zero), ProvExpr::Zero);
        assert!(matches!(
            ProvExpr::delta(ProvExpr::tok("a")),
            ProvExpr::Delta(_)
        ));
    }

    #[test]
    fn display_parenthesizes_sum_under_prod() {
        let e = ProvExpr::prod(vec![
            ProvExpr::tok("x"),
            ProvExpr::sum(vec![ProvExpr::tok("a"), ProvExpr::tok("b")]),
        ]);
        assert_eq!(e.to_string(), "x·(a + b)");
    }

    #[test]
    fn token_collection() {
        let e = ProvExpr::prod(vec![
            ProvExpr::tok("x"),
            ProvExpr::delta(ProvExpr::sum(vec![ProvExpr::tok("a"), ProvExpr::tok("x")])),
        ]);
        let toks: Vec<&str> = e.tokens().iter().map(|t| t.as_str()).collect();
        assert_eq!(toks, vec!["a", "x"]);
    }

    #[test]
    fn size_counts_expanded_tree() {
        let e = ProvExpr::sum(vec![
            ProvExpr::prod(vec![ProvExpr::tok("a"), ProvExpr::tok("b")]),
            ProvExpr::tok("c"),
        ]);
        // sum + (prod + a + b) + c = 5
        assert_eq!(e.size(), 5);
    }
}
