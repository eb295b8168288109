//! Minimal in-tree subset of `proptest`: the `proptest!` macro,
//! strategies with `prop_map`/`prop_recursive`, `prop_oneof!`, `any`,
//! `Just`, ranges, tuples, string patterns, and
//! `prop::collection::vec`.
//!
//! Cases are drawn from the workspace's one seeded generator
//! (`rand::rngs::StdRng`, re-exported as [`TestRng`]), seeded from a
//! hash of the test's name, so failures reproduce exactly. There is no
//! shrinking — a failing case is reported at the size it was drawn.

use std::ops::Range;
use std::rc::Rc;

use rand::SeedableRng;

/// The generator driving all strategies.
pub use rand::rngs::StdRng as TestRng;

/// A generator seeded from the test's name (FNV-1a), so every run
/// draws the same cases.
pub fn test_rng(name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    TestRng::seed_from_u64(h)
}

/// A value generator.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Recursive strategy: up to `depth` levels of `f`-expansion over
    /// the base (leaf) strategy. `_desired_size` and `_expected_branch`
    /// are accepted for API compatibility and ignored.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> ArcStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(ArcStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            let expanded = f(cur).boxed();
            let leaf = leaf.clone();
            cur = ArcStrategy::new(move |rng| {
                if rng.chance(50) {
                    leaf.generate(rng)
                } else {
                    expanded.generate(rng)
                }
            });
        }
        cur
    }

    fn boxed(self) -> ArcStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        ArcStrategy::new(move |rng| self.generate(rng))
    }
}

/// Type-erased, cheaply cloneable strategy.
pub struct ArcStrategy<T> {
    f: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> ArcStrategy<T> {
    pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> ArcStrategy<T> {
        ArcStrategy { f: Rc::new(f) }
    }
}

impl<T> Clone for ArcStrategy<T> {
    fn clone(&self) -> Self {
        ArcStrategy { f: self.f.clone() }
    }
}

impl<T> Strategy for ArcStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(rng)
    }
}

/// `prop_map` adapter.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!` backend).
pub fn one_of<T: 'static>(arms: Vec<ArcStrategy<T>>) -> ArcStrategy<T> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    ArcStrategy::new(move |rng| {
        let i = rng.below(arms.len());
        arms[i].generate(rng)
    })
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Strategies producible without parameters (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.chance(50)
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

impl Arbitrary for f64 {
    /// Arbitrary bit patterns — includes infinities and NaNs, which is
    /// what codec round-trip tests want to see.
    fn arbitrary(rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T> Clone for AnyStrategy<T> {
    fn clone(&self) -> Self {
        AnyStrategy(std::marker::PhantomData)
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// String-pattern strategies: a small regex-like subset covering
/// literals, one-level character classes (`[a-z0-9]`), and the
/// quantifiers `{m,n}`, `{n}`, `?`, `*`, `+` (the latter two capped at
/// 8 repetitions).
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_pattern(self, rng)
    }
}

fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // Parse one atom: a char class or a literal character.
        let alphabet: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or(chars.len() - 1);
            let mut set = Vec::new();
            let mut j = i + 1;
            while j < close {
                if j + 2 < close && chars[j + 1] == '-' {
                    let (lo, hi) = (chars[j], chars[j + 2]);
                    set.extend((lo as u32..=hi as u32).filter_map(char::from_u32));
                    j += 3;
                } else {
                    set.push(chars[j]);
                    j += 1;
                }
            }
            i = close + 1;
            set
        } else {
            let c = chars[i];
            i += 1;
            vec![c]
        };
        // Parse an optional quantifier.
        let (min, max) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or(chars.len() - 1);
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().unwrap_or(0),
                    hi.trim().parse().unwrap_or(8),
                ),
                None => {
                    let n = body.trim().parse().unwrap_or(1);
                    (n, n)
                }
            }
        } else if i < chars.len() && (chars[i] == '*' || chars[i] == '+' || chars[i] == '?') {
            let q = chars[i];
            i += 1;
            match q {
                '*' => (0, 8),
                '+' => (1, 8),
                _ => (0, 1),
            }
        } else {
            (1, 1)
        };
        let reps = min + rng.below(max + 1 - min);
        for _ in 0..reps {
            if alphabet.is_empty() {
                continue;
            }
            out.push(*rng.pick(&alphabet));
        }
    }
    out
}

pub mod prop {
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        #[derive(Clone)]
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        /// A vec of `len` elements drawn from `element`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.start + rng.below(self.len.len());
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Per-test configuration; only `cases` is honoured.
#[derive(Clone, Copy)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// Like the real proptest, the `PROPTEST_CASES` environment
    /// variable overrides the default case count — CI uses it to pin
    /// deterministic budgets per step.
    fn default() -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(48);
        ProptestConfig { cases }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ [$cfg] $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ [$crate::ProptestConfig::default()] $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ([$cfg:expr]) => {};
    // `arg in strategy` form. The attribute repetition absorbs the
    // `#[test]` marker along with doc comments, so it is re-emitted
    // rather than duplicated.
    ([$cfg:expr]
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..cfg.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_tests!{ [$cfg] $($rest)* }
    };
    // `arg: Type` form (shorthand for `any::<Type>()`)
    ([$cfg:expr]
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident : $ty:ty),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..cfg.cases {
                $(let $arg = <$ty as $crate::Arbitrary>::arbitrary(&mut rng);)+
                $body
            }
        }
        $crate::__proptest_tests!{ [$cfg] $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, one_of, test_rng, Arbitrary, ArcStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn pattern_strategy_respects_class_and_bounds() {
        let mut rng = test_rng("pattern");
        for _ in 0..200 {
            let s = "[a-z]{0,8}".generate(&mut rng);
            assert!(s.len() <= 8);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut rng = test_rng("oneof");
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(s.generate(&mut rng) - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug)]
        enum Tree {
            Leaf,
            Node(Vec<Tree>),
        }
        let s = Just(0u8)
            .prop_map(|_| Tree::Leaf)
            .prop_recursive(4, 32, 4, |inner| {
                prop::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = test_rng("rec");
        for _ in 0..50 {
            let t = s.generate(&mut rng);
            fn depth(t: &Tree) -> usize {
                match t {
                    Tree::Leaf => 0,
                    Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
                }
            }
            assert!(depth(&t) <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_strategy_form(a in 0u64..10, b in 0u64..10) {
            prop_assert!(a < 10 && b < 10);
        }

        #[test]
        fn macro_typed_form(v: u64) {
            prop_assert_eq!(v, v);
        }
    }
}
