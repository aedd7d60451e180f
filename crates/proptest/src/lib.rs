//! A std-only, dependency-light drop-in for the subset of the `proptest`
//! crate API used by this workspace.
//!
//! The workspace builds in offline environments where crates.io is not
//! reachable, so the real `proptest` cannot be fetched. This shim keeps the
//! property tests source-compatible: random generation driven by a
//! deterministic seed, `Strategy` combinators (`prop_map`, `prop_flat_map`,
//! `prop_recursive`, `prop_oneof!`, `prop::collection::vec`), and the
//! `proptest!` macro with both `name in strategy` and `name: Type`
//! parameter forms.
//!
//! Differences from real proptest, by design: no shrinking (a failing case
//! reports the iteration seed so it can be replayed), and no persistence of
//! failing cases. Override the iteration count per block with
//! `#![proptest_config(ProptestConfig::with_cases(n))]` or globally with
//! the `PROPTEST_CASES` environment variable.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

pub use rand::rngs::StdRng as TestRng;
use rand::Rng;
#[doc(hidden)]
pub use rand::SeedableRng as __SeedableRng;

/// Per-block test configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` iterations.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Resolves the iteration count: the `PROPTEST_CASES` environment variable
/// overrides the in-source configuration (useful for quick smoke runs).
pub fn resolve_cases(config: &ProptestConfig) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases)
}

/// A generator of random values of one type.
pub trait Strategy: Clone {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T + Clone,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from a strategy derived from it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2 + Clone,
    {
        FlatMap { inner: self, f }
    }

    /// Builds a recursive strategy: `self` generates the leaves, and `f`
    /// wraps an inner strategy into one more level of structure. `depth`
    /// bounds the recursion; the size hints of real proptest are accepted
    /// and ignored.
    fn prop_recursive<F, S2>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            let branch = f(level).boxed();
            let leaf = leaf.clone();
            // Lean toward leaves so expected tree sizes stay bounded.
            level = BoxedStrategy::new(move |rng: &mut TestRng| {
                if rng.gen_range(0u32..3) == 0 {
                    branch.gen_value(rng)
                } else {
                    leaf.gen_value(rng)
                }
            });
        }
        level
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        let s = self;
        BoxedStrategy::new(move |rng: &mut TestRng| s.gen_value(rng))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    gen: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            gen: Rc::clone(&self.gen),
        }
    }
}

impl<T> BoxedStrategy<T> {
    /// Wraps a generation function.
    pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
        BoxedStrategy { gen: Rc::new(f) }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        (self.gen)(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T + Clone,
{
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2 + Clone,
{
    type Value = S2::Value;
    fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.gen_value(rng)).gen_value(rng)
    }
}

/// A strategy returning a constant.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between type-erased alternatives (`prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            options: self.options.clone(),
        }
    }
}

impl<T> Union<T> {
    /// A uniform union of the given alternatives.
    ///
    /// # Panics
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        let idx = rng.gen_range(0..self.options.len());
        self.options[idx].gen_value(rng)
    }
}

/// Types with a canonical "any value" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The canonical strategy.
    type Strategy: Strategy<Value = Self>;
    /// Returns the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// A strategy producing uniform values of a primitive type.
#[derive(Clone, Copy, Debug)]
pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

impl<T> Default for AnyPrimitive<T> {
    fn default() -> Self {
        AnyPrimitive(std::marker::PhantomData)
    }
}

macro_rules! impl_arbitrary_prim {
    ($($t:ty),*) => {$(
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen::<$t>()
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyPrimitive::default()
            }
        }
    )*};
}
impl_arbitrary_prim!(bool, u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// The canonical strategy for `T` (used for `name: Type` parameters).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

macro_rules! impl_strategy_for_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_strategy_for_range!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_for_tuple {
    ($(($($s:ident . $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen_value(rng),)+)
            }
        }
    )*};
}
impl_strategy_for_tuple! {
    (A.0);
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
    (A.0, B.1, C.2, D.3, E.4, F.5);
}

/// Strategy namespaces (shim of the `proptest::prop` module tree).
pub mod prop {
    /// Boolean strategies.
    pub mod bool {
        use super::super::{Strategy, TestRng};
        use rand::Rng;

        /// Uniform `true`/`false`.
        #[derive(Clone, Copy, Debug)]
        pub struct Any;

        /// The uniform boolean strategy.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn gen_value(&self, rng: &mut TestRng) -> bool {
                rng.gen::<bool>()
            }
        }
    }

    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use rand::Rng;
        use std::ops::{Range, RangeInclusive};

        /// Acceptable length specifications for [`vec()`].
        #[derive(Clone, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // inclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }
        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty length range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }
        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                assert!(r.start() <= r.end(), "empty length range");
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        /// A strategy producing vectors of values drawn from `element`.
        #[derive(Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.lo..=self.size.hi);
                (0..len).map(|_| self.element.gen_value(rng)).collect()
            }
        }

        /// Vectors of `element` values with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use super::prop;
    pub use super::{
        any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestRng, Union,
    };
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current random case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Declares property tests (shim of `proptest::proptest!`).
///
/// Supports the forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn mixed(a in 0u32..10, flag: bool) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    // NOTE: the internal `@tests`/`@run` arms must precede the public entry
    // arms — macro_rules tries arms top to bottom, and the catch-all entry
    // arm would otherwise swallow every internal recursion and loop until
    // the recursion limit.
    (@tests ($config:expr) ) => {};
    (@tests ($config:expr)
        $(#[$attr:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let cases = $crate::resolve_cases(&config);
            // Deterministic per-test seed: stable across runs, distinct per
            // test name.
            let seed = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for case_idx in 0..cases as u64 {
                let case_seed = seed ^ case_idx.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut __pt_rng = <$crate::TestRng as $crate::__SeedableRng>::seed_from_u64(case_seed);
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $crate::proptest!(@run __pt_rng [] $($params)* => $body);
                }));
                if result.is_err() {
                    eprintln!(
                        "proptest case {}/{} of `{}` failed (replay seed {:#x})",
                        case_idx + 1, cases, stringify!($name), case_seed
                    );
                    ::std::panic::resume_unwind(result.unwrap_err());
                }
            }
        }
        $crate::proptest!(@tests ($config) $($rest)*);
    };

    // Parameter muncher: accumulate `pat = strategy-expr` pairs, then emit
    // the bindings and the body inside a `loop` so `prop_assume!` can
    // `continue` (i.e. skip) the sample.
    (@run $rng:ident [$(($p:pat, $s:expr))*] => $body:block) => {
        #[allow(clippy::never_loop, unused_variables)]
        loop {
            $(let $p = $crate::Strategy::gen_value(&$s, &mut $rng);)*
            $body
            break;
        }
    };
    (@run $rng:ident [$($acc:tt)*] $x:ident in $strat:expr, $($rest:tt)*) => {
        $crate::proptest!(@run $rng [$($acc)* ($x, ($strat))] $($rest)*)
    };
    (@run $rng:ident [$($acc:tt)*] $x:ident in $strat:expr => $body:block) => {
        $crate::proptest!(@run $rng [$($acc)* ($x, ($strat))] => $body)
    };
    (@run $rng:ident [$($acc:tt)*] mut $x:ident in $strat:expr, $($rest:tt)*) => {
        $crate::proptest!(@run $rng [$($acc)* (mut $x, ($strat))] $($rest)*)
    };
    (@run $rng:ident [$($acc:tt)*] mut $x:ident in $strat:expr => $body:block) => {
        $crate::proptest!(@run $rng [$($acc)* (mut $x, ($strat))] => $body)
    };
    (@run $rng:ident [$($acc:tt)*] $x:ident : $ty:ty, $($rest:tt)*) => {
        $crate::proptest!(@run $rng [$($acc)* ($x, ($crate::any::<$ty>()))] $($rest)*)
    };
    (@run $rng:ident [$($acc:tt)*] $x:ident : $ty:ty => $body:block) => {
        $crate::proptest!(@run $rng [$($acc)* ($x, ($crate::any::<$ty>()))] => $body)
    };
    (@run $rng:ident [$($acc:tt)*] mut $x:ident : $ty:ty, $($rest:tt)*) => {
        $crate::proptest!(@run $rng [$($acc)* (mut $x, ($crate::any::<$ty>()))] $($rest)*)
    };
    (@run $rng:ident [$($acc:tt)*] mut $x:ident : $ty:ty => $body:block) => {
        $crate::proptest!(@run $rng [$($acc)* (mut $x, ($crate::any::<$ty>()))] => $body)
    };

    // Public entry: with a block-level config attribute.
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@tests ($config) $($rest)*);
    };
    // Public entry: default config.
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@tests ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// FNV-1a hash of a string, for stable per-test seeds.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn in_and_typed_params_mix(a in 1u32..10, b: bool, c in 0usize..=3) {
            prop_assert!((1..10).contains(&a));
            prop_assert!(c <= 3);
            let _ = b;
        }

        #[test]
        fn assume_skips(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_works(v in prop::collection::vec((0usize..5, prop::bool::ANY), 1..=4)) {
            prop_assert!(!v.is_empty() && v.len() <= 4);
            prop_assert!(v.iter().all(|&(n, _)| n < 5));
        }
    }

    #[test]
    fn oneof_union_and_recursive() {
        #[derive(Debug, Clone)]
        enum E {
            #[allow(dead_code)]
            Leaf(bool),
            Pair(Box<E>, Box<E>),
        }
        fn depth(e: &E) -> usize {
            match e {
                E::Leaf(_) => 1,
                E::Pair(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let leaf = prop_oneof![prop::bool::ANY.prop_map(E::Leaf)];
        let expr = leaf.prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| E::Pair(Box::new(a), Box::new(b)))
        });
        let mut rng = <TestRng as crate::__SeedableRng>::seed_from_u64(3);
        let mut saw_pair = false;
        for _ in 0..200 {
            let e = expr.gen_value(&mut rng);
            assert!(depth(&e) <= 5);
            saw_pair |= matches!(e, E::Pair(..));
        }
        assert!(saw_pair, "recursion should produce non-leaf values");
    }

    #[test]
    fn flat_map_threads_values() {
        let strat = (1usize..4).prop_flat_map(|n| prop::collection::vec(0u8..10, n));
        let mut rng = <TestRng as crate::__SeedableRng>::seed_from_u64(5);
        for _ in 0..100 {
            let v = strat.gen_value(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }
}
