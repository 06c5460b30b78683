//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Semantics: each `proptest!`-generated test runs its body against
//! `ProptestConfig::cases` independently sampled inputs from a
//! deterministic RNG (seed overridable via `PROPTEST_SEED`, case count
//! via `PROPTEST_CASES`). Failures panic with the case number and are
//! exactly reproducible — but there is **no shrinking**: the failing
//! input is reported as-is rather than minimized. That trade keeps the
//! shim a few hundred lines while preserving the property-test coverage
//! the suite relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "case RNGs are seeded from the case number, which is what makes failures replay"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

pub mod test_runner {
    //! Runner configuration (subset of `proptest::test_runner`).

    /// How many cases each property runs, and the base seed.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of sampled cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            let cases =
                std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
            ProptestConfig { cases }
        }
    }
}

/// Base seed for a property's RNG (env `PROPTEST_SEED` or a fixed
/// default so CI runs are reproducible).
pub fn base_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5EED_CAFE_F00D_0001)
}

/// RNG for one case of one property, derived from the base seed and the
/// case index so any failing case replays in isolation.
pub fn case_rng(case: u64) -> TestRng {
    TestRng::seed_from_u64(base_seed() ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub mod strategy {
    //! Value-generation strategies (subset of `proptest::strategy`).

    use super::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Samples one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(move |rng| self.sample(rng)))
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

    impl<T> std::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy { .. }")
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Weighted union of boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> std::fmt::Debug for Union<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Union").field("arms", &self.arms.len()).finish()
        }
    }

    impl<T> Union<T> {
        /// Builds a union from `(weight, strategy)` arms.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! weights sum to zero");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.gen_range(0..self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.sample(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($S:ident/$idx:tt),+))*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A/0)
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
        (A/0, B/1, C/2, D/3, E/4, F/5)
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7)
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7, I/8)
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7, I/8, J/9)
    }
}

pub mod arbitrary {
    //! `any::<T>()` support (subset of `proptest::arbitrary`).

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Samples one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.gen::<$t>()
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (subset of `proptest::collection`).

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Length specifications accepted by [`vec()`](fn@self::vec).
    #[derive(Debug, Clone)]
    pub struct SizeRange(Range<usize>);

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange(r)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange(n..n + 1)
        }
    }

    /// A `Vec` of `elem` values with length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into().0 }
    }

    /// Strategy returned by [`vec()`](fn@self::vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling helpers (subset of `proptest::sample`).

    use super::arbitrary::Arbitrary;
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select() needs a non-empty list");
        Select { items }
    }

    /// Strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.items[rng.gen_range(0..self.items.len())].clone()
        }
    }

    /// An index into a runtime-sized collection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Projects onto `0..len`.
        ///
        /// # Panics
        ///
        /// Panics if `len == 0`, as upstream does.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.gen::<u64>())
        }
    }
}

pub mod prop {
    //! The `prop::` path alias used by `proptest::prelude`.

    pub use crate::collection;
    pub use crate::sample;
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Weighted or unweighted union of strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` becomes
/// a `#[test]` that samples its inputs `cases` times and runs the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr)
      $( $(#[$attr:meta])*
         fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      )* ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                let __strategies = ( $($strat,)+ );
                for __case in 0..__cfg.cases as u64 {
                    let mut __rng = $crate::case_rng(__case);
                    let ( $($pat,)+ ) = $crate::strategy::Strategy::sample(
                        &__strategies,
                        &mut __rng,
                    );
                    let __run = || -> () { $body };
                    if let Err(e) = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(__run),
                    ) {
                        eprintln!(
                            "proptest case {__case}/{} failed (seed {:#x}; \
                             re-run with PROPTEST_SEED to reproduce)",
                            __cfg.cases,
                            $crate::base_seed(),
                        );
                        ::std::panic::resume_unwind(e);
                    }
                }
            }
        )*
    };
}
