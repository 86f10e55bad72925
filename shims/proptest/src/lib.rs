//! # proptest (offline shim)
//!
//! A **deterministic** stand-in for the subset of
//! [`proptest`](https://docs.rs/proptest)'s API the `dsmatch` workspace uses.
//! The build environment has no crates.io access, so the workspace vendors
//! this shim; restoring the real crate is a one-line change in the root
//! `Cargo.toml`.
//!
//! Differences from real proptest, by design:
//!
//! - **No shrinking.** A failing case panics with the ordinary assert
//!   message; the case is reproducible because the RNG seed is derived from
//!   the test's module path and name, never from ambient entropy.
//! - **Pure random sampling** (no bias towards boundary values), driven by a
//!   SplitMix64 stream.
//! - [`Strategy`] is a one-method trait (`generate`) plus the combinators the
//!   workspace calls (`prop_map`, `prop_flat_map`); strategies are evaluated
//!   eagerly per case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

pub mod bool;
pub mod collection;
pub mod option;

/// Glob-import target mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestRng,
    };
}

/// Deterministic SplitMix64 stream backing every strategy.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed directly.
    pub fn from_seed(seed: u64) -> Self {
        Self { state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15) }
    }

    /// Derive a stable seed from a test's fully qualified name, so every
    /// `proptest!` test replays the same cases on every run and platform.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a, then one SplitMix64 round to spread the bits.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::from_seed(h)
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Modulo bias is irrelevant for test-case generation.
        self.next_u64() % n
    }
}

/// Runtime knobs for a `proptest!` block.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Generate a value, then generate from a strategy derived from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// Always produce a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Types with a canonical "any value" strategy (mirrors
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// The strategy returned by [`any`].
    type Strategy: Strategy<Value = Self>;
    /// Build the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy producing any value of a primitive type from raw RNG output.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyPrimitive<T> {
    _marker: std::marker::PhantomData<T>,
}

macro_rules! any_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyPrimitive { _marker: std::marker::PhantomData }
            }
        }
    )*};
}

any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for AnyPrimitive<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyPrimitive<bool>;
    fn arbitrary() -> Self::Strategy {
        AnyPrimitive { _marker: std::marker::PhantomData }
    }
}

/// The canonical strategy for `A` (mirrors `proptest::prelude::any`).
pub fn any<A: Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

/// Assert inside a property (plain `assert!` here: no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skip the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Define property tests.
///
/// Supports the same surface the workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn it_holds(x in 0usize..100, (a, b) in my_strategy()) { ... }
/// }
/// ```
///
/// Each test runs `cases` deterministic cases seeded from the test's name.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__cfg.cases {
                    let _ = __case;
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..1000 {
            let v = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = TestRng::for_test("x::y");
        let mut b = TestRng::for_test("x::y");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let s =
            (1usize..5).prop_flat_map(|n| collection::vec(0u32..10, n).prop_map(move |v| (n, v)));
        let mut rng = TestRng::from_seed(1);
        for _ in 0..100 {
            let (n, v) = s.generate(&mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn the_macro_itself_works(x in 0u64..100, (a, b) in (0u32..4, any::<bool>())) {
            prop_assert!(x < 100);
            prop_assert!(a < 4);
            let _ = b;
            prop_assume!(x != 1000); // never skips, exercises the macro
            let y = x;
            prop_assert_eq!(y, x);
        }
    }
}
