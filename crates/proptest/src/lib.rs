//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! This workspace builds where crates.io is unreachable, so the real
//! proptest is replaced by this shim implementing the subset the test
//! suites use: the [`Strategy`] trait with `prop_map` /
//! `prop_flat_map` / `prop_filter`, range and tuple strategies,
//! [`Just`], [`collection::vec`], [`any`], and the [`proptest!`],
//! [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`], and
//! [`prop_assume!`] macros.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports the case number and the
//!   assertion message; rerunning is deterministic (the RNG stream is a
//!   pure function of the test's name), so failures reproduce exactly.
//! * **Rejection is bounded.** `prop_filter`/`prop_assume` retries are
//!   capped; pathological filters panic instead of spinning.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The RNG handed to strategies. Public so the [`proptest!`] macro can
/// name it; not part of the emulated upstream API.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic stream from a test-function name: the same test
    /// always sees the same inputs, independent of other tests.
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }
}

impl RngCore for TestRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

/// Why a test case did not complete normally. Public for the macros.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the test fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
}

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
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
        ProptestConfig { cases: 64 }
    }
}

/// A generator of test values. Sampling returns `None` when a filter
/// rejects the draw; the runner retries (bounded).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value, or `None` on filter rejection.
    fn sample(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then samples from the strategy `f` builds
    /// from it (dependent generation).
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values satisfying `pred`; `whence` names the filter
    /// in diagnostics.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: impl Into<String>,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            whence: whence.into(),
            pred,
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.sample(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> Option<S2::Value> {
        let first = self.inner.sample(rng)?;
        (self.f)(first).sample(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    #[allow(dead_code)]
    whence: String,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
        let value = self.inner.sample(rng)?;
        if (self.pred)(&value) {
            Some(value)
        } else {
            None
        }
    }
}

/// The strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> Option<$t> {
                Some(rng.gen_range(self.clone()))
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> Option<$t> {
                Some(rng.gen_range(self.clone()))
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Option<Self::Value> {
                Some(($(self.$idx.sample(rng)?,)+))
            }
        }
    )*};
}

impl_tuple_strategy! {
    (S0.0)
    (S0.0, S1.1)
    (S0.0, S1.1, S2.2)
    (S0.0, S1.1, S2.2, S3.3)
    (S0.0, S1.1, S2.2, S3.3, S4.4)
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.gen()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.gen()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.gen()
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.gen()
    }
}

/// The canonical strategy for `T` (see [`Arbitrary`]).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> Option<T> {
        Some(T::arbitrary(rng))
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Length specification for [`vec`](fn@vec): an exact length or a
    /// half-open range of lengths.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> SizeRange {
            SizeRange {
                min: exact,
                max_exclusive: exact + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    /// A strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            use rand::Rng as _;
            let len = rng.gen_range(self.size.min..self.size.max_exclusive);
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.element.sample(rng)?);
            }
            Some(out)
        }
    }
}

/// Drives one `proptest!`-generated test: samples with bounded retry,
/// runs the case, and panics with context on failure. Public for the
/// macro, not part of the emulated API.
pub fn run_cases<V>(
    name: &str,
    config: &ProptestConfig,
    sample: impl Fn(&mut TestRng) -> Option<V>,
    case: impl Fn(V) -> Result<(), TestCaseError>,
) {
    let mut rng = TestRng::from_name(name);
    let mut completed = 0u32;
    let mut rejected = 0u32;
    // Global reject budget proportional to the workload, like upstream.
    let max_rejects = 100 * config.cases.max(1);
    while completed < config.cases {
        let Some(value) = sample(&mut rng) else {
            rejected += 1;
            assert!(
                rejected <= max_rejects,
                "{name}: too many filter rejections ({rejected}); strategy filters are too strict"
            );
            continue;
        };
        match case(value) {
            Ok(()) => completed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "{name}: too many prop_assume rejections ({rejected})"
                );
            }
            Err(TestCaseError::Fail(message)) => {
                panic!(
                    "{name}: property failed at case {completed} (rerun is deterministic): {message}"
                );
            }
        }
    }
}

/// Defines property tests. Supports the upstream form used in this
/// workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0u64..10, v in proptest::collection::vec(0u32..5, 1..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(
                    stringify!($name),
                    &config,
                    |__proptest_rng| {
                        Some(($($crate::Strategy::sample(&($strat), __proptest_rng)?,)*))
                    },
                    |($($pat,)*)| {
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skips the current case unless `cond` holds (counted against the
/// rejection budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    //! Common imports, mirroring `proptest::prelude`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = crate::TestRng::from_name("ranges");
        for _ in 0..100 {
            let x = (3u32..9).sample(&mut rng).unwrap();
            assert!((3..9).contains(&x));
            let y = (1u64..=3).sample(&mut rng).unwrap();
            assert!((1..=3).contains(&y));
        }
    }

    #[test]
    fn filter_map_flat_map_compose() {
        let strat = (2usize..10)
            .prop_flat_map(|n| (Just(n), crate::collection::vec(0u32..(n as u32), 1..5)))
            .prop_map(|(n, v)| (n, v.len()))
            .prop_filter("nonempty", |(_, l)| *l > 0);
        let mut rng = crate::TestRng::from_name("compose");
        for _ in 0..50 {
            if let Some((n, l)) = strat.sample(&mut rng) {
                assert!((2..10).contains(&n));
                assert!((1..5).contains(&l));
            }
        }
    }

    #[test]
    fn vec_exact_size() {
        let strat = crate::collection::vec(0u8..=255, 7usize);
        let mut rng = crate::TestRng::from_name("vec_exact");
        assert_eq!(strat.sample(&mut rng).unwrap().len(), 7);
    }

    #[test]
    fn deterministic_per_name() {
        let s = 0u64..1000;
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        for _ in 0..20 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_smoke(x in 0u64..50, flag in any::<bool>(), v in crate::collection::vec(0u32..10, 1..6)) {
            prop_assert!(x < 50);
            prop_assert_eq!(flag, flag);
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assume!(x != 49); // exercises the reject path
        }

        #[test]
        fn macro_tuple_patterns((a, b) in (0u32..5, 5u32..10)) {
            prop_assert!(a < 5 && b >= 5);
        }
    }
}
