//! Offline shim for `proptest`: the strategy combinators and macros the
//! workspace's property tests use. Cases are generated from a
//! deterministic per-test RNG; failures report the failing inputs but are
//! not shrunk. Case count defaults to 64 (override with `PROPTEST_CASES`).

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic RNG handed to strategies while generating a case.
pub struct TestRng(ChaCha8Rng);

impl TestRng {
    /// RNG seeded from the test name so each test gets a stable stream.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Self(ChaCha8Rng::seed_from_u64(h))
    }
}

impl RngCore for TestRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Number of cases per property (`PROPTEST_CASES` env override).
pub fn case_count() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A value generator.
pub trait Strategy {
    /// Type of generated values.
    type Value: Debug;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Boxed, type-erased strategy (what `prop_oneof!` stores).
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V: Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy yielding a fixed value.
#[derive(Clone, Debug)]
pub struct Just<V>(pub V);

impl<V: Clone + Debug> Strategy for Just<V> {
    type Value = V;
    fn generate(&self, _rng: &mut TestRng) -> V {
        self.0.clone()
    }
}

macro_rules! strategy_for_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

strategy_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! strategy_for_range_inclusive {
    ($($t:ty),*) => {$(
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

strategy_for_range_inclusive!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! strategy_for_tuple {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
            }
        }
    };
}

strategy_for_tuple!(A, B);
strategy_for_tuple!(A, B, C);
strategy_for_tuple!(A, B, C, D);
strategy_for_tuple!(A, B, C, D, E);

/// `any::<T>()` support.
pub mod arbitrary {
    use super::*;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Debug + Sized {
        /// Generate an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite floats across a wide magnitude span.
            let unit: f64 = rng.gen();
            let mag: i32 = rng.gen_range(-64..64);
            (unit - 0.5) * 2f64.powi(mag)
        }
    }

    /// Strategy for an unconstrained `T`.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The `any::<T>()` entry point.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Length specification for [`vec`].
    #[derive(Clone, Debug)]
    pub struct SizeRange(pub Range<usize>);

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            Self(r)
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self(*r.start()..r.end() + 1)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self(n..n + 1)
        }
    }

    /// Strategy for `Vec<S::Value>` with lengths drawn from the range.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.0.is_empty() {
                self.size.0.start
            } else {
                rng.gen_range(self.size.0.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `vec(strategy, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Uniform choice among boxed alternatives (what `prop_oneof!` builds).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V: Debug> Union<V> {
    /// Build from non-empty alternatives.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(
            !options.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        Self { options }
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::collection::vec as prop_vec;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{BoxedStrategy, Just, Strategy, TestRng, Union};
}

/// Upstream-compatible module path for [`Strategy`].
pub mod strategy {
    pub use crate::{BoxedStrategy, Just, Map, Strategy, Union};
}

/// Run one property: generate cases, run the body, panic on first failure.
pub fn run_property<F: FnMut(&mut TestRng) -> Result<(), String>>(name: &str, mut case: F) {
    let mut rng = TestRng::for_test(name);
    let cases = case_count();
    for i in 0..cases {
        if let Err(msg) = case(&mut rng) {
            panic!("property '{name}' failed at case {i}/{cases}: {msg}");
        }
    }
}

/// Define property tests. Mirrors `proptest::proptest!` syntax for
/// `fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_property(stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                    let __inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; ",)*),
                        $(&$arg,)*
                    );
                    let __result = (|| -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    __result.map_err(|e| format!("{e}\n  inputs: {}", __inputs))
                });
            }
        )*
    };
}

/// Assert inside a property body (soft-fails the case).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!("assertion failed: {:?} == {:?}", a, b));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!($($fmt)*));
        }
    }};
}

/// Assert inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a != b) {
            return Err(format!("assertion failed: {:?} != {:?}", a, b));
        }
    }};
}

/// Choose among strategies with a uniform pick.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_vecs(x in 1u64..100, v in vec(any::<u8>(), 0..16)) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(v.len() < 16);
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            (0u8..10).prop_map(|n| n as u32),
            (100u32..200).prop_map(|n| n),
        ]) {
            prop_assert!(v < 10 || (100..200).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_inputs() {
        crate::run_property("always_fails", |_| Err("boom".into()));
    }
}
