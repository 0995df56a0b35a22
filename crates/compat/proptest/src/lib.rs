//! Offline mini property-testing harness.
//!
//! Implements the subset of the `proptest` API this workspace uses: the
//! [`proptest!`] macro, range/tuple/`prop_map`/[`collection::vec`]
//! strategies and the `prop_assert*` / `prop_assume!` macros. Each test
//! runs `PROPTEST_CASES` random cases (default 48, overridable via the
//! environment variable of the same name) from a fixed seed, so failures
//! are reproducible; rejected cases (via `prop_assume!`) are retried and
//! do not count toward the case budget.

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};

/// Deterministic generator handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// Creates a generator for one test function.
    pub fn new(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    /// Uniform value in `[low, high)`.
    pub fn uniform<T: SampleUniform>(&mut self, low: T, high: T) -> T {
        self.0.gen_range(low..high)
    }

    /// Uniform usize in `[low, high]` (inclusive upper bound).
    pub fn len_in(&mut self, low: usize, high: usize) -> usize {
        self.0.gen_range(low..high + 1)
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed; the case is discarded, not failed.
    Reject,
    /// A `prop_assert*` failed with this message.
    Fail(String),
}

/// Result type produced by a generated test-case body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl<T: SampleUniform> Strategy for std::ops::Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.uniform(self.start, self.end)
    }
}

/// Strategy that always yields a clone of one value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Boxed generator closure: one arm of a [`Union`].
pub type ArmFn<T> = Box<dyn Fn(&mut TestRng) -> T>;

/// Uniform choice between several strategies of one value type; built by
/// [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<ArmFn<T>>,
}

impl<T> Union<T> {
    /// Creates a union over boxed generator closures (one per arm).
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<ArmFn<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.uniform(0usize, self.arms.len());
        (self.arms[i])(rng)
    }
}

/// Uniform choice between strategies (unweighted subset of proptest's
/// `prop_oneof!`).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $({
                let s = $arm;
                Box::new(move |rng: &mut $crate::TestRng| $crate::Strategy::generate(&s, rng))
                    as Box<dyn Fn(&mut $crate::TestRng) -> _>
            }),+
        ])
    };
}

macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
            }
        }
    };
}

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// Strategies over collections.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: a fixed size or a `Range<usize>`.
    pub trait IntoSizeRange {
        /// `(min, max)` inclusive bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end.saturating_sub(1))
        }
    }

    /// Strategy for `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Vector of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.len_in(self.min, self.max);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Number of cases each property runs (env `PROPTEST_CASES`, default 48).
pub fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Maximum consecutive `prop_assume!` rejections before giving up.
pub const MAX_REJECTS: usize = 4096;

/// Defines property tests.
///
/// ```ignore
/// proptest! {
///     #[test]
///     fn addition_commutes(a in 0u32..100, b in 0u32..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident ( $($arg:pat_param in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __rng = $crate::TestRng::new(0x5EED_0000u64 ^ stringify!($name).len() as u64);
                let mut __done = 0usize;
                let mut __rejects = 0usize;
                while __done < $crate::cases() {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    let __outcome: $crate::TestCaseResult = (|| { $body Ok(()) })();
                    match __outcome {
                        Ok(()) => __done += 1,
                        Err($crate::TestCaseError::Reject) => {
                            __rejects += 1;
                            assert!(
                                __rejects < $crate::MAX_REJECTS,
                                "prop_assume! rejected too many cases in {}",
                                stringify!($name),
                            );
                        }
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("property {} failed at case {}: {}", stringify!($name), __done, msg);
                        }
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property body (fails the case, with context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Discards the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Glob import mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, Strategy,
        TestCaseError, TestCaseResult, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples(x in 0u8..5, (a, b) in (0u32..10, 0u32..10)) {
            prop_assert!(x < 5);
            prop_assert!(a < 10 && b < 10, "a={a} b={b}");
        }

        #[test]
        fn vec_and_map(
            v in crate::collection::vec(-1.0f32..1.0, 1..20),
            w in crate::collection::vec(0usize..3, 4),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert_eq!(w.len(), 4);
            prop_assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        }

        #[test]
        fn assume_discards(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn macro_generated_tests_run() {
        ranges_and_tuples();
        vec_and_map();
        assume_discards();
    }

    proptest! {
        #[test]
        fn oneof_tuple_patterns_and_just((a, b) in prop_oneof![(0u32..5, 10u32..15), Just((7u32, 20u32))]) {
            prop_assert!(a < 8u32);
            prop_assert!((10u32..21).contains(&b));
        }
    }

    #[test]
    fn oneof_runs() {
        oneof_tuple_patterns_and_just();
    }

    #[test]
    fn prop_map_applies() {
        let s = (0u32..10).prop_map(|x| x * 2);
        let mut rng = crate::TestRng::new(1);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }
}
