//! Offline stand-in for the slice of the `proptest` API the workspace's
//! property tests use: the `proptest!` macro, range / tuple / `prop_map` /
//! `any::<bool>()` strategies, `prop::collection::vec`, and the
//! `prop_assert*` macros.
//!
//! The build environment has no access to crates.io, so instead of the
//! real framework each property runs a fixed number of cases (64) drawn
//! from a generator seeded deterministically from the test's name: runs
//! are reproducible, failures name the offending inputs through the
//! standard assertion messages. Shrinking is intentionally out of scope.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cases generated per property.
pub const CASES: u32 = 64;

/// Deterministic test-case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name so every property gets an
    /// independent, reproducible stream.
    pub fn deterministic(name: &str) -> Self {
        let mut state = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for b in name.bytes() {
            state ^= b as u64;
            state = state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self { state }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[lo, hi)`.
    pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty strategy range");
        lo + self.next_u64() % (hi - lo)
    }
}

/// A recipe for generating test inputs.
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
        Map { strategy: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.strategy.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {
        $(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.below(self.start as u64, self.end as u64) as $t
                }
            }
        )+
    };
}

int_range_strategy!(u32, u64, usize);

macro_rules! tuple_strategy {
    ($($s:ident => $v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($v,)+) = self;
                ($($v.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(S0 => s0, S1 => s1);
tuple_strategy!(S0 => s0, S1 => s1, S2 => s2);
tuple_strategy!(S0 => s0, S1 => s1, S2 => s2, S3 => s3);
tuple_strategy!(S0 => s0, S1 => s1, S2 => s2, S3 => s3, S4 => s4);
tuple_strategy!(S0 => s0, S1 => s1, S2 => s2, S3 => s3, S4 => s4, S5 => s5);
tuple_strategy!(S0 => s0, S1 => s1, S2 => s2, S3 => s3, S4 => s4, S5 => s5, S6 => s6);

/// Types with a canonical "anything" strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy for any value of `T` (see [`any`]).
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: std::marker::PhantomData }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for `Vec`s with lengths drawn from a range (see [`vec`]).
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.below(self.len.start as u64, self.len.end as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `Vec`s of `element` values with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// Namespace mirror of the real crate (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
}

/// The common imports of the real crate.
pub mod prelude {
    pub use crate::{any, prop, prop_assert, prop_assert_eq, proptest, Strategy};
}

/// Defines property tests: each `fn name(binding in strategy) { body }`
/// becomes a `#[test]` running [`CASES`](crate::CASES) generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($arg:ident in $strategy:expr) $body:block)+) => {
        $(
            $(#[$attr])*
            fn $name() {
                let strategy = $strategy;
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                for _case in 0..$crate::CASES {
                    let $arg = $crate::Strategy::generate(&strategy, &mut rng);
                    $body
                }
            }
        )+
    };
}

/// Property assertion; identical to `assert!` in this stand-in.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion; identical to `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        /// The macro, range/tuple/map/vec strategies and assertions all
        /// compose.
        #[test]
        fn smoke(v in prop::collection::vec((0u64..100, any::<bool>()).prop_map(|(a, b)| (a * 2, b)), 1..50)) {
            prop_assert!(!v.is_empty() && v.len() < 50);
            for &(a, _) in &v {
                prop_assert_eq!(a % 2, 0);
                prop_assert!(a < 200);
            }
        }
    }

    #[test]
    fn named_streams_differ() {
        let mut a = super::TestRng::deterministic("a");
        let mut b = super::TestRng::deterministic("b");
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
