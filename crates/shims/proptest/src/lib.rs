//! Offline shim for the subset of `proptest` this workspace's tests use:
//! the `proptest!` macro with `ProptestConfig::with_cases`, range
//! strategies over integer/float primitives, `collection::vec`, and
//! `prop_assert!` / `prop_assert_eq!`.
//!
//! Sampling is deterministic: every generated test derives its RNG seed
//! from the test name, so failures reproduce exactly across runs. Each case
//! arms a guard that prints the sampled inputs if the case body panics.

/// Deterministic xorshift64* generator for strategy sampling.
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng(seed | 1)
    }

    /// Seed derived from a string (the generated test's name).
    pub fn from_name(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator. The real proptest's `Strategy` does shrinking and
/// composition; the shim only needs sampling.
pub trait Strategy {
    type Value: std::fmt::Debug;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )+};
}

int_range_strategy!(usize, u64, u32, u16, u8);

macro_rules! signed_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
    )+};
}

signed_range_strategy!(i64, i32, i16, i8, isize);

macro_rules! float_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )+};
}

float_range_strategy!(f32, f64);

impl Strategy for bool {
    type Value = bool;
    fn sample(&self, _rng: &mut TestRng) -> bool {
        *self
    }
}

pub mod collection {
    use super::{Strategy, TestRng};

    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Number of cases each property runs.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Prints the sampled case inputs if dropped while panicking, so failures
/// are reproducible without shrinking support.
pub struct CaseGuard(pub String);

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("proptest-shim: failing case inputs: {}", self.0);
        }
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
}

#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_body! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (
        config = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(stringify!($name));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)*
                    let guard = $crate::CaseGuard(format!(
                        concat!("case {}:", $(concat!(" ", stringify!($arg), "={:?}"),)*),
                        case, $(&$arg),*
                    ));
                    $body
                    drop(guard);
                }
            }
        )*
    };
}

pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig};
    pub use crate::{Strategy, TestRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Int ranges stay in bounds.
        #[test]
        fn int_ranges_in_bounds(a in 3usize..17, b in 0u64..5) {
            prop_assert!((3..17).contains(&a));
            prop_assert!(b < 5);
        }

        /// Float ranges stay in bounds.
        #[test]
        fn float_ranges_in_bounds(x in -2.5f32..4.0) {
            prop_assert!((-2.5..4.0).contains(&x));
        }

        /// Vec strategy respects the length range.
        #[test]
        fn vec_strategy_lengths(v in crate::collection::vec(1usize..6, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&x| (1..6).contains(&x)));
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let sample = |seed| {
            let mut rng = TestRng::new(seed);
            (0..8)
                .map(|_| (7usize..19).sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(11), sample(11));
        assert_ne!(sample(11), sample(12));
    }
}
