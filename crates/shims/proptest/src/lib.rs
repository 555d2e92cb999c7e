//! Offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's property tests use: the
//! `proptest!` macro over functions whose arguments are `pat in strategy`
//! bindings, range strategies over numeric types, fixed-length
//! `collection::vec`, and `prop_assert!`/`prop_assert_eq!`. Each property
//! runs a deterministic sequence of cases (no shrinking).
//!
//! Two environment variables widen the search:
//!
//! * `PROPTEST_CASES` — cases per property (default [`CASES`]),
//! * `PROPTEST_SEED` — base seed of every property's input stream
//!   (default [`SEED`]).
//!
//! With neither set every run draws the same inputs. A failing case
//! prints the property, the case index and the `PROPTEST_SEED` that
//! replays it.

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::ops::Range;

/// Cases run per property when `PROPTEST_CASES` is unset.
pub const CASES: usize = 64;

/// Base seed when `PROPTEST_SEED` is unset.
pub const SEED: u64 = 0xC0FFEE;

/// Cases per property: `PROPTEST_CASES`, or [`CASES`].
pub fn cases() -> usize {
    cases_from(std::env::var("PROPTEST_CASES").ok().as_deref())
}

/// Base seed: `PROPTEST_SEED`, or [`SEED`].
pub fn seed() -> u64 {
    seed_from(std::env::var("PROPTEST_SEED").ok().as_deref())
}

fn cases_from(var: Option<&str>) -> usize {
    var.map_or(CASES, |v| {
        v.trim()
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_CASES must be a case count, got {v:?}"))
    })
}

fn seed_from(var: Option<&str>) -> u64 {
    var.map_or(SEED, |v| {
        v.trim()
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_SEED must be a decimal u64, got {v:?}"))
    })
}

/// The input stream of property `name` under base seed `seed`.
pub fn rng(name: &str, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ name.len() as u64)
}

/// Live while one case runs; if the case panics, names the property, the
/// case and the seed to rerun it with.
pub struct CaseGuard {
    pub property: &'static str,
    pub case: usize,
    pub seed: u64,
}

impl CaseGuard {
    fn failure_note(&self) -> String {
        format!(
            "proptest: property `{}` failed at case {}; rerun with PROPTEST_SEED={}",
            self.property, self.case, self.seed
        )
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", self.failure_note());
        }
    }
}

/// A source of random test inputs.
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

pub mod collection {
    use super::Strategy;
    use rand::rngs::StdRng;

    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    /// Fixed-length vector strategy.
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            (0..self.len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __seed = $crate::seed();
                let mut __rng = $crate::rng(stringify!($name), __seed);
                for __case in 0..$crate::cases() {
                    let __guard = $crate::CaseGuard {
                        property: stringify!($name),
                        case: __case,
                        seed: __seed,
                    };
                    #[allow(unused_parens)]
                    let ($($pat),*) = ($($crate::Strategy::sample(&($strat), &mut __rng)),*);
                    $body
                }
            }
        )+
    };
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

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{cases_from, seed_from, CaseGuard, CASES, SEED};

    #[test]
    fn unset_variables_keep_the_fixed_sweep() {
        assert_eq!(cases_from(None), CASES);
        assert_eq!(seed_from(None), SEED);
        assert_eq!(cases_from(Some("256")), 256);
        assert_eq!(seed_from(Some(" 9876543210 ")), 9_876_543_210);
    }

    #[test]
    #[should_panic(expected = "PROPTEST_SEED must be a decimal u64")]
    fn malformed_seed_fails_loudly() {
        seed_from(Some("0xC0FFEE"));
    }

    #[test]
    fn failure_note_names_the_rerun_seed() {
        let guard = CaseGuard {
            property: "prop_x",
            case: 17,
            seed: 42,
        };
        assert_eq!(
            guard.failure_note(),
            "proptest: property `prop_x` failed at case 17; rerun with PROPTEST_SEED=42"
        );
    }

    proptest! {
        /// Ranges stay in bounds.
        #[test]
        fn prop_ranges_in_bounds(x in 0.0_f64..5.0, n in 1usize..10) {
            prop_assert!((0.0..5.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn prop_vec_has_fixed_len(v in collection::vec(0usize..6, 48)) {
            prop_assert_eq!(v.len(), 48);
            prop_assert!(v.iter().all(|&e| e < 6));
        }
    }
}
