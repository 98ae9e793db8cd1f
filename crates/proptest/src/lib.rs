//! A vendored, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace ships
//! the slice of the proptest API its tests use: the [`Strategy`](strategy::Strategy) trait with
//! `prop_map`, range/tuple/`vec`/`any`/`Just`/regex-string strategies, the
//! [`proptest!`]/[`prop_oneof!`]/[`prop_assert!`]/[`prop_assert_eq!`]
//! macros, and [`test_runner::ProptestConfig`].
//!
//! Inputs are generated from a deterministic per-test RNG (seeded from the
//! test's module path and name), so failures reproduce across runs and
//! hosts. Shrinking is not implemented: a failing case panics with the
//! full debug rendering of its inputs instead.

pub mod strategy;
pub mod test_runner;

/// Namespaced strategy constructors, mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::vec;
    }
    /// Boolean strategies.
    pub mod bool {
        pub use crate::strategy::BoolAny;
        /// Generates `true` or `false` with equal probability.
        pub const ANY: BoolAny = BoolAny;
    }
}

/// The conventional glob import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ...)`
/// item becomes a regular test that generates inputs for `cases`
/// iterations and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $( #[test] fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            #[test]
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::from_name(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for case in 0..cfg.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    // Render inputs before the body may consume them, so a
                    // failure can still report what was fed in.
                    let inputs = format!(
                        concat!($("  ", stringify!($arg), " = {:?}\n"),+),
                        $(&$arg),+
                    );
                    let run = move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body ::std::result::Result::Ok(())
                    };
                    let result = run();
                    if let ::std::result::Result::Err(e) = result {
                        panic!(
                            "property failed on case {}/{}: {}\ninputs:\n{}",
                            case + 1, cfg.cases, e, inputs,
                        );
                    }
                }
            }
        )*
    };
}

/// Chooses uniformly among the given strategies (all must share one value
/// type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

/// Like `assert!`, but fails the current property case with a
/// [`test_runner::TestCaseError`] instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Like `assert_eq!`, but fails the current property case with a
/// [`test_runner::TestCaseError`] instead of panicking directly.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "assertion failed: `{:?}` == `{:?}`", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{:?}` == `{:?}`: {}",
            a,
            b,
            format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Push(i32),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![(0..100i32).prop_map(Op::Push), Just(Op::Pop)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn ranges_stay_in_bounds(x in 3..17i32, y in 0u64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()), "len {}", v.len());
        }

        #[test]
        fn tuples_and_maps_compose(
            ops in prop::collection::vec(op_strategy(), 1..20),
            flag in prop::bool::ANY,
        ) {
            let _ = flag;
            prop_assert!(!ops.is_empty());
        }

        #[test]
        fn regex_strings_bound_length(s in ".{0,12}") {
            prop_assert!(s.chars().count() <= 12);
        }

        #[test]
        fn any_i64_spans_sign(v in any::<i64>()) {
            // Just exercise the generator; the value is unconstrained.
            let _ = v;
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        let strat = crate::strategy::vec(crate::strategy::any::<u8>(), 5..50);
        let mut a = crate::test_runner::TestRng::from_name("seed");
        let mut b = crate::test_runner::TestRng::from_name("seed");
        for _ in 0..10 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
        let mut c = crate::test_runner::TestRng::from_name("other-seed");
        let eq = (0..10).all(|_| {
            let mut a = crate::test_runner::TestRng::from_name("seed");
            strat.generate(&mut a) == strat.generate(&mut c)
        });
        assert!(!eq, "different seeds should diverge");
    }
}
