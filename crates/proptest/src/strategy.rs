//! Input-generation strategies.

use std::marker::PhantomData;
use std::ops::Range;

use crate::test_runner::TestRng;

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as i128;
                let hi = self.end as i128;
                assert!(hi > lo, "empty range strategy {}..{}", self.start, self.end);
                (lo + rng.below((hi - lo) as u64) as i128) as $t
            }
        }
    )*};
}

int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategies {
    ($(($($n:ident . $i:tt),+);)*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
}

/// Generates `Vec`s of `elem`-generated values with a length in `len`.
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { elem, len }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.len.generate(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
}

/// Generates `true`/`false` with equal probability (`prop::bool::ANY`).
#[derive(Debug, Clone, Copy)]
pub struct BoolAny;

impl Strategy for BoolAny {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Types with a canonical full-range strategy (see [`any`]).
pub trait Arbitrary {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                // Bias toward boundary values now and then: edge cases are
                // where codecs and size arithmetic break.
                match rng.below(16) {
                    0 => <$t>::MIN,
                    1 => <$t>::MAX,
                    2 => 0 as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The full-range strategy for `T` (`any::<u8>()` etc.).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// See [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Boxes a strategy for use in heterogeneous collections ([`Union`]).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Chooses uniformly among boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Creates a union over `options` (must be non-empty).
    pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Union<V> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// String strategies from a small regex subset.
///
/// The real proptest compiles a full regex; this workspace only ever uses
/// `.{lo,hi}` ("any `lo..=hi` characters"), so that is what is supported —
/// plus plain literals, which generate themselves. Anything else panics so
/// unsupported patterns fail loudly rather than silently weakening a test.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        if let Some((lo, hi)) = parse_dot_repeat(self) {
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..n).map(|_| random_char(rng)).collect()
        } else if !self.contains(['.', '*', '+', '[', '(', '\\', '?', '{']) {
            (*self).to_string()
        } else {
            panic!("unsupported regex strategy pattern: {self:?}");
        }
    }
}

/// Parses `".{lo,hi}"`, the one regex form this workspace uses.
fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
    let rest = pat.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = rest.split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// A character mix that exercises ASCII, multi-byte UTF-8, and quoting.
fn random_char(rng: &mut TestRng) -> char {
    match rng.below(8) {
        // Mostly printable ASCII.
        0..=5 => (0x20 + rng.below(0x5f) as u8) as char,
        6 => ['é', 'ß', '中', 'Ω', 'π'][rng.below(5) as usize],
        _ => ['🦀', '𝔘', '☃'][rng.below(3) as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::from_name("strategy-tests")
    }

    #[test]
    fn ranges_cover_and_respect_bounds() {
        let mut r = rng();
        let s = 5..9i32;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!((5..9).contains(&v));
            seen.insert(v);
        }
        assert_eq!(seen.len(), 4, "all values of a tiny range should appear");
    }

    #[test]
    fn map_and_tuple_compose() {
        let mut r = rng();
        let s = (0..10i32, 0..10i32).prop_map(|(a, b)| a + b);
        for _ in 0..100 {
            assert!((0..19).contains(&s.generate(&mut r)));
        }
    }

    #[test]
    fn union_hits_every_arm() {
        let mut r = rng();
        let u = Union::new(vec![boxed(Just(1)), boxed(Just(2)), boxed(Just(3))]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(u.generate(&mut r));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn dot_repeat_parses() {
        assert_eq!(parse_dot_repeat(".{0,80}"), Some((0, 80)));
        assert_eq!(parse_dot_repeat(".{3,3}"), Some((3, 3)));
        assert_eq!(parse_dot_repeat("abc"), None);
    }

    #[test]
    fn string_strategy_generates_valid_utf8_in_bounds() {
        let mut r = rng();
        for _ in 0..200 {
            let s = ".{0,10}".generate(&mut r);
            assert!(s.chars().count() <= 10);
            assert_eq!(s, String::from_utf8(s.as_bytes().to_vec()).unwrap());
        }
    }

    #[test]
    fn literal_pattern_is_identity() {
        let mut r = rng();
        assert_eq!("hello".generate(&mut r), "hello");
    }

    #[test]
    #[should_panic(expected = "unsupported regex")]
    fn unsupported_pattern_panics() {
        let mut r = rng();
        let _ = "[a-z]+".generate(&mut r);
    }

    #[test]
    fn arbitrary_ints_include_extremes() {
        let mut r = rng();
        let mut saw_min = false;
        let mut saw_max = false;
        for _ in 0..500 {
            let v = i64::arbitrary(&mut r);
            saw_min |= v == i64::MIN;
            saw_max |= v == i64::MAX;
        }
        assert!(saw_min && saw_max, "boundary bias should surface extremes");
    }
}
