//! Vendored shim of the `proptest` API subset used by this workspace.
//!
//! Implements random-input property testing with the same surface the test
//! files import — `proptest!`, `Strategy`/`prop_map`, `prop_oneof!`,
//! `prop::collection::vec`, `prop::array::uniform8`, `any`, regex-literal
//! string strategies, and the `prop_assert*`/`prop_assume!` macros — minus
//! shrinking: a failing case reports its inputs (via the assert message) and
//! case number instead of minimizing. Each test's RNG seed is derived from
//! its module path and name, so runs are deterministic.

use std::rc::Rc;

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Failure raised by `prop_assert*` inside a property body.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Build a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Test-runner internals (the name mirrors proptest's module layout).
pub mod test_runner {
    pub use crate::{ProptestConfig, TestCaseError};
}

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed directly.
    pub fn from_seed(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Seed from a test's fully qualified name (stable across runs).
    pub fn from_name(name: &str) -> Self {
        // FNV-1a, good enough to decorrelate sibling tests.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Self { state: h }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Type-erase (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Debug)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Clone, F: Clone> Clone for Map<S, F> {
    fn clone(&self) -> Self {
        Self {
            source: self.source.clone(),
            f: self.f.clone(),
        }
    }
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.sample(rng))
    }
}

/// Type-erased strategy (reference-counted, hence cheaply cloneable).
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample(rng)
    }
}

/// Uniform choice between alternative strategies (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Self {
            arms: self.arms.clone(),
        }
    }
}

impl<T> Union<T> {
    /// Build from type-erased arms. Panics when `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

/// A value that is always the same (`Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u64 + 1;
                (start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($S:ident : $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}

tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// `any::<T>()` support.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Self(std::marker::PhantomData)
    }
}

/// The canonical strategy of a type (`bool`, `u64`, … as needed).
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;

    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<u64> {
    type Value = u64;

    fn sample(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Strategy for Any<u32> {
    type Value = u32;

    fn sample(&self, rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// `Vec` of `element` with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::sample(&self.len, rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Array strategies (`prop::array`).
pub mod array {
    use super::{Strategy, TestRng};

    /// `[T; 8]` with independent draws of `element`.
    pub fn uniform8<S: Strategy>(element: S) -> Uniform8<S> {
        Uniform8 { element }
    }

    /// Strategy produced by [`uniform8`].
    #[derive(Clone)]
    pub struct Uniform8<S> {
        element: S,
    }

    impl<S: Strategy> Strategy for Uniform8<S> {
        type Value = [S::Value; 8];

        fn sample(&self, rng: &mut TestRng) -> [S::Value; 8] {
            std::array::from_fn(|_| self.element.sample(rng))
        }
    }
}

/// The `prop::` alias module the prelude exposes.
pub mod prop {
    pub use crate::array;
    pub use crate::collection;
}

// ---------------------------------------------------------------------------
// Regex-literal string strategies.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RegexNode {
    Literal(char),
    Class(Vec<(char, char)>),
    Group(Vec<Vec<RegexNode>>),
    Repeat(Box<RegexNode>, usize, usize),
}

/// Parse the (small) regex fragment the test suite uses: literals, escapes,
/// character classes with ranges, groups with alternation, and the `?`,
/// `*`, `+`, `{n}`, `{m,n}` quantifiers.
fn parse_regex(pattern: &str) -> Vec<RegexNode> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut pos = 0;
    let seq = parse_sequence(&chars, &mut pos);
    assert!(
        pos == chars.len(),
        "unsupported regex `{pattern}` (stopped at {pos})"
    );
    seq
}

fn parse_sequence(chars: &[char], pos: &mut usize) -> Vec<RegexNode> {
    let mut seq = Vec::new();
    while *pos < chars.len() && chars[*pos] != ')' && chars[*pos] != '|' {
        let atom = parse_atom(chars, pos);
        seq.push(parse_quantifier(chars, pos, atom));
    }
    seq
}

fn parse_atom(chars: &[char], pos: &mut usize) -> RegexNode {
    match chars[*pos] {
        '[' => {
            *pos += 1;
            let mut ranges = Vec::new();
            while chars[*pos] != ']' {
                let lo = parse_class_char(chars, pos);
                if chars[*pos] == '-' && chars[*pos + 1] != ']' {
                    *pos += 1;
                    let hi = parse_class_char(chars, pos);
                    ranges.push((lo, hi));
                } else {
                    ranges.push((lo, lo));
                }
            }
            *pos += 1; // ']'
            RegexNode::Class(ranges)
        }
        '(' => {
            *pos += 1;
            let mut alternatives = vec![parse_sequence(chars, pos)];
            while chars[*pos] == '|' {
                *pos += 1;
                alternatives.push(parse_sequence(chars, pos));
            }
            assert!(chars[*pos] == ')', "unclosed group");
            *pos += 1;
            RegexNode::Group(alternatives)
        }
        '\\' => {
            *pos += 2;
            RegexNode::Literal(unescape(chars[*pos - 1]))
        }
        c => {
            *pos += 1;
            RegexNode::Literal(c)
        }
    }
}

fn parse_class_char(chars: &[char], pos: &mut usize) -> char {
    if chars[*pos] == '\\' {
        *pos += 2;
        unescape(chars[*pos - 1])
    } else {
        *pos += 1;
        chars[*pos - 1]
    }
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        other => other,
    }
}

fn parse_quantifier(chars: &[char], pos: &mut usize, atom: RegexNode) -> RegexNode {
    const UNBOUNDED_CAP: usize = 8;
    if *pos >= chars.len() {
        return atom;
    }
    match chars[*pos] {
        '?' => {
            *pos += 1;
            RegexNode::Repeat(Box::new(atom), 0, 1)
        }
        '*' => {
            *pos += 1;
            RegexNode::Repeat(Box::new(atom), 0, UNBOUNDED_CAP)
        }
        '+' => {
            *pos += 1;
            RegexNode::Repeat(Box::new(atom), 1, UNBOUNDED_CAP)
        }
        '{' => {
            *pos += 1;
            let read_number = |pos: &mut usize| -> usize {
                let start = *pos;
                while chars[*pos].is_ascii_digit() {
                    *pos += 1;
                }
                chars[start..*pos]
                    .iter()
                    .collect::<String>()
                    .parse()
                    .unwrap()
            };
            let min = read_number(pos);
            let max = if chars[*pos] == ',' {
                *pos += 1;
                read_number(pos)
            } else {
                min
            };
            assert!(chars[*pos] == '}', "unclosed quantifier");
            *pos += 1;
            RegexNode::Repeat(Box::new(atom), min, max)
        }
        _ => atom,
    }
}

fn generate_node(node: &RegexNode, rng: &mut TestRng, out: &mut String) {
    match node {
        RegexNode::Literal(c) => out.push(*c),
        RegexNode::Class(ranges) => {
            let total: u64 = ranges
                .iter()
                .map(|&(lo, hi)| hi as u64 - lo as u64 + 1)
                .sum();
            let mut pick = rng.below(total);
            for &(lo, hi) in ranges {
                let span = hi as u64 - lo as u64 + 1;
                if pick < span {
                    out.push(char::from_u32(lo as u32 + pick as u32).unwrap());
                    return;
                }
                pick -= span;
            }
        }
        RegexNode::Group(alternatives) => {
            let alt = &alternatives[rng.below(alternatives.len() as u64) as usize];
            for n in alt {
                generate_node(n, rng, out);
            }
        }
        RegexNode::Repeat(inner, min, max) => {
            let count = min + rng.below((max - min + 1) as u64) as usize;
            for _ in 0..count {
                generate_node(inner, rng, out);
            }
        }
    }
}

impl Strategy for &'static str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        let nodes = parse_regex(self);
        let mut out = String::new();
        for node in &nodes {
            generate_node(node, rng, &mut out);
        }
        out
    }
}

/// Everything test files glob-import.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Any, BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

// ---------------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------------

/// Uniform choice between strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Assert inside a property body (fails the case, not the process).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} — {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), format!($($fmt)+), l, r
        );
    }};
}

/// Inequality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Sample `strategy` and feed the value to one property-body closure.
/// Exists so the `proptest!` expansion gets the closure's argument type
/// from inference instead of an explicit annotation.
#[doc(hidden)]
pub fn run_case<S, F>(strategy: &S, rng: &mut TestRng, body: F) -> Result<(), TestCaseError>
where
    S: Strategy,
    F: FnOnce(S::Value) -> Result<(), TestCaseError>,
{
    body(strategy.sample(rng))
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !($cond) {
            return Ok(());
        }
    };
}

/// Define property tests: an optional `#![proptest_config(..)]`, then test
/// functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng =
                $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            let strategy = ($($strategy,)+);
            for case in 0..config.cases {
                let outcome = $crate::run_case(&strategy, &mut rng, |($($pat,)+)| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                });
                if let Err(err) = outcome {
                    panic!(
                        "proptest case #{case} of {} failed:\n{err}",
                        stringify!($name)
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_strategies_match_their_shape() {
        let mut rng = crate::TestRng::from_seed(9);
        for _ in 0..200 {
            let var = Strategy::sample(&"[a-zA-Z][a-zA-Z0-9_]{0,6}", &mut rng);
            assert!(!var.is_empty() && var.len() <= 7);
            assert!(var.chars().next().unwrap().is_ascii_alphabetic());
            assert!(var.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));

            let iri = Strategy::sample(&"[a-z]{1,8}(/[a-zA-Z0-9_.-]{1,10}){1,2}", &mut rng);
            let slashes = iri.chars().filter(|&c| c == '/').count();
            assert!((1..=2).contains(&slashes), "{iri}");

            let tag = Strategy::sample(&"[a-z]{2}(-[A-Z]{2})?", &mut rng);
            assert!(tag.len() == 2 || tag.len() == 5, "{tag}");

            let printable = Strategy::sample(&"[ -~]{0,12}", &mut rng);
            assert!(printable.len() <= 12);
            assert!(printable.chars().all(|c| (' '..='~').contains(&c)));

            let with_newline = Strategy::sample(&"[ -~\\n]{0,120}", &mut rng);
            assert!(with_newline
                .chars()
                .all(|c| (' '..='~').contains(&c) || c == '\n'));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let strategy = prop_oneof![0u8..1, 10u8..11, 20u8..21];
        let mut rng = crate::TestRng::from_seed(3);
        let mut seen = [false; 3];
        for _ in 0..100 {
            match strategy.sample(&mut rng) {
                0 => seen[0] = true,
                10 => seen[1] = true,
                20 => seen[2] = true,
                other => panic!("impossible arm value {other}"),
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn vec_and_array_strategies() {
        let mut rng = crate::TestRng::from_seed(4);
        for _ in 0..100 {
            let v = prop::collection::vec(0u8..5, 1..40).sample(&mut rng);
            assert!((1..40).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
            let a = prop::array::uniform8(-8i64..8).sample(&mut rng);
            assert!(a.iter().all(|&x| (-8..8).contains(&x)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 0u32..100, mut v in prop::collection::vec(0u8..3, 0..5)) {
            prop_assume!(x != 99);
            v.push(0);
            prop_assert!(x < 100, "x = {}", x);
            prop_assert_eq!(v.last().copied(), Some(0u8));
        }
    }
}
