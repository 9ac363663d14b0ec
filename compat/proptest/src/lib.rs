//! Offline stand-in for `proptest`.
//!
//! Implements the strategy combinators and macros this workspace's
//! property tests use — `proptest!`, `prop_oneof!`, `prop_assert*!`,
//! `prop_assume!`, regex-string strategies, ranges, `Just`, tuples,
//! `prop::collection::vec`, `prop_map`, `prop_recursive`, `any::<T>()` —
//! over a seeded deterministic RNG. Failing cases are reported with
//! their seed; there is no shrinking.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::rc::Rc;

    /// A generator of values. Unlike upstream there is no value tree;
    /// `generate` directly produces one value.
    pub trait Strategy: Clone + 'static {
        type Value;

        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> BoxedStrategy<U>
        where
            Self: Sized,
            Self::Value: 'static,
            U: 'static,
            F: Fn(Self::Value) -> U + 'static,
        {
            let inner = self;
            BoxedStrategy(Rc::new(move |rng| f(inner.generate(rng))))
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized,
            Self::Value: 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
        }

        /// Build a recursive strategy by applying `recurse` `depth`
        /// times over the leaf strategy, mixing leaves back in at every
        /// level so generation terminates.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value>,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut cur = self.clone().boxed();
            for _ in 0..depth {
                let deeper = recurse(cur).boxed();
                cur = Union::new(vec![(1, self.clone().boxed()), (2, deeper)]).boxed();
            }
            cur
        }
    }

    /// Type-erased strategy; clones share the generator.
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut StdRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T: 'static> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone + 'static> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted choice between boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<(u32, BoxedStrategy<T>)>,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                options: self.options.clone(),
            }
        }
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T: 'static> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            let total: u32 = self.options.iter().map(|(w, _)| *w).sum();
            let mut pick = rng.gen_range(0..total);
            for (w, s) in &self.options {
                if pick < *w {
                    return s.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weighted pick out of range")
        }
    }

    /// String literals are regex strategies, as upstream.
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut StdRng) -> String {
            crate::string_gen::sample(self, rng)
        }
    }

    impl<T> Strategy for core::ops::Range<T>
    where
        T: rand::SampleUniform + Copy + 'static,
    {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::sample_half_open(rng, self.start, self.end)
        }
    }

    impl<T> Strategy for core::ops::RangeInclusive<T>
    where
        T: rand::SampleUniform + Copy + 'static,
    {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::sample_inclusive(rng, *self.start(), *self.end())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($t:ident . $idx:tt),+))+) => {$(
            impl<$($t: Strategy),+> Strategy for ($($t,)+) {
                type Value = ($($t::Value,)+);

                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

pub mod arbitrary {
    use super::strategy::BoxedStrategy;
    use rand::Rng;
    use std::rc::Rc;

    /// Subset of upstream `Arbitrary`: types `any::<T>()` can produce.
    pub trait Arbitrary: Sized + 'static {
        fn arbitrary() -> BoxedStrategy<Self>;
    }

    impl Arbitrary for bool {
        fn arbitrary() -> BoxedStrategy<bool> {
            BoxedStrategy(Rc::new(|rng| rng.gen_bool(0.5)))
        }
    }

    macro_rules! impl_arbitrary_uniform {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary() -> BoxedStrategy<$t> {
                    BoxedStrategy(Rc::new(|rng| rng.gen_range(<$t>::MIN..=<$t>::MAX)))
                }
            }
        )*};
    }

    impl_arbitrary_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    pub fn any<T: Arbitrary>() -> BoxedStrategy<T> {
        T::arbitrary()
    }

    // Silence unused warnings when only a subset of impls is exercised.
    const _: fn() = || {
        let _ = any::<bool>;
    };
}

pub mod collection {
    use super::strategy::{BoxedStrategy, Strategy};
    use rand::Rng;
    use std::rc::Rc;

    /// Acceptable size arguments for [`vec`](fn@vec): an exact length, a
    /// half-open range, or an inclusive range (upstream's `SizeRange`).
    pub trait IntoSizeRange {
        /// Inclusive (min, max) bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(
        element: S,
        size: impl IntoSizeRange + 'static,
    ) -> BoxedStrategy<Vec<S::Value>>
    where
        S::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng| {
            let (min, max) = size.bounds();
            let n = rng.gen_range(min..=max);
            (0..n).map(|_| element.generate(rng)).collect()
        }))
    }
}

pub mod string_gen {
    //! Sampler for the regex subset the workspace's strategies use:
    //! literals, `[...]` classes (ranges, escapes, trailing `-`),
    //! `(...)` groups, `{m}`/`{m,n}`/`*`/`+`/`?` quantifiers, `\PC`
    //! (any printable char) and `.`.

    use rand::rngs::StdRng;
    use rand::Rng;

    #[derive(Debug, Clone)]
    enum Node {
        Lit(char),
        Class(Vec<(char, char)>),
        AnyPrintable,
        Group(Vec<Node>),
        Repeat { inner: Box<Node>, min: u32, max: u32 },
    }

    pub fn sample(pattern: &str, rng: &mut StdRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pos = 0;
        let nodes = parse_seq(&chars, &mut pos, pattern);
        assert!(
            pos == chars.len(),
            "string strategy `{pattern}`: unexpected `{}` at {pos}",
            chars[pos]
        );
        let mut out = String::new();
        for n in &nodes {
            emit(n, rng, &mut out);
        }
        out
    }

    fn parse_seq(chars: &[char], pos: &mut usize, pat: &str) -> Vec<Node> {
        let mut nodes: Vec<Node> = Vec::new();
        while *pos < chars.len() {
            let c = chars[*pos];
            match c {
                ')' => break,
                '[' => {
                    *pos += 1;
                    nodes.push(parse_class(chars, pos, pat));
                }
                '(' => {
                    *pos += 1;
                    let inner = parse_seq(chars, pos, pat);
                    assert!(
                        *pos < chars.len() && chars[*pos] == ')',
                        "string strategy `{pat}`: unclosed group"
                    );
                    *pos += 1;
                    nodes.push(Node::Group(inner));
                }
                '\\' => {
                    *pos += 1;
                    let esc = chars[*pos];
                    *pos += 1;
                    if esc == 'P' || esc == 'p' {
                        // `\PC` — anything outside the control category.
                        let cat = chars[*pos];
                        *pos += 1;
                        assert!(
                            cat == 'C',
                            "string strategy `{pat}`: unsupported category \\{esc}{cat}"
                        );
                        nodes.push(Node::AnyPrintable);
                    } else {
                        nodes.push(Node::Lit(esc));
                    }
                }
                '{' => {
                    *pos += 1;
                    let (min, max) = parse_bounds(chars, pos, pat);
                    let prev = nodes.pop().unwrap_or_else(|| {
                        panic!("string strategy `{pat}`: `{{` with nothing to repeat")
                    });
                    nodes.push(Node::Repeat {
                        inner: Box::new(prev),
                        min,
                        max,
                    });
                }
                '*' | '+' | '?' => {
                    *pos += 1;
                    let (min, max) = match c {
                        '*' => (0, 8),
                        '+' => (1, 8),
                        _ => (0, 1),
                    };
                    let prev = nodes.pop().unwrap_or_else(|| {
                        panic!("string strategy `{pat}`: `{c}` with nothing to repeat")
                    });
                    nodes.push(Node::Repeat {
                        inner: Box::new(prev),
                        min,
                        max,
                    });
                }
                '.' => {
                    *pos += 1;
                    nodes.push(Node::AnyPrintable);
                }
                c => {
                    *pos += 1;
                    nodes.push(Node::Lit(c));
                }
            }
        }
        nodes
    }

    fn parse_class(chars: &[char], pos: &mut usize, pat: &str) -> Node {
        let mut ranges: Vec<(char, char)> = Vec::new();
        while *pos < chars.len() && chars[*pos] != ']' {
            let mut c = chars[*pos];
            if c == '\\' {
                *pos += 1;
                c = chars[*pos];
            }
            *pos += 1;
            // Range `a-z` (a `-` right before `]` is a literal).
            if *pos + 1 < chars.len() && chars[*pos] == '-' && chars[*pos + 1] != ']' {
                *pos += 1;
                let mut hi = chars[*pos];
                if hi == '\\' {
                    *pos += 1;
                    hi = chars[*pos];
                }
                *pos += 1;
                ranges.push((c, hi));
            } else {
                ranges.push((c, c));
            }
        }
        assert!(
            *pos < chars.len(),
            "string strategy `{pat}`: unclosed character class"
        );
        *pos += 1; // `]`
        Node::Class(ranges)
    }

    fn parse_bounds(chars: &[char], pos: &mut usize, pat: &str) -> (u32, u32) {
        let read_num = |pos: &mut usize| -> u32 {
            let start = *pos;
            while *pos < chars.len() && chars[*pos].is_ascii_digit() {
                *pos += 1;
            }
            chars[start..*pos].iter().collect::<String>().parse().unwrap_or(0)
        };
        let min = read_num(pos);
        let max = if chars[*pos] == ',' {
            *pos += 1;
            read_num(pos)
        } else {
            min
        };
        assert!(
            chars[*pos] == '}',
            "string strategy `{pat}`: malformed repetition bounds"
        );
        *pos += 1;
        (min, max)
    }

    /// Non-control characters `\PC` draws from: mostly printable ASCII
    /// with an occasional multi-byte scalar to exercise UTF-8 paths.
    const WIDE: &[char] = &['é', 'λ', 'ß', '中', '文', '→', '😀'];

    fn emit(node: &Node, rng: &mut StdRng, out: &mut String) {
        match node {
            Node::Lit(c) => out.push(*c),
            Node::AnyPrintable => {
                if rng.gen_bool(0.9) {
                    out.push(char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap());
                } else {
                    out.push(WIDE[rng.gen_range(0..WIDE.len())]);
                }
            }
            Node::Class(ranges) => {
                let total: u32 = ranges
                    .iter()
                    .map(|(lo, hi)| *hi as u32 - *lo as u32 + 1)
                    .sum();
                let mut pick = rng.gen_range(0..total);
                for (lo, hi) in ranges {
                    let span = *hi as u32 - *lo as u32 + 1;
                    if pick < span {
                        out.push(char::from_u32(*lo as u32 + pick).expect("class range is valid"));
                        return;
                    }
                    pick -= span;
                }
            }
            Node::Group(nodes) => {
                for n in nodes {
                    emit(n, rng, out);
                }
            }
            Node::Repeat { inner, min, max } => {
                let n = rng.gen_range(*min..=*max);
                for _ in 0..n {
                    emit(inner, rng, out);
                }
            }
        }
    }
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Why a single generated case did not pass.
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; not a failure.
        Reject,
        /// `prop_assert*!` failed.
        Fail(String),
    }

    /// Cases per property. Upstream defaults to 256; 128 keeps the
    /// whole-workspace test run fast while still covering each property
    /// with a diverse seeded sample.
    pub const CASES: u64 = 128;

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Drive one property: run `CASES` deterministic seeded cases and
    /// panic (with the case number) on the first failure.
    pub fn run<F>(name: &str, mut case: F)
    where
        F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
    {
        let base = fnv1a(name);
        for i in 0..CASES {
            let mut rng = StdRng::seed_from_u64(base ^ i.wrapping_mul(0x9e3779b97f4a7c15));
            match case(&mut rng) {
                Ok(()) | Err(TestCaseError::Reject) => {}
                Err(TestCaseError::Fail(msg)) => {
                    panic!("property `{name}` failed on case {i}: {msg}")
                }
            }
        }
    }
}

/// `use proptest::prelude::*;`
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};

    /// The `prop::` module alias used by call sites
    /// (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), |__proptest_rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __proptest_rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((($weight) as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{:?}` != `{:?}`", l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}", l, r, format!($($fmt)*)
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn regex_subset_produces_matching_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = crate::string_gen::sample("[a-z]{2,8}( [a-z]{2,8}){0,6}", &mut rng);
            for word in s.split(' ') {
                assert!((2..=8).contains(&word.len()), "bad word in `{s}`");
                assert!(word.chars().all(|c| c.is_ascii_lowercase()));
            }
        }
    }

    #[test]
    fn class_escapes_and_trailing_dash() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let s = crate::string_gen::sample("[a-z0-9<>{}\\[\\]| .-]{0,40}", &mut rng);
            assert!(s.len() <= 40);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase()
                    || c.is_ascii_digit()
                    || "<>{}[]| .-".contains(c)));
        }
    }

    #[test]
    fn ranges_and_tuples_are_strategies() {
        let mut rng = StdRng::seed_from_u64(3);
        let strat = (0u64..10, "[a-c]{1}", Just(7usize));
        for _ in 0..50 {
            let (n, s, j) = strat.generate(&mut rng);
            assert!(n < 10);
            assert!(matches!(s.as_str(), "a" | "b" | "c"));
            assert_eq!(j, 7);
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Clone, Debug)]
        enum Tree {
            // The payload is constructed but only pattern-matched away.
            #[allow(dead_code)]
            Leaf(u64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(cs) => 1 + cs.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0u64..100).prop_map(Tree::Leaf).prop_recursive(3, 16, 4, |inner| {
            crate::collection::vec(inner, 1..4).prop_map(Tree::Node)
        });
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            // Each recursion level adds at most one Node layer.
            assert!(depth(&strat.generate(&mut rng)) <= 4);
        }
    }

    proptest! {
        /// The proptest! macro itself: args bind, asserts work.
        #[test]
        fn macro_smoke(x in 0u32..50, flip in any::<bool>()) {
            prop_assume!(x != 13);
            prop_assert!(x < 50, "x={}", x);
            prop_assert_eq!(flip, flip);
        }
    }
}
