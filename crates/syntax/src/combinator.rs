//! A compact parser-combinator toolkit.
//!
//! This plays the role pyparsing plays in the paper's prototype: a library
//! for assembling small grammars from composable pieces. Parsers are plain
//! functions `Fn(&str, usize) -> PRes<T>` — input string plus byte offset
//! in, value plus new offset out — so recursive grammars are written as
//! ordinary mutually recursive `fn`s with no allocation tricks.
//!
//! Error handling follows the "farthest failure" convention: an error
//! carries the offset where parsing got stuck and what was expected there,
//! and [`alt`] keeps the error that progressed farthest, which gives the
//! validator precise positions for its diagnoses.

/// A parse failure: where and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PErr {
    /// Byte offset of the failure.
    pub pos: usize,
    /// Description of what was expected, e.g. `"'}'"` or `"identifier"`.
    pub expected: String,
}

impl PErr {
    /// Construct an error at `pos` expecting `expected`.
    pub fn new(pos: usize, expected: impl Into<String>) -> PErr {
        PErr {
            pos,
            expected: expected.into(),
        }
    }

    /// Keep the error that reached farther into the input.
    pub fn farthest(self, other: PErr) -> PErr {
        if other.pos > self.pos {
            other
        } else {
            self
        }
    }
}

impl std::fmt::Display for PErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.pos)
    }
}

impl std::error::Error for PErr {}

/// Result of applying a parser at some offset.
pub type PRes<T> = Result<(T, usize), PErr>;

/// Skip ASCII whitespace; always succeeds.
pub fn skip_ws(s: &str, pos: usize) -> usize {
    let bytes = s.as_bytes();
    let mut i = pos;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Match the exact string `lit` (after skipping leading whitespace).
pub fn literal(lit: &'static str) -> impl Fn(&str, usize) -> PRes<&'static str> {
    move |s, pos| {
        let start = skip_ws(s, pos);
        if s[start..].starts_with(lit) {
            Ok((lit, start + lit.len()))
        } else {
            Err(PErr::new(start, format!("'{lit}'")))
        }
    }
}

/// Match one or more characters satisfying `pred` (after whitespace);
/// returns the matched slice. `label` names the class in errors.
pub fn take_while1<'a>(
    pred: impl Fn(char) -> bool + Copy,
    label: &'static str,
) -> impl Fn(&'a str, usize) -> PRes<&'a str> {
    move |s, pos| {
        let start = skip_ws(s, pos);
        let rest = &s[start..];
        let end = rest
            .char_indices()
            .find(|&(_, c)| !pred(c))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            Err(PErr::new(start, label))
        } else {
            Ok((&rest[..end], start + end))
        }
    }
}

/// Apply `p` then transform its value with `f`.
pub fn map<'a, T, U>(
    p: impl Fn(&'a str, usize) -> PRes<T>,
    f: impl Fn(T) -> U,
) -> impl Fn(&'a str, usize) -> PRes<U> {
    move |s, pos| p(s, pos).map(|(t, next)| (f(t), next))
}

/// Try `a`; if it fails, try `b` from the same position. Reports the
/// farthest failure of the two.
pub fn alt<'a, T>(
    a: impl Fn(&'a str, usize) -> PRes<T>,
    b: impl Fn(&'a str, usize) -> PRes<T>,
) -> impl Fn(&'a str, usize) -> PRes<T> {
    move |s, pos| match a(s, pos) {
        Ok(ok) => Ok(ok),
        Err(ea) => b(s, pos).map_err(|eb| ea.farthest(eb)),
    }
}

/// Apply `a` then `b`; yields both values.
pub fn seq<'a, T, U>(
    a: impl Fn(&'a str, usize) -> PRes<T>,
    b: impl Fn(&'a str, usize) -> PRes<U>,
) -> impl Fn(&'a str, usize) -> PRes<(T, U)> {
    move |s, pos| {
        let (t, next) = a(s, pos)?;
        let (u, fin) = b(s, next)?;
        Ok(((t, u), fin))
    }
}

/// Zero or more applications of `p`; never fails.
pub fn many0<'a, T>(
    p: impl Fn(&'a str, usize) -> PRes<T>,
) -> impl Fn(&'a str, usize) -> PRes<Vec<T>> {
    move |s, pos| {
        let mut out = Vec::new();
        let mut cur = pos;
        while let Ok((t, next)) = p(s, cur) {
            debug_assert!(next > cur, "many0 over a non-advancing parser");
            out.push(t);
            cur = next;
        }
        Ok((out, cur))
    }
}

/// One or more applications of `p`.
pub fn many1<'a, T>(
    p: impl Fn(&'a str, usize) -> PRes<T> + Copy,
) -> impl Fn(&'a str, usize) -> PRes<Vec<T>> {
    move |s, pos| {
        let (first, mut cur) = p(s, pos)?;
        let mut out = vec![first];
        while let Ok((t, next)) = p(s, cur) {
            out.push(t);
            cur = next;
        }
        Ok((out, cur))
    }
}

/// Optionally apply `p`; yields `None` on failure without consuming.
pub fn opt<'a, T>(
    p: impl Fn(&'a str, usize) -> PRes<T>,
) -> impl Fn(&'a str, usize) -> PRes<Option<T>> {
    move |s, pos| match p(s, pos) {
        Ok((t, next)) => Ok((Some(t), next)),
        Err(_) => Ok((None, pos)),
    }
}

/// `open p close`, yielding `p`'s value. Mirrors pyparsing's
/// `Suppress('{') + expr + Suppress('}')` idiom from Figure 5.
pub fn delimited<'a, T>(
    open: &'static str,
    p: impl Fn(&'a str, usize) -> PRes<T>,
    close: &'static str,
) -> impl Fn(&'a str, usize) -> PRes<T> {
    move |s, pos| {
        let (_, next) = literal(open)(s, pos)?;
        let (t, next) = p(s, next)?;
        let (_, fin) = literal(close)(s, next)?;
        Ok((t, fin))
    }
}

/// One or more `p` separated by `sep` (values of `sep` discarded).
pub fn sep_by1<'a, T>(
    p: impl Fn(&'a str, usize) -> PRes<T> + Copy,
    sep: &'static str,
) -> impl Fn(&'a str, usize) -> PRes<Vec<T>> {
    move |s, pos| {
        let (first, mut cur) = p(s, pos)?;
        let mut out = vec![first];
        loop {
            let Ok((_, after_sep)) = literal(sep)(s, cur) else {
                break;
            };
            let (t, next) = p(s, after_sep)?;
            out.push(t);
            cur = next;
        }
        Ok((out, cur))
    }
}

/// Require end of input (ignoring trailing whitespace).
pub fn eof(s: &str, pos: usize) -> PRes<()> {
    let at = skip_ws(s, pos);
    if at >= s.len() {
        Ok(((), at))
    } else {
        Err(PErr::new(at, "end of input"))
    }
}

/// Run `p` over the whole of `s`, requiring full consumption.
pub fn parse_all<'a, T>(p: impl Fn(&'a str, usize) -> PRes<T>, s: &'a str) -> Result<T, PErr> {
    let (t, next) = p(s, 0)?;
    let ((), _) = eof(s, next)?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident<'a>() -> impl Fn(&'a str, usize) -> PRes<&'a str> + Copy {
        |s, pos| {
            take_while1(
                |c: char| c.is_ascii_alphanumeric() || c == '-',
                "identifier",
            )(s, pos)
        }
    }

    #[test]
    fn literal_skips_leading_whitespace() {
        assert_eq!(literal("ab")("  ab", 0), Ok(("ab", 4)));
        assert_eq!(literal("ab")("ba", 0), Err(PErr::new(0, "'ab'")));
    }

    #[test]
    fn take_while1_requires_progress() {
        let p = take_while1(|c: char| c.is_ascii_digit(), "digits");
        assert_eq!(p("123x", 0), Ok(("123", 3)));
        assert!(p("x", 0).is_err());
    }

    #[test]
    fn alt_reports_farthest_failure() {
        // Branch a fails at 0, branch b consumes "a" then fails at 1.
        let a = literal("zz");
        let b = map(seq(literal("a"), literal("q")), |_| "aq");
        let p = alt(map(a, |v| v), b);
        let err = p("ab", 0).unwrap_err();
        assert_eq!(err.pos, 1);
        assert_eq!(err.expected, "'q'");
    }

    #[test]
    fn many0_and_many1() {
        let p = many0(ident());
        let (v, _) = p("a b c", 0).unwrap();
        assert_eq!(v, vec!["a", "b", "c"]);
        let (v, _) = p("", 0).unwrap();
        assert!(v.is_empty());
        assert!(many1(ident())("", 0).is_err());
    }

    #[test]
    fn delimited_parses_braced_group() {
        let p = delimited("{", ident(), "}");
        assert_eq!(p("{ abc }", 0).map(|(v, _)| v), Ok("abc"));
        assert!(p("{ abc", 0).is_err());
    }

    #[test]
    fn sep_by1_splits_on_pipe() {
        let p = sep_by1(ident(), "|");
        let (v, _) = p("import | export", 0).unwrap();
        assert_eq!(v, vec!["import", "export"]);
    }

    #[test]
    fn sep_by1_fails_on_dangling_separator() {
        let p = sep_by1(ident(), "|");
        assert!(p("import |", 0).is_err());
    }

    #[test]
    fn parse_all_requires_full_consumption() {
        assert!(parse_all(ident(), "abc").is_ok());
        let err = parse_all(ident(), "abc }").unwrap_err();
        assert_eq!(err.expected, "end of input");
        assert_eq!(err.pos, 4);
    }

    #[test]
    fn opt_never_consumes_on_failure() {
        let p = seq(opt(literal("x")), ident());
        assert_eq!(p("abc", 0).map(|(v, _)| v), Ok((None, "abc")));
        assert_eq!(p("x abc", 0).map(|(v, _)| v), Ok((Some("x"), "abc")));
    }
}
