//! Differential property tests: the byte-level codec against the
//! char-based writer and parser it replaced, kept here verbatim as the
//! reference.
//!
//! * Over generated [`Value`] trees (escapes, raw control characters,
//!   non-ASCII and astral-plane text, floats, integers up to 2^53,
//!   nesting up to [`RECURSION_LIMIT`]), `to_string` is byte-equal to the
//!   reference writer, `to_string_pretty` likewise, and the parser reads
//!   the text back to the same tree.
//! * Over arbitrary strings (printable soup, JSON-ish token soup,
//!   single-character mutations of valid documents and documents with
//!   structural slips), `from_str::<Value>`
//!   agrees with the reference parser on `Ok` versus `Err`, and on the
//!   value when both accept.
//!
//! One deliberate difference: the reference combined a `\uD8xx` high
//! surrogate with whatever `\uXXXX` followed, wrapping (release) or
//! panicking (debug) when that was not a low surrogate. The codec
//! rejects such a pair, and the reference below rejects it too.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use serde::Value;
use serde_json::{from_str, from_str_with_spans, to_string, to_string_pretty, RECURSION_LIMIT};

mod reference {
    //! The char-based codec the byte-level one replaced.

    use serde::Value;

    pub fn to_string(v: &Value) -> String {
        let mut out = String::new();
        write_value(v, &mut out, None, 0);
        out
    }

    pub fn to_string_pretty(v: &Value) -> String {
        let mut out = String::new();
        write_value(v, &mut out, Some(2), 0);
        out
    }

    pub fn from_str(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            chars: s.chars().collect(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing input at offset {}", p.pos));
        }
        Ok(v)
    }

    fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                write_value(&items[i], out, indent, level + 1)
            }),
            Value::Obj(entries) => {
                write_seq(out, indent, level, '{', '}', entries.len(), |out, i| {
                    write_string(&entries[i].0, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(&entries[i].1, out, indent, level + 1)
                })
            }
        }
    }

    fn write_seq(
        out: &mut String,
        indent: Option<usize>,
        level: usize,
        open: char,
        close: char,
        n: usize,
        mut item: impl FnMut(&mut String, usize),
    ) {
        out.push(open);
        if n == 0 {
            out.push(close);
            return;
        }
        for i in 0..n {
            if i > 0 {
                out.push(',');
            }
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * (level + 1)));
            }
            item(out, i);
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * level));
        }
        out.push(close);
    }

    fn write_number(n: f64, out: &mut String) {
        if !n.is_finite() {
            out.push_str("null");
        } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n}"));
        }
    }

    fn write_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
        depth: usize,
    }

    impl Parser {
        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }

        fn bump(&mut self) -> Result<char, String> {
            let c = self.peek().ok_or("unexpected end of input")?;
            self.pos += 1;
            Ok(c)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, c: char) -> Result<(), String> {
            let got = self.bump()?;
            if got != c {
                return Err(format!("expected `{c}`, found `{got}`"));
            }
            Ok(())
        }

        fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
            for c in lit.chars() {
                self.expect(c)?;
            }
            Ok(())
        }

        fn parse_value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some('n') => {
                    self.eat_lit("null")?;
                    Ok(Value::Null)
                }
                Some('t') => {
                    self.eat_lit("true")?;
                    Ok(Value::Bool(true))
                }
                Some('f') => {
                    self.eat_lit("false")?;
                    Ok(Value::Bool(false))
                }
                Some('"') => Ok(Value::Str(self.parse_string()?)),
                Some(c @ ('[' | '{')) => {
                    if self.depth == super::RECURSION_LIMIT {
                        return Err("recursion limit exceeded".to_string());
                    }
                    self.pos += 1;
                    self.depth += 1;
                    let v = if c == '[' {
                        self.parse_array()
                    } else {
                        self.parse_object()
                    };
                    self.depth -= 1;
                    v
                }
                Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
                Some(c) => Err(format!("unexpected character `{c}`")),
                None => Err("unexpected end of input".into()),
            }
        }

        fn parse_array(&mut self) -> Result<Value, String> {
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.parse_value()?);
                self.skip_ws();
                match self.bump()? {
                    ',' => {}
                    ']' => return Ok(Value::Arr(items)),
                    c => return Err(format!("expected `,` or `]`, found `{c}`")),
                }
            }
        }

        fn parse_object(&mut self) -> Result<Value, String> {
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some('}') {
                self.pos += 1;
                return Ok(Value::Obj(entries));
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.expect(':')?;
                let value = self.parse_value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.bump()? {
                    ',' => {}
                    '}' => return Ok(Value::Obj(entries)),
                    c => return Err(format!("expected `,` or `}}`, found `{c}`")),
                }
            }
        }

        fn parse_string(&mut self) -> Result<String, String> {
            self.expect('"')?;
            let mut s = String::new();
            loop {
                match self.bump()? {
                    '"' => return Ok(s),
                    '\\' => match self.bump()? {
                        '"' => s.push('"'),
                        '\\' => s.push('\\'),
                        '/' => s.push('/'),
                        'b' => s.push('\u{8}'),
                        'f' => s.push('\u{c}'),
                        'n' => s.push('\n'),
                        'r' => s.push('\r'),
                        't' => s.push('\t'),
                        'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                self.expect('\\')?;
                                self.expect('u')?;
                                let lo = self.parse_hex4()?;
                                // The one change from the replaced parser,
                                // which computed `lo - 0xDC00` unchecked.
                                let lo = lo.checked_sub(0xDC00).filter(|l| *l < 0x400);
                                0x10000 + ((hi - 0xD800) << 10) + lo.ok_or("bad low surrogate")?
                            } else {
                                hi
                            };
                            s.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        }
                        c => return Err(format!("invalid escape `\\{c}`")),
                    },
                    c => s.push(c),
                }
            }
        }

        fn parse_hex4(&mut self) -> Result<u32, String> {
            let mut v = 0u32;
            for _ in 0..4 {
                let c = self.bump()?;
                v = v * 16 + c.to_digit(16).ok_or("invalid hex digit")?;
            }
            Ok(v)
        }

        fn parse_number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some('-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some('.') {
                self.pos += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some('e' | 'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some('+' | '-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text: String = self.chars[start..self.pos].iter().collect();
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("invalid number `{text}`"))
        }
    }
}

/// Characters that stress the string writer and parser: every escape the
/// writer emits, raw controls, DEL, two- to four-byte UTF-8.
const ALPHABET: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '€',
    '中',
    '\u{2028}',
    '😀',
    '\u{10FFFF}',
    '{',
    '}',
    '[',
    ']',
    ':',
    ',',
];

fn text() -> BoxedStrategy<String> {
    prop_oneof![
        3 => prop::collection::vec(0..ALPHABET.len(), 0..24)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect::<String>()),
        1 => "\\PC{0,24}",
    ]
    .boxed()
}

fn number() -> BoxedStrategy<f64> {
    const TWO_53: i64 = 1 << 53;
    prop_oneof![
        (-TWO_53..=TWO_53).prop_map(|n| n as f64),
        (-1000i64..1000).prop_map(|n| n as f64),
        any::<u64>().prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                0.5
            }
        }),
        -1e6f64..1e6,
        (0usize..8).prop_map(|i| [0.0, -0.0, 0.1, 1e21, 1e-7, 5e-324, f64::MAX, -1e300][i]),
    ]
    .boxed()
}

fn leaf() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        number().prop_map(Value::Num),
        text().prop_map(Value::Str),
    ]
    .boxed()
}

fn tree() -> BoxedStrategy<Value> {
    leaf().prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Arr),
            prop::collection::vec((text(), inner), 0..6).prop_map(Value::Obj),
        ]
    })
}

/// A tree wrapped in `wraps` single-member arrays or objects, so nesting
/// reaches the recursion cap (the tree itself is at most five deep).
fn deep_tree() -> BoxedStrategy<Value> {
    (tree(), 0usize..=RECURSION_LIMIT - 5, any::<u64>())
        .prop_map(|(mut v, wraps, pattern)| {
            for i in 0..wraps {
                v = if pattern.rotate_left(i as u32) & 1 == 0 {
                    Value::Arr(vec![v])
                } else {
                    Value::Obj(vec![("k".to_string(), v)])
                };
            }
            v
        })
        .boxed()
}

/// JSON-ish soup: tokens that almost make documents.
fn soup() -> BoxedStrategy<String> {
    const TOKENS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", "\"", "\"k\"", "\\", "\\\"", "\\n", "\\u", "\\u00e9",
        "\\ud83d", "\\ude00", "\\u0041", "\\x", "0", "-", "1.5", "1e3", "-0", "01", "1.", ".5",
        "e", "E+", "true", "nul", "null", "false", " ", "\n", "\t", "é", "😀", "\u{1}", "[[[[",
        "]]]]",
    ];
    prop::collection::vec(0..TOKENS.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
        .boxed()
}

/// A valid document with one character replaced, removed or inserted.
fn mutated_document() -> BoxedStrategy<String> {
    (tree(), any::<usize>(), 0usize..3, 0..ALPHABET.len())
        .prop_map(|(v, at, op, c)| {
            let mut chars: Vec<char> = reference::to_string(&v).chars().collect();
            let at = at % (chars.len() + 1);
            match op {
                0 if at < chars.len() => chars[at] = ALPHABET[c],
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.insert(at, ALPHABET[c]),
            }
            chars.into_iter().collect()
        })
        .boxed()
}

/// A document written with occasional structural slips at the points
/// where a writer emits punctuation: a trailing or doubled comma, a
/// missing comma or colon, whitespace, a dropped or extra closer, a
/// number with a bare sign, dot or exponent. `slips[i % len]` decides
/// the `i`-th point; most decisions write the canonical token.
fn slipped_document() -> BoxedStrategy<String> {
    (tree(), prop::collection::vec(0u8..40, 1..16))
        .prop_map(|(v, slips)| {
            let mut out = String::new();
            let mut at = 0;
            write_slipped(&v, &slips, &mut at, &mut out);
            out
        })
        .boxed()
}

fn write_slipped(v: &Value, slips: &[u8], at: &mut usize, out: &mut String) {
    let next = |at: &mut usize| {
        *at += 1;
        slips[*at % slips.len()]
    };
    let close = |c: char, slip: u8, out: &mut String| match slip {
        0 => out.push_str(",]"),
        1 => {}
        2 => {
            out.push(c);
            out.push(c);
        }
        3 => {
            out.push(' ');
            out.push(c);
        }
        _ => out.push(c),
    };
    match v {
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    match next(at) {
                        4 => {}
                        5 => out.push_str(",,"),
                        6 => out.push_str(" , "),
                        _ => out.push(','),
                    }
                }
                write_slipped(item, slips, at, out);
            }
            let slip = next(at);
            if slip == 7 {
                out.push(',');
            }
            close(']', slip, out);
        }
        Value::Obj(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    match next(at) {
                        4 => {}
                        5 => out.push_str(",,"),
                        _ => out.push(','),
                    }
                }
                out.push_str(&reference::to_string(&Value::Str(key.clone())));
                match next(at) {
                    8 => {}
                    9 => out.push_str(" :\n"),
                    10 => out.push_str("::"),
                    _ => out.push(':'),
                }
                write_slipped(item, slips, at, out);
            }
            let slip = next(at);
            if slip == 7 {
                out.push(',');
            }
            close('}', slip, out);
        }
        Value::Num(n) => {
            let text = reference::to_string(v);
            match next(at) {
                11 => out.push('-'),
                12 => out.push_str(&format!("{text}.")),
                13 => out.push_str(&format!("{text}e")),
                14 => out.push_str(&format!("{text}E+1")),
                15 => out.push_str(&format!("0{}", n.abs())),
                _ => out.push_str(&text),
            }
        }
        leaf => out.push_str(&reference::to_string(leaf)),
    }
}

fn agrees_with_reference(input: &str) -> Result<(), String> {
    match (from_str::<Value>(input), reference::from_str(input)) {
        (Ok(got), Ok(want)) if got == want => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        (got, want) => Err(format!("{input:?}: codec {got:?}, reference {want:?}")),
    }
}

proptest! {
    #[test]
    fn writer_matches_reference_and_round_trips(v in deep_tree()) {
        let json = to_string(&v).unwrap();
        prop_assert_eq!(&json, &reference::to_string(&v));
        prop_assert_eq!(to_string_pretty(&v).unwrap(), reference::to_string_pretty(&v));
        let back: Value = from_str(&json).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn spans_slice_out_each_member(entries in prop::collection::vec((text(), tree()), 0..6)) {
        let v = Value::Obj(entries.clone());
        let json = to_string(&v).unwrap();
        let (back, spans) = from_str_with_spans(&json).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(spans.len(), entries.len());
        for ((_, member), span) in entries.iter().zip(spans) {
            prop_assert_eq!(&json[span], to_string(member).unwrap());
        }
    }

    #[test]
    fn parser_agrees_on_printable_soup(input in "\\PC{0,64}") {
        agrees_with_reference(&input).map_err(proptest::test_runner::TestCaseError::Fail)?;
    }

    #[test]
    fn parser_agrees_on_json_soup(input in soup()) {
        agrees_with_reference(&input).map_err(proptest::test_runner::TestCaseError::Fail)?;
    }

    #[test]
    fn parser_agrees_on_mutated_documents(input in mutated_document()) {
        agrees_with_reference(&input).map_err(proptest::test_runner::TestCaseError::Fail)?;
    }

    #[test]
    fn parser_agrees_on_slipped_documents(input in slipped_document()) {
        agrees_with_reference(&input).map_err(proptest::test_runner::TestCaseError::Fail)?;
    }
}
