//! Offline stand-in for `serde_json`: renders and parses JSON text over
//! the value tree of the vendored `serde` stub. Covers the API this
//! workspace calls: `to_string`, `to_string_pretty`, `from_str`, `Error`.
//!
//! The parser recurses once per array or object level, so nesting is
//! capped at [`RECURSION_LIMIT`] (upstream's default): a deeper input is
//! an [`Error`], never a stack overflow. Daemon request frames, the job
//! journal and artifact stores all come through here, and an overflow
//! aborts the process where no `catch_unwind` can contain it.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Deepest array/object nesting [`from_str`] accepts.
pub const RECURSION_LIMIT: usize = 128;

pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        chars: s.chars().collect(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(Error(format!("trailing input at offset {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

// ---- writer -------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
            write_value(&items[i], out, indent, level + 1)
        }),
        Value::Obj(entries) => write_seq(out, indent, level, '{', '}', entries.len(), |out, i| {
            write_string(&entries[i].0, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(&entries[i].1, out, indent, level + 1)
        }),
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
        // Rust's Display for f64 is the shortest round-trippable form.
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

// ---- parser -------------------------------------------------------------

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<char, Error> {
        let c = self
            .peek()
            .ok_or_else(|| Error("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), Error> {
        let got = self.bump()?;
        if got != c {
            return Err(Error(format!(
                "expected `{c}` at offset {}, found `{got}`",
                self.pos - 1
            )));
        }
        Ok(())
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), Error> {
        for c in lit.chars() {
            self.expect(c)?;
        }
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
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
                if self.depth == RECURSION_LIMIT {
                    return Err(Error(format!(
                        "recursion limit exceeded: nesting deeper than {RECURSION_LIMIT} \
                         levels at offset {}",
                        self.pos
                    )));
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
            Some(c) => Err(Error(format!("unexpected character `{c}`"))),
            None => Err(Error("unexpected end of input".into())),
        }
    }

    /// The rest of an array whose `[` was consumed.
    fn parse_array(&mut self) -> Result<Value, Error> {
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
                c => return Err(Error(format!("expected `,` or `]`, found `{c}`"))),
            }
        }
    }

    /// The rest of an object whose `{` was consumed.
    fn parse_object(&mut self) -> Result<Value, Error> {
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
                c => return Err(Error(format!("expected `,` or `}}`, found `{c}`"))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
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
                            // Surrogate pair.
                            self.expect('\\')?;
                            self.expect('u')?;
                            let lo = self.parse_hex4()?;
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        s.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error(format!("invalid \\u escape {code:#x}")))?,
                        );
                    }
                    c => return Err(Error(format!("invalid escape `\\{c}`"))),
                },
                c => s.push(c),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.bump()?;
            v = v * 16
                + c.to_digit(16)
                    .ok_or_else(|| Error(format!("invalid hex digit `{c}`")))?;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
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
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let json = to_string(&vec![1u64, 2, 3]).unwrap();
        assert_eq!(json, "[1,2,3]");
        let back: Vec<u64> = from_str(&json).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "a \"quote\"\nnew\tline \\ done".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_escapes_parse() {
        let back: String = from_str(r#""é😀""#).unwrap();
        assert_eq!(back, "é😀");
    }

    #[test]
    fn pretty_printing_indents() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("k".to_string(), vec![1u32]);
        let pretty = to_string_pretty(&m).unwrap();
        assert_eq!(pretty, "{\n  \"k\": [\n    1\n  ]\n}");
        let back: std::collections::BTreeMap<String, Vec<u32>> = from_str(&pretty).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn float_round_trip() {
        let json = to_string(&vec![1.5f64, -0.25]).unwrap();
        let back: Vec<f64> = from_str(&json).unwrap();
        assert_eq!(back, vec![1.5, -0.25]);
    }

    #[test]
    fn nesting_at_the_limit_parses_and_one_deeper_errors() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(RECURSION_LIMIT)).is_ok());
        let err = from_str::<Value>(&nested(RECURSION_LIMIT + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Objects and arrays share one depth count.
        let mixed = r#"{"a":"#.repeat(RECURSION_LIMIT) + "[]" + &"}".repeat(RECURSION_LIMIT);
        assert!(from_str::<Value>(&mixed).is_err());
    }

    /// 20 000 unclosed `[` used to overflow the stack, which aborts the
    /// whole process, so the input runs in a child process: the parent
    /// passes only if the child exits cleanly.
    #[test]
    fn deep_nesting_is_an_error_not_an_abort() {
        const CHILD_ENV: &str = "SERDE_JSON_DEEP_NESTING_CHILD";
        if std::env::var_os(CHILD_ENV).is_some() {
            for deep in ["[".repeat(20_000), r#"{"k":"#.repeat(20_000)] {
                let err = from_str::<Value>(&deep).unwrap_err();
                assert!(err.to_string().contains("recursion limit"), "{err}");
            }
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "tests::deep_nesting_is_an_error_not_an_abort"])
            .args(["--nocapture", "--test-threads=1"])
            .env(CHILD_ENV, "1")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "child died ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<String>("nope").is_err());
        assert!(from_str::<u32>("1 garbage").is_err());
    }
}
