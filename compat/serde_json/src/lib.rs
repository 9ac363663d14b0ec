//! Offline stand-in for `serde_json`: renders and parses JSON text over
//! the value tree of the vendored `serde` stub. Covers the API this
//! workspace calls — [`to_string`], [`to_string_pretty`], [`to_writer`],
//! [`from_str`] and [`Error`] — plus [`from_str_with_spans`], which also
//! returns the byte range each top-level object member's value occupies
//! in the input, so a caller can checksum the bytes it read instead of
//! serializing the parsed value again.
//!
//! Both directions work on bytes. The writer borrows an existing
//! [`Value`] through [`Serialize::as_value`] instead of copying it,
//! writes string bodies in runs between escapes, and formats integers
//! without allocating. The parser is a cursor over the input's bytes:
//! string bodies are copied in runs up to the next `"` or `\` (ASCII, so
//! always on a `char` boundary), and numbers are read from a slice of the
//! input. Offsets in error messages count bytes, not chars.
//!
//! The parser recurses once per array or object level, so nesting is
//! capped at [`RECURSION_LIMIT`] (upstream's default): a deeper input is
//! an [`Error`], never a stack overflow. Daemon request frames, the job
//! journal and artifact stores all come through here, and an overflow
//! aborts the process where no `catch_unwind` can contain it.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::io::{self, Write};
use std::ops::Range;

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

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error(format!("write failed: {e}"))
    }
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    to_writer(&mut out, value)?;
    utf8(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    write_value(&mut out, &value.as_value(), Some(2), 0)?;
    utf8(out)
}

/// Write `value` as compact JSON (the bytes of [`to_string`]) to
/// `writer`. Passing `&mut Vec<u8>` appends to a caller's buffer.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    write_value(&mut writer, &value.as_value(), None, 0)?;
    Ok(())
}

/// Write `s` as a JSON string (the bytes [`to_string`] writes for it)
/// without building a [`Value`], so a large borrowed string is escaped
/// straight into `writer` instead of being copied into a tree first.
pub fn to_writer_str<W: Write>(mut writer: W, s: &str) -> Result<(), Error> {
    write_string(&mut writer, s)?;
    Ok(())
}

/// Deepest array/object nesting [`from_str`] accepts.
pub const RECURSION_LIMIT: usize = 128;

pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = Parser::new(s).parse_document(None)?;
    Ok(T::from_value_owned(value)?)
}

/// [`from_str`] into a [`Value`], plus where each top-level object
/// member's value sits in `s`: `spans[i]` is the byte range of the
/// `i`-th entry of the returned `Value::Obj`, without surrounding
/// whitespace. When the document is not an object, `spans` is empty.
pub fn from_str_with_spans(s: &str) -> Result<(Value, Vec<Range<usize>>), Error> {
    let mut spans = Vec::new();
    let value = Parser::new(s).parse_document(Some(&mut spans))?;
    Ok((value, spans))
}

// ---- writer -------------------------------------------------------------

fn utf8(bytes: Vec<u8>) -> Result<String, Error> {
    String::from_utf8(bytes).map_err(|e| Error(format!("writer produced invalid UTF-8: {e}")))
}

fn write_value<W: Write>(
    w: &mut W,
    v: &Value,
    indent: Option<usize>,
    level: usize,
) -> io::Result<()> {
    match v {
        Value::Null => w.write_all(b"null"),
        Value::Bool(b) => w.write_all(if *b { b"true" } else { b"false" }),
        Value::Num(n) => write_number(w, *n),
        Value::Str(s) => write_string(w, s),
        Value::Arr(items) => {
            w.write_all(b"[")?;
            for (i, item) in items.iter().enumerate() {
                write_separator(w, i, indent, level + 1)?;
                write_value(w, item, indent, level + 1)?;
            }
            write_close(w, items.is_empty(), indent, level, b"]")
        }
        Value::Obj(entries) => {
            w.write_all(b"{")?;
            for (i, (key, item)) in entries.iter().enumerate() {
                write_separator(w, i, indent, level + 1)?;
                write_string(w, key)?;
                w.write_all(if indent.is_some() { b": " } else { b":" })?;
                write_value(w, item, indent, level + 1)?;
            }
            write_close(w, entries.is_empty(), indent, level, b"}")
        }
    }
}

/// Before item `i` of an array or object: a comma after the first item,
/// then, when pretty-printing, a newline and the item's indentation.
fn write_separator<W: Write>(
    w: &mut W,
    i: usize,
    indent: Option<usize>,
    level: usize,
) -> io::Result<()> {
    if i > 0 {
        w.write_all(b",")?;
    }
    match indent {
        Some(width) => write_newline(w, width * level),
        None => Ok(()),
    }
}

/// The closing bracket; a non-empty pretty container closes on its own
/// line.
fn write_close<W: Write>(
    w: &mut W,
    empty: bool,
    indent: Option<usize>,
    level: usize,
    close: &[u8],
) -> io::Result<()> {
    if let (false, Some(width)) = (empty, indent) {
        write_newline(w, width * level)?;
    }
    w.write_all(close)
}

fn write_newline<W: Write>(w: &mut W, spaces: usize) -> io::Result<()> {
    w.write_all(b"\n")?;
    for _ in 0..spaces {
        w.write_all(b" ")?;
    }
    Ok(())
}

fn write_number<W: Write>(w: &mut W, n: f64) -> io::Result<()> {
    if !n.is_finite() {
        w.write_all(b"null")
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        write_integer(w, n as i64)
    } else {
        // Rust's Display for f64 is the shortest round-trippable form.
        write!(w, "{n}")
    }
}

/// Decimal digits of `n` from a stack buffer: |n| < 2^53 needs at most
/// 16 digits plus a sign.
fn write_integer<W: Write>(w: &mut W, n: i64) -> io::Result<()> {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        start -= 1;
        buf[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        start -= 1;
        buf[start] = b'-';
    }
    w.write_all(&buf[start..])
}

/// Per byte: 0 when it is written as is, otherwise the character after
/// the backslash of its escape (`u` for `\u00XX`). Only ASCII bytes are
/// escaped, so the runs between escapes are whole UTF-8 sequences.
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

fn write_string<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    w.write_all(b"\"")?;
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = ESCAPE[usize::from(b)];
        if escape == 0 {
            continue;
        }
        w.write_all(&bytes[run..i])?;
        run = i + 1;
        if escape == b'u' {
            let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]);
            w.write_all(&[b'\\', b'u', b'0', b'0', hi, lo])?;
        } else {
            w.write_all(&[b'\\', escape])?;
        }
    }
    w.write_all(&bytes[run..])?;
    w.write_all(b"\"")
}

// ---- parser -------------------------------------------------------------

/// A cursor over the bytes of a `&str`. `pos` only ever stops on ASCII
/// tokens or just past them, so it is always a `char` boundary of
/// `text`.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn end_of_input() -> Error {
    Error("unexpected end of input".into())
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// One whole JSON text: a value with optional surrounding whitespace.
    /// With `spans`, a top-level object records its members' ranges.
    fn parse_document(&mut self, spans: Option<&mut Vec<Range<usize>>>) -> Result<Value, Error> {
        let value = self.parse_value_spanned(spans)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error(format!("trailing input at offset {}", self.pos)));
        }
        Ok(value)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, Error> {
        let b = self.peek().ok_or_else(end_of_input)?;
        self.pos += 1;
        Ok(b)
    }

    /// The character starting at byte `at`, for error messages.
    fn char_at(&self, at: usize) -> char {
        self.text
            .get(at..)
            .and_then(|rest| rest.chars().next())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), Error> {
        match self.peek() {
            Some(b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(Error(format!(
                "expected `{}` at offset {}, found `{}`",
                want as char,
                self.pos,
                self.char_at(self.pos)
            ))),
            None => Err(end_of_input()),
        }
    }

    fn eat_lit(&mut self, lit: &[u8]) -> Result<(), Error> {
        lit.iter().try_for_each(|&b| self.expect(b))
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.parse_value_spanned(None)
    }

    fn parse_value_spanned(
        &mut self,
        spans: Option<&mut Vec<Range<usize>>>,
    ) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.eat_lit(b"null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_lit(b"true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_lit(b"false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == RECURSION_LIMIT {
                    return Err(Error(format!(
                        "recursion limit exceeded: nesting deeper than {RECURSION_LIMIT} \
                         levels at offset {}",
                        self.pos
                    )));
                }
                self.pos += 1;
                self.depth += 1;
                let v = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object(spans)
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(Error(format!(
                "unexpected character `{}` at offset {}",
                self.char_at(self.pos),
                self.pos
            ))),
            None => Err(end_of_input()),
        }
    }

    /// The `,` or closing bracket after an array item or object member.
    /// Returns whether the container goes on.
    fn item_end(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        let at = self.pos;
        match self.bump()? {
            b',' => Ok(true),
            b if b == close => Ok(false),
            _ => Err(Error(format!(
                "expected `,` or `{}` at offset {at}, found `{}`",
                close as char,
                self.char_at(at)
            ))),
        }
    }

    /// The rest of an array whose `[` was consumed.
    fn parse_array(&mut self) -> Result<Value, Error> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            if !self.item_end(b']')? {
                return Ok(Value::Arr(items));
            }
        }
    }

    /// The rest of an object whose `{` was consumed; with `spans`, the
    /// byte range of each member's value is pushed in member order.
    fn parse_object(&mut self, mut spans: Option<&mut Vec<Range<usize>>>) -> Result<Value, Error> {
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let start = self.pos;
            let value = self.parse_value()?;
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(start..self.pos);
            }
            entries.push((key, value));
            if !self.item_end(b'}')? {
                return Ok(Value::Obj(entries));
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let run = self.pos;
            let Some(len) = self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(end_of_input());
            };
            // The run starts after an ASCII `"` or escape and ends before
            // an ASCII delimiter, so both ends are `char` boundaries.
            s.push_str(&self.text[run..run + len]);
            self.pos = run + len + 1;
            if self.bytes[run + len] == b'"' {
                return Ok(s);
            }
            s.push(self.parse_escape()?);
        }
    }

    /// The character an escape stands for; its `\` was consumed.
    fn parse_escape(&mut self) -> Result<char, Error> {
        let at = self.pos;
        Ok(match self.bump()? {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.parse_hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A surrogate pair: the low half must follow.
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let lo = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(Error(format!(
                            "invalid low surrogate \\u{lo:04x} after \\u{hi:04x} at offset {at}"
                        )));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code)
                    .ok_or_else(|| Error(format!("invalid \\u escape {code:#x} at offset {at}")))?
            }
            _ => {
                return Err(Error(format!(
                    "invalid escape `\\{}` at offset {at}",
                    self.char_at(at)
                )))
            }
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let at = self.pos;
            let digit = char::from(self.bump()?).to_digit(16).ok_or_else(|| {
                Error(format!(
                    "invalid hex digit `{}` at offset {at}",
                    self.char_at(at)
                ))
            })?;
            v = v * 16 + digit;
        }
        Ok(v)
    }

    /// A number, scanned as `-? digits (. digits)? ([eE] [+-]? digits)?`
    /// and converted by `f64::from_str` — except plain integers of up to
    /// 15 digits, which convert exactly without it.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        self.skip_digits();
        let int_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            self.skip_digits();
        }
        if int_end == self.pos && (1..=15).contains(&(int_end - digits)) {
            let n = self.bytes[digits..int_end]
                .iter()
                .fold(0u64, |n, &b| n * 10 + u64::from(b - b'0')) as f64;
            return Ok(Value::Num(if digits > start { -n } else { n }));
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error(format!("invalid number `{text}` at offset {start}")))
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
        let s = "a \"quote\"\nnew\tline \\ done \u{1}\u{7f} é😀".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(
            json,
            "\"a \\\"quote\\\"\\nnew\\tline \\\\ done \\u0001\u{7f} é😀\""
        );
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_escapes_parse() {
        let back: String = from_str(r#""é😀""#).unwrap();
        assert_eq!(back, "é😀");
        let back: String = from_str(r#""\u00e9\ud83d\ude00\/\b\f""#).unwrap();
        assert_eq!(back, "é😀/\u{8}\u{c}");
    }

    #[test]
    fn a_high_surrogate_needs_a_low_one() {
        for bad in [
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d""#,
            r#""\ude00""#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integers_and_floats_write_like_display() {
        let nums = [
            0.0,
            -0.0,
            7.0,
            -42.0,
            9_007_199_254_740_991.0,
            1e300,
            0.1,
            -2.5e-8,
        ];
        let json = to_string(&nums.to_vec()).unwrap();
        assert_eq!(
            json,
            format!("[0,0,7,-42,9007199254740991,{},0.1,-0.000000025]", 1e300)
        );
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn to_writer_appends() {
        let mut buf = b"x=".to_vec();
        to_writer(&mut buf, &Value::Arr(vec![Value::Bool(true), Value::Null])).unwrap();
        assert_eq!(buf, b"x=[true,null]");
    }

    #[test]
    fn pretty_printing_indents() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("k".to_string(), vec![1u32]);
        m.insert("e".to_string(), vec![]);
        let pretty = to_string_pretty(&m).unwrap();
        assert_eq!(pretty, "{\n  \"e\": [],\n  \"k\": [\n    1\n  ]\n}");
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
    fn spans_cover_each_top_level_member_value() {
        let text = "{ \"a\" : [1, {\"x\":2}] ,\"b\":\"é\\\"\",\"c\":{} }";
        let (value, spans) = from_str_with_spans(text).unwrap();
        let Value::Obj(entries) = &value else {
            panic!("not an object")
        };
        assert_eq!(entries.len(), spans.len());
        let slices: Vec<&str> = spans.iter().map(|r| &text[r.clone()]).collect();
        assert_eq!(slices, ["[1, {\"x\":2}]", "\"é\\\"\"", "{}"]);
        for ((_, v), slice) in entries.iter().zip(slices) {
            assert_eq!(&from_str::<Value>(slice).unwrap(), v);
        }
        assert!(from_str_with_spans("[1]").unwrap().1.is_empty());
    }

    #[test]
    fn error_offsets_count_bytes() {
        let err = from_str::<Value>("[\"é😀\",x]").unwrap_err();
        assert!(err.to_string().contains("`x` at offset 10"), "{err}");
        let err = from_str::<Value>("\"é\" 1").unwrap_err();
        assert!(
            err.to_string().contains("trailing input at offset 5"),
            "{err}"
        );
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
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<Value>("").is_err());
    }
}
