//! HTML character-reference (entity) decoding.
//!
//! Manuals use a small set of named entities heavily — `&lt;`/`&gt;` wrap
//! placeholder parameters in CLI templates, so correct decoding is on the
//! critical path of parsing fidelity. Numeric references (`&#64;`,
//! `&#x40;`) are decoded in full; the named set covers every entity we have
//! observed in vendor manuals plus the HTML4 core.

use std::borrow::Cow;

/// Named entities recognised by [`decode`]. Kept sorted for readability;
/// lookup is linear, which is fine for the handful of entries.
const NAMED: &[(&str, char)] = &[
    ("amp", '&'),
    ("apos", '\''),
    ("copy", '\u{a9}'),
    ("dash", '\u{2013}'),
    ("gt", '>'),
    ("hellip", '\u{2026}'),
    ("ldquo", '\u{201c}'),
    ("lsquo", '\u{2018}'),
    ("lt", '<'),
    ("mdash", '\u{2014}'),
    ("middot", '\u{b7}'),
    ("nbsp", '\u{a0}'),
    ("ndash", '\u{2013}'),
    ("quot", '"'),
    ("rdquo", '\u{201d}'),
    ("reg", '\u{ae}'),
    ("rsquo", '\u{2019}'),
    ("sect", '\u{a7}'),
    ("times", '\u{d7}'),
    ("trade", '\u{2122}'),
];

/// Decode all character references in `input`.
///
/// Unknown or malformed references are passed through verbatim, matching
/// browser behaviour: `&unknown;` stays `&unknown;`, a bare `&` stays `&`.
///
/// ```
/// assert_eq!(nassim_html::entities::decode("a &lt;b&gt; &#x26; c"), "a <b> & c");
/// assert_eq!(nassim_html::entities::decode("AT&T"), "AT&T");
/// ```
pub fn decode(input: &str) -> String {
    decode_cow(input).into_owned()
}

/// [`decode`] without the copy: the result borrows `input` unless a
/// reference actually decodes, which is the common case for manual text
/// and attribute values.
///
/// ```
/// use std::borrow::Cow;
/// use nassim_html::entities::decode_cow;
/// assert!(matches!(decode_cow("AT&T"), Cow::Borrowed("AT&T")));
/// assert_eq!(decode_cow("&lt;ip&gt;"), "<ip>");
/// ```
pub fn decode_cow(input: &str) -> Cow<'_, str> {
    let mut out = String::new();
    // `input[copied..]` is what has not been written to `out` yet.
    let mut copied = 0;
    let mut from = 0;
    while let Some(off) = input[from..].find('&') {
        let at = from + off;
        match decode_one(&input[at..]) {
            Some((ch, consumed)) => {
                if out.is_empty() {
                    out.reserve(input.len());
                }
                out.push_str(&input[copied..at]);
                out.push(ch);
                copied = at + consumed;
                from = copied;
            }
            None => from = at + 1,
        }
    }
    if out.is_empty() {
        return Cow::Borrowed(input);
    }
    out.push_str(&input[copied..]);
    Cow::Owned(out)
}

/// Try to decode a single reference at the start of `s` (which begins with
/// `&`). Returns the decoded char and the number of bytes consumed.
fn decode_one(s: &str) -> Option<(char, usize)> {
    debug_assert!(s.starts_with('&'));
    let body = &s[1..];
    let end = body.find(';')?;
    // References longer than this are not real entities; bail early so a
    // stray '&' followed by a distant ';' is not swallowed.
    if end == 0 || end > 10 {
        return None;
    }
    let name = &body[..end];
    let consumed = end + 2; // '&' + name + ';'
    if let Some(num) = name.strip_prefix('#') {
        let code = if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X')) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            num.parse::<u32>().ok()?
        };
        return char::from_u32(code).map(|c| (c, consumed));
    }
    NAMED
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, c)| (c, consumed))
}

/// Encode the minimal set of characters that must be escaped when emitting
/// text content into HTML. Used by the synthetic-manual generator.
///
/// ```
/// assert_eq!(nassim_html::entities::encode_text("a <b> & c"), "a &lt;b&gt; &amp; c");
/// ```
pub fn encode_text(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for ch in input.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(ch),
        }
    }
    out
}

/// Encode a string for use inside a double-quoted attribute value.
pub fn encode_attr(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for ch in input.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '<' => out.push_str("&lt;"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entities_decode() {
        assert_eq!(decode("&lt;ip&gt;"), "<ip>");
        assert_eq!(decode("&amp;&quot;&apos;"), "&\"'");
        assert_eq!(decode("&nbsp;"), "\u{a0}");
    }

    #[test]
    fn numeric_entities_decode() {
        assert_eq!(decode("&#65;&#x42;&#X43;"), "ABC");
        assert_eq!(decode("&#x1F600;"), "\u{1F600}");
    }

    #[test]
    fn malformed_references_pass_through() {
        assert_eq!(decode("AT&T"), "AT&T");
        assert_eq!(decode("&notareal;"), "&notareal;");
        assert_eq!(decode("&;"), "&;");
        assert_eq!(decode("fish & chips; daily"), "fish & chips; daily");
        assert_eq!(decode("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode("&#1114112;"), "&#1114112;"); // beyond char::MAX
        assert_eq!(decode("trailing &"), "trailing &");
    }

    #[test]
    fn no_ampersand_fast_path() {
        assert_eq!(decode("plain text"), "plain text");
    }

    #[test]
    fn decode_cow_owns_only_when_a_reference_decodes() {
        for borrowed in ["plain", "AT&T", "&notareal; &;", "trailing &", ""] {
            assert!(matches!(decode_cow(borrowed), Cow::Borrowed(s) if s == borrowed));
        }
        for (owned, want) in [
            ("&amp;", "&"),
            ("a &lt;b&gt; AT&T", "a <b> AT&T"),
            ("&#65;x", "Ax"),
        ] {
            assert!(matches!(decode_cow(owned), Cow::Owned(ref s) if s == want));
        }
    }

    #[test]
    fn encode_round_trips_through_decode() {
        let original = "filter-policy { <acl> | ip-prefix <name> } & more";
        assert_eq!(decode(&encode_text(original)), original);
    }

    #[test]
    fn attr_encoding_escapes_quotes() {
        assert_eq!(encode_attr(r#"a "b" <c>"#), "a &quot;b&quot; &lt;c>");
    }
}
