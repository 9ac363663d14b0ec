//! Whitespace-collapsed text: what a reader sees on the rendered page.
//!
//! [`CollapsedText`] builds a string in which every whitespace run is one
//! space and neither end has any, which is the contract of
//! [`Document::text_of`](crate::Document::text_of) and of the corpus
//! format's text fields. Whitespace is [`char::is_whitespace`]: ASCII
//! bytes are classified by a byte test and whole words are copied at
//! once, and only a byte ≥ 0x80 decodes a `char`, so U+00A0 (`&nbsp;`)
//! and U+3000 still collapse.

/// What the text ends in, which decides what the next whitespace does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Gap {
    /// Nothing to separate from: whitespace is dropped (the start, or
    /// just after [`CollapsedText::separate`]).
    #[default]
    Glued,
    /// A word: whitespace after it owes one space.
    Word,
    /// One space is owed before the next word; it is never written at
    /// the end, which is what trims the text.
    Owed,
}

impl Gap {
    /// Collapse `text` from this state, handing each output piece (a
    /// word, or the single space before one) to `emit`. Stops early,
    /// returning false, as soon as `emit` does.
    pub(crate) fn feed(&mut self, text: &str, mut emit: impl FnMut(&str) -> bool) -> bool {
        let mut rest = text;
        while !rest.is_empty() {
            let word = run_len(rest, false);
            if word > 0 {
                if *self == Gap::Owed && !emit(" ") {
                    return false;
                }
                if !emit(&rest[..word]) {
                    return false;
                }
                *self = Gap::Word;
                rest = &rest[word..];
            }
            let space = run_len(rest, true);
            if space > 0 && *self == Gap::Word {
                *self = Gap::Owed;
            }
            rest = &rest[space..];
        }
        true
    }
}

/// Byte length of the run at the start of `text` whose characters are
/// all whitespace (`space`) or all not.
fn run_len(text: &str, space: bool) -> usize {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let (len, is_space) = if b < 0x80 {
            (1, matches!(b, b'\t'..=b'\r' | b' '))
        } else {
            match text[i..].chars().next() {
                Some(c) => (c.len_utf8(), c.is_whitespace()),
                None => break,
            }
        };
        if is_space != space {
            break;
        }
        i += len;
    }
    i
}

/// A string under construction with whitespace collapsed (see the
/// module docs).
///
/// ```
/// use nassim_html::CollapsedText;
/// let mut text = CollapsedText::new();
/// text.push("  peer\u{a0}\n ");
/// text.push(" group\u{3000}");
/// assert_eq!(text.as_str(), "peer group");
/// text.separate(" | ");
/// text.push(" next ");
/// assert_eq!(text.into_string(), "peer group | next");
/// ```
#[derive(Debug, Clone, Default)]
pub struct CollapsedText {
    out: String,
    gap: Gap,
}

impl CollapsedText {
    pub fn new() -> CollapsedText {
        CollapsedText::default()
    }

    /// An empty text with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> CollapsedText {
        CollapsedText {
            out: String::with_capacity(capacity),
            gap: Gap::Glued,
        }
    }

    /// Append `text`, collapsing its whitespace with what came before.
    pub fn push(&mut self, text: &str) {
        // Collapsing only shrinks: the pieces of `text` and an owed space
        // never need more room than this.
        self.out
            .reserve(text.len() + usize::from(self.gap == Gap::Owed));
        let out = &mut self.out;
        self.gap.feed(text, |piece| {
            out.push_str(piece);
            true
        });
    }

    /// End the current piece and append `sep` verbatim: whitespace that
    /// ends the piece and whitespace that starts the next are dropped,
    /// as if the collapsed pieces were joined with `sep`.
    pub fn separate(&mut self, sep: &str) {
        self.out.push_str(sep);
        self.gap = Gap::Glued;
    }

    /// Bytes written so far (an owed space is not written yet).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The text so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// The finished text.
    pub fn into_string(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collapse(pieces: &[&str]) -> String {
        let mut text = CollapsedText::new();
        for p in pieces {
            text.push(p);
        }
        text.into_string()
    }

    #[test]
    fn collapses_like_split_whitespace() {
        for input in [
            "",
            "   ",
            "a",
            " a  b\t\nc ",
            "\u{b}x\u{c}y\r",
            "\u{a0}nbsp\u{a0}",
            "ideo\u{3000}graphic",
            "é  ü",
            "\u{85}next\u{2028}line",
        ] {
            let want = input.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(collapse(&[input]), want, "{input:?}");
        }
    }

    #[test]
    fn runs_collapse_across_pushes() {
        assert_eq!(collapse(&["a ", " ", " b", "c", " "]), "a bc");
    }

    #[test]
    fn separate_trims_both_sides() {
        let mut text = CollapsedText::new();
        text.push("a ");
        text.separate("<");
        text.push(" b ");
        text.separate(">");
        text.push(" c");
        assert_eq!(text.into_string(), "a<b>c");
    }

    #[test]
    fn feed_stops_when_emit_declines() {
        let mut gap = Gap::Glued;
        let mut seen = Vec::new();
        let done = gap.feed("a b c", |piece| {
            seen.push(piece.to_string());
            seen.len() < 2
        });
        assert!(!done);
        assert_eq!(seen, ["a", " "]);
    }
}
