//! # nassim-html
//!
//! A small, dependency-free HTML parsing substrate for the NAssim parser
//! framework (the role BeautifulSoup plays in the paper's Python prototype).
//!
//! Vendor manuals are semi-structured HTML where the interesting signal is
//! carried by *CSS class names* (see Table 1 of the paper). This crate
//! therefore implements exactly what manual parsing needs, robustly:
//!
//! * a forgiving [`tokenizer`] that never fails on malformed input,
//! * a [`dom`] tree built with implicit-close rules for the tags that
//!   appear in real manuals (`<p>`, `<li>`, `<td>`, …),
//! * [`select`]ors by tag name, class and attribute, with traversal
//!   helpers (descendants, following siblings, ancestors),
//! * whitespace-normalising text extraction ([`Document::text_of`],
//!   [`Document::text_eq`], [`CollapsedText`]).
//!
//! Like the parsers in production HTML engines, parsing here is *total*:
//! any byte sequence produces a tree, and anomalies degrade locally rather
//! than aborting the document. Manuals are exactly the kind of input where
//! strictness would be a bug — they are hand-written over years and full of
//! inconsistencies (§2.2 of the paper).
//!
//! Parsing borrows the page. [`Tokenizer`] yields [`Token<'a>`]s that are
//! slices of the input, and a [`Document<'a>`] keeps them as its element
//! names, attributes and text, so the page must outlive its document.
//! A string is owned only where the parsed value differs from the source
//! bytes: a name that ASCII case folding changes (`<DIV>`), or text or an
//! attribute value in which a character reference decodes (`&lt;`). On
//! manual pages that is a small minority of tokens. Nodes link to their
//! parent, first and last child and next sibling, so every traversal
//! walks links or an id range and none allocates, and the attributes of
//! all elements share one arena per document.
//!
//! Totality is bounded, though: [`Document::parse_budgeted`] enforces an
//! [`IngestBudget`] of per-page byte/token/node ceilings (returning a typed
//! [`BudgetExhausted`] when crawled input is pathological rather than merely
//! messy), and even the infallible entry points flatten nesting past a fixed
//! depth guard so adversarial pages cannot overflow the stack.
//!
//! ```
//! use nassim_html::Document;
//!
//! let doc = Document::parse(r#"<div class="sectiontitle">Format</div>
//!                              <p class="cmd">peer &lt;ipv4-address&gt;</p>"#);
//! let cmd = doc.select_class("cmd").next().unwrap();
//! assert_eq!(doc.text_of(cmd), "peer <ipv4-address>");
//! ```

pub mod budget;
pub mod dom;
pub mod entities;
pub mod select;
pub mod text;
pub mod tokenizer;

pub use budget::{BudgetExhausted, BudgetResource, IngestBudget};
pub use dom::{Document, Element, Node, NodeId};
pub use select::Selector;
pub use text::CollapsedText;
pub use tokenizer::{MarkupDefect, MarkupDefectKind, Token, Tokenizer};
