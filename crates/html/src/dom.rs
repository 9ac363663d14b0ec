//! Arena-based DOM tree built from the token stream, borrowing the page.
//!
//! Nodes live in a flat `Vec` and reference each other by [`NodeId`], a
//! `u32` index: the usual Rust idiom for parent/child/sibling graphs
//! without `Rc` cycles. Each node stores its parent, first-child,
//! last-child and next-sibling links as `u32`s, so appending a child is
//! O(1) and [`Document::children`], [`Document::following_siblings`] and
//! [`Document::text_lines`] walk the links without allocating. Nodes are
//! appended in document order, so a subtree is a contiguous id range:
//! [`Document::descendants`] and [`Document::text_of`] find its end
//! through the links and then scan the range.
//!
//! A [`Document<'a>`] borrows the page it was parsed from: element names,
//! attributes, text and comments are the tokenizer's [`Cow`] slices of
//! the input (see [`crate::tokenizer`] for when one is owned), so the page
//! must outlive its document. The attributes of every element sit in one
//! arena per document, which the tokenizer fills in place; an element
//! keeps the range of its own, the index of its `class` attribute and
//! whether that names a single class, so [`Document::has_class`] neither
//! searches the attribute list nor, for most elements, splits the value.
//!
//! The tree-construction pass applies the implicit-close rules that matter
//! for manual pages: `<p>`, `<li>`, `<tr>`, `<td>`, … close their open
//! predecessor, void elements (`<br>`, `<img>`, …) never take children,
//! and stray end tags are ignored. Each element's name is resolved to a
//! `Tag` once, so these rules and the block rendering of
//! [`Document::text_lines`] test a bit of a set instead of comparing
//! names.

use crate::budget::{BudgetExhausted, BudgetResource, IngestBudget};
use crate::text::{CollapsedText, Gap};
use crate::tokenizer::{Attrs, MarkupDefect, MarkupDefectKind, Token, Tokenizer};
use std::borrow::Cow;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// The link value meaning "no such node".
const NONE: u32 = u32::MAX;

/// The longest page a document addresses. Every node and every
/// attribute costs at least one input byte, so within this length the
/// `u32` ids never reach [`NONE`].
const MAX_PAGE_BYTES: usize = u32::MAX as usize - 1;

/// An element node: tag name plus the location of its attributes in the
/// document's arena (read them with [`Document::attrs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element<'a> {
    /// Lower-cased tag name.
    pub name: Cow<'a, str>,
    tag: Tag,
    /// The element's attributes are `attrs[first_attr..end_attr]` of its
    /// document.
    first_attr: u32,
    end_attr: u32,
    /// Index of the first `class` attribute in that arena, or [`NONE`].
    class: u32,
    /// The class attribute names exactly one class: it is non-empty and
    /// has no whitespace, so its value is the whole class list.
    one_class: bool,
}

/// Payload of a DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// Synthetic root that parents all top-level nodes.
    Root,
    Element(Element<'a>),
    Text(Cow<'a, str>),
    Comment(&'a str),
}

/// A node in the arena: payload plus tree links (`u32::MAX` where
/// absent).
#[derive(Debug, Clone)]
pub struct Node<'a> {
    pub kind: NodeKind<'a>,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
}

impl<'a> Node<'a> {
    /// The element payload, if this node is an element.
    pub fn as_element(&self) -> Option<&Element<'a>> {
        match &self.kind {
            NodeKind::Element(e) => Some(e),
            _ => None,
        }
    }
}

/// `Some(id)` unless `link` is [`NONE`].
fn link(link: u32) -> Option<NodeId> {
    (link != NONE).then_some(NodeId(link))
}

/// The tags the tree builder and the block renderer have rules for. An
/// element's name is resolved once, when it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Other,
    P,
    Li,
    Dt,
    Dd,
    Tr,
    Td,
    Th,
    Option,
    Thead,
    Tbody,
    Tfoot,
    Area,
    Base,
    Br,
    Col,
    Embed,
    Hr,
    Img,
    Input,
    Link,
    Meta,
    Param,
    Source,
    Track,
    Wbr,
    Div,
    Pre,
    H1,
    H2,
    H3,
    H4,
    H5,
    Table,
    Ul,
    Ol,
    Section,
}

impl Tag {
    fn of(name: &str) -> Tag {
        match name {
            "p" => Tag::P,
            "li" => Tag::Li,
            "dt" => Tag::Dt,
            "dd" => Tag::Dd,
            "tr" => Tag::Tr,
            "td" => Tag::Td,
            "th" => Tag::Th,
            "option" => Tag::Option,
            "thead" => Tag::Thead,
            "tbody" => Tag::Tbody,
            "tfoot" => Tag::Tfoot,
            "area" => Tag::Area,
            "base" => Tag::Base,
            "br" => Tag::Br,
            "col" => Tag::Col,
            "embed" => Tag::Embed,
            "hr" => Tag::Hr,
            "img" => Tag::Img,
            "input" => Tag::Input,
            "link" => Tag::Link,
            "meta" => Tag::Meta,
            "param" => Tag::Param,
            "source" => Tag::Source,
            "track" => Tag::Track,
            "wbr" => Tag::Wbr,
            "div" => Tag::Div,
            "pre" => Tag::Pre,
            "h1" => Tag::H1,
            "h2" => Tag::H2,
            "h3" => Tag::H3,
            "h4" => Tag::H4,
            "h5" => Tag::H5,
            "table" => Tag::Table,
            "ul" => Tag::Ul,
            "ol" => Tag::Ol,
            "section" => Tag::Section,
            _ => Tag::Other,
        }
    }

    const fn bit(self) -> u64 {
        1 << self as u32
    }

    fn is_in(self, set: u64) -> bool {
        set & self.bit() != 0
    }

    /// The open tags a start tag of this kind implicitly closes (HTML's
    /// "a new <p> ends the previous <p>" family of rules).
    fn closes(self) -> u64 {
        const CELLS: u64 = Tag::Td.bit() | Tag::Th.bit();
        const ROWS: u64 = Tag::Tr.bit() | CELLS;
        match self {
            Tag::P | Tag::Li | Tag::Option => self.bit(),
            Tag::Dt | Tag::Dd => Tag::Dt.bit() | Tag::Dd.bit(),
            Tag::Tr => ROWS,
            Tag::Td | Tag::Th => CELLS,
            Tag::Thead | Tag::Tbody | Tag::Tfoot => {
                Tag::Thead.bit() | Tag::Tbody.bit() | Tag::Tfoot.bit() | ROWS
            }
            _ => 0,
        }
    }
}

/// Tags that never have children.
const VOID: u64 = Tag::Area.bit()
    | Tag::Base.bit()
    | Tag::Br.bit()
    | Tag::Col.bit()
    | Tag::Embed.bit()
    | Tag::Hr.bit()
    | Tag::Img.bit()
    | Tag::Input.bit()
    | Tag::Link.bit()
    | Tag::Meta.bit()
    | Tag::Param.bit()
    | Tag::Source.bit()
    | Tag::Track.bit()
    | Tag::Wbr.bit();

/// Tags that [`Document::text_lines`] renders on lines of their own.
const BLOCK: u64 = Tag::P.bit()
    | Tag::Div.bit()
    | Tag::Li.bit()
    | Tag::Tr.bit()
    | Tag::Br.bit()
    | Tag::Pre.bit()
    | Tag::H1.bit()
    | Tag::H2.bit()
    | Tag::H3.bit()
    | Tag::H4.bit()
    | Tag::H5.bit()
    | Tag::Table.bit()
    | Tag::Ul.bit()
    | Tag::Ol.bit()
    | Tag::Dt.bit()
    | Tag::Dd.bit()
    | Tag::Section.bit();

/// An element on the builder's open-element stack.
struct Open {
    id: u32,
    /// Byte offset of its start tag, for the unclosed-element defect.
    at: usize,
    tag: Tag,
}

/// A parsed HTML document: node arena, attribute arena and the synthetic
/// root, borrowing the page it was parsed from.
#[derive(Debug, Clone)]
pub struct Document<'a> {
    nodes: Vec<Node<'a>>,
    attrs: Attrs<'a>,
}

impl<'a> Document<'a> {
    /// Parse `input` into a DOM. Never fails; malformed markup degrades
    /// locally (see crate docs).
    pub fn parse(input: &'a str) -> Document<'a> {
        Document::parse_with_report(input).0
    }

    /// Parse `input` into a DOM and report every malformation recovered
    /// from, each with the byte offset it was found at. The DOM is the
    /// same one [`Document::parse`] builds — recovery behaviour is
    /// unchanged, only recorded.
    pub fn parse_with_report(input: &'a str) -> (Document<'a>, Vec<MarkupDefect>) {
        // Unbounded ceilings make exhaustion unreachable below the
        // arena's page-size limit; the fallback arm keeps this seam
        // infallible for callers.
        Document::parse_budgeted(input, &IngestBudget::unbounded())
            .unwrap_or_else(|_| (Document::with_capacity(0, 0), Vec::new()))
    }

    /// A document holding only the synthetic root, with room for the
    /// nodes and attributes of a page of `page_len` bytes. Manual pages
    /// run about 16 bytes per node and several times that per attribute;
    /// the node reservation never exceeds the `max_nodes` the page may
    /// build, so an untrusted page cannot reserve more than its budget.
    fn with_capacity(page_len: usize, max_nodes: usize) -> Document<'a> {
        let cap = max_nodes.saturating_add(1);
        let mut nodes = Vec::with_capacity((page_len / 12 + 1).min(cap));
        nodes.push(Node {
            kind: NodeKind::Root,
            parent: NONE,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
        });
        Document {
            nodes,
            attrs: Vec::with_capacity((page_len / 32).min(cap)),
        }
    }

    /// Parse `input` under per-page resource ceilings.
    ///
    /// Exceeding the byte, token or node ceiling aborts with a typed
    /// [`BudgetExhausted`] — nothing hangs, nothing overflows, and the
    /// caller decides what to do with the page (the parser framework
    /// quarantines it). Nesting past `budget.max_depth` *degrades*
    /// instead: the builder stops descending, deeper elements become
    /// siblings, and one [`MarkupDefectKind::NestingTooDeep`] defect is
    /// recorded, so depth bombs cannot grow the open-element stack —
    /// or, later, recurse a consumer off the real stack. No budget
    /// admits a page of 4 GiB or more, which `u32` ids cannot address.
    pub fn parse_budgeted(
        input: &'a str,
        budget: &IngestBudget,
    ) -> Result<(Document<'a>, Vec<MarkupDefect>), BudgetExhausted> {
        let budget = IngestBudget {
            max_bytes: budget.max_bytes.min(MAX_PAGE_BYTES),
            ..*budget
        };
        budget.check(BudgetResource::Bytes, input.len())?;
        let mut doc = Document::with_capacity(input.len(), budget.max_nodes);
        // Each open element remembers the offset its start tag began at,
        // so EOF-unclosed elements can be reported with a span. The root
        // is never popped and never matches a tag rule.
        let mut stack = vec![Open {
            id: 0,
            at: 0,
            tag: Tag::Other,
        }];
        let mut depth_defect_recorded = false;
        let mut tokens_consumed: usize = 0;

        let mut tokens = Tokenizer::new(input);
        loop {
            let at = tokens.pos();
            // A start tag's attributes go straight into the arena.
            let first_attr = doc.attrs.len();
            let Some(token) = tokens.next_into(&mut doc.attrs) else {
                break;
            };
            tokens_consumed += 1;
            budget.check(BudgetResource::Tokens, tokens_consumed)?;
            budget.check(BudgetResource::Nodes, doc.nodes.len())?;
            match token {
                Token::StartTag {
                    name, self_closing, ..
                } => {
                    let tag = Tag::of(&name);
                    // Apply implicit-close rules against the innermost
                    // matching open element.
                    let closes = tag.closes();
                    if closes != 0 {
                        if let Some(pos) = stack.iter().rposition(|open| open.tag.is_in(closes)) {
                            stack.truncate(pos.max(1));
                        }
                    }
                    // The stack holds the root plus one entry per open
                    // element, so its length is the would-be depth.
                    let too_deep = stack.len() > budget.max_depth;
                    if too_deep && !depth_defect_recorded {
                        depth_defect_recorded = true;
                        tokens.record_defect(
                            MarkupDefectKind::NestingTooDeep {
                                name: name.to_string(),
                                depth: stack.len(),
                            },
                            at,
                        );
                    }
                    let opens = !too_deep && !self_closing && !tag.is_in(VOID);
                    let element = doc.element_at(name, tag, first_attr);
                    let id = doc.push(NodeKind::Element(element), top(&stack));
                    if opens {
                        stack.push(Open { id, at, tag });
                    }
                }
                Token::EndTag { name } => {
                    // Pop to the matching open tag; flag stray end tags.
                    let tag = Tag::of(&name);
                    let matches = |open: &Open| {
                        open.tag == tag
                            && (tag != Tag::Other
                                || doc.element(NodeId(open.id)).is_some_and(|e| e.name == name))
                    };
                    match stack.iter().rposition(matches) {
                        Some(pos) => stack.truncate(pos.max(1)),
                        None => tokens.record_defect(
                            MarkupDefectKind::StrayEndTag {
                                name: name.into_owned(),
                            },
                            at,
                        ),
                    }
                }
                Token::Text(text) => {
                    if !text.is_empty() {
                        doc.push(NodeKind::Text(text), top(&stack));
                    }
                }
                Token::Comment(body) => {
                    doc.push(NodeKind::Comment(body), top(&stack));
                }
                Token::Doctype(_) => {}
            }
        }
        // Elements still open at EOF were closed implicitly.
        for open in stack.iter().skip(1) {
            if let Some(e) = doc.element(NodeId(open.id)) {
                tokens.record_defect(
                    MarkupDefectKind::UnclosedElement {
                        name: e.name.to_string(),
                    },
                    open.at,
                );
            }
        }
        let mut defects = tokens.take_defects();
        defects.sort_by_key(|d| d.offset);
        Ok((doc, defects))
    }

    /// An element named `name` whose attributes are the arena's entries
    /// from `first_attr` on (the ones its start tag just added).
    fn element_at(&self, name: Cow<'a, str>, tag: Tag, first_attr: usize) -> Element<'a> {
        let class = self.attrs[first_attr..]
            .iter()
            .position(|(k, _)| k == "class")
            .map(|i| first_attr + i);
        let one_class = class.is_some_and(|i| {
            let value = self.attrs[i].1.as_bytes();
            !value.is_empty() && !value.iter().any(u8::is_ascii_whitespace)
        });
        Element {
            name,
            tag,
            first_attr: first_attr as u32,
            end_attr: self.attrs.len() as u32,
            class: class.map_or(NONE, |i| i as u32),
            one_class,
        }
    }

    /// Append a node as the last child of `parent`.
    fn push(&mut self, kind: NodeKind<'a>, parent: u32) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            kind,
            parent,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
        });
        let parent = &mut self.nodes[parent as usize];
        match std::mem::replace(&mut parent.last_child, id) {
            NONE => parent.first_child = id,
            prev => self.nodes[prev as usize].next_sibling = id,
        }
        id
    }

    /// The synthetic root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrow a node by id.
    pub fn node(&self, id: NodeId) -> &Node<'a> {
        &self.nodes[id.0 as usize]
    }

    /// The element payload of `id`, if it is an element.
    pub fn element(&self, id: NodeId) -> Option<&Element<'a>> {
        self.node(id).as_element()
    }

    /// The tag rules that apply to `id` (`Other` for non-elements).
    fn tag(&self, id: NodeId) -> Tag {
        self.element(id).map_or(Tag::Other, |e| e.tag)
    }

    /// Attributes of element `id` in document order (names lower-cased,
    /// values decoded); empty for other nodes.
    pub fn attrs(&self, id: NodeId) -> &[(Cow<'a, str>, Cow<'a, str>)] {
        match self.element(id) {
            Some(e) => &self.attrs[e.first_attr as usize..e.end_attr as usize],
            None => &[],
        }
    }

    /// Value of attribute `name` of element `id`, if present.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attrs(id)
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_ref())
    }

    /// The `class` attribute of element `id` split on whitespace.
    pub fn classes(&self, id: NodeId) -> std::str::SplitAsciiWhitespace<'_> {
        self.class_attr(id).split_ascii_whitespace()
    }

    /// True if `id` is an element whose class list contains `class`.
    /// Most elements carry a single class, which is one comparison.
    pub fn has_class(&self, id: NodeId, class: &str) -> bool {
        match self.element(id) {
            Some(e) if e.one_class => self.attrs[e.class as usize].1 == class,
            Some(_) => self.classes(id).any(|c| c == class),
            None => false,
        }
    }

    /// The value of `id`'s `class` attribute ("" when it has none).
    fn class_attr(&self, id: NodeId) -> &str {
        match self.element(id) {
            Some(e) if e.class != NONE => &self.attrs[e.class as usize].1,
            _ => "",
        }
    }

    /// Number of nodes in the arena (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document contains only the synthetic root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Children of `id`, in document order.
    pub fn children(&self, id: NodeId) -> Siblings<'_> {
        Siblings {
            doc: self.shorten(),
            next: self.node(id).first_child,
        }
    }

    /// Parent of `id` (None only for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.node(id).parent)
    }

    /// All descendants of `id` in document (pre-)order, excluding `id`.
    pub fn descendants(&self, id: NodeId) -> Descendants {
        Descendants {
            ids: id.0 + 1..self.subtree_end(id),
        }
    }

    /// One past the last id in `id`'s subtree.
    ///
    /// The builder appends nodes in document order, and a node takes
    /// children only while it is open, so every subtree is a contiguous
    /// run of ids that ends where the next node outside it begins: the
    /// next sibling of `id` or of its nearest ancestor that has one.
    fn subtree_end(&self, id: NodeId) -> u32 {
        let mut cur = self.node(id);
        loop {
            if cur.next_sibling != NONE {
                return cur.next_sibling;
            }
            if cur.parent == NONE {
                return self.nodes.len() as u32;
            }
            cur = &self.nodes[cur.parent as usize];
        }
    }

    /// Ancestors of `id` from parent to root.
    pub fn ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let doc = self.shorten();
        let mut cur = doc.parent(id);
        std::iter::from_fn(move || {
            let next = cur?;
            cur = doc.parent(next);
            Some(next)
        })
    }

    /// Siblings after `id`, in document order.
    pub fn following_siblings(&self, id: NodeId) -> Siblings<'_> {
        Siblings {
            doc: self.shorten(),
            next: self.node(id).next_sibling,
        }
    }

    /// This document with its page borrow shortened to the borrow of the
    /// document itself (documents are covariant in the page), so the
    /// traversal iterators carry one lifetime instead of two.
    pub(crate) fn shorten(&self) -> &Document<'_> {
        self
    }

    /// The text nodes of `id`'s subtree (`id` included), in order.
    fn texts(&self, id: NodeId) -> impl Iterator<Item = &str> {
        self.nodes[id.0 as usize..self.subtree_end(id) as usize]
            .iter()
            .filter_map(|node| match &node.kind {
                NodeKind::Text(t) => Some(t.as_ref()),
                _ => None,
            })
    }

    /// Concatenated text of `id` and its descendants with whitespace runs
    /// collapsed to single spaces and the result trimmed. This matches
    /// what a human reads on the rendered page, which is the contract the
    /// paper's corpus format needs.
    pub fn text_of(&self, id: NodeId) -> String {
        let mut text = CollapsedText::with_capacity(self.text_len(id));
        self.push_text(id, &mut text);
        text.into_string()
    }

    /// Bytes of text in `id`'s subtree before collapsing: room enough
    /// for [`Document::text_of`]`(id)`.
    pub fn text_len(&self, id: NodeId) -> usize {
        self.texts(id).map(str::len).sum()
    }

    /// Append the text of `id`'s subtree to `text`, collapsing its
    /// whitespace with what `text` already holds.
    pub fn push_text(&self, id: NodeId, text: &mut CollapsedText) {
        for t in self.texts(id) {
            text.push(t);
        }
    }

    /// True if [`Document::text_of`]`(id)` equals `expected`, decided
    /// without building the text: the comparison stops at the first
    /// piece that differs.
    pub fn text_eq(&self, id: NodeId, expected: &str) -> bool {
        let mut rest = expected;
        let mut gap = Gap::Glued;
        let same_prefix = self.texts(id).all(|t| {
            gap.feed(t, |piece| match rest.strip_prefix(piece) {
                Some(after) => {
                    rest = after;
                    true
                }
                None => false,
            })
        });
        same_prefix && rest.is_empty()
    }

    /// Like [`Document::text_of`] but preserving line structure: block
    /// elements (`p`, `div`, `li`, `tr`, `br`, …) introduce newlines.
    /// Needed for `Examples` fields where indentation carries hierarchy.
    pub fn text_lines(&self, id: NodeId) -> Vec<String> {
        // Room for the text and a few line breaks.
        let mut raw = String::with_capacity(self.text_len(id) + 8);
        self.collect_text_blocks(id, &mut raw);
        raw.lines()
            .map(str::trim_end)
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// Render `id`'s subtree as text with a newline around every block
    /// element. The walk follows the sibling links with no stack, so
    /// document depth — attacker-controlled, though bounded by the
    /// builder's depth guard — costs no memory here.
    fn collect_text_blocks(&self, id: NodeId, out: &mut String) {
        let is_block = |n: NodeId| self.tag(n).is_in(BLOCK);
        let mut cur = id;
        'enter: loop {
            match &self.node(cur).kind {
                NodeKind::Text(t) => out.push_str(t),
                // A block element starts on a line of its own.
                NodeKind::Element(_)
                    if is_block(cur) && !out.ends_with('\n') && !out.is_empty() =>
                {
                    out.push('\n');
                }
                _ => {}
            }
            if let Some(child) = link(self.node(cur).first_child) {
                cur = child;
                continue;
            }
            // `cur` has no children: close it and every ancestor whose
            // last child it ends, up to the next sibling to enter.
            loop {
                // A block element owes a newline after its subtree.
                if is_block(cur) && !out.ends_with('\n') {
                    out.push('\n');
                }
                if cur == id {
                    return;
                }
                let node = self.node(cur);
                match (link(node.next_sibling), link(node.parent)) {
                    (Some(sibling), _) => {
                        cur = sibling;
                        continue 'enter;
                    }
                    (None, Some(parent)) => cur = parent,
                    (None, None) => return,
                }
            }
        }
    }
}

/// The innermost open element: where the next node goes.
fn top(stack: &[Open]) -> u32 {
    stack.last().map_or(0, |open| open.id)
}

/// A run of siblings in document order, following the next-sibling
/// links (see [`Document::children`], [`Document::following_siblings`]).
#[derive(Debug, Clone)]
pub struct Siblings<'d> {
    doc: &'d Document<'d>,
    next: u32,
}

impl Iterator for Siblings<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let id = link(self.next)?;
        self.next = self.doc.node(id).next_sibling;
        Some(id)
    }
}

/// Depth-first pre-order traversal of a subtree (see
/// [`Document::descendants`]): a subtree is a contiguous id range, so the
/// walk is a counter, and its last node is known without walking.
#[derive(Debug, Clone)]
pub struct Descendants {
    ids: std::ops::Range<u32>,
}

impl Iterator for Descendants {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.ids.next().map(NodeId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl DoubleEndedIterator for Descendants {
    #[inline]
    fn next_back(&mut self) -> Option<NodeId> {
        self.ids.next_back().map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_tree() {
        let doc = Document::parse("<div><p>a</p><p>b</p></div>");
        let div = doc.children(doc.root()).next().unwrap();
        assert_eq!(doc.element(div).unwrap().name, "div");
        let ps: Vec<_> = doc.children(div).collect();
        assert_eq!(ps.len(), 2);
        assert_eq!(doc.text_of(ps[0]), "a");
        assert_eq!(doc.text_of(ps[1]), "b");
    }

    #[test]
    fn paragraph_implicitly_closes() {
        // Missing </p>: second <p> must be a sibling, not a child.
        let doc = Document::parse("<p>a<p>b");
        let kids: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.text_of(kids[1]), "b");
    }

    #[test]
    fn list_items_implicitly_close() {
        let doc = Document::parse("<ul><li>one<li>two<li>three</ul>");
        let ul = doc.children(doc.root()).next().unwrap();
        let lis: Vec<_> = doc
            .children(ul)
            .filter(|&id| doc.element(id).is_some())
            .collect();
        assert_eq!(lis.len(), 3);
    }

    #[test]
    fn table_cells_implicitly_close() {
        let doc = Document::parse("<table><tr><td>a<td>b<tr><td>c</table>");
        let table = doc.children(doc.root()).next().unwrap();
        let trs: Vec<_> = doc
            .descendants(table)
            .filter(|&id| doc.element(id).map(|e| e.name == "tr").unwrap_or(false))
            .collect();
        assert_eq!(trs.len(), 2);
        let tds: Vec<_> = doc
            .descendants(table)
            .filter(|&id| doc.element(id).map(|e| e.name == "td").unwrap_or(false))
            .collect();
        assert_eq!(tds.len(), 3);
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = Document::parse("<br><p>x</p>");
        let kids: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.children(kids[0]).count(), 0);
    }

    #[test]
    fn stray_end_tags_ignored() {
        let doc = Document::parse("</div><p>ok</p></span>");
        let kids: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(doc.text_of(kids[0]), "ok");
    }

    #[test]
    fn unclosed_elements_closed_at_eof() {
        let doc = Document::parse("<div><span>x");
        let div = doc.children(doc.root()).next().unwrap();
        let span = doc.children(div).next().unwrap();
        assert_eq!(doc.text_of(span), "x");
    }

    #[test]
    fn text_of_normalizes_whitespace() {
        let doc = Document::parse("<p>  peer \n <b> &lt;ip&gt; </b>  group </p>");
        let p = doc.children(doc.root()).next().unwrap();
        assert_eq!(doc.text_of(p), "peer <ip> group");
    }

    #[test]
    fn text_lines_respects_blocks() {
        let doc = Document::parse("<div><p> bgp 100</p><p>  peer 10.1.1.1</p></div>");
        let div = doc.children(doc.root()).next().unwrap();
        assert_eq!(doc.text_lines(div), vec![" bgp 100", "  peer 10.1.1.1"]);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let doc = Document::parse("<a><b><c>x</c></b></a>");
        let a = doc.children(doc.root()).next().unwrap();
        let b = doc.children(a).next().unwrap();
        let c = doc.children(b).next().unwrap();
        let chain: Vec<_> = doc.ancestors(c).collect();
        assert_eq!(chain, vec![b, a, doc.root()]);
    }

    #[test]
    fn following_siblings_in_order() {
        let doc = Document::parse("<p>a</p><p>b</p><p>c</p>");
        let kids: Vec<_> = doc.children(doc.root()).collect();
        let sibs: Vec<_> = doc.following_siblings(kids[0]).collect();
        assert_eq!(sibs, vec![kids[1], kids[2]]);
    }

    #[test]
    fn element_class_helpers() {
        let doc = Document::parse(r#"<p class="a  b c">x</p>"#);
        let p = doc.children(doc.root()).next().unwrap();
        assert!(doc.has_class(p, "b"));
        assert!(!doc.has_class(p, "d"));
        assert_eq!(doc.classes(p).count(), 3);
        assert_eq!(doc.attr(p, "class"), Some("a  b c"));
        // Text nodes and the root have no attributes and no classes.
        let text = doc.children(p).next().unwrap();
        assert!(doc.attrs(text).is_empty());
        assert_eq!(doc.classes(doc.root()).count(), 0);
    }

    #[test]
    fn comments_excluded_from_text() {
        let doc = Document::parse("<p>a<!-- hidden -->b</p>");
        let p = doc.children(doc.root()).next().unwrap();
        assert_eq!(doc.text_of(p), "ab");
    }

    #[test]
    fn clean_document_reports_no_defects() {
        let (_, defects) = Document::parse_with_report("<div><p>a</p></div>");
        assert!(defects.is_empty());
    }

    #[test]
    fn stray_and_unclosed_elements_reported_with_offsets() {
        let (doc, defects) = Document::parse_with_report("</div><div><span>x");
        // The DOM itself is what `parse` builds: one div holding a span.
        let div = doc.children(doc.root()).next().unwrap();
        assert_eq!(doc.element(div).unwrap().name, "div");
        assert!(defects.iter().any(|d| matches!(
            &d.kind,
            MarkupDefectKind::StrayEndTag { name } if name == "div"
        ) && d.offset == 0));
        assert!(defects.iter().any(|d| matches!(
            &d.kind,
            MarkupDefectKind::UnclosedElement { name } if name == "span"
        ) && d.offset == 11));
        // Report is sorted by offset.
        let offsets: Vec<usize> = defects.iter().map(|d| d.offset).collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(offsets, sorted);
    }

    #[test]
    fn byte_budget_rejects_oversized_input() {
        let budget = IngestBudget {
            max_bytes: 8,
            ..IngestBudget::default()
        };
        let err =
            Document::parse_budgeted("<p>hello world</p>", &budget).expect_err("over byte cap");
        assert_eq!(err.resource, BudgetResource::Bytes);
        assert_eq!(err.cap, 8);
    }

    #[test]
    fn node_budget_cuts_off_arena_growth() {
        let budget = IngestBudget {
            max_nodes: 4,
            ..IngestBudget::default()
        };
        let err = Document::parse_budgeted("<p>a</p><p>b</p><p>c</p><p>d</p>", &budget)
            .expect_err("over node cap");
        assert_eq!(err.resource, BudgetResource::Nodes);
    }

    #[test]
    fn token_budget_bounds_construction_steps() {
        let budget = IngestBudget {
            max_tokens: 3,
            ..IngestBudget::default()
        };
        let err =
            Document::parse_budgeted("<p>a</p><p>b</p>", &budget).expect_err("over token cap");
        assert_eq!(err.resource, BudgetResource::Tokens);
    }

    #[test]
    fn within_budget_matches_unbudgeted_parse() {
        let input = "<div><p>a</p><p>b</p></div>";
        let (budgeted, defects) =
            Document::parse_budgeted(input, &IngestBudget::default()).expect("in budget");
        assert!(defects.is_empty());
        let plain = Document::parse(input);
        assert_eq!(budgeted.len(), plain.len());
        let b_root: Vec<_> = budgeted.children(budgeted.root()).collect();
        assert_eq!(budgeted.text_of(b_root[0]), "ab");
    }

    #[test]
    fn deep_nesting_flattens_past_depth_guard() {
        let depth = 40;
        let mut input = String::new();
        for _ in 0..depth {
            input.push_str("<div>");
        }
        input.push_str("leaf");
        let budget = IngestBudget {
            max_depth: 5,
            ..IngestBudget::default()
        };
        let (doc, defects) = Document::parse_budgeted(&input, &budget).expect("degrades");
        // Every element made it into the arena (root + divs + text)...
        assert_eq!(doc.len(), 1 + depth + 1);
        // ...but no chain is deeper than the guard allows.
        let max_chain = (0..doc.len())
            .map(|i| doc.ancestors(NodeId(i as u32)).count())
            .max()
            .unwrap();
        assert!(max_chain <= 5 + 1, "chain of {max_chain} ancestors");
        assert!(defects.iter().any(|d| matches!(
            &d.kind,
            MarkupDefectKind::NestingTooDeep { name, .. } if name == "div"
        )));
        // Exactly one defect for the whole bomb, not one per element.
        let deep = defects
            .iter()
            .filter(|d| matches!(d.kind, MarkupDefectKind::NestingTooDeep { .. }))
            .count();
        assert_eq!(deep, 1);
    }

    #[test]
    fn unbudgeted_parse_survives_nesting_bomb() {
        // Deeper than any real thread stack would tolerate with
        // recursive construction or recursive text collection.
        let depth = 200_000;
        let mut input = String::with_capacity(depth * 5 + 4);
        for _ in 0..depth {
            input.push_str("<i>");
        }
        input.push_str("leaf");
        let (doc, defects) = Document::parse_with_report(&input);
        assert_eq!(doc.len(), 1 + depth + 1);
        assert!(defects
            .iter()
            .any(|d| matches!(d.kind, MarkupDefectKind::NestingTooDeep { .. })));
        // Text collection over the flattened tree must not recurse
        // off the stack either.
        let text = doc.text_of(doc.root());
        assert_eq!(text, "leaf");
        let lines = doc.text_lines(doc.root());
        assert_eq!(lines, vec!["leaf"]);
    }
}
