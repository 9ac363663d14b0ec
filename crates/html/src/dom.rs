//! Arena-based DOM tree built from the token stream, borrowing the page.
//!
//! Nodes live in a flat `Vec` and reference each other by [`NodeId`], the
//! usual Rust idiom for parent/child/sibling graphs without `Rc` cycles.
//! Each node stores its parent, first-child, last-child and next-sibling
//! links, so appending a child is O(1) and [`Document::children`],
//! [`Document::following_siblings`] and [`Document::text_lines`] walk the
//! links without allocating. Nodes are appended in document order, so a
//! subtree is a contiguous id range: [`Document::descendants`] and
//! [`Document::text_of`] find its end through the links and then scan
//! the range.
//!
//! A [`Document<'a>`] borrows the page it was parsed from: element names,
//! attributes, text and comments are the tokenizer's [`Cow`] slices of
//! the input (see [`crate::tokenizer`] for when one is owned), so the page
//! must outlive its document.
//!
//! The tree-construction pass applies the implicit-close rules that matter
//! for manual pages: `<p>`, `<li>`, `<tr>`, `<td>`, … close their open
//! predecessor, void elements (`<br>`, `<img>`, …) never take children,
//! and stray end tags are ignored.

use crate::budget::{BudgetExhausted, BudgetResource, IngestBudget};
use crate::tokenizer::{MarkupDefect, MarkupDefectKind, Token, Tokenizer};
use std::borrow::Cow;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// An element node: tag name plus attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element<'a> {
    /// Lower-cased tag name.
    pub name: Cow<'a, str>,
    /// Attributes in document order (names lower-cased, values decoded).
    pub attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
}

impl Element<'_> {
    /// Value of attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_ref())
    }

    /// The `class` attribute split on whitespace.
    pub fn classes(&self) -> impl Iterator<Item = &str> {
        self.attr("class").unwrap_or("").split_ascii_whitespace()
    }

    /// True if the element's class list contains `class`.
    pub fn has_class(&self, class: &str) -> bool {
        self.classes().any(|c| c == class)
    }
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

/// A node in the arena: payload plus tree links.
#[derive(Debug, Clone)]
pub struct Node<'a> {
    pub kind: NodeKind<'a>,
    parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    next_sibling: Option<NodeId>,
}

impl<'a> Node<'a> {
    fn new(kind: NodeKind<'a>, parent: Option<NodeId>) -> Node<'a> {
        Node {
            kind,
            parent,
            first_child: None,
            last_child: None,
            next_sibling: None,
        }
    }

    /// The element payload, if this node is an element.
    pub fn as_element(&self) -> Option<&Element<'a>> {
        match &self.kind {
            NodeKind::Element(e) => Some(e),
            _ => None,
        }
    }
}

/// Tags that never have children.
const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta",
    "param", "source", "track", "wbr",
];

/// Returns the set of open tags that a start tag of `name` implicitly
/// closes (HTML's "a new <p> ends the previous <p>" family of rules).
fn implicitly_closes(name: &str) -> &'static [&'static str] {
    match name {
        "p" => &["p"],
        "li" => &["li"],
        "dt" | "dd" => &["dt", "dd"],
        "tr" => &["tr", "td", "th"],
        "td" | "th" => &["td", "th"],
        "option" => &["option"],
        "thead" | "tbody" | "tfoot" => &["thead", "tbody", "tfoot", "tr", "td", "th"],
        _ => &[],
    }
}

/// A parsed HTML document: node arena plus the synthetic root, borrowing
/// the page it was parsed from.
#[derive(Debug, Clone)]
pub struct Document<'a> {
    nodes: Vec<Node<'a>>,
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
        // Unbounded ceilings make exhaustion unreachable; the fallback
        // arm exists only to keep this seam infallible for callers.
        Document::parse_budgeted(input, &IngestBudget::unbounded())
            .unwrap_or_else(|_| (Document::empty(), Vec::new()))
    }

    /// A document holding only the synthetic root.
    fn empty() -> Document<'a> {
        Document {
            nodes: vec![Node::new(NodeKind::Root, None)],
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
    /// or, later, recurse a consumer off the real stack.
    pub fn parse_budgeted(
        input: &'a str,
        budget: &IngestBudget,
    ) -> Result<(Document<'a>, Vec<MarkupDefect>), BudgetExhausted> {
        budget.check(BudgetResource::Bytes, input.len())?;
        let mut doc = Document::empty();
        let root = doc.root();
        // Each open element remembers the offset its start tag began at,
        // so EOF-unclosed elements can be reported with a span.
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        let mut depth_defect_recorded = false;
        let mut tokens_consumed: usize = 0;

        let mut tokens = Tokenizer::new(input);
        loop {
            let at = tokens.pos();
            let Some(token) = tokens.next() else { break };
            tokens_consumed += 1;
            budget.check(BudgetResource::Tokens, tokens_consumed)?;
            budget.check(BudgetResource::Nodes, doc.nodes.len())?;
            match token {
                Token::StartTag {
                    name,
                    attrs,
                    self_closing,
                } => {
                    // Apply implicit-close rules against the innermost
                    // matching open element.
                    let closes = implicitly_closes(&name);
                    if !closes.is_empty() {
                        if let Some(pos) = stack
                            .iter()
                            .rposition(|&(id, _)| doc.is_element_in(id, closes))
                        {
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
                    let opens = !too_deep && !self_closing && !VOID_ELEMENTS.contains(&&*name);
                    let parent = stack.last().map(|&(id, _)| id).unwrap_or(root);
                    let id = doc.push(NodeKind::Element(Element { name, attrs }), parent);
                    if opens {
                        stack.push((id, at));
                    }
                }
                Token::EndTag { name } => {
                    // Pop to the matching open tag; flag stray end tags.
                    match stack
                        .iter()
                        .rposition(|&(id, _)| doc.is_element_in(id, &[&*name]))
                    {
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
                        let parent = stack.last().map(|&(id, _)| id).unwrap_or(root);
                        doc.push(NodeKind::Text(text), parent);
                    }
                }
                Token::Comment(body) => {
                    let parent = stack.last().map(|&(id, _)| id).unwrap_or(root);
                    doc.push(NodeKind::Comment(body), parent);
                }
                Token::Doctype(_) => {}
            }
        }
        // Elements still open at EOF were closed implicitly.
        for &(id, at) in stack.iter().skip(1) {
            if let Some(e) = doc.element(id) {
                tokens.record_defect(
                    MarkupDefectKind::UnclosedElement {
                        name: e.name.to_string(),
                    },
                    at,
                );
            }
        }
        let mut defects = tokens.take_defects();
        defects.sort_by_key(|d| d.offset);
        Ok((doc, defects))
    }

    /// True if `id` is an element named one of `names`.
    fn is_element_in(&self, id: NodeId, names: &[&str]) -> bool {
        self.element(id)
            .is_some_and(|e| names.contains(&e.name.as_ref()))
    }

    /// Append a node as the last child of `parent`.
    fn push(&mut self, kind: NodeKind<'a>, parent: NodeId) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::new(kind, Some(parent)));
        match self.nodes[parent.0].last_child.replace(id) {
            Some(prev) => self.nodes[prev.0].next_sibling = Some(id),
            None => self.nodes[parent.0].first_child = Some(id),
        }
        id
    }

    /// The synthetic root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrow a node by id.
    pub fn node(&self, id: NodeId) -> &Node<'a> {
        &self.nodes[id.0]
    }

    /// The element payload of `id`, if it is an element.
    pub fn element(&self, id: NodeId) -> Option<&Element<'a>> {
        self.node(id).as_element()
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
        self.node(id).parent
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
    fn subtree_end(&self, id: NodeId) -> usize {
        let mut cur = self.node(id);
        loop {
            if let Some(sibling) = cur.next_sibling {
                return sibling.0;
            }
            match cur.parent {
                Some(parent) => cur = self.node(parent),
                None => return self.nodes.len(),
            }
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

    /// Concatenated text of `id` and its descendants with whitespace runs
    /// collapsed to single spaces and the result trimmed. This matches
    /// what a human reads on the rendered page, which is the contract the
    /// paper's corpus format needs.
    pub fn text_of(&self, id: NodeId) -> String {
        let mut out = String::new();
        let mut in_ws = true; // leading whitespace is dropped
        for node in &self.nodes[id.0..self.subtree_end(id)] {
            if let NodeKind::Text(t) = &node.kind {
                push_collapsed(&mut out, &mut in_ws, t);
            }
        }
        if out.ends_with(' ') {
            out.pop();
        }
        out
    }

    /// Like [`Document::text_of`] but preserving line structure: block
    /// elements (`p`, `div`, `li`, `tr`, `br`, …) introduce newlines.
    /// Needed for `Examples` fields where indentation carries hierarchy.
    pub fn text_lines(&self, id: NodeId) -> Vec<String> {
        let mut raw = String::new();
        self.collect_text_blocks(id, &mut raw);
        raw.lines()
            .map(|l| l.trim_end().to_string())
            .filter(|l| !l.trim().is_empty())
            .collect()
    }

    /// Render `id`'s subtree as text with a newline around every block
    /// element. The walk follows the sibling links with no stack, so
    /// document depth — attacker-controlled, though bounded by the
    /// builder's depth guard — costs no memory here.
    fn collect_text_blocks(&self, id: NodeId, out: &mut String) {
        const BLOCK: &[&str] = &[
            "p", "div", "li", "tr", "br", "pre", "h1", "h2", "h3", "h4", "h5",
            "table", "ul", "ol", "dt", "dd", "section",
        ];
        let is_block = |n: NodeId| self.is_element_in(n, BLOCK);
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
            if let Some(child) = self.node(cur).first_child {
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
                match (node.next_sibling, node.parent) {
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

/// Append `text` to `out` with each whitespace run collapsed to one
/// space. `in_ws` carries "the output ends in whitespace" across calls,
/// so a run split over several text nodes still collapses to one space,
/// and starting with it set drops leading whitespace.
fn push_collapsed(out: &mut String, in_ws: &mut bool, text: &str) {
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !*in_ws {
                out.push(' ');
                *in_ws = true;
            }
        } else {
            out.push(ch);
            *in_ws = false;
        }
    }
}

/// A run of siblings in document order, following the next-sibling
/// links (see [`Document::children`], [`Document::following_siblings`]).
#[derive(Debug, Clone)]
pub struct Siblings<'d> {
    doc: &'d Document<'d>,
    next: Option<NodeId>,
}

impl Iterator for Siblings<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.node(id).next_sibling;
        Some(id)
    }
}

/// Depth-first pre-order traversal of a subtree (see
/// [`Document::descendants`]): a subtree is a contiguous id range, so the
/// walk is a counter.
#[derive(Debug, Clone)]
pub struct Descendants {
    ids: std::ops::Range<usize>,
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
        let el = doc.element(p).unwrap();
        assert!(el.has_class("b"));
        assert!(!el.has_class("d"));
        assert_eq!(el.classes().count(), 3);
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
        let err = Document::parse_budgeted("<p>hello world</p>", &budget)
            .expect_err("over byte cap");
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
        let err = Document::parse_budgeted("<p>a</p><p>b</p>", &budget)
            .expect_err("over token cap");
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
            .map(|i| doc.ancestors(NodeId(i)).count())
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
        assert!(defects.iter().any(|d| matches!(
            d.kind,
            MarkupDefectKind::NestingTooDeep { .. }
        )));
        // Text collection over the flattened tree must not recurse
        // off the stack either.
        let text = doc.text_of(doc.root());
        assert_eq!(text, "leaf");
        let lines = doc.text_lines(doc.root());
        assert_eq!(lines, vec!["leaf"]);
    }
}
