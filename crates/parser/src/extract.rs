//! Shared extraction components the vendor parsers compose.
//!
//! Each helper corresponds to one "basic parsing component" of the
//! framework (§2.3: "NetOps teams can then compose basic parsing
//! components and configure CSS class names to build a customized
//! parser"). [`extract`] finds every section of a page in one walk;
//! the others turn a section's nodes into corpus fields. A class list
//! (`&[&str]`) matches an element that carries any of its classes.

use nassim_html::dom::NodeKind;
use nassim_html::{CollapsedText, Document, NodeId};

/// How a vendor's pages mark their sections (the Table-1 patterns).
#[derive(Debug, Clone, Copy)]
pub enum Layout<'c> {
    /// No headers: every element carrying one of a label's classes is
    /// part of that label's section, in document order (cirrus
    /// paragraphs). Labels are class lists.
    Classed,
    /// A header is an element carrying one of the label's classes, and
    /// its body is the following siblings up to the next `end_tag`
    /// element (norsk `h3` headers). Labels are class lists.
    ClassHeaders { end_tag: &'c str },
    /// A header is an element of class `class` whose text is one of the
    /// label's titles, and its body is the following siblings up to the
    /// next header (helix `sectiontitle` divs).
    TitledSiblings { class: &'c str },
    /// A block is an element of class `class` labelled by the text of its
    /// first `header_tag` child, and its body is the block's other
    /// children (h4c `Command` divs with a bold title).
    TitledBlocks { class: &'c str, header_tag: &'c str },
}

/// The body nodes of each labelled section of `doc`, in label order,
/// found in one walk of the page. A label lists alternatives: classes
/// or titles, as the layout reads them. Under the header layouts the
/// first header that matches a label wins and the walk stops once every
/// label has one; a label with no header gets an empty body. Titles are
/// compared with the header's whitespace-collapsed text without
/// building it.
pub fn extract<const N: usize>(
    doc: &Document,
    layout: Layout,
    labels: [&[&str]; N],
) -> [Vec<NodeId>; N] {
    let mut bodies: [Vec<NodeId>; N] = std::array::from_fn(|_| Vec::new());
    let mut found = [false; N];
    let mut open = N;
    let siblings_until = |header: NodeId, end: &dyn Fn(NodeId) -> bool| {
        doc.following_siblings(header)
            .take_while(|&id| !end(id))
            .collect()
    };
    for id in doc.descendants(doc.root()) {
        // The node whose text is `id`'s label, under the titled layouts;
        // an element that cannot head a section there is skipped.
        let title = match layout {
            Layout::Classed | Layout::ClassHeaders { .. } if doc.element(id).is_some() => None,
            Layout::TitledSiblings { class } if doc.has_class(id, class) => Some(id),
            Layout::TitledBlocks { class, header_tag } if doc.has_class(id, class) => {
                match doc.children(id).find(|&c| is_tag(doc, c, header_tag)) {
                    Some(header) => Some(header),
                    None => continue,
                }
            }
            _ => continue,
        };
        for (i, &label) in labels.iter().enumerate() {
            let matched = match title {
                _ if found[i] => false,
                Some(title) => label.iter().any(|text| doc.text_eq(title, text)),
                None => in_classes(doc, id, label),
            };
            if !matched {
                continue;
            }
            bodies[i] = match layout {
                Layout::Classed => {
                    bodies[i].push(id);
                    continue;
                }
                Layout::ClassHeaders { end_tag } => {
                    siblings_until(id, &|s| is_tag(doc, s, end_tag))
                }
                Layout::TitledSiblings { class } => {
                    siblings_until(id, &|s| doc.has_class(s, class))
                }
                Layout::TitledBlocks { .. } => {
                    doc.children(id).filter(|&c| Some(c) != title).collect()
                }
            };
            found[i] = true;
            open -= 1;
        }
        if open == 0 {
            break;
        }
    }
    bodies
}

/// True if `id` is an element carrying any of `classes`.
fn in_classes(doc: &Document, id: NodeId, classes: &[&str]) -> bool {
    classes.iter().any(|class| doc.has_class(id, class))
}

/// True if `id` is an element named `tag`.
pub(crate) fn is_tag(doc: &Document, id: NodeId, tag: &str) -> bool {
    doc.element(id).is_some_and(|e| e.name == tag)
}

/// The text of each of `nodes`, joined with single spaces (an empty
/// text still takes its place between two spaces).
pub fn joined_text<'n>(
    doc: &Document,
    nodes: impl IntoIterator<Item = &'n NodeId> + Clone,
) -> String {
    let len: usize = nodes
        .clone()
        .into_iter()
        .map(|&n| doc.text_len(n) + 1)
        .sum();
    let mut text = CollapsedText::with_capacity(len);
    for (i, &n) in nodes.into_iter().enumerate() {
        if i > 0 {
            text.separate(" ");
        }
        doc.push_text(n, &mut text);
    }
    text.into_string()
}

/// Reconstruct CLI template text from a span-marked element.
///
/// In manual RTF, parameters are distinguished from keywords only by font
/// markup; the corpus format requires them in angle brackets (Appendix B).
/// Elements carrying a class of `param_classes` are therefore emitted as
/// `<text>`; everything else contributes its text verbatim. The result is
/// whitespace-normalised as it is built.
pub fn cli_text(doc: &Document, node: NodeId, param_classes: &[&str]) -> String {
    // Room for the text and the brackets of a few parameters.
    let mut text = CollapsedText::with_capacity(doc.text_len(node) + 8);
    collect_cli(doc, node, param_classes, &mut text);
    text.into_string()
}

fn collect_cli(doc: &Document, node: NodeId, param_classes: &[&str], text: &mut CollapsedText) {
    match &doc.node(node).kind {
        NodeKind::Text(t) => text.push(t),
        NodeKind::Comment(_) => {}
        NodeKind::Element(_) if in_classes(doc, node, param_classes) => {
            text.push("<");
            text.separate("");
            doc.push_text(node, text);
            text.separate("");
            text.push("> ");
        }
        NodeKind::Element(_) | NodeKind::Root => {
            for child in doc.children(node) {
                collect_cli(doc, child, param_classes, text);
            }
        }
    }
}

/// Parse a labelled definition like `name: description` or
/// `name — description` where `name` is the text of the first descendant
/// carrying a class of `name_classes`. Returns `(name, description)`.
///
/// The node's text is built once; the name is the part of it that the
/// name span's subtree wrote.
pub fn labelled_definition(
    doc: &Document,
    node: NodeId,
    name_classes: &[&str],
) -> Option<(String, String)> {
    let name_node = doc
        .descendants(node)
        .find(|&id| in_classes(doc, id, name_classes));
    let name_last = name_node.map(|n| doc.descendants(n).next_back().unwrap_or(n));
    let mut text = CollapsedText::with_capacity(doc.text_len(node));
    let mut name_span = (0, None);
    for id in std::iter::once(node).chain(doc.descendants(node)) {
        if Some(id) == name_node {
            name_span.0 = text.len();
        }
        if let NodeKind::Text(t) = &doc.node(id).kind {
            text.push(t);
        }
        if Some(id) == name_last {
            name_span.1 = Some(text.len());
        }
    }
    let full = text.as_str();
    let name = match name_node {
        // A space owed before the name is written inside its span.
        Some(_) => full[name_span.0..name_span.1.unwrap_or(full.len())].trim_start(),
        None => {
            // Fallback: no configured name span matched — recover the
            // name from the `name: description` / `name — description`
            // text shape. (This keeps ParaDef parseable when a parser's
            // span classes are wrong, so the Appendix-B self-check can
            // expose the CLI-side mismatch instead of both sides failing
            // mutely.)
            let sep = full.find([':', '\u{2014}'])?;
            full[..sep].trim()
        }
    };
    if name.is_empty() || name.contains(' ') {
        return None;
    }
    // Strip the leading name and a separator (":" or em-dash or "-").
    let desc = full
        .strip_prefix(name)
        .unwrap_or(full)
        .trim_start()
        .trim_start_matches([':', '\u{2014}', '-'])
        .trim();
    Some((name.to_string(), desc.to_string()))
}

/// Extract the lines of every `<pre>` example snippet under `nodes`
/// (each node included), one `Vec<String>` per snippet, indentation
/// preserved.
pub fn example_snippets(doc: &Document, nodes: &[NodeId]) -> Vec<Vec<String>> {
    nodes
        .iter()
        .flat_map(|&n| std::iter::once(n).chain(doc.descendants(n)))
        .filter(|&id| is_tag(doc, id, "pre"))
        .map(|pre| doc.text_lines(pre))
        .filter(|lines| !lines.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_html::Selector;

    #[test]
    fn cli_text_wraps_param_spans() {
        let doc = Document::parse(
            r#"<p><span class="kw">peer</span> <span class="pv">ipv4-address</span> <span class="kw">group</span> <span class="pv">group-name</span></p>"#,
        );
        let p = doc.select_first(&Selector::parse("p")).unwrap();
        assert_eq!(
            cli_text(&doc, p, &["pv"]),
            "peer <ipv4-address> group <group-name>"
        );
    }

    #[test]
    fn cli_text_keeps_punctuation_tokens() {
        let doc = Document::parse(
            r#"<p><span class="kw">filter-policy</span> { <span class="pv">acl-number</span> | <span class="kw">ip-prefix</span> <span class="pv">name</span> } { <span class="kw">import</span> | <span class="kw">export</span> }</p>"#,
        );
        let p = doc.select_first(&Selector::parse("p")).unwrap();
        assert_eq!(
            cli_text(&doc, p, &["pv"]),
            "filter-policy { <acl-number> | ip-prefix <name> } { import | export }"
        );
    }

    #[test]
    fn cli_text_respects_multiple_param_classes() {
        let doc = Document::parse(
            r#"<p><span class="kw">vlan</span> <span class="alt">vlan-id</span></p>"#,
        );
        let p = doc.select_first(&Selector::parse("p")).unwrap();
        assert_eq!(cli_text(&doc, p, &["pv", "alt"]), "vlan <vlan-id>");
        // A parser missing the variant class sees the param as a keyword —
        // the Appendix-B self-check failure mode.
        assert_eq!(cli_text(&doc, p, &["pv"]), "vlan vlan-id");
    }

    #[test]
    fn cli_text_trims_param_text_inside_brackets() {
        let doc = Document::parse("<p>a<span class=pv>\u{a0} b\tc </span>d</p>");
        let p = doc.select_first(&Selector::parse("p")).unwrap();
        assert_eq!(cli_text(&doc, p, &["pv"]), "a<b c> d");
    }

    #[test]
    fn extract_takes_the_first_matching_header() {
        let doc = Document::parse(
            r#"<div class="h">A</div><p>a1</p><p>a2</p><div class="h"> A </div><p>a3</p><div class="h">B</div><p>b1</p>"#,
        );
        let [a, b, c] = extract(
            &doc,
            Layout::TitledSiblings { class: "h" },
            [&["A"], &["B"], &["C"]],
        );
        let texts = |nodes: &[NodeId]| nodes.iter().map(|&n| doc.text_of(n)).collect::<Vec<_>>();
        assert_eq!(texts(&a), ["a1", "a2"]);
        assert_eq!(texts(&b), ["b1"]);
        assert!(c.is_empty());
    }

    #[test]
    fn extract_class_layouts() {
        let doc = Document::parse(
            r#"<h3 class="S">x</h3><p class="c">1</p><p class="d">2</p><h3 class="T">y</h3><p class="c">3</p>"#,
        );
        let [s, t] = extract(
            &doc,
            Layout::ClassHeaders { end_tag: "h3" },
            [&["S"], &["T"]],
        );
        assert_eq!((s.len(), t.len()), (2, 1));
        let [cd, d] = extract(&doc, Layout::Classed, [&["c", "d"], &["d"]]);
        assert_eq!((cd.len(), d.len()), (3, 1));
    }

    #[test]
    fn extract_titled_blocks() {
        let doc = Document::parse(
            r#"<div class="B"><b>One</b><p>1</p></div><div class="B"><i>x</i></div><div class="B"><b>Two</b><p>2</p><p>3</p></div>"#,
        );
        let [one, two] = extract(
            &doc,
            Layout::TitledBlocks {
                class: "B",
                header_tag: "b",
            },
            [&["One"], &["Two"]],
        );
        assert_eq!((one.len(), two.len()), (1, 2));
    }

    #[test]
    fn joined_text_keeps_empty_pieces() {
        let doc = Document::parse("<p> a </p><p> </p><p>b</p>");
        let ps: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(joined_text(&doc, &ps), "a  b");
        assert_eq!(joined_text(&doc, &[]), "");
        assert_eq!(joined_text(&doc, &ps[2..]), "b");
    }

    #[test]
    fn labelled_definition_splits_name_and_desc() {
        let doc = Document::parse(
            r#"<p class="d"><span class="nm">vlan-id</span>: The VLAN identifier.</p>"#,
        );
        let p = doc.select_first(&Selector::parse("p.d")).unwrap();
        let (name, desc) = labelled_definition(&doc, p, &["nm"]).unwrap();
        assert_eq!(name, "vlan-id");
        assert_eq!(desc, "The VLAN identifier.");
    }

    #[test]
    fn labelled_definition_handles_em_dash() {
        let doc = Document::parse(
            r#"<p class="d"><span class="nm">as-num</span> &mdash; AS number of the peer.</p>"#,
        );
        let p = doc.select_first(&Selector::parse("p.d")).unwrap();
        let (name, desc) = labelled_definition(&doc, p, &["nm"]).unwrap();
        assert_eq!(name, "as-num");
        assert_eq!(desc, "AS number of the peer.");
    }

    #[test]
    fn labelled_definition_name_span_inside_text() {
        let doc = Document::parse(r#"<p>x <span class="nm"> <b>vlan</b>-id </span> : tail</p>"#);
        let p = doc.select_first(&Selector::parse("p")).unwrap();
        // The name is not a prefix of the text, so nothing is stripped.
        assert_eq!(
            labelled_definition(&doc, p, &["nm"]),
            Some(("vlan-id".to_string(), "x vlan-id : tail".to_string()))
        );
    }

    #[test]
    fn example_snippets_preserve_indentation() {
        let doc = Document::parse("<pre class=ex>bgp 100\n peer 10.1.1.1 group test</pre>");
        let pre = doc.select_first(&Selector::parse("pre")).unwrap();
        let snippets = example_snippets(&doc, &[pre]);
        assert_eq!(
            snippets,
            vec![vec![
                "bgp 100".to_string(),
                " peer 10.1.1.1 group test".to_string()
            ]]
        );
    }
}
