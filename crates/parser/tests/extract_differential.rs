//! The one-walk section extraction against the lookups it replaced.
//!
//! Each vendor parser finds its sections with [`extract`] and builds
//! text with the collapsing `text_of`, `cli_text` and
//! `labelled_definition`. This file keeps the earlier implementations as
//! the reference: a full `select_class` scan per section, a `text_of`
//! string per header compared with the label, char-by-char whitespace
//! collapsing, and `split_whitespace` normalisation. Both sides run over
//! the same DOM, on seeded vendor pages mutated line by line: headers
//! duplicated, reordered, deleted or inserted with label text in nested
//! markup or padded with `&nbsp;`, U+3000 or a vertical tab, sections
//! left empty, and text respaced with non-ASCII whitespace. Every
//! [`PageRecord`] must be equal.
//!
//! [`extract`]: nassim_parser::extract::extract

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_corpus::{CorpusEntry, ParaDef};
use nassim_datasets::catalog::Catalog;
use nassim_datasets::manualgen::{self, GenOptions};
use nassim_datasets::style;
use nassim_diag::NassimError;
use nassim_html::dom::NodeKind;
use nassim_html::{Document, IngestBudget, NodeId};
use nassim_parser::{
    ensure_parsable, page_record, parser_for, PageRecord, ParsedPage, VendorParser,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

// ---- the reference: the lookups and text helpers as they were -------

fn ref_has_class(doc: &Document, id: NodeId, class: &str) -> bool {
    doc.attrs(id)
        .iter()
        .find(|(k, _)| k == "class")
        .is_some_and(|(_, v)| v.split_ascii_whitespace().any(|c| c == class))
}

fn ref_any_class(doc: &Document, id: NodeId, classes: &[&str]) -> bool {
    classes.iter().any(|c| ref_has_class(doc, id, c))
}

fn ref_is(doc: &Document, id: NodeId, tag: &str) -> bool {
    doc.element(id).map(|e| e.name == tag).unwrap_or(false)
}

fn ref_select_class<'d>(doc: &'d Document, class: &'d str) -> impl Iterator<Item = NodeId> + 'd {
    doc.descendants(doc.root())
        .filter(move |&id| ref_has_class(doc, id, class))
}

fn ref_text_of(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    let mut in_ws = true;
    for n in std::iter::once(id).chain(doc.descendants(id)) {
        if let NodeKind::Text(t) = &doc.node(n).kind {
            for ch in t.chars() {
                if ch.is_whitespace() {
                    if !in_ws {
                        out.push(' ');
                        in_ws = true;
                    }
                } else {
                    out.push(ch);
                    in_ws = false;
                }
            }
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

fn ref_cli_text(doc: &Document, node: NodeId, params: &[&str]) -> String {
    fn collect(doc: &Document, node: NodeId, params: &[&str], out: &mut String) {
        match &doc.node(node).kind {
            NodeKind::Text(t) => out.push_str(t),
            NodeKind::Comment(_) => {}
            NodeKind::Element(_) if ref_any_class(doc, node, params) => {
                out.push('<');
                out.push_str(ref_text_of(doc, node).trim());
                out.push('>');
                out.push(' ');
            }
            NodeKind::Element(_) | NodeKind::Root => {
                for child in doc.children(node) {
                    collect(doc, child, params, out);
                }
            }
        }
    }
    let mut out = String::new();
    collect(doc, node, params, &mut out);
    out.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn ref_section_body(
    doc: &Document,
    header: NodeId,
    is_next_header: impl Fn(NodeId) -> bool,
) -> Vec<NodeId> {
    let mut out = Vec::new();
    for sib in doc.following_siblings(header) {
        if is_next_header(sib) {
            break;
        }
        out.push(sib);
    }
    out
}

fn ref_labelled_definition(
    doc: &Document,
    node: NodeId,
    name_classes: &[&str],
) -> Option<(String, String)> {
    let name_node = doc
        .descendants(node)
        .find(|&id| ref_any_class(doc, id, name_classes));
    let full = ref_text_of(doc, node);
    let name = match name_node {
        Some(id) => ref_text_of(doc, id),
        None => {
            let sep = full.find([':', '\u{2014}'])?;
            full[..sep].trim().to_string()
        }
    };
    let desc = full
        .strip_prefix(&name)
        .unwrap_or(&full)
        .trim_start()
        .trim_start_matches([':', '\u{2014}', '-'])
        .trim()
        .to_string();
    if name.is_empty() || name.contains(' ') {
        None
    } else {
        Some((name, desc))
    }
}

fn ref_example_snippets(doc: &Document, nodes: &[NodeId]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for &n in nodes {
        let mut pres = Vec::new();
        if ref_is(doc, n, "pre") {
            pres.push(n);
        }
        pres.extend(doc.descendants(n).filter(|&id| ref_is(doc, id, "pre")));
        for pre in pres {
            let lines = doc.text_lines(pre);
            if !lines.is_empty() {
                out.push(lines);
            }
        }
    }
    out
}

fn texts(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
    nodes.iter().map(|&n| ref_text_of(doc, n)).collect()
}

fn page(url: &str, entry: CorpusEntry) -> ParsedPage {
    ParsedPage {
        url: url.to_string(),
        entry: Arc::new(entry),
        context_path: None,
        enters_view: None,
    }
}

fn para_defs(doc: &Document, nodes: &[NodeId], params: &[&str]) -> Vec<ParaDef> {
    nodes
        .iter()
        .filter_map(|&n| ref_labelled_definition(doc, n, params))
        .map(|(name, info)| ParaDef::new(name, info))
        .collect()
}

fn clis(doc: &Document, nodes: &[NodeId], params: &[&str]) -> Vec<String> {
    nodes
        .iter()
        .map(|&n| ref_cli_text(doc, n, params))
        .filter(|s| !s.is_empty())
        .collect()
}

struct RefHelix;

impl VendorParser for RefHelix {
    fn vendor(&self) -> &str {
        "helix"
    }

    fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
        ensure_parsable(self.vendor(), url, doc)?;
        let section = |label: &str| {
            ref_select_class(doc, "sectiontitle")
                .find(|&id| ref_text_of(doc, id) == label)
                .map(|h| ref_section_body(doc, h, |id| ref_has_class(doc, id, "sectiontitle")))
                .unwrap_or_default()
        };
        let params = ["paramvalue"];
        let format = section("Format");
        if format.is_empty() {
            return Ok(None);
        }
        let mut views = texts(doc, &section("Views"));
        views.retain(|s| !s.is_empty());
        Ok(Some(page(
            url,
            CorpusEntry {
                clis: clis(doc, &format, &params),
                func_def: texts(doc, &section("Function")).join(" "),
                parent_views: views,
                para_def: para_defs(doc, &section("Parameters"), &params),
                examples: ref_example_snippets(doc, &section("Examples")),
                source: url.to_string(),
            },
        )))
    }
}

struct RefH4c;

impl VendorParser for RefH4c {
    fn vendor(&self) -> &str {
        "h4c"
    }

    fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
        ensure_parsable(self.vendor(), url, doc)?;
        let block = |label: &str| {
            for div in ref_select_class(doc, "Command") {
                let header = doc.children(div).find(|&id| ref_is(doc, id, "b"));
                let Some(h) = header else { continue };
                if ref_text_of(doc, h) == label {
                    return doc.children(div).filter(|&id| id != h).collect();
                }
            }
            Vec::new()
        };
        let elements = |nodes: Vec<NodeId>| -> Vec<NodeId> {
            nodes
                .into_iter()
                .filter(|&n| doc.element(n).is_some())
                .collect()
        };
        let params = ["cmdarg"];
        let syntax = block("Syntax");
        if syntax.is_empty() {
            return Ok(None);
        }
        let mut views = texts(doc, &elements(block("View")));
        views.retain(|s| !s.is_empty());
        Ok(Some(page(
            url,
            CorpusEntry {
                clis: clis(doc, &elements(syntax), &params),
                func_def: texts(doc, &elements(block("Description"))).join(" "),
                parent_views: views,
                para_def: para_defs(doc, &block("Parameters"), &params),
                examples: ref_example_snippets(doc, &block("Examples")),
                source: url.to_string(),
            },
        )))
    }
}

struct RefNorsk;

impl VendorParser for RefNorsk {
    fn vendor(&self) -> &str {
        "norsk"
    }

    fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
        ensure_parsable(self.vendor(), url, doc)?;
        let section = |class: &str| {
            ref_select_class(doc, class)
                .next()
                .map(|h| ref_section_body(doc, h, |id| ref_is(doc, id, "h3")))
                .unwrap_or_default()
        };
        let params = ["ArgText"];
        let syntax = section("SyntaxHeader");
        if syntax.is_empty() {
            return Ok(None);
        }
        let context_paths: Vec<Vec<String>> = texts(doc, &section("ContextHeader"))
            .into_iter()
            .filter(|t| !t.trim().is_empty())
            .map(|t| {
                t.split('>')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .collect();
        let enters_view = texts(doc, &section("TreeHeader"))
            .into_iter()
            .find_map(|t| t.strip_prefix("Enters:").map(|v| v.trim().to_string()));
        let mut para_def = Vec::new();
        for n in section("ParametersHeader") {
            let dts: Vec<NodeId> = doc
                .descendants(n)
                .filter(|&id| ref_is(doc, id, "dt"))
                .collect();
            for dt in dts {
                if let Some((name, _)) = ref_labelled_definition(doc, dt, &params) {
                    let desc = doc
                        .following_siblings(dt)
                        .find(|&id| ref_is(doc, id, "dd"))
                        .map(|dd| ref_text_of(doc, dd))
                        .unwrap_or_default();
                    para_def.push(ParaDef::new(name, desc));
                }
            }
        }
        let mut parsed = page(
            url,
            CorpusEntry {
                clis: clis(doc, &syntax, &params),
                func_def: texts(doc, &section("DescriptionHeader")).join(" "),
                parent_views: context_paths
                    .iter()
                    .filter_map(|p| p.last().cloned())
                    .collect(),
                para_def,
                examples: Vec::new(),
                source: url.to_string(),
            },
        );
        parsed.context_path = Some(context_paths.first().cloned().unwrap_or_default());
        parsed.enters_view = enters_view;
        Ok(Some(parsed))
    }
}

struct RefCirrus;

impl VendorParser for RefCirrus {
    fn vendor(&self) -> &str {
        "cirrus"
    }

    fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
        ensure_parsable(self.vendor(), url, doc)?;
        let params = ["cParamName", "cItalic"];
        let cli_nodes: Vec<NodeId> = doc
            .descendants(doc.root())
            .filter(|&id| ref_any_class(doc, id, &["pCE_CmdEnv", "pCENB_CmdEnv_NoBold"]))
            .collect();
        let has_sections = ref_select_class(doc, "pCRCM_CmdRefCmdModes")
            .next()
            .is_some();
        if cli_nodes.is_empty() && !has_sections {
            return Ok(None);
        }
        let all = |class: &str| ref_select_class(doc, class).collect::<Vec<_>>();
        let mut views = texts(doc, &all("pCRCM_CmdRefCmdModes"));
        views.retain(|s| !s.is_empty());
        let examples: Vec<NodeId> = doc
            .descendants(doc.root())
            .filter(|&id| ref_is(doc, id, "pre") && ref_has_class(doc, id, "example-snippet"))
            .collect();
        Ok(Some(page(
            url,
            CorpusEntry {
                clis: clis(doc, &cli_nodes, &params),
                func_def: texts(doc, &all("pB1_Body1")).join(" "),
                parent_views: views,
                para_def: para_defs(doc, &all("pCRSD_CmdRefSynDesc"), &params),
                examples: ref_example_snippets(doc, &examples),
                source: url.to_string(),
            },
        )))
    }
}

// ---- mutated vendor pages --------------------------------------------

const VENDORS: [&str; 4] = ["helix", "h4c", "norsk", "cirrus"];

/// A small clean manual per vendor, generated once.
fn pages(vendor: usize) -> &'static [String] {
    static PAGES: OnceLock<Vec<Vec<String>>> = OnceLock::new();
    &PAGES.get_or_init(|| {
        VENDORS
            .iter()
            .map(|v| {
                manualgen::generate(
                    &style::vendor(v).unwrap(),
                    &Catalog::base(),
                    &GenOptions {
                        seed: 17,
                        ..GenOptions::default()
                    },
                )
                .pages
                .into_iter()
                .map(|p| p.html)
                .collect()
            })
            .collect()
    })[vendor]
}

/// Header labels per vendor: section titles for helix and h4c, header
/// classes for norsk, paragraph classes for cirrus.
const LABELS: [&[&str]; 4] = [
    &["Format", "Function", "Views", "Parameters", "Examples"],
    &["Syntax", "View", "Parameters", "Description", "Examples"],
    &[
        "SyntaxHeader",
        "ContextHeader",
        "TreeHeader",
        "DescriptionHeader",
        "ParametersHeader",
    ],
    &[
        "pCE_CmdEnv",
        "pCENB_CmdEnv_NoBold",
        "pB1_Body1",
        "pCRCM_CmdRefCmdModes",
        "pCRSD_CmdRefSynDesc",
    ],
];

/// A label as header text: plain, padded with whitespace the collapse
/// must trim (`&nbsp;`, U+3000, a vertical tab), split by nested
/// markup, or near misses.
fn label_text(label: &str, variant: usize) -> String {
    let (head, tail) = label.split_at(label.len() / 2);
    match variant % 9 {
        0 => label.to_string(),
        1 => format!("&nbsp;{label}"),
        2 => format!("{label}\u{3000}"),
        3 => format!("\u{b}{label} "),
        4 => format!("{head}<i>{tail}</i>"),
        5 => format!(" <span> {label}</span>&#160;"),
        6 => format!("{head} {tail}"),
        7 => format!("{label}\u{a0}x"),
        _ => String::new(),
    }
}

/// A section body: empty, or one paragraph or definition list whose
/// spans read as a CLI, a parameter definition and plain text alike.
fn body(vendor: usize, n: usize) -> String {
    let (p, kw, arg) = [
        ("cmd-line", "cmdname", "paramvalue"),
        ("cmd-syntax", "cmdkw", "cmdarg"),
        ("CmdSyntax", "CmdText", "ArgText"),
        ("pB1_Body1", "cBold", "cParamName"),
    ][vendor];
    match n % 5 {
        0 => String::new(),
        1 => format!(
            r#"<p class="{p}"><span class="{kw}">dup{n}</span> <span class="{arg}">a&nbsp;{n}</span></p>"#
        ),
        2 => format!(
            r#"<p class="{p}"><span class="{arg}">arg-{n}</span>: the {n}&#12288;value.</p>"#
        ),
        3 => format!("<pre class=\"example-snippet\">show {n}\n\u{3000}peer {n}</pre>"),
        _ => format!(
            r#"<dl><dt>x <span class="{arg}"> <b>ar</b>g-{n}&nbsp;</span>: y</dt><dd> d {n} </dd></dl>"#
        ),
    }
}

/// One header (plus a body) of `vendor`'s markup.
fn header(vendor: usize, label: usize, variant: usize, n: usize) -> String {
    let labels = LABELS[vendor];
    let label = labels[label % labels.len()];
    let text = label_text(label, variant);
    let body = body(vendor, n);
    match vendor {
        0 => format!(r#"<div class="sectiontitle">{text}</div>{body}"#),
        1 => format!(r#"<div class="Command"><b>{text}</b>{body}</div>"#),
        2 => format!(r#"<h3 class="{label}">{text}</h3>{body}"#),
        _ => format!(r#"<p class="{label}">{text}</p>{body}"#),
    }
}

/// Replace the spaces of `line` that sit outside tags.
fn respace(line: &str, with: &str) -> String {
    let mut out = String::new();
    let mut in_tag = false;
    for c in line.chars() {
        match c {
            '<' => in_tag = true,
            '>' => in_tag = false,
            ' ' if !in_tag => {
                out.push_str(with);
                continue;
            }
            _ => {}
        }
        out.push(c);
    }
    out
}

/// Apply one line-level mutation to `lines`.
fn mutate(vendor: usize, lines: &mut Vec<String>, (op, a, b, c): (u8, usize, usize, usize)) {
    if lines.is_empty() {
        return;
    }
    let (i, j) = (a % lines.len(), b % lines.len());
    match op % 6 {
        0 => {
            let copy = lines[i].clone();
            lines.insert(j, copy);
        }
        1 => {
            lines.remove(i);
        }
        2 => lines.swap(i, j),
        3 => lines.insert(j, header(vendor, a, c, b)),
        // An empty section right before another header.
        4 => {
            let next = header(vendor, b, c, a);
            lines.insert(j, format!("{}{next}", header(vendor, a, c / 9, 0)));
        }
        _ => {
            let with = ["&nbsp;", "\u{3000}", "\u{b}", " \n\t", "&#160; "][c % 5];
            lines[i] = respace(&lines[i], with);
        }
    }
}

fn records(vendor: usize, url: &str, html: &str) -> (PageRecord, PageRecord) {
    let budget = IngestBudget::default();
    let parser = parser_for(VENDORS[vendor]).unwrap();
    let reference: &dyn VendorParser = match vendor {
        0 => &RefHelix,
        1 => &RefH4c,
        2 => &RefNorsk,
        _ => &RefCirrus,
    };
    (
        page_record(parser.as_ref(), url, html, &budget),
        page_record(reference, url, html, &budget),
    )
}

fn check(vendor: usize, page: usize, ops: &[(u8, usize, usize, usize)]) -> Result<(), String> {
    let pages = pages(vendor);
    let mut lines: Vec<String> = pages[page % pages.len()]
        .lines()
        .map(str::to_string)
        .collect();
    for &op in ops {
        mutate(vendor, &mut lines, op);
    }
    let html = lines.join("\n");
    let (got, want) = records(vendor, "manual://differential", &html);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{} page differs\n{html}\ngot  {got:?}\nwant {want:?}",
            VENDORS[vendor]
        ))
    }
}

fn ops() -> impl Strategy<Value = Vec<(u8, usize, usize, usize)>> {
    prop::collection::vec(
        (any::<u8>(), any::<usize>(), any::<usize>(), 0usize..45),
        0..7,
    )
}

#[test]
fn unmutated_pages_match_the_reference() {
    for vendor in 0..VENDORS.len() {
        for page in 0..pages(vendor).len() {
            check(vendor, page, &[]).unwrap();
        }
    }
}

#[test]
fn first_header_wins_over_a_later_duplicate() {
    for vendor in 0..VENDORS.len() {
        let html = format!(
            "<html><body>{}{}</body></html>",
            header(vendor, 0, 0, 1),
            header(vendor, 0, 0, 6)
        );
        let (got, want) = records(vendor, "manual://dup", &html);
        assert_eq!(got, want, "{html}");
    }
}

#[test]
fn labels_padded_with_unicode_whitespace_still_match() {
    for vendor in [0, 1] {
        for variant in [1, 2, 3, 5] {
            let html = format!(
                "<html><body>{}</body></html>",
                header(vendor, 0, variant, 1)
            );
            let (got, want) = records(vendor, "manual://ws", &html);
            assert_eq!(got, want, "{html}");
            assert!(
                matches!(
                    &got.disposition,
                    nassim_parser::PageDisposition::Parsed { .. }
                ),
                "{html}: {got:?}"
            );
        }
    }
}

proptest! {
    #[test]
    fn helix_pages_match_the_reference(page in 0usize..500, ops in ops()) {
        let result = check(0, page, &ops);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }

    #[test]
    fn h4c_pages_match_the_reference(page in 0usize..500, ops in ops()) {
        let result = check(1, page, &ops);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }

    #[test]
    fn norsk_pages_match_the_reference(page in 0usize..500, ops in ops()) {
        let result = check(2, page, &ops);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }

    #[test]
    fn cirrus_pages_match_the_reference(page in 0usize..500, ops in ops()) {
        let result = check(3, page, &ops);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}
