//! Golden DOM dumps over the tokenizer's and tree builder's edge cases.
//!
//! Each case pins the full pre-order dump of the tree (depth, node kind,
//! tag name, attributes, text) and the defect list, so any change to
//! case folding, entity decoding, raw-text handling, implicit closes,
//! void elements, whitespace after tag names or depth flattening shows
//! up as a diff here. The literals were captured from the owning
//! tokenizer and DOM that preceded the borrowing ones.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_html::dom::NodeKind;
use nassim_html::{Document, IngestBudget, MarkupDefect, Tokenizer};
use std::fmt::Write;

/// One line per node in pre-order (`depth kind payload`), then one line
/// per defect (`! offset kind`).
fn dump(doc: &Document, defects: &[MarkupDefect]) -> String {
    let mut out = String::new();
    for id in doc.descendants(doc.root()) {
        let depth = doc.ancestors(id).count();
        match &doc.node(id).kind {
            NodeKind::Root => writeln!(out, "{depth} root").unwrap(),
            NodeKind::Element(e) => {
                write!(out, "{depth} <{}>", &*e.name).unwrap();
                for (k, v) in &e.attrs {
                    write!(out, " {:?}={:?}", &**k, &**v).unwrap();
                }
                out.push('\n');
            }
            NodeKind::Text(t) => writeln!(out, "{depth} text {:?}", &**t).unwrap(),
            NodeKind::Comment(c) => writeln!(out, "{depth} comment {:?}", &**c).unwrap(),
        }
    }
    for d in defects {
        writeln!(out, "! {} {:?}", d.offset, d.kind).unwrap();
    }
    out
}

/// The token stream (`~ token`), then the tree dump.
fn parsed(input: &str) -> String {
    let mut out = String::new();
    for token in Tokenizer::new(input) {
        writeln!(out, "~ {token:?}").unwrap();
    }
    let (doc, defects) = Document::parse_with_report(input);
    out + &dump(&doc, &defects)
}

/// `want` is written as a raw string starting on its own line.
fn golden(want: &str) -> &str {
    want.strip_prefix('\n').unwrap_or(want)
}

fn budgeted(input: &str, budget: &IngestBudget) -> String {
    match Document::parse_budgeted(input, budget) {
        Ok((doc, defects)) => dump(&doc, &defects),
        Err(e) => format!("error {e}\n"),
    }
}

#[test]
fn entities() {
    let input = "<p title=\"a &amp; b\" data-x=&lt;y&gt; data-z='&#x41;&bogus;'>x &lt; y &#66; &nbsp;AT&T &unknown; &#xZZ;</p>";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ StartTag { name: "p", attrs: [("title", "a & b"), ("data-x", "<y>"), ("data-z", "A&bogus;")], self_closing: false }
~ Text("x < y B \u{a0}AT&T &unknown; &#xZZ;")
~ EndTag { name: "p" }
1 <p> "title"="a & b" "data-x"="<y>" "data-z"="A&bogus;"
2 text "x < y B \u{a0}AT&T &unknown; &#xZZ;"
"####
        )
    );
}

#[test]
fn upper_case() {
    let input = "<DIV CLASS=\"Sect One\" Id=Main DATA-Flag><SPAN>t</SPAN><sPaN>u</Span></DiV>";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ StartTag { name: "div", attrs: [("class", "Sect One"), ("id", "Main"), ("data-flag", "")], self_closing: false }
~ StartTag { name: "span", attrs: [], self_closing: false }
~ Text("t")
~ EndTag { name: "span" }
~ StartTag { name: "span", attrs: [], self_closing: false }
~ Text("u")
~ EndTag { name: "span" }
~ EndTag { name: "div" }
1 <div> "class"="Sect One" "id"="Main" "data-flag"=""
2 <span>
3 text "t"
2 <span>
3 text "u"
"####
        )
    );
}

#[test]
fn raw_text() {
    let input = "<script>if (a<b && c>d) { x(\"</p>\"); }</SCRIPT><STYLE>p > a { content: \"<b>\" }</style ><p>after</p><Script/>x<script>";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ StartTag { name: "script", attrs: [], self_closing: false }
~ Text("if (a<b && c>d) { x(\"</p>\"); }")
~ EndTag { name: "script" }
~ StartTag { name: "style", attrs: [], self_closing: false }
~ Text("p > a { content: \"<b>\" }")
~ EndTag { name: "style" }
~ StartTag { name: "p", attrs: [], self_closing: false }
~ Text("after")
~ EndTag { name: "p" }
~ StartTag { name: "script", attrs: [], self_closing: true }
~ Text("x")
~ StartTag { name: "script", attrs: [], self_closing: false }
1 <script>
2 text "if (a<b && c>d) { x(\"</p>\"); }"
1 <style>
2 text "p > a { content: \"<b>\" }"
1 <p>
2 text "after"
1 <script>
1 text "x"
1 <script>
! 109 UnclosedElement { name: "script" }
"####
        )
    );
}

#[test]
fn unterminated_comment() {
    let input = "<p>a<!-- never closed <b>x</b>";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ StartTag { name: "p", attrs: [], self_closing: false }
~ Text("a")
~ Comment(" never closed <b>x</b>")
1 <p>
2 text "a"
2 comment " never closed <b>x</b>"
! 0 UnclosedElement { name: "p" }
! 4 UnterminatedComment
"####
        )
    );
}

#[test]
fn unterminated_tag() {
    let input = "text <div class=x";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ Text("text ")
~ StartTag { name: "div", attrs: [("class", "x")], self_closing: false }
1 text "text "
1 <div> "class"="x"
! 5 UnterminatedTag
! 5 UnclosedElement { name: "div" }
"####
        )
    );
}

#[test]
fn unterminated_attr_value() {
    let input = "<p>ok</p><div title=\"abc <b>";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ StartTag { name: "p", attrs: [], self_closing: false }
~ Text("ok")
~ EndTag { name: "p" }
~ StartTag { name: "div", attrs: [("title", "abc <b>")], self_closing: false }
1 <p>
2 text "ok"
1 <div> "title"="abc <b>"
! 9 UnterminatedTag
! 9 UnclosedElement { name: "div" }
! 20 UnterminatedAttrValue
"####
        )
    );
}

#[test]
fn stray_and_unclosed() {
    let input = "</div><div><span>x</p></em><b>y";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ EndTag { name: "div" }
~ StartTag { name: "div", attrs: [], self_closing: false }
~ StartTag { name: "span", attrs: [], self_closing: false }
~ Text("x")
~ EndTag { name: "p" }
~ EndTag { name: "em" }
~ StartTag { name: "b", attrs: [], self_closing: false }
~ Text("y")
1 <div>
2 <span>
3 text "x"
3 <b>
4 text "y"
! 0 StrayEndTag { name: "div" }
! 6 UnclosedElement { name: "div" }
! 11 UnclosedElement { name: "span" }
! 18 StrayEndTag { name: "p" }
! 22 StrayEndTag { name: "em" }
! 27 UnclosedElement { name: "b" }
"####
        )
    );
}

#[test]
fn implicit_closes() {
    let input = "<p>a<p>b<ul><li>one<li>two</ul><table><tr><td>1<td>2<tr><th>3<td>4</table><dl><dt>t<dd>d<dt>u</dl>";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ StartTag { name: "p", attrs: [], self_closing: false }
~ Text("a")
~ StartTag { name: "p", attrs: [], self_closing: false }
~ Text("b")
~ StartTag { name: "ul", attrs: [], self_closing: false }
~ StartTag { name: "li", attrs: [], self_closing: false }
~ Text("one")
~ StartTag { name: "li", attrs: [], self_closing: false }
~ Text("two")
~ EndTag { name: "ul" }
~ StartTag { name: "table", attrs: [], self_closing: false }
~ StartTag { name: "tr", attrs: [], self_closing: false }
~ StartTag { name: "td", attrs: [], self_closing: false }
~ Text("1")
~ StartTag { name: "td", attrs: [], self_closing: false }
~ Text("2")
~ StartTag { name: "tr", attrs: [], self_closing: false }
~ StartTag { name: "th", attrs: [], self_closing: false }
~ Text("3")
~ StartTag { name: "td", attrs: [], self_closing: false }
~ Text("4")
~ EndTag { name: "table" }
~ StartTag { name: "dl", attrs: [], self_closing: false }
~ StartTag { name: "dt", attrs: [], self_closing: false }
~ Text("t")
~ StartTag { name: "dd", attrs: [], self_closing: false }
~ Text("d")
~ StartTag { name: "dt", attrs: [], self_closing: false }
~ Text("u")
~ EndTag { name: "dl" }
1 <p>
2 text "a"
1 <p>
2 text "b"
2 <ul>
3 <li>
4 text "one"
3 <li>
4 text "two"
2 <table>
3 <tr>
4 <td>
5 text "1"
4 <td>
5 text "2"
4 <tr>
5 <th>
6 text "3"
5 <td>
6 text "4"
2 <dl>
3 <dt>
4 text "t"
3 <dd>
4 text "d"
3 <dt>
4 text "u"
! 4 UnclosedElement { name: "p" }
"####
        )
    );
}

#[test]
fn void_elements() {
    let input = "<br><img src=x alt=\"y\"><hr/>text<input type=checkbox checked><p/>after<BR>z";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ StartTag { name: "br", attrs: [], self_closing: false }
~ StartTag { name: "img", attrs: [("src", "x"), ("alt", "y")], self_closing: false }
~ StartTag { name: "hr", attrs: [], self_closing: true }
~ Text("text")
~ StartTag { name: "input", attrs: [("type", "checkbox"), ("checked", "")], self_closing: false }
~ StartTag { name: "p", attrs: [], self_closing: true }
~ Text("after")
~ StartTag { name: "br", attrs: [], self_closing: false }
~ Text("z")
1 <br>
1 <img> "src"="x" "alt"="y"
1 <hr>
1 text "text"
1 <input> "type"="checkbox" "checked"=""
1 <p>
1 text "after"
1 <br>
1 text "z"
"####
        )
    );
}

#[test]
fn whitespace_after_name() {
    let input =
        "<p\u{a0}class=x>nb</p><div\u{b}id=y>vt</div><span\tclass=t\ndata-a = \"1\" >tab</span>";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ StartTag { name: "p", attrs: [("\u{a0}class", "x")], self_closing: false }
~ Text("nb")
~ EndTag { name: "p" }
~ StartTag { name: "div", attrs: [("\u{b}id", "y")], self_closing: false }
~ Text("vt")
~ EndTag { name: "div" }
~ StartTag { name: "span", attrs: [("class", "t"), ("data-a", "1")], self_closing: false }
~ Text("tab")
~ EndTag { name: "span" }
1 <p> "\u{a0}class"="x"
2 text "nb"
1 <div> "\u{b}id"="y"
2 text "vt"
1 <span> "class"="t" "data-a"="1"
2 text "tab"
"####
        )
    );
}

#[test]
fn non_ascii() {
    let input = "<p class=\"ünï\">Grüße — 日本語 &mdash; ok</p><aÉ>é</AÉ><q>a<3 & b</q>";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ StartTag { name: "p", attrs: [("class", "ünï")], self_closing: false }
~ Text("Grüße — 日本語 — ok")
~ EndTag { name: "p" }
~ StartTag { name: "aÉ", attrs: [], self_closing: false }
~ Text("é")
~ EndTag { name: "aÉ" }
~ StartTag { name: "q", attrs: [], self_closing: false }
~ Text("a<3 & b")
~ EndTag { name: "q" }
1 <p> "class"="ünï"
2 text "Grüße — 日本語 — ok"
1 <aÉ>
2 text "é"
1 <q>
2 text "a<3 & b"
"####
        )
    );
}

#[test]
fn markup_oddities() {
    let input = "<!DOCTYPE html><!-- c --><!x>a < b <1> </ p >c</><p>d</p ><!DOCTYPE";
    assert_eq!(
        parsed(input),
        golden(
            r####"
~ Doctype("DOCTYPE html")
~ Comment(" c ")
~ Doctype("x")
~ Text("a < b <1> ")
~ EndTag { name: "p" }
~ Text("c")
~ EndTag { name: "" }
~ StartTag { name: "p", attrs: [], self_closing: false }
~ Text("d")
~ EndTag { name: "p" }
~ Doctype("DOCTYPE")
1 comment " c "
1 text "a < b <1> "
1 text "c"
1 <p>
2 text "d"
! 39 StrayEndTag { name: "p" }
! 46 StrayEndTag { name: "" }
! 58 UnterminatedDoctype
"####
        )
    );
}

/// Five nested elements and a run of end tags the flattened tree
/// cannot all match.
const DEEP: &str = "<div><div><div><div><section>deep<p>x</p></section></div></div></div></div>";

#[test]
fn depth_guard_flattens() {
    let budget = IngestBudget {
        max_depth: 3,
        ..IngestBudget::default()
    };
    assert_eq!(
        budgeted(DEEP, &budget),
        golden(
            r####"
1 <div>
2 <div>
3 <div>
4 <div>
4 <section>
4 text "deep"
4 <p>
4 text "x"
! 15 NestingTooDeep { name: "div", depth: 4 }
! 37 StrayEndTag { name: "p" }
! 41 StrayEndTag { name: "section" }
! 69 StrayEndTag { name: "div" }
"####
        )
    );
}

#[test]
fn token_and_node_ceilings() {
    let tokens = IngestBudget {
        max_tokens: 5,
        ..IngestBudget::default()
    };
    assert_eq!(
        budgeted(DEEP, &tokens),
        "error ingestion budget exhausted: 6 tokens used, cap 5\n"
    );
    let nodes = IngestBudget {
        max_nodes: 4,
        ..IngestBudget::default()
    };
    assert_eq!(
        budgeted(DEEP, &nodes),
        "error ingestion budget exhausted: 5 nodes used, cap 4\n"
    );
}
