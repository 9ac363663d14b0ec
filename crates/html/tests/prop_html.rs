//! Property tests for the HTML substrate: parsing is total, entity
//! decode/encode round-trips, the DOM tree is structurally sound, and
//! text extraction preserves escaped content.
// Property-test bodies and helpers sit outside #[test] fns; panics are the
// assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_html::{entities, Document};
use proptest::prelude::*;

proptest! {
    /// Any byte soup parses without panicking and yields a tree whose
    /// parent/child links are mutually consistent.
    #[test]
    fn parsing_is_total_and_tree_is_sound(input in "\\PC{0,300}") {
        let doc = Document::parse(&input);
        for id in doc.descendants(doc.root()) {
            let parent = doc.parent(id).expect("non-root nodes have parents");
            prop_assert!(
                doc.children(parent).any(|c| c == id),
                "child missing from its parent's list"
            );
        }
    }

    /// Markup-heavy soup also parses safely.
    #[test]
    fn markupish_soup_is_safe(input in "[<>a-z/\"'= !-]{0,200}") {
        let doc = Document::parse(&input);
        let _ = doc.text_of(doc.root());
        let _ = doc.text_lines(doc.root());
    }

    /// encode_text → decode is the identity on arbitrary text.
    #[test]
    fn entity_round_trip(text in "\\PC{0,100}") {
        let encoded = entities::encode_text(&text);
        prop_assert_eq!(entities::decode(&encoded), text);
    }

    /// Text placed inside an element (escaped) is recovered verbatim by
    /// text extraction, modulo whitespace normalisation.
    #[test]
    fn escaped_text_survives_extraction(words in prop::collection::vec("[a-zA-Z0-9<>&-]{1,10}", 1..8)) {
        let text = words.join(" ");
        let html = format!("<p>{}</p>", entities::encode_text(&text));
        let doc = Document::parse(&html);
        let p = doc.children(doc.root()).next().expect("one element");
        prop_assert_eq!(doc.text_of(p), text);
    }

    /// Attribute values round-trip through attribute encoding.
    #[test]
    fn attr_values_survive(value in "[a-zA-Z0-9 <&\"'-]{0,40}") {
        let html = format!(r#"<div data-x="{}">x</div>"#, entities::encode_attr(&value));
        let doc = Document::parse(&html);
        let div = doc.children(doc.root()).next().expect("one element");
        let got = doc.attr(div, "data-x").unwrap_or("");
        prop_assert_eq!(got, value.as_str());
    }

    /// Well-formed nesting produces matching element counts.
    #[test]
    fn balanced_elements_all_materialise(n in 1usize..20) {
        let mut html = String::new();
        for i in 0..n {
            html.push_str(&format!("<div class=\"c{i}\">"));
        }
        html.push_str("leaf");
        for _ in 0..n {
            html.push_str("</div>");
        }
        let doc = Document::parse(&html);
        prop_assert_eq!(doc.select_tag("div").count(), n);
    }
}
