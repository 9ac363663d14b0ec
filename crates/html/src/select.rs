//! Element selection.
//!
//! A [`Selector`] is a conjunction of simple predicates (tag name, classes,
//! attribute presence/equality) — the fragment of CSS that manual parsing
//! actually uses. Combinators are intentionally absent: the parser
//! framework walks structure explicitly, because vendor page structure is
//! part of what it must reason about (e.g. "the section body is the run of
//! siblings after a `sectiontitle` until the next one").

use crate::dom::{Document, NodeId};

/// Attribute predicate of a [`Selector`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum AttrPred {
    /// `[name]` — attribute present.
    Present(String),
    /// `[name="value"]` — attribute equals value.
    Equals(String, String),
}

/// A simple-selector conjunction, e.g. `p.pCE_CmdEnv[data-x="1"]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Selector {
    tag: Option<String>,
    classes: Vec<String>,
    attrs: Vec<AttrPred>,
}

impl Selector {
    /// Selector matching any element.
    pub fn any() -> Selector {
        Selector::default()
    }

    /// Restrict to elements with tag `name` (case-insensitive).
    pub fn tag(mut self, name: &str) -> Selector {
        self.tag = Some(name.to_ascii_lowercase());
        self
    }

    /// Require class `name` in the element's class list.
    pub fn class(mut self, name: &str) -> Selector {
        self.classes.push(name.to_string());
        self
    }

    /// Require attribute `name` to be present.
    pub fn attr(mut self, name: &str) -> Selector {
        self.attrs.push(AttrPred::Present(name.to_ascii_lowercase()));
        self
    }

    /// Require attribute `name` to equal `value`.
    pub fn attr_eq(mut self, name: &str, value: &str) -> Selector {
        self.attrs
            .push(AttrPred::Equals(name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// Parse a tiny CSS-like syntax: `tag.class1.class2[attr][attr=value]`.
    /// Every component is optional; an empty string matches any element.
    ///
    /// ```
    /// use nassim_html::Selector;
    /// let s = Selector::parse("p.pCE_CmdEnv");
    /// assert_eq!(s, Selector::any().tag("p").class("pCE_CmdEnv"));
    /// ```
    pub fn parse(input: &str) -> Selector {
        let mut sel = Selector::default();
        let mut rest = input.trim();
        // Tag name: leading run up to '.', '[' or end.
        let tag_end = rest
            .find(['.', '['])
            .unwrap_or(rest.len());
        if tag_end > 0 {
            sel.tag = Some(rest[..tag_end].to_ascii_lowercase());
        }
        rest = &rest[tag_end..];
        while !rest.is_empty() {
            if let Some(r) = rest.strip_prefix('.') {
                let end = r.find(['.', '[']).unwrap_or(r.len());
                if end > 0 {
                    sel.classes.push(r[..end].to_string());
                }
                rest = &r[end..];
            } else if let Some(r) = rest.strip_prefix('[') {
                let end = r.find(']').unwrap_or(r.len());
                let body = &r[..end];
                match body.split_once('=') {
                    Some((k, v)) => sel.attrs.push(AttrPred::Equals(
                        k.trim().to_ascii_lowercase(),
                        v.trim().trim_matches('"').trim_matches('\'').to_string(),
                    )),
                    None => sel
                        .attrs
                        .push(AttrPred::Present(body.trim().to_ascii_lowercase())),
                }
                rest = r.get(end + 1..).unwrap_or("");
            } else {
                break; // unparseable remainder: ignore
            }
        }
        sel
    }

    /// True if node `id` in `doc` is an element satisfying this selector.
    pub fn matches(&self, doc: &Document, id: NodeId) -> bool {
        let Some(el) = doc.element(id) else {
            return false;
        };
        if let Some(tag) = &self.tag {
            if el.name != tag.as_str() {
                return false;
            }
        }
        if !self.classes.iter().all(|c| el.has_class(c)) {
            return false;
        }
        self.attrs.iter().all(|p| match p {
            AttrPred::Present(name) => el.attr(name).is_some(),
            AttrPred::Equals(name, value) => el.attr(name) == Some(value.as_str()),
        })
    }
}

impl Document<'_> {
    /// All elements under the root matching `selector`, in document order.
    pub fn select<'d>(&'d self, selector: &'d Selector) -> impl Iterator<Item = NodeId> + 'd {
        self.select_under(self.root(), selector)
    }

    /// All elements under `scope` (exclusive) matching `selector`.
    pub fn select_under<'d>(
        &'d self,
        scope: NodeId,
        selector: &'d Selector,
    ) -> impl Iterator<Item = NodeId> + 'd {
        let doc = self.shorten();
        doc.descendants(scope)
            .filter(move |&id| selector.matches(doc, id))
    }

    /// Convenience: elements carrying class `class`.
    pub fn select_class(&self, class: &str) -> impl Iterator<Item = NodeId> + '_ {
        let class = class.to_string();
        let doc = self.shorten();
        doc.descendants(doc.root())
            .filter(move |&id| doc.element(id).is_some_and(|e| e.has_class(&class)))
    }

    /// Convenience: elements with tag `name`.
    pub fn select_tag(&self, name: &str) -> impl Iterator<Item = NodeId> + '_ {
        let name = name.to_ascii_lowercase();
        let doc = self.shorten();
        doc.descendants(doc.root())
            .filter(move |&id| doc.element(id).is_some_and(|e| e.name == name))
    }

    /// First element matching `selector`, if any.
    pub fn select_first(&self, selector: &Selector) -> Option<NodeId> {
        self.select(selector).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"
        <div class="chapter">
          <div class="sectiontitle">Format</div>
          <p class="pCE_CmdEnv">show vlan [vlanid]</p>
          <div class="sectiontitle">Parameters</div>
          <table><tr><td class="param">vlanid</td><td>VLAN identifier</td></tr></table>
          <p class="pCE_CmdEnv pCENB_CmdEnv_NoBold" data-rev="2">no vlan [vlanid]</p>
        </div>"#;

    #[test]
    fn select_by_class() {
        let doc = Document::parse(PAGE);
        assert_eq!(doc.select_class("pCE_CmdEnv").count(), 2);
        assert_eq!(doc.select_class("sectiontitle").count(), 2);
    }

    #[test]
    fn select_by_tag() {
        let doc = Document::parse(PAGE);
        assert_eq!(doc.select_tag("td").count(), 2);
        assert_eq!(doc.select_tag("P").count(), 2);
    }

    #[test]
    fn conjunction_of_predicates() {
        let doc = Document::parse(PAGE);
        let sel = Selector::any()
            .tag("p")
            .class("pCENB_CmdEnv_NoBold")
            .attr_eq("data-rev", "2");
        let hits: Vec<_> = doc.select(&sel).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.text_of(hits[0]), "no vlan [vlanid]");
    }

    #[test]
    fn parse_selector_syntax() {
        assert_eq!(Selector::parse("p"), Selector::any().tag("p"));
        assert_eq!(
            Selector::parse("p.a.b"),
            Selector::any().tag("p").class("a").class("b")
        );
        assert_eq!(
            Selector::parse(".cls[href]"),
            Selector::any().class("cls").attr("href")
        );
        assert_eq!(
            Selector::parse(r#"td[class="param"]"#),
            Selector::any().tag("td").attr_eq("class", "param")
        );
        assert_eq!(Selector::parse(""), Selector::any());
    }

    #[test]
    fn select_under_scopes_search() {
        let doc = Document::parse("<div id=a><p class=x>1</p></div><div id=b><p class=x>2</p></div>");
        let sel = Selector::parse("div");
        let divs: Vec<_> = doc.select(&sel).collect();
        let inner = Selector::parse("p.x");
        let in_a: Vec<_> = doc.select_under(divs[0], &inner).collect();
        assert_eq!(in_a.len(), 1);
        assert_eq!(doc.text_of(in_a[0]), "1");
    }

    #[test]
    fn select_first_returns_document_order() {
        let doc = Document::parse(PAGE);
        let first = doc.select_first(&Selector::parse(".pCE_CmdEnv")).unwrap();
        assert_eq!(doc.text_of(first), "show vlan [vlanid]");
    }

    #[test]
    fn attr_present_predicate() {
        let doc = Document::parse(PAGE);
        let sel = Selector::any().attr("data-rev");
        assert_eq!(doc.select(&sel).count(), 1);
    }
}
