//! Synthetic vendor identities.
//!
//! Four vendors render the same catalog the way Cisco, Huawei, Nokia and
//! H3C render the same networking concepts (paper Tables 1 & 2):
//!
//! | Synthetic | Models      | Manual traits |
//! |-----------|-------------|---------------|
//! | `cirrus`  | Cisco-like  | `show`/`no` wording, `pCE_CmdEnv`-style CSS classes with *inconsistent variants*, Examples-based hierarchy |
//! | `helix`   | Huawei-like | `display`/`undo` wording, `sectiontitle` sections, Examples-based hierarchy, large model |
//! | `norsk`   | Nokia-like  | `SyntaxHeader` sections, **explicit context paths instead of examples** (Table 4 footnote), large model |
//! | `h4c`     | H3C-like    | single `Command` CSS class for every section, Examples-based hierarchy |
//!
//! A style is pure data plus rendering functions: it rewrites canonical
//! keywords/parameters into vendor surface forms and knows the CSS
//! vocabulary of its manual HTML.

use crate::catalog::CatalogCommand;
use nassim_diag::NassimError;
use rand::Rng;
use std::collections::BTreeMap;

/// How a vendor's manual conveys command hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyStyle {
    /// Indented instance snippets under an `Examples` section (Cisco,
    /// Huawei, H3C); hierarchy must be *derived* (§5.2).
    Examples,
    /// An explicit context path per command (Nokia); hierarchy can be
    /// parsed directly.
    ExplicitContext,
}

/// CSS class names of the five Table-1 attributes, with optional
/// inconsistent variants (the `pCE_CmdEnv` vs `pCENB_CmdEnv_NoBold`
/// problem of §2.2). `variant_rate` is the fraction of pages that use the
/// variant class instead of the primary one.
#[derive(Debug, Clone)]
pub struct CssVocabulary {
    pub clis: &'static str,
    pub clis_variant: Option<&'static str>,
    pub func_def: &'static str,
    pub parent_views: &'static str,
    pub para_def: &'static str,
    pub examples: &'static str,
    /// Class wrapping keyword spans inside CLI text, plus variants.
    pub keyword_span: &'static [&'static str],
    /// Class wrapping parameter spans inside CLI text, plus variants.
    pub param_span: &'static [&'static str],
    /// Probability that a page uses `clis_variant` / a non-primary keyword
    /// span class.
    pub variant_rate: f64,
}

/// A synthetic vendor identity.
#[derive(Debug, Clone)]
pub struct VendorStyle {
    /// Vendor id: `cirrus`, `helix`, `norsk` or `h4c`.
    pub name: &'static str,
    /// Marketing-ish device model name for reports (Table 4 header).
    pub device_model: &'static str,
    /// Keyword rewrites (canonical → vendor surface form).
    keyword_map: BTreeMap<&'static str, &'static str>,
    /// Parameter-name rewrites (canonical → vendor surface form).
    param_map: BTreeMap<&'static str, &'static str>,
    /// The undo/no/delete keyword of this vendor.
    pub undo_keyword: &'static str,
    /// View name template: `{}` is replaced by the human view stem, e.g.
    /// `BGP` → `BGP view` / `BGP configuration mode` / `configure router bgp`.
    view_fmt: &'static str,
    /// Root view name.
    pub root_view: &'static str,
    /// How the manual conveys hierarchy.
    pub hierarchy: HierarchyStyle,
    /// Manual CSS vocabulary.
    pub css: CssVocabulary,
    /// Function-description framing: prefix applied to catalog prose.
    func_prefix: &'static str,
}

fn map(entries: &[(&'static str, &'static str)]) -> BTreeMap<&'static str, &'static str> {
    entries.iter().copied().collect()
}

/// All four vendor styles. Order matches Table 4 of the paper
/// (Cisco-like, Huawei-like, Nokia-like, H3C-like ↔ cirrus, helix, norsk, h4c).
pub fn vendors() -> Vec<VendorStyle> {
    vec![cirrus(), helix(), norsk(), h4c()]
}

/// Static accessor used across benches/tests.
pub const VENDORS: [&str; 4] = ["cirrus", "helix", "norsk", "h4c"];

/// Look up one style by name.
///
/// Unknown names return [`NassimError::UnknownVendor`] listing the
/// registered vendors, so callers can print an actionable message.
pub fn vendor(name: &str) -> Result<VendorStyle, NassimError> {
    vendors()
        .into_iter()
        .find(|v| v.name == name)
        .ok_or_else(|| NassimError::UnknownVendor {
            vendor: name.to_string(),
            known: VENDORS.iter().map(|v| v.to_string()).collect(),
        })
}

fn cirrus() -> VendorStyle {
    VendorStyle {
        name: "cirrus",
        device_model: "Cirrus/Nimbus5500/2011",
        keyword_map: map(&[
            ("display", "show"),
            ("undo", "no"),
            ("sysname", "hostname"),
            ("route-static", "route"),
            ("info-center", "logging"),
            ("loghost", "host"),
            ("header", "banner"),
            ("vlan", "vlan"),
            ("peer", "neighbor"),
            ("ipv4-family", "address-family"),
            ("quit", "exit"),
        ]),
        param_map: map(&[
            ("ipv4-address", "ip-addr"),
            ("peer-address", "neighbor-addr"),
            ("as-number", "as-num"),
            ("mask-length", "length"),
            ("vlan-id", "vlanid"),
            ("description-text", "desc-string"),
            ("interface-id", "intf-id"),
        ]),
        undo_keyword: "no",
        view_fmt: "{} configuration mode",
        root_view: "global configuration mode",
        hierarchy: HierarchyStyle::Examples,
        css: CssVocabulary {
            clis: "pCE_CmdEnv",
            clis_variant: Some("pCENB_CmdEnv_NoBold"),
            func_def: "pB1_Body1",
            parent_views: "pCRCM_CmdRefCmdModes",
            para_def: "pCRSD_CmdRefSynDesc",
            examples: "pCRE_CmdRefExample",
            keyword_span: &["cKeyword", "cBold", "cCN_CmdName"],
            param_span: &["cParamName", "cItalic"],
            variant_rate: 0.12,
        },
        func_prefix: "Use this command to",
    }
}

fn helix() -> VendorStyle {
    VendorStyle {
        name: "helix",
        device_model: "Helix/NE40E/2021",
        // The catalog's canonical wording is already Huawei-flavoured.
        keyword_map: map(&[]),
        param_map: map(&[]),
        undo_keyword: "undo",
        view_fmt: "{} view",
        root_view: "system view",
        hierarchy: HierarchyStyle::Examples,
        css: CssVocabulary {
            clis: "sectiontitle-format",
            clis_variant: None,
            func_def: "sectiontitle-function",
            parent_views: "sectiontitle-views",
            para_def: "sectiontitle-parameters",
            examples: "sectiontitle-examples",
            keyword_span: &["cmdname", "strong"],
            param_span: &["paramvalue"],
            variant_rate: 0.10,
        },
        func_prefix: "",
    }
}

fn norsk() -> VendorStyle {
    VendorStyle {
        name: "norsk",
        device_model: "Norsk/7750SR/2021",
        keyword_map: map(&[
            ("display", "show"),
            ("undo", "no"),
            ("sysname", "system-name"),
            ("vlan", "vlan"),
            ("ip", "ip"),
            ("acl", "filter"),
            ("interface", "port"),
        ]),
        param_map: map(&[
            ("ipv4-address", "ip-address"),
            ("peer-address", "ip-address"),
            ("as-number", "autonomous-system"),
            ("vlan-id", "service-id"),
            ("interface-id", "port-id"),
            ("acl-number", "filter-id"),
        ]),
        undo_keyword: "no",
        view_fmt: "configure {}",
        root_view: "configure",
        hierarchy: HierarchyStyle::ExplicitContext,
        css: CssVocabulary {
            clis: "SyntaxHeader",
            clis_variant: None,
            func_def: "DescriptionHeader",
            parent_views: "ContextHeader",
            para_def: "ParametersHeader",
            examples: "ExamplesHeader", // unused: norsk manuals have no examples
            keyword_span: &["CmdText"],
            param_span: &["ArgText"],
            variant_rate: 0.0,
        },
        func_prefix: "This command",
    }
}

fn h4c() -> VendorStyle {
    VendorStyle {
        name: "h4c",
        device_model: "H4C/S3600/2009",
        keyword_map: map(&[("ipv4-family", "address-family")]),
        param_map: map(&[("interface-id", "interface-number")]),
        undo_keyword: "undo",
        view_fmt: "{} view",
        root_view: "system view",
        hierarchy: HierarchyStyle::Examples,
        css: CssVocabulary {
            clis: "Command",
            clis_variant: None,
            func_def: "Command",
            parent_views: "Command",
            para_def: "Command",
            examples: "Command",
            keyword_span: &["cmdkw"],
            param_span: &["cmdarg"],
            variant_rate: 0.0,
        },
        func_prefix: "",
    }
}

impl VendorStyle {
    /// Rewrite one canonical keyword into this vendor's surface form.
    pub fn keyword(&self, canonical: &str) -> String {
        self.keyword_map
            .get(canonical)
            .map(|s| s.to_string())
            .unwrap_or_else(|| canonical.to_string())
    }

    /// Rewrite one canonical parameter name.
    pub fn param(&self, canonical: &str) -> String {
        self.param_map
            .get(canonical)
            .map(|s| s.to_string())
            .unwrap_or_else(|| canonical.to_string())
    }

    /// Render a canonical template into vendor surface syntax, token by
    /// token. Group punctuation is preserved.
    pub fn render_template(&self, canonical_template: &str) -> String {
        canonical_template
            .split_whitespace()
            .map(|tok| match tok {
                "{" | "}" | "[" | "]" | "|" => tok.to_string(),
                _ => {
                    if let Some(name) = tok.strip_prefix('<').and_then(|t| t.strip_suffix('>')) {
                        format!("<{}>", self.param(name))
                    } else {
                        self.keyword(tok)
                    }
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The undo/no form of a rendered template (documented alongside the
    /// positive form on the same manual page).
    pub fn render_undo(&self, canonical_template: &str) -> String {
        format!(
            "{} {}",
            self.undo_keyword,
            self.render_template(canonical_template)
        )
    }

    /// Render a view key (e.g. `bgp-af-view`) into this vendor's view
    /// name (e.g. `BGP-IPv4-unicast view` / `configure bgp-ipv4-unicast`).
    pub fn view_name(&self, view_key: &str) -> String {
        if view_key == "system" {
            return self.root_view.to_string();
        }
        let stem = view_key.trim_end_matches("-view");
        let human = match stem {
            "bgp" => "BGP".to_string(),
            "bgp-af" => "BGP-IPv4 unicast".to_string(),
            "ospf" => "OSPF".to_string(),
            "ospf-area" => "OSPF area".to_string(),
            "isis" => "IS-IS".to_string(),
            "acl" => "ACL".to_string(),
            "aaa" => "AAA".to_string(),
            "mpls" => "MPLS".to_string(),
            other => other.replace('-', " "),
        };
        self.view_fmt.replace("{}", &human)
    }

    /// Vendor framing of a catalog function description.
    pub fn render_func(&self, canonical_func: &str) -> String {
        if self.func_prefix.is_empty() {
            canonical_func.to_string()
        } else if self.func_prefix == "Use this command to" {
            // "Creates a VLAN." → "Use this command to create a VLAN."
            let mut chars = canonical_func.chars();
            let first = chars
                .next()
                .map(|c| c.to_lowercase().to_string())
                .unwrap_or_default();
            let rest = chars.as_str();
            let lowered = format!("{first}{rest}");
            let softened = soften_third_person(&lowered);
            format!("{} {}", self.func_prefix, softened)
        } else {
            // "Creates a VLAN." → "This command creates a VLAN."
            let mut chars = canonical_func.chars();
            let first = chars
                .next()
                .map(|c| c.to_lowercase().to_string())
                .unwrap_or_default();
            format!("{} {}{}", self.func_prefix, first, chars.as_str())
        }
    }

    /// Render the per-vendor CLI forms documented on one manual page.
    pub fn cli_forms(&self, cmd: &CatalogCommand) -> Vec<String> {
        let mut forms = vec![self.render_template(&cmd.template)];
        if cmd.has_undo {
            forms.push(self.render_undo(&cmd.template));
        }
        forms
    }

    /// Pick the CLI-section CSS class for one page; `roll` is a uniform
    /// random draw in `[0,1)` so callers control determinism.
    pub fn clis_class(&self, roll: f64) -> &'static str {
        match self.css.clis_variant {
            Some(variant) if roll < self.css.variant_rate => variant,
            _ => self.css.clis,
        }
    }

    /// Pick the parameter-span class for one page.
    pub fn param_span_class<R: Rng + ?Sized>(&self, rng: &mut R) -> &'static str {
        let spans = self.css.param_span;
        if spans.len() == 1 || !rng.gen_bool(self.css.variant_rate.clamp(0.0, 1.0)) {
            spans[0]
        } else {
            spans[1 + rng.gen_range(0..spans.len() - 1)]
        }
    }

    /// Pick the keyword-span class for one page.
    pub fn keyword_span_class<R: Rng + ?Sized>(&self, rng: &mut R) -> &'static str {
        let spans = self.css.keyword_span;
        if spans.len() == 1 || !rng.gen_bool(self.css.variant_rate.clamp(0.0, 1.0)) {
            spans[0]
        } else {
            spans[1 + rng.gen_range(0..spans.len() - 1)]
        }
    }
}

/// Convert leading third-person verbs to the imperative-ish form used in
/// Cisco-style "Use this command to …" sentences.
fn soften_third_person(text: &str) -> String {
    const VERBS: &[(&str, &str)] = &[
        ("creates ", "create "),
        ("sets ", "set "),
        ("configures ", "configure "),
        ("enables ", "enable "),
        ("disables ", "disable "),
        ("displays ", "display "),
        ("adds ", "add "),
        ("enters ", "enter "),
        ("assigns ", "assign "),
        ("advertises ", "advertise "),
        ("specifies ", "specify "),
        ("suppresses ", "suppress "),
        ("filters ", "filter "),
        ("applies ", "apply "),
        ("shapes ", "shape "),
        ("re-marks ", "re-mark "),
        ("shuts ", "shut "),
    ];
    for (third, imperative) in VERBS {
        if let Some(rest) = text.strip_prefix(third) {
            return format!("{imperative}{rest}");
        }
    }
    text.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use nassim_syntax::parse_template;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn four_distinct_vendors() {
        let vs = vendors();
        assert_eq!(vs.len(), 4);
        let names: Vec<&str> = vs.iter().map(|v| v.name).collect();
        assert_eq!(names, VENDORS.to_vec());
    }

    #[test]
    fn table2_style_divergence_on_vlan_commands() {
        // Paper Table 2: same intent, visibly different syntax.
        let cat = Catalog::base();
        let check = cat.command("display.vlan").unwrap();
        let cirrus = vendor("cirrus").unwrap().render_template(&check.template);
        let helix = vendor("helix").unwrap().render_template(&check.template);
        assert!(cirrus.starts_with("show vlan"));
        assert!(helix.starts_with("display vlan"));
        assert_ne!(cirrus, helix);
    }

    #[test]
    fn undo_forms_differ_per_vendor() {
        let cat = Catalog::base();
        let vlan = cat.command("vlan.create").unwrap();
        assert!(vendor("cirrus")
            .unwrap()
            .render_undo(&vlan.template)
            .starts_with("no "));
        assert!(vendor("helix")
            .unwrap()
            .render_undo(&vlan.template)
            .starts_with("undo "));
    }

    #[test]
    fn rendered_templates_stay_grammatical() {
        // Vendor rewriting must never break the formal syntax.
        let cat = Catalog::with_scale(100);
        for v in vendors() {
            for c in &cat.commands {
                let rendered = v.render_template(&c.template);
                assert!(
                    parse_template(&rendered).is_ok(),
                    "{} rendering of {} breaks syntax: {rendered}",
                    v.name,
                    c.key
                );
            }
        }
    }

    #[test]
    fn param_renames_apply_inside_brackets() {
        let v = vendor("cirrus").unwrap();
        let r = v.render_template("peer <peer-address> as-number <as-number>");
        assert_eq!(r, "neighbor <neighbor-addr> as-number <as-num>");
    }

    #[test]
    fn view_names_follow_vendor_convention() {
        assert_eq!(vendor("helix").unwrap().view_name("bgp-view"), "BGP view");
        assert_eq!(
            vendor("cirrus").unwrap().view_name("bgp-view"),
            "BGP configuration mode"
        );
        assert_eq!(
            vendor("norsk").unwrap().view_name("bgp-view"),
            "configure BGP"
        );
        assert_eq!(vendor("helix").unwrap().view_name("system"), "system view");
    }

    #[test]
    fn func_framing_per_vendor() {
        let f = "Creates a VLAN and enters the VLAN view.";
        assert_eq!(
            vendor("cirrus").unwrap().render_func(f),
            "Use this command to create a VLAN and enters the VLAN view."
        );
        assert_eq!(
            vendor("norsk").unwrap().render_func(f),
            "This command creates a VLAN and enters the VLAN view."
        );
        assert_eq!(vendor("helix").unwrap().render_func(f), f);
    }

    #[test]
    fn cirrus_css_variant_appears_at_configured_rate() {
        let v = vendor("cirrus").unwrap();
        assert_eq!(v.clis_class(0.5), "pCE_CmdEnv");
        assert_eq!(v.clis_class(0.05), "pCENB_CmdEnv_NoBold");
        // Keyword span classes rotate among the Table-1 variants.
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(v.keyword_span_class(&mut rng));
        }
        assert!(seen.len() >= 2, "expected class variants, saw {seen:?}");
    }

    #[test]
    fn norsk_uses_explicit_context() {
        let v = vendor("norsk").unwrap();
        assert_eq!(v.hierarchy, HierarchyStyle::ExplicitContext);
        assert_eq!(v.css.parent_views, "ContextHeader");
    }

    #[test]
    fn unknown_vendor_is_actionable_error() {
        let err = match vendor("acme") {
            Err(e) => e,
            Ok(v) => panic!("`acme` resolved to {}", v.name),
        };
        let msg = err.to_string();
        assert!(msg.contains("acme"), "{msg}");
        for known in VENDORS {
            assert!(msg.contains(known), "{msg} missing {known}");
        }
    }
}
