//! Running-device configuration file generation (§5.3 / §7.2 data).
//!
//! The paper validates parsed models against 613 configuration files
//! collected from data-center devices, and observes heavy *template skew*:
//! the Huawei set exercises only 153 of 12 874 templates, "where the same
//! set of functions are used in thousands of devices". The generator
//! reproduces both properties:
//!
//! * instances are drawn only from the true catalog hierarchy, with
//!   opener-chain stanzas and one-space-per-level indentation (the format
//!   empirical validation parses back, Figure 8);
//! * only a small *active set* of templates appears (configurable
//!   fraction), reused across many files with different parameter values.

use crate::catalog::{Catalog, CatalogCommand};
use crate::style::VendorStyle;
use nassim_cgm::{generate::sample_instance, CliGraph};
use nassim_syntax::parse_template;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One generated configuration file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigFile {
    /// Device-ish name, e.g. `helix-dc1-leaf07.cfg`.
    pub name: String,
    /// Configuration lines, leading spaces meaningful.
    pub lines: Vec<String>,
}

impl ConfigFile {
    /// The full text of the file.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }
}

/// Knobs of config generation.
#[derive(Debug, Clone)]
pub struct ConfigGenOptions {
    pub seed: u64,
    /// Number of files to generate.
    pub files: usize,
    /// Fraction of eligible templates in the active set (the skew knob;
    /// the paper's DC data uses ≈1.2% of templates).
    pub active_fraction: f64,
    /// Mean number of top-level stanzas per file.
    pub stanzas_per_file: usize,
}

impl Default for ConfigGenOptions {
    fn default() -> Self {
        ConfigGenOptions {
            seed: 0,
            files: 20,
            active_fraction: 0.35,
            stanzas_per_file: 12,
        }
    }
}

/// A generated corpus of config files plus bookkeeping for Table 4.
#[derive(Debug, Clone)]
pub struct ConfigCorpus {
    pub vendor: String,
    pub files: Vec<ConfigFile>,
    /// Catalog keys of templates in the active set.
    pub active_templates: Vec<String>,
}

impl ConfigCorpus {
    /// Total number of command-instance lines.
    pub fn total_lines(&self) -> usize {
        self.files.iter().map(|f| f.lines.len()).sum()
    }

    /// Number of distinct lines (the paper reports both).
    pub fn unique_lines(&self) -> usize {
        let mut set: Vec<&str> = self
            .files
            .iter()
            .flat_map(|f| f.lines.iter().map(|l| l.as_str()))
            .collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }
}

/// Generate a corpus of configuration files for `style`'s rendering of
/// `catalog`.
pub fn generate(style: &VendorStyle, catalog: &Catalog, opts: &ConfigGenOptions) -> ConfigCorpus {
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Eligible commands: configuration commands only — no `display`/`show`
    // operational commands in a stored config.
    let eligible: Vec<&CatalogCommand> = catalog
        .commands
        .iter()
        .filter(|c| c.group != "display")
        .collect();

    // Active set: view openers needed for structure, plus a sampled
    // fraction of leaf commands.
    let openers: Vec<&CatalogCommand> = eligible
        .iter()
        .copied()
        .filter(|c| c.opens.is_some())
        .collect();
    let mut leaves: Vec<&CatalogCommand> = eligible
        .iter()
        .copied()
        .filter(|c| c.opens.is_none())
        .collect();
    leaves.shuffle(&mut rng);
    let keep = ((leaves.len() as f64) * opts.active_fraction).ceil() as usize;
    leaves.truncate(keep.max(1));

    // Active openers: only those whose views have at least one active leaf
    // (plus parents of nested active views).
    let active_views: Vec<&str> = leaves
        .iter()
        .flat_map(|c| {
            std::iter::once(c.view.as_str()).chain(c.also_views.iter().map(String::as_str))
        })
        .collect();
    let active_openers: Vec<&CatalogCommand> = openers
        .iter()
        .copied()
        .filter(|o| {
            o.opens
                .as_deref()
                .is_some_and(|opened| view_or_descendant_active(catalog, opened, &active_views))
        })
        .collect();

    let mut graphs: BTreeMap<&str, CliGraph> = BTreeMap::new();
    for c in leaves.iter().chain(active_openers.iter()) {
        let rendered = style.render_template(&c.template);
        // Base catalog templates always render grammatical; skip defensively.
        if let Ok(structure) = parse_template(&rendered) {
            graphs.insert(c.key.as_str(), CliGraph::build(&structure));
        }
    }

    let mut files = Vec::with_capacity(opts.files);
    for i in 0..opts.files {
        let mut lines = Vec::new();
        let stanzas = opts.stanzas_per_file.max(1);
        for _ in 0..stanzas {
            emit_stanza(
                &leaves,
                &active_openers,
                &graphs,
                "system",
                0,
                &mut lines,
                &mut rng,
            );
        }
        files.push(ConfigFile {
            name: format!("{}-dc1-node{:03}.cfg", style.name, i),
            lines,
        });
    }

    let mut active_templates: Vec<String> = leaves
        .iter()
        .chain(active_openers.iter())
        .map(|c| c.key.clone())
        .collect();
    active_templates.sort();
    active_templates.dedup();

    ConfigCorpus {
        vendor: style.name.to_string(),
        files,
        active_templates,
    }
}

/// Does `view` or any view nested beneath it contain an active leaf?
fn view_or_descendant_active(catalog: &Catalog, view: &str, active_views: &[&str]) -> bool {
    if active_views.contains(&view) {
        return true;
    }
    catalog
        .views
        .iter()
        .filter(|v| v.parent == view && v.key != view)
        .any(|v| view_or_descendant_active(catalog, &v.key, active_views))
}

/// Emit one stanza rooted at `view`: either a few leaf instances (at the
/// root) or an opener instance followed by indented children.
#[allow(clippy::too_many_arguments)]
fn emit_stanza(
    leaves: &[&CatalogCommand],
    openers: &[&CatalogCommand],
    graphs: &BTreeMap<&str, CliGraph>,
    view: &str,
    depth: usize,
    lines: &mut Vec<String>,
    rng: &mut StdRng,
) {
    let indent = " ".repeat(depth);
    let works_in =
        |c: &CatalogCommand, view: &str| c.view == view || c.also_views.iter().any(|v| v == view);
    // Pick: leaf instance(s) in this view, or descend through an opener.
    let view_leaves: Vec<&&CatalogCommand> = leaves.iter().filter(|c| works_in(c, view)).collect();
    let view_openers: Vec<&&CatalogCommand> =
        openers.iter().filter(|c| works_in(c, view)).collect();

    let descend = !view_openers.is_empty() && (view_leaves.is_empty() || rng.gen_bool(0.5));
    if descend {
        let opener = view_openers[rng.gen_range(0..view_openers.len())];
        // Every active opener has a graph and an opened view by
        // construction; bail out of the stanza rather than panic if not.
        let (Some(g), Some(opened)) = (graphs.get(opener.key.as_str()), opener.opens.as_deref())
        else {
            return;
        };
        lines.push(format!("{indent}{}", sample_instance(g, rng)));
        // Children: 1–3 leaf instances plus possibly a nested stanza.
        let child_leaves: Vec<&&CatalogCommand> =
            leaves.iter().filter(|c| works_in(c, opened)).collect();
        if !child_leaves.is_empty() {
            let n = rng.gen_range(1..=3usize.min(child_leaves.len()));
            for _ in 0..n {
                let leaf = child_leaves[rng.gen_range(0..child_leaves.len())];
                if let Some(g) = graphs.get(leaf.key.as_str()) {
                    lines.push(format!("{indent} {}", sample_instance(g, rng)));
                }
            }
        }
        // Nested views (e.g. bgp → ipv4-family) with probability.
        let nested: Vec<&&CatalogCommand> =
            openers.iter().filter(|c| works_in(c, opened)).collect();
        if !nested.is_empty() && rng.gen_bool(0.6) {
            emit_stanza(leaves, openers, graphs, opened, depth + 1, lines, rng);
        }
    } else if !view_leaves.is_empty() {
        let leaf = view_leaves[rng.gen_range(0..view_leaves.len())];
        if let Some(g) = graphs.get(leaf.key.as_str()) {
            lines.push(format!("{indent}{}", sample_instance(g, rng)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::style::vendor;
    use nassim_cgm::matching::is_cli_match;

    fn corpus(seed: u64) -> (ConfigCorpus, Catalog, VendorStyle) {
        let cat = Catalog::base();
        let style = vendor("helix").unwrap();
        let c = generate(
            &style,
            &cat,
            &ConfigGenOptions {
                seed,
                files: 8,
                active_fraction: 0.4,
                stanzas_per_file: 10,
            },
        );
        (c, cat, style)
    }

    #[test]
    fn generates_requested_file_count() {
        let (c, _, _) = corpus(1);
        assert_eq!(c.files.len(), 8);
        assert!(c.total_lines() > 0);
        assert!(c.unique_lines() <= c.total_lines());
    }

    #[test]
    fn active_set_is_a_strict_subset() {
        let (c, cat, _) = corpus(2);
        let config_cmds = cat.commands.iter().filter(|x| x.group != "display").count();
        assert!(c.active_templates.len() < config_cmds);
        assert!(!c.active_templates.is_empty());
    }

    #[test]
    fn no_display_commands_in_configs() {
        let (c, _, _) = corpus(3);
        for f in &c.files {
            for l in &f.lines {
                assert!(
                    !l.trim_start().starts_with("display "),
                    "operational cmd in config: {l}"
                );
            }
        }
    }

    #[test]
    fn every_line_matches_some_catalog_template() {
        // The §7.2 100%-matching property must hold by construction
        // against the *true* model.
        let (c, cat, style) = corpus(4);
        let graphs: Vec<CliGraph> = cat
            .commands
            .iter()
            .map(|cmd| {
                CliGraph::build(&parse_template(&style.render_template(&cmd.template)).unwrap())
            })
            .collect();
        for f in &c.files {
            for line in &f.lines {
                let inst = line.trim_start();
                assert!(
                    graphs.iter().any(|g| is_cli_match(inst, g)),
                    "unmatched config line: {inst}"
                );
            }
        }
    }

    #[test]
    fn indentation_reflects_hierarchy() {
        let (c, _, _) = corpus(5);
        // Any indented line must follow a less-indented line somewhere above.
        for f in &c.files {
            let mut prev_depths = vec![0usize];
            for line in &f.lines {
                let depth = line.len() - line.trim_start().len();
                if depth > 0 {
                    assert!(
                        prev_depths.iter().any(|&d| d == depth - 1),
                        "orphan indented line in {}: {line:?}",
                        f.name
                    );
                }
                prev_depths.push(depth);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _, _) = corpus(9);
        let (b, _, _) = corpus(9);
        assert_eq!(a.active_templates, b.active_templates);
        for (fa, fb) in a.files.iter().zip(&b.files) {
            assert_eq!(fa.lines, fb.lines);
        }
    }
}
