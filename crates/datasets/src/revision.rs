//! Seeded manual revisions — the workload behind incremental
//! re-assimilation.
//!
//! Vendors ship manual updates that touch a handful of pages: a reworded
//! function description, a few new commands in an existing chapter, a
//! deprecated command dropped. An [`EditPlan`] models exactly that as a
//! deterministic transformation of the command [`Catalog`]: regenerating
//! the manual from the revised catalog (same [`crate::manualgen`]
//! options) yields a revision whose *unedited* pages are byte-identical
//! to the original manual — the property the artifact store's dirty-page
//! detection exploits.
//!
//! Only non-opener commands are eligible for modification and removal:
//! view-entering commands anchor the hierarchy, and editing one would
//! realistically be a re-write, not a revision. Modified commands get a
//! perturbed function description, which feeds *only* that command's own
//! page — so a modify-only plan with `modify = K` dirties exactly `K`
//! pages. Additions and removals shift the neighbouring pages a chapter
//! renders (per-view example counters), so plans using them dirty a
//! superset of the edited pages; they exist to exercise the differential
//! guarantee under structural change, not to measure speedups.

use crate::catalog::{Catalog, CatalogCommand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A deterministic revision of a catalog: modify `modify` command
/// descriptions, append `add` new commands, drop `remove` trailing
/// commands — all chosen by `seed` from the non-opener command set.
#[derive(Debug, Clone, Default)]
pub struct EditPlan {
    pub seed: u64,
    /// Commands whose function description is rewritten in place.
    pub modify: usize,
    /// New commands appended to existing views.
    pub add: usize,
    /// Trailing eligible commands dropped from the catalog.
    pub remove: usize,
}

impl EditPlan {
    /// A modify-only plan touching `modify` pages — the revision shape
    /// benches use, because its dirty-page set is exactly its edit set.
    pub fn modify_only(seed: u64, modify: usize) -> EditPlan {
        EditPlan {
            seed,
            modify,
            add: 0,
            remove: 0,
        }
    }
}

/// What [`apply_edit_plan`] did, by command key — the ground truth a
/// differential test compares dirty-page detection against.
#[derive(Debug, Clone, Default)]
pub struct RevisionReport {
    pub modified: Vec<String>,
    pub added: Vec<String>,
    pub removed: Vec<String>,
}

/// Command keys that open a view, directly (`opens`) or as a view's
/// registered opener — the ineligible set for modify/remove.
fn opener_keys(catalog: &Catalog) -> BTreeSet<String> {
    catalog
        .commands
        .iter()
        .filter(|c| c.opens.is_some())
        .map(|c| c.key.clone())
        .chain(catalog.views.iter().filter_map(|v| v.opener.clone()))
        .collect()
}

/// Apply `plan` to `catalog`, returning the revised catalog and the
/// report of affected command keys. Deterministic: the same (catalog,
/// plan) always yields the same revision. Counts larger than the
/// eligible command set are clamped, never an error.
pub fn apply_edit_plan(catalog: &Catalog, plan: &EditPlan) -> (Catalog, RevisionReport) {
    let mut revised = catalog.clone();
    let mut report = RevisionReport::default();
    let openers = opener_keys(catalog);
    let mut rng = StdRng::seed_from_u64(plan.seed);

    // Eligible indices, in catalog order.
    let eligible: Vec<usize> = revised
        .commands
        .iter()
        .enumerate()
        .filter(|(_, c)| !openers.contains(&c.key))
        .map(|(i, _)| i)
        .collect();

    // Modify: seeded partial Fisher–Yates over the eligible indices.
    let mut pool = eligible.clone();
    let k = plan.modify.min(pool.len());
    for slot in 0..k {
        let pick = slot + rng.gen_range(0..pool.len() - slot);
        pool.swap(slot, pick);
        let cmd = &mut revised.commands[pool[slot]];
        cmd.func = format!(
            "{} Revised in manual update {}-{slot}.",
            cmd.func.trim_end(),
            plan.seed
        );
        report.modified.push(cmd.key.clone());
    }

    // Add: clone seeded eligible commands under fresh keys, so the new
    // pages land in views that already exist and stay placeable.
    for i in 0..plan.add {
        if eligible.is_empty() {
            break;
        }
        let donor: CatalogCommand =
            revised.commands[eligible[rng.gen_range(0..eligible.len())]].clone();
        let key = format!("rev{}.added-{i}.{}", plan.seed, donor.group);
        report.added.push(key.clone());
        revised.commands.push(CatalogCommand {
            key,
            func: format!(
                "{} Added in manual update {}.",
                donor.func.trim_end(),
                plan.seed
            ),
            ..donor
        });
    }

    // Remove: drop the trailing eligible commands (openers are pinned,
    // so every remaining view keeps its entry path).
    let k = plan.remove.min(eligible.len());
    for &i in eligible.iter().rev().take(k) {
        report.removed.push(revised.commands[i].key.clone());
        revised.commands.remove(i);
    }

    (revised, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{manualgen, style};
    use std::collections::HashMap;

    #[test]
    fn plans_are_deterministic() {
        let cat = Catalog::base();
        let plan = EditPlan {
            seed: 7,
            modify: 5,
            add: 2,
            remove: 3,
        };
        let (a, ra) = apply_edit_plan(&cat, &plan);
        let (b, rb) = apply_edit_plan(&cat, &plan);
        assert_eq!(ra.modified, rb.modified);
        assert_eq!(ra.added, rb.added);
        assert_eq!(ra.removed, rb.removed);
        assert_eq!(a.commands.len(), b.commands.len());
        for (x, y) in a.commands.iter().zip(&b.commands) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn openers_are_never_touched() {
        let cat = Catalog::with_scale(40);
        let openers = opener_keys(&cat);
        let (revised, report) = apply_edit_plan(
            &cat,
            &EditPlan {
                seed: 3,
                modify: 30,
                add: 0,
                remove: 30,
            },
        );
        for key in report.modified.iter().chain(&report.removed) {
            assert!(!openers.contains(key), "opener `{key}` was edited");
        }
        // Every view's opener still exists in the revised catalog.
        for view in &revised.views {
            if let Some(op) = &view.opener {
                assert!(
                    revised.commands.iter().any(|c| &c.key == op),
                    "view `{}` lost its opener `{op}`",
                    view.key
                );
            }
        }
    }

    #[test]
    fn modify_only_plan_dirties_exactly_k_pages() {
        let cat = Catalog::base();
        let style = style::vendor("helix").unwrap();
        let opts = manualgen::GenOptions {
            seed: 42,
            ..Default::default()
        };
        let before = manualgen::generate(&style, &cat, &opts);
        let plan = EditPlan::modify_only(9, 4);
        let (revised, report) = apply_edit_plan(&cat, &plan);
        assert_eq!(report.modified.len(), 4);
        let after = manualgen::generate(&style, &revised, &opts);
        assert_eq!(before.pages.len(), after.pages.len());
        let original: HashMap<&str, &str> = before
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
            .collect();
        let dirty: Vec<&str> = after
            .pages
            .iter()
            .filter(|p| original.get(p.url.as_str()) != Some(&p.html.as_str()))
            .map(|p| p.command_key.as_str())
            .collect();
        let mut expected: Vec<&str> = report.modified.iter().map(String::as_str).collect();
        expected.sort_unstable();
        let mut got = dirty.clone();
        got.sort_unstable();
        assert_eq!(got, expected, "dirty pages != modified commands");
    }

    #[test]
    fn counts_clamp_to_the_eligible_set() {
        let cat = Catalog::base();
        let eligible = cat.commands.len() - opener_keys(&cat).len();
        let (revised, report) = apply_edit_plan(
            &cat,
            &EditPlan {
                seed: 1,
                modify: 10_000,
                add: 0,
                remove: 10_000,
            },
        );
        assert_eq!(report.modified.len(), eligible);
        assert_eq!(report.removed.len(), eligible);
        assert_eq!(revised.commands.len(), cat.commands.len() - eligible);
    }
}
