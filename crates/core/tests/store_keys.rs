//! Soundness of the artifact store's in-memory keys.
//!
//! * The cached derivation is keyed by what a derivation is a function
//!   of — page count, ordered graph keys, ordered page-local evidence
//!   digests. A prose-only revision must replay it; an edit to any
//!   derivation input must miss. Either way the staged result equals a
//!   cold `assimilate_with`.
//! * Per-page keys are memoized by page identity. A parse run built
//!   outside the store must give the same results as a fresh store, and
//!   the memo must stay bounded by the most recent run.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::{apply_edit_plan, catalog::Catalog, manualgen, style, EditPlan};
use nassim::html::IngestBudget;
use nassim::parser::{parser_for, run_parser_with, ParseRun, VendorParser};
use nassim::pipeline::{assimilate_with, Assimilation};
use nassim::{assimilate_incremental, ArtifactStore};

fn manual(vendor: &str, seed: u64) -> manualgen::Manual {
    manualgen::generate(
        &style::vendor(vendor).unwrap(),
        &Catalog::base(),
        &manualgen::GenOptions {
            seed,
            ..Default::default()
        },
    )
}

fn owned_pages(m: &manualgen::Manual) -> Vec<(String, String)> {
    m.pages
        .iter()
        .map(|p| (p.url.clone(), p.html.clone()))
        .collect()
}

fn refs(pages: &[(String, String)]) -> Vec<(&str, &str)> {
    pages
        .iter()
        .map(|(u, h)| (u.as_str(), h.as_str()))
        .collect()
}

/// Equality over everything but wall-clock stats.
fn assert_same(cold: &Assimilation, staged: &Assimilation, what: &str) {
    assert_eq!(cold.build.vdm, staged.build.vdm, "{what}: VDM differs");
    assert_eq!(
        cold.build.unplaced_pages, staged.build.unplaced_pages,
        "{what}: unplaced pages differ"
    );
    assert_eq!(cold.syntax, staged.syntax, "{what}: syntax audit differs");
    assert_eq!(
        cold.diagnostics, staged.diagnostics,
        "{what}: diagnostics differ"
    );
    assert_eq!(
        cold.parse.pages, staged.parse.pages,
        "{what}: parsed pages differ"
    );
}

/// Replace the first occurrence of `from` on the first page (after the
/// preface) whose HTML has it, so every edit really lands.
fn edit_first(pages: &[(String, String)], from: &str, to: &str) -> Vec<(String, String)> {
    let mut out = pages.to_vec();
    let page = out
        .iter_mut()
        .skip(1)
        .find(|(_, html)| html.contains(from))
        .unwrap_or_else(|| panic!("no page contains `{from}`"));
    page.1 = page.1.replacen(from, to, 1);
    out
}

/// Warm `store` on `base`, then run `revised` through it; returns
/// whether the revision replayed the cached derivation, after checking
/// the staged result against a cold run.
fn revise(
    store: &mut ArtifactStore,
    parser: &dyn VendorParser,
    base: &[(String, String)],
    revised: &[(String, String)],
    what: &str,
) -> bool {
    let budget = IngestBudget::default();
    assimilate_incremental(parser, refs(base), &budget, store).unwrap();
    let hits = store.stats.derived_hits;
    let misses = store.stats.derived_misses;
    let staged = assimilate_incremental(parser, refs(revised), &budget, store).unwrap();
    let cold = assimilate_with(parser, refs(revised), &budget).unwrap();
    assert_same(&cold, &staged, what);
    let hit = store.stats.derived_hits == hits + 1;
    assert_eq!(
        hit,
        store.stats.derived_misses == misses,
        "{what}: one derivation lookup per run"
    );
    hit
}

#[test]
fn prose_only_revision_replays_the_derivation() {
    let parser = parser_for("helix").unwrap();
    let base = owned_pages(&manual("helix", 31));
    let mut store = ArtifactStore::new();

    let func = edit_first(
        &base,
        "<p class=\"func-line\">",
        "<p class=\"func-line\">Revised wording. ",
    );
    assert!(revise(
        &mut store,
        parser.as_ref(),
        &base,
        &func,
        "FuncDef edit"
    ));

    let para = edit_first(&base, "</span>: ", "</span>: Revised range. ");
    assert!(revise(
        &mut store,
        parser.as_ref(),
        &base,
        &para,
        "ParaDef edit"
    ));

    // A replay still credits every page's graph and evidence artifact.
    let (g, e) = (store.graphs.misses, store.evidence.misses);
    revise(
        &mut store,
        parser.as_ref(),
        &base,
        &func,
        "FuncDef edit again",
    );
    assert_eq!(store.graphs.misses, g);
    assert_eq!(store.evidence.misses, e);
}

#[test]
fn edits_to_derivation_inputs_miss() {
    let parser = parser_for("helix").unwrap();
    let base = owned_pages(&manual("helix", 32));
    let mut store = ArtifactStore::new();
    let cases: Vec<(&str, Vec<(String, String)>)> = vec![
        (
            "one CLI",
            edit_first(
                &base,
                "<span class=\"cmdname\">",
                "<span class=\"cmdname\">revised-",
            ),
        ),
        (
            "one working view",
            edit_first(
                &base,
                "<p class=\"view-line\">",
                "<p class=\"view-line\">revised ",
            ),
        ),
        (
            "one example line",
            edit_first(&base, "</pre>", " revised</pre>"),
        ),
        ("a page removed", base[..base.len() - 1].to_vec()),
        ("a page added", {
            let mut pages = base.clone();
            let (url, html) = pages[1].clone();
            pages.push((format!("{url}-copy"), html));
            pages
        }),
    ];
    for (what, revised) in &cases {
        assert!(
            !revise(&mut store, parser.as_ref(), &base, revised, what),
            "{what}: replayed a stale derivation"
        );
    }
}

#[test]
fn norsk_context_path_edit_misses() {
    let parser = parser_for("norsk").unwrap();
    let base = owned_pages(&manual("norsk", 33));
    let mut store = ArtifactStore::new();
    let revised = edit_first(
        &base,
        "<p class=\"CmdContext\">",
        "<p class=\"CmdContext\">revised > ",
    );
    assert!(!revise(
        &mut store,
        parser.as_ref(),
        &base,
        &revised,
        "norsk context path"
    ));
    let prose = edit_first(
        &base,
        "<p class=\"CmdDescription\">",
        "<p class=\"CmdDescription\">Revised wording. ",
    );
    assert!(revise(
        &mut store,
        parser.as_ref(),
        &base,
        &prose,
        "norsk description"
    ));
}

/// The syntax, hierarchy and build stages of `store` over `parse`.
fn later_stages(store: &mut ArtifactStore, vendor: &str, parse: &ParseRun) -> String {
    let syntax = store.syntax_stage(parse);
    let derivation = store.hierarchy_stage(parse, &[]);
    let build = store.build_stage(vendor, parse, &[], &derivation);
    let stats = &derivation.stats;
    format!(
        "{syntax:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        derivation.openers,
        derivation.votes,
        derivation.root_view,
        (
            stats.example_snippets,
            stats.votes_cast,
            stats.self_match_failures
        ),
        derivation.diagnostics(&parse.pages),
        build.vdm,
        build.unplaced_pages,
    )
}

#[test]
fn outside_parse_runs_match_a_fresh_store() {
    let parser = parser_for("helix").unwrap();
    let budget = IngestBudget::default();
    let base = owned_pages(&manual("helix", 34));
    let revised = edit_first(
        &base,
        "<p class=\"view-line\">",
        "<p class=\"view-line\">revised ",
    );
    let mut warm = ArtifactStore::new();
    assimilate_incremental(parser.as_ref(), refs(&base), &budget, &mut warm).unwrap();
    for (what, pages) in [("same pages", &base), ("edited pages", &revised)] {
        // Content-equal to the warm store's pages, but none of its `Arc`s.
        let outside = run_parser_with(parser.as_ref(), refs(pages), &budget);
        let got = later_stages(&mut warm, parser.vendor(), &outside);
        let want = later_stages(&mut ArtifactStore::new(), parser.vendor(), &outside);
        assert_eq!(got, want, "{what}");
        assert_eq!(warm.key_memo_len(), outside.pages.len(), "{what}");
    }
}

#[test]
fn key_memo_is_bounded_by_the_last_run() {
    let parser = parser_for("helix").unwrap();
    let budget = IngestBudget::default();
    let base = manual("helix", 35);
    let opts = manualgen::GenOptions {
        seed: 35,
        ..Default::default()
    };
    let style = style::vendor("helix").unwrap();
    let mut catalog = base.catalog.clone();
    let mut store = ArtifactStore::new();
    let mut last = None;
    for r in 0..50u64 {
        let plan = EditPlan {
            seed: r,
            modify: 2,
            add: (r % 3 == 0) as usize,
            remove: (r % 3 == 1) as usize,
        };
        catalog = apply_edit_plan(&catalog, &plan).0;
        let m = manualgen::generate(&style, &catalog, &opts);
        let pages: Vec<(&str, &str)> = m
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
            .collect();
        let run =
            assimilate_incremental(parser.as_ref(), pages.clone(), &budget, &mut store).unwrap();
        assert!(
            store.key_memo_len() <= run.parse.pages.len(),
            "revision {r}: memo holds {} keys for {} parsed pages",
            store.key_memo_len(),
            run.parse.pages.len()
        );
        last = Some((
            run,
            assimilate_with(parser.as_ref(), pages, &budget).unwrap(),
        ));
    }
    let (staged, cold) = last.unwrap();
    assert_same(&cold, &staged, "after 50 revisions");
}
