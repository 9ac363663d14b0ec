//! Frozen JSON shapes of what the store persists and the daemon serves:
//! one parsed page, one small VDM, the `pages` section of a one-page
//! artifact store, and the whole file of a one-page store (header, every
//! section and the `checksums` footer). Corpus entries are `Arc`-shared in memory, and serde
//! serializes an `Arc` as its value, so the bytes must not depend on how
//! entries are held. The first three literals were captured before
//! entries were shared, the whole-store one before the JSON codec moved
//! from chars to bytes; a change to any of them is a persisted-layout
//! change and needs a schema bump.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::corpus::{CorpusEntry, ParaDef, Vdm};
use nassim::html::IngestBudget;
use nassim::mapper::{Embedder, RetrievalMode};
use nassim::parser::{parser_for, ParsedPage};
use nassim::ArtifactStore;
use serde::Value;
use std::sync::Arc;

/// A deterministic 4-dimensional embedder whose vectors need the float
/// writer's shortest round-trip form (`0.1f32` widens to
/// `0.10000000149011612`).
struct FixedEmbedder;

impl Embedder for FixedEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        vec![text.len() as f32 * 0.1, -0.5, 1.0 / 3.0, 2.0]
    }
}

const PAGE_URL: &str = "manual://helix/system/system.sysname";
const PAGE_HTML: &str = "<html><body>\n\
<h2 class=\"cmd-title\">system.sysname</h2>\n\
<div class=\"sectiontitle\">Format</div>\n\
<p class=\"cmd-line\"><span class=\"cmdname\">sysname</span> <span class=\"paramvalue\">host-name</span></p>\n\
<div class=\"sectiontitle\">Function</div>\n\
<p class=\"func-line\">Sets the host name of the device.</p>\n\
<div class=\"sectiontitle\">Views</div>\n\
<p class=\"view-line\">system view</p>\n\
<div class=\"sectiontitle\">Parameters</div>\n\
<p class=\"para-line\"><span class=\"paramvalue\">host-name</span>: Specifies the host name.</p>\n\
<div class=\"sectiontitle\">Examples</div>\n\
<pre class=\"example-snippet\">sysname test3</pre>\n\
</body></html>\n";

const PARSED_PAGE_JSON: &str = r#"{"url":"manual://norsk/bgp/peer","entry":{"CLIs":["peer <ipv4-address> group <group-name>"],"FuncDef":"Adds a peer to a peer group.","ParentViews":["BGP view"],"ParaDef":[{"Paras":"ipv4-address","Info":"Peer address."}],"Examples":[["bgp 100"," peer 10.1.1.1 group test"]],"Source":"manual://norsk/bgp/peer"},"context_path":["system view","BGP view"],"enters_view":"BGP peer view"}"#;

const VDM_JSON: &str = r#"{"vendor":"norsk","corpus":[{"CLIs":["peer <ipv4-address> group <group-name>"],"FuncDef":"Adds a peer to a peer group.","ParentViews":["BGP view"],"ParaDef":[{"Paras":"ipv4-address","Info":"Peer address."}],"Examples":[["bgp 100"," peer 10.1.1.1 group test"]],"Source":"manual://norsk/bgp/peer"}],"nodes":[{"template":"","view":"","corpus_idx":null,"enters_view":"system view","parent":null,"children":[1]},{"template":"peer <ipv4-address> group <group-name>","view":"BGP view","corpus_idx":0,"enters_view":null,"parent":0,"children":[]}],"root_view":"system view"}"#;

const PAGES_SECTION_JSON: &str = r#"{"5de7646cbffc7c1e":{"url":"manual://helix/system/system.sysname","disposition":{"Parsed":{"page":{"url":"manual://helix/system/system.sysname","entry":{"CLIs":["sysname <host-name>"],"FuncDef":" Sets the host name of the device. ","ParentViews":["system view"],"ParaDef":[{"Paras":"host-name","Info":"Specifies the host name."}],"Examples":[["sysname test3"]],"Source":"manual://helix/system/system.sysname"},"context_path":null,"enters_view":null}}},"defects":[],"key_attr":null,"status":null}}"#;

const WHOLE_STORE_JSON: &str = r#"{"magic":"NASSIM-ARTIFACTS","schema_version":4,"pages":{"5de7646cbffc7c1e":{"url":"manual://helix/system/system.sysname","disposition":{"Parsed":{"page":{"url":"manual://helix/system/system.sysname","entry":{"CLIs":["sysname <host-name>"],"FuncDef":" Sets the host name of the device. ","ParentViews":["system view"],"ParaDef":[{"Paras":"host-name","Info":"Specifies the host name."}],"Examples":[["sysname test3"]],"Source":"manual://helix/system/system.sysname"},"context_path":null,"enters_view":null}}},"defects":[],"key_attr":null,"status":null}},"syntax":{"dbf06ae53bdb1ec2":{"cli_count":1,"failures":[]}},"graphs":{"entries":{"945ee632e4644924":["sysname <host-name>"]}},"evidence":{"entries":{"a02a62e797c35c8b":{"ex":1,"fail":0,"votes":[],"roots":["system view"]}}},"embeddings":{"entries":{"25d2a6b6cd0de1d3":[[1063675495,3204448256,1051372203,1073741824],[1075838976,3204448256,1051372203,1073741824],[1067869799,3204448256,1051372203,1073741824],[1067030938,3204448256,1051372203,1073741824]],"760269e7f46b69e6":[[1060320051,3204448256,1051372203,1073741824],[1075000115,3204448256,1051372203,1073741824],[1066192077,3204448256,1051372203,1073741824],[1058642330,3204448256,1051372203,1073741824]]}},"ann":{"entries":{"389ca63dbc6fb5c3":{"n":2,"dim":4,"ku":4,"hash":"389ca63dbc6fb5c3","scales":[1015890583,1003888975,999211232,1020666191],"codes":[104,-127,127,127,127,-120,120,120]}}},"checksums":{"pages":"91447508b56633b9","syntax":"52e1a7f8561eaa58","graphs":"c997d65cd908c304","evidence":"e25f55e2c53c2541","embeddings":"776be36154736c95","ann":"19dc28b595595a9d"}}"#;

fn entry() -> CorpusEntry {
    CorpusEntry {
        clis: vec!["peer <ipv4-address> group <group-name>".into()],
        func_def: "Adds a peer to a peer group.".into(),
        parent_views: vec!["BGP view".into()],
        para_def: vec![ParaDef::new("ipv4-address", "Peer address.")],
        examples: vec![vec!["bgp 100".into(), " peer 10.1.1.1 group test".into()]],
        source: "manual://norsk/bgp/peer".into(),
    }
}

#[test]
fn parsed_page_bytes_are_frozen() {
    let page = ParsedPage {
        url: "manual://norsk/bgp/peer".into(),
        entry: entry().into(),
        context_path: Some(vec!["system view".into(), "BGP view".into()]),
        enters_view: Some("BGP peer view".into()),
    };
    let json = serde_json::to_string(&page).unwrap();
    assert_eq!(json, PARSED_PAGE_JSON);
    let back: ParsedPage = serde_json::from_str(&json).unwrap();
    assert_eq!(back, page);
}

#[test]
fn vdm_bytes_are_frozen() {
    let mut vdm = Vdm::new("norsk", "system view");
    let ei = vdm.push_corpus(entry());
    let root = vdm.root();
    vdm.add_node(
        root,
        "peer <ipv4-address> group <group-name>",
        "BGP view",
        Some(ei),
        None,
    );
    let json = serde_json::to_string(&vdm).unwrap();
    assert_eq!(json, VDM_JSON);
    let back: Vdm = serde_json::from_str(&json).unwrap();
    assert_eq!(back, vdm);
}

#[test]
fn store_pages_section_and_schema_are_frozen() {
    let parser = parser_for("helix").unwrap();
    let mut store = ArtifactStore::new();
    store
        .parse_stage(
            parser.as_ref(),
            [(PAGE_URL, PAGE_HTML)],
            &IngestBudget::default(),
        )
        .unwrap();
    let dir = std::env::temp_dir().join(format!("nassim-frozen-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    store.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let value: Value = serde_json::from_str(&text).unwrap();
    assert!(
        matches!(value.get("schema_version"), Some(Value::Num(v)) if *v == 4.0),
        "schema version moved"
    );
    let pages = serde_json::to_string(value.get("pages").unwrap()).unwrap();
    assert_eq!(pages, PAGES_SECTION_JSON);
}

/// A one-page store after every stage plus a quantized mapper build,
/// so every section holds at least one entry.
fn whole_store() -> ArtifactStore {
    let parser = parser_for("helix").unwrap();
    let mut store = ArtifactStore::new();
    nassim::assimilate_incremental(
        parser.as_ref(),
        [(PAGE_URL, PAGE_HTML)],
        &IngestBudget::default(),
        &mut store,
    )
    .unwrap();
    let mut udm = nassim::corpus::Udm::new("frozen-udm");
    let root = udm.root();
    let bgp = udm.add(root, "bgp", "", "");
    udm.add(bgp, "peer-as", "The peer's \"AS\" number.", "uint32");
    udm.add(
        bgp,
        "router-id",
        "Router ID, e.g. 10.0.0.1.",
        "ipv4-address",
    );
    store.mapper_dl_sublinear(
        &udm,
        Arc::new(FixedEmbedder),
        "fixed-4",
        RetrievalMode::Quantized,
    );
    store
}

#[test]
fn whole_store_file_is_frozen() {
    let dir = std::env::temp_dir().join(format!("nassim-frozen-whole-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    whole_store().save(&path).unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    assert_eq!(saved, WHOLE_STORE_JSON);

    // The frozen bytes load strictly and re-save to themselves.
    std::fs::write(&path, WHOLE_STORE_JSON).unwrap();
    let loaded = ArtifactStore::load(&path).unwrap();
    let resaved = dir.join("resaved.json");
    loaded.save(&resaved).unwrap();
    let again = std::fs::read_to_string(&resaved).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(again, WHOLE_STORE_JSON);
}
