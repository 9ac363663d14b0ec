//! Property tests for the corpus format and model trees: JSON round
//! trips, Appendix-B checks are total and consistent, tree invariants.
// Property-test bodies and helpers sit outside #[test] fns; panics are the
// assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_corpus::{CorpusEntry, ParaDef, Udm, Vdm};
use proptest::prelude::*;

fn arb_entry() -> impl Strategy<Value = CorpusEntry> {
    let s = "[a-zA-Z0-9 <>-]{0,30}";
    (
        prop::collection::vec(s, 0..4),
        s.prop_map(|x: String| x),
        prop::collection::vec("[a-zA-Z ]{0,20}", 0..3),
        prop::collection::vec(("[a-z-]{0,12}", "[a-zA-Z .]{0,30}"), 0..4),
        prop::collection::vec(prop::collection::vec("[a-z0-9 .]{0,20}", 0..4), 0..3),
    )
        .prop_map(
            |(clis, func_def, parent_views, para, examples)| CorpusEntry {
                clis,
                func_def,
                parent_views,
                para_def: para.into_iter().map(|(p, i)| ParaDef::new(p, i)).collect(),
                examples,
                source: String::new(),
            },
        )
}

proptest! {
    /// Serialise → deserialise is the identity.
    #[test]
    fn corpus_json_round_trip(entry in arb_entry()) {
        let json = entry.to_json();
        let back = CorpusEntry::from_json(&json).expect("round trip parses");
        prop_assert_eq!(back, entry);
    }

    /// The Appendix-B checks are total and deterministic.
    #[test]
    fn checks_are_total_and_deterministic(entry in arb_entry()) {
        let a = entry.check();
        let b = entry.check();
        prop_assert_eq!(a.len(), b.len());
    }

    /// An entry that passes all checks still passes after JSON round trip.
    #[test]
    fn validity_is_preserved_by_serde(entry in arb_entry()) {
        let json = entry.to_json();
        let back = CorpusEntry::from_json(&json).unwrap();
        prop_assert_eq!(back.is_valid(), entry.is_valid());
    }

    /// UDM: every ensure_path'd node resolves back through lookup.
    #[test]
    fn udm_paths_resolve(segs in prop::collection::vec("[a-z]{1,6}", 1..5)) {
        let mut udm = Udm::new("t");
        let refs: Vec<&str> = segs.iter().map(String::as_str).collect();
        let id = udm.ensure_path(&refs);
        let path = udm.path_of(id);
        prop_assert_eq!(udm.lookup(&path), Some(id));
        // Idempotence.
        prop_assert_eq!(udm.ensure_path(&refs), id);
    }

    /// VDM: node/corpus accounting stays consistent under random builds.
    #[test]
    fn vdm_accounting(n in 1usize..20) {
        let mut vdm = Vdm::new("v", "root view");
        let mut last = vdm.root();
        for i in 0..n {
            let opens = (i % 3 == 0).then(|| format!("view-{i}"));
            let parent = if i % 2 == 0 { vdm.root() } else { last };
            last = vdm.add_node(parent, format!("cmd-{i} <x{i}>"), format!("view-{}", i / 3), None, opens);
        }
        prop_assert_eq!(vdm.cli_view_pairs(), n);
        prop_assert_eq!(vdm.walk().len(), n);
        // Every non-root node's parent contains it as a child.
        for (id, node) in vdm.iter() {
            let p = node.parent.expect("non-root has parent");
            prop_assert!(vdm.node(p).children.contains(&id));
        }
    }
}
