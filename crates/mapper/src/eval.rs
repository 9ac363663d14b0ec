//! Mapping evaluation — recall@top-k (Table 5) and MRR (Table 6 /
//! Appendix D) — plus the resolver that turns alignment annotations into
//! evaluable cases against a parsed VDM.

use crate::context::{vdm_param_context, Context, VdmParamRef};
use crate::models::Mapper;
use nassim_corpus::{Udm, UdmNodeId, Vdm, VdmNodeId};
use std::collections::{BTreeMap, HashMap};

/// One evaluation case: a VDM-parameter context and its true UDM leaf.
#[derive(Debug, Clone)]
pub struct EvalCase {
    pub context: Context,
    pub truth: UdmNodeId,
    /// Provenance for error analysis (command page / token).
    pub label: String,
}

/// Evaluation result.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// k → recall@k in `[0,1]`.
    pub recall: BTreeMap<usize, f64>,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Number of cases evaluated.
    pub cases: usize,
}

impl EvalReport {
    /// recall@k as a percentage, Table-5 style.
    pub fn recall_pct(&self, k: usize) -> f64 {
        self.recall.get(&k).copied().unwrap_or(0.0) * 100.0
    }
}

/// Evaluate `mapper` on `cases` at the given `ks` (max k bounds the
/// recommendation depth).
///
/// All case contexts are pre-encoded in **one** embedding batch up front
/// (shared parameter prep, deduplicated repeats), then ranking fans out
/// across workers; the per-case ranks fold back in case order into the
/// same tallies a serial sweep produces.
pub fn evaluate(mapper: &Mapper, cases: &[EvalCase], ks: &[usize]) -> EvalReport {
    let max_k = ks.iter().copied().max().unwrap_or(10);
    let ctx_refs: Vec<&Context> = cases.iter().map(|c| &c.context).collect();
    let prepared = mapper.prepare_queries(&ctx_refs);
    let ranks: Vec<Option<usize>> = nassim_exec::par_map_chunked(&prepared, 4, |i, q| {
        let recs = mapper.recommend_prepared(q, max_k);
        recs.iter().position(|&(leaf, _)| leaf == cases[i].truth)
    });
    let mut hits: BTreeMap<usize, usize> = ks.iter().map(|&k| (k, 0)).collect();
    let mut rr_sum = 0.0;
    for r in ranks.into_iter().flatten() {
        rr_sum += 1.0 / (r + 1) as f64;
        for (&k, h) in hits.iter_mut() {
            if r < k {
                *h += 1;
            }
        }
    }
    let n = cases.len().max(1);
    EvalReport {
        recall: hits
            .into_iter()
            .map(|(k, h)| (k, h as f64 / n as f64))
            .collect(),
        mrr: rr_sum / n as f64,
        cases: cases.len(),
    }
}

/// Resolve an annotation `(command_key, vendor_param_token, udm_path)`
/// against a parsed VDM and UDM. The VDM node is located by corpus
/// provenance (`source` URL ending in `/<command_key>`); the parameter by
/// token. Multi-view commands yield one case per placement, matching the
/// paper's parameter-occurrence granularity. Returns an empty vec when
/// the page was not parsed or the path does not resolve.
pub fn resolve_cases(
    vdm: &Vdm,
    udm: &Udm,
    annotations: &[(String, String, String)],
) -> Vec<EvalCase> {
    // One pass over the VDM: last path segment of each node's corpus
    // source → node ids, in iteration order. Turns the per-annotation
    // full scan (quadratic in practice — annotations ≈ nodes) into an
    // O(1) lookup while preserving the output order: annotations outer,
    // node order inner.
    let mut by_page: HashMap<&str, Vec<VdmNodeId>> = HashMap::new();
    for (id, _) in vdm.iter() {
        if let Some(entry) = vdm.corpus_of(id) {
            if let Some((_, last)) = entry.source.rsplit_once('/') {
                by_page.entry(last).or_default().push(id);
            }
        }
    }
    let mut out = Vec::new();
    for (command_key, token, udm_path) in annotations {
        let Some(truth) = udm.lookup(udm_path) else {
            continue;
        };
        let ids: Vec<VdmNodeId> = if command_key.contains('/') {
            // A key spanning path segments can't use the last-segment
            // index; fall back to the suffix scan for this annotation.
            let suffix = format!("/{command_key}");
            vdm.iter()
                .filter(|&(id, _)| {
                    vdm.corpus_of(id)
                        .map(|e| e.source.ends_with(&suffix))
                        .unwrap_or(false)
                })
                .map(|(id, _)| id)
                .collect()
        } else {
            by_page
                .get(command_key.as_str())
                .cloned()
                .unwrap_or_default()
        };
        let placeholder = format!("<{token}>");
        for id in ids {
            // Skip undo/no forms: annotations target the configuring form.
            if !vdm.node(id).template.contains(&placeholder) {
                continue;
            }
            let pref = VdmParamRef {
                node: id,
                token: token.clone(),
            };
            out.push(EvalCase {
                context: vdm_param_context(vdm, &pref),
                truth,
                label: format!("{command_key}:{token}"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Mapper;
    use nassim_corpus::{CorpusEntry, ParaDef};

    fn udm() -> Udm {
        let mut udm = Udm::new("u");
        let bgp = udm.ensure_path(&["protocols", "bgp", "neighbor"]);
        udm.add(
            bgp,
            "neighbor-address",
            "ipv4 address of the bgp neighbor peer",
            "ipv4-address",
        );
        udm.add(bgp, "peer-group", "name of the peer group", "string");
        let vlan = udm.ensure_path(&["vlans", "vlan"]);
        udm.add(vlan, "vlan-id", "identifier of the vlan", "uint16");
        udm
    }

    fn vdm() -> Vdm {
        let mut vdm = Vdm::new("helix", "system view");
        let entry = CorpusEntry {
            clis: vec![
                "peer <ipv4-address> group <group-name>".into(),
                "undo peer <ipv4-address> group <group-name>".into(),
            ],
            func_def: "Adds a peer to a peer group.".into(),
            parent_views: vec!["BGP view".into()],
            para_def: vec![
                ParaDef::new("ipv4-address", "ipv4 address of the bgp peer"),
                ParaDef::new("group-name", "name of a peer group"),
            ],
            examples: vec![],
            source: "manual://helix/bgp/bgp.peer-group".into(),
        };
        let ei = vdm.push_corpus(entry);
        let root = vdm.root();
        vdm.add_node(
            root,
            "peer <ipv4-address> group <group-name>",
            "BGP view",
            Some(ei),
            None,
        );
        vdm.add_node(
            root,
            "undo peer <ipv4-address> group <group-name>",
            "BGP view",
            Some(ei),
            None,
        );
        vdm
    }

    #[test]
    fn resolve_finds_annotated_params() {
        let vdm = vdm();
        let udm = udm();
        let annotations = vec![(
            "bgp.peer-group".to_string(),
            "ipv4-address".to_string(),
            "protocols/bgp/neighbor/neighbor-address".to_string(),
        )];
        let cases = resolve_cases(&vdm, &udm, &annotations);
        // Both the positive and the undo node carry the token.
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].label, "bgp.peer-group:ipv4-address");
    }

    #[test]
    fn resolve_skips_unresolvable_paths_and_pages() {
        let vdm = vdm();
        let udm = udm();
        let annotations = vec![
            (
                "bgp.peer-group".to_string(),
                "ipv4-address".to_string(),
                "no/such/path".to_string(),
            ),
            (
                "no.such.page".to_string(),
                "x".to_string(),
                "vlans/vlan/vlan-id".to_string(),
            ),
        ];
        assert!(resolve_cases(&vdm, &udm, &annotations).is_empty());
    }

    #[test]
    fn recall_and_mrr_computed_correctly() {
        let udm = udm();
        let mapper = Mapper::ir(&udm);
        let vdm = vdm();
        let annotations = vec![
            (
                "bgp.peer-group".to_string(),
                "ipv4-address".to_string(),
                "protocols/bgp/neighbor/neighbor-address".to_string(),
            ),
            (
                "bgp.peer-group".to_string(),
                "group-name".to_string(),
                "protocols/bgp/neighbor/peer-group".to_string(),
            ),
        ];
        let cases = resolve_cases(&vdm, &udm, &annotations);
        let report = evaluate(&mapper, &cases, &[1, 3]);
        // IR should solve these lexically overlapping cases at k≤3.
        assert!(report.recall[&3] > 0.9, "{:?}", report);
        assert!(report.mrr > 0.5);
        assert_eq!(report.cases, cases.len());
    }

    #[test]
    fn perfect_and_zero_recall_extremes() {
        let udm = udm();
        let mapper = Mapper::ir(&udm);
        let truth = udm.lookup("vlans/vlan/vlan-id").unwrap();
        let hit = EvalCase {
            context: Context {
                sequences: vec!["identifier of the vlan".into()],
            },
            truth,
            label: "hit".into(),
        };
        let miss = EvalCase {
            context: Context {
                sequences: vec!["zzz qqq".into()],
            },
            truth,
            label: "miss".into(),
        };
        let r = evaluate(&mapper, std::slice::from_ref(&hit), &[1]);
        assert!((r.recall[&1] - 1.0).abs() < 1e-9);
        assert!((r.mrr - 1.0).abs() < 1e-9);
        let r = evaluate(&mapper, &[miss], &[1]);
        assert_eq!(r.recall[&1], 0.0);
        // Note: an all-zero query still ranks *some* leaf first with score
        // 0; truth may appear by tie order, so mrr is only bounded, not 0.
        assert!(r.mrr <= 1.0);
    }

    #[test]
    fn recall_is_monotone_in_k() {
        let udm = udm();
        let mapper = Mapper::ir(&udm);
        let vdm = vdm();
        let annotations = vec![(
            "bgp.peer-group".to_string(),
            "group-name".to_string(),
            "protocols/bgp/neighbor/peer-group".to_string(),
        )];
        let cases = resolve_cases(&vdm, &udm, &annotations);
        let report = evaluate(&mapper, &cases, &[1, 2, 3]);
        assert!(report.recall[&1] <= report.recall[&2]);
        assert!(report.recall[&2] <= report.recall[&3]);
    }
}
