//! UDM generation plus VDM↔UDM mapping ground truth.
//!
//! The paper's UDM is a proprietary tree handcrafted by NetOps experts;
//! its attributes carry brief context annotations, and experts labelled
//! 381 (Huawei) + 110 (Nokia) parameter alignments for evaluating the
//! Mapper. Here the UDM is *derived* from the catalog — it covers the
//! common-functionality intersection (commands with a `feature_path`) —
//! but its surface forms diverge deliberately:
//!
//! * leaf names follow an OpenConfig-ish convention different from every
//!   vendor's parameter naming;
//! * leaf descriptions are paraphrases (synonym substitution + sentence
//!   shuffling) of catalog prose, at configurable strength;
//! * distractor leaves (attributes no vendor command configures) pad the
//!   candidate space so top-k retrieval is non-trivial.
//!
//! The generator emits the exact alignment it used, which downstream code
//! treats as expert annotation: the full set for `helix` (rich), a sampled
//! subset for `norsk` (scarce) — mirroring the paper's asymmetry.

use crate::catalog::Catalog;
use crate::words::{paraphrase, shuffle_sentences, ATTR_WORDS, FEATURE_WORDS, OBJECT_WORDS};
use nassim_corpus::Udm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rewrite the manuals' "The value is an integer in the range A to B."
/// register into the terser schema-annotation register real UDMs use
/// ("Range A..B."), removing verbatim n-gram overlap before paraphrasing.
fn rephrase_register(text: &str) -> String {
    text.split_inclusive('.')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|sentence| {
            if sentence.contains("in the range") {
                sentence
                    .replace("The value is an integer in the range ", "Range: ")
                    .replace(" in the range ", ", range ")
                    .replace(" to ", "-")
            } else if sentence == "The value is an integer." {
                "Integer.".to_string()
            } else {
                sentence.replace("a string of 1 to ", "max length ")
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One ground-truth alignment: a parameter of a catalog command ↔ a UDM
/// leaf. `vendor_param` is resolved per vendor at evaluation time via the
/// vendor's rename map.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlignEntry {
    /// Catalog command key (identifies the manual page / VDM node).
    pub command_key: String,
    /// Canonical parameter name on that command.
    pub canonical_param: String,
    /// Path of the aligned UDM leaf.
    pub udm_path: String,
}

/// Generated UDM plus its alignment ground truth.
#[derive(Debug, Clone)]
pub struct UdmDataset {
    pub udm: Udm,
    /// Complete alignment (every UDM-covered parameter occurrence).
    pub alignment: Vec<AlignEntry>,
}

/// Knobs of UDM generation.
#[derive(Debug, Clone)]
pub struct UdmGenOptions {
    pub seed: u64,
    /// Paraphrase strength in `0.0..=1.0` (0 = descriptions copied
    /// verbatim — the degenerate easy task; higher = harder mapping).
    pub paraphrase_strength: f64,
    /// Number of distractor leaves.
    pub distractors: usize,
    /// Extra synthetic leaves for retrieval-scale benchmarks (0 = none).
    /// Unlike distractors these carry no mirror subtrees or paraphrase
    /// passes, so generation stays linear up to millions of leaves.
    pub synthetic_leaves: usize,
}

impl Default for UdmGenOptions {
    fn default() -> Self {
        UdmGenOptions {
            seed: 0,
            paraphrase_strength: 0.85,
            distractors: 120,
            synthetic_leaves: 0,
        }
    }
}

/// OpenConfig-flavoured renames: canonical parameter name → UDM leaf name.
/// Parameters absent from the map keep their canonical name (some overlap
/// is realistic — `vlan-id` is called `vlan-id` nearly everywhere).
fn udm_leaf_name(canonical: &str) -> &str {
    const MAP: &[(&str, &str)] = &[
        ("ipv4-address", "address"),
        ("peer-address", "neighbor-address"),
        ("mask-length", "prefix-length"),
        ("as-number", "peer-as"),
        ("description-text", "description"),
        ("host-name", "hostname"),
        ("keepalive-time", "keepalive-interval"),
        ("hold-time", "hold-timer"),
        ("group-name", "peer-group"),
        ("route-policy-name", "policy-name"),
        ("ip-prefix-name", "prefix-list"),
        ("acl-number", "acl-set-id"),
        ("acl-name", "acl-set-name"),
        ("rule-id", "sequence-id"),
        ("ospf-process-id", "process-id"),
        ("area-id", "area-identifier"),
        ("instance-id", "mst-id"),
        ("interface-id", "interface-name"),
        ("mtu-value", "mtu"),
        ("next-hop-address", "next-hop"),
        ("wildcard-mask", "inverse-mask"),
        ("virtual-address", "virtual-ip"),
        ("pool-name", "dhcp-pool"),
        ("lease-days", "lease-time"),
        ("community-name", "community"),
        ("user-name", "username"),
        ("privilege-level", "role-level"),
        ("path-count", "max-paths"),
        ("net-entity", "net-id"),
        ("lsr-id", "router-id"),
        ("dscp-value", "dscp"),
        ("queue-id", "queue-index"),
        ("step-value", "rule-step"),
        ("banner-text", "login-banner"),
        ("timezone-name", "timezone"),
        ("offset-hours", "utc-offset"),
        ("version-number", "protocol-version"),
        ("facility-name", "syslog-facility"),
        ("security-name", "security-principal"),
        ("classifier-name", "class-name"),
        ("behavior-name", "action-name"),
        ("vrid", "virtual-router-id"),
    ];
    MAP.iter()
        .find(|(k, _)| *k == canonical)
        .map(|(_, v)| *v)
        .unwrap_or(canonical)
}

/// Generate the UDM and the full alignment from `catalog`.
pub fn generate(catalog: &Catalog, opts: &UdmGenOptions) -> UdmDataset {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut udm = Udm::new("enterprise-udm-v1");
    let mut alignment = Vec::new();
    // (feature_path, leaf_name) → udm path, so repeated parameters share
    // one leaf.
    let mut leaf_index: BTreeMap<(String, String), String> = BTreeMap::new();

    for cmd in &catalog.commands {
        if cmd.feature_path.is_empty() {
            continue;
        }
        let segs: Vec<&str> = cmd.feature_path.split('/').collect();
        let container = udm.ensure_path(&segs);
        for param in &cmd.params {
            let leaf_name = udm_leaf_name(&param.name).to_string();
            let key = (cmd.feature_path.clone(), leaf_name.clone());
            let path = match leaf_index.get(&key) {
                Some(p) => p.clone(),
                None => {
                    // Annotation prose: parameter semantics recast into the
                    // terse schema register, sentence-shuffled with a clause
                    // of the command function, then synonym-paraphrased.
                    let base = format!(
                        "{} {}",
                        rephrase_register(&param.description),
                        rephrase_register(&cmd.func)
                    );
                    let shuffled = shuffle_sentences(&base, &mut rng);
                    let desc = paraphrase(&shuffled, opts.paraphrase_strength, &mut rng);
                    let id = udm.add(container, &leaf_name, desc, &param.value_type);
                    let p = udm.path_of(id);
                    leaf_index.insert(key, p.clone());
                    p
                }
            };
            alignment.push(AlignEntry {
                command_key: cmd.key.clone(),
                canonical_param: param.name.clone(),
                udm_path: path,
            });
        }
    }

    add_protocol_mirrors(&mut udm, &mut rng);
    add_distractors(&mut udm, opts.distractors, &mut rng);
    add_synthetic_leaves(&mut udm, opts.synthetic_leaves, &mut rng);

    UdmDataset { udm, alignment }
}

/// Protocols used for mirrored subtrees (present in the filler word pool,
/// absent from the base catalog's UDM-covered features).
const MIRROR_PROTOS: [&str; 6] = ["rip", "ldp", "pim", "igmp", "msdp", "bfd"];

/// Real UDMs reuse leaf names pervasively: `address`, `description`,
/// `mtu`, … appear under dozens of protocol subtrees. Mirror every real
/// leaf into sibling fake-protocol subtrees with near-identical prose so
/// lexical retrieval faces genuine confusables — without them, a small
/// synthetic UDM makes TF-IDF look implausibly strong.
fn add_protocol_mirrors(udm: &mut Udm, rng: &mut StdRng) {
    let real: Vec<(String, String, String, String)> = udm
        .leaves()
        .into_iter()
        .map(|l| {
            let n = udm.node(l);
            (
                udm.path_of(l),
                n.name.clone(),
                n.description.clone(),
                n.value_type.clone(),
            )
        })
        .collect();
    for (path, name, desc, ty) in real {
        let mut segs: Vec<&str> = path.split('/').collect();
        segs.pop(); // drop the leaf name
                    // Replace the protocol segment where present, else nest the whole
                    // container under a mirror area.
        for proto in MIRROR_PROTOS {
            if !rng.gen_bool(0.8) {
                continue; // ~5 mirrors per leaf on average
            }
            let mirrored: Vec<String> = if segs.len() >= 2 && segs[0] == "protocols" {
                segs.iter()
                    .enumerate()
                    .map(|(i, s)| {
                        if i == 1 {
                            proto.to_string()
                        } else {
                            s.to_string()
                        }
                    })
                    .collect()
            } else {
                std::iter::once(proto.to_string())
                    .chain(segs.iter().map(|s| s.to_string()))
                    .collect()
            };
            let refs: Vec<&str> = mirrored.iter().map(String::as_str).collect();
            let container = udm.ensure_path(&refs);
            // Prose: the original description with protocol words swapped
            // and another round of paraphrase.
            let swapped = swap_protocol_words(&desc, proto);
            let mirrored_desc = paraphrase(&swapped, 0.9, rng);
            udm.add(container, &name, mirrored_desc, &ty);
        }
    }
}

fn swap_protocol_words(text: &str, proto: &str) -> String {
    let upper = proto.to_uppercase();
    let mut out = String::new();
    for word in text.split_whitespace() {
        let trimmed = word.trim_end_matches(['.', ',', ';']);
        let replaced = match trimmed {
            "BGP" | "OSPF" | "IS-IS" | "VRRP" | "DHCP" | "NTP" | "SNMP" | "MPLS" | "LLDP" => {
                word.replace(trimmed, &upper)
            }
            _ => word.to_string(),
        };
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&replaced);
    }
    out
}

/// Pad the model with plausible attributes no catalog command configures.
fn add_distractors(udm: &mut Udm, count: usize, rng: &mut StdRng) {
    for i in 0..count {
        let feat = FEATURE_WORDS[i % FEATURE_WORDS.len()];
        let obj = OBJECT_WORDS[(i * 7 + 3) % OBJECT_WORDS.len()];
        let attr = ATTR_WORDS[(i * 13 + 5) % ATTR_WORDS.len()];
        let container = udm.ensure_path(&["extensions", feat, obj]);
        let name = format!("{attr}-{}", i / (FEATURE_WORDS.len() * 2) + 1);
        let verbs = ["Controls", "Bounds", "Tunes", "Governs"];
        let desc = format!(
            "{} the {attr} applied to the {feat} {obj} subsystem.",
            verbs[rng.gen_range(0..verbs.len())]
        );
        udm.add(container, name, desc, "uint32");
    }
}

/// Scale filler for retrieval benchmarks: `count` extra leaves packed
/// into bounded-fanout bucket containers under `synthetic/`. Generation
/// is linear in `count` — the current bucket's id is carried across
/// iterations so [`Udm::ensure_path`]'s linear child scan never runs per
/// leaf — and the prose is cheap but word-diverse so leaf embeddings
/// spread out instead of collapsing onto a handful of points.
fn add_synthetic_leaves(udm: &mut Udm, count: usize, rng: &mut StdRng) {
    const BUCKET: usize = 64;
    if count == 0 {
        return;
    }
    let root = udm.ensure_path(&["synthetic"]);
    let verbs = [
        "Limits",
        "Selects",
        "Schedules",
        "Shapes",
        "Meters",
        "Audits",
    ];
    let mut bucket = root;
    for i in 0..count {
        if i % BUCKET == 0 {
            let b = i / BUCKET;
            let feat = FEATURE_WORDS[b % FEATURE_WORDS.len()];
            let obj = OBJECT_WORDS[(b * 5 + 1) % OBJECT_WORDS.len()];
            bucket = udm.add(root, format!("{feat}-{obj}-{b}"), "", "");
        }
        let attr = ATTR_WORDS[(i * 11 + 2) % ATTR_WORDS.len()];
        let obj = OBJECT_WORDS[(i * 3 + 7) % OBJECT_WORDS.len()];
        let feat = FEATURE_WORDS[(i * 17 + 5) % FEATURE_WORDS.len()];
        let verb = verbs[rng.gen_range(0..verbs.len())];
        let name = format!("{attr}-{}", i % BUCKET);
        let desc = format!(
            "{verb} the {attr} of the {obj} object in the {feat} plane (profile {}).",
            i / BUCKET
        );
        udm.add(bucket, name, desc, "uint32");
    }
}

/// Sample a scarce annotation subset (the norsk-style 110-of-all case).
/// Deterministic in `seed`; preserves input order.
pub fn sample_annotations(full: &[AlignEntry], keep: usize, seed: u64) -> Vec<AlignEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    if keep >= full.len() {
        return full.to_vec();
    }
    // Reservoir-free: choose indices without replacement.
    let mut idx: Vec<usize> = (0..full.len()).collect();
    for i in 0..keep {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    let mut chosen: Vec<usize> = idx[..keep].to_vec();
    chosen.sort_unstable();
    chosen.into_iter().map(|i| full[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(seed: u64, strength: f64) -> UdmDataset {
        generate(
            &Catalog::base(),
            &UdmGenOptions {
                seed,
                paraphrase_strength: strength,
                distractors: 50,
                synthetic_leaves: 0,
            },
        )
    }

    #[test]
    fn udm_covers_catalog_features_plus_distractors() {
        let d = dataset(1, 0.6);
        assert!(
            d.udm.leaves().len() > 60,
            "only {} leaves",
            d.udm.leaves().len()
        );
        assert!(d.udm.lookup("protocols/bgp/neighbor/peer-as").is_some());
        assert!(d.udm.lookup("vlans/vlan/vlan-id").is_some());
        assert!(d.udm.lookup("extensions").is_some());
    }

    #[test]
    fn alignment_paths_resolve() {
        let d = dataset(2, 0.6);
        assert!(!d.alignment.is_empty());
        for a in &d.alignment {
            let id = d
                .udm
                .lookup(&a.udm_path)
                .unwrap_or_else(|| panic!("alignment path {} does not resolve", a.udm_path));
            assert!(d.udm.node(id).is_leaf());
        }
    }

    #[test]
    fn every_feature_param_occurrence_is_aligned() {
        let d = dataset(3, 0.6);
        let cat = Catalog::base();
        let expected: usize = cat
            .commands
            .iter()
            .filter(|c| !c.feature_path.is_empty())
            .map(|c| c.params.len())
            .sum();
        assert_eq!(d.alignment.len(), expected);
    }

    #[test]
    fn shared_parameters_share_a_leaf() {
        let d = dataset(4, 0.6);
        // bgp.peer-as and bgp.peer-group both use <peer-address> under
        // protocols/bgp/neighbor → one leaf, two alignment entries.
        let paths: Vec<&str> = d
            .alignment
            .iter()
            .filter(|a| {
                a.canonical_param == "peer-address"
                    && (a.command_key == "bgp.peer-as" || a.command_key == "bgp.peer-group")
            })
            .map(|a| a.udm_path.as_str())
            .collect();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0], paths[1]);
    }

    #[test]
    fn descriptions_are_paraphrased_not_copied() {
        let strong = dataset(5, 0.9);
        let cat = Catalog::base();
        let peer_as = strong.udm.lookup("protocols/bgp/neighbor/peer-as").unwrap();
        let udm_desc = &strong.udm.node(peer_as).description;
        let catalog_desc = &cat.command("bgp.peer-as").unwrap().params[1].description;
        assert_ne!(udm_desc, catalog_desc);
        // But the domain term survives paraphrasing.
        assert!(
            udm_desc.contains("autonomous") || udm_desc.contains("system"),
            "{udm_desc}"
        );
    }

    #[test]
    fn zero_strength_keeps_register_rewrite_only() {
        // At paraphrase strength 0 the annotation is the register-rewritten
        // text (no synonym substitution); sentence order may shuffle.
        let d = dataset(6, 0.0);
        let vlan_leaf = d.udm.lookup("vlans/vlan/vlan-id").unwrap();
        let desc = &d.udm.node(vlan_leaf).description;
        assert!(
            desc.contains("Specifies the identifier of the VLAN."),
            "lead sentence lost: {desc}"
        );
        assert!(
            desc.contains("Range: 1-4094."),
            "range rewrite lost: {desc}"
        );
        // The manual's verbose range phrasing must be gone.
        assert!(!desc.contains("in the range"), "{desc}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset(7, 0.5);
        let b = dataset(7, 0.5);
        assert_eq!(a.alignment, b.alignment);
        assert_eq!(a.udm.len(), b.udm.len());
    }

    #[test]
    fn sampled_annotations_are_a_subset() {
        let d = dataset(8, 0.5);
        let sub = sample_annotations(&d.alignment, 20, 99);
        assert_eq!(sub.len(), 20);
        for e in &sub {
            assert!(d.alignment.contains(e));
        }
        // Deterministic.
        assert_eq!(sub, sample_annotations(&d.alignment, 20, 99));
        // Oversampling returns everything.
        assert_eq!(
            sample_annotations(&d.alignment, 10_000, 1).len(),
            d.alignment.len()
        );
    }

    #[test]
    fn synthetic_leaves_scale_linearly_and_deterministically() {
        let with_synth = |n: usize, seed: u64| {
            generate(
                &Catalog::base(),
                &UdmGenOptions {
                    seed,
                    paraphrase_strength: 0.5,
                    distractors: 10,
                    synthetic_leaves: n,
                },
            )
        };
        let base = with_synth(0, 9);
        let big = with_synth(20_000, 9);
        // Exactly `synthetic_leaves` extra leaves, all under `synthetic/`
        // (bucket containers are not leaves; they always hold children).
        assert_eq!(big.udm.leaves().len(), base.udm.leaves().len() + 20_000);
        let synth_root = big.udm.lookup("synthetic").expect("synthetic subtree");
        assert!(!big.udm.node(synth_root).is_leaf());
        // The filler does not contaminate the ground truth.
        assert_eq!(big.alignment, base.alignment);
        for a in &big.alignment {
            assert!(!a.udm_path.starts_with("synthetic/"));
        }
        // Seeded: same options → identical tree.
        let again = with_synth(20_000, 9);
        assert_eq!(big.udm.len(), again.udm.len());
        let leaves = big.udm.leaves();
        let leaves_again = again.udm.leaves();
        assert_eq!(leaves, leaves_again);
        for (&l, &r) in leaves.iter().zip(leaves_again.iter()).step_by(997) {
            assert_eq!(big.udm.node(l).description, again.udm.node(r).description);
            assert_eq!(big.udm.path_of(l), again.udm.path_of(r));
        }
    }
}
