//! Cross-crate integration: the VDM-UDM mapping phase — context
//! extraction from a *parsed* VDM, all three mapper families, and the
//! NetBERT fine-tuning loop.
// Test fixtures: unwrap/expect outside #[test] fns (helpers) are fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::{catalog::Catalog, manualgen, style, udmgen};
use nassim::mapper::eval::{evaluate, resolve_cases};
use nassim::mapper::models::{EncoderEmbedder, Mapper};
use nassim::modelzoo::{ModelZoo, PretrainOptions};
use nassim::parser::parser_for;
use nassim::pipeline::assimilate;
use nassim_corpus::Vdm;

fn helix_vdm(catalog: &Catalog) -> Vdm {
    let st = style::vendor("helix").unwrap();
    let manual = manualgen::generate(
        &st,
        catalog,
        &manualgen::GenOptions {
            seed: 200,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    assimilate(
        parser_for("helix").unwrap().as_ref(),
        manual
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str())),
    )
    .unwrap()
    .build
    .vdm
}

#[test]
fn ground_truth_resolves_against_parsed_vdm() {
    let catalog = Catalog::base();
    let vdm = helix_vdm(&catalog);
    let data = udmgen::generate(&catalog, &Default::default());
    let st = style::vendor("helix").unwrap();
    let annotations: Vec<_> = data
        .alignment
        .iter()
        .map(|a| {
            (
                a.command_key.clone(),
                st.param(&a.canonical_param),
                a.udm_path.clone(),
            )
        })
        .collect();
    let cases = resolve_cases(&vdm, &data.udm, &annotations);
    // Every alignment entry resolves to at least one placement.
    assert!(
        cases.len() >= data.alignment.len(),
        "only {} cases from {} annotations",
        cases.len(),
        data.alignment.len()
    );
    // Contexts carry the five paper sequences.
    assert!(cases.iter().all(|c| c.context.k() == 5));
}

#[test]
fn ir_mapper_beats_chance_and_dl_pipeline_runs() {
    let catalog = Catalog::base();
    let vdm = helix_vdm(&catalog);
    let data = udmgen::generate(&catalog, &Default::default());
    let st = style::vendor("helix").unwrap();
    let annotations: Vec<_> = data
        .alignment
        .iter()
        .map(|a| {
            (
                a.command_key.clone(),
                st.param(&a.canonical_param),
                a.udm_path.clone(),
            )
        })
        .collect();
    let cases = resolve_cases(&vdm, &data.udm, &annotations);

    // IR baseline: far above chance (chance ≈ k / #leaves).
    let ir = Mapper::ir(&data.udm);
    let ir_report = evaluate(&ir, &cases, &[1, 10]);
    let chance_at_10 = 10.0 / data.udm.leaves().len() as f64;
    assert!(
        ir_report.recall[&10] > chance_at_10 * 3.0,
        "IR r@10 {:.3} vs chance {:.3}",
        ir_report.recall[&10],
        chance_at_10
    );

    // NetBERT pipeline end to end: pretrain → fine-tune (half the cases)
    // → evaluate on the other half.
    let mut domain_texts: Vec<String> = cases.iter().map(|c| c.context.joined()).collect();
    for leaf in data.udm.leaves() {
        domain_texts.push(nassim::mapper::context::udm_leaf_context(&data.udm, leaf).joined());
    }
    let zoo = ModelZoo::pretrain(
        &PretrainOptions {
            seed: 11,
            pair_count: 150,
            epochs: 2,
            ..Default::default()
        },
        &domain_texts,
    );
    let (train, test) = cases.split_at(cases.len() / 2);
    let netbert = zoo.netbert(train, &data.udm, &Default::default());
    let emb = EncoderEmbedder {
        encoder: netbert.clone(),
        vocab: zoo.vocab.clone(),
    };
    let dl = Mapper::ir_dl(&data.udm, std::sync::Arc::new(emb), 50);
    let dl_report = evaluate(&dl, test, &[10]);
    assert!(
        dl_report.recall[&10] > chance_at_10 * 2.0,
        "NetBERT r@10 {:.3} vs chance {:.3}",
        dl_report.recall[&10],
        chance_at_10
    );
}

#[test]
fn finetuning_improves_or_preserves_sbert_recall() {
    let catalog = Catalog::base();
    let vdm = helix_vdm(&catalog);
    let data = udmgen::generate(&catalog, &Default::default());
    let st = style::vendor("helix").unwrap();
    let annotations: Vec<_> = data
        .alignment
        .iter()
        .map(|a| {
            (
                a.command_key.clone(),
                st.param(&a.canonical_param),
                a.udm_path.clone(),
            )
        })
        .collect();
    let cases = resolve_cases(&vdm, &data.udm, &annotations);
    let mut domain_texts: Vec<String> = cases.iter().map(|c| c.context.joined()).collect();
    for leaf in data.udm.leaves() {
        domain_texts.push(nassim::mapper::context::udm_leaf_context(&data.udm, leaf).joined());
    }
    let zoo = ModelZoo::pretrain(
        &PretrainOptions {
            seed: 12,
            pair_count: 150,
            epochs: 2,
            ..Default::default()
        },
        &domain_texts,
    );
    let (train, test) = cases.split_at(2 * cases.len() / 3);
    let netbert = zoo.netbert(train, &data.udm, &Default::default());

    let sbert_emb = EncoderEmbedder {
        encoder: zoo.sbert.clone(),
        vocab: zoo.vocab.clone(),
    };
    let netbert_emb = EncoderEmbedder {
        encoder: netbert.clone(),
        vocab: zoo.vocab.clone(),
    };
    let sbert_r = evaluate(
        &Mapper::dl(&data.udm, std::sync::Arc::new(sbert_emb)),
        test,
        &[10],
    );
    let netbert_r = evaluate(
        &Mapper::dl(&data.udm, std::sync::Arc::new(netbert_emb)),
        test,
        &[10],
    );
    // Domain adaptation must not collapse performance; typically it helps.
    assert!(
        netbert_r.recall[&10] + 0.10 >= sbert_r.recall[&10],
        "fine-tuning collapsed recall: sbert {:.3} → netbert {:.3}",
        sbert_r.recall[&10],
        netbert_r.recall[&10]
    );
}
