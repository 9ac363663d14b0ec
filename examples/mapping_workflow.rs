//! The VDM-UDM mapping phase as a NetOps engineer experiences it:
//! pre-train encoders, fine-tune NetBERT on expert labels, then ask for
//! human-comprehensible recommendations for individual CLI parameters.
//!
//! ```sh
//! cargo run --release --example mapping_workflow
//! ```

use nassim::datasets::{catalog::Catalog, manualgen, style, udmgen};
use nassim::mapper::context::{vdm_param_context, vdm_param_refs};
use nassim::mapper::eval::{evaluate, resolve_cases};
use nassim::mapper::models::{EncoderEmbedder, Mapper};
use nassim::modelzoo::{ModelZoo, PretrainOptions};
use nassim::parser::parser_for;
use nassim::pipeline::assimilate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Inputs: a validated VDM and the controller's UDM. ─────────────
    let catalog = Catalog::base();
    let style = style::vendor("helix")?;
    let manual = manualgen::generate(
        &style,
        &catalog,
        &manualgen::GenOptions {
            seed: 8,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    let a = assimilate(
        parser_for("helix")?.as_ref(),
        manual
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str())),
    )?;
    let vdm = &a.build.vdm;
    let udm_data = udmgen::generate(&catalog, &Default::default());
    let udm = &udm_data.udm;
    println!(
        "VDM: {} parameters; UDM: {} candidate attributes",
        vdm_param_refs(vdm).len(),
        udm.leaves().len()
    );

    // ── Pre-train + domain-adapt the encoder. ─────────────────────────
    let mut domain_texts: Vec<String> = vdm_param_refs(vdm)
        .iter()
        .map(|r| vdm_param_context(vdm, r).joined())
        .collect();
    for leaf in udm.leaves() {
        domain_texts.push(nassim::mapper::context::udm_leaf_context(udm, leaf).joined());
    }
    let zoo = ModelZoo::pretrain(&PretrainOptions::default(), &domain_texts);

    // Expert labels (here: the generator's ground truth stands in for the
    // engineers' annotations).
    let annotations: Vec<(String, String, String)> = udm_data
        .alignment
        .iter()
        .map(|al| {
            (
                al.command_key.clone(),
                style.param(&al.canonical_param),
                al.udm_path.clone(),
            )
        })
        .collect();
    let cases = resolve_cases(vdm, udm, &annotations);
    let (train, test) = cases.split_at(cases.len() / 2);
    let netbert = zoo.netbert(train, udm, &Default::default());
    let embedder = EncoderEmbedder {
        encoder: netbert.clone(),
        vocab: zoo.vocab.clone(),
    };
    let mapper = Mapper::ir_dl(udm, std::sync::Arc::new(embedder), 50);

    // ── Recommendations, the human-comprehensible output (Figure 10). ──
    println!("\nsample recommendations:");
    for case in test.iter().take(3) {
        println!("  parameter [{}]", case.label);
        println!("    context: {}", case.context.sequences[2]);
        for (rank, (leaf, score)) in mapper.recommend(&case.context, 3).iter().enumerate() {
            let mark = if *leaf == case.truth { "✓" } else { " " };
            println!(
                "    {}. {} (score {:.3}) {} — {}",
                rank + 1,
                udm.path_of(*leaf),
                score,
                mark,
                udm.node(*leaf).description
            );
        }
    }

    // ── Quantify the benefit on the held-out half. ────────────────────
    let report = evaluate(&mapper, test, &[1, 5, 10]);
    println!(
        "\nheld-out recall@1={:.0}% @5={:.0}% @10={:.0}% (MRR {:.3}, {} cases)",
        report.recall_pct(1),
        report.recall_pct(5),
        report.recall_pct(10),
        report.mrr,
        report.cases
    );
    let accel = 1.0 / (1.0 - report.recall_pct(10) / 100.0).max(1e-9);
    println!("→ mapping-phase acceleration ≈ {accel:.1}x (paper: 9.1x)");
    Ok(())
}
