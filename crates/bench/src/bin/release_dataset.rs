//! The paper's third contribution: "we release a parsed, validated, and
//! expert-curated dataset of device manual corpus of different vendors
//! for future research." This harness materialises the equivalent
//! artefact from the synthetic pipeline: per-vendor corpus JSON (one file
//! per command, Table-3 format), the validated VDM trees, the UDM, and
//! the alignment annotations.
//!
//! ```sh
//! cargo run --release -p nassim-bench --bin release_dataset [out-dir]
//! ```

use nassim::pipeline::assimilate;
use nassim_bench::fixtures::SEED;
use nassim_datasets::{catalog::Catalog, manualgen, style, udmgen};
use nassim_parser::parser_for;
use std::fs;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "dataset".to_string())
        .into();
    let catalog = Catalog::base();

    for vendor in style::VENDORS {
        let st = style::vendor(vendor)?;
        let manual = manualgen::generate(
            &st,
            &catalog,
            &manualgen::GenOptions {
                seed: SEED,
                syntax_error_rate: 0.0, // the *curated* (expert-corrected) release
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        );
        let a = assimilate(
            parser_for(vendor)?.as_ref(),
            manual
                .pages
                .iter()
                .map(|p| (p.url.as_str(), p.html.as_str())),
        )?;

        // Per-command corpus JSON, named by page key.
        let corpus_dir = out.join(vendor).join("corpus");
        fs::create_dir_all(&corpus_dir)?;
        for page in &a.parse.pages {
            let key = page
                .url
                .rsplit('/')
                .next()
                .unwrap_or("page")
                .replace(['.', ':'], "_");
            fs::write(corpus_dir.join(format!("{key}.json")), page.entry.to_json())?;
        }

        // The validated VDM tree.
        fs::write(
            out.join(vendor).join("vdm.json"),
            serde_json::to_string_pretty(&a.build.vdm)?,
        )?;
        println!(
            "{vendor}: {} corpus files, VDM with {} CLI-view pairs",
            a.parse.pages.len(),
            a.build.vdm.cli_view_pairs()
        );
    }

    // The UDM and the expert alignment annotations.
    let data = udmgen::generate(
        &catalog,
        &udmgen::UdmGenOptions {
            seed: SEED,
            ..Default::default()
        },
    );
    fs::write(
        out.join("udm.json"),
        serde_json::to_string_pretty(&data.udm)?,
    )?;
    fs::write(
        out.join("alignment.json"),
        serde_json::to_string_pretty(&data.alignment)?,
    )?;
    println!(
        "UDM: {} attributes; alignment: {} annotated pairs",
        data.udm.len(),
        data.alignment.len()
    );

    fs::write(
        out.join("README.md"),
        "# NAssim reproduction dataset\n\n\
         Synthetic equivalent of the paper's released corpus: per-vendor\n\
         parsed command corpora (Table-3 JSON, one file per command),\n\
         validated VDM trees, the unified device model, and the\n\
         parameter-alignment annotations. Regenerate with\n\
         `cargo run --release -p nassim-bench --bin release_dataset`.\n",
    )?;
    println!("dataset written to {}", out.display());
    Ok(())
}
