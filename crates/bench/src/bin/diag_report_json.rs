//! CI gate for the diagnostics JSON contract: assimilate a deliberately
//! defective manual (injected syntax errors plus one unparseable page),
//! render the resulting `DiagReport` to JSON, and verify it round-trips
//! through `serde_json` unchanged. Exits non-zero if the pipeline panics,
//! produces no diagnostics, or the JSON encoding loses information.
//!
//! ```sh
//! cargo run --release -p nassim-bench --bin diag_report_json
//! ```

use nassim::diag::{DiagReport, Severity};
use nassim::pipeline::assimilate;
use nassim_datasets::{catalog::Catalog, manualgen, style};
use nassim_parser::parser_for;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let st = style::vendor("helix")?;
    let mut manual = manualgen::generate(
        &st,
        &Catalog::base(),
        &manualgen::GenOptions {
            seed: 400,
            syntax_error_rate: 0.08,
            ambiguity_rate: 0.05,
            ..Default::default()
        },
    );
    manual.pages.push(manualgen::ManualPage {
        url: "https://manuals.example/helix/broken-page.html".to_string(),
        command_key: String::new(),
        html: "<div class=\"sectiontitle\">Format</div><p>vlan <b class=\"trunc".to_string(),
    });

    let a = assimilate(
        parser_for("helix")?.as_ref(),
        manual
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str())),
    )?;

    if a.diagnostics.is_empty() {
        return Err("defective manual produced no diagnostics".into());
    }

    let json = a.diagnostics.to_json();
    let back = DiagReport::from_json(&json)?;
    if back != a.diagnostics {
        return Err("DiagReport JSON round-trip lost information".into());
    }

    println!(
        "diagnostics round-trip OK: {} records ({} errors, {} warnings, {} notes)",
        a.diagnostics.len(),
        a.diagnostics.count(Severity::Error),
        a.diagnostics.count(Severity::Warning),
        a.diagnostics.count(Severity::Note),
    );
    println!("{json}");
    Ok(())
}
