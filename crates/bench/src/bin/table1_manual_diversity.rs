//! Table 1 — diversity of device user manuals: the CSS vocabulary each
//! synthetic vendor uses for the five command-reference attributes,
//! including the intra-vendor variant classes that motivate the TDD
//! parser workflow (§2.2).

use nassim_datasets::style::vendors;

fn main() {
    let vs = vendors();
    println!("Table 1: Diversity of Device User Manuals (synthetic vendors)");
    println!();
    let headers: Vec<String> = vs.iter().map(|v| v.name.to_string()).collect();
    println!("{:<14} {}", "Attribute", headers.join(" | "));
    println!("{}", "-".repeat(90));

    let row = |label: &str, cells: Vec<String>| {
        println!("{label:<14} {}", cells.join(" | "));
    };
    row(
        "CLIs",
        vs.iter()
            .map(|v| match v.css.clis_variant {
                Some(var) => format!("{} (+{})", v.css.clis, var),
                None => v.css.clis.to_string(),
            })
            .collect(),
    );
    row(
        "FuncDef",
        vs.iter().map(|v| v.css.func_def.to_string()).collect(),
    );
    row(
        "ParentViews",
        vs.iter().map(|v| v.css.parent_views.to_string()).collect(),
    );
    row(
        "ParaDef",
        vs.iter().map(|v| v.css.para_def.to_string()).collect(),
    );
    row(
        "Examples",
        vs.iter()
            .map(|v| {
                if v.name == "norsk" {
                    "/ (explicit context)".to_string()
                } else {
                    v.css.examples.to_string()
                }
            })
            .collect(),
    );
    row(
        "keyword spans",
        vs.iter().map(|v| v.css.keyword_span.join(",")).collect(),
    );
    row(
        "param spans",
        vs.iter().map(|v| v.css.param_span.join(",")).collect(),
    );
    println!();
    println!(
        "Variant classes rotate within one manual at rate ≈{:.0}% (cirrus/helix),",
        vendors()[0].css.variant_rate * 100.0
    );
    println!("reproducing the paper's pCE_CmdEnv / pCENB_CmdEnv_NoBold inconsistency.");
}
