//! Table 5 — Mapper performance: recall@top-k for the seven compared
//! models on both mapping settings (rich-annotation helix→UDM, scarce
//! norsk→UDM), with cross-vendor NetBERT fine-tuning (§7.3).
//!
//! Also prints the §7.3 headline, the assimilation acceleration factor:
//! "If Mapper is allowed to provide 10 suggestions for parameter-pair
//! matching, NetOps engineers only need to refer to the manual 11% of
//! the time during the mapping phase, resulting in acceleration of the
//! mapping phase by 9.1×." The factor is 1/(1 − recall@10) of the best
//! model in each setting; at 100 % recall@10 there is no manual lookup
//! left to accelerate, and the headline says so.
//!
//! Exits non-zero when any printed paper shape check is false.

use nassim_bench::fixtures::{mapping_experiment, MODEL_ORDER};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ks = [1, 3, 5, 7, 9, 10, 20, 30];
    let outcome = mapping_experiment(&ks)?;

    println!("Table 5: Mapper performance — recall@top-k (%)");
    println!();
    for (setting, models) in &outcome.reports {
        println!(
            "Mapping setting: {setting}  ({} annotated parameter occurrences)",
            outcome.case_counts[setting]
        );
        print!("{:<12}", "Models");
        for k in ks {
            print!("{k:>6}");
        }
        println!();
        for name in MODEL_ORDER {
            let r = &models[name];
            print!("{name:<12}");
            for k in ks {
                print!("{:>6.0}", r.recall_pct(k));
            }
            println!();
        }
        println!();
    }

    // The relative ordering the paper reports.
    println!("paper shape check (recall@10):");
    let mut failed = Vec::new();
    for (setting, models) in &outcome.reports {
        let at10 = |m: &str| models[m].recall_pct(10);
        let checks = [
            ("SBERT>SimCSE", at10("SBERT") > at10("SimCSE")),
            ("IR+SBERT≥SBERT", at10("IR+SBERT") + 1.0 >= at10("SBERT")),
            ("NetBERT≥SBERT", at10("NetBERT") + 1.0 >= at10("SBERT")),
            ("IR+NetBERT≥IR", at10("IR+NetBERT") >= at10("IR")),
        ];
        let line: Vec<String> = checks
            .iter()
            .map(|(name, ok)| format!("{name}: {ok}"))
            .collect();
        println!("  [{setting}] {}", line.join(" | "));
        for (name, _) in checks.iter().filter(|(_, ok)| !ok) {
            failed.push(format!("[{setting}] {name}"));
        }
    }
    println!();

    println!("Headline: assimilation acceleration (paper: 9.1x at 89% recall@10)");
    for (setting, models) in &outcome.reports {
        let (best_name, best) = MODEL_ORDER
            .iter()
            .map(|&m| (m, &models[m]))
            .max_by(|a, b| a.1.recall_pct(10).total_cmp(&b.1.recall_pct(10)))
            .ok_or("no models evaluated")?;
        let recall10 = best.recall_pct(10) / 100.0;
        let manual_lookup = 1.0 - recall10;
        let acceleration = if manual_lookup > 0.0 {
            format!("{:.1}x acceleration", 1.0 / manual_lookup)
        } else {
            "no manual lookups".to_string()
        };
        println!(
            "  {setting}: best model {best_name}, recall@10 = {:.0}% → engineers consult the manual {:.0}% of the time → {acceleration}",
            recall10 * 100.0,
            manual_lookup * 100.0,
        );
    }
    if !failed.is_empty() {
        return Err(format!("paper shape checks failed: {}", failed.join(", ")).into());
    }
    Ok(())
}
