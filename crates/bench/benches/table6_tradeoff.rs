//! Table VI — privacy/utility cost-effectiveness ΔF1/ΔNDCG.
//!
//! How much attack F1 each defense buys per point of NDCG sacrificed,
//! relative to the undefended run. Higher is better.

use ptf_bench::*;
use ptf_core::DefenseKind;
use ptf_data::DatasetPreset;

fn main() {
    let scale = scale();
    let mut table = Table::new(
        format!("Table VI — ΔF1/ΔNDCG cost-effectiveness ({scale:?} scale)"),
        &["Method", "MovieLens-100K", "Steam-200K", "Gowalla"],
    );
    let defenses = DefenseKind::TABLE_V;
    let mut cells: Vec<Vec<String>> = defenses
        .iter()
        .skip(1) // the baseline row (No Defense) defines the deltas
        .map(|d| vec![d.name().to_string()])
        .collect();

    for preset in DatasetPreset::ALL {
        let split = split_for(preset, scale);
        eprintln!("[table6] {} — baseline (no defense)", preset.name());
        let (f1_base, ndcg_base) = privacy_run(&split, DefenseKind::NoDefense, scale);
        for (row, &defense) in defenses.iter().skip(1).enumerate() {
            eprintln!("[table6] {} — {}", preset.name(), defense.name());
            let (f1, ndcg) = privacy_run(&split, defense, scale);
            let d_f1 = f1_base - f1;
            let d_ndcg = ndcg_base - ndcg;
            // a defense that costs zero (or negative) NDCG has unbounded
            // cost-effectiveness
            cells[row].push(if d_ndcg <= 1e-4 {
                "inf (no utility cost)".to_string()
            } else {
                format!("{:.1}", d_f1 / d_ndcg)
            });
        }
    }

    for row in cells {
        table.row(row);
    }
    table.print();
    table.save("table6_tradeoff");
    println!(
        "\n(paper: LDP 9.7/4.45/97.6; Sampling 62.2/60.3/680.8; \
         Sampling+Swapping 39.5/30.9/421.1)"
    );
}
