//! Table V — Top Guess Attack F1 and model NDCG under each defense.
//!
//! The server attacks every client's final-round upload by declaring the
//! top 20% of scores positive; lower F1 = better privacy. NDCG@20 of
//! PTF-FedRec(NGCF) shows the utility each defense costs.

use ptf_bench::*;
use ptf_core::DefenseKind;
use ptf_data::DatasetPreset;

fn main() {
    let scale = scale();
    let mut table = Table::new(
        format!("Table V — Top Guess Attack F1 / NDCG@{EVAL_K} ({scale:?} scale)"),
        &["Defense", "ML F1", "ML NDCG", "Steam F1", "Steam NDCG", "Gowalla F1", "Gowalla NDCG"],
    );

    let defenses = DefenseKind::TABLE_V;
    let mut cells: Vec<Vec<String>> = defenses.iter().map(|d| vec![d.name().to_string()]).collect();

    for preset in DatasetPreset::ALL {
        let split = split_for(preset, scale);
        for (row, &defense) in defenses.iter().enumerate() {
            eprintln!("[table5] {} under {}", preset.name(), defense.name());
            let (f1, ndcg) = privacy_run(&split, defense, scale);
            cells[row].push(fmt4(f1));
            cells[row].push(fmt4(ndcg));
        }
    }

    for row in cells {
        table.row(row);
    }
    table.print();
    table.save("table5_privacy");
    println!(
        "\n(paper ML-100K: No Defense 0.9836/0.1909, LDP 0.5873/0.1503, \
         Sampling 0.5171/0.1834, Sampling+Swapping 0.4539/0.1775)"
    );
}
