//! Privacy audit: play the honest-but-curious server and attack client
//! uploads under each defense (the Table V experiment, interactively).
//!
//! ```sh
//! cargo run --release --example privacy_audit
//! ```

use ptf_fedrec::core::{DefenseKind, PtfConfig, PtfFedRec};
use ptf_fedrec::data::{DatasetPreset, Scale};
use ptf_fedrec::federated::Engine;
use ptf_fedrec::models::{ModelHyper, ModelKind};

fn main() {
    let split = DatasetPreset::MovieLens100K.split(Scale::Small, 13);

    let defenses = [
        DefenseKind::NoDefense,
        DefenseKind::Ldp { epsilon: 2.0 },
        DefenseKind::Sampling,
        DefenseKind::SamplingSwapping,
    ];

    println!("{:<22} {:>10} {:>10} {:>12}", "defense", "attack F1", "NDCG@20", "avg upload");
    for defense in defenses {
        let mut cfg = PtfConfig::small();
        cfg.rounds = 6;
        cfg.defense = defense;
        let hyper = ModelHyper::small();
        let mut fed = Engine::new(
            PtfFedRec::try_new(&split.train, ModelKind::NeuMf, ModelKind::Ngcf, &hyper, cfg)
                .expect("example config is valid"),
        );
        fed.run();

        // the curious server's view: the final round of uploads
        let uploads = fed.protocol().last_uploads();
        let f1 = fed.protocol().attack_f1();
        let ndcg = fed.evaluate(&split.train, &split.test, 20).metrics.ndcg;
        let avg_upload: f64 =
            uploads.iter().map(|u| u.len() as f64).sum::<f64>() / uploads.len().max(1) as f64;
        println!("{:<22} {:>10.4} {:>10.4} {:>9.1} items", defense.name(), f1, ndcg, avg_upload);
    }
    println!("\nlower F1 = better privacy; the paper's full defense trades a little");
    println!("NDCG for a large drop in attack accuracy (Table V).");
}
