//! Table IV — average per-client, per-round communication costs.
//!
//! Parameter-transmission baselines move embedding-matrix-sized (or
//! ciphertext-expanded) payloads; PTF-FedRec moves a few dozen prediction
//! triples. Costs are *measured* from the engine's ledger — all four
//! protocols run through the same `FederatedProtocol` code path.

use ptf_baselines::{Engine, Fcf, FedMf, FederatedProtocol, MetaMf};
use ptf_bench::*;
use ptf_comm::format_bytes;
use ptf_core::PtfFedRec;
use ptf_data::DatasetPreset;
use ptf_models::{ModelHyper, ModelKind};

/// Communication per round is stationary, so a few rounds suffice.
const MEASURE_ROUNDS: u32 = 3;

fn main() {
    let scale = scale();
    let h = ModelHyper::at(scale);
    let mut table = Table::new(
        format!("Table IV — avg communication per client per round ({scale:?} scale)"),
        &["Method", "MovieLens-100K", "Steam-200K", "Gowalla"],
    );
    let mut rows: Vec<Vec<String>> = Vec::new();

    for (col, preset) in DatasetPreset::ALL.into_iter().enumerate() {
        eprintln!("[table4] measuring {}", preset.name());
        let split = split_for(preset, scale);

        let mut ptf_cfg = ptf_config(scale);
        ptf_cfg.rounds = MEASURE_ROUNDS;
        let protocols: Vec<Box<dyn FederatedProtocol>> = vec![
            Box::new(Fcf::new(&split.train, fcf_config(scale))),
            Box::new(FedMf::new(&split.train, fedmf_config(scale))),
            Box::new(MetaMf::new(&split.train, metamf_config(scale))),
            Box::new(
                PtfFedRec::try_new(&split.train, ModelKind::NeuMf, ModelKind::Ngcf, &h, ptf_cfg)
                    .expect("harness config is valid"),
            ),
        ];
        for (row, protocol) in protocols.into_iter().enumerate() {
            if col == 0 {
                rows.push(vec![protocol.name().to_string()]);
            }
            let mut engine = Engine::new(protocol);
            for _ in 0..MEASURE_ROUNDS {
                engine.run_round();
            }
            rows[row].push(format_bytes(engine.ledger().avg_client_bytes_per_round()));
        }
    }

    for row in rows {
        table.row(row);
    }
    table.print();
    table.save("table4_communication");
    println!(
        "\n(paper: FCF 0.46/1.31/2.59 MB; FedMF 7.32/20.98/41.43 MB; \
         MetaMF 0.54/1.63/3.22 MB; PTF-FedRec 3.02/1.21/1.59 KB)"
    );
}
