//! Communication report: measure what each federated protocol actually
//! puts on the wire for the same training task (the Table IV experiment
//! as a runnable program), plus the scaling argument of §III-C2.
//!
//! All four protocols go through the *same* `FederatedProtocol` engine
//! loop — the measurement code never branches on the protocol.
//!
//! ```sh
//! cargo run --release --example communication_report
//! ```

use ptf_fedrec::baselines::{Fcf, FcfConfig, FedMf, FedMfConfig, MetaMf, MetaMfConfig};
use ptf_fedrec::comm::format_bytes;
use ptf_fedrec::core::{PtfConfig, PtfFedRec};
use ptf_fedrec::data::{DatasetPreset, TrainTestSplit};
use ptf_fedrec::federated::{Engine, FederatedProtocol};
use ptf_fedrec::models::{ModelHyper, ModelKind};

fn main() {
    let mut rng = ptf_fedrec::data::test_rng(31);
    let data = DatasetPreset::Gowalla.small().generate(&mut rng);
    let split = TrainTestSplit::split_80_20(&data, &mut rng);
    println!(
        "task: {} clients, {} items, 3 measured rounds each\n",
        data.num_users(),
        data.num_items()
    );

    println!("{:<12} {:>16} {:>16} {:>14}", "protocol", "per client-round", "total", "messages");

    let mut ptf_cfg = PtfConfig::small();
    ptf_cfg.rounds = 3;
    let protocols: Vec<Box<dyn FederatedProtocol>> = vec![
        Box::new(Fcf::new(&split.train, FcfConfig::small())),
        Box::new(FedMf::new(&split.train, FedMfConfig::small())),
        Box::new(MetaMf::new(&split.train, MetaMfConfig::small())),
        Box::new(
            PtfFedRec::try_new(
                &split.train,
                ModelKind::NeuMf,
                ModelKind::Ngcf,
                &ModelHyper::small(),
                ptf_cfg,
            )
            .expect("example config is valid"),
        ),
    ];

    for protocol in protocols {
        let mut engine = Engine::new(protocol);
        for _ in 0..3 {
            engine.run_round();
        }
        let s = engine.ledger().summary();
        println!(
            "{:<12} {:>16} {:>16} {:>14}",
            engine.protocol().name(),
            format_bytes(s.avg_client_bytes_per_round),
            format_bytes(s.total_bytes as f64),
            s.messages
        );
    }

    println!("\nwhy it matters as models grow (per client-round, analytic):");
    println!("{:>12} {:>12} {:>12}", "items", "FCF", "PTF-FedRec");
    for items in [10_000usize, 100_000, 1_000_000] {
        let fcf_bytes = 2.0 * (items * 33 * 4) as f64;
        let ptf_bytes = ((0.55 * 46.0 * 3.5) as usize + 30) as f64 * 12.0;
        println!("{:>12} {:>12} {:>12}", items, format_bytes(fcf_bytes), format_bytes(ptf_bytes));
    }
}
