//! Loading the original dataset files.
//!
//! All experiments default to synthetic equivalents, but if you have the
//! real MovieLens-100K `u.data` (or any `user,item` CSV) on disk, this
//! example trains PTF-FedRec on it:
//!
//! ```sh
//! cargo run --release --example real_data -- /path/to/u.data
//! ```
//!
//! Without an argument it demonstrates the parsers on embedded samples.

use ptf_fedrec::core::{PtfConfig, PtfFedRec};
use ptf_fedrec::data::loader::{parse_movielens_100k, parse_pairs_csv};
use ptf_fedrec::data::{DatasetStats, TrainTestSplit};
use ptf_fedrec::federated::Engine;
use ptf_fedrec::models::{ModelHyper, ModelKind};

fn main() {
    let dataset = match std::env::args().nth(1) {
        Some(path) => {
            let content = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            // u.data is tab-separated; fall back to CSV
            parse_movielens_100k("user-data", &content)
                .or_else(|_| parse_pairs_csv("user-data", &content))
                .expect("unrecognized dataset format")
        }
        None => {
            println!("no file given — parsing an embedded MovieLens-style sample\n");
            let sample = "\
1\t10\t4\t881250949
1\t20\t3\t881250950
1\t30\t5\t881250951
1\t40\t2\t881250952
1\t50\t4\t881250953
2\t10\t5\t881250954
2\t20\t4\t881250955
2\t60\t3\t881250956
2\t70\t4\t881250957
3\t30\t4\t881250958
3\t50\t2\t881250959
3\t60\t5\t881250960
3\t80\t4\t881250961
4\t10\t3\t881250962
4\t30\t4\t881250963
4\t80\t5\t881250964
4\t90\t4\t881250965
";
            parse_movielens_100k("sample", sample).expect("sample parses")
        }
    };

    println!("{}", DatasetStats::of(&dataset));

    let mut rng = ptf_fedrec::data::test_rng(3);
    let split = TrainTestSplit::split_80_20(&dataset, &mut rng);
    let mut cfg = PtfConfig::small();
    cfg.rounds = 5;
    cfg.alpha = cfg.alpha.min(dataset.num_items() / 2);
    let hyper = ModelHyper::small();
    let protocol =
        PtfFedRec::try_new(&split.train, ModelKind::NeuMf, ModelKind::LightGcn, &hyper, cfg)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
    let mut fed = Engine::new(protocol);
    let trace = fed.run();
    println!(
        "trained {} rounds; final client loss {:.4}",
        trace.num_rounds(),
        trace.final_client_loss()
    );
    let report = fed.evaluate(&split.train, &split.test, 10);
    println!("{report}");
}
