//! Table III — recommendation performance of PTF-FedRec against
//! centralized and federated baselines on all three datasets.

use ptf_baselines::{Centralized, Engine, Fcf, FedMf, FederatedProtocol, MetaMf};
use ptf_bench::*;
use ptf_data::DatasetPreset;
use ptf_models::{ModelHyper, ModelKind};

fn main() {
    let scale = scale();
    let h = ModelHyper::at(scale);

    // method name → (recall, ndcg) per dataset, in preset order
    let mut rows: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    fn push(rows: &mut Vec<(String, Vec<(f64, f64)>)>, name: String, val: (f64, f64)) {
        if let Some(entry) = rows.iter_mut().find(|(n, _)| *n == name) {
            entry.1.push(val);
        } else {
            rows.push((name, vec![val]));
        }
    }

    for preset in DatasetPreset::ALL {
        let split = split_for(preset, scale);
        eprintln!("[table3] {} — centralized baselines", preset.name());
        for kind in ModelKind::ALL {
            let central = Centralized::new(kind, &split.train, &h, centralized_config(scale));
            let mut engine = Engine::new(central);
            engine.run();
            let r = engine.evaluate(&split.train, &split.test, EVAL_K);
            push(
                &mut rows,
                format!("Centralized {}", kind.name()),
                (r.metrics.recall, r.metrics.ndcg),
            );
        }

        // every federated baseline rides the same engine code path
        let baselines: Vec<Box<dyn FederatedProtocol>> = vec![
            Box::new(Fcf::new(&split.train, fcf_config(scale))),
            Box::new(FedMf::new(&split.train, fedmf_config(scale))),
            Box::new(MetaMf::new(&split.train, metamf_config(scale))),
        ];
        for protocol in baselines {
            eprintln!("[table3] {} — {}", preset.name(), protocol.name());
            let name = protocol.name().to_string();
            let engine = run_protocol(protocol);
            let r = engine.evaluate(&split.train, &split.test, EVAL_K);
            push(&mut rows, name, (r.metrics.recall, r.metrics.ndcg));
        }

        for server in ModelKind::ALL {
            eprintln!("[table3] {} — PTF-FedRec({})", preset.name(), server.name());
            let fed = run_ptf(&split, ModelKind::NeuMf, server, ptf_config(scale), &h);
            let r = fed.evaluate(&split.train, &split.test, EVAL_K);
            push(
                &mut rows,
                format!("PTF-FedRec({})", server.name()),
                (r.metrics.recall, r.metrics.ndcg),
            );
        }
    }

    let mut table = Table::new(
        format!("Table III — Recall@{EVAL_K} / NDCG@{EVAL_K} ({scale:?} scale)"),
        &[
            "Method",
            "ML R@20",
            "ML N@20",
            "Steam R@20",
            "Steam N@20",
            "Gowalla R@20",
            "Gowalla N@20",
        ],
    );
    for (name, vals) in &rows {
        let mut cells = vec![name.clone()];
        for &(r, n) in vals {
            cells.push(fmt4(r));
            cells.push(fmt4(n));
        }
        while cells.len() < 7 {
            cells.push("-".into());
        }
        table.row(cells);
    }
    table.print();
    table.save("table3_performance");
}
