//! Full-state envelope guarantees: a model restored from
//! `export_full_state` continues training bit-identically to the model
//! that exported it, the item scope reshapes to the envelope's in either
//! direction, and damaged or mismatched envelopes are rejected.

use ptf_models::{
    LightGcn, LightGcnConfig, MfModel, NeuMf, NeuMfConfig, Ngcf, NgcfConfig, Recommender, ScopeView,
};

const USERS: usize = 4;
const ITEMS: usize = 20;

fn scope() -> ScopeView<'static> {
    ScopeView::Rows { num_items: ITEMS, ids: &[1, 4, 7, 11] }
}

fn warmup_batch() -> Vec<(u32, u32, f32)> {
    vec![(0, 1, 1.0), (1, 4, 0.0), (2, 7, 1.0), (3, 11, 0.3), (0, 15, 1.0)]
}

fn probe_batch() -> Vec<(u32, u32, f32)> {
    vec![(0, 2, 1.0), (1, 7, 0.0), (3, 18, 0.6), (2, 1, 1.0)]
}

fn all_items() -> Vec<u32> {
    (0..ITEMS as u32).collect()
}

fn edges() -> Vec<(u32, u32, f32)> {
    vec![(0, 1, 1.0), (1, 4, 0.9), (2, 7, 1.0)]
}

/// Exports `a` mid-training, restores into `b` (built from a *different*
/// seed, so nothing can match by accident), then trains both on the same
/// batches and asserts bit-equal scores throughout.
fn assert_bit_resume(
    a: &mut dyn Recommender,
    b: &mut dyn Recommender,
    graph: Option<&[(u32, u32, f32)]>,
) {
    // every item of the warmup and probe batches, grown before export
    a.prepare_items(&[1, 2, 4, 7, 11, 15, 18]);
    for _ in 0..3 {
        a.train_batch(&warmup_batch());
    }
    let envelope = a.export_full_state().expect("model supports full-state export");
    b.import_full_state(&envelope).expect("restore succeeds");
    // graph structure is not part of the envelope; re-set on both sides
    if let Some(e) = graph {
        a.set_graph(e);
        b.set_graph(e);
    }
    assert_eq!(a.score(0, &all_items()), b.score(0, &all_items()), "restored state diverged");
    assert!(b.item_scope().contains(15), "grown id set lost in the envelope");
    for step in 0..4 {
        let la = a.train_batch(&probe_batch());
        let lb = b.train_batch(&probe_batch());
        assert_eq!(la.to_bits(), lb.to_bits(), "loss diverged at resumed step {step}");
        assert_eq!(
            a.score(1, &all_items()),
            b.score(1, &all_items()),
            "scores diverged at resumed step {step}"
        );
    }
}

#[test]
fn neumf_full_state_resumes_bit_identically() {
    let cfg = NeuMfConfig { dim: 8, layers: vec![16, 8], lr: 0.01 };
    let mut a = NeuMf::new_scoped(USERS, &cfg, scope(), 42);
    let mut b = NeuMf::new_scoped(USERS, &cfg, scope(), 999);
    assert_bit_resume(&mut a, &mut b, None);
}

#[test]
fn lightgcn_full_state_resumes_bit_identically() {
    let cfg = LightGcnConfig { dim: 8, layers: 2, lr: 0.02 };
    let mut a = LightGcn::new_scoped(USERS, &cfg, scope(), 42);
    let mut b = LightGcn::new_scoped(USERS, &cfg, scope(), 999);
    a.set_graph(&edges());
    assert_bit_resume(&mut a, &mut b, Some(&edges()));
}

#[test]
fn ngcf_full_state_carries_the_dropout_stream() {
    // message_dropout > 0 makes the dropout RNG part of the training
    // state: resume only stays bit-identical if the stream position
    // travels in the envelope
    let cfg = NgcfConfig {
        dim: 8,
        layers: 2,
        lr: 0.02,
        leaky_slope: 0.2,
        reg: 1e-3,
        message_dropout: 0.3,
    };
    let mut a = Ngcf::new_scoped(USERS, &cfg, scope(), 42);
    let mut b = Ngcf::new_scoped(USERS, &cfg, scope(), 999);
    a.set_graph(&edges());
    assert_bit_resume(&mut a, &mut b, Some(&edges()));
}

#[test]
fn mf_full_state_resumes_bit_identically() {
    let mut a = MfModel::new_scoped(USERS, 8, 0.1, scope(), 42);
    let mut b = MfModel::new_scoped(USERS, 8, 0.1, scope(), 999);
    assert_bit_resume(&mut a, &mut b, None);
}

#[test]
fn dense_envelope_densifies_a_scoped_model() {
    // restoring a dense model's envelope into a freshly built (sparse)
    // model must densify the model
    let cfg = NeuMfConfig { dim: 8, layers: vec![16, 8], lr: 0.01 };
    let mut a = NeuMf::new_scoped(USERS, &cfg, ScopeView::Full(ITEMS), 42);
    assert!(a.item_scope().is_full());
    a.train_batch(&warmup_batch());
    a.train_batch(&probe_batch());
    let envelope = a.export_full_state().unwrap();
    let mut b = NeuMf::new_scoped(USERS, &cfg, scope(), 999);
    assert!(!b.item_scope().is_full());
    b.import_full_state(&envelope).unwrap();
    assert!(b.item_scope().is_full(), "dense envelope must densify the restored model");
    assert_eq!(a.score(0, &all_items()), b.score(0, &all_items()));
    let la = a.train_batch(&probe_batch());
    let lb = b.train_batch(&probe_batch());
    assert_eq!(la.to_bits(), lb.to_bits());
}

#[test]
fn corrupt_full_state_envelopes_are_rejected() {
    let cfg = NeuMfConfig { dim: 8, layers: vec![16, 8], lr: 0.01 };
    let mut m = NeuMf::new_scoped(USERS, &cfg, scope(), 42);
    assert!(m.import_full_state("{garbage").is_err(), "syntax error accepted");
    // wrong architecture
    let lg =
        LightGcn::new_scoped(USERS, &LightGcnConfig { dim: 8, layers: 2, lr: 0.02 }, scope(), 42);
    let other = lg.export_full_state().unwrap();
    assert!(
        m.import_full_state(&other).unwrap_err().contains("architecture mismatch"),
        "cross-architecture envelope accepted"
    );
    // a parameter (user_emb, emptied) whose declared shape overflows
    // `rows * cols`: the wrapped product would equal the empty buffer
    let good = m.export_full_state().unwrap();
    let shape = format!(r#""rows":{USERS},"cols":8,"data":""#);
    let (head, tail) = good.split_once(&shape).expect("user_emb is an 4x8 parameter");
    let (_, tail) = tail.split_once('"').unwrap();
    let overflow = format!(r#"{head}"rows":4294967296,"cols":4294967296,"data":""{tail}"#);
    assert!(
        m.import_full_state(&overflow).unwrap_err().contains("cannot be 4294967296x4294967296"),
        "overflowing shape accepted"
    );
    // a packed buffer with a stray digit is not a whole number of values
    let torn = good.replacen(&shape, &format!("{shape}0"), 1);
    assert!(
        m.import_full_state(&torn).unwrap_err().contains("matrix data: packed f32 string"),
        "torn parameter buffer accepted"
    );
    // same architecture, different embedding width
    let wide = NeuMf::new_scoped(USERS, &NeuMfConfig { dim: 16, ..cfg }, scope(), 42);
    let other = wide.export_full_state().unwrap();
    assert!(
        m.import_full_state(&other).unwrap_err().contains("shape mismatch"),
        "wrong-shape envelope accepted"
    );
}
