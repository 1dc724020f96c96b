//! Full-state envelope guarantees: a model restored from
//! `export_full_state` continues training bit-identically to the model
//! that exported it, the item scope reshapes to the envelope's in either
//! direction, and damaged or mismatched envelopes are rejected.

use proptest::prelude::*;
use ptf_models::{LightGcn, MfModel, ModelHyper, NeuMf, Ngcf, Recommender, ScopeView};
use ptf_tensor::packed::Reader;

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
    let cfg = ModelHyper { dim: 8, mlp_layers: vec![16, 8], lr: 0.01, ..ModelHyper::default() };
    let mut a = NeuMf::new_scoped(USERS, &cfg, scope(), 42);
    let mut b = NeuMf::new_scoped(USERS, &cfg, scope(), 999);
    assert_bit_resume(&mut a, &mut b, None);
}

#[test]
fn lightgcn_full_state_resumes_bit_identically() {
    let cfg = ModelHyper { dim: 8, gcn_layers: 2, lr: 0.02, ..ModelHyper::default() };
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
    let cfg = ModelHyper {
        dim: 8,
        gcn_layers: 2,
        lr: 0.02,
        ngcf_reg: 1e-3,
        ngcf_dropout: 0.3,
        ..ModelHyper::default()
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
    let cfg = ModelHyper { dim: 8, mlp_layers: vec![16, 8], lr: 0.01, ..ModelHyper::default() };
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
    let cfg = ModelHyper { dim: 8, mlp_layers: vec![16, 8], lr: 0.01, ..ModelHyper::default() };
    let mut m = NeuMf::new_scoped(USERS, &cfg, scope(), 42);
    assert!(m.import_full_state("{garbage").is_err(), "syntax error accepted");
    // wrong architecture
    let lg = LightGcn::new_scoped(
        USERS,
        &ModelHyper { dim: 8, gcn_layers: 2, lr: 0.02, ..ModelHyper::default() },
        scope(),
        42,
    );
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
    let err = m.import_full_state(&torn).expect_err("torn parameter buffer accepted");
    // the error points at the buffer's opening quote
    let at = good.find(&shape).unwrap() + shape.len() - 1;
    assert!(
        err.contains(&format!("data at byte {at}: packed f32 string of 257 characters")),
        "{err}"
    );
    // same architecture, different embedding width
    let wide = NeuMf::new_scoped(USERS, &ModelHyper { dim: 16, ..cfg }, scope(), 42);
    let other = wide.export_full_state().unwrap();
    assert!(
        m.import_full_state(&other).unwrap_err().contains("shape mismatch"),
        "wrong-shape envelope accepted"
    );
}

/// FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `model`'s envelope after it grew every item of both batches and
/// trained three warm-up steps: parameters, moments, a grown id set and,
/// for NGCF, a dropout stream that has moved.
fn trained_envelope(model: &mut dyn Recommender, graph: bool) -> String {
    model.prepare_items(&[1, 2, 4, 7, 11, 15, 18]);
    if graph {
        model.set_graph(&edges());
    }
    for _ in 0..3 {
        model.train_batch(&warmup_batch());
    }
    model.export_full_state().expect("model supports full-state export")
}

/// Every byte of every model's envelope is part of the checkpoint format
/// (`docs/checkpoint-format.md`): field order, number spelling, packed
/// buffers. A tiny envelope is pinned as text, and a trained envelope of
/// each model — sparse and dense id sets, Adam moments, NGCF's dropout
/// words — by its length and FNV-1a digest.
#[test]
fn full_state_envelopes_are_pinned() {
    let tiny = MfModel::new_scoped(1, 1, 0.1, ScopeView::Rows { num_items: 3, ids: &[2] }, 5);
    assert_eq!(
        tiny.export_full_state().unwrap(),
        r#"{"arch":"MF","user_emb":{"rows":1,"cols":1,"data":"bc53c335"},"items":{"num_items":3,"cols":2,"ids":[2],"data":"be70004b00000000","init_seed":"fc23d87e2b904d52","init_std":0.10000000149011612,"init_cols":1}}"#
    );

    let neumf = ModelHyper { dim: 4, mlp_layers: vec![8, 4], lr: 0.01, ..ModelHyper::default() };
    let ngcf = ModelHyper {
        dim: 4,
        gcn_layers: 2,
        lr: 0.02,
        ngcf_reg: 1e-3,
        ngcf_dropout: 0.3,
        ..ModelHyper::default()
    };
    let lightgcn = ModelHyper { dim: 4, gcn_layers: 2, lr: 0.02, ..ModelHyper::default() };
    let envelopes = [
        ("MF", trained_envelope(&mut MfModel::new_scoped(USERS, 4, 0.1, scope(), 42), false)),
        (
            "MF dense",
            trained_envelope(
                &mut MfModel::new_scoped(USERS, 4, 0.1, ScopeView::Full(ITEMS), 42),
                false,
            ),
        ),
        ("NeuMF", trained_envelope(&mut NeuMf::new_scoped(USERS, &neumf, scope(), 42), false)),
        (
            "NeuMF dense",
            trained_envelope(
                &mut NeuMf::new_scoped(USERS, &neumf, ScopeView::Full(ITEMS), 42),
                false,
            ),
        ),
        ("NGCF", trained_envelope(&mut Ngcf::new_scoped(USERS, &ngcf, scope(), 42), true)),
        (
            "LightGCN",
            trained_envelope(&mut LightGcn::new_scoped(USERS, &lightgcn, scope(), 42), true),
        ),
    ];
    let got: Vec<(&str, usize, u64)> =
        envelopes.iter().map(|(name, e)| (*name, e.len(), fnv1a(e.as_bytes()))).collect();
    let pinned = vec![
        ("MF", 607, 0xd9ce_4f4b_e9f2_ff8b),
        ("MF dense", 1_113, 0x7e38_c2aa_f0b0_5629),
        ("NeuMF", 4_701, 0xbaac_02d2_a16b_e816),
        ("NeuMF dense", 5_938, 0xacf3_5354_c59a_3ecb),
        ("NGCF", 3_304, 0x08cb_f381_7f9a_f999),
        ("LightGCN", 1_311, 0xf50c_3375_11ea_3794),
    ];
    assert_eq!(got, pinned, "a full-state envelope drifted");
    assert!(envelopes[4].1.contains(r#""rng":[""#), "NGCF's envelope carries its dropout words");
}

/// The envelope and a freshly built twin of a trained MF or NGCF model
/// (NGCF's envelope carries its dropout words).
fn trained_and_fresh(ngcf: bool) -> (Vec<u8>, Box<dyn Recommender>) {
    if ngcf {
        let cfg = ModelHyper {
            dim: 4,
            gcn_layers: 2,
            lr: 0.02,
            ngcf_reg: 1e-3,
            ngcf_dropout: 0.3,
            ..ModelHyper::default()
        };
        let envelope = trained_envelope(&mut Ngcf::new_scoped(USERS, &cfg, scope(), 42), true);
        (envelope.into_bytes(), Box::new(Ngcf::new_scoped(USERS, &cfg, scope(), 7)))
    } else {
        let envelope =
            trained_envelope(&mut MfModel::new_scoped(USERS, 4, 0.1, scope(), 42), false);
        (envelope.into_bytes(), Box::new(MfModel::new_scoped(USERS, 4, 0.1, scope(), 7)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The model-envelope reader against truncated, flipped and grown
    /// envelopes: it never panics, every refusal names a byte offset, and
    /// anything it accepts re-exports to exactly the damaged bytes — the
    /// reader takes nothing but the writer's spelling.
    #[test]
    fn damaged_model_envelopes_are_refused_or_reexported_exactly(
        ngcf in any::<bool>(),
        kind in 0u8..3,
        at in 0.0f64..1.0,
        raw in any::<u8>(),
        plausible in any::<bool>(),
    ) {
        // half the new bytes are ones the format uses, so damage often
        // parses as far as the field it lands in
        const TOKENS: &[u8] = b"0123456789abcdef\",:[]{}-+.eEnul ";
        let byte = if plausible { TOKENS[raw as usize % TOKENS.len()] } else { raw };
        let (mut bytes, mut fresh) = trained_and_fresh(ngcf);
        let at = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        match kind {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= byte.max(1),
            _ => bytes.insert(at, byte),
        }
        let mut r = Reader::new(&bytes);
        match fresh.read_full_state(&mut r).and_then(|()| r.finish()) {
            Ok(()) => {
                let again = fresh.export_full_state().expect("a restored model exports");
                prop_assert!(again.as_bytes() == bytes.as_slice(), "accepted damage re-exported differently");
            }
            Err(e) => prop_assert!(e.contains("byte "), "{e} names no byte offset"),
        }
    }
}
