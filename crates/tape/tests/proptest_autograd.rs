//! Property-based tests of the autograd engine: analytic gradients must
//! match finite differences for arbitrary shapes and values, and the CSR
//! algebra must agree with its dense counterpart.

use proptest::prelude::*;
use ptf_tape::prelude::*;
use ptf_tensor::ParamId;

/// A small matrix with bounded entries (away from activation kinks).
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-0.9f32..0.9, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn numeric_grad(params: &mut Params, id: ParamId, loss: impl Fn(&Params) -> f32) -> Matrix {
    let eps = 1e-2f32;
    let (rows, cols) = params.get(id).shape();
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let orig = params.get(id).get(i, j);
            params.get_mut(id).set(i, j, orig + eps);
            let hi = loss(params);
            params.get_mut(id).set(i, j, orig - eps);
            let lo = loss(params);
            params.get_mut(id).set(i, j, orig);
            out.set(i, j, (hi - lo) / (2.0 * eps));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_chain_gradient_matches_fd(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
    ) {
        let mut p = Params::new();
        let ia = p.push("a", a);
        let ib = p.push("b", b);
        let build = |p: &Params| {
            let mut g = Graph::new(p);
            let av = g.param(ia);
            let bv = g.param(ib);
            let c = g.matmul(av, bv);
            let s = g.sigmoid(c);
            let l = g.frob_sq(s);
            g.scalar(l)
        };
        let grads = {
            let mut g = Graph::new(&p);
            let av = g.param(ia);
            let bv = g.param(ib);
            let c = g.matmul(av, bv);
            let s = g.sigmoid(c);
            let l = g.frob_sq(s);
            g.backward(l)
        };
        for id in [ia, ib] {
            let analytic = grads.dense(id, &p);
            let numeric = numeric_grad(&mut p, id, build);
            prop_assert!(analytic.max_abs_diff(&numeric) < 2e-2,
                "param {} grad mismatch", id.index());
        }
    }

    #[test]
    fn bce_gradient_matches_fd(
        logits in matrix_strategy(5, 1),
        targets in proptest::collection::vec(0.0f32..=1.0, 5),
    ) {
        let mut p = Params::new();
        let id = p.push("x", logits);
        let t = targets.clone();
        let build = move |p: &Params| {
            let mut g = Graph::new(p);
            let x = g.param(id);
            let l = g.bce_with_logits(x, &t);
            g.scalar(l)
        };
        let grads = {
            let mut g = Graph::new(&p);
            let x = g.param(id);
            let l = g.bce_with_logits(x, &targets);
            g.backward(l)
        };
        let analytic = grads.dense(id, &p);
        let numeric = numeric_grad(&mut p, id, build);
        prop_assert!(analytic.max_abs_diff(&numeric) < 2e-2);
    }

    #[test]
    fn gather_rowdot_gradient_matches_fd(
        emb in matrix_strategy(6, 3),
        idx in proptest::collection::vec(0u32..6, 1..8),
    ) {
        let mut p = Params::new();
        let id = p.push("emb", emb);
        let idx2 = idx.clone();
        let build = move |p: &Params| {
            let mut g = Graph::new(p);
            let e = g.param(id);
            let rows = g.gather(e, &idx2);
            let s = g.sigmoid(rows);
            let l = g.frob_sq(s);
            g.scalar(l)
        };
        let grads = {
            let mut g = Graph::new(&p);
            let e = g.param(id);
            let rows = g.gather(e, &idx);
            let s = g.sigmoid(rows);
            let l = g.frob_sq(s);
            g.backward(l)
        };
        let analytic = grads.dense(id, &p);
        let numeric = numeric_grad(&mut p, id, build);
        prop_assert!(analytic.max_abs_diff(&numeric) < 2e-2);
    }

    #[test]
    fn csr_agrees_with_dense(
        triplets in proptest::collection::vec(
            (0u32..5, 0u32..7, -2.0f32..2.0), 0..20),
        x in matrix_strategy(7, 3),
    ) {
        let m = Csr::from_triplets(5, 7, &triplets);
        let sparse = m.matmul(&x);
        let dense = m.to_dense().matmul(&x);
        prop_assert!(sparse.max_abs_diff(&dense) < 1e-4);
        // transpose round-trips
        let tt = transpose(&transpose(&m)).to_dense();
        let md = m.to_dense();
        prop_assert_eq!(tt.as_slice(), md.as_slice());
    }

    #[test]
    fn adam_never_produces_nan(
        grad in matrix_strategy(4, 3),
        lr in 1e-4f32..0.5,
    ) {
        let mut p = Params::new();
        let id = p.push("w", Matrix::zeros(4, 3));
        let mut adam = Adam::with_defaults(&p, lr);
        for _ in 0..10 {
            let mut g = Grads::new_for(&p);
            *g.slot_mut(id) = Some(GradBuf::Dense(grad.clone()));
            adam.step(&mut p, &g);
        }
        prop_assert!(p.all_finite());
    }

    #[test]
    fn transpose_preserves_frobenius(m in matrix_strategy(4, 6)) {
        prop_assert!((m.frob_sq() - m.transpose().frob_sq()).abs() < 1e-3);
    }
}
