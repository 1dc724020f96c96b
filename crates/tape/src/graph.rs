//! A define-by-run tape for reverse-mode automatic differentiation — the
//! oracle the hand-derived model steps are tested against.
//!
//! A [`Graph`] is built fresh for every batch: operations execute
//! eagerly, each appending a node that owns its forward value (or names
//! the parameter it reads) and whatever its backward needs, and
//! [`Graph::backward`] replays the chain rule in reverse insertion order.
//! Parameters live *outside* the graph in a [`Params`] store that the
//! graph borrows; their gradients are returned in a fresh [`Grads`]
//! aligned with the store. A gathered parameter's gradient is row-sparse,
//! and becomes dense once a dense use of the same parameter lands on it.

use crate::sparse::transpose;
use ptf_tensor::{kernels, Csr, GradBuf, Grads, Matrix, ParamId, Params, RowSparse};

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Clone, Copy, Debug)]
enum UnaryOp {
    Sigmoid,
    Relu,
    LeakyRelu(f32),
}

enum Source {
    /// Constant input; receives no gradient.
    Leaf,
    /// Trainable parameter; gradient goes to the [`Grads`] store.
    Param(ParamId),
    Unary {
        p: Var,
        op: UnaryOp,
    },
    Add {
        a: Var,
        b: Var,
    },
    Mul {
        a: Var,
        b: Var,
    },
    MatMul {
        a: Var,
        b: Var,
    },
    /// `a × b`; backward is `aᵀ × dY`.
    Spmm {
        a: Csr,
        b: Var,
    },
    /// Row lookup.
    Gather {
        src: Var,
        idx: Vec<u32>,
    },
    ConcatCols {
        a: Var,
        b: Var,
    },
    /// Row-wise dot product of two n×d matrices → n×1.
    RowDot {
        a: Var,
        b: Var,
    },
    /// n×d matrix plus a 1×d row vector broadcast over rows.
    AddRow {
        m: Var,
        row: Var,
    },
    Scale {
        p: Var,
        c: f32,
    },
    /// Mean binary cross-entropy over an n×1 logit column.
    BceWithLogits {
        logits: Var,
        targets: Vec<f32>,
    },
    /// Squared Frobenius norm → 1×1 (for L2 regularization).
    FrobSq {
        p: Var,
    },
}

struct Node {
    /// The forward value; empty for a parameter, whose value is read
    /// from the store.
    value: Matrix,
    src: Source,
}

/// A single-batch autodiff tape over a borrowed parameter store.
pub struct Graph<'p> {
    params: &'p Params,
    nodes: Vec<Node>,
}

impl<'p> Graph<'p> {
    pub fn new(params: &'p Params) -> Self {
        Self { params, nodes: Vec::new() }
    }

    fn push(&mut self, value: Matrix, src: Source) -> Var {
        self.nodes.push(Node { value, src });
        Var(self.nodes.len() - 1)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        match &self.nodes[v.0] {
            Node { src: Source::Param(id), .. } => self.params.get(*id),
            node => &node.value,
        }
    }

    /// Shape of the forward value of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.value(v).shape()
    }

    /// The scalar held by a 1×1 node (e.g. a loss).
    pub fn scalar(&self, v: Var) -> f32 {
        self.value(v).scalar()
    }

    /// Inserts a constant (no gradient flows into it).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Source::Leaf)
    }

    /// Inserts a reference to parameter `id` (no copy is made).
    pub fn param(&mut self, id: ParamId) -> Var {
        assert!(id.index() < self.params.len(), "unknown ParamId");
        self.push(Matrix::default(), Source::Param(id))
    }

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Source::MatMul { a, b })
    }

    /// Sparse product `a × b` (NGCF/LightGCN message passing).
    pub fn spmm(&mut self, a: &Csr, b: Var) -> Var {
        let value = a.matmul(self.value(b));
        self.push(value, Source::Spmm { a: a.clone(), b })
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip_map(self.value(b), |x, y| x + y);
        self.push(value, Source::Add { a, b })
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip_map(self.value(b), |x, y| x * y);
        self.push(value, Source::Mul { a, b })
    }

    /// Multiplication by a constant.
    pub fn scale(&mut self, p: Var, c: f32) -> Var {
        let value = self.value(p).map(|x| c * x);
        self.push(value, Source::Scale { p, c })
    }

    pub fn sigmoid(&mut self, p: Var) -> Var {
        let value = self.value(p).map(sigmoid);
        self.push(value, Source::Unary { p, op: UnaryOp::Sigmoid })
    }

    pub fn relu(&mut self, p: Var) -> Var {
        let value = self.value(p).map(|x| x.max(0.0));
        self.push(value, Source::Unary { p, op: UnaryOp::Relu })
    }

    /// Leaky ReLU with negative slope `alpha` (NGCF uses 0.2).
    pub fn leaky_relu(&mut self, p: Var, alpha: f32) -> Var {
        let value = self.value(p).map(|x| if x > 0.0 { x } else { alpha * x });
        self.push(value, Source::Unary { p, op: UnaryOp::LeakyRelu(alpha) })
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(
            av.rows(),
            bv.rows(),
            "concat_cols: row mismatch {} vs {}",
            av.rows(),
            bv.rows()
        );
        let ac = av.cols();
        let mut value = Matrix::zeros(av.rows(), ac + bv.cols());
        for r in 0..av.rows() {
            value.row_mut(r)[..ac].copy_from_slice(av.row(r));
            value.row_mut(r)[ac..].copy_from_slice(bv.row(r));
        }
        self.push(value, Source::ConcatCols { a, b })
    }

    /// Gathers rows `idx` of `src` (embedding lookup). Gradients to a
    /// parameter source are accumulated row-sparsely.
    pub fn gather(&mut self, src: Var, idx: &[u32]) -> Var {
        let value = self.value(src).gather_rows(idx);
        self.push(value, Source::Gather { src, idx: idx.to_vec() })
    }

    /// Row-wise dot product of two equally-shaped matrices → n×1 column.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape(), bv.shape(), "row_dot shape mismatch");
        let value = Matrix::from_fn(av.rows(), 1, |r, _| kernels::dot(av.row(r), bv.row(r)));
        self.push(value, Source::RowDot { a, b })
    }

    /// Squared Frobenius norm → 1×1.
    pub fn frob_sq(&mut self, p: Var) -> Var {
        let value = Matrix::full(1, 1, self.value(p).frob_sq());
        self.push(value, Source::FrobSq { p })
    }

    /// Broadcast-adds a 1×d row vector over the rows of an n×d matrix.
    pub fn add_row(&mut self, m: Var, row: Var) -> Var {
        let (mut value, bias) = (self.value(m).clone(), self.value(row));
        let (rr, rc) = bias.shape();
        assert_eq!(
            (rr, rc),
            (1, value.cols()),
            "add_row: bias must be 1x{}, got {rr}x{rc}",
            value.cols()
        );
        for r in 0..value.rows() {
            kernels::add_assign(value.row_mut(r), bias.as_slice());
        }
        self.push(value, Source::AddRow { m, row })
    }

    /// Numerically stable mean binary cross-entropy over an n×1 logit
    /// column with (possibly soft) targets in `[0, 1]` → 1×1.
    ///
    /// `loss = mean_i [ max(xᵢ,0) − xᵢ·tᵢ + ln(1 + e^{−|xᵢ|}) ]`
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let (n, c) = self.shape(logits);
        assert_eq!(c, 1, "bce_with_logits expects an n×1 logit column");
        assert_eq!(n, targets.len(), "bce_with_logits: {n} logits vs {} targets", targets.len());
        let mut total = 0.0f64;
        for (&xi, &ti) in self.value(logits).as_slice().iter().zip(targets) {
            debug_assert!((0.0..=1.0).contains(&ti), "target {ti} outside [0,1]");
            total += (xi.max(0.0) - xi * ti + (-xi.abs()).exp().ln_1p()) as f64;
        }
        let value = Matrix::full(1, 1, (total / n as f64) as f32);
        self.push(value, Source::BceWithLogits { logits, targets: targets.to_vec() })
    }

    /// Runs the chain rule backwards from the 1×1 node `loss`, returning
    /// gradients for every parameter the loss depends on.
    ///
    /// # Panics
    /// If `loss` is not 1×1.
    pub fn backward(&self, loss: Var) -> Grads {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be a 1×1 scalar");
        let mut node_grads: Vec<Option<Matrix>> = (0..=loss.0).map(|_| None).collect();
        node_grads[loss.0] = Some(Matrix::full(1, 1, 1.0));
        let mut acc = Acc { graph: self, node_grads, grads: Grads::new_for(self.params) };

        for i in (0..=loss.0).rev() {
            let Some(g) = acc.node_grads[i].take() else { continue };
            let g = &g;
            match &self.nodes[i].src {
                Source::Leaf => {}
                // the seed node was the parameter itself
                Source::Param(_) => {
                    acc.add(Var(i), |d| kernels::add_assign(d.as_mut_slice(), g.as_slice()))
                }
                &Source::Unary { p, op } => acc.add(p, |d| {
                    let gs = g.as_slice();
                    let dst = d.as_mut_slice();
                    match op {
                        UnaryOp::Sigmoid => {
                            // y(1-y) in terms of the stored output
                            let y = self.value(Var(i)).as_slice();
                            for ((d, &y), &g) in dst.iter_mut().zip(y).zip(gs) {
                                *d += y * (1.0 - y) * g;
                            }
                        }
                        UnaryOp::Relu => {
                            let x = self.value(p).as_slice();
                            for ((d, &x), &g) in dst.iter_mut().zip(x).zip(gs) {
                                *d += if x > 0.0 { g } else { 0.0 };
                            }
                        }
                        UnaryOp::LeakyRelu(a) => {
                            let x = self.value(p).as_slice();
                            for ((d, &x), &g) in dst.iter_mut().zip(x).zip(gs) {
                                *d += if x > 0.0 { g } else { a * g };
                            }
                        }
                    }
                }),
                &Source::Add { a, b } => {
                    acc.add(a, |d| kernels::add_assign(d.as_mut_slice(), g.as_slice()));
                    acc.add(b, |d| kernels::add_assign(d.as_mut_slice(), g.as_slice()));
                }
                &Source::Mul { a, b } => {
                    acc.add(a, |d| mul_acc(d, self.value(b), g));
                    acc.add(b, |d| mul_acc(d, self.value(a), g));
                }
                &Source::MatMul { a, b } => {
                    // dA += g × Bᵀ, dB += Aᵀ × g — both transpose-free
                    acc.add(a, |d| g.matmul_nt_acc(self.value(b), d));
                    acc.add(b, |d| self.value(a).matmul_tn_acc(g, d));
                }
                Source::Spmm { a, b } => acc.add(*b, |d| transpose(a).matmul_acc(g, d)),
                Source::Gather { src, idx } => acc.gather(*src, idx, g),
                &Source::ConcatCols { a, b } => {
                    let ac = self.shape(a).1;
                    acc.add(a, |d| {
                        for r in 0..g.rows() {
                            kernels::add_assign(d.row_mut(r), &g.row(r)[..ac]);
                        }
                    });
                    acc.add(b, |d| {
                        for r in 0..g.rows() {
                            kernels::add_assign(d.row_mut(r), &g.row(r)[ac..]);
                        }
                    });
                }
                &Source::RowDot { a, b } => {
                    acc.add(a, |d| row_scaled_acc(d, self.value(b), g));
                    acc.add(b, |d| row_scaled_acc(d, self.value(a), g));
                }
                &Source::FrobSq { p } => {
                    let sv = g.scalar();
                    acc.add(p, |d| {
                        for (dd, &xv) in d.as_mut_slice().iter_mut().zip(self.value(p).as_slice()) {
                            *dd += 2.0 * sv * xv;
                        }
                    });
                }
                &Source::AddRow { m, row } => {
                    acc.add(m, |d| kernels::add_assign(d.as_mut_slice(), g.as_slice()));
                    acc.add(row, |d| {
                        for r in 0..g.rows() {
                            kernels::add_assign(d.as_mut_slice(), g.row(r));
                        }
                    });
                }
                &Source::Scale { p, c } => {
                    acc.add(p, |d| kernels::axpy(c, g.as_slice(), d.as_mut_slice()))
                }
                Source::BceWithLogits { logits, targets } => {
                    let sv = g.scalar();
                    let nf = targets.len() as f32;
                    acc.add(*logits, |d| {
                        let x = self.value(*logits).as_slice();
                        for ((dd, &xi), &ti) in d.as_mut_slice().iter_mut().zip(x).zip(targets) {
                            *dd += sv * (sigmoid(xi) - ti) / nf;
                        }
                    });
                }
            }
        }
        acc.grads
    }
}

/// Where [`Graph::backward`] accumulates: one optional gradient per node
/// up to the loss, and the parameters' [`Grads`].
struct Acc<'a, 'p> {
    graph: &'a Graph<'p>,
    node_grads: Vec<Option<Matrix>>,
    grads: Grads,
}

impl Acc<'_, '_> {
    /// Lets `f` accumulate into the gradient of `target`: a parameter's
    /// dense gradient (promoting gathered rows), or a node's, zeroed on
    /// first touch. Leaves absorb nothing.
    fn add(&mut self, target: Var, f: impl FnOnce(&mut Matrix)) {
        let (r, c) = self.graph.shape(target);
        match self.graph.nodes[target.0].src {
            Source::Leaf => {}
            Source::Param(id) => {
                let slot = self.grads.slot_mut(id);
                if !matches!(slot, Some(GradBuf::Dense(_))) {
                    // a dense use on top of gathered rows promotes them
                    let mut d = Matrix::zeros(r, c);
                    if let Some(GradBuf::Rows(rs)) = slot {
                        rs.add_into_dense(&mut d);
                    }
                    *slot = Some(GradBuf::Dense(d));
                }
                let Some(GradBuf::Dense(d)) = slot else { unreachable!() };
                f(d);
            }
            _ => f(self.node_grads[target.0].get_or_insert_with(|| Matrix::zeros(r, c))),
        }
    }

    /// Scatters `g`'s rows back to rows `idx` of `src`: row-sparsely into
    /// a parameter that has no dense gradient yet.
    fn gather(&mut self, src: Var, idx: &[u32], g: &Matrix) {
        if let Source::Param(id) = self.graph.nodes[src.0].src {
            let cols = self.graph.shape(src).1;
            match self.grads.slot_mut(id).get_or_insert_with(|| GradBuf::Rows(RowSparse::new(cols)))
            {
                GradBuf::Rows(rs) => {
                    for (k, &r) in idx.iter().enumerate() {
                        rs.add_row(r, g.row(k));
                    }
                }
                GradBuf::Dense(d) => scatter_add_rows(d, idx, g),
            }
        } else {
            self.add(src, |d| scatter_add_rows(d, idx, g));
        }
    }
}

/// `d += other ⊙ g`, element-wise.
fn mul_acc(d: &mut Matrix, other: &Matrix, g: &Matrix) {
    for ((dd, &o), &gv) in d.as_mut_slice().iter_mut().zip(other.as_slice()).zip(g.as_slice()) {
        *dd += o * gv;
    }
}

/// `d[r] += g[r] · other[r]` for every row `r` (`g` is an n×1 column).
fn row_scaled_acc(d: &mut Matrix, other: &Matrix, g: &Matrix) {
    for r in 0..other.rows() {
        kernels::axpy(g.as_slice()[r], other.row(r), d.row_mut(r));
    }
}

/// Scatter-adds the rows of `src` into rows `idx` of `dst` (duplicate
/// indices accumulate).
fn scatter_add_rows(dst: &mut Matrix, idx: &[u32], src: &Matrix) {
    assert_eq!(idx.len(), src.rows(), "scatter_add_rows: index/src mismatch");
    assert_eq!(dst.cols(), src.cols(), "scatter_add_rows: col mismatch");
    for (r, &i) in idx.iter().enumerate() {
        kernels::add_assign(dst.row_mut(i as usize), src.row(r));
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The handle of the `i`-th parameter pushed into a store: these
    /// tests name parameters by position.
    #[allow(non_snake_case)]
    fn ParamId(i: usize) -> ptf_tensor::ParamId {
        let mut p = Params::new();
        (0..=i).map(|_| p.push("", Matrix::default())).last().expect("i + 1 pushes")
    }

    /// Central finite differences of `loss(params)` w.r.t. parameter `id`.
    fn numeric_grad(params: &mut Params, id: ParamId, loss: &dyn Fn(&Params) -> f32) -> Matrix {
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

    /// Asserts analytic gradients match finite differences for every param.
    fn assert_grads_match(params: &mut Params, build: &dyn Fn(&mut Graph) -> Var, tol: f32) {
        let grads = {
            let mut g = Graph::new(params);
            let l = build(&mut g);
            assert_eq!(g.shape(l), (1, 1), "test losses must be scalar");
            g.backward(l)
        };
        let ids: Vec<ParamId> = params.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            let analytic = grads.dense(id, params);
            let numeric = numeric_grad(params, id, &|p| {
                let mut g = Graph::new(p);
                let l = build(&mut g);
                g.scalar(l)
            });
            let diff = analytic.max_abs_diff(&numeric);
            assert!(
                diff < tol,
                "gradient mismatch for param {}: max abs diff {diff}\nanalytic {:?}\nnumeric {:?}",
                id.index(),
                analytic.as_slice(),
                numeric.as_slice()
            );
        }
    }

    /// Deterministic "random-ish" values away from ReLU kinks.
    fn test_matrix(rows: usize, cols: usize, scale: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let v = ((r * 31 + c * 17 + 7) % 13) as f32 / 13.0 - 0.5;
            scale * (v + 0.08 * v.signum().max(0.0) + 0.12)
        })
    }

    #[test]
    fn matmul_grad() {
        let mut p = Params::new();
        p.push("a", test_matrix(2, 3, 1.0));
        p.push("b", test_matrix(3, 2, 1.0));
        assert_grads_match(
            &mut p,
            &|g| {
                let ids: Vec<ParamId> = (0..2).map(ParamId).collect();
                let a = g.param(ids[0]);
                let b = g.param(ids[1]);
                let c = g.matmul(a, b);
                g.frob_sq(c)
            },
            1e-2,
        );
    }

    #[test]
    fn elementwise_grads() {
        let mut p = Params::new();
        p.push("a", test_matrix(3, 2, 0.8));
        p.push("b", test_matrix(3, 2, 0.6));
        assert_grads_match(
            &mut p,
            &|g| {
                let a = g.param(ParamId(0));
                let b = g.param(ParamId(1));
                let s = g.add(a, b);
                let m = g.mul(s, b);
                let sc = g.scale(m, 1.7);
                g.frob_sq(sc)
            },
            1e-2,
        );
    }

    #[test]
    fn activation_grads() {
        // both signs, every magnitude at least 0.2: no finite-difference
        // step crosses a kink
        let mut p = Params::new();
        p.push(
            "x",
            Matrix::from_fn(4, 3, |r, c| {
                let v = 0.2 + 0.15 * ((r * 3 + c) % 5) as f32;
                if (r + c) % 2 == 0 {
                    v
                } else {
                    -v
                }
            }),
        );
        assert_grads_match(
            &mut p,
            &|g| {
                let x = g.param(ParamId(0));
                let a = g.leaky_relu(x, 0.2);
                let b = g.relu(x);
                let c = g.sigmoid(a);
                let s = g.add(b, c);
                g.frob_sq(s)
            },
            2e-2,
        );
    }

    #[test]
    fn concat_and_addrow_grads() {
        let mut p = Params::new();
        p.push("a", test_matrix(3, 2, 1.0));
        p.push("b", test_matrix(3, 2, 0.5));
        p.push("bias", test_matrix(1, 4, 0.3));
        assert_grads_match(
            &mut p,
            &|g| {
                let a = g.param(ParamId(0));
                let b = g.param(ParamId(1));
                let cat = g.concat_cols(a, b);
                let bias = g.param(ParamId(2));
                let biased = g.add_row(cat, bias);
                let act = g.sigmoid(biased);
                g.frob_sq(act)
            },
            1e-2,
        );
    }

    #[test]
    fn row_dot_grad() {
        let mut p = Params::new();
        p.push("a", test_matrix(4, 3, 1.0));
        p.push("b", test_matrix(4, 3, 0.7));
        assert_grads_match(
            &mut p,
            &|g| {
                let a = g.param(ParamId(0));
                let b = g.param(ParamId(1));
                let d = g.row_dot(a, b);
                g.bce_with_logits(d, &[1.0, 0.0, 0.4, 1.0])
            },
            1e-2,
        );
    }

    #[test]
    fn gather_param_grad_is_row_sparse_and_correct() {
        let mut p = Params::new();
        let emb = p.push("emb", test_matrix(6, 3, 1.0));
        let idx: Vec<u32> = vec![4, 1, 4, 0];
        // analytic
        let grads = {
            let mut g = Graph::new(&p);
            let e = g.param(emb);
            let rows = g.gather(e, &idx);
            let l = g.frob_sq(rows);
            g.backward(l)
        };
        match grads.get(emb) {
            Some(GradBuf::Rows(rs)) => {
                assert_eq!(rs.num_rows(), 3, "three distinct rows touched");
            }
            other => panic!("expected row-sparse grad, got {other:?}"),
        }
        let idx2 = idx.clone();
        assert_grads_match(
            &mut p,
            &move |g| {
                let e = g.param(ParamId(0));
                let rows = g.gather(e, &idx2);
                g.frob_sq(rows)
            },
            1e-2,
        );
    }

    #[test]
    fn gather_from_intermediate_grad() {
        let mut p = Params::new();
        p.push("a", test_matrix(4, 2, 1.0));
        p.push("b", test_matrix(2, 2, 1.0));
        assert_grads_match(
            &mut p,
            &|g| {
                let a = g.param(ParamId(0));
                let b = g.param(ParamId(1));
                let prod = g.matmul(a, b); // intermediate, 4x2
                let rows = g.gather(prod, &[3, 3, 0]);
                g.frob_sq(rows)
            },
            1e-2,
        );
    }

    #[test]
    fn spmm_matches_dense_and_grad() {
        let adj = Csr::from_triplets(
            3,
            4,
            &[(0, 0, 0.5), (0, 3, 1.5), (1, 1, 2.0), (2, 0, 1.0), (2, 2, 0.25)],
        );
        let prop = adj.clone();
        let mut p = Params::new();
        let x = p.push("x", test_matrix(4, 2, 1.0));

        // forward equivalence with dense matmul
        let mut g = Graph::new(&p);
        let xv = g.param(x);
        let y = g.spmm(&prop, xv);
        let dense = adj.to_dense().matmul(p.get(x));
        assert!(g.value(y).max_abs_diff(&dense) < 1e-6);
        drop(g);

        let prop2 = prop.clone();
        assert_grads_match(
            &mut p,
            &move |g| {
                let xv = g.param(ParamId(0));
                let y = g.spmm(&prop2, xv);
                let s = g.sigmoid(y);
                g.frob_sq(s)
            },
            1e-2,
        );
    }

    #[test]
    fn bce_matches_manual_formula() {
        let mut p = Params::new();
        let w = p.push("w", test_matrix(5, 1, 2.0));
        let targets = [1.0, 0.0, 0.3, 1.0, 0.0];
        let mut g = Graph::new(&p);
        let logits = g.param(w);
        let loss = g.bce_with_logits(logits, &targets);
        let manual: f32 = p
            .get(w)
            .as_slice()
            .iter()
            .zip(&targets)
            .map(|(&x, &t)| {
                let s = 1.0 / (1.0 + (-x).exp());
                -(t * s.ln() + (1.0 - t) * (1.0 - s).ln())
            })
            .sum::<f32>()
            / 5.0;
        assert!((g.scalar(loss) - manual).abs() < 1e-5);
        drop(g);

        assert_grads_match(
            &mut p,
            &move |g| {
                let logits = g.param(ParamId(0));
                g.bce_with_logits(logits, &targets)
            },
            1e-2,
        );
    }

    #[test]
    fn frob_sq_grad() {
        let mut p = Params::new();
        p.push("w", test_matrix(3, 3, 1.0));
        assert_grads_match(
            &mut p,
            &|g| {
                let w = g.param(ParamId(0));
                let n = g.frob_sq(w);
                g.scale(n, 0.5)
            },
            2e-2,
        );
    }

    #[test]
    fn shared_param_accumulates() {
        // the same embedding table used twice must sum both contributions
        let mut p = Params::new();
        p.push("emb", test_matrix(4, 2, 1.0));
        assert_grads_match(
            &mut p,
            &|g| {
                let e1 = g.param(ParamId(0));
                let e2 = g.param(ParamId(0));
                let ga = g.gather(e1, &[0, 1]);
                let gb = g.gather(e2, &[1, 2]);
                let d = g.row_dot(ga, gb);
                g.bce_with_logits(d, &[1.0, 0.0])
            },
            1e-2,
        );
    }

    #[test]
    fn a_dense_use_promotes_gathered_rows_to_dense() {
        // the NeuMF shape in miniature: an MLP over a leaf, a gathered
        // embedding interaction, and an L2 term over the whole table
        let mut p = Params::new();
        p.push("w1", test_matrix(4, 3, 0.9));
        p.push("b1", test_matrix(1, 3, 0.2));
        let emb = p.push("emb", test_matrix(6, 3, 1.0));
        let x = test_matrix(5, 4, 1.0);
        let targets = [1.0, 0.0, 1.0, 0.0, 1.0];
        let build = move |g: &mut Graph| {
            let xv = g.leaf(x.clone());
            let w1 = g.param(ParamId(0));
            let b1 = g.param(ParamId(1));
            let emb = g.param(ParamId(2));
            // recorded before the gather, so backward reaches it after
            // the gather's rows
            let reg = g.frob_sq(emb);
            let reg = g.scale(reg, 1e-3);
            let h = g.matmul(xv, w1);
            let h = g.add_row(h, b1);
            let h = g.leaky_relu(h, 0.2);
            let rows = g.gather(emb, &[0, 2, 2, 5, 1]);
            let d = g.row_dot(h, rows);
            let fit = g.bce_with_logits(d, &targets);
            g.add(fit, reg)
        };
        let grads = {
            let mut g = Graph::new(&p);
            let l = build(&mut g);
            g.backward(l)
        };
        assert!(matches!(grads.get(emb), Some(GradBuf::Dense(_))), "{:?}", grads.get(emb));
        assert_grads_match(&mut p, &build, 2e-2);
    }

    #[test]
    fn disconnected_param_gets_no_grad() {
        let mut p = Params::new();
        let used = p.push("used", test_matrix(2, 2, 1.0));
        let unused = p.push("unused", test_matrix(2, 2, 1.0));
        let mut g = Graph::new(&p);
        let u = g.param(used);
        let l = g.frob_sq(u);
        let grads = g.backward(l);
        assert!(grads.get(used).is_some());
        assert!(grads.get(unused).is_none());
    }

    #[test]
    fn mlp_composite_grad() {
        // two-layer MLP with biases: the NeuMF shape in miniature
        let mut p = Params::new();
        p.push("w1", test_matrix(4, 3, 0.9));
        p.push("b1", test_matrix(1, 3, 0.2));
        p.push("w2", test_matrix(3, 1, 1.1));
        p.push("b2", test_matrix(1, 1, 0.1));
        let x = test_matrix(5, 4, 1.0);
        let targets = [1.0, 0.0, 1.0, 0.0, 1.0];
        assert_grads_match(
            &mut p,
            &move |g| {
                let xv = g.leaf(x.clone());
                let w1 = g.param(ParamId(0));
                let b1 = g.param(ParamId(1));
                let w2 = g.param(ParamId(2));
                let b2 = g.param(ParamId(3));
                let h = g.matmul(xv, w1);
                let h = g.add_row(h, b1);
                let h = g.leaky_relu(h, 0.2);
                let o = g.matmul(h, w2);
                let o = g.add_row(o, b2);
                g.bce_with_logits(o, &targets)
            },
            2e-2,
        );
    }

    #[test]
    #[should_panic(expected = "loss must be a 1×1 scalar")]
    fn backward_rejects_non_scalar() {
        let p = Params::new();
        let mut g = Graph::new(&p);
        let x = g.leaf(Matrix::zeros(2, 2));
        let _ = g.backward(x);
    }

    #[test]
    fn leaf_absorbs_no_gradient() {
        let mut p = Params::new();
        let w = p.push("w", test_matrix(2, 2, 1.0));
        let mut g = Graph::new(&p);
        let x = g.leaf(test_matrix(2, 2, 1.0));
        let wv = g.param(w);
        let y = g.mul(x, wv);
        let l = g.frob_sq(y);
        let grads = g.backward(l); // must not panic on the leaf
        assert_eq!(grads.num_touched(), 1);
    }
}

#[cfg(test)]
mod loss_op_tests {
    use super::*;

    #[test]
    fn dropout_gradient_respects_mask() {
        // dropout as the NGCF oracle builds it: a leaf mask of zeros and
        // 1/(1−rate) multiplied in, so dropped elements pass no gradient
        let mut p = Params::new();
        let id = p.push("x", Matrix::full(4, 4, 0.5));
        let mask = Matrix::from_fn(4, 4, |r, c| if (r * 5 + c * 3) % 7 < 3 { 0.0 } else { 2.0 });
        let grads = {
            let mut g = Graph::new(&p);
            let x = g.param(id);
            let m = g.leaf(mask.clone());
            let d = g.mul(x, m);
            let l = g.frob_sq(d);
            g.backward(l)
        };
        let dx = grads.dense(id, &p);
        for (&g_val, &m) in dx.as_slice().iter().zip(mask.as_slice()) {
            if m == 0.0 {
                assert_eq!(g_val, 0.0, "gradient leaked through dropped element");
            } else {
                // d(Σ (x·m)²)/dx = 2·x·m² at x = 0.5
                assert!((g_val - m * m).abs() < 1e-6, "kept gradient {g_val}, mask {m}");
            }
        }
    }
}
