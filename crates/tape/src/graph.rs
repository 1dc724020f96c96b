//! Arena-backed tape for reverse-mode automatic differentiation — the
//! oracle the hand-derived model steps are tested against.
//!
//! A [`Graph`] is built fresh for every training batch ("define-by-run"):
//! operations execute eagerly, recording just enough structure for
//! [`Graph::backward`] to replay the chain rule in reverse insertion order.
//! Parameters live *outside* the graph in a [`Params`] store that the graph
//! borrows; their gradients are returned in a [`Grads`] aligned with the
//! store, with embedding-style lookups producing row-sparse buffers.
//!
//! Tape state lives in a [`GraphArena`]: nodes are plain entries in a
//! `Vec` indexed by [`Var`] (no `Rc` cells), forward values and gradients
//! sit in parallel pools of reusable [`Matrix`] buffers, and variable-size
//! op payloads (gather indices, BCE targets, dropout masks) are staged as
//! ranges into shared scratch vectors. [`Graph::new`] owns a private arena
//! for one-off graphs; hot paths hold a long-lived arena and rebuild
//! batches over it with [`Graph::with_arena`], which [`GraphArena::reset`]s
//! lengths but keeps every buffer's capacity — after a warmup batch the
//! forward+backward pass performs no steady-state heap allocation.
//! [`GraphArena::recycle`] additionally parks a consumed [`Grads`] so the
//! gradient buffers themselves are reused across optimizer steps.

use crate::sparse::transpose;
use ptf_tensor::{kernels, Csr, GradBuf, Grads, Matrix, ParamId, Params, RowSparse};
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// `(start, len)` range into one of the arena's staging buffers.
type BufRange = (usize, usize);

#[derive(Clone, Copy, Debug)]
enum UnaryOp {
    Sigmoid,
    Relu,
    LeakyRelu(f32),
    Tanh,
    Neg,
}

#[derive(Clone, Copy, Debug)]
enum BinOp {
    Add,
    Sub,
    Mul,
}

#[derive(Clone)]
enum Source {
    /// Constant input; receives no gradient.
    Leaf,
    /// Trainable parameter; gradient goes to the [`Grads`] store.
    Param(ParamId),
    Unary {
        p: Var,
        op: UnaryOp,
    },
    Binary {
        a: Var,
        b: Var,
        op: BinOp,
    },
    MatMul {
        a: Var,
        b: Var,
    },
    /// `a × b`; backward is `aᵀ × dY`.
    Spmm {
        a: Arc<Csr>,
        b: Var,
    },
    /// Row lookup; `idx` ranges into the arena's `idx_buf`.
    Gather {
        src: Var,
        idx: BufRange,
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
    SumAll {
        p: Var,
    },
    MeanAll {
        p: Var,
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
    /// Mean binary cross-entropy over an n×1 logit column; `targets`
    /// ranges into the arena's `f32_buf`.
    BceWithLogits {
        logits: Var,
        targets: BufRange,
    },
    /// Squared Frobenius norm → 1×1 (for L2 regularization).
    FrobSq {
        p: Var,
    },
    /// Inverted dropout: forward multiplies by a frozen 0/(1−rate)⁻¹
    /// mask; `mask` ranges into the arena's `f32_buf`.
    Dropout {
        p: Var,
        mask: BufRange,
    },
}

#[derive(Clone, Copy)]
enum ValRef {
    /// Value owned by the arena's `vals` pool.
    Slot(usize),
    /// Value lives in the borrowed parameter store.
    Param(ParamId),
}

struct Node {
    value: ValRef,
    src: Source,
}

/// Reusable tape storage shared across batches (see module docs).
///
/// `Default`-constructed arenas are empty and allocation-free; buffers
/// grow on first use and are then reused by every later graph built with
/// [`Graph::with_arena`].
#[derive(Default)]
pub struct GraphArena {
    nodes: Vec<Node>,
    /// Forward-value pool; slots `..vals_used` belong to the live graph,
    /// later slots are parked buffers from earlier (larger) graphs.
    vals: Vec<Matrix>,
    vals_used: usize,
    /// Per-node gradient pool, parallel to `nodes`.
    gvals: Vec<Matrix>,
    /// Whether `gvals[i]` holds a live gradient for the current backward.
    gset: Vec<bool>,
    /// Staged gather indices.
    idx_buf: Vec<u32>,
    /// Staged f32 payloads (BCE targets, dropout masks).
    f32_buf: Vec<f32>,
    /// Recycled per-parameter gradient buffers, aligned with [`Params`].
    spare_bufs: Vec<Option<GradBuf>>,
    /// Recycled [`Grads`] shell.
    spare_grads: Option<Grads>,
}

impl GraphArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears per-graph state, keeping every buffer's capacity. Called by
    /// [`Graph::with_arena`]; only needed directly when reusing an arena
    /// without building a graph.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.vals_used = 0;
        self.idx_buf.clear();
        self.f32_buf.clear();
        self.gset.clear();
    }

    /// Parks a consumed [`Grads`] (after the optimizer step) so the next
    /// [`Graph::backward`] over this arena reuses its buffers instead of
    /// allocating: dense gradients keep their matrices (re-zeroed on
    /// reuse), row-sparse ones keep their table capacity.
    pub fn recycle(&mut self, mut grads: Grads) {
        let ids: Vec<ParamId> = grads.iter().map(|(id, _)| id).collect();
        for id in ids {
            if let Some(mut buf) = grads.slot_mut(id).take() {
                if let GradBuf::Rows(rs) = &mut buf {
                    rs.clear();
                }
                if self.spare_bufs.len() <= id.index() {
                    self.spare_bufs.resize_with(id.index() + 1, || None);
                }
                self.spare_bufs[id.index()] = Some(buf);
            }
        }
        self.spare_grads = Some(grads);
    }

    fn idx_range(&self, (start, len): BufRange) -> &[u32] {
        &self.idx_buf[start..start + len]
    }

    fn f32_range(&self, (start, len): BufRange) -> &[f32] {
        &self.f32_buf[start..start + len]
    }
}

enum ArenaRef<'p> {
    Owned(Box<GraphArena>),
    Borrowed(&'p mut GraphArena),
}

/// Where a taken gradient-destination buffer must be returned to.
enum DestSlot {
    Node(usize),
    Param(ParamId),
}

/// A single-batch autodiff tape over a borrowed parameter store.
pub struct Graph<'p> {
    params: &'p Params,
    arena: ArenaRef<'p>,
}

/// `out = f(x)`, element-wise, reusing `out`'s buffer.
fn map_into(out: &mut Matrix, x: &Matrix, f: impl Fn(f32) -> f32) {
    out.reset_to(x.rows(), x.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *o = f(v);
    }
}

/// `out = f(x, y)`, element-wise, reusing `out`'s buffer.
fn zip_into(out: &mut Matrix, x: &Matrix, y: &Matrix, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(x.shape(), y.shape(), "zip_map shape mismatch");
    out.reset_to(x.rows(), x.cols());
    for ((o, &a), &b) in out.as_mut_slice().iter_mut().zip(x.as_slice()).zip(y.as_slice()) {
        *o = f(a, b);
    }
}

impl<'p> Graph<'p> {
    /// A graph over a fresh private arena (one-off use: tests, scoring).
    pub fn new(params: &'p Params) -> Self {
        Self { params, arena: ArenaRef::Owned(Box::default()) }
    }

    /// A graph over a caller-owned arena, reusing its buffers. This is
    /// the hot-path constructor: hold one [`GraphArena`] per model and
    /// rebuild every batch's tape over it.
    pub fn with_arena(params: &'p Params, arena: &'p mut GraphArena) -> Self {
        arena.reset();
        Self { params, arena: ArenaRef::Borrowed(arena) }
    }

    fn arena(&self) -> &GraphArena {
        match &self.arena {
            ArenaRef::Owned(a) => a,
            ArenaRef::Borrowed(a) => a,
        }
    }

    fn arena_mut(&mut self) -> &mut GraphArena {
        match &mut self.arena {
            ArenaRef::Owned(a) => a,
            ArenaRef::Borrowed(a) => a,
        }
    }

    /// Claims the next pooled value slot, handing out its (taken) buffer.
    fn new_slot(&mut self) -> (usize, Matrix) {
        let a = self.arena_mut();
        if a.vals_used == a.vals.len() {
            a.vals.push(Matrix::default());
        }
        let s = a.vals_used;
        a.vals_used += 1;
        (s, std::mem::take(&mut a.vals[s]))
    }

    /// Returns a filled buffer to its slot and records the node.
    fn finish(&mut self, slot: usize, value: Matrix, src: Source) -> Var {
        let a = self.arena_mut();
        a.vals[slot] = value;
        a.nodes.push(Node { value: ValRef::Slot(slot), src });
        Var(a.nodes.len() - 1)
    }

    fn stage_idx(&mut self, idx: &[u32]) -> BufRange {
        let a = self.arena_mut();
        let start = a.idx_buf.len();
        a.idx_buf.extend_from_slice(idx);
        (start, idx.len())
    }

    fn stage_f32(&mut self, vals: &[f32]) -> BufRange {
        let a = self.arena_mut();
        let start = a.f32_buf.len();
        a.f32_buf.extend_from_slice(vals);
        (start, vals.len())
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        match self.arena().nodes[v.0].value {
            ValRef::Slot(s) => &self.arena().vals[s],
            ValRef::Param(id) => self.params.get(id),
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
        self.leaf_ref(&value)
    }

    /// Like [`Graph::leaf`], but copies from a borrowed matrix into a
    /// pooled buffer, so hot paths can keep a reusable staging matrix on
    /// the caller's side.
    pub fn leaf_ref(&mut self, value: &Matrix) -> Var {
        let (s, mut out) = self.new_slot();
        out.reset_to(value.rows(), value.cols());
        out.as_mut_slice().copy_from_slice(value.as_slice());
        self.finish(s, out, Source::Leaf)
    }

    /// Inserts a reference to parameter `id` (no copy is made).
    pub fn param(&mut self, id: ParamId) -> Var {
        assert!(id.index() < self.params.len(), "unknown ParamId");
        let a = self.arena_mut();
        a.nodes.push(Node { value: ValRef::Param(id), src: Source::Param(id) });
        Var(a.nodes.len() - 1)
    }

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (s, mut out) = self.new_slot();
        self.value(a).matmul_into(self.value(b), &mut out);
        self.finish(s, out, Source::MatMul { a, b })
    }

    /// Sparse product `a × b` (NGCF/LightGCN message passing).
    pub fn spmm(&mut self, a: &Csr, b: Var) -> Var {
        let (s, mut out) = self.new_slot();
        a.matmul_into(self.value(b), &mut out);
        self.finish(s, out, Source::Spmm { a: Arc::new(a.clone()), b })
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (s, mut out) = self.new_slot();
        zip_into(&mut out, self.value(a), self.value(b), |x, y| x + y);
        self.finish(s, out, Source::Binary { a, b, op: BinOp::Add })
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (s, mut out) = self.new_slot();
        zip_into(&mut out, self.value(a), self.value(b), |x, y| x - y);
        self.finish(s, out, Source::Binary { a, b, op: BinOp::Sub })
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (s, mut out) = self.new_slot();
        zip_into(&mut out, self.value(a), self.value(b), |x, y| x * y);
        self.finish(s, out, Source::Binary { a, b, op: BinOp::Mul })
    }

    /// Multiplication by a compile-time constant.
    pub fn scale(&mut self, p: Var, c: f32) -> Var {
        let (s, mut out) = self.new_slot();
        map_into(&mut out, self.value(p), |x| c * x);
        self.finish(s, out, Source::Scale { p, c })
    }

    pub fn sigmoid(&mut self, p: Var) -> Var {
        let (s, mut out) = self.new_slot();
        map_into(&mut out, self.value(p), sigmoid);
        self.finish(s, out, Source::Unary { p, op: UnaryOp::Sigmoid })
    }

    pub fn relu(&mut self, p: Var) -> Var {
        let (s, mut out) = self.new_slot();
        map_into(&mut out, self.value(p), |x| x.max(0.0));
        self.finish(s, out, Source::Unary { p, op: UnaryOp::Relu })
    }

    /// Leaky ReLU with negative slope `alpha` (NGCF uses 0.2).
    pub fn leaky_relu(&mut self, p: Var, alpha: f32) -> Var {
        let (s, mut out) = self.new_slot();
        map_into(&mut out, self.value(p), |x| if x > 0.0 { x } else { alpha * x });
        self.finish(s, out, Source::Unary { p, op: UnaryOp::LeakyRelu(alpha) })
    }

    pub fn tanh(&mut self, p: Var) -> Var {
        let (s, mut out) = self.new_slot();
        map_into(&mut out, self.value(p), f32::tanh);
        self.finish(s, out, Source::Unary { p, op: UnaryOp::Tanh })
    }

    pub fn neg(&mut self, p: Var) -> Var {
        let (s, mut out) = self.new_slot();
        map_into(&mut out, self.value(p), |x| -x);
        self.finish(s, out, Source::Unary { p, op: UnaryOp::Neg })
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ar, br, "concat_cols: row mismatch {ar} vs {br}");
        let (s, mut out) = self.new_slot();
        out.reset_to(ar, ac + bc);
        let av = self.value(a);
        let bv = self.value(b);
        for r in 0..ar {
            out.row_mut(r)[..ac].copy_from_slice(av.row(r));
            out.row_mut(r)[ac..].copy_from_slice(bv.row(r));
        }
        self.finish(s, out, Source::ConcatCols { a, b })
    }

    /// Gathers rows `idx` of `src` (embedding lookup). Gradients to a
    /// parameter source are accumulated row-sparsely.
    pub fn gather(&mut self, src: Var, idx: &[u32]) -> Var {
        let range = self.stage_idx(idx);
        let (s, mut out) = self.new_slot();
        self.value(src).gather_rows_into(idx, &mut out);
        self.finish(s, out, Source::Gather { src, idx: range })
    }

    /// Row-wise dot product of two equally-shaped matrices → n×1 column.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.shape(a);
        assert_eq!((ar, ac), self.shape(b), "row_dot shape mismatch");
        let (s, mut out) = self.new_slot();
        out.reset_to(ar, 1);
        let av = self.value(a);
        let bv = self.value(b);
        for r in 0..ar {
            out.as_mut_slice()[r] = kernels::dot(av.row(r), bv.row(r));
        }
        self.finish(s, out, Source::RowDot { a, b })
    }

    /// Sum of all elements → 1×1.
    pub fn sum_all(&mut self, p: Var) -> Var {
        let (s, mut out) = self.new_slot();
        out.reset_to(1, 1);
        out.as_mut_slice()[0] = self.value(p).sum();
        self.finish(s, out, Source::SumAll { p })
    }

    /// Mean of all elements → 1×1.
    pub fn mean_all(&mut self, p: Var) -> Var {
        let (s, mut out) = self.new_slot();
        out.reset_to(1, 1);
        let n = self.value(p).len() as f32;
        out.as_mut_slice()[0] = self.value(p).sum() / n;
        self.finish(s, out, Source::MeanAll { p })
    }

    /// Squared Frobenius norm → 1×1.
    pub fn frob_sq(&mut self, p: Var) -> Var {
        let (s, mut out) = self.new_slot();
        out.reset_to(1, 1);
        out.as_mut_slice()[0] = self.value(p).frob_sq();
        self.finish(s, out, Source::FrobSq { p })
    }

    /// Broadcast-adds a 1×d row vector over the rows of an n×d matrix.
    pub fn add_row(&mut self, m: Var, row: Var) -> Var {
        let (mr, mc) = self.shape(m);
        let (rr, rc) = self.shape(row);
        assert_eq!((rr, rc), (1, mc), "add_row: bias must be 1x{mc}, got {rr}x{rc}");
        let (s, mut out) = self.new_slot();
        out.reset_to(mr, mc);
        out.as_mut_slice().copy_from_slice(self.value(m).as_slice());
        let bias = self.value(row);
        for r in 0..mr {
            kernels::add_assign(out.row_mut(r), bias.as_slice());
        }
        self.finish(s, out, Source::AddRow { m, row })
    }

    /// Numerically stable mean binary cross-entropy over an n×1 logit
    /// column with (possibly soft) targets in `[0, 1]` → 1×1.
    ///
    /// `loss = mean_i [ max(xᵢ,0) − xᵢ·tᵢ + ln(1 + e^{−|xᵢ|}) ]`
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let (n, c) = self.shape(logits);
        assert_eq!(c, 1, "bce_with_logits expects an n×1 logit column");
        assert_eq!(n, targets.len(), "bce_with_logits: {n} logits vs {} targets", targets.len());
        let range = self.stage_f32(targets);
        let (s, mut out) = self.new_slot();
        out.reset_to(1, 1);
        let x = self.value(logits).as_slice();
        let mut total = 0.0f64;
        for (&xi, &ti) in x.iter().zip(targets) {
            debug_assert!((0.0..=1.0).contains(&ti), "target {ti} outside [0,1]");
            total += (xi.max(0.0) - xi * ti + (-xi.abs()).exp().ln_1p()) as f64;
        }
        out.as_mut_slice()[0] = (total / n as f64) as f32;
        self.finish(s, out, Source::BceWithLogits { logits, targets: range })
    }

    /// Inverted dropout with the given drop `rate`: each element is zeroed
    /// with probability `rate` and survivors are scaled by `1/(1−rate)`,
    /// so expectations match the identity at inference time (where callers
    /// simply skip this op).
    pub fn dropout(&mut self, p: Var, rate: f32, rng: &mut impl rand::Rng) -> Var {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0,1), got {rate}");
        if rate == 0.0 {
            return p;
        }
        let keep = 1.0 - rate;
        let scale = 1.0 / keep;
        let n = self.value(p).len();
        let range = {
            let a = self.arena_mut();
            let start = a.f32_buf.len();
            for _ in 0..n {
                a.f32_buf.push(if rng.gen::<f32>() < keep { scale } else { 0.0 });
            }
            (start, n)
        };
        let (s, mut out) = self.new_slot();
        {
            let x = self.value(p);
            out.reset_to(x.rows(), x.cols());
            let mask = self.arena().f32_range(range);
            for ((o, &v), &m) in out.as_mut_slice().iter_mut().zip(x.as_slice()).zip(mask) {
                *o = v * m;
            }
        }
        self.finish(s, out, Source::Dropout { p, mask: range })
    }

    /// Runs the chain rule backwards from the 1×1 node `loss`, returning
    /// gradients for every parameter the loss depends on. Gradients are
    /// accumulated in the arena's pooled buffers; recycled [`Grads`]
    /// storage (see [`GraphArena::recycle`]) is reused when available.
    ///
    /// # Panics
    /// If `loss` is not 1×1.
    pub fn backward(&mut self, loss: Var) -> Grads {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be a 1×1 scalar");
        let n = self.arena().nodes.len();
        let params_len = self.params.len();
        {
            let a = self.arena_mut();
            if a.gvals.len() < n {
                a.gvals.resize_with(n, Matrix::default);
            }
            a.gset.clear();
            a.gset.resize(n, false);
            if a.spare_bufs.len() < params_len {
                a.spare_bufs.resize_with(params_len, || None);
            }
        }
        let mut grads = match self.arena_mut().spare_grads.take() {
            Some(mut g) => {
                g.reset_for(self.params);
                g
            }
            None => Grads::new_for(self.params),
        };
        {
            let a = self.arena_mut();
            a.gvals[loss.0].reset_to(1, 1);
            a.gvals[loss.0].as_mut_slice()[0] = 1.0;
            a.gset[loss.0] = true;
        }

        for i in (0..=loss.0).rev() {
            if !self.arena().gset[i] {
                continue;
            }
            let g = std::mem::take(&mut self.arena_mut().gvals[i]);
            let src = self.arena().nodes[i].src.clone();
            match src {
                Source::Leaf => {}
                Source::Param(_) => {
                    // the seed node was the parameter itself
                    self.add_to(&mut grads, Var(i), |_, d| {
                        kernels::add_assign(d.as_mut_slice(), g.as_slice());
                    });
                }
                Source::Unary { p, op } => {
                    self.add_to(&mut grads, p, |s, d| {
                        let gs = g.as_slice();
                        let dst = d.as_mut_slice();
                        match op {
                            UnaryOp::Sigmoid => {
                                // y(1-y) in terms of the stored output
                                let y = s.value(Var(i)).as_slice();
                                for ((d, &y), &g) in dst.iter_mut().zip(y).zip(gs) {
                                    *d += y * (1.0 - y) * g;
                                }
                            }
                            UnaryOp::Relu => {
                                let x = s.value(p).as_slice();
                                for ((d, &x), &g) in dst.iter_mut().zip(x).zip(gs) {
                                    *d += if x > 0.0 { g } else { 0.0 };
                                }
                            }
                            UnaryOp::LeakyRelu(a) => {
                                let x = s.value(p).as_slice();
                                for ((d, &x), &g) in dst.iter_mut().zip(x).zip(gs) {
                                    *d += if x > 0.0 { g } else { a * g };
                                }
                            }
                            UnaryOp::Tanh => {
                                let y = s.value(Var(i)).as_slice();
                                for ((d, &y), &g) in dst.iter_mut().zip(y).zip(gs) {
                                    *d += (1.0 - y * y) * g;
                                }
                            }
                            UnaryOp::Neg => {
                                for (d, &g) in dst.iter_mut().zip(gs) {
                                    *d -= g;
                                }
                            }
                        }
                    });
                }
                Source::Binary { a, b, op } => match op {
                    BinOp::Add => {
                        self.add_to(&mut grads, a, |_, d| {
                            kernels::add_assign(d.as_mut_slice(), g.as_slice());
                        });
                        self.add_to(&mut grads, b, |_, d| {
                            kernels::add_assign(d.as_mut_slice(), g.as_slice());
                        });
                    }
                    BinOp::Sub => {
                        self.add_to(&mut grads, a, |_, d| {
                            kernels::add_assign(d.as_mut_slice(), g.as_slice());
                        });
                        self.add_to(&mut grads, b, |_, d| {
                            for (dd, &gv) in d.as_mut_slice().iter_mut().zip(g.as_slice()) {
                                *dd -= gv;
                            }
                        });
                    }
                    BinOp::Mul => {
                        self.add_to(&mut grads, a, |s, d| {
                            let bv = s.value(b).as_slice();
                            for ((dd, &bv), &gv) in
                                d.as_mut_slice().iter_mut().zip(bv).zip(g.as_slice())
                            {
                                *dd += bv * gv;
                            }
                        });
                        self.add_to(&mut grads, b, |s, d| {
                            let av = s.value(a).as_slice();
                            for ((dd, &av), &gv) in
                                d.as_mut_slice().iter_mut().zip(av).zip(g.as_slice())
                            {
                                *dd += av * gv;
                            }
                        });
                    }
                },
                Source::MatMul { a, b } => {
                    // dA += g × Bᵀ, dB += Aᵀ × g — both transpose-free
                    self.add_to(&mut grads, a, |s, d| g.matmul_nt_acc(s.value(b), d));
                    self.add_to(&mut grads, b, |s, d| s.value(a).matmul_tn_acc(&g, d));
                }
                Source::Spmm { a, b } => {
                    self.add_to(&mut grads, b, |_, d| transpose(&a).matmul_acc(&g, d));
                }
                Source::Gather { src, idx } => {
                    let param_src = match &self.arena().nodes[src.0].src {
                        Source::Param(id) => Some(*id),
                        _ => None,
                    };
                    if let Some(id) = param_src {
                        // Row-sparse fast path straight into a parameter table.
                        let cols = self.params.get(id).cols();
                        self.ensure_param_rows(&mut grads, id, cols);
                        let idx_s = self.arena().idx_range(idx);
                        match grads.slot_mut(id) {
                            Some(GradBuf::Rows(rs)) => {
                                for (k, &r) in idx_s.iter().enumerate() {
                                    rs.add_row(r, g.row(k));
                                }
                            }
                            Some(GradBuf::Dense(d)) => scatter_add_rows(d, idx_s, &g),
                            None => {}
                        }
                    } else {
                        self.add_to(&mut grads, src, |s, d| {
                            scatter_add_rows(d, s.arena().idx_range(idx), &g);
                        });
                    }
                }
                Source::ConcatCols { a, b } => {
                    let ac = self.shape(a).1;
                    self.add_to(&mut grads, a, |_, d| {
                        for r in 0..g.rows() {
                            kernels::add_assign(d.row_mut(r), &g.row(r)[..ac]);
                        }
                    });
                    self.add_to(&mut grads, b, |_, d| {
                        for r in 0..g.rows() {
                            kernels::add_assign(d.row_mut(r), &g.row(r)[ac..]);
                        }
                    });
                }
                Source::RowDot { a, b } => {
                    self.add_to(&mut grads, a, |s, d| {
                        let bv = s.value(b);
                        for r in 0..bv.rows() {
                            kernels::axpy(g.as_slice()[r], bv.row(r), d.row_mut(r));
                        }
                    });
                    self.add_to(&mut grads, b, |s, d| {
                        let av = s.value(a);
                        for r in 0..av.rows() {
                            kernels::axpy(g.as_slice()[r], av.row(r), d.row_mut(r));
                        }
                    });
                }
                Source::SumAll { p } => {
                    let sv = g.scalar();
                    self.add_to(&mut grads, p, |_, d| {
                        for dd in d.as_mut_slice() {
                            *dd += sv;
                        }
                    });
                }
                Source::MeanAll { p } => {
                    let nf = self.value(p).len() as f32;
                    let sv = g.scalar() / nf;
                    self.add_to(&mut grads, p, |_, d| {
                        for dd in d.as_mut_slice() {
                            *dd += sv;
                        }
                    });
                }
                Source::FrobSq { p } => {
                    let sv = g.scalar();
                    self.add_to(&mut grads, p, |s, d| {
                        let x = s.value(p).as_slice();
                        for (dd, &xv) in d.as_mut_slice().iter_mut().zip(x) {
                            *dd += 2.0 * sv * xv;
                        }
                    });
                }
                Source::AddRow { m, row } => {
                    self.add_to(&mut grads, m, |_, d| {
                        kernels::add_assign(d.as_mut_slice(), g.as_slice());
                    });
                    self.add_to(&mut grads, row, |_, d| {
                        for r in 0..g.rows() {
                            kernels::add_assign(d.as_mut_slice(), g.row(r));
                        }
                    });
                }
                Source::Scale { p, c } => {
                    self.add_to(&mut grads, p, |_, d| {
                        kernels::axpy(c, g.as_slice(), d.as_mut_slice());
                    });
                }
                Source::BceWithLogits { logits, targets } => {
                    let sv = g.scalar();
                    self.add_to(&mut grads, logits, |s, d| {
                        let x = s.value(logits).as_slice();
                        let t = s.arena().f32_range(targets);
                        let nf = t.len() as f32;
                        for ((dd, &xi), &ti) in d.as_mut_slice().iter_mut().zip(x).zip(t) {
                            *dd += sv * (sigmoid(xi) - ti) / nf;
                        }
                    });
                }
                Source::Dropout { p, mask } => {
                    self.add_to(&mut grads, p, |s, d| {
                        let mv = s.arena().f32_range(mask);
                        for ((dd, &gv), &mv) in
                            d.as_mut_slice().iter_mut().zip(g.as_slice()).zip(mv)
                        {
                            *dd += gv * mv;
                        }
                    });
                }
            }
            // return the buffer so the next backward reuses its capacity
            self.arena_mut().gvals[i] = g;
        }
        grads
    }

    /// Adds a gradient contribution to `target`: takes its destination
    /// buffer (node-grad pool or parameter slot), lets `f` accumulate
    /// into it, and returns it. Leaves absorb nothing.
    fn add_to(&mut self, grads: &mut Grads, target: Var, f: impl FnOnce(&Self, &mut Matrix)) {
        let Some((slot, mut dst)) = self.take_dest(grads, target) else { return };
        f(self, &mut dst);
        self.put_dest(grads, slot, dst);
    }

    fn take_dest(&mut self, grads: &mut Grads, target: Var) -> Option<(DestSlot, Matrix)> {
        let param_id = match &self.arena().nodes[target.0].src {
            Source::Leaf => return None, // constants absorb nothing
            Source::Param(id) => Some(*id),
            _ => None,
        };
        if let Some(id) = param_id {
            Some((DestSlot::Param(id), self.take_param_dense(grads, id)))
        } else {
            let t = target.0;
            if !self.arena().gset[t] {
                let (r, c) = self.shape(target);
                let a = self.arena_mut();
                a.gvals[t].reset_to(r, c);
                a.gset[t] = true;
            }
            Some((DestSlot::Node(t), std::mem::take(&mut self.arena_mut().gvals[t])))
        }
    }

    fn put_dest(&mut self, grads: &mut Grads, slot: DestSlot, m: Matrix) {
        match slot {
            DestSlot::Node(t) => self.arena_mut().gvals[t] = m,
            DestSlot::Param(id) => *grads.slot_mut(id) = Some(GradBuf::Dense(m)),
        }
    }

    /// Takes the dense gradient matrix for parameter `id`, creating (or
    /// recycling) a zeroed one on first touch and promoting a row-sparse
    /// buffer if a dense contribution arrives on top of gathered rows.
    fn take_param_dense(&mut self, grads: &mut Grads, id: ParamId) -> Matrix {
        match grads.slot_mut(id).take() {
            Some(GradBuf::Dense(m)) => m,
            Some(GradBuf::Rows(rs)) => {
                // rare: the same table fed both a gather and a dense op
                let mut d = self.fresh_param_dense(id);
                rs.add_into_dense(&mut d);
                d
            }
            None => self.fresh_param_dense(id),
        }
    }

    /// A zeroed dense gradient for `id`, recycled from the arena's spare
    /// buffers when one of the right kind is parked there.
    fn fresh_param_dense(&mut self, id: ParamId) -> Matrix {
        let (r, c) = self.params.get(id).shape();
        let slot = &mut self.arena_mut().spare_bufs[id.index()];
        if matches!(slot, Some(GradBuf::Dense(_))) {
            if let Some(GradBuf::Dense(mut m)) = slot.take() {
                m.reset_to(r, c);
                return m;
            }
        }
        Matrix::zeros(r, c)
    }

    /// Ensures parameter `id` has a gradient buffer for row-sparse
    /// accumulation, recycling a parked one when its width matches.
    fn ensure_param_rows(&mut self, grads: &mut Grads, id: ParamId, cols: usize) {
        if grads.get(id).is_some() {
            return;
        }
        let slot = &mut self.arena_mut().spare_bufs[id.index()];
        let take_spare = matches!(slot, Some(GradBuf::Rows(rs)) if rs.cols() == cols);
        let rs = if take_spare {
            match slot.take() {
                Some(GradBuf::Rows(rs)) => rs,
                _ => unreachable!(),
            }
        } else {
            RowSparse::new(cols)
        };
        *grads.slot_mut(id) = Some(GradBuf::Rows(rs));
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
                g.sum_all(c)
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
                let d = g.sub(s, b);
                let m = g.mul(d, b);
                let sc = g.scale(m, 1.7);
                let n = g.neg(sc);
                g.mean_all(n)
            },
            1e-2,
        );
    }

    #[test]
    fn activation_grads() {
        let mut p = Params::new();
        p.push("x", test_matrix(4, 3, 1.5));
        assert_grads_match(
            &mut p,
            &|g| {
                let x = g.param(ParamId(0));
                let a = g.sigmoid(x);
                let b = g.tanh(a);
                let c = g.leaky_relu(b, 0.2);
                let d = g.relu(c);
                g.sum_all(d)
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
                let act = g.tanh(biased);
                g.mean_all(act)
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
                g.sum_all(d)
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
            let l = g.sum_all(rows);
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
                g.sum_all(rows)
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
                g.sum_all(rows)
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
                g.mean_all(s)
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
                let s = g.sigmoid(d);
                g.mean_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn disconnected_param_gets_no_grad() {
        let mut p = Params::new();
        let used = p.push("used", test_matrix(2, 2, 1.0));
        let unused = p.push("unused", test_matrix(2, 2, 1.0));
        let mut g = Graph::new(&p);
        let u = g.param(used);
        let l = g.sum_all(u);
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
        let l = g.sum_all(y);
        let grads = g.backward(l); // must not panic on the leaf
        assert_eq!(grads.num_touched(), 1);
    }

    /// The NeuMF shape in miniature: MLP over a leaf plus a gathered
    /// embedding interaction, exercising most op kinds in one tape.
    fn composite_loss(g: &mut Graph, x: &Matrix, targets: &[f32]) -> Var {
        let xv = g.leaf_ref(x);
        let w1 = g.param(ParamId(0));
        let b1 = g.param(ParamId(1));
        let emb = g.param(ParamId(2));
        let h = g.matmul(xv, w1);
        let h = g.add_row(h, b1);
        let h = g.leaky_relu(h, 0.2);
        let rows = g.gather(emb, &[0, 2, 2, 5, 1]);
        let d = g.row_dot(h, rows);
        let fit = g.bce_with_logits(d, targets);
        let reg = g.frob_sq(emb);
        let reg = g.scale(reg, 1e-3);
        g.add(fit, reg)
    }

    #[test]
    fn arena_reuse_is_bit_identical_across_batches() {
        let mut p = Params::new();
        p.push("w1", test_matrix(4, 3, 0.9));
        p.push("b1", test_matrix(1, 3, 0.2));
        p.push("emb", test_matrix(6, 3, 1.0));
        let x = test_matrix(5, 4, 1.0);
        let targets = [1.0, 0.0, 1.0, 0.0, 1.0];

        // reference: a fresh single-use graph
        let (ref_grads, ref_loss) = {
            let mut g = Graph::new(&p);
            let l = composite_loss(&mut g, &x, &targets);
            (g.backward(l), g.scalar(l))
        };

        // reused arena with grad-buffer recycling: every round must match
        // the fresh graph bit for bit
        let mut arena = GraphArena::new();
        for round in 0..3 {
            let grads = {
                let mut g = Graph::with_arena(&p, &mut arena);
                let l = composite_loss(&mut g, &x, &targets);
                let loss = g.scalar(l);
                assert_eq!(loss.to_bits(), ref_loss.to_bits(), "loss differs in round {round}");
                g.backward(l)
            };
            for (id, _, _) in p.iter() {
                assert_eq!(
                    grads.dense(id, &p).as_slice(),
                    ref_grads.dense(id, &p).as_slice(),
                    "grad for param {} differs in round {round}",
                    id.index()
                );
            }
            arena.recycle(grads);
        }
    }

    #[test]
    fn ngcf_style_arena_reuse_is_bit_identical() {
        // the NGCF layer shape: sparse propagation, element-wise affinity,
        // dropout (with a reseeded mask each round), tanh, column concat
        let adj = Csr::from_triplets(
            4,
            4,
            &[(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.7), (2, 1, 0.7), (3, 3, 1.0)],
        );
        let prop = adj;
        let mut p = Params::new();
        let emb = p.push("emb", test_matrix(4, 3, 1.1));
        let w1 = p.push("w1", test_matrix(3, 3, 0.8));

        let layer = |g: &mut Graph| {
            let e = g.param(emb);
            let w = g.param(w1);
            let side = g.spmm(&prop, e);
            let aff = g.mul(side, e);
            let lin = g.matmul(aff, w);
            let mut rng = ptf_tensor::test_rng(40);
            let drop = g.dropout(lin, 0.3, &mut rng);
            let act = g.tanh(drop);
            let both = g.concat_cols(act, e);
            g.frob_sq(both)
        };

        let (ref_grads, ref_loss) = {
            let mut g = Graph::new(&p);
            let l = layer(&mut g);
            (g.backward(l), g.scalar(l))
        };
        let mut arena = GraphArena::new();
        for round in 0..3 {
            let grads = {
                let mut g = Graph::with_arena(&p, &mut arena);
                let l = layer(&mut g);
                assert_eq!(g.scalar(l).to_bits(), ref_loss.to_bits(), "round {round}");
                g.backward(l)
            };
            for id in [emb, w1] {
                assert_eq!(
                    grads.dense(id, &p).as_slice(),
                    ref_grads.dense(id, &p).as_slice(),
                    "grad for param {} differs in round {round}",
                    id.index()
                );
            }
            arena.recycle(grads);
        }
    }

    #[test]
    fn arena_recycles_row_sparse_buffers_without_leaking_rows() {
        let mut p = Params::new();
        let emb = p.push("emb", test_matrix(6, 3, 1.0));
        let mut arena = GraphArena::new();
        // round 1 touches rows {4, 1}
        let grads = {
            let mut g = Graph::with_arena(&p, &mut arena);
            let e = g.param(emb);
            let rows = g.gather(e, &[4, 1, 4]);
            let l = g.sum_all(rows);
            g.backward(l)
        };
        assert!(matches!(grads.get(emb), Some(GradBuf::Rows(rs)) if rs.num_rows() == 2));
        arena.recycle(grads);
        // round 2 touches row {0} only — recycled buffer must not leak 4/1
        let grads = {
            let mut g = Graph::with_arena(&p, &mut arena);
            let e = g.param(emb);
            let rows = g.gather(e, &[0]);
            let l = g.sum_all(rows);
            g.backward(l)
        };
        match grads.get(emb) {
            Some(GradBuf::Rows(rs)) => {
                assert_eq!(rs.num_rows(), 1);
                let d = rs.to_dense(6);
                assert_eq!(d.row(0), &[1.0, 1.0, 1.0]);
                assert_eq!(d.row(4), &[0.0, 0.0, 0.0]);
            }
            other => panic!("expected recycled row-sparse grad, got {other:?}"),
        }
    }

    #[test]
    fn arena_handles_shrinking_graphs() {
        let mut p = Params::new();
        p.push("w", test_matrix(3, 3, 1.0));
        let mut arena = GraphArena::new();
        {
            let mut g = Graph::with_arena(&p, &mut arena);
            let w = g.param(ParamId(0));
            let s = g.sigmoid(w);
            let t = g.tanh(s);
            let l = g.frob_sq(t);
            let _ = g.backward(l);
        }
        // a smaller follow-up graph over the same arena must not see any
        // stale nodes, values, or gradient flags
        {
            let mut g = Graph::with_arena(&p, &mut arena);
            let w = g.param(ParamId(0));
            let l = g.sum_all(w);
            let grads = g.backward(l);
            let d = grads.dense(ParamId(0), &p);
            assert!(d.as_slice().iter().all(|&v| v == 1.0), "stale arena state leaked: {d:?}");
        }
    }
}

#[cfg(test)]
mod loss_op_tests {
    use super::*;
    use ptf_tensor::test_rng;
    use rand::Rng as _;

    #[test]
    fn dropout_zeroes_and_rescales() {
        let p = Params::new();
        let mut g = Graph::new(&p);
        let x = g.leaf(Matrix::full(20, 10, 1.0));
        let mut rng = test_rng(5);
        let d = g.dropout(x, 0.4, &mut rng);
        let vals = g.value(d).as_slice();
        let scale = 1.0 / 0.6;
        let mut zeros = 0;
        for &v in vals {
            assert!(v == 0.0 || (v - scale).abs() < 1e-6, "unexpected value {v}");
            if v == 0.0 {
                zeros += 1;
            }
        }
        let rate = zeros as f32 / vals.len() as f32;
        assert!((rate - 0.4).abs() < 0.1, "empirical drop rate {rate}");
    }

    #[test]
    fn dropout_gradient_respects_mask() {
        let mut p = Params::new();
        let id = p.push("x", Matrix::full(4, 4, 0.5));
        let mut rng = test_rng(9);
        let (grads, mask_vals) = {
            let mut g = Graph::new(&p);
            let x = g.param(id);
            let d = g.dropout(x, 0.5, &mut rng);
            let mask_vals: Vec<f32> = g.value(d).as_slice().to_vec();
            let l = g.sum_all(d);
            (g.backward(l), mask_vals)
        };
        let dx = grads.dense(id, &p);
        for (g_val, &m) in dx.as_slice().iter().zip(&mask_vals) {
            if m == 0.0 {
                assert_eq!(*g_val, 0.0, "gradient leaked through dropped element");
            } else {
                assert!((g_val - 2.0).abs() < 1e-6, "kept gradient should be 1/(1-p)");
            }
        }
    }

    #[test]
    fn dropout_rate_zero_is_identity() {
        let p = Params::new();
        let mut g = Graph::new(&p);
        let x = g.leaf(Matrix::full(2, 2, 3.0));
        let mut rng = test_rng(1);
        let d = g.dropout(x, 0.0, &mut rng);
        assert_eq!(d, x, "rate 0 must be a no-op returning the same var");
    }

    #[test]
    fn dropout_mask_is_frozen_for_backward() {
        // the same mask must apply in forward and backward even if the RNG
        // advances in between
        let mut p = Params::new();
        let id = p.push("x", Matrix::full(1, 8, 1.0));
        let mut rng = test_rng(2);
        let mut g = Graph::new(&p);
        let x = g.param(id);
        let d = g.dropout(x, 0.5, &mut rng);
        let forward: Vec<f32> = g.value(d).as_slice().to_vec();
        let _ = rng.gen::<u64>(); // perturb the RNG
        let l = g.sum_all(d);
        let grads = g.backward(l);
        let dx = grads.dense(id, &p);
        for (f, gr) in forward.iter().zip(dx.as_slice()) {
            assert_eq!((*f == 0.0), (*gr == 0.0), "mask changed between passes");
        }
    }
}
