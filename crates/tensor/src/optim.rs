//! The Adam optimizer, with lazy row-sparse embedding updates.

use crate::grad::{GradBuf, Grads};
use crate::kernels;
use crate::matrix::Matrix;
use crate::params::Params;

/// Adam configuration (PyTorch defaults unless stated otherwise).
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
}

impl AdamConfig {
    pub fn with_lr(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

/// Adam optimizer.
///
/// Dense gradients get the textbook update. Row-sparse gradients (from
/// embedding gathers) get a *lazy* update: first/second-moment state and
/// the parameter move only for rows that actually received gradient this
/// step, with bias correction driven by the global step counter. This is
/// the same semantics as TensorFlow's `LazyAdam` and keeps per-batch cost
/// proportional to the batch, not the vocabulary.
#[derive(Clone, Debug)]
pub struct Adam {
    cfg: AdamConfig,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    pub fn new(params: &Params, cfg: AdamConfig) -> Self {
        let m = params.iter().map(|(_, _, p)| Matrix::zeros_like(p)).collect();
        let v = params.iter().map(|(_, _, p)| Matrix::zeros_like(p)).collect();
        Self { cfg, t: 0, m, v }
    }

    pub fn with_defaults(params: &Params, lr: f32) -> Self {
        Self::new(params, AdamConfig::with_lr(lr))
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshots the optimizer state — step counter and both moment
    /// buffers — for a *full* checkpoint ([`Adam::restore_state`] is the
    /// inverse). A round-tripped optimizer continues training
    /// bit-identically.
    pub fn export_state(&self) -> (u64, Vec<Matrix>, Vec<Matrix>) {
        (self.t, self.m.clone(), self.v.clone())
    }

    /// Restores a snapshot taken by [`Adam::export_state`]. The moment
    /// buffers must match `params` shape-for-shape — a checkpoint written
    /// against different parameter shapes is rejected.
    pub fn restore_state(
        &mut self,
        params: &Params,
        t: u64,
        m: Vec<Matrix>,
        v: Vec<Matrix>,
    ) -> Result<(), String> {
        let shapes: Vec<(usize, usize)> = params.iter().map(|(_, _, p)| p.shape()).collect();
        for (which, buf) in [("first", &m), ("second", &v)] {
            if buf.len() != shapes.len() {
                return Err(format!(
                    "optimizer {which}-moment count mismatch: {} vs {} parameters",
                    buf.len(),
                    shapes.len()
                ));
            }
            for (i, mat) in buf.iter().enumerate() {
                if mat.shape() != shapes[i] {
                    return Err(format!(
                        "optimizer {which}-moment shape mismatch at parameter {i}: {:?} vs {:?}",
                        mat.shape(),
                        shapes[i]
                    ));
                }
            }
        }
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }

    /// Mirrors a `Matrix::insert_zero_row` on parameter `id`: inserts an
    /// all-zero row into both moment matrices at `at`, so a lazily
    /// materialized embedding row starts with fresh optimizer state while
    /// every previously tracked row keeps its moments. A zero-moment row
    /// is exactly what a dense Adam would hold for a row that never
    /// received gradient, which keeps scoped and full training
    /// bit-identical.
    pub fn insert_zero_row(&mut self, id: crate::params::ParamId, at: usize) {
        let i = id.index();
        self.m[i].insert_zero_row(at);
        self.v[i].insert_zero_row(at);
    }

    /// Both moment matrices of parameter `id`, for a caller that reshapes
    /// the parameter and must move its optimizer rows in step (a batched
    /// row insertion).
    pub fn moments_mut(&mut self, id: crate::params::ParamId) -> (&mut Matrix, &mut Matrix) {
        let i = id.index();
        (&mut self.m[i], &mut self.v[i])
    }

    /// Mirrors a `Matrix::remove_row` on parameter `id`: drops row `at`
    /// from both moment matrices, the exact inverse of
    /// [`Adam::insert_zero_row`]. Eviction must go through this (not a
    /// bare parameter-row removal), otherwise the moment rows of every
    /// later row drift one position out of register and a re-materialized
    /// row would resurrect a *different* row's stale moments.
    pub fn remove_row(&mut self, id: crate::params::ParamId, at: usize) {
        let i = id.index();
        self.m[i].remove_row(at);
        self.v[i].remove_row(at);
    }

    /// Zeros the moment rows at `at` of parameter `id` — the dense-table
    /// counterpart of evicting a row: the parameter row goes back to its
    /// derived init and its optimizer state back to what a never-touched
    /// row holds, so dense and row-sparse eviction stay bit-identical.
    pub fn zero_moment_row(&mut self, id: crate::params::ParamId, at: usize) {
        let i = id.index();
        self.m[i].row_mut(at).fill(0.0);
        self.v[i].row_mut(at).fill(0.0);
    }

    #[inline(always)]
    pub fn step(&mut self, params: &mut Params, grads: &Grads) {
        self.t += 1;
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.cfg.lr;
        let eps = self.cfg.eps;

        for (id, buf) in grads.iter() {
            let i = id.index();
            match buf {
                GradBuf::Dense(g) => {
                    let m = self.m[i].as_mut_slice();
                    let v = self.v[i].as_mut_slice();
                    let p = params.get_mut(id).as_mut_slice();
                    kernels::adam_update(p, m, v, g.as_slice(), lr, b1, b2, eps, bc1, bc2);
                }
                GradBuf::Rows(rs) => {
                    let cols = rs.cols();
                    for (r, vals) in rs.iter() {
                        let r = r as usize;
                        let m = &mut self.m[i].as_mut_slice()[r * cols..(r + 1) * cols];
                        let v = &mut self.v[i].as_mut_slice()[r * cols..(r + 1) * cols];
                        let prow = params.get_mut(id).row_mut(r);
                        kernels::adam_update(prow, m, v, vals, lr, b1, b2, eps, bc1, bc2);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::RowSparse;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize ||w - c||² for a fixed target c: d/dw = 2(w − c)
        let mut p = Params::new();
        let w = p.push("w", Matrix::zeros(1, 3));
        let target = Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]);
        let mut adam = Adam::with_defaults(&p, 0.05);
        for _ in 0..600 {
            let grad = p.get(w).zip_map(&target, |w, c| 2.0 * (w - c));
            let mut grads = Grads::new_for(&p);
            *grads.slot_mut(w) = Some(GradBuf::Dense(grad));
            adam.step(&mut p, &grads);
        }
        assert!(p.get(w).max_abs_diff(&target) < 1e-2, "{:?}", p.get(w));
    }

    #[test]
    fn adam_fits_logistic_regression() {
        // separable 2-D data: label = x0 > x1
        let n = 64;
        let x = Matrix::from_fn(n, 2, |r, c| {
            let v = ((r * 7 + c * 13) % 17) as f32 / 17.0 - 0.5;
            v * 2.0
        });
        let targets: Vec<f32> =
            (0..n).map(|r| if x.get(r, 0) > x.get(r, 1) { 1.0 } else { 0.0 }).collect();
        let mut p = Params::new();
        let w = p.push("w", Matrix::zeros(2, 1));
        let b = p.push("b", Matrix::zeros(1, 1));
        let mut adam = Adam::with_defaults(&p, 0.05);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            // mean BCE of σ(x·w + b): dlogit = (σ − t)/n, dw = xᵀ·dlogit,
            // db = Σ dlogit
            let logits = x.matmul(p.get(w)).map(|z| z + p.get(b).scalar());
            let mut loss = 0.0f32;
            let dlogit = Matrix::from_fn(n, 1, |r, _| {
                let (z, t) = (logits.get(r, 0), targets[r]);
                loss += z.max(0.0) - z * t + (-z.abs()).exp().ln_1p();
                (1.0 / (1.0 + (-z).exp()) - t) / n as f32
            });
            let mut dw = Matrix::zeros(2, 1);
            x.matmul_tn_acc(&dlogit, &mut dw);
            let mut grads = Grads::new_for(&p);
            *grads.slot_mut(w) = Some(GradBuf::Dense(dw));
            *grads.slot_mut(b) = Some(GradBuf::Dense(Matrix::full(1, 1, dlogit.sum())));
            adam.step(&mut p, &grads);
            last_loss = loss / n as f32;
        }
        assert!(last_loss < 0.1, "logistic loss did not converge: {last_loss}");
        // weights should point in the (+, −) direction
        assert!(p.get(w).get(0, 0) > 0.5);
        assert!(p.get(w).get(1, 0) < -0.5);
    }

    #[test]
    fn lazy_rows_match_dense_when_all_rows_touched() {
        // When every row receives gradient each step, lazy Adam must agree
        // exactly with the dense path.
        let init = Matrix::from_fn(3, 2, |r, c| 0.3 * (r as f32) - 0.2 * (c as f32) + 0.1);
        let grad = Matrix::from_fn(3, 2, |r, c| 0.05 * (r + 2 * c) as f32 + 0.01);

        let mut p_dense = Params::new();
        let id_d = p_dense.push("w", init.clone());
        let mut p_rows = Params::new();
        let id_r = p_rows.push("w", init.clone());

        let mut adam_d = Adam::with_defaults(&p_dense, 0.01);
        let mut adam_r = Adam::with_defaults(&p_rows, 0.01);

        for _ in 0..5 {
            let mut gd = Grads::new_for(&p_dense);
            *gd.slot_mut(id_d) = Some(GradBuf::Dense(grad.clone()));
            adam_d.step(&mut p_dense, &gd);

            let mut rs = RowSparse::new(2);
            for r in 0..3 {
                rs.add_row(r as u32, grad.row(r));
            }
            let mut gr = Grads::new_for(&p_rows);
            *gr.slot_mut(id_r) = Some(GradBuf::Rows(rs));
            adam_r.step(&mut p_rows, &gr);
        }
        assert!(p_dense.get(id_d).max_abs_diff(p_rows.get(id_r)) < 1e-6);
    }

    #[test]
    fn lazy_rows_leave_untouched_rows_alone() {
        let init = Matrix::full(4, 2, 1.0);
        let mut p = Params::new();
        let id = p.push("w", init);
        let mut adam = Adam::with_defaults(&p, 0.1);
        let mut rs = RowSparse::new(2);
        rs.add_row(2, &[1.0, 1.0]);
        let mut g = Grads::new_for(&p);
        *g.slot_mut(id) = Some(GradBuf::Rows(rs));
        adam.step(&mut p, &g);
        assert_eq!(p.get(id).row(0), &[1.0, 1.0], "untouched row moved");
        assert_eq!(p.get(id).row(3), &[1.0, 1.0], "untouched row moved");
        assert!(p.get(id).get(2, 0) < 1.0, "touched row did not move");
    }

    #[test]
    fn evicting_then_rematerializing_a_row_cannot_resurrect_stale_moments() {
        // Build up nonzero moments on every row, then evict row 1 the way
        // scoped models do (parameter row + moment rows together) and
        // re-materialize it. The fresh row must carry *zero* moments —
        // before `Adam::remove_row` existed, dropping only the parameter
        // row left the old moments in place, so the re-inserted row
        // inherited row 2's stale state one position out of register.
        let init = Matrix::from_fn(3, 2, |r, c| (r as f32) + 0.1 * (c as f32));
        let grad = Matrix::from_fn(3, 2, |r, c| 0.2 + 0.1 * (r + c) as f32);
        let mut p = Params::new();
        let id = p.push("w", init);
        let mut adam = Adam::with_defaults(&p, 0.01);
        for _ in 0..3 {
            let mut g = Grads::new_for(&p);
            *g.slot_mut(id) = Some(GradBuf::Dense(grad.clone()));
            adam.step(&mut p, &g);
        }
        let row2_m = adam.m[id.index()].row(2).to_vec();
        assert!(adam.m[id.index()].row(1).iter().any(|&x| x != 0.0), "moments must be warm");

        // evict row 1, coherently
        p.get_mut(id).remove_row(1);
        adam.remove_row(id, 1);
        assert_eq!(adam.m[id.index()].rows(), 2);
        assert_eq!(
            adam.m[id.index()].row(1),
            &row2_m[..],
            "surviving rows must keep their own moments"
        );

        // re-materialize it: zero moments, same global step counter
        p.get_mut(id).insert_zero_row(1);
        adam.insert_zero_row(id, 1);
        assert_eq!(adam.m[id.index()].row(1), &[0.0, 0.0], "stale first moment resurrected");
        assert_eq!(adam.v[id.index()].row(1), &[0.0, 0.0], "stale second moment resurrected");
        assert_eq!(adam.steps(), 3, "eviction must not disturb the step counter");

        // and the dense counterpart: zeroing moments in place
        let mut g = Grads::new_for(&p);
        *g.slot_mut(id) = Some(GradBuf::Dense(grad.clone()));
        adam.step(&mut p, &g);
        adam.zero_moment_row(id, 1);
        assert_eq!(adam.m[id.index()].row(1), &[0.0, 0.0]);
        assert_eq!(adam.v[id.index()].row(1), &[0.0, 0.0]);
        assert!(adam.m[id.index()].row(0).iter().any(|&x| x != 0.0), "other rows untouched");
    }

    #[test]
    fn exported_state_resumes_bit_identically() {
        let init = Matrix::from_fn(3, 2, |r, c| 0.3 * (r as f32) - 0.2 * (c as f32) + 0.1);
        let grad = Matrix::from_fn(3, 2, |r, c| 0.05 * (r + 2 * c) as f32 + 0.01);
        let mut p = Params::new();
        let id = p.push("w", init);
        let mut adam = Adam::with_defaults(&p, 0.01);
        let mut g = Grads::new_for(&p);
        *g.slot_mut(id) = Some(GradBuf::Dense(grad.clone()));
        for _ in 0..4 {
            adam.step(&mut p, &g);
        }
        // snapshot, then diverge one copy and restore the other
        let (t, m, v) = adam.export_state();
        let p_snap = p.clone();
        let mut resumed = Adam::with_defaults(&p_snap, 0.01);
        resumed.restore_state(&p_snap, t, m, v).unwrap();
        assert_eq!(resumed.steps(), 4);

        let mut p_live = p.clone();
        let mut p_back = p_snap.clone();
        adam.step(&mut p_live, &g);
        resumed.step(&mut p_back, &g);
        assert_eq!(
            p_live.get(id).as_slice(),
            p_back.get(id).as_slice(),
            "restored optimizer diverged from the uninterrupted one"
        );

        // shape drift is rejected
        let mut other = Params::new();
        other.push("w", Matrix::zeros(2, 2));
        let (t, m, v) = adam.export_state();
        let mut bad = Adam::with_defaults(&other, 0.01);
        assert!(bad.restore_state(&other, t, m, v).is_err());
    }

    #[test]
    fn step_counter_advances() {
        let mut p = Params::new();
        p.push("w", Matrix::zeros(1, 1));
        let mut adam = Adam::with_defaults(&p, 0.1);
        let g = Grads::new_for(&p);
        adam.step(&mut p, &g);
        adam.step(&mut p, &g);
        assert_eq!(adam.steps(), 2);
    }
}
