//! The Adam optimizer, with lazy row-sparse embedding updates.

use crate::grad::{GradBuf, Grads};
use crate::kernels;
use crate::matrix::Matrix;
use crate::packed::{Reader, Writer};
use crate::params::{ParamId, Params};

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

    /// Appends the optimizer's state as the fields
    /// `"adam_t":"<hex>","adam_m":[…],"adam_v":[…]` of the envelope being
    /// written: the step counter and both moment buffers, each by
    /// [`Matrix::write_state`]. [`Adam::read_state`] is the inverse; a
    /// round-tripped optimizer continues training bit-identically.
    pub fn write_state(&self, w: &mut Writer<'_>) {
        w.key("adam_t");
        w.hex(self.t);
        w.key("adam_m");
        w.array(&self.m, |w, m| m.write_state(w));
        w.key("adam_v");
        w.array(&self.v, |w, v| v.write_state(w));
    }

    /// Reads [`Adam::write_state`]'s fields into this optimizer, each
    /// moment buffer in place. Every buffer must match its parameter in
    /// `params` shape-for-shape — state written against different
    /// parameter shapes is rejected.
    pub fn read_state(&mut self, params: &Params, r: &mut Reader<'_>) -> Result<(), String> {
        r.key("adam_t")?;
        let t = r.hex()?;
        let n = params.len();
        assert_eq!(self.m.len(), n, "an optimizer reads state only for its own parameters");
        for (which, key, bufs) in
            [("first", "adam_m", &mut self.m), ("second", "adam_v", &mut self.v)]
        {
            r.key(key)?;
            let mut k = 0;
            let count = r.array(|r| {
                if k == n {
                    return Err(r.error(format_args!(
                        "optimizer {which}-moment count mismatch: more than {n} parameters"
                    )));
                }
                let want = params.get(ParamId(k)).shape();
                bufs[k].read_state(r, |rows, cols| match (rows, cols) == want {
                    true => Ok(()),
                    false => Err(format!(
                        "optimizer {which}-moment shape mismatch at parameter {k}: \
                         {:?} vs {want:?}",
                        (rows, cols)
                    )),
                })?;
                k += 1;
                Ok(())
            })?;
            if count != n {
                return Err(r.error(format_args!(
                    "optimizer {which}-moment count mismatch: {count} vs {n} parameters"
                )));
            }
        }
        self.t = t;
        Ok(())
    }

    /// Both moment matrices of parameter `id`.
    pub fn moments(&self, id: crate::params::ParamId) -> (&Matrix, &Matrix) {
        let i = id.index();
        (&self.m[i], &self.v[i])
    }

    /// Both moment matrices of parameter `id`, for a caller that reshapes
    /// the parameter and must move its optimizer rows in step (a batched
    /// row insertion or compaction). A row's moments must travel with it:
    /// a moment row left out of register would hand a re-materialized row
    /// another row's stale state.
    pub fn moments_mut(&mut self, id: crate::params::ParamId) -> (&mut Matrix, &mut Matrix) {
        let i = id.index();
        (&mut self.m[i], &mut self.v[i])
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
        let state = |adam: &Adam| {
            let mut text = Vec::new();
            let mut w = Writer::new(&mut text);
            w.open();
            adam.write_state(&mut w);
            w.close();
            text
        };
        let restore = |into: &mut Adam, params: &Params, text: &[u8]| {
            let mut r = Reader::new(text);
            r.open()?;
            into.read_state(params, &mut r)?;
            r.close()?;
            r.finish()
        };
        let p_snap = p.clone();
        let mut resumed = Adam::with_defaults(&p_snap, 0.01);
        restore(&mut resumed, &p_snap, &state(&adam)).unwrap();
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
        let mut bad = Adam::with_defaults(&other, 0.01);
        let err = restore(&mut bad, &other, &state(&adam)).unwrap_err();
        assert!(err.contains("first-moment shape mismatch at parameter 0"), "{err}");
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
