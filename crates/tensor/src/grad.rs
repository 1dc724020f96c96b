//! Gradient buffers.
//!
//! Embedding tables receive gradients only on the rows a batch touched, so
//! [`GradBuf`] has a row-sparse representation next to the dense one.

use crate::matrix::Matrix;
use crate::params::{ParamId, Params};
use std::collections::HashMap;

/// Row-sparse gradient: a set of `(row index, row values)` pairs.
#[derive(Clone, Debug, Default)]
pub struct RowSparse {
    cols: usize,
    /// row index → slot in `rows`/`data`
    slot_of_row: HashMap<u32, usize>,
    rows: Vec<u32>,
    /// `rows.len() * cols` values, row-major.
    data: Vec<f32>,
}

impl RowSparse {
    pub fn new(cols: usize) -> Self {
        Self { cols, ..Default::default() }
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of distinct rows carrying gradient.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Adds `values` (length `cols`) into the accumulated gradient of `row`.
    pub fn add_row(&mut self, row: u32, values: &[f32]) {
        debug_assert_eq!(values.len(), self.cols);
        let slot = *self.slot_of_row.entry(row).or_insert_with(|| {
            self.rows.push(row);
            self.data.resize(self.data.len() + self.cols, 0.0);
            self.rows.len() - 1
        });
        let dst = &mut self.data[slot * self.cols..(slot + 1) * self.cols];
        for (d, &v) in dst.iter_mut().zip(values) {
            *d += v;
        }
    }

    /// Drops all accumulated rows, keeping the allocation (and `cols`)
    /// for reuse across batches.
    pub fn clear(&mut self) {
        self.slot_of_row.clear();
        self.rows.clear();
        self.data.clear();
    }

    /// Iterates `(row, values)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        self.rows
            .iter()
            .enumerate()
            .map(move |(slot, &r)| (r, &self.data[slot * self.cols..(slot + 1) * self.cols]))
    }

    /// Adds this sparse gradient into a dense matrix.
    pub fn add_into_dense(&self, dense: &mut Matrix) {
        assert_eq!(dense.cols(), self.cols, "RowSparse/dense col mismatch");
        for (r, vals) in self.iter() {
            let dst = dense.row_mut(r as usize);
            for (d, &v) in dst.iter_mut().zip(vals) {
                *d += v;
            }
        }
    }

    /// Materializes as a dense `rows×cols` matrix.
    pub fn to_dense(&self, rows: usize) -> Matrix {
        let mut m = Matrix::zeros(rows, self.cols);
        self.add_into_dense(&mut m);
        m
    }
}

/// A gradient for one parameter: dense or row-sparse.
#[derive(Clone, Debug)]
pub enum GradBuf {
    Dense(Matrix),
    Rows(RowSparse),
}

impl GradBuf {
    /// Materializes as a dense matrix with the given full shape.
    pub fn to_dense(&self, rows: usize, cols: usize) -> Matrix {
        match self {
            GradBuf::Dense(d) => {
                assert_eq!(d.shape(), (rows, cols), "GradBuf::to_dense shape mismatch");
                d.clone()
            }
            GradBuf::Rows(rs) => {
                assert_eq!(rs.cols(), cols, "GradBuf::to_dense col mismatch");
                rs.to_dense(rows)
            }
        }
    }
}

/// Gradients for every parameter of a [`Params`] store, aligned by index.
#[derive(Clone, Debug)]
pub struct Grads {
    bufs: Vec<Option<GradBuf>>,
}

impl Grads {
    pub fn new_for(params: &Params) -> Self {
        Self { bufs: (0..params.len()).map(|_| None).collect() }
    }

    /// Empties every slot and re-sizes to `params`, keeping the `Vec`
    /// allocation — for reusing a `Grads` shell.
    pub fn reset_for(&mut self, params: &Params) {
        self.bufs.clear();
        self.bufs.resize_with(params.len(), || None);
    }

    /// Mutable access to the gradient slot of `id` (where a hand-derived
    /// backward pass writes its gradients).
    pub fn slot_mut(&mut self, id: ParamId) -> &mut Option<GradBuf> {
        &mut self.bufs[id.index()]
    }

    /// The gradient of `id`, if the loss depended on it.
    pub fn get(&self, id: ParamId) -> Option<&GradBuf> {
        self.bufs[id.index()].as_ref()
    }

    /// Dense view of the gradient of `id` (zeros if absent).
    pub fn dense(&self, id: ParamId, params: &Params) -> Matrix {
        let (r, c) = params.get(id).shape();
        match self.get(id) {
            Some(buf) => buf.to_dense(r, c),
            None => Matrix::zeros(r, c),
        }
    }

    /// Iterates `(id, buf)` over parameters that received gradient.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &GradBuf)> {
        self.bufs.iter().enumerate().filter_map(|(i, b)| b.as_ref().map(|b| (ParamId(i), b)))
    }

    /// Number of parameters that received any gradient.
    pub fn num_touched(&self) -> usize {
        self.bufs.iter().filter(|b| b.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_sparse_accumulates_duplicates() {
        let mut rs = RowSparse::new(2);
        rs.add_row(3, &[1.0, 2.0]);
        rs.add_row(1, &[5.0, 5.0]);
        rs.add_row(3, &[1.0, -1.0]);
        assert_eq!(rs.num_rows(), 2);
        let d = rs.to_dense(4);
        assert_eq!(d.row(3), &[2.0, 1.0]);
        assert_eq!(d.row(1), &[5.0, 5.0]);
        assert_eq!(d.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn row_sparse_clear_keeps_cols_and_forgets_rows() {
        let mut rs = RowSparse::new(3);
        rs.add_row(1, &[1.0, 2.0, 3.0]);
        rs.clear();
        assert_eq!(rs.num_rows(), 0);
        assert_eq!(rs.cols(), 3);
        rs.add_row(2, &[4.0, 5.0, 6.0]);
        let d = rs.to_dense(3);
        assert_eq!(d.row(2), &[4.0, 5.0, 6.0]);
        assert_eq!(d.row(1), &[0.0; 3]);
    }

    #[test]
    fn grads_alignment() {
        let mut p = Params::new();
        let a = p.push("a", Matrix::zeros(2, 2));
        let b = p.push("b", Matrix::zeros(1, 2));
        let mut g = Grads::new_for(&p);
        *g.slot_mut(b) = Some(GradBuf::Dense(Matrix::full(1, 2, 3.0)));
        assert!(g.get(a).is_none());
        assert_eq!(g.dense(b, &p).as_slice(), &[3.0, 3.0]);
        assert_eq!(g.dense(a, &p).as_slice(), &[0.0; 4]);
        assert_eq!(g.num_touched(), 1);
    }
}
