//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the only dense value type in the workspace. It is a plain
//! `Vec<f32>` plus a shape; all shaping errors panic early with the shapes
//! involved, since silent broadcasting bugs are the classic failure mode of
//! hand-rolled training loops.
//!
//! # Fixed-width row kernels
//!
//! The three matmul forms — [`acc`] (`out += a × b`), [`nt_acc`]
//! (`out += g × bᵀ`) and [`tn_acc`] (`out += aᵀ × g`), which
//! [`Matrix::matmul_into`], [`Matrix::matmul_nt_acc`] and
//! [`Matrix::matmul_tn_acc`] wrap with shape checks and which NeuMF's
//! hand-derived step calls on its own buffers — are load/store-bound when
//! written as one `axpy` or `dot` per `(row, k)`: the same short output
//! row is loaded, updated and stored once per k. For the output widths
//! the models actually use — 16, 32 and 64 — each form has a row kernel
//! monomorphised over the width that accumulates the output row in a
//! local `[f32; N]` (registers, on baseline SSE2) and stores it once.
//! Every other width keeps the plain loops. On the fixed widths all three
//! forms sum each output element serially, left to right.
//!
//! The forms and their row kernels are `#[inline(always)]`: under
//! [`crate::isa::dispatch`] (the NeuMF and NGCF steps) the output row
//! lives in 256-bit AVX2 registers instead, with the same serial sums
//! and so the same bits (`tests/kernel_parity.rs` runs both).

use crate::kernels;
use crate::packed::PackedF32s;
use rand::Rng;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// An empty 0×0 matrix (no allocation) — the "parked buffer" state of
/// reused matrices.
impl Default for Matrix {
    fn default() -> Self {
        Self { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Zero matrix with the same shape as `other`.
    pub fn zeros_like(other: &Matrix) -> Self {
        Self::zeros(other.rows, other.cols)
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer of {} elements cannot be {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix element-wise from `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A matrix with i.i.d. N(0, std²) entries.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Self {
        crate::init::normal(rows, cols, std, rng)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The single element of a 1×1 matrix.
    ///
    /// # Panics
    /// If the matrix is not 1×1.
    pub fn scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar() on a {}x{} matrix", self.rows, self.cols);
        self.data[0]
    }

    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Reshapes this matrix in place to `rows × cols`, zero-filled.
    /// Existing buffer capacity is reused, so a reused gradient buffer
    /// performs no heap allocation once warmed.
    pub fn reset_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix transpose (allocates).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Dense matrix product `self × rhs` (see [`Matrix::matmul_into`]).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// In-place [`Matrix::matmul`]: overwrites `out` with `self × rhs`,
    /// reusing its buffer ([`acc`] into zeros).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} × {}x{} shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_to(self.rows, rhs.cols);
        acc(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// `out += self × rhsᵀ` — the `dA = dY × Bᵀ` backward form, computed
    /// without allocating the transpose ([`nt_acc`]).
    pub fn matmul_nt_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_nt_acc: inner dim mismatch");
        assert_eq!(out.shape(), (self.rows, rhs.rows), "matmul_nt_acc: out shape mismatch");
        nt_acc(&self.data, self.cols, &rhs.data, rhs.rows, &mut out.data);
    }

    /// `out += selfᵀ × rhs` — the `dB = Aᵀ × dY` backward form, computed
    /// without materializing the transpose ([`tn_acc`]).
    pub fn matmul_tn_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "matmul_tn_acc: inner dim mismatch");
        assert_eq!(out.shape(), (self.cols, rhs.cols), "matmul_tn_acc: out shape mismatch");
        tn_acc(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        kernels::add_assign(&mut self.data, &other.data);
    }

    /// `self += alpha * other` (axpy).
    pub fn scaled_add_assign(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "scaled_add_assign shape mismatch");
        kernels::axpy(alpha, &other.data, &mut self.data);
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise combine with `other` into a new matrix.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Sum over all elements (routes through the active reduction kernel).
    pub fn sum(&self) -> f32 {
        kernels::sum(&self.data)
    }

    /// Column sums as a 1×cols row vector.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Squared Frobenius norm (routes through the active reduction kernel).
    pub fn frob_sq(&self) -> f32 {
        kernels::frob_sq(&self.data)
    }

    /// Appends `extra` all-zero rows: the growth step of a batched
    /// insertion that then merges its rows into place. Capacity doubles.
    pub fn push_zero_rows(&mut self, extra: usize) {
        let len = self.data.len() + extra * self.cols;
        reserve_doubling(&mut self.data, len);
        self.data.resize(len, 0.0);
        self.rows += extra;
    }

    /// Keeps the first `rows` rows: the shrink step of a compaction that
    /// has already moved its kept rows to the front.
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(rows <= self.rows, "truncate_rows to {rows} of {} rows", self.rows);
        self.data.truncate(rows * self.cols);
        self.rows = rows;
    }

    /// Gathers rows `idx` into a new `idx.len()×cols` matrix.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::default();
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// In-place [`Matrix::gather_rows`], reusing `out`'s buffer.
    pub fn gather_rows_into(&self, idx: &[u32], out: &mut Matrix) {
        out.reset_to(idx.len(), self.cols);
        for (o, &i) in idx.iter().enumerate() {
            let i = i as usize;
            assert!(i < self.rows, "gather_rows: row {i} out of bounds ({} rows)", self.rows);
            out.row_mut(o).copy_from_slice(self.row(i));
        }
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference with `other`, for tests.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

/// Makes room for `v` to grow to `len` by doubling its capacity, as a
/// run of one-at-a-time insertions would. A batch that more than doubles
/// `v` in one go would otherwise get exactly `len` from `Vec::reserve`
/// and leave no headroom, so every later batch would reallocate.
pub(crate) fn reserve_doubling<T>(v: &mut Vec<T>, len: usize) {
    if len > v.capacity() {
        let mut cap = v.capacity().max(4);
        while cap < len {
            cap *= 2;
        }
        v.reserve_exact(cap - v.len());
    }
}

/// `out += a × b` over row-major slices: `a` is `rows × inner`, `b` is
/// `inner × width`, `out` is `rows × width`. The sum over the inner
/// dimension is serial per output element at every width — the fixed
/// widths keep the output row in registers across it, every other width
/// runs one axpy per `(row, k)` — so the result is bit-identical across
/// the two forms.
#[inline(always)]
pub fn acc(a: &[f32], inner: usize, b: &[f32], width: usize, out: &mut [f32]) {
    assert_eq!(b.len(), inner * width, "acc: right-hand side is not {inner}x{width}");
    assert_eq!(a.len() * width, out.len() * inner, "acc: row counts differ");
    match width {
        0 => {}
        16 => acc_rows::<16>(a, inner, b, out),
        32 => acc_rows::<32>(a, inner, b, out),
        64 => acc_rows::<64>(a, inner, b, out),
        _ => {
            for (i, out_row) in out.chunks_exact_mut(width).enumerate() {
                for (k, &x) in a[i * inner..(i + 1) * inner].iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    kernels::axpy(x, &b[k * width..(k + 1) * width], out_row);
                }
            }
        }
    }
}

/// `out += g × bᵀ` over row-major slices: `g` is `rows × inner`, `b` is
/// `width × inner`, `out` is `rows × width`. When `width` is one of the
/// fixed widths and `inner` is at most 64, each product is a serial
/// left-to-right chain over a stack copy of `bᵀ`; otherwise each output
/// element is a row [`kernels::dot`].
#[inline(always)]
pub fn nt_acc(g: &[f32], inner: usize, b: &[f32], width: usize, out: &mut [f32]) {
    assert_eq!(b.len(), width * inner, "nt_acc: right-hand side is not {width}x{inner}");
    assert_eq!(g.len() * width, out.len() * inner, "nt_acc: row counts differ");
    let small = inner <= NT_MAX_INNER;
    match width {
        0 => {}
        16 if small => nt_acc_rows::<16>(g, inner, b, out),
        32 if small => nt_acc_rows::<32>(g, inner, b, out),
        64 if small => nt_acc_rows::<64>(g, inner, b, out),
        _ => {
            for (i, out_row) in out.chunks_exact_mut(width).enumerate() {
                let g_row = &g[i * inner..(i + 1) * inner];
                for (k, o) in out_row.iter_mut().enumerate() {
                    *o += kernels::dot(g_row, &b[k * inner..(k + 1) * inner]);
                }
            }
        }
    }
}

/// `out += aᵀ × g` over row-major slices: `a` is `rows × a_cols`, `g` is
/// `rows × width`, `out` is `a_cols × width`. The sum over the shared
/// rows is serial per output element at every width (the fixed widths
/// hold an output row in registers while the rows stream past it; other
/// widths run one axpy per `(row, k)`).
#[inline(always)]
pub fn tn_acc(a: &[f32], a_cols: usize, g: &[f32], width: usize, out: &mut [f32]) {
    assert_eq!(out.len(), a_cols * width, "tn_acc: output is not {a_cols}x{width}");
    assert_eq!(a.len() * width, g.len() * a_cols, "tn_acc: row counts differ");
    match width {
        0 => {}
        16 => tn_acc_rows::<16>(a, a_cols, g, out),
        32 => tn_acc_rows::<32>(a, a_cols, g, out),
        64 => tn_acc_rows::<64>(a, a_cols, g, out),
        _ => {
            for (i, g_row) in g.chunks_exact(width).enumerate() {
                for (k, &x) in a[i * a_cols..(i + 1) * a_cols].iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    kernels::axpy(x, g_row, &mut out[k * width..(k + 1) * width]);
                }
            }
        }
    }
}

/// `acc += x · row`, lane by lane, over a compile-time width — the one
/// inner loop of the fixed-width kernels. With `N` known LLVM unrolls it
/// and keeps `acc` in vector registers across the caller's outer loop.
#[inline(always)]
pub(crate) fn axpy_lanes<const N: usize>(x: f32, row: &[f32], acc: &mut [f32; N]) {
    let row: &[f32; N] = row.try_into().expect("a row of the kernel's width");
    for j in 0..N {
        acc[j] += x * row[j];
    }
}

/// [`acc`] at width `N`: the output row lives in a local across the whole
/// k loop and is stored once. No zero-skip: adding `0·b` is a no-op for
/// finite `b` (a sum that started at `+0.0` is never `-0.0`), and a
/// branch-free k loop is what lets the row stay in registers.
#[inline(always)]
fn acc_rows<const N: usize>(a: &[f32], inner: usize, b: &[f32], out: &mut [f32]) {
    for (i, out_row) in out.chunks_exact_mut(N).enumerate() {
        let mut row: [f32; N] = (&*out_row).try_into().expect("a row of the kernel's width");
        for (k, &x) in a[i * inner..(i + 1) * inner].iter().enumerate() {
            axpy_lanes(x, &b[k * N..(k + 1) * N], &mut row);
        }
        out_row.copy_from_slice(&row);
    }
}

/// [`tn_acc`] at width `N`: output row `k` lives in a local while the
/// shared rows stream past it.
#[inline(always)]
fn tn_acc_rows<const N: usize>(a: &[f32], a_cols: usize, g: &[f32], out: &mut [f32]) {
    for (k, out_row) in out.chunks_exact_mut(N).enumerate() {
        let mut row: [f32; N] = (&*out_row).try_into().expect("a row of the kernel's width");
        for (i, g_row) in g.chunks_exact(N).enumerate() {
            axpy_lanes(a[i * a_cols + k], g_row, &mut row);
        }
        out_row.copy_from_slice(&row);
    }
}

/// Widest inner dimension [`nt_acc_rows`] copies onto its stack.
const NT_MAX_INNER: usize = 64;

/// [`nt_acc`] at width `N`: `b` is small, so its transpose is laid out
/// once on the stack and every product becomes the row accumulation of
/// [`acc_rows`], summed from zero and then added to `out`.
#[inline(always)]
fn nt_acc_rows<const N: usize>(g: &[f32], inner: usize, b: &[f32], out: &mut [f32]) {
    if inner == 0 {
        return;
    }
    let mut bt = [[0.0f32; N]; NT_MAX_INNER];
    for (n, b_row) in b.chunks_exact(inner).enumerate() {
        for (k, &v) in b_row.iter().enumerate() {
            bt[k][n] = v;
        }
    }
    for (i, out_row) in out.chunks_exact_mut(N).enumerate() {
        let mut row = [0.0f32; N];
        for (k, &x) in g[i * inner..(i + 1) * inner].iter().enumerate() {
            axpy_lanes(x, &bt[k], &mut row);
        }
        for (o, &v) in out_row.iter_mut().zip(&row) {
            *o += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "cannot be 2x2")]
    fn from_vec_rejects_bad_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1., 2., 3.]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose().as_slice(), a.as_slice());
    }

    #[test]
    fn gather_and_scatter_are_adjoint() {
        let m = Matrix::from_vec(4, 2, vec![0., 1., 10., 11., 20., 21., 30., 31.]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[20., 21., 0., 1., 20., 21.]);

        // the scatter is a row-sparse gradient: duplicates accumulate, and
        // ⟨gather(m), g⟩ = ⟨m, scatter(g)⟩
        let up = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let mut rows = crate::RowSparse::new(2);
        for (k, &r) in [2u32, 0, 2].iter().enumerate() {
            rows.add_row(r, up.row(k));
        }
        let acc = rows.to_dense(4);
        assert_eq!(acc.as_slice(), &[3., 4., 0., 0., 6., 8., 0., 0.]);
        assert_eq!(
            kernels::dot(g.as_slice(), up.as_slice()),
            kernels::dot(m.as_slice(), acc.as_slice())
        );
    }

    #[test]
    fn col_sums_sums_columns() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.col_sums().as_slice(), &[5., 7., 9.]);
    }

    #[test]
    fn axpy_and_frobenius() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.scaled_add_assign(0.5, &b);
        assert_eq!(a.as_slice(), &[2., 2., 2., 2.]);
        assert_eq!(a.frob_sq(), 16.0);
    }

    #[test]
    fn scalar_extraction() {
        assert_eq!(Matrix::full(1, 1, 3.5).scalar(), 3.5);
    }

    #[test]
    fn reset_to_reuses_capacity_and_zeroes() {
        let mut m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        m.reset_to(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.as_slice(), &[0.0; 6]);
        // shrink then grow back within the original capacity
        m.reset_to(1, 2);
        assert_eq!(m.len(), 2);
        m.reset_to(2, 3);
        assert_eq!(m.as_slice(), &[0.0; 6]);
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut out = Matrix::full(5, 5, 9.9); // wrong shape + dirty buffer
        a.matmul_into(&b, &mut out);
        assert_eq!(out.as_slice(), a.matmul(&b).as_slice());
    }

    #[test]
    fn transposed_accumulate_forms_match_explicit_transpose() {
        let g = Matrix::from_vec(2, 3, vec![1., -2., 3., 0.5, 0., -1.]);
        let b = Matrix::from_vec(4, 3, vec![2., 1., 0., -1., 3., 2., 0., 0., 1., 1., -1., 4.]);
        let mut nt = Matrix::zeros(2, 4);
        g.matmul_nt_acc(&b, &mut nt);
        let expect_nt = g.matmul(&b.transpose());
        assert!(nt.max_abs_diff(&expect_nt) < 1e-6);
        // accumulation adds on top of existing contents
        g.matmul_nt_acc(&b, &mut nt);
        let mut doubled = expect_nt.clone();
        doubled.add_assign(&expect_nt);
        assert!(nt.max_abs_diff(&doubled) < 1e-6);

        let a = Matrix::from_vec(2, 4, vec![1., 2., 0., -1., 3., 0., 2., 1.]);
        let mut tn = Matrix::zeros(4, 3);
        a.matmul_tn_acc(&g, &mut tn);
        let expect_tn = a.transpose().matmul(&g);
        assert!(tn.max_abs_diff(&expect_tn) < 1e-6);
    }
}

/// Wire form for (de)serialization: the shape plus the row-major buffer
/// as one [`PackedF32s`] string. Shape consistency is re-validated on
/// load so corrupted checkpoints fail loudly instead of mis-shaping math.
#[derive(serde::Serialize, serde::Deserialize)]
struct MatrixWire {
    rows: usize,
    cols: usize,
    data: PackedF32s,
}

impl serde::Serialize for Matrix {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        MatrixWire { rows: self.rows, cols: self.cols, data: PackedF32s::pack(&self.data) }
            .serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for Matrix {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let wire = MatrixWire::deserialize(deserializer)?;
        let data = wire.data.unpack("matrix data").map_err(D::Error::custom)?;
        if wire.rows.checked_mul(wire.cols) != Some(data.len()) {
            return Err(D::Error::custom(format!(
                "matrix buffer of {} elements cannot be {}x{}",
                data.len(),
                wire.rows,
                wire.cols
            )));
        }
        Ok(Matrix { rows: wire.rows, cols: wire.cols, data })
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn corrupted_shape_is_rejected() {
        let json = r#"{"rows":2,"cols":2,"data":"3f8000004000000040400000"}"#;
        let err = serde_json::from_str::<Matrix>(json).unwrap_err();
        assert!(err.to_string().contains("cannot be 2x2"), "{err}");
    }

    #[test]
    fn overflowing_shape_is_rejected() {
        // rows * cols wraps to 0 == data.len() in release, panics in debug
        let json = r#"{"rows":4294967296,"cols":4294967296,"data":""}"#;
        let err = serde_json::from_str::<Matrix>(json).unwrap_err();
        assert!(err.to_string().contains("cannot be 4294967296x4294967296"), "{err}");
    }
}
