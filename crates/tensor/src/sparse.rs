//! CSR sparse matrices for graph propagation.
//!
//! NGCF and LightGCN repeatedly multiply a fixed, symmetrically normalized
//! bipartite adjacency matrix `Ã` with dense embedding rows, forward
//! (`Ã·E`) and backward (`Ãᵀ·G = Ã·G`). [`Csr`] stores that adjacency
//! once; [`PropagationMatrix`] is the square operator the models build
//! from it, and because it is symmetric one buffer serves both
//! directions.
//!
//! # Register-resident rows
//!
//! [`Csr::spmm_acc`] (`out += A·x`) and [`Csr::spmm_acc_at`] (the same
//! over a chosen subset of output rows) work on row-major slices. On the
//! fixed widths 16, 32 and 64 each output row lives in a local `[f32; N]`
//! while the row's stored entries stream past it, and is stored once — as
//! `matrix::acc`'s rows do. Every width sums each output element serially
//! over the row's entries in column order, so the result is bit-identical
//! to one `axpy` per entry, at any width.
//! The rows are registers on baseline SSE2; under
//! [`crate::isa::dispatch`] (the NGCF step, where both spmm forms are
//! `#[inline(always)]`) they are 256-bit AVX2 registers, with the same
//! serial sums and so the same bits.

use crate::kernels;
use crate::matrix::{axpy_lanes, Matrix};

/// Compressed sparse row matrix with `f32` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// Row pointer array, `rows + 1` entries.
    indptr: Vec<usize>,
    /// Column index per stored value.
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Duplicate coordinates are summed. Triplets may arrive in any order.
    ///
    /// # Panics
    /// If a coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!((r as usize) < rows, "row {r} out of bounds ({rows} rows)");
            assert!((c as usize) < cols, "col {c} out of bounds ({cols} cols)");
        }
        // counting sort by row, keeping each row's triplets in input order
        let mut indptr = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            indptr[r as usize + 1] += 1;
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        let mut cursor = indptr[..rows].to_vec();
        let mut entries = vec![(0u32, 0.0f32); triplets.len()];
        for &(r, c, v) in triplets {
            entries[cursor[r as usize]] = (c, v);
            cursor[r as usize] += 1;
        }

        // within each row, sort by column and merge duplicates; `indptr`
        // is rewritten to the merged counts as the rows go by
        let mut indices: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(triplets.len());
        let mut start = 0;
        for r in 0..rows {
            let row = &mut entries[start..indptr[r + 1]];
            start = indptr[r + 1];
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let (c, mut v) = row[i];
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                indices.push(c);
                values.push(v);
                i = j;
            }
            indptr[r + 1] = indices.len();
        }
        Self { rows, cols, indptr, indices, values }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates `(row, col, value)` over stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            { self.indptr[r]..self.indptr[r + 1] }
                .map(move |k| (r as u32, self.indices[k], self.values[k]))
        })
    }

    /// Sparse × dense product `self × rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        self.matmul_acc(rhs, &mut out);
        out
    }

    /// Accumulating sparse × dense product `out += self × rhs`: the
    /// shape-checked [`Csr::spmm_acc`].
    pub fn matmul_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "spmm: {}x{} × {}x{} shape mismatch",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols()), "spmm: out shape mismatch");
        self.spmm_acc(rhs.as_slice(), rhs.cols(), out.as_mut_slice());
    }

    /// `out += self·x` over row-major slices: `x` is `cols × width`,
    /// `out` is `rows × width` (see the module docs for the summation
    /// order).
    #[inline(always)]
    pub fn spmm_acc(&self, x: &[f32], width: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.rows * width, "spmm: output is not {}x{width}", self.rows);
        self.spmm_over(0..self.rows, x, width, out);
    }

    /// `out[k] += self[rows[k], :]·x` — [`Csr::spmm_acc`] restricted to
    /// the output rows `rows`, packed: `out` is `rows.len() × width`.
    #[inline(always)]
    pub fn spmm_acc_at(&self, rows: &[u32], x: &[f32], width: usize, out: &mut [f32]) {
        assert_eq!(out.len(), rows.len() * width, "spmm: output is not {}x{width}", rows.len());
        self.spmm_over(rows.iter().map(|&r| r as usize), x, width, out);
    }

    /// The one spmm loop behind both forms: output row `k` takes matrix
    /// row `rows[k]`.
    #[inline(always)]
    fn spmm_over(
        &self,
        rows: impl Iterator<Item = usize>,
        x: &[f32],
        width: usize,
        out: &mut [f32],
    ) {
        assert_eq!(
            x.len(),
            self.cols * width,
            "spmm: right-hand side is not {}x{width}",
            self.cols
        );
        match width {
            0 => {}
            16 => self.spmm_rows::<16>(rows, x, out),
            32 => self.spmm_rows::<32>(rows, x, out),
            64 => self.spmm_rows::<64>(rows, x, out),
            _ => {
                for (r, out_row) in rows.zip(out.chunks_exact_mut(width)) {
                    for k in self.indptr[r]..self.indptr[r + 1] {
                        let c = self.indices[k] as usize;
                        kernels::axpy(self.values[k], &x[c * width..(c + 1) * width], out_row);
                    }
                }
            }
        }
    }

    /// [`Csr::spmm_over`] at width `N`: the output row lives in a local
    /// across the row's entries and is stored once.
    #[inline(always)]
    fn spmm_rows<const N: usize>(
        &self,
        rows: impl Iterator<Item = usize>,
        x: &[f32],
        out: &mut [f32],
    ) {
        for (r, out_row) in rows.zip(out.chunks_exact_mut(N)) {
            let mut acc: [f32; N] = (&*out_row).try_into().expect("a row of the kernel's width");
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[k] as usize;
                axpy_lanes(self.values[k], &x[c * N..(c + 1) * N], &mut acc);
            }
            out_row.copy_from_slice(&acc);
        }
    }

    /// Materializes as a dense matrix (tests and tiny graphs only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            let cur = m.get(r as usize, c as usize);
            m.set(r as usize, c as usize, cur + v);
        }
        m
    }
}

/// The symmetric propagation operator of a GCN: a square [`Csr`] that is
/// its own transpose, so `Ã·G` is also the backward pass of `Ã·E`.
/// Symmetry is the caller's contract (the normalized bipartite adjacency
/// has it by construction); only squareness is checked.
#[derive(Clone, Debug)]
pub struct PropagationMatrix {
    csr: Csr,
}

impl PropagationMatrix {
    pub fn new_symmetric(m: Csr) -> Self {
        assert_eq!(m.rows(), m.cols(), "symmetric propagation matrix must be square");
        Self { csr: m }
    }

    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Node count (rows = cols).
    pub fn nodes(&self) -> usize {
        self.csr.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csr::from_triplets(3, 3, &[(2, 1, 4.0), (0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0)])
    }

    #[test]
    fn triplets_sorted_and_indexed() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]);
    }

    #[test]
    fn duplicate_triplets_accumulate() {
        let m = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.iter().next(), Some((0, 1, 3.5)));
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let x = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let sparse = m.matmul(&x);
        let dense = m.to_dense().matmul(&x);
        assert_eq!(sparse.as_slice(), dense.as_slice());
    }

    #[test]
    fn matmul_acc_adds_on_top() {
        let m = sample();
        let x = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let mut out = m.matmul(&x);
        m.matmul_acc(&x, &mut out);
        let mut doubled = m.matmul(&x);
        doubled.add_assign(&m.matmul(&x));
        assert_eq!(out.as_slice(), doubled.as_slice());
    }

    /// A random square adjacency over `n` nodes and `n × width` rows,
    /// salted with zeros and `-0.0`.
    fn random_case(seed: u64, n: usize, width: usize) -> (Csr, Vec<f32>) {
        use rand::Rng;
        let mut rng = crate::test_rng(seed);
        let triplets: Vec<(u32, u32, f32)> = (0..3 * n)
            .map(|_| {
                let (r, c) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                (r, c, rng.gen_range(-1.0f32..1.0))
            })
            .collect();
        let x = (0..n * width)
            .map(|k| match k % 11 {
                0 => 0.0,
                5 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        (Csr::from_triplets(n, n, &triplets), x)
    }

    #[test]
    fn fixed_width_rows_equal_one_axpy_per_entry_bit_for_bit() {
        for width in [1, 7, 16, 31, 32, 33, 64] {
            let (m, x) = random_case(width as u64, 13, width);
            let mut expect: Vec<f32> = (0..13 * width).map(|k| 0.25 * k as f32).collect();
            let mut got = expect.clone();
            for (r, c, v) in m.iter() {
                let (r, c) = (r as usize, c as usize);
                for j in 0..width {
                    expect[r * width + j] += v * x[c * width + j];
                }
            }
            m.spmm_acc(&x, width, &mut got);
            let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expect), "width {width}");
        }
    }

    #[test]
    fn spmm_at_a_row_subset_equals_those_rows_of_the_full_product() {
        for width in [5, 32] {
            let (m, x) = random_case(40 + width as u64, 17, width);
            let mut full = vec![0.0f32; 17 * width];
            m.spmm_acc(&x, width, &mut full);
            let rows = [0u32, 3, 4, 16];
            let mut packed = vec![0.0f32; rows.len() * width];
            m.spmm_acc_at(&rows, &x, width, &mut packed);
            for (k, &r) in rows.iter().enumerate() {
                let r = r as usize;
                assert_eq!(&packed[k * width..(k + 1) * width], &full[r * width..(r + 1) * width]);
            }
        }
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = Csr::from_triplets(3, 3, &[]);
        assert_eq!(m.nnz(), 0);
        let x = Matrix::full(3, 2, 1.0);
        assert_eq!(m.matmul(&x).as_slice(), &[0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds() {
        let _ = Csr::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }
}
