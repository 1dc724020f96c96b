//! The one sparse helper the tape needs beyond `ptf_tensor::Csr`: a
//! transposed copy, for the backward pass of a non-symmetric `spmm`
//! (the models' propagation operators are symmetric and never need it).

use ptf_tensor::Csr;

/// The transpose of `m`, entries in the same row-major, column-sorted
/// layout `Csr::from_triplets` produces.
pub fn transpose(m: &Csr) -> Csr {
    let swapped: Vec<(u32, u32, f32)> = m.iter().map(|(r, c, v)| (c, r, v)).collect();
    Csr::from_triplets(m.cols(), m.rows(), &swapped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_matches_dense_transpose() {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let m = Csr::from_triplets(3, 3, &[(2, 1, 4.0), (0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0)]);
        let t = transpose(&m);
        assert_eq!(t.to_dense().as_slice(), m.to_dense().transpose().as_slice());
        // double transpose is identity
        assert_eq!(transpose(&t).to_dense().as_slice(), m.to_dense().as_slice());
    }
}
