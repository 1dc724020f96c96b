//! Bipartite interaction-graph construction for the GCN models.
//!
//! Users and items become one node space (`user u → node u`, `item i →
//! node num_users + i`). Edges carry the interaction weight (1 for hard
//! interactions; the PTF-FedRec *server* uses soft-label-thresholded
//! uploads, see `ptf-core`). The propagation operator is the standard
//! symmetrically normalized adjacency `D^{-1/2} A D^{-1/2}` used by both
//! NGCF and LightGCN; weighted degrees handle soft edges gracefully.

use ptf_tensor::sparse::{Csr, PropagationMatrix};

/// Builds the symmetrically normalized bipartite propagation matrix from
/// weighted `(user, item, weight)` edges. Zero/negative weights are
/// dropped. Isolated nodes simply receive no messages.
pub fn normalized_bipartite(
    num_users: usize,
    num_items: usize,
    edges: &[(u32, u32, f32)],
) -> PropagationMatrix {
    let n = num_users + num_items;
    // weighted degrees over the symmetrized edge set
    let mut degree = vec![0.0f64; n];
    for &(u, i, w) in edges {
        if w <= 0.0 {
            continue;
        }
        assert!((u as usize) < num_users, "user {u} out of range");
        assert!((i as usize) < num_items, "item {i} out of range");
        degree[u as usize] += w as f64;
        degree[num_users + i as usize] += w as f64;
    }
    let mut triplets = Vec::with_capacity(edges.len() * 2);
    for &(u, i, w) in edges {
        if w <= 0.0 {
            continue;
        }
        let un = u as usize;
        let inn = num_users + i as usize;
        let norm = (degree[un] * degree[inn]).sqrt();
        if norm <= 0.0 {
            continue;
        }
        let v = (w as f64 / norm) as f32;
        triplets.push((un as u32, inn as u32, v));
        triplets.push((inn as u32, un as u32, v));
    }
    PropagationMatrix::new_symmetric(Csr::from_triplets(n, n, &triplets))
}

/// An all-zero propagation matrix (no graph known yet): every GCN layer
/// receives no neighbor messages, so propagation degenerates gracefully.
pub fn empty_propagation(num_users: usize, num_items: usize) -> PropagationMatrix {
    let n = num_users + num_items;
    PropagationMatrix::new_symmetric(Csr::from_triplets(n, n, &[]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_matches_hand_computation() {
        // one user connected to two items with weight 1:
        // deg(u)=2, deg(i)=1 → entries 1/sqrt(2)
        let prop = normalized_bipartite(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        let dense = prop.csr().to_dense();
        let s = 1.0 / 2.0f32.sqrt();
        assert!((dense.get(0, 1) - s).abs() < 1e-6);
        assert!((dense.get(0, 2) - s).abs() < 1e-6);
        assert!((dense.get(1, 0) - s).abs() < 1e-6);
        assert!((dense.get(2, 0) - s).abs() < 1e-6);
        assert_eq!(dense.get(1, 2), 0.0, "no item-item edges");
    }

    #[test]
    fn matrix_is_symmetric() {
        let prop =
            normalized_bipartite(3, 4, &[(0, 0, 1.0), (0, 3, 1.0), (1, 0, 1.0), (2, 2, 1.0)]);
        let d = prop.csr().to_dense();
        for r in 0..7 {
            for c in 0..7 {
                assert!((d.get(r, c) - d.get(c, r)).abs() < 1e-7, "asymmetry at ({r},{c})");
            }
        }
    }

    #[test]
    fn soft_weights_scale_degrees() {
        // user 0 — item 0 with weight 0.5 only:
        // deg both 0.5 → normalized value 0.5/0.5 = 1
        let prop = normalized_bipartite(1, 1, &[(0, 0, 0.5)]);
        let dense = prop.csr().to_dense();
        assert!((dense.get(0, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn non_positive_weights_dropped() {
        let prop = normalized_bipartite(1, 2, &[(0, 0, 0.0), (0, 1, -1.0)]);
        assert_eq!(prop.csr().nnz(), 0);
    }

    #[test]
    fn empty_propagation_is_zero() {
        let prop = empty_propagation(2, 3);
        assert_eq!(prop.csr().rows(), 5);
        assert_eq!(prop.csr().nnz(), 0);
    }

    #[test]
    fn duplicate_edges_accumulate_weight() {
        let a = normalized_bipartite(1, 1, &[(0, 0, 0.5), (0, 0, 0.5)]);
        let b = normalized_bipartite(1, 1, &[(0, 0, 1.0)]);
        assert!((a.csr().to_dense().get(0, 1) - b.csr().to_dense().get(0, 1)).abs() < 1e-6);
    }
}
