//! Client-side data partitions.

use ptf_data::Dataset;

/// One client's immutable private partition: the user's positive items.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientData {
    pub id: u32,
    /// Sorted positive item ids (the user's `D_i`).
    pub positives: Vec<u32>,
}

impl ClientData {
    /// True if the client has anything to train on.
    pub fn is_trainable(&self) -> bool {
        !self.positives.is_empty()
    }

    /// The item-embedding scope this partition justifies: exactly the
    /// client's positives. Each round prepares its sampled negatives and
    /// server-dispersed items on top, so a client model built from this
    /// scope holds only rows it has actually used. (`ClientData`'s fields
    /// are public: a model built from a hand-made partition checks the
    /// ids are sorted, unique and in range.)
    pub fn item_scope(&self, num_items: usize) -> ptf_tensor::ScopeView<'_> {
        ptf_tensor::ScopeView::Rows { num_items, ids: &self.positives }
    }
}

/// Splits a training dataset into per-user client partitions. Every user
/// gets a client (possibly empty — such clients are skipped by the
/// participation sampler).
pub fn partition_clients(train: &Dataset) -> Vec<ClientData> {
    (0..train.num_users() as u32)
        .map(|u| ClientData { id: u, positives: train.user_items(u).to_vec() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_follow_users() {
        let d = Dataset::from_user_items("d", 6, vec![vec![0, 3], vec![], vec![5]]);
        let clients = partition_clients(&d);
        assert_eq!(clients.len(), 3);
        assert_eq!(clients[0].positives, vec![0, 3]);
        assert!(!clients[1].is_trainable());
        assert_eq!(clients[2].id, 2);
        assert!(clients[2].is_trainable());
    }
}
