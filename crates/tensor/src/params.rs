//! Trainable parameter storage.
//!
//! A model owns a [`Params`] store; each training batch reads it in the
//! forward and backward pass, fills a [`crate::Grads`] aligned with it, and
//! the optimizer then applies that mutably. Identifiers are plain
//! indices so models can keep them in their structs.

use crate::matrix::Matrix;

/// Handle to one parameter matrix inside a [`Params`] store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// An ordered collection of named parameter matrices.
#[derive(Clone, Debug, Default)]
pub struct Params {
    mats: Vec<Matrix>,
    names: Vec<String>,
}

impl Params {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn push(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.mats.push(value);
        self.names.push(name.into());
        ParamId(self.mats.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.mats.len()
    }

    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.mats[id.0]
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates `(id, name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.mats.iter().zip(&self.names).enumerate().map(|(i, (m, n))| (ParamId(i), n.as_str(), m))
    }

    /// Total number of scalar parameters, i.e. the "model size" used in
    /// communication-cost discussions.
    pub fn num_scalars(&self) -> usize {
        self.mats.iter().map(Matrix::len).sum()
    }

    /// True if every parameter is finite (cheap divergence check in tests).
    pub fn all_finite(&self) -> bool {
        self.mats.iter().all(Matrix::all_finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut p = Params::new();
        let a = p.push("emb", Matrix::zeros(3, 2));
        let b = p.push("w", Matrix::full(2, 2, 1.0));
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(a).shape(), (3, 2));
        assert_eq!(p.name(b), "w");
        assert_eq!(p.num_scalars(), 10);
        p.get_mut(a).set(0, 0, 5.0);
        assert_eq!(p.get(a).get(0, 0), 5.0);
    }

    #[test]
    fn iter_preserves_order() {
        let mut p = Params::new();
        p.push("a", Matrix::zeros(1, 1));
        p.push("b", Matrix::zeros(1, 2));
        let names: Vec<_> = p.iter().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}

/// Wire form of a parameter store. Names travel with the values so a
/// checkpoint loaded into a differently-shaped model fails loudly.
#[derive(serde::Serialize, serde::Deserialize)]
struct ParamsWire {
    names: Vec<String>,
    mats: Vec<Matrix>,
}

impl serde::Serialize for Params {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        ParamsWire { names: self.names.clone(), mats: self.mats.clone() }.serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for Params {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = ParamsWire::deserialize(deserializer)?;
        if wire.names.len() != wire.mats.len() {
            return Err(serde::de::Error::custom("names/values length mismatch"));
        }
        Ok(Params { mats: wire.mats, names: wire.names })
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    fn store() -> Params {
        let mut p = Params::new();
        p.push("emb", Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        p.push("w", Matrix::from_vec(1, 2, vec![5., 6.]));
        p
    }

    #[test]
    fn json_roundtrip_preserves_names_and_values() {
        let p = store();
        let json = serde_json::to_string(&p).unwrap();
        let back: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.name(ParamId(0)), "emb");
        assert_eq!(back.get(ParamId(1)).as_slice(), &[5., 6.]);
    }
}
