//! Trainable parameter storage.
//!
//! A model owns a [`Params`] store; each training batch reads it in the
//! forward and backward pass, fills a [`crate::Grads`] aligned with it, and
//! the optimizer then applies that mutably. Identifiers are plain
//! indices so models can keep them in their structs.

use crate::matrix::Matrix;
use crate::packed::{Reader, Writer};

/// `(rows, cols)`.
type Shape = (usize, usize);

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

impl Params {
    /// Appends the store as `{"names":[…],"mats":[…]}`, each matrix by
    /// [`Matrix::write_state`]. Names travel with the values so an
    /// envelope read into a differently-shaped model fails loudly.
    pub fn write_state(&self, w: &mut Writer<'_>) {
        w.open();
        w.key("names");
        w.array(&self.names, |w, name| w.str(name));
        w.key("mats");
        w.array(&self.mats, |w, m| m.write_state(w));
        w.close();
    }

    /// Reads a [`Params::write_state`] object into this store, which must
    /// hold the same names in the same order; each matrix is read in
    /// place ([`Matrix::read_state`]) once `fits(id, name, shape read,
    /// live shape)` accepts its shape.
    pub fn read_state(
        &mut self,
        r: &mut Reader<'_>,
        mut fits: impl FnMut(ParamId, &str, Shape, Shape) -> Result<(), String>,
    ) -> Result<(), String> {
        r.open()?;
        r.key("names")?;
        let live = &self.names;
        let mut k = 0;
        let names = r.array(|r| {
            let name = r.str()?;
            match live.get(k) {
                Some(want) if want != name => {
                    return Err(
                        r.error(format_args!("parameter name mismatch: {name:?} vs {want:?}"))
                    )
                }
                _ => k += 1,
            }
            Ok(())
        })?;
        if names != self.len() {
            return Err(
                r.error(format_args!("parameter count mismatch: {names} vs {}", self.len()))
            );
        }
        r.key("mats")?;
        let (mats, names_live) = (&mut self.mats, &self.names);
        let mut k = 0;
        let count = r.array(|r| {
            let Some(m) = mats.get_mut(k) else {
                return Err(r.error(format_args!("more than {names} matrices")));
            };
            let live = m.shape();
            m.read_state(r, |rows, cols| fits(ParamId(k), &names_live[k], (rows, cols), live))?;
            k += 1;
            Ok(())
        })?;
        if count != names {
            return Err(r.error(format_args!("{count} matrices for {names} names")));
        }
        r.close()
    }
}

/// The state codec's tests (the module keeps the name it had when the
/// codec was serde's).
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
        let mut text = Vec::new();
        p.write_state(&mut Writer::new(&mut text));
        let mut back = Params::new();
        back.push("emb", Matrix::default());
        back.push("w", Matrix::default());
        let mut r = Reader::new(&text);
        back.read_state(&mut r, |_, _, _, _| Ok(())).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.name(ParamId(0)), "emb");
        assert_eq!(back.get(ParamId(0)).shape(), (2, 2));
        assert_eq!(back.get(ParamId(1)).as_slice(), &[5., 6.]);

        // another store's names, or another count, are refused
        let mut other = Params::new();
        other.push("emb", Matrix::default());
        other.push("v", Matrix::default());
        let err = other.read_state(&mut Reader::new(&text), |_, _, _, _| Ok(())).unwrap_err();
        assert!(err.contains(r#"parameter name mismatch: "w" vs "v""#), "{err}");
        let mut one = Params::new();
        one.push("emb", Matrix::default());
        let err = one.read_state(&mut Reader::new(&text), |_, _, _, _| Ok(())).unwrap_err();
        assert!(err.contains("parameter count mismatch: 2 vs 1"), "{err}");
    }
}
