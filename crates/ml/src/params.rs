//! Flat vector-space view over a model's parameter tensors.

use fedl_json::{obj, read_field, FromJson, ToJson, Value};
use fedl_linalg::Matrix;

/// An ordered collection of parameter tensors treated as one big vector.
///
/// The DANE update `w ← w + d`, the surrogate gradient algebra, and the
/// server-side averaging all operate on whole parameter vectors; this
/// type gives those operations without flattening tensors into a single
/// buffer (shapes are preserved for the model's forward pass).
///
/// # Examples
///
/// ```
/// use fedl_linalg::Matrix;
/// use fedl_ml::ParamSet;
///
/// let w = ParamSet::new(vec![Matrix::full(2, 2, 1.0)]);
/// let d = ParamSet::new(vec![Matrix::full(2, 2, 0.5)]);
/// let updated = w.added(1.0, &d); // w + d, the DANE server update
/// assert_eq!(updated.tensors()[0].get(0, 0), 1.5);
/// assert_eq!(w.dot(&d), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSet(Vec<Matrix>);

impl ParamSet {
    /// Wraps a list of tensors.
    pub fn new(tensors: Vec<Matrix>) -> Self {
        Self(tensors)
    }

    /// A set of zero tensors with the same shapes as `self`.
    pub fn zeros_like(&self) -> ParamSet {
        ParamSet(self.0.iter().map(|m| Matrix::zeros(m.rows(), m.cols())).collect())
    }

    /// Makes `self` an exact copy of `other`, reusing tensor storage when
    /// capacity allows; steady-state reuse performs no allocation.
    pub fn copy_from(&mut self, other: &ParamSet) {
        self.0.resize_with(other.0.len(), Matrix::default);
        for (dst, src) in self.0.iter_mut().zip(&other.0) {
            dst.copy_from(src);
        }
    }

    /// Reshapes `self` into zero tensors with `like`'s shapes, reusing
    /// tensor storage when capacity allows (the allocation-free twin of
    /// `like.zeros_like()`).
    pub fn set_zeros_like(&mut self, like: &ParamSet) {
        self.0.resize_with(like.0.len(), Matrix::default);
        for (dst, src) in self.0.iter_mut().zip(&like.0) {
            dst.resize_to(src.rows(), src.cols());
        }
    }

    /// Grows or truncates to `n` tensors (new ones empty), leaving the
    /// kept tensors as they are: for a kernel that reshapes and
    /// overwrites every tensor, which [`Self::set_zeros_like`] would
    /// first clear for nothing.
    pub fn set_arity(&mut self, n: usize) {
        self.0.resize_with(n, Matrix::default);
    }

    /// Tensor views.
    pub fn tensors(&self) -> &[Matrix] {
        &self.0
    }

    /// Mutable tensor views.
    pub fn tensors_mut(&mut self) -> &mut [Matrix] {
        &mut self.0
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when there are no tensors.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `self += alpha * other`, tensor by tensor.
    ///
    /// # Panics
    /// Panics if the two sets disagree in tensor count or shapes.
    pub fn axpy(&mut self, alpha: f32, other: &ParamSet) {
        assert_eq!(self.0.len(), other.0.len(), "param set arity mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.axpy(alpha, b);
        }
    }

    /// Scales every parameter by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for m in &mut self.0 {
            m.scale(alpha);
        }
    }

    /// Inner product across all tensors.
    pub fn dot(&self, other: &ParamSet) -> f32 {
        assert_eq!(self.0.len(), other.0.len(), "param set arity mismatch");
        self.0.iter().zip(&other.0).map(|(a, b)| a.dot(b)).sum()
    }

    /// Squared Euclidean norm across all tensors.
    pub fn norm_sq(&self) -> f32 {
        self.0.iter().map(Matrix::norm_sq).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// `self + alpha * other` as a new set.
    pub fn added(&self, alpha: f32, other: &ParamSet) -> ParamSet {
        let mut out = self.clone();
        out.axpy(alpha, other);
        out
    }

    /// Clips every scalar into `[-limit, limit]`; returns clipped count.
    pub fn clip(&mut self, limit: f32) -> usize {
        self.0.iter_mut().map(|m| fedl_linalg::ops::clip_inplace(m, limit)).sum()
    }

    /// `true` if any scalar is NaN/inf.
    pub fn has_non_finite(&self) -> bool {
        self.0.iter().any(Matrix::has_non_finite)
    }

    /// Averages a non-empty list of same-shaped sets (server aggregation).
    pub fn average(sets: &[&ParamSet]) -> ParamSet {
        assert!(!sets.is_empty(), "cannot average zero param sets");
        let mut acc = sets[0].zeros_like();
        for s in sets {
            acc.axpy(1.0, s);
        }
        acc.scale(1.0 / sets.len() as f32);
        acc
    }
}

// By hand: a tensor is its shape and data, and reading one checks they agree.
impl ToJson for ParamSet {
    fn to_json_value(&self) -> Value {
        // Shape + flat data per tensor. f32 scalars survive the JSON
        // round trip exactly: the f32→f64 widening is exact and the
        // writer prints shortest-round-trip digits, so checkpointed
        // model parameters restore bit-for-bit.
        let tensors: Vec<Value> = self
            .0
            .iter()
            .map(|m| {
                obj(vec![
                    ("rows", m.rows().to_json_value()),
                    ("cols", m.cols().to_json_value()),
                    ("data", m.as_slice().to_vec().to_json_value()),
                ])
            })
            .collect();
        obj(vec![("tensors", Value::Arr(tensors))])
    }
}

// By hand: a tensor's data must fit the shape it names.
impl FromJson for ParamSet {
    fn from_json_value(v: &Value) -> Result<Self, fedl_json::Error> {
        let arr = v
            .field("tensors")?
            .as_arr()
            .ok_or_else(|| fedl_json::Error::msg("tensors must be an array"))?;
        let tensors = arr
            .iter()
            .map(|t| {
                let rows: usize = read_field(t, "rows")?;
                let cols: usize = read_field(t, "cols")?;
                let data: Vec<f32> = read_field(t, "data")?;
                if Some(data.len()) != rows.checked_mul(cols) {
                    return Err(fedl_json::Error::msg(format!(
                        "tensor data length {} does not match shape {rows}x{cols}",
                        data.len()
                    )));
                }
                Ok(Matrix::from_vec(rows, cols, data))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParamSet::new(tensors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(vals: &[f32]) -> ParamSet {
        ParamSet::new(vec![
            Matrix::from_vec(1, 2, vals[..2].to_vec()),
            Matrix::from_vec(1, 1, vals[2..3].to_vec()),
        ])
    }

    #[test]
    fn axpy_and_added() {
        let mut a = ps(&[1.0, 2.0, 3.0]);
        let b = ps(&[10.0, 20.0, 30.0]);
        let c = a.added(0.1, &b);
        a.axpy(0.1, &b);
        assert_eq!(a, c);
        assert_eq!(a.tensors()[0].as_slice(), &[2.0, 4.0]);
        assert_eq!(a.tensors()[1].as_slice(), &[6.0]);
    }

    #[test]
    fn dot_and_norm_span_tensors() {
        let a = ps(&[1.0, 2.0, 2.0]);
        assert_eq!(a.norm_sq(), 9.0);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(a.dot(&a), 9.0);
    }

    #[test]
    fn zeros_like_matches_shapes() {
        let a = ps(&[1.0, 2.0, 3.0]);
        let z = a.zeros_like();
        assert_eq!(z.tensors()[0].shape(), (1, 2));
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn copy_from_and_set_zeros_like_reuse_storage() {
        let a = ps(&[1.0, 2.0, 3.0]);
        let mut b = ParamSet::new(vec![Matrix::zeros(4, 4)]);
        b.copy_from(&a);
        assert_eq!(b, a);
        b.set_zeros_like(&a);
        assert_eq!(b, a.zeros_like());
    }

    #[test]
    fn json_round_trip_is_exact() {
        // Deliberately awkward scalars: non-dyadic, tiny, huge, negative.
        let p = ParamSet::new(vec![
            Matrix::from_vec(2, 2, vec![0.1, -3.75e-39, 1.0e38, -0.333_333_34]),
            Matrix::from_vec(1, 3, vec![f32::MIN_POSITIVE, -0.0, 42.5]),
        ]);
        let text = p.to_json_value().to_json();
        let back = ParamSet::from_json_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in p.tensors().iter().zip(back.tensors()) {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} round-tripped to {y}");
            }
        }
    }

    #[test]
    fn json_rejects_shape_mismatch() {
        // The second shape's element count overflows `usize`: a refusal,
        // not an arithmetic panic.
        for shape in [r#""rows":2,"cols":2"#, r#""rows":4611686018427387904,"cols":4"#] {
            let text = format!(r#"{{"tensors":[{{{shape},"data":[1.0,2.0,3.0]}}]}}"#);
            assert!(ParamSet::from_json_value(&Value::parse(&text).unwrap()).is_err(), "{shape}");
        }
    }

    #[test]
    fn average_of_sets() {
        let a = ps(&[1.0, 2.0, 3.0]);
        let b = ps(&[3.0, 6.0, 9.0]);
        let avg = ParamSet::average(&[&a, &b]);
        assert_eq!(avg, ps(&[2.0, 4.0, 6.0]));
    }

    #[test]
    #[should_panic(expected = "cannot average zero")]
    fn average_rejects_empty() {
        let _ = ParamSet::average(&[]);
    }

    #[test]
    fn clip_and_non_finite() {
        let mut a = ps(&[5.0, -7.0, 0.5]);
        assert_eq!(a.clip(1.0), 2);
        assert!(!a.has_non_finite());
        a.tensors_mut()[0].set(0, 0, f32::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn axpy_rejects_arity_mismatch() {
        let mut a = ps(&[1.0, 2.0, 3.0]);
        let b = ParamSet::new(vec![Matrix::zeros(1, 2)]);
        a.axpy(1.0, &b);
    }
}
