//! The contiguous, immutable, reference-counted tensor type.
//!
//! Buffers are shared via `Arc`, so `clone` is O(1) and reshapes are free.
//! All mutation happens through kernels that produce new tensors; this keeps
//! the autograd tape simple and makes cross-thread sharing (collectives)
//! trivially safe.

use std::fmt;
use std::sync::Arc;

use crate::device::{current_tracker, MemCounter};
use crate::rng::Rng;
use crate::shape::Shape;

/// Reference-counted buffer that charges the allocating thread's
/// [`MemCounter`] and releases it on drop.
pub(crate) struct Buf {
    data: Vec<f32>,
    tracker: Option<Arc<MemCounter>>,
}

impl Buf {
    fn new(data: Vec<f32>) -> Arc<Self> {
        let tracker = current_tracker();
        if let Some(t) = &tracker {
            t.add(std::mem::size_of_val(data.as_slice()));
        }
        Arc::new(Buf { data, tracker })
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        if let Some(t) = &self.tracker {
            t.sub(std::mem::size_of_val(self.data.as_slice()));
        }
    }
}

/// N-dimensional row-major f32 tensor.
#[derive(Clone)]
pub struct Tensor {
    buf: Arc<Buf>,
    shape: Shape,
}

impl Tensor {
    // ----- constructors ---------------------------------------------------

    /// Build from an owned buffer; `data.len()` must equal the shape's numel.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor {
            buf: Buf::new(data),
            shape,
        }
    }

    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor::from_vec(vec![0.0; shape.numel()], shape)
    }

    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor::from_vec(vec![value; shape.numel()], shape)
    }

    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(vec![value], Shape::new(&[]))
    }

    /// I.i.d. normal entries with the given std.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let mut data = vec![0.0; shape.numel()];
        rng.fill_normal(&mut data, std);
        Tensor::from_vec(data, shape)
    }

    /// Uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.uniform_in(lo, hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// `0, 1, 2, ...` as f32, useful in tests.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), [n])
    }

    // ----- accessors ------------------------------------------------------

    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    #[inline]
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Borrow the f32 buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.buf.data
    }

    /// The single element of a scalar (or 1-element) tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {}", self.shape);
        self.at(0)
    }

    /// Element at a flat row-major offset.
    #[inline]
    pub fn at(&self, flat: usize) -> f32 {
        self.buf.data[flat]
    }

    /// Whether two tensors share the same underlying buffer.
    pub fn ptr_eq(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    // ----- cheap shape manipulation ----------------------------------------

    /// Zero-copy reshape (element count must be preserved).
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        Tensor {
            buf: self.buf.clone(),
            shape: self.shape.reshaped(dims),
        }
    }

    /// View as `[rows, last]`.
    pub fn as_2d(&self) -> Tensor {
        self.reshape(&[self.shape.rows(), self.shape.last()])
    }

    /// Copy out an owned f32 Vec (for interop / assertions).
    pub fn to_vec(&self) -> Vec<f32> {
        self.buf.data.clone()
    }

    /// Take the underlying buffer for in-place mutation.
    ///
    /// When this tensor is the f32 buffer's sole owner the Vec is moved out
    /// without copying — the escape hatch the fused in-place kernels
    /// (optimizer updates, gradient clipping) use to avoid allocating a
    /// fresh buffer per op. Shared buffers fall back to a copy, so this is
    /// always safe to call.
    pub fn into_data(self) -> Vec<f32> {
        match Arc::try_unwrap(self.buf) {
            Ok(mut buf) => {
                // The memory charge is released here; re-wrapping the Vec
                // via `from_vec` charges it again, keeping accounting exact.
                if let Some(t) = buf.tracker.take() {
                    t.sub(std::mem::size_of_val(buf.data.as_slice()));
                }
                std::mem::take(&mut buf.data)
            }
            Err(shared) => shared.data.clone(),
        }
    }

    // ----- simple numeric helpers (non-autograd) ----------------------------

    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data: Vec<f32> = self.to_vec();
        crate::par::map_in_place(&mut data, f);
        Tensor::from_vec(data, self.shape.clone())
    }

    /// Elementwise `f(self, other)`.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.dims(), other.dims(), "zip shape mismatch");
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&x, &y)| f(x, y))
            .collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    pub fn sum(&self) -> f32 {
        // Pairwise-ish: chunked accumulation keeps error growth modest.
        self.data()
            .chunks(4096)
            .map(|c| c.iter().sum::<f32>() as f64)
            .sum::<f64>() as f32
    }

    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    pub fn max_abs(&self) -> f32 {
        self.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Max |a - b| between two same-shaped tensors.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.dims(), other.dims());
        self.data()
            .iter()
            .zip(other.data())
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Relative L2 distance `|a-b| / (|a| + eps)` — the standard check for
    /// "same computation up to fp reassociation".
    pub fn rel_l2_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.dims(), other.dims());
        let (mut num, mut den) = (0f64, 0f64);
        for i in 0..self.numel() {
            let (a, b) = (self.at(i), other.at(i));
            num += ((a - b) as f64).powi(2);
            den += (a as f64).powi(2);
        }
        (num.sqrt() / (den.sqrt() + 1e-12)) as f32
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        (0..self.numel()).all(|i| self.at(i).is_finite())
    }

    /// Bytes resident in the backing buffer: what [`MemCounter`] charges
    /// and what the collectives layer logs as payload size.
    pub fn size_bytes(&self) -> usize {
        self.numel() * std::mem::size_of::<f32>()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}[f32] ", self.shape)?;
        let n = self.numel().min(8);
        let head: Vec<f32> = (0..n).map(|i| self.at(i)).collect();
        write!(f, "{head:?}")?;
        if self.numel() > 8 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.at(3), 4.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_len() {
        Tensor::from_vec(vec![1.0; 5], [2, 2]);
    }

    #[test]
    fn reshape_is_zero_copy() {
        let t = Tensor::arange(6);
        let r = t.reshape(&[2, 3]);
        assert!(t.ptr_eq(&r));
        assert_eq!(r.dims(), &[2, 3]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn sum_and_mean() {
        let t = Tensor::arange(5);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.0);
    }

    #[test]
    fn rel_l2_zero_for_identical() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn([16, 16], 1.0, &mut rng);
        assert_eq!(t.rel_l2_diff(&t.clone()), 0.0);
    }

    #[test]
    fn randn_reproducible() {
        let a = Tensor::randn([32], 1.0, &mut Rng::new(9));
        let b = Tensor::randn([32], 1.0, &mut Rng::new(9));
        assert_eq!(a.to_vec(), b.to_vec());
    }
}
