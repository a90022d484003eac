//! The contiguous, immutable, reference-counted tensor type.
//!
//! Buffers are shared via `Arc`, so `clone` is O(1) and reshapes are free.
//! All mutation happens through kernels that produce new tensors; this keeps
//! the autograd tape simple and makes cross-thread sharing (collectives)
//! trivially safe.
//!
//! # Storage dtypes
//!
//! A buffer is `Storage`-tagged: `F32` (the compute type) or `Bf16`
//! (half-width storage, see [`crate::dtype`]). The f32 fast paths are
//! untouched — [`Tensor::data`] still hands out `&[f32]` and panics on a
//! bf16 tensor, so nothing silently decodes in a hot loop. Code that wants
//! to *compute* with a bf16 tensor either goes through a dtype-aware kernel
//! (the GEMM packers convert-on-pack) or decodes explicitly with
//! [`Tensor::to_dtype`]. Element accessors ([`Tensor::at`], [`Tensor::item`],
//! [`Tensor::to_vec`]) decode transparently — they are cold-path helpers.

use std::fmt;
use std::sync::Arc;

use crate::device::{current_tracker, MemCounter};
use crate::dtype::{bf16_to_f32, DType};
use crate::rng::Rng;
use crate::shape::Shape;

/// Dtype-tagged backing store. Variants hold plain `Vec`s so the common
/// f32 case stays a direct slice borrow.
pub(crate) enum Storage {
    F32(Vec<f32>),
    Bf16(Vec<u16>),
}

/// Run `$body` with `$v` bound to whichever `Vec` the storage holds —
/// for code that only needs length/capacity-style facts and works for
/// any element type (modeled on the `block_dispatch!` enum pattern).
macro_rules! storage_dispatch {
    ($s:expr, $v:ident => $body:expr) => {
        match $s {
            Storage::F32($v) => $body,
            Storage::Bf16($v) => $body,
        }
    };
}

impl Storage {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        storage_dispatch!(self, v => v.len())
    }

    #[inline]
    pub(crate) fn dtype(&self) -> DType {
        match self {
            Storage::F32(_) => DType::F32,
            Storage::Bf16(_) => DType::Bf16,
        }
    }

    #[inline]
    pub(crate) fn size_bytes(&self) -> usize {
        self.len() * self.dtype().size_bytes()
    }
}

/// Reference-counted buffer that charges the allocating thread's
/// [`MemCounter`] and releases it on drop.
pub(crate) struct Buf {
    pub(crate) storage: Storage,
    tracker: Option<Arc<MemCounter>>,
}

impl Buf {
    fn new(storage: Storage) -> Arc<Self> {
        let tracker = current_tracker();
        if let Some(t) = &tracker {
            t.add(storage.size_bytes());
        }
        Arc::new(Buf { storage, tracker })
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        if let Some(t) = &self.tracker {
            t.sub(self.storage.size_bytes());
        }
    }
}

/// N-dimensional row-major tensor (f32 or bf16 storage; f32 semantics).
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
            buf: Buf::new(Storage::F32(data)),
            shape,
        }
    }

    /// Build a bf16-stored tensor from raw bf16 bit patterns.
    pub fn from_bf16(data: Vec<u16>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor {
            buf: Buf::new(Storage::Bf16(data)),
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

    // ----- dtype ----------------------------------------------------------

    /// Storage element type of the backing buffer.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.buf.storage.dtype()
    }

    /// Convert storage dtype (no-op clone if already there). `F32 → Bf16`
    /// rounds to nearest even via the SIMD convert sweep; `Bf16 → F32` is
    /// exact.
    pub fn to_dtype(&self, dtype: DType) -> Tensor {
        if self.dtype() == dtype {
            return self.clone();
        }
        match (&self.buf.storage, dtype) {
            (Storage::F32(v), DType::Bf16) => {
                let mut out = vec![0u16; v.len()];
                crate::simd::f32_to_bf16_sweep(v, &mut out);
                Tensor::from_bf16(out, self.shape.clone())
            }
            (Storage::Bf16(v), DType::F32) => {
                let mut out = vec![0.0f32; v.len()];
                crate::simd::bf16_to_f32_sweep(v, &mut out);
                Tensor::from_vec(out, self.shape.clone())
            }
            _ => unreachable!("same-dtype handled above"),
        }
    }

    /// Raw bf16 bit patterns of a bf16-stored tensor.
    ///
    /// Panics on f32 storage — mirrored by [`Tensor::data`] panicking on
    /// bf16, so every call site states which tier it reads.
    #[inline]
    pub fn bf16_data(&self) -> &[u16] {
        match &self.buf.storage {
            Storage::Bf16(v) => v,
            Storage::F32(_) => panic!("bf16_data() on f32-stored tensor"),
        }
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

    /// Borrow the f32 buffer. Panics on bf16 storage: kernels that want
    /// bf16 operands must opt in (convert-on-pack or [`Tensor::to_dtype`])
    /// rather than decode silently.
    #[inline]
    pub fn data(&self) -> &[f32] {
        match &self.buf.storage {
            Storage::F32(v) => v,
            Storage::Bf16(_) => panic!(
                "data() on bf16-stored tensor; use to_dtype(DType::F32), bf16_data(), \
                 or a dtype-aware kernel"
            ),
        }
    }

    /// The single element of a scalar (or 1-element) tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {}", self.shape);
        self.at(0)
    }

    /// Element at a flat row-major offset (decodes bf16 transparently).
    #[inline]
    pub fn at(&self, flat: usize) -> f32 {
        match &self.buf.storage {
            Storage::F32(v) => v[flat],
            Storage::Bf16(v) => bf16_to_f32(v[flat]),
        }
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

    /// Copy out an owned f32 Vec (for interop / assertions; decodes bf16).
    pub fn to_vec(&self) -> Vec<f32> {
        match &self.buf.storage {
            Storage::F32(v) => v.clone(),
            Storage::Bf16(v) => v.iter().map(|&b| bf16_to_f32(b)).collect(),
        }
    }

    /// Take the underlying buffer for in-place mutation.
    ///
    /// When this tensor is the f32 buffer's sole owner the Vec is moved out
    /// without copying — the escape hatch the fused in-place kernels
    /// (optimizer updates, gradient clipping) use to avoid allocating a
    /// fresh buffer per op. Shared buffers fall back to a copy, and bf16
    /// storage decodes to a fresh f32 Vec, so this is always safe to call.
    pub fn into_data(self) -> Vec<f32> {
        match Arc::try_unwrap(self.buf) {
            Ok(mut buf) => match &mut buf.storage {
                Storage::F32(data) => {
                    // The memory charge is released here; re-wrapping the Vec
                    // via `from_vec` charges it again, keeping accounting exact.
                    if let Some(t) = &buf.tracker {
                        t.sub(data.len() * std::mem::size_of::<f32>());
                        buf.tracker = None;
                    }
                    std::mem::take(data)
                }
                Storage::Bf16(data) => data.iter().map(|&b| bf16_to_f32(b)).collect(),
            },
            Err(shared) => match &shared.storage {
                Storage::F32(v) => v.clone(),
                Storage::Bf16(v) => v.iter().map(|&b| bf16_to_f32(b)).collect(),
            },
        }
    }

    // ----- simple numeric helpers (non-autograd) ----------------------------

    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data: Vec<f32> = self.to_vec();
        crate::par::map_in_place(&mut data, f);
        Tensor::from_vec(data, self.shape.clone())
    }

    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.dims(), other.dims(), "zip shape mismatch");
        let data = (0..self.numel())
            .map(|i| f(self.at(i), other.at(i)))
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

    /// Max |a - b| between two same-shaped tensors (decodes bf16).
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.dims(), other.dims());
        (0..self.numel()).fold(0.0f32, |m, i| m.max((self.at(i) - other.at(i)).abs()))
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

    /// Bytes resident in the backing buffer (dtype-aware: a bf16 tensor
    /// reports half the f32 footprint — this is what [`MemCounter`]
    /// charges and what the collectives layer logs as payload size).
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype().size_bytes()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}[{}] ", self.shape, self.dtype().name())?;
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
    use crate::dtype::bf16_round_trip;

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

    #[test]
    fn bf16_tensor_round_trips_and_halves_bytes() {
        let mut rng = Rng::new(5);
        let t = Tensor::randn([33, 7], 1.0, &mut rng);
        let b = t.to_dtype(DType::Bf16);
        assert_eq!(b.dtype(), DType::Bf16);
        assert_eq!(b.size_bytes(), t.size_bytes() / 2);
        let back = b.to_dtype(DType::F32);
        assert_eq!(back.dtype(), DType::F32);
        for i in 0..t.numel() {
            assert_eq!(back.at(i), bf16_round_trip(t.at(i)), "elem {i}");
            assert_eq!(b.at(i), back.at(i), "decoding accessor {i}");
        }
        // Values already representable survive exactly.
        let exact = Tensor::arange(100);
        assert_eq!(exact.to_dtype(DType::Bf16).to_vec(), exact.to_vec());
    }

    #[test]
    #[should_panic(expected = "data() on bf16-stored tensor")]
    fn f32_slice_of_bf16_tensor_panics() {
        let t = Tensor::arange(4).to_dtype(DType::Bf16);
        let _ = t.data();
    }

    #[test]
    fn bf16_tensor_charges_half_width_memory() {
        let counter = MemCounter::new();
        crate::device::with_tracker(counter.clone(), || {
            let t = Tensor::zeros([256]);
            assert_eq!(counter.current(), 1024);
            let b = t.to_dtype(DType::Bf16);
            assert_eq!(counter.current(), 1024 + 512);
            drop(t);
            assert_eq!(counter.current(), 512);
            drop(b);
            assert_eq!(counter.current(), 0);
        });
    }
}
