//! Thread-local buffer pool: the f32 storage behind tensors and kernel
//! scratch.
//!
//! A training step builds and drops the same activations, gradients and
//! kernel temporaries every step. Left to the system allocator, each large
//! buffer is unmapped (or trimmed) when it is freed and page-faulted back in
//! on the next step. Each thread instead keeps the buffers it frees on a
//! free list, and the next request of a similar size reuses one. After the
//! first step, a training step asks the allocator for no large block, which
//! the `alloc_steady_state` and `scratch_steady_state` integration tests
//! assert under a counting allocator.
//!
//! Two kinds of borrower draw from the one free list:
//!
//! - **Tensor storage.** [`zeroed`], [`filled`], [`copied`] and
//!   [`with_capacity`] stand in for `vec![0.0; n]`, `vec![v; n]`,
//!   `to_vec()` and `Vec::with_capacity(n)`. The `Vec` they return has
//!   exactly the contents its stand-in would have, so every output is
//!   bitwise what it was with fresh allocations. A tensor's buffer comes
//!   back here when the tensor's last reference drops, on whatever thread
//!   drops it. Buffers under [`MIN_RECYCLED`] floats are left to malloc.
//! - **Kernel scratch.** [`with_scratch`] / [`with_scratch_zeroed`] lend a
//!   buffer for a closure and return it on exit. Nested borrows (a GEMM
//!   packing two panels, attention holding a score tile across a packed
//!   product) get distinct buffers.
//!
//! # Fit and bounds
//!
//! The list is kept sorted by capacity. A request takes the smallest free
//! buffer that holds it. For tensor storage that buffer must be at most
//! twice the request, so a small tensor never pins a large block another
//! request needs; a scratch borrow, which hands its buffer back when the
//! closure returns, takes any buffer large enough. (A rank thread that
//! runs a task of its peer's batch borrows scratch of a size it has not
//! seen, and the fallback to a larger buffer keeps that from allocating.)
//! A thread keeps at most [`MAX_RETAINED_BYTES`] of free buffers: a buffer
//! that would push it past that first frees the buffers returned longest
//! ago, which no request has wanted since. The bounds are constants: the
//! pool has no setting, and it never changes the allocator's own
//! process-wide behaviour.
//!
//! If a scratch closure panics its buffer is dropped with the unwind (never
//! returned to the list), so a poisoned buffer can't resurface.
//!
//! # Memory accounting
//!
//! The thread's [`crate::device::MemCounter`] (when one is installed)
//! charges live tensors for their length, wherever their buffer came from,
//! and borrowed scratch for the borrow's duration. Free buffers sitting in
//! the pool are charged to no one, so the pool leaves every peak it reports
//! unchanged; [`retained_bytes`] reads what the pool holds. Scratch taken
//! on untracked worker threads (e.g. rayon's pool) is not charged.

use std::cell::RefCell;

/// Tensor buffers smaller than this many floats (16 KiB) are freed, not
/// pooled: malloc serves blocks this small from its bins without unmapping
/// them. Scratch buffers are pooled at every size.
pub const MIN_RECYCLED: usize = 4 * 1024;

/// Bytes of free buffers one thread keeps (64 MiB). Three times the peak a
/// rank of the benchmark's D-CHAG MAE charges, and above the flat MAE's
/// ≈40 MB.
pub const MAX_RETAINED_BYTES: usize = 64 << 20;

/// Free buffers in ascending capacity order, each with the tick at which
/// it was returned, and their total bytes.
struct FreeList {
    bufs: Vec<(Vec<f32>, u64)>,
    bytes: usize,
    clock: u64,
}

thread_local! {
    static FREE: RefCell<FreeList> = const {
        RefCell::new(FreeList { bufs: Vec::new(), bytes: 0, clock: 0 })
    };
}

impl FreeList {
    /// The smallest free buffer with room for `len` floats, if it holds at
    /// most `max_cap`.
    fn take(&mut self, len: usize, max_cap: usize) -> Option<Vec<f32>> {
        let i = self.bufs.partition_point(|(b, _)| b.capacity() < len);
        let cap = self.bufs.get(i)?.0.capacity();
        if cap > max_cap {
            return None;
        }
        self.bytes -= cap * 4;
        Some(self.bufs.remove(i).0)
    }

    /// Keep `buf`, first freeing the buffers returned longest ago (none
    /// has been asked for since) until it fits under the byte cap.
    fn put(&mut self, buf: Vec<f32>) {
        let bytes = buf.capacity() * 4;
        if bytes == 0 || bytes > MAX_RETAINED_BYTES {
            return;
        }
        while self.bytes + bytes > MAX_RETAINED_BYTES {
            let oldest = (0..self.bufs.len())
                .min_by_key(|&i| self.bufs[i].1)
                .expect("a list over its cap holds a buffer");
            self.bytes -= self.bufs.remove(oldest).0.capacity() * 4;
        }
        self.clock += 1;
        let i = self
            .bufs
            .partition_point(|(b, _)| b.capacity() < buf.capacity());
        self.bufs.insert(i, (buf, self.clock));
        self.bytes += bytes;
    }
}

/// A pooled buffer with capacity for at least `len` floats and at most
/// `max_cap`, with unspecified length and contents, or `None` when nothing
/// in the pool fits. A thread whose pool is already torn down (a tensor
/// dropped by another thread-local destructor) gets `None`.
fn pop(len: usize, max_cap: usize) -> Option<Vec<f32>> {
    FREE.try_with(|f| f.borrow_mut().take(len, max_cap))
        .ok()
        .flatten()
}

/// Return `buf` to this thread's pool.
fn push(buf: Vec<f32>) {
    let _ = FREE.try_with(|f| f.borrow_mut().put(buf));
}

/// [`pop`] for tensor storage, which is pooled from [`MIN_RECYCLED`] up
/// and takes no buffer over twice its length.
fn pop_storage(len: usize) -> Option<Vec<f32>> {
    if len < MIN_RECYCLED {
        return None;
    }
    pop(len, 2 * len)
}

/// An empty buffer with room for `len` floats: `Vec::with_capacity(len)`
/// served from the pool, for kernels that `extend` their output.
pub fn with_capacity(len: usize) -> Vec<f32> {
    match pop_storage(len) {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => Vec::with_capacity(len),
    }
}

/// `vec![value; len]` served from the pool.
pub fn filled(len: usize, value: f32) -> Vec<f32> {
    match pop_storage(len) {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, value);
            buf
        }
        None => vec![value; len],
    }
}

/// `vec![0.0; len]` served from the pool: a reused buffer is zero-filled,
/// so callers that accumulate into it see exactly what a fresh one holds.
pub fn zeroed(len: usize) -> Vec<f32> {
    filled(len, 0.0)
}

/// `src.to_vec()` served from the pool.
pub fn copied(src: &[f32]) -> Vec<f32> {
    let mut buf = with_capacity(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Hand a buffer back to this thread's pool: what a dropped tensor does
/// with its storage, and what a kernel does with a temporary it took from
/// [`zeroed`] and did not make a tensor of. Buffers under [`MIN_RECYCLED`]
/// floats are freed.
pub fn recycle(buf: Vec<f32>) {
    if buf.capacity() >= MIN_RECYCLED {
        push(buf);
    }
}

/// Bytes of free buffers this thread's pool holds.
pub fn retained_bytes() -> usize {
    FREE.try_with(|f| f.borrow().bytes).unwrap_or(0)
}

/// A buffer at least `len` long for a scratch borrow, charged for `len`.
fn take(len: usize) -> Vec<f32> {
    if let Some(c) = crate::device::current_tracker() {
        c.add(len * 4);
    }
    match pop(len, usize::MAX) {
        Some(mut buf) => {
            // A pooled buffer keeps its length, so a borrow no longer than
            // it neither allocates nor fills.
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            buf
        }
        None => vec![0.0f32; len],
    }
}

/// Return a buffer `take(len)` handed out, releasing the `len` it charged.
fn put(buf: Vec<f32>, len: usize) {
    if let Some(c) = crate::device::current_tracker() {
        c.sub(len * 4);
    }
    push(buf);
}

/// Borrow a pooled `len`-element buffer for the duration of `f`.
///
/// Contents are **unspecified** (recycled from earlier borrows) — the
/// closure must write every element it later reads. Use
/// [`with_scratch_zeroed`] for accumulate-into semantics.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = take(len);
    let r = f(&mut buf[..len]);
    put(buf, len);
    r
}

/// [`with_scratch`] with the buffer cleared to `0.0` first (the split-K
/// partial / gradient-accumulator contract). The fill is a linear sweep of
/// warm cache lines — orders of magnitude cheaper than a fresh
/// allocation's page faults.
pub fn with_scratch_zeroed<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = take(len);
    buf[..len].fill(0.0);
    let r = f(&mut buf[..len]);
    put(buf, len);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` on a fresh thread, so its pool starts empty and no other
    /// test's buffers are in it.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn nested_borrows_get_distinct_buffers() {
        with_scratch(64, |a| {
            a.fill(1.0);
            with_scratch(64, |b| {
                b.fill(2.0);
                assert!(a.iter().all(|&x| x == 1.0), "outer untouched by inner");
                assert!(b.iter().all(|&x| x == 2.0));
            });
            assert!(a.iter().all(|&x| x == 1.0));
        });
    }

    #[test]
    fn zeroed_variant_clears_recycled_contents() {
        with_scratch(32, |a| a.fill(7.0)); // dirty the pool
        with_scratch_zeroed(32, |a| assert!(a.iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn resize_across_lengths_is_sound() {
        with_scratch(8, |a| a.fill(3.0));
        with_scratch(128, |a| {
            assert_eq!(a.len(), 128);
            a.fill(1.0);
        });
        with_scratch(4, |a| assert_eq!(a.len(), 4));
    }

    #[test]
    fn borrowed_scratch_charges_the_tracker() {
        let c = crate::device::MemCounter::new();
        crate::device::with_tracker(c.clone(), || {
            with_scratch(256, |_| {
                assert_eq!(c.current(), 256 * 4);
                with_scratch(64, |_| assert_eq!(c.current(), (256 + 64) * 4));
                assert_eq!(c.current(), 256 * 4, "inner borrow released");
            });
            assert_eq!(c.current(), 0, "all scratch released");
            assert!(c.peak() >= (256 + 64) * 4, "peak saw nested borrows");
        });
    }

    #[test]
    fn panic_drops_buffer_without_poisoning_the_pool() {
        let caught = std::panic::catch_unwind(|| {
            with_scratch(16, |_| panic!("boom"));
        });
        assert!(caught.is_err());
        // The pool still works afterwards.
        with_scratch_zeroed(16, |a| assert!(a.iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn reused_tensor_buffer_comes_back_zeroed() {
        on_fresh_thread(|| {
            let n = MIN_RECYCLED * 2;
            recycle(vec![7.0; n]);
            let ptr = FREE.with(|f| f.borrow().bufs[0].0.as_ptr());
            let buf = zeroed(n - 5);
            assert_eq!(buf.as_ptr(), ptr, "the pooled buffer was reused");
            assert_eq!(buf.len(), n - 5);
            assert!(buf.iter().all(|&x| x == 0.0));
            recycle(buf);
            let buf = filled(n, 2.5);
            assert!(buf.len() == n && buf.iter().all(|&x| x == 2.5));
            recycle(buf);
            let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
            assert_eq!(copied(&src), src);
            assert!(with_capacity(n).is_empty());
        });
    }

    #[test]
    fn take_never_returns_a_shorter_buffer_and_picks_the_best_fit() {
        on_fresh_thread(|| {
            let n = MIN_RECYCLED;
            for len in [n * 4, n, n * 3, n * 2] {
                recycle(Vec::with_capacity(len));
            }
            let caps: Vec<usize> =
                FREE.with(|f| f.borrow().bufs.iter().map(|(b, _)| b.capacity()).collect());
            assert!(caps.windows(2).all(|w| w[0] <= w[1]), "sorted: {caps:?}");
            // Best fit: the smallest capacity that holds the request.
            let b = with_capacity(n * 2 + 1);
            assert!(
                b.capacity() > n * 2 && b.capacity() < n * 4,
                "{}",
                b.capacity()
            );
            // Every request gets at least what it asked for, pooled or not.
            for len in [1, n - 1, n, n + 1, 3 * n, 5 * n] {
                assert!(zeroed(len).len() == len);
                assert!(with_capacity(len).capacity() >= len);
                with_scratch(len, |s| assert_eq!(s.len(), len));
            }
            drop(b);
        });
    }

    #[test]
    fn only_scratch_takes_a_buffer_over_twice_its_request() {
        on_fresh_thread(|| {
            let n = MIN_RECYCLED;
            recycle(Vec::with_capacity(4 * n));
            let held = retained_bytes();
            let t = zeroed(n);
            assert_eq!(retained_bytes(), held, "a tensor left the 4× buffer");
            with_scratch(n, |s| {
                assert_eq!(s.len(), n);
                assert_eq!(retained_bytes(), 0, "scratch borrowed the 4× buffer");
            });
            assert_eq!(retained_bytes(), held, "and handed it back");
            drop(t);
        });
    }

    #[test]
    fn per_thread_cap_holds() {
        on_fresh_thread(|| {
            let block = MAX_RETAINED_BYTES / 4 / 8; // eight blocks fill the cap
            let mut last = std::ptr::null();
            for _ in 0..12 {
                let buf: Vec<f32> = Vec::with_capacity(block);
                last = buf.as_ptr();
                recycle(buf);
                assert!(retained_bytes() <= MAX_RETAINED_BYTES);
            }
            assert_eq!(retained_bytes(), MAX_RETAINED_BYTES);
            // Over the cap, the buffers returned longest ago go first.
            let newest = FREE.with(|f| f.borrow().bufs.iter().any(|(b, _)| b.as_ptr() == last));
            assert!(newest, "the buffer returned last is kept");
            // Small tensor buffers are never pooled.
            recycle(Vec::with_capacity(MIN_RECYCLED - 1));
            assert_eq!(retained_bytes(), MAX_RETAINED_BYTES);
        });
        // Another thread's pool is its own.
        on_fresh_thread(|| assert_eq!(retained_bytes(), 0));
    }
}
