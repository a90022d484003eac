//! Byte-accurate memory accounting for simulated devices.
//!
//! Each simulated GPU (one OS thread in the rank launcher) installs a
//! [`MemCounter`] as its thread-local tracker. Every tensor buffer allocated
//! on that thread charges the counter and releases it on drop — even if the
//! drop happens on another thread, because the buffer captures an `Arc` to
//! the counter at allocation time. Kernel scratch borrowed on that thread is
//! charged for the borrow (see [`crate::scratch`]); scratch on the untracked
//! pool workers is not, and neither are the free buffers the thread's
//! buffer pool keeps for reuse. This gives functional runs a per-rank "allocator
//! view" comparable to `torch.cuda.max_memory_allocated`: the per-rank peaks
//! that `perfbench` reports as `peak_mem_mb` and the quickstart example
//! prints.
//!
//! Over a training step the counter rises through the forward pass, as each
//! tape node saves what its adjoint needs, and falls through the backward
//! pass, which drops each adjoint with its saved tensors as soon as it has
//! run. A step's peak therefore sits in the forward pass, and once the
//! backward returns only the parameters, their gradients and the outputs
//! the caller still holds are charged; `dchag_core`'s
//! `no_activation_outlives_the_backward` test pins this for flat and D-CHAG
//! MAE. No test compares these peaks with the analytical `MemoryModel` in
//! `dchag-perf` yet; that model's figures rest on its own calibrated
//! constants.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Running and peak byte counters for one simulated device.
#[derive(Debug, Default)]
pub struct MemCounter {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl MemCounter {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Bytes currently allocated.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark since creation (or the last [`reset_peak`]).
    ///
    /// [`reset_peak`]: MemCounter::reset_peak
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to the current allocation level.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub(crate) fn add(&self, bytes: usize) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // Relaxed max loop: contention is per-rank-thread only.
        let mut peak = self.peak.load(Ordering::Relaxed);
        while now > peak {
            match self
                .peak
                .compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    pub(crate) fn sub(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }
}

thread_local! {
    static TRACKER: RefCell<Option<Arc<MemCounter>>> = const { RefCell::new(None) };
}

/// Install `counter` as this thread's allocation tracker, returning the
/// previous one (if any). Pass `None` to disable tracking.
pub fn set_tracker(counter: Option<Arc<MemCounter>>) -> Option<Arc<MemCounter>> {
    TRACKER.with(|t| std::mem::replace(&mut *t.borrow_mut(), counter))
}

/// The tracker currently installed on this thread.
pub fn current_tracker() -> Option<Arc<MemCounter>> {
    TRACKER.with(|t| t.borrow().clone())
}

/// Run `f` with `counter` installed, restoring the previous tracker after.
pub fn with_tracker<R>(counter: Arc<MemCounter>, f: impl FnOnce() -> R) -> R {
    let prev = set_tracker(Some(counter));
    let out = f();
    set_tracker(prev);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn tracks_alloc_and_drop() {
        let c = MemCounter::new();
        with_tracker(c.clone(), || {
            let t = Tensor::zeros([128]);
            assert_eq!(c.current(), 128 * 4);
            let u = Tensor::zeros([64]);
            assert_eq!(c.current(), 192 * 4);
            drop(t);
            assert_eq!(c.current(), 64 * 4);
            assert_eq!(c.peak(), 192 * 4);
            drop(u);
        });
        assert_eq!(c.current(), 0);
        assert_eq!(c.peak(), 192 * 4);
    }

    #[test]
    fn reset_peak_rebases_to_current() {
        let c = MemCounter::new();
        with_tracker(c.clone(), || {
            let _keep = Tensor::zeros([10]);
            {
                let _big = Tensor::zeros([1000]);
            }
            assert!(c.peak() >= 1010 * 4);
            c.reset_peak();
            assert_eq!(c.peak(), 10 * 4);
        });
    }

    #[test]
    fn cross_thread_drop_releases_on_origin_counter() {
        let c = MemCounter::new();
        let t = with_tracker(c.clone(), || Tensor::zeros([256]));
        assert_eq!(c.current(), 1024);
        std::thread::spawn(move || drop(t)).join().unwrap();
        assert_eq!(c.current(), 0);
    }

    #[test]
    fn untracked_threads_do_not_panic() {
        set_tracker(None);
        let _t = Tensor::zeros([8]);
    }

    #[test]
    fn clone_shares_buffer_no_double_count() {
        let c = MemCounter::new();
        with_tracker(c.clone(), || {
            let t = Tensor::zeros([100]);
            let u = t.clone();
            assert_eq!(c.current(), 400);
            drop(t);
            assert_eq!(c.current(), 400);
            drop(u);
            assert_eq!(c.current(), 0);
        });
    }
}
