//! Thread-local scratch arena: pooled f32 buffers for kernel-internal
//! temporaries.
//!
//! The GEMM layer's pack panels, the split-K partial outputs, and the
//! flash-attention tile state used to be fresh `vec![0.0; …]` allocations
//! on every call — fine for one product, but a steady-state training loop
//! re-allocates (and re-faults) the same few hundred KiB thousands of times
//! per step. The arena keeps returned buffers on a per-thread free list,
//! so after the first call on each worker thread the hot path performs
//! **zero heap allocations** (asserted by the `scratch_steady_state`
//! integration test under a counting allocator).
//!
//! # Discipline
//!
//! [`with_scratch`] / [`with_scratch_zeroed`] are strictly scoped: the
//! buffer is borrowed for the closure and returned to the free list on
//! exit. Nested calls (a GEMM packing two panels, attention holding a
//! score tile across a packed product) simply pop distinct buffers — the
//! free list is LIFO, so the most-recently-used (cache-warm, right-sized)
//! buffer is reused first.
//!
//! Buffers hand out **uninitialized-by-contract** contents in
//! [`with_scratch`]: whatever the previous borrower left there. Callers
//! must fully overwrite (packing, `Epilogue::Assign` stores) or use
//! [`with_scratch_zeroed`]. Recycling never changes numerics: every user
//! either assigns each element before reading it or starts from an
//! explicit fill — the `pooled_scratch_bitwise_matches_fresh` tests pin
//! this by comparing cold-arena and dirty-arena runs bit for bit.
//!
//! If the closure panics the buffer is simply dropped with the unwind
//! (never returned to the list), so a poisoned buffer can't resurface.
//!
//! # Memory accounting
//!
//! Borrowed scratch charges the thread's [`crate::device::MemCounter`]
//! (when one is installed) for the borrow's duration, so kernel-internal
//! temporaries show up in per-device peak budgeting alongside tensor
//! buffers. The accounting is per-thread like the tracker itself: scratch
//! taken on untracked worker threads (e.g. rayon's pool) is not charged.

use std::cell::RefCell;

/// Retained buffers per thread. Deep nesting past this spills to plain
/// allocation — only pathological call stacks reach it (the GEMM + flash
/// stack uses at most 5 levels).
const MAX_POOLED: usize = 16;

thread_local! {
    static FREE: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A pooled buffer at least `len` long; the borrower sees its first `len`
/// elements and is charged for those alone.
fn take(len: usize) -> Vec<f32> {
    if let Some(c) = crate::device::current_tracker() {
        c.add(len * 4);
    }
    FREE.with(|f| {
        let mut free = f.borrow_mut();
        match free.pop() {
            Some(mut buf) => {
                // Buffers keep their high-water length: growing only on a
                // new high, and never shrinking, means a borrow sized to
                // its call neither allocates nor zero-fills once each
                // nesting level has seen its largest call.
                if buf.len() < len {
                    buf.resize(len, 0.0);
                }
                buf
            }
            None => vec![0.0f32; len],
        }
    })
}

/// Return a buffer `take(len)` handed out. Releases the `len` it charged;
/// buffers dropped instead of pooled still release here first.
fn put(buf: Vec<f32>, len: usize) {
    if let Some(c) = crate::device::current_tracker() {
        c.sub(len * 4);
    }
    FREE.with(|f| {
        let mut free = f.borrow_mut();
        if free.len() < MAX_POOLED {
            free.push(buf);
        }
    })
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
}
