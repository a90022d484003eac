//! Offline shim for the subset of `rayon` this workspace uses, backed by a
//! persistent global thread pool.
//!
//! The build environment has no registry access, so instead of the real
//! rayon we provide source-compatible implementations of:
//!
//! * `slice.par_chunks_mut(n)` (+ `.enumerate()`, `.zip(..)`, `.for_each(..)`)
//! * `range.into_par_iter().for_each(..)` / `.map(..).collect::<Vec<_>>()`
//! * `rayon::current_num_threads()`
//!
//! Work is distributed over a lazily-started pool of
//! `available_parallelism` worker threads through a shared injector queue;
//! the calling thread participates in the batch it submits, so nested
//! parallel calls cannot deadlock (every batch can always be driven to
//! completion by its own caller). Panics inside parallel bodies are
//! forwarded to the caller after the batch drains, like rayon does.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

// ---------------------------------------------------------------------------
// Global pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send>;

/// Unbounded injector queue. Crucially, a thread waiting for work sleeps in
/// `Condvar::wait` — which releases the lock — so `try_pop` from
/// latch-waiting threads can always get in (an `mpsc::Receiver` behind a
/// mutex would be held across the blocking `recv`).
#[derive(Default)]
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

impl Queue {
    fn push(&self, job: Job) {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(job);
        self.cv.notify_one();
    }

    fn pop_blocking(&self) -> Job {
        let mut guard = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = guard.pop_front() {
                return job;
            }
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn try_pop(&self) -> Option<Job> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }
}

struct Pool {
    queue: Arc<Queue>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let queue = Arc::new(Queue::default());
        for i in 0..workers {
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name(format!("shim-rayon-{i}"))
                .spawn(move || loop {
                    queue.pop_blocking()();
                })
                .expect("failed to spawn shim-rayon worker");
        }
        Pool { queue, workers }
    })
}

/// Number of worker threads in the global pool.
pub fn current_num_threads() -> usize {
    pool().workers
}

/// Countdown latch that also carries the first panic payload out of a batch.
struct Latch {
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new((count, None)),
            cv: Condvar::new(),
        }
    }

    fn done(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.0 -= 1;
        if s.1.is_none() {
            s.1 = panic;
        }
        if s.0 == 0 {
            self.cv.notify_all();
        }
    }

    /// Non-blocking completion check: `Some(panic?)` once the count is zero.
    fn poll(&self) -> Option<Option<Box<dyn Any + Send>>> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.0 == 0 {
            Some(s.1.take())
        } else {
            None
        }
    }

    /// Block briefly (until notified or a short timeout) while pending.
    fn snooze(&self) {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.0 > 0 {
            let _ = self
                .cv
                .wait_timeout(s, std::time::Duration::from_micros(100))
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Wait for `latch` while helping to drain the pool's job queue.
///
/// A thread that merely blocked here could deadlock nested parallelism: if
/// every pool worker were waiting on a batch whose helper jobs sit queued
/// behind the jobs those workers are running, nobody would be left to run
/// them. Executing queued jobs while waiting guarantees global progress.
fn wait_helping(p: &Pool, latch: &Latch) -> Option<Box<dyn Any + Send>> {
    loop {
        if let Some(panic) = latch.poll() {
            return panic;
        }
        match p.queue.try_pop() {
            Some(job) => job(),
            None => latch.snooze(),
        }
    }
}

/// Pointer wrapper so borrowed state can be captured by `'static` jobs.
///
/// Soundness: `run_batch` waits on a latch that every submitted job signals
/// after it stops touching the pointers, so the borrows strictly outlive all
/// dereferences.
struct SendConst<T: ?Sized>(*const T);
unsafe impl<T: ?Sized + Sync> Send for SendConst<T> {}

impl<T: ?Sized> SendConst<T> {
    /// Accessor so closures capture the whole (Send) wrapper rather than
    /// disjointly capturing the raw pointer field.
    fn get(&self) -> *const T {
        self.0
    }
}

/// Run `f(0) .. f(n-1)`, claiming `grain` consecutive indices per atomic
/// fetch. The caller participates; helpers come from the global pool.
fn run_batch(n: usize, grain: usize, f: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    let p = pool();
    let tasks = n.div_ceil(grain);
    let helpers = p.workers.min(tasks.saturating_sub(1));
    if helpers == 0 {
        for i in 0..n {
            f(i);
        }
        return;
    }

    let counter = AtomicUsize::new(0);
    let latch = Arc::new(Latch::new(helpers));
    let work = move |f: &(dyn Fn(usize) + Sync), counter: &AtomicUsize| loop {
        let start = counter.fetch_add(grain, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for i in start..(start + grain).min(n) {
            f(i);
        }
    };
    // SAFETY: the borrow's lifetime is erased so the pointer can ride in a
    // `'static` job; the latch join below keeps the borrow live for every
    // dereference.
    let f_erased: *const (dyn Fn(usize) + Sync + 'static) =
        unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
    for _ in 0..helpers {
        let latch = Arc::clone(&latch);
        let fp = SendConst(f_erased);
        let cp = SendConst(&counter as *const AtomicUsize);
        let job: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: see `SendConst` — the caller blocks on the latch we
                // signal below, so these references are live for the whole
                // closure body.
                let (f, counter) = unsafe { (&*fp.get(), &*cp.get()) };
                work(f, counter);
            }));
            latch.done(result.err());
        });
        p.queue.push(job);
    }
    // The caller drains the same counter, so the batch always makes progress
    // even if every pool worker is busy elsewhere.
    let caller = catch_unwind(AssertUnwindSafe(|| work(&f, &counter)));
    let helper_panic = wait_helping(p, &latch);
    if let Err(payload) = caller {
        resume_unwind(payload);
    }
    if let Some(payload) = helper_panic {
        resume_unwind(payload);
    }
}

fn default_grain(n: usize) -> usize {
    // ~8 claims per worker keeps atomic traffic low while still balancing.
    (n / (pool().workers * 8)).max(1)
}

// ---------------------------------------------------------------------------
// Disjoint chunk access
// ---------------------------------------------------------------------------

struct SendMut<T>(*mut T);
unsafe impl<T> Send for SendMut<T> {}
unsafe impl<T> Sync for SendMut<T> {}

impl<T> SendMut<T> {
    /// Accessor so closures capture the whole (Sync) wrapper rather than
    /// disjointly capturing the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// `f(chunk_index, chunk)` over `chunk_size`-sized windows, in parallel.
fn for_each_chunk_mut<T, F>(slice: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk size must be non-zero");
    let len = slice.len();
    let n = len.div_ceil(chunk_size);
    let base = SendMut(slice.as_mut_ptr());
    run_batch(n, default_grain(n), &|i| {
        let start = i * chunk_size;
        let end = (start + chunk_size).min(len);
        // SAFETY: chunk windows [start, end) are pairwise disjoint across
        // distinct `i`, and `run_batch` joins before `slice`'s borrow ends.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, chunk);
    });
}

pub trait ParallelSliceMut<T: Send> {
    /// Parallel counterpart of `chunks_mut`.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn enumerate(self) -> EnumParChunksMut<'a, T> {
        EnumParChunksMut(self)
    }

    /// Lock-step pairing with a second chunked slice (row `i` of `self` is
    /// processed together with row `i` of `other`).
    pub fn zip(self, other: ParChunksMut<'a, T>) -> ZipParChunksMut<'a, T> {
        ZipParChunksMut(self, other)
    }

    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        for_each_chunk_mut(self.slice, self.chunk_size, |_, c| f(c));
    }
}

pub struct EnumParChunksMut<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> EnumParChunksMut<'_, T> {
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        for_each_chunk_mut(self.0.slice, self.0.chunk_size, |i, c| f((i, c)));
    }
}

pub struct ZipParChunksMut<'a, T>(ParChunksMut<'a, T>, ParChunksMut<'a, T>);

impl<'a, T: Send> ZipParChunksMut<'a, T> {
    pub fn enumerate(self) -> EnumZipParChunksMut<'a, T> {
        EnumZipParChunksMut(self)
    }

    pub fn for_each<F: Fn((&mut [T], &mut [T])) + Sync>(self, f: F) {
        self.enumerate().for_each(|(_, pair)| f(pair));
    }
}

pub struct EnumZipParChunksMut<'a, T>(ZipParChunksMut<'a, T>);

impl<T: Send> EnumZipParChunksMut<'_, T> {
    pub fn for_each<F: Fn((usize, (&mut [T], &mut [T]))) + Sync>(self, f: F) {
        let a = self.0 .0;
        let b = self.0 .1;
        let (asize, bsize) = (a.chunk_size, b.chunk_size);
        assert!(asize > 0 && bsize > 0, "chunk size must be non-zero");
        let n = a.slice.len().div_ceil(asize);
        assert_eq!(
            n,
            b.slice.len().div_ceil(bsize),
            "zipped par_chunks_mut lengths disagree"
        );
        let (alen, blen) = (a.slice.len(), b.slice.len());
        let abase = SendMut(a.slice.as_mut_ptr());
        let bbase = SendMut(b.slice.as_mut_ptr());
        run_batch(n, default_grain(n), &|i| {
            let (astart, bstart) = (i * asize, i * bsize);
            let aend = (astart + asize).min(alen);
            let bend = (bstart + bsize).min(blen);
            // SAFETY: same disjointness argument as `for_each_chunk_mut`,
            // applied to each slice independently.
            let ac =
                unsafe { std::slice::from_raw_parts_mut(abase.get().add(astart), aend - astart) };
            let bc =
                unsafe { std::slice::from_raw_parts_mut(bbase.get().add(bstart), bend - bstart) };
            f((i, (ac, bc)));
        });
    }
}

// ---------------------------------------------------------------------------
// Parallel ranges
// ---------------------------------------------------------------------------

pub trait IntoParallelIterator {
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange(self)
    }
}

pub struct ParRange(std::ops::Range<usize>);

impl ParRange {
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let start = self.0.start;
        let n = self.0.end.saturating_sub(start);
        run_batch(n, 1, &|i| f(start + i));
    }

    pub fn map<R, F>(self, f: F) -> ParRangeMap<F>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        ParRangeMap { range: self.0, f }
    }
}

pub struct ParRangeMap<F> {
    range: std::ops::Range<usize>,
    f: F,
}

impl<F> ParRangeMap<F> {
    /// Collect in index order (call as `.collect::<Vec<_>>()`).
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        C: From<Vec<R>>,
    {
        let start = self.range.start;
        let n = self.range.end.saturating_sub(start);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let base = SendMut(out.as_mut_ptr());
        run_batch(n, 1, &|i| {
            let value = (self.f)(start + i);
            // SAFETY: each index writes exactly one disjoint slot, and
            // `run_batch` joins before `out` is read back.
            unsafe { *base.get().add(i) = Some(value) };
        });
        C::from(
            out.into_iter()
                .map(|v| v.expect("parallel map slot unfilled"))
                .collect::<Vec<R>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn chunks_cover_all_elements() {
        let mut v = vec![0u32; 1000];
        v.par_chunks_mut(7).enumerate().for_each(|(i, c)| {
            for (j, x) in c.iter_mut().enumerate() {
                *x = (i * 7 + j) as u32;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u32);
        }
    }

    #[test]
    fn unindexed_for_each_runs_every_chunk() {
        let mut v = [0u8; 64];
        v.par_chunks_mut(5)
            .for_each(|c| c.iter_mut().for_each(|x| *x = 1));
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn zip_pairs_rows() {
        let mut a = vec![0f32; 12];
        let mut b = vec![0f32; 6];
        a.par_chunks_mut(4)
            .zip(b.par_chunks_mut(2))
            .enumerate()
            .for_each(|(i, (ac, bc))| {
                ac.iter_mut().for_each(|x| *x = i as f32);
                bc.iter_mut().for_each(|x| *x = -(i as f32));
            });
        assert_eq!(a, [0., 0., 0., 0., 1., 1., 1., 1., 2., 2., 2., 2.]);
        assert_eq!(b, [0., 0., -1., -1., -2., -2.]);
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let squares: Vec<usize> = (0..257).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 257);
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
    }

    #[test]
    fn nested_parallelism_completes() {
        let mut outer = vec![0u32; 64];
        outer.par_chunks_mut(8).enumerate().for_each(|(i, c)| {
            let inner: Vec<usize> = (0..16).into_par_iter().map(|j| i + j).collect();
            c.iter_mut()
                .for_each(|x| *x = inner.iter().sum::<usize>() as u32);
        });
        assert!(outer.iter().all(|&x| x > 0));
    }

    #[test]
    fn panic_in_body_propagates() {
        let caught = std::panic::catch_unwind(|| {
            let mut v = [0u8; 100];
            v.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
                if i == 57 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn num_threads_positive() {
        assert!(current_num_threads() >= 1);
    }
}
