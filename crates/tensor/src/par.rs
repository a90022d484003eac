//! Shared parallel-dispatch helpers for the kernel layer.
//!
//! Every rowwise kernel uses the same pattern — run serial below a size
//! threshold, otherwise fan out over last-axis rows — so the threshold and
//! the dispatch live here once instead of being re-derived per module.

use rayon::prelude::*;

/// Elements below which rowwise kernels stay single-threaded: parallel
/// dispatch overhead beats the work saved.
pub(crate) const PAR_NUMEL: usize = 64 * 1024;

/// Multiply-adds below which FLOPs-gated kernels stay single-threaded.
/// This is THE dispatch gate for both the GEMM layer and the tiled
/// attention kernels (both import it from here), so the whole hot path
/// parallelizes on one policy.
pub(crate) const PAR_FLOPS: usize = 1 << 19;

/// Run `tasks` independent index-addressed closures, fanning out over the
/// pool when `par` says the total work is worth the dispatch. Used by the
/// tiled attention kernels, whose task grid is (batch × tile) rather than
/// output rows.
pub(crate) fn for_each_task_if(par: bool, tasks: usize, f: impl Fn(usize) + Sync) {
    if par && tasks > 1 && rayon::current_num_threads() > 1 {
        (0..tasks).into_par_iter().for_each(f);
    } else {
        for t in 0..tasks {
            f(t);
        }
    }
}

/// Prefix-summed flattened task grid over heterogeneous jobs: job `j`
/// contributes `counts[j]` tasks, and every task of every job lands in one
/// shared index space `0..total()`. Dispatching that flat range through
/// the pool (whose workers claim indices cooperatively from one queue, the
/// same atomic-claim scheme as the collectives chunk engine) is what lets
/// a ragged batch blend batch-level and intra-job parallelism: a worker
/// that finishes a small job's only tile immediately claims another job's
/// next tile instead of idling at a per-job barrier.
pub(crate) struct FlatGrid {
    /// `offsets[j]` = first flat index of job `j`; last entry = total.
    offsets: Vec<usize>,
}

impl FlatGrid {
    pub(crate) fn new(counts: impl IntoIterator<Item = usize>) -> Self {
        let mut offsets = vec![0usize];
        let mut acc = 0usize;
        for c in counts {
            acc += c;
            offsets.push(acc);
        }
        FlatGrid { offsets }
    }

    pub(crate) fn total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Map a flat task index back to `(job, task_within_job)`.
    pub(crate) fn locate(&self, t: usize) -> (usize, usize) {
        debug_assert!(t < self.total());
        let j = self.offsets.partition_point(|&o| o <= t) - 1;
        (j, t - self.offsets[j])
    }
}

/// Apply `f` to every `n`-sized row of `out`, in parallel when large.
pub(crate) fn for_each_row(out: &mut [f32], n: usize, f: impl Fn(&mut [f32]) + Sync) {
    if out.len() >= PAR_NUMEL {
        out.par_chunks_mut(n).for_each(f);
    } else {
        out.chunks_mut(n).for_each(f);
    }
}

/// [`for_each_row`] with the row index.
pub(crate) fn for_each_row_indexed(
    out: &mut [f32],
    n: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    for_each_row_indexed_if(out.len() >= PAR_NUMEL, out, n, f);
}

/// [`for_each_row_indexed`] with an explicit parallelism gate, for kernels
/// whose per-row work is much larger than the swept buffer (e.g. a sweep
/// writing `[N, C]` that reads `[N, C, D]`).
pub(crate) fn for_each_row_indexed_if(
    par: bool,
    out: &mut [f32],
    n: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if par {
        out.par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, row)| f(i, row));
    } else {
        out.chunks_mut(n).enumerate().for_each(|(i, row)| f(i, row));
    }
}

/// Lock-step rowwise sweep over two buffers (row `i` of `a` with row `i`
/// of `b`), parallel when the first buffer is large.
pub(crate) fn for_each_row_zip(
    a: &mut [f32],
    na: usize,
    b: &mut [f32],
    nb: usize,
    f: impl Fn(usize, &mut [f32], &mut [f32]) + Sync,
) {
    debug_assert_eq!(a.len().div_ceil(na), b.len().div_ceil(nb));
    if a.len() >= PAR_NUMEL {
        a.par_chunks_mut(na)
            .zip(b.par_chunks_mut(nb))
            .enumerate()
            .for_each(|(i, (ar, br))| f(i, ar, br));
    } else {
        a.chunks_mut(na)
            .zip(b.chunks_mut(nb))
            .enumerate()
            .for_each(|(i, (ar, br))| f(i, ar, br));
    }
}

/// Chunked in-place sweep over a flat buffer, parallel when large: like
/// [`map_in_place`] but handing the closure whole chunks, so lane-level
/// kernels from [`crate::simd`] can run inside. Chunk boundaries never
/// change elementwise results, so output is identical at any thread count.
pub(crate) fn for_each_chunk(data: &mut [f32], f: impl Fn(&mut [f32]) + Sync) {
    if data.len() >= PAR_NUMEL {
        let chunk = data
            .len()
            .div_ceil(rayon::current_num_threads() * 4)
            .max(1024);
        data.par_chunks_mut(chunk).for_each(f);
    } else {
        f(data);
    }
}

/// Elementwise in-place map, parallel when large.
pub(crate) fn map_in_place(data: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    if data.len() >= PAR_NUMEL {
        let chunk = data
            .len()
            .div_ceil(rayon::current_num_threads() * 4)
            .max(1024);
        data.par_chunks_mut(chunk).for_each(|c| {
            for x in c.iter_mut() {
                *x = f(*x);
            }
        });
    } else {
        for x in data.iter_mut() {
            *x = f(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowwise_dispatch_covers_both_paths() {
        // small (serial) and large (parallel) must produce identical rows
        for rows in [4usize, 2048] {
            let n = 64;
            let mut out = vec![0.0f32; rows * n];
            for_each_row_indexed(&mut out, n, |i, row| {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = (i * n + j) as f32;
                }
            });
            for (i, x) in out.iter().enumerate() {
                assert_eq!(*x, i as f32);
            }
        }
    }

    #[test]
    fn flat_grid_locates_every_task() {
        let g = FlatGrid::new([3usize, 1, 0, 4]);
        assert_eq!(g.total(), 8);
        let want = [
            (0, 0),
            (0, 1),
            (0, 2), // job 0
            (1, 0), // job 1 (job 2 contributes nothing)
            (3, 0),
            (3, 1),
            (3, 2),
            (3, 3), // job 3
        ];
        for (t, &w) in want.iter().enumerate() {
            assert_eq!(g.locate(t), w, "task {t}");
        }
        assert_eq!(FlatGrid::new(std::iter::empty()).total(), 0);
    }

    #[test]
    fn map_in_place_matches_serial() {
        let mut big: Vec<f32> = (0..PAR_NUMEL + 5).map(|i| i as f32).collect();
        map_in_place(&mut big, |x| 2.0 * x + 1.0);
        for (i, x) in big.iter().enumerate() {
            assert_eq!(*x, 2.0 * i as f32 + 1.0);
        }
    }
}
