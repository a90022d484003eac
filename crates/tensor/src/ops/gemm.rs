//! Dense matrix multiplication: a cache-blocked, register-tiled,
//! panel-packing GEMM.
//!
//! All matmul/bmm entry points route through one kernel,
//! [`gemm`], parameterized by [`GemmLayout`]:
//!
//! * `NN` — `C += α · A[m,k] · B[k,n]`
//! * `NT` — `C += α · A[m,k] · B[n,k]ᵀ` (attention scores `Q·Kᵀ`, `dY·Wᵀ`)
//! * `TN` — `C += α · A[k,m]ᵀ · B[k,n]` (weight gradients `Xᵀ·dY`)
//!
//! The transposed operands are handled during *packing*, so the inner
//! kernel always sees the same two contiguous panel formats and never pays
//! for strided access. The blocking hierarchy is the classic three-loop
//! panel decomposition (Goto/BLIS):
//!
//! ```text
//! for jc in 0..n step NC        # B panel column block   (≈ L2/L3)
//!   for pc in 0..k step KC      # depth block            (packed panels)
//!     pack B[pc.., jc..]  ->  KC×NC panel, NR-interleaved
//!     for ic in 0..m step MC    # A panel row block      (≈ L2)
//!       pack A[ic.., pc..] -> MC×KC panel, MR-interleaved (α folded here)
//!       for jr, ir: MR×NR register micro-tile, k-major accumulation
//! ```
//!
//! The micro-kernel is the explicit-SIMD register kernel in
//! [`crate::simd`], selected once per process by runtime ISA detection
//! (AVX-512 8×32 accumulator, AVX2+FMA 6×16, or the safe auto-vectorized
//! scalar fallback — see `simd.rs` for the dispatch strategy and register
//! arithmetic). The micro-tile shape `(MR, NR)` is therefore a *runtime*
//! value ([`crate::simd::gemm_tile_shape`]); packing and the blocked loops
//! below are parameterized on it, and the store epilogue
//! (`Epilogue` → `simd::MicroEpi`) is fused into the
//! micro-kernel's register stores.
//!
//! Parallelism is two-dimensional over (row-block × column-block) tiles of
//! C, each task packing its own panels into pooled per-thread scratch
//! ([`crate::scratch`]), with a split-K fallback for skinny outputs
//! (tall-thin or short-wide shapes whose C tile grid is smaller than the
//! machine). Batched products flatten every job's tile grid into one
//! cooperative task queue (`gemm_batch_into`) so batch-level and
//! intra-GEMM parallelism blend for ragged batches. Dispatch is gated on
//! total FLOPs (`m·n·k`), not output size, so a `[4, 1M] × [1M, 8]`
//! product still parallelizes.

use rayon::prelude::*;

use crate::scratch::{self, with_scratch, with_scratch_zeroed};
use crate::shape::Shape;
use crate::simd::{self, Isa, MicroEpi};
use crate::tensor::Tensor;

/// Rows per packed A panel (MC×KC ≈ 128 KiB, streams through L2). A
/// multiple of every ISA's micro-tile rows (6 and 8).
const MC: usize = 120;
/// Depth per packed panel pair.
const KC: usize = 256;
/// Columns per packed B panel (KC×NC ≈ 256 KiB; the hot KC×NR strip the
/// micro-kernel reads stays L1-resident). A multiple of every ISA's
/// micro-tile columns (16 and 32).
const NC: usize = 256;

/// Below this many multiply-adds (`m·n·k`) the whole product runs
/// single-threaded: parallel dispatch costs more than it saves. Shared
/// with the tiled attention kernels so the whole hot path parallelizes on
/// one policy.
use crate::par::PAR_FLOPS;

/// Below this many multiply-adds the panel-packing machinery is skipped in
/// favor of direct row-major loops (unit-test-sized operands).
const SMALL_FLOPS: usize = 1 << 15;

/// Operand access pattern: which side is logically transposed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GemmLayout {
    /// `A[m,k] · B[k,n]`
    NN,
    /// `A[m,k] · B[n,k]ᵀ`
    NT,
    /// `A[k,m]ᵀ · B[k,n]`
    TN,
}

/// What the micro-kernel store does with the first depth block's result.
/// Later depth blocks always accumulate; each output element is stored
/// exactly once per depth block, so the epilogue costs no extra pass.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// `C += P` — the default accumulate contract.
    Add,
    /// `C += P + bias` with the `[n]` bias row added exactly once (the
    /// fused Linear forward).
    AddBias(&'a [f32]),
    /// `C = P` — overwrite, so callers reusing a scratch buffer (the flash
    /// attention score tiles) skip the `fill(0.0)` pre-pass.
    Assign,
}

impl GemmLayout {
    #[inline]
    fn a_transposed(self) -> bool {
        matches!(self, GemmLayout::TN)
    }

    #[inline]
    fn b_transposed(self) -> bool {
        matches!(self, GemmLayout::NT)
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Pack `A[ic..ic+mc, pc..pc+kc]` (logical m×k indexing) into
/// `mr`-interleaved micro-panels for the active ISA: panel `r` holds rows
/// `ic+r·mr..` stored k-major, i.e.
/// `buf[r·mr·kc + p·mr + i] = α · a(ic + r·mr + i, pc + p)`, zero-padded to
/// a full `mr` rows.
///
/// The non-transposed layout is a strided gather (panel-destination stride
/// `mr` against source stride `k`), packed through the SIMD 8×8 shuffle
/// transpose ([`simd::pack_transpose`]). The transposed layout's source
/// rows are already contiguous in destination order: full panels run a
/// fused `dst = α · src` loop over a compile-time row width
/// ([`pack_a_rows`]), so the copy and the scale share one pass at copy
/// speed.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    isa: Isa,
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    mr: usize,
    buf: &mut [f32],
) {
    let panels = mc.div_ceil(mr);
    debug_assert!(buf.len() >= panels * mr * kc);
    for r in 0..panels {
        let row0 = ic + r * mr;
        let rows = mr.min(ic + mc - row0);
        let panel = &mut buf[r * mr * kc..(r + 1) * mr * kc];
        if layout.a_transposed() {
            // a is [k, m]: a(i, p) = a[p*m + i] — source rows are contiguous
            // in the pack destination order, so copy p-major.
            let src = &a[pc * m + row0..];
            match mr {
                8 if rows == 8 => pack_a_rows::<8>(src, m, kc, alpha, panel),
                6 if rows == 6 => pack_a_rows::<6>(src, m, kc, alpha, panel),
                // The zero-padded tail panel (and any other row width).
                _ => {
                    for (p, dst) in panel.chunks_exact_mut(mr).enumerate() {
                        let s = &src[p * m..p * m + rows];
                        for (d, &v) in dst.iter_mut().zip(s) {
                            *d = v * alpha;
                        }
                        dst[rows..].fill(0.0);
                    }
                }
            }
        } else {
            // a is [m, k]: a(i, p) = a[i*k + p] — the gather/transpose case.
            // SAFETY: source indices stay inside `a` (`row0 + rows ≤ m`,
            // `pc + kc ≤ k`); the panel slice holds `mr·kc` elements.
            unsafe {
                simd::pack_transpose(
                    isa,
                    a.as_ptr().add(row0 * k + pc),
                    k,
                    rows,
                    mr,
                    kc,
                    panel.as_mut_ptr(),
                    alpha,
                )
            }
        }
    }
}

/// One full `MR`-row panel of the transposed A layout:
/// `panel[p·MR + i] = α · src[p·m + i]` for `p < kc`. The row width is a
/// compile-time constant so each depth step compiles to one fixed-width
/// load, multiply and store; with a runtime width the per-step slice
/// calls cost 5× the SIMD gather pack (`pack_a_contig_120x256` in BENCH).
#[inline]
fn pack_a_rows<const MR: usize>(src: &[f32], m: usize, kc: usize, alpha: f32, panel: &mut [f32]) {
    for (p, dst) in panel[..kc * MR].chunks_exact_mut(MR).enumerate() {
        let dst: &mut [f32; MR] = dst.try_into().expect("exact MR-wide chunk");
        let s: &[f32; MR] = src[p * m..p * m + MR]
            .try_into()
            .expect("MR-wide source row");
        for (d, &v) in dst.iter_mut().zip(s) {
            *d = v * alpha;
        }
    }
}

/// Pack `B[pc..pc+kc, jc..jc+nc]` (logical k×n indexing) into
/// `nr`-interleaved micro-panels:
/// `buf[c·nr·kc + p·nr + j] = b(pc + p, jc + c·nr + j)`, zero-padded to a
/// full `nr` columns. The transposed layout is the strided-gather case and
/// routes through [`simd::pack_transpose`].
#[allow(clippy::too_many_arguments)]
fn pack_b(
    isa: Isa,
    layout: GemmLayout,
    b: &[f32],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
    buf: &mut [f32],
) {
    let panels = nc.div_ceil(nr);
    debug_assert!(buf.len() >= panels * nr * kc);
    for c in 0..panels {
        let col0 = jc + c * nr;
        let cols = nr.min(jc + nc - col0);
        let panel = &mut buf[c * nr * kc..(c + 1) * nr * kc];
        if layout.b_transposed() {
            // b is [n, k]: b(p, j) = b[j*k + p] — the gather/transpose case.
            // SAFETY: source indices stay inside `b` (`col0 + cols ≤ n`
            // rows of length `k`, `pc + kc ≤ k`); the panel slice holds
            // `nr·kc` elements.
            unsafe {
                simd::pack_transpose(
                    isa,
                    b.as_ptr().add(col0 * k + pc),
                    k,
                    cols,
                    nr,
                    kc,
                    panel.as_mut_ptr(),
                    1.0,
                )
            }
        } else {
            // b is [k, n]: b(p, j) = b[p*n + j] — contiguous source rows.
            for p in 0..kc {
                let s0 = (pc + p) * n + col0;
                let dst = &mut panel[p * nr..p * nr + nr];
                dst[..cols].copy_from_slice(&b[s0..s0 + cols]);
                dst[cols..].fill(0.0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Serial blocked driver
// ---------------------------------------------------------------------------

/// Exclusive window onto a C tile: rows `i0..i0+mt` restricted to columns
/// `j0..j0+nt` of a row-major `[m, n]` buffer.
///
/// Holds a raw base pointer rather than a `&mut [f32]` so the 2-D parallel
/// driver can hand each task its own tile without ever creating two live
/// mutable references to overlapping memory: writes happen only through the
/// micro-kernel store, on the disjoint `mr×nr` window [`CTile::ptr_at`]
/// hands out.
///
/// Invariant (upheld by every constructor site): while a `CTile` is alive,
/// nothing else reads or writes its (row-range × column-range) window, and
/// distinct tiles' windows never overlap.
struct CTile<'a> {
    base: *mut f32,
    len: usize,
    n: usize,
    i0: usize,
    j0: usize,
    _c: std::marker::PhantomData<&'a mut [f32]>,
}

// SAFETY: a CTile is an exclusive capability over its disjoint window (see
// the invariant above), so moving it to another thread is sound; sharing
// `&CTile` is sound because all access to the window goes through
// `row(&mut self, ..)`.
unsafe impl Send for CTile<'_> {}
unsafe impl Sync for CTile<'_> {}

impl<'a> CTile<'a> {
    fn new(c: &'a mut [f32], n: usize, i0: usize, j0: usize) -> Self {
        CTile {
            base: c.as_mut_ptr(),
            len: c.len(),
            n,
            i0,
            j0,
            _c: std::marker::PhantomData,
        }
    }

    /// A sub-window over the same buffer. Caller must ensure the windows
    /// handed out are pairwise disjoint and that `self` is not used for
    /// writes while they live (the 2-D driver's tiles partition C).
    fn window(&self, i0: usize, j0: usize) -> CTile<'a> {
        CTile {
            base: self.base,
            len: self.len,
            n: self.n,
            i0,
            j0,
            _c: std::marker::PhantomData,
        }
    }

    /// Pointer to tile-relative element `(i, j)`, checked to head an
    /// exclusive `rows × cols` window (row stride = the buffer's `n`).
    ///
    /// `&mut self` plus the tile invariant make the returned window safe
    /// for the micro-kernel to read and write: callers keep
    /// `i + rows <= mt`, `j + cols <= nt`, and never hold two windows of
    /// one tile at once.
    #[inline]
    fn ptr_at(&mut self, i: usize, j: usize, rows: usize, cols: usize) -> *mut f32 {
        let start = (self.i0 + i) * self.n + self.j0 + j;
        debug_assert!(rows > 0 && cols > 0);
        debug_assert!(start + (rows - 1) * self.n + cols <= self.len);
        // SAFETY: `start` is in-bounds (checked above against the buffer
        // length captured at construction).
        unsafe { self.base.add(start) }
    }
}

/// Serial blocked GEMM onto one C tile, over depth range `p0..p1`.
///
/// `a`/`b` are always the *full* operand buffers; the tile/depth windows
/// select the sub-problem, which is what the split-K and 2-D-tile parallel
/// drivers are built from.
///
/// The [`Epilogue`] rides in the micro-kernel store of the *first* depth
/// block (each output element is stored exactly once per depth block), so
/// bias adds and overwrites cost no extra pass over the output.
#[allow(clippy::too_many_arguments)]
fn gemm_tile_serial(
    isa: Isa,
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    epi: Epilogue<'_>,
    tile: &mut CTile<'_>,
    m: usize,
    k: usize,
    n: usize,
    (i0, mt): (usize, usize),
    (j0, nt): (usize, usize),
    (p0, p1): (usize, usize),
) {
    debug_assert_eq!((tile.i0, tile.j0), (i0, j0));
    let (mr_t, nr_t) = simd::gemm_tile_shape(isa);
    // A trailing block remnant thinner than one micro-tile is absorbed
    // into the preceding block: a 1-column jc block would otherwise
    // re-pack the whole A panel set for almost no output, and a few-deep
    // kc block would re-stream all of C through load-add-store for a
    // couple of FMAs per element. Absorption changes only the blocking
    // (panel buffers grow by ≤ one micro-tile / one granule), never the
    // per-element accumulation *within* the serial k-major order of a
    // given schedule — but the kc absorption regroups depth partial sums,
    // so it IS part of the shape-derived schedule: every path (serial,
    // 2-D tiles, split-K replay) shares this loop and stays bitwise
    // consistent.
    const KC_ABSORB: usize = 32;
    // Pack panels live in the per-thread scratch arena: packing fully
    // overwrites every region the micro-kernel reads, so recycled contents
    // never leak through, and steady-state products allocate nothing.
    // Each panel is sized to this call (rows ≤ min(MC, mt), depth ≤
    // min(KC + absorbed remnant, p1 − p0), columns ≤ min(NC + absorbed
    // remnant, nt), rounded up to whole micro-tiles), so a small product
    // borrows — and charges the rank's memory counter — only what it packs.
    let kc_max = (KC + KC_ABSORB - 1).min(p1 - p0);
    let rows = MC.min(mt).div_ceil(mr_t) * mr_t;
    let cols = (NC + nr_t).min(nt).div_ceil(nr_t) * nr_t;
    with_scratch(rows * kc_max, |pa| {
        with_scratch(cols * kc_max, |pb| {
            let mut jc = 0;
            while jc < nt {
                let mut nc = NC.min(nt - jc);
                if nt - jc - nc < nr_t {
                    nc = nt - jc;
                }
                let mut pc = p0;
                while pc < p1 {
                    let mut kc = KC.min(p1 - pc);
                    if p1 - pc - kc < KC_ABSORB {
                        kc = p1 - pc;
                    }
                    // The epilogue applies exactly once, on the first depth
                    // block; later blocks accumulate.
                    let epi_now = if pc == p0 { epi } else { Epilogue::Add };
                    pack_b(isa, layout, b, k, n, pc, kc, j0 + jc, nc, nr_t, pb);
                    let mut ic = 0;
                    while ic < mt {
                        let mc = MC.min(mt - ic);
                        pack_a(isa, layout, alpha, a, m, k, i0 + ic, mc, pc, kc, mr_t, pa);
                        for jr in 0..nc.div_ceil(nr_t) {
                            let bp = &pb[jr * nr_t * kc..(jr + 1) * nr_t * kc];
                            let nr = nr_t.min(nc - jr * nr_t);
                            for ir in 0..mc.div_ceil(mr_t) {
                                let ap = &pa[ir * mr_t * kc..(ir + 1) * mr_t * kc];
                                let mr = mr_t.min(mc - ir * mr_t);
                                // The tile-local epilogue carries the bias
                                // slice pre-offset to this micro-tile's
                                // first column.
                                let micro_epi = match epi_now {
                                    Epilogue::Add => MicroEpi::Add,
                                    Epilogue::AddBias(bias) => {
                                        let col0 = j0 + jc + jr * nr_t;
                                        MicroEpi::AddBias(&bias[col0..col0 + nr])
                                    }
                                    Epilogue::Assign => MicroEpi::Assign,
                                };
                                let cptr = tile.ptr_at(ic + ir * mr_t, jc + jr * nr_t, mr, nr);
                                // SAFETY: `cptr` heads an exclusive mr×nr
                                // window of this tile (checked by
                                // `ptr_at`); panels hold kc·mr_t / kc·nr_t
                                // packed elements; `isa` came from
                                // dispatch, which only yields runnable
                                // ISAs.
                                unsafe {
                                    simd::gemm_microkernel(
                                        isa, kc, ap, bp, cptr, n, mr, nr, micro_epi,
                                    )
                                }
                            }
                        }
                        ic += mc;
                    }
                    pc += kc;
                }
                jc += nc;
            }
        })
    });
}

/// Direct row-major loops for operands too small to amortize packing.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match layout {
        GemmLayout::NN => {
            for (i, c_row) in c.chunks_mut(n).enumerate() {
                for p in 0..k {
                    let aip = alpha * a[i * k + p];
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cv, bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aip * bv;
                    }
                }
            }
        }
        GemmLayout::NT => {
            for (i, c_row) in c.chunks_mut(n).enumerate() {
                let a_row = &a[i * k..(i + 1) * k];
                for (j, cv) in c_row.iter_mut().enumerate() {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut s = 0.0f32;
                    for (av, bv) in a_row.iter().zip(b_row) {
                        s += av * bv;
                    }
                    *cv += alpha * s;
                }
            }
        }
        GemmLayout::TN => {
            for (i, c_row) in c.chunks_mut(n).enumerate() {
                for p in 0..k {
                    let aip = alpha * a[p * m + i];
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cv, bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aip * bv;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel drivers
// ---------------------------------------------------------------------------

/// `C[m,n] += α · op(A) · op(B)` — the single entry point every matmul/bmm
/// variant and autograd adjoint routes through.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_dispatch(layout, alpha, a, b, Epilogue::Add, c, m, k, n);
}

/// `C[m,n] += α · op(A) · op(B) + bias` with the `[n]` bias row folded into
/// the micro-kernel store (the Linear-layer forward), so the broadcast add
/// never costs a second pass over the output. The bias is added exactly
/// once per output element, on top of whatever `c` already holds.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias(
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(bias.len(), n, "bias len {} vs n {n}", bias.len());
    if k == 0 {
        // Degenerate product: the bias contract still holds.
        for row in c.chunks_mut(n) {
            for (cv, &bv) in row.iter_mut().zip(bias) {
                *cv += bv;
            }
        }
        return;
    }
    gemm_dispatch(layout, alpha, a, b, Epilogue::AddBias(bias), c, m, k, n);
}

/// Prepare `c` so the plain accumulate paths honor `epi`: small/ split-K
/// code always does `C += …`, so `Assign` zeroes the (scratch) output
/// first and `AddBias` folds the bias in as the initial value.
fn epi_pre_pass(epi: Epilogue<'_>, c: &mut [f32], n: usize) {
    match epi {
        Epilogue::Add => {}
        Epilogue::AddBias(bias) => {
            for row in c.chunks_mut(n) {
                for (cv, &bv) in row.iter_mut().zip(bias) {
                    *cv += bv;
                }
            }
        }
        Epilogue::Assign => c.fill(0.0),
    }
}

/// Shared driver behind [`gemm`] / [`gemm_bias`] / the attention tiles.
#[allow(clippy::too_many_arguments)]
fn gemm_dispatch(
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    epi: Epilogue<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let flops = m * n * k;
    if flops < SMALL_FLOPS {
        // Operands too small for the packed path; the epilogue pre-pass
        // over a sub-32k-element output is noise.
        epi_pre_pass(epi, c, n);
        return gemm_small(layout, alpha, a, b, c, m, k, n);
    }
    // ISA resolved once per product; every tile of this call uses the same
    // micro-kernel and tile shape.
    let isa = simd::active_isa();
    if flops < PAR_FLOPS || rayon::current_num_threads() == 1 {
        return gemm_serial(isa, layout, alpha, a, b, epi, c, m, k, n);
    }

    let row_blocks = m.div_ceil(MC);
    let col_blocks = n.div_ceil(NC);
    // Any tile-level parallelism beats none; split-K only wins when the
    // tile grid is a single tile but the depth is long.
    if row_blocks * col_blocks >= 2 {
        gemm_parallel_2d(
            isa, layout, alpha, a, b, epi, c, m, k, n, row_blocks, col_blocks,
        );
    } else if k >= 4 * KC {
        // Skinny split-K outputs are tiny (the path only triggers when the
        // C tile grid is a single tile), so the epilogue stays out of the
        // per-task partials and costs one sweep of a small buffer.
        epi_pre_pass(epi, c, n);
        gemm_parallel_split_k(isa, layout, alpha, a, b, c, m, k, n);
    } else {
        gemm_serial(isa, layout, alpha, a, b, epi, c, m, k, n);
    }
}

/// Serial blocked product over the whole output.
#[allow(clippy::too_many_arguments)]
fn gemm_serial(
    isa: Isa,
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    epi: Epilogue<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut tile = CTile::new(c, n, 0, 0);
    gemm_tile_serial(
        isa,
        layout,
        alpha,
        a,
        b,
        epi,
        &mut tile,
        m,
        k,
        n,
        (0, m),
        (0, n),
        (0, k),
    );
}

/// 2-D tiling over (row-block × column-block) of C. Tiles write disjoint
/// C regions; each task packs its own panels into thread-local buffers.
#[allow(clippy::too_many_arguments)]
fn gemm_parallel_2d(
    isa: Isa,
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    epi: Epilogue<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    row_blocks: usize,
    col_blocks: usize,
) {
    // One prototype tile borrows `c` for the whole parallel region; each
    // task clones it with its own disjoint window. Writes only ever happen
    // through the micro-kernel store on per-task disjoint windows (see the
    // `CTile` invariant).
    let proto = CTile::new(c, n, 0, 0);
    (0..row_blocks * col_blocks).into_par_iter().for_each(|t| {
        let (rb, cb) = (t / col_blocks, t % col_blocks);
        let i0 = rb * MC;
        let mt = MC.min(m - i0);
        let j0 = cb * NC;
        let nt = NC.min(n - j0);
        // Tiles partition C: distinct `t` ⇒ disjoint (row-range ×
        // col-range) windows, and the parallel call joins before `c`'s
        // borrow ends.
        let mut tile = proto.window(i0, j0);
        gemm_tile_serial(
            isa,
            layout,
            alpha,
            a,
            b,
            epi,
            &mut tile,
            m,
            k,
            n,
            (i0, mt),
            (j0, nt),
            (0, k),
        );
    });
}

/// Split-K: partition the depth across tasks, each accumulating into its
/// own private `m×n` partial, then reduce. Used for skinny outputs (e.g.
/// `[4, 1M] × [1M, 8]`) where the C tile grid has too little parallelism.
#[allow(clippy::too_many_arguments)]
fn gemm_parallel_split_k(
    isa: Isa,
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // The chunk count is derived from the problem size only — never the
    // thread count — so the partial-sum grouping (and therefore the f32
    // result, bit for bit) is identical on every machine. The fixed cap
    // bounds the partial-buffer memory.
    const SPLIT_K_GRAIN: usize = 4 * KC;
    const SPLIT_K_MAX_CHUNKS: usize = 16;
    let chunks = k.div_ceil(SPLIT_K_GRAIN).min(SPLIT_K_MAX_CHUNKS);
    let per = k.div_ceil(chunks);
    // One pooled buffer holds every task's partial (zeroed — the tasks
    // accumulate); the serial chunk-order fold below is what keeps the
    // result bitwise thread-count-independent.
    with_scratch_zeroed(chunks * m * n, |partials| {
        partials
            .par_chunks_mut(m * n)
            .enumerate()
            .for_each(|(t, partial)| {
                let p0 = t * per;
                let p1 = ((t + 1) * per).min(k);
                let mut tile = CTile::new(partial, n, 0, 0);
                gemm_tile_serial(
                    isa,
                    layout,
                    alpha,
                    a,
                    b,
                    Epilogue::Add,
                    &mut tile,
                    m,
                    k,
                    n,
                    (0, m),
                    (0, n),
                    (p0, p1),
                );
            });
        for partial in partials.chunks(m * n) {
            for (cv, pv) in c.iter_mut().zip(partial) {
                *cv += pv;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Tensor entry points
// ---------------------------------------------------------------------------

/// `[m,k] × [k,n] -> [m,n]`. Higher-rank `a` is folded to 2-D over its last
/// axis.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let a2 = a.as_2d();
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D, got {}", b.shape());
    let (m, k) = (a2.dims()[0], a2.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims {} vs {}", a.shape(), b.shape());
    let mut c = scratch::zeroed(m * n);
    gemm(GemmLayout::NN, 1.0, a2.data(), b.data(), &mut c, m, k, n);
    // Preserve leading batch axes of `a`.
    let mut out_dims = a.dims().to_vec();
    *out_dims.last_mut().unwrap() = n;
    Tensor::from_vec(c, Shape::new(&out_dims))
}

/// `[m,k] × [n,k]ᵀ -> [m,n]` without materializing the transpose.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let a2 = a.as_2d();
    assert_eq!(b.ndim(), 2);
    let (m, k) = (a2.dims()[0], a2.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt inner dims {} vs {}", a.shape(), b.shape());
    let mut c = scratch::zeroed(m * n);
    gemm(GemmLayout::NT, 1.0, a2.data(), b.data(), &mut c, m, k, n);
    let mut out_dims = a.dims().to_vec();
    *out_dims.last_mut().unwrap() = n;
    Tensor::from_vec(c, Shape::new(&out_dims))
}

/// `[k,m]ᵀ × [k,n] -> [m,n]` without materializing the transpose.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let a2 = a.as_2d();
    let b2 = b.as_2d();
    let (k, m) = (a2.dims()[0], a2.dims()[1]);
    let (k2, n) = (b2.dims()[0], b2.dims()[1]);
    assert_eq!(k, k2, "matmul_tn inner dims {} vs {}", a.shape(), b.shape());
    let mut c = scratch::zeroed(m * n);
    gemm(GemmLayout::TN, 1.0, a2.data(), b2.data(), &mut c, m, k, n);
    Tensor::from_vec(c, [m, n])
}

fn bmm_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize, usize, usize, usize) {
    assert_eq!(a.ndim(), 3, "bmm lhs must be 3-D, got {}", a.shape());
    assert_eq!(b.ndim(), 3, "bmm rhs must be 3-D, got {}", b.shape());
    let (ba, m, ka) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let (bb, d1, d2) = (b.dims()[0], b.dims()[1], b.dims()[2]);
    assert_eq!(ba, bb, "bmm batch dims {} vs {}", a.shape(), b.shape());
    (ba, m, ka, bb, d1, d2)
}

// ---------------------------------------------------------------------------
// Pool-aware batched dispatch
// ---------------------------------------------------------------------------

/// One product of a heterogeneous GEMM batch:
/// `C[c_off .. c_off + m·n] += α · op(A) · op(B)` (row-major `[m, n]`
/// window of the shared output buffer).
pub(crate) struct GemmJob<'a> {
    pub layout: GemmLayout,
    pub alpha: f32,
    pub a: &'a [f32],
    pub b: &'a [f32],
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Flat element offset of this job's output window; windows of
    /// distinct jobs must be pairwise disjoint.
    pub c_off: usize,
}

/// Tasks a job contributes to the flattened grid: its C tile grid, or a
/// single task when the product is too small for the packed path (or
/// degenerate).
fn job_tiles(j: &GemmJob<'_>) -> usize {
    if j.m == 0 || j.n == 0 {
        0
    } else if j.k == 0 || j.m * j.n * j.k < SMALL_FLOPS {
        1
    } else {
        j.m.div_ceil(MC) * j.n.div_ceil(NC)
    }
}

/// Shared mutable output buffer for the batched dispatcher: tasks write
/// pairwise-disjoint windows (distinct jobs by the `c_off` contract,
/// tiles within a job by the C-tile partition), the same exclusive-window
/// argument as [`CTile`].
struct RawOut {
    base: *mut f32,
    len: usize,
}

// SAFETY: see the disjoint-window argument on the struct.
unsafe impl Send for RawOut {}
unsafe impl Sync for RawOut {}

impl RawOut {
    /// Accessors so closures capture the whole (Sync) wrapper rather than
    /// disjointly capturing the raw pointer field.
    fn base(&self) -> *mut f32 {
        self.base
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Run a heterogeneous batch of GEMM jobs over one shared output buffer.
///
/// Every job's (row-block × column-block) C tile grid is flattened into a
/// single task queue ([`crate::par::FlatGrid`]) and dispatched over the
/// pool in one parallel region, so batch-level and intra-GEMM parallelism
/// blend instead of competing: a ragged batch (hierarchical-aggregation
/// subtree products, attention heads of uneven length) keeps every worker
/// busy even when no single product has enough tiles and no batch has
/// enough members. Tiny jobs ride along as single tasks on the direct
/// row-major loops.
///
/// Each tile runs the identical serial blocked code over the full depth
/// regardless of which worker claims it, so the output is **bitwise
/// identical at any thread count** to replaying the jobs one by one
/// (`batched_dispatcher_bitwise_matches_serial_replay` pins this).
pub(crate) fn gemm_batch_into(jobs: &[GemmJob<'_>], c: &mut [f32]) {
    debug_assert!(jobs.iter().all(|j| j.c_off + j.m * j.n <= c.len()));
    let total_flops: usize = jobs.iter().map(|j| j.m * j.n * j.k).sum();
    if total_flops < PAR_FLOPS || rayon::current_num_threads() == 1 {
        for j in jobs {
            gemm_serial_or_small(
                j.layout,
                j.alpha,
                j.a,
                j.b,
                Epilogue::Add,
                &mut c[j.c_off..j.c_off + j.m * j.n],
                j.m,
                j.k,
                j.n,
            );
        }
        return;
    }
    let isa = simd::active_isa();
    let grid = crate::par::FlatGrid::new(jobs.iter().map(job_tiles));
    let out = RawOut {
        base: c.as_mut_ptr(),
        len: c.len(),
    };
    (0..grid.total()).into_par_iter().for_each(|t| {
        let (ji, local) = grid.locate(t);
        let j = &jobs[ji];
        let (m, k, n) = (j.m, j.k, j.n);
        if k == 0 || m * n * k < SMALL_FLOPS {
            // The job's single task owns its whole window exclusively.
            // SAFETY: disjoint by the `c_off` contract; in-bounds by the
            // debug assert above (offsets come from callers that sized `c`).
            let cw = unsafe { std::slice::from_raw_parts_mut(out.base().add(j.c_off), m * n) };
            if k > 0 {
                gemm_small(j.layout, j.alpha, j.a, j.b, cw, m, k, n);
            }
        } else {
            let col_blocks = n.div_ceil(NC);
            let (rb, cb) = (local / col_blocks, local % col_blocks);
            let i0 = rb * MC;
            let mt = MC.min(m - i0);
            let j0 = cb * NC;
            let nt = NC.min(n - j0);
            // SAFETY: tiles partition the job's window and jobs' windows
            // are disjoint, so this CTile is an exclusive capability; the
            // parallel region joins before `c`'s borrow ends.
            let mut tile = CTile {
                base: unsafe { out.base().add(j.c_off) },
                len: out.len() - j.c_off,
                n,
                i0,
                j0,
                _c: std::marker::PhantomData,
            };
            gemm_tile_serial(
                isa,
                j.layout,
                j.alpha,
                j.a,
                j.b,
                Epilogue::Add,
                &mut tile,
                m,
                k,
                n,
                (i0, mt),
                (j0, nt),
                (0, k),
            );
        }
    });
}

/// Shared batched driver: per-batch `C_b += α · op(A_b) · op(B_b)`,
/// dispatched through the flattened (batch × tile) grid of
/// [`gemm_batch_into`]. A single-batch call falls back to the full [`gemm`]
/// dispatch so skinny-deep shapes keep their split-K path.
#[allow(clippy::too_many_arguments)]
fn bmm_driver(
    layout: GemmLayout,
    alpha: f32,
    a: &Tensor,
    b: &Tensor,
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
) -> Tensor {
    let (a_sz, b_sz) = (m * k, k * n);
    let mut c = scratch::zeroed(bs * m * n);
    let (ao, bo) = (a.data(), b.data());
    if bs == 1 {
        gemm(layout, alpha, ao, bo, &mut c, m, k, n);
    } else {
        let jobs: Vec<GemmJob<'_>> = (0..bs)
            .map(|bi| GemmJob {
                layout,
                alpha,
                a: &ao[bi * a_sz..(bi + 1) * a_sz],
                b: &bo[bi * b_sz..(bi + 1) * b_sz],
                m,
                k,
                n,
                c_off: bi * m * n,
            })
            .collect();
        gemm_batch_into(&jobs, &mut c);
    }
    Tensor::from_vec(c, [bs, m, n])
}

/// Per-batch / per-tile body that never spawns nested parallelism: used by
/// the batched parallel loop and by the flash-attention tile kernels, whose
/// drivers already own the task-level fan-out. The epilogue lets the
/// attention tiles reuse scratch score buffers without a `fill(0.0)`
/// pre-pass (`Epilogue::Assign` overwrites in the micro-kernel store).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_serial_or_small(
    layout: GemmLayout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    epi: Epilogue<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // The product is zero but the epilogue contract still holds —
        // Assign must clear a reused scratch buffer, AddBias must add.
        return epi_pre_pass(epi, c, n);
    }
    if m * n * k < SMALL_FLOPS {
        epi_pre_pass(epi, c, n);
        gemm_small(layout, alpha, a, b, c, m, k, n);
    } else {
        gemm_serial(simd::active_isa(), layout, alpha, a, b, epi, c, m, k, n);
    }
}

/// Batched `[B,m,k] × [B,k,n] -> [B,m,n]`.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_scaled(a, b, 1.0)
}

/// Batched `[B,m,k] × [B,k,n] -> α·[B,m,n]` (scale folded into packing).
pub fn bmm_scaled(a: &Tensor, b: &Tensor, alpha: f32) -> Tensor {
    let (bs, m, k, _, k2, n) = bmm_dims(a, b);
    assert_eq!(k, k2, "bmm inner dims {} vs {}", a.shape(), b.shape());
    bmm_driver(GemmLayout::NN, alpha, a, b, bs, m, k, n)
}

/// Batched `[B,m,k] × [B,n,k]ᵀ -> [B,m,n]` (attention scores `Q·Kᵀ`).
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_nt_scaled(a, b, 1.0)
}

/// Batched `α · Q·Kᵀ`: the fused attention-score kernel (`1/√d` never
/// materializes a scaled copy — it rides along in the A panel packing).
pub fn bmm_nt_scaled(a: &Tensor, b: &Tensor, alpha: f32) -> Tensor {
    let (bs, m, k, _, n, k2) = bmm_dims(a, b);
    assert_eq!(k, k2, "bmm_nt inner dims {} vs {}", a.shape(), b.shape());
    bmm_driver(GemmLayout::NT, alpha, a, b, bs, m, k, n)
}

/// Batched `[B,k,m]ᵀ × [B,k,n] -> [B,m,n]` (attention backward `Aᵀ·dY`).
pub fn bmm_tn(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_tn_scaled(a, b, 1.0)
}

/// Batched `α · Aᵀ·B` (backward of the scaled-score kernel).
pub fn bmm_tn_scaled(a: &Tensor, b: &Tensor, alpha: f32) -> Tensor {
    let (bs, k, m, _, k2, n) = bmm_dims(a, b);
    assert_eq!(k, k2, "bmm_tn inner dims {} vs {}", a.shape(), b.shape());
    bmm_driver(GemmLayout::TN, alpha, a, b, bs, m, k, n)
}

// ---------------------------------------------------------------------------
// Bench hooks
// ---------------------------------------------------------------------------

/// Bench-only access to the serial blocked driver and the pack
/// internals — **not a stable API**. Pinning the serial driver keeps the
/// kernel BENCH entries single-core on any host (the public `matmul`
/// would otherwise parallelize).
#[doc(hidden)]
pub mod bench_api {
    use super::*;

    /// Whole-product GEMM on the serial blocked driver.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_fast_serial(
        layout: GemmLayout,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        gemm_serial(
            simd::active_isa(),
            layout,
            alpha,
            a,
            b,
            Epilogue::Add,
            c,
            m,
            k,
            n,
        );
    }

    /// [`gemm_fast_serial`] with the fused Linear epilogue: `C += α·op(A)·op(B)
    /// + bias`, the serial body of [`crate::ops::matmul_bias`].
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_bias_serial(
        layout: GemmLayout,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert_eq!(bias.len(), n, "bias len {} vs n {n}", bias.len());
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        gemm_serial(
            simd::active_isa(),
            layout,
            alpha,
            a,
            b,
            Epilogue::AddBias(bias),
            c,
            m,
            k,
            n,
        );
    }

    /// Pack the first `MC×KC` A block of a logical `[m, k]` operand into
    /// the active ISA's micro-panel layout (so every tier packs the same
    /// panels): `NN` is the strided gather through `isa`'s transpose
    /// (`a` row-major `[m, k]`), `TN` the contiguous copy (`a` row-major
    /// `[k, m]`). `buf` must hold [`pack_a_buf_len`] elements; returns the
    /// packed element count so callers can report pack bandwidth.
    pub fn pack_a_block(
        isa: Isa,
        layout: GemmLayout,
        a: &[f32],
        m: usize,
        k: usize,
        buf: &mut [f32],
    ) -> usize {
        let (mr, _) = simd::gemm_tile_shape(simd::active_isa());
        let (mc, kc) = (MC.min(m), KC.min(k));
        pack_a(isa, layout, 1.0, a, m, k, 0, mc, 0, kc, mr, buf);
        mc * kc
    }

    /// Scratch size [`pack_a_block`] needs for the active ISA.
    pub fn pack_a_buf_len() -> usize {
        let (mr, _) = simd::gemm_tile_shape(simd::active_isa());
        MC.div_ceil(mr) * mr * KC
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(i * k + p) * b.at(p * n + j);
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn([7, 5], 1.0, &mut rng);
        let b = Tensor::randn([5, 9], 1.0, &mut rng);
        let c = matmul(&a, &b);
        let expect = naive_matmul(&a, &b);
        for (x, y) in c.data().iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::new(2);
        let a = Tensor::randn([4, 4], 1.0, &mut rng);
        let mut eye = vec![0.0; 16];
        for i in 0..4 {
            eye[i * 4 + i] = 1.0;
        }
        let id = Tensor::from_vec(eye, [4, 4]);
        let c = matmul(&a, &id);
        assert!(a.max_abs_diff(&c) < 1e-6);
    }

    #[test]
    fn nt_equals_nn_with_transposed_b() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn([6, 8], 1.0, &mut rng);
        let bt = Tensor::randn([10, 8], 1.0, &mut rng); // b = btᵀ : [8,10]
        let via_nt = matmul_nt(&a, &bt);
        // materialize bᵀ manually
        let mut b = vec![0.0; 80];
        for i in 0..10 {
            for j in 0..8 {
                b[j * 10 + i] = bt.at(i * 8 + j);
            }
        }
        let via_nn = matmul(&a, &Tensor::from_vec(b, [8, 10]));
        assert!(via_nt.max_abs_diff(&via_nn) < 1e-4);
    }

    #[test]
    fn tn_equals_nn_with_transposed_a() {
        let mut rng = Rng::new(4);
        let at = Tensor::randn([8, 6], 1.0, &mut rng); // a = atᵀ : [6,8]
        let b = Tensor::randn([8, 5], 1.0, &mut rng);
        let via_tn = matmul_tn(&at, &b);
        let mut a = vec![0.0; 48];
        for i in 0..8 {
            for j in 0..6 {
                a[j * 8 + i] = at.at(i * 6 + j);
            }
        }
        let via_nn = matmul(&Tensor::from_vec(a, [6, 8]), &b);
        assert!(via_tn.max_abs_diff(&via_nn) < 1e-4);
    }

    #[test]
    fn bmm_matches_per_slice_matmul() {
        let mut rng = Rng::new(5);
        let a = Tensor::randn([3, 4, 6], 1.0, &mut rng);
        let b = Tensor::randn([3, 6, 5], 1.0, &mut rng);
        let c = bmm(&a, &b);
        for bi in 0..3 {
            let a_s = Tensor::from_vec(a.data()[bi * 24..(bi + 1) * 24].to_vec(), [4, 6]);
            let b_s = Tensor::from_vec(b.data()[bi * 30..(bi + 1) * 30].to_vec(), [6, 5]);
            let c_s = matmul(&a_s, &b_s);
            let got = &c.data()[bi * 20..(bi + 1) * 20];
            for (x, y) in got.iter().zip(c_s.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn bmm_nt_scores_shape_and_symmetry() {
        let mut rng = Rng::new(6);
        let q = Tensor::randn([2, 5, 4], 1.0, &mut rng);
        let s = bmm_nt(&q, &q);
        assert_eq!(s.dims(), &[2, 5, 5]);
        // q·qᵀ is symmetric per batch
        for b in 0..2 {
            for i in 0..5 {
                for j in 0..5 {
                    let x = s.at(b * 25 + i * 5 + j);
                    let y = s.at(b * 25 + j * 5 + i);
                    assert!((x - y).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn batched_lhs_matmul_folds_leading_axes() {
        let mut rng = Rng::new(7);
        let a = Tensor::randn([2, 3, 4], 1.0, &mut rng);
        let w = Tensor::randn([4, 6], 1.0, &mut rng);
        let c = matmul(&a, &w);
        assert_eq!(c.dims(), &[2, 3, 6]);
    }

    #[test]
    fn large_parallel_path_consistent_with_small() {
        let mut rng = Rng::new(8);
        let a = Tensor::randn([300, 64], 1.0, &mut rng);
        let b = Tensor::randn([64, 128], 1.0, &mut rng);
        let big = matmul(&a, &b);
        // spot-check a few entries against naive dot
        for &(i, j) in &[(0usize, 0usize), (7, 100), (299, 127), (150, 64)] {
            let mut s = 0.0;
            for p in 0..64 {
                s += a.at(i * 64 + p) * b.at(p * 128 + j);
            }
            assert!((big.at(i * 128 + j) - s).abs() < 1e-3);
        }
    }

    // ---- blocked-kernel edge shapes -----------------------------------

    /// Reference product via explicit index arithmetic for any layout.
    fn reference(
        layout: GemmLayout,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for p in 0..k {
                    let av = match layout {
                        GemmLayout::TN => a[p * m + i],
                        _ => a[i * k + p],
                    } as f64;
                    let bv = match layout {
                        GemmLayout::NT => b[j * k + p],
                        _ => b[p * n + j],
                    } as f64;
                    s += av * bv;
                }
                c[i * n + j] = s;
            }
        }
        c.into_iter().map(|x| x as f32).collect()
    }

    fn check_layout(layout: GemmLayout, m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let (a_len, b_len) = (m * k, k * n);
        let mut a = vec![0.0f32; a_len];
        let mut b = vec![0.0f32; b_len];
        rng.fill_normal(&mut a, 1.0);
        rng.fill_normal(&mut b, 1.0);
        let mut c = vec![0.0f32; m * n];
        gemm(layout, 1.0, &a, &b, &mut c, m, k, n);
        let want = reference(layout, &a, &b, m, k, n);
        for (i, (x, y)) in c.iter().zip(&want).enumerate() {
            assert!(
                (x - y).abs() < 1e-3 * k.max(1) as f32,
                "{layout:?} {m}x{k}x{n} differs at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn k_zero_leaves_output_zero_filled() {
        for layout in [GemmLayout::NN, GemmLayout::NT, GemmLayout::TN] {
            let mut c = vec![0.0f32; 3 * 4];
            gemm(layout, 1.0, &[], &[], &mut c, 3, 0, 4);
            assert!(c.iter().all(|&x| x == 0.0), "{layout:?}");
        }
    }

    #[test]
    fn row_and_column_vector_shapes() {
        for layout in [GemmLayout::NN, GemmLayout::NT, GemmLayout::TN] {
            check_layout(layout, 1, 33, 17, 21); // m = 1
            check_layout(layout, 19, 33, 1, 22); // n = 1
            check_layout(layout, 1, 1, 1, 23); // all degenerate
        }
    }

    #[test]
    fn non_multiple_of_tile_dims() {
        for layout in [GemmLayout::NN, GemmLayout::NT, GemmLayout::TN] {
            check_layout(layout, 67, 33, 129, 31);
        }
    }

    #[test]
    fn blocked_path_spans_panel_boundaries() {
        // Crosses MC/KC/NC at least once in every dimension. The k/n
        // remnants exceed the tail-absorption thresholds (one micro-tile
        // of columns, KC_ABSORB of depth), so a second block genuinely
        // runs; sub-threshold remnants are covered by
        // `ragged_tile_edges_match_reference_every_isa`.
        for layout in [GemmLayout::NN, GemmLayout::NT, GemmLayout::TN] {
            check_layout(layout, MC + 3, KC + 37, NC + 40, 41);
        }
    }

    #[test]
    fn alpha_scales_product_exactly() {
        let mut rng = Rng::new(51);
        let a = Tensor::randn([40, 30], 1.0, &mut rng);
        let b = Tensor::randn([30, 20], 1.0, &mut rng);
        let mut c1 = vec![0.0f32; 40 * 20];
        let mut c2 = vec![0.0f32; 40 * 20];
        gemm(GemmLayout::NN, 2.5, a.data(), b.data(), &mut c1, 40, 30, 20);
        gemm(GemmLayout::NN, 1.0, a.data(), b.data(), &mut c2, 40, 30, 20);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - 2.5 * y).abs() < 1e-3);
        }
    }

    #[test]
    fn gemm_accumulates_into_nonzero_c() {
        let mut rng = Rng::new(52);
        let a = Tensor::randn([10, 12], 1.0, &mut rng);
        let b = Tensor::randn([12, 9], 1.0, &mut rng);
        let mut c = vec![1.0f32; 10 * 9];
        gemm(GemmLayout::NN, 1.0, a.data(), b.data(), &mut c, 10, 12, 9);
        let want = reference(GemmLayout::NN, a.data(), b.data(), 10, 12, 9);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - (y + 1.0)).abs() < 1e-3);
        }
    }

    #[test]
    fn split_k_path_matches_reference() {
        // Skinny output with deep k: 2 rows, deep depth — forces the
        // split-K parallel path when threads are available.
        let m = 2;
        let k = 4 * KC + 37;
        let n = 6;
        check_layout(GemmLayout::NN, m, k, n, 61);
        check_layout(GemmLayout::NT, m, k, n, 62);
        check_layout(GemmLayout::TN, m, k, n, 63);
    }

    #[test]
    fn parallel_2d_path_matches_reference() {
        check_layout(GemmLayout::NN, 2 * MC + 9, 2 * KC + 1, 2 * NC + 11, 71);
    }

    /// The transposed-A pack as a copy, a zero fill and a separate scale
    /// pass per depth step: the reference the fused pack must reproduce
    /// bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn tn_pack_a_copy_loop(
        alpha: f32,
        a: &[f32],
        m: usize,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
        mr: usize,
        buf: &mut [f32],
    ) {
        for r in 0..mc.div_ceil(mr) {
            let row0 = ic + r * mr;
            let rows = mr.min(ic + mc - row0);
            let panel = &mut buf[r * mr * kc..(r + 1) * mr * kc];
            for p in 0..kc {
                let s0 = (pc + p) * m + row0;
                let dst = &mut panel[p * mr..p * mr + mr];
                dst[..rows].copy_from_slice(&a[s0..s0 + rows]);
                dst[rows..].fill(0.0);
                for v in dst[..rows].iter_mut() {
                    *v *= alpha;
                }
            }
        }
    }

    #[test]
    fn tn_pack_a_matches_the_copy_loop_on_every_isa() {
        // Full panels and zero-padded tails (m = 1, mr − 1, 257), blocks
        // at the origin and at nonzero (ic, pc), and α ∈ {1, ¼, −1.5}.
        for isa in Isa::available() {
            let (mr, _) = simd::gemm_tile_shape(isa);
            for &m in &[1usize, mr - 1, 120, 128, 257] {
                let k = 300;
                let mut a = vec![0.0f32; k * m];
                Rng::new(m as u64).fill_normal(&mut a, 1.0);
                for &(ic, pc) in &[(0usize, 0usize), (m / 3, 7), (m - 1, 44)] {
                    let (mc, kc) = ((m - ic).min(MC), (k - pc).min(KC));
                    let len = mc.div_ceil(mr) * mr * kc;
                    for &alpha in &[1.0f32, 0.25, -1.5] {
                        // Both buffers start dirty so the padding must be
                        // written, not inherited.
                        let mut got = vec![f32::NAN; len];
                        let mut want = vec![f32::NAN; len];
                        pack_a(
                            isa,
                            GemmLayout::TN,
                            alpha,
                            &a,
                            m,
                            k,
                            ic,
                            mc,
                            pc,
                            kc,
                            mr,
                            &mut got,
                        );
                        tn_pack_a_copy_loop(alpha, &a, m, ic, mc, pc, kc, mr, &mut want);
                        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{} m={m} ic={ic} pc={pc} alpha={alpha} at {i}",
                                isa.name()
                            );
                        }
                    }
                }
            }
        }
    }

    // ---- ISA matrix: every available micro-kernel, every layout ---------

    /// Blocked product on an explicit ISA (skips the small-op fast path so
    /// the micro-kernel and packing run even for tiny shapes).
    #[allow(clippy::too_many_arguments)]
    fn gemm_blocked_isa(
        isa: Isa,
        layout: GemmLayout,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        gemm_serial(isa, layout, 1.0, a, b, Epilogue::Add, c, m, k, n);
    }

    #[test]
    fn micro_kernel_edge_shapes_every_isa() {
        // m, n sweep the micro-tile edges {1, MR−1, MR, MR+1, 130} /
        // {1, NR−1, NR, NR+1, 130} of each ISA's tile shape; k crosses
        // nothing (1), an odd prime, and a non-multiple spanning a panel.
        for isa in Isa::available() {
            let (mr, nr) = simd::gemm_tile_shape(isa);
            for layout in [GemmLayout::NN, GemmLayout::NT, GemmLayout::TN] {
                for &m in &[1usize, mr - 1, mr, mr + 1, 130] {
                    for &n in &[1usize, nr - 1, nr, nr + 1, 130] {
                        for &k in &[1usize, 3, 130] {
                            let mut rng = Rng::new((m * 7 + n * 11 + k) as u64);
                            let mut a = vec![0.0f32; m * k];
                            let mut b = vec![0.0f32; k * n];
                            rng.fill_normal(&mut a, 1.0);
                            rng.fill_normal(&mut b, 1.0);
                            let mut c = vec![0.0f32; m * n];
                            gemm_blocked_isa(isa, layout, &a, &b, &mut c, m, k, n);
                            let want = reference(layout, &a, &b, m, k, n);
                            for (i, (x, y)) in c.iter().zip(&want).enumerate() {
                                assert!(
                                    (x - y).abs() < 1e-3 * k.max(1) as f32,
                                    "{} {layout:?} {m}x{k}x{n} differs at {i}: {x} vs {y}",
                                    isa.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn simd_isas_agree_with_scalar_within_ulps() {
        // The micro-kernels accumulate strictly k-major per output element
        // in every ISA, so SIMD results should round like the scalar
        // kernel's — allow 2 ulps of slack for the store epilogue.
        fn ulps(a: f32, b: f32) -> u64 {
            fn key(x: f32) -> i64 {
                let bits = x.to_bits();
                if bits & 0x8000_0000 != 0 {
                    -((bits & 0x7fff_ffff) as i64)
                } else {
                    bits as i64
                }
            }
            (key(a) - key(b)).unsigned_abs()
        }
        let (m, k, n) = (67, KC + 9, 65); // spans a depth-block boundary
        let mut rng = Rng::new(101);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        rng.fill_normal(&mut a, 1.0);
        rng.fill_normal(&mut b, 1.0);
        for layout in [GemmLayout::NN, GemmLayout::NT, GemmLayout::TN] {
            let mut scalar = vec![0.0f32; m * n];
            gemm_blocked_isa(Isa::Scalar, layout, &a, &b, &mut scalar, m, k, n);
            for isa in Isa::available() {
                let mut c = vec![0.0f32; m * n];
                gemm_blocked_isa(isa, layout, &a, &b, &mut c, m, k, n);
                for (i, (x, y)) in c.iter().zip(&scalar).enumerate() {
                    assert!(
                        ulps(*x, *y) <= 2,
                        "{} {layout:?} elem {i}: {x} vs scalar {y}",
                        isa.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bias_epilogue_every_isa_square_nn() {
        // The satellite check behind the matmul_bias bench fix: the bias
        // epilogue must engage (and be exact) at square NN shapes on every
        // ISA path, including full 256³ where all panel blocks are full.
        for isa in Isa::available() {
            let (m, k, n) = (256usize, 256usize, 256usize);
            let mut rng = Rng::new(103);
            let mut a = vec![0.0f32; m * k];
            let mut b = vec![0.0f32; k * n];
            let mut bias = vec![0.0f32; n];
            rng.fill_normal(&mut a, 1.0);
            rng.fill_normal(&mut b, 1.0);
            rng.fill_normal(&mut bias, 1.0);
            let mut fused = vec![0.0f32; m * n];
            gemm_serial(
                isa,
                GemmLayout::NN,
                1.0,
                &a,
                &b,
                Epilogue::AddBias(&bias),
                &mut fused,
                m,
                k,
                n,
            );
            let mut plain = vec![0.0f32; m * n];
            gemm_serial(
                isa,
                GemmLayout::NN,
                1.0,
                &a,
                &b,
                Epilogue::Add,
                &mut plain,
                m,
                k,
                n,
            );
            for (i, (f, p)) in fused.iter().zip(&plain).enumerate() {
                let want = p + bias[i % n];
                assert!(
                    (f - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "{} elem {i}: {f} vs {want}",
                    isa.name()
                );
            }
        }
    }

    // ---- bitwise determinism of the parallel drivers --------------------

    #[test]
    fn parallel_2d_driver_bitwise_matches_serial() {
        // Tiles partition C and every tile runs the identical serial
        // blocked code, so the 2-D driver must be bitwise equal to the
        // whole-output serial product — at any thread count, on the SIMD
        // paths included.
        let (m, k, n) = (MC + 9, KC + 1, NC + 11);
        let mut rng = Rng::new(104);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        rng.fill_normal(&mut a, 1.0);
        rng.fill_normal(&mut b, 1.0);
        for isa in Isa::available() {
            let mut serial = vec![0.0f32; m * n];
            gemm_serial(
                isa,
                GemmLayout::NN,
                1.0,
                &a,
                &b,
                Epilogue::Add,
                &mut serial,
                m,
                k,
                n,
            );
            let mut par2d = vec![0.0f32; m * n];
            gemm_parallel_2d(
                isa,
                GemmLayout::NN,
                1.0,
                &a,
                &b,
                Epilogue::Add,
                &mut par2d,
                m,
                k,
                n,
                m.div_ceil(MC),
                n.div_ceil(NC),
            );
            for (i, (x, y)) in par2d.iter().zip(&serial).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{} elem {i}", isa.name());
            }
        }
    }

    #[test]
    fn split_k_driver_bitwise_matches_shape_derived_fold() {
        // Split-K's partial grouping is derived from k alone; replaying
        // the same chunking serially must reproduce it bit for bit on
        // every ISA (this is the thread-count-independence argument: the
        // grouping never depends on the worker count).
        let (m, k, n) = (2usize, 4 * KC + 37, 6usize);
        let mut rng = Rng::new(105);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        rng.fill_normal(&mut a, 1.0);
        rng.fill_normal(&mut b, 1.0);
        for isa in Isa::available() {
            let mut split = vec![0.0f32; m * n];
            gemm_parallel_split_k(isa, GemmLayout::NN, 1.0, &a, &b, &mut split, m, k, n);
            // Replay the shape-derived schedule serially.
            const GRAIN: usize = 4 * KC;
            let chunks = k.div_ceil(GRAIN).min(16);
            let per = k.div_ceil(chunks);
            let mut want = vec![0.0f32; m * n];
            for t in 0..chunks {
                let (p0, p1) = (t * per, ((t + 1) * per).min(k));
                let mut partial = vec![0.0f32; m * n];
                let mut tile = CTile::new(&mut partial, n, 0, 0);
                gemm_tile_serial(
                    isa,
                    GemmLayout::NN,
                    1.0,
                    &a,
                    &b,
                    Epilogue::Add,
                    &mut tile,
                    m,
                    k,
                    n,
                    (0, m),
                    (0, n),
                    (p0, p1),
                );
                for (w, p) in want.iter_mut().zip(&partial) {
                    *w += p;
                }
            }
            for (i, (x, y)) in split.iter().zip(&want).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{} elem {i}", isa.name());
            }
        }
    }

    fn check_bias_epilogue(m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        let mut bias = vec![0.0f32; n];
        rng.fill_normal(&mut a, 1.0);
        rng.fill_normal(&mut b, 1.0);
        rng.fill_normal(&mut bias, 1.0);
        let mut fused = vec![0.0f32; m * n];
        gemm_bias(GemmLayout::NN, 1.0, &a, &b, &bias, &mut fused, m, k, n);
        let mut want = vec![0.0f32; m * n];
        gemm(GemmLayout::NN, 1.0, &a, &b, &mut want, m, k, n);
        for (row, w) in want.chunks_mut(n).zip(fused.chunks(n)) {
            for ((x, &bv), &f) in row.iter_mut().zip(&bias).zip(w) {
                *x += bv;
                assert!((*x - f).abs() < 1e-3, "{m}x{k}x{n}: {x} vs {f}");
            }
        }
    }

    #[test]
    fn bias_epilogue_matches_separate_add_across_paths() {
        check_bias_epilogue(5, 6, 7, 91); // small direct loops
        check_bias_epilogue(67, 40, 50, 92); // serial blocked
        check_bias_epilogue(MC + 3, KC + 5, NC + 7, 93); // spans panel blocks
        check_bias_epilogue(2, 4 * KC + 37, 6, 94); // split-K shape
    }

    #[test]
    fn bias_epilogue_with_zero_depth_is_bias_broadcast() {
        let bias = [1.0f32, -2.0, 3.0];
        let mut c = vec![0.5f32; 2 * 3];
        gemm_bias(GemmLayout::NN, 1.0, &[], &[], &bias, &mut c, 2, 0, 3);
        assert_eq!(c, vec![1.5, -1.5, 3.5, 1.5, -1.5, 3.5]);
    }

    // ---- ragged fast path: masked tails, pooled scratch, batched grid ---

    /// The satellite coverage matrix: every ISA × NN/NT/TN × m,n drawn
    /// from the tile edges {MR−1, MR, MR+1, 2·MR+3} / {NR−1, NR, NR+1,
    /// 2·NR+3}, k crossing nothing / an odd prime / a panel boundary.
    /// Property checked per case: the blocked kernel ≤ a k-scaled bound
    /// from the f64 reference (the masked tails follow the same k-major
    /// ulp policy as the full tiles).
    #[test]
    fn ragged_tile_edges_match_reference_every_isa() {
        for isa in Isa::available() {
            let (mr, nr) = simd::gemm_tile_shape(isa);
            for layout in [GemmLayout::NN, GemmLayout::NT, GemmLayout::TN] {
                for &m in &[mr - 1, mr, mr + 1, 2 * mr + 3] {
                    for &n in &[nr - 1, nr, nr + 1, 2 * nr + 3] {
                        for &k in &[1usize, 31, KC + 5] {
                            let mut rng = Rng::new((m * 131 + n * 17 + k) as u64);
                            let mut a = vec![0.0f32; m * k];
                            let mut b = vec![0.0f32; k * n];
                            rng.fill_normal(&mut a, 1.0);
                            rng.fill_normal(&mut b, 1.0);
                            let mut c = vec![0.0f32; m * n];
                            gemm_serial(isa, layout, 1.0, &a, &b, Epilogue::Add, &mut c, m, k, n);
                            let want = reference(layout, &a, &b, m, k, n);
                            for (i, (x, y)) in c.iter().zip(&want).enumerate() {
                                assert!(
                                    (x - y).abs() < 1e-3 * k.max(1) as f32,
                                    "{} {layout:?} {m}x{k}x{n} elem {i}: {x} vs {y}",
                                    isa.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Row-major `[rows, cols]` zero-padded to `[rows_to, cols_to]`.
    fn zero_pad(src: &[f32], rows: usize, cols: usize, rows_to: usize, cols_to: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows_to * cols_to];
        for (dst, row) in out.chunks_mut(cols_to).zip(src.chunks(cols).take(rows)) {
            dst[..cols].copy_from_slice(row);
        }
        out
    }

    /// Whole-product parity for the masked edge tiles: a ragged product
    /// must be bitwise identical to the same product on operands
    /// zero-padded (in each layout's stored orientation) to whole
    /// micro-tiles, which runs only full tiles. Padding adds zero rows /
    /// columns of C, never a term to a kept element, and the depth
    /// blocking is the same on both sides, so k may span several depth
    /// blocks.
    #[test]
    fn ragged_fast_path_bitwise_matches_zero_padded_full_tiles() {
        for isa in Isa::available() {
            let (mr, nr) = simd::gemm_tile_shape(isa);
            for layout in [GemmLayout::NN, GemmLayout::NT, GemmLayout::TN] {
                for &(m, n, k) in &[
                    (mr + 1, nr + 1, 37usize),
                    (2 * mr + 3, nr - 1, KC - 9),
                    (MC + 1, NC + 1, 33),
                    (mr + 1, 2 * nr + 3, 2 * KC + 7),
                    (2 * mr + 3, nr + 1, KC + 40),
                ] {
                    let mut rng = Rng::new((m * 7 + n * 29 + k) as u64);
                    let mut a = vec![0.0f32; m * k];
                    let mut b = vec![0.0f32; k * n];
                    rng.fill_normal(&mut a, 1.0);
                    rng.fill_normal(&mut b, 1.0);
                    let mut fast = vec![0.0f32; m * n];
                    gemm_serial(isa, layout, 1.0, &a, &b, Epilogue::Add, &mut fast, m, k, n);
                    let (mp, np) = (m.next_multiple_of(mr), n.next_multiple_of(nr));
                    let ap = match layout {
                        GemmLayout::TN => zero_pad(&a, k, m, k, mp),
                        _ => zero_pad(&a, m, k, mp, k),
                    };
                    let bp = match layout {
                        GemmLayout::NT => zero_pad(&b, n, k, np, k),
                        _ => zero_pad(&b, k, n, k, np),
                    };
                    let mut full = vec![0.0f32; mp * np];
                    gemm_serial(
                        isa,
                        layout,
                        1.0,
                        &ap,
                        &bp,
                        Epilogue::Add,
                        &mut full,
                        mp,
                        k,
                        np,
                    );
                    for (i, x) in fast.iter().enumerate() {
                        let y = full[(i / n) * np + i % n];
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{} {layout:?} {m}x{k}x{n} elem {i}: {x} vs {y}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    /// Recycled (dirty) scratch buffers must not change a single bit: run
    /// the same product on a cold arena and again after unrelated work has
    /// dirtied the pooled buffers.
    #[test]
    fn ragged_pooled_scratch_bitwise_matches_fresh_alloc() {
        let (m, k, n) = (MC + 7, KC + 3, NC + 5);
        let mut rng = Rng::new(271);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        rng.fill_normal(&mut a, 1.0);
        rng.fill_normal(&mut b, 1.0);
        let mut cold = vec![0.0f32; m * n];
        gemm(GemmLayout::NN, 1.0, &a, &b, &mut cold, m, k, n);
        // Dirty the arena with a differently-shaped product and a split-K
        // shape (which borrows the partial buffer).
        let mut junk = vec![0.0f32; 2 * 6];
        gemm(
            GemmLayout::NT,
            -3.0,
            &a[..2 * (4 * KC + 37)],
            &b[..(4 * KC + 37) * 6],
            &mut junk,
            2,
            4 * KC + 37,
            6,
        );
        let mut warm = vec![0.0f32; m * n];
        gemm(GemmLayout::NN, 1.0, &a, &b, &mut warm, m, k, n);
        for (i, (x, y)) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "elem {i}");
        }
    }

    /// The flattened (batch × tile) dispatcher must be bitwise identical
    /// to replaying its jobs one at a time through the serial path — task
    /// claiming order can never matter because each tile runs identical
    /// serial code over the full depth.
    #[test]
    fn ragged_batched_dispatcher_bitwise_matches_serial_replay() {
        // Heterogeneous job list: a tiled job, a small direct-loop job,
        // and an empty-depth job, with ragged shapes.
        let mut rng = Rng::new(272);
        let shapes = [
            (MC + 9, 40usize, NC + 17),
            (9, 11, 13),
            (67, 129, 65),
            (5, 0, 7),
        ];
        let mut operands = Vec::new();
        for &(m, k, n) in &shapes {
            let mut a = vec![0.0f32; m * k];
            let mut b = vec![0.0f32; k * n];
            rng.fill_normal(&mut a, 1.0);
            rng.fill_normal(&mut b, 1.0);
            operands.push((a, b));
        }
        let layouts = [
            GemmLayout::NN,
            GemmLayout::NT,
            GemmLayout::TN,
            GemmLayout::NN,
        ];
        let mut off = 0;
        let mut jobs = Vec::new();
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            jobs.push(GemmJob {
                layout: layouts[i],
                alpha: 0.5 + i as f32,
                a: &operands[i].0,
                b: &operands[i].1,
                m,
                k,
                n,
                c_off: off,
            });
            off += m * n;
        }
        let total = off;
        let mut batched = vec![0.0f32; total];
        gemm_batch_into(&jobs, &mut batched);
        // Serial replay: one job at a time through the serial entry.
        let mut replay = vec![0.0f32; total];
        for j in &jobs {
            gemm_serial_or_small(
                j.layout,
                j.alpha,
                j.a,
                j.b,
                Epilogue::Add,
                &mut replay[j.c_off..j.c_off + j.m * j.n],
                j.m,
                j.k,
                j.n,
            );
        }
        for (i, (x, y)) in batched.iter().zip(&replay).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "elem {i}: {x} vs {y}");
        }
    }

    /// Ragged bmm through the flattened grid vs per-slice matmul.
    #[test]
    fn ragged_bmm_batches_match_per_slice_products() {
        let mut rng = Rng::new(273);
        // Tile-plus-one shape in every dimension, enough batches that the
        // flattened grid spans several jobs.
        let (bs, m, k, n) = (5usize, 65usize, 33usize, 129usize);
        let a = Tensor::randn([bs, m, k], 1.0, &mut rng);
        let b = Tensor::randn([bs, k, n], 1.0, &mut rng);
        let c = bmm(&a, &b);
        for bi in 0..bs {
            let a_s = Tensor::from_vec(a.data()[bi * m * k..(bi + 1) * m * k].to_vec(), [m, k]);
            let b_s = Tensor::from_vec(b.data()[bi * k * n..(bi + 1) * k * n].to_vec(), [k, n]);
            let want = matmul(&a_s, &b_s);
            let got = &c.data()[bi * m * n..(bi + 1) * m * n];
            for (x, y) in got.iter().zip(want.data()) {
                assert!((x - y).abs() < 1e-3, "batch {bi}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn scaled_bmm_variants_match_scale_after() {
        let mut rng = Rng::new(81);
        let q = Tensor::randn([3, 10, 8], 1.0, &mut rng);
        let kt = Tensor::randn([3, 12, 8], 1.0, &mut rng);
        let fused = bmm_nt_scaled(&q, &kt, 0.25);
        let unfused = bmm_nt(&q, &kt).map(|x| 0.25 * x);
        assert!(fused.max_abs_diff(&unfused) < 1e-5);
    }
}
