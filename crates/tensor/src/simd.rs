//! Explicit-SIMD compute core: runtime-dispatched vector kernels.
//!
//! One module owns every piece of lane-level code in the tensor crate. The
//! GEMM micro-kernel (full tiles plus the trimmed masked-tail edge
//! kernels), its store epilogues, the transpose-gather panel pack, and the
//! hot elementwise sweeps (`exp`, `tanh`/GELU, softmax max/sum,
//! layernorm's chunked Welford pass, the in-place AdamW update) are
//! written once over a small `Vf32` vector abstraction
//! (load/store/masked load/store/fma/min/max/blend/sqrt + horizontal
//! folds) and instantiated per ISA:
//!
//! * **AVX-512** — `F32x16` (`__m512`); the GEMM micro-kernel holds an
//!   8×32 accumulator (16 ZMM registers + 2 B vectors + 1 broadcast = 19 of
//!   32 architectural registers).
//! * **AVX2 + FMA** — `F32x8` (`__m256`); 6×16 accumulator (12 YMM plus
//!   2 B vectors and 1 broadcast = 15 of 16 registers — the same register
//!   arithmetic the old auto-vectorized kernel encoded implicitly).
//! * **Scalar** — safe Rust over fixed-size `[f32; 8]` windows, exactly the
//!   pre-SIMD kernels. This is both the portability fallback and the
//!   reference the SIMD paths are ulp-tested against.
//!
//! # CRC-32
//!
//! [`crc32`] (IEEE, reflected: the zlib / ethernet checksum every
//! checkpoint entry, section, footer and manifest carries) rides the same
//! dispatch, but on integer lanes:
//!
//! * **AVX-512 and AVX2** run one 128-bit carry-less-multiply fold (Intel's
//!   "Fast CRC Computation Using PCLMULQDQ", the method zlib, crc32fast and
//!   Linux use): four lanes fold 64 bytes per step, then collapse to one
//!   lane, reduce 128 → 64 bits and finish with a Barrett reduction. It
//!   needs `pclmulqdq` and `sse4.1`, checked at run time; a CPU without
//!   them takes the scalar path. Inputs under 64 bytes and the last
//!   `len % 16` bytes go through the scalar update.
//! * **Scalar** runs slicing-by-8 (eight 256-entry tables, eight bytes per
//!   step) and the classic byte loop for the `len % 8` tail.
//!
//! CRC arithmetic is exact, so every tier returns the same value bit for
//! bit; tests compare each against a table-free bitwise reference.
//!
//! # Dispatch strategy
//!
//! The ISA is selected **once per process** via
//! [`is_x86_feature_detected!`] and cached ([`active_isa`]); every kernel
//! entry point reads the cached value and branches to its per-ISA
//! `#[target_feature]` wrapper. The `DCHAG_FORCE_ISA` environment variable
//! (`avx512` / `avx2` / `scalar`) overrides detection for testing — forcing
//! an ISA the host cannot run is a hard error, never silent misexecution.
//! Tests that need to cover several ISAs in one process use the `*_isa`
//! variants, which take the ISA explicitly; [`Isa::available`] enumerates
//! what the host supports.
//!
//! # Determinism and ulp policy
//!
//! Within one ISA, every kernel is bitwise deterministic at any thread
//! count: lane groupings are fixed by the ISA's vector width and the
//! parallel drivers above this module never change reduction grouping with
//! the worker count. Across ISAs:
//!
//! * **Elementwise** sweeps (`exp`, `tanh`, GELU, AdamW) perform the same
//!   IEEE operation sequence per element in every ISA, so they agree with
//!   the scalar path to ≤ 2 ulps (and are bitwise identical in practice).
//! * **Reductions** (row sums, Welford moments) fold lanes in a fixed tree
//!   order that differs from the scalar left-to-right order, so results
//!   agree within a few ulps but not bitwise. The GEMM micro-kernel
//!   accumulates strictly k-major per output element in every ISA, so its
//!   per-element rounding matches the scalar kernel's.

use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// ISA selection
// ---------------------------------------------------------------------------

/// Instruction-set tier the lane-level kernels run on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Isa {
    /// AVX-512F: 16-lane vectors, 8×32 GEMM accumulator.
    Avx512,
    /// AVX2 + FMA: 8-lane vectors, 6×16 GEMM accumulator.
    Avx2,
    /// Safe auto-vectorized Rust: the portability fallback and ulp
    /// reference.
    Scalar,
}

impl Isa {
    /// Short name recorded by the bench emitters.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512f",
            Isa::Avx2 => "avx2+fma",
            Isa::Scalar => "scalar",
        }
    }

    /// Every ISA this host can execute, widest first (always ends with
    /// [`Isa::Scalar`]). Tests iterate this to cover all paths in-process.
    pub fn available() -> Vec<Isa> {
        let mut out = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                out.push(Isa::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                out.push(Isa::Avx2);
            }
        }
        out.push(Isa::Scalar);
        out
    }

    /// Whether this host can execute the ISA. Cheap (the feature macros
    /// cache in atomics), so the dispatchers check it unconditionally —
    /// `Isa` variants are freely constructible by safe code, and jumping
    /// into a `#[target_feature]` kernel the CPU lacks would be UB.
    fn supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

fn detect() -> Isa {
    if let Ok(v) = std::env::var("DCHAG_FORCE_ISA") {
        let forced = match v.trim() {
            "" | "auto" | "native" => None,
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" | "avx512f" => Some(Isa::Avx512),
            other => {
                panic!("DCHAG_FORCE_ISA={other:?} not recognized (use avx512 | avx2 | scalar)")
            }
        };
        if let Some(isa) = forced {
            assert!(
                isa.supported(),
                "DCHAG_FORCE_ISA={} but this host does not support it",
                isa.name()
            );
            return isa;
        }
    }
    *Isa::available().first().unwrap()
}

/// The process-wide ISA every dispatched kernel runs on, selected once
/// (detection + `DCHAG_FORCE_ISA` override) and cached.
pub fn active_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(detect)
}

// ---------------------------------------------------------------------------
// GEMM tile geometry
// ---------------------------------------------------------------------------

/// `(MR, NR)` register micro-tile shape for an ISA. The accumulator is
/// always two vector registers wide (`NR = 2 × lanes`), so each A-element
/// broadcast feeds two FMAs and the kernel is FMA-port-bound rather than
/// load-port-bound. Public so the bench emitter can record the shape the
/// numbers ran on.
pub fn gemm_tile_shape(isa: Isa) -> (usize, usize) {
    match isa {
        // 16 ZMM accumulators + 2 B + 1 broadcast = 19 of 32 registers.
        Isa::Avx512 => (8, 32),
        // 12 YMM accumulators + 2 B + 1 broadcast = 15 of 16 registers.
        Isa::Avx2 | Isa::Scalar => (6, 16),
    }
}

/// What the micro-kernel store does with this tile's result. The bias
/// slice is already offset to the tile's first column (length ≥ `nr`).
#[derive(Clone, Copy)]
pub(crate) enum MicroEpi<'a> {
    /// `C += P`.
    Add,
    /// `C += P + bias` (bias added exactly once, on the first depth block).
    AddBias(&'a [f32]),
    /// `C = P` (scratch reuse without a `fill(0.0)` pre-pass).
    Assign,
}

// ---------------------------------------------------------------------------
// Scalar kernels (the Scalar ISA path and the ulp reference)
// ---------------------------------------------------------------------------

/// Vectorizable exp: Cephes-style polynomial (the coefficient set classic
/// `expf` implementations ship), accurate to ~1 ulp over the clamped
/// domain.
///
/// libm `expf` is an opaque call that serializes every lane of a softmax or
/// flash-attention sweep. This version reduces `x = n·ln2 + r` with the
/// round-to-nearest magic-number trick (no `round` libm call), evaluates a
/// degree-5 polynomial for `e^r` (Horner, FMA-contracted), and rebuilds
/// `2^n` by exponent-field bit assembly. The SIMD sweeps perform the
/// identical operation sequence per lane.
///
/// Domain: inputs are clamped to `[-87, 88]` (beyond which f32 `exp`
/// under/overflows anyway); softmax feeds only `x − max ≤ 0`. NaN
/// propagates.
#[inline(always)]
#[allow(clippy::excessive_precision)] // Cephes constants kept verbatim: LN2_HI must be the exactly-representable 0x3F318000
pub fn exp_fast(x: f32) -> f32 {
    let x = x.clamp(EXP_LO, EXP_HI);
    let n = (x * LOG2E + MAGIC) - MAGIC;
    let r = n.mul_add(-LN2_HI, x);
    let r = n.mul_add(-LN2_LO, r);
    let p = r.mul_add(EXP_P0, EXP_P1);
    let p = r.mul_add(p, EXP_P2);
    let p = r.mul_add(p, EXP_P3);
    let p = r.mul_add(p, EXP_P4);
    let p = r.mul_add(p, EXP_P5);
    let er = (p * r).mul_add(r, r) + 1.0;
    // 2^n by exponent assembly; n ∈ [-126, 127] after the clamp, so the
    // biased exponent stays in the normal range. (NaN takes `n as i32` = 0,
    // scale 1, and propagates through `er`.)
    let scale = f32::from_bits((((n as i32) + 127) as u32) << 23);
    er * scale
}

const LOG2E: f32 = std::f32::consts::LOG2_E;
// ln2 split hi/lo so `x − n·ln2` stays exact to f32 precision.
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
// Round-to-nearest-even via the 1.5·2^23 magic constant: adding forces the
// integer into the mantissa, subtracting recovers it as a float.
const MAGIC: f32 = 12_582_912.0;
const EXP_LO: f32 = -87.0;
const EXP_HI: f32 = 88.0;
const EXP_P0: f32 = 1.987_569_2e-4;
const EXP_P1: f32 = 1.398_2e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_6e-1;
#[allow(clippy::excessive_precision)] // Cephes constant kept verbatim
const EXP_P5: f32 = 5.000_000_1e-1;

/// Vectorizable tanh: Cephes-style rational approximation (the coefficient
/// set Eigen ships), accurate to a few f32 ulps over the clamped domain.
///
/// `f32::tanh` is an opaque libm call, so a GELU loop built on it can never
/// vectorize — the call serializes every lane. The
/// odd-polynomial-over-even-polynomial form (Horner, FMA-contracted) is
/// straight-line arithmetic the SIMD sweeps replicate lane-for-lane.
#[inline(always)]
pub fn tanh_fast(x: f32) -> f32 {
    // tanh saturates to ±1 in f32 past ~7.9; clamping there also bounds the
    // polynomial's valid domain. NaN propagates through clamp → p/q.
    let x = x.clamp(-TANH_BOUND, TANH_BOUND);
    let x2 = x * x;
    let p = x2.mul_add(TANH_A13, TANH_A11);
    let p = x2.mul_add(p, TANH_A9);
    let p = x2.mul_add(p, TANH_A7);
    let p = x2.mul_add(p, TANH_A5);
    let p = x2.mul_add(p, TANH_A3);
    let p = x * x2.mul_add(p, TANH_A1);
    let q = x2.mul_add(TANH_B6, TANH_B4);
    let q = x2.mul_add(q, TANH_B2);
    let q = x2.mul_add(q, TANH_B0);
    p / q
}

const TANH_BOUND: f32 = 7.905;
const TANH_A1: f32 = 4.893_525_5e-3;
const TANH_A3: f32 = 6.372_619_3e-4;
const TANH_A5: f32 = 1.485_722_4e-5;
const TANH_A7: f32 = 5.122_297_1e-8;
const TANH_A9: f32 = -8.604_672e-11;
const TANH_A11: f32 = 2.000_188e-13;
const TANH_A13: f32 = -2.760_768_5e-16;
const TANH_B0: f32 = 4.893_525e-3;
const TANH_B2: f32 = 2.268_434_6e-3;
const TANH_B4: f32 = 1.185_347_1e-4;
const TANH_B6: f32 = 1.198_258_4e-6;

pub(crate) const SQRT_2_OVER_PI: f32 = 0.797_884_6;
pub(crate) const GELU_C: f32 = 0.044_715;

/// GELU, tanh approximation (matches PyTorch `approximate="tanh"`).
#[inline(always)]
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_fast(SQRT_2_OVER_PI * (x + GELU_C * x * x * x)))
}

/// Welford chunk width: statistics are combined once per this many
/// elements, so the hot loop is a straight sum/sum-of-squares.
pub(crate) const WELFORD_CHUNK: usize = 64;

/// Reflected IEEE CRC-32 polynomial (zlib / ethernet).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `T[0]` is the classic byte table, and `T[k][i]` is
/// the register after byte `i` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

mod scalar {
    use super::*;

    #[inline]
    pub fn row_max(row: &[f32]) -> f32 {
        row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    }

    #[inline]
    pub fn row_sum(row: &[f32]) -> f32 {
        row.iter().sum()
    }

    #[inline]
    pub fn exp_sub_sweep(row: &mut [f32], m: f32) {
        for x in row.iter_mut() {
            *x = exp_fast(*x - m);
        }
    }

    #[inline]
    pub fn gelu_into(src: &[f32], dst: &mut [f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = gelu_scalar(s);
        }
    }

    #[inline]
    pub fn gelu_sweep(row: &mut [f32]) {
        for x in row.iter_mut() {
            *x = gelu_scalar(*x);
        }
    }

    /// Single-sweep `(mean, variance)` of one row via chunked Welford:
    /// each chunk accumulates a plain (vectorizable) shifted sum and
    /// sum-of-squares, folded into the running `(mean, M2)` pair with
    /// Chan's parallel-combine update.
    pub fn welford_stats(row: &[f32]) -> (f32, f32) {
        let n = row.len();
        let mut mean = 0.0f32;
        let mut m2 = 0.0f32;
        let mut count = 0usize;
        for chunk in row.chunks(WELFORD_CHUNK) {
            // Shift by the chunk's first element so the sums are over
            // values of magnitude ≈ the data's spread, not its offset —
            // this keeps the straight sums as well-conditioned as
            // per-element Welford.
            let shift = chunk[0];
            let (mut s, mut s2) = (0.0f32, 0.0f32);
            for &x in chunk {
                let v = x - shift;
                s += v;
                s2 = v.mul_add(v, s2);
            }
            let (mean2, m22) = combine_chunk(mean, m2, count, shift, s, s2, chunk.len());
            mean = mean2;
            m2 = m22;
            count += chunk.len();
        }
        (mean, m2 / n as f32)
    }

    pub fn adamw(p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], h: &AdamParams) {
        for (((x, mm), vv), &gg) in p.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
            adamw_scalar_step(x, mm, vv, gg, h);
        }
    }

    /// The safe auto-vectorized micro-kernel (the pre-SIMD kernel, kept
    /// verbatim): `[f32; 8]` windows whose inner loops LLVM turns into
    /// 8-lane FMAs. MR = 6, NR = 16 processed as two 8-wide halves.
    ///
    /// # Safety
    /// `c` must point at an exclusive `mr×nr` window with row stride `ldc`
    /// (same contract as the SIMD kernels).
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_micro(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
        epi: MicroEpi<'_>,
    ) {
        const MR: usize = 6;
        const NRH: usize = 8;
        const NR: usize = 16;

        #[inline(always)]
        fn step(acc0: &mut [[f32; NRH]; MR], acc1: &mut [[f32; NRH]; MR], a: &[f32], b: &[f32]) {
            let a: &[f32; MR] = a.try_into().unwrap();
            let b0: &[f32; NRH] = b[..NRH].try_into().unwrap();
            let b1: &[f32; NRH] = b[NRH..NR].try_into().unwrap();
            for i in 0..MR {
                let ai = a[i];
                for j in 0..NRH {
                    // `mul_add` lowers to a hardware FMA once the j-loop
                    // vectorizes (Rust never contracts `a*b + c` on its
                    // own).
                    acc0[i][j] = ai.mul_add(b0[j], acc0[i][j]);
                }
                for j in 0..NRH {
                    acc1[i][j] = ai.mul_add(b1[j], acc1[i][j]);
                }
            }
        }

        /// The k-loop lives in its own function that returns the
        /// accumulators **by value**: promoted to registers for the whole
        /// loop, materialized once on exit. Accumulating into arrays the
        /// enclosing scope later indexes dynamically would instead leave
        /// the alloca live and spill every iteration (measured 1.6×
        /// slower).
        #[inline(always)]
        fn accumulate(kc: usize, ap: &[f32], bp: &[f32]) -> ([[f32; NRH]; MR], [[f32; NRH]; MR]) {
            let mut acc0 = [[0.0f32; NRH]; MR];
            let mut acc1 = [[0.0f32; NRH]; MR];
            // Two depth steps per iteration: the even unroll keeps the
            // accumulator registers in place (an odd rotation costs a
            // register-copy per row per step, which hurts FMA throughput).
            let kc2 = kc & !1;
            let mut p = 0;
            while p < kc2 {
                step(
                    &mut acc0,
                    &mut acc1,
                    &ap[p * MR..(p + 1) * MR],
                    &bp[p * NR..(p + 1) * NR],
                );
                step(
                    &mut acc0,
                    &mut acc1,
                    &ap[(p + 1) * MR..(p + 2) * MR],
                    &bp[(p + 1) * NR..(p + 2) * NR],
                );
                p += 2;
            }
            if p < kc {
                step(
                    &mut acc0,
                    &mut acc1,
                    &ap[p * MR..(p + 1) * MR],
                    &bp[p * NR..(p + 1) * NR],
                );
            }
            (acc0, acc1)
        }

        let (acc0, acc1) = accumulate(kc, ap, bp);

        for i in 0..mr {
            let crow = std::slice::from_raw_parts_mut(c.add(i * ldc), nr);
            match epi {
                MicroEpi::Add => {
                    for (j, cv) in crow.iter_mut().enumerate() {
                        let half = if j < NRH { &acc0 } else { &acc1 };
                        *cv += half[i][j % NRH];
                    }
                }
                MicroEpi::AddBias(bias) => {
                    for (j, cv) in crow.iter_mut().enumerate() {
                        let half = if j < NRH { &acc0 } else { &acc1 };
                        *cv += half[i][j % NRH] + bias[j];
                    }
                }
                MicroEpi::Assign => {
                    for (j, cv) in crow.iter_mut().enumerate() {
                        let half = if j < NRH { &acc0 } else { &acc1 };
                        *cv = half[i][j % NRH];
                    }
                }
            }
        }
    }

    /// Scalar transpose-gather pack (the pre-SIMD loop, and the reference
    /// the vector path is bitwise-tested against):
    /// `dst[p·pad + i] = α · src[i·stride + p]`, rows `rows..pad` zeroed.
    ///
    /// # Safety
    /// `src` readable at `i·stride + p` for `i < rows`, `p < kc`; `dst`
    /// writable for `pad·kc` elements.
    pub unsafe fn pack_transpose(
        src: *const f32,
        stride: usize,
        rows: usize,
        pad: usize,
        kc: usize,
        dst: *mut f32,
        alpha: f32,
    ) {
        for p in 0..kc {
            let d = dst.add(p * pad);
            for i in 0..rows {
                *d.add(i) = alpha * *src.add(i * stride + p);
            }
            for i in rows..pad {
                *d.add(i) = 0.0;
            }
        }
    }

    /// Slicing-by-8 CRC-32 update of the raw (un-inverted) register:
    /// eight table lookups retire eight bytes, and the byte loop finishes
    /// the `len % 8` tail.
    pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
        let t = &CRC_TABLES;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }
}

/// Chan's parallel combine of a chunk's shifted `(s, s2)` sums into the
/// running `(mean, M2)` pair — shared by the scalar and SIMD Welford
/// sweeps so only the in-chunk summation differs between ISAs.
#[inline(always)]
fn combine_chunk(
    mean: f32,
    m2: f32,
    count: usize,
    shift: f32,
    s: f32,
    s2: f32,
    chunk_len: usize,
) -> (f32, f32) {
    let c = chunk_len as f32;
    let chunk_mean = shift + s / c;
    // M2 of the chunk around its own mean.
    let chunk_m2 = (s2 - s * (s / c)).max(0.0);
    let total = count as f32 + c;
    let delta = chunk_mean - mean;
    (
        mean + delta * (c / total),
        m2 + chunk_m2 + delta * delta * (count as f32 * c / total),
    )
}

/// AdamW per-element update, shared between the scalar sweep and the SIMD
/// tails so every path rounds identically.
#[inline(always)]
fn adamw_scalar_step(x: &mut f32, mm: &mut f32, vv: &mut f32, gg: f32, h: &AdamParams) {
    *mm = h.beta1 * *mm + (1.0 - h.beta1) * gg;
    *vv = h.beta2 * *vv + (1.0 - h.beta2) * gg * gg;
    let mhat = *mm / h.bias_c1;
    let vhat = *vv / h.bias_c2;
    *x -= h.lr * (mhat / (vhat.sqrt() + h.eps) + h.weight_decay * *x);
}

// ---------------------------------------------------------------------------
// x86 vector abstraction + SIMD kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    #![allow(clippy::missing_safety_doc)] // blanket contract: see `Vf32`
    use super::{AdamParams, MicroEpi, WELFORD_CHUNK};
    use core::arch::x86_64::*;

    /// Lane-parallel f32 vector: the abstraction every SIMD kernel is
    /// written over, instantiated as [`F32x8`] (AVX2+FMA) and [`F32x16`]
    /// (AVX-512F).
    ///
    /// # Safety
    ///
    /// Every method lowers to ISA intrinsics. Callers must only invoke
    /// them from a context where the matching target features are enabled
    /// (i.e. inside the `#[target_feature]` wrappers below, after runtime
    /// detection); the methods are `#[inline(always)]` so they compile to
    /// single instructions there.
    pub(super) trait Vf32: Copy {
        const LANES: usize;
        unsafe fn splat(v: f32) -> Self;
        unsafe fn zero() -> Self;
        unsafe fn load(p: *const f32) -> Self;
        unsafe fn store(self, p: *mut f32);
        unsafe fn add(self, o: Self) -> Self;
        unsafe fn sub(self, o: Self) -> Self;
        unsafe fn mul(self, o: Self) -> Self;
        unsafe fn div(self, o: Self) -> Self;
        /// Lanewise minimum; returns the **second** operand when either
        /// lane is NaN (x86 `minps` semantics), so `hi.min(x)` propagates
        /// a NaN in `x`.
        unsafe fn min(self, o: Self) -> Self;
        /// Lanewise maximum; NaN semantics as [`Vf32::min`].
        unsafe fn max(self, o: Self) -> Self;
        /// `self * b + c`, fused.
        unsafe fn mul_add(self, b: Self, c: Self) -> Self;
        /// Lanewise select: `mask` sign bit set → take from `o`, else from
        /// `self`. Part of the abstraction surface (predicated kernels); the
        /// masked *memory* tails below use dedicated mask loads/stores
        /// instead — a blend-based tail would have to read and write the
        /// full vector width, which is out of bounds at buffer edges.
        #[allow(dead_code)]
        unsafe fn blend(self, o: Self, mask: Self) -> Self;
        /// Masked load of the first `n` lanes (`0 ≤ n ≤ LANES`); lanes at
        /// and past `n` are zero. Bytes past `p + n` are **never read** —
        /// AVX-512 mask registers / AVX2 `vmaskmovps` guarantee the
        /// suppressed lanes generate no memory access, so partial tiles can
        /// sit flush against the end of an allocation.
        unsafe fn load_partial(p: *const f32, n: usize) -> Self;
        /// Masked store of the first `n` lanes; bytes past `p + n` are
        /// never written (same suppression guarantee as
        /// [`Vf32::load_partial`]).
        unsafe fn store_partial(self, p: *mut f32, n: usize);
        unsafe fn sqrt(self) -> Self;
        /// `2^(self as i32)` per lane by exponent-field assembly; lanes
        /// must hold integer-valued floats in `[-126, 127]`.
        unsafe fn exp2i(self) -> Self;
        /// Horizontal sum, fixed tree order (halves, then quarters, …).
        unsafe fn reduce_add(self) -> f32;
        /// Horizontal max, same tree order.
        unsafe fn reduce_max(self) -> f32;
    }

    /// Lane-index mask for AVX2 masked memory ops: lane `i` active iff
    /// `i < n` (`vmaskmovps` keys off each lane's sign bit).
    #[inline(always)]
    unsafe fn lane_mask8(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// 8 × f32 in one YMM register (AVX2 + FMA tier).
    #[derive(Clone, Copy)]
    pub(super) struct F32x8(__m256);

    impl Vf32 for F32x8 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            F32x8(_mm256_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn zero() -> Self {
            F32x8(_mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            F32x8(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            F32x8(_mm256_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            F32x8(_mm256_sub_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            F32x8(_mm256_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn div(self, o: Self) -> Self {
            F32x8(_mm256_div_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn min(self, o: Self) -> Self {
            F32x8(_mm256_min_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            F32x8(_mm256_max_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, c: Self) -> Self {
            F32x8(_mm256_fmadd_ps(self.0, b.0, c.0))
        }
        #[inline(always)]
        unsafe fn blend(self, o: Self, mask: Self) -> Self {
            F32x8(_mm256_blendv_ps(self.0, o.0, mask.0))
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f32, n: usize) -> Self {
            // `vmaskmovps`: suppressed lanes perform no load and read as 0.
            F32x8(_mm256_maskload_ps(p, lane_mask8(n)))
        }
        #[inline(always)]
        unsafe fn store_partial(self, p: *mut f32, n: usize) {
            _mm256_maskstore_ps(p, lane_mask8(n), self.0)
        }
        #[inline(always)]
        unsafe fn sqrt(self) -> Self {
            F32x8(_mm256_sqrt_ps(self.0))
        }
        #[inline(always)]
        unsafe fn exp2i(self) -> Self {
            let n = _mm256_cvttps_epi32(self.0);
            let e = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
            F32x8(_mm256_castsi256_ps(e))
        }
        #[inline(always)]
        unsafe fn reduce_add(self) -> f32 {
            let lo = _mm256_castps256_ps128(self.0);
            let hi = _mm256_extractf128_ps(self.0, 1);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
            _mm_cvtss_f32(s)
        }
        #[inline(always)]
        unsafe fn reduce_max(self) -> f32 {
            let lo = _mm256_castps256_ps128(self.0);
            let hi = _mm256_extractf128_ps(self.0, 1);
            let s = _mm_max_ps(lo, hi);
            let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
            _mm_cvtss_f32(s)
        }
    }

    /// 16 × f32 in one ZMM register (AVX-512F tier).
    #[derive(Clone, Copy)]
    pub(super) struct F32x16(__m512);

    impl Vf32 for F32x16 {
        const LANES: usize = 16;
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            F32x16(_mm512_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn zero() -> Self {
            F32x16(_mm512_setzero_ps())
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            F32x16(_mm512_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            F32x16(_mm512_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            F32x16(_mm512_sub_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            F32x16(_mm512_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn div(self, o: Self) -> Self {
            F32x16(_mm512_div_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn min(self, o: Self) -> Self {
            F32x16(_mm512_min_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            F32x16(_mm512_max_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, c: Self) -> Self {
            F32x16(_mm512_fmadd_ps(self.0, b.0, c.0))
        }
        #[inline(always)]
        unsafe fn blend(self, o: Self, mask: Self) -> Self {
            // Sign-bit select via the mask register form (AVX-512 has no
            // blendv; movepi32_mask extracts lane sign bits).
            let m = _mm512_movepi32_mask(_mm512_castps_si512(mask.0));
            F32x16(_mm512_mask_blend_ps(m, self.0, o.0))
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f32, n: usize) -> Self {
            // `n ≤ 16`, so the u32 shift never overflows; masked-off lanes
            // are zeroed and generate no memory access.
            let m = (1u32.wrapping_shl(n as u32) - 1) as __mmask16;
            F32x16(_mm512_maskz_loadu_ps(m, p))
        }
        #[inline(always)]
        unsafe fn store_partial(self, p: *mut f32, n: usize) {
            let m = (1u32.wrapping_shl(n as u32) - 1) as __mmask16;
            _mm512_mask_storeu_ps(p, m, self.0)
        }
        #[inline(always)]
        unsafe fn sqrt(self) -> Self {
            F32x16(_mm512_sqrt_ps(self.0))
        }
        #[inline(always)]
        unsafe fn exp2i(self) -> Self {
            let n = _mm512_cvttps_epi32(self.0);
            let e = _mm512_slli_epi32(_mm512_add_epi32(n, _mm512_set1_epi32(127)), 23);
            F32x16(_mm512_castsi512_ps(e))
        }
        #[inline(always)]
        unsafe fn reduce_add(self) -> f32 {
            // Quarter extraction is plain AVX-512F (extractf32x8 would need
            // DQ); fold ((q0+q1)+(q2+q3)) then the 128-bit tree.
            let q0 = _mm512_extractf32x4_ps(self.0, 0);
            let q1 = _mm512_extractf32x4_ps(self.0, 1);
            let q2 = _mm512_extractf32x4_ps(self.0, 2);
            let q3 = _mm512_extractf32x4_ps(self.0, 3);
            let s = _mm_add_ps(_mm_add_ps(q0, q1), _mm_add_ps(q2, q3));
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
            _mm_cvtss_f32(s)
        }
        #[inline(always)]
        unsafe fn reduce_max(self) -> f32 {
            let q0 = _mm512_extractf32x4_ps(self.0, 0);
            let q1 = _mm512_extractf32x4_ps(self.0, 1);
            let q2 = _mm512_extractf32x4_ps(self.0, 2);
            let q3 = _mm512_extractf32x4_ps(self.0, 3);
            let s = _mm_max_ps(_mm_max_ps(q0, q1), _mm_max_ps(q2, q3));
            let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
            _mm_cvtss_f32(s)
        }
    }

    // ---- generic vector math (mirrors the scalar kernels op-for-op) ----

    /// Clamp with NaN propagation: `hi.min(lo.max(x))` keeps `x` in the
    /// second operand of both ops, so x86 NaN semantics pass NaN through.
    #[inline(always)]
    unsafe fn vclamp<V: Vf32>(x: V, lo: V, hi: V) -> V {
        hi.min(lo.max(x))
    }

    /// Lane-parallel [`super::exp_fast`], identical operation sequence.
    #[inline(always)]
    unsafe fn vexp<V: Vf32>(x: V) -> V {
        use super::*;
        let x = vclamp(x, V::splat(EXP_LO), V::splat(EXP_HI));
        let magic = V::splat(MAGIC);
        let n = x.mul(V::splat(LOG2E)).add(magic).sub(magic);
        let r = n.mul_add(V::splat(-LN2_HI), x);
        let r = n.mul_add(V::splat(-LN2_LO), r);
        let p = r.mul_add(V::splat(EXP_P0), V::splat(EXP_P1));
        let p = r.mul_add(p, V::splat(EXP_P2));
        let p = r.mul_add(p, V::splat(EXP_P3));
        let p = r.mul_add(p, V::splat(EXP_P4));
        let p = r.mul_add(p, V::splat(EXP_P5));
        let er = p.mul(r).mul_add(r, r).add(V::splat(1.0));
        er.mul(n.exp2i())
    }

    /// Lane-parallel [`super::tanh_fast`], identical operation sequence.
    #[inline(always)]
    unsafe fn vtanh<V: Vf32>(x: V) -> V {
        use super::*;
        let x = vclamp(x, V::splat(-TANH_BOUND), V::splat(TANH_BOUND));
        let x2 = x.mul(x);
        let p = x2.mul_add(V::splat(TANH_A13), V::splat(TANH_A11));
        let p = x2.mul_add(p, V::splat(TANH_A9));
        let p = x2.mul_add(p, V::splat(TANH_A7));
        let p = x2.mul_add(p, V::splat(TANH_A5));
        let p = x2.mul_add(p, V::splat(TANH_A3));
        let p = x.mul(x2.mul_add(p, V::splat(TANH_A1)));
        let q = x2.mul_add(V::splat(TANH_B6), V::splat(TANH_B4));
        let q = x2.mul_add(q, V::splat(TANH_B2));
        let q = x2.mul_add(q, V::splat(TANH_B0));
        p.div(q)
    }

    /// Lane-parallel [`super::gelu_scalar`], identical operation sequence.
    #[inline(always)]
    unsafe fn vgelu<V: Vf32>(x: V) -> V {
        use super::*;
        let x3 = V::splat(GELU_C).mul(x).mul(x).mul(x);
        let t = vtanh(V::splat(SQRT_2_OVER_PI).mul(x.add(x3)));
        V::splat(0.5).mul(x).mul(V::splat(1.0).add(t))
    }

    // ---- generic sweep bodies ----

    #[inline(always)]
    unsafe fn row_max_v<V: Vf32>(row: &[f32]) -> f32 {
        let n = row.len() / V::LANES * V::LANES;
        let p = row.as_ptr();
        let mut m = super::scalar::row_max(&row[n..]);
        if n > 0 {
            let mut acc = V::load(p);
            let mut i = V::LANES;
            while i < n {
                acc = acc.max(V::load(p.add(i)));
                i += V::LANES;
            }
            m = m.max(acc.reduce_max());
        }
        m
    }

    #[inline(always)]
    unsafe fn row_sum_v<V: Vf32>(row: &[f32]) -> f32 {
        let n = row.len() / V::LANES * V::LANES;
        let p = row.as_ptr();
        let mut acc = V::zero();
        let mut i = 0;
        while i < n {
            acc = acc.add(V::load(p.add(i)));
            i += V::LANES;
        }
        acc.reduce_add() + super::scalar::row_sum(&row[n..])
    }

    #[inline(always)]
    unsafe fn exp_sub_sweep_v<V: Vf32>(row: &mut [f32], m: f32) {
        let n = row.len() / V::LANES * V::LANES;
        let p = row.as_mut_ptr();
        let mv = V::splat(m);
        let mut i = 0;
        while i < n {
            vexp(V::load(p.add(i)).sub(mv)).store(p.add(i));
            i += V::LANES;
        }
        super::scalar::exp_sub_sweep(&mut row[n..], m);
    }

    #[inline(always)]
    unsafe fn gelu_ptr_v<V: Vf32>(src: *const f32, dst: *mut f32, len: usize) {
        let n = len / V::LANES * V::LANES;
        let mut i = 0;
        while i < n {
            vgelu(V::load(src.add(i))).store(dst.add(i));
            i += V::LANES;
        }
        for j in n..len {
            *dst.add(j) = super::gelu_scalar(*src.add(j));
        }
    }

    #[inline(always)]
    unsafe fn welford_v<V: Vf32>(row: &[f32]) -> (f32, f32) {
        let n = row.len();
        let mut mean = 0.0f32;
        let mut m2 = 0.0f32;
        let mut count = 0usize;
        for chunk in row.chunks(WELFORD_CHUNK) {
            let shift = chunk[0];
            let nv = chunk.len() / V::LANES * V::LANES;
            let p = chunk.as_ptr();
            let sv = V::splat(shift);
            let mut sacc = V::zero();
            let mut s2acc = V::zero();
            let mut i = 0;
            while i < nv {
                let v = V::load(p.add(i)).sub(sv);
                sacc = sacc.add(v);
                s2acc = v.mul_add(v, s2acc);
                i += V::LANES;
            }
            let mut s = sacc.reduce_add();
            let mut s2 = s2acc.reduce_add();
            for &x in &chunk[nv..] {
                let v = x - shift;
                s += v;
                s2 = v.mul_add(v, s2);
            }
            let (mean2, m22) = super::combine_chunk(mean, m2, count, shift, s, s2, chunk.len());
            mean = mean2;
            m2 = m22;
            count += chunk.len();
        }
        (mean, m2 / n as f32)
    }

    #[inline(always)]
    unsafe fn adamw_v<V: Vf32>(
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        h: &AdamParams,
    ) {
        let n = p.len() / V::LANES * V::LANES;
        let (b1, b2) = (V::splat(h.beta1), V::splat(h.beta2));
        let (ob1, ob2) = (V::splat(1.0 - h.beta1), V::splat(1.0 - h.beta2));
        let (bc1, bc2) = (V::splat(h.bias_c1), V::splat(h.bias_c2));
        let (lr, eps, wd) = (V::splat(h.lr), V::splat(h.eps), V::splat(h.weight_decay));
        let (pp, mp, vp, gp) = (p.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
        let mut i = 0;
        while i < n {
            let gg = V::load(gp.add(i));
            // Same op order as `adamw_scalar_step`: (β·m) + ((1−β)·g),
            // no FMA contraction, so lanes round like the scalar path.
            let mm = b1.mul(V::load(mp.add(i))).add(ob1.mul(gg));
            let vv = b2.mul(V::load(vp.add(i))).add(ob2.mul(gg).mul(gg));
            mm.store(mp.add(i));
            vv.store(vp.add(i));
            let mhat = mm.div(bc1);
            let vhat = vv.div(bc2);
            let x = V::load(pp.add(i));
            let upd = mhat.div(vhat.sqrt().add(eps)).add(wd.mul(x));
            x.sub(lr.mul(upd)).store(pp.add(i));
            i += V::LANES;
        }
        for j in n..p.len() {
            super::adamw_scalar_step(&mut p[j], &mut m[j], &mut v[j], g[j], h);
        }
    }

    /// Full-tile k-loop: `MRV × 2` accumulator vectors, one A broadcast
    /// feeding two FMAs per row per depth step. Returned **by value** so
    /// the accumulators stay register-resident (see the scalar kernel's
    /// spill note).
    #[inline(always)]
    unsafe fn gemm_acc_full_v<V: Vf32, const MRV: usize>(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
    ) -> [[V; 2]; MRV] {
        let nrv = 2 * V::LANES;
        let mut acc = [[V::zero(); 2]; MRV];
        let mut p = 0;
        while p < kc {
            let b0 = V::load(bp.add(p * nrv));
            let b1 = V::load(bp.add(p * nrv + V::LANES));
            let a = ap.add(p * MRV);
            for (i, accr) in acc.iter_mut().enumerate() {
                let ai = V::splat(*a.add(i));
                accr[0] = ai.mul_add(b0, accr[0]);
                accr[1] = ai.mul_add(b1, accr[1]);
            }
            p += 1;
        }
        acc
    }

    /// Fused full-tile store (`mr == MRV`, `nr == 2·LANES`): the epilogue
    /// rides in the register stores.
    #[inline(always)]
    unsafe fn gemm_store_full_v<V: Vf32, const MRV: usize>(
        acc: &[[V; 2]; MRV],
        c: *mut f32,
        ldc: usize,
        epi: MicroEpi<'_>,
    ) {
        match epi {
            MicroEpi::Add => {
                for (i, a) in acc.iter().enumerate() {
                    let cp = c.add(i * ldc);
                    V::load(cp).add(a[0]).store(cp);
                    let cp1 = cp.add(V::LANES);
                    V::load(cp1).add(a[1]).store(cp1);
                }
            }
            MicroEpi::AddBias(bias) => {
                // Matches the scalar epilogue's `c + (acc + bias)`.
                let bv0 = V::load(bias.as_ptr());
                let bv1 = V::load(bias.as_ptr().add(V::LANES));
                for (i, a) in acc.iter().enumerate() {
                    let cp = c.add(i * ldc);
                    V::load(cp).add(a[0].add(bv0)).store(cp);
                    let cp1 = cp.add(V::LANES);
                    V::load(cp1).add(a[1].add(bv1)).store(cp1);
                }
            }
            MicroEpi::Assign => {
                for (i, a) in acc.iter().enumerate() {
                    let cp = c.add(i * ldc);
                    a[0].store(cp);
                    a[1].store(cp.add(V::LANES));
                }
            }
        }
    }

    /// Edge-tile micro-kernel, instantiated per compile-time row count
    /// `MR` (≤ the ISA's full tile rows) and accumulator width `NV`
    /// vectors (1 when the tile's columns fit one vector). Two wins over
    /// running the full tile and copying its window out of a scratch
    /// array: partial tiles pay only their true share of FMAs (an
    /// `mr = 1` strip does not run the full `MRV`-row k-loop on zero
    /// padding, a `nr ≤ LANES` strip halves the FMA width),
    /// and the store is masked — lanes past `nr` generate no memory
    /// access, so there is no scratch round-trip and no scalar tail loop.
    ///
    /// Each output element still accumulates strictly k-major with one FMA
    /// per depth step, so edge tiles round exactly like the full-tile and
    /// scalar kernels (the ≤ 2 ulp policy holds tile-shape-independently).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_micro_edge_v<V: Vf32, const MR: usize, const NV: usize>(
        kc: usize,
        ap: *const f32,
        mrv: usize,
        bp: *const f32,
        nrv: usize,
        c: *mut f32,
        ldc: usize,
        nr: usize,
        epi: MicroEpi<'_>,
    ) {
        debug_assert!(nr <= NV * V::LANES && NV <= 2);
        let mut acc = [[V::zero(); NV]; MR];
        let mut p = 0;
        while p < kc {
            let mut b = [V::zero(); NV];
            for (v, bv) in b.iter_mut().enumerate() {
                *bv = V::load(bp.add(p * nrv + v * V::LANES));
            }
            let a = ap.add(p * mrv);
            for (i, accr) in acc.iter_mut().enumerate() {
                let ai = V::splat(*a.add(i));
                for (v, accv) in accr.iter_mut().enumerate() {
                    *accv = ai.mul_add(b[v], *accv);
                }
            }
            p += 1;
        }
        for (i, accr) in acc.iter().enumerate() {
            let cp = c.add(i * ldc);
            for (v, &av) in accr.iter().enumerate() {
                let off = v * V::LANES;
                if off >= nr {
                    break;
                }
                let lanes = (nr - off).min(V::LANES);
                let cpv = cp.add(off);
                match epi {
                    MicroEpi::Add => {
                        V::load_partial(cpv, lanes)
                            .add(av)
                            .store_partial(cpv, lanes);
                    }
                    MicroEpi::AddBias(bias) => {
                        // Same op order as the full tile: c + (acc + bias).
                        let bv = V::load_partial(bias.as_ptr().add(off), lanes);
                        V::load_partial(cpv, lanes)
                            .add(av.add(bv))
                            .store_partial(cpv, lanes);
                    }
                    MicroEpi::Assign => av.store_partial(cpv, lanes),
                }
            }
        }
    }

    /// Dispatch an edge tile onto the const-row-count instantiation: a
    /// runtime-bounded accumulator loop would keep the array addressable
    /// and spill it every k iteration (the measured-1.6× lesson from the
    /// scalar kernel), so each possible `mr` gets its own fully-unrolled
    /// kernel. Arms past the ISA's tile rows are unreachable.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_micro_edge<V: Vf32, const MRV: usize>(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
        nrv: usize,
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
        epi: MicroEpi<'_>,
    ) {
        macro_rules! rows {
            ($m:literal) => {
                if nr <= V::LANES {
                    gemm_micro_edge_v::<V, $m, 1>(kc, ap, MRV, bp, nrv, c, ldc, nr, epi)
                } else {
                    gemm_micro_edge_v::<V, $m, 2>(kc, ap, MRV, bp, nrv, c, ldc, nr, epi)
                }
            };
        }
        match mr {
            1 => rows!(1),
            2 => rows!(2),
            3 => rows!(3),
            4 => rows!(4),
            5 => rows!(5),
            6 => rows!(6),
            7 => rows!(7),
            _ => rows!(8),
        }
    }

    /// GEMM micro-kernel over packed panels: `C[0..mr, 0..nr] (epi)=
    /// Ap(kc×MRV) · Bp(kc×NRV)` where `NRV = 2·LANES`. Full tiles store
    /// straight from the registers with the epilogue fused; partial tiles
    /// route to the trimmed masked-tail kernels ([`gemm_micro_edge_v`]).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_micro_v<V: Vf32, const MRV: usize>(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
        epi: MicroEpi<'_>,
    ) {
        let nrv = 2 * V::LANES;
        if mr != MRV || nr != nrv {
            return gemm_micro_edge::<V, MRV>(kc, ap, bp, nrv, c, ldc, mr, nr, epi);
        }
        let acc = gemm_acc_full_v::<V, MRV>(kc, ap, bp);
        gemm_store_full_v(&acc, c, ldc, epi);
    }

    // ---- SIMD panel packing: transpose-gather via 8×8 shuffle blocks ----

    /// In-register 8×8 f32 transpose: unpack pairs, shuffle quads, then
    /// swap 128-bit halves (the classic AVX recipe — 24 shuffle-port ops
    /// for 64 elements, vs 64 scalar loads for the gather it replaces).
    #[inline(always)]
    unsafe fn transpose8x8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps(t0, t2, 0b01_00_01_00);
        let s1 = _mm256_shuffle_ps(t0, t2, 0b11_10_11_10);
        let s2 = _mm256_shuffle_ps(t1, t3, 0b01_00_01_00);
        let s3 = _mm256_shuffle_ps(t1, t3, 0b11_10_11_10);
        let s4 = _mm256_shuffle_ps(t4, t6, 0b01_00_01_00);
        let s5 = _mm256_shuffle_ps(t4, t6, 0b11_10_11_10);
        let s6 = _mm256_shuffle_ps(t5, t7, 0b01_00_01_00);
        let s7 = _mm256_shuffle_ps(t5, t7, 0b11_10_11_10);
        [
            _mm256_permute2f128_ps(s0, s4, 0x20),
            _mm256_permute2f128_ps(s1, s5, 0x20),
            _mm256_permute2f128_ps(s2, s6, 0x20),
            _mm256_permute2f128_ps(s3, s7, 0x20),
            _mm256_permute2f128_ps(s0, s4, 0x31),
            _mm256_permute2f128_ps(s1, s5, 0x31),
            _mm256_permute2f128_ps(s2, s6, 0x31),
            _mm256_permute2f128_ps(s3, s7, 0x31),
        ]
    }

    /// Transpose-pack a `[rows × kc]` block of a row-major source (row
    /// stride `stride` elements) into a k-major interleaved micro-panel:
    /// `dst[p·pad + i] = α · src[i·stride + p]`, with panel rows
    /// `rows..pad` zero-filled. This is the strided-gather case of GEMM
    /// packing (A panels in NN/NT, B panels in NT's transposed layout) —
    /// the scalar loop walks the source one element per cycle, while 8×8
    /// blocks load eight *contiguous* runs and transpose in registers.
    ///
    /// Runs on plain AVX (8-lane), which both SIMD tiers imply; the
    /// AVX-512 tier gains nothing from 16-wide blocks here because the
    /// destination interleave `pad` is 6 or 8 rows.
    ///
    /// Bitwise identical to the scalar pack: each element sees exactly one
    /// `α · x` multiply on both paths.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn pack_transpose_avx(
        src: *const f32,
        stride: usize,
        rows: usize,
        pad: usize,
        kc: usize,
        dst: *mut f32,
        alpha: f32,
    ) {
        let av = _mm256_set1_ps(alpha);
        let mut i0 = 0;
        while i0 < pad {
            let iw = 8.min(pad - i0); // panel lanes this block stores
            let valid = rows.saturating_sub(i0).min(8); // real source rows
            let mut p0 = 0;
            while p0 < kc {
                let pw = 8.min(kc - p0);
                let mut r = [_mm256_setzero_ps(); 8];
                if pw == 8 {
                    for (i, rv) in r.iter_mut().enumerate().take(valid) {
                        let row = src.add((i0 + i) * stride + p0);
                        *rv = _mm256_mul_ps(_mm256_loadu_ps(row), av);
                    }
                } else {
                    for (i, rv) in r.iter_mut().enumerate().take(valid) {
                        let row = src.add((i0 + i) * stride + p0);
                        *rv = _mm256_mul_ps(F32x8::load_partial(row, pw).0, av);
                    }
                }
                // Rows `valid..8` stay zero vectors, so transposed lanes
                // past `rows` carry the panel's zero padding for free.
                let t = transpose8x8(r);
                if iw == 8 {
                    for (p, tv) in t.iter().enumerate().take(pw) {
                        _mm256_storeu_ps(dst.add((p0 + p) * pad + i0), *tv);
                    }
                } else {
                    for (p, &tv) in t.iter().enumerate().take(pw) {
                        F32x8(tv).store_partial(dst.add((p0 + p) * pad + i0), iw);
                    }
                }
                p0 += pw;
            }
            i0 += iw;
        }
    }

    // ---- CRC-32 by carry-less-multiply folding ----

    // Folding constants for the reflected IEEE polynomial P: each is
    // `x^n mod P`, bit-reflected and shifted left one place (the reflected
    // domain's extra bit). Checked against an independent polynomial
    // computation: K1/K2 fold 512 bits (n = 4·128 ± 32), K3/K4 fold 128
    // bits (n = 128 ± 32), K5 (n = 64) takes 96 bits to 64.
    const CRC_K1: i64 = 0x1_5444_2BD4;
    const CRC_K2: i64 = 0x1_C6E4_1596;
    const CRC_K3: i64 = 0x1_7519_97D0;
    const CRC_K4: i64 = 0x0_CCAA_009E;
    const CRC_K5: i64 = 0x1_63CD_6124;
    /// The polynomial itself, reflected (33 bits).
    const CRC_P: i64 = 0x1_DB71_0641;
    /// Barrett constant `⌊x^64 / P⌋`, reflected (33 bits).
    const CRC_MU: i64 = 0x1_F701_1641;

    /// `a·K_lo ⊕ a·K_hi ⊕ b`: fold the 128-bit lane `a` forward onto the
    /// lane `b` that sits the constants' distance further on.
    #[inline(always)]
    unsafe fn crc_fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// CRC-32 update of the raw register over `bytes` by the Intel folding
    /// method: four 128-bit lanes fold 64 bytes per step, collapse to one
    /// lane, fold the remaining 16-byte blocks, reduce 128 → 64 bits, then a
    /// Barrett reduction to 32. Inputs under 64 bytes and the `len % 16`
    /// tail go through the scalar slicing-by-8 update, so every length
    /// returns the table CRC bit for bit.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn crc32_fold(crc: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::scalar::crc32_update(crc, bytes);
        }
        // Every load below reads one of the `len / 16` whole 16-byte blocks
        // of `bytes` (unaligned loads, so any start address is fine).
        let mut p = bytes.as_ptr() as *const __m128i;
        let mut blocks = bytes.len() / 16;
        let mut x3 = _mm_loadu_si128(p);
        let mut x2 = _mm_loadu_si128(p.add(1));
        let mut x1 = _mm_loadu_si128(p.add(2));
        let mut x0 = _mm_loadu_si128(p.add(3));
        p = p.add(4);
        blocks -= 4;
        // The running register enters as an XOR on the first 32 bits.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(CRC_K2, CRC_K1);
        while blocks >= 4 {
            x3 = crc_fold(x3, _mm_loadu_si128(p), k1k2);
            x2 = crc_fold(x2, _mm_loadu_si128(p.add(1)), k1k2);
            x1 = crc_fold(x1, _mm_loadu_si128(p.add(2)), k1k2);
            x0 = crc_fold(x0, _mm_loadu_si128(p.add(3)), k1k2);
            p = p.add(4);
            blocks -= 4;
        }
        let k3k4 = _mm_set_epi64x(CRC_K4, CRC_K3);
        let mut x = crc_fold(x3, x2, k3k4);
        x = crc_fold(x, x1, k3k4);
        x = crc_fold(x, x0, k3k4);
        while blocks > 0 {
            x = crc_fold(x, _mm_loadu_si128(p), k3k4);
            p = p.add(1);
            blocks -= 1;
        }
        // 128 → 96 bits (low half times K4 onto the high half), then
        // 96 → 64 (low 32 bits times K5 onto the rest).
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, CRC_K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P; the
        // reflected remainder is bits 32..64 of R ⊕ T2.
        let pu = _mm_set_epi64x(CRC_MU, CRC_P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let reg = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        let done = bytes.len() / 16 * 16;
        super::scalar::crc32_update(reg, &bytes[done..])
    }

    // ---- #[target_feature] wrappers (the only non-inlined SIMD symbols) --

    macro_rules! isa_wrappers {
        ($feat:literal, $v:ty, $mrv:expr, $mod_name:ident) => {
            pub(super) mod $mod_name {
                use super::*;

                #[target_feature(enable = $feat)]
                pub unsafe fn row_max(row: &[f32]) -> f32 {
                    row_max_v::<$v>(row)
                }
                #[target_feature(enable = $feat)]
                pub unsafe fn row_sum(row: &[f32]) -> f32 {
                    row_sum_v::<$v>(row)
                }
                #[target_feature(enable = $feat)]
                pub unsafe fn exp_sub_sweep(row: &mut [f32], m: f32) {
                    exp_sub_sweep_v::<$v>(row, m)
                }
                #[target_feature(enable = $feat)]
                pub unsafe fn gelu_into(src: &[f32], dst: &mut [f32]) {
                    debug_assert_eq!(src.len(), dst.len());
                    gelu_ptr_v::<$v>(src.as_ptr(), dst.as_mut_ptr(), dst.len())
                }
                #[target_feature(enable = $feat)]
                pub unsafe fn gelu_sweep(row: &mut [f32]) {
                    gelu_ptr_v::<$v>(row.as_ptr(), row.as_mut_ptr(), row.len())
                }
                #[target_feature(enable = $feat)]
                pub unsafe fn welford_stats(row: &[f32]) -> (f32, f32) {
                    welford_v::<$v>(row)
                }
                #[target_feature(enable = $feat)]
                pub unsafe fn adamw(
                    p: &mut [f32],
                    m: &mut [f32],
                    v: &mut [f32],
                    g: &[f32],
                    h: &AdamParams,
                ) {
                    adamw_v::<$v>(p, m, v, g, h)
                }
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub unsafe fn gemm_micro(
                    kc: usize,
                    ap: &[f32],
                    bp: &[f32],
                    c: *mut f32,
                    ldc: usize,
                    mr: usize,
                    nr: usize,
                    epi: MicroEpi<'_>,
                ) {
                    // Narrow column strips drop to the 8-lane kernel (both
                    // tiers imply AVX2): a 16-lane vector for a `nr ≤ 8`
                    // edge would burn double the FMA width on zero padding.
                    // Reads the same `2·LANES`-interleaved panels — only
                    // the vector width narrows.
                    if nr <= F32x8::LANES && <$v as Vf32>::LANES > F32x8::LANES {
                        return gemm_micro_edge::<F32x8, $mrv>(
                            kc,
                            ap.as_ptr(),
                            bp.as_ptr(),
                            2 * <$v as Vf32>::LANES,
                            c,
                            ldc,
                            mr,
                            nr,
                            epi,
                        );
                    }
                    gemm_micro_v::<$v, $mrv>(kc, ap.as_ptr(), bp.as_ptr(), c, ldc, mr, nr, epi)
                }
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub unsafe fn pack_transpose(
                    src: *const f32,
                    stride: usize,
                    rows: usize,
                    pad: usize,
                    kc: usize,
                    dst: *mut f32,
                    alpha: f32,
                ) {
                    // 8-lane AVX blocks on both tiers: the panel interleave
                    // (6/8 rows) caps the useful block height at 8.
                    pack_transpose_avx(src, stride, rows, pad, kc, dst, alpha)
                }
            }
        };
    }

    isa_wrappers!("avx2,fma", F32x8, 6, avx2);
    isa_wrappers!("avx512f", F32x16, 8, avx512);
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($isa:expr, $name:ident ( $($arg:expr),* )) => {{
        // Unconditional: `Isa` is freely constructible by safe code, and
        // entering a #[target_feature] kernel the CPU lacks is UB, so the
        // (cheap, atomic-cached) feature check is a soundness guard, not a
        // debug aid.
        assert!($isa.supported(), "ISA {:?} not runnable on this host", $isa);
        match $isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported()` was just asserted, so the target
            // features this wrapper enables are present on this CPU.
            Isa::Avx512 => unsafe { x86::avx512::$name($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx2 => unsafe { x86::avx2::$name($($arg),*) },
            #[allow(unreachable_patterns)]
            _ => scalar::$name($($arg),*),
        }
    }};
}

/// Row maximum (softmax's first pass). NaN handling follows the scalar
/// `f32::max` fold only on the Scalar ISA; SIMD paths use x86 max
/// semantics — rows with NaN are unspecified (softmax is garbage on NaN
/// input either way).
pub fn row_max(row: &[f32]) -> f32 {
    row_max_isa(active_isa(), row)
}

/// [`row_max`] on an explicit ISA (must be in [`Isa::available`]).
pub fn row_max_isa(isa: Isa, row: &[f32]) -> f32 {
    dispatch!(isa, row_max(row))
}

/// Row sum (softmax's normalizer pass). SIMD lanes fold in a fixed tree
/// order, so the result differs from the scalar left-to-right sum by a few
/// ulps but is identical for a given ISA at any thread count.
pub fn row_sum(row: &[f32]) -> f32 {
    row_sum_isa(active_isa(), row)
}

/// [`row_sum`] on an explicit ISA.
pub fn row_sum_isa(isa: Isa, row: &[f32]) -> f32 {
    dispatch!(isa, row_sum(row))
}

/// `x ← exp_fast(x − m)` over a row: the softmax / flash-attention
/// exponential sweep. Per-element results are identical on every ISA (same
/// IEEE op sequence per lane).
pub fn exp_sub_sweep(row: &mut [f32], m: f32) {
    exp_sub_sweep_isa(active_isa(), row, m)
}

/// [`exp_sub_sweep`] on an explicit ISA.
pub fn exp_sub_sweep_isa(isa: Isa, row: &mut [f32], m: f32) {
    dispatch!(isa, exp_sub_sweep(row, m))
}

/// `dst ← gelu(src)` (tanh approximation), lane-parallel.
pub fn gelu_into(src: &[f32], dst: &mut [f32]) {
    gelu_into_isa(active_isa(), src, dst)
}

/// [`gelu_into`] on an explicit ISA.
pub fn gelu_into_isa(isa: Isa, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "gelu_into length mismatch");
    dispatch!(isa, gelu_into(src, dst))
}

/// In-place GELU sweep.
pub fn gelu_sweep(row: &mut [f32]) {
    gelu_sweep_isa(active_isa(), row)
}

/// [`gelu_sweep`] on an explicit ISA.
pub fn gelu_sweep_isa(isa: Isa, row: &mut [f32]) {
    dispatch!(isa, gelu_sweep(row))
}

/// Single-sweep `(mean, variance)` of one row via chunked Welford
/// (`WELFORD_CHUNK`-element chunks, Chan combine). The in-chunk sums are
/// lane-parallel on SIMD ISAs; the combine is identical everywhere.
pub fn welford_stats(row: &[f32]) -> (f32, f32) {
    welford_stats_isa(active_isa(), row)
}

/// [`welford_stats`] on an explicit ISA.
pub fn welford_stats_isa(isa: Isa, row: &[f32]) -> (f32, f32) {
    dispatch!(isa, welford_stats(row))
}

/// Hyper-parameters for one fused AdamW sweep step (bias corrections
/// precomputed by the optimizer).
#[derive(Clone, Copy, Debug)]
pub struct AdamParams {
    pub beta1: f32,
    pub beta2: f32,
    /// `1 − β1^t`.
    pub bias_c1: f32,
    /// `1 − β2^t`.
    pub bias_c2: f32,
    pub lr: f32,
    pub eps: f32,
    /// Decoupled weight decay (0 for exempt parameters).
    pub weight_decay: f32,
}

/// Fused in-place AdamW update over one parameter: moments and parameter
/// mutate their own buffers in a single lane-parallel sweep. Per-element
/// results match the scalar path (same IEEE op sequence per lane).
pub fn adamw_sweep(p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], h: &AdamParams) {
    adamw_sweep_isa(active_isa(), p, m, v, g, h)
}

/// [`adamw_sweep`] on an explicit ISA.
pub fn adamw_sweep_isa(
    isa: Isa,
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    h: &AdamParams,
) {
    assert!(
        p.len() == m.len() && p.len() == v.len() && p.len() == g.len(),
        "adamw_sweep length mismatch"
    );
    dispatch!(isa, adamw(p, m, v, g, h))
}

/// The GEMM register micro-kernel: `C[0..mr, 0..nr] (epi)= Ap·Bp` over
/// packed micro-panels (`ap` MR-interleaved, `bp` NR-interleaved for this
/// ISA's tile shape, both zero-padded to full MR/NR).
///
/// # Safety
///
/// `c` must point at an exclusive `mr × nr` window with row stride `ldc`
/// elements, valid for reads and writes; `ap`/`bp` must hold at least
/// `kc·MR` / `kc·NR` packed elements; `isa` must be runnable on this host
/// (obtain it from [`active_isa`] / [`Isa::available`]).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_microkernel(
    isa: Isa,
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
    epi: MicroEpi<'_>,
) {
    dispatch!(isa, gemm_micro(kc, ap, bp, c, ldc, mr, nr, epi))
}

/// Transpose-gather panel pack:
/// `dst[p·pad + i] = α · src[i·stride + p]` for `i < rows`, `p < kc`, with
/// panel rows `rows..pad` zero-filled. SIMD tiers run 8×8 in-register
/// shuffle transposes over contiguous source runs; the scalar tier keeps
/// the gather loop. All tiers are bitwise identical (one `α·x` multiply
/// per element on every path).
///
/// # Safety
/// `src` must be readable at `i·stride + p` for all `i < rows`, `p < kc`;
/// `dst` must be writable for `pad·kc` elements; `isa` must be runnable on
/// this host.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn pack_transpose(
    isa: Isa,
    src: *const f32,
    stride: usize,
    rows: usize,
    pad: usize,
    kc: usize,
    dst: *mut f32,
    alpha: f32,
) {
    dispatch!(isa, pack_transpose(src, stride, rows, pad, kc, dst, alpha))
}

/// IEEE CRC-32 (reflected, zlib / ethernet polynomial) of `bytes`: the
/// checksum of every checkpoint entry, section, file footer and manifest.
/// Every tier returns the same value bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_isa(active_isa(), bytes)
}

/// [`crc32`] on an explicit ISA. The vector tiers fold with `pclmulqdq`
/// when the CPU has it (with SSE4.1 for the final extract), which every
/// AVX2 part does in practice; without it they take the scalar
/// slicing-by-8 path.
pub fn crc32_isa(isa: Isa, bytes: &[u8]) -> u32 {
    assert!(isa.supported(), "ISA {isa:?} not runnable on this host");
    #[cfg(target_arch = "x86_64")]
    if isa != Isa::Scalar
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: both target features the fold enables were just detected.
        return !unsafe { x86::crc32_fold(!0, bytes) };
    }
    !scalar::crc32_update(!0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Ulp distance between two finite f32 (0 when bitwise equal or both
    /// NaN).
    fn ulps(a: f32, b: f32) -> u64 {
        if a.is_nan() && b.is_nan() {
            return 0;
        }
        fn key(x: f32) -> i64 {
            let b = x.to_bits();
            if b & 0x8000_0000 != 0 {
                -((b & 0x7fff_ffff) as i64)
            } else {
                b as i64
            }
        }
        (key(a) - key(b)).unsigned_abs()
    }

    fn rand_vec(n: usize, scale: f32, seed: u64) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        let mut v = vec![0.0f32; n];
        rng.fill_normal(&mut v, scale);
        v
    }

    #[test]
    fn active_isa_is_available() {
        assert!(active_isa().supported());
        assert!(Isa::available().ends_with(&[Isa::Scalar]));
    }

    #[test]
    fn elementwise_sweeps_match_scalar_within_ulps() {
        // Lengths off the lane multiple exercise every tail path.
        for &len in &[1usize, 7, 8, 15, 16, 17, 33, 130] {
            let src = rand_vec(len, 3.0, len as u64);
            for isa in Isa::available() {
                // exp(x − m)
                let m = 1.25f32;
                let mut got = src.clone();
                exp_sub_sweep_isa(isa, &mut got, m);
                for (&x, &y) in got.iter().zip(&src) {
                    let want = exp_fast(y - m);
                    assert!(
                        ulps(x, want) <= 2,
                        "{:?} exp len {len}: {x} vs {want}",
                        isa.name()
                    );
                }
                // gelu into + in place
                let mut dst = vec![0.0f32; len];
                gelu_into_isa(isa, &src, &mut dst);
                let mut inplace = src.clone();
                gelu_sweep_isa(isa, &mut inplace);
                for ((&g1, &g2), &y) in dst.iter().zip(&inplace).zip(&src) {
                    let want = gelu_scalar(y);
                    assert!(ulps(g1, want) <= 2, "{:?} gelu: {g1} vs {want}", isa.name());
                    assert_eq!(g1.to_bits(), g2.to_bits(), "into vs in-place");
                }
            }
        }
    }

    #[test]
    fn exp_sweep_handles_clamped_tails() {
        // The boundary values repeat past the widest lane count (16) so
        // the *vector* clamp/exp2i path processes them, not just the
        // scalar tail.
        let boundary = [-1000.0f32, 1000.0, 0.0, -87.0, 88.0, -126.0, 127.0, 0.5];
        let src: Vec<f32> = boundary
            .iter()
            .cycle()
            .take(3 * boundary.len())
            .copied()
            .collect();
        for isa in Isa::available() {
            let mut row = src.clone();
            exp_sub_sweep_isa(isa, &mut row, 0.0);
            assert!(row[0] > 0.0 && row[0] < 1e-37, "{:?}", isa.name());
            assert!(row[1].is_finite());
            assert_eq!(row[2], 1.0);
            for (j, &x) in row.iter().enumerate() {
                assert!(
                    ulps(x, exp_fast(src[j])) <= 2,
                    "{:?} elem {j} ({})",
                    isa.name(),
                    src[j]
                );
            }
        }
    }

    #[test]
    fn reductions_match_scalar_within_tolerance() {
        for &len in &[1usize, 5, 16, 31, 64, 130, 301] {
            let row = rand_vec(len, 2.0, 7 + len as u64);
            let want_max = scalar::row_max(&row);
            let want_sum = scalar::row_sum(&row);
            for isa in Isa::available() {
                // max is an exact op: any fold order gives the same value.
                assert_eq!(
                    row_max_isa(isa, &row),
                    want_max,
                    "{:?} len {len}",
                    isa.name()
                );
                let sum = row_sum_isa(isa, &row);
                let tol = 1e-5 * (len as f32).sqrt() * 2.0 + 1e-6;
                assert!(
                    (sum - want_sum).abs() <= tol,
                    "{:?} len {len}: {sum} vs {want_sum}",
                    isa.name()
                );
            }
        }
    }

    #[test]
    fn welford_matches_scalar_and_naive() {
        for &len in &[1usize, 3, 64, 65, 130, 301] {
            // Offset mean exercises the cancellation robustness.
            let row: Vec<f32> = rand_vec(len, 1.0, 11 + len as u64)
                .into_iter()
                .map(|v| v + 100.0)
                .collect();
            let (smu, svar) = scalar::welford_stats(&row);
            for isa in Isa::available() {
                let (mu, var) = welford_stats_isa(isa, &row);
                assert!(
                    (mu - smu).abs() < 1e-3,
                    "{:?} len {len}: {mu} vs {smu}",
                    isa.name()
                );
                assert!(
                    (var - svar).abs() <= 1e-3 * svar.max(1.0),
                    "{:?} len {len}: {var} vs {svar}",
                    isa.name()
                );
            }
        }
    }

    #[test]
    fn adamw_matches_scalar_within_ulps() {
        let h = AdamParams {
            beta1: 0.9,
            beta2: 0.999,
            bias_c1: 0.1,
            bias_c2: 0.001,
            lr: 1e-3,
            eps: 1e-8,
            weight_decay: 0.01,
        };
        for &len in &[1usize, 15, 16, 17, 130] {
            let p0 = rand_vec(len, 1.0, 21);
            let m0 = rand_vec(len, 0.1, 22);
            let v0: Vec<f32> = rand_vec(len, 0.1, 23).iter().map(|x| x * x).collect();
            let g = rand_vec(len, 1.0, 24);
            let (mut ps, mut ms, mut vs) = (p0.clone(), m0.clone(), v0.clone());
            scalar::adamw(&mut ps, &mut ms, &mut vs, &g, &h);
            for isa in Isa::available() {
                let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
                adamw_sweep_isa(isa, &mut p, &mut m, &mut v, &g, &h);
                for i in 0..len {
                    assert!(
                        ulps(p[i], ps[i]) <= 2 && ulps(m[i], ms[i]) <= 2 && ulps(v[i], vs[i]) <= 2,
                        "{:?} len {len} i {i}: {} vs {}",
                        isa.name(),
                        p[i],
                        ps[i]
                    );
                }
            }
        }
    }

    #[test]
    fn masked_edge_store_bitwise_matches_full_tile_window() {
        // An edge tile stored masked must equal the mr×nr window of the
        // same panels run through the full-tile kernel on a zero-padded
        // MRV×NRV scratch (bias zero-padded to NRV): per output element
        // both accumulate strictly k-major with one FMA per depth step and
        // store `c + (acc + bias)`.
        for isa in Isa::available() {
            let (mrv, nrv) = gemm_tile_shape(isa);
            let lanes = nrv / 2;
            for &kc in &[1usize, 7, 65] {
                for &mr in &[1usize, 2, mrv - 1, mrv] {
                    for &nr in &[1usize, lanes - 1, lanes, lanes + 1, nrv - 1, nrv] {
                        let ap = rand_vec(kc * mrv, 1.0, (kc * 13 + mr) as u64);
                        let bp = rand_vec(kc * nrv, 1.0, (kc * 17 + nr) as u64);
                        let bias = rand_vec(nr, 1.0, 99);
                        let mut bias_full = vec![0.0f32; nrv];
                        bias_full[..nr].copy_from_slice(&bias);
                        for (ei, (epi, epi_full)) in [
                            (MicroEpi::Add, MicroEpi::Add),
                            (MicroEpi::AddBias(&bias), MicroEpi::AddBias(&bias_full)),
                            (MicroEpi::Assign, MicroEpi::Assign),
                        ]
                        .into_iter()
                        .enumerate()
                        {
                            let init = rand_vec(mr * nr, 1.0, 7 + ei as u64);
                            let mut masked = init.clone();
                            let mut full = vec![0.0f32; mrv * nrv];
                            for (dst, row) in full.chunks_mut(nrv).zip(init.chunks(nr)) {
                                dst[..nr].copy_from_slice(row);
                            }
                            unsafe {
                                gemm_microkernel(
                                    isa,
                                    kc,
                                    &ap,
                                    &bp,
                                    masked.as_mut_ptr(),
                                    nr,
                                    mr,
                                    nr,
                                    epi,
                                );
                                gemm_microkernel(
                                    isa,
                                    kc,
                                    &ap,
                                    &bp,
                                    full.as_mut_ptr(),
                                    nrv,
                                    mrv,
                                    nrv,
                                    epi_full,
                                );
                            }
                            for (j, x) in masked.iter().enumerate() {
                                let y = full[(j / nr) * nrv + j % nr];
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "{} kc={kc} mr={mr} nr={nr} epi#{ei} elem {j}: {x} vs {y}",
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
    fn masked_edge_store_never_touches_past_nr() {
        // Guard lanes beyond the tile's columns must stay untouched — the
        // whole point of the masked store over a full-width blend.
        for isa in Isa::available() {
            let (mrv, nrv) = gemm_tile_shape(isa);
            let (kc, mr, nr) = (3usize, mrv, nrv - 3);
            let ap = rand_vec(kc * mrv, 1.0, 1);
            let bp = rand_vec(kc * nrv, 1.0, 2);
            // ldc == nrv leaves 3 guard columns per row.
            let mut c = vec![f32::NAN; mr * nrv];
            for r in c.chunks_mut(nrv) {
                r[..nr].fill(0.0);
            }
            unsafe {
                gemm_microkernel(
                    isa,
                    kc,
                    &ap,
                    &bp,
                    c.as_mut_ptr(),
                    nrv,
                    mr,
                    nr,
                    MicroEpi::Add,
                );
            }
            for (i, row) in c.chunks(nrv).enumerate() {
                assert!(
                    row[..nr].iter().all(|x| x.is_finite()),
                    "{} row {i} tile columns written",
                    isa.name()
                );
                assert!(
                    row[nr..].iter().all(|x| x.is_nan()),
                    "{} row {i} guard columns clobbered",
                    isa.name()
                );
            }
        }
    }

    #[test]
    fn pack_transpose_bitwise_matches_scalar() {
        // The SIMD transpose pack must equal the scalar gather loop bit
        // for bit, including the zero padding, across block-edge shapes.
        for isa in Isa::available() {
            for &(rows, pad) in &[
                (1usize, 6usize),
                (5, 6),
                (6, 6),
                (7, 8),
                (8, 8),
                (13, 16),
                (16, 16),
                (31, 32),
            ] {
                for &kc in &[1usize, 7, 8, 9, 64, 65] {
                    for &alpha in &[1.0f32, 0.125] {
                        let stride = kc + 3; // source wider than the block
                        let src = rand_vec(rows * stride, 1.0, (rows * 31 + kc) as u64);
                        let mut want = vec![f32::NAN; pad * kc];
                        let mut got = vec![f32::NAN; pad * kc];
                        unsafe {
                            scalar::pack_transpose(
                                src.as_ptr(),
                                stride,
                                rows,
                                pad,
                                kc,
                                want.as_mut_ptr(),
                                alpha,
                            );
                            pack_transpose(
                                isa,
                                src.as_ptr(),
                                stride,
                                rows,
                                pad,
                                kc,
                                got.as_mut_ptr(),
                                alpha,
                            );
                        }
                        for (j, (x, y)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{} rows={rows} pad={pad} kc={kc} α={alpha} elem {j}",
                                isa.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn micro_kernel_isas_agree_on_packed_panels() {
        // Drive the micro-kernel directly on synthetic packed panels for
        // every (mr, nr) edge of each ISA, against an f64 reference.
        for isa in Isa::available() {
            let (mrv, nrv) = gemm_tile_shape(isa);
            for &kc in &[1usize, 2, 3, 65] {
                for &mr in &[1usize, mrv - 1, mrv] {
                    for &nr in &[1usize, nrv - 1, nrv] {
                        let ap = rand_vec(kc * mrv, 1.0, (kc * 31 + mr) as u64);
                        let bp = rand_vec(kc * nrv, 1.0, (kc * 37 + nr) as u64);
                        let mut c = vec![0.5f32; mr * nr];
                        unsafe {
                            gemm_microkernel(
                                isa,
                                kc,
                                &ap,
                                &bp,
                                c.as_mut_ptr(),
                                nr,
                                mr,
                                nr,
                                MicroEpi::Add,
                            );
                        }
                        for i in 0..mr {
                            for j in 0..nr {
                                let mut want = 0.5f64;
                                for p in 0..kc {
                                    want += ap[p * mrv + i] as f64 * bp[p * nrv + j] as f64;
                                }
                                let got = c[i * nr + j];
                                assert!(
                                    (got as f64 - want).abs() < 1e-4 * kc as f64,
                                    "{:?} kc={kc} mr={mr} nr={nr} ({i},{j}): {got} vs {want}",
                                    isa.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Bit-at-a-time CRC-32 register update: no tables, so it checks the
    /// slicing-by-8 tables as well as the fold.
    fn crc_ref_update(mut crc: u32, b: u8) -> u32 {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                CRC32_POLY ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
        crc
    }

    fn crc_ref(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |c, &b| crc_ref_update(c, b))
    }

    fn crc_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| (rng.next_u64() >> 56) as u8).collect()
    }

    #[test]
    fn crc32_matches_bytewise_reference_on_every_isa() {
        let buf = crc_bytes(1024 + 16, 5);
        for isa in Isa::available() {
            assert_eq!(crc32_isa(isa, b"123456789"), 0xCBF4_3926, "{isa:?}");
            // Every length 0..=1024 at every start offset 0..16: the fold's
            // 64-byte entry, its 16-byte blocks and the tail all land on
            // each alignment.
            for off in 0..16 {
                let mut reg = !0u32;
                for len in 0..=1024 {
                    assert_eq!(
                        crc32_isa(isa, &buf[off..off + len]),
                        !reg,
                        "{isa:?} offset {off} length {len}"
                    );
                    reg = crc_ref_update(reg, buf[off + len]);
                }
            }
        }
        // Long inputs (a 5.5 MB ClimaX-sized shard at the top), aligned and
        // not; the reference runs once per buffer.
        for &len in &[4095usize, 4096, 65_537, 5_500_000] {
            let big = crc_bytes(len + 3, len as u64);
            for off in [0usize, 3] {
                let s = &big[off..off + len];
                let want = crc_ref(s);
                for isa in Isa::available() {
                    assert_eq!(crc32_isa(isa, s), want, "{isa:?} len {len} off {off}");
                }
            }
        }
    }
}
