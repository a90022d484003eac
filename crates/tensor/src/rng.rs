//! Deterministic random-number generation.
//!
//! A self-contained xoshiro256** generator so that every experiment is
//! reproducible from a single `u64` seed, independent of crate versions and
//! thread scheduling. Normal deviates use the Box–Muller transform with a
//! cached spare value.

/// xoshiro256** PRNG (Blackman & Vigna), seeded via SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    spare_normal: Option<f32>,
}

/// The complete serializable state of an [`Rng`]: the xoshiro256** word
/// state plus the cached Box–Muller spare. Restoring it continues the
/// exact random stream — checkpoint format v2 carries one of these so a
/// resumed run consumes identical data-order and init randomness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RngState {
    pub s: [u64; 4],
    pub spare: Option<f32>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Snapshot the full generator state (for checkpointing).
    pub fn state(&self) -> RngState {
        RngState {
            s: self.s,
            spare: self.spare_normal,
        }
    }

    /// Rebuild a generator that continues the exact stream captured by
    /// [`Rng::state`].
    pub fn from_state(state: &RngState) -> Rng {
        Rng {
            s: state.s,
            spare_normal: state.spare,
        }
    }

    /// Derive an independent stream, e.g. one per rank or per layer.
    /// Streams with different `stream_id` are decorrelated by reseeding
    /// through SplitMix64 rather than by jumping.
    pub fn fork(&self, stream_id: u64) -> Rng {
        Rng::new(
            self.s[0] ^ stream_id.wrapping_mul(0xA24B_AED4_963E_E407) ^ self.s[2].rotate_left(17),
        )
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        // 24 high bits -> exactly representable f32 in [0, 1).
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal deviate (Box–Muller, cached pair).
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u == 0 for the log.
        let u = loop {
            let u = self.uniform();
            if u > 1e-12 {
                break u;
            }
        };
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fill `out` with standard-normal deviates scaled by `std`.
    pub fn fill_normal(&mut self, out: &mut [f32], std: f32) {
        for x in out.iter_mut() {
            *x = self.normal() * std;
        }
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            p.swap(i, j);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut r = Rng::new(11);
        let n = 200_000;
        let (mut sum, mut sum2) = (0f64, 0f64);
        for _ in 0..n {
            let z = r.normal() as f64;
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = Rng::new(3);
        let p = r.permutation(100);
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn checkpoint_rng_state_roundtrip_continues_stream() {
        let mut r = Rng::new(9);
        // Burn an odd number of normals so the spare is cached.
        for _ in 0..5 {
            r.normal();
        }
        let snap = r.state();
        assert!(snap.spare.is_some());
        let mut resumed = Rng::from_state(&snap);
        for _ in 0..32 {
            assert_eq!(resumed.normal().to_bits(), r.normal().to_bits());
            assert_eq!(resumed.next_u64(), r.next_u64());
        }
    }

    #[test]
    fn fork_decorrelates_streams() {
        let base = Rng::new(5);
        let mut a = base.fork(0);
        let mut b = base.fork(1);
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }
}
