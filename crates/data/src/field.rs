//! Smooth random scalar fields — the shared building block of both
//! synthetic datasets.
//!
//! White noise blurred with a separable box filter (iterated, approximating
//! a Gaussian), optionally periodic in the x (longitude) axis, normalized
//! to zero mean / unit variance. Deterministic in the seed.

use dchag_tensor::Rng;

/// Generate an `h × w` smooth field with correlation length ~`scale` pixels.
pub fn smooth_field(h: usize, w: usize, scale: usize, periodic_x: bool, rng: &mut Rng) -> Vec<f32> {
    let mut f: Vec<f32> = (0..h * w).map(|_| rng.normal()).collect();
    let radius = scale.max(1);
    // three box-blur passes ≈ Gaussian
    for _ in 0..3 {
        f = blur_x(&f, h, w, radius, periodic_x);
        f = blur_y(&f, h, w, radius);
    }
    normalize(&mut f);
    f
}

fn blur_x(f: &[f32], h: usize, w: usize, r: usize, periodic: bool) -> Vec<f32> {
    let mut out = vec![0.0; h * w];
    let k = (2 * r + 1) as f32;
    for y in 0..h {
        for x in 0..w {
            let mut s = 0.0;
            for dx in -(r as isize)..=(r as isize) {
                let xx = x as isize + dx;
                let xx = if periodic {
                    xx.rem_euclid(w as isize) as usize
                } else {
                    xx.clamp(0, w as isize - 1) as usize
                };
                s += f[y * w + xx];
            }
            out[y * w + x] = s / k;
        }
    }
    out
}

fn blur_y(f: &[f32], h: usize, w: usize, r: usize) -> Vec<f32> {
    let mut out = vec![0.0; h * w];
    let k = (2 * r + 1) as f32;
    for y in 0..h {
        for x in 0..w {
            let mut s = 0.0;
            for dy in -(r as isize)..=(r as isize) {
                let yy = (y as isize + dy).clamp(0, h as isize - 1) as usize;
                s += f[yy * w + x];
            }
            out[y * w + x] = s / k;
        }
    }
    out
}

fn normalize(f: &mut [f32]) {
    let n = f.len() as f32;
    let mean: f32 = f.iter().sum::<f32>() / n;
    let var: f32 = f.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
    let rstd = 1.0 / var.sqrt().max(1e-6);
    for x in f.iter_mut() {
        *x = (*x - mean) * rstd;
    }
}

/// Shift a field along x by a fractional number of pixels (periodic),
/// bilinear in x — the "zonal advection" operator of the weather generator.
pub fn advect_x(f: &[f32], h: usize, w: usize, shift: f32) -> Vec<f32> {
    let mut out = vec![0.0; h * w];
    for y in 0..h {
        for x in 0..w {
            let src = x as f32 - shift;
            let x0 = src.floor();
            let frac = src - x0;
            let i0 = (x0 as isize).rem_euclid(w as isize) as usize;
            let i1 = (x0 as isize + 1).rem_euclid(w as isize) as usize;
            out[y * w + x] = f[y * w + i0] * (1.0 - frac) + f[y * w + i1] * frac;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_moments() {
        let mut rng = Rng::new(1);
        let f = smooth_field(32, 64, 3, true, &mut rng);
        let mean: f32 = f.iter().sum::<f32>() / f.len() as f32;
        let var: f32 = f.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / f.len() as f32;
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn smoothness_neighbors_correlated() {
        let mut rng = Rng::new(2);
        let f = smooth_field(32, 64, 4, true, &mut rng);
        // adjacent-pixel correlation should be high
        let mut num = 0.0;
        let mut den = 0.0;
        for y in 0..32 {
            for x in 0..63 {
                num += f[y * 64 + x] * f[y * 64 + x + 1];
                den += f[y * 64 + x] * f[y * 64 + x];
            }
        }
        assert!(num / den > 0.8, "correlation {}", num / den);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = smooth_field(16, 16, 2, false, &mut Rng::new(7));
        let b = smooth_field(16, 16, 2, false, &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn advection_integral_shift_exact() {
        let mut rng = Rng::new(3);
        let f = smooth_field(8, 16, 2, true, &mut rng);
        let shifted = advect_x(&f, 8, 16, 3.0);
        for y in 0..8 {
            for x in 0..16 {
                let want = f[y * 16 + ((x + 16 - 3) % 16)];
                assert!((shifted[y * 16 + x] - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn advection_full_wrap_is_identity() {
        let mut rng = Rng::new(4);
        let f = smooth_field(8, 16, 2, true, &mut rng);
        let back = advect_x(&f, 8, 16, 16.0);
        for (a, b) in f.iter().zip(&back) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
