//! Per-channel normalization statistics (the standard preprocessing for
//! both workloads).

use dchag_tensor::{Shape, Tensor};

/// Per-channel mean / std computed over a `[B, C, H, W]` batch.
#[derive(Clone, Debug)]
pub struct ChannelStats {
    pub mean: Vec<f32>,
    pub std: Vec<f32>,
}

impl ChannelStats {
    /// Compute from a batch.
    pub fn from_batch(batch: &Tensor) -> Self {
        assert_eq!(batch.ndim(), 4, "stats want [B,C,H,W]");
        let (b, c, h, w) = (
            batch.dims()[0],
            batch.dims()[1],
            batch.dims()[2],
            batch.dims()[3],
        );
        let n = (b * h * w) as f64;
        let mut mean = vec![0f64; c];
        let mut sq = vec![0f64; c];
        for bi in 0..b {
            for ci in 0..c {
                let off = (bi * c + ci) * h * w;
                for &v in &batch.data()[off..off + h * w] {
                    mean[ci] += v as f64;
                    sq[ci] += (v as f64) * (v as f64);
                }
            }
        }
        let mut std = vec![0f32; c];
        let mut mean_f = vec![0f32; c];
        for ci in 0..c {
            let m = mean[ci] / n;
            let var = (sq[ci] / n - m * m).max(1e-12);
            mean_f[ci] = m as f32;
            std[ci] = (var.sqrt() as f32).max(1e-6);
        }
        ChannelStats { mean: mean_f, std }
    }

    /// `(x - mean) / std` per channel.
    pub fn normalize(&self, batch: &Tensor) -> Tensor {
        self.apply(batch, |v, m, s| (v - m) / s)
    }

    /// `x * std + mean` per channel.
    pub fn denormalize(&self, batch: &Tensor) -> Tensor {
        self.apply(batch, |v, m, s| v * s + m)
    }

    fn apply(&self, batch: &Tensor, f: impl Fn(f32, f32, f32) -> f32) -> Tensor {
        let (b, c, h, w) = (
            batch.dims()[0],
            batch.dims()[1],
            batch.dims()[2],
            batch.dims()[3],
        );
        assert_eq!(c, self.mean.len(), "channel count");
        let mut out = batch.to_vec();
        for bi in 0..b {
            for ci in 0..c {
                let off = (bi * c + ci) * h * w;
                let (m, s) = (self.mean[ci], self.std[ci]);
                for v in &mut out[off..off + h * w] {
                    *v = f(*v, m, s);
                }
            }
        }
        Tensor::from_vec(out, Shape::new(batch.dims()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_tensor::Rng;

    #[test]
    fn normalized_batch_has_unit_moments() {
        let mut rng = Rng::new(1);
        let batch = Tensor::randn([4, 3, 8, 8], 5.0, &mut rng).map(|x| x + 10.0);
        let stats = ChannelStats::from_batch(&batch);
        let norm = stats.normalize(&batch);
        let check = ChannelStats::from_batch(&norm);
        for c in 0..3 {
            assert!(check.mean[c].abs() < 1e-4);
            assert!((check.std[c] - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn roundtrip_normalize_denormalize() {
        let mut rng = Rng::new(2);
        let batch = Tensor::randn([2, 4, 4, 4], 3.0, &mut rng);
        let stats = ChannelStats::from_batch(&batch);
        let back = stats.denormalize(&stats.normalize(&batch));
        assert!(back.max_abs_diff(&batch) < 1e-4);
    }

    #[test]
    fn channels_normalized_independently() {
        // channel 0 constant 100, channel 1 standard normal
        let mut rng = Rng::new(3);
        let mut data = vec![100.0f32; 64];
        data.extend((0..64).map(|_| rng.normal()));
        let batch = Tensor::from_vec(data, [1, 2, 8, 8]);
        let stats = ChannelStats::from_batch(&batch);
        assert!((stats.mean[0] - 100.0).abs() < 1e-3);
        assert!(stats.mean[1].abs() < 0.5);
    }
}
