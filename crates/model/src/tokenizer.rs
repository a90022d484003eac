//! Per-channel patch tokenization (paper Fig. 1, left).
//!
//! Every channel has its own patch-embedding weights (a `p²·d` conv realized
//! as a matmul over flattened patches). Parameters are initialized from a
//! *channel-keyed* RNG stream: channel `c`'s weights depend only on
//! `(base_seed, c)`, never on which rank owns the channel. This makes
//! distributed tokenization (paper §3.1) bit-identical to the single-device
//! baseline — a property the test suite asserts.

use dchag_tensor::ops;
use dchag_tensor::prelude::*;

struct ChannelTok {
    w: ParamId,
    b: ParamId,
}

/// Tokenizes `[B, C_local, H, W]` images into `[B, C_local, P, D]` tokens,
/// where `C_local` is the subset of global channels this instance owns.
pub struct PatchTokenizer {
    /// Global channel ids owned by this tokenizer, in input order.
    pub channels: Vec<usize>,
    per_channel: Vec<ChannelTok>,
    pub patch: usize,
    pub dim: usize,
}

/// Distinct sub-stream tags so w/b/embedding draws never overlap.
const STREAM_W: u64 = 0x70_6b;
const STREAM_B: u64 = 0x62_69;

impl PatchTokenizer {
    /// `base_seed` must be identical on every rank; `channels` is the local
    /// subset (the full range `0..C` for the single-device baseline).
    pub fn new(
        store: &mut ParamStore,
        base_seed: u64,
        channels: &[usize],
        patch: usize,
        dim: usize,
    ) -> Self {
        let base = Rng::new(base_seed);
        let per_channel = channels
            .iter()
            .map(|&c| {
                let mut wr = base.fork(STREAM_W ^ (c as u64).wrapping_mul(2654435761));
                let mut br = base.fork(STREAM_B ^ (c as u64).wrapping_mul(2654435761));
                let w = store.add(
                    format!("tok.w.{c}"),
                    dchag_tensor::init::xavier_uniform(patch * patch, dim, &mut wr),
                );
                let b = store.add(
                    format!("tok.b.{c}"),
                    Tensor::randn([dim], 0.02, &mut br),
                );
                ChannelTok { w, b }
            })
            .collect();
        PatchTokenizer {
            channels: channels.to_vec(),
            per_channel,
            patch,
            dim,
        }
    }

    pub fn local_channels(&self) -> usize {
        self.channels.len()
    }

    /// Tokenize a batch: `images` must carry exactly this tokenizer's
    /// channels (in the same order). Output `[B, C_local, P, D]`.
    pub fn forward(&self, bind: &dyn Binder, images: &Tensor) -> Var {
        let tape = bind.tape();
        assert_eq!(images.ndim(), 4, "images must be [B,C,H,W]");
        assert_eq!(
            images.dims()[1],
            self.channels.len(),
            "channel count mismatch"
        );
        let (b, _c, h, w) = (
            images.dims()[0],
            images.dims()[1],
            images.dims()[2],
            images.dims()[3],
        );
        let patches = ops::patchify(images, self.patch); // [B, C, P, p²]
        let np = (h / self.patch) * (w / self.patch);
        let pp = self.patch * self.patch;
        let pv = tape.leaf(patches);

        let mut tokens = Vec::with_capacity(self.per_channel.len());
        for (i, ct) in self.per_channel.iter().enumerate() {
            let ch = tape.slice(&pv, 1, i, 1); // [B, 1, P, p²]
            let flat = tape.reshape(&ch, &[b * np, pp]);
            let t = tape.matmul(&flat, &bind.bind(ct.w));
            let t = tape.add_bias(&t, &bind.bind(ct.b));
            tokens.push(tape.reshape(&t, &[b, 1, np, self.dim]));
        }
        let refs: Vec<&Var> = tokens.iter().collect();
        tape.concat(&refs, 1) // [B, C, P, D]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape() {
        let mut store = ParamStore::new();
        let tok = PatchTokenizer::new(&mut store, 1, &[0, 1, 2], 4, 8);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let mut rng = Rng::new(2);
        let imgs = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let y = tok.forward(&bind, &imgs);
        assert_eq!(y.dims(), &[2, 3, 4, 8]);
    }

    #[test]
    fn channel_weights_depend_only_on_channel_id() {
        // A tokenizer owning channels [2, 5] must hold exactly the same
        // weights as the full tokenizer's channels 2 and 5.
        let mut full_store = ParamStore::new();
        let full = PatchTokenizer::new(&mut full_store, 99, &[0, 1, 2, 3, 4, 5], 4, 8);
        let mut sub_store = ParamStore::new();
        let sub = PatchTokenizer::new(&mut sub_store, 99, &[2, 5], 4, 8);

        let w_full_2 = full_store.get(full.per_channel[2].w);
        let w_sub_2 = sub_store.get(sub.per_channel[0].w);
        assert_eq!(w_full_2.to_vec(), w_sub_2.to_vec());
        let b_full_5 = full_store.get(full.per_channel[5].b);
        let b_sub_5 = sub_store.get(sub.per_channel[1].b);
        assert_eq!(b_full_5.to_vec(), b_sub_5.to_vec());
    }

    #[test]
    fn subset_tokenization_matches_full_slice() {
        // Tokenizing channels {1,3} alone == slicing the full result.
        let mut rng = Rng::new(3);
        let imgs = Tensor::randn([2, 4, 8, 8], 1.0, &mut rng);

        let mut full_store = ParamStore::new();
        let full = PatchTokenizer::new(&mut full_store, 7, &[0, 1, 2, 3], 4, 8);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &full_store);
        let all = full.forward(&bind, &imgs);

        let sub_imgs = ops::concat(
            &[&ops::slice(&imgs, 1, 1, 1), &ops::slice(&imgs, 1, 3, 1)],
            1,
        );
        let mut sub_store = ParamStore::new();
        let sub = PatchTokenizer::new(&mut sub_store, 7, &[1, 3], 4, 8);
        let tape2 = Tape::new();
        let bind2 = LocalBinder::new(&tape2, &sub_store);
        let part = sub.forward(&bind2, &sub_imgs);

        let expect = ops::concat(
            &[
                &ops::slice(all.value(), 1, 1, 1),
                &ops::slice(all.value(), 1, 3, 1),
            ],
            1,
        );
        assert_eq!(part.value().to_vec(), expect.to_vec());
    }

    #[test]
    fn different_channels_produce_different_tokens() {
        let mut store = ParamStore::new();
        let tok = PatchTokenizer::new(&mut store, 1, &[0, 1], 4, 8);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        // identical image content on both channels
        let mut rng = Rng::new(4);
        let one = Tensor::randn([1, 1, 8, 8], 1.0, &mut rng);
        let imgs = ops::concat(&[&one, &one], 1);
        let y = tok.forward(&bind, &imgs);
        let c0 = ops::slice(y.value(), 1, 0, 1);
        let c1 = ops::slice(y.value(), 1, 1, 1);
        assert!(c0.max_abs_diff(&c1) > 1e-3, "per-channel weights must differ");
    }

    #[test]
    fn tokenizer_params_receive_grads() {
        let mut store = ParamStore::new();
        let tok = PatchTokenizer::new(&mut store, 1, &[0, 1], 4, 8);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let mut rng = Rng::new(5);
        let imgs = Tensor::randn([1, 2, 8, 8], 1.0, &mut rng);
        let y = tok.forward(&bind, &imgs);
        let loss = tape.sum_all(&tape.mul(&y, &y));
        let grads = tape.backward(&loss);
        for g in bind.grads(&grads) {
            assert!(g.is_some());
        }
    }
}
