//! Per-channel patch tokenization with channel-ID embeddings (paper Fig. 1,
//! left, and §2.1).
//!
//! Every channel has its own patch-embedding weights (a `p²·d` conv realized
//! as a matmul over flattened patches) and its own learned channel-ID
//! embedding, added to every token of the channel. Parameters are
//! initialized from *channel-keyed* RNG streams: channel `c`'s weights
//! depend only on `(base_seed, c)`, never on which rank owns the channel.
//! This makes distributed tokenization (paper §3.1) bit-identical to the
//! single-device baseline — a property the test suite asserts.
//!
//! The images are data: patchification and the per-channel slices happen
//! off the tape, and the whole tokenizer is one tape node whose adjoint
//! emits only parameter gradients.

use dchag_tensor::prelude::*;
use dchag_tensor::{init, ops};

struct ChannelTok {
    w: ParamId,
    b: ParamId,
    /// Channel-ID embedding.
    e: ParamId,
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
const STREAM_E: u64 = 0x65_6d;

impl PatchTokenizer {
    /// `base_seed` must be identical on every rank; `channels` is the local
    /// subset (the full range `0..C` for the single-device baseline).
    ///
    /// Registers `tok.w.{c}` and `tok.b.{c}` for every channel, then
    /// `chan_embed.{c}` for every channel.
    pub fn new(
        store: &mut ParamStore,
        base_seed: u64,
        channels: &[usize],
        patch: usize,
        dim: usize,
    ) -> Self {
        let base = Rng::new(base_seed);
        let stream = |tag: u64, c: usize| base.fork(tag ^ (c as u64).wrapping_mul(2654435761));
        let linear: Vec<(ParamId, ParamId)> = channels
            .iter()
            .map(|&c| {
                let w = store.add(
                    format!("tok.w.{c}"),
                    init::xavier_uniform(patch * patch, dim, &mut stream(STREAM_W, c)),
                );
                let b = store.add(
                    format!("tok.b.{c}"),
                    Tensor::randn([dim], 0.02, &mut stream(STREAM_B, c)),
                );
                (w, b)
            })
            .collect();
        let per_channel = channels
            .iter()
            .zip(linear)
            .map(|(&c, (w, b))| {
                let e = store.add(
                    format!("chan_embed.{c}"),
                    init::trunc_normal(&[dim], 0.02, &mut stream(STREAM_E, c)),
                );
                ChannelTok { w, b, e }
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
    /// channels (in the same order). Output `[B, C_local, P, D]`, where
    /// channel `c`'s tokens are `x_c·W_c + b_c + e_c` over its flattened
    /// patches `x_c`.
    pub fn forward(&self, bind: &dyn Binder, images: &Tensor) -> Var {
        assert_eq!(images.ndim(), 4, "images must be [B,C,H,W]");
        let (b, c, h, w) = (
            images.dims()[0],
            images.dims()[1],
            images.dims()[2],
            images.dims()[3],
        );
        assert_eq!(c, self.channels.len(), "channel count mismatch");
        let (np, pp, d) = (
            (h / self.patch) * (w / self.patch),
            self.patch * self.patch,
            self.dim,
        );
        // Bind in registration order (FSDP gathers units as they are bound).
        let linear: Vec<(Var, Var)> = self
            .per_channel
            .iter()
            .map(|ct| (bind.bind(ct.w), bind.bind(ct.b)))
            .collect();
        let embeds: Vec<Var> = self.per_channel.iter().map(|ct| bind.bind(ct.e)).collect();

        let patches = ops::patchify(images, self.patch); // [B, C, P, p²]
        let xs: Vec<Tensor> = (0..c)
            .map(|i| ops::slice(&patches, 1, i, 1).reshape(&[b * np, pp]))
            .collect();
        let mut out = vec![0.0f32; b * c * np * d];
        for (i, (x, ((wv, bv), ev))) in xs.iter().zip(linear.iter().zip(&embeds)).enumerate() {
            let y = ops::add_bias(&ops::matmul(x, wv.value()), bv.value()); // [B·P, D]
            for (r, row) in y.data().chunks(d).enumerate() {
                let at = ((r / np * c + i) * np + r % np) * d;
                for ((o, &yv), &e) in out[at..at + d].iter_mut().zip(row).zip(ev.value().data()) {
                    *o = yv + e;
                }
            }
        }
        let ids: Vec<(usize, usize, usize)> = linear
            .iter()
            .zip(&embeds)
            .map(|((wv, bv), ev)| (wv.id(), bv.id(), ev.id()))
            .collect();
        bind.tape()
            .custom(Tensor::from_vec(out, [b, c, np, d]), move |g, emit| {
                for (i, (x, &(iw, ib, ie))) in xs.iter().zip(&ids).enumerate() {
                    let g_c = ops::slice(&g, 1, i, 1).reshape(&[b * np, d]);
                    emit(iw, ops::matmul_tn(x, &g_c));
                    // b_c and e_c are both added to every token of channel
                    // c, so they share one gradient.
                    let db = ops::sum_to_last(&g_c);
                    emit(ie, db.clone());
                    emit(ib, db);
                }
            })
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
    fn params_registered_linear_then_embeddings() {
        let mut store = ParamStore::new();
        let _ = PatchTokenizer::new(&mut store, 1, &[4, 7], 2, 3);
        let names: Vec<&str> = store.iter().map(|(_, n, _)| n).collect();
        assert_eq!(
            names,
            [
                "tok.w.4",
                "tok.b.4",
                "tok.w.7",
                "tok.b.7",
                "chan_embed.4",
                "chan_embed.7"
            ]
        );
    }

    #[test]
    fn zero_images_give_bias_plus_channel_embedding() {
        let mut store = ParamStore::new();
        let tok = PatchTokenizer::new(&mut store, 11, &[0, 1], 2, 4);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let y = tok.forward(&bind, &Tensor::zeros([2, 2, 4, 6])); // P = 6
        let v = y.value();
        for (ci, ct) in tok.per_channel.iter().enumerate() {
            let want = ops::add(store.get(ct.b), store.get(ct.e)).to_vec();
            for bi in 0..2 {
                for pi in 0..6 {
                    let at = ((bi * 2 + ci) * 6 + pi) * 4;
                    assert_eq!(v.data()[at..at + 4], want[..]);
                }
            }
        }
        // channels differ
        assert!(ops::slice(v, 1, 0, 1).max_abs_diff(&ops::slice(v, 1, 1, 1)) > 1e-4);
    }

    /// The tokenizer as it was composed from generic tape nodes: the
    /// patches as a leaf, per channel `slice → reshape → matmul → add_bias →
    /// reshape`, a `concat`, then the channel embedding added per channel.
    fn composed_forward(tok: &PatchTokenizer, bind: &dyn Binder, images: &Tensor) -> Var {
        let tape = bind.tape();
        let (b, c, h, w) = (
            images.dims()[0],
            images.dims()[1],
            images.dims()[2],
            images.dims()[3],
        );
        let (np, pp, d) = (
            (h / tok.patch) * (w / tok.patch),
            tok.patch * tok.patch,
            tok.dim,
        );
        let pv = tape.leaf(ops::patchify(images, tok.patch));
        let mut tokens = Vec::new();
        for (i, ct) in tok.per_channel.iter().enumerate() {
            let flat = tape.reshape(&tape.slice(&pv, 1, i, 1), &[b * np, pp]);
            let t = tape.add_bias(&tape.matmul(&flat, &bind.bind(ct.w)), &bind.bind(ct.b));
            tokens.push(tape.reshape(&t, &[b, 1, np, d]));
        }
        let refs: Vec<&Var> = tokens.iter().collect();
        let x = tape.concat(&refs, 1);
        let rows: Vec<Var> = tok
            .per_channel
            .iter()
            .map(|ct| tape.reshape(&bind.bind(ct.e), &[1, d]))
            .collect();
        let row_refs: Vec<&Var> = rows.iter().collect();
        let table = tape.concat(&row_refs, 0); // [C, D]
        let (xid, tid) = (x.id(), table.id());
        let e = table.value().to_vec();
        let mut out = x.value().to_vec();
        for (i, o) in out.iter_mut().enumerate() {
            *o += e[(i / (np * d) % c) * d + i % d];
        }
        tape.custom(Tensor::from_vec(out, [b, c, np, d]), move |g, emit| {
            emit(xid, g.clone());
            let mut de = vec![0.0f32; c * d];
            for bi in 0..b {
                for ci in 0..c {
                    for pi in 0..np {
                        let off = ((bi * c + ci) * np + pi) * d;
                        for (o, &gv) in de[ci * d..(ci + 1) * d].iter_mut().zip(&g.data()[off..]) {
                            *o += gv;
                        }
                    }
                }
            }
            emit(tid, Tensor::from_vec(de, [c, d]));
        })
    }

    #[test]
    fn forward_and_grads_bitwise_match_composed_chain() {
        // P = 5·7 = 35 and D = 20: neither is a multiple of the 6×16 GEMM
        // micro-tile, so edge tiles run on both paths.
        let bits = |t: &Tensor| t.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for channels in [vec![2usize], vec![0, 3, 1]] {
            let mut store = ParamStore::new();
            let tok = PatchTokenizer::new(&mut store, 21, &channels, 3, 20);
            let mut rng = Rng::new(8);
            let imgs = Tensor::randn([2, channels.len(), 15, 21], 1.0, &mut rng);
            let readout = Tensor::randn([2, channels.len(), 35, 20], 1.0, &mut rng);
            let run = |fused: bool| {
                let tape = Tape::new();
                let bind = LocalBinder::new(&tape, &store);
                let y = if fused {
                    tok.forward(&bind, &imgs)
                } else {
                    composed_forward(&tok, &bind, &imgs)
                };
                let loss = tape.sum_all(&tape.mul(&y, &tape.leaf(readout.clone())));
                let grads = tape.backward(&loss);
                let g: Vec<Tensor> = bind.grads(&grads).into_iter().map(Option::unwrap).collect();
                (y.value().clone(), g)
            };
            let (y, grads) = run(true);
            let (want_y, want_grads) = run(false);
            assert_eq!(bits(&y), bits(&want_y));
            assert_eq!(grads.len(), 3 * channels.len());
            for ((g, want), (_, name, _)) in grads.iter().zip(&want_grads).zip(store.iter()) {
                assert_eq!(g.dims(), want.dims(), "{name}");
                assert_eq!(bits(g), bits(want), "{name}");
            }
        }
    }

    #[test]
    fn tape_holds_param_leaves_and_one_node() {
        // The images are data: tokenizing C channels records the 3C bound
        // parameters and a single node, whatever C is.
        for c in [1usize, 3, 8] {
            let mut store = ParamStore::new();
            let channels: Vec<usize> = (0..c).collect();
            let tok = PatchTokenizer::new(&mut store, 1, &channels, 4, 8);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let imgs = Tensor::randn([2, c, 8, 8], 1.0, &mut Rng::new(3));
            let _ = tok.forward(&bind, &imgs);
            assert_eq!(tape.len(), 3 * c + 1, "C = {c}");
        }
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
        assert!(
            c0.max_abs_diff(&c1) > 1e-3,
            "per-channel weights must differ"
        );
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
