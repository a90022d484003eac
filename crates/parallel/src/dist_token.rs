//! Distributed channel tokenization (paper §3.1, Fig. 2 bottom).
//!
//! Each TP rank tokenizes only its contiguous slice of the channels, then an
//! AllGather over both channel and spatial dimensions reassembles the full
//! `[B, C, P, D]` token tensor on every rank. This is the paper's *negative
//! result* when used alone (Fig. 8): tokenization memory drops by the TP
//! factor, but the gathered buffer hands the memory right back — the
//! motivation for D-CHAG's hierarchical aggregation.
//!
//! The rank-local stage is a [`PatchTokenizer`] over the owned channels,
//! channel-ID embeddings included, so its parameters and tokens are exactly
//! the baseline's for those channels.

use dchag_collectives::Communicator;
use dchag_tensor::ops;
use dchag_tensor::prelude::*;

use dchag_model::PatchTokenizer;

use crate::comm_ops::all_gather_cat;

/// Balanced contiguous channel partition: rank `r` of `n` owns
/// `partition_channels(c, n)[r]`.
pub fn partition_channels(channels: usize, ranks: usize) -> Vec<std::ops::Range<usize>> {
    assert!(ranks > 0);
    let base = channels / ranks;
    let extra = channels % ranks;
    let mut out = Vec::with_capacity(ranks);
    let mut start = 0;
    for r in 0..ranks {
        let len = base + usize::from(r < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Per-rank tokenizer owning a channel slice; gathers to the full tensor.
pub struct DistTokenizer {
    pub tok: PatchTokenizer,
    pub range: std::ops::Range<usize>,
    pub total_channels: usize,
}

impl DistTokenizer {
    /// Equal-size partition is required for the gather (the paper's setting:
    /// channel counts divisible by the TP size). `base_seed` must match the
    /// baseline so weights are identical per channel.
    pub fn new(
        store: &mut ParamStore,
        base_seed: u64,
        total_channels: usize,
        patch: usize,
        dim: usize,
        comm: &Communicator,
    ) -> Self {
        assert!(
            total_channels.is_multiple_of(comm.size()),
            "channels {total_channels} must divide TP size {}",
            comm.size()
        );
        let range = partition_channels(total_channels, comm.size())[comm.rank()].clone();
        let channels: Vec<usize> = range.clone().collect();
        let tok = PatchTokenizer::new(store, base_seed, &channels, patch, dim);
        DistTokenizer {
            tok,
            range,
            total_channels,
        }
    }

    /// Slice this rank's channels out of a full `[B, C, H, W]` batch.
    pub fn local_slice(&self, images: &Tensor) -> Tensor {
        ops::slice(images, 1, self.range.start, self.range.len())
    }

    /// §3.1 path: tokenize local channels, AllGather to `[B, C_total, P, D]`.
    /// The gather's backward is a local slice (no communication).
    pub fn forward_gathered(
        &self,
        bind: &dyn Binder,
        comm: &Communicator,
        images_full: &Tensor,
    ) -> Var {
        let local = self.local_slice(images_full);
        let tokens = self.tok.forward(bind, &local);
        all_gather_cat(bind.tape(), comm, &tokens, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::run_ranks;
    use dchag_model::ModelConfig;

    #[test]
    fn partition_is_disjoint_ordered_cover() {
        for (c, n) in [(8usize, 2usize), (10, 4), (500, 8), (5, 5), (7, 3)] {
            let parts = partition_channels(c, n);
            assert_eq!(parts.len(), n);
            let mut next = 0;
            for p in &parts {
                assert_eq!(p.start, next);
                next = p.end;
            }
            assert_eq!(next, c);
            let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
            let (mn, mx) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(mx - mn <= 1, "balanced: {sizes:?}");
        }
    }

    /// Paper §3.1 invariant: distributed tokenization followed by the gather
    /// reproduces the baseline token tensor exactly.
    #[test]
    fn gathered_tokens_match_baseline() {
        let cfg = ModelConfig::tiny(8);
        let mut rng = Rng::new(2024);
        let imgs = Tensor::randn([2, 8, 16, 16], 1.0, &mut rng);

        // baseline: single tokenizer over all channels
        let mut store = ParamStore::new();
        let channels: Vec<usize> = (0..8).collect();
        let tok = PatchTokenizer::new(&mut store, 555, &channels, cfg.patch, cfg.embed_dim);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let want = tok.forward(&bind, &imgs).value().clone();

        for world in [2usize, 4] {
            let imgs = imgs.clone();
            let want = want.clone();
            let cfg = cfg.clone();
            let run = run_ranks(world, move |ctx| {
                let mut store = ParamStore::new();
                let dt =
                    DistTokenizer::new(&mut store, 555, 8, cfg.patch, cfg.embed_dim, &ctx.comm);
                let tape = Tape::new();
                let bind = LocalBinder::new(&tape, &store);
                let gathered = dt.forward_gathered(&bind, &ctx.comm, &imgs);
                gathered.value().max_abs_diff(&want)
            });
            for d in run.outputs {
                assert_eq!(d, 0.0, "world={world}: exact equality expected");
            }
        }
    }

    #[test]
    fn local_params_shrink_by_world_size() {
        let full = {
            let mut store = ParamStore::new();
            let channels: Vec<usize> = (0..8).collect();
            let _ = PatchTokenizer::new(&mut store, 1, &channels, 4, 16);
            store.num_params()
        };
        let run = run_ranks(4, move |ctx| {
            let mut store = ParamStore::new();
            let _ = DistTokenizer::new(&mut store, 1, 8, 4, 16, &ctx.comm);
            store.num_params()
        });
        for local in run.outputs {
            assert_eq!(local, full / 4);
        }
    }

    #[test]
    fn tokenizer_grads_stay_local_in_backward() {
        // After the gathered forward, each rank's backward touches only its
        // own channels' parameters (slice adjoint), with zero collectives.
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let dt = DistTokenizer::new(&mut store, 9, 4, 4, 8, &ctx.comm);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let mut rng = Rng::new(1);
            let imgs = Tensor::randn([1, 4, 16, 16], 1.0, &mut rng);
            let g = dt.forward_gathered(&bind, &ctx.comm, &imgs);
            let loss = tape.sum_all(&tape.mul(&g, &g));
            let before = ctx.comm.traffic().cursor();
            let grads = tape.backward(&loss);
            ctx.comm.barrier();
            let comm_in_bwd = ctx
                .comm
                .traffic()
                .since(before)
                .iter()
                .filter(|e| e.op != dchag_collectives::CollOp::Barrier)
                .count();
            let got_all = bind.grads(&grads).iter().all(|g| g.is_some());
            (comm_in_bwd, got_all)
        });
        for (comm_in_bwd, got_all) in run.outputs {
            assert_eq!(comm_in_bwd, 0);
            assert!(got_all);
        }
    }
}
