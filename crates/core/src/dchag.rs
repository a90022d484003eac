//! The D-CHAG encoder (paper §3.3, Fig. 4).
//!
//! Per TP rank: tokenize a channel slice → partial-channel aggregation (a
//! hierarchical tree of `-C`/`-L` units) down to **one token per spatial
//! position** → AllGather of that single token across the TP group → final
//! *shared* cross-attention over the `tp_size` partial tokens → ViT. Both
//! are the flat model's modules, TP-sharded by their `sharded` constructors
//! (embedding-sharded, like every other attention under TP).
//!
//! Communication profile (asserted by tests):
//! * forward: one AllGather of `B·P·D` per rank (vs `B·C·P·D` for
//!   distributed tokenization alone — a factor `C/tp` less), plus the TP
//!   AllReduces that exist in the TP baseline anyway;
//! * backward: the AllGather's adjoint is a local slice — **zero extra
//!   collectives**.

use dchag_collectives::Communicator;
use dchag_model::config::{ModelConfig, TreeConfig};
use dchag_model::embeddings::PosEmbed;
use dchag_model::encoder::EncoderBackbone;
use dchag_model::hierarchy::HierarchicalAggregator;
use dchag_model::{CrossAttnAggregator, ViTEncoder};
use dchag_parallel::comm_ops::all_gather_cat;
use dchag_parallel::dist_token::DistTokenizer;
use dchag_parallel::tp::tp_group;
use dchag_tensor::prelude::*;

/// Distributed D-CHAG encoder; one instance per TP/D-CHAG rank.
pub struct DChagEncoder {
    pub cfg: ModelConfig,
    pub tree: TreeConfig,
    pub dist_tok: DistTokenizer,
    pub partial: HierarchicalAggregator,
    pub final_agg: CrossAttnAggregator,
    pub pos: PosEmbed,
    pub vit: ViTEncoder,
    comm: Communicator,
}

/// RNG stream tag for per-rank partial-aggregation parameters.
const STREAM_PARTIAL: u64 = 0xDC_4A6;

impl DChagEncoder {
    /// Build this rank's slice of the model.
    ///
    /// * `base_seed` keys the channel-owned parameters (identical to the
    ///   baseline's, per channel).
    /// * `rng` must be identically-seeded on every rank: shared modules
    ///   (final aggregation, positions, ViT) draw from it in lockstep so
    ///   replicated/sharded parameters agree; the per-rank partial module
    ///   draws from a rank-forked stream.
    /// * `comm` is the TP group (the paper's "D-CHAG and TP groups are
    ///   identical").
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        cfg: &ModelConfig,
        base_seed: u64,
        tree: TreeConfig,
        comm: &Communicator,
    ) -> Self {
        let tp = comm.size();
        assert!(
            cfg.channels.is_multiple_of(tp),
            "channels {} must divide the TP size {tp}",
            cfg.channels
        );
        assert!(
            cfg.heads.is_multiple_of(tp),
            "heads {} must divide the TP size {tp}",
            cfg.heads
        );
        let dist_tok = DistTokenizer::new(
            store,
            base_seed,
            cfg.channels,
            cfg.patch,
            cfg.embed_dim,
            comm,
        );
        let local_channels = dist_tok.range.len();
        let mut partial_rng = rng.fork(STREAM_PARTIAL ^ (comm.rank() as u64 + 1));
        let partial = HierarchicalAggregator::new(
            store,
            &mut partial_rng,
            "partial",
            local_channels,
            tree,
            cfg.embed_dim,
            cfg.heads,
        );
        let group = tp_group(comm);
        let final_agg = CrossAttnAggregator::sharded(
            store,
            rng,
            "final_agg",
            tp,
            cfg.embed_dim,
            cfg.heads,
            &group,
        );
        let pos = PosEmbed::new(store, rng, "pos_embed", cfg.num_patches(), cfg.embed_dim);
        let vit = ViTEncoder::sharded(
            store,
            rng,
            "vit",
            cfg.embed_dim,
            cfg.depth,
            cfg.heads,
            cfg.mlp_dim(),
            &group,
        );
        DChagEncoder {
            cfg: cfg.clone(),
            tree,
            dist_tok,
            partial,
            final_agg,
            pos,
            vit,
            comm: comm.clone(),
        }
    }

    /// The TP/D-CHAG communicator this encoder runs over.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Number of channels this rank tokenizes and aggregates.
    pub fn local_channels(&self) -> usize {
        self.dist_tok.range.len()
    }
}

impl EncoderBackbone for DChagEncoder {
    fn embed(&self, bind: &dyn Binder, images: &Tensor) -> Var {
        let tape = bind.tape();
        let (b, p, d) = (images.dims()[0], self.cfg.num_patches(), self.cfg.embed_dim);
        let cl = self.local_channels();

        // Local tokenization of this rank's channel slice (paper Fig. 4).
        let local = self.dist_tok.local_slice(images);
        let tokens = self.dist_tok.tok.forward(bind, &local); // [B, Cl, P, D]

        // Partial-channel aggregation to one token per position.
        let by_pos = tape.swap_axes12(&tokens); // [B, P, Cl, D]
        let folded = tape.reshape(&by_pos, &[b * p, cl, d]);
        let partial = self.partial.forward(bind, &folded); // [B·P, D]

        // Gather one token per rank; backward is a slice (no comm).
        let one = tape.reshape(&partial, &[b * p, 1, d]);
        let gathered = all_gather_cat(tape, &self.comm, &one, 1); // [B·P, tp, D]

        // Final shared cross-attention (embedding-sharded).
        let agg = self.final_agg.forward(bind, &gathered); // [B·P, D]
        let x = tape.reshape(&agg, &[b, p, d]);
        self.pos.forward(bind, &x)
    }

    fn encode(&self, bind: &dyn Binder, x: &Var) -> Var {
        self.vit.forward(bind, x)
    }

    fn config(&self) -> &ModelConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::{run_ranks, CollOp};
    use dchag_model::config::UnitKind;

    fn tiny(channels: usize) -> ModelConfig {
        ModelConfig::tiny(channels)
    }

    #[test]
    fn forward_shapes_on_two_ranks() {
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(42);
            let cfg = tiny(8);
            let enc = DChagEncoder::new(
                &mut store,
                &mut rng,
                &cfg,
                7,
                TreeConfig::tree0(UnitKind::Linear),
                &ctx.comm,
            );
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let mut drng = Rng::new(1);
            let imgs = Tensor::randn([2, 8, 16, 16], 1.0, &mut drng);
            let x = enc.embed(&bind, &imgs);
            let y = enc.encode(&bind, &x);
            (x.dims().to_vec(), y.dims().to_vec(), y.value().all_finite())
        });
        for (xd, yd, finite) in run.outputs {
            assert_eq!(xd, vec![2, 16, 32]);
            assert_eq!(yd, vec![2, 16, 32]);
            assert!(finite);
        }
    }

    #[test]
    fn output_replicated_across_ranks() {
        // After the final shared aggregation + TP ViT, every rank holds the
        // same activation (that is what lets replicated heads work).
        let run = run_ranks(4, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(11);
            let cfg = tiny(8);
            let enc = DChagEncoder::new(
                &mut store,
                &mut rng,
                &cfg,
                7,
                TreeConfig::tree(2, UnitKind::Linear),
                &ctx.comm,
            );
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let mut drng = Rng::new(1);
            let imgs = Tensor::randn([1, 8, 16, 16], 1.0, &mut drng);
            let y = enc.encode(&bind, &enc.embed(&bind, &imgs));
            // compare to rank 0's copy
            let reference = ctx.comm.broadcast(y.value(), 0);
            y.value().max_abs_diff(&reference)
        });
        for d in run.outputs {
            assert!(d < 1e-5, "ranks diverged by {d}");
        }
    }

    #[test]
    fn backward_has_no_gather_or_scatter_collectives() {
        // The paper's claim: D-CHAG adds no backward communication. The
        // only backward collectives allowed are the TP AllReduces (f-ops),
        // which the TP baseline performs as well.
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(13);
            let cfg = tiny(4);
            let enc = DChagEncoder::new(
                &mut store,
                &mut rng,
                &cfg,
                7,
                TreeConfig::tree0(UnitKind::CrossAttention),
                &ctx.comm,
            );
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let mut drng = Rng::new(1);
            let imgs = Tensor::randn([1, 4, 16, 16], 1.0, &mut drng);
            let y = enc.encode(&bind, &enc.embed(&bind, &imgs));
            let loss = tape.sum_all(&tape.mul(&y, &y));
            let before = ctx.comm.traffic().cursor();
            let _ = tape.backward(&loss);
            ctx.comm.barrier();
            let events = ctx.comm.traffic().since(before);
            let gathers = events.iter().filter(|e| e.op == CollOp::AllGather).count();
            let scatters = events
                .iter()
                .filter(|e| e.op == CollOp::ReduceScatter)
                .count();
            (gathers, scatters)
        });
        for (g, s) in run.outputs {
            assert_eq!(g, 0, "no AllGather in backward");
            assert_eq!(s, 0, "no ReduceScatter in backward");
        }
    }

    #[test]
    fn forward_gather_is_one_token_per_rank() {
        // AllGather payload must be B·P·D (one channel), not B·C·P·D.
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(17);
            let cfg = tiny(8);
            let enc = DChagEncoder::new(
                &mut store,
                &mut rng,
                &cfg,
                7,
                TreeConfig::tree0(UnitKind::Linear),
                &ctx.comm,
            );
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let mut drng = Rng::new(1);
            let imgs = Tensor::randn([2, 8, 16, 16], 1.0, &mut drng);
            let _ = enc.embed(&bind, &imgs);
            ctx.comm
                .traffic()
                .events()
                .iter()
                .filter(|e| e.op == CollOp::AllGather)
                .map(|e| e.payload_bytes)
                .collect::<Vec<_>>()
        });
        // B=2, P=16, D=32, f32: 2·16·32·4 = 4096 bytes — exactly one
        // "channel" worth per rank.
        assert_eq!(run.outputs[0], vec![2 * 16 * 32 * 4]);
    }

    #[test]
    fn partial_params_differ_shared_params_agree() {
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(23);
            let cfg = tiny(8);
            let enc = DChagEncoder::new(
                &mut store,
                &mut rng,
                &cfg,
                7,
                TreeConfig::tree0(UnitKind::Linear),
                &ctx.comm,
            );
            // one partial param and one shared (replicated) param
            let partial = store
                .iter()
                .find(|(_, n, _)| n.starts_with("partial"))
                .map(|(_, _, v)| v.clone())
                .unwrap();
            let pos = store.get(enc.pos.table).clone();
            let partials = ctx.comm.all_gather_vec(&partial);
            let poses = ctx.comm.all_gather_vec(&pos);
            (
                partials[0].max_abs_diff(&partials[1]),
                poses[0].max_abs_diff(&poses[1]),
            )
        });
        for (pdiff, sdiff) in run.outputs {
            assert!(pdiff > 1e-6, "partial modules must be rank-specific");
            assert_eq!(sdiff, 0.0, "shared modules must be identical");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let once = || {
            let run = run_ranks(2, |ctx| {
                let mut store = ParamStore::new();
                let mut rng = Rng::new(31);
                let cfg = tiny(4);
                let enc = DChagEncoder::new(
                    &mut store,
                    &mut rng,
                    &cfg,
                    9,
                    TreeConfig::tree(2, UnitKind::CrossAttention),
                    &ctx.comm,
                );
                let tape = Tape::new();
                let bind = LocalBinder::new(&tape, &store);
                let mut drng = Rng::new(2);
                let imgs = Tensor::randn([1, 4, 16, 16], 1.0, &mut drng);
                enc.encode(&bind, &enc.embed(&bind, &imgs)).value().to_vec()
            });
            run.outputs[0].clone()
        };
        assert_eq!(once(), once());
    }

    #[test]
    fn parameter_names_shapes_and_order_are_pinned() {
        // Checkpoints and the FSDP bind order key on these names, shapes
        // and this order. Tokenizer entries name each rank's channels.
        const SHARED: &[(&str, &[usize])] = &[
            ("partial.l1.0.ln.gamma", &[32]),
            ("partial.l1.0.ln.beta", &[32]),
            ("partial.l1.0.attn.wq.w", &[32, 32]),
            ("partial.l1.0.attn.wq.b", &[32]),
            ("partial.l1.0.attn.wk.w", &[32, 32]),
            ("partial.l1.0.attn.wk.b", &[32]),
            ("partial.l1.0.attn.wv.w", &[32, 32]),
            ("partial.l1.0.attn.wv.b", &[32]),
            ("partial.l1.0.attn.wo.w", &[32, 32]),
            ("partial.l1.0.attn.wo.b", &[32]),
            ("partial.l1.0.pool_w", &[32, 1]),
            ("partial.l1.1.ln.gamma", &[32]),
            ("partial.l1.1.ln.beta", &[32]),
            ("partial.l1.1.attn.wq.w", &[32, 32]),
            ("partial.l1.1.attn.wq.b", &[32]),
            ("partial.l1.1.attn.wk.w", &[32, 32]),
            ("partial.l1.1.attn.wk.b", &[32]),
            ("partial.l1.1.attn.wv.w", &[32, 32]),
            ("partial.l1.1.attn.wv.b", &[32]),
            ("partial.l1.1.attn.wo.w", &[32, 32]),
            ("partial.l1.1.attn.wo.b", &[32]),
            ("partial.l1.1.pool_w", &[32, 1]),
            ("partial.l2.ln.gamma", &[32]),
            ("partial.l2.ln.beta", &[32]),
            ("partial.l2.attn.wq.w", &[32, 32]),
            ("partial.l2.attn.wq.b", &[32]),
            ("partial.l2.attn.wk.w", &[32, 32]),
            ("partial.l2.attn.wk.b", &[32]),
            ("partial.l2.attn.wv.w", &[32, 32]),
            ("partial.l2.attn.wv.b", &[32]),
            ("partial.l2.attn.wo.w", &[32, 32]),
            ("partial.l2.attn.wo.b", &[32]),
            ("partial.l2.pool_w", &[32, 1]),
            ("final_agg.ln.gamma", &[32]),
            ("final_agg.ln.beta", &[32]),
            ("final_agg.attn.wq.w", &[32, 16]),
            ("final_agg.attn.wq.b", &[16]),
            ("final_agg.attn.wk.w", &[32, 16]),
            ("final_agg.attn.wk.b", &[16]),
            ("final_agg.attn.wv.w", &[32, 16]),
            ("final_agg.attn.wv.b", &[16]),
            ("final_agg.attn.wo.w", &[16, 32]),
            ("final_agg.attn.wo.b", &[32]),
            ("final_agg.pool_w", &[32, 1]),
            ("pos_embed", &[16, 32]),
            ("vit.blk0.ln1.gamma", &[32]),
            ("vit.blk0.ln1.beta", &[32]),
            ("vit.blk0.attn.wq.w", &[32, 16]),
            ("vit.blk0.attn.wq.b", &[16]),
            ("vit.blk0.attn.wk.w", &[32, 16]),
            ("vit.blk0.attn.wk.b", &[16]),
            ("vit.blk0.attn.wv.w", &[32, 16]),
            ("vit.blk0.attn.wv.b", &[16]),
            ("vit.blk0.attn.wo.w", &[16, 32]),
            ("vit.blk0.attn.wo.b", &[32]),
            ("vit.blk0.ln2.gamma", &[32]),
            ("vit.blk0.ln2.beta", &[32]),
            ("vit.blk0.mlp.fc1.w", &[32, 32]),
            ("vit.blk0.mlp.fc1.b", &[32]),
            ("vit.blk0.mlp.fc2.w", &[32, 32]),
            ("vit.blk0.mlp.fc2.b", &[32]),
            ("vit.blk1.ln1.gamma", &[32]),
            ("vit.blk1.ln1.beta", &[32]),
            ("vit.blk1.attn.wq.w", &[32, 16]),
            ("vit.blk1.attn.wq.b", &[16]),
            ("vit.blk1.attn.wk.w", &[32, 16]),
            ("vit.blk1.attn.wk.b", &[16]),
            ("vit.blk1.attn.wv.w", &[32, 16]),
            ("vit.blk1.attn.wv.b", &[16]),
            ("vit.blk1.attn.wo.w", &[16, 32]),
            ("vit.blk1.attn.wo.b", &[32]),
            ("vit.blk1.ln2.gamma", &[32]),
            ("vit.blk1.ln2.beta", &[32]),
            ("vit.blk1.mlp.fc1.w", &[32, 32]),
            ("vit.blk1.mlp.fc1.b", &[32]),
            ("vit.blk1.mlp.fc2.w", &[32, 32]),
            ("vit.blk1.mlp.fc2.b", &[32]),
            ("vit.ln_f.gamma", &[32]),
            ("vit.ln_f.beta", &[32]),
        ];
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(1);
            let cfg = tiny(8);
            let tree = TreeConfig::tree(2, UnitKind::CrossAttention);
            let _ = DChagEncoder::new(&mut store, &mut rng, &cfg, 7, tree, &ctx.comm);
            let got: Vec<(String, Vec<usize>)> = store
                .iter()
                .map(|(_, name, t)| (name.to_string(), t.dims().to_vec()))
                .collect();
            got
        });
        for (rank, got) in run.outputs.iter().enumerate() {
            let channels = rank * 4..rank * 4 + 4;
            let mut want: Vec<(String, Vec<usize>)> = channels
                .clone()
                .flat_map(|c| {
                    [
                        (format!("tok.w.{c}"), vec![16, 32]),
                        (format!("tok.b.{c}"), vec![32]),
                    ]
                })
                .collect();
            want.extend(channels.map(|c| (format!("chan_embed.{c}"), vec![32])));
            want.extend(SHARED.iter().map(|(n, d)| (n.to_string(), d.to_vec())));
            assert_eq!(got, &want, "rank {rank}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_channels() {
        run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(1);
            let cfg = tiny(5);
            let _ = DChagEncoder::new(
                &mut store,
                &mut rng,
                &cfg,
                7,
                TreeConfig::tree0(UnitKind::Linear),
                &ctx.comm,
            );
        });
    }
}
