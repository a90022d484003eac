//! Fully-sharded data parallelism (paper §3.4; Zhao et al. 2023).
//!
//! Parameters, gradients and optimizer state are flattened and sharded
//! across the FSDP group. The binder AllGathers a parameter's shards the
//! first time a layer binds it in the forward pass; the registered adjoint
//! ReduceScatters the gradient so each rank keeps only its shard. Optimizer
//! state (Adam moments) therefore lives entirely on shards — the memory
//! saving that motivates FSDP.
//!
//! Both collectives ride the nonblocking chunked engine:
//!
//! * **Forward prefetch** — [`FsdpBinder::prefetch`] (or the opt-in
//!   [`FsdpBinder::with_prefetch`] auto mode) issues the *next* parameter's
//!   AllGather while the current layer's GEMM is still running, so the
//!   gather's deposit rendezvous is already satisfied by the time `bind`
//!   needs the value and the chunk copies run instead of a stall.
//! * **Backward** — the gradient ReduceScatter is *issued* inside the
//!   adjoint the moment that parameter's gradient is final and *waited* in
//!   [`FsdpBinder::sharded_grads`], overlapping the scatter pipeline with
//!   the rest of the backward pass.
//!
//! Prefetch mode must match across ranks (the engine matches collectives by
//! per-rank issue order); results are bitwise identical either way.
//!
//! Both collectives also inherit the communicator's wire precision:
//! building [`FsdpParams`] from `comm.with_precision(CommPrecision::Bf16)`
//! moves gradient reduce-scatters *and* parameter all-gathers over the
//! half-width bf16 wire. Note the gathers then round parameter values
//! through bf16 on the way back (identically on every rank — the step
//! stays deterministic); opt in only where that storage-tier rounding is
//! acceptable (see the tensor README's "Precision tiers").

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dchag_collectives::{CommRequest, Communicator};
use dchag_tensor::checkpoint::{CheckpointEntry, CheckpointError, ShardMeta, SnapEntry, Snapshot};
use dchag_tensor::ops;
use dchag_tensor::prelude::*;

/// Metadata for one sharded parameter.
#[derive(Clone, Debug)]
struct ParamMeta {
    name: String,
    dims: Vec<usize>,
    numel: usize,
    /// Padded length (multiple of the group size).
    padded: usize,
}

/// The sharded parameter state owned by one rank.
pub struct FsdpParams {
    comm: Communicator,
    metas: Vec<ParamMeta>,
    /// Local 1-D shards, one per parameter, stored in a ParamStore so the
    /// stock AdamW can drive updates over shards directly.
    pub shard_store: ParamStore,
    shard_ids: Vec<ParamId>,
}

impl FsdpParams {
    /// Shard a fully-materialized store (every rank must pass an identical
    /// one — enforced by seeded construction).
    pub fn from_store(store: &ParamStore, comm: &Communicator) -> Self {
        let n = comm.size();
        let rank = comm.rank();
        let mut metas = Vec::with_capacity(store.len());
        let mut shard_store = ParamStore::new();
        let mut shard_ids = Vec::with_capacity(store.len());
        for (_, name, value) in store.iter() {
            let numel = value.numel();
            let padded = numel.div_ceil(n) * n;
            let shard_len = padded / n;
            let mut flat = value.to_vec();
            flat.resize(padded, 0.0);
            let local = flat[rank * shard_len..(rank + 1) * shard_len].to_vec();
            metas.push(ParamMeta {
                name: name.to_string(),
                dims: value.dims().to_vec(),
                numel,
                padded,
            });
            shard_ids.push(shard_store.add(format!("{name}.shard"), Tensor::from_vec(local, [shard_len])));
        }
        FsdpParams {
            comm: comm.clone(),
            metas,
            shard_store,
            shard_ids,
        }
    }

    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Total *local* parameter scalars (≈ full / group size).
    pub fn local_scalars(&self) -> usize {
        self.shard_store.num_params()
    }

    /// Materialize the full value of parameter `i` (AllGather).
    pub fn gather_full(&self, i: usize) -> Tensor {
        self.finish_gather(i, self.issue_gather(i))
    }

    /// Issue the AllGather of parameter `i`'s shards without waiting.
    pub fn issue_gather(&self, i: usize) -> CommRequest {
        let shard = self.shard_store.get(self.shard_ids[i]);
        self.comm.iall_gather_cat(shard, 0)
    }

    /// Complete an [`issue_gather`](FsdpParams::issue_gather): unpad and
    /// reshape to the parameter's full value.
    pub fn finish_gather(&self, i: usize, req: CommRequest) -> Tensor {
        let meta = &self.metas[i];
        let full_padded = req.wait();
        let flat = ops::slice(&full_padded, 0, 0, meta.numel);
        flat.reshape(&meta.dims)
    }

    /// Name of parameter `i` (diagnostics).
    pub fn name(&self, i: usize) -> &str {
        &self.metas[i].name
    }

    /// This rank's checkpoint [`Snapshot`]: one entry per parameter holding
    /// the local 1-D shard, tagged with [`ShardMeta`] (rank, world, padded
    /// length, full dims) so `merge_shards` can reassemble the full tensors
    /// when the checkpoint is restored into a *different* world size.
    /// Entries use the full parameter name (not the `.shard` alias), so a
    /// merged restore also applies cleanly to an unsharded store.
    pub fn shard_snapshot(&self, step: u64) -> Snapshot {
        let entries = self
            .metas
            .iter()
            .zip(&self.shard_ids)
            .map(|(meta, &id)| SnapEntry {
                name: meta.name.clone(),
                value: self.shard_store.get(id).clone(),
                shard: Some(ShardMeta {
                    rank: self.comm.rank(),
                    world: self.comm.size(),
                    padded: meta.padded,
                    full_dims: meta.dims.clone(),
                }),
            })
            .collect();
        Snapshot { entries, optim: None, step, rng: None }
    }

    /// Restore from *full* (merged) checkpoint entries — the output of
    /// `merge_shards` over any world size's shard set — by re-flattening,
    /// re-padding, and slicing each parameter for this group's size and
    /// this rank. Returns the number of parameters restored; entries with
    /// no matching parameter are ignored, shape disagreements are typed
    /// errors.
    pub fn restore_resharded(
        &mut self,
        entries: &[CheckpointEntry],
    ) -> Result<usize, CheckpointError> {
        let n = self.comm.size();
        let rank = self.comm.rank();
        let mut restored = 0;
        for (i, meta) in self.metas.iter().enumerate() {
            let Some(e) = entries.iter().find(|e| e.name == meta.name) else {
                continue;
            };
            if e.value.dims() != meta.dims.as_slice() {
                return Err(CheckpointError::ShapeMismatch {
                    name: meta.name.clone(),
                    checkpoint: e.value.dims().to_vec(),
                    store: meta.dims.clone(),
                });
            }
            let shard_len = meta.padded / n;
            let mut flat = e.value.to_vec();
            flat.resize(meta.padded, 0.0);
            let local = flat[rank * shard_len..(rank + 1) * shard_len].to_vec();
            self.shard_store.set(self.shard_ids[i], Tensor::from_vec(local, [shard_len]));
            restored += 1;
        }
        Ok(restored)
    }
}

/// Binder that gathers shards on demand (optionally prefetched) and issues
/// nonblocking gradient reduce-scatters.
pub struct FsdpBinder<'a> {
    tape: &'a Tape,
    params: &'a FsdpParams,
    bound: RefCell<Vec<Option<Var>>>,
    stash: Rc<RefCell<Vec<Option<Tensor>>>>,
    /// In-flight forward gathers, keyed by parameter index.
    pending_gather: RefCell<HashMap<usize, CommRequest>>,
    /// In-flight backward reduce-scatters, in issue order.
    pending_rs: Rc<RefCell<Vec<(usize, CommRequest)>>>,
    auto_prefetch: bool,
}

impl<'a> FsdpBinder<'a> {
    pub fn new(tape: &'a Tape, params: &'a FsdpParams) -> Self {
        FsdpBinder {
            tape,
            params,
            bound: RefCell::new(vec![None; params.len()]),
            stash: Rc::new(RefCell::new(vec![None; params.len()])),
            pending_gather: RefCell::new(HashMap::new()),
            pending_rs: Rc::new(RefCell::new(Vec::new())),
            auto_prefetch: false,
        }
    }

    /// Binder with automatic next-parameter prefetch: binding parameter `i`
    /// issues the AllGather for parameter `i+1`, hiding its rendezvous
    /// under the current layer's compute. All ranks must agree on the mode;
    /// note the lookahead also gathers a trailing parameter the forward
    /// pass may never bind (harmless — the request is simply dropped).
    pub fn with_prefetch(tape: &'a Tape, params: &'a FsdpParams) -> Self {
        FsdpBinder {
            auto_prefetch: true,
            ..Self::new(tape, params)
        }
    }

    /// Launch the AllGather for `id` now, so a later `bind` finds it in
    /// flight (layer-aware manual prefetch). No-op if already bound or
    /// pending. Must be called at the same program point on every rank.
    pub fn prefetch(&self, id: ParamId) {
        let i = id.index();
        if i >= self.params.len() || self.bound.borrow()[i].is_some() {
            return;
        }
        self.pending_gather
            .borrow_mut()
            .entry(i)
            .or_insert_with(|| self.params.issue_gather(i));
    }

    /// Local *shard* gradients captured during backward (same indexing as
    /// the shard store). Waits any reduce-scatters still in flight. Call
    /// after `tape.backward`.
    pub fn sharded_grads(&self) -> Vec<Option<Tensor>> {
        for (i, req) in self.pending_rs.borrow_mut().drain(..) {
            self.stash.borrow_mut()[i] = Some(req.wait());
        }
        self.stash.borrow().clone()
    }
}

impl Binder for FsdpBinder<'_> {
    fn tape(&self) -> &Tape {
        self.tape
    }

    fn bind(&self, id: ParamId) -> Var {
        let i = id.index();
        if let Some(v) = &self.bound.borrow()[i] {
            return v.clone();
        }
        let full = match self.pending_gather.borrow_mut().remove(&i) {
            Some(req) => self.params.finish_gather(i, req),
            None => self.params.gather_full(i),
        };
        if self.auto_prefetch && i + 1 < self.params.len() {
            self.prefetch(ParamId::from_index(i + 1));
        }
        let meta_padded = self.params.metas[i].padded;
        let comm = self.params.comm.clone();
        let pending_rs = self.pending_rs.clone();
        let v = self.tape.custom(full, move |g, emit| {
            let _ = &emit; // gradient terminates here: it belongs to a shard, not a tape node
            let mut flat = g.to_vec();
            flat.resize(meta_padded, 0.0);
            // Issue now — while the backward keeps walking earlier layers —
            // and wait in `sharded_grads`. The stash stays None until then.
            let req = comm.ireduce_scatter_sum(&Tensor::from_vec(flat, [meta_padded]));
            pending_rs.borrow_mut().push((i, req));
        });
        self.bound.borrow_mut()[i] = Some(v.clone());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::{run_ranks, CollOp};
    use dchag_model::layers::Linear;
    use dchag_model::AdamW;

    /// Build the same two-layer model on every rank.
    fn build_model(store: &mut ParamStore, rng: &mut Rng) -> (Linear, Linear) {
        let l1 = Linear::new(store, rng, "l1", 4, 8, true);
        let l2 = Linear::new(store, rng, "l2", 8, 2, true);
        (l1, l2)
    }

    #[test]
    fn shards_tile_parameters() {
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let _ = build_model(&mut store, &mut rng);
            let fsdp = FsdpParams::from_store(&store, &ctx.comm);
            // gather_full must reproduce the original values
            let mut diffs = Vec::new();
            for (i, (_, _, value)) in store.iter().enumerate() {
                diffs.push(fsdp.gather_full(i).max_abs_diff(value));
            }
            diffs
        });
        for diffs in run.outputs {
            assert!(diffs.iter().all(|&d| d == 0.0), "{diffs:?}");
        }
    }

    #[test]
    fn local_scalars_shrink_with_group() {
        let full = {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let _ = build_model(&mut store, &mut rng);
            store.num_params()
        };
        let run = run_ranks(4, move |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let _ = build_model(&mut store, &mut rng);
            FsdpParams::from_store(&store, &ctx.comm).local_scalars()
        });
        for local in run.outputs {
            assert!(local <= full.div_ceil(4) + 8, "local {local} vs full {full}");
        }
    }

    #[test]
    fn fsdp_training_step_matches_dp_mean_grad() {
        // Two ranks, different data; FSDP sharded-Adam step must equal the
        // single-device step on the concatenated batch (grads averaged).
        let mut drng = Rng::new(77);
        let xs: Vec<Tensor> = (0..2).map(|_| Tensor::randn([3, 4], 1.0, &mut drng)).collect();
        let x_all = ops::concat(&[&xs[0], &xs[1]], 0);

        // single-device reference: loss = mean over all 6 rows
        let mut ref_store = ParamStore::new();
        let mut rng = Rng::new(5);
        let (l1, l2) = build_model(&mut ref_store, &mut rng);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &ref_store);
        let xv = tape.leaf(x_all.clone());
        let y = l2.forward(&bind, &tape.gelu(&l1.forward(&bind, &xv)));
        let loss = tape.mean_all(&tape.mul(&y, &y));
        let grads = tape.backward(&loss);
        let pg = bind.grads(&grads);
        let mut opt = AdamW::new(0.01);
        opt.step(&mut ref_store, &pg);
        let want: Vec<Vec<f32>> = ref_store.iter().map(|(_, _, v)| v.to_vec()).collect();

        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let (l1, l2) = build_model(&mut store, &mut rng);
            let mut fsdp = FsdpParams::from_store(&store, &ctx.comm);
            let tape = Tape::new();
            let bind = FsdpBinder::new(&tape, &fsdp);
            let xv = tape.leaf(xs[ctx.comm.rank()].clone());
            let y = l2.forward(&bind, &tape.gelu(&l1.forward(&bind, &xv)));
            // per-rank mean over 3 rows; global mean = mean of means here
            // because shards sum: scale by 1/world to form the average.
            let loss = tape.mean_all(&tape.mul(&y, &y));
            let loss = tape.scale(&loss, 1.0 / ctx.comm.size() as f32);
            let grads = tape.backward(&loss);
            drop(grads);
            let g = bind.sharded_grads();
            let mut opt = AdamW::new(0.01);
            opt.step(&mut fsdp.shard_store, &g);
            // reconstruct full params for comparison
            (0..fsdp.len())
                .map(|i| fsdp.gather_full(i).to_vec())
                .collect::<Vec<_>>()
        });
        for got in run.outputs {
            for (g, w) in got.iter().zip(&want) {
                for (a, b) in g.iter().zip(w) {
                    assert!((a - b).abs() < 1e-5, "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn checkpoint_fsdp_w4_shards_restore_into_w3_world() {
        use dchag_tensor::checkpoint::{merge_shards, CheckpointDir};
        use std::time::Duration;
        let root = std::env::temp_dir()
            .join(format!("dchag_fsdp_reshard_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        // Reference full values (same seeded build every world size uses).
        let reference: Vec<(String, Vec<f32>)> = {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let _ = build_model(&mut store, &mut rng);
            store.iter().map(|(_, n, v)| (n.to_string(), v.to_vec())).collect()
        };

        // w=4: every rank saves its shard snapshot; rank 0 commits step 4.
        let root4 = root.clone();
        run_ranks(4, move |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let _ = build_model(&mut store, &mut rng);
            let fsdp = FsdpParams::from_store(&store, &ctx.comm);
            let dir = CheckpointDir::open(&root4, ctx.comm.rank(), 4).unwrap();
            dir.save_shard(&fsdp.shard_snapshot(4)).unwrap();
            if ctx.comm.rank() == 0 {
                dir.commit(4, Duration::from_secs(10)).unwrap();
            }
            ctx.comm.barrier();
        });

        // w=3: a *zeroed* model restores the w=4 checkpoint resharded.
        let root3 = root.clone();
        let want = reference.clone();
        let run = run_ranks(3, move |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let _ = build_model(&mut store, &mut rng);
            let ids: Vec<_> = store.ids().collect();
            for id in ids {
                let dims = store.get(id).dims().to_vec();
                store.set(id, Tensor::zeros(Shape::new(&dims)));
            }
            let mut fsdp = FsdpParams::from_store(&store, &ctx.comm);
            let dir = CheckpointDir::open(&root3, ctx.comm.rank(), 3).unwrap();
            let v = dir.latest_valid().unwrap();
            assert_eq!((v.step, v.world), (4, 4), "w=4 checkpoint selected");
            let shards = dir.load_all_shards(v.step).unwrap();
            let merged = merge_shards(&shards).unwrap();
            let restored = fsdp.restore_resharded(&merged).unwrap();
            assert_eq!(restored, fsdp.len());
            (0..fsdp.len())
                .map(|i| (fsdp.name(i).to_string(), fsdp.gather_full(i).to_vec()))
                .collect::<Vec<_>>()
        });
        for got in run.outputs {
            for ((gn, gv), (wn, wv)) in got.iter().zip(&want) {
                assert_eq!(gn, wn);
                assert_eq!(
                    gv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    wv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{gn} must survive w=4 → w=3 reshard bitwise"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn forward_gathers_backward_reduce_scatters() {
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let (l1, _) = build_model(&mut store, &mut rng);
            let fsdp = FsdpParams::from_store(&store, &ctx.comm);
            let tape = Tape::new();
            let bind = FsdpBinder::new(&tape, &fsdp);
            let xv = tape.leaf(Tensor::ones([2, 4]));
            let y = l1.forward(&bind, &xv);
            let loss = tape.sum_all(&y);
            let mid = ctx.comm.traffic().cursor();
            let _ = tape.backward(&loss);
            ctx.comm.barrier();
            let rs = ctx
                .comm
                .traffic()
                .since(mid)
                .iter()
                .filter(|e| e.op == CollOp::ReduceScatter)
                .count();
            (ctx.comm.traffic().count(CollOp::AllGather), rs)
        });
        // l1 has w+b = 2 params -> 2 gathers in forward, 2 reduce-scatters in backward (per world)
        assert_eq!(run.outputs[0].0, 2);
        assert_eq!(run.outputs[0].1, 2);
    }

    #[test]
    fn prefetch_binder_matches_on_demand_bitwise() {
        // Auto-prefetch changes only the issue points, never the numerics:
        // a full forward/backward/step must agree bit-for-bit.
        for world in [2usize, 4] {
            let run = run_ranks(world, |ctx| {
                let step = |prefetch: bool| -> Vec<Vec<f32>> {
                    let mut store = ParamStore::new();
                    let mut rng = Rng::new(5);
                    let (l1, l2) = build_model(&mut store, &mut rng);
                    let mut fsdp = FsdpParams::from_store(&store, &ctx.comm);
                    let tape = Tape::new();
                    let bind = if prefetch {
                        FsdpBinder::with_prefetch(&tape, &fsdp)
                    } else {
                        FsdpBinder::new(&tape, &fsdp)
                    };
                    let mut drng = Rng::new(60 + ctx.comm.rank() as u64);
                    let xv = tape.leaf(Tensor::randn([3, 4], 1.0, &mut drng));
                    let y = l2.forward(&bind, &tape.gelu(&l1.forward(&bind, &xv)));
                    let loss = tape.mean_all(&tape.mul(&y, &y));
                    let _ = tape.backward(&loss);
                    let g = bind.sharded_grads();
                    let mut opt = AdamW::new(0.01);
                    opt.step(&mut fsdp.shard_store, &g);
                    (0..fsdp.len()).map(|i| fsdp.gather_full(i).to_vec()).collect()
                };
                (step(false), step(true))
            });
            for (on_demand, prefetched) in run.outputs {
                assert_eq!(on_demand, prefetched, "world={world}");
            }
        }
    }

    #[test]
    fn fsdp_bf16_wire_deterministic_and_rounds_gathers() {
        use dchag_collectives::CommPrecision;
        use dchag_tensor::dtype::bf16_round_trip;
        for world in [2usize, 4] {
            let run = run_ranks(world, |ctx| {
                // Full train step on an explicit comm (gathers and
                // reduce-scatters both ride its wire precision).
                let step = |comm: &Communicator| -> Vec<Vec<f32>> {
                    let mut store = ParamStore::new();
                    let mut rng = Rng::new(5);
                    let (l1, l2) = build_model(&mut store, &mut rng);
                    let mut fsdp = FsdpParams::from_store(&store, comm);
                    let tape = Tape::new();
                    let bind = FsdpBinder::new(&tape, &fsdp);
                    let mut drng = Rng::new(60 + ctx.comm.rank() as u64);
                    let xv = tape.leaf(Tensor::randn([3, 4], 1.0, &mut drng));
                    let y = l2.forward(&bind, &tape.gelu(&l1.forward(&bind, &xv)));
                    let loss = tape.mean_all(&tape.mul(&y, &y));
                    let _ = tape.backward(&loss);
                    let g = bind.sharded_grads();
                    let mut opt = AdamW::new(0.01);
                    opt.step(&mut fsdp.shard_store, &g);
                    (0..fsdp.len()).map(|i| fsdp.gather_full(i).to_vec()).collect()
                };
                let bf = ctx.comm.with_precision(CommPrecision::Bf16);
                let reference = step(&ctx.comm);
                let bf_once = step(&bf);
                let bf_again = step(&bf);
                // A plain gather on the bf16 wire returns the parameter
                // round-tripped through bf16, element for element.
                let mut store = ParamStore::new();
                let mut rng = Rng::new(5);
                let _ = build_model(&mut store, &mut rng);
                let fsdp = FsdpParams::from_store(&store, &bf);
                let gathered = fsdp.gather_full(0).to_vec();
                let want: Vec<f32> = store
                    .iter()
                    .next()
                    .unwrap()
                    .2
                    .to_vec()
                    .iter()
                    .map(|&x| bf16_round_trip(x))
                    .collect();
                (reference, bf_once, bf_again, gathered, want)
            });
            let first = run.outputs[0].1.clone();
            for (reference, bf_once, bf_again, gathered, want) in &run.outputs {
                assert_eq!(bf_once, bf_again, "run-deterministic, world={world}");
                assert_eq!(bf_once, &first, "rank-identical, world={world}");
                assert_eq!(gathered, want, "bf16-wire gather round-trips values");
                // One optimizer step from identical init stays near the
                // f32-wire trajectory (wire rounding is ≤ |x|·2⁻⁹ per hop).
                let (mut num, mut den) = (0f64, 0f64);
                for (pb, pf) in bf_once.iter().zip(reference) {
                    for (&a, &b) in pb.iter().zip(pf) {
                        num += ((a - b) as f64).powi(2);
                        den += (b as f64).powi(2);
                    }
                }
                let rel = num.sqrt() / (den.sqrt() + 1e-12);
                assert!(rel < 1.0 / 64.0, "world={world}: rel l2 drift {rel}");
            }
        }
    }

    #[test]
    fn explicit_prefetch_keeps_gather_count() {
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let (l1, _) = build_model(&mut store, &mut rng);
            let fsdp = FsdpParams::from_store(&store, &ctx.comm);
            let tape = Tape::new();
            let bind = FsdpBinder::new(&tape, &fsdp);
            // Launch both of l1's gathers up front, then bind normally.
            bind.prefetch(dchag_tensor::prelude::ParamId::from_index(0));
            bind.prefetch(dchag_tensor::prelude::ParamId::from_index(1));
            let xv = tape.leaf(Tensor::ones([2, 4]));
            let _ = l1.forward(&bind, &xv);
            ctx.comm.barrier();
            ctx.comm.traffic().count(CollOp::AllGather)
        });
        assert_eq!(run.outputs[0], 2, "prefetch + bind gathers each param once");
    }

    #[test]
    fn backward_scatter_waits_in_sharded_grads() {
        // The reduce-scatter is issued during backward (events inside the
        // window) but its result only lands at sharded_grads().
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let (l1, _) = build_model(&mut store, &mut rng);
            let fsdp = FsdpParams::from_store(&store, &ctx.comm);
            let tape = Tape::new();
            let bind = FsdpBinder::new(&tape, &fsdp);
            let xv = tape.leaf(Tensor::ones([2, 4]));
            let loss = tape.sum_all(&l1.forward(&bind, &xv));
            ctx.comm.barrier();
            let mid = ctx.comm.traffic().cursor();
            let _ = tape.backward(&loss);
            ctx.comm.barrier();
            let rs_issued = ctx
                .comm
                .traffic()
                .since(mid)
                .iter()
                .filter(|e| e.op == CollOp::ReduceScatter)
                .count();
            let grads = bind.sharded_grads();
            (rs_issued, grads.iter().filter(|g| g.is_some()).count())
        });
        // Events are recorded by group rank 0, so only rank 0's cursor
        // window is deterministic relative to its own backward.
        assert_eq!(run.outputs[0].0, 2, "w and b scatters issued during backward");
        for (_, got) in run.outputs {
            assert_eq!(got, 2);
        }
    }

    #[test]
    fn binder_caches_single_gather_per_param() {
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let (l1, _) = build_model(&mut store, &mut rng);
            let fsdp = FsdpParams::from_store(&store, &ctx.comm);
            let tape = Tape::new();
            let bind = FsdpBinder::new(&tape, &fsdp);
            let xv = tape.leaf(Tensor::ones([1, 4]));
            let _ = l1.forward(&bind, &xv);
            let _ = l1.forward(&bind, &xv); // reuse
            ctx.comm.traffic().count(CollOp::AllGather)
        });
        assert_eq!(run.outputs[0], 2, "w and b gathered once each");
    }
}
