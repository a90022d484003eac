//! Fully-sharded data parallelism over flat parameter units (paper §3.4;
//! Zhao et al. 2023).
//!
//! Parameters, gradients and optimizer state are sharded across the FSDP
//! group, so the Adam moments live entirely on shards — the memory saving
//! that motivates FSDP. Storage is **per parameter**: slot `i` of
//! [`FsdpParams::shard_store`] is parameter `i`'s padded shard, and
//! checkpoints carry one entry per parameter under its own name. A shard of
//! a matrix-shaped parameter is stored as `[1, s]` (anything else as `[s]`),
//! so AdamW's "decay only `ndim >= 2`" rule treats it like the full matrix.
//!
//! The wire moves **units**, as PyTorch FSDP's `FlatParameter` does. A unit
//! is a contiguous run of parameters in `ParamStore` order, closed once it
//! holds at least [`FSDP_UNIT_ELEMS`] elements; every collective moves one
//! unit:
//!
//! * **Forward.** A unit's rank-local buffer is the concatenation of its
//!   members' shards. One AllGather returns it rank-major (`[r][members'
//!   shards of rank r]`), and each member's full value is rebuilt from its
//!   `n` segments. Binding the first member of unit `u` also issues unit
//!   `u+1`'s gather, so the next unit's rendezvous runs under this unit's
//!   compute.
//! * **Backward.** Each member's padded gradient is written into a
//!   rank-major unit buffer (`[r][member slice r]`). The unit's one
//!   ReduceScatter is issued when the adjoint of its last *bound* member
//!   fires, and waited in [`FsdpBinder::sharded_grads`], which first
//!   flushes (in unit order) the units whose bound members did not all
//!   receive a gradient. Splitting a rank's result at the members' offsets
//!   gives back the per-parameter shard gradients.
//!
//! **Bitwise invariants.** Every rank holds exactly the elements a
//! per-tensor layout would give it, and the engine sums every element in
//! rank order whichever collective carries it. Sharded gradients, the
//! rank-local `clip_global_norm`, the elementwise AdamW update, losses and
//! checkpoints are therefore bitwise identical to sharding each parameter on
//! its own; only the number of rounds changes. Every rank must bind the
//! same parameters in the same order (the engine matches collectives by
//! per-rank issue order), and a binder serves one forward and backward.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use dchag_collectives::{CommRequest, Communicator};
use dchag_tensor::checkpoint::{CheckpointError, ShardMeta, SnapEntry, Snapshot};
use dchag_tensor::prelude::*;
use dchag_tensor::scratch;

/// Size at which a flat unit closes: 1 MiB of f32, 16 pipeline chunks. A
/// unit holds at least this many elements unless it is the last one. The
/// size never changes the result: every element is summed in rank order
/// whichever unit carries it.
pub const FSDP_UNIT_ELEMS: usize = 256 * 1024;

/// Metadata for one sharded parameter.
#[derive(Clone, Debug)]
struct ParamMeta {
    name: String,
    dims: Vec<usize>,
    numel: usize,
    /// Padded length (multiple of the group size).
    padded: usize,
    /// Shard length, `padded / group size`.
    shard_len: usize,
    /// The unit that carries this parameter.
    unit: usize,
    /// Offset of this parameter's shard in its unit's rank-local buffer.
    offset: usize,
}

impl ParamMeta {
    /// Shape of the local shard: `[1, s]` for matrices, so AdamW decays
    /// it, `[s]` for everything else.
    fn shard_shape(&self) -> Shape {
        if self.dims.len() >= 2 {
            Shape::new(&[1, self.shard_len])
        } else {
            Shape::new(&[self.shard_len])
        }
    }

    /// This rank's shard of a full (flattened) value.
    fn shard_of(&self, mut flat: Vec<f32>, rank: usize) -> Tensor {
        flat.resize(self.padded, 0.0);
        let local = scratch::copied(&flat[rank * self.shard_len..(rank + 1) * self.shard_len]);
        scratch::recycle(flat);
        Tensor::from_vec(local, self.shard_shape())
    }
}

/// A contiguous run of parameters that moves as one collective.
#[derive(Clone, Debug)]
struct Unit {
    members: Range<usize>,
    /// Rank-local buffer length: the sum of the members' shard lengths.
    len: usize,
}

/// The sharded parameter state owned by one rank.
pub struct FsdpParams {
    comm: Communicator,
    metas: Vec<ParamMeta>,
    units: Vec<Unit>,
    /// Local shards, one per parameter, stored in a ParamStore so the
    /// stock AdamW can drive updates over shards directly.
    pub shard_store: ParamStore,
    shard_ids: Vec<ParamId>,
}

impl FsdpParams {
    /// Shard a fully-materialized store (every rank must pass an identical
    /// one — enforced by seeded construction), grouping parameters into
    /// units of at least [`FSDP_UNIT_ELEMS`] elements.
    pub fn from_store(store: &ParamStore, comm: &Communicator) -> Self {
        Self::with_unit_elems(store, comm, FSDP_UNIT_ELEMS)
    }

    /// [`FsdpParams::from_store`] with units closed at `unit_elems`
    /// elements (tests build multi-unit layouts from small models).
    fn with_unit_elems(store: &ParamStore, comm: &Communicator, unit_elems: usize) -> Self {
        let n = comm.size();
        let rank = comm.rank();
        let mut metas: Vec<ParamMeta> = Vec::with_capacity(store.len());
        let mut units = Vec::new();
        let mut shard_store = ParamStore::new();
        let mut shard_ids = Vec::with_capacity(store.len());
        let (mut start, mut elems, mut len) = (0, 0, 0);
        for (i, (_, name, value)) in store.iter().enumerate() {
            let numel = value.numel();
            let padded = numel.div_ceil(n) * n;
            let meta = ParamMeta {
                name: name.to_string(),
                dims: value.dims().to_vec(),
                numel,
                padded,
                shard_len: padded / n,
                unit: units.len(),
                offset: len,
            };
            let shard = meta.shard_of(value.to_vec(), rank);
            shard_ids.push(shard_store.add(format!("{name}.shard"), shard));
            len += meta.shard_len;
            elems += numel;
            metas.push(meta);
            if elems >= unit_elems {
                units.push(Unit {
                    members: start..i + 1,
                    len,
                });
                (start, elems, len) = (i + 1, 0, 0);
            }
        }
        if start < metas.len() {
            units.push(Unit {
                members: start..metas.len(),
                len,
            });
        }
        FsdpParams {
            comm: comm.clone(),
            metas,
            units,
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

    /// Materialize the full value of parameter `i` (one AllGather of its
    /// unit).
    pub fn gather_full(&self, i: usize) -> Tensor {
        let gathered = self.issue_gather(self.metas[i].unit).wait();
        self.member_full(i, gathered.data())
    }

    /// Issue unit `u`'s AllGather: the concatenation of its members' local
    /// shards.
    fn issue_gather(&self, u: usize) -> CommRequest {
        let unit = &self.units[u];
        let mut buf = scratch::with_capacity(unit.len);
        for i in unit.members.clone() {
            buf.extend_from_slice(self.shard_store.get(self.shard_ids[i]).data());
        }
        self.comm
            .iall_gather_cat(&Tensor::from_vec(buf, [unit.len]), 0)
    }

    /// Rebuild parameter `i`'s full value from its unit's gathered,
    /// rank-major buffer: one segment per rank, unpadded and reshaped.
    fn member_full(&self, i: usize, gathered: &[f32]) -> Tensor {
        let meta = &self.metas[i];
        let stride = self.units[meta.unit].len;
        let mut full = scratch::with_capacity(meta.numel);
        for r in 0..self.comm.size() {
            let take = meta.shard_len.min(meta.numel - full.len());
            let at = r * stride + meta.offset;
            full.extend_from_slice(&gathered[at..at + take]);
        }
        Tensor::from_vec(full, Shape::new(&meta.dims))
    }

    /// Name of parameter `i` (diagnostics).
    pub fn name(&self, i: usize) -> &str {
        &self.metas[i].name
    }

    /// This rank's checkpoint [`Snapshot`]: one entry per parameter holding
    /// the local shard, tagged with [`ShardMeta`] (rank, world, padded
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
        Snapshot {
            entries,
            optim: None,
            step,
            rng: None,
        }
    }

    /// Restore from *full* (merged) checkpoint entries — the output of
    /// `merge_shards` over any world size's shard set — by re-flattening,
    /// re-padding, and slicing each parameter for this group's size and
    /// this rank. Returns the number of parameters restored; entries with
    /// no matching parameter are ignored, shape disagreements are typed
    /// errors.
    pub fn restore_resharded(&mut self, entries: &[SnapEntry]) -> Result<usize, CheckpointError> {
        let rank = self.comm.rank();
        let mut restored = 0;
        for (meta, &id) in self.metas.iter().zip(&self.shard_ids) {
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
            self.shard_store
                .set(id, meta.shard_of(e.value.to_vec(), rank));
            restored += 1;
        }
        Ok(restored)
    }
}

/// Forward state of one unit inside a binder.
enum Gather {
    Idle,
    InFlight(CommRequest),
    /// Full values of the members, taken as they are bound.
    Ready(Vec<Option<Tensor>>),
}

/// Backward state of one unit, shared with its members' adjoints.
#[derive(Default)]
struct UnitGrads {
    /// Members bound in the forward pass.
    bound: usize,
    /// Members whose adjoint has fired.
    fired: usize,
    /// Rank-major gradient buffer, allocated by the first adjoint and
    /// handed to the ReduceScatter when the unit is issued.
    buf: Option<Vec<f32>>,
}

/// Backward bookkeeping of a binder: per-unit buffers, which parameters
/// received a gradient, and the ReduceScatters in flight.
struct Scatter {
    comm: Communicator,
    units: Vec<UnitGrads>,
    /// Per parameter: did its adjoint fire?
    got: Vec<bool>,
    /// In-flight ReduceScatters `(unit, request)`, in issue order.
    in_flight: Vec<(usize, CommRequest)>,
}

impl Scatter {
    fn issue(&mut self, u: usize) {
        if let Some(buf) = self.units[u].buf.take() {
            let len = buf.len();
            let req = self.comm.ireduce_scatter_sum(&Tensor::from_vec(buf, [len]));
            self.in_flight.push((u, req));
        }
    }
}

/// Binder that gathers parameters a unit at a time (prefetching the next
/// unit) and reduce-scatters gradients a unit at a time during backward.
pub struct FsdpBinder<'a> {
    tape: &'a Tape,
    params: &'a FsdpParams,
    bound: RefCell<Vec<Option<Var>>>,
    gathers: RefCell<Vec<Gather>>,
    scatter: Rc<RefCell<Scatter>>,
}

impl<'a> FsdpBinder<'a> {
    pub fn new(tape: &'a Tape, params: &'a FsdpParams) -> Self {
        let units = params.units.len();
        FsdpBinder {
            tape,
            params,
            bound: RefCell::new(vec![None; params.len()]),
            gathers: RefCell::new((0..units).map(|_| Gather::Idle).collect()),
            scatter: Rc::new(RefCell::new(Scatter {
                comm: params.comm.clone(),
                units: (0..units).map(|_| UnitGrads::default()).collect(),
                got: vec![false; params.len()],
                in_flight: Vec::new(),
            })),
        }
    }

    /// Local *shard* gradients captured during backward (same indexing and
    /// shapes as the shard store; None for parameters that received no
    /// gradient). Issues the units still holding gradients, in unit order,
    /// then waits every ReduceScatter. Call after `tape.backward`.
    pub fn sharded_grads(&self) -> Vec<Option<Tensor>> {
        let mut sc = self.scatter.borrow_mut();
        for u in 0..sc.units.len() {
            sc.issue(u);
        }
        let mut grads = vec![None; self.params.len()];
        for (u, req) in std::mem::take(&mut sc.in_flight) {
            let reduced = req.wait();
            for i in self.params.units[u].members.clone() {
                if sc.got[i] {
                    let meta = &self.params.metas[i];
                    let shard =
                        scratch::copied(&reduced.data()[meta.offset..meta.offset + meta.shard_len]);
                    grads[i] = Some(Tensor::from_vec(shard, meta.shard_shape()));
                }
            }
        }
        grads
    }

    /// Take parameter `i`'s full value from its unit `u`. The first bind in
    /// a unit issues the unit's gather (unless prefetched) and unit `u+1`'s,
    /// then waits for its own.
    fn take_full(&self, i: usize, u: usize) -> Tensor {
        let p = self.params;
        let mut gathers = self.gathers.borrow_mut();
        if self.scatter.borrow().units[u].bound == 0 {
            for v in u..gathers.len().min(u + 2) {
                if let Gather::Idle = gathers[v] {
                    gathers[v] = Gather::InFlight(p.issue_gather(v));
                }
            }
        }
        let mut fulls = match std::mem::replace(&mut gathers[u], Gather::Idle) {
            Gather::InFlight(req) => {
                let gathered = req.wait();
                p.units[u]
                    .members
                    .clone()
                    .map(|m| Some(p.member_full(m, gathered.data())))
                    .collect()
            }
            Gather::Ready(fulls) => fulls,
            Gather::Idle => unreachable!("the first bind in a unit issues its gather"),
        };
        let full = fulls[i - p.units[u].members.start]
            .take()
            .expect("each member is bound once");
        gathers[u] = Gather::Ready(fulls);
        full
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
        let meta = &self.params.metas[i];
        let u = meta.unit;
        let full = self.take_full(i, u);
        self.scatter.borrow_mut().units[u].bound += 1;
        let n = self.params.comm.size();
        let (numel, shard_len, offset) = (meta.numel, meta.shard_len, meta.offset);
        let stride = self.params.units[u].len;
        let scatter = self.scatter.clone();
        // The gradient terminates here: it belongs to a shard, not a tape node.
        let v = self.tape.custom(full, move |g, _| {
            let mut sc = scatter.borrow_mut();
            let unit = &mut sc.units[u];
            let buf = unit.buf.get_or_insert_with(|| vec![0.0; n * stride]);
            // Slice r of the padded gradient goes to rank r's segment; the
            // padding stays zero.
            let g = g.data();
            for r in 0..n {
                let lo = (r * shard_len).min(numel);
                let hi = ((r + 1) * shard_len).min(numel);
                let at = r * stride + offset;
                buf[at..at + hi - lo].copy_from_slice(&g[lo..hi]);
            }
            unit.fired += 1;
            let complete = unit.fired == unit.bound;
            sc.got[i] = true;
            // Issue now — while the backward keeps walking earlier layers —
            // and wait in `sharded_grads`.
            if complete {
                sc.issue(u);
            }
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
    use dchag_tensor::ops;

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
            assert!(
                local <= full.div_ceil(4) + 8,
                "local {local} vs full {full}"
            );
        }
    }

    #[test]
    fn fsdp_training_step_matches_dp_mean_grad() {
        // Two ranks, different data; FSDP sharded-Adam step must equal the
        // single-device step on the concatenated batch (grads averaged).
        let mut drng = Rng::new(77);
        let xs: Vec<Tensor> = (0..2)
            .map(|_| Tensor::randn([3, 4], 1.0, &mut drng))
            .collect();
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
        let root = std::env::temp_dir().join(format!("dchag_fsdp_reshard_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        // Reference full values (same seeded build every world size uses).
        let reference: Vec<(String, Vec<f32>)> = {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let _ = build_model(&mut store, &mut rng);
            store
                .iter()
                .map(|(_, n, v)| (n.to_string(), v.to_vec()))
                .collect()
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
        // l1's w and b share the model's one unit: 1 gather in forward,
        // 1 reduce-scatter in backward (per world)
        assert_eq!(run.outputs[0].0, 1);
        assert_eq!(run.outputs[0].1, 1);
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
        assert_eq!(
            run.outputs[0].0, 1,
            "the unit's scatter is issued during backward"
        );
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
        assert_eq!(
            run.outputs[0], 1,
            "the unit holding w and b is gathered once"
        );
    }

    // ----- multi-unit layouts ------------------------------------------------

    /// Unit threshold of the multi-unit tests: [`build_unit_model`]'s 133
    /// elements then split into units {w0, b0}, {idle, w1} and
    /// {b1, unbound, w2, b2}, with ragged shards at w = 3 and 4.
    const UNIT_ELEMS: usize = 40;

    /// A three-layer MLP plus two passengers: `idle` (a matrix, so AdamW
    /// would decay it) is bound but never used, `unbound` is never bound.
    struct UnitModel {
        layers: Vec<(ParamId, ParamId)>,
        idle: ParamId,
        unbound: ParamId,
    }

    fn build_unit_model(store: &mut ParamStore) -> UnitModel {
        let mut rng = Rng::new(31);
        let mut add = |name: &str, dims: &[usize]| {
            store.add(name, Tensor::randn(Shape::new(dims), 0.3, &mut rng))
        };
        let l0 = (add("w0", &[5, 7]), add("b0", &[7]));
        let idle = add("idle", &[2, 3]);
        let w1 = add("w1", &[7, 7]);
        let b1 = add("b1", &[7]);
        let unbound = add("unbound", &[5]);
        let l2 = (add("w2", &[7, 3]), add("b2", &[3]));
        UnitModel {
            layers: vec![l0, (w1, b1), l2],
            idle,
            unbound,
        }
    }

    /// Mean square of the MLP output. With `all`, the passengers' mean
    /// squares join the loss, so every parameter receives a gradient.
    fn unit_loss(bind: &dyn Binder, m: &UnitModel, x: &Tensor, all: bool) -> Var {
        let tape = bind.tape();
        let mut h = tape.leaf(x.clone());
        for (l, &(w, b)) in m.layers.iter().enumerate() {
            if l == 1 {
                let _ = bind.bind(m.idle);
            }
            h = tape.linear_gelu(&h, &bind.bind(w), &bind.bind(b));
        }
        let mut loss = tape.mean_all(&tape.mul(&h, &h));
        if all {
            for id in [m.idle, m.unbound] {
                let p = bind.bind(id);
                loss = tape.add(&loss, &tape.mean_all(&tape.mul(&p, &p)));
            }
        }
        loss
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn unit_layout_is_contiguous_and_gathers_exactly() {
        for world in 1..=4usize {
            let run = run_ranks(world, |ctx| {
                let mut store = ParamStore::new();
                let m = build_unit_model(&mut store);
                let fsdp = FsdpParams::with_unit_elems(&store, &ctx.comm, UNIT_ELEMS);
                let members: Vec<_> = fsdp.units.iter().map(|u| u.members.clone()).collect();
                let gathered_ok = store
                    .iter()
                    .enumerate()
                    .all(|(i, (_, _, v))| bits(&fsdp.gather_full(i)) == bits(v));
                // Bound through the binder, every value is exact too.
                let tape = Tape::new();
                let bind = FsdpBinder::new(&tape, &fsdp);
                let ids = [m.layers[0].0, m.idle, m.layers[2].1, m.unbound];
                let bound_ok = ids
                    .iter()
                    .all(|&id| bits(bind.bind(id).value()) == bits(store.get(id)));
                (members, gathered_ok, bound_ok)
            });
            for (members, gathered_ok, bound_ok) in run.outputs {
                assert_eq!(members, vec![0..2, 2..4, 4..8], "world={world}");
                assert!(gathered_ok && bound_ok, "world={world}");
            }
        }
    }

    /// Sharded gradients, reassembled across ranks, equal the rank-order
    /// `ops::add` of every rank's unsharded `LocalBinder` gradients bit for
    /// bit, whatever the unit layout and padding; a bound-but-unused and a
    /// never-bound parameter stay None and keep their value and AdamW
    /// moments; each step moves one gather and one scatter per unit.
    #[test]
    fn unit_grads_match_rank_order_sum_of_local_grads_at_1_to_4_ranks() {
        for world in 1..=4usize {
            let run = run_ranks(world, |ctx| {
                let rank = ctx.comm.rank();
                let mut store = ParamStore::new();
                let m = build_unit_model(&mut store);
                let mut fsdp = FsdpParams::with_unit_elems(&store, &ctx.comm, UNIT_ELEMS);
                let mut opt = AdamW::new(0.01).with_weight_decay(0.1);
                let mut drng = Rng::new(60 + rank as u64);
                let batches: Vec<Tensor> = (0..2)
                    .map(|_| Tensor::randn([3, 5], 1.0, &mut drng))
                    .collect();

                // Step 1 gives every parameter a gradient and AdamW moments.
                {
                    let tape = Tape::new();
                    let bind = FsdpBinder::new(&tape, &fsdp);
                    let _ = tape.backward(&unit_loss(&bind, &m, &batches[0], true));
                    let g = bind.sharded_grads();
                    assert!(g.iter().all(Option::is_some));
                    opt.step(&mut fsdp.shard_store, &g);
                }
                let passengers = [m.idle.index(), m.unbound.index()];
                let held = |fsdp: &FsdpParams, opt: &AdamW| {
                    let state = opt.export_state(&fsdp.shard_store);
                    passengers
                        .iter()
                        .map(|&i| {
                            let name = format!("{}.shard", fsdp.name(i));
                            let e = state.entries.iter().find(|e| e.name == name);
                            let e = e.expect("moments after step 1");
                            let shard = fsdp.shard_store.get(ParamId::from_index(i));
                            (
                                bits(shard),
                                bits(e.m.as_ref().unwrap()),
                                bits(e.v.as_ref().unwrap()),
                            )
                        })
                        .collect::<Vec<_>>()
                };
                let before = held(&fsdp, &opt);

                // This rank's unsharded gradients at the step-1 parameters.
                let ids: Vec<ParamId> = store.ids().collect();
                for (i, &id) in ids.iter().enumerate() {
                    store.set(id, fsdp.gather_full(i));
                }
                let local = {
                    let tape = Tape::new();
                    let bind = LocalBinder::new(&tape, &store);
                    let g = tape.backward(&unit_loss(&bind, &m, &batches[1], false));
                    bind.grads(&g)
                };

                // Step 2 binds `idle` without using it and never binds `unbound`.
                ctx.comm.barrier();
                let mark = ctx.comm.traffic().cursor();
                let sharded = {
                    let tape = Tape::new();
                    let bind = FsdpBinder::new(&tape, &fsdp);
                    let _ = tape.backward(&unit_loss(&bind, &m, &batches[1], false));
                    bind.sharded_grads()
                };
                let events = ctx.comm.traffic().since(mark);
                let count = |op| events.iter().filter(|e| e.op == op).count();
                let counts = (count(CollOp::AllGather), count(CollOp::ReduceScatter));
                opt.step(&mut fsdp.shard_store, &sharded);
                let kept = held(&fsdp, &opt) == before;
                let none = passengers.iter().all(|&i| sharded[i].is_none());
                let to_vecs = |g: Vec<Option<Tensor>>| -> Vec<Option<Vec<f32>>> {
                    g.into_iter().map(|g| g.map(|t| t.to_vec())).collect()
                };
                let numels: Vec<usize> = store.iter().map(|(_, _, v)| v.numel()).collect();
                (
                    to_vecs(local),
                    to_vecs(sharded),
                    numels,
                    counts,
                    fsdp.units.len(),
                    kept && none,
                )
            });
            let (_, _, numels, counts, units, _) = &run.outputs[0];
            assert!(*units >= 3, "world={world}: {units} units");
            assert_eq!(
                *counts,
                (*units, *units),
                "world={world}: a gather + a scatter per unit"
            );
            for (rank, out) in run.outputs.iter().enumerate() {
                assert!(
                    out.5,
                    "world={world} rank={rank}: passengers must stay None, untouched"
                );
            }
            for (i, &numel) in numels.iter().enumerate() {
                let mut want: Option<Tensor> = None;
                for out in &run.outputs {
                    let g = out.0[i]
                        .as_ref()
                        .map(|v| Tensor::from_vec(v.clone(), [numel]));
                    want = match (want, g) {
                        (Some(a), Some(b)) => Some(ops::add(&a, &b)),
                        (a, b) => a.or(b),
                    };
                }
                let got: Option<Vec<f32>> = run.outputs[0].1[i].as_ref().map(|_| {
                    let mut flat: Vec<f32> = run
                        .outputs
                        .iter()
                        .flat_map(|o| o.1[i].clone().unwrap())
                        .collect();
                    flat.truncate(numel);
                    flat
                });
                assert_eq!(
                    got.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
                    want.map(|t| bits(&t)),
                    "world={world} param {i}"
                );
            }
        }
    }
}
