//! Process groups and tensor collectives.
//!
//! A [`Communicator`] is one rank's handle to a process group. The world
//! group is created by [`crate::launch::run_ranks`]; sub-groups (TP, FSDP,
//! DP grids) are carved out with [`Communicator::split`], which follows
//! `MPI_Comm_split` semantics.
//!
//! The tensor collectives come in two flavors:
//!
//! * **Nonblocking** (`iall_reduce_sum`, `ireduce_scatter_sum`,
//!   `iall_gather_cat`) — issue a [`CommRequest`] immediately and let the
//!   caller overlap compute with the chunked pipeline
//!   ([`crate::nonblocking`]).
//! * **Blocking** (`all_reduce_sum`, …) — thin `issue + wait` wrappers over
//!   the same engine, kept for call sites with nothing to overlap.
//!
//! `barrier`, `broadcast`, `all_gather_vec` and `split` are gathers on the
//! same engine too (along a new leading axis), so
//! every collective shares one issue path, one failure surface and one
//! `FaultPlan` count.
//!
//! All reductions are performed in rank order within every chunk, so
//! results are bit-identical across ranks, across runs, and across the
//! blocking/nonblocking flavors.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dchag_tensor::Tensor;

use crate::transport::{self, gid_split, gid_world};

use crate::fault::{comm_panic, CommError};
use crate::nonblocking::{self, CollKind, CommRequest, Engine};
use crate::topology::Topology;
use crate::traffic::{CollOp, FailureSource, FaultCause, TrafficLog};

/// Shared blackboard for the survivor-side regroup barrier.
///
/// Survivors that detected a failure rendezvous here *outside* any poisoned
/// engine: each inserts its global rank into `arrived`; once every
/// non-failed rank is present, whichever survivor holds the lock builds one
/// fresh [`Engine`] for the survivor set and publishes it as `built`.
/// Departing survivors drain the build; the last one clears it so the board
/// is ready for a future failure.
#[derive(Default)]
struct RegroupBoard {
    /// Regroup rounds started so far (monotone; incremented at build time,
    /// so late arrivals from an older round can never double-claim a build).
    round: u64,
    /// Global ranks waiting for the current round's build.
    arrived: BTreeSet<usize>,
    /// `(round, survivor global ranks, fresh engine)` of the in-drain build.
    built: Option<(u64, Vec<usize>, Arc<Engine>)>,
    /// Survivors that have taken the current build.
    departed: usize,
}

/// State shared by every communicator of one world: the traffic log, the
/// physical topology, a registry of live engines (for panic poisoning),
/// and the failure/regroup bookkeeping.
pub struct WorldShared {
    pub log: Arc<TrafficLog>,
    pub topo: Topology,
    engines: Mutex<Vec<Weak<Engine>>>,
    /// Thread-transport split groups being built: gid → (shared engine,
    /// members yet to take it).
    splits: Mutex<HashMap<u64, (Arc<Engine>, usize)>>,
    /// Global ranks known dead (marked by the launcher on panic, or by the
    /// regroup deadline on no-show). Grows monotonically for the world's
    /// lifetime — a declared-dead rank never rejoins.
    failed: Mutex<BTreeSet<usize>>,
    /// Bumped at every regroup; stamps [`CommError::PeerFailed`] so stale
    /// detections from before a regroup are distinguishable.
    epoch: AtomicU64,
    board: Mutex<RegroupBoard>,
    board_cv: Condvar,
}

impl WorldShared {
    pub fn new(topo: Topology) -> Arc<Self> {
        Arc::new(WorldShared {
            log: TrafficLog::new(),
            topo,
            engines: Mutex::new(Vec::new()),
            splits: Mutex::new(HashMap::new()),
            failed: Mutex::new(BTreeSet::new()),
            epoch: AtomicU64::new(0),
            board: Mutex::new(RegroupBoard::default()),
            board_cv: Condvar::new(),
        })
    }

    pub(crate) fn register_engine(&self, engine: &Arc<Engine>) {
        self.engines.lock().push(Arc::downgrade(engine));
    }

    /// Poison every live engine with `cause` so blocked peers fail fast
    /// instead of hanging, and mark all their in-flight rounds aborted in
    /// the traffic log (their partial chunk stamps must not skew α-β fits).
    pub fn poison_all(&self, cause: CommError) {
        for engine in self.engines.lock().iter().filter_map(Weak::upgrade) {
            engine.poison(cause);
            engine.abort_inflight(&self.log);
        }
    }

    /// Record `rank` as dead and wake any regroup waiters so their survivor
    /// set shrinks.
    pub fn mark_failed(&self, rank: usize) {
        {
            self.failed.lock().insert(rank);
        }
        // Taken *after* the failed lock is released (regroup nests them the
        // other way around, board → failed).
        let _g = self.board.lock();
        self.board_cv.notify_all();
    }

    /// Declare global rank `rank` dead — the one place a root failure is
    /// recorded, whoever detects it (the launcher, or a socket signal):
    /// log `why` with the typed cause, poison every live engine, and mark
    /// the roster. A survivor that only learns of the death from a
    /// poisoned issue therefore still finds it on the audit trail.
    ///
    /// Poison strictly before the mark: a regroup excludes `rank` only
    /// once it is marked, so the fresh engine it builds can never be
    /// poisoned by this (already handled) death.
    pub(crate) fn declare_failed(&self, rank: usize, source: FailureSource) {
        let epoch = self.epoch();
        self.log.record_fault(FaultCause::Declared {
            rank,
            epoch,
            source,
        });
        self.poison_all(CommError::PeerFailed { rank, epoch });
        self.mark_failed(rank);
    }

    /// Global ranks known dead, ascending.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.failed.lock().iter().copied().collect()
    }

    /// Regroup epoch: number of elastic regroups performed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Set the epoch directly — used by the TCP transport, whose regroup
    /// agreement happens over the wire rather than on the shared board.
    pub(crate) fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// The engine of thread-transport split group `gid`: the first member
    /// to arrive creates it, and the last member to take it removes the
    /// entry — the registry holds it until then, so a member that drops its
    /// handle early cannot strand the others.
    fn split_engine(&self, gid: u64, members: usize) -> Arc<Engine> {
        let mut splits = self.splits.lock();
        let (engine, left) = splits.entry(gid).or_insert_with(|| {
            let engine = Engine::new(members, gid);
            self.register_engine(&engine);
            (engine, members)
        });
        let engine = engine.clone();
        *left -= 1;
        if *left == 0 {
            splits.remove(&gid);
        }
        engine
    }

    /// Survivor-side regroup barrier (see [`Communicator::regroup`]).
    ///
    /// Waits up to `deadline` for every not-yet-failed rank to arrive; ranks
    /// still missing at the deadline are declared failed (which shrinks the
    /// expected set — a lone survivor regroups to a world of one). Returns
    /// the agreed survivor set (global ranks, ascending) and the fresh
    /// engine, or `Err` if this rank was itself declared failed by its
    /// peers.
    pub(crate) fn regroup(
        &self,
        me: usize,
        deadline: Duration,
    ) -> Result<(Vec<usize>, Arc<Engine>), CommError> {
        let start = Instant::now();
        let mut board = self.board.lock();
        let target = board.round;
        board.arrived.insert(me);
        self.board_cv.notify_all();
        loop {
            if let Some((built_round, survivors, engine)) = &board.built {
                if *built_round == target {
                    if !survivors.contains(&me) {
                        // Peers hit their deadline and moved on without us.
                        return Err(CommError::Poisoned);
                    }
                    let out = (survivors.clone(), engine.clone());
                    board.departed += 1;
                    if board.departed == out.0.len() {
                        board.built = None;
                        board.departed = 0;
                        self.board_cv.notify_all();
                    }
                    return Ok(out);
                }
                // A build from another round is still draining; wait it out.
                let _ = self.board_cv.wait_for(&mut board, Duration::from_millis(1));
                continue;
            }
            // No build yet for our round. Lock order: board → failed.
            let failed = self.failed.lock().clone();
            if failed.contains(&me) {
                return Err(CommError::Poisoned);
            }
            let expected: Vec<usize> = (0..self.topo.world_size)
                .filter(|r| !failed.contains(r))
                .collect();
            if expected.iter().all(|r| board.arrived.contains(r)) {
                // Everyone live is here — whoever holds the lock builds (the
                // mutex serializes; no designated-builder election needed).
                let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
                let engine = Engine::new(expected.len(), gid_world(epoch));
                self.register_engine(&engine);
                for r in &expected {
                    board.arrived.remove(r);
                }
                board.built = Some((board.round, expected, engine));
                board.round += 1;
                self.board_cv.notify_all();
                continue;
            }
            let waited = start.elapsed();
            if waited >= deadline {
                // Declare the no-shows dead and re-evaluate immediately.
                let mut f = self.failed.lock();
                for r in expected
                    .iter()
                    .copied()
                    .filter(|r| !board.arrived.contains(r))
                {
                    f.insert(r);
                }
                continue;
            }
            let _ = self.board_cv.wait_for(
                &mut board,
                (deadline - waited).min(Duration::from_millis(5)),
            );
        }
    }
}

/// One rank's handle to a process group.
#[derive(Clone)]
pub struct Communicator {
    rank: usize,
    group_ranks: Vec<usize>,
    engine: Arc<Engine>,
    world: Arc<WorldShared>,
    /// TCP transport send side, when this group spans real sockets: every
    /// local contribution is additionally fanned out to the remote members,
    /// whose receiver threads deposit it into their replica engines. `None`
    /// on the in-process thread transport.
    remote: Option<Arc<transport::GroupLink>>,
}

impl Communicator {
    /// Used by the launchers to build the world group (`link` on TCP).
    pub(crate) fn new_world(
        rank: usize,
        size: usize,
        engine: Arc<Engine>,
        world: Arc<WorldShared>,
        link: Option<Arc<transport::GroupLink>>,
    ) -> Self {
        Communicator {
            rank,
            group_ranks: (0..size).collect(),
            engine,
            world,
            remote: link,
        }
    }

    /// A handle on another group of this world (split or regroup result).
    fn member_of(
        &self,
        rank: usize,
        group_ranks: Vec<usize>,
        engine: Arc<Engine>,
        remote: Option<Arc<transport::GroupLink>>,
    ) -> Communicator {
        Communicator {
            rank,
            group_ranks,
            engine,
            world: self.world.clone(),
            remote,
        }
    }

    /// Rank within this group.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    #[inline]
    pub fn size(&self) -> usize {
        self.engine.size()
    }

    /// Global (world) rank of this member.
    #[inline]
    pub fn global_rank(&self) -> usize {
        self.group_ranks[self.rank]
    }

    /// Global ranks of all members, in group-rank order.
    pub fn group_ranks(&self) -> &[usize] {
        &self.group_ranks
    }

    pub fn topology(&self) -> &Topology {
        &self.world.topo
    }

    pub fn traffic(&self) -> &Arc<TrafficLog> {
        &self.world.log
    }

    /// Whether this group is contained in a single node.
    pub fn is_intra_node(&self) -> bool {
        self.world.topo.is_intra_node(&self.group_ranks)
    }

    /// Rounds still tracked by this group's engine (incomplete and not yet
    /// dropped by every rank) — diagnostics and leak tests.
    pub fn inflight_rounds(&self) -> usize {
        self.engine.rounds_len()
    }

    fn record(&self, op: CollOp, payload_bytes: usize) -> Option<usize> {
        // Thread transport: one shared log, rank 0 records for the group.
        // TCP transport: one log *per process*, so every rank records its
        // own view (that per-process log is what a live α-β fit reads).
        if self.rank == 0 || self.remote.is_some() {
            Some(self.world.log.record(op, payload_bytes, &self.group_ranks))
        } else {
            None
        }
    }

    /// The one issue path every collective takes: log the call as `op`
    /// (`None`: not logged), deposit `t` into the engine, and fan it out
    /// to the remote members on TCP.
    fn try_issue_as(
        &self,
        op: Option<(CollOp, usize)>,
        kind: CollKind,
        t: &Tensor,
    ) -> Result<CommRequest, CommError> {
        let seq = op.and_then(|(op, payload_bytes)| self.record(op, payload_bytes));
        let req = nonblocking::try_issue(&self.engine, self.rank, kind, t, seq, &self.world)?;
        if let Some(link) = &self.remote {
            link.send_issue(req.seq(), kind, t);
        }
        Ok(req)
    }

    fn try_issue(&self, kind: CollKind, t: &Tensor) -> Result<CommRequest, CommError> {
        self.try_issue_as(Some((kind.op(), t.size_bytes())), kind, t)
    }

    fn issue(&self, kind: CollKind, t: &Tensor) -> CommRequest {
        self.try_issue(kind, t).unwrap_or_else(|e| comm_panic(e))
    }

    /// Issue a gather of `t` along a new leading axis (`[size, t.dims()..]`
    /// once waited). Every rank must pass the same shape (checked at
    /// deposit).
    fn try_issue_exact(
        &self,
        op: Option<(CollOp, usize)>,
        t: &Tensor,
    ) -> Result<CommRequest, CommError> {
        let mut dims = vec![1];
        dims.extend_from_slice(t.dims());
        let kind = CollKind::AllGatherCat { axis: 0 };
        self.try_issue_as(op, kind, &t.reshape(&dims))
    }

    // ----- nonblocking collectives ------------------------------------------

    /// Issue an element-wise sum across the group; `wait` returns the full
    /// reduced tensor (identical on every rank).
    pub fn iall_reduce_sum(&self, t: &Tensor) -> CommRequest {
        self.issue(CollKind::AllReduceSum, t)
    }

    /// Issue a reduce-scatter over axis 0: every rank contributes a
    /// `[size·k, ...]` tensor; `wait` returns the rank-th `[k, ...]` chunk
    /// of the element-wise sum.
    pub fn ireduce_scatter_sum(&self, t: &Tensor) -> CommRequest {
        assert!(
            t.dims()[0].is_multiple_of(self.size()),
            "reduce_scatter axis 0 ({}) not divisible by group size {}",
            t.dims()[0],
            self.size()
        );
        self.issue(CollKind::ReduceScatterSum, t)
    }

    /// Issue an all-gather whose `wait` concatenates contributions along
    /// `axis` in rank order. Contributions must agree on all other axes
    /// (ragged sizes along `axis` are allowed).
    pub fn iall_gather_cat(&self, t: &Tensor, axis: usize) -> CommRequest {
        self.issue(CollKind::AllGatherCat { axis }, t)
    }

    // ----- blocking collectives ---------------------------------------------

    /// Gather each rank's tensor; returns all contributions in rank order.
    /// Every rank must pass the same shape.
    pub fn all_gather_vec(&self, t: &Tensor) -> Vec<Tensor> {
        let all = self
            .try_issue_exact(Some((CollOp::AllGather, t.size_bytes())), t)
            .and_then(|req| req.try_wait(None))
            .unwrap_or_else(|e| comm_panic(e));
        (0..self.size()).map(|r| part_of(&all, r, t)).collect()
    }

    /// Blocking [`Communicator::iall_gather_cat`].
    pub fn all_gather_cat(&self, t: &Tensor, axis: usize) -> Tensor {
        self.iall_gather_cat(t, axis).wait()
    }

    /// Blocking [`Communicator::iall_reduce_sum`].
    pub fn all_reduce_sum(&self, t: &Tensor) -> Tensor {
        self.iall_reduce_sum(t).wait()
    }

    /// Blocking [`Communicator::ireduce_scatter_sum`].
    pub fn reduce_scatter_sum(&self, t: &Tensor) -> Tensor {
        self.ireduce_scatter_sum(t).wait()
    }

    /// Broadcast from `root`: only the root's tensor is used; every other
    /// rank passes a tensor of the same shape (conventionally its stale
    /// copy).
    pub fn broadcast(&self, t: &Tensor, root: usize) -> Tensor {
        assert!(root < self.size());
        let all = self
            .try_issue_exact(Some((CollOp::Broadcast, t.size_bytes())), t)
            .and_then(|req| req.try_wait(None))
            .unwrap_or_else(|e| comm_panic(e));
        part_of(&all, root, t)
    }

    /// Synchronization barrier.
    pub fn barrier(&self) {
        self.try_barrier(None).unwrap_or_else(|e| comm_panic(e))
    }

    // ----- fallible collectives ---------------------------------------------
    //
    // Deadline-bounded, `Result`-returning flavors for callers that recover
    // from peer failure (see `regroup`). `deadline: None` still fails fast
    // on poison; `Some(d)` additionally detects hung peers. On `Err` the
    // collective's result is lost; the caller's next move is `regroup`.

    /// Fallible blocking [`Communicator::all_reduce_sum`].
    pub fn try_all_reduce_sum(
        &self,
        t: &Tensor,
        deadline: Option<Duration>,
    ) -> Result<Tensor, CommError> {
        self.try_issue(CollKind::AllReduceSum, t)?
            .try_wait(deadline)
    }

    /// Fallible, deadline-bounded [`Communicator::barrier`]: a gather of
    /// zero elements.
    pub fn try_barrier(&self, deadline: Option<Duration>) -> Result<(), CommError> {
        let empty = Tensor::zeros([0]);
        self.try_issue_exact(Some((CollOp::Barrier, 0)), &empty)?
            .try_wait(deadline)
            .map(|_| ())
    }

    // ----- elastic regroup --------------------------------------------------

    /// After a detected peer failure, agree on the survivor set and rebuild
    /// a world communicator over it.
    ///
    /// Call on the **world** handle, from every surviving rank, after
    /// catching a [`CommError`] (sub-group handles from [`split`] share the
    /// world's failure state but renumber differently — rebuild them from
    /// the returned world handle). Waits up to `deadline` for peers; ranks
    /// missing at the deadline are declared failed too, so cascading
    /// failures converge instead of hanging. Returns a fresh communicator
    /// with ranks renumbered in survivor order (old engines stay poisoned
    /// and are abandoned), or `Err` if this rank was evicted by its peers'
    /// deadline.
    ///
    /// [`split`]: Communicator::split
    pub fn regroup(&self, deadline: Duration) -> Result<Communicator, CommError> {
        let me = self.global_rank();
        let before = self.world.topo.world_size - self.world.failed_ranks().len();
        let (survivors, rank, engine, link) = match &self.remote {
            // TCP transport: agreement happens over the wire (proposal
            // union with deadline eviction), not on the shared board.
            Some(link) => {
                let (survivors, rank, engine, link) =
                    link.endpoint().regroup_survivors(deadline)?;
                (survivors, rank, engine, Some(link))
            }
            None => {
                let (survivors, engine) = self.world.regroup(me, deadline)?;
                let rank = survivors
                    .iter()
                    .position(|&r| r == me)
                    .expect("regroup returned Ok without me in the survivor set");
                (survivors, rank, engine, None)
            }
        };
        self.world.log.record_fault(FaultCause::Regrouped {
            epoch: self.world.epoch(),
            before,
            after: survivors.len(),
            global: me,
            rank,
        });
        Ok(self.member_of(rank, survivors, engine, link))
    }

    // ----- group management -------------------------------------------------

    /// Split the group: members passing the same `color` form a new group,
    /// ordered by their rank in the parent group (`MPI_Comm_split` with
    /// key = parent rank). `color` must be below 2^24: it crosses the wire
    /// as an exact f32.
    pub fn split(&self, color: usize) -> Communicator {
        assert!(color < 1 << 24, "split color {color} must be below 2^24");
        // Phase 1: everyone shares its color (an exact f32 gather).
        let req = self
            .try_issue_exact(None, &Tensor::full([1], color as f32))
            .unwrap_or_else(|e| comm_panic(e));
        // The gather's engine sequence number is identical on every member
        // and distinct per split of this group: with the parent's id and the
        // color it names the new group, so no second round is needed.
        let gid = gid_split(self.engine.gid(), req.seq(), color as u64);
        let colors = req.wait();
        let members: Vec<usize> = (0..self.size())
            .filter(|&r| colors.data()[r] == color as f32)
            .collect();
        let rank = members
            .iter()
            .position(|&r| r == self.rank)
            .expect("own color matches");
        let group_ranks: Vec<usize> = members.iter().map(|&r| self.group_ranks[r]).collect();

        // Phase 2: threads share one engine per group; a TCP member builds
        // its own full-size replica and registers its route.
        let (engine, link) = match &self.remote {
            None => (self.world.split_engine(gid, members.len()), None),
            Some(link) => {
                let engine = Engine::new(members.len(), gid);
                self.world.register_engine(&engine);
                let ep = link.endpoint();
                let link = ep.register_group(group_ranks.clone(), rank, engine.clone());
                (engine, Some(link))
            }
        };
        self.member_of(rank, group_ranks, engine, link)
    }
}

/// Rank `r`'s part of a `[size, like.dims()..]` metadata gather.
fn part_of(all: &Tensor, r: usize, like: &Tensor) -> Tensor {
    let n = like.numel();
    Tensor::from_vec(
        all.data()[r * n..(r + 1) * n].to_vec(),
        like.shape().clone(),
    )
}
