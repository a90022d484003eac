//! Nonblocking chunked collectives: the one collectives engine.
//!
//! Every collective of a process group — the tensor collectives, and the
//! barrier, broadcast, `all_gather_vec` and `split` metadata exchanges
//! built on its gather — runs through one issue/wait protocol, the
//! chunked pipelining the cross-cloud training literature uses to overlap
//! communication with compute:
//!
//! * `issue` deposits this rank's contribution and returns a [`CommRequest`]
//!   immediately — the caller keeps computing;
//! * once the last rank has deposited, the collective's tensor is split into
//!   a **shape-derived chunk schedule** ([`COMM_CHUNK_ELEMS`] elements per
//!   chunk by default) and the chunks become claimable work items;
//! * ranks inside [`CommRequest::wait`] claim chunks with an atomic counter
//!   and reduce/copy them cooperatively, so the reduction of a bucket
//!   proceeds while other ranks are still computing — and is performed
//!   **once** across the group instead of redundantly per rank.
//!
//! Reductions walk contributions in rank order within every chunk, and the
//! chunk schedule depends only on the tensor shape — never on thread count
//! or timing — so results are bitwise identical at any parallelism. Every
//! completed chunk stamps a [`crate::traffic::ChunkEvent`] (ready/done
//! timestamps + ring-model wire bytes), which is how the overlap fraction
//! is *measured* rather than assumed.
//!
//! Collectives are matched across ranks by a per-rank issue counter: the
//! i-th collective issued on a communicator must be the same logical
//! collective on every rank (the SPMD invariant); kind and shape are
//! validated at deposit time.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dchag_tensor::{ops, scratch};
use dchag_tensor::{Shape, Tensor};

use crate::fault::{self, CommError, FaultPoint};
use crate::group::WorldShared;
use crate::traffic::{ChunkEvent, CollOp, FaultCause, TrafficLog};

/// Unsuccessful condvar polls before a deadline-bounded wait parks (the
/// spin half of spin→park: a peer that deposits within a few hundred
/// nanoseconds is caught without a syscall).
const WAIT_SPINS: u32 = 64;

/// Elements per pipeline chunk (64 KiB of f32): small enough that a
/// bucket splits into several overlappable stages, large enough that the
/// per-chunk claim/stamp overhead is noise.
///
/// Every collective of every world uses this one value, so a round's chunk
/// schedule is a function of its shapes alone: every rank, over either
/// transport, freezes the same schedule with nothing to agree on at run
/// time. Do not make it depend on thread count or on any per-rank state.
pub const COMM_CHUNK_ELEMS: usize = 16 * 1024;

/// Which collective a round performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollKind {
    AllReduceSum,
    ReduceScatterSum,
    AllGatherCat { axis: usize },
}

impl CollKind {
    pub(crate) fn op(self) -> CollOp {
        match self {
            CollKind::AllReduceSum => CollOp::AllReduce,
            CollKind::ReduceScatterSum => CollOp::ReduceScatter,
            CollKind::AllGatherCat { .. } => CollOp::AllGather,
        }
    }
}

/// One work item: copy/reduce `len` elements into the shared output buffer.
struct Chunk {
    /// Source rank for gather chunks; ignored (all ranks) for reductions.
    src: usize,
    src_off: usize,
    dst_off: usize,
    len: usize,
}

/// Shared output buffer written by exclusively-claimed chunk ranges.
struct SharedBuf(UnsafeCell<Vec<f32>>);

// SAFETY: chunks are claimed via an atomic fetch_add so every range has
// exactly one writer; readers only look after the completion flag (an
// acquire-load paired with the last writer's release-store).
unsafe impl Sync for SharedBuf {}
unsafe impl Send for SharedBuf {}

impl SharedBuf {
    fn new(len: usize) -> Self {
        SharedBuf(UnsafeCell::new(scratch::zeroed(len)))
    }

    /// SAFETY: caller must hold the exclusive claim for `[off, off+len)`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slab(&self, off: usize, len: usize) -> &mut [f32] {
        let v = &mut *self.0.get();
        &mut v[off..off + len]
    }

    /// SAFETY: caller must have observed the round's completion flag.
    unsafe fn read(&self) -> &[f32] {
        &*self.0.get()
    }
}

impl Drop for SharedBuf {
    /// The staging buffer goes back to the pool of whichever rank thread
    /// releases the round last.
    fn drop(&mut self) {
        scratch::recycle(std::mem::take(self.0.get_mut()));
    }
}

/// The inputs lock's one writer only assigns, so it cannot poison the lock.
const INPUTS_LOCK: &str = "round inputs lock poisoned";

/// State frozen when the last rank deposits; read-only afterwards.
struct Frozen {
    /// The ranks' inputs: chunk workers read them under the read lock, and
    /// the worker that finishes the last chunk empties them, so no rank is
    /// still charged for its input once any `wait` has returned.
    contribs: RwLock<Vec<Tensor>>,
    shapes: Vec<Shape>,
    chunks: Vec<Chunk>,
    buf: SharedBuf,
    /// Flat start offset of each rank's region in the gather output.
    gather_offsets: Vec<usize>,
    ready_us: f64,
}

/// Mutable-under-the-engine-lock stamps.
#[derive(Default)]
struct Stamps {
    issued_us: f64,
    /// `seq` of the logical `CollEvent` (set by group-rank-0's deposit).
    event_seq: Option<usize>,
}

/// One in-flight collective round, shared between the depositing ranks and
/// the cooperative chunk workers.
pub(crate) struct Round {
    kind: CollKind,
    group: usize,
    seq: u64,
    frozen: OnceLock<Frozen>,
    next_chunk: AtomicUsize,
    done_chunks: AtomicUsize,
    complete: AtomicBool,
    stamps: Mutex<Stamps>,
}

impl Round {
    fn claimable(&self) -> bool {
        match self.frozen.get() {
            None => false,
            Some(f) => {
                !self.complete.load(Ordering::Acquire)
                    && self.next_chunk.load(Ordering::Relaxed) < f.chunks.len()
            }
        }
    }
}

struct RoundEntry {
    arrived: usize,
    retired: usize,
    contribs: Vec<Option<Tensor>>,
    shared: Arc<Round>,
}

#[derive(Default)]
struct EngineState {
    /// Per-rank issue counters: rank r's next collective gets seq
    /// `next_seq[r]` — identical programs issue identical sequences.
    next_seq: Vec<u64>,
    rounds: HashMap<u64, RoundEntry>,
}

/// One process group's collectives engine, shared by every handle on the
/// group in this process: all `size` ranks on the thread transport, the
/// local rank's full-size replica on TCP (remote ranks deposit through
/// [`deposit_remote`]).
pub(crate) struct Engine {
    size: usize,
    /// Group id: identical on every member, distinct per group — derived,
    /// never exchanged (`transport::{gid_world, gid_split}`). TCP frames
    /// route by it; thread-transport splits find their shared engine by it.
    gid: u64,
    state: Mutex<EngineState>,
    cv: Condvar,
    poisoned: AtomicBool,
    /// First poison cause wins (set under the state lock): a wave of
    /// secondary failures never overwrites the root attribution.
    poison_cause: OnceLock<CommError>,
}

impl Engine {
    pub(crate) fn new(size: usize, gid: u64) -> Arc<Self> {
        assert!(size > 0, "process group must be non-empty");
        Arc::new(Engine {
            size,
            gid,
            state: Mutex::new(EngineState {
                next_seq: vec![0; size],
                rounds: HashMap::new(),
            }),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
            poison_cause: OnceLock::new(),
        })
    }

    #[inline]
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    #[inline]
    pub(crate) fn gid(&self) -> u64 {
        self.gid
    }

    /// Mark the group broken (`cause` says why) and wake every waiter, which
    /// then fails with the cause instead of hanging. The first cause wins;
    /// later poisons keep the original root attribution.
    pub(crate) fn poison(&self, cause: CommError) {
        let _g = self.state.lock();
        let _ = self.poison_cause.set(cause);
        self.poisoned.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// `Err(cause)` once the group is poisoned.
    pub(crate) fn check_live(&self) -> Result<(), CommError> {
        if self.poisoned.load(Ordering::SeqCst) {
            Err(self
                .poison_cause
                .get()
                .copied()
                .unwrap_or(CommError::Poisoned))
        } else {
            Ok(())
        }
    }

    /// Mark every incomplete in-flight round aborted in the traffic log so
    /// its partial chunk stamps can't skew byte totals or α-β samples.
    /// Called after poisoning, when a peer is known dead.
    pub(crate) fn abort_inflight(&self, log: &TrafficLog) {
        let st = self.state.lock();
        for entry in st.rounds.values() {
            if !entry.shared.complete.load(Ordering::Acquire) {
                if let Some(es) = entry.shared.stamps.lock().event_seq {
                    log.mark_round_aborted(es);
                }
            }
        }
    }

    /// Rounds currently tracked (incomplete and not yet dropped by every
    /// rank) — diagnostics and leak tests.
    pub(crate) fn rounds_len(&self) -> usize {
        self.state.lock().rounds.len()
    }

    /// Mark every incomplete in-flight round *disturbed* in the traffic log
    /// (its frames crossed a reconnect, so its duration measures backoff,
    /// not the fabric). Called by a socket transport after re-establishing
    /// a severed connection; unlike [`abort_inflight`](Engine::abort_inflight)
    /// the rounds still complete and their bytes still count.
    pub(crate) fn disturb_inflight(&self, log: &TrafficLog) {
        let st = self.state.lock();
        for entry in st.rounds.values() {
            if !entry.shared.complete.load(Ordering::Acquire) {
                if let Some(es) = entry.shared.stamps.lock().event_seq {
                    log.mark_round_disturbed(es);
                }
            }
        }
    }
}

/// Handle to an in-flight collective. Obtain from the `Communicator::i*`
/// methods; retrieve the result with [`wait`](CommRequest::wait). Dropping a
/// request without waiting is allowed (the deposit already happened, so
/// peers still complete); the result is simply discarded and the rank's
/// share of the round bookkeeping is retired by `Drop`.
pub struct CommRequest {
    engine: Arc<Engine>,
    log: Arc<TrafficLog>,
    round: Arc<Round>,
    rank: usize,
    seq: u64,
    retired: bool,
}

/// Deposit `t` as `rank`'s contribution to its next collective on this
/// engine and return the request handle. `event_seq` attributes chunk
/// events to the logical traffic-log entry (recorded by group rank 0).
/// Fails if the group is already poisoned; SPMD violations
/// (kind/shape mismatch) remain panics — they are program bugs,
/// not runtime faults.
pub(crate) fn try_issue(
    engine: &Arc<Engine>,
    rank: usize,
    kind: CollKind,
    t: &Tensor,
    event_seq: Option<usize>,
    world: &WorldShared,
) -> Result<CommRequest, CommError> {
    fault::probe_issue();
    let (round, seq) = deposit(engine, rank, kind, t, event_seq, world, false)?;
    Ok(CommRequest {
        engine: engine.clone(),
        log: world.log.clone(),
        round,
        rank,
        seq,
        retired: false,
    })
}

/// Deposit `t` as the contribution of a rank that lives in **another
/// process** (called by a transport receiver thread). Identical to
/// [`try_issue`] except: no fault-injection probe (the remote rank's probes
/// ran in its own process), no `event_seq` (the local rank's deposit stamps
/// attribution on this process's log), and the remote rank's share of the
/// round bookkeeping is retired immediately — a remote rank never waits
/// here. Returns the engine-assigned sequence number so the transport can
/// cross-check it against the frame's wire sequence.
pub(crate) fn deposit_remote(
    engine: &Engine,
    rank: usize,
    kind: CollKind,
    t: &Tensor,
    world: &WorldShared,
) -> Result<u64, CommError> {
    deposit(engine, rank, kind, t, None, world, true).map(|(_, seq)| seq)
}

/// The one deposit path behind [`try_issue`] and [`deposit_remote`]: match
/// `rank`'s next collective to its round, validate it against the peers'
/// contributions, and freeze the chunk schedule when it is the last.
#[allow(clippy::too_many_arguments)]
fn deposit(
    engine: &Engine,
    rank: usize,
    kind: CollKind,
    t: &Tensor,
    event_seq: Option<usize>,
    world: &WorldShared,
    remote: bool,
) -> Result<(Arc<Round>, u64), CommError> {
    let group = engine.size;
    let who = if remote { "remote rank" } else { "rank" };
    let mut st = engine.state.lock();
    engine.check_live()?;
    let seq = st.next_seq[rank];
    st.next_seq[rank] += 1;

    let entry = st.rounds.entry(seq).or_insert_with(|| RoundEntry {
        arrived: 0,
        retired: 0,
        contribs: vec![None; group],
        shared: Arc::new(Round {
            kind,
            group,
            seq,
            frozen: OnceLock::new(),
            next_chunk: AtomicUsize::new(0),
            done_chunks: AtomicUsize::new(0),
            complete: AtomicBool::new(false),
            stamps: Mutex::new(Stamps {
                issued_us: world.log.now_us(),
                event_seq: None,
            }),
        }),
    });
    assert_eq!(
        entry.shared.kind, kind,
        "{who} {rank} issued {kind:?} at collective #{seq} but a peer issued {:?} — \
         nonblocking collectives must be issued in the same order on every rank",
        entry.shared.kind
    );
    validate_contribution(kind, group, &entry.contribs, t);
    debug_assert!(
        entry.contribs[rank].is_none(),
        "{who} {rank} double-deposit at #{seq}"
    );
    entry.contribs[rank] = Some(t.clone());
    entry.arrived += 1;
    if remote {
        entry.retired += 1;
    }
    if let Some(es) = event_seq {
        entry.shared.stamps.lock().event_seq = Some(es);
    }
    let round = entry.shared.clone();
    let fully_retired = entry.retired == group;
    if entry.arrived == group {
        let contribs: Vec<Tensor> = entry
            .contribs
            .iter_mut()
            .map(|c| c.take().unwrap())
            .collect();
        freeze(&round, contribs, world.log.now_us());
        engine.cv.notify_all();
    }
    // A round no waiter can still need leaves the table: an empty one is
    // complete at freeze; a fire-and-forget one was dropped by every rank.
    if fully_retired || round.complete.load(Ordering::Acquire) {
        st.rounds.remove(&seq);
    }
    Ok((round, seq))
}

fn validate_contribution(kind: CollKind, group: usize, existing: &[Option<Tensor>], t: &Tensor) {
    if let Some(first) = existing.iter().flatten().next() {
        match kind {
            CollKind::AllReduceSum | CollKind::ReduceScatterSum => assert_eq!(
                first.dims(),
                t.dims(),
                "{kind:?} contribution shape mismatch across ranks"
            ),
            CollKind::AllGatherCat { axis } => {
                assert_eq!(first.ndim(), t.ndim(), "AllGatherCat rank mismatch");
                for (d, (&a, &b)) in first.dims().iter().zip(t.dims()).enumerate() {
                    assert!(
                        d == axis || a == b,
                        "AllGatherCat non-axis dim {d} mismatch: {a} vs {b}"
                    );
                }
            }
        }
    }
    if kind == CollKind::ReduceScatterSum {
        assert!(
            t.dims()[0].is_multiple_of(group),
            "reduce_scatter axis 0 ({}) not divisible by group size {group}",
            t.dims()[0]
        );
    }
    if let CollKind::AllGatherCat { axis } = kind {
        assert!(axis < t.ndim(), "AllGatherCat axis {axis} out of range");
    }
}

/// Build the shape-derived chunk schedule ([`COMM_CHUNK_ELEMS`]-sized
/// chunks) and the output buffer; publish the round as runnable. Called
/// under the engine lock by the last depositor.
fn freeze(round: &Arc<Round>, contribs: Vec<Tensor>, ready_us: f64) {
    let mut chunks = Vec::new();
    let mut gather_offsets = Vec::new();
    let out_len = match round.kind {
        CollKind::AllReduceSum | CollKind::ReduceScatterSum => {
            let numel = contribs[0].numel();
            let mut off = 0;
            while off < numel {
                let len = COMM_CHUNK_ELEMS.min(numel - off);
                chunks.push(Chunk {
                    src: 0,
                    src_off: off,
                    dst_off: off,
                    len,
                });
                off += len;
            }
            numel
        }
        CollKind::AllGatherCat { .. } => {
            let mut base = 0;
            for (r, c) in contribs.iter().enumerate() {
                gather_offsets.push(base);
                let numel = c.numel();
                let mut off = 0;
                while off < numel {
                    let len = COMM_CHUNK_ELEMS.min(numel - off);
                    chunks.push(Chunk {
                        src: r,
                        src_off: off,
                        dst_off: base + off,
                        len,
                    });
                    off += len;
                }
                base += numel;
            }
            base
        }
    };
    let n_chunks = chunks.len();
    let frozen = Frozen {
        shapes: contribs.iter().map(|c| c.shape().clone()).collect(),
        contribs: RwLock::new(contribs),
        chunks,
        buf: SharedBuf::new(out_len),
        gather_offsets,
        ready_us,
    };
    round
        .frozen
        .set(frozen)
        .unwrap_or_else(|_| unreachable!("round frozen twice"));
    if n_chunks == 0 {
        round.complete.store(true, Ordering::Release);
    }
}

/// Ring-model wire bytes for one chunk of `len` f32 elements.
fn chunk_wire_bytes(kind: CollKind, group: usize, len: usize) -> usize {
    let bytes = len * std::mem::size_of::<f32>();
    let g = group.max(1);
    match kind {
        // ring all-reduce = reduce-scatter + all-gather of the chunk
        CollKind::AllReduceSum => 2 * (g - 1) * bytes / g,
        CollKind::ReduceScatterSum => (g - 1) * bytes / g,
        // the source rank's chunk travels to every peer
        CollKind::AllGatherCat { .. } => (g - 1) * bytes,
    }
}

/// Run one claimed chunk: rank-order reduction or gather copy.
fn run_chunk(round: &Round, frozen: &Frozen, c: &Chunk) {
    // SAFETY: the chunk was claimed exclusively via `next_chunk.fetch_add`.
    let out = unsafe { frozen.buf.slab(c.dst_off, c.len) };
    let contribs = frozen.contribs.read().expect(INPUTS_LOCK);
    match round.kind {
        CollKind::AllReduceSum | CollKind::ReduceScatterSum => {
            // Plain f32 adds in rank order — bitwise identical to a
            // whole-tensor `ops::add` chain over the contributions.
            out.copy_from_slice(&contribs[0].data()[c.src_off..c.src_off + c.len]);
            for contrib in contribs.iter().skip(1) {
                let src = &contrib.data()[c.src_off..c.src_off + c.len];
                for (o, &x) in out.iter_mut().zip(src) {
                    *o += x;
                }
            }
        }
        CollKind::AllGatherCat { .. } => {
            out.copy_from_slice(&contribs[c.src].data()[c.src_off..c.src_off + c.len]);
        }
    }
}

/// Claim and run chunks of the oldest runnable round on this engine until
/// none of its chunks is left to claim. Returns whether any work was done.
/// This is the cooperative scheduler: every rank that waits drives forward
/// whichever collective is ready, so reductions complete while slower
/// ranks are still computing.
fn try_progress(engine: &Engine, log: &TrafficLog) -> bool {
    let target: Option<Arc<Round>> = {
        let st = engine.state.lock();
        st.rounds
            .values()
            .filter(|e| e.shared.claimable())
            .min_by_key(|e| e.shared.seq)
            .map(|e| e.shared.clone())
    };
    let Some(round) = target else { return false };
    let frozen = round.frozen.get().expect("claimable implies frozen");
    let n_chunks = frozen.chunks.len();
    let mut did = false;
    loop {
        let ci = round.next_chunk.fetch_add(1, Ordering::Relaxed);
        if ci >= n_chunks {
            break;
        }
        let c = &frozen.chunks[ci];
        run_chunk(&round, frozen, c);
        did = true;
        let (issued_us, event_seq) = {
            let s = round.stamps.lock();
            (s.issued_us, s.event_seq)
        };
        log.record_chunk(ChunkEvent {
            op: round.kind.op(),
            coll_seq: event_seq.unwrap_or(usize::MAX),
            chunk: ci,
            bytes_on_wire: chunk_wire_bytes(round.kind, round.group, c.len),
            issued_us,
            ready_us: frozen.ready_us,
            done_us: log.now_us(),
        });
        let done = round.done_chunks.fetch_add(1, Ordering::AcqRel) + 1;
        if done == n_chunks {
            // Every chunk has run, so nothing reads the inputs again.
            *frozen.contribs.write().expect(INPUTS_LOCK) = Vec::new();
            round.complete.store(true, Ordering::Release);
            // Every rank deposited and every chunk ran: no waiter needs the
            // table entry any more (requests hold the round itself).
            let mut st = engine.state.lock();
            st.rounds.remove(&round.seq);
            engine.cv.notify_all();
        }
    }
    did
}

impl CommRequest {
    /// Engine sequence number of this request's round (the per-rank issue
    /// counter value) — a socket transport stamps it on the wire so the
    /// receiving side can cross-check SPMD order.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Retire this rank's share of the round; once every rank has retired
    /// (by `wait` or by drop), the round's state is released.
    fn retire(&mut self) {
        if self.retired {
            return;
        }
        self.retired = true;
        let mut st = self.engine.state.lock();
        if let Some(entry) = st.rounds.get_mut(&self.seq) {
            entry.retired += 1;
            if entry.retired == self.round.group {
                st.rounds.remove(&self.seq);
            }
        }
    }

    /// Block until the collective completes and return this rank's result:
    /// the full sum (all-reduce), this rank's chunk of the sum
    /// (reduce-scatter), or the rank-order concatenation (all-gather).
    ///
    /// While blocked, the caller claims and executes pipeline chunks for any
    /// runnable collective on the group — waiting ranks are the comm engine.
    /// On poison the wait panics with a typed [`crate::fault::CommPanic`];
    /// use [`try_wait`](CommRequest::try_wait) to handle failure instead.
    pub fn wait(self) -> Tensor {
        self.try_wait(None).unwrap_or_else(|e| fault::comm_panic(e))
    }

    /// Record a detected failure on the traffic log and hand the cause back.
    fn fail(&self, e: CommError) -> CommError {
        self.log.record_fault(FaultCause::Detected {
            rank: self.rank,
            seq: self.seq,
            error: e,
        });
        e
    }

    /// Fallible, deadline-bounded [`wait`](CommRequest::wait).
    ///
    /// `deadline: None` blocks until completion or poison (a dead peer is
    /// still detected — the launcher poisons every group when a rank
    /// unwinds). `Some(d)` additionally bounds the wait: a peer that is
    /// hung rather than dead surfaces as [`CommError::Timeout`] after `d`.
    /// The wait spins briefly, then parks on the engine condvar
    /// (spin→park); parked waiters are woken by deposits, chunk
    /// completions, and poison.
    ///
    /// On `Err` the request is consumed and its round bookkeeping retired —
    /// the collective's result is unrecoverable (the caller's next move is
    /// [`crate::Communicator::regroup`]).
    pub fn try_wait(self, deadline: Option<Duration>) -> Result<Tensor, CommError> {
        if let Some((rank, point)) = fault::probe_wait() {
            // Injected `MidChunkClaim`: claim one pipeline chunk of the
            // awaited round and die *without running it* — the round can
            // then never complete by progress alone, so survivors must be
            // freed by poison or deadline.
            if matches!(point, FaultPoint::MidChunkClaim(_)) && self.round.frozen.get().is_some() {
                self.round.next_chunk.fetch_add(1, Ordering::Relaxed);
            }
            fault::die(rank, point);
        }
        let engine = &self.engine;
        let start = Instant::now();
        let mut spins = 0u32;
        let mut ticks = 0u32;
        loop {
            if self.round.complete.load(Ordering::Acquire) {
                break;
            }
            if let Err(e) = engine.check_live() {
                return Err(self.fail(e));
            }
            // Reading the clock every iteration would tax the failure-free
            // hot path (the acceptance bar is ≤ 1% over the infallible
            // wait), so throttle it; the parked branch below enforces the
            // deadline exactly via `wait_for`.
            if let Some(d) = deadline {
                if ticks & 63 == 0 {
                    let waited = start.elapsed();
                    if waited >= d {
                        return Err(self.fail(CommError::Timeout { waited }));
                    }
                }
            }
            ticks = ticks.wrapping_add(1);
            if try_progress(engine, &self.log) {
                continue;
            }
            let mut st = engine.state.lock();
            if self.round.complete.load(Ordering::Acquire) {
                break;
            }
            if let Err(e) = engine.check_live() {
                drop(st);
                return Err(self.fail(e));
            }
            let work_available = st.rounds.values().any(|e| e.shared.claimable());
            if work_available {
                continue;
            }
            if spins < WAIT_SPINS {
                spins += 1;
                drop(st);
                std::hint::spin_loop();
                continue;
            }
            match deadline {
                None => engine.cv.wait(&mut st),
                Some(d) => {
                    let waited = start.elapsed();
                    if waited >= d {
                        drop(st);
                        return Err(self.fail(CommError::Timeout { waited }));
                    }
                    let _ = engine.cv.wait_for(&mut st, d - waited);
                }
            }
        }
        let mut this = self;
        let frozen = this.round.frozen.get().expect("complete implies frozen");
        // SAFETY: completion observed with acquire ordering above.
        let out = unsafe { frozen.buf.read() };
        // Each rank copies its result out of the staging buffer on its own
        // thread, so the copy is charged to its own device and freed when
        // it alone drops it — as a real device owns its output buffer.
        let result = match this.round.kind {
            CollKind::AllReduceSum => {
                Tensor::from_vec(scratch::copied(out), frozen.shapes[0].clone())
            }
            CollKind::ReduceScatterSum => {
                let dims = frozen.shapes[0].dims();
                let k = dims[0] / this.round.group;
                let row: usize = dims[1..].iter().product::<usize>().max(1);
                let mut out_dims = dims.to_vec();
                out_dims[0] = k;
                Tensor::from_vec(
                    scratch::copied(&out[this.rank * k * row..(this.rank + 1) * k * row]),
                    Shape::new(&out_dims),
                )
            }
            CollKind::AllGatherCat { axis: 0 } => {
                // Row-major concat along axis 0 is the staging buffer.
                let mut dims = frozen.shapes[0].dims().to_vec();
                dims[0] = frozen.shapes.iter().map(|sh| sh.dims()[0]).sum();
                Tensor::from_vec(scratch::copied(out), Shape::new(&dims))
            }
            CollKind::AllGatherCat { axis } => {
                let parts: Vec<Tensor> = frozen
                    .shapes
                    .iter()
                    .zip(&frozen.gather_offsets)
                    .map(|(sh, &off)| {
                        Tensor::from_vec(scratch::copied(&out[off..off + sh.numel()]), sh.clone())
                    })
                    .collect();
                let refs: Vec<&Tensor> = parts.iter().collect();
                ops::concat(&refs, axis)
            }
        };
        this.retire();
        Ok(result)
    }
}

impl Drop for CommRequest {
    fn drop(&mut self) {
        // Un-waited requests (fire-and-forget, over-eager prefetch, unwind
        // after a poison panic) must still release their round bookkeeping,
        // or every dropped request would leak its contributions and output
        // buffer for the life of the process group.
        self.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::run_ranks;

    #[test]
    fn iall_reduce_matches_blocking_across_chunk_boundaries() {
        // 40_000 elements = 3 chunks (2 full + 1 partial).
        let run = run_ranks(4, |ctx| {
            let n = 40_000;
            let r = ctx.comm.rank() as f32;
            let t = Tensor::from_vec((0..n).map(|i| i as f32 * 0.001 + r).collect(), [n]);
            let req = ctx.comm.iall_reduce_sum(&t);
            let got = req.wait();
            (got.at(0), got.at(n - 1), got.numel())
        });
        // sum over ranks of (i*0.001 + r) = 4*i*0.001 + 6
        for (first, last, n) in run.outputs {
            assert_eq!(n, 40_000);
            assert_eq!(first, 6.0);
            assert_eq!(last, 39_999.0f32 * 0.001 * 4.0 + 6.0);
        }
    }

    #[test]
    fn issue_then_compute_then_wait() {
        let run = run_ranks(3, |ctx| {
            let t = Tensor::full([100], (ctx.comm.rank() + 1) as f32);
            let req = ctx.comm.iall_reduce_sum(&t);
            // "compute" between issue and wait
            let mut acc = 0.0f32;
            for i in 0..1000 {
                acc += (i as f32).sin();
            }
            let out = req.wait();
            (out.at(0), acc.is_finite())
        });
        for (v, fin) in run.outputs {
            assert_eq!(v, 6.0);
            assert!(fin);
        }
    }

    #[test]
    fn ireduce_scatter_gives_rank_chunks() {
        let run = run_ranks(2, |ctx| {
            let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
            ctx.comm.ireduce_scatter_sum(&t).wait().to_vec()
        });
        assert_eq!(run.outputs[0], vec![2.0, 4.0]);
        assert_eq!(run.outputs[1], vec![6.0, 8.0]);
    }

    #[test]
    fn igather_cat_axis0_and_axis1() {
        let run = run_ranks(2, |ctx| {
            let r = ctx.comm.rank() as f32;
            let t = Tensor::from_vec(vec![r, r + 10.0], [1, 2]);
            let a0 = ctx.comm.iall_gather_cat(&t, 0).wait();
            let a1 = ctx.comm.iall_gather_cat(&t, 1).wait();
            (
                a0.dims().to_vec(),
                a0.to_vec(),
                a1.dims().to_vec(),
                a1.to_vec(),
            )
        });
        for (d0, v0, d1, v1) in run.outputs {
            assert_eq!(d0, vec![2, 2]);
            assert_eq!(v0, vec![0.0, 10.0, 1.0, 11.0]);
            assert_eq!(d1, vec![1, 4]);
            assert_eq!(v1, vec![0.0, 10.0, 1.0, 11.0]);
        }
    }

    #[test]
    fn several_requests_in_flight_complete_in_any_wait_order() {
        let run = run_ranks(2, |ctx| {
            let r = ctx.comm.rank() as f32;
            let a = ctx.comm.iall_reduce_sum(&Tensor::full([10], r + 1.0));
            let b = ctx.comm.iall_reduce_sum(&Tensor::full([10], 2.0 * r + 1.0));
            let c = ctx.comm.iall_gather_cat(&Tensor::full([2], r), 0);
            // wait out of issue order
            let vc = c.wait().to_vec();
            let vb = b.wait().at(0);
            let va = a.wait().at(0);
            (va, vb, vc)
        });
        for (va, vb, vc) in run.outputs {
            assert_eq!(va, 3.0);
            assert_eq!(vb, 4.0);
            assert_eq!(vc, vec![0.0, 0.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn dropped_request_does_not_block_peers() {
        let run = run_ranks(2, |ctx| {
            let req = ctx.comm.iall_reduce_sum(&Tensor::ones([8]));
            if ctx.comm.rank() == 0 {
                drop(req); // fire-and-forget: deposit already happened
                0.0
            } else {
                req.wait().at(0)
            }
        });
        assert_eq!(run.outputs[1], 2.0);
    }

    #[test]
    fn dropped_requests_retire_their_rounds() {
        // Fire-and-forget must not leak round state: drop retires, and once
        // every rank has retired (drop or wait) the entry is released.
        let run = run_ranks(2, |ctx| {
            for _ in 0..20 {
                let _ = ctx.comm.iall_reduce_sum(&Tensor::ones([64]));
            }
            ctx.comm.barrier();
            ctx.comm.barrier(); // both ranks' drops have happened
            ctx.comm.inflight_rounds()
        });
        for n in run.outputs {
            assert_eq!(n, 0, "dropped requests must not leak rounds");
        }
    }

    #[test]
    fn chunk_events_stamped_once_per_chunk() {
        let run = run_ranks(2, |ctx| {
            let n = COMM_CHUNK_ELEMS * 2 + 7; // 3 chunks
            let req = ctx.comm.iall_reduce_sum(&Tensor::ones([n]));
            let _ = req.wait();
            ctx.comm.barrier();
            (
                ctx.comm.traffic().chunk_events().len(),
                ctx.comm.traffic().bytes_on_wire(),
            )
        });
        let (chunks, wire) = run.outputs[0];
        assert_eq!(chunks, 3, "one event per chunk across the whole group");
        // ring all-reduce: 2·(g−1)/g of the logical bytes
        assert_eq!(wire, (COMM_CHUNK_ELEMS * 2 + 7) * 4);
    }

    /// Pseudo-random payload with varied magnitudes.
    fn wire_payload(n: usize, salt: u64) -> Vec<f32> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((state >> 40) as f32) / (1u32 << 24) as f32; // [0,1)
                (u - 0.5) * 8.0
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "same order on every rank")]
    fn mismatched_issue_order_is_detected() {
        run_ranks(2, |ctx| {
            let t = Tensor::ones([4]);
            if ctx.comm.rank() == 0 {
                ctx.comm.iall_reduce_sum(&t).wait()
            } else {
                ctx.comm.iall_gather_cat(&t, 0).wait()
            }
        });
    }

    #[test]
    fn fault_try_wait_times_out_on_missing_peer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let timed_out = AtomicBool::new(false);
        let run = run_ranks(2, |ctx| {
            if ctx.comm.rank() == 0 {
                let req = ctx.comm.iall_reduce_sum(&Tensor::ones([4]));
                let err = req
                    .try_wait(Some(Duration::from_millis(25)))
                    .expect_err("peer never deposits before the deadline");
                let ok = matches!(err, CommError::Timeout { waited } if waited >= Duration::from_millis(25));
                timed_out.store(true, Ordering::SeqCst);
                ok
            } else {
                // Deposit only after rank 0 has observably timed out, then
                // match the abandoned round so the engine state drains.
                while !timed_out.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let _ = ctx.comm.iall_reduce_sum(&Tensor::ones([4]));
                true
            }
        });
        assert!(run.outputs.iter().all(|&ok| ok));
        // Detection is on the audit trail.
        assert!(run.traffic.fault_events().iter().any(|f| matches!(
            f.cause,
            FaultCause::Detected {
                error: CommError::Timeout { .. },
                ..
            }
        )));
    }

    #[test]
    fn fault_try_wait_without_deadline_matches_wait_bitwise() {
        let run = run_ranks(4, |ctx| {
            let n = COMM_CHUNK_ELEMS + 11; // 2 chunks
            let t = Tensor::from_vec(wire_payload(n, ctx.comm.rank() as u64 + 3), [n]);
            let a = ctx.comm.iall_reduce_sum(&t).wait();
            let b = ctx
                .comm
                .iall_reduce_sum(&t)
                .try_wait(Some(Duration::from_secs(30)))
                .expect("healthy group completes well inside the deadline");
            let bits = |x: &Tensor| x.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            (bits(&a), bits(&b))
        });
        for (a, b) in run.outputs {
            assert_eq!(a, b, "fallible path must be bitwise identical to wait()");
        }
    }

    #[test]
    #[should_panic(expected = "rank 0 failed mid-flight")]
    fn waiters_on_inflight_requests_observe_poison() {
        run_ranks(2, |ctx| {
            let req = ctx.comm.iall_reduce_sum(&Tensor::ones([4]));
            if ctx.comm.rank() == 0 {
                // Panic *after* issuing but before waiting: rank 1's round
                // is complete-able, but give it a second, unmatched round it
                // can never finish, then die.
                panic!("rank 0 failed mid-flight");
            }
            let _ = req.wait();
            // second collective never matched by rank 0
            ctx.comm.iall_reduce_sum(&Tensor::ones([4])).wait().at(0)
        });
    }

    /// An engine of `size` ranks in a throwaway world, for tests that drive
    /// deposits directly.
    fn bare_engine(size: usize) -> (Arc<Engine>, Arc<WorldShared>) {
        let world = WorldShared::new(crate::Topology::frontier(size));
        let engine = Engine::new(size, 0);
        world.register_engine(&engine);
        (engine, world)
    }

    fn ones_issue(engine: &Arc<Engine>, world: &WorldShared, rank: usize, v: f32) -> CommRequest {
        let t = Tensor::full([1], v);
        try_issue(engine, rank, CollKind::AllReduceSum, &t, None, world).expect("live engine")
    }

    #[test]
    fn fault_first_poison_cause_wins() {
        let (engine, world) = bare_engine(2);
        world.poison_all(CommError::PeerFailed { rank: 0, epoch: 3 });
        world.poison_all(CommError::Poisoned);
        let (t, kind) = (Tensor::ones([1]), CollKind::AllReduceSum);
        let err = try_issue(&engine, 1, kind, &t, None, &world);
        let err = err.err().expect("poisoned engine refuses deposits");
        assert_eq!(err, CommError::PeerFailed { rank: 0, epoch: 3 });
    }

    #[test]
    fn remote_deposits_race_ahead_without_mixing_rounds() {
        // A replica engine (one local rank) whose remote peer runs three
        // full rounds ahead before the local rank issues at all: rounds are
        // matched by sequence number, never mixing contributions.
        let (engine, world) = bare_engine(2);
        for round in 0..3u64 {
            let t = Tensor::full([1], 100.0 + round as f32);
            let kind = CollKind::AllReduceSum;
            let seq = deposit_remote(&engine, 1, kind, &t, &world);
            assert_eq!(seq, Ok(round));
        }
        for round in 0..3 {
            let sum = ones_issue(&engine, &world, 0, round as f32).wait();
            assert_eq!(sum.item(), 100.0 + 2.0 * round as f32);
        }
        assert_eq!(engine.rounds_len(), 0, "completed rounds leave the table");
    }

    #[test]
    fn remote_deposit_into_poisoned_core_is_dropped() {
        let (engine, world) = bare_engine(2);
        world.poison_all(CommError::PeerFailed { rank: 1, epoch: 0 });
        let t = Tensor::ones([1]);
        let kind = CollKind::AllReduceSum;
        let got = deposit_remote(&engine, 1, kind, &t, &world);
        assert_eq!(got, Err(CommError::PeerFailed { rank: 1, epoch: 0 }));
        assert_eq!(engine.rounds_len(), 0);
    }

    #[test]
    fn poison_wakes_waiters_with_typed_cause() {
        let (engine, world) = bare_engine(2);
        let req = ones_issue(&engine, &world, 0, 1.0);
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            parked_tx.send(()).expect("test thread listens");
            req.try_wait(None)
        });
        parked_rx.recv().expect("waiter started");
        // Let the waiter spin out and park on the condvar before the poison
        // lands (poison before parking is covered by the live check too).
        std::thread::sleep(Duration::from_millis(20));
        world.poison_all(CommError::PeerFailed { rank: 1, epoch: 0 });
        let got = waiter.join().expect("waiter returns, never panics");
        assert_eq!(got.err(), Some(CommError::PeerFailed { rank: 1, epoch: 0 }));
    }
}
