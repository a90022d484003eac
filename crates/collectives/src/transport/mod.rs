//! Real rank-to-rank transport: TCP sockets behind the same collectives
//! engine the thread transport runs in-process.
//!
//! Every TCP process hosts a **full-size local replica** of each group's
//! collectives engine, where only the local rank issues collectives. There
//! is one wire path: every collective — tensor collectives and the barrier,
//! broadcast, `all_gather_vec` and `split` gathers alike — is fanned out
//! as one sequenced data frame per peer, and receiver threads deposit it
//! through the engine's `deposit_remote` seam exactly as a peer thread's
//! issue would. The chunk schedules and the `TrafficLog` therefore run
//! *unmodified* over real sockets — loopback results are bitwise equal to
//! thread ranks by construction, not by luck.
//!
//! Robustness model (the headline):
//! - length-prefixed frames with a versioned handshake (rank, epoch, world
//!   size) — stale-epoch zombies from before a regroup are refused;
//! - per-peer heartbeats on an idle timer, a monitor thread that maps
//!   heartbeat loss to [`CommError::PeerFailed`];
//! - connect/read/write deadlines with bounded exponential-backoff reconnect
//!   inside an epoch; exhausted budgets map to `PeerFailed`;
//! - every socket-level signal (ECONNREFUSED, EPIPE/reset, read timeout,
//!   heartbeat loss, handshake mismatch) lands in the *existing* typed
//!   [`CommError`] surface, so `Communicator::regroup` and
//!   `resilient_train_loop` work across process death unchanged.
//!
//! Deterministic fault injection extends to this layer via
//! [`TransportFaultPlan`] (drop-after-N-frames, black-hole reads,
//! refuse-accept, sever-during-chunk, sever-once-and-reconnect).

pub mod frame;
mod launch;

pub use launch::{
    connect_world, run_tcp_ranks, run_tcp_ranks_faulty, run_transport_ranks, spawn_world,
    tcp_world_from_env, TcpEnv, TcpRun,
};

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dchag_tensor::Tensor;
use parking_lot::{Condvar, Mutex};

use crate::fault::CommError;
use crate::group::WorldShared;
use crate::nonblocking::{self, CollKind, Engine};
use crate::traffic::{FailureSource, FaultCause, TransportEventKind};
use frame::{
    encode_frame, validate_handshake, DataFrame, Frame, FrameReader, HandshakeExpect, VERSION,
};

// ----- configuration --------------------------------------------------------

/// Which rank-to-rank transport a world runs over.
#[derive(Clone, Debug)]
pub enum Transport {
    /// In-process thread ranks (the default; one shared engine per group).
    Thread,
    /// Real TCP sockets (loopback or multi-host-shaped), one process-like
    /// endpoint per rank. Collective results are bitwise equal to `Thread`.
    Tcp(TcpConfig),
}

/// Deadlines and retry budgets for the TCP transport. Every failure mode
/// these bound maps onto the existing typed [`CommError`] surface.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Per-attempt connect + handshake deadline.
    pub connect_timeout: Duration,
    /// Socket read timeout; also the monitor/bookkeeping tick.
    pub io_timeout: Duration,
    /// A heartbeat frame is sent after this much writer idle time.
    pub heartbeat_interval: Duration,
    /// A healthy peer silent for this long is declared failed
    /// (`HeartbeatMiss` → `PeerFailed`).
    pub heartbeat_timeout: Duration,
    /// Reconnect budget after an established connection drops (and for
    /// post-connect handshake failures during bring-up).
    pub reconnect_attempts: usize,
    /// Base reconnect backoff; doubles per attempt, capped at 500 ms.
    pub reconnect_backoff: Duration,
    /// How long bring-up tolerates `ECONNREFUSED` (peers still launching)
    /// and how long an acceptor waits for its first inbound connection.
    pub bringup_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(50),
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_secs(2),
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(20),
            bringup_timeout: Duration::from_secs(10),
        }
    }
}

// ----- deterministic transport faults ---------------------------------------

/// A deterministic transport-layer fault armed on one endpoint. Counters
/// tick once per *logical collective send* (one `fault_gate` call per
/// collective, not per peer frame), so fault points are reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportFault {
    /// After N data sends: go dark — close every connection, stop
    /// heartbeating, drop all further sends. Peers see EOF-without-Bye and
    /// reconnects are refused; the victim's own collectives time out.
    DropAfterFrames(usize),
    /// Consume inbound bytes (socket stays live, heartbeats keep flowing)
    /// but dispatch nothing. The victim surfaces `Timeout`; peers complete.
    BlackHoleReads,
    /// Drop every inbound connection before handshaking. Dialing peers
    /// exhaust their budget and declare this rank failed at bring-up.
    RefuseAccept,
    /// At data send N: blast a corrupt frame at every peer, close, and go
    /// dark — peers take an immediate codec error → `PeerFailed`.
    SeverDuringChunk(usize),
    /// At data send N: sever the dialer-side connections once, then let the
    /// normal backoff-reconnect path heal them (the positive robustness
    /// path: reconnect + retransmit events, disturbed rounds).
    SeverOnce(usize),
}

/// Per-rank transport fault assignment, env-encodable so `spawn_world`
/// children can arm themselves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportFaultPlan {
    faults: Vec<(usize, TransportFault)>,
}

impl TransportFaultPlan {
    pub fn none() -> Self {
        TransportFaultPlan { faults: Vec::new() }
    }

    pub fn for_rank(rank: usize, fault: TransportFault) -> Self {
        TransportFaultPlan {
            faults: vec![(rank, fault)],
        }
    }

    pub fn and_fault(mut self, rank: usize, fault: TransportFault) -> Self {
        self.faults.push((rank, fault));
        self
    }

    pub fn get(&self, rank: usize) -> Option<TransportFault> {
        self.faults
            .iter()
            .find(|(r, _)| *r == rank)
            .map(|(_, f)| *f)
    }

    /// `rank:kind:arg` triples joined by `;` — survives an env round trip.
    pub fn encode(&self) -> String {
        self.faults
            .iter()
            .map(|(r, f)| {
                let (kind, arg) = match f {
                    TransportFault::DropAfterFrames(n) => ("drop", *n),
                    TransportFault::BlackHoleReads => ("blackhole", 0),
                    TransportFault::RefuseAccept => ("refuse", 0),
                    TransportFault::SeverDuringChunk(n) => ("sever", *n),
                    TransportFault::SeverOnce(n) => ("severonce", *n),
                };
                format!("{r}:{kind}:{arg}")
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    pub fn decode(s: &str) -> Self {
        let mut plan = TransportFaultPlan::none();
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let mut it = part.split(':');
            let (Some(r), Some(kind), Some(arg)) = (it.next(), it.next(), it.next()) else {
                continue;
            };
            let (Ok(r), Ok(arg)) = (r.parse::<usize>(), arg.parse::<usize>()) else {
                continue;
            };
            let fault = match kind {
                "drop" => TransportFault::DropAfterFrames(arg),
                "blackhole" => TransportFault::BlackHoleReads,
                "refuse" => TransportFault::RefuseAccept,
                "sever" => TransportFault::SeverDuringChunk(arg),
                "severonce" => TransportFault::SeverOnce(arg),
                _ => continue,
            };
            plan.faults.push((r, fault));
        }
        plan
    }
}

// ----- group ids ------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Group id of the world group at `epoch`. Identical on every rank, distinct
/// per epoch, so frames from before a regroup route to the abandoned
/// engine's pending bucket instead of corrupting the new group.
pub(crate) fn gid_world(epoch: u64) -> u64 {
    splitmix64(0x5743_4841_4757_4c44 ^ splitmix64(epoch))
}

/// Group id of the split of `parent` whose color gather ran as engine round
/// `split_seq`, for `color`. Every member computes the same id locally — no
/// leader publish round needed, on either transport.
pub(crate) fn gid_split(parent: u64, split_seq: u64, color: u64) -> u64 {
    splitmix64(parent ^ splitmix64(splitmix64(split_seq) ^ color))
}

// ----- endpoint state -------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PeerStatus {
    Healthy,
    /// Declared dead (socket signal, heartbeat loss, or peer consensus).
    Failed,
    /// Sent `Bye` — clean shutdown, not a failure.
    Departed,
}

struct QItem {
    bytes: Arc<Vec<u8>>,
    /// `(group, seq)` for data frames — what the receiver echoes in its
    /// `Ack`. `None` for control frames (never retransmitted; regroup
    /// robustness comes from periodic re-broadcast).
    ack_key: Option<(u64, u64)>,
    /// Close the connection after writing this item (Bye, injected garbage).
    close_after: bool,
}

struct PeerQ {
    queue: VecDeque<QItem>,
    /// Written but not yet acked — resent ahead of `queue` on reconnect.
    unacked: VecDeque<QItem>,
    conn: Option<TcpStream>,
    /// Bumped per installed connection; readers use it to detect they have
    /// been superseded, the writer to detect a fresh connection (resend).
    conn_gen: u64,
    disconnected_at: Option<Instant>,
    /// `SeverOnce` trigger: writer closes the connection before its next
    /// write and lets the reconnect path heal it.
    sever: bool,
    last_rx: Instant,
}

struct PeerState {
    status: Mutex<PeerStatus>,
    q: Mutex<PeerQ>,
    cv: Condvar,
}

impl PeerState {
    fn new() -> Arc<Self> {
        Arc::new(PeerState {
            status: Mutex::new(PeerStatus::Healthy),
            q: Mutex::new(PeerQ {
                queue: VecDeque::new(),
                unacked: VecDeque::new(),
                conn: None,
                conn_gen: 0,
                disconnected_at: None,
                sever: false,
                last_rx: Instant::now(),
            }),
            cv: Condvar::new(),
        })
    }

    fn healthy(&self) -> bool {
        *self.status.lock() == PeerStatus::Healthy
    }
}

/// Routing entry for one registered group: the local replica engine plus
/// per-sender next-expected-sequence watermarks (exactly-once, in-order
/// delivery even across retransmits).
struct GroupRoute {
    engine: Arc<Engine>,
    /// World ranks by group rank.
    members: Vec<usize>,
    next: Mutex<Vec<u64>>,
}

/// One rank's TCP endpoint: listener, per-peer connections with heartbeat
/// and reconnect, group routing, and the failure mapper onto [`CommError`].
pub struct Endpoint {
    world: Arc<WorldShared>,
    cfg: TcpConfig,
    me: usize,
    world_size: usize,
    started: Instant,
    epoch: AtomicU64,
    listener: TcpListener,
    peer_addrs: Vec<SocketAddr>,
    peers: Vec<Option<Arc<PeerState>>>,
    groups: Mutex<HashMap<u64, Arc<GroupRoute>>>,
    /// Frames for groups not yet registered locally (a peer raced ahead into
    /// a split or regroup) — drained on `register_group`.
    pending: Mutex<HashMap<u64, Vec<(usize, DataFrame)>>>,
    /// target epoch → (world rank → its proposed failed set).
    proposals: Mutex<HashMap<u64, HashMap<usize, BTreeSet<usize>>>>,
    /// Completed regroup verdicts, replayed to stragglers.
    agreed: Mutex<HashMap<u64, BTreeSet<usize>>>,
    regroup_cv: Condvar,
    fault: Option<TransportFault>,
    fault_counter: AtomicUsize,
    /// Gone dark (fault injection): no sends, no heartbeats, no reconnects,
    /// no peer blame — the victim times out instead of accusing survivors.
    silenced: AtomicBool,
    shutdown: AtomicBool,
}

/// Outcome of a successful wire regroup: surviving old ranks (in old-rank
/// order), this endpoint's new rank, the fresh replica engine for the new
/// world, and the rebuilt transport link at the bumped epoch.
pub(crate) type RegroupedWorld = (Vec<usize>, usize, Arc<Engine>, Arc<GroupLink>);

impl Endpoint {
    pub fn new(
        world: Arc<WorldShared>,
        cfg: TcpConfig,
        me: usize,
        listener: TcpListener,
        peer_addrs: Vec<SocketAddr>,
        epoch: u64,
        fault: Option<TransportFault>,
    ) -> Arc<Endpoint> {
        let world_size = peer_addrs.len();
        let peers = (0..world_size)
            .map(|r| {
                if r == me {
                    None
                } else {
                    Some(PeerState::new())
                }
            })
            .collect();
        Arc::new(Endpoint {
            world,
            cfg,
            me,
            world_size,
            started: Instant::now(),
            epoch: AtomicU64::new(epoch),
            listener,
            peer_addrs,
            peers,
            groups: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            proposals: Mutex::new(HashMap::new()),
            agreed: Mutex::new(HashMap::new()),
            regroup_cv: Condvar::new(),
            fault,
            fault_counter: AtomicUsize::new(0),
            silenced: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        })
    }

    pub fn rank(&self) -> usize {
        self.me
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Spawn the accept loop, the heartbeat monitor, and one writer per
    /// peer. All threads hold an `Arc<Endpoint>` and exit within one io
    /// tick of the shutdown flag.
    pub fn start(self: &Arc<Self>) {
        let ep = self.clone();
        std::thread::spawn(move || ep.accept_loop());
        let ep = self.clone();
        std::thread::spawn(move || ep.monitor_loop());
        for p in 0..self.world_size {
            if p == self.me {
                continue;
            }
            let ep = self.clone();
            std::thread::spawn(move || ep.writer_loop(p));
        }
    }

    // ----- registration -----------------------------------------------------

    /// Install the routing entry for the group `engine` serves (routed by
    /// its gid) and drain any frames that arrived before registration.
    /// Returns the send-side handle.
    pub(crate) fn register_group(
        self: &Arc<Self>,
        members: Vec<usize>,
        my_rank: usize,
        engine: Arc<Engine>,
    ) -> Arc<GroupLink> {
        debug_assert_eq!(members[my_rank], self.me);
        let gid = engine.gid();
        let rt = Arc::new(GroupRoute {
            engine,
            members: members.clone(),
            next: Mutex::new(vec![0; members.len()]),
        });
        // Lock order groups → pending matches `on_data`, so buffering and
        // draining cannot race a frame into a stranded bucket.
        let buffered = {
            let mut g = self.groups.lock();
            g.insert(gid, rt.clone());
            self.pending.lock().remove(&gid).unwrap_or_default()
        };
        for (peer, d) in buffered {
            self.dispatch_data(&rt, peer, d);
        }
        Arc::new(GroupLink {
            ep: self.clone(),
            gid,
            members,
            me: my_rank,
        })
    }

    // ----- failure mapper ---------------------------------------------------

    /// The single funnel from every socket-level signal to the typed error
    /// surface: declare the peer failed on the world (audit-trail record,
    /// roster, and `PeerFailed{rank, epoch}` poison of every live engine).
    /// Idempotent per peer.
    fn fail_peer(&self, peer: usize, why: &str) {
        let Some(ps) = &self.peers[peer] else { return };
        {
            let mut st = ps.status.lock();
            if *st != PeerStatus::Healthy {
                return;
            }
            *st = PeerStatus::Failed;
        }
        self.world.declare_failed(
            peer,
            FailureSource::Transport {
                why: why.to_string(),
            },
        );
        ps.cv.notify_all();
        self.regroup_cv.notify_all();
    }

    /// Mark a peer failed on consensus evidence (another survivor's regroup
    /// proposal) without poisoning — the caller is already regrouping.
    fn mark_failed_quietly(&self, peer: usize) {
        if let Some(ps) = &self.peers[peer] {
            let mut st = ps.status.lock();
            if *st == PeerStatus::Healthy {
                *st = PeerStatus::Failed;
            }
            ps.cv.notify_all();
        }
        self.world.mark_failed(peer);
    }

    /// Reconnects pollute in-flight round timings the same way aborts do —
    /// mark them disturbed so the α-β fitter skips them.
    fn disturb_all_inflight(&self) {
        let routes: Vec<Arc<GroupRoute>> = self.groups.lock().values().cloned().collect();
        for rt in routes {
            rt.engine.disturb_inflight(&self.world.log);
        }
    }

    // ----- fault injection --------------------------------------------------

    /// Called once per logical collective send. Returns false when the send
    /// must be dropped (the endpoint went dark).
    fn fault_gate(&self) -> bool {
        if self.silenced.load(Ordering::SeqCst) {
            return false;
        }
        let Some(fault) = self.fault else { return true };
        let k = self.fault_counter.fetch_add(1, Ordering::SeqCst);
        match fault {
            TransportFault::DropAfterFrames(n) => {
                if k >= n {
                    self.silence_hard();
                    return false;
                }
                true
            }
            TransportFault::SeverDuringChunk(n) => {
                if k == n {
                    // A well-formed length prefix followed by garbage: peers
                    // decode an immediate codec error mid-stream.
                    let mut garbage = 16u32.to_le_bytes().to_vec();
                    garbage.extend_from_slice(&[0xDE; 16]);
                    let garbage = Arc::new(garbage);
                    for p in 0..self.world_size {
                        if p == self.me {
                            continue;
                        }
                        if let Some(ps) = &self.peers[p] {
                            if ps.healthy() {
                                let mut q = ps.q.lock();
                                q.queue.push_back(QItem {
                                    bytes: garbage.clone(),
                                    ack_key: None,
                                    close_after: true,
                                });
                                ps.cv.notify_all();
                            }
                        }
                    }
                    // Soft silence: writers still flush the garbage (and
                    // close via close_after); no new sends, no heartbeats.
                    self.silenced.store(true, Ordering::SeqCst);
                    return false;
                }
                true
            }
            TransportFault::SeverOnce(n) => {
                if k == n {
                    // Sever only connections we dial (peer < me) so the
                    // reconnect events land in this endpoint's log.
                    for p in 0..self.me {
                        if let Some(ps) = &self.peers[p] {
                            let mut q = ps.q.lock();
                            q.sever = true;
                            ps.cv.notify_all();
                        }
                    }
                }
                true
            }
            TransportFault::BlackHoleReads | TransportFault::RefuseAccept => true,
        }
    }

    /// Go dark immediately: close every connection, stop all activity.
    fn silence_hard(&self) {
        self.silenced.store(true, Ordering::SeqCst);
        for ps in self.peers.iter().flatten() {
            let mut q = ps.q.lock();
            if let Some(c) = q.conn.take() {
                let _ = c.shutdown(Shutdown::Both);
            }
            q.disconnected_at = Some(Instant::now());
            ps.cv.notify_all();
        }
    }

    // ----- enqueue ----------------------------------------------------------

    fn enqueue_data(&self, peer: usize, d: DataFrame, ack_key: (u64, u64)) {
        if self.silenced.load(Ordering::SeqCst) {
            return;
        }
        let Some(ps) = &self.peers[peer] else { return };
        if !ps.healthy() {
            return;
        }
        let bytes = Arc::new(encode_frame(&Frame::Data(d)));
        let mut q = ps.q.lock();
        q.queue.push_back(QItem {
            bytes,
            ack_key: Some(ack_key),
            close_after: false,
        });
        ps.cv.notify_all();
    }

    fn enqueue_ctrl(&self, peer: usize, f: &Frame) {
        if self.silenced.load(Ordering::SeqCst) {
            return;
        }
        let Some(ps) = &self.peers[peer] else { return };
        if !ps.healthy() {
            return;
        }
        let bytes = Arc::new(encode_frame(f));
        let mut q = ps.q.lock();
        q.queue.push_back(QItem {
            bytes,
            ack_key: None,
            close_after: false,
        });
        ps.cv.notify_all();
    }

    // ----- writer -----------------------------------------------------------

    fn writer_loop(self: Arc<Self>, peer: usize) {
        let ps = self.peers[peer].clone().expect("writer for self");
        let dialer = self.me > peer;
        let mut seen_gen: u64 = 0;
        loop {
            if !ps.healthy() {
                break;
            }
            if self.shutdown.load(Ordering::SeqCst) && ps.q.lock().queue.is_empty() {
                break;
            }
            // Phase A: ensure a connection.
            let have_conn = ps.q.lock().conn.is_some();
            if !have_conn {
                if self.silenced.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let ok = if dialer {
                    self.dial(&ps, peer)
                } else {
                    self.wait_accepted(&ps, peer)
                };
                if !ok {
                    break;
                }
                continue;
            }
            // Phase B: fresh connection → resend unacked ahead of the queue.
            {
                let mut q = ps.q.lock();
                if q.conn_gen != seen_gen {
                    let bringup = seen_gen == 0;
                    seen_gen = q.conn_gen;
                    if !bringup {
                        self.world
                            .log
                            .record_transport(peer, TransportEventKind::Reconnected);
                        for _ in 0..q.unacked.len() {
                            self.world
                                .log
                                .record_transport(peer, TransportEventKind::Retransmit);
                        }
                    }
                    while let Some(item) = q.unacked.pop_back() {
                        q.queue.push_front(item);
                    }
                    drop(q);
                    if !bringup {
                        self.disturb_all_inflight();
                    }
                    continue;
                }
            }
            // Phase C: pop an item (or heartbeat when idle) and write it
            // outside the lock so readers never stall on us.
            enum Step {
                Write(QItem, TcpStream, u64),
                Beat(TcpStream, u64),
                Again,
            }
            let step = {
                let mut q = ps.q.lock();
                if q.sever {
                    q.sever = false;
                    if let Some(c) = q.conn.take() {
                        let _ = c.shutdown(Shutdown::Both);
                    }
                    q.disconnected_at = Some(Instant::now());
                    Step::Again
                } else if q.queue.is_empty() {
                    let timed_out = ps
                        .cv
                        .wait_for(&mut q, self.cfg.heartbeat_interval)
                        .timed_out();
                    if q.queue.is_empty()
                        && timed_out
                        && !self.silenced.load(Ordering::SeqCst)
                        && !self.shutdown.load(Ordering::SeqCst)
                    {
                        match q.conn.as_ref().and_then(|c| c.try_clone().ok()) {
                            Some(c) => Step::Beat(c, q.conn_gen),
                            None => Step::Again,
                        }
                    } else {
                        Step::Again
                    }
                } else {
                    match q.conn.as_ref().and_then(|c| c.try_clone().ok()) {
                        Some(c) => {
                            let gen = q.conn_gen;
                            let item = q.queue.pop_front().expect("non-empty queue");
                            Step::Write(item, c, gen)
                        }
                        None => Step::Again,
                    }
                }
            };
            match step {
                Step::Again => {}
                Step::Beat(mut conn, gen) => {
                    if conn.write_all(&encode_frame(&Frame::Heartbeat)).is_err() {
                        self.on_write_error(&ps, gen, None);
                    }
                }
                Step::Write(item, mut conn, gen) => match conn.write_all(&item.bytes) {
                    Ok(()) => {
                        let mut q = ps.q.lock();
                        if item.close_after {
                            if let Some(c) = q.conn.take() {
                                let _ = c.shutdown(Shutdown::Both);
                            }
                            q.disconnected_at = Some(Instant::now());
                        } else if item.ack_key.is_some() {
                            q.unacked.push_back(item);
                        }
                    }
                    Err(_) => self.on_write_error(&ps, gen, Some(item)),
                },
            }
        }
        // Leave nothing half-open behind us.
        let mut q = ps.q.lock();
        if let Some(c) = q.conn.take() {
            let _ = c.shutdown(Shutdown::Both);
        }
    }

    /// EPIPE/reset on write: requeue the unsent item and drop the (still
    /// current) connection so phase A runs the reconnect path.
    fn on_write_error(&self, ps: &Arc<PeerState>, gen: u64, item: Option<QItem>) {
        let mut q = ps.q.lock();
        if let Some(item) = item {
            q.queue.push_front(item);
        }
        if q.conn_gen == gen {
            if let Some(c) = q.conn.take() {
                let _ = c.shutdown(Shutdown::Both);
            }
            q.disconnected_at = Some(Instant::now());
        }
        ps.cv.notify_all();
    }

    /// Dial `peer` (we are the higher rank). Bring-up tolerates
    /// `ECONNREFUSED` until `bringup_timeout`; afterwards every attempt
    /// draws from the bounded reconnect budget with exponential backoff.
    /// Returns false once the peer is declared failed (or we are stopping).
    fn dial(self: &Arc<Self>, ps: &Arc<PeerState>, peer: usize) -> bool {
        let bringup = ps.q.lock().conn_gen == 0;
        let start = Instant::now();
        let mut attempts = 0usize;
        let mut backoff = self.cfg.reconnect_backoff;
        let mut last_err;
        loop {
            if self.shutdown.load(Ordering::SeqCst) || self.silenced.load(Ordering::SeqCst) {
                return false;
            }
            if !ps.healthy() {
                return false;
            }
            if !bringup {
                self.world
                    .log
                    .record_transport(peer, TransportEventKind::ReconnectAttempt);
            }
            match TcpStream::connect_timeout(&self.peer_addrs[peer], self.cfg.connect_timeout) {
                Ok(stream) => match self.client_handshake(stream) {
                    Ok((stream, residual)) => {
                        self.install_conn(ps, peer, stream, residual);
                        return true;
                    }
                    Err(HsErr::Refused(why)) => {
                        // Definitive verdict from the peer (stale epoch,
                        // wrong world, or we were declared failed) — no
                        // retry can fix it.
                        self.fail_peer(peer, &format!("refused our handshake ({why})"));
                        return false;
                    }
                    Err(HsErr::Io(why)) => last_err = why,
                },
                Err(e) => {
                    if bringup && start.elapsed() <= self.cfg.bringup_timeout {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    last_err = e.to_string();
                }
            }
            attempts += 1;
            if attempts >= self.cfg.reconnect_attempts {
                self.fail_peer(
                    peer,
                    &format!(
                        "unreachable after {attempts} connection attempts (last: {last_err}; epoch {})",
                        self.epoch()
                    ),
                );
                return false;
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(500));
        }
    }

    /// Acceptor-side phase A: wait for the accept handler to install a
    /// connection from `peer`. Bounded by the bring-up window initially and
    /// a re-accept window (one heartbeat timeout) after a disconnect.
    fn wait_accepted(&self, ps: &Arc<PeerState>, peer: usize) -> bool {
        let deadline = {
            let q = ps.q.lock();
            match q.disconnected_at {
                Some(t) => t + self.cfg.heartbeat_timeout,
                None => self.started + self.cfg.bringup_timeout,
            }
        };
        loop {
            if self.shutdown.load(Ordering::SeqCst) || self.silenced.load(Ordering::SeqCst) {
                return false;
            }
            if !ps.healthy() {
                return false;
            }
            {
                let mut q = ps.q.lock();
                if q.conn.is_some() {
                    return true;
                }
                if Instant::now() < deadline {
                    let _ = ps.cv.wait_for(&mut q, Duration::from_millis(10));
                    continue;
                }
            }
            self.fail_peer(peer, "did not (re)connect within the accept window");
            return false;
        }
    }

    fn client_handshake(&self, stream: TcpStream) -> Result<(TcpStream, FrameReader), HsErr> {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
        let mut s = stream;
        let hs = encode_frame(&Frame::Handshake {
            version: VERSION,
            world: self.world_size as u32,
            epoch: self.epoch(),
            rank: self.me as u32,
        });
        s.write_all(&hs).map_err(|e| HsErr::Io(e.to_string()))?;
        let mut reader = FrameReader::new();
        let deadline = Instant::now() + self.cfg.connect_timeout;
        let mut buf = [0u8; 4096];
        loop {
            match reader.next_frame() {
                Ok(Some(Frame::HandshakeAck { accept: true, .. })) => {
                    return Ok((s, reader));
                }
                Ok(Some(Frame::HandshakeAck {
                    accept: false,
                    epoch,
                    world,
                })) => {
                    return Err(HsErr::Refused(format!(
                        "peer at epoch {epoch}, world {world}"
                    )));
                }
                Ok(Some(_)) => return Err(HsErr::Io("unexpected frame before ack".into())),
                Ok(None) => {}
                Err(e) => return Err(HsErr::Io(e.0)),
            }
            if Instant::now() >= deadline {
                return Err(HsErr::Io("handshake ack timed out".into()));
            }
            match s.read(&mut buf) {
                Ok(0) => return Err(HsErr::Io("eof before handshake ack".into())),
                Ok(n) => reader.feed(&buf[..n]),
                Err(e) if retryable(&e) => {}
                Err(e) => return Err(HsErr::Io(e.to_string())),
            }
        }
    }

    fn install_conn(
        self: &Arc<Self>,
        ps: &Arc<PeerState>,
        peer: usize,
        stream: TcpStream,
        residual: FrameReader,
    ) {
        let gen = {
            let mut q = ps.q.lock();
            if let Some(old) = q.conn.take() {
                let _ = old.shutdown(Shutdown::Both);
            }
            q.conn_gen += 1;
            q.conn = Some(stream.try_clone().expect("clone tcp stream"));
            q.disconnected_at = None;
            q.last_rx = Instant::now();
            ps.cv.notify_all();
            q.conn_gen
        };
        let ep = self.clone();
        std::thread::spawn(move || ep.reader_loop(peer, stream, gen, residual));
    }

    // ----- accept side ------------------------------------------------------

    fn accept_loop(self: Arc<Self>) {
        let _ = self.listener.set_nonblocking(true);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.silenced.load(Ordering::SeqCst) {
                        continue;
                    }
                    if matches!(self.fault, Some(TransportFault::RefuseAccept)) {
                        self.world
                            .log
                            .record_transport(usize::MAX, TransportEventKind::HandshakeRejected);
                        continue;
                    }
                    let ep = self.clone();
                    std::thread::spawn(move || ep.handle_inbound(stream));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    fn handle_inbound(self: Arc<Self>, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
        let mut s = stream;
        let mut reader = FrameReader::new();
        let deadline = Instant::now() + self.cfg.connect_timeout;
        let mut buf = [0u8; 4096];
        let hs = loop {
            match reader.next_frame() {
                Ok(Some(f)) => break f,
                Ok(None) => {}
                Err(_) => return,
            }
            if Instant::now() >= deadline || self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match s.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => reader.feed(&buf[..n]),
                Err(e) if retryable(&e) => {}
                Err(_) => return,
            }
        };
        let expect = HandshakeExpect {
            world: self.world_size as u32,
            epoch: self.epoch(),
        };
        let refuse = |mut s: TcpStream| {
            let _ = s.write_all(&encode_frame(&Frame::HandshakeAck {
                accept: false,
                epoch: self.epoch(),
                world: self.world_size as u32,
            }));
        };
        let rank = match validate_handshake(&hs, expect) {
            Ok(r) => r as usize,
            Err(why) => {
                self.world
                    .log
                    .record_transport(usize::MAX, TransportEventKind::HandshakeRejected);
                self.world
                    .log
                    .record_fault(FaultCause::HandshakeInvalid { why });
                refuse(s);
                return;
            }
        };
        if rank >= self.world_size || rank == self.me || self.world.failed_ranks().contains(&rank) {
            // A zombie from before a regroup (already declared failed) or a
            // nonsense rank — refuse definitively.
            self.world
                .log
                .record_transport(rank, TransportEventKind::HandshakeRejected);
            self.world
                .log
                .record_fault(FaultCause::HandshakeRefused { rank });
            refuse(s);
            return;
        }
        let ps = self.peers[rank].clone().expect("validated peer");
        if !ps.healthy() {
            refuse(s);
            return;
        }
        if s.write_all(&encode_frame(&Frame::HandshakeAck {
            accept: true,
            epoch: self.epoch(),
            world: self.world_size as u32,
        }))
        .is_err()
        {
            return;
        }
        self.install_conn(&ps, rank, s, reader);
    }

    // ----- reader -----------------------------------------------------------

    fn reader_loop(
        self: Arc<Self>,
        peer: usize,
        mut stream: TcpStream,
        gen: u64,
        mut reader: FrameReader,
    ) {
        let Some(ps) = self.peers[peer].clone() else {
            return;
        };
        let blackhole = matches!(self.fault, Some(TransportFault::BlackHoleReads));
        let mut buf = vec![0u8; 64 * 1024];
        let mut saw_bye = false;
        loop {
            loop {
                match reader.next_frame() {
                    Ok(Some(f)) => {
                        ps.q.lock().last_rx = Instant::now();
                        if blackhole {
                            // Bytes are consumed and liveness is maintained,
                            // but nothing reaches the cores: this endpoint's
                            // own collectives surface `Timeout`.
                            continue;
                        }
                        match f {
                            Frame::Data(d) => self.on_data(peer, d),
                            Frame::Ack { group, upto } => {
                                let mut q = ps.q.lock();
                                if let Some(pos) = q
                                    .unacked
                                    .iter()
                                    .position(|it| it.ack_key == Some((group, upto)))
                                {
                                    q.unacked.remove(pos);
                                }
                            }
                            Frame::Heartbeat => {}
                            Frame::Regroup { epoch, failed } => {
                                self.on_regroup(peer, epoch, &failed)
                            }
                            Frame::Bye => {
                                saw_bye = true;
                                let mut st = ps.status.lock();
                                if *st == PeerStatus::Healthy {
                                    *st = PeerStatus::Departed;
                                }
                                drop(st);
                                ps.cv.notify_all();
                            }
                            Frame::Handshake { .. } | Frame::HandshakeAck { .. } => {
                                self.fail_peer(peer, "sent a handshake frame mid-stream");
                                return;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.fail_peer(peer, &format!("corrupt frame stream ({})", e.0));
                        return;
                    }
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if ps.q.lock().conn_gen != gen {
                return; // superseded by a newer connection
            }
            match stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: clean if `Bye` preceded it (peer departed) or we
                    // are going away ourselves; otherwise drop the conn and
                    // let the writer run the reconnect path — exhaustion
                    // there is what maps EPIPE/reset onto `PeerFailed`.
                    self.clear_conn(&ps, gen);
                    let _ = saw_bye;
                    return;
                }
                Ok(n) => reader.feed(&buf[..n]),
                Err(e) if retryable(&e) => {}
                Err(_) => {
                    // ECONNRESET and friends — same path as EOF.
                    self.clear_conn(&ps, gen);
                    return;
                }
            }
        }
    }

    fn clear_conn(&self, ps: &Arc<PeerState>, gen: u64) {
        let mut q = ps.q.lock();
        if q.conn_gen == gen {
            if let Some(c) = q.conn.take() {
                let _ = c.shutdown(Shutdown::Both);
            }
            q.disconnected_at = Some(Instant::now());
        }
        ps.cv.notify_all();
    }

    // ----- dispatch ---------------------------------------------------------

    fn on_data(self: &Arc<Self>, peer: usize, d: DataFrame) {
        let (group, seq) = (d.group, d.seq);
        let route = {
            let g = self.groups.lock();
            match g.get(&group) {
                Some(rt) => Some(rt.clone()),
                None => {
                    // Group not registered yet (peer raced into a split or a
                    // regroup) — buffer under the same lock that guards
                    // registration so the frame cannot be stranded.
                    self.pending
                        .lock()
                        .entry(group)
                        .or_default()
                        .push((peer, d.clone()));
                    None
                }
            }
        };
        if let Some(rt) = route {
            self.dispatch_data(&rt, peer, d);
        }
        // Ack in all cases (dispatched, buffered, or deduped): the frame is
        // durably on this side, so the sender can drop it from `unacked`.
        self.enqueue_ctrl(peer, &Frame::Ack { group, upto: seq });
    }

    /// Deliver one in-order, exactly-once data frame into the local replica
    /// engine. Duplicates (retransmits already seen) are dropped silently; a
    /// sequence gap means the ordered-delivery invariant broke — poison.
    fn dispatch_data(self: &Arc<Self>, rt: &Arc<GroupRoute>, peer: usize, d: DataFrame) {
        let sender = d.sender as usize;
        if sender >= rt.members.len() || rt.members[sender] != peer {
            self.fail_peer(peer, "sent a data frame with a mismatched sender rank");
            return;
        }
        {
            let mut next = rt.next.lock();
            if d.seq < next[sender] {
                return; // duplicate of an already-delivered frame
            }
            if d.seq > next[sender] {
                self.world.log.record_fault(FaultCause::SequenceGap {
                    rank: peer,
                    group: d.group,
                    got: d.seq,
                    expected: next[sender],
                });
                self.world.poison_all(CommError::Poisoned);
                return;
            }
            next[sender] += 1;
        }
        if d.dims.iter().product::<usize>() != d.body.len() {
            self.fail_peer(peer, "sent a tensor frame with inconsistent dims");
            return;
        }
        let t = Tensor::from_vec(d.body, d.dims.as_slice());
        match nonblocking::deposit_remote(&rt.engine, sender, d.kind, &t, &self.world) {
            Ok(seq) if seq == d.seq => {}
            Ok(seq) => {
                self.world.log.record_fault(FaultCause::SeqMismatch {
                    rank: peer,
                    engine_seq: seq,
                    wire_seq: d.seq,
                });
                self.world.poison_all(CommError::Poisoned);
            }
            Err(_) => {} // engine already poisoned — deposit dropped
        }
    }

    // ----- regroup ----------------------------------------------------------

    fn on_regroup(self: &Arc<Self>, peer: usize, epoch: u64, failed: &[u32]) {
        if epoch <= self.epoch() {
            // Straggler asking about a regroup we already completed: replay
            // the agreed verdict so it converges without us re-entering.
            let verdict = self.agreed.lock().get(&epoch).cloned();
            if let Some(set) = verdict {
                self.enqueue_ctrl(
                    peer,
                    &Frame::Regroup {
                        epoch,
                        failed: set.iter().map(|&r| r as u32).collect(),
                    },
                );
            }
            return;
        }
        let set: BTreeSet<usize> = failed.iter().map(|&r| r as usize).collect();
        self.proposals
            .lock()
            .entry(epoch)
            .or_default()
            .insert(peer, set);
        self.regroup_cv.notify_all();
    }

    /// Survivor-side regroup over the wire: converge on the failed set by
    /// monotone union of broadcast proposals, then rebuild the world group
    /// at `epoch + 1`. Mirrors the thread-mode `RegroupBoard` semantics:
    /// ranks silent past `deadline` are evicted (one pass), cascades
    /// converge, and a rank that learns it was itself evicted gets
    /// `Poisoned`. Hard-bounded at `2 × deadline` by `Timeout`.
    pub(crate) fn regroup_survivors(
        self: &Arc<Self>,
        deadline: Duration,
    ) -> Result<RegroupedWorld, CommError> {
        let target = self.epoch() + 1;
        let start = Instant::now();
        let mut mine: BTreeSet<usize> = self.world.failed_ranks().into_iter().collect();
        let mut evicted_pass = false;
        let mut last_bcast: Option<Instant> = None;
        loop {
            if mine.contains(&self.me) {
                return Err(CommError::Poisoned);
            }
            let due = last_bcast.is_none_or(|t| t.elapsed() >= Duration::from_millis(25));
            if due {
                let f = Frame::Regroup {
                    epoch: target,
                    failed: mine.iter().map(|&r| r as u32).collect(),
                };
                for p in 0..self.world_size {
                    if p != self.me && !mine.contains(&p) {
                        self.enqueue_ctrl(p, &f);
                    }
                }
                last_bcast = Some(Instant::now());
            }
            // Fold in peer proposals and anything the failure detector
            // learned since — the union only grows, so this converges.
            let snapshot: HashMap<usize, BTreeSet<usize>> = self
                .proposals
                .lock()
                .get(&target)
                .cloned()
                .unwrap_or_default();
            let mut grew = false;
            for set in snapshot.values() {
                for &r in set {
                    if r == self.me {
                        return Err(CommError::Poisoned);
                    }
                    if mine.insert(r) {
                        grew = true;
                        self.mark_failed_quietly(r);
                    }
                }
            }
            for r in self.world.failed_ranks() {
                if r != self.me && mine.insert(r) {
                    grew = true;
                }
            }
            if grew {
                last_bcast = None; // re-broadcast the bigger set immediately
                continue;
            }
            let survivors: Vec<usize> =
                (0..self.world_size).filter(|r| !mine.contains(r)).collect();
            let agreed = survivors
                .iter()
                .all(|&r| r == self.me || snapshot.get(&r).is_some_and(|s| *s == mine));
            if agreed {
                self.epoch.store(target, Ordering::SeqCst);
                self.world.set_epoch(target);
                self.agreed.lock().insert(target, mine.clone());
                self.proposals.lock().retain(|&e, _| e > target);
                let my_rank = survivors
                    .iter()
                    .position(|&r| r == self.me)
                    .expect("me survives");
                let engine = Engine::new(survivors.len(), gid_world(target));
                self.world.register_engine(&engine);
                let link = self.register_group(survivors.clone(), my_rank, engine.clone());
                return Ok((survivors, my_rank, engine, link));
            }
            let waited = start.elapsed();
            if waited >= deadline && !evicted_pass {
                evicted_pass = true;
                let mut grew2 = false;
                for &r in &survivors {
                    if r != self.me && !snapshot.contains_key(&r) && mine.insert(r) {
                        self.mark_failed_quietly(r);
                        grew2 = true;
                    }
                }
                if grew2 {
                    last_bcast = None;
                }
                continue;
            }
            if waited >= deadline * 2 {
                return Err(CommError::Timeout { waited });
            }
            let mut g = self.proposals.lock();
            let _ = self.regroup_cv.wait_for(&mut g, Duration::from_millis(10));
        }
    }

    // ----- monitor ----------------------------------------------------------

    /// Declare peers that were connected but have gone silent past the
    /// heartbeat timeout. Skipped entirely while silenced, so a fault
    /// victim times out instead of blaming healthy survivors.
    fn monitor_loop(self: Arc<Self>) {
        loop {
            std::thread::sleep(self.cfg.io_timeout);
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if self.silenced.load(Ordering::SeqCst) {
                continue;
            }
            for p in 0..self.world_size {
                if p == self.me {
                    continue;
                }
                let Some(ps) = &self.peers[p] else { continue };
                if !ps.healthy() {
                    continue;
                }
                let stale = {
                    let q = ps.q.lock();
                    q.conn_gen > 0 && q.last_rx.elapsed() > self.cfg.heartbeat_timeout
                };
                if stale {
                    self.world
                        .log
                        .record_transport(p, TransportEventKind::HeartbeatMiss);
                    self.fail_peer(
                        p,
                        &format!(
                            "heartbeat lost ({} ms silent)",
                            self.cfg.heartbeat_timeout.as_millis()
                        ),
                    );
                }
            }
        }
    }

    // ----- shutdown ---------------------------------------------------------

    /// Clean exit: `Bye` to every healthy peer *behind* all queued data
    /// (TCP FIFO ⇒ peers deposit everything before marking us departed),
    /// bounded drain, then stop all threads.
    pub fn shutdown_graceful(&self) {
        if !self.silenced.load(Ordering::SeqCst) {
            let bye = Arc::new(encode_frame(&Frame::Bye));
            for ps in self.peers.iter().flatten() {
                if ps.healthy() {
                    let mut q = ps.q.lock();
                    q.queue.push_back(QItem {
                        bytes: bye.clone(),
                        ack_key: None,
                        close_after: true,
                    });
                    ps.cv.notify_all();
                }
            }
            let deadline = Instant::now() + Duration::from_secs(2);
            while Instant::now() < deadline {
                let drained = self
                    .peers
                    .iter()
                    .flatten()
                    .all(|ps| !ps.healthy() || ps.q.lock().queue.is_empty());
                if drained {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.abort();
    }

    /// Hard stop without `Bye`: peers see EOF-without-Bye and run the real
    /// failure-detection path (this is the panic/fault exit).
    pub fn abort(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for ps in self.peers.iter().flatten() {
            let mut q = ps.q.lock();
            if let Some(c) = q.conn.take() {
                let _ = c.shutdown(Shutdown::Both);
            }
            ps.cv.notify_all();
        }
        self.regroup_cv.notify_all();
    }
}

// ----- send-side group handle -----------------------------------------------

/// The send side of one registered group: fans a local contribution out to
/// every remote member as sequenced data frames. The matching local deposit
/// goes through the ordinary engine path, so the engine never knows which
/// transport is underneath.
pub(crate) struct GroupLink {
    ep: Arc<Endpoint>,
    gid: u64,
    /// World ranks by group rank.
    members: Vec<usize>,
    /// Our group rank.
    me: usize,
}

impl GroupLink {
    pub(crate) fn endpoint(&self) -> &Arc<Endpoint> {
        &self.ep
    }

    /// Send one contribution (`seq` is the engine sequence the local
    /// `issue` was assigned — cross-checked on receive) to every remote
    /// member.
    pub(crate) fn send_issue(&self, seq: u64, kind: CollKind, t: &Tensor) {
        if !self.ep.fault_gate() {
            return;
        }
        let body = t.data().to_vec();
        for (gr, &wr) in self.members.iter().enumerate() {
            if gr == self.me {
                continue;
            }
            let d = DataFrame {
                group: self.gid,
                sender: self.me as u32,
                seq,
                kind,
                dims: t.dims().to_vec(),
                body: body.clone(),
            };
            self.ep.enqueue_data(wr, d, (self.gid, seq));
        }
    }
}

enum HsErr {
    /// The peer answered with `accept: false` — definitive, no retry.
    Refused(String),
    /// A socket-level failure — retryable within the budget.
    Io(String),
}

fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_tensor::Tensor;

    #[test]
    fn transport_fault_plan_survives_env_round_trip() {
        let plan = TransportFaultPlan::for_rank(2, TransportFault::DropAfterFrames(5))
            .and_fault(1, TransportFault::BlackHoleReads)
            .and_fault(0, TransportFault::RefuseAccept)
            .and_fault(3, TransportFault::SeverDuringChunk(7))
            .and_fault(4, TransportFault::SeverOnce(2));
        assert_eq!(TransportFaultPlan::decode(&plan.encode()), plan);
        assert_eq!(TransportFaultPlan::decode(""), TransportFaultPlan::none());
        assert_eq!(plan.get(2), Some(TransportFault::DropAfterFrames(5)));
        assert_eq!(plan.get(9), None);
    }

    #[test]
    fn group_ids_are_stable_and_distinct() {
        assert_eq!(gid_world(0), gid_world(0));
        assert_ne!(gid_world(0), gid_world(1));
        let parent = gid_world(0);
        assert_ne!(gid_split(parent, 0, 0), gid_split(parent, 0, 1));
        assert_ne!(gid_split(parent, 0, 0), gid_split(parent, 1, 0));
        assert_ne!(gid_split(parent, 0, 0), parent);
    }

    #[test]
    fn tcp_loopback_all_reduce_and_barrier_smoke() {
        let run = run_tcp_ranks(2, TcpConfig::default(), |ctx| {
            let t = Tensor::from_vec(vec![1.0 + ctx.comm.rank() as f32; 4], &[4][..]);
            let sum = ctx.comm.all_reduce_sum(&t);
            ctx.comm.barrier();
            sum.to_vec()
        });
        for out in run.outputs {
            assert_eq!(out.expect("clean run"), vec![3.0; 4]);
        }
    }

    #[test]
    fn tcp_exchange_path_all_gather_vec_is_rank_ordered() {
        let run = run_tcp_ranks(3, TcpConfig::default(), |ctx| {
            let t = Tensor::from_vec(vec![ctx.comm.rank() as f32; 2], &[2][..]);
            let parts = ctx.comm.all_gather_vec(&t);
            parts.iter().map(|p| p.data()[0]).collect::<Vec<_>>()
        });
        for out in run.outputs {
            assert_eq!(out.expect("clean run"), vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn successive_same_color_splits_are_distinct_groups_on_both_transports() {
        for transport in [Transport::Thread, Transport::Tcp(TcpConfig::default())] {
            let run = run_transport_ranks(&transport, 2, |ctx| {
                let (a, b) = (ctx.comm.split(0), ctx.comm.split(0));
                let one = 1.0 + ctx.comm.rank() as f32;
                // Opposite issue orders: were `a` and `b` one group, each
                // rank's first issue would pair with the other's and mix.
                let (ra, rb) = if ctx.comm.rank() == 0 {
                    let ra = a.iall_reduce_sum(&Tensor::full([1], one));
                    (ra, b.iall_reduce_sum(&Tensor::full([1], 10.0 * one)))
                } else {
                    let rb = b.iall_reduce_sum(&Tensor::full([1], 10.0 * one));
                    (a.iall_reduce_sum(&Tensor::full([1], one)), rb)
                };
                (ra.wait().item(), rb.wait().item())
            });
            for out in run.outputs {
                assert_eq!(out.expect("rank ok"), (3.0, 30.0), "{transport:?}");
            }
        }
    }
}
