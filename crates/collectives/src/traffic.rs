//! Communication-traffic recording.
//!
//! Every collective logs one event per *call site* (recorded once by rank 0
//! of the participating group, so counts are per logical collective, not per
//! rank). Chunked nonblocking collectives log their **logical** payload once
//! at issue — never per chunk — and additionally stamp one [`ChunkEvent`]
//! per pipelined chunk as it completes, which is what the overlap
//! measurement reads. The D-CHAG paper's central claim — "no communication
//! in the backward pass" — is asserted in tests by diffing the log around
//! the backward call.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::fault::CommError;

/// The collective kinds the substrate supports (RCCL vocabulary).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CollOp {
    AllGather,
    AllReduce,
    ReduceScatter,
    Broadcast,
    Barrier,
}

impl CollOp {
    pub const ALL: [CollOp; 5] = [
        CollOp::AllGather,
        CollOp::AllReduce,
        CollOp::ReduceScatter,
        CollOp::Broadcast,
        CollOp::Barrier,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            CollOp::AllGather => "AllGather",
            CollOp::AllReduce => "AllReduce",
            CollOp::ReduceScatter => "ReduceScatter",
            CollOp::Broadcast => "Broadcast",
            CollOp::Barrier => "Barrier",
        }
    }
}

/// One recorded collective.
#[derive(Clone, Debug)]
pub struct CollEvent {
    pub op: CollOp,
    /// Per-rank input payload bytes (the `sendbuf` size). Logged once per
    /// logical collective — chunked pipelining does not multiply this.
    pub payload_bytes: usize,
    /// Size of the participating group.
    pub group_size: usize,
    /// Global ranks of the group (for intra/inter-node attribution).
    pub group_ranks: Vec<usize>,
    /// Monotone sequence number across the whole world.
    pub seq: usize,
}

/// One completed chunk of a pipelined (nonblocking) collective.
///
/// Timestamps are microseconds since the log's creation, so events from all
/// ranks share one clock and the overlap window can be reconstructed.
///
/// `done_us − ready_us` is not the chunk's transfer time. Chunks run only
/// when a rank waits on or tests a request, so the span also holds the time
/// a frozen round sat waiting for a waiter to drive it. Sums of that span
/// over requests that overlap in time therefore exceed wall time: FSDP
/// ClimaX over loopback TCP, gathering and scattering each of its 313
/// parameters separately, summed to about 10 s per ~170 ms step on a
/// 2-vCPU host.
#[derive(Clone, Debug)]
pub struct ChunkEvent {
    /// The engine collective that moved the chunk: broadcast and
    /// `all_gather_vec` run as gathers, so their chunks say `AllGather`
    /// while `coll_seq` points at the logical event.
    pub op: CollOp,
    /// `seq` of the parent [`CollEvent`] (`usize::MAX` while unattributed —
    /// only possible if the recording rank never deposited, which cannot
    /// happen for a completed chunk).
    pub coll_seq: usize,
    /// Chunk index within the collective's shape-derived schedule.
    pub chunk: usize,
    /// Ring-model bytes this chunk moved across the wire.
    pub bytes_on_wire: usize,
    /// When the first rank issued the collective.
    pub issued_us: f64,
    /// When the last rank deposited (the chunk became runnable).
    pub ready_us: f64,
    /// When the chunk's reduction/copy finished.
    pub done_us: f64,
}

/// One detected failure / recovery action (detection, regroup, restore) —
/// the fault-tolerance audit trail, timestamped on the traffic clock.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    pub cause: FaultCause,
    pub at_us: f64,
}

/// What a [`FaultEvent`] records: one variant per site that writes the
/// trail. `Display` renders the trail's human-readable line.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultCause {
    /// Group rank `rank`'s wait on its collective `seq` failed with `error`.
    Detected {
        rank: usize,
        seq: u64,
        error: CommError,
    },
    /// Global rank `rank` was declared dead in `epoch` — the one record of
    /// a root failure, whoever saw it first.
    Declared {
        rank: usize,
        epoch: u64,
        source: FailureSource,
    },
    /// An elastic regroup into `epoch` shrank the world from `before` to
    /// `after` ranks; global rank `global` is now rank `rank`.
    Regrouped {
        epoch: u64,
        before: usize,
        after: usize,
        global: usize,
        rank: usize,
    },
    /// A TCP endpoint refused an inbound handshake that failed validation.
    HandshakeInvalid { why: String },
    /// A TCP endpoint refused an inbound handshake from `rank`: itself, out
    /// of range, or already declared dead.
    HandshakeRefused { rank: usize },
    /// Peer `rank` skipped data-frame sequence numbers on `group`.
    SequenceGap {
        rank: usize,
        group: u64,
        got: u64,
        expected: u64,
    },
    /// The local engine placed peer `rank`'s frame `wire_seq` at `engine_seq`.
    SeqMismatch {
        rank: usize,
        engine_seq: u64,
        wire_seq: u64,
    },
}

/// Who declared a [`FaultCause::Declared`] failure.
#[derive(Clone, Debug, PartialEq)]
pub enum FailureSource {
    /// The launcher saw the rank's thread unwind.
    Launcher,
    /// A socket-level signal from the peer; `why` names it.
    Transport { why: String },
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultCause::Detected { rank, seq, error } => {
                write!(f, "rank {rank} detected at collective #{seq}: {error}")
            }
            FaultCause::Declared {
                rank,
                epoch,
                source,
            } => {
                let error = CommError::PeerFailed {
                    rank: *rank,
                    epoch: *epoch,
                };
                match source {
                    FailureSource::Launcher => write!(f, "launcher: rank {rank} unwound: {error}"),
                    FailureSource::Transport { why } => {
                        write!(f, "transport: peer rank {rank} {why}: {error}")
                    }
                }
            }
            FaultCause::Regrouped {
                epoch,
                before,
                after,
                global,
                rank,
            } => write!(
                f,
                "regroup epoch {epoch}: world {before} -> {after} \
                 (global rank {global} is now rank {rank})"
            ),
            FaultCause::HandshakeInvalid { why } => {
                write!(f, "transport: refused inbound handshake ({why})")
            }
            FaultCause::HandshakeRefused { rank } => {
                write!(f, "transport: refused inbound handshake from rank {rank}")
            }
            FaultCause::SequenceGap {
                rank,
                group,
                got,
                expected,
            } => write!(
                f,
                "transport: sequence gap from rank {rank} \
                 (group {group:#x}: got {got}, expected {expected})"
            ),
            FaultCause::SeqMismatch {
                rank,
                engine_seq,
                wire_seq,
            } => write!(
                f,
                "transport: engine seq {engine_seq} disagrees with wire seq {wire_seq} \
                 from rank {rank}"
            ),
        }
    }
}

/// What a transport-level event was (real-socket worlds only; the thread
/// transport never records these).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportEventKind {
    /// One reconnect dial attempt toward a peer (successful or not).
    ReconnectAttempt,
    /// A severed connection was re-established inside the current epoch.
    Reconnected,
    /// One previously-sent, unacknowledged frame was retransmitted after a
    /// reconnect.
    Retransmit,
    /// A peer went silent past the heartbeat deadline.
    HeartbeatMiss,
    /// An inbound connection was refused at handshake (stale epoch, wrong
    /// world size, bad magic/version).
    HandshakeRejected,
}

/// One transport-level event (reconnects, retransmissions, heartbeat
/// misses), timestamped on the traffic clock. `peer` is the world rank of
/// the remote endpoint involved.
#[derive(Clone, Debug)]
pub struct TransportEvent {
    pub peer: usize,
    pub kind: TransportEventKind,
    pub at_us: f64,
}

/// Shared, thread-safe event log for one world.
pub struct TrafficLog {
    events: Mutex<Vec<CollEvent>>,
    chunk_events: Mutex<Vec<ChunkEvent>>,
    /// `coll_seq`s of rounds that died mid-flight. Their chunk events stay
    /// visible (diagnostics) but never count toward `bytes_on_wire`, and
    /// the α-β fitter skips them — a half-run round's "duration" measures
    /// the failure, not the fabric.
    aborted: Mutex<BTreeSet<usize>>,
    /// `coll_seq`s of rounds whose frames crossed a reconnect (the round
    /// completed, unlike an aborted one, but its duration includes backoff
    /// and retransmission — the α-β fitter skips these too).
    disturbed: Mutex<BTreeSet<usize>>,
    faults: Mutex<Vec<FaultEvent>>,
    transport: Mutex<Vec<TransportEvent>>,
    seq: AtomicUsize,
    wire_bytes: AtomicUsize,
    epoch: Instant,
}

impl Default for TrafficLog {
    fn default() -> Self {
        TrafficLog {
            events: Mutex::new(Vec::new()),
            chunk_events: Mutex::new(Vec::new()),
            aborted: Mutex::new(BTreeSet::new()),
            disturbed: Mutex::new(BTreeSet::new()),
            faults: Mutex::new(Vec::new()),
            transport: Mutex::new(Vec::new()),
            seq: AtomicUsize::new(0),
            wire_bytes: AtomicUsize::new(0),
            epoch: Instant::now(),
        }
    }
}

impl TrafficLog {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Microseconds since the log was created (the shared clock for
    /// [`ChunkEvent`] timestamps).
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Record one logical collective; returns its sequence number so chunk
    /// events can be attributed to it.
    pub fn record(&self, op: CollOp, payload_bytes: usize, group_ranks: &[usize]) -> usize {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.lock().push(CollEvent {
            op,
            payload_bytes,
            group_size: group_ranks.len(),
            group_ranks: group_ranks.to_vec(),
            seq,
        });
        seq
    }

    /// Record one completed pipeline chunk (called by the worker that
    /// finished it; accumulates the wire-byte counter — unless the round
    /// was already marked aborted, in which case the event is kept for
    /// diagnostics but excluded from the byte totals).
    pub fn record_chunk(&self, ev: ChunkEvent) {
        // The aborted lock is held across both the counter update and the
        // event push so `mark_round_aborted`'s subtract-already-counted
        // scan can never miss a concurrently-recorded chunk.
        let aborted = self.aborted.lock();
        if !aborted.contains(&ev.coll_seq) {
            self.wire_bytes
                .fetch_add(ev.bytes_on_wire, Ordering::Relaxed);
        }
        self.chunk_events.lock().push(ev);
        drop(aborted);
    }

    /// Mark a collective's round aborted (a participant died before the
    /// round completed). Chunks already counted are subtracted back out of
    /// `bytes_on_wire`; chunks recorded later are never counted.
    pub fn mark_round_aborted(&self, coll_seq: usize) {
        let mut aborted = self.aborted.lock();
        if aborted.insert(coll_seq) {
            let already: usize = self
                .chunk_events
                .lock()
                .iter()
                .filter(|e| e.coll_seq == coll_seq)
                .map(|e| e.bytes_on_wire)
                .sum();
            if already > 0 {
                self.wire_bytes.fetch_sub(already, Ordering::Relaxed);
            }
        }
    }

    /// Whether `coll_seq`'s round was aborted (α-β fitters skip these).
    pub fn is_round_aborted(&self, coll_seq: usize) -> bool {
        self.aborted.lock().contains(&coll_seq)
    }

    /// `coll_seq`s of every aborted round so far.
    pub fn aborted_rounds(&self) -> Vec<usize> {
        self.aborted.lock().iter().copied().collect()
    }

    /// Mark a collective's round disturbed: it completed, but at least one
    /// of its frames crossed a reconnect (or was retransmitted), so its
    /// duration measures backoff + retransmission, not the fabric. The α-β
    /// fitter skips disturbed rounds like aborted ones; unlike aborted
    /// rounds, their wire bytes still count (the data really moved).
    pub fn mark_round_disturbed(&self, coll_seq: usize) {
        if coll_seq != usize::MAX {
            self.disturbed.lock().insert(coll_seq);
        }
    }

    /// Whether `coll_seq`'s round crossed a reconnect (α-β fitters skip
    /// these).
    pub fn is_round_disturbed(&self, coll_seq: usize) -> bool {
        self.disturbed.lock().contains(&coll_seq)
    }

    /// `coll_seq`s of every disturbed round so far.
    pub fn disturbed_rounds(&self) -> Vec<usize> {
        self.disturbed.lock().iter().copied().collect()
    }

    /// Record one transport-level event (reconnect attempt, retransmission,
    /// heartbeat miss, ...), stamped on the traffic clock.
    pub fn record_transport(&self, peer: usize, kind: TransportEventKind) {
        let at_us = self.now_us();
        self.transport
            .lock()
            .push(TransportEvent { peer, kind, at_us });
    }

    /// Snapshot of all transport-level events so far.
    pub fn transport_events(&self) -> Vec<TransportEvent> {
        self.transport.lock().clone()
    }

    /// Total reconnect dial attempts recorded so far.
    pub fn reconnect_attempts(&self) -> usize {
        self.transport
            .lock()
            .iter()
            .filter(|e| e.kind == TransportEventKind::ReconnectAttempt)
            .count()
    }

    /// Total frames retransmitted after reconnects so far.
    pub fn retransmitted_frames(&self) -> usize {
        self.transport
            .lock()
            .iter()
            .filter(|e| e.kind == TransportEventKind::Retransmit)
            .count()
    }

    /// Record a detected failure or recovery action.
    pub fn record_fault(&self, cause: FaultCause) {
        let at_us = self.now_us();
        self.faults.lock().push(FaultEvent { cause, at_us });
    }

    /// Snapshot of the fault/recovery audit trail.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        self.faults.lock().clone()
    }

    /// Snapshot of all events so far.
    pub fn events(&self) -> Vec<CollEvent> {
        self.events.lock().clone()
    }

    /// Snapshot of all per-chunk events so far (pipelined collectives only).
    pub fn chunk_events(&self) -> Vec<ChunkEvent> {
        self.chunk_events.lock().clone()
    }

    /// Total ring-model bytes moved by chunked rounds. Every collective runs
    /// on the chunk engine, so barrier, broadcast and `all_gather_vec`
    /// contribute their gathers' ring-model bytes too (a barrier gathers
    /// zero elements, so it adds none; `split`'s color gather adds a few).
    pub fn bytes_on_wire(&self) -> usize {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    /// Number of events recorded so far — cheap cursor for "no comm between
    /// these two points" assertions.
    pub fn cursor(&self) -> usize {
        self.events.lock().len()
    }

    /// Events recorded at or after a cursor obtained from [`cursor`].
    ///
    /// [`cursor`]: TrafficLog::cursor
    pub fn since(&self, cursor: usize) -> Vec<CollEvent> {
        self.events.lock()[cursor..].to_vec()
    }

    pub fn count(&self, op: CollOp) -> usize {
        self.events.lock().iter().filter(|e| e.op == op).count()
    }

    /// Total logical payload bytes moved by collectives of `op`
    /// (`payload × (group−1)` per event, the ring lower bound).
    pub fn bytes(&self, op: CollOp) -> usize {
        self.events
            .lock()
            .iter()
            .filter(|e| e.op == op)
            .map(|e| e.payload_bytes * e.group_size.saturating_sub(1))
            .sum()
    }

    pub fn clear(&self) {
        self.events.lock().clear();
        self.chunk_events.lock().clear();
        self.aborted.lock().clear();
        self.disturbed.lock().clear();
        self.faults.lock().clear();
        self.transport.lock().clear();
        self.wire_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let log = TrafficLog::new();
        log.record(CollOp::AllGather, 1024, &[0, 1]);
        log.record(CollOp::AllReduce, 2048, &[0, 1, 2, 3]);
        log.record(CollOp::AllGather, 512, &[2, 3]);
        assert_eq!(log.count(CollOp::AllGather), 2);
        assert_eq!(log.count(CollOp::AllReduce), 1);
        assert_eq!(log.count(CollOp::Barrier), 0);
    }

    #[test]
    fn bytes_scale_with_group_size() {
        let log = TrafficLog::new();
        log.record(CollOp::AllGather, 100, &[0, 1, 2, 3]);
        assert_eq!(log.bytes(CollOp::AllGather), 300);
    }

    #[test]
    fn cursor_and_since() {
        let log = TrafficLog::new();
        log.record(CollOp::Barrier, 0, &[0]);
        let cur = log.cursor();
        assert!(log.since(cur).is_empty());
        log.record(CollOp::Broadcast, 64, &[0, 1]);
        let after = log.since(cur);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].op, CollOp::Broadcast);
    }

    #[test]
    fn seq_is_monotone() {
        let log = TrafficLog::new();
        for _ in 0..5 {
            log.record(CollOp::Barrier, 0, &[0]);
        }
        let ev = log.events();
        for w in ev.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn chunk_events_accumulate_wire_bytes() {
        let log = TrafficLog::new();
        let seq = log.record(CollOp::AllReduce, 4096, &[0, 1]);
        for c in 0..3 {
            log.record_chunk(ChunkEvent {
                op: CollOp::AllReduce,
                coll_seq: seq,
                chunk: c,
                bytes_on_wire: 100,
                issued_us: 0.0,
                ready_us: 1.0,
                done_us: 2.0,
            });
        }
        assert_eq!(log.bytes_on_wire(), 300);
        assert_eq!(log.chunk_events().len(), 3);
        // logical payload logged once, not per chunk
        assert_eq!(log.count(CollOp::AllReduce), 1);
        log.clear();
        assert_eq!(log.bytes_on_wire(), 0);
        assert!(log.chunk_events().is_empty());
    }

    #[test]
    fn fault_aborted_round_bytes_are_excluded_both_ways() {
        let log = TrafficLog::new();
        let chunk = |seq: usize, c: usize| ChunkEvent {
            op: CollOp::AllReduce,
            coll_seq: seq,
            chunk: c,
            bytes_on_wire: 100,
            issued_us: 0.0,
            ready_us: 1.0,
            done_us: 2.0,
        };
        let healthy = log.record(CollOp::AllReduce, 4096, &[0, 1]);
        let doomed = log.record(CollOp::AllReduce, 4096, &[0, 1]);
        log.record_chunk(chunk(healthy, 0));
        // One chunk lands before the abort, one after: both must be excluded.
        log.record_chunk(chunk(doomed, 0));
        log.mark_round_aborted(doomed);
        log.record_chunk(chunk(doomed, 1));
        assert_eq!(log.bytes_on_wire(), 100, "only the healthy round counts");
        assert!(log.is_round_aborted(doomed));
        assert!(!log.is_round_aborted(healthy));
        assert_eq!(log.aborted_rounds(), vec![doomed]);
        // Events are kept for diagnostics; marking twice is idempotent.
        assert_eq!(log.chunk_events().len(), 3);
        log.mark_round_aborted(doomed);
        assert_eq!(log.bytes_on_wire(), 100);
        log.clear();
        assert!(log.aborted_rounds().is_empty());
    }

    #[test]
    fn transport_events_count_reconnects_and_retransmits() {
        let log = TrafficLog::new();
        let seq = log.record(CollOp::AllReduce, 4096, &[0, 1]);
        log.record_transport(1, TransportEventKind::ReconnectAttempt);
        log.record_transport(1, TransportEventKind::ReconnectAttempt);
        log.record_transport(1, TransportEventKind::Reconnected);
        log.record_transport(1, TransportEventKind::Retransmit);
        log.mark_round_disturbed(seq);
        assert_eq!(log.reconnect_attempts(), 2);
        assert_eq!(log.retransmitted_frames(), 1);
        assert_eq!(log.transport_events().len(), 4);
        assert!(log.is_round_disturbed(seq));
        assert!(!log.is_round_aborted(seq), "disturbed != aborted");
        assert_eq!(log.disturbed_rounds(), vec![seq]);
        // Unattributed rounds can't be marked; marking twice is idempotent.
        log.mark_round_disturbed(usize::MAX);
        log.mark_round_disturbed(seq);
        assert_eq!(log.disturbed_rounds(), vec![seq]);
        log.clear();
        assert!(log.transport_events().is_empty());
        assert!(log.disturbed_rounds().is_empty());
        assert_eq!(log.reconnect_attempts(), 0);
    }

    #[test]
    fn fault_events_are_timestamped_in_order() {
        let log = TrafficLog::new();
        assert!(log.fault_events().is_empty());
        log.record_fault(FaultCause::Declared {
            rank: 1,
            epoch: 0,
            source: FailureSource::Launcher,
        });
        log.record_fault(FaultCause::Regrouped {
            epoch: 1,
            before: 4,
            after: 3,
            global: 2,
            rank: 1,
        });
        let ev = log.fault_events();
        assert_eq!(ev.len(), 2);
        assert!(matches!(ev[0].cause, FaultCause::Declared { rank: 1, .. }));
        assert!(ev[0].at_us <= ev[1].at_us);
        log.clear();
        assert!(log.fault_events().is_empty());
    }
}
