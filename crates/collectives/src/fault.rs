//! Typed communication faults and deterministic fault injection.
//!
//! Two halves live here:
//!
//! * **Typed errors.** [`CommError`] is the structured cause every fallible
//!   collective surfaces — the whole fallible surface is
//!   `CommRequest::try_wait`, `Communicator::try_all_reduce_sum`,
//!   `Communicator::try_barrier` and `Communicator::regroup`. The
//!   panicking wrappers don't format it into a string — they panic with a
//!   [`CommPanic`] payload, so the launcher (and any recovery driver) can
//!   *downcast* the cause instead of sniffing panic messages. A user panic
//!   whose message happens to contain "poisoned" is therefore never
//!   misclassified as a secondary comm failure.
//!
//! * **Deterministic fault injection.** A [`FaultPlan`] is
//!   schedule-addressable: "rank `r` dies before its `n`-th collective /
//!   mid-chunk-claim inside its `n`-th wait / on entry to its
//!   `n`-th wait". The counters are driven by the rank's *own* program
//!   order (issue and wait entries), not by timing, so every failure
//!   interleaving in the test matrix reproduces exactly. The launcher arms
//!   the plan on each rank thread
//!   ([`crate::launch::run_ranks_faulty`]); the probes are thread-local
//!   and free when no plan is armed.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::time::Duration;

/// Why a collective (or the whole group) failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommError {
    /// A specific peer died. `epoch` is the world's regroup epoch at
    /// detection time, so stale errors from before a regroup are
    /// distinguishable from fresh ones.
    PeerFailed { rank: usize, epoch: u64 },
    /// A deadline elapsed with the collective still incomplete (the peer may
    /// be hung rather than dead — the regroup barrier's deadline is what
    /// finally declares it failed).
    Timeout { waited: Duration },
    /// The group is poisoned without an attributed root cause.
    Poisoned,
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerFailed { rank, epoch } => {
                write!(f, "peer rank {rank} failed (epoch {epoch})")
            }
            CommError::Timeout { waited } => {
                write!(
                    f,
                    "collective timed out after {:.1} ms",
                    waited.as_secs_f64() * 1e3
                )
            }
            CommError::Poisoned => write!(f, "process group poisoned by a peer panic"),
        }
    }
}

impl std::error::Error for CommError {}

/// Panic payload carried by the panicking wrappers around the fallible comm
/// API. Downcast with [`comm_error_of`].
#[derive(Clone, Copy, Debug)]
pub struct CommPanic(pub CommError);

/// Panic with a typed [`CommPanic`] payload (the panicking-API surface of a
/// [`CommError`]).
pub(crate) fn comm_panic(err: CommError) -> ! {
    std::panic::panic_any(CommPanic(err))
}

/// Extract the [`CommError`] from a caught panic payload, if the panic
/// originated in the comm layer. Returns `None` for user panics — including
/// ones whose *message* mentions poisoning — and for [`InjectedFault`]s
/// (the injected victim is a genuine failure, not a secondary symptom).
pub fn comm_error_of(payload: &(dyn Any + Send)) -> Option<CommError> {
    payload.downcast_ref::<CommPanic>().map(|p| p.0)
}

/// Where in the collectives protocol an injected fault fires. Counts are
/// 0-based and per victim thread, advanced by the victim's own program
/// order — never by cross-rank timing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPoint {
    /// Die before depositing the rank's `n`-th collective (every kind counts:
    /// barrier, broadcast, `all_gather_vec` and `split` are engine
    /// collectives too).
    BeforeIssue(usize),
    /// On entry to the rank's `n`-th blocking wait: claim one pipeline chunk
    /// of the awaited round and die *without running it* — the nastiest
    /// state, because the round can then never complete and survivors must
    /// be woken by poison or deadline, not by progress.
    MidChunkClaim(usize),
    /// Die on entry to the rank's `n`-th blocking wait (after depositing).
    InsideWait(usize),
}

/// Panic payload of an injected fault — the victim's "death certificate".
/// Not a [`CommPanic`]: the launcher treats it as a root-cause failure and
/// marks the rank failed, exactly like a user panic.
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    pub rank: usize,
    pub point: FaultPoint,
}

/// A deterministic, schedule-addressable failure script for one launch.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultPoint)>,
}

impl FaultPlan {
    /// The empty plan (no injected failures).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Kill `rank` at `point`.
    pub fn kill(rank: usize, point: FaultPoint) -> Self {
        FaultPlan {
            faults: vec![(rank, point)],
        }
    }

    /// Add another victim (for simultaneous-failure scenarios).
    pub fn and_kill(mut self, rank: usize, point: FaultPoint) -> Self {
        self.faults.push((rank, point));
        self
    }

    /// First fault point scheduled for `rank`, if any.
    pub fn for_rank(&self, rank: usize) -> Option<FaultPoint> {
        self.faults
            .iter()
            .find(|(r, _)| *r == rank)
            .map(|(_, p)| *p)
    }

    /// Ranks with a scheduled fault.
    pub fn victims(&self) -> Vec<usize> {
        self.faults.iter().map(|(r, _)| *r).collect()
    }

    /// Deterministic single-victim plan derived from a seed: kills a
    /// seed-chosen rank of a `world`-sized run at a seed-chosen point with
    /// count below `max_n`. Same seed → same plan, so property tests over
    /// random `(seed, fail-step, fail-rank)` triples reproduce exactly.
    pub fn seeded(seed: u64, world: usize, max_n: usize) -> Self {
        assert!(world > 0 && max_n > 0);
        // splitmix64: decorrelates consecutive seeds.
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rank = (next() % world as u64) as usize;
        let n = (next() % max_n as u64) as usize;
        let point = match next() % 3 {
            0 => FaultPoint::BeforeIssue(n),
            1 => FaultPoint::MidChunkClaim(n),
            _ => FaultPoint::InsideWait(n),
        };
        FaultPlan::kill(rank, point)
    }
}

struct Arm {
    rank: usize,
    point: FaultPoint,
    issues: usize,
    waits: usize,
}

thread_local! {
    static ARM: RefCell<Option<Arm>> = const { RefCell::new(None) };
    /// Set by [`die`]: proof that this thread's injected fault fired, even
    /// if user code caught the unwind. The launcher consumes it so a
    /// swallowed injection still counts as a rank death (an injected fault
    /// simulates *process* death — it cannot be survived from inside).
    static FIRED: Cell<Option<InjectedFault>> = const { Cell::new(None) };
}

/// Install `point` as this thread's scheduled fault (the launcher calls
/// this on the victim's rank thread before running the rank closure).
pub(crate) fn arm_thread(rank: usize, point: FaultPoint) {
    ARM.with(|a| {
        *a.borrow_mut() = Some(Arm {
            rank,
            point,
            issues: 0,
            waits: 0,
        });
    });
}

/// Remove any armed fault (launcher cleanup; also keeps reused test threads
/// from inheriting stale plans).
pub(crate) fn disarm_thread() {
    ARM.with(|a| *a.borrow_mut() = None);
}

/// Fire the injected fault (panics with an [`InjectedFault`] payload).
pub(crate) fn die(rank: usize, point: FaultPoint) -> ! {
    let f = InjectedFault { rank, point };
    FIRED.with(|c| c.set(Some(f)));
    std::panic::panic_any(f)
}

/// Consume the thread's fired-fault record, if its injection went off.
pub(crate) fn take_fired() -> Option<InjectedFault> {
    FIRED.with(|c| c.take())
}

/// Called at the top of every engine `issue`; dies if this is the
/// armed `BeforeIssue` count.
pub(crate) fn probe_issue() {
    let hit = ARM.with(|a| {
        let mut a = a.borrow_mut();
        let arm = a.as_mut()?;
        let n = arm.issues;
        arm.issues += 1;
        match arm.point {
            FaultPoint::BeforeIssue(k) if k == n => Some((arm.rank, arm.point)),
            _ => None,
        }
    });
    if let Some((rank, point)) = hit {
        die(rank, point);
    }
}

/// Called on entry to every blocking wait. Returns the armed point if this
/// entry should die — the caller performs any point-specific sabotage
/// (e.g. abandoning a chunk claim) and then calls [`die`].
pub(crate) fn probe_wait() -> Option<(usize, FaultPoint)> {
    ARM.with(|a| {
        let mut a = a.borrow_mut();
        let arm = a.as_mut()?;
        let n = arm.waits;
        arm.waits += 1;
        match arm.point {
            FaultPoint::InsideWait(k) | FaultPoint::MidChunkClaim(k) if k == n => {
                Some((arm.rank, arm.point))
            }
            _ => None,
        }
    })
}

/// Human-readable description of a caught panic payload (for per-rank
/// `Result` outputs of the faulty launcher).
pub fn describe_payload(payload: &(dyn Any + Send)) -> String {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        return format!("injected fault: rank {} at {:?}", f.rank, f.point);
    }
    if let Some(CommPanic(e)) = payload.downcast_ref::<CommPanic>() {
        return e.to_string();
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "opaque panic payload".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_addresses_ranks() {
        let plan =
            FaultPlan::kill(2, FaultPoint::BeforeIssue(1)).and_kill(0, FaultPoint::InsideWait(0));
        assert_eq!(plan.for_rank(2), Some(FaultPoint::BeforeIssue(1)));
        assert_eq!(plan.for_rank(0), Some(FaultPoint::InsideWait(0)));
        assert_eq!(plan.for_rank(1), None);
        assert_eq!(plan.victims(), vec![2, 0]);
        assert!(FaultPlan::none().for_rank(0).is_none());
    }

    #[test]
    fn fault_seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, 4, 3);
            let b = FaultPlan::seeded(seed, 4, 3);
            assert_eq!(a.victims(), b.victims(), "seed {seed}: same victim");
            let rank = a.victims()[0];
            assert!(rank < 4);
            let (pa, pb) = (a.for_rank(rank).unwrap(), b.for_rank(rank).unwrap());
            assert_eq!(pa, pb, "seed {seed}: same point");
            let n = match pa {
                FaultPoint::BeforeIssue(n)
                | FaultPoint::MidChunkClaim(n)
                | FaultPoint::InsideWait(n) => n,
            };
            assert!(n < 3);
        }
        // Different seeds explore the space (not all collapsing to one plan).
        let distinct: std::collections::BTreeSet<String> = (0..64)
            .map(|s| format!("{:?}", FaultPlan::seeded(s, 4, 3)))
            .collect();
        assert!(
            distinct.len() > 8,
            "seeded plans must vary: {}",
            distinct.len()
        );
    }

    #[test]
    fn fault_probes_fire_at_armed_counts_only() {
        arm_thread(1, FaultPoint::BeforeIssue(2));
        probe_issue(); // count 0
        probe_issue(); // count 1
        let died = std::panic::catch_unwind(probe_issue);
        disarm_thread();
        let payload = died.expect_err("third issue must die");
        let f = payload
            .downcast_ref::<InjectedFault>()
            .expect("typed payload");
        assert_eq!(f.rank, 1);
        assert_eq!(f.point, FaultPoint::BeforeIssue(2));
        // Disarmed: probes are no-ops.
        probe_issue();
        assert!(probe_wait().is_none());
    }

    #[test]
    fn fault_wait_probe_counts_wait_entries() {
        arm_thread(0, FaultPoint::MidChunkClaim(1));
        assert!(probe_wait().is_none(), "wait 0 is not the armed count");
        assert_eq!(probe_wait(), Some((0, FaultPoint::MidChunkClaim(1))));
        disarm_thread();
    }

    #[test]
    fn comm_error_downcasts_only_typed_payloads() {
        let caught =
            std::panic::catch_unwind(|| comm_panic(CommError::PeerFailed { rank: 3, epoch: 1 }));
        let payload = caught.unwrap_err();
        assert_eq!(
            comm_error_of(payload.as_ref()),
            Some(CommError::PeerFailed { rank: 3, epoch: 1 })
        );
        // A user panic that merely *mentions* poisoning is not a comm error.
        let user = std::panic::catch_unwind(|| panic!("my lock got poisoned"));
        assert_eq!(comm_error_of(user.unwrap_err().as_ref()), None);
    }

    #[test]
    fn describe_payload_covers_all_shapes() {
        let inj = std::panic::catch_unwind(|| die(2, FaultPoint::InsideWait(0))).unwrap_err();
        assert!(describe_payload(inj.as_ref()).contains("injected fault: rank 2"));
        let comm = std::panic::catch_unwind(|| comm_panic(CommError::Poisoned)).unwrap_err();
        assert!(describe_payload(comm.as_ref()).contains("poisoned"));
        let user = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(describe_payload(user.as_ref()), "boom 7");
    }
}
