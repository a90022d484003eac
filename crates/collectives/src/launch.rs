//! Scoped launcher: one OS thread per simulated GPU rank.
//!
//! Each thread gets its own [`MemCounter`] installed as the allocation
//! tracker, so per-rank memory is observable exactly as a per-GPU allocator
//! would report it. If any rank panics, it is declared failed on the world
//! (audit-trail record, failure roster) and every live process group is
//! poisoned with a typed [`crate::CommError::PeerFailed`]; the launcher
//! re-panics with the root-cause
//! payload (secondary comm unwinds are identified by *downcasting* the
//! typed [`crate::fault::CommPanic`] payload, never by sniffing panic
//! messages).
//!
//! [`run_topology_faulty`] additionally arms a deterministic
//! [`FaultPlan`] on the victim threads and reports per-rank `Result`s
//! instead of re-panicking — the substrate for reproducible failure
//! testing and the resilient training loop.

use std::sync::Arc;

use dchag_tensor::device::{set_tracker, MemCounter};

use crate::fault::{self, comm_error_of, FaultPlan};
use crate::group::{Communicator, WorldShared};
use crate::nonblocking::Engine;
use crate::topology::Topology;
use crate::traffic::{FailureSource, TrafficLog};
use crate::transport::gid_world;

/// Per-rank execution context handed to the rank closure.
pub struct RankCtx {
    /// World communicator for this rank.
    pub comm: Communicator,
    /// This rank's device memory counter (also installed as the thread's
    /// allocation tracker for the duration of the closure).
    pub mem: Arc<MemCounter>,
}

/// Outcome of a world launch: per-rank results plus observability handles.
pub struct WorldRun<T> {
    /// Rank-ordered closure results.
    pub outputs: Vec<T>,
    /// Rank-ordered memory counters (peak survives the run).
    pub mems: Vec<Arc<MemCounter>>,
    /// The world's traffic log.
    pub traffic: Arc<TrafficLog>,
}

/// Outcome of a fault-injected launch ([`run_topology_faulty`]): per-rank
/// `Result`s (injected victims and collateral comm failures become `Err`
/// descriptions instead of re-panicking the caller), plus the usual
/// observability handles.
pub struct FaultyRun<T> {
    /// Rank-ordered closure results; `Err` holds a human-readable cause.
    pub outputs: Vec<Result<T, String>>,
    /// Rank-ordered memory counters (peak survives the run).
    pub mems: Vec<Arc<MemCounter>>,
    /// The world's traffic log (fault events included).
    pub traffic: Arc<TrafficLog>,
}

/// Shared thread-per-rank machinery: spawn, arm any scheduled fault, catch
/// the unwind, mark genuine failures on the world roster, and poison peers.
fn launch_ranks<T, F>(
    topo: Topology,
    plan: &FaultPlan,
    f: F,
) -> (
    Vec<std::thread::Result<T>>,
    Vec<Arc<MemCounter>>,
    Arc<TrafficLog>,
)
where
    T: Send,
    F: Fn(RankCtx) -> T + Sync,
{
    let world_size = topo.world_size;
    assert!(world_size > 0);
    let world = WorldShared::new(topo);
    let engine = Engine::new(world_size, gid_world(0));
    world.register_engine(&engine);
    let traffic = world.log.clone();
    let mems: Vec<Arc<MemCounter>> = (0..world_size).map(|_| MemCounter::new()).collect();

    let results: Vec<std::thread::Result<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..world_size)
            .map(|rank| {
                let comm =
                    Communicator::new_world(rank, world_size, engine.clone(), world.clone(), None);
                let mem = mems[rank].clone();
                let world = world.clone();
                let point = plan.for_rank(rank);
                let f = &f;
                s.spawn(move || -> std::thread::Result<T> {
                    let prev = set_tracker(Some(mem.clone()));
                    if let Some(p) = point {
                        fault::arm_thread(rank, p);
                    }
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        f(RankCtx { comm, mem })
                    }));
                    fault::disarm_thread();
                    set_tracker(prev);
                    // An injected fault simulates *process* death: even if the
                    // rank closure caught the unwind, the rank is dead.
                    let out = match fault::take_fired() {
                        Some(inj) => Err(Box::new(inj) as Box<dyn std::any::Any + Send>),
                        None => out,
                    };
                    if let Err(e) = &out {
                        // A typed CommPanic is a *secondary* casualty (this
                        // rank died because a peer did); anything else —
                        // user panic or injected fault — is a root failure:
                        // declare it dead and wake peers before unwinding.
                        if comm_error_of(e.as_ref()).is_none() {
                            world.declare_failed(rank, FailureSource::Launcher);
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(Err))
            .collect()
    });
    (results, mems, traffic)
}

/// Launch `world_size` ranks on the given topology and run `f` on each.
pub fn run_topology<T, F>(topo: Topology, f: F) -> WorldRun<T>
where
    T: Send,
    F: Fn(RankCtx) -> T + Sync,
{
    let (results, mems, traffic) = launch_ranks(topo, &FaultPlan::none(), f);
    let mut outputs = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(v) => outputs.push(v),
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        // Secondary comm unwinds (typed CommPanic payloads) are a symptom;
        // surface the root cause. If *every* error is a comm error (e.g. an
        // externally poisoned world), panic with its description so
        // `should_panic(expected = ...)` callers still see a string payload.
        let idx = errors
            .iter()
            .position(|e| comm_error_of(e.as_ref()).is_none())
            .unwrap_or(0);
        let err = errors.swap_remove(idx);
        match comm_error_of(err.as_ref()) {
            Some(ce) => panic!("{ce}"),
            None => std::panic::resume_unwind(err),
        }
    }
    WorldRun {
        outputs,
        mems,
        traffic,
    }
}

/// Launch with a Frontier-style topology (8 GPUs per node).
pub fn run_ranks<T, F>(world_size: usize, f: F) -> WorldRun<T>
where
    T: Send,
    F: Fn(RankCtx) -> T + Sync,
{
    run_topology(Topology::frontier(world_size), f)
}

/// [`run_topology`] with a deterministic [`FaultPlan`] armed: scheduled
/// victims die at their fault point, survivors' comm failures surface as
/// typed errors, and nothing re-panics — every rank's outcome is reported
/// in [`FaultyRun::outputs`] for the caller to assert on.
pub fn run_topology_faulty<T, F>(topo: Topology, plan: &FaultPlan, f: F) -> FaultyRun<T>
where
    T: Send,
    F: Fn(RankCtx) -> T + Sync,
{
    silence_expected_fault_panics();
    let (results, mems, traffic) = launch_ranks(topo, plan, f);
    let outputs = results
        .into_iter()
        .map(|r| r.map_err(|e| fault::describe_payload(e.as_ref())))
        .collect();
    FaultyRun {
        outputs,
        mems,
        traffic,
    }
}

/// Injected deaths and the typed comm errors they cascade into are the
/// *expected product* of a faulty run — every one is reported in
/// [`FaultyRun::outputs`] — so the default panic hook's per-thread
/// `Box<dyn Any>` backtrace for them is pure noise. Install (once, process
/// wide) a hook that swallows exactly those typed payloads and defers to
/// the previous hook for everything else; a genuine bug's panic still
/// prints as before.
pub(crate) fn silence_expected_fault_panics() {
    use crate::fault::{CommPanic, InjectedFault};
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<InjectedFault>().is_some()
                || p.downcast_ref::<CommPanic>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// [`run_ranks`] with a deterministic [`FaultPlan`] armed.
pub fn run_ranks_faulty<T, F>(world_size: usize, plan: &FaultPlan, f: F) -> FaultyRun<T>
where
    T: Send,
    F: Fn(RankCtx) -> T + Sync,
{
    run_topology_faulty(Topology::frontier(world_size), plan, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CommError;
    use crate::traffic::FaultCause;
    use dchag_tensor::Tensor;

    #[test]
    fn outputs_are_rank_ordered() {
        let run = run_ranks(4, |ctx| ctx.comm.rank() * 10);
        assert_eq!(run.outputs, vec![0, 10, 20, 30]);
    }

    #[test]
    fn per_rank_memory_tracked_independently() {
        let run = run_ranks(3, |ctx| {
            let t = Tensor::zeros([256 * (ctx.comm.rank() + 1)]);
            let current = ctx.mem.current();
            drop(t); // keep the allocation alive until after the reading
            current
        });
        assert_eq!(run.mems[0].peak(), 256 * 4);
        assert_eq!(run.mems[1].peak(), 512 * 4);
        assert_eq!(run.mems[2].peak(), 768 * 4);
    }

    #[test]
    #[should_panic(expected = "rank 2 failed")]
    fn panicking_rank_propagates_without_deadlock() {
        run_ranks(4, |ctx| {
            if ctx.comm.rank() == 2 {
                panic!("rank 2 failed");
            }
            // Other ranks block in a collective; poisoning must wake them.
            let _ = ctx.comm.all_reduce_sum(&Tensor::ones([4]));
        });
    }

    #[test]
    #[should_panic(expected = "my buffer got poisoned somehow")]
    fn fault_user_panic_mentioning_poison_is_still_the_root_cause() {
        // Root-cause selection downcasts the typed CommPanic payload — a
        // user panic whose *message* contains "poisoned" must never be
        // misclassified as a secondary comm failure and dropped.
        run_ranks(2, |ctx| {
            if ctx.comm.rank() == 0 {
                panic!("my buffer got poisoned somehow");
            }
            let _ = ctx.comm.all_reduce_sum(&Tensor::ones([4]));
        });
    }

    #[test]
    fn fault_injected_victim_reports_err_survivors_detect_typed_cause() {
        use crate::fault::{FaultPlan, FaultPoint};
        let plan = FaultPlan::kill(1, FaultPoint::BeforeIssue(0));
        let run = run_ranks_faulty(3, &plan, |ctx| {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.comm.all_reduce_sum(&Tensor::ones([4]))
            }));
            match out {
                Ok(_) => unreachable!("rank 1 never deposits, nobody completes"),
                Err(e) => comm_error_of(e.as_ref()),
            }
        });
        // The victim's own thread dies of the injected fault...
        assert!(run.outputs[1]
            .as_ref()
            .is_err_and(|m| m.contains("injected fault: rank 1")));
        // ...and both survivors observe a typed PeerFailed naming it.
        for r in [0, 2] {
            match run.outputs[r].as_ref().expect("survivor returns normally") {
                Some(CommError::PeerFailed { rank: 1, epoch: 0 }) => {}
                other => panic!("survivor {r} saw {other:?}"),
            }
        }
        // The world roster and traffic log both recorded the failure.
        assert!(run.traffic.fault_events().iter().any(|f| matches!(
            f.cause,
            FaultCause::Declared {
                rank: 1,
                source: FailureSource::Launcher,
                ..
            }
        )));
    }

    #[test]
    fn fault_plan_is_reproducible_across_runs() {
        use crate::fault::{FaultPlan, FaultPoint};
        // Same plan, same program → byte-identical outcome vector, twice.
        // The victim dies *before issuing* its second collective, so the
        // survivor's round can never freeze and its only possible exit is
        // the typed poison. The survivor's second collective must use the
        // fallible path for the *issue* too: poison may land before or
        // after it, and only `try_` folds both timings into the same Err.
        let outcome = || {
            let plan = FaultPlan::kill(0, FaultPoint::BeforeIssue(1));
            let run = run_ranks_faulty(2, &plan, |ctx| {
                let a = ctx
                    .comm
                    .iall_reduce_sum(&Tensor::full([8], ctx.comm.rank() as f32 + 1.0))
                    .wait()
                    .at(0);
                let b = ctx
                    .comm
                    .try_all_reduce_sum(&Tensor::ones([8]), None)
                    .map(|t| t.at(0));
                (a, b)
            });
            run.outputs
                .into_iter()
                .map(|o| match o {
                    Ok((a, b)) => format!("ok {a} {b:?}"),
                    Err(m) => format!("err {m}"),
                })
                .collect::<Vec<String>>()
        };
        let first = outcome();
        assert_eq!(first, outcome());
        assert!(first[0].contains("injected fault: rank 0 at BeforeIssue(1)"));
        assert!(first[1].contains("PeerFailed { rank: 0, epoch: 0 }"));
    }
}
