//! Launchers for the TCP transport.
//!
//! Two shapes share the per-rank bring-up (`build_rank`):
//! - [`run_tcp_ranks`] / [`run_tcp_ranks_faulty`]: an in-process harness —
//!   every rank is a thread with its **own** [`WorldShared`] and a real
//!   loopback socket endpoint, so all rank-to-rank traffic crosses the
//!   kernel TCP stack exactly as separate processes would;
//! - [`spawn_world`] + [`tcp_world_from_env`] + [`connect_world`]: a real
//!   multi-process launcher (`std::process`, rank/world/rendezvous-dir via
//!   env, file-based address rendezvous) used by the SIGKILL recovery test.

use std::fs::File;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dchag_tensor::device::{set_tracker, MemCounter};

use super::{gid_world, Endpoint, TcpConfig, Transport, TransportFaultPlan};
use crate::fault::{describe_payload, FaultPlan};
use crate::group::{Communicator, WorldShared};
use crate::launch::{silence_expected_fault_panics, RankCtx};
use crate::nonblocking::Engine;
use crate::topology::Topology;
use crate::traffic::TrafficLog;

/// Result of a TCP world run. Unlike the thread harness there is one
/// traffic log **per rank** (each endpoint is its own process-like world),
/// which is exactly what a per-process α-β fit sees in production.
pub struct TcpRun<T> {
    pub outputs: Vec<Result<T, String>>,
    pub mems: Vec<Arc<MemCounter>>,
    pub traffic: Vec<Arc<TrafficLog>>,
}

/// Bring up one rank's world: endpoint over the pre-bound listener, local
/// replica engine for the whole group, world group registered at `epoch`.
fn build_rank(
    world_size: usize,
    cfg: TcpConfig,
    rank: usize,
    listener: TcpListener,
    addrs: Vec<SocketAddr>,
    epoch: u64,
    plan: &TransportFaultPlan,
) -> (Communicator, Arc<WorldShared>, Arc<Endpoint>) {
    let world = WorldShared::new(Topology::frontier(world_size));
    world.set_epoch(epoch);
    let ep = Endpoint::new(
        world.clone(),
        cfg,
        rank,
        listener,
        addrs,
        epoch,
        plan.get(rank),
    );
    ep.start();
    let engine = Engine::new(world_size, gid_world(epoch));
    world.register_engine(&engine);
    let link = ep.register_group((0..world_size).collect(), rank, engine.clone());
    let comm = Communicator::new_world(rank, world_size, engine, world.clone(), Some(link));
    (comm, world, ep)
}

/// Run `f` on `world_size` ranks over real loopback TCP, with a
/// deterministic [`TransportFaultPlan`] armed. Panicking ranks abort their
/// endpoint (EOF without `Bye` — peers run the real detection path); clean
/// ranks say goodbye gracefully.
pub fn run_tcp_ranks_faulty<T, F>(
    world_size: usize,
    cfg: TcpConfig,
    plan: &TransportFaultPlan,
    f: F,
) -> TcpRun<T>
where
    T: Send,
    F: Fn(RankCtx) -> T + Sync,
{
    assert!(world_size > 0);
    silence_expected_fault_panics();
    let listeners: Vec<TcpListener> = (0..world_size)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener addr"))
        .collect();
    let mems: Vec<Arc<MemCounter>> = (0..world_size).map(|_| MemCounter::new()).collect();

    let results: Vec<(Result<T, String>, Arc<TrafficLog>)> = std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let addrs = addrs.clone();
                let cfg = cfg.clone();
                let mem = mems[rank].clone();
                let f = &f;
                s.spawn(move || {
                    let (comm, world, ep) =
                        build_rank(world_size, cfg, rank, listener, addrs, 0, plan);
                    let prev = set_tracker(Some(mem.clone()));
                    let out = catch_unwind(AssertUnwindSafe(|| f(RankCtx { comm, mem })));
                    set_tracker(prev);
                    match &out {
                        Ok(_) => ep.shutdown_graceful(),
                        Err(_) => ep.abort(),
                    }
                    (
                        out.map_err(|e| describe_payload(e.as_ref())),
                        world.log.clone(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread join"))
            .collect()
    });
    let (outputs, traffic) = results.into_iter().unzip();
    TcpRun {
        outputs,
        mems,
        traffic,
    }
}

/// [`run_tcp_ranks_faulty`] with no faults armed.
pub fn run_tcp_ranks<T, F>(world_size: usize, cfg: TcpConfig, f: F) -> TcpRun<T>
where
    T: Send,
    F: Fn(RankCtx) -> T + Sync,
{
    run_tcp_ranks_faulty(world_size, cfg, &TransportFaultPlan::none(), f)
}

/// Run `f` over the selected [`Transport`] — the parity seam: identical
/// closures produce bitwise-identical outputs on either arm.
pub fn run_transport_ranks<T, F>(transport: &Transport, world_size: usize, f: F) -> TcpRun<T>
where
    T: Send,
    F: Fn(RankCtx) -> T + Sync,
{
    match transport {
        Transport::Thread => {
            let run = crate::launch::run_ranks_faulty(world_size, &FaultPlan::none(), f);
            let traffic = (0..world_size).map(|_| run.traffic.clone()).collect();
            TcpRun {
                outputs: run.outputs,
                mems: run.mems,
                traffic,
            }
        }
        Transport::Tcp(cfg) => run_tcp_ranks(world_size, cfg.clone(), f),
    }
}

// ----- multi-process launcher -----------------------------------------------

/// A child's identity, read from the env `spawn_world` set.
#[derive(Clone, Debug)]
pub struct TcpEnv {
    pub rank: usize,
    pub world: usize,
    /// Rendezvous directory: each rank publishes `rank{r}.addr` here.
    pub dir: PathBuf,
    pub epoch: u64,
    pub faults: TransportFaultPlan,
}

/// Decode the spawn env, if present. Child test entry points use this as
/// their am-I-a-child guard.
pub fn tcp_world_from_env() -> Option<TcpEnv> {
    let rank = std::env::var("DCHAG_TCP_RANK").ok()?.parse().ok()?;
    let world = std::env::var("DCHAG_TCP_WORLD").ok()?.parse().ok()?;
    let dir = PathBuf::from(std::env::var("DCHAG_TCP_DIR").ok()?);
    let epoch = std::env::var("DCHAG_TCP_EPOCH")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let faults = std::env::var("DCHAG_TCP_FAULTS")
        .map(|s| TransportFaultPlan::decode(&s))
        .unwrap_or_default();
    Some(TcpEnv {
        rank,
        world,
        dir,
        epoch,
        faults,
    })
}

/// Spawn `world` child processes re-executing the current binary filtered
/// down to `child_test` (libtest `--exact`), with rank/world/rendezvous
/// identity in the env. The caller owns the `Child` handles — kill one to
/// simulate process death.
///
/// Each child's stdout goes to `rank{r}.stdout` in `dir`, so the children's
/// libtest lines never interleave with the parent's test report; stderr
/// (panic messages) stays inherited.
pub fn spawn_world(
    world: usize,
    dir: &Path,
    child_test: &str,
    extra_env: &[(&str, String)],
) -> std::io::Result<Vec<Child>> {
    let exe = std::env::current_exe()?;
    (0..world)
        .map(|rank| {
            let stdout = File::create(dir.join(format!("rank{rank}.stdout")))?;
            let mut cmd = Command::new(&exe);
            cmd.stdout(stdout)
                .arg(child_test)
                .arg("--exact")
                .arg("--nocapture")
                .arg("--test-threads")
                .arg("1")
                .env("DCHAG_TCP_RANK", rank.to_string())
                .env("DCHAG_TCP_WORLD", world.to_string())
                .env("DCHAG_TCP_DIR", dir)
                .env("DCHAG_TCP_EPOCH", "0");
            for (k, v) in extra_env {
                cmd.env(k, v);
            }
            cmd.spawn()
        })
        .collect()
}

/// Child-side bring-up: bind an ephemeral loopback port, publish it in the
/// rendezvous dir (atomically, via rename), wait for every peer's address,
/// then build the endpoint and world group.
pub fn connect_world(
    env: &TcpEnv,
    cfg: TcpConfig,
) -> (Communicator, Arc<WorldShared>, Arc<Endpoint>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener addr");
    let tmp = env.dir.join(format!(".rank{}.tmp", env.rank));
    std::fs::write(&tmp, addr.to_string()).expect("write rendezvous file");
    std::fs::rename(&tmp, env.dir.join(format!("rank{}.addr", env.rank)))
        .expect("publish rendezvous file");
    let deadline = Instant::now() + cfg.bringup_timeout;
    let addrs: Vec<SocketAddr> = (0..env.world)
        .map(|r| {
            let path = env.dir.join(format!("rank{r}.addr"));
            loop {
                if let Ok(s) = std::fs::read_to_string(&path) {
                    if let Ok(a) = s.trim().parse() {
                        break a;
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "rendezvous timed out waiting for rank {r}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        })
        .collect();
    build_rank(
        env.world,
        cfg,
        env.rank,
        listener,
        addrs,
        env.epoch,
        &env.faults,
    )
}
