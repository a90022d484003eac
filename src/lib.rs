//! # dchag — Distributed Cross-Channel Hierarchical Aggregation
//!
//! Facade crate re-exporting the full D-CHAG reproduction (Tsaris et al.,
//! SC 2025): the distributed channel-aggregation method itself
//! ([`core`]), the foundation-model architecture it applies to
//! ([`model`]), the distributed-training substrates it composes with
//! ([`parallel`]), the simulated multi-rank runtime ([`collectives`],
//! [`tensor`]), the Frontier performance model ([`perf`]) and the
//! synthetic scientific datasets ([`data`]).
//!
//! ```no_run
//! use dchag::prelude::*;
//!
//! // Will a 7B model with 512 channels fit on 16 GPUs — and how?
//! let planner = Planner::new();
//! let cfg = ModelConfig::p7b().with_channels(512);
//! let plan = planner.best_on(&cfg, 16, 8).expect("a plan exists");
//! println!("{} — {}", plan.strategy.name(), plan.rationale);
//! ```

pub use dchag_collectives as collectives;
pub use dchag_core as core;
pub use dchag_data as data;
pub use dchag_model as model;
pub use dchag_parallel as parallel;
pub use dchag_perf as perf;
pub use dchag_tensor as tensor;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use dchag_collectives::{
        comm_error_of, run_ranks, run_ranks_faulty, run_topology, run_topology_faulty, CommError,
        Communicator, FaultPlan, FaultPoint, RankCtx, Topology,
    };
    pub use dchag_core::{
        build_climax, build_mae, resilient_train_loop, resilient_train_loop_with, DChagEncoder,
        DurableConfig, Plan, Planner, ResilienceConfig, RestorePoint, StateAccess,
    };
    pub use dchag_model::{ClimaxModel, MaeModel, ModelConfig, PatchMask, TreeConfig, UnitKind};
    pub use dchag_perf::{MemoryModel, Strategy, ThroughputModel};
    pub use dchag_tensor::prelude::*;
}
