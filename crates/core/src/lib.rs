//! # bdm-core
//!
//! The BioDynaMo simulation engine core — a from-scratch Rust implementation
//! of the engine presented in "High-Performance and Scalable Agent-Based
//! Simulation with BioDynaMo" (PPoPP 2023):
//!
//! * [`agent`] — agents as pool-allocated trait objects, the default
//!   spherical [`Cell`].
//! * [`behavior`] — behaviors attached to individual agents.
//! * [`resource_manager`] — per-NUMA-domain agent storage with the parallel
//!   addition/removal algorithms of Section 3.2 (Figure 1).
//! * [`context`] — thread-local execution contexts and the data-race-free
//!   neighbor snapshot.
//! * [`force`] — the Cortex3D-style interaction force.
//! * `ops` (crate-private) — behavior execution and mechanics with static-agent detection
//!   (Section 5).
//! * `sorting` (crate-private) — Morton-order agent sorting and NUMA balancing
//!   (Section 4.2, Figure 3).
//! * [`param`] — parameters and the optimization ladder of the evaluation.
//! * [`scheduler`] — the first-class [`Operation`] pipeline of Algorithm 1:
//!   ordered op list, per-op frequencies and timings, built-in phases.
//! * [`sharded`] — in-process sharded execution: SFC-range partitioning,
//!   halo exchange, per-shard windowed grids; bitwise shard-count-invariant.
//! * [`builder`] — fluent [`SimulationBuilder`] construction.
//! * [`simulation`] — the simulation object driving the scheduler.
//! * [`supervisor`] — health sentinels: typed runtime state validation
//!   (non-finite scans, bounds, count explosions) instead of asserts.
//! * [`faults`] — deterministic, seeded fault injection at named engine
//!   sites, for exercising recovery paths reproducibly.
//! * [`testing`] — bitwise state capture and differential comparison for the
//!   conformance suites (checkpoint replay, cross-backend determinism).

#![warn(missing_docs)]

pub mod agent;
pub mod behavior;
pub mod builder;
pub mod context;
pub mod faults;
pub mod force;
pub(crate) mod ops;
pub mod param;
pub mod resource_manager;
pub mod scheduler;
pub mod sharded;
pub mod simulation;
pub(crate) mod sorting;
pub mod supervisor;
pub mod testing;

pub use agent::{
    clone_agent_box, new_agent_box, Agent, AgentBase, AgentBox, AgentHandle, AgentUid, Cell,
    CloneIn,
};
pub use behavior::{clone_behavior_box, new_behavior_box, Behavior, BehaviorBox, BehaviorControl};
pub use builder::SimulationBuilder;
pub use context::{AgentContext, ExecutionContext, Neighbor, Snapshot};
pub use faults::{FaultKind, FaultPlan, FaultSite, PlannedFault};
pub use force::InteractionForce;
pub use param::{OptLevel, Param};
pub use resource_manager::{CommitStats, ResourceManager, StaticFlags};
pub use scheduler::{builtin, OpInfo, OpKind, Operation, Scheduler, SimulationCtx};
pub use sharded::{ShardManifest, ShardReport, ShardStats, MAX_SHARDS};
pub use simulation::{SimStats, Simulation, StandaloneOp};
pub use sorting::SortPhases;
pub use supervisor::{HealthPolicy, HealthViolation, HealthViolationKind};

// Re-exported engine substrates for convenience.
pub use bdm_alloc::{MemoryManager, PoolBox, PoolConfig};
pub use bdm_diffusion::{BoundaryCondition, DiffusionGrid};
pub use bdm_env::{Environment, EnvironmentKind};
pub use bdm_numa::{NumaThreadPool, NumaTopology};
pub use bdm_util::{Real3, SimRng};

/// Derives an independent RNG stream (seed, stream id).
pub fn rng_stream(seed: u64, stream: u64) -> SimRng {
    SimRng::stream(seed, stream)
}
