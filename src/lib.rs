//! # biodynamo
//!
//! A high-performance, scalable agent-based simulation engine — a
//! from-scratch Rust reproduction of
//!
//! > *High-Performance and Scalable Agent-Based Simulation with BioDynaMo*,
//! > Breitwieser et al., PPoPP 2023 (arXiv:2301.06984).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`](mod@core) | engine: agents, behaviors, scheduler, resource manager, forces, sorting, static detection |
//! | [`env`](mod@env) | neighbor-search environments: uniform grid, kd-tree, octree |
//! | [`alloc`](mod@alloc) | the NUMA-aware pool memory allocator |
//! | [`numa`](mod@numa) | virtual NUMA topology + work-stealing thread pool |
//! | [`sfc`](mod@sfc) | Morton curve (the engine's sort order) and the gap-offset enumeration; a Hilbert codec backs only the enumeration micro-bench, and nothing re-measures the paper's end-to-end 0.54% |
//! | [`diffusion`](mod@diffusion) | extracellular substance diffusion |
//! | [`neuro`](mod@neuro) | neuron somas, neurite elements, growth cones |
//! | [`models`](mod@models) | the five benchmark simulations + cell sorting |
//! | [`baseline`](mod@baseline) | the serial comparator engine |
//! | [`checkpoint`](mod@checkpoint) | versioned binary checkpoint/restore, the in-memory ring of full-checkpoint restore points, and the supervised (auto-recovering) runner |
//!
//! ## Quickstart
//!
//! ```
//! use biodynamo::prelude::*;
//!
//! // 8 static cells stepped through the full engine, 2 threads.
//! // (See examples/quickstart.rs for a growing/dividing population.)
//! let mut sim = Simulation::builder()
//!     .threads(2)
//!     .time_step(1.0)
//!     .build();
//! for i in 0..8 {
//!     let uid = sim.new_uid();
//!     sim.add_agent(
//!         Cell::new(uid)
//!             .with_position(Real3::splat(i as f64 * 20.0))
//!             .with_diameter(10.0),
//!     );
//! }
//! sim.simulate(10);
//! assert_eq!(sim.num_agents(), 8);
//! ```
//!
//! The engine pipeline is a first-class, per-operation-timed list owned by
//! the [`core::scheduler::Scheduler`]; custom pipeline stages implement
//! [`core::scheduler::Operation`] and are registered through the builder:
//!
//! ```
//! use biodynamo::prelude::*;
//!
//! struct Census;
//! impl Operation for Census {
//!     fn name(&self) -> &str { "census" }
//!     fn kind(&self) -> OpKind { OpKind::Standalone }
//!     fn frequency(&self) -> u64 { 5 } // every 5th iteration
//!     fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
//!         let _agents_alive = ctx.num_agents();
//!     }
//! }
//!
//! let mut sim = Simulation::builder().threads(1).operation(Census).build();
//! sim.simulate(10);
//! assert_eq!(sim.scheduler().ops().iter().find(|o| o.name == "census").unwrap().runs, 2);
//! ```
//!
//! **Migration note:** `Simulation::new(Param { .. })` stays fully
//! supported — [`core::param::Param`] remains the configuration carrier
//! underneath the builder.

pub use bdm_alloc as alloc;
pub use bdm_baseline as baseline;
pub use bdm_checkpoint as checkpoint;
pub use bdm_core as core;
pub use bdm_diffusion as diffusion;
pub use bdm_env as env;
pub use bdm_models as models;
pub use bdm_neuro as neuro;
pub use bdm_numa as numa;
pub use bdm_sfc as sfc;
pub use bdm_util as util;

/// The most common imports for building simulations.
pub mod prelude {
    pub use bdm_checkpoint::{
        CheckpointRing, RecoveryPolicy, RecoveryReport, RingPolicy, SupervisedRunner,
    };
    pub use bdm_core::{
        clone_agent_box, clone_behavior_box, new_agent_box, new_behavior_box, Agent, AgentBase,
        AgentBox, AgentContext, AgentHandle, AgentUid, Behavior, BehaviorBox, BehaviorControl,
        BoundaryCondition, Cell, CloneIn, DiffusionGrid, EnvironmentKind, FaultKind, FaultPlan,
        FaultSite, HealthPolicy, HealthViolation, HealthViolationKind, InteractionForce,
        MemoryManager, Neighbor, OpInfo, OpKind, Operation, OptLevel, Param, Real3, Scheduler,
        SimRng, SimStats, Simulation, SimulationBuilder, SimulationCtx, Snapshot,
    };
    pub use bdm_models::BenchmarkModel;
}
