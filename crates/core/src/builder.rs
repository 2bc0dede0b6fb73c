//! Fluent construction of [`Simulation`]s.
//!
//! [`SimulationBuilder`] replaces struct-literal [`Param`] construction at
//! call sites: engine tunables, the interaction force, diffusion grids, and
//! custom [`Operation`]s are all configured in one chain and materialized by
//! [`SimulationBuilder::build`]. [`Param`] remains the internal configuration
//! carrier — `Simulation::new(Param { .. })` stays fully supported.
//!
//! ```
//! use bdm_core::{Cell, Real3, Simulation};
//!
//! let mut sim = Simulation::builder()
//!     .threads(2)
//!     .time_step(1.0)
//!     .build();
//! let uid = sim.new_uid();
//! sim.add_agent(Cell::new(uid).with_position(Real3::splat(5.0)));
//! sim.simulate(3);
//! assert_eq!(sim.num_agents(), 1);
//! ```

use bdm_diffusion::DiffusionGrid;
use bdm_env::EnvironmentKind;

use crate::faults::FaultPlan;
use crate::force::InteractionForce;
use crate::param::{OptLevel, Param};
use crate::scheduler::Operation;
use crate::simulation::Simulation;
use crate::supervisor::HealthPolicy;

/// Fluent builder for [`Simulation`]; create one with
/// [`Simulation::builder`].
#[derive(Default)]
pub struct SimulationBuilder {
    param: Param,
    force: Option<InteractionForce>,
    grids: Vec<DiffusionGrid>,
    ops: Vec<Box<dyn Operation>>,
    faults: Option<FaultPlan>,
}

impl SimulationBuilder {
    /// A builder with [`Param::default`] settings.
    pub fn new() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// Starts from an explicit parameter set instead of the defaults
    /// (migration path for existing `Param` construction).
    pub fn with_param(mut self, param: Param) -> Self {
        self.param = param;
        self
    }

    /// Applies an optimization-ladder preset (paper Figures 8–10). The
    /// ladder configures the environment backend and toggles the built-in
    /// operations' optimizations cumulatively; later builder calls can
    /// still override individual switches.
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.param = self.param.apply_opt_level(level);
        self
    }

    /// Worker threads (default: detect).
    pub fn threads(mut self, threads: usize) -> Self {
        self.param.threads = Some(threads);
        self
    }

    /// Virtual NUMA domains (default: detect).
    pub fn numa_domains(mut self, domains: usize) -> Self {
        self.param.numa_domains = Some(domains);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.param.seed = seed;
        self
    }

    /// Neighbor-search backend (paper Figure 11).
    pub fn environment(mut self, kind: EnvironmentKind) -> Self {
        self.param.environment = kind;
        self
    }

    /// Simulation time step.
    pub fn time_step(mut self, dt: f64) -> Self {
        self.param.simulation_time_step = dt;
        self
    }

    /// Fixed interaction radius (default: derived from the largest agent
    /// diameter each iteration).
    pub fn interaction_radius(mut self, radius: f64) -> Self {
        self.param.interaction_radius = Some(radius);
        self
    }

    /// Enables/disables the built-in mechanics part of the agent operation.
    pub fn mechanics(mut self, enabled: bool) -> Self {
        self.param.enable_mechanics = enabled;
        self
    }

    /// Enables/disables static-agent detection (paper Section 5).
    pub fn detect_static_agents(mut self, enabled: bool) -> Self {
        self.param.detect_static_agents = enabled;
        self
    }

    /// Frequency of the built-in `agent_sorting` operation (paper
    /// Section 4.2 / Figure 12): `Some(f)` sorts every `f` iterations,
    /// `None` disables the operation.
    pub fn sort_frequency(mut self, frequency: Option<usize>) -> Self {
        self.param.agent_sort_frequency = frequency;
        self
    }

    /// Keep old agent copies alive during sorting (more memory, better
    /// layout; paper Section 4.2 step G).
    pub fn sort_use_extra_memory(mut self, enabled: bool) -> Self {
        self.param.sort_use_extra_memory = enabled;
        self
    }

    /// Parallel commit of agent additions/removals (paper Section 3.2).
    pub fn parallel_add_remove(mut self, enabled: bool) -> Self {
        self.param.parallel_add_remove = enabled;
        self
    }

    /// NUMA-aware iteration with two-level work stealing (Section 4.1).
    pub fn numa_aware_iteration(mut self, enabled: bool) -> Self {
        self.param.numa_aware_iteration = enabled;
        self
    }

    /// Serve agents/behaviors from the pool allocator (Section 4.3).
    pub fn pool_allocator(mut self, enabled: bool) -> Self {
        self.param.use_pool_allocator = enabled;
        self
    }

    /// Agents per scheduling block of the NUMA-aware iterator.
    pub fn iteration_block_size(mut self, block: usize) -> Self {
        self.param.iteration_block_size = block;
        self
    }

    /// Overrides the interaction force model.
    pub fn force(mut self, force: InteractionForce) -> Self {
        self.force = Some(force);
        self
    }

    /// Registers a diffusion grid. Grids are added in call order, so the
    /// first grid gets index 0 for `AgentContext::substance`/`secrete`.
    pub fn diffusion_grid(mut self, grid: DiffusionGrid) -> Self {
        self.grids.push(grid);
        self
    }

    /// Registers a custom [`Operation`]; it is scheduled at the end of its
    /// kind group and runs at [`Operation::frequency`].
    pub fn operation(mut self, op: impl Operation + 'static) -> Self {
        self.ops.push(Box::new(op));
        self
    }

    /// In-process shard count K (sharded execution with SFC-range
    /// partitioning and halo exchange; see [`crate::sharded`] and
    /// [`Param::shards`]). `1` (the default) is the classic single-engine
    /// path; results are bitwise identical for every K.
    pub fn shards(mut self, shards: usize) -> Self {
        self.param.shards = shards;
        self
    }

    /// Enables the built-in health sentinel with `policy` (registers the
    /// `health_check` operation; see [`crate::supervisor`]).
    pub fn health(mut self, policy: HealthPolicy) -> Self {
        self.param.health = Some(policy);
        self
    }

    /// Shorthand: health sentinel with default policy, scanning every
    /// `frequency` iterations.
    pub fn health_checks_every(mut self, frequency: u64) -> Self {
        self.param.health = Some(HealthPolicy::every(frequency));
        self
    }

    /// Attaches a deterministic fault-injection plan (see [`crate::faults`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The parameter set the builder has accumulated so far.
    pub fn param(&self) -> &Param {
        &self.param
    }

    /// Materializes the simulation.
    pub fn build(self) -> Simulation {
        let mut sim = Simulation::new(self.param);
        if let Some(force) = self.force {
            sim.set_force(force);
        }
        for grid in self.grids {
            sim.add_diffusion_grid(grid);
        }
        for op in self.ops {
            sim.scheduler_mut().add_boxed_op(op);
        }
        if let Some(plan) = self.faults {
            sim.set_fault_plan(plan);
        }
        sim
    }
}

impl std::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("param", &self.param)
            .field("grids", &self.grids.len())
            .field("ops", &self.ops.len())
            .finish()
    }
}
