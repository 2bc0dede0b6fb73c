//! Simulation parameters and the optimization presets of the evaluation.
//!
//! The paper's Figures 8–10 progressively switch on the presented
//! optimizations starting from the "BioDynaMo standard implementation"
//! (all optimizations off, kd-tree environment). [`OptLevel`] encodes that
//! cumulative ladder; [`Param::apply_opt_level`] configures a parameter set
//! accordingly.
//!
//! [`Param`] is the configuration *carrier*: prefer the fluent
//! [`Simulation::builder()`](crate::simulation::Simulation::builder) at
//! call sites; struct-literal construction (`Param { .. }`) remains fully
//! supported for models and tests that sweep parameters programmatically.

use bdm_env::EnvironmentKind;

/// All tunables of the simulation engine.
#[derive(Debug, Clone)]
pub struct Param {
    /// RNG seed; fixed seed + one thread ⇒ bit-reproducible runs.
    pub seed: u64,
    /// Neighbor-search backend (paper Figure 11).
    pub environment: EnvironmentKind,
    /// Fixed interaction radius; `None` derives it from the largest agent
    /// diameter each iteration (BioDynaMo's default box sizing).
    pub interaction_radius: Option<f64>,
    /// Simulation time step (hours in the biology models); positive, and
    /// finite for a simulation with diffusion grids or a checkpoint.
    pub simulation_time_step: f64,
    /// Hard cap on per-iteration displacement (BioDynaMo's
    /// `simulation_max_displacement`); non-negative, `+∞` disables it.
    pub simulation_max_displacement: f64,
    /// Enables the mechanical-forces agent operation.
    pub enable_mechanics: bool,
    /// Arms the static-region detection of paper Section 5 (BioDynaMo's
    /// `detect_static_agents`). Armed detection is a duty cycle: it runs in
    /// an iteration only while at least 5% of the previous iteration's
    /// mechanics agents ended it static, and a down iteration is bitwise an
    /// iteration with detection off (see
    /// [`Simulation::static_detection_engaged`](crate::Simulation::static_detection_engaged)).
    /// Detection observes agents in the agent phase only: an operation that
    /// moves agents outside it must disarm detection first
    /// ([`Simulation::set_detect_static_agents`](crate::Simulation::set_detect_static_agents));
    /// re-arming starts from cleared flags.
    pub detect_static_agents: bool,
    /// Agent sorting frequency (paper Section 4.2 / Figure 12):
    /// `Some(f)` sorts every `f` iterations in Morton order, `None`
    /// disables sorting.
    pub agent_sort_frequency: Option<usize>,
    /// Keep all old agent copies alive until the sorting step finished
    /// (more memory, better layout; paper Section 4.2 last paragraph and the
    /// "sorting uses extra memory" series of Figure 9).
    pub sort_use_extra_memory: bool,
    /// Commit agent additions/removals with the parallel algorithms of
    /// Section 3.2 (off = serial commit, as in the standard implementation).
    pub parallel_add_remove: bool,
    /// NUMA-aware iteration with two-level work stealing (Section 4.1);
    /// off = flat parallel loop without domain affinity.
    pub numa_aware_iteration: bool,
    /// Serve agents/behaviors from the pool allocator (Section 4.3), sized
    /// by [`PoolConfig::default`](bdm_alloc::PoolConfig::default); off =
    /// system allocator.
    pub use_pool_allocator: bool,
    /// Worker threads (`None` = detect; see `BDM_THREADS`).
    pub threads: Option<usize>,
    /// Virtual NUMA domains (`None` = detect; see `BDM_NUMA_DOMAINS`).
    pub numa_domains: Option<usize>,
    /// Agents per scheduling block of the NUMA-aware iterator.
    pub iteration_block_size: usize,
    /// In-process shard count K (see [`crate::sharded`]). `1` (the
    /// default) runs the classic single-engine path. `K > 1` partitions
    /// the population into K SFC-range shards, registers the built-in
    /// `halo_exchange` operation between `snapshot` and
    /// `environment_update`, and builds K windowed per-shard grids instead
    /// of the global index. Results are **bitwise identical for every K**
    /// as long as behaviors respect the sharding movement contract (no
    /// agent moves more than one interaction radius per iteration before
    /// its neighbor queries). Requires the uniform-grid environment;
    /// capped at [`MAX_SHARDS`](crate::sharded::MAX_SHARDS).
    pub shards: usize,
    /// Health-sentinel policy: when set, the default scheduler registers
    /// the built-in `health_check` operation with the policy's frequency,
    /// scanning for non-finite state, bounds escapes, and agent-count
    /// explosions (see [`crate::supervisor`]). `None` (the default)
    /// registers no sentinel. Carried in the checkpoint PARAM section so a
    /// restored simulation re-creates the identical pipeline.
    pub health: Option<crate::supervisor::HealthPolicy>,
}

impl Default for Param {
    fn default() -> Self {
        Param {
            seed: 4357,
            environment: EnvironmentKind::UniformGrid,
            interaction_radius: None,
            simulation_time_step: 0.01,
            simulation_max_displacement: 3.0,
            enable_mechanics: true,
            detect_static_agents: false,
            agent_sort_frequency: None,
            sort_use_extra_memory: false,
            parallel_add_remove: true,
            numa_aware_iteration: true,
            use_pool_allocator: true,
            threads: None,
            numa_domains: None,
            iteration_block_size: 1000,
            shards: 1,
            health: None,
        }
    }
}

/// The cumulative optimization ladder of the evaluation (Figures 8–10).
/// Each level includes all previous ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// "BioDynaMo standard implementation": kd-tree environment, serial
    /// add/remove, no sorting, no NUMA awareness, system allocator, no
    /// static detection.
    Standard,
    /// + the optimized uniform grid (Section 3.1).
    UniformGrid,
    /// + parallel addition/removal of agents (Section 3.2).
    ParallelAddRemove,
    /// + memory-layout optimizations: NUMA-aware iteration, agent sorting,
    ///   pool allocator (Section 4).
    MemoryLayout,
    /// + extra memory during agent sorting (Section 4.2, step G).
    SortExtraMemory,
    /// + static agent detection (Section 5), armed: it engages only while
    ///   enough agents end an iteration static — the full engine.
    StaticDetection,
}

impl OptLevel {
    /// All levels in ladder order.
    pub const ALL: [OptLevel; 6] = [
        OptLevel::Standard,
        OptLevel::UniformGrid,
        OptLevel::ParallelAddRemove,
        OptLevel::MemoryLayout,
        OptLevel::SortExtraMemory,
        OptLevel::StaticDetection,
    ];

    /// Human-readable label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Standard => "standard",
            OptLevel::UniformGrid => "+uniform_grid",
            OptLevel::ParallelAddRemove => "+parallel_add_remove",
            OptLevel::MemoryLayout => "+memory_layout",
            OptLevel::SortExtraMemory => "+sort_extra_memory",
            OptLevel::StaticDetection => "+static_detection",
        }
    }
}

impl Param {
    /// Configures this parameter set for an optimization level of the
    /// evaluation ladder. `default_sort_freq` is used once sorting becomes
    /// active (the paper's Figure 12 studies the frequency; 10 is a good
    /// middle value on our models).
    pub fn apply_opt_level(mut self, level: OptLevel) -> Param {
        // Start from everything off…
        self.environment = EnvironmentKind::KdTree;
        self.parallel_add_remove = false;
        self.numa_aware_iteration = false;
        self.agent_sort_frequency = None;
        self.sort_use_extra_memory = false;
        self.use_pool_allocator = false;
        self.detect_static_agents = false;
        // …then switch on cumulatively.
        if level >= OptLevel::UniformGrid {
            self.environment = EnvironmentKind::UniformGrid;
        }
        if level >= OptLevel::ParallelAddRemove {
            self.parallel_add_remove = true;
        }
        if level >= OptLevel::MemoryLayout {
            self.numa_aware_iteration = true;
            self.agent_sort_frequency = Some(10);
            self.use_pool_allocator = true;
        }
        if level >= OptLevel::SortExtraMemory {
            self.sort_use_extra_memory = true;
        }
        if level >= OptLevel::StaticDetection {
            self.detect_static_agents = true;
        }
        self
    }

    /// The "standard implementation" baseline of the evaluation.
    pub fn standard() -> Param {
        Param::default().apply_opt_level(OptLevel::Standard)
    }

    /// Fully optimized engine (without static detection, which the paper
    /// recommends enabling only when static regions are expected).
    pub fn optimized() -> Param {
        Param::default().apply_opt_level(OptLevel::SortExtraMemory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_optimized() {
        let p = Param::default();
        assert_eq!(p.environment, EnvironmentKind::UniformGrid);
        assert!(p.parallel_add_remove);
        assert!(p.numa_aware_iteration);
        assert!(p.use_pool_allocator);
        assert!(!p.detect_static_agents, "opt-in per the paper");
    }

    #[test]
    fn standard_turns_everything_off() {
        let p = Param::standard();
        assert_eq!(p.environment, EnvironmentKind::KdTree);
        assert!(!p.parallel_add_remove);
        assert!(!p.numa_aware_iteration);
        assert!(p.agent_sort_frequency.is_none());
        assert!(!p.use_pool_allocator);
        assert!(!p.detect_static_agents);
    }

    #[test]
    fn ladder_is_cumulative() {
        let grid = Param::default().apply_opt_level(OptLevel::UniformGrid);
        assert_eq!(grid.environment, EnvironmentKind::UniformGrid);
        assert!(!grid.parallel_add_remove);

        let mem = Param::default().apply_opt_level(OptLevel::MemoryLayout);
        assert_eq!(mem.environment, EnvironmentKind::UniformGrid);
        assert!(mem.parallel_add_remove);
        assert!(mem.numa_aware_iteration);
        assert!(mem.use_pool_allocator);
        assert!(mem.agent_sort_frequency.is_some());
        assert!(!mem.sort_use_extra_memory);
        assert!(!mem.detect_static_agents);

        let full = Param::default().apply_opt_level(OptLevel::StaticDetection);
        assert!(full.sort_use_extra_memory);
        assert!(full.detect_static_agents);
    }

    #[test]
    fn ladder_order() {
        for w in OptLevel::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(OptLevel::ALL.len(), 6);
        for l in OptLevel::ALL {
            assert!(!l.label().is_empty());
        }
    }
}
