//! The simulation object (paper Section 2, Algorithm 1).
//!
//! One iteration is an ordered list of
//! [`Operation`](crate::scheduler::Operation)s owned by the
//! [`Scheduler`]; [`Simulation::step`] contains no phase logic itself — for
//! each due operation it times it and runs it. The default pipeline:
//!
//! 1. **Pre standalone operations** — `snapshot`, `environment_update`
//!    (Algorithm 1 L3–5; the barrier of L6 is implicit in the phase change).
//! 2. **Agent operations** — `agent_ops`: behaviors and mechanical forces
//!    for every agent, in parallel with the NUMA-aware iterator (L7–11).
//! 3. **Standalone operations** — `diffusion` (secretion application +
//!    diffusion steps) and user-registered operations (L12–14).
//! 4. **Post standalone operations** — `teardown` (deferred mutations,
//!    commit of additions/removals, Section 3.2) and `agent_sorting` when
//!    due (Section 4.2) (L16–18).
//!
//! Per-operation wall-clock time is accumulated by the scheduler;
//! [`Simulation::time_buckets`] derives the operation-runtime breakdown of
//! Figure 5 from those timings. The split-borrow kernels the built-in
//! operations delegate to live here as `pub(crate)` phase methods.

use bdm_alloc::{MemoryManager, MemoryStats, PoolConfig};
use bdm_diffusion::{DiffusionGrid, Secretion};
use bdm_env::{Environment, UpdateHint};
use bdm_numa::{NumaThreadPool, NumaTopology, StealStats};
use bdm_util::send_ptr::SendMut;
use bdm_util::{Real3, TimeBuckets};

use crate::agent::{new_agent_box, Agent, AgentHandle, AgentUid};
use crate::context::{agent_rng, AgentContext, ExecutionContext, GridView, Snapshot};
use crate::faults::{FaultKind, FaultPlan, FaultSite};
use crate::force::InteractionForce;
use crate::ops::{run_behaviors, run_mechanics, stays_engaged, MechanicsConfig, ViolationTable};
use crate::param::Param;
use crate::resource_manager::{split_global, CommitStats, ResourceManager};
use crate::scheduler::{
    builtin, AgentOp, DiffusionOp, EnvironmentOp, HaloExchangeOp, Scheduler, SnapshotOp, SortingOp,
    TeardownOp,
};
use crate::sharded::{ShardManifest, ShardReport, ShardedState, MAX_SHARDS};
use crate::sorting::{AgentSorter, SortPhases};
use crate::supervisor::{HealthCheckOp, HealthMonitor, HealthViolation, HealthViolationKind};

/// Aggregate statistics across all iterations run so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Agents added by behaviors (committed).
    pub agents_added: u64,
    /// Agents removed by behaviors (committed).
    pub agents_removed: u64,
    /// Force calculations executed.
    pub force_calculations: u64,
    /// Force calculations served by the box-batched grid path (stencil
    /// resolved once per box, diameters streamed box-sorted). The rest —
    /// non-grid environments, unscattered diameters — ran the generic
    /// neighbor query.
    pub batched_force_queries: u64,
    /// Movers (static detection on) whose wake around the new position was
    /// served by the batched force scan's candidate shell — the new
    /// position stayed in the scanned box — instead of a second neighbor
    /// query.
    pub shell_wakes: u64,
    /// Batched force scans served by the candidate shell a behavior's
    /// neighbor query of the same agent, at the same position, had staged
    /// — instead of a second stencil scan.
    pub shell_reuses: u64,
    /// Force calculations skipped by static detection (Section 5).
    pub static_skipped: u64,
    /// Agent phases that ran static detection: armed
    /// ([`Param::detect_static_agents`]) and engaged by the duty cycle (see
    /// [`Simulation::static_detection_engaged`]).
    pub static_engaged_iterations: u64,
    /// Times the duty cycle stood armed detection down because too few
    /// agents ended an engaged pass static.
    pub static_stand_downs: u64,
    /// Agent sorting passes executed.
    pub sorts: u64,
    /// Health-sentinel scans executed ([`Simulation::run_health_check`]).
    pub health_checks_run: u64,
    /// Health violations detected (sentinel scans + mechanics-kernel
    /// non-finite force accumulations).
    pub violations_detected: u64,
}

/// The central simulation object: owns the agents, environment, diffusion
/// grids, thread pool, memory manager, and the operation [`Scheduler`].
///
/// Field order matters for drop order: everything holding pool-allocated
/// boxes (`rm`, `ctxs`) is declared before `mm`.
pub struct Simulation {
    param: Param,
    topology: NumaTopology,
    pool: NumaThreadPool,
    rm: ResourceManager,
    ctxs: Vec<ExecutionContext>,
    env: Box<dyn Environment>,
    diffusion: Vec<DiffusionGrid>,
    snapshot: Snapshot,
    scheduler: Scheduler,
    mm: MemoryManager,
    iteration: u64,
    uid_counter: u64,
    init_round_robin: usize,
    stats: SimStats,
    force: InteractionForce,
    /// Interaction radius of the current iteration; written by the
    /// `snapshot` operation, read by `environment_update`, `agent_ops`,
    /// and `agent_sorting`.
    step_radius: f64,
    /// Commit statistics of the current iteration; written by `teardown`,
    /// read by `agent_sorting` (a changed population forces an index
    /// rebuild before sorting).
    step_commit: CommitStats,
    /// Iteration whose agents the snapshot was gathered over (see
    /// [`Simulation::refresh_snapshot`]).
    snapshot_iteration: u64,
    /// Resource-manager generation at snapshot time: a custom operation
    /// that adds/removes/commits agents between `snapshot` and
    /// `environment_update` remaps agent indices even when the count is
    /// unchanged, so freshness is generation equality, not a length check.
    snapshot_generation: u64,
    /// Sharded execution state ([`Param::shards`] > 1): SFC-range
    /// partition, per-shard clouds and grids, halo-exchange bookkeeping.
    /// `None` on the single-engine path.
    sharded: Option<ShardedState>,
    /// State the `agent_sorting` operation keeps between sorts.
    sorter: AgentSorter,
    /// Bounded log of typed health violations (sentinel findings).
    health: HealthMonitor,
    /// Planned fault injections; `None` (the default) keeps every injection
    /// hook on a single `is_none()` branch.
    faults: Option<FaultPlan>,
    /// Duty cycle of armed static detection: whether the next agent phase
    /// (or the running iteration's, until its agent phase decides) runs
    /// it. Meaningless while disarmed; arming starts engaged.
    static_engaged: bool,
    /// `static_engaged` as the running iteration started with — what a
    /// mid-iteration checkpoint records.
    static_engaged_at_start: bool,
}

impl Simulation {
    /// Creates a simulation from parameters. This is the one way to
    /// configure a simulation: a [`Param`] literal, then the setters
    /// ([`Simulation::set_force`], [`Simulation::add_diffusion_grid`],
    /// [`Simulation::set_fault_plan`]) and custom operations through
    /// [`Simulation::scheduler_mut`].
    ///
    /// ```
    /// use bdm_core::{Cell, Param, Real3, Simulation};
    ///
    /// let mut sim = Simulation::new(Param {
    ///     threads: Some(2),
    ///     simulation_time_step: 1.0,
    ///     ..Param::default()
    /// });
    /// let uid = sim.new_uid();
    /// sim.add_agent(Cell::new(uid).with_position(Real3::splat(5.0)));
    /// sim.simulate(3);
    /// assert_eq!(sim.num_agents(), 1);
    /// assert_eq!(sim.iteration(), 3);
    /// ```
    pub fn new(param: Param) -> Simulation {
        assert!(
            param.shards >= 1 && param.shards <= MAX_SHARDS,
            "Param::shards must be in 1..={MAX_SHARDS}, got {}",
            param.shards
        );
        assert!(
            param.shards == 1 || param.environment == bdm_env::EnvironmentKind::UniformGrid,
            "sharded execution (Param::shards > 1) requires the uniform-grid \
             environment, got {:?}",
            param.environment
        );
        // An infinite step stays constructible: it drives the mechanics
        // kernel's non-finite displacement handling. A checkpoint refuses
        // it, since a diffusion grid cannot step with it.
        assert!(
            param.simulation_time_step > 0.0,
            "Param::simulation_time_step must be positive, got {}",
            param.simulation_time_step
        );
        assert!(
            param.simulation_max_displacement >= 0.0,
            "Param::simulation_max_displacement must be non-negative, got {}",
            param.simulation_max_displacement
        );
        let mut topology = NumaTopology::detect();
        if param.threads.is_some() || param.numa_domains.is_some() {
            let threads = param.threads.unwrap_or_else(|| topology.num_threads());
            let domains = param
                .numa_domains
                .unwrap_or_else(|| topology.num_domains())
                .min(threads);
            topology = NumaTopology::new(domains, threads);
        }
        let num_domains = topology.num_domains();
        let num_threads = topology.num_threads();
        let pool = NumaThreadPool::new(topology.clone());
        let mm = if param.use_pool_allocator {
            MemoryManager::new(num_domains, num_threads, PoolConfig::default())
        } else {
            MemoryManager::system_only(num_domains, num_threads)
        };
        // Register every worker with the allocator so deallocations from the
        // owning domain take the thread-private fast path (Figure 4B).
        pool.broadcast(&|wctx| bdm_alloc::register_thread(wctx.thread_id, wctx.domain));
        let env = param.environment.create();
        let sharded = (param.shards > 1).then(|| ShardedState::new(param.shards));
        Simulation {
            rm: ResourceManager::new(num_domains),
            ctxs: (0..num_threads)
                .map(|_| ExecutionContext::new(num_domains))
                .collect(),
            env,
            diffusion: Vec::new(),
            snapshot: Snapshot::default(),
            scheduler: default_scheduler(&param),
            mm,
            iteration: 0,
            uid_counter: 0,
            init_round_robin: 0,
            stats: SimStats::default(),
            force: InteractionForce::default(),
            topology,
            pool,
            param,
            step_radius: 0.0,
            step_commit: CommitStats::default(),
            snapshot_iteration: 0,
            snapshot_generation: 0,
            sharded,
            sorter: AgentSorter::default(),
            health: HealthMonitor::default(),
            faults: None,
            static_engaged: true,
            static_engaged_at_start: true,
        }
    }

    /// Simulation parameters.
    pub fn param(&self) -> &Param {
        &self.param
    }

    /// The (virtual) NUMA topology in use.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// Overrides the interaction force model.
    pub fn set_force(&mut self, force: InteractionForce) {
        self.force = force;
    }

    /// The interaction force model in use.
    pub fn force(&self) -> InteractionForce {
        self.force
    }

    /// Highest uid issued so far (restore API: uid issuance must resume
    /// exactly where the checkpointed run stood).
    pub fn uid_counter(&self) -> u64 {
        self.uid_counter
    }

    /// Overwrites the uid counter (restore API).
    pub fn set_uid_counter(&mut self, v: u64) {
        self.uid_counter = v;
    }

    /// Overwrites the iteration counter (restore API: the next
    /// [`Simulation::step`] runs iteration `iteration + 1`).
    pub fn set_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
    }

    /// Round-robin cursor of [`Simulation::add_agent`] (restore API: agents
    /// added after a restore must land on the same domains as in the
    /// original run).
    pub fn init_cursor(&self) -> usize {
        self.init_round_robin
    }

    /// Overwrites the round-robin cursor (restore API).
    pub fn set_init_cursor(&mut self, v: usize) {
        self.init_round_robin = v;
    }

    /// Whether static detection runs in the next iteration — or, asked from
    /// inside a running iteration, whether that iteration started with it
    /// engaged. Always `false` while [`Param::detect_static_agents`] is off.
    ///
    /// Armed detection is a duty cycle. At the end of every agent phase the
    /// engine keeps it engaged for the next iteration only if at least 5% of
    /// the pass's mechanics agents ended it static — skipped, or settled
    /// (did not move, nothing changed, at most one non-zero force). A pass
    /// can skip only agents the previous one left static, so standing down
    /// forfeits less than 5% of the next pass's force work. Standing down
    /// clears every static flag and pending wake, which makes each down
    /// iteration bitwise an iteration with detection off. Settled agents are
    /// still counted while down; once they reach the floor, detection
    /// re-engages and its first pass rebuilds the flags as a fresh engine's
    /// first iteration does.
    pub fn static_detection_engaged(&self) -> bool {
        let engaged = if self.scheduler.mid_iteration() {
            self.static_engaged_at_start
        } else {
            self.static_engaged
        };
        self.param.detect_static_agents && engaged
    }

    /// Overwrites the duty-cycle bit of static detection (restore API; see
    /// [`Simulation::static_detection_engaged`]).
    pub fn set_static_detection_engaged(&mut self, engaged: bool) {
        self.static_engaged = engaged;
        self.static_engaged_at_start = engaged;
    }

    /// Number of registered diffusion grids.
    pub fn num_diffusion_grids(&self) -> usize {
        self.diffusion.len()
    }

    /// Inserts a deserialized agent into a **specific** domain with its
    /// static-detection sidecar (restore path: placement must reproduce the
    /// checkpointed run exactly, so round-robin balancing is bypassed).
    pub fn restore_agent<A: Agent + 'static>(
        &mut self,
        domain: usize,
        agent: A,
        flags: crate::resource_manager::StaticFlags,
        violation: bool,
    ) -> AgentHandle {
        let boxed = new_agent_box(agent, &self.mm, domain);
        let h = self.rm.push(domain, boxed, flags.created_iter);
        self.rm.set_static_flags(h, flags);
        if violation {
            self.rm.raise_violation(domain, h.index as usize);
        }
        h
    }

    /// Issues a fresh uid for model initialization.
    pub fn new_uid(&mut self) -> AgentUid {
        self.uid_counter += 1;
        AgentUid(self.uid_counter)
    }

    /// Adds an agent during model initialization, balancing domains
    /// round-robin.
    pub fn add_agent<A: Agent + 'static>(&mut self, agent: A) -> AgentHandle {
        let domain = self.init_round_robin % self.rm.num_domains();
        self.init_round_robin += 1;
        let boxed = new_agent_box(agent, &self.mm, domain);
        self.rm.push(domain, boxed, 0)
    }

    /// Registers a diffusion grid; returns its index for
    /// `AgentContext::substance` / `AgentContext::secrete`.
    pub fn add_diffusion_grid(&mut self, grid: DiffusionGrid) -> usize {
        self.diffusion.push(grid);
        self.diffusion.len() - 1
    }

    /// Read access to a diffusion grid.
    pub fn diffusion_grid(&self, idx: usize) -> &DiffusionGrid {
        &self.diffusion[idx]
    }

    /// The operation scheduler: the ordered pipeline of this simulation.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Exclusive access to the scheduler: add, remove, reorder, re-time, or
    /// toggle operations.
    ///
    /// From *inside* a running operation, `add_op`, `set_frequency`,
    /// `set_enabled`, and `remove_op` are deferred and take effect from the
    /// next iteration; anchored insertion and introspection only see
    /// operations added during the current iteration (the main list is
    /// detached while it executes).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.scheduler
    }

    /// Number of live agents.
    pub fn num_agents(&self) -> usize {
        self.rm.num_agents()
    }

    /// Current iteration (0 before the first step).
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Simulated time (`iteration × dt`).
    pub fn time(&self) -> f64 {
        self.iteration as f64 * self.param.simulation_time_step
    }

    /// Shared access to the resource manager.
    pub fn resource_manager(&self) -> &ResourceManager {
        &self.rm
    }

    /// Exclusive access to the resource manager (model initialization,
    /// custom operations).
    pub fn resource_manager_mut(&mut self) -> &mut ResourceManager {
        &mut self.rm
    }

    /// Visits every agent.
    pub fn for_each_agent(&self, f: impl FnMut(AgentHandle, &dyn Agent)) {
        self.rm.for_each_agent(f);
    }

    /// Counts agents matching a predicate.
    pub fn count_agents(&self, mut pred: impl FnMut(&dyn Agent) -> bool) -> usize {
        let mut n = 0;
        self.rm.for_each_agent(|_, a| {
            if pred(a) {
                n += 1;
            }
        });
        n
    }

    /// Per-phase wall-clock buckets (Figure 5's runtime breakdown), derived
    /// from the scheduler's per-operation timings. Every operation appears
    /// under its own name (`snapshot`, `environment_update`, `agent_ops`,
    /// `teardown`, `agent_sorting`, custom
    /// [`Operation`](crate::scheduler::Operation)s), except `diffusion`,
    /// which keeps the legacy `standalone_ops` bucket name.
    pub fn time_buckets(&self) -> TimeBuckets {
        self.scheduler.time_buckets()
    }

    /// Aggregate engine statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Memory-allocator statistics (Figure 13).
    pub fn memory_stats(&self) -> MemoryStats {
        self.mm.stats()
    }

    /// Work-stealing counters since the last call (Figure 2 arrows 4/5).
    pub fn take_steal_stats(&self) -> StealStats {
        self.pool.take_steal_stats()
    }

    /// Wall-clock time of each phase of the most recent agent sort (`None`
    /// before the first sort that moved agents).
    pub fn last_sort_phases(&self) -> Option<SortPhases> {
        self.sorter.phases
    }

    /// Heap footprint of the neighbor-search index (Figure 11d).
    pub fn environment_memory_bytes(&self) -> usize {
        self.env.memory_bytes()
    }

    /// Per-shard execution report — owned/halo counts, grid-build times,
    /// exchange counters ([`Param::shards`] > 1; `None` on the
    /// single-engine path).
    pub fn shard_report(&self) -> Option<ShardReport> {
        self.sharded.as_ref().map(ShardedState::report)
    }

    /// Partition manifest of the last halo exchange (`None` on the
    /// single-engine path or before the first exchange) — recorded in the
    /// checkpoint's `SHRD` section for audit; restore recomputes the
    /// partition from state, so a checkpoint restores into *any* shard
    /// count bitwise-identically.
    pub fn shard_manifest(&self) -> Option<ShardManifest> {
        self.sharded
            .as_ref()
            .filter(|s| s.exchanges > 0)
            .map(ShardedState::manifest)
    }

    /// The per-iteration snapshot gathered by the `snapshot` operation —
    /// SoA arrays of every agent's position/diameter/payload at the start
    /// of the current iteration (see [`Snapshot`]), gathered again by the
    /// index build if a custom operation changed the population after it.
    /// Every gather fills all three arrays, so a custom operation may read
    /// any of them.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Heap bytes of the snapshot arrays (per-array SoA accounting; the
    /// Figure 5/9/11 harness reports this instead of assuming a record
    /// size).
    pub fn snapshot_memory_bytes(&self) -> usize {
        self.snapshot.memory_bytes()
    }

    /// The neighbor-search index of the current iteration (rebuilt by the
    /// `environment_update` operation). Custom operations can downcast via
    /// [`Environment::as_uniform_grid`] for grid-specific reads (box runs,
    /// stencil runs).
    pub fn environment(&self) -> &dyn Environment {
        &*self.env
    }

    /// Name of the active environment backend.
    pub fn environment_name(&self) -> &'static str {
        self.env.name()
    }

    /// The memory manager (advanced use: custom agent allocation).
    pub fn memory_manager(&self) -> &MemoryManager {
        &self.mm
    }

    // -- Health sentinel ---------------------------------------------------

    /// Runs the health-sentinel scan now, regardless of the `health_check`
    /// operation's frequency (a supervisor forces a scan before every
    /// checkpoint capture so corrupted state is never checkpointed).
    ///
    /// Scans every agent for a non-finite position and a non-finite or
    /// negative diameter, and every diffusion grid for a non-finite
    /// concentration (reported once per grid, at the first such box).
    /// Findings are recorded as typed
    /// [`HealthViolation`]s (capped; exact totals in
    /// [`SimStats::violations_detected`]) and the number found by *this*
    /// scan is returned. The scan mutates nothing step-relevant, so it never
    /// perturbs bit-reproducibility.
    pub fn run_health_check(&mut self) -> usize {
        let iteration = self.iteration;
        let mut found = 0usize;
        let mut records: Vec<HealthViolation> = Vec::new();
        let push = |records: &mut Vec<HealthViolation>, v: HealthViolation| {
            if records.len() < crate::supervisor::MAX_RECORDED_VIOLATIONS {
                records.push(v);
            }
        };
        self.rm.for_each_agent(|_h, a| {
            let p = a.position();
            let d = a.diameter();
            if !p.is_finite() {
                found += 1;
                push(
                    &mut records,
                    HealthViolation {
                        kind: HealthViolationKind::NonFinitePosition,
                        iteration,
                        agent: Some(a.uid().0),
                        detail: format!("({}, {}, {})", p.x(), p.y(), p.z()),
                    },
                );
            }
            if !d.is_finite() || d < 0.0 {
                found += 1;
                push(
                    &mut records,
                    HealthViolation {
                        kind: HealthViolationKind::InvalidDiameter,
                        iteration,
                        agent: Some(a.uid().0),
                        detail: format!("{d}"),
                    },
                );
            }
        });
        for (gi, grid) in self.diffusion.iter().enumerate() {
            if let Some(bi) = grid.concentrations().iter().position(|c| !c.is_finite()) {
                found += 1;
                push(
                    &mut records,
                    HealthViolation {
                        kind: HealthViolationKind::NonFiniteConcentration,
                        iteration,
                        agent: None,
                        detail: format!("grid #{gi} ({}) box {bi}", grid.name()),
                    },
                );
            }
        }
        for v in records {
            self.health.record(v);
        }
        self.stats.health_checks_run += 1;
        self.stats.violations_detected += found as u64;
        found
    }

    /// Drains the recorded health violations.
    pub fn take_health_violations(&mut self) -> Vec<HealthViolation> {
        self.health.take()
    }

    // -- Static detection --------------------------------------------------

    /// Arms or disarms static-agent detection at runtime. Either switch
    /// clears every static flag and pending wake, and arming starts engaged:
    /// a re-armed run resumes like a fresh engine, never from flags nobody
    /// maintained while detection was off.
    pub fn set_detect_static_agents(&mut self, enabled: bool) {
        if enabled != self.param.detect_static_agents {
            self.rm.clear_static_state(&self.pool);
            self.param.detect_static_agents = enabled;
            self.static_engaged = true;
        }
    }

    // -- Fault injection ---------------------------------------------------

    /// Attaches a fault plan; the engine consults it at the named
    /// [`FaultSite`]s. See [`crate::faults`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Detaches the fault plan (a supervisor transplants it onto the
    /// restored simulation so already-fired faults stay fired).
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Takes a due fault for `site` at the current iteration without
    /// executing it (used by supervisors for the
    /// [`FaultSite::CheckpointCapture`] site, whose kinds act on buffers the
    /// simulation cannot see).
    pub fn take_due_fault(&mut self, site: &FaultSite) -> Option<FaultKind> {
        let iteration = self.iteration;
        self.faults.as_mut()?.take_due(site, iteration)
    }

    /// Injection hook: consults the plan before the scheduler runs `op`.
    pub(crate) fn fire_op_fault(&mut self, op: &str) {
        if self.faults.is_none() {
            return;
        }
        let iteration = self.iteration;
        let kind = self
            .faults
            .as_mut()
            .and_then(|p| p.take_due_op(op, iteration));
        if let Some(kind) = kind {
            self.execute_fault(kind, &format!("before op `{op}`"));
        }
    }

    /// Injection hook: consults the plan at the start of the environment
    /// rebuild phase.
    pub(crate) fn fire_grid_fault(&mut self) {
        if self.faults.is_none() {
            return;
        }
        let iteration = self.iteration;
        let kind = self
            .faults
            .as_mut()
            .and_then(|p| p.take_due(&FaultSite::GridRebuild, iteration));
        if let Some(kind) = kind {
            self.execute_fault(kind, "at grid rebuild");
        }
    }

    fn execute_fault(&mut self, kind: FaultKind, site: &str) {
        match kind {
            FaultKind::Panic => {
                panic!(
                    "injected fault: panic {site} at iteration {}",
                    self.iteration
                );
            }
            FaultKind::NanPosition { agent_index } => {
                let n = self.rm.num_agents();
                if n == 0 {
                    return;
                }
                let global = agent_index % n;
                let offsets = self.rm.offsets();
                let mut d = 0;
                while d + 1 < offsets.len() - 1 && offsets[d + 1] <= global {
                    d += 1;
                }
                let h = AgentHandle::new(d, global - offsets[d]);
                // Goes through the sanctioned setter, which itself trips the
                // write sentinel — the silent-corruption path under test.
                self.rm.agent_mut(h).set_position(Real3::splat(f64::NAN));
            }
            // Checkpoint-targeted kinds act on supervisor-owned buffers;
            // firing them at a simulation site is a no-op.
            FaultKind::CheckpointBitFlip { .. } | FaultKind::SkippedCapture => {}
        }
    }

    /// Runs `iterations` simulation steps (Algorithm 1 L2–19).
    pub fn simulate(&mut self, iterations: usize) {
        for _ in 0..iterations {
            self.step();
        }
    }

    /// Executes one iteration of Algorithm 1: for each due operation in the
    /// scheduler's ordered list, time it and run it. All phase logic lives
    /// in the operations themselves (see [`crate::scheduler`]).
    pub fn step(&mut self) {
        self.iteration += 1;
        self.step_commit = CommitStats::default();
        self.static_engaged_at_start = self.static_engaged;
        // Detach the op list so operations get `&mut Simulation` access;
        // ops registered during the iteration land in the (empty) scheduler
        // and are merged back afterwards.
        let mut entries = self.scheduler.take_entries();
        // A panicking operation must not leak the detached list (the
        // pipeline would be empty forever if the caller catches the
        // unwind), so restore it before re-raising.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Scheduler::run_iteration(&mut entries, self)
        }));
        self.scheduler.put_entries(entries);
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }

    // -- Built-in phase kernels (called by the scheduler's built-in ops) --

    /// The `snapshot` operation: gathers the per-iteration snapshot and
    /// derives the iteration's interaction radius. The snapshot gather and
    /// the index build are separate operations so the Figure 11 build-time
    /// comparison isolates the index structure.
    pub(crate) fn phase_snapshot(&mut self) {
        self.build_snapshot();
        self.snapshot_iteration = self.iteration;
        self.snapshot_generation = self.rm.generation();
        self.step_radius = self
            .param
            .interaction_radius
            .unwrap_or_else(|| self.snapshot.max_diameter.max(1e-6));
    }

    /// Re-runs the `snapshot` operation unless the snapshot was gathered
    /// this iteration over the current population — the one freshness rule
    /// of every index build. A pipeline without the `snapshot` operation,
    /// or a custom operation that added, removed or moved agents after it,
    /// makes the index readers see the agents as they are now. Returns
    /// whether it gathered.
    fn refresh_snapshot(&mut self) -> bool {
        let stale = self.snapshot_iteration != self.iteration
            || self.snapshot_generation != self.rm.generation()
            || self.snapshot.len() != self.rm.num_agents();
        if stale {
            self.phase_snapshot();
        }
        stale
    }

    /// The `halo_exchange` operation ([`Param::shards`] > 1): partitions
    /// the snapshot (refreshed first, see
    /// [`Simulation::refresh_snapshot`]) by Morton-code range and rebuilds
    /// the per-shard member clouds — owned agents plus read-only halo
    /// copies of every agent within the halo width of the shard's
    /// SFC-range frontier. Runs between `snapshot` and
    /// `environment_update`.
    pub(crate) fn phase_halo_exchange(&mut self) {
        if self.sharded.is_none() {
            return;
        }
        self.refresh_snapshot();
        // Halo width in boxes (box length ≥ interaction radius; counting a
        // coarsened box as one radius only widens the halo):
        //   * ring 1 — the query stencil around the query center's box;
        //   * ring 2 — behaviors may move an agent before mechanics
        //     queries at its live position (division offset, chemotaxis,
        //     random walks). The sharding contract caps that movement at
        //     one interaction radius per iteration;
        //   * engaged static detection additionally queries at the
        //     post-mechanics position, up to the displacement cap further
        //     out.
        // The float → u32 cast saturates and so do the additions: a tiny
        // radius asks for "the whole lattice", which the exchange clamps to.
        let halo_width =
            2u32.saturating_add(if self.detect_static_now() && self.step_radius > 0.0 {
                let boxes = (self.param.simulation_max_displacement / self.step_radius).floor();
                (boxes as u32).saturating_add(1)
            } else {
                0
            });
        let (snapshot, pool, generation, radius, iteration) = (
            &self.snapshot,
            &self.pool,
            self.rm.generation(),
            self.step_radius,
            self.iteration,
        );
        if let Some(st) = self.sharded.as_mut() {
            st.exchange(snapshot, pool, radius, generation, iteration, halo_width);
        }
    }

    /// The `environment_update` operation: rebuilds the neighbor index
    /// (Algorithm 1 L3–5) over the snapshot, refreshed first (see
    /// [`Simulation::refresh_snapshot`]; a refresh after this iteration's
    /// halo exchange repeats the exchange) — see
    /// [`Simulation::rebuild_index`]. Under sharded execution with a
    /// completed halo exchange, the K per-shard windowed grids are built
    /// instead of the global index.
    pub(crate) fn phase_environment(&mut self) {
        self.fire_grid_fault();
        if self.rm.num_agents() == 0 {
            return;
        }
        let refreshed = self.refresh_snapshot();
        let iteration = self.iteration;
        let exchanged = self
            .sharded
            .as_ref()
            .is_some_and(|st| st.active_iteration == iteration);
        if refreshed && exchanged {
            self.phase_halo_exchange();
        }
        let scatter = self.param.enable_mechanics;
        let (radius, bounds) = (self.step_radius, self.snapshot.bounds);
        match self.sharded.as_mut() {
            Some(st) if exchanged => st.build_grids(scatter, radius, bounds, &self.pool),
            _ => self.rebuild_index(),
        }
    }

    /// Rebuilds the global neighbor index over the snapshot: contiguous
    /// positions, bounds already known, and — when mechanics is enabled —
    /// diameters scattered box-sorted next to the query slots (the force
    /// kernel's shell scan is their only reader).
    fn rebuild_index(&mut self) {
        let hint = UpdateHint {
            known_bounds: self.snapshot.bounds,
            diameters: self
                .param
                .enable_mechanics
                .then_some(&self.snapshot.diameters[..]),
            grid_frame: None,
            pool: Some(&self.pool),
        };
        self.env
            .update_with(&self.snapshot.positions, self.step_radius, hint);
    }

    /// The `agent_ops` operation: behaviors + mechanics for every agent in
    /// parallel (Algorithm 1 L7–11).
    pub(crate) fn phase_agent_ops(&mut self) {
        if self.rm.num_agents() > 0 {
            let detect = self.detect_static_now();
            self.run_agent_ops(self.step_radius, detect);
            let (passes, static_after) = self.fold_mechanics_counters();
            if self.param.detect_static_agents {
                // The duty cycle (see `static_detection_engaged`).
                let engage = stays_engaged(passes, static_after);
                if detect {
                    self.stats.static_engaged_iterations += 1;
                    if engage {
                        // Make the violations raised during this pass
                        // visible to the next one. Doing the shift here —
                        // after the parallel pass, before anything else
                        // observes the flags — keeps wake-ups
                        // scheduling-independent (see `VIOL_CUR`).
                        self.rm.promote_violations();
                    } else {
                        // Stand down into the state of an engine that
                        // never ran detection.
                        self.rm.clear_static_state(&self.pool);
                        self.stats.static_stand_downs += 1;
                    }
                }
                self.static_engaged = engage;
            }
            // Behaviors and mechanics mutate agents in place; advance the
            // structural generation so its readers — the snapshot-freshness
            // check and the halo exchange's skip-if-unchanged key — see the
            // population as changed. Runs after the environment rebuild, so
            // this iteration's snapshot-freshness equality is unaffected.
            self.rm.generation += 1;
        }
    }

    /// The `diffusion` operation: applies queued secretions and steps the
    /// diffusion grids (Algorithm 1 L12–14).
    pub(crate) fn phase_diffusion(&mut self) {
        self.apply_secretions();
        let dt = self.param.simulation_time_step;
        for grid in &mut self.diffusion {
            grid.step_with(dt, Some(&self.pool));
        }
    }

    /// The `teardown` operation: deferred mutations and the commit of
    /// additions/removals (Section 3.2, Algorithm 1 L16–18).
    pub(crate) fn phase_teardown(&mut self) {
        self.apply_deferred();
        let commit = self.rm.commit(
            &mut self.ctxs,
            &self.pool,
            self.param.parallel_add_remove,
            self.iteration,
        );
        self.stats.agents_added += commit.added as u64;
        self.stats.agents_removed += commit.removed as u64;
        self.step_commit = commit;
    }

    /// The `agent_sorting` operation (Section 4.2): space-filling-curve
    /// sort and NUMA balancing. Only effective on the uniform-grid
    /// environment; its frequency comes from `Param::agent_sort_frequency`
    /// and can be re-timed via the scheduler.
    pub(crate) fn phase_sorting(&mut self) {
        // Only the uniform grid is sorted: any other index rebuilt here
        // would be thrown away by the next `environment_update`.
        if self.env.as_uniform_grid().is_none() {
            return;
        }
        // If the commit of this iteration added or removed agents, the index
        // built at the start of the iteration no longer matches the
        // resource manager and must be rebuilt: the sort's memory safety
        // depends on the box runs referencing current agent indices.
        // Without population changes the index is merely position-stale,
        // which is harmless — the sort only needs *a* consistent spatial
        // binning of the current index set.
        if self.rm.num_agents() > 0 {
            if self.step_commit.added > 0 || self.step_commit.removed > 0 {
                // Over the current positions, gathered into a buffer that is
                // freed before the sort permutes the agents; the snapshot
                // stays the start-of-iteration state. Bounds and lattice
                // come from these positions, and nobody reads diameters.
                let positions = self.gather_positions();
                let hint = UpdateHint {
                    pool: Some(&self.pool),
                    ..UpdateHint::default()
                };
                self.env.update_with(&positions, self.step_radius, hint);
            } else if self
                .sharded
                .as_ref()
                .is_some_and(|s| s.active_iteration == self.iteration)
            {
                // Sharded iteration without population changes: the K shard
                // grids served the agent phase and the *global* index was
                // never built. The sort needs a global index over the
                // iteration's agents — rebuild it from the same snapshot
                // with the same hint the single-engine `environment_update`
                // would have used, so the resulting box order (and therefore
                // the sorted agent permutation) is bitwise that of the
                // single-engine run.
                self.rebuild_index();
            }
        }
        if let Some(grid) = self.env.as_uniform_grid() {
            let moved = self.sorter.sort_and_balance(
                &mut self.rm,
                grid,
                &self.mm,
                &self.pool,
                &self.topology,
            );
            if moved > 0 {
                self.stats.sorts += 1;
            }
        }
    }

    /// Every agent's current position in global-index order, gathered on
    /// the pool.
    fn gather_positions(&self) -> Vec<Real3> {
        let offsets = self.rm.offsets();
        let mut positions = vec![Real3::ZERO; *offsets.last().unwrap()];
        let out = SendMut::new(positions.as_mut_ptr());
        let (rm, offsets) = (&self.rm, &offsets);
        self.pool.numa_for(
            &rm.domain_sizes(),
            self.param.iteration_block_size,
            &|_w, domain, range| {
                for i in range {
                    let position = rm.domains[domain].agents[i].position();
                    // SAFETY: `numa_for` hands out every (domain, index)
                    // once, so global slot offsets[domain] + i is written
                    // exactly once.
                    unsafe { out.write(offsets[domain] + i, position) };
                }
            },
        );
        positions
    }

    /// Builds the per-iteration snapshot — the SoA arrays (positions,
    /// diameters, payloads) and the max diameter — reading agents through
    /// their pointers in ONE sweep.
    fn build_snapshot(&mut self) {
        let offsets = self.rm.offsets();
        let total = *offsets.last().unwrap();
        self.snapshot.offsets = offsets;
        self.snapshot.positions.resize(total, Real3::ZERO);
        self.snapshot.diameters.resize(total, 0.0);
        self.snapshot.payloads.resize(total, 0);
        let sizes = self.rm.domain_sizes();
        let max_diameter = std::sync::atomic::AtomicU64::new(0f64.to_bits());
        // Position bounds fold into the same sweep: the environment rebuild
        // needs them, and computing them here saves it a full pass over the
        // agents. Merged per block under a mutex (blocks are coarse).
        let bounds =
            std::sync::Mutex::new((Real3::splat(f64::INFINITY), Real3::splat(f64::NEG_INFINITY)));
        {
            let pos_ptr = SendMut::new(self.snapshot.positions.as_mut_ptr());
            let diam_ptr = SendMut::new(self.snapshot.diameters.as_mut_ptr());
            let payload_ptr = SendMut::new(self.snapshot.payloads.as_mut_ptr());
            let snap_offsets = &self.snapshot.offsets;
            let rm = &self.rm;
            let max_ref = &max_diameter;
            let bounds_ref = &bounds;
            let block = self.param.iteration_block_size;
            let body = |domain: usize, range: std::ops::Range<usize>| {
                let mut local_max = 0f64;
                let mut local_lo = Real3::splat(f64::INFINITY);
                let mut local_hi = Real3::splat(f64::NEG_INFINITY);
                let base = snap_offsets[domain];
                for i in range {
                    let agent = &*rm.domains[domain].agents[i];
                    let d = agent.diameter();
                    local_max = local_max.max(d);
                    let position = agent.position();
                    local_lo = local_lo.min(&position);
                    local_hi = local_hi.max(&position);
                    // SAFETY: global slot base+i written exactly once.
                    unsafe {
                        pos_ptr.write(base + i, position);
                        diam_ptr.write(base + i, d);
                        payload_ptr.write(base + i, agent.payload());
                    }
                }
                // Atomic f64 max via CAS on the bit pattern.
                let mut cur = max_ref.load(std::sync::atomic::Ordering::Relaxed);
                while f64::from_bits(cur) < local_max {
                    match max_ref.compare_exchange_weak(
                        cur,
                        local_max.to_bits(),
                        std::sync::atomic::Ordering::Relaxed,
                        std::sync::atomic::Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(c) => cur = c,
                    }
                }
                if local_lo[0] <= local_hi[0] {
                    let mut merged = bounds_ref.lock().unwrap();
                    merged.0 = merged.0.min(&local_lo);
                    merged.1 = merged.1.max(&local_hi);
                }
            };
            if self.param.numa_aware_iteration {
                self.pool
                    .numa_for(&sizes, block, &|_w, domain, range| body(domain, range));
            } else {
                let offsets = &self.snapshot.offsets;
                self.pool.parallel_for(total, block, &|_w, range| {
                    for_each_domain_range(offsets, range, &body)
                });
            }
        }
        self.snapshot.max_diameter = f64::from_bits(max_diameter.into_inner());
        self.snapshot.bounds = (total > 0).then(|| bounds.into_inner().unwrap());
    }

    /// Whether this iteration's agent phase runs static detection: armed
    /// and engaged.
    fn detect_static_now(&self) -> bool {
        self.param.detect_static_agents && self.static_engaged
    }

    /// Folds the agent phase's per-worker mechanics counters into the
    /// aggregate stats and returns the pass's `(mechanics passes, agents
    /// left static)` for the duty cycle.
    fn fold_mechanics_counters(&mut self) -> (u64, u64) {
        let (mut passes, mut static_after, mut nonfinite) = (0u64, 0u64, 0u64);
        for ctx in &mut self.ctxs {
            let computed = std::mem::take(&mut ctx.force_calculations);
            let skipped = std::mem::take(&mut ctx.static_skipped);
            passes += computed + skipped;
            static_after += skipped + std::mem::take(&mut ctx.static_candidates);
            self.stats.force_calculations += computed;
            self.stats.static_skipped += skipped;
            self.stats.batched_force_queries += std::mem::take(&mut ctx.batched_force_queries);
            self.stats.shell_wakes += std::mem::take(&mut ctx.shell_wakes);
            self.stats.shell_reuses += std::mem::take(&mut ctx.shell_reuses);
            nonfinite += std::mem::take(&mut ctx.nonfinite_forces);
        }
        // The mechanics kernel counts non-finite force accumulations instead
        // of aborting (the old hot-loop assert); surface them as typed
        // violations so release builds detect what debug builds used to
        // crash on.
        if nonfinite > 0 {
            self.stats.violations_detected += nonfinite;
            self.health.record(HealthViolation {
                kind: HealthViolationKind::NonFiniteForce,
                iteration: self.iteration,
                agent: None,
                detail: format!("{nonfinite} non-finite force accumulation(s)"),
            });
        }
        (passes, static_after)
    }

    /// The parallel agent-operation phase: behaviors + mechanics.
    fn run_agent_ops(&mut self, radius: f64, detect_static: bool) {
        let sizes = self.rm.domain_sizes();
        let offsets = self.rm.offsets();
        let num_domains = sizes.len();
        // Split-borrow agents (&mut via raw ptr), flags (&mut via raw ptr),
        // and violations (&, atomics) per domain.
        let mut agent_ptrs = Vec::with_capacity(num_domains);
        let mut flag_ptrs = Vec::with_capacity(num_domains);
        let mut violation_slices = Vec::with_capacity(num_domains);
        for store in self.rm.domains.iter_mut() {
            agent_ptrs.push(SendMut::new(store.agents.as_mut_ptr()));
            flag_ptrs.push(SendMut::new(store.flags.as_mut_ptr()));
            violation_slices.push(&store.violations[..]);
        }
        let violations = ViolationTable {
            slices: violation_slices,
            offsets: &offsets,
        };
        let mech = MechanicsConfig {
            force: self.force,
            search_radius: radius,
            dt: self.param.simulation_time_step,
            max_displacement: self.param.simulation_max_displacement,
            detect_static,
        };
        let ctxs_ptr = SendMut::new(self.ctxs.as_mut_ptr());
        let env = &*self.env;
        // Sharded execution: the parallel loop below is *identical* to the
        // single-engine one (same splitter, same blocks, same per-thread
        // contexts) — only the per-agent neighbor-query target differs.
        // Each agent queries its owning shard's windowed grid through a
        // `GridView` that remaps shard-local hits back to global indices,
        // so kernels (and FP summation order) never see the partition.
        let shard_state = self
            .sharded
            .as_ref()
            .filter(|s| s.active_iteration == self.iteration);
        let global_grid = env.as_uniform_grid();
        let snapshot = &self.snapshot;
        let mm = &self.mm;
        let diffusion = &self.diffusion[..];
        let enable_mechanics = self.param.enable_mechanics;
        let seed = self.param.seed;
        let dt = self.param.simulation_time_step;
        let iteration = self.iteration;
        let offsets_ref = &offsets;
        let agent_ptrs = &agent_ptrs;
        let flag_ptrs = &flag_ptrs;
        let violations_ref = &violations;
        let mech_ref = &mech;
        let shell = mech.shell_radius();

        let body =
            move |worker: bdm_numa::WorkerCtx, domain: usize, range: std::ops::Range<usize>| {
                // SAFETY: each worker accesses only its own execution context.
                let exec = unsafe { ctxs_ptr.get_mut(worker.thread_id) };
                // The chunk's secretions and new agents are keyed by its
                // first agent (see `ExecutionContext::secretion_chunks` and
                // `birth_chunks`).
                exec.open_chunk = Some((iteration, offsets_ref[domain] + range.start));
                exec.open_birth_chunk = Some(offsets_ref[domain] + range.start);
                for i in range {
                    // SAFETY: each (domain, i) is processed by exactly one task.
                    let agent_box = unsafe { agent_ptrs[domain].get_mut(i) };
                    let flags = unsafe { flag_ptrs[domain].get_mut(i) };
                    let agent: &mut dyn Agent = &mut **agent_box;
                    let global = offsets_ref[domain] + i;
                    let uid = agent.uid();
                    let grid = match shard_state {
                        Some(st) => {
                            let s = st.owner[global] as usize;
                            Some(GridView {
                                grid: &st.grids[s],
                                self_index: st.local_of[global] as usize,
                                remap: Some(&st.clouds[s].members),
                                cache_key: s as u32,
                            })
                        }
                        None => global_grid.map(|grid| GridView {
                            grid,
                            self_index: global,
                            remap: None,
                            cache_key: u32::MAX,
                        }),
                    };
                    // A fresh agent: its queries stage a new shell, and
                    // only when it will run a mechanics pass (a staging
                    // hint; the pass itself asks again after the
                    // behaviors).
                    exec.start_agent();
                    let mechanics = enable_mechanics && agent.participates_in_mechanics();
                    let mut actx = AgentContext {
                        exec,
                        env,
                        snapshot,
                        grid,
                        mm,
                        diffusion,
                        alloc_domain: worker.domain,
                        self_handle: crate::agent::AgentHandle::new(domain, i),
                        self_global: global,
                        shell_radius: mechanics.then_some(shell),
                        dt,
                        iteration,
                        rng: agent_rng(seed, uid, iteration),
                        uid_seq: 0,
                        self_uid: uid,
                    };
                    run_behaviors(agent, &mut actx);
                    if enable_mechanics && agent.participates_in_mechanics() {
                        run_mechanics(agent, flags, global, violations_ref, &mut actx, mech_ref);
                    }
                }
            };
        let block = self.param.iteration_block_size;
        if self.param.numa_aware_iteration {
            self.pool.numa_for(&sizes, block, &body);
        } else {
            let total: usize = sizes.iter().sum();
            self.pool.parallel_for(total, block, &|w, range| {
                for_each_domain_range(&offsets, range, &|domain, r| body(w, domain, r))
            });
        }
    }

    /// Applies queued secretions to the diffusion grids on the pool, chunk
    /// by chunk in ascending key: every voxel receives its additions in
    /// agent order, so the grids do not depend on which worker ran a chunk.
    fn apply_secretions(&mut self) {
        let mut chunks = Vec::new();
        for ctx in &self.ctxs {
            let marks = &ctx.secretion_chunks;
            debug_assert!(marks.first().is_none_or(|&(_, offset)| offset == 0));
            for (k, &(key, offset)) in marks.iter().enumerate() {
                let end = marks.get(k + 1).map_or(ctx.secretions.len(), |m| m.1);
                chunks.push((key, &ctx.secretions[offset..end]));
            }
        }
        chunks.sort_unstable_by_key(|&(key, _)| key);
        let batches: Vec<&[Secretion]> = chunks.into_iter().map(|(_, batch)| batch).collect();
        bdm_diffusion::apply_secretions(&mut self.diffusion, &batches, Some(&self.pool));
        for ctx in &mut self.ctxs {
            ctx.secretions.clear();
            ctx.secretion_chunks.clear();
        }
    }

    /// Applies deferred mutations of other agents (serial; rare).
    fn apply_deferred(&mut self) {
        for t in 0..self.ctxs.len() {
            let deferred = std::mem::take(&mut self.ctxs[t].deferred);
            for (handle, f) in deferred {
                f(self.rm.agent_mut(handle));
            }
        }
    }
}

/// Builds the default operation pipeline of Algorithm 1 from a parameter
/// set. The optimization switches of [`Param`] (and thus
/// [`OptLevel::apply_opt_level`](crate::param::OptLevel)) map onto the
/// built-in operations: `agent_sort_frequency` becomes the `agent_sorting`
/// op's frequency/enablement, `detect_static_agents` and
/// `enable_mechanics` configure the `agent_ops` kernel, and
/// `parallel_add_remove` configures `teardown`.
fn default_scheduler(param: &Param) -> Scheduler {
    let mut scheduler = Scheduler::new();
    // Between snapshot and index rebuild: the exchange partitions the
    // fresh snapshot; `environment_update` then builds the K shard grids
    // instead of the global index. Registered for every configuration (a
    // no-op at K == 1) so the pipeline shape — and hence the checkpoint's
    // scheduler section — is independent of the shard count and a
    // checkpoint restores into any K.
    scheduler.add_op(SnapshotOp);
    scheduler.add_op(HaloExchangeOp);
    scheduler.add_op(EnvironmentOp);
    scheduler.add_op(AgentOp);
    scheduler.add_op(DiffusionOp);
    scheduler.add_op(TeardownOp);
    scheduler.add_op(SortingOp);
    match param.agent_sort_frequency {
        Some(freq) if freq > 0 => {
            scheduler.set_frequency(builtin::AGENT_SORTING, freq as u64);
        }
        _ => {
            scheduler.set_enabled(builtin::AGENT_SORTING, false);
        }
    }
    if let Some(every) = param.health_check_every {
        // Last Post stage: scans the committed state of the iteration.
        // Driven by Param so checkpoint restore re-creates the same
        // pipeline from the restored parameters alone.
        // The scheduler clamps the frequency to ≥ 1.
        scheduler.add_op(HealthCheckOp { frequency: every });
    }
    scheduler
}

/// Translates a global-index range into per-domain ranges (used when NUMA
/// awareness is off and the flat iterator hands out global ranges).
fn for_each_domain_range(
    offsets: &[usize],
    range: std::ops::Range<usize>,
    f: &dyn Fn(usize, std::ops::Range<usize>),
) {
    let mut start = range.start;
    while start < range.end {
        let (d, local_start) = split_global(offsets, start);
        let end = range.end.min(offsets[d + 1]);
        f(d, local_start..local_start + (end - start));
        start = end;
    }
}
