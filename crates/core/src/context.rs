//! Execution contexts: thread-local deferred operations and the per-agent
//! view handed to behaviors.
//!
//! BioDynaMo's `InPlaceExecutionContext` buffers agent additions and removals
//! thread-locally and commits them at the end of each iteration (paper
//! Section 3.2). We do the same, and additionally route *all* neighbor reads
//! through a per-iteration [`Snapshot`] (position, diameter, user payload of
//! every agent). The snapshot is immutable during the agent-operation phase,
//! which makes concurrent neighbor access data-race-free in safe Rust while
//! preserving the paper's locality properties: the snapshot is indexed by
//! agent index, so agent sorting (Section 4.2) aligns spatial locality with
//! memory locality for neighbor reads exactly as it does for the original's
//! pointer-chasing reads.
//!
//! The snapshot is a **structure of arrays** (paper Section 4, Figure 9/11:
//! memory-layout optimizations dominate end-to-end performance): parallel
//! `positions` / `diameters` / `payloads` arrays instead of one array of
//! 40-byte records. A neighbor visit streams positions from the index's
//! contiguous runs and loads `diameters[idx]` / `payloads[idx]` *lazily* —
//! only for accepted neighbors, and only when the kernel calls the
//! accessor. Every snapshot gathers all three arrays, so any operation may
//! read any neighbor attribute without declaring it, as in the paper's
//! Algorithm 1.

use bdm_alloc::MemoryManager;
use bdm_diffusion::{DiffusionGrid, Secretion};
use bdm_env::{Environment, NeighborQueryScratch, PointCloud, StencilRuns, UniformGridEnvironment};
use bdm_util::{Real3, SimRng};

use crate::agent::{new_agent_box, Agent, AgentBox, AgentHandle, AgentUid};
use crate::resource_manager::split_global;
use crate::rng_stream;

/// Immutable per-iteration snapshot of all agents (domain-major order, same
/// indexing as the environment's point cloud), stored as a structure of
/// arrays: the gather writes each array in one contiguous stream, and a
/// neighbor read touches only the arrays whose accessor the kernel calls.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Position of every agent at the start of the iteration. Doubles as
    /// the environment rebuild's point cloud (24-byte stride, no virtual
    /// call via [`bdm_env::PointCloud::positions_slice`]).
    pub positions: Vec<Real3>,
    /// Diameter of every agent at the start of the iteration (parallel to
    /// `positions`).
    pub diameters: Vec<f64>,
    /// User payload ([`Agent::payload`]) of every agent, parallel to
    /// `positions`.
    pub payloads: Vec<u64>,
    /// Start offset of each domain within the arrays (plus a final total).
    pub offsets: Vec<usize>,
    /// Largest agent diameter (drives the default interaction radius).
    pub max_diameter: f64,
    /// Axis-aligned bounds of all snapshot positions, computed during the
    /// gather. `environment_update` passes them to the index rebuild so the
    /// grid skips its own bounding pass over the cloud.
    pub bounds: Option<(Real3, Real3)>,
}

impl Snapshot {
    /// Global index of `(domain, local index)`.
    #[inline]
    pub fn global_index(&self, domain: usize, local: usize) -> usize {
        self.offsets[domain] + local
    }

    /// Inverse of [`Snapshot::global_index`].
    #[inline]
    pub fn split_index(&self, global: usize) -> (usize, usize) {
        split_global(&self.offsets, global)
    }

    /// Number of agents in the snapshot.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Heap bytes of the gathered arrays, per the SoA layout. The Figure
    /// 5/9/11 harness reports this instead of assuming a record size.
    pub fn memory_bytes(&self) -> usize {
        self.positions.len() * std::mem::size_of::<Real3>()
            + self.diameters.len() * std::mem::size_of::<f64>()
            + self.payloads.len() * std::mem::size_of::<u64>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }
}

/// The snapshot viewed as a point cloud — what neighbor searches during the
/// agent-operation phase read positions from.
pub struct SnapshotCloud<'a>(pub &'a Snapshot);

impl PointCloud for SnapshotCloud<'_> {
    fn len(&self) -> usize {
        self.0.positions.len()
    }
    fn position(&self, idx: usize) -> Real3 {
        self.0.positions[idx]
    }
    fn positions_slice(&self) -> Option<&[Real3]> {
        Some(&self.0.positions)
    }
    fn diameters(&self) -> Option<&[f64]> {
        // Feeds the uniform grid's conditional diameter scatter: the grid
        // copies these bitwise next to its box-sorted query slots when the
        // engine's update hint requests it.
        Some(&self.0.diameters)
    }
}

/// One accepted neighbor, handed to [`AgentContext::for_each_neighbor`]
/// callbacks.
///
/// The position is carried **by value** — the neighbor index streamed it
/// from its contiguous SoA run for the distance test, so reading it costs
/// nothing. Diameter and payload are **lazy**: each accessor loads from the
/// snapshot's dense array only when called, so a kernel that ignores a
/// field never touches its array.
#[derive(Clone, Copy)]
pub struct Neighbor<'a> {
    snapshot: &'a Snapshot,
    index: usize,
    position: Real3,
}

impl Neighbor<'_> {
    /// Global (environment/snapshot) index of the neighbor.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Position at the start of the iteration (already streamed by the
    /// index; no snapshot load).
    #[inline]
    pub fn position(&self) -> Real3 {
        self.position
    }

    /// Diameter at the start of the iteration (one lazy 8-byte load).
    #[inline]
    pub fn diameter(&self) -> f64 {
        self.snapshot.diameters[self.index]
    }

    /// User payload ([`Agent::payload`]) at the start of the iteration
    /// (one lazy 8-byte load).
    #[inline]
    pub fn payload(&self) -> u64 {
        self.snapshot.payloads[self.index]
    }
}

/// A deferred mutation of another agent, applied at the end of the iteration.
pub(crate) type DeferredFn = Box<dyn FnOnce(&mut dyn Agent) + Send>;

/// Thread-local buffered effects of one iteration.
///
/// Aligned to two cache lines so that no two workers' contexts share one:
/// the agent phase writes its context's counters and queue headers for
/// every agent, and sharing a line with a neighbour's measured ≈ 7% on
/// the agent phase of `cell_clustering` (docs/PERFORMANCE.md, "Diffusion").
#[derive(Default)]
#[repr(align(128))]
pub struct ExecutionContext {
    /// New agents per target NUMA domain.
    pub(crate) new_agents: Vec<Vec<AgentBox>>,
    /// Agents to remove (handles valid until commit).
    pub(crate) removals: Vec<AgentHandle>,
    /// Deferred mutations of other agents.
    pub(crate) deferred: Vec<(AgentHandle, DeferredFn)>,
    /// Queued substance secretions, resolved to their voxel.
    pub(crate) secretions: Vec<Secretion>,
    /// One mark per agent-phase chunk that secreted: `((iteration, global
    /// index of the chunk's first agent), offset of its first entry in
    /// `secretions`)`. A chunk's agents run in ascending index, so applying
    /// the chunks in ascending key applies every voxel's additions in agent
    /// order, whichever worker ran or stole each chunk.
    pub(crate) secretion_chunks: Vec<((u64, usize), usize)>,
    /// Key of the running chunk until its first secretion marks it.
    pub(crate) open_chunk: Option<(u64, usize)>,
    /// Mechanics statistics: force calculations executed.
    pub(crate) force_calculations: u64,
    /// Mechanics statistics: force calculations served by the box-batched
    /// grid route (vs the generic neighbor query).
    pub(crate) batched_force_queries: u64,
    /// Mechanics statistics: agents skipped as static (paper Section 5).
    pub(crate) static_skipped: u64,
    /// Mechanics statistics: computed passes that ended settled — the
    /// agents a static-detection pass flags static (counted with detection
    /// down too, for the duty cycle).
    pub(crate) static_candidates: u64,
    /// Mechanics statistics: movers whose static-detection wake around the
    /// new position was served by the force scan's shell instead of a
    /// second neighbor query.
    pub(crate) shell_wakes: u64,
    /// Mechanics statistics: force scans served by the shell a behavior's
    /// neighbor query of the same agent had staged.
    pub(crate) shell_reuses: u64,
    /// Non-finite force accumulations observed by the mechanics kernel
    /// (folded into a typed health violation after the agent phase).
    pub(crate) nonfinite_forces: u64,
    /// Reusable neighbor-query scratch: queries issued through this thread's
    /// [`AgentContext`] allocate nothing in steady state.
    pub(crate) query_scratch: NeighborQueryScratch,
    /// The candidate shell staged for the running agent, if any. The
    /// agent's first grid query stages it — a behavior's
    /// [`AgentContext::for_each_neighbor`] or, failing that, the force scan
    /// [`AgentContext::for_each_neighbor_mech`] — and every later query of
    /// the agent at the bitwise-same position within the shell reuses it:
    /// the behaviors' queries, the force scan, then
    /// [`AgentContext::wake_from_shell`]. Only agents that run a mechanics
    /// pass stage; [`ExecutionContext::start_agent`] forgets the list before
    /// each agent.
    pub(crate) mech_shell: MechShell,
    /// One-entry cache of the box-batched mechanics path: the resolved
    /// stencil runs of the last queried box. All agents resident in one box
    /// share the same ≤9 runs, and after the Morton sort consecutive agents
    /// of a worker usually share a box — so most per-agent stencil
    /// derivations collapse into a three-word compare.
    pub(crate) mech_stencil: StencilCache,
}

/// See [`ExecutionContext::mech_stencil`].
#[derive(Default)]
pub(crate) struct StencilCache {
    /// Grid build the cached runs were resolved against
    /// ([`bdm_env::UniformGridEnvironment::build_count`]; 0 = nothing
    /// cached, the grid's count starts at 1).
    build: u64,
    /// Box coordinates the runs belong to.
    bc: [u32; 3],
    /// [`GridView::cache_key`] of the grid the runs were resolved against.
    /// The K shard grids have *independent* build counters, so `(build,
    /// bc)` alone could collide across them.
    key: u32,
    /// The resolved runs.
    runs: StencilRuns,
}

/// See [`ExecutionContext::mech_shell`].
#[derive(Default)]
pub(crate) struct MechShell {
    /// `(slot, d²)` of every stencil candidate within the shell radius, in
    /// scan order; only `..len` is valid. Never shorter than the cached
    /// stencil's candidate count, so the compaction stores unconditionally.
    entries: Vec<(u32, f64)>,
    len: usize,
    /// What `..len` was staged for; `None` when nothing is staged for the
    /// running agent.
    key: Option<ShellKey>,
}

impl MechShell {
    /// The staged `(slot, d²)` list, in stencil scan order.
    #[inline]
    fn staged(&self) -> &[(u32, f64)] {
        &self.entries[..self.len]
    }
}

/// Identity of a staged shell: a list serves only the bitwise position,
/// the shell radius, the grid view and the grid build it was compacted
/// for — and only the agent it was staged for, because
/// [`ExecutionContext::start_agent`] drops the key before the next one.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ShellKey {
    /// Bits of the scanned position.
    pos: [u64; 3],
    /// Bits of the shell radius.
    shell: u64,
    /// [`GridView::cache_key`] of the scanned grid.
    view: u32,
    /// [`UniformGridEnvironment::build_count`] of the scanned grid.
    build: u64,
}

impl ExecutionContext {
    /// Creates a context for `num_domains` NUMA domains.
    pub fn new(num_domains: usize) -> ExecutionContext {
        ExecutionContext {
            new_agents: (0..num_domains).map(|_| Vec::new()).collect(),
            ..ExecutionContext::default()
        }
    }

    /// Number of queued new agents.
    pub fn pending_additions(&self) -> usize {
        self.new_agents.iter().map(Vec::len).sum()
    }

    /// Number of queued removals.
    pub fn pending_removals(&self) -> usize {
        self.removals.len()
    }

    /// Queues a pre-built agent for insertion into `domain` (used by tests
    /// and the benchmark harness; behaviors use `AgentContext::new_agent`).
    pub fn queue_new_agent(&mut self, domain: usize, agent: AgentBox) {
        self.new_agents[domain].push(agent);
    }

    /// Queues a removal (used by tests and the benchmark harness).
    pub fn queue_removal(&mut self, handle: AgentHandle) {
        self.removals.push(handle);
    }

    /// Forgets the staged shell before the next agent runs on this worker:
    /// a list never serves another agent.
    #[inline]
    pub(crate) fn start_agent(&mut self) {
        self.mech_shell.key = None;
    }
}

/// The uniform grid the current agent's neighbor queries run against,
/// resolved once per agent: the global index, or under sharded execution
/// (see [`crate::sharded`]) the owning shard's windowed grid — which is the
/// same view with a `remap`, not a second code path. Shard-local indices are
/// remapped to global ones before any kernel sees them, so behaviors and
/// forces are shard-oblivious.
#[derive(Clone, Copy)]
pub(crate) struct GridView<'a> {
    /// The grid to query.
    pub grid: &'a UniformGridEnvironment,
    /// Index of the current agent in `grid`'s cloud (the self-exclusion).
    pub self_index: usize,
    /// Grid-cloud index → global index (a shard's ascending member list);
    /// `None` when the grid indexes the global cloud.
    pub remap: Option<&'a [u32]>,
    /// Discriminates grids in the per-worker stencil cache: the shard id,
    /// or `u32::MAX` for the global grid.
    pub cache_key: u32,
}

impl GridView<'_> {
    /// Global index of the grid-cloud index `idx`.
    #[inline]
    fn global(&self, idx: usize) -> usize {
        match self.remap {
            Some(members) => members[idx] as usize,
            None => idx,
        }
    }
}

/// Everything a behavior may touch while its agent is being processed.
pub struct AgentContext<'a> {
    pub(crate) exec: &'a mut ExecutionContext,
    pub(crate) env: &'a dyn Environment,
    pub(crate) snapshot: &'a Snapshot,
    /// The uniform grid serving this agent's queries; `None` when `env` is
    /// a kd-tree, octree or brute-force index.
    pub(crate) grid: Option<GridView<'a>>,
    pub(crate) mm: &'a MemoryManager,
    pub(crate) diffusion: &'a [DiffusionGrid],
    /// NUMA domain new agents are allocated on (the worker's domain).
    pub(crate) alloc_domain: usize,
    /// Handle of the agent currently being processed.
    pub(crate) self_handle: AgentHandle,
    /// Global index of the agent currently being processed.
    pub(crate) self_global: usize,
    /// Shell radius of the agent's mechanics pass
    /// ([`crate::ops::MechanicsConfig::shell_radius`]) while its behaviors
    /// run; `None` for an agent without one, whose queries do not stage,
    /// and from the start of the mechanics pass on.
    pub(crate) shell_radius: Option<f64>,
    /// Simulation time step.
    pub dt: f64,
    /// Current iteration (1-based).
    pub iteration: u64,
    /// Deterministic per-(agent, iteration) random stream: identical results
    /// regardless of thread count or work stealing.
    pub rng: SimRng,
    /// Sequence number for deterministic child-uid derivation.
    pub(crate) uid_seq: u64,
    pub(crate) self_uid: AgentUid,
}

impl<'a> AgentContext<'a> {
    /// Handle of the current agent.
    pub fn self_handle(&self) -> AgentHandle {
        self.self_handle
    }

    /// The simulation's memory manager (for manual agent construction, e.g.
    /// cell division placing daughter behaviors in pool memory).
    pub fn memory_manager(&self) -> &'a MemoryManager {
        self.mm
    }

    /// The NUMA domain new agents created by this context land on.
    pub fn alloc_domain(&self) -> usize {
        self.alloc_domain
    }

    /// Translates a global (environment/snapshot) index into
    /// `(domain, local index)` — e.g. to build an [`AgentHandle`] for
    /// [`AgentContext::defer_on_agent`].
    pub fn split_global(&self, global: usize) -> (usize, usize) {
        self.snapshot.split_index(global)
    }

    /// Global (environment) index of the current agent.
    pub fn self_index(&self) -> usize {
        self.self_global
    }

    /// Visits every neighbor within `radius` of `pos`, excluding the current
    /// agent. The callback receives `(global index, neighbor, distance²)` —
    /// all reads go to the immutable snapshot, never to live agents. The
    /// [`Neighbor`] view carries the position the index already streamed
    /// from its contiguous slot run; diameter/payload load lazily, only when
    /// the kernel calls the accessor. Queries reuse this thread's
    /// [`NeighborQueryScratch`], so they allocate nothing in steady state
    /// (hence `&mut self`).
    ///
    /// On the uniform grid, an agent that will run a mechanics pass serves
    /// the query from its staged shell (`ExecutionContext::mech_shell`):
    /// the first query stages the force scan's candidate list around `pos`,
    /// and this query, the agent's later ones at the same position and the
    /// force scan itself filter that list by their own `d²` instead of
    /// rescanning the stencil. Every other agent — and any radius beyond
    /// the shell — takes the direct stencil query: staging costs a
    /// compaction that pays off only when a force scan reuses it, and
    /// staging every query bought `epidemiology`, which runs no mechanics,
    /// nothing (docs/PERFORMANCE.md, "One neighbourhood scan per agent").
    /// Both routes visit bitwise the same `(index, position, d²)` sequence.
    pub fn for_each_neighbor(
        &mut self,
        pos: Real3,
        radius: f64,
        mut f: impl FnMut(usize, Neighbor<'_>, f64),
    ) {
        let snapshot = self.snapshot;
        let mut visit = |index: usize, position: Real3, d2: f64| {
            let neighbor = Neighbor {
                snapshot,
                index,
                position,
            };
            f(index, neighbor, d2)
        };
        if let Some(view) = self.grid {
            // The kernel closure monomorphizes straight into the nine-run
            // scan — no virtual call per query or per neighbor (the
            // dominant cost at 10⁶ agents). A shard grid holds exactly the
            // within-radius agents the global grid holds (halo
            // completeness) in the same relative order (ascending-global
            // member insertion), so its remapped visit sequence is bitwise
            // that of the single-engine query.
            match self.stage_shell_for(view, radius) {
                Some(shell) => {
                    self.stage(view, pos, shell);
                    let slots = view.grid.slots();
                    let r2 = radius * radius;
                    for &(i, d2) in self.exec.mech_shell.staged() {
                        if d2 <= r2 {
                            let s = &slots[i as usize];
                            visit(view.global(s.index as usize), s.position, d2);
                        }
                    }
                }
                None => view.grid.for_each_neighbor_soa(
                    pos,
                    Some(view.self_index),
                    radius,
                    |idx, p, d2| visit(view.global(idx), p, d2),
                ),
            }
        } else {
            self.env.for_each_neighbor(
                &SnapshotCloud(snapshot),
                pos,
                Some(self.self_global),
                radius,
                &mut self.exec.query_scratch,
                &mut visit,
            );
        }
    }

    /// The shell a grid query of `radius` stages, or `None` when it takes
    /// the direct route: the agent runs no mechanics pass, the force scan
    /// will not take the grid route (unscattered diameters), or `radius`
    /// lies beyond the shell or the build radius (where the direct query
    /// asserts).
    #[inline]
    fn stage_shell_for(&self, view: GridView<'_>, radius: f64) -> Option<f64> {
        let shell = self.shell_radius?;
        (radius * radius <= shell * shell
            && view.grid.radius_within_build(radius)
            && view.grid.scattered_diameters().is_some())
        .then_some(shell)
    }

    /// Stages the shell around `pos` in [`ExecutionContext::mech_shell`]
    /// unless the running agent already staged it for the bitwise-same
    /// position, shell radius, grid view and build; returns whether the
    /// staged list was reused.
    ///
    /// * the ≤9 **stencil runs** come from this worker's one-entry cache —
    ///   every agent resident in the same box reuses the same row offsets
    ///   ([`ExecutionContext::mech_stencil`]);
    /// * the list is a **branchless compaction**: one bounds-check-free
    ///   pass over the runs' interleaved 32-byte slots stores `(slot, d²)`
    ///   of every candidate and advances the write cursor by
    ///   `d² ≤ shell² && not self` — no data-dependent branch in the scan.
    ///   (Compacting with a branchy `Vec::push` instead made `oncology`
    ///   `agent_ops` at 10⁵ agents 23% *slower*, 0.067–0.070 → 0.083–0.084 s.)
    ///
    /// The candidates, their scan order, their `d²` expression and the
    /// self-exclusion are those of
    /// [`UniformGridEnvironment::for_each_neighbor_soa`], so filtering the
    /// list by `d² ≤ r²` for any `r ≤ shell` visits bitwise what that query
    /// visits.
    ///
    /// Kept out of line: inlined into every `for_each_neighbor` instance,
    /// it read `epidemiology` — which never stages — 4–8% slower per
    /// iteration (bench/baselines/AB_39.txt).
    #[inline(never)]
    fn stage(&mut self, view: GridView<'_>, pos: Real3, shell: f64) -> bool {
        let grid = view.grid;
        let build = grid.build_count();
        let key = ShellKey {
            pos: [0, 1, 2].map(|a| pos[a].to_bits()),
            shell: shell.to_bits(),
            view: view.cache_key,
            build,
        };
        let exec = &mut *self.exec;
        let out = &mut exec.mech_shell;
        if out.key == Some(key) {
            return true;
        }
        let slots = grid.slots();
        let bc = grid.box_coordinates(pos);
        let cache = &mut exec.mech_stencil;
        if cache.build != build || cache.bc != bc || cache.key != view.cache_key {
            *cache = StencilCache {
                build,
                bc,
                key: view.cache_key,
                runs: grid.stencil_runs(bc),
            };
            let candidates = cache
                .runs
                .runs()
                .iter()
                .map(|&(s, e)| (e - s) as usize)
                .sum();
            if out.entries.len() < candidates {
                out.entries.resize(candidates, (0, 0.0));
            }
        }
        let shell2 = shell * shell;
        let mut len = 0;
        for &(start, end) in cache.runs.runs() {
            debug_assert!(end as usize <= slots.len());
            for i in start..end {
                // SAFETY: stencil runs are produced by the grid that owns
                // `slots` for the same build (checked via `build_count`
                // above), so `start..end` indexes in bounds.
                let s = unsafe { slots.get_unchecked(i as usize) };
                let d2 = pos.distance_sq(&s.position);
                // SAFETY: `len` never exceeds the stores already made in
                // this scan, so it stays below the cached stencil's
                // candidate count, which `entries` was grown to when the
                // runs were cached.
                unsafe { *out.entries.get_unchecked_mut(len) = (i, d2) };
                len += usize::from((d2 <= shell2) & (s.index as usize != view.self_index));
            }
        }
        out.len = len;
        out.key = Some(key);
        false
    }

    /// Box-batched mechanics neighbor scan — the grid query of
    /// [`AgentContext::for_each_neighbor`] specialized for the force
    /// kernel. The visitor receives `(position, diameter, distance²)` of
    /// every neighbor within `radius`, in scan order, from the agent's
    /// staged shell: the list a behavior's query of this agent staged at
    /// the bitwise-same position is reused (counted in `shell_reuses`);
    /// otherwise this scan stages it (see `AgentContext::stage`). The
    /// **diameter** streams from the grid's box-sorted scatter (a bitwise
    /// copy of `snapshot.diameters[index]`) instead of a random
    /// per-neighbor gather.
    ///
    /// `shell ≥ radius` is the reach the caller needs beyond the force:
    /// the list stays in [`ExecutionContext::mech_shell`] for
    /// [`AgentContext::wake_from_shell`], so a static-detection mover does
    /// not query its neighborhood a second time.
    ///
    /// Visit order, the visited set, and every visited value are bitwise
    /// those of the generic query (same shared stencil traversal, the
    /// same `d²` expression, copied diameters). Returns `false` without
    /// visiting anything when the batched path cannot serve the query —
    /// non-grid environment, diameters not scattered this iteration, or a
    /// radius beyond the build radius — and the caller falls back to
    /// [`AgentContext::for_each_neighbor`] plus the lazy diameter load.
    pub(crate) fn for_each_neighbor_mech(
        &mut self,
        pos: Real3,
        radius: f64,
        shell: f64,
        f: &mut impl FnMut(Real3, f64, f64),
    ) -> bool {
        debug_assert!(shell >= radius, "the shell must contain the radius");
        let Some(view) = self.grid else {
            return false;
        };
        let grid = view.grid;
        if !grid.radius_within_build(radius) {
            return false;
        }
        let Some(diameters) = grid.scattered_diameters() else {
            return false;
        };
        let reused = self.stage(view, pos, shell);
        self.exec.shell_reuses += u64::from(reused);
        let slots = grid.slots();
        debug_assert_eq!(diameters.len(), slots.len());
        let r2 = radius * radius;
        for &(i, d2) in self.exec.mech_shell.staged() {
            if d2 <= r2 {
                // SAFETY: `i` was staged from this grid's stencil runs —
                // the key matched its view and build, and a key never
                // outlives its agent — and `diameters` is scattered
                // alongside `slots` in the same rebuild pass and has the
                // same length (debug-asserted above).
                let (s, diameter) = unsafe {
                    (
                        slots.get_unchecked(i as usize),
                        *diameters.get_unchecked(i as usize),
                    )
                };
                f(s.position, diameter, d2);
            }
        }
        true
    }

    /// The static-detection wake of the running agent, served from the
    /// shell its mechanics scan ([`AgentContext::for_each_neighbor_mech`])
    /// staged or reused: raises every shell agent
    /// within `radius` of the scanned position and — when `moved_to` lies in
    /// the scanned box — every one within `radius` of `moved_to`.
    ///
    /// A query around `moved_to` would scan the same stencil runs, accept
    /// with the same `d²` expression and exclude the same self index, so
    /// the raised set equals the old-neighborhood set plus that query's,
    /// provided the caller only passes a `moved_to` the shell radius covers
    /// (every candidate within `radius` of it is within the shell of the
    /// scanned position). Returns whether `moved_to` was served; when it
    /// was not, the caller queries around it.
    pub(crate) fn wake_from_shell(
        &self,
        radius: f64,
        moved_to: Option<Real3>,
        mut raise: impl FnMut(usize),
    ) -> bool {
        let view = self
            .grid
            .expect("a mechanics shell is only kept on the grid path");
        let slots = view.grid.slots();
        let shell = &self.exec.mech_shell;
        debug_assert!(shell.key.is_some(), "the wake follows the force scan");
        let entries = shell.staged();
        let r2 = radius * radius;
        let moved_to =
            moved_to.filter(|&p| view.grid.box_coordinates(p) == self.exec.mech_stencil.bc);
        for &(i, d2) in entries {
            let s = &slots[i as usize];
            if d2 <= r2 || moved_to.is_some_and(|p| p.distance_sq(&s.position) <= r2) {
                raise(view.global(s.index as usize));
            }
        }
        moved_to.is_some()
    }

    /// Counts neighbors within `radius` of `pos` satisfying `pred`.
    pub fn count_neighbors(
        &mut self,
        pos: Real3,
        radius: f64,
        mut pred: impl FnMut(Neighbor<'_>) -> bool,
    ) -> usize {
        let mut n = 0;
        self.for_each_neighbor(pos, radius, |_, d, _| {
            if pred(d) {
                n += 1;
            }
        });
        n
    }

    /// Derives a fresh deterministic uid for a child of the current agent.
    pub fn next_uid(&mut self) -> AgentUid {
        let mut s = self.self_uid.0 ^ self.iteration.wrapping_mul(0xD1B5_4A32_D192_ED03);
        s = s.wrapping_add(self.uid_seq.wrapping_mul(0xA076_1D64_78BD_642F));
        self.uid_seq += 1;
        AgentUid(bdm_util::rng::splitmix64(&mut s))
    }

    /// Queues a new agent for insertion at the end of the iteration
    /// (committed with the parallel addition of paper Section 3.2).
    pub fn new_agent<A: Agent + 'static>(&mut self, agent: A) {
        let boxed = new_agent_box(agent, self.mm, self.alloc_domain);
        self.exec.new_agents[self.alloc_domain].push(boxed);
    }

    /// Queues the current agent for removal.
    pub fn remove_self(&mut self) {
        self.exec.removals.push(self.self_handle);
    }

    /// Queues removal of an arbitrary agent (must not be queued twice in the
    /// same iteration).
    pub fn remove_agent(&mut self, handle: AgentHandle) {
        self.exec.removals.push(handle);
    }

    /// Defers a mutation of another agent; applied serially at the end of
    /// the iteration, before removals.
    pub fn defer_on_agent(
        &mut self,
        handle: AgentHandle,
        f: impl FnOnce(&mut dyn Agent) + Send + 'static,
    ) {
        self.exec.deferred.push((handle, Box::new(f)));
    }

    /// Read access to a diffusion grid by index (as registered on the
    /// simulation).
    pub fn substance(&self, grid: usize) -> &DiffusionGrid {
        &self.diffusion[grid]
    }

    /// Number of registered diffusion grids.
    pub fn num_substances(&self) -> usize {
        self.diffusion.len()
    }

    /// Queues a secretion of `amount` into grid `grid` at `pos` (applied
    /// before the diffusion step of this iteration, in agent order). The
    /// voxel is resolved here, so the queue holds 16 bytes per secretion.
    pub fn secrete(&mut self, grid: usize, pos: Real3, amount: f64) {
        let voxel = self.diffusion[grid].box_index(pos) as u32;
        let exec = &mut *self.exec;
        if let Some(key) = exec.open_chunk.take() {
            exec.secretion_chunks.push((key, exec.secretions.len()));
        }
        exec.secretions.push(Secretion {
            grid: grid as u32,
            voxel,
            amount,
        });
    }
}

/// Builds the per-(agent, iteration) RNG stream.
pub(crate) fn agent_rng(seed: u64, uid: AgentUid, iteration: u64) -> SimRng {
    rng_stream(seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15), uid.0)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::sharded::tests::snapshot_with;

    fn snapshot(offsets: Vec<usize>, n: usize) -> Snapshot {
        Snapshot {
            positions: vec![Real3::ZERO; n],
            diameters: vec![0.0; n],
            payloads: vec![0; n],
            offsets,
            max_diameter: 10.0,
            bounds: None,
        }
    }

    #[test]
    fn global_and_split_index_roundtrip() {
        // Two domains: 5 and 3 agents.
        let s = snapshot(vec![0, 5, 8], 8);
        for (domain, local, global) in [(0, 0, 0), (0, 4, 4), (1, 0, 5), (1, 2, 7)] {
            assert_eq!(s.global_index(domain, local), global);
            assert_eq!(s.split_index(global), (domain, local));
        }
    }

    #[test]
    fn split_index_single_domain() {
        let s = snapshot(vec![0, 4], 4);
        assert_eq!(s.split_index(3), (0, 3));
    }

    #[test]
    fn split_index_with_empty_middle_domain() {
        let s = snapshot(vec![0, 2, 2, 5], 5);
        assert_eq!(s.split_index(1), (0, 1));
        // Global 2 belongs to domain 2 (domain 1 is empty).
        assert_eq!(s.split_index(2), (2, 0));
        assert_eq!(s.split_index(4), (2, 2));
    }

    #[test]
    fn neighbor_view_loads_lazily() {
        let mut s = snapshot(vec![0, 2], 2);
        s.diameters[1] = 7.5;
        s.payloads[1] = 42;
        let n = Neighbor {
            snapshot: &s,
            index: 1,
            position: Real3::new(1.0, 2.0, 3.0),
        };
        assert_eq!(n.index(), 1);
        assert_eq!(n.position(), Real3::new(1.0, 2.0, 3.0));
        assert_eq!(n.diameter(), 7.5);
        assert_eq!(n.payload(), 42);
    }

    #[test]
    fn snapshot_memory_counts_only_gathered_arrays() {
        let s = snapshot(vec![0, 4], 4);
        assert_eq!(
            s.memory_bytes(),
            4 * (std::mem::size_of::<Real3>() + 2 * std::mem::size_of::<u64>())
                + 2 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn execution_context_counters() {
        let ctx = ExecutionContext::new(2);
        assert_eq!(ctx.pending_additions(), 0);
        assert_eq!(ctx.pending_removals(), 0);
        assert_eq!(ctx.new_agents.len(), 2);
    }

    fn scatter_hint(snapshot: &Snapshot) -> bdm_env::UpdateHint<'static> {
        bdm_env::UpdateHint {
            known_bounds: snapshot.bounds,
            scatter_diameters: true,
            ..bdm_env::UpdateHint::default()
        }
    }

    /// The grid built over `snapshot` as the engine builds it with
    /// mechanics on (diameters scattered).
    fn scattered_grid(snapshot: &Snapshot, radius: f64) -> UniformGridEnvironment {
        let mut grid = UniformGridEnvironment::new();
        grid.update_with(&SnapshotCloud(snapshot), radius, scatter_hint(snapshot));
        grid
    }

    /// The context `run_agent_ops` hands agent `global` (no behavior
    /// state), querying `grid`; `shell_radius` says whether it stages.
    fn agent_ctx<'a>(
        exec: &'a mut ExecutionContext,
        env: &'a dyn Environment,
        snapshot: &'a Snapshot,
        mm: &'a MemoryManager,
        grid: Option<GridView<'a>>,
        global: usize,
        shell_radius: Option<f64>,
    ) -> AgentContext<'a> {
        AgentContext {
            exec,
            env,
            snapshot,
            grid,
            mm,
            diffusion: &[],
            alloc_domain: 0,
            self_handle: AgentHandle::new(0, global),
            self_global: global,
            shell_radius,
            dt: 1.0,
            iteration: 1,
            rng: agent_rng(1, AgentUid(global as u64), 1),
            uid_seq: 0,
            self_uid: AgentUid(global as u64),
        }
    }

    /// Global indices `for_each_neighbor` visits around `pos`.
    fn neighbors(ctx: &mut AgentContext<'_>, pos: Real3, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        ctx.for_each_neighbor(pos, radius, |idx, _, _| out.push(idx));
        out
    }

    /// Both mechanics routes for every `(global index, view)` pair: the
    /// shell scan visits bitwise what the generic query plus the lazy
    /// diameter load visits, in the same order, and the shell wake — plus
    /// a box crosser's second query — raises exactly the union of the
    /// generic queries around the old and the new position. Each agent
    /// moves to a random target at most `max_step` away. Returns the
    /// number of same-box and of box-crossing targets.
    fn assert_routes_agree(
        snapshot: &Snapshot,
        env: &dyn Environment,
        views: &[(usize, GridView<'_>)],
        radius: f64,
        max_step: f64,
        what: &str,
    ) -> [usize; 2] {
        let shell = (radius + max_step) * (1.0 + 1e-9);
        let mm = MemoryManager::system_only(1, 1);
        let mut exec = ExecutionContext::new(1);
        let mut rng = SimRng::new(0x5eed);
        let mut targets = [0; 2];
        for &(global, view) in views {
            let mut ctx = agent_ctx(&mut exec, env, snapshot, &mm, Some(view), global, None);
            let pos = snapshot.positions[global];
            let bits = |p: Real3, d: f64, d2: f64| [p.x(), p.y(), p.z(), d, d2].map(f64::to_bits);
            let mut generic = Vec::new();
            ctx.for_each_neighbor(pos, radius, |_, n, d2| {
                generic.push(bits(n.position(), n.diameter(), d2))
            });
            let mut mech = Vec::new();
            let served = ctx.for_each_neighbor_mech(pos, radius, shell, &mut |p, d, d2| {
                mech.push(bits(p, d, d2))
            });
            assert!(served, "{what}: agent {global} declined");
            assert_eq!(mech, generic, "{what}: agent {global}");

            let old: BTreeSet<usize> = neighbors(&mut ctx, pos, radius).into_iter().collect();
            let mut raised = BTreeSet::new();
            assert!(!ctx.wake_from_shell(radius, None, |g| {
                raised.insert(g);
            }));
            assert_eq!(raised, old, "{what}: agent {global} in place");

            let reach = max_step / 3f64.sqrt() * 0.999;
            let target = pos + rng.point_in_cube(-reach, reach);
            let mut raised = BTreeSet::new();
            let served = ctx.wake_from_shell(radius, Some(target), |g| {
                raised.insert(g);
            });
            let same_box = view.grid.box_coordinates(target) == view.grid.box_coordinates(pos);
            assert_eq!(served, same_box, "{what}: agent {global}");
            targets[usize::from(!same_box)] += 1;
            let new = neighbors(&mut ctx, target, radius);
            if !served {
                raised.extend(new.iter().copied());
            }
            let union: BTreeSet<usize> = old.union(&new.into_iter().collect()).copied().collect();
            assert_eq!(raised, union, "{what}: agent {global} to {target:?}");
        }
        targets
    }

    /// Agent `global`'s view of the global grid.
    fn global_view(grid: &UniformGridEnvironment, global: usize) -> GridView<'_> {
        GridView {
            grid,
            self_index: global,
            remap: None,
            cache_key: u32::MAX,
        }
    }

    fn global_views(grid: &UniformGridEnvironment) -> Vec<(usize, GridView<'_>)> {
        (0..grid.slots().len())
            .map(|global| (global, global_view(grid, global)))
            .collect()
    }

    fn random_scene(seed: u64, n: usize, extent: f64) -> Snapshot {
        let mut rng = SimRng::new(seed);
        let positions = (0..n).map(|_| rng.point_in_cube(0.0, extent)).collect();
        let diameters = (0..n).map(|_| rng.uniform_in(1.0, 4.0)).collect();
        snapshot_with(positions, diameters)
    }

    #[test]
    fn shell_scan_and_generic_query_agree_on_every_grid() {
        let radius = 3.0;
        // Random: crowded boxes, every stencil clamp of the grid border.
        let random = random_scene(11, 600, 24.0);
        // Lattice: every agent on a box face, spacing the radius, so the
        // `d² ≤ r²` ties sit exactly on the edge.
        let mut at = Vec::new();
        for i in 0..512 {
            at.push(Real3::new(
                (i % 8) as f64 * radius,
                (i / 8 % 8) as f64 * radius,
                (i / 64) as f64 * radius,
            ));
        }
        let lattice = snapshot_with(at, (0..512).map(|i| 2.0 + (i % 3) as f64).collect());
        for (snapshot, what) in [(&random, "random"), (&lattice, "lattice")] {
            let grid = scattered_grid(snapshot, radius);
            let targets =
                assert_routes_agree(snapshot, &grid, &global_views(&grid), radius, 1.5, what);
            assert!(targets.iter().all(|&t| t > 0), "{what}: {targets:?}");
        }

        // Coarsened: ~3·10⁵ radius-sized boxes for 60 agents, each of the
        // first 20 with a companion inside the radius.
        let mut sparse = random_scene(41, 40, 2000.0);
        for k in 0..20 {
            sparse
                .positions
                .push(sparse.positions[k] + Real3::splat(5.0));
            sparse.diameters.push(2.0);
        }
        let sparse = snapshot_with(sparse.positions, sparse.diameters);
        let grid = scattered_grid(&sparse, 30.0);
        assert!(grid.box_length() > 30.0, "the lattice must coarsen");
        let targets =
            assert_routes_agree(&sparse, &grid, &global_views(&grid), 30.0, 15.0, "sparse");
        assert!(targets[0] > 0, "sparse: {targets:?}");
    }

    #[test]
    fn shell_scan_and_generic_query_agree_on_shard_views() {
        // The random scene split in two: each agent queries its owner's
        // windowed grid with a shard-local self index and a remap.
        let radius = 3.0;
        let snapshot = random_scene(11, 600, 24.0);
        let pool = bdm_numa::NumaThreadPool::new(bdm_numa::NumaTopology::single_domain(1));
        let mut st = crate::sharded::ShardedState::new(2);
        st.exchange(&snapshot, &pool, radius, 1, 1, 3);
        st.build_grids(true, radius, snapshot.bounds, &pool);
        let views = shard_views(&st, snapshot.len());
        assert!(views.iter().any(|(g, v)| v.self_index != *g));
        let targets = assert_routes_agree(&snapshot, &st.grids[0], &views, radius, 1.5, "K = 2");
        assert!(targets.iter().all(|&t| t > 0), "K = 2: {targets:?}");
    }

    /// `(global index, position bits, d² bits)` of one visit.
    type Visit = (usize, [u64; 3], u64);

    fn position_bits(p: Real3) -> [u64; 3] {
        [p.x(), p.y(), p.z()].map(f64::to_bits)
    }

    fn visit(index: usize, p: Real3, d2: f64) -> Visit {
        (index, position_bits(p), d2.to_bits())
    }

    /// What `ctx.for_each_neighbor` visits around `pos`.
    fn visits(ctx: &mut AgentContext<'_>, pos: Real3, radius: f64) -> Vec<Visit> {
        let mut out = Vec::new();
        ctx.for_each_neighbor(pos, radius, |idx, n, d2| {
            out.push(visit(idx, n.position(), d2))
        });
        out
    }

    /// What the unstaged grid query of `view` visits around `pos`.
    fn direct(view: GridView<'_>, pos: Real3, radius: f64) -> Vec<Visit> {
        let mut out = Vec::new();
        view.grid
            .for_each_neighbor_soa(pos, Some(view.self_index), radius, |idx, p, d2| {
                out.push(visit(view.global(idx), p, d2))
            });
        out
    }

    /// Staging against both unstaged routes, for every `(global index,
    /// view)` in order with the per-agent reset between agents: a
    /// behavior query stages, a second one with a smaller radius and the
    /// force scan reuse, and the wake raises the force neighborhood — each
    /// visit sequence bitwise that of `for_each_neighbor_soa` and of the
    /// generic query on `global_grid`. A query at a moved position
    /// restages, and so does the force scan back at the first position; a
    /// radius beyond the shell takes the direct route. Returns the number
    /// of reused force scans.
    fn assert_staging_agrees(
        snapshot: &Snapshot,
        global_grid: &UniformGridEnvironment,
        views: &[(usize, GridView<'_>)],
        radius: f64,
        shell: f64,
        what: &str,
    ) -> u64 {
        let mm = MemoryManager::system_only(1, 1);
        let mut exec = ExecutionContext::new(1);
        let mut generic_exec = ExecutionContext::new(1);
        let mut generic = |global: usize, pos: Real3, r: f64| {
            let mut ctx = agent_ctx(
                &mut generic_exec,
                global_grid,
                snapshot,
                &mm,
                None,
                global,
                None,
            );
            visits(&mut ctx, pos, r)
        };
        let mut rng = SimRng::new(0x57a9e);
        for &(global, view) in views {
            let pos = snapshot.positions[global];
            let what = format!("{what}: agent {global}");
            let want = direct(view, pos, radius);
            assert_eq!(generic(global, pos, radius), want, "{what}: routes differ");

            // Beyond the shell (a shell below the build radius): direct.
            exec.start_agent();
            let mut ctx = agent_ctx(
                &mut exec,
                global_grid,
                snapshot,
                &mm,
                Some(view),
                global,
                Some(radius * 0.6),
            );
            assert_eq!(
                visits(&mut ctx, pos, radius),
                want,
                "{what}: beyond the shell"
            );
            assert!(
                ctx.exec.mech_shell.key.is_none(),
                "{what}: staged beyond the shell"
            );

            exec.start_agent();
            let mut ctx = agent_ctx(
                &mut exec,
                global_grid,
                snapshot,
                &mm,
                Some(view),
                global,
                Some(shell),
            );
            let reuses = ctx.exec.shell_reuses;
            assert_eq!(visits(&mut ctx, pos, radius), want, "{what}: staging query");
            assert!(ctx.exec.mech_shell.key.is_some(), "{what}: nothing staged");
            let half = direct(view, pos, radius * 0.5);
            assert_eq!(
                generic(global, pos, radius * 0.5),
                half,
                "{what}: routes differ"
            );
            assert_eq!(
                visits(&mut ctx, pos, radius * 0.5),
                half,
                "{what}: reusing query"
            );

            // The force scan's `(position, diameter, d²)` bits.
            let force = |want: &[Visit]| -> Vec<([u64; 3], u64, u64)> {
                want.iter()
                    .map(|&(i, p, d2)| (p, snapshot.diameters[i].to_bits(), d2))
                    .collect()
            };
            let mech = |ctx: &mut AgentContext<'_>, at: Real3| {
                let mut out = Vec::new();
                assert!(
                    ctx.for_each_neighbor_mech(at, radius, shell, &mut |p, d, d2| {
                        out.push((position_bits(p), d.to_bits(), d2.to_bits()))
                    })
                );
                out
            };
            assert_eq!(
                mech(&mut ctx, pos),
                force(&want),
                "{what}: reused force scan"
            );
            assert_eq!(
                ctx.exec.shell_reuses,
                reuses + 1,
                "{what}: force scan restaged"
            );
            let mut raised = BTreeSet::new();
            ctx.wake_from_shell(radius, None, |g| {
                raised.insert(g);
            });
            let old: BTreeSet<usize> = want.iter().map(|v| v.0).collect();
            assert_eq!(raised, old, "{what}: wake");

            // A move restages, and so does the force scan back at `pos`.
            let moved = pos + rng.point_in_cube(-0.5, 0.5);
            let want_moved = direct(view, moved, radius);
            assert_eq!(
                generic(global, moved, radius),
                want_moved,
                "{what}: routes differ"
            );
            assert_eq!(visits(&mut ctx, moved, radius), want_moved, "{what}: moved");
            assert_eq!(
                mech(&mut ctx, pos),
                force(&want),
                "{what}: force scan after a move"
            );
            assert_eq!(
                ctx.exec.shell_reuses,
                reuses + 1,
                "{what}: reused a moved list"
            );
        }
        exec.shell_reuses
    }

    /// `scene` with every even agent of the first `pairs` pairs copied bit
    /// for bit onto the odd one: consecutive agents at one position, which
    /// only the per-agent reset keeps from sharing a list.
    fn with_twins(scene: Snapshot, pairs: usize) -> Snapshot {
        let mut positions = scene.positions;
        for k in 0..pairs {
            positions[2 * k + 1] = positions[2 * k];
        }
        snapshot_with(positions, scene.diameters)
    }

    #[test]
    fn staged_queries_and_unstaged_routes_agree_on_every_grid() {
        let radius = 3.0;
        let scene = with_twins(random_scene(11, 600, 24.0), 40);
        let grid = scattered_grid(&scene, radius);
        // Detection on: the shell reaches a step beyond the radius; off:
        // the shell is the radius.
        for (shell, what) in [((radius + 1.5) * (1.0 + 1e-9), "on"), (radius, "off")] {
            let reuses =
                assert_staging_agrees(&scene, &grid, &global_views(&grid), radius, shell, what);
            assert_eq!(reuses, scene.len() as u64, "{what}");
        }
    }

    #[test]
    fn staged_queries_and_unstaged_routes_agree_on_shard_views() {
        let radius = 3.0;
        let scene = with_twins(random_scene(11, 600, 24.0), 40);
        let grid = scattered_grid(&scene, radius);
        let pool = bdm_numa::NumaThreadPool::new(bdm_numa::NumaTopology::single_domain(1));
        let mut st = crate::sharded::ShardedState::new(2);
        st.exchange(&scene, &pool, radius, 1, 1, 3);
        st.build_grids(true, radius, scene.bounds, &pool);
        let views = shard_views(&st, scene.len());
        for (shell, what) in [
            ((radius + 1.5) * (1.0 + 1e-9), "K = 2 on"),
            (radius, "K = 2 off"),
        ] {
            assert_staging_agrees(&scene, &grid, &views, radius, shell, what);
        }
    }

    /// Every agent's view of its owner's windowed grid.
    fn shard_views(st: &crate::sharded::ShardedState, n: usize) -> Vec<(usize, GridView<'_>)> {
        (0..n)
            .map(|global| {
                let s = st.owner[global] as usize;
                let view = GridView {
                    grid: &st.grids[s],
                    self_index: st.local_of[global] as usize,
                    remap: Some(&st.clouds[s].members),
                    cache_key: s as u32,
                };
                (global, view)
            })
            .collect()
    }

    #[test]
    fn shell_key_keeps_a_list_to_its_view_and_build() {
        // No per-agent reset here: the key alone must refuse a list staged
        // on another grid view or an earlier build of the same grid.
        let radius = 3.0;
        let shell = radius;
        let scene = random_scene(11, 600, 24.0);
        let mut grid = scattered_grid(&scene, radius);
        let pool = bdm_numa::NumaThreadPool::new(bdm_numa::NumaTopology::single_domain(1));
        let mut st = crate::sharded::ShardedState::new(2);
        st.exchange(&scene, &pool, radius, 1, 1, 3);
        st.build_grids(true, radius, scene.bounds, &pool);
        let mm = MemoryManager::system_only(1, 1);
        let mut exec = ExecutionContext::new(1);
        for (global, shard_view) in shard_views(&st, scene.len()) {
            let pos = scene.positions[global];
            for view in [global_view(&grid, global), shard_view] {
                let mut ctx = agent_ctx(
                    &mut exec,
                    &grid,
                    &scene,
                    &mm,
                    Some(view),
                    global,
                    Some(shell),
                );
                assert_eq!(
                    visits(&mut ctx, pos, radius),
                    direct(view, pos, radius),
                    "agent {global}"
                );
            }
        }

        // The same grid rebuilt around the same agent 0, every other agent
        // shifted: build 2 must not reuse what build 1 staged.
        let mut shifted = scene.positions.clone();
        for p in &mut shifted[1..] {
            *p += Real3::new(0.7, -0.4, 0.3);
        }
        let shifted = snapshot_with(shifted, scene.diameters.clone());
        let pos = scene.positions[0];
        let view = Some(global_view(&grid, 0));
        let mut ctx = agent_ctx(&mut exec, &grid, &scene, &mm, view, 0, Some(shell));
        let before = visits(&mut ctx, pos, radius);
        grid.update_with(&SnapshotCloud(&shifted), radius, scatter_hint(&shifted));
        let view = Some(global_view(&grid, 0));
        let mut ctx = agent_ctx(&mut exec, &grid, &shifted, &mm, view, 0, Some(shell));
        let after = visits(&mut ctx, pos, radius);
        assert_eq!(after, direct(global_view(&grid, 0), pos, radius));
        assert_ne!(
            after, before,
            "the rebuild must change agent 0's neighborhood"
        );
    }

    #[test]
    fn agent_rng_is_deterministic_and_distinct() {
        let mut a = agent_rng(1, AgentUid(5), 3);
        let mut b = agent_rng(1, AgentUid(5), 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = agent_rng(1, AgentUid(6), 3);
        let mut d = agent_rng(1, AgentUid(5), 4);
        let x = agent_rng(1, AgentUid(5), 3).next_u64();
        assert_ne!(c.next_u64(), x);
        assert_ne!(d.next_u64(), x);
    }
}
