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
use bdm_env::{Environment, NeighborQueryScratch, StencilRuns, UniformGridEnvironment};
use bdm_util::{Real3, SimRng};

use crate::agent::{new_agent_box, Agent, AgentBox, AgentHandle, AgentUid};
use crate::resource_manager::split_global;
use crate::rng_stream;

/// Immutable per-iteration snapshot of all agents (domain-major order, same
/// indexing as the environment's positions), stored as a structure of
/// arrays: the gather writes each array in one contiguous stream, and a
/// neighbor read touches only the arrays whose accessor the kernel calls.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Position of every agent at the start of the iteration. This is the
    /// slice `environment_update` indexes (24-byte stride, read as straight
    /// memory).
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
    /// grid skips its own bounding pass over the positions.
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
    /// New agents per target NUMA domain (the domain of the agent that
    /// created them).
    pub(crate) new_agents: Vec<Vec<AgentBox>>,
    /// Per domain, one mark per agent-phase chunk that created an agent:
    /// `(global index of the chunk's first agent, offset of its first new
    /// agent in `new_agents[domain]`)`. A chunk's agents run in ascending
    /// index, so committing the chunks in ascending key gives every newborn
    /// a slot that does not depend on which worker ran or stole its
    /// parent's chunk. Agents queued before the first mark
    /// ([`ExecutionContext::queue_new_agent`]) are committed first.
    pub(crate) birth_chunks: Vec<Vec<(usize, usize)>>,
    /// Key of the running chunk until its first new agent marks it.
    pub(crate) open_birth_chunk: Option<usize>,
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
    /// The candidate shell staged for the running agent, if any. Every grid
    /// query of the agent reads it: the first one stages it — a behavior's
    /// [`AgentContext::for_each_neighbor`] or, failing that, the force scan
    /// [`AgentContext::for_each_neighbor_mech`] — and every later query at
    /// the bitwise-same position and a radius the list reaches reuses it:
    /// the behaviors' queries, the force scan, then
    /// [`AgentContext::wake_from_shell`]. [`ExecutionContext::start_agent`]
    /// forgets the list before each agent.
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

/// See [`ExecutionContext::mech_shell`]: a cache of one `(slot, d²)` list,
/// keyed by [`ShellKey`] and valid for every query radius up to the one it
/// was staged at.
#[derive(Default)]
pub(crate) struct MechShell {
    /// `(slot, d²)` of every stencil candidate within the staged radius, in
    /// scan order; only `..len` is valid. Never shorter than the cached
    /// stencil's candidate count, so the compaction stores unconditionally.
    entries: Vec<(u32, f64)>,
    len: usize,
    /// Square of the radius `..len` was staged at: the list holds every
    /// candidate with `d²` up to it.
    reach2: f64,
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
/// the grid view and the grid build it was compacted for — and only the
/// agent it was staged for, because [`ExecutionContext::start_agent`]
/// drops the key before the next one.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ShellKey {
    /// Bits of the scanned position.
    pos: [u64; 3],
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
            birth_chunks: (0..num_domains).map(|_| Vec::new()).collect(),
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
    /// NUMA domain new agents are allocated on (the worker's domain; they
    /// are committed to the domain of the agent that created them).
    pub(crate) alloc_domain: usize,
    /// Handle of the agent currently being processed.
    pub(crate) self_handle: AgentHandle,
    /// Global index of the agent currently being processed.
    pub(crate) self_global: usize,
    /// Shell radius of the agent's mechanics pass
    /// ([`crate::ops::MechanicsConfig::shell_radius`]); `None` for an agent
    /// without one. A staging hint: a grid query stages at least this far,
    /// so the force scan and the wake reuse what a behavior staged.
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

    /// The NUMA domain new agents created by this context are allocated
    /// on (the running worker's).
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
    /// On the uniform grid the query filters the agent's staged shell (see
    /// `AgentContext::stage`), as its later queries, its force scan and its
    /// wake do, and visits bitwise what
    /// [`UniformGridEnvironment::for_each_neighbor_soa`] visits.
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
            // The kernel closure monomorphizes straight into the filter
            // loop — no virtual call per query or per neighbor (the
            // dominant cost at 10⁶ agents). A shard grid holds exactly the
            // within-radius agents the global grid holds (halo
            // completeness) in the same relative order (ascending-global
            // member insertion), so its remapped visit sequence is bitwise
            // that of the single-engine query.
            self.stage(view, pos, radius, radius);
            self.for_each_staged(view, radius, None, |_, s, d2| {
                visit(view.global(s.index as usize), s.position, d2)
            });
        } else {
            self.env.for_each_neighbor(
                &snapshot.positions,
                pos,
                Some(self.self_global),
                radius,
                &mut self.exec.query_scratch,
                &mut visit,
            );
        }
    }

    /// Makes [`ExecutionContext::mech_shell`] hold every candidate within
    /// `reach ≥ radius` of `pos`; returns whether the running agent's list
    /// already did (same position bits, grid view and build, staged at
    /// least that far). Otherwise it restages at the larger of `reach` and
    /// the shell hint ([`AgentContext::shell_radius`]), so a narrower query
    /// never clobbers the list the force scan and the wake read.
    ///
    /// It checks the query as `for_each_neighbor_soa` does, in its order:
    /// an empty grid (one a pipeline without `environment_update` never
    /// built) stages nothing, and otherwise a `radius` beyond the build
    /// radius panics with the grid's `Param::interaction_radius` message.
    ///
    /// * the ≤9 **stencil runs** come from this worker's one-entry cache —
    ///   every agent resident in the same box reuses the same row offsets
    ///   ([`ExecutionContext::mech_stencil`]);
    /// * the list is a **branchless compaction**: one bounds-check-free
    ///   pass over the runs' interleaved 32-byte slots stores `(slot, d²)`
    ///   of every candidate and advances the write cursor by
    ///   `d² ≤ reach² && not self` — no data-dependent branch in the scan.
    ///   (Compacting with a branchy `Vec::push` instead made `oncology`
    ///   `agent_ops` at 10⁵ agents 23% *slower*, 0.067–0.070 → 0.083–0.084 s.)
    ///
    /// The candidates, their scan order, their `d²` expression and the
    /// self-exclusion are those of `for_each_neighbor_soa`, so filtering the
    /// list by `d² ≤ r²` for any `r` up to the staged radius visits bitwise
    /// what that query visits.
    ///
    /// Kept out of line: inlined into every `for_each_neighbor` instance,
    /// it read `epidemiology` 4–8% slower per iteration
    /// (bench/baselines/AB_39.txt).
    #[inline(never)]
    fn stage(&mut self, view: GridView<'_>, pos: Real3, radius: f64, reach: f64) -> bool {
        let grid = view.grid;
        let exec = &mut *self.exec;
        let out = &mut exec.mech_shell;
        if grid.slots().is_empty() {
            out.len = 0;
            out.key = None;
            return false;
        }
        grid.assert_query_radius(radius);
        let build = grid.build_count();
        let key = ShellKey {
            pos: [0, 1, 2].map(|a| pos[a].to_bits()),
            view: view.cache_key,
            build,
        };
        let reach2 = reach * reach;
        if out.key == Some(key) && reach2 <= out.reach2 {
            return true;
        }
        let hint = self.shell_radius.unwrap_or(0.0);
        let reach2 = reach2.max(hint * hint);
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
                len += usize::from((d2 <= reach2) & (s.index as usize != view.self_index));
            }
        }
        out.len = len;
        out.reach2 = reach2;
        out.key = Some(key);
        false
    }

    /// The one filter loop of the staged readers: calls `f(slot index,
    /// slot, d²)`, in scan order, for every staged candidate within
    /// `radius` of the staged position or of `moved_to`. Runs right after
    /// [`AgentContext::stage`] on `view`.
    #[inline(always)]
    fn for_each_staged(
        &self,
        view: GridView<'_>,
        radius: f64,
        moved_to: Option<Real3>,
        mut f: impl FnMut(u32, &bdm_env::SortedSlot, f64),
    ) {
        let slots = view.grid.slots();
        let r2 = radius * radius;
        for &(i, d2) in self.exec.mech_shell.staged() {
            // SAFETY: `i` was staged from this grid's stencil runs — the
            // key matched its view and build, and a key never outlives its
            // agent.
            let s = unsafe { slots.get_unchecked(i as usize) };
            if d2 <= r2 || moved_to.is_some_and(|p| p.distance_sq(&s.position) <= r2) {
                f(i, s, d2);
            }
        }
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
    /// non-grid environment, or diameters not scattered this iteration —
    /// and the caller falls back to [`AgentContext::for_each_neighbor`]
    /// plus the lazy diameter load.
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
        let Some(diameters) = view.grid.scattered_diameters() else {
            return false;
        };
        let reused = self.stage(view, pos, radius, shell);
        self.exec.shell_reuses += u64::from(reused);
        self.for_each_staged(view, radius, None, |i, s, d2| {
            f(s.position, diameters[i as usize], d2)
        });
        true
    }

    /// The static-detection wake of the running agent at `pos`, served
    /// from the shell its mechanics scan
    /// ([`AgentContext::for_each_neighbor_mech`]) staged or reused — or
    /// restaged at `shell` when a query in between left another list:
    /// raises every shell agent within `radius` of `pos` and — when
    /// `moved_to` lies in the scanned box — every one within `radius` of
    /// `moved_to`.
    ///
    /// A query around `moved_to` would scan the same stencil runs, accept
    /// with the same `d²` expression and exclude the same self index, so
    /// the raised set equals the old-neighborhood set plus that query's,
    /// provided the caller only passes a `moved_to` the shell radius covers
    /// (every candidate within `radius` of it is within the shell of the
    /// scanned position). Returns whether `moved_to` was served; when it
    /// was not, the caller queries around it.
    pub(crate) fn wake_from_shell(
        &mut self,
        pos: Real3,
        radius: f64,
        shell: f64,
        moved_to: Option<Real3>,
        mut raise: impl FnMut(usize),
    ) -> bool {
        let view = self
            .grid
            .expect("a mechanics shell is only kept on the grid path");
        self.stage(view, pos, radius, shell);
        let moved_to =
            moved_to.filter(|&p| view.grid.box_coordinates(p) == self.exec.mech_stencil.bc);
        self.for_each_staged(view, radius, moved_to, |_, s, _| {
            raise(view.global(s.index as usize))
        });
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
    /// (committed with the parallel addition of paper Section 3.2) into the
    /// current agent's domain, in agent order.
    pub fn new_agent<A: Agent + 'static>(&mut self, agent: A) {
        let boxed = new_agent_box(agent, self.mm, self.alloc_domain);
        let domain = self.self_handle.domain as usize;
        let exec = &mut *self.exec;
        if let Some(key) = exec.open_birth_chunk.take() {
            exec.birth_chunks[domain].push((key, exec.new_agents[domain].len()));
        }
        exec.new_agents[domain].push(boxed);
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

    fn scatter_hint(snapshot: &Snapshot) -> bdm_env::UpdateHint<'_> {
        bdm_env::UpdateHint {
            known_bounds: snapshot.bounds,
            diameters: Some(&snapshot.diameters),
            ..bdm_env::UpdateHint::default()
        }
    }

    /// The grid built over `snapshot` as the engine builds it with
    /// mechanics on (diameters scattered).
    fn scattered_grid(snapshot: &Snapshot, radius: f64) -> UniformGridEnvironment {
        let mut grid = UniformGridEnvironment::new();
        grid.update_with(&snapshot.positions, radius, scatter_hint(snapshot));
        grid
    }

    /// The context `run_agent_ops` hands agent `global` (no behavior
    /// state), querying `grid` with the staging hint `shell_radius`.
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

    /// What the grid's own query of `view` visits around `pos`: the
    /// reference every staged read is held to.
    fn direct(view: GridView<'_>, pos: Real3, radius: f64) -> Vec<Visit> {
        let mut out = Vec::new();
        view.grid
            .for_each_neighbor_soa(pos, Some(view.self_index), radius, |idx, p, d2| {
                out.push(visit(view.global(idx), p, d2))
            });
        out
    }

    /// The staged route against the grid's own scan, for every `(global
    /// index, view)` in order with the per-agent reset between agents.
    /// Every visit sequence is bitwise that of `for_each_neighbor_soa` on
    /// the view and of the generic query on `global_grid`:
    ///
    /// * even agents carry the shell hint, so their first query stages the
    ///   shell and the force scan reuses it; odd agents carry none, so with
    ///   detection on the force scan widens the list their query staged;
    /// * a query at half the radius reuses the list, before the force scan
    ///   and again between it and the wake;
    /// * the wake raises the force neighborhood and, with detection on, the
    ///   union of it and the neighborhood of a target at most `max_step`
    ///   away, served from the shell when the target lies in the scanned
    ///   box;
    /// * a query at the target restages, and so does the force scan back
    ///   at the first position.
    ///
    /// Returns the number of same-box and of box-crossing targets.
    fn assert_staged_route_agrees(
        snapshot: &Snapshot,
        global_grid: &UniformGridEnvironment,
        views: &[(usize, GridView<'_>)],
        radius: f64,
        max_step: f64,
        detect: bool,
        what: &str,
    ) -> [usize; 2] {
        let shell = if detect {
            (radius + max_step) * (1.0 + 1e-9)
        } else {
            radius
        };
        let mm = MemoryManager::system_only(1, 1);
        let mut exec = ExecutionContext::new(1);
        let mut generic_exec = ExecutionContext::new(1);
        let mut generic = |global: usize, pos: Real3, r: f64| {
            let env = global_grid;
            let mut ctx = agent_ctx(&mut generic_exec, env, snapshot, &mm, None, global, None);
            visits(&mut ctx, pos, r)
        };
        // The force scan's `(position, diameter, d²)` bits.
        let force = |want: &[Visit]| -> Vec<([u64; 3], u64, u64)> {
            want.iter()
                .map(|&(i, p, d2)| (p, snapshot.diameters[i].to_bits(), d2))
                .collect()
        };
        let mech = |ctx: &mut AgentContext<'_>, at: Real3, what: &str| {
            let mut out = Vec::new();
            let served = ctx.for_each_neighbor_mech(at, radius, shell, &mut |p, d, d2| {
                out.push((position_bits(p), d.to_bits(), d2.to_bits()))
            });
            assert!(served, "{what}: the force scan declined");
            out
        };
        let mut rng = SimRng::new(0x5eed);
        let mut targets = [0; 2];
        for &(global, view) in views {
            let pos = snapshot.positions[global];
            let what = format!("{what}: agent {global}");
            let want = direct(view, pos, radius);
            let half = direct(view, pos, radius * 0.5);
            assert_eq!(generic(global, pos, radius), want, "{what}: routes differ");
            assert_eq!(
                generic(global, pos, radius * 0.5),
                half,
                "{what}: routes differ"
            );

            exec.start_agent();
            let hinted = global % 2 == 0;
            let hint = hinted.then_some(shell);
            let mut ctx = agent_ctx(
                &mut exec,
                global_grid,
                snapshot,
                &mm,
                Some(view),
                global,
                hint,
            );
            assert_eq!(visits(&mut ctx, pos, radius), want, "{what}: staging query");
            assert_eq!(
                visits(&mut ctx, pos, radius * 0.5),
                half,
                "{what}: reusing query"
            );
            let reuses = ctx.exec.shell_reuses;
            assert_eq!(
                mech(&mut ctx, pos, &what),
                force(&want),
                "{what}: force scan"
            );
            assert_eq!(
                ctx.exec.shell_reuses,
                reuses + u64::from(hinted || !detect),
                "{what}: force scan reuse"
            );

            // A narrower query between the force scan and the wake.
            assert_eq!(
                visits(&mut ctx, pos, radius * 0.5),
                half,
                "{what}: before the wake"
            );
            let old: BTreeSet<usize> = want.iter().map(|v| v.0).collect();
            let mut raised = BTreeSet::new();
            assert!(!ctx.wake_from_shell(pos, radius, shell, None, |g| {
                raised.insert(g);
            }));
            assert_eq!(raised, old, "{what}: wake in place");

            let reach = max_step / 3f64.sqrt() * 0.999;
            let target = pos + rng.point_in_cube(-reach, reach);
            let moved = direct(view, target, radius);
            if detect {
                let mut raised = BTreeSet::new();
                let served = ctx.wake_from_shell(pos, radius, shell, Some(target), |g| {
                    raised.insert(g);
                });
                let same_box = view.grid.box_coordinates(target) == view.grid.box_coordinates(pos);
                assert_eq!(served, same_box, "{what}: wake to {target:?}");
                targets[usize::from(!same_box)] += 1;
                if !served {
                    raised.extend(moved.iter().map(|v| v.0));
                }
                let union: BTreeSet<usize> = old
                    .iter()
                    .copied()
                    .chain(moved.iter().map(|v| v.0))
                    .collect();
                assert_eq!(raised, union, "{what}: wake to {target:?}");
            }

            // A move restages, and so does the force scan back at `pos`.
            assert_eq!(
                generic(global, target, radius),
                moved,
                "{what}: routes differ"
            );
            assert_eq!(visits(&mut ctx, target, radius), moved, "{what}: moved");
            let reuses = ctx.exec.shell_reuses;
            assert_eq!(
                mech(&mut ctx, pos, &what),
                force(&want),
                "{what}: after a move"
            );
            assert_eq!(ctx.exec.shell_reuses, reuses, "{what}: reused a moved list");
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

    fn random_scene(seed: u64, n: usize, extent: f64) -> Snapshot {
        let mut rng = SimRng::new(seed);
        let positions = (0..n).map(|_| rng.point_in_cube(0.0, extent)).collect();
        let diameters = (0..n).map(|_| rng.uniform_in(1.0, 4.0)).collect();
        snapshot_with(positions, diameters)
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

    /// Every agent on a box face, spacing `radius`, so the `d² ≤ r²` ties
    /// sit exactly on the edge.
    fn lattice_scene(radius: f64) -> Snapshot {
        let mut at = Vec::new();
        for i in 0..512 {
            at.push(Real3::new(
                (i % 8) as f64 * radius,
                (i / 8 % 8) as f64 * radius,
                (i / 64) as f64 * radius,
            ));
        }
        snapshot_with(at, (0..512).map(|i| 2.0 + (i % 3) as f64).collect())
    }

    /// ~3·10⁵ boxes of radius 30 for 60 agents, each of the first 20 with
    /// a companion inside the radius.
    fn sparse_scene() -> Snapshot {
        let mut sparse = random_scene(41, 40, 2000.0);
        for k in 0..20 {
            sparse
                .positions
                .push(sparse.positions[k] + Real3::splat(5.0));
            sparse.diameters.push(2.0);
        }
        snapshot_with(sparse.positions, sparse.diameters)
    }

    /// The staged route on the global grid of the random scene (crowded
    /// boxes, every stencil clamp of the grid border, coincident twins),
    /// the lattice and the coarsened sparse scene.
    fn assert_staged_route_agrees_on_every_grid(detect: bool) {
        let radius = 3.0;
        let random = with_twins(random_scene(11, 600, 24.0), 40);
        let lattice = lattice_scene(radius);
        let sparse = sparse_scene();
        let scenes = [
            (&random, radius, 1.5, "random"),
            (&lattice, radius, 1.5, "lattice"),
            (&sparse, 30.0, 15.0, "sparse"),
        ];
        for (snapshot, r, step, what) in scenes {
            let grid = scattered_grid(snapshot, r);
            let views = global_views(&grid);
            let what = format!("{what}, detection {detect}");
            let targets =
                assert_staged_route_agrees(snapshot, &grid, &views, r, step, detect, &what);
            if what.starts_with("sparse") {
                assert!(grid.box_length() > r, "the lattice must coarsen");
                assert!(!detect || targets[0] > 0, "{what}: {targets:?}");
            } else {
                assert!(
                    !detect || targets.iter().all(|&t| t > 0),
                    "{what}: {targets:?}"
                );
            }
        }
    }

    /// The staged route with the random scene split in two: each agent
    /// queries its owner's windowed grid with a shard-local self index and
    /// a remap.
    fn assert_staged_route_agrees_on_shard_views(detect: bool) {
        let radius = 3.0;
        let random = with_twins(random_scene(11, 600, 24.0), 40);
        let pool = bdm_numa::NumaThreadPool::new(bdm_numa::NumaTopology::single_domain(1));
        let mut st = crate::sharded::ShardedState::new(2);
        st.exchange(&random, &pool, radius, 1, 1, 3);
        st.build_grids(true, radius, random.bounds, &pool);
        let shards = shard_views(&st, random.len());
        assert!(shards.iter().any(|(g, v)| v.self_index != *g));
        let grid = scattered_grid(&random, radius);
        let what = format!("K = 2, detection {detect}");
        let targets =
            assert_staged_route_agrees(&random, &grid, &shards, radius, 1.5, detect, &what);
        assert!(
            !detect || targets.iter().all(|&t| t > 0),
            "{what}: {targets:?}"
        );
    }

    // With detection on, the shell reaches a step beyond the radius: the
    // force scan widens what unhinted agents staged and the wake is served
    // from the shell for same-box targets.

    #[test]
    fn shell_scan_and_generic_query_agree_on_every_grid() {
        assert_staged_route_agrees_on_every_grid(true);
    }

    #[test]
    fn shell_scan_and_generic_query_agree_on_shard_views() {
        assert_staged_route_agrees_on_shard_views(true);
    }

    // With detection off, the shell is the radius: every force scan reuses
    // the list its agent's query staged.

    #[test]
    fn staged_queries_and_unstaged_routes_agree_on_every_grid() {
        assert_staged_route_agrees_on_every_grid(false);
    }

    #[test]
    fn staged_queries_and_unstaged_routes_agree_on_shard_views() {
        assert_staged_route_agrees_on_shard_views(false);
    }

    /// A behavior counting its neighbors within a fixed radius.
    #[derive(Clone)]
    struct CountWithin(f64);

    impl crate::behavior::Behavior for CountWithin {
        fn run(
            &mut self,
            agent: &mut dyn Agent,
            ctx: &mut AgentContext<'_>,
        ) -> crate::behavior::BehaviorControl {
            ctx.count_neighbors(agent.position(), self.0, |_| true);
            crate::behavior::BehaviorControl::Keep
        }
        fn clone_behavior(
            &self,
            mm: &MemoryManager,
            domain: usize,
        ) -> crate::behavior::BehaviorBox {
            crate::behavior::clone_behavior_box(self, mm, domain)
        }
    }

    #[test]
    fn a_query_beyond_the_build_radius_panics_with_the_grid_message() {
        for enable_mechanics in [false, true] {
            let mut sim = crate::Simulation::new(crate::Param {
                threads: Some(1),
                numa_domains: Some(1),
                interaction_radius: Some(5.0),
                enable_mechanics,
                ..crate::Param::default()
            });
            let mut rng = SimRng::new(3);
            for _ in 0..50 {
                let uid = sim.new_uid();
                let mut cell = crate::agent::Cell::new(uid)
                    .with_position(rng.point_in_cube(0.0, 40.0))
                    .with_diameter(4.0);
                let count =
                    crate::behavior::new_behavior_box(CountWithin(50.0), sim.memory_manager(), 0);
                cell.base_mut().add_behavior(count);
                sim.add_agent(cell);
            }
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.simulate(1)));
            let payload = run.expect_err("a query at 10× the build radius must panic");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("exceeds the radius"),
                "mechanics {enable_mechanics}: {message}"
            );
        }
    }

    #[test]
    fn a_pipeline_without_environment_update_runs() {
        // The grid is never built, so its build radius does not cover the
        // queries: an empty grid must visit nothing before checking it.
        use biodynamo::models::{BenchmarkModel, Epidemiology};
        let mut sim = Epidemiology::new(300).build(biodynamo::prelude::Param {
            threads: Some(1),
            numa_domains: Some(1),
            ..Default::default()
        });
        assert!(sim.scheduler_mut().remove_op("environment_update"));
        sim.simulate(3);
        assert_eq!(sim.num_agents(), 300);
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
        grid.update_with(&shifted.positions, radius, scatter_hint(&shifted));
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
