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
//! only for accepted neighbors, and only for the arrays the kernel's
//! declared [`NeighborAccess`] actually reads. When no due kernel reads
//! payloads, the engine skips gathering the `payloads` array entirely.

use bdm_alloc::MemoryManager;
use bdm_diffusion::{DiffusionGrid, Secretion};
use bdm_env::{Environment, NeighborQueryScratch, PointCloud, StencilRuns, UniformGridEnvironment};
use bdm_util::{Real3, SimRng};

use crate::agent::{new_agent_box, Agent, AgentBox, AgentHandle, AgentUid};
use crate::resource_manager::split_global;
use crate::rng_stream;

/// Which per-neighbor snapshot arrays a kernel reads — the capability a
/// force/behavior kernel (or a custom
/// [`Operation`](crate::scheduler::Operation)) declares so the engine can
/// skip gathering and streaming arrays nobody will touch.
///
/// `POSITIONS` and `DIAMETERS` are always gathered (the snapshot's position
/// array feeds the index rebuild and the max-diameter reduction needs every
/// diameter anyway); today only `PAYLOADS` changes what the gather writes.
/// Declaring the full truth anyway is what keeps the capability future-proof
/// and the Figure 5 memory-traffic proxy honest.
///
/// Flags combine with `|`:
///
/// ```
/// use bdm_core::NeighborAccess;
///
/// let access = NeighborAccess::POSITIONS | NeighborAccess::PAYLOADS;
/// assert!(access.contains(NeighborAccess::PAYLOADS));
/// assert!(!access.contains(NeighborAccess::DIAMETERS));
/// assert_eq!(access | NeighborAccess::NONE, access);
/// assert!(NeighborAccess::ALL.contains(access));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NeighborAccess(u8);

impl NeighborAccess {
    /// Reads nothing from the snapshot (e.g. a kernel without neighbor
    /// queries, or one that only counts neighbors by distance).
    pub const NONE: NeighborAccess = NeighborAccess(0);
    /// Reads neighbor positions (implied by issuing any neighbor query —
    /// the distance test streams them; always gathered).
    pub const POSITIONS: NeighborAccess = NeighborAccess(1);
    /// Reads neighbor diameters (the collision force does; always gathered).
    pub const DIAMETERS: NeighborAccess = NeighborAccess(1 << 1);
    /// Reads neighbor payloads ([`Agent::payload`], e.g. cell type or
    /// infection state). Gathered only when some due kernel declares this.
    pub const PAYLOADS: NeighborAccess = NeighborAccess(1 << 2);
    /// Everything — the conservative default for kernels that do not
    /// declare their access pattern.
    pub const ALL: NeighborAccess =
        NeighborAccess(Self::POSITIONS.0 | Self::DIAMETERS.0 | Self::PAYLOADS.0);

    /// Union of two access sets (const-friendly version of `|`).
    #[must_use]
    pub const fn union(self, other: NeighborAccess) -> NeighborAccess {
        NeighborAccess(self.0 | other.0)
    }

    /// Whether every flag of `other` is present in `self`.
    pub const fn contains(self, other: NeighborAccess) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the set includes [`NeighborAccess::PAYLOADS`].
    pub const fn reads_payloads(self) -> bool {
        self.contains(NeighborAccess::PAYLOADS)
    }

    /// The raw flag bits — the checkpoint wire representation.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds the set from [`NeighborAccess::bits`]; `None` if `bits`
    /// contains flags this engine version does not know.
    pub const fn from_bits(bits: u8) -> Option<NeighborAccess> {
        if bits & !NeighborAccess::ALL.0 != 0 {
            return None;
        }
        Some(NeighborAccess(bits))
    }
}

impl Default for NeighborAccess {
    /// The conservative default: [`NeighborAccess::ALL`].
    fn default() -> NeighborAccess {
        NeighborAccess::ALL
    }
}

impl std::ops::BitOr for NeighborAccess {
    type Output = NeighborAccess;
    fn bitor(self, rhs: NeighborAccess) -> NeighborAccess {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for NeighborAccess {
    fn bitor_assign(&mut self, rhs: NeighborAccess) {
        *self = self.union(rhs);
    }
}

/// Immutable per-iteration snapshot of all agents (domain-major order, same
/// indexing as the environment's point cloud), stored as a structure of
/// arrays: the gather writes each array in one contiguous stream, and
/// neighbor reads touch only the arrays the kernel declared in its
/// [`NeighborAccess`].
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
    /// `positions` — **empty** when no due kernel declared
    /// [`NeighborAccess::PAYLOADS`] (see `payloads_gathered`).
    pub payloads: Vec<u64>,
    /// Whether `payloads` was gathered this iteration. When `false`,
    /// [`Neighbor::payload`] panics: a kernel reading payloads without
    /// declaring them is a capability bug, not a silent zero.
    pub payloads_gathered: bool,
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

    /// Heap bytes of the arrays the current gather materialized, per the
    /// SoA layout (a skipped `payloads` array costs nothing even if its
    /// buffer lingers from an earlier iteration). The Figure 5/9/11
    /// harness reports this instead of assuming a record size.
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.positions.len() * std::mem::size_of::<Real3>()
            + self.diameters.len() * std::mem::size_of::<f64>()
            + self.offsets.len() * std::mem::size_of::<usize>();
        if self.payloads_gathered {
            bytes += self.payloads.len() * std::mem::size_of::<u64>();
        }
        bytes
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
/// field never touches its array (the payload array may not even have been
/// gathered — see [`NeighborAccess`]).
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
    ///
    /// # Panics
    /// If the engine skipped the payload gather this iteration because no
    /// due kernel declared [`NeighborAccess::PAYLOADS`] — declare the
    /// access on the kernel (see
    /// [`Behavior::neighbor_access`](crate::behavior::Behavior::neighbor_access),
    /// [`Param::neighbor_access`](crate::param::Param::neighbor_access)).
    #[inline]
    pub fn payload(&self) -> u64 {
        assert!(
            self.snapshot.payloads_gathered,
            "neighbor payloads were not gathered this iteration; declare \
             NeighborAccess::PAYLOADS on the kernel that reads them \
             (Param::neighbor_access / Operation::neighbor_access)"
        );
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
    /// grid path (vs the scalar per-agent fallback).
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
    /// Non-finite force accumulations observed by the mechanics kernel
    /// (folded into a typed health violation after the agent phase).
    pub(crate) nonfinite_forces: u64,
    /// Reusable neighbor-query scratch: queries issued through this thread's
    /// [`AgentContext`] allocate nothing in steady state.
    pub(crate) query_scratch: NeighborQueryScratch,
    /// Reusable neighbor-index buffer of the scalar mechanics path (static
    /// detection collects the neighborhood to wake it on movement).
    pub(crate) mech_neighbors: Vec<u32>,
    /// The candidate shell of this worker's last box-batched mechanics scan
    /// (see [`AgentContext::for_each_neighbor_mech`]).
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
            view.grid
                .for_each_neighbor_soa(pos, Some(view.self_index), radius, |idx, p, d2| {
                    visit(view.global(idx), p, d2)
                });
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

    /// Box-batched mechanics neighbor scan — the grid query of
    /// [`AgentContext::for_each_neighbor`] specialized for the force
    /// kernel, in two stages. The visitor receives `(position, diameter,
    /// distance²)` of every neighbor within `radius`:
    ///
    /// * the ≤9 **stencil runs** come from this worker's one-entry cache —
    ///   every agent resident in the same box reuses the same row offsets
    ///   ([`ExecutionContext::mech_stencil`]);
    /// * stage one is a **branchless compaction**: one bounds-check-free
    ///   pass over the runs' interleaved 32-byte slots stores `(slot, d²)`
    ///   of every candidate and advances the write cursor by
    ///   `d² ≤ shell² && not self` — no data-dependent branch in the scan;
    /// * stage two walks that compact list in scan order and visits the
    ///   entries with `d² ≤ radius²`; the **diameter** streams from the
    ///   grid's box-sorted scatter (a bitwise copy of
    ///   `snapshot.diameters[index]`) instead of a random per-neighbor
    ///   gather.
    ///
    /// `shell ≥ radius` is the reach the caller needs beyond the force:
    /// the list stays in [`ExecutionContext::mech_shell`] for
    /// [`AgentContext::wake_from_shell`], so a static-detection mover does
    /// not query its neighborhood a second time. (Compacting with a branchy
    /// `Vec::push` instead made `oncology` `agent_ops` at 10⁵ agents 23%
    /// *slower*, 0.067–0.070 → 0.083–0.084 s.)
    ///
    /// Visit order, the visited set, and every visited value are bitwise
    /// those of the per-agent path (same shared stencil traversal, the
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
        let slots = grid.slots();
        let bc = grid.box_coordinates(pos);
        let build = grid.build_count();
        let exec = &mut *self.exec;
        let cache = &mut exec.mech_stencil;
        let out = &mut exec.mech_shell;
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
        debug_assert_eq!(diameters.len(), slots.len());
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
        let r2 = radius * radius;
        for &(i, d2) in &out.entries[..len] {
            if d2 <= r2 {
                // SAFETY: `i` came from the runs above; `diameters` is
                // scattered alongside `slots` in the same rebuild pass and
                // has the same length (debug-asserted above).
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

    /// The static-detection wake of the agent whose mechanics scan
    /// ([`AgentContext::for_each_neighbor_mech`]) ran last on this worker,
    /// served from the shell that scan kept: raises every shell agent
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
        let entries = &shell.entries[..shell.len];
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
    use super::*;

    fn snapshot(offsets: Vec<usize>, n: usize) -> Snapshot {
        Snapshot {
            positions: vec![Real3::ZERO; n],
            diameters: vec![0.0; n],
            payloads: vec![0; n],
            payloads_gathered: true,
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
    fn neighbor_access_flags_combine() {
        let a = NeighborAccess::POSITIONS | NeighborAccess::DIAMETERS;
        assert!(a.contains(NeighborAccess::POSITIONS));
        assert!(a.contains(NeighborAccess::DIAMETERS));
        assert!(!a.reads_payloads());
        assert!((a | NeighborAccess::PAYLOADS).reads_payloads());
        assert_eq!(a | NeighborAccess::NONE, a);
        assert!(NeighborAccess::ALL.contains(a));
        assert_eq!(NeighborAccess::default(), NeighborAccess::ALL);
        let mut acc = NeighborAccess::NONE;
        acc |= NeighborAccess::PAYLOADS;
        assert!(acc.reads_payloads());
        assert!(!NeighborAccess::NONE.contains(NeighborAccess::POSITIONS));
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
    #[should_panic(expected = "payloads were not gathered")]
    fn neighbor_payload_panics_when_skipped() {
        let mut s = snapshot(vec![0, 2], 2);
        s.payloads.clear();
        s.payloads_gathered = false;
        let n = Neighbor {
            snapshot: &s,
            index: 0,
            position: Real3::ZERO,
        };
        let _ = n.payload();
    }

    #[test]
    fn snapshot_memory_counts_only_gathered_arrays() {
        let with = snapshot(vec![0, 4], 4);
        let mut without = snapshot(vec![0, 4], 4);
        without.payloads_gathered = false;
        assert_eq!(
            with.memory_bytes() - without.memory_bytes(),
            4 * std::mem::size_of::<u64>()
        );
    }

    #[test]
    fn execution_context_counters() {
        let ctx = ExecutionContext::new(2);
        assert_eq!(ctx.pending_additions(), 0);
        assert_eq!(ctx.pending_removals(), 0);
        assert_eq!(ctx.new_agents.len(), 2);
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
