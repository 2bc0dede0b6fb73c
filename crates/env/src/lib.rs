//! # bdm-env
//!
//! Radial neighbor-search environments (paper Sections 2 and 3.1).
//!
//! BioDynaMo exposes a common `Environment` interface with three
//! implementations compared in the paper's Figure 11:
//!
//! * [`UniformGridEnvironment`] — the paper's optimized uniform grid as one
//!   box-sorted slot array behind a prefix-sum offset table, on a lattice
//!   that coarsens for sparse clouds (O(#agents) rebuild and memory); the
//!   engine's default and the fastest choice for the agent workload.
//! * [`KdTreeEnvironment`] — a from-scratch kd-tree standing in for the
//!   `nanoflann` backend (serial build, bucketed leaves).
//! * [`OctreeEnvironment`] — a from-scratch octree standing in for the
//!   Behley et al. backend (serial build, bucket-size parameter).
//! * [`BruteForceEnvironment`] — O(n²) reference used by tests.
//!
//! Every environment indexes one position slice, `&[Real3]`: the engine
//! hands over its snapshot's position array (or a slice it gathered), and
//! tests pass plain vectors. Per-point diameters, when a reader needs them
//! box-sorted, come as a parallel slice through [`UpdateHint::diameters`].
//!
//! Queries are **allocation-free**: every call to
//! [`Environment::for_each_neighbor`] threads a caller-owned
//! [`NeighborQueryScratch`] through the index so that tree traversals reuse
//! one node stack instead of allocating per query. The engine keeps one
//! scratch per worker thread; tests and examples create one on the stack.

#![warn(missing_docs)]

pub mod brute;
pub mod kdtree;
pub mod octree;
pub mod uniform_grid;

use std::ops::Deref;

use bdm_numa::NumaThreadPool;
use bdm_util::Real3;

pub use brute::BruteForceEnvironment;
pub use kdtree::KdTreeEnvironment;
pub use octree::OctreeEnvironment;
pub use uniform_grid::{SortedSlot, StencilRuns, UniformGridEnvironment};

/// A borrowed position slice under a name. It dereferences to
/// `[Real3]`, so `&SliceCloud` passes wherever an environment takes its
/// `positions: &[Real3]`; kept for callers written against that name.
#[derive(Debug, Clone, Copy)]
pub struct SliceCloud<'a>(pub &'a [Real3]);

impl Deref for SliceCloud<'_> {
    type Target = [Real3];

    fn deref(&self) -> &[Real3] {
        self.0
    }
}

/// Reusable per-thread scratch space for neighbor queries.
///
/// Fixed-radius queries must not allocate on the hot path (paper
/// Challenge 1: the neighbor phase dominates at 10⁶+ agents). Environments
/// that need traversal state — the kd-tree and octree node stacks — borrow
/// it from this scratch instead of allocating per query; the uniform grid
/// needs none. The buffers grow to a high-water mark on the first queries
/// and are reused afterwards, so steady-state queries perform **zero**
/// allocations.
///
/// The engine owns one scratch per worker thread (inside its per-thread
/// execution context); standalone callers create one with
/// [`NeighborQueryScratch::new`] and reuse it across queries.
#[derive(Debug, Default)]
pub struct NeighborQueryScratch {
    /// Node stack reused by the tree-based environments' iterative
    /// traversals (node ids into their arena vectors).
    pub(crate) node_stack: Vec<u32>,
}

impl NeighborQueryScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused.
    pub fn new() -> NeighborQueryScratch {
        NeighborQueryScratch::default()
    }
}

/// Which neighbor-search backend to use (paper Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnvironmentKind {
    /// The optimized uniform grid of Section 3.1 (default).
    #[default]
    UniformGrid,
    /// kd-tree (nanoflann stand-in).
    KdTree,
    /// Octree (Behley et al. stand-in).
    Octree,
    /// O(n²) brute force — the differential-testing reference backend.
    Brute,
}

impl EnvironmentKind {
    /// Instantiates the corresponding environment with default parameters.
    pub fn create(self) -> Box<dyn Environment> {
        match self {
            EnvironmentKind::UniformGrid => Box::new(UniformGridEnvironment::new()),
            EnvironmentKind::KdTree => Box::new(KdTreeEnvironment::new()),
            EnvironmentKind::Octree => Box::new(OctreeEnvironment::new()),
            EnvironmentKind::Brute => Box::new(BruteForceEnvironment::new()),
        }
    }

    /// Stable wire code used by the checkpoint format. Codes are append-only:
    /// existing values never change meaning across engine versions.
    pub fn code(self) -> u8 {
        match self {
            EnvironmentKind::UniformGrid => 0,
            EnvironmentKind::KdTree => 1,
            EnvironmentKind::Octree => 2,
            EnvironmentKind::Brute => 3,
        }
    }

    /// Inverse of [`EnvironmentKind::code`]; `None` for unknown codes
    /// (e.g. a checkpoint written by a newer engine).
    pub fn from_code(code: u8) -> Option<EnvironmentKind> {
        match code {
            0 => Some(EnvironmentKind::UniformGrid),
            1 => Some(EnvironmentKind::KdTree),
            2 => Some(EnvironmentKind::Octree),
            3 => Some(EnvironmentKind::Brute),
            _ => None,
        }
    }

    /// All backends, in wire-code order — the differential suites iterate
    /// this instead of hard-coding the list.
    pub const ALL: [EnvironmentKind; 4] = [
        EnvironmentKind::UniformGrid,
        EnvironmentKind::KdTree,
        EnvironmentKind::Octree,
        EnvironmentKind::Brute,
    ];
}

/// Engine-supplied context for one [`Environment::update_with`] call.
///
/// The scheduler knows, before the index is rebuilt, which consumers will
/// touch it this iteration and what it already learned about the positions
/// while gathering the iteration snapshot. The hint lets an index skip work
/// that nobody will read:
///
/// * `known_bounds` — axis-aligned bounds of the positions, if the caller
///   already computed them (the engine derives them during the snapshot
///   gather, so the index build saves a full pass over the agents). Must
///   enclose every point exactly as tightly as the index's own reduction
///   would (the engine passes the min/max over the identical positions).
/// * `diameters` — per-point diameters parallel to the positions, passed
///   when the force kernel will stream neighbor diameters this iteration
///   (the engine passes the snapshot's iff mechanics is enabled: the
///   mechanics shell scan is the scatter's only reader). The uniform grid
///   then scatters a box-sorted diameter array alongside its slots in the
///   same pass, so the force kernel streams them with the positions
///   instead of gathering `diameters[idx]` per accepted neighbor. Purely an
///   optimization: readers fall back to the lazy per-index load when the
///   scatter was skipped, and the scattered values are bitwise copies. The
///   other environments ignore it.
/// * `grid_frame` — pins the uniform grid's lattice instead of deriving it
///   from the positions (sharded execution).
/// * `pool` — the engine's worker pool. Above its parallel threshold the
///   uniform grid runs its bounds, count and scatter sweeps on these
///   workers, so every parallel loop of an iteration runs on the engine's
///   one pool (paper Section 4.1); the index is bitwise the same for every
///   worker count.
///
/// [`UpdateHint::default`] is the standalone contract: compute bounds and
/// lattice from the positions, no diameter scatter (no reader requires it
/// for correctness), build serially.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateHint<'a> {
    /// Precomputed tight bounds of the positions, if the caller has them.
    pub known_bounds: Option<(Real3, Real3)>,
    /// Diameters to scatter box-sorted next to the slots (uniform grid
    /// only); must be exactly as long as the positions. `None` (the
    /// default) skips the scatter.
    pub diameters: Option<&'a [f64]>,
    /// Pin the uniform grid's geometry to an externally fixed frame instead
    /// of deriving it from the positions (sharded execution; see
    /// [`GridFrame`]).
    /// `None` (the default) keeps the self-derived geometry.
    pub grid_frame: Option<GridFrame>,
    /// Workers to build on; `None` (the default) builds serially on the
    /// calling thread.
    pub pool: Option<&'a NumaThreadPool>,
}

/// Externally pinned grid geometry for a [`UniformGridEnvironment`] build.
///
/// The sharded engine gives every shard its own grid over a *subset* of the
/// global positions (owned + halo agents), but bitwise shard-count
/// invariance requires each agent to land in **exactly** the box the
/// single-engine global grid would assign — the box coordinate computation
/// `((pos - anchor) * inv_box_length) as i64` is floating point, so the
/// anchor must be the *global* anchor, not the shard's own minimum,
/// and the box edge the *global* edge.
///
/// A frame pins: the global anchor, the global lattice and its box edge
/// (one [`UniformGridEnvironment::lattice_for`] decision over the whole
/// population — a shard deciding alone could coarsen differently), and the
/// shard's window into that lattice (`box_offset` + `dims`, so a shard only
/// allocates boxes for its own region).
///
/// Box coordinates are computed against the global frame first and then
/// shifted by `box_offset` in exact integer arithmetic, so membership is
/// bitwise-identical to the global grid by construction.
#[derive(Debug, Clone, Copy)]
pub struct GridFrame {
    /// Global grid anchor (the single-engine `grid_min`).
    pub anchor: Real3,
    /// Global grid dimensions in boxes (the single-engine `dims`); global
    /// box coordinates are clamped into this lattice *before* the window
    /// shift, mirroring the single-engine clamp.
    pub global_dims: [u32; 3],
    /// Global box coordinate of this window's origin box.
    pub box_offset: [u32; 3],
    /// Window dimensions in boxes; the build allocates only
    /// `dims[0]·dims[1]·dims[2]` boxes.
    pub dims: [u32; 3],
    /// Box edge of the *global* lattice (≥ the interaction radius), as
    /// returned by [`UniformGridEnvironment::lattice_for`] for the whole
    /// population.
    pub box_length: f64,
}

/// A rebuildable fixed-radius neighbor-search index over one position
/// slice; the index stores positions in slice order, so a neighbor's index
/// is its position's index in the slice.
pub trait Environment: Send + Sync {
    /// Rebuilds the index over `positions` for fixed-radius queries up to
    /// `interaction_radius` (known at the start of each iteration; paper
    /// Section 3.1 exploits exactly this). Equivalent to
    /// [`Environment::update_with`] under [`UpdateHint::default`] — bounds
    /// are computed from the positions.
    fn update(&mut self, positions: &[Real3], interaction_radius: f64) {
        self.update_with(positions, interaction_radius, UpdateHint::default());
    }

    /// Rebuilds the index like [`Environment::update`], with an engine
    /// [`UpdateHint`] describing which capabilities this iteration's
    /// consumers actually need. Implementations may use the hint to skip
    /// work (the uniform grid's conditional diameter scatter) but must stay
    /// correct if they ignore it.
    fn update_with(&mut self, positions: &[Real3], interaction_radius: f64, hint: UpdateHint);

    /// Visits every point within `radius` of `pos` (`radius` must not exceed
    /// the `interaction_radius` the index was built with). `exclude` skips
    /// the querying agent itself. The callback receives
    /// `(index, position, distance²)` — the index streams the accepted
    /// neighbor's position it already loaded for the distance test, so
    /// consumers never pay a second (random-access) position load.
    ///
    /// Every implementation streams positions from the copy it made at
    /// [`Environment::update`] time, so `positions` is unused; it stays
    /// because the repo benchmark (`perfbench/`) calls this signature. Pass
    /// the slice the index was built over.
    ///
    /// `scratch` provides reusable traversal state so the query performs no
    /// allocation; pass the same scratch for consecutive queries on one
    /// thread to stay at its high-water mark.
    fn for_each_neighbor(
        &self,
        positions: &[Real3],
        pos: Real3,
        exclude: Option<usize>,
        radius: f64,
        scratch: &mut NeighborQueryScratch,
        visit: &mut dyn FnMut(usize, Real3, f64),
    );

    /// Drops the index contents.
    fn clear(&mut self);

    /// Approximate heap footprint of the index, for the Figure 11d
    /// comparison.
    fn memory_bytes(&self) -> usize;

    /// Short name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Axis-aligned bounds of the indexed points, if any.
    fn bounds(&self) -> Option<(Real3, Real3)>;

    /// Downcast used by the agent-sorting operation, which exploits the
    /// uniform grid's internals (paper Section 4.2: "we utilize its
    /// characteristics to achieve fast sorting and balancing").
    fn as_uniform_grid(&self) -> Option<&UniformGridEnvironment> {
        None
    }
}

/// Collects neighbor indices, sorted — convenience for tests and examples.
pub fn neighbors_of(
    env: &dyn Environment,
    positions: &[Real3],
    pos: Real3,
    exclude: Option<usize>,
    radius: f64,
) -> Vec<usize> {
    let mut out = Vec::new();
    let mut scratch = NeighborQueryScratch::new();
    env.for_each_neighbor(
        positions,
        pos,
        exclude,
        radius,
        &mut scratch,
        &mut |idx, _pos, _d2| out.push(idx),
    );
    out.sort_unstable();
    out
}
