//! The optimized uniform grid of paper Section 3.1.
//!
//! The grid keeps **one** structure: a box-sorted array of interleaved
//! 32-byte `(position, index)` slots delimited by a prefix-sum offset table
//! — contiguous per-box runs instead of a linked list through
//! array-of-structs agents (the layout the GPU port, arXiv 2105.00039,
//! restructures its kernels around). Every consumer reads it: the per-agent
//! queries, the box-batched force kernel, the sharded engine and the agent
//! sort.
//!
//! * **O(#agents) rebuild, sort and memory by construction** — the lattice
//!   never holds more than [`MAX_BOXES_PER_POINT`]` · n` boxes. While the
//!   cloud is dense enough the box edge equals the interaction radius; a
//!   sparser cloud gets a **coarsened lattice** whose edge is the smallest
//!   one that fits the budget ([`UniformGridEnvironment::lattice_for`]).
//!   The paper bounds the rebuild with timestamped boxes that are never
//!   zeroed; bounding the box count bounds the same work without a second
//!   structure, and bounds memory too.
//! * **Three sweeps, one per-box table** — one sweep over the cloud
//!   computes each agent's flat box index and counts box `b` into entry
//!   `b + 1` of the offset table itself; on the caller's pool
//!   ([`UpdateHint::pool`]) one contiguous agent range per worker, with
//!   relaxed atomic increments (they commute, so the histogram does not
//!   depend on scheduling). One sweep over the boxes then turns each count
//!   into its box's start in place and writes the occupancy bitmap. The
//!   scatter uses entry `b + 1` as box `b`'s cursor, so when it is done the
//!   entry holds `start(b + 1)` and the table is complete: the build needs
//!   no second per-box row. The scatter runs one task per contiguous box
//!   range, each scanning the agents in index order, so the writes are
//!   disjoint and agents of a box land in ascending agent-index order
//!   regardless of the worker count and scheduling.
//! * **3×3×3 search** — a fixed-radius query visits the query box and its 26
//!   surrounding boxes; complete because the box edge is never smaller than
//!   the build radius. Boxes adjacent in x are adjacent in the sorted slots,
//!   so the stencil collapses into nine contiguous runs ([`StencilRuns`]
//!   exposes them for box-batched callers).
//! * **Conditional diameter scatter** — when the caller's [`UpdateHint`]
//!   declares that this iteration's kernels read neighbor diameters, a
//!   box-sorted diameter array is scattered alongside the slots in the same
//!   pass, so the force kernel's diameter load is a streamed neighbor of
//!   the position instead of a random snapshot gather. The scatter is tiled
//!   over box ranges so each pass writes into a bounded window of the
//!   sorted arrays instead of spraying the whole allocation.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use bdm_numa::NumaThreadPool;
use bdm_util::send_ptr::SendMut;
use bdm_util::Real3;

use crate::{Environment, NeighborQueryScratch, UpdateHint};

/// Below this point count the build runs serially even when the caller
/// hands it a pool ([`UpdateHint::pool`]): the fork-join overhead of the
/// parallel path costs more than the whole serial build (the paper's
/// Challenge 1 concerns large populations, where the parallel path wins).
const PARALLEL_BUILD_THRESHOLD: usize = 1 << 16;

/// Box budget of the lattice: at most this many boxes per indexed point.
/// Beyond it the per-box passes of the rebuild (offset table, occupancy
/// bitmap — all O(#boxes)) would dominate the O(#agents) work, so
/// [`UniformGridEnvironment::lattice_for`] coarsens the box edge instead.
/// A constant, not an option: the smallest value of the measured sweep in
/// docs/PERFORMANCE.md ("The box budget") that leaves every benchmark
/// workload on radius-sized boxes — query time is flat across the sweep
/// while rebuild time and memory grow with the box count.
pub const MAX_BOXES_PER_POINT: usize = 8;

/// Per-axis lattice cap: box coordinates must fit the 21-bit Morton range
/// the agent sort encodes them into.
const MAX_BOXES_PER_AXIS: u64 = 1 << 20;

/// Target write-window size of one scatter tile: each tile pass writes into
/// at most roughly this many bytes of the sorted arrays, so the random
/// stores of the counting sort hit far fewer open DRAM pages.
const SCATTER_TILE_BYTES: usize = 4 << 20;

/// Ceiling on the scatter passes one worker makes — every tile re-streams
/// the (sequential, cheap) per-agent box indices.
const MAX_SCATTER_TILES: usize = 8;

/// Bytes one agent occupies in the slot array (one interleaved slot).
const SOA_SLOT_BYTES: usize = std::mem::size_of::<SortedSlot>();

/// One slot of the box-sorted array: the point's position and its
/// cloud index interleaved into a single record, so the stencil scan streams
/// ONE contiguous array — the index that follows an accepted position sits
/// on the same cache line instead of in a second parallel array.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct SortedSlot {
    /// Position of the point at build time.
    pub position: Real3,
    /// Index of the point in the indexed cloud.
    pub index: u32,
}

// Tail padding rounds the slot up to 32 bytes — exactly half a cache line,
// so the scan's stride is a power of two and a slot spans at most two lines.
const _: () = assert!(std::mem::size_of::<SortedSlot>() == 32);

/// The resolved 3×3×3 stencil of one box: the ≤9 non-empty contiguous
/// `[start, end)` runs of the box-sorted slot array (see
/// [`UniformGridEnvironment::slots`]), in deterministic scan order (z outer,
/// y inner, each ascending; boxes adjacent in x fuse into one run).
///
/// Every agent resident in the same box shares the same stencil, so a
/// box-batched caller resolves the runs once per box
/// ([`UniformGridEnvironment::stencil_runs`]) and reuses the nine row
/// offsets for the box's whole population instead of re-deriving them per
/// agent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StencilRuns {
    runs: [(u32, u32); 9],
    len: u8,
}

impl StencilRuns {
    /// The non-empty `[start, end)` slot runs, in scan order.
    #[inline]
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs[..self.len as usize]
    }
}

/// The uniform grid environment (`UniformGridEnvironment` in BioDynaMo).
///
/// # Example
///
/// Index a point cloud and run an allocation-free fixed-radius query:
///
/// ```
/// use bdm_env::{Environment, NeighborQueryScratch, UniformGridEnvironment};
/// use bdm_util::Real3;
///
/// let points = vec![
///     Real3::new(0.0, 0.0, 0.0),
///     Real3::new(1.0, 0.0, 0.0),
///     Real3::new(9.0, 0.0, 0.0),
/// ];
/// let mut grid = UniformGridEnvironment::new();
/// grid.update(&points, 2.0); // interaction radius = box edge length
///
/// let mut scratch = NeighborQueryScratch::new();
/// let mut hits = Vec::new();
/// grid.for_each_neighbor(
///     &points,
///     points[0],
///     Some(0), // exclude the querying point itself
///     2.0,
///     &mut scratch,
///     &mut |idx, pos, d2| hits.push((idx, pos, d2)),
/// );
/// assert_eq!(hits, vec![(1, Real3::new(1.0, 0.0, 0.0), 1.0)]);
/// ```
pub struct UniformGridEnvironment {
    /// Number of boxes per axis (the *window* dimensions under an external
    /// [`GridFrame`](crate::GridFrame); equal to `global_dims` otherwise).
    dims: [u32; 3],
    /// Global lattice dimensions box coordinates are clamped into *before*
    /// the window shift. Self-derived builds keep `global_dims == dims`, so
    /// the extra clamp is a no-op there.
    global_dims: [u32; 3],
    /// Global box coordinate of this grid's window origin (all zero unless
    /// an external [`GridFrame`](crate::GridFrame) pinned a window). Applied
    /// in exact integer arithmetic after the global clamp, so a windowed
    /// build assigns bitwise-identical box membership to the global build.
    box_offset: [i64; 3],
    /// Lower corner of the grid.
    grid_min: Real3,
    /// Edge length of a cubic box: the build radius, or larger on a
    /// coarsened lattice ([`UniformGridEnvironment::lattice_for`]).
    box_length: f64,
    /// Cached `1 / box_length`: the per-point box computation multiplies
    /// instead of dividing (three divisions per agent dominate the build
    /// otherwise).
    inv_box_length: f64,
    /// Interaction radius of the last build — the largest query radius the
    /// 3×3×3 stencil is asserted to serve (`box_length` is never smaller).
    build_radius: f64,
    /// Number of indexed points.
    num_points: usize,
    /// Bounds of the indexed points.
    bounds: Option<(Real3, Real3)>,
    /// Exclusive prefix-sum offset table: box `b`'s agents occupy
    /// `sorted_slots[cell_offsets[b]..cell_offsets[b + 1]]`. `u32` — the
    /// lattice budget guarantees every offset fits — so the O(#boxes) merge
    /// passes move half the memory of a `usize` table. The only per-box
    /// table of the build: during it, entry `b + 1` is box `b`'s count,
    /// then its start, then its scatter cursor, which ends as `start(b + 1)`.
    cell_offsets: Vec<u32>,
    /// Interleaved `(position, index)` slots grouped by box (copy taken at
    /// `update()` time) — one contiguous array for the stencil scan.
    sorted_slots: Vec<SortedSlot>,
    /// Per-point diameters grouped by box, parallel to `sorted_slots`.
    /// Scattered only when the caller's [`UpdateHint`] passed diameters;
    /// only valid while `diameters_active`.
    sorted_diameters: Vec<f64>,
    /// Per-agent flat box index recorded during the fused build pass
    /// (scratch for the counting sort; the lattice budget guarantees the
    /// flat index fits in 32 bits).
    agent_boxes: Vec<u32>,
    /// One bit per box, set iff the box holds at least one agent in the
    /// current build. At ~0.3 agents/box (typical 10⁶-agent models) a
    /// large fraction of the stencil's nine runs is empty; testing three
    /// bits in this 1-bit/box table (~0.4 MB at 3.4M boxes — cache-resident
    /// where the 4-byte/box `cell_offsets` table is not) skips the offset
    /// loads for those runs entirely.
    occupancy: Vec<u64>,
    /// Whether `sorted_diameters` matches the current build (see the field).
    diameters_active: bool,
    /// Monotonic count of completed rebuilds — a cheap identity for "the
    /// build these cached values belong to". Externally cached per-build
    /// state (resolved [`StencilRuns`]) is validated with one compare.
    build_count: u64,
}

impl Default for UniformGridEnvironment {
    fn default() -> Self {
        Self::new()
    }
}

impl UniformGridEnvironment {
    /// Creates an empty grid.
    pub fn new() -> UniformGridEnvironment {
        UniformGridEnvironment {
            dims: [0; 3],
            global_dims: [0; 3],
            box_offset: [0; 3],
            grid_min: Real3::ZERO,
            box_length: 1.0,
            inv_box_length: 1.0,
            build_radius: 1.0,
            num_points: 0,
            bounds: None,
            cell_offsets: Vec::new(),
            sorted_slots: Vec::new(),
            sorted_diameters: Vec::new(),
            agent_boxes: Vec::new(),
            occupancy: Vec::new(),
            diameters_active: false,
            build_count: 0,
        }
    }

    /// Number of boxes per axis.
    pub fn dims(&self) -> [u32; 3] {
        self.dims
    }

    /// Lower corner of the grid.
    pub fn grid_min(&self) -> Real3 {
        self.grid_min
    }

    /// Box edge length of the current lattice: the build radius, or larger
    /// when [`UniformGridEnvironment::lattice_for`] coarsened it.
    pub fn box_length(&self) -> f64 {
        self.box_length
    }

    /// Total number of boxes.
    pub fn num_boxes(&self) -> usize {
        self.dims.iter().map(|&d| d as usize).product()
    }

    /// Box coordinates containing `pos` (clamped into the grid).
    ///
    /// # Panics
    /// On an empty grid (no box to clamp into).
    ///
    /// Under an external [`GridFrame`](crate::GridFrame) the computation
    /// runs against the *global* anchor and lattice first and the window
    /// shift happens in exact integer arithmetic afterwards, so a windowed
    /// shard grid agrees bitwise with the global grid on box membership.
    /// Self-derived builds have a zero offset and `global_dims == dims`,
    /// reproducing the historical single-clamp result exactly.
    #[inline]
    pub fn box_coordinates(&self, pos: Real3) -> [u32; 3] {
        let g =
            Self::global_box_coordinates(pos, self.grid_min, self.inv_box_length, self.global_dims);
        let mut out = [0u32; 3];
        for a in 0..3 {
            out[a] = (g[a] as i64 - self.box_offset[a]).clamp(0, self.dims[a] as i64 - 1) as u32;
        }
        out
    }

    /// The global-lattice box coordinate computation every build shares —
    /// exposed so external partitioners (the sharded engine's Morton-range
    /// split) assign agents to boxes with the *identical* floating-point
    /// expression the grid uses, keeping membership bitwise reproducible.
    #[inline]
    pub fn global_box_coordinates(
        pos: Real3,
        anchor: Real3,
        inv_box_length: f64,
        global_dims: [u32; 3],
    ) -> [u32; 3] {
        let mut out = [0u32; 3];
        for a in 0..3 {
            let rel = (pos[a] - anchor[a]) * inv_box_length;
            let idx = if rel <= 0.0 { 0 } else { rel as i64 };
            out[a] = (idx.min(global_dims[a] as i64 - 1)).max(0) as u32;
        }
        out
    }

    /// The lattice every build over `n` points spanning `[min, max]` uses:
    /// `(box_length, dims)` with `dims[a] = ⌊extent[a] / box_length⌋ + 1`.
    ///
    /// `box_length` equals `radius` while that lattice fits the budget —
    /// at most [`MAX_BOXES_PER_POINT`]` · n` boxes (and `u32::MAX`, flat box
    /// indices are 32-bit) and at most 2²⁰ boxes per axis (the Morton range
    /// of the agent sort). A sparser cloud gets the **smallest larger edge
    /// that fits**, so rebuild, sort and memory stay O(n) however far apart
    /// the points are, and the 3×3×3 stencil stays complete because the
    /// edge never drops below the radius.
    ///
    /// A pure function of its arguments, exposed so the sharded engine makes
    /// the *same* decision once for the global cloud and pins it on every
    /// shard window ([`GridFrame::box_length`](crate::GridFrame::box_length)).
    pub fn lattice_for(min: Real3, max: Real3, radius: f64, n: usize) -> (f64, [u32; 3]) {
        let budget = (n.max(1) as u64)
            .saturating_mul(MAX_BOXES_PER_POINT as u64)
            .min(u32::MAX as u64);
        // NaN and negative extents collapse to 0, infinite ones to f64::MAX.
        let extent = [0, 1, 2].map(|a| {
            let e = max[a] - min[a];
            if e > 0.0 {
                e.min(f64::MAX)
            } else {
                0.0
            }
        });
        let dims_at = |edge: f64| -> Option<[u32; 3]> {
            let mut dims = [0u32; 3];
            let mut boxes = 1u64;
            for a in 0..3 {
                // Float → int `as` saturates; non-negative, so it floors.
                let d = ((extent[a] / edge) as u64).saturating_add(1);
                if d > MAX_BOXES_PER_AXIS {
                    return None;
                }
                dims[a] = d as u32;
                boxes *= d; // ≤ 2⁶⁰
            }
            (boxes <= budget).then_some(dims)
        };
        if let Some(dims) = dims_at(radius) {
            return (radius, dims);
        }
        // `dims_at` is monotone in the edge and positive floats order like
        // their bit patterns, so bisecting the bits finds the exact smallest
        // fitting edge in ≤ 64 steps. The largest extent always fits (≤ 2
        // boxes per axis) and exceeds `radius`, which did not fit.
        let mut lo = radius.to_bits();
        let mut hi = extent[0].max(extent[1]).max(extent[2]).to_bits();
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if dims_at(f64::from_bits(mid)).is_some() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let edge = f64::from_bits(hi);
        (edge, dims_at(edge).expect("bisection keeps `hi` fitting"))
    }

    /// Flattened (row-major) index of box `(x, y, z)`.
    #[inline]
    pub fn flat_index(&self, bc: [u32; 3]) -> usize {
        (bc[0] as usize)
            + (self.dims[0] as usize)
                * ((bc[1] as usize) + (self.dims[1] as usize) * bc[2] as usize)
    }

    /// Number of completed [`Environment::update_with`] calls on this grid.
    /// Changes on every rebuild (monotonic, survives
    /// [`Environment::clear`]), so externally cached per-build state — the
    /// engine's per-worker [`StencilRuns`] cache — stays valid exactly
    /// while this count is unchanged.
    pub fn build_count(&self) -> u64 {
        self.build_count
    }

    /// The agents of the box at `flat` as a slice of the interleaved slot
    /// array (each [`SortedSlot::index`] is an agent index), in ascending
    /// agent-index order. O(1); the agent-sorting operation reads the
    /// box-grouped order straight from here (the counting sort *is* the
    /// grouping the sort needs).
    #[inline]
    pub fn box_slots(&self, flat: usize) -> &[SortedSlot] {
        &self.sorted_slots[self.cell_offsets[flat] as usize..self.cell_offsets[flat + 1] as usize]
    }

    /// The box-sorted interleaved slot array of the current build.
    /// [`StencilRuns`] ranges index into this slice.
    #[inline]
    pub fn slots(&self) -> &[SortedSlot] {
        &self.sorted_slots
    }

    /// Box-sorted per-point diameters parallel to
    /// [`UniformGridEnvironment::slots`], or `None` when the last update did
    /// not scatter them (the hint passes them via
    /// [`UpdateHint::diameters`]).
    #[inline]
    pub fn scattered_diameters(&self) -> Option<&[f64]> {
        self.diameters_active.then_some(&self.sorted_diameters[..])
    }

    /// The fixed-radius query, generic over the visitor: identical
    /// semantics to [`Environment::for_each_neighbor`] (which adapts to it),
    /// but the per-candidate distance test and the per-neighbor callback
    /// inline into one loop over the ≤9 stencil runs — no virtual dispatch
    /// anywhere on the hot path. The engine's per-agent neighbor queries
    /// (the dominant cost at 10⁶+ agents, paper Fig. 5) call this directly
    /// after downcasting via [`Environment::as_uniform_grid`].
    #[inline]
    pub fn for_each_neighbor_soa<F: FnMut(usize, Real3, f64)>(
        &self,
        pos: Real3,
        exclude: Option<usize>,
        radius: f64,
        mut visit: F,
    ) {
        if self.num_points == 0 {
            return;
        }
        self.assert_query_radius(radius);
        let r2 = radius * radius;
        let bc = self.box_coordinates(pos);
        self.for_each_stencil_run(bc, |start, end| {
            for slot in start..end {
                // SAFETY: runs lie within the slot array (prefix-sum build
                // invariant, debug-asserted in `for_each_stencil_run`).
                let s = unsafe { self.sorted_slots.get_unchecked(slot) };
                let d2 = pos.distance_sq(&s.position);
                if d2 <= r2 {
                    let idx = s.index as usize;
                    if Some(idx) != exclude {
                        visit(idx, s.position, d2);
                    }
                }
            }
        });
    }

    /// Resolves the 3×3×3 stencil of the box with coordinates `bc` (from
    /// [`UniformGridEnvironment::box_coordinates`]) into its non-empty slot
    /// runs (none on an empty grid). The stencil is a pure function of the
    /// box, so all agents resident in one box share the result — resolve
    /// once, query many (the box-batched mechanics path).
    #[inline]
    pub fn stencil_runs(&self, bc: [u32; 3]) -> StencilRuns {
        let mut out = StencilRuns::default();
        if self.num_points > 0 {
            self.for_each_stencil_run(bc, |start, end| {
                out.runs[out.len as usize] = (start as u32, end as u32);
                out.len += 1;
            });
        }
        out
    }

    /// The 3×3×3 box walk is only guaranteed for queries up to the build
    /// radius (a coarsened lattice would happen to serve more, a dense one
    /// would silently miss neighbors), so fail loudly beyond it — models
    /// must declare their largest query via `Param::interaction_radius`.
    /// Public so that a query served from a staged copy of the stencil
    /// fails with the same message.
    #[inline]
    pub fn assert_query_radius(&self, radius: f64) {
        assert!(
            self.radius_within_build(radius),
            "query radius {radius} exceeds the radius the uniform grid was built with ({}); \
             set Param::interaction_radius to the largest query radius of the model",
            self.build_radius
        );
    }

    /// Whether `radius` is servable by the 3×3×3 stencil of this build
    /// (the condition the queries assert).
    #[inline]
    pub fn radius_within_build(&self, radius: f64) -> bool {
        radius <= self.build_radius * (1.0 + 1e-12)
    }

    /// The single definition of the stencil traversal: visits the ≤9
    /// non-empty contiguous slot runs of the 3×3×3 stencil around box `bc`
    /// in deterministic scan order (z outer, y inner, ascending). Shared by
    /// the per-agent queries and [`UniformGridEnvironment::stencil_runs`],
    /// so the box-batched path visits candidates in exactly the per-agent
    /// order. Boxes adjacent in x are adjacent in flat index and in the
    /// sorted slots, so each (z, y) row collapses into one run.
    #[inline(always)]
    fn for_each_stencil_run(&self, bc: [u32; 3], mut run: impl FnMut(usize, usize)) {
        let x0 = bc[0].saturating_sub(1) as usize;
        let x1 = (bc[0] + 1).min(self.dims[0] - 1) as usize;
        let stride_y = self.dims[0] as usize;
        let stride_z = stride_y * self.dims[1] as usize;
        debug_assert_eq!(
            self.cell_offsets.len(),
            stride_z * self.dims[2] as usize + 1
        );
        debug_assert_eq!(
            *self.cell_offsets.last().unwrap() as usize,
            self.sorted_slots.len()
        );
        for dz in -1i64..=1 {
            let z = bc[2] as i64 + dz;
            if z < 0 || z >= self.dims[2] as i64 {
                continue;
            }
            let z_base = z as usize * stride_z;
            for dy in -1i64..=1 {
                let y = bc[1] as i64 + dy;
                if y < 0 || y >= self.dims[1] as i64 {
                    continue;
                }
                let row = z_base + y as usize * stride_y;
                // SAFETY: `row + x` indexes a valid box (x ≤ dims[0]-1,
                // y < dims[1], z < dims[2] checked above), `occupancy` has
                // ⌈nboxes/64⌉ words, and `cell_offsets` has nboxes+1
                // entries; every offset is ≤ n = sorted_slots.len() by the
                // prefix-sum build invariant (debug-asserted above).
                unsafe {
                    // Empty-run skip: test the run's ≤3 occupancy bits in
                    // the compact bitmap before touching the 4-byte/box
                    // offset table (the common case at sparse occupancy).
                    let (b0, b1) = (row + x0, row + x1);
                    let (w0, w1) = (b0 >> 6, b1 >> 6);
                    let lo = !0u64 << (b0 & 63);
                    let hi = !0u64 >> (63 - (b1 & 63));
                    let occupied = if w0 == w1 {
                        *self.occupancy.get_unchecked(w0) & lo & hi != 0
                    } else {
                        (*self.occupancy.get_unchecked(w0) & lo)
                            | (*self.occupancy.get_unchecked(w1) & hi)
                            != 0
                    };
                    if !occupied {
                        continue;
                    }
                    let start = *self.cell_offsets.get_unchecked(row + x0) as usize;
                    let end = *self.cell_offsets.get_unchecked(row + x1 + 1) as usize;
                    run(start, end);
                }
            }
        }
    }

    /// The count sweep of the build: records every agent's flat box index
    /// and counts box `b` into `cell_offsets[b + 1]` (zeroed by the caller).
    /// On a pool, one contiguous agent range per worker runs in parallel on
    /// that ONE shared row through relaxed atomic increments — they
    /// commute, so the row is the same whatever the schedule, and it costs
    /// neither a row per worker nor their merge.
    fn count_boxes(&mut self, positions: &[Real3], pool: Option<&NumaThreadPool>) {
        let n = positions.len();
        let Some(pool) = pool else {
            for (i, &p) in positions.iter().enumerate() {
                let flat = self.flat_index(self.box_coordinates(p));
                self.agent_boxes[i] = flat as u32;
                self.cell_offsets[flat + 1] += 1;
            }
            return;
        };
        let agent_boxes_ptr = SendMut::new(self.agent_boxes.as_mut_ptr());
        // SAFETY: u32 and AtomicU32 have identical layout; the row is only
        // accessed through this view inside the parallel region.
        let counts = unsafe {
            std::slice::from_raw_parts(
                self.cell_offsets.as_mut_ptr() as *const AtomicU32,
                self.cell_offsets.len(),
            )
        };
        let grid = &*self;
        pool.parallel_for(n, per_worker(n, pool), &|_, range| {
            for i in range {
                let flat = grid.flat_index(grid.box_coordinates(positions[i]));
                // SAFETY: slot `i` is written by exactly one task.
                unsafe { agent_boxes_ptr.write(i, flat as u32) };
                counts[flat + 1].fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// The merge sweep of the build: ONE pass over the boxes turns each
    /// count in `cell_offsets[b + 1]` into box `b`'s start — the scatter
    /// cursor — in place, and sets the box's occupancy bit, a word of 64
    /// boxes at a time so the bitmap is written once.
    fn merge_counts(&mut self, nboxes: usize, n: usize) {
        self.occupancy.resize(nboxes.div_ceil(64), 0);
        let mut acc = 0u32;
        for (word, counts) in self
            .occupancy
            .iter_mut()
            .zip(self.cell_offsets[1..].chunks_mut(64))
        {
            let mut bits = 0u64;
            for (b, entry) in counts.iter_mut().enumerate() {
                let count = std::mem::replace(entry, acc);
                acc += count;
                bits |= u64::from(count != 0) << b;
            }
            *word = bits;
        }
        debug_assert_eq!(acc as usize, n, "count row must cover every indexed point");
    }

    /// Scatter pass of the build: every agent's interleaved
    /// `(position, index)` slot — and, when requested, its diameter — goes
    /// to the cursor of its box, `cell_offsets[b + 1]`; advancing it past
    /// the box's last agent leaves `start(b + 1)` there, which completes the
    /// offset table. The box space is cut into tiles — contiguous
    /// box ranges balanced by slot count, a whole number of passes per pool
    /// worker (one worker without a pool) — and each tile task scans the
    /// agents in ascending index order and places those of its boxes: tasks
    /// own disjoint cursor and output ranges, and the within-box order is
    /// ascending by agent index regardless of scheduling. A tile re-streams
    /// the cheap sequential box
    /// indices but confines its random slot stores to a bounded window of
    /// the sorted arrays (see [`SCATTER_TILE_BYTES`]), so they hit far fewer
    /// open DRAM pages.
    fn scatter_soa(
        &mut self,
        positions: &[Real3],
        diameters: Option<&[f64]>,
        nboxes: usize,
        pool: Option<&NumaThreadPool>,
    ) {
        let n = positions.len();
        self.sorted_slots.resize(
            n,
            SortedSlot {
                position: Real3::ZERO,
                index: 0,
            },
        );
        if diameters.is_some() {
            self.sorted_diameters.resize(n, 0.0);
        }
        // Tile t covers boxes [tile_bounds[t], tile_bounds[t+1]) and
        // therefore a write window of about n/tiles sorted slots. Box `b`
        // starts at `starts[b]` until the scatter advances it.
        let slot_bytes = SOA_SLOT_BYTES + diameters.map_or(0, |_| std::mem::size_of::<f64>());
        let workers = pool.map_or(1, NumaThreadPool::num_threads);
        let passes = (n * slot_bytes / (SCATTER_TILE_BYTES * workers)).clamp(1, MAX_SCATTER_TILES);
        let tiles = passes * workers;
        let starts = &self.cell_offsets[1..];
        let mut tile_bounds = vec![0usize; tiles + 1];
        for t in 1..tiles {
            let target = (t * n / tiles) as u32;
            tile_bounds[t] = starts
                .partition_point(|&o| o < target)
                .clamp(tile_bounds[t - 1], nboxes);
        }
        tile_bounds[tiles] = nboxes;
        let slot_ptr = SendMut::new(self.sorted_slots.as_mut_ptr());
        let diam_ptr = SendMut::new(self.sorted_diameters.as_mut_ptr());
        let cursors_ptr = SendMut::new(self.cell_offsets[1..].as_mut_ptr());
        let flats = &self.agent_boxes[..n];
        let scatter_tile = |t: usize| {
            let (b0, b1) = (tile_bounds[t] as u32, tile_bounds[t + 1] as u32);
            for (i, &flat) in flats.iter().enumerate() {
                if flat < b0 || flat >= b1 {
                    continue;
                }
                // SAFETY: the cursors of boxes [b0, b1) are owned by this
                // task (tiles cover disjoint box ranges), and cursor ranges
                // partition the sorted arrays, so slot `w` is claimed
                // exactly once across all tasks.
                unsafe {
                    let cursor = cursors_ptr.ptr_at(flat as usize);
                    let w = *cursor as usize;
                    *cursor += 1;
                    slot_ptr.write(
                        w,
                        SortedSlot {
                            position: positions[i],
                            index: i as u32,
                        },
                    );
                    if let Some(src) = diameters {
                        diam_ptr.write(w, src[i]);
                    }
                }
            }
        };
        match pool {
            Some(pool) => pool.parallel_for(tiles, 1, &|_, range| range.for_each(&scatter_tile)),
            None => (0..tiles).for_each(scatter_tile),
        }
    }
}

/// Block size that cuts `0..n` into one contiguous range per worker of
/// `pool`.
fn per_worker(n: usize, pool: &NumaThreadPool) -> usize {
    n.div_ceil(pool.num_threads())
}

impl Environment for UniformGridEnvironment {
    fn update_with(&mut self, positions: &[Real3], interaction_radius: f64, hint: UpdateHint) {
        assert!(
            interaction_radius > 0.0 && interaction_radius.is_finite(),
            "interaction radius must be positive and finite"
        );
        let n = positions.len();
        if let Some(diameters) = hint.diameters {
            assert_eq!(
                diameters.len(),
                n,
                "the diameters to scatter must parallel the positions"
            );
        }
        self.build_count += 1;
        self.num_points = n;
        self.build_radius = interaction_radius;
        self.diameters_active = false;
        if n == 0 {
            self.sorted_slots.clear();
            self.bounds = None;
            self.dims = [0; 3];
            self.global_dims = [0; 3];
            self.box_offset = [0; 3];
            return;
        }
        // Below the threshold the fork-join overhead costs more than the
        // whole serial build; a one-worker pool has nothing to split.
        let pool = hint
            .pool
            .filter(|p| n >= PARALLEL_BUILD_THRESHOLD && p.num_threads() > 1);

        if let Some(frame) = hint.grid_frame {
            // Externally pinned geometry (sharded execution): the anchor,
            // the global lattice with its box edge, and the shard's window
            // all come from the frame — never from these positions — so box
            // membership agrees bitwise with the global build. Bounds are
            // informational under a frame; the caller passes the window's
            // geometric bounds via the hint.
            assert!(
                frame.box_length >= interaction_radius,
                "a frame's boxes must cover the interaction radius"
            );
            self.bounds = hint.known_bounds;
            self.box_length = frame.box_length;
            self.grid_min = frame.anchor;
            self.global_dims = frame.global_dims;
            self.dims = frame.dims;
            for a in 0..3 {
                debug_assert!(frame.dims[a] >= 1, "frame window must be non-empty");
                debug_assert!(
                    frame.box_offset[a] + frame.dims[a] <= frame.global_dims[a].max(1),
                    "frame window must lie inside the global lattice"
                );
                self.box_offset[a] = frame.box_offset[a] as i64;
            }
        } else {
            // Bounding box: taken from the hint when the caller already
            // swept the positions (the engine's snapshot gather), otherwise one
            // reduction pass — on a pool, one partial per worker range,
            // merged under a lock (min and max are exact and commute, so
            // the merge order cannot change the result).
            let (min, max) = hint.known_bounds.unwrap_or_else(|| {
                let neutral = (Real3::splat(f64::INFINITY), Real3::splat(f64::NEG_INFINITY));
                let fold = |range: Range<usize>| {
                    positions[range]
                        .iter()
                        .fold(neutral, |(lo, hi), p| (lo.min(p), hi.max(p)))
                };
                let Some(pool) = pool else {
                    return fold(0..n);
                };
                let merged = Mutex::new(neutral);
                pool.parallel_for(n, per_worker(n, pool), &|_, range| {
                    let (lo, hi) = fold(range);
                    let mut m = merged.lock().expect("no bounds task panicked");
                    *m = (m.0.min(&lo), m.1.max(&hi));
                });
                merged.into_inner().expect("no bounds task panicked")
            });
            self.bounds = Some((min, max));
            self.grid_min = min;
            (self.box_length, self.dims) = Self::lattice_for(min, max, interaction_radius, n);
            self.global_dims = self.dims;
            self.box_offset = [0; 3];
        }
        self.inv_box_length = 1.0 / self.box_length;
        let nboxes = self.num_boxes();
        // The unchecked slot reads rely on flat box indices and offsets
        // fitting `u32`; `lattice_for` guarantees it, a frame must too.
        assert!(nboxes <= u32::MAX as usize, "lattice exceeds 2³² boxes");

        if self.agent_boxes.len() < n {
            self.agent_boxes.resize(n, 0);
        }
        self.cell_offsets.clear();
        self.cell_offsets.resize(nboxes + 1, 0);
        self.count_boxes(positions, pool);
        self.merge_counts(nboxes, n);
        // Box-sorted diameters ride along in the same scatter pass, but
        // only when the caller passed them (the engine does iff mechanics,
        // their only reader, runs this iteration).
        self.scatter_soa(positions, hint.diameters, nboxes, pool);
        self.diameters_active = hint.diameters.is_some();
    }

    fn for_each_neighbor(
        &self,
        _positions: &[Real3],
        pos: Real3,
        exclude: Option<usize>,
        radius: f64,
        _scratch: &mut NeighborQueryScratch,
        visit: &mut dyn FnMut(usize, Real3, f64),
    ) {
        self.for_each_neighbor_soa(pos, exclude, radius, visit);
    }

    fn clear(&mut self) {
        self.num_points = 0;
        self.dims = [0; 3];
        self.global_dims = [0; 3];
        self.box_offset = [0; 3];
        self.bounds = None;
        self.cell_offsets.clear();
        self.sorted_slots.clear();
        self.sorted_diameters.clear();
        self.agent_boxes.clear();
        self.occupancy.clear();
        self.diameters_active = false;
    }

    fn memory_bytes(&self) -> usize {
        // The interleaved slot array is counted at its real (padded)
        // stride; the conditional diameter scatter only when this build
        // materialized it (a lingering buffer from an earlier build costs
        // nothing — fig09's memory column).
        let mut bytes = self.cell_offsets.capacity() * std::mem::size_of::<u32>()
            + self.sorted_slots.capacity() * std::mem::size_of::<SortedSlot>()
            + self.agent_boxes.capacity() * std::mem::size_of::<u32>()
            + self.occupancy.capacity() * std::mem::size_of::<u64>();
        if self.diameters_active {
            bytes += self.sorted_diameters.capacity() * std::mem::size_of::<f64>();
        }
        bytes
    }

    fn name(&self) -> &'static str {
        "uniform_grid"
    }

    fn bounds(&self) -> Option<(Real3, Real3)> {
        self.bounds
    }

    fn as_uniform_grid(&self) -> Option<&UniformGridEnvironment> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use bdm_numa::NumaTopology;
    use bdm_util::SimRng;

    use super::*;
    use crate::GridFrame;

    /// The counting sort by definition, over the grid's own box mapping:
    /// `(offsets, slot order, occupancy bitmap)` with the offsets the
    /// exclusive prefix sum of the box counts and each box's points in
    /// ascending index order.
    fn reference(
        grid: &UniformGridEnvironment,
        points: &[Real3],
    ) -> (Vec<u32>, Vec<u32>, Vec<u64>) {
        let nboxes = grid.num_boxes();
        let mut members = vec![Vec::new(); nboxes];
        for (i, &p) in points.iter().enumerate() {
            members[grid.flat_index(grid.box_coordinates(p))].push(i as u32);
        }
        let mut offsets = vec![0];
        let mut order = Vec::new();
        let mut occupancy = vec![0u64; nboxes.div_ceil(64)];
        for (b, m) in members.iter().enumerate() {
            order.extend(m);
            offsets.push(order.len() as u32);
            occupancy[b / 64] |= u64::from(!m.is_empty()) << (b % 64);
        }
        (offsets, order, occupancy)
    }

    /// Rebuilds `grid` over `points` and checks every per-build table
    /// against [`reference`].
    fn build_and_check(
        grid: &mut UniformGridEnvironment,
        points: &[Real3],
        frame: Option<GridFrame>,
        pool: Option<&NumaThreadPool>,
        what: &str,
    ) {
        let diameters: Vec<f64> = (0..points.len()).map(|i| 1.0 + i as f64).collect();
        let hint = UpdateHint {
            pool,
            grid_frame: frame,
            diameters: Some(&diameters),
            ..UpdateHint::default()
        };
        grid.update_with(points, 3.0, hint);
        let (offsets, order, occupancy) = reference(grid, points);
        assert_eq!(grid.cell_offsets, offsets, "{what}: offsets");
        let slots: Vec<u32> = grid.sorted_slots.iter().map(|s| s.index).collect();
        assert_eq!(slots, order, "{what}: slot order");
        assert!(
            grid.sorted_slots
                .iter()
                .all(|s| s.position == points[s.index as usize]),
            "{what}: slot positions"
        );
        let scattered: Vec<f64> = order.iter().map(|&i| diameters[i as usize]).collect();
        assert_eq!(
            grid.scattered_diameters(),
            Some(&scattered[..]),
            "{what}: diameters"
        );
        assert_eq!(grid.occupancy, occupancy, "{what}: occupancy");
    }

    #[test]
    fn serial_and_pooled_builds_are_the_reference_counting_sort() {
        let pool = NumaThreadPool::new(NumaTopology::new(1, 4));
        let mut rng = SimRng::new(36);
        // Above the parallel-build threshold: ~0.3 points per box (the
        // benchmark scenes' occupancy), then ~5 per box.
        let n = PARALLEL_BUILD_THRESHOLD + 4000;
        let sparse: Vec<Real3> = (0..n).map(|_| rng.point_in_cube(0.0, 190.0)).collect();
        let dense: Vec<Real3> = (0..n).map(|_| rng.point_in_cube(0.0, 70.0)).collect();
        let (min, max) = (Real3::splat(0.0), Real3::splat(190.0));
        let (box_length, global_dims) = UniformGridEnvironment::lattice_for(min, max, 3.0, n);
        let window = GridFrame {
            anchor: min,
            global_dims,
            box_offset: [5, 0, 17],
            dims: [global_dims[0] - 12, global_dims[1], 20],
            box_length,
        };
        for (label, pool) in [("serial", None), ("pooled", Some(&pool))] {
            // One grid through every build: each one must start from a
            // clean table whatever the previous build left in it.
            let mut grid = UniformGridEnvironment::new();
            for (scene, points, frame) in [
                ("sparse", &sparse, None),
                ("dense", &dense, None),
                ("windowed", &sparse, Some(window)),
                ("sparse again", &sparse, None),
            ] {
                build_and_check(&mut grid, points, frame, pool, &format!("{label} {scene}"));
            }
        }
    }
}
