//! # bdm-diffusion
//!
//! Extracellular substance diffusion — the substrate behind the "diffusion
//! volumes" of paper Table 1 (cell clustering: 54 M volumes, neuroscience:
//! 65 k volumes). Agents secrete substances into a regular grid; the solver
//! advances the diffusion–decay PDE with an explicit forward-time
//! central-space (FTCS) 7-point stencil, parallelized over z-slices on the
//! engine's worker pool ([`DiffusionGrid::step_with`]); agents
//! read concentrations and gradients back via trilinear-free nearest-box
//! sampling plus central differences (what BioDynaMo's `DiffusionGrid` does).
//!
//! ∂c/∂t = D ∇²c − μ c
//!
//! The explicit scheme is stable for dt ≤ h²/(6D); [`DiffusionGrid::step`]
//! automatically substeps to respect the bound.
//!
//! The sweep peels the boundary: interior voxels run as x-runs over the
//! six neighbour rows, a loop the compiler vectorises; faces, edges and
//! corners take the boundary-aware per-voxel path. Both evaluate the same
//! expression in the same order, so the result does not depend on which
//! path a voxel took. Secretions arrive as [`Secretion`]s already resolved
//! to their voxel and are added by [`apply_secretions`], in parallel over
//! z-slabs and in queue order within every voxel.

#![warn(missing_docs)]

use std::sync::Mutex;

use bdm_numa::NumaThreadPool;
use bdm_util::Real3;

/// Grids smaller than this step serially even when a pool is given: they
/// update faster than the per-slice fork-join can dispatch (the common case
/// in the scaled-down models); the paper's 54M-volume grids take the
/// parallel path.
const PARALLEL_VOLUME_THRESHOLD: usize = 1 << 16;

/// Secretion batches smaller than this are added serially: every parallel
/// task scans the whole queue, which only pays once the queue is long.
const PARALLEL_SECRETION_THRESHOLD: usize = 1 << 12;

/// Boundary condition at the faces of the diffusion volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryCondition {
    /// Zero-flux (Neumann): substance is reflected, total mass is conserved
    /// when decay is zero. BioDynaMo's "closed" boundaries.
    #[default]
    ClosedReflecting,
    /// Zero-concentration (Dirichlet): substance leaks out at the faces.
    OpenAbsorbing,
}

/// A named substance diffusing on a regular cubic grid.
#[derive(Debug, Clone)]
pub struct DiffusionGrid {
    name: String,
    diffusion_coefficient: f64,
    decay_constant: f64,
    resolution: usize,
    boundary: BoundaryCondition,
    /// Lower corner and edge length of the cubic domain.
    min: Real3,
    edge: f64,
    box_length: f64,
    /// Cached `1 / box_length`: agents look up their box once per
    /// concentration/gradient read and once per applied secretion, so the
    /// per-axis position scaling multiplies instead of dividing (three
    /// dependent divisions per call dominate the lookup otherwise — same
    /// trick as the uniform grid's `inv_box_length`).
    inv_box_length: f64,
    /// Concentrations, `resolution³` values, x fastest.
    c: Vec<f64>,
    /// Double buffer for the stencil sweep.
    c_next: Vec<f64>,
}

impl DiffusionGrid {
    /// Creates a grid for `name` over the cubic domain `[min, min+edge]³`
    /// with `resolution` boxes per axis.
    ///
    /// # Panics
    /// If `resolution < 2`, if `resolution³` voxels cannot be addressed
    /// with a u32, or unless `D`, `μ`, `edge` and `min` are finite with
    /// `edge > 0` and `D, μ ≥ 0` (an infinite `D` would ask the solver for
    /// unboundedly many substeps).
    pub fn new(
        name: impl Into<String>,
        diffusion_coefficient: f64,
        decay_constant: f64,
        resolution: usize,
        min: Real3,
        edge: f64,
    ) -> DiffusionGrid {
        assert!(resolution >= 2, "need at least 2 boxes per axis");
        assert!(
            min.is_finite()
                && [diffusion_coefficient, decay_constant, edge]
                    .iter()
                    .all(|v| v.is_finite()),
            "grid parameters must be finite"
        );
        assert!(edge > 0.0 && diffusion_coefficient >= 0.0 && decay_constant >= 0.0);
        let n = DiffusionGrid::volumes_for(resolution)
            .expect("a secretion addresses its voxel with a u32");
        DiffusionGrid {
            name: name.into(),
            diffusion_coefficient,
            decay_constant,
            resolution,
            boundary: BoundaryCondition::default(),
            min,
            edge,
            box_length: edge / resolution as f64,
            inv_box_length: resolution as f64 / edge,
            c: vec![0.0; n],
            c_next: vec![0.0; n],
        }
    }

    /// `resolution³`, the volume count of a grid with `resolution` boxes
    /// per axis — `None` if it overflows, or if a voxel would lie beyond the
    /// u32 address a [`Secretion`] carries.
    pub fn volumes_for(resolution: usize) -> Option<usize> {
        let n = resolution
            .checked_mul(resolution)?
            .checked_mul(resolution)?;
        (n <= u32::MAX as usize + 1).then_some(n)
    }

    /// Sets the boundary condition (builder style).
    pub fn with_boundary(mut self, bc: BoundaryCondition) -> DiffusionGrid {
        self.boundary = bc;
        self
    }

    /// Substance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Diffusion coefficient `D`.
    pub fn diffusion_coefficient(&self) -> f64 {
        self.diffusion_coefficient
    }

    /// Decay constant `μ`.
    pub fn decay_constant(&self) -> f64 {
        self.decay_constant
    }

    /// The active boundary condition.
    pub fn boundary(&self) -> BoundaryCondition {
        self.boundary
    }

    /// Lower corner of the cubic domain.
    pub fn domain_min(&self) -> Real3 {
        self.min
    }

    /// Boxes per axis.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Total number of diffusion volumes (`resolution³`), the quantity
    /// reported in paper Table 1.
    pub fn num_volumes(&self) -> usize {
        self.c.len()
    }

    /// Edge length of one box.
    pub fn box_length(&self) -> f64 {
        self.box_length
    }

    /// Edge length of the whole cubic domain.
    pub fn domain_edge(&self) -> f64 {
        self.edge
    }

    /// Voxel coordinates `[x, y, z]` of the box containing `pos` (positions
    /// outside clamp to the border).
    #[inline]
    fn voxel_of(&self, pos: Real3) -> [usize; 3] {
        let r = self.resolution;
        let mut idx = [0usize; 3];
        for a in 0..3 {
            let rel = (pos[a] - self.min[a]) * self.inv_box_length;
            idx[a] = (rel.max(0.0) as usize).min(r - 1);
        }
        idx
    }

    /// Box index containing `pos` (positions outside clamp to the border).
    #[inline]
    pub fn box_index(&self, pos: Real3) -> usize {
        let r = self.resolution;
        let [x, y, z] = self.voxel_of(pos);
        x + r * (y + r * z)
    }

    /// Concentration of the box containing `pos`.
    #[inline]
    pub fn concentration_at(&self, pos: Real3) -> f64 {
        self.c[self.box_index(pos)]
    }

    /// Adds `amount` to the box containing `pos` (agent secretion).
    pub fn increase_concentration(&mut self, pos: Real3, amount: f64) {
        let i = self.box_index(pos);
        self.c[i] += amount;
    }

    /// Central-difference concentration gradient at `pos` (used by
    /// chemotaxis behaviors, once per agent per iteration) over the six
    /// face neighbours of the box containing `pos`; at the border the box
    /// itself stands in for the missing neighbour. The box's coordinates
    /// come straight from `pos`, as in [`DiffusionGrid::box_index`], so the
    /// lookup divides nothing.
    pub fn gradient_at(&self, pos: Real3) -> Real3 {
        let r = self.resolution;
        let [x, y, z] = self.voxel_of(pos);
        let flat = x + r * (y + r * z);
        let h2 = 2.0 * self.box_length;
        // One axis: the neighbours `stride` below and above, or the box
        // itself where `coord` sits on the border.
        let d = |coord: usize, stride: usize| {
            let lo = if coord > 0 { flat - stride } else { flat };
            let hi = if coord + 1 < r { flat + stride } else { flat };
            (self.c[hi] - self.c[lo]) / h2
        };
        Real3::new(d(x, 1), d(y, r), d(z, r * r))
    }

    /// Sum of all concentrations (∝ total substance mass).
    pub fn total(&self) -> f64 {
        self.c.iter().sum()
    }

    /// Largest stable time step of the explicit scheme.
    pub fn max_stable_dt(&self) -> f64 {
        if self.diffusion_coefficient == 0.0 {
            return f64::INFINITY;
        }
        self.box_length * self.box_length / (6.0 * self.diffusion_coefficient)
    }

    /// Advances the PDE by `dt`, substepping if `dt` exceeds the stability
    /// bound. Serial: [`DiffusionGrid::step_with`] without a pool.
    pub fn step(&mut self, dt: f64) {
        self.step_with(dt, None);
    }

    /// [`DiffusionGrid::step`] with the z-slices of each substep spread over
    /// `pool`'s workers (from 2¹⁶ volumes on; smaller grids step serially).
    /// Every slice reads only the previous buffer, so the result is bitwise
    /// the same with or without a pool and for every worker count.
    ///
    /// A frozen grid (`D = 0` and `μ = 0`) is left as it is: its substep
    /// `(c + 0·lap)·1` gives back every finite `c` but `−0`.
    pub fn step_with(&mut self, dt: f64, pool: Option<&NumaThreadPool>) {
        assert!(dt > 0.0 && dt.is_finite());
        if self.diffusion_coefficient == 0.0 && self.decay_constant == 0.0 {
            return;
        }
        let stable = self.max_stable_dt() * 0.9;
        let substeps = (dt / stable).ceil().max(1.0) as usize;
        let sub_dt = dt / substeps as f64;
        let pool =
            pool.filter(|p| self.c.len() >= PARALLEL_VOLUME_THRESHOLD && p.num_threads() > 1);
        for _ in 0..substeps {
            self.substep(sub_dt, pool);
        }
    }

    /// One FTCS update, on `pool` one task per z-slice.
    fn substep(&mut self, dt: f64, pool: Option<&NumaThreadPool>) {
        let r = self.resolution;
        let stencil = Stencil {
            c: &self.c,
            r,
            alpha: self.diffusion_coefficient * dt / (self.box_length * self.box_length),
            factor: (1.0 - self.decay_constant * dt).max(0.0),
            boundary: self.boundary,
        };
        let slices = self.c_next.chunks_mut(r * r);
        match pool {
            Some(pool) => {
                // Each slice is locked once, by the one task that writes it.
                let slices: Vec<Mutex<&mut [f64]>> = slices.map(Mutex::new).collect();
                pool.parallel_for(r, 1, &|_, zs| {
                    for z in zs {
                        stencil.slice(z, &mut slices[z].lock().expect("no slice task panicked"));
                    }
                });
            }
            None => slices
                .enumerate()
                .for_each(|(z, slice)| stencil.slice(z, slice)),
        }
        std::mem::swap(&mut self.c, &mut self.c_next);
    }

    /// Direct read-only access to the concentration values.
    pub fn concentrations(&self) -> &[f64] {
        &self.c
    }

    /// Overwrites every concentration (checkpoint restore; also handy for
    /// initializing analytic profiles). The values are adopted bitwise —
    /// a restored grid steps exactly like the original.
    ///
    /// # Panics
    /// If `values.len() != resolution³`.
    pub fn set_concentrations(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.c.len(),
            "expected resolution³ = {} values",
            self.c.len()
        );
        self.c.copy_from_slice(values);
    }

    /// Approximate heap footprint.
    pub fn memory_bytes(&self) -> usize {
        (self.c.capacity() + self.c_next.capacity()) * std::mem::size_of::<f64>()
    }
}

/// One substep's read side: the previous concentrations and the update's
/// coefficients. Every voxel becomes `(c + α·lap)·f` with
/// `lap = x− + x+ + y− + y+ + z− + z+ − 6c`, summed left to right.
struct Stencil<'a> {
    c: &'a [f64],
    r: usize,
    /// `D·dt / h²`.
    alpha: f64,
    /// `(1 − μ·dt).max(0)`.
    factor: f64,
    boundary: BoundaryCondition,
}

impl Stencil<'_> {
    /// Writes z-slice `z` of the next buffer. The voxels with all six
    /// neighbours inside the grid run as x-runs over the neighbour rows;
    /// the rest take [`Stencil::voxel`].
    fn slice(&self, z: usize, out: &mut [f64]) {
        let r = self.r;
        let boundary_slice = z == 0 || z == r - 1;
        for (y, row) in out.chunks_mut(r).enumerate() {
            if boundary_slice || y == 0 || y == r - 1 {
                for (x, v) in row.iter_mut().enumerate() {
                    *v = self.voxel(x, y, z);
                }
            } else {
                row[0] = self.voxel(0, y, z);
                // Flat index of voxel (1, y, z), the run's first.
                self.interior_run(1 + r * (y + r * z), &mut row[1..r - 1]);
                row[r - 1] = self.voxel(r - 1, y, z);
            }
        }
    }

    /// The interior voxels `i .. i + out.len()` of one x-row, each with all
    /// six neighbours inside the grid.
    #[inline]
    fn interior_run(&self, i: usize, out: &mut [f64]) {
        let (c, n, plane) = (self.c, out.len(), self.r * self.r);
        let row = |start: usize| &c[start..start + n];
        let (center, xm, xp) = (row(i), row(i - 1), row(i + 1));
        let (ym, yp) = (row(i - self.r), row(i + self.r));
        let (zm, zp) = (row(i - plane), row(i + plane));
        let (alpha, factor) = (self.alpha, self.factor);
        for (k, v) in out.iter_mut().enumerate() {
            let lap = xm[k] + xp[k] + ym[k] + yp[k] + zm[k] + zp[k] - 6.0 * center[k];
            *v = (center[k] + alpha * lap) * factor;
        }
    }

    /// One voxel with boundary handling: for reflecting boundaries the
    /// out-of-domain neighbour mirrors the center value (zero flux); for
    /// absorbing boundaries it is zero.
    fn voxel(&self, x: usize, y: usize, z: usize) -> f64 {
        let r = self.r as i64;
        let c = self.c;
        let center = c[x + self.r * (y + self.r * z)];
        let get = |x: i64, y: i64, z: i64| -> f64 {
            if x < 0 || y < 0 || z < 0 || x >= r || y >= r || z >= r {
                match self.boundary {
                    BoundaryCondition::ClosedReflecting => center,
                    BoundaryCondition::OpenAbsorbing => 0.0,
                }
            } else {
                c[(x + r * (y + r * z)) as usize]
            }
        };
        let (x, y, z) = (x as i64, y as i64, z as i64);
        let lap = get(x - 1, y, z)
            + get(x + 1, y, z)
            + get(x, y - 1, z)
            + get(x, y + 1, z)
            + get(x, y, z - 1)
            + get(x, y, z + 1)
            - 6.0 * center;
        (center + self.alpha * lap) * self.factor
    }
}

/// One agent's secretion, resolved to its voxel while the agent ran:
/// `amount` is added to voxel `voxel` ([`DiffusionGrid::box_index`]) of
/// grid `grid`. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Secretion {
    /// Index of the grid in the slice handed to [`apply_secretions`].
    pub grid: u32,
    /// Flat voxel index, x fastest.
    pub voxel: u32,
    /// Quantity added.
    pub amount: f64,
}

/// Adds every secretion of `batches` to its grid. Within every voxel the
/// additions run in the order of `batches`, and within a batch in slice
/// order, so the result is a pure function of that order — whatever the
/// pool.
///
/// With a pool and at least 2¹² secretions, each worker owns one
/// contiguous z-slab range of every grid and scans the whole queue for the
/// entries that fall into it: disjoint writes, no atomics.
///
/// Every `voxel` must come from its grid's [`DiffusionGrid::box_index`].
///
/// # Panics
/// If a secretion names a grid that does not exist.
pub fn apply_secretions(
    grids: &mut [DiffusionGrid],
    batches: &[&[Secretion]],
    pool: Option<&NumaThreadPool>,
) {
    let total: usize = batches.iter().map(|b| b.len()).sum();
    if total == 0 {
        return;
    }
    let tasks = pool
        .map(NumaThreadPool::num_threads)
        .filter(|&t| t > 1 && total >= PARALLEL_SECRETION_THRESHOLD)
        .unwrap_or(1);
    // parts[t][g] = (first voxel, slab) of grid g owned by task t.
    let mut parts: Vec<Vec<(usize, &mut [f64])>> = (0..tasks)
        .map(|_| Vec::with_capacity(grids.len()))
        .collect();
    for grid in grids.iter_mut() {
        let (r, plane) = (grid.resolution, grid.resolution * grid.resolution);
        let mut rest = &mut grid.c[..];
        let mut first = 0;
        for (t, part) in parts.iter_mut().enumerate() {
            let end = (t + 1) * r / tasks * plane;
            let (slab, tail) = std::mem::take(&mut rest).split_at_mut(end - first);
            part.push((first, slab));
            (rest, first) = (tail, end);
        }
    }
    let apply = |part: &mut [(usize, &mut [f64])]| {
        for s in batches.iter().flat_map(|b| b.iter()) {
            let (first, slab) = &mut part[s.grid as usize];
            // Below the slab the difference wraps past its end.
            if let Some(c) = slab.get_mut((s.voxel as usize).wrapping_sub(*first)) {
                *c += s.amount;
            }
        }
    };
    match pool {
        Some(pool) if tasks > 1 => {
            let parts: Vec<Mutex<Vec<(usize, &mut [f64])>>> =
                parts.into_iter().map(Mutex::new).collect();
            pool.parallel_for(tasks, 1, &|_, ts| {
                for t in ts {
                    apply(&mut parts[t].lock().expect("no secretion task panicked"));
                }
            });
        }
        _ => apply(&mut parts[0]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid(resolution: usize) -> DiffusionGrid {
        DiffusionGrid::new("test", 0.5, 0.0, resolution, Real3::ZERO, 10.0)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn pools() -> Vec<NumaThreadPool> {
        [1, 2, 4]
            .map(|t| NumaThreadPool::new(bdm_numa::NumaTopology::new(1, t)))
            .into()
    }

    /// The sweep before the boundary was peeled: every voxel through the
    /// six-closure path, serially. The kernel must match it bitwise.
    fn oracle_step(g: &mut DiffusionGrid, dt: f64) {
        let stable = g.max_stable_dt() * 0.9;
        let substeps = (dt / stable).ceil().max(1.0) as usize;
        let sub_dt = dt / substeps as f64;
        for _ in 0..substeps {
            let r = g.resolution;
            let h2 = g.box_length * g.box_length;
            let alpha = g.diffusion_coefficient * sub_dt / h2;
            let decay = g.decay_constant * sub_dt;
            let (c, boundary) = (&g.c, g.boundary);
            let get = |x: i64, y: i64, z: i64, center: f64| -> f64 {
                if x < 0 || y < 0 || z < 0 || x >= r as i64 || y >= r as i64 || z >= r as i64 {
                    match boundary {
                        BoundaryCondition::ClosedReflecting => center,
                        BoundaryCondition::OpenAbsorbing => 0.0,
                    }
                } else {
                    c[x as usize + r * (y as usize + r * z as usize)]
                }
            };
            for z in 0..r as i64 {
                for y in 0..r as i64 {
                    for x in 0..r as i64 {
                        let i = x as usize + r * (y as usize + r * z as usize);
                        let center = c[i];
                        let lap = get(x - 1, y, z, center)
                            + get(x + 1, y, z, center)
                            + get(x, y - 1, z, center)
                            + get(x, y + 1, z, center)
                            + get(x, y, z - 1, center)
                            + get(x, y, z + 1, center)
                            - 6.0 * center;
                        g.c_next[i] = (center + alpha * lap) * (1.0 - decay).max(0.0);
                    }
                }
            }
            std::mem::swap(&mut g.c, &mut g.c_next);
        }
    }

    #[test]
    fn construction_and_geometry() {
        let g = grid(10);
        assert_eq!(g.resolution(), 10);
        assert_eq!(g.num_volumes(), 1000);
        assert!((g.box_length() - 1.0).abs() < 1e-12);
        assert_eq!(g.name(), "test");
        assert!(g.memory_bytes() >= 2 * 1000 * 8);
    }

    #[test]
    fn box_index_clamps_out_of_domain() {
        let g = grid(4);
        assert_eq!(g.box_index(Real3::splat(-100.0)), 0);
        let last = g.num_volumes() - 1;
        assert_eq!(g.box_index(Real3::splat(100.0)), last);
    }

    #[test]
    fn secretion_then_read_back() {
        let mut g = grid(8);
        let p = Real3::new(3.2, 4.7, 5.1);
        g.increase_concentration(p, 2.5);
        assert_eq!(g.concentration_at(p), 2.5);
        assert_eq!(g.total(), 2.5);
    }

    #[test]
    fn mass_conservation_closed_boundaries() {
        let mut g = grid(12).with_boundary(BoundaryCondition::ClosedReflecting);
        g.increase_concentration(Real3::splat(5.0), 100.0);
        for _ in 0..50 {
            g.step(0.1);
        }
        assert!((g.total() - 100.0).abs() < 1e-9, "total={}", g.total());
        assert!(g
            .concentrations()
            .iter()
            .all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn open_boundaries_lose_mass() {
        let mut g = grid(8).with_boundary(BoundaryCondition::OpenAbsorbing);
        g.increase_concentration(Real3::splat(1.0), 100.0); // near a corner
        for _ in 0..200 {
            g.step(0.1);
        }
        assert!(g.total() < 50.0, "mass must leak out: {}", g.total());
    }

    #[test]
    fn decay_is_exponential_without_diffusion() {
        let mut g = DiffusionGrid::new("d", 0.0, 0.1, 4, Real3::ZERO, 4.0);
        g.increase_concentration(Real3::splat(2.0), 1.0);
        g.step(1.0);
        // One explicit step: c *= (1 - mu*dt)
        assert!((g.total() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn diffusion_spreads_symmetrically() {
        let mut g = grid(9);
        let center = Real3::splat(5.0); // box (4,4,4) is the exact center
        g.increase_concentration(center, 1.0);
        for _ in 0..20 {
            g.step(0.05);
        }
        // Mirror boxes around the center must hold equal concentration.
        let r = 9usize;
        let at = |x: usize, y: usize, z: usize| g.concentrations()[x + r * (y + r * z)];
        let eps = 1e-12;
        assert!((at(3, 4, 4) - at(5, 4, 4)).abs() < eps);
        assert!((at(4, 3, 4) - at(4, 5, 4)).abs() < eps);
        assert!((at(4, 4, 3) - at(4, 4, 5)).abs() < eps);
        assert!((at(3, 4, 4) - at(4, 3, 4)).abs() < eps, "axis symmetry");
        // Center remains the maximum.
        let max = g
            .concentrations()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(max, at(4, 4, 4));
    }

    #[test]
    fn gradient_points_toward_source() {
        let mut g = grid(16);
        let source = Real3::new(8.0, 5.0, 5.0);
        g.increase_concentration(source, 10.0);
        for _ in 0..30 {
            g.step(0.05);
        }
        let probe = Real3::new(4.0, 5.0, 5.0); // left of the source
        let grad = g.gradient_at(probe);
        assert!(
            grad.x() > 0.0,
            "gradient x must point toward source: {grad:?}"
        );
        assert!(grad.y().abs() < grad.x());
    }

    #[test]
    fn gradient_at_reads_the_face_neighbours() {
        // Against the same central difference taken from coordinates
        // recovered out of the flat box index, border boxes included.
        let mut g = grid(5);
        let mut rng = bdm_util::SimRng::new(11);
        for i in 0..g.num_volumes() {
            g.c[i] = rng.uniform();
        }
        let r = g.resolution;
        let h2 = 2.0 * g.box_length;
        let at = |x: usize, y: usize, z: usize| g.c[x + r * (y + r * z)];
        for _ in 0..2000 {
            let pos = rng.point_in_cube(-1.0, 11.0);
            let flat = g.box_index(pos);
            let (x, y, z) = (flat % r, (flat / r) % r, flat / (r * r));
            let (lo, hi) = (
                |c: usize| c.saturating_sub(1),
                |c: usize| (c + 1).min(r - 1),
            );
            let expect = Real3::new(
                (at(hi(x), y, z) - at(lo(x), y, z)) / h2,
                (at(x, hi(y), z) - at(x, lo(y), z)) / h2,
                (at(x, y, hi(z)) - at(x, y, lo(z))) / h2,
            );
            assert_eq!(g.gradient_at(pos), expect, "{pos:?}");
        }
    }

    #[test]
    fn unstable_dt_is_substepped() {
        let mut g = grid(8); // stable dt ~ 10/8 squared / 3 ≈ 0.52
        g.increase_concentration(Real3::splat(5.0), 1.0);
        g.step(100.0); // far beyond the stability bound
        assert!(g
            .concentrations()
            .iter()
            .all(|&v| v.is_finite() && v >= -1e-12));
        assert!((g.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_diffusion_keeps_profile() {
        let mut g = DiffusionGrid::new("z", 0.0, 0.0, 6, Real3::ZERO, 6.0);
        g.increase_concentration(Real3::splat(3.0), 7.0);
        let before = g.concentrations().to_vec();
        g.step(1.0);
        assert_eq!(bits(g.concentrations()), bits(&before));
    }

    #[test]
    fn pooled_step_is_bitwise_serial() {
        // 48³ volumes crosses the parallel-volume threshold, which every
        // other grid in these tests stays below.
        for bc in [
            BoundaryCondition::ClosedReflecting,
            BoundaryCondition::OpenAbsorbing,
        ] {
            let run = |pool: Option<&NumaThreadPool>| {
                let mut g =
                    DiffusionGrid::new("p", 0.5, 0.01, 48, Real3::ZERO, 48.0).with_boundary(bc);
                let mut rng = bdm_util::SimRng::new(48);
                for _ in 0..64 {
                    let amount = rng.uniform_in(0.1, 5.0);
                    g.increase_concentration(rng.point_in_cube(0.0, 48.0), amount);
                }
                // dt exceeds the stability bound (0.3), so every step
                // substeps: the buffer swap is covered too.
                for _ in 0..2 {
                    g.step_with(0.9, pool);
                }
                g.concentrations().to_vec()
            };
            let serial = run(None);
            for threads in [1, 2, 4] {
                let pool = NumaThreadPool::new(bdm_numa::NumaTopology::new(1, threads));
                let pooled = run(Some(&pool));
                assert!(
                    pooled
                        .iter()
                        .zip(&serial)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{bc:?} on {threads} workers"
                );
            }
        }
    }

    #[test]
    fn peeled_sweep_is_bitwise_the_oracle() {
        let pools = pools();
        for resolution in [2, 3, 5, 17, 48] {
            for bc in [
                BoundaryCondition::ClosedReflecting,
                BoundaryCondition::OpenAbsorbing,
            ] {
                for decay in [0.0, 0.01] {
                    let edge = resolution as f64;
                    let mut start =
                        DiffusionGrid::new("o", 0.5, decay, resolution, Real3::ZERO, edge)
                            .with_boundary(bc);
                    let mut rng = bdm_util::SimRng::new(resolution as u64);
                    let values: Vec<f64> = (0..start.num_volumes())
                        .map(|_| rng.uniform_in(0.0, 5.0))
                        .collect();
                    start.set_concentrations(&values);
                    // dt = 0.7 exceeds the stability bound (0.3): two
                    // substeps per step, so the buffer swap is covered.
                    let mut oracle = start.clone();
                    for _ in 0..3 {
                        oracle_step(&mut oracle, 0.7);
                    }
                    let expected = bits(oracle.concentrations());
                    let pooled = pools.iter().map(Some);
                    for pool in std::iter::once(None).chain(pooled) {
                        let mut g = start.clone();
                        for _ in 0..3 {
                            g.step_with(0.7, pool);
                        }
                        assert_eq!(
                            bits(g.concentrations()),
                            expected,
                            "r={resolution} {bc:?} decay={decay} workers={:?}",
                            pool.map(NumaThreadPool::num_threads)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn closed_grid_conserves_mass_over_1000_steps() {
        let mut g = DiffusionGrid::new("m", 0.4, 0.0, 16, Real3::ZERO, 16.0);
        let mut rng = bdm_util::SimRng::new(1000);
        for _ in 0..200 {
            let amount = rng.uniform_in(0.1, 5.0);
            g.increase_concentration(rng.point_in_cube(0.0, 16.0), amount);
        }
        let before = g.total();
        for _ in 0..1000 {
            g.step(0.4);
        }
        let drift = (g.total() - before).abs() / before;
        assert!(drift <= 1e-12, "relative mass drift {drift:e}");
    }

    #[test]
    fn parallel_secretions_land_where_serial_ones_do() {
        // Two grids of different resolution; positions on the z-slab
        // boundaries of 2 and 4 tasks (and a hair either side), in the
        // corners, outside the domain, and at random.
        let grids = || {
            vec![
                DiffusionGrid::new("a", 0.4, 0.0, 48, Real3::ZERO, 48.0),
                DiffusionGrid::new("b", 0.4, 0.0, 17, Real3::splat(-2.0), 34.0),
            ]
        };
        let mut rng = bdm_util::SimRng::new(17);
        let mut queue = Vec::new();
        for k in 0..6000 {
            let grid = k % 2;
            let lo = if grid == 0 { 0.0 } else { -2.0 };
            let edge = if grid == 0 { 48.0 } else { 34.0 };
            let z = match k % 6 {
                0 => lo + edge * [0.25, 0.5, 0.75][k % 3],
                1 => lo + edge * 0.5 - 1e-9,
                2 => lo + edge * 0.5 + 1e-9,
                _ => rng.uniform_in(lo, lo + edge),
            };
            let pos = match k % 7 {
                0 => Real3::splat(lo),
                1 => Real3::splat(lo + edge),
                2 => Real3::new(-1e9, 1e9, z),
                3 => Real3::splat(f64::MAX),
                _ => Real3::new(
                    rng.uniform_in(lo, lo + edge),
                    rng.uniform_in(lo, lo + edge),
                    z,
                ),
            };
            queue.push((grid, pos, rng.uniform_in(0.0, 1.0) / (k + 1) as f64));
        }
        let mut serial = grids();
        for &(grid, pos, amount) in &queue {
            serial[grid].increase_concentration(pos, amount);
        }
        let resolved: Vec<Secretion> = queue
            .iter()
            .map(|&(grid, pos, amount)| Secretion {
                grid: grid as u32,
                voxel: serial[grid].box_index(pos) as u32,
                amount,
            })
            .collect();
        let batches: Vec<&[Secretion]> = resolved.chunks(777).collect();
        let pools = pools();
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let mut applied = grids();
            apply_secretions(&mut applied, &batches, pool);
            for (a, s) in applied.iter().zip(&serial) {
                assert_eq!(bits(a.concentrations()), bits(s.concentrations()));
            }
        }
        assert_eq!(std::mem::size_of::<Secretion>(), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_mass_conserved_and_nonnegative(
            seed in any::<u64>(),
            res in 4usize..12,
            d_coef in 0.01f64..2.0,
            steps in 1usize..20,
        ) {
            let mut g = DiffusionGrid::new("p", d_coef, 0.0, res, Real3::ZERO, 10.0);
            let mut rng = bdm_util::SimRng::new(seed);
            let mut injected = 0.0;
            for _ in 0..10 {
                let amount = rng.uniform_in(0.1, 5.0);
                g.increase_concentration(rng.point_in_cube(0.0, 10.0), amount);
                injected += amount;
            }
            for _ in 0..steps {
                g.step(0.2);
            }
            prop_assert!((g.total() - injected).abs() < 1e-6 * injected.max(1.0));
            prop_assert!(g.concentrations().iter().all(|&v| v >= -1e-12 && v.is_finite()));
        }

        #[test]
        fn prop_decay_reduces_mass(
            res in 4usize..10,
            decay in 0.01f64..0.5,
        ) {
            let mut g = DiffusionGrid::new("p", 0.1, decay, res, Real3::ZERO, 10.0);
            g.increase_concentration(Real3::splat(5.0), 10.0);
            let before = g.total();
            g.step(0.5);
            prop_assert!(g.total() < before);
            prop_assert!(g.total() > 0.0);
        }
    }
}
