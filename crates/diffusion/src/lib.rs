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

#![warn(missing_docs)]

use std::sync::Mutex;

use bdm_numa::NumaThreadPool;
use bdm_util::Real3;

/// Grids smaller than this step serially even when a pool is given: they
/// update faster than the per-slice fork-join can dispatch (the common case
/// in the scaled-down models); the paper's 54M-volume grids take the
/// parallel path.
const PARALLEL_VOLUME_THRESHOLD: usize = 1 << 16;

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
    /// Bumped on every concentration change (secretion, solver step,
    /// wholesale overwrite) — delta checkpoints compare versions to skip
    /// serializing an unchanged grid.
    version: u64,
}

impl DiffusionGrid {
    /// Creates a grid for `name` over the cubic domain `[min, min+edge]³`
    /// with `resolution` boxes per axis.
    pub fn new(
        name: impl Into<String>,
        diffusion_coefficient: f64,
        decay_constant: f64,
        resolution: usize,
        min: Real3,
        edge: f64,
    ) -> DiffusionGrid {
        assert!(resolution >= 2, "need at least 2 boxes per axis");
        assert!(edge > 0.0 && diffusion_coefficient >= 0.0 && decay_constant >= 0.0);
        let n = resolution * resolution * resolution;
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
            version: 0,
        }
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

    /// Concentration-change counter (see the field docs): strictly
    /// monotonic over secretions, solver steps, and overwrites.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Overwrites the change counter (checkpoint restore, applied after
    /// [`DiffusionGrid::set_concentrations`] so a restored grid continues
    /// the original's version sequence).
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
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

    /// Box index containing `pos` (positions outside clamp to the border).
    #[inline]
    pub fn box_index(&self, pos: Real3) -> usize {
        let r = self.resolution;
        let mut idx = [0usize; 3];
        for a in 0..3 {
            let rel = (pos[a] - self.min[a]) * self.inv_box_length;
            idx[a] = (rel.max(0.0) as usize).min(r - 1);
        }
        idx[0] + r * (idx[1] + r * idx[2])
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
        self.version += 1;
    }

    /// Central-difference concentration gradient at `pos`
    /// (used by chemotaxis behaviors).
    pub fn gradient_at(&self, pos: Real3) -> Real3 {
        let r = self.resolution;
        let flat = self.box_index(pos);
        let x = flat % r;
        let y = (flat / r) % r;
        let z = flat / (r * r);
        let h2 = 2.0 * self.box_length;
        let sample = |xx: usize, yy: usize, zz: usize| self.c[xx + r * (yy + r * zz)];
        let d = |lo: f64, hi: f64| (hi - lo) / h2;
        Real3::new(
            d(
                sample(x.saturating_sub(1), y, z),
                sample((x + 1).min(r - 1), y, z),
            ),
            d(
                sample(x, y.saturating_sub(1), z),
                sample(x, (y + 1).min(r - 1), z),
            ),
            d(
                sample(x, y, z.saturating_sub(1)),
                sample(x, y, (z + 1).min(r - 1)),
            ),
        )
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
    pub fn step_with(&mut self, dt: f64, pool: Option<&NumaThreadPool>) {
        assert!(dt > 0.0 && dt.is_finite());
        let stable = self.max_stable_dt() * 0.9;
        let substeps = (dt / stable).ceil().max(1.0) as usize;
        let sub_dt = dt / substeps as f64;
        let pool =
            pool.filter(|p| self.c.len() >= PARALLEL_VOLUME_THRESHOLD && p.num_threads() > 1);
        for _ in 0..substeps {
            self.substep(sub_dt, pool);
        }
        self.version += 1;
    }

    /// One FTCS update, on `pool` one task per z-slice.
    fn substep(&mut self, dt: f64, pool: Option<&NumaThreadPool>) {
        let r = self.resolution;
        let h2 = self.box_length * self.box_length;
        let alpha = self.diffusion_coefficient * dt / h2;
        let decay = self.decay_constant * dt;
        let boundary = self.boundary;
        let c = &self.c;
        let slices = self.c_next.chunks_mut(r * r);
        let body = |z: usize, slice: &mut [f64]| {
            // Neighbor sampling with boundary handling. For reflecting
            // boundaries the out-of-domain neighbor mirrors the center value
            // (zero flux); for absorbing boundaries it is zero.
            let get = |x: i64, y: i64, zz: i64, center: f64| -> f64 {
                if x < 0 || y < 0 || zz < 0 || x >= r as i64 || y >= r as i64 || zz >= r as i64 {
                    match boundary {
                        BoundaryCondition::ClosedReflecting => center,
                        BoundaryCondition::OpenAbsorbing => 0.0,
                    }
                } else {
                    c[x as usize + r * (y as usize + r * zz as usize)]
                }
            };
            let z = z as i64;
            for y in 0..r as i64 {
                for x in 0..r as i64 {
                    let center = c[x as usize + r * (y as usize + r * z as usize)];
                    let lap = get(x - 1, y, z, center)
                        + get(x + 1, y, z, center)
                        + get(x, y - 1, z, center)
                        + get(x, y + 1, z, center)
                        + get(x, y, z - 1, center)
                        + get(x, y, z + 1, center)
                        - 6.0 * center;
                    slice[(x + y * r as i64) as usize] =
                        (center + alpha * lap) * (1.0 - decay).max(0.0);
                }
            }
        };
        match pool {
            Some(pool) => {
                // Each slice is locked once, by the one task that writes it.
                let slices: Vec<Mutex<&mut [f64]>> = slices.map(Mutex::new).collect();
                pool.parallel_for(r, 1, &|_, zs| {
                    for z in zs {
                        body(z, &mut slices[z].lock().expect("no slice task panicked"));
                    }
                });
            }
            None => slices.enumerate().for_each(|(z, slice)| body(z, slice)),
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
        self.version += 1;
    }

    /// Approximate heap footprint.
    pub fn memory_bytes(&self) -> usize {
        (self.c.capacity() + self.c_next.capacity()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid(resolution: usize) -> DiffusionGrid {
        DiffusionGrid::new("test", 0.5, 0.0, resolution, Real3::ZERO, 10.0)
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
        assert_eq!(g.concentrations(), &before[..]);
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
