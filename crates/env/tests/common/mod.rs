//! Shared scene generator for the grid's integration tests.

use bdm_util::{Real3, SimRng};

/// `n` points in clumps of four (so neighbors exist at any sparsity) whose
/// clump centres spread over a cube sized for `boxes_per_point`
/// radius-sized boxes per point.
pub fn clumped_points(seed: u64, n: usize, radius: f64, boxes_per_point: f64) -> Vec<Real3> {
    let extent = radius * (boxes_per_point * n as f64).cbrt();
    let mut rng = SimRng::new(seed);
    let mut centre = Real3::ZERO;
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                centre = rng.point_in_cube(0.0, extent);
            }
            centre + rng.unit_vector() * rng.uniform_in(0.0, 0.8 * radius)
        })
        .collect()
}
