//! The uniform grid's parallel build — one shared count row incremented
//! atomically, one merge sweep, a tile-parallel scatter — on a pool of four
//! workers passed through `UpdateHint::pool`.

use bdm_env::{
    neighbors_of, BruteForceEnvironment, Environment, UniformGridEnvironment, UpdateHint,
};
use bdm_numa::{NumaThreadPool, NumaTopology};
use bdm_util::{Real3, SimRng};

/// Builds the grid over `points` on `pool` and checks the deterministic
/// grouping (every point once, ascending agent index within every box) and
/// sampled queries against brute force.
fn check_build(
    points: &[Real3],
    radius: f64,
    pool: &NumaThreadPool,
    what: &str,
) -> UniformGridEnvironment {
    let mut grid = UniformGridEnvironment::new();
    let hint = UpdateHint {
        pool: Some(pool),
        ..UpdateHint::default()
    };
    grid.update_with(points, radius, hint);
    let mut total = 0usize;
    for flat in 0..grid.num_boxes() {
        let slots = grid.box_slots(flat);
        assert!(
            slots.windows(2).all(|w| w[0].index < w[1].index),
            "{what}: box {flat}"
        );
        total += slots.len();
    }
    assert_eq!(total, points.len(), "{what}");
    let mut brute = BruteForceEnvironment::new();
    brute.update(points, radius);
    for (i, &p) in points.iter().enumerate().step_by(6553) {
        assert_eq!(
            neighbors_of(&grid, points, p, Some(i), radius),
            neighbors_of(&brute, points, p, Some(i), radius),
            "{what}: query {i}"
        );
    }
    grid
}

#[test]
fn parallel_build_matches_brute_sparse_and_dense() {
    let pool = NumaThreadPool::new(NumaTopology::new(2, 4));
    let mut rng = SimRng::new(73);

    // Sparse: 320k points above the parallel threshold, ~0.4 per box, so
    // the four scatter tiles cut the box space at real boundaries.
    let sparse: Vec<Real3> = (0..320_000)
        .map(|_| rng.point_in_cube(0.0, 200.0))
        .collect();
    check_build(&sparse, 4.0, &pool, "sparse");

    // Dense: ≥ 8 points per box on average, so the four workers' atomic
    // increments really collide on the shared count row.
    let dense: Vec<Real3> = (0..100_000).map(|_| rng.point_in_cube(0.0, 60.0)).collect();
    let grid = check_build(&dense, 3.0, &pool, "dense");
    assert!(dense.len() >= 8 * grid.num_boxes(), "scene is not dense");
}
