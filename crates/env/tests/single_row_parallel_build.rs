//! The uniform grid's scratch-cap fallback: a single shared count row
//! updated with atomic increments plus the tile-parallel deterministic
//! scatter — the regime where the count-row byte cap forces `chunks == 1`
//! on a machine that still has multiple workers.
//!
//! Own test binary (= own process): both `RAYON_NUM_THREADS` (read once,
//! cached) and `BDM_GRID_COUNT_CHUNKS` are process-global, so they must be
//! pinned before anything else touches the thread pool.

use bdm_env::{
    neighbors_of, BruteForceEnvironment, Environment, SliceCloud, UniformGridEnvironment,
};
use bdm_util::{Real3, SimRng};

#[test]
fn atomic_single_row_build_with_parallel_tiles_matches_brute() {
    // Two workers, but the count-chunk override pins a single row: the
    // build must take the shared-atomic histogram branch and the scatter
    // the tile-parallel branch (320k × 32 B ≈ 10 MB → 3 tiles), and the
    // slot grouping must still be the deterministic ascending-agent-index
    // order.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    std::env::set_var("BDM_GRID_COUNT_CHUNKS", "1");
    let n = 320_000;
    let mut rng = SimRng::new(91);
    let points: Vec<Real3> = (0..n).map(|_| rng.point_in_cube(0.0, 200.0)).collect();
    let mut grid = UniformGridEnvironment::new();
    grid.update(&SliceCloud(&points), 4.0);

    let mut total = 0usize;
    for flat in 0..grid.num_boxes() {
        let slots = grid.box_slots(flat);
        assert!(
            slots.windows(2).all(|w| w[0].index < w[1].index),
            "box {flat}"
        );
        total += slots.len();
    }
    assert_eq!(total, n);

    let mut brute = BruteForceEnvironment::new();
    brute.update(&SliceCloud(&points), 4.0);
    for (i, &p) in points.iter().enumerate().step_by(6553) {
        assert_eq!(
            neighbors_of(&grid, &SliceCloud(&points), p, Some(i), 4.0),
            neighbors_of(&brute, &SliceCloud(&points), p, Some(i), 4.0),
            "atomic single-row build, query {i}"
        );
    }
}
