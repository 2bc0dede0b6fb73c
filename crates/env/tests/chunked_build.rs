//! The uniform grid's multi-chunk counting sort and tiled scatter, pinned
//! via the `BDM_GRID_COUNT_CHUNKS` override.
//!
//! Lives in its own test binary (= its own process): the override is
//! process-global and `count_chunks` reads it on every large rebuild, so
//! setting it next to unrelated parallel tests would make *which* build
//! path they exercise nondeterministic.

use bdm_env::{
    neighbors_of, BruteForceEnvironment, Environment, SliceCloud, UniformGridEnvironment,
};
use bdm_util::{Real3, SimRng};

#[test]
fn chunked_count_merge_and_tiled_scatter_match_brute() {
    // Force the multi-chunk counting sort (4 chunk-private count rows) and
    // a multi-tile scatter: 320k points cross the parallel threshold AND
    // the ~4 MB tile window (320k × 32 B ≈ 10 MB → 3 tiles), so the
    // tile-boundary partitioning really runs. The slot order must stay the
    // deterministic ascending-agent-index grouping, and sampled queries
    // must match brute force. (On machines with more worker threads this
    // path also runs without the override; the env var pins it
    // everywhere.)
    std::env::set_var("BDM_GRID_COUNT_CHUNKS", "4");
    let n = 320_000;
    let mut rng = SimRng::new(73);
    let points: Vec<Real3> = (0..n).map(|_| rng.point_in_cube(0.0, 200.0)).collect();
    let mut grid = UniformGridEnvironment::new();
    grid.update(&SliceCloud(&points), 4.0);

    // Deterministic grouping: ascending agent index within every box.
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
            "chunked/tiled build, query {i}"
        );
    }
}
