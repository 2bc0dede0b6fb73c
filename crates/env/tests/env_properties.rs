//! Cross-implementation properties: every environment must return exactly
//! the neighbors the brute-force reference returns, for arbitrary point sets
//! and radii (the correctness contract behind paper Figure 11's comparison).

use bdm_env::uniform_grid::MAX_BOXES_PER_POINT;
use bdm_env::{
    neighbors_of, BruteForceEnvironment, Environment, KdTreeEnvironment, OctreeEnvironment,
    SliceCloud, UniformGridEnvironment, UpdateHint,
};
use bdm_numa::{NumaThreadPool, NumaTopology};
use bdm_util::{Real3, SimRng};
use proptest::prelude::*;

mod common;
use common::clumped_points;

/// Views a position slice as a `PointCloud`.
fn pc(points: &[Real3]) -> SliceCloud<'_> {
    SliceCloud(points)
}

fn environments() -> Vec<Box<dyn Environment>> {
    vec![
        Box::new(UniformGridEnvironment::new()),
        Box::new(KdTreeEnvironment::new()),
        Box::new(OctreeEnvironment::new()),
    ]
}

fn random_points(seed: u64, n: usize, extent: f64) -> Vec<Real3> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| rng.point_in_cube(0.0, extent)).collect()
}

/// Compares each environment against brute force for every point as a query.
fn check_against_brute(points: &[Real3], radius: f64) {
    let mut brute = BruteForceEnvironment::new();
    brute.update(&pc(points), radius);
    for mut env in environments() {
        env.update(&pc(points), radius);
        for (i, &p) in points.iter().enumerate() {
            let expected = neighbors_of(&brute, &pc(points), p, Some(i), radius);
            let got = neighbors_of(env.as_ref(), &pc(points), p, Some(i), radius);
            assert_eq!(
                got,
                expected,
                "{} disagrees with brute force (query {i}, radius {radius})",
                env.name()
            );
        }
    }
}

#[test]
fn empty_cloud_yields_no_neighbors() {
    let points: Vec<Real3> = Vec::new();
    for mut env in environments() {
        env.update(&pc(&points), 1.0);
        let got = neighbors_of(env.as_ref(), &pc(&points), Real3::ZERO, None, 1.0);
        assert!(got.is_empty(), "{}", env.name());
        assert_eq!(env.bounds(), None);
    }
}

#[test]
fn single_point() {
    let points = vec![Real3::new(1.0, 2.0, 3.0)];
    for mut env in environments() {
        env.update(&pc(&points), 2.0);
        // Query at the point, excluding it.
        let got = neighbors_of(env.as_ref(), &pc(&points), points[0], Some(0), 2.0);
        assert!(got.is_empty(), "{}", env.name());
        // Query nearby without exclusion.
        let got = neighbors_of(
            env.as_ref(),
            &pc(&points),
            Real3::new(1.5, 2.0, 3.0),
            None,
            2.0,
        );
        assert_eq!(got, vec![0], "{}", env.name());
    }
}

#[test]
fn coincident_points() {
    let points = vec![Real3::splat(5.0); 40];
    check_against_brute(&points, 1.0);
}

#[test]
fn points_on_a_line() {
    let points: Vec<Real3> = (0..50)
        .map(|i| Real3::new(i as f64 * 0.5, 0.0, 0.0))
        .collect();
    check_against_brute(&points, 1.0);
}

#[test]
fn clustered_points() {
    let mut rng = SimRng::new(99);
    let mut points = Vec::new();
    for c in 0..5 {
        let center = Real3::splat(c as f64 * 20.0);
        for _ in 0..30 {
            points.push(center + rng.unit_vector() * rng.uniform_in(0.0, 2.0));
        }
    }
    check_against_brute(&points, 3.0);
}

#[test]
fn dense_uniform_cube() {
    let points = random_points(7, 300, 10.0);
    check_against_brute(&points, 2.0);
}

#[test]
fn sparse_points_in_large_space() {
    // Large empty space: far more radius-sized boxes than points, so the
    // grid coarsens its lattice.
    let points = random_points(8, 50, 1000.0);
    check_against_brute(&points, 30.0);
}

#[test]
fn grid_reuse_across_updates_does_not_leak_stale_agents() {
    // First build a dense cloud, then a tiny one; the previous build's
    // buffers must not resurface old indices.
    let mut grid = UniformGridEnvironment::new();
    let dense = random_points(21, 500, 50.0);
    grid.update(&pc(&dense), 5.0);
    let sparse = vec![Real3::splat(25.0), Real3::splat(26.0)];
    grid.update(&pc(&sparse), 5.0);
    for (i, &p) in sparse.iter().enumerate() {
        let got = neighbors_of(&grid, &pc(&sparse), p, Some(i), 5.0);
        let expected: Vec<usize> = (0..sparse.len()).filter(|&j| j != i).collect();
        assert_eq!(got, expected);
    }
}

#[test]
fn grid_many_updates_stay_consistent() {
    let mut grid = UniformGridEnvironment::new();
    let points = random_points(3, 64, 20.0);
    let mut brute = BruteForceEnvironment::new();
    brute.update(&pc(&points), 4.0);
    for _ in 0..100 {
        grid.update(&pc(&points), 4.0);
    }
    for (i, &p) in points.iter().enumerate() {
        assert_eq!(
            neighbors_of(&grid, &pc(&points), p, Some(i), 4.0),
            neighbors_of(&brute, &pc(&points), p, Some(i), 4.0)
        );
    }
}

#[test]
fn grid_box_accessors_enumerate_all_agents() {
    let points = random_points(13, 200, 30.0);
    let mut grid = UniformGridEnvironment::new();
    grid.update(&pc(&points), 3.0);
    let mut seen = vec![false; points.len()];
    for flat in 0..grid.num_boxes() {
        for slot in grid.box_slots(flat) {
            let i = slot.index as usize;
            assert!(!seen[i], "agent {i} listed twice");
            seen[i] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "every agent is in exactly one box");
}

#[test]
fn points_exactly_on_box_boundaries() {
    // Points at exact multiples of the interaction radius sit exactly on
    // box edges; binning must stay consistent between the insert and the
    // query side.
    let radius = 1.0;
    let mut points = Vec::new();
    for x in 0..5 {
        for y in 0..5 {
            for z in 0..5 {
                points.push(Real3::new(x as f64, y as f64, z as f64));
            }
        }
    }
    check_against_brute(&points, radius);
    // Also with a radius that makes the lattice spacing a non-integer
    // multiple (floating-point boundary rounding).
    check_against_brute(&points, 0.5);
}

#[test]
fn interaction_radius_change_between_updates() {
    // The same grid instance rebuilt with a different radius must fully
    // re-bin: box length, dims, and the slot runs all change shape.
    let points = random_points(31, 400, 20.0);
    let mut grid = UniformGridEnvironment::new();
    let mut brute = BruteForceEnvironment::new();
    for radius in [2.0, 7.0, 0.5, 3.25] {
        grid.update(&pc(&points), radius);
        brute.update(&pc(&points), radius);
        for (i, &p) in points.iter().enumerate().step_by(13) {
            assert_eq!(
                neighbors_of(&grid, &pc(&points), p, Some(i), radius),
                neighbors_of(&brute, &pc(&points), p, Some(i), radius),
                "radius {radius}, query {i}"
            );
        }
    }
}

#[test]
fn degenerate_all_points_in_one_box() {
    // The whole cloud falls into a single grid box (extent < radius): the
    // 3×3×3 stencil degenerates to that one box and the slot array is one
    // run covering every point.
    let mut rng = SimRng::new(77);
    let points: Vec<Real3> = (0..120).map(|_| rng.point_in_cube(10.0, 10.4)).collect();
    let mut grid = UniformGridEnvironment::new();
    grid.update(&pc(&points), 1.0);
    assert_eq!(grid.dims(), [1, 1, 1]);
    check_against_brute(&points, 1.0);
}

/// The single-structure contract at one density, on a grid instance that may
/// carry any previous build: the lattice respects the box budget and only
/// coarsens when it must, every query matches brute force, and the resolved
/// stencil runs stream candidates in exactly the per-agent query order.
fn check_density(grid: &mut UniformGridEnvironment, points: &[Real3], radius: f64) {
    let n = points.len();
    grid.update(&pc(points), radius);
    assert!(grid.num_boxes() <= MAX_BOXES_PER_POINT * n);
    assert!(grid.box_length() >= radius);
    let (lo, hi) = grid.bounds().unwrap();
    let (edge, dims) = UniformGridEnvironment::lattice_for(lo, hi, radius, n);
    assert_eq!((grid.box_length(), grid.dims()), (edge, dims));
    let raw: f64 = (0..3)
        .map(|a| ((hi[a] - lo[a]) / radius).floor() + 1.0)
        .product();
    assert_eq!(
        edge == radius,
        raw <= (MAX_BOXES_PER_POINT * n) as f64,
        "coarsened exactly when the radius-sized lattice exceeds the budget"
    );

    let mut brute = BruteForceEnvironment::new();
    brute.update(&pc(points), radius);
    for (i, &p) in points.iter().enumerate() {
        let mut queried = Vec::new();
        grid.for_each_neighbor_soa(p, Some(i), radius, |idx, _, _| queried.push(idx));
        let r2 = radius * radius;
        let mut streamed = Vec::new();
        for &(start, end) in grid.stencil_runs(grid.box_coordinates(p)).runs() {
            for s in &grid.slots()[start as usize..end as usize] {
                if p.distance_sq(&s.position) <= r2 && s.index as usize != i {
                    streamed.push(s.index as usize);
                }
            }
        }
        assert_eq!(streamed, queried, "run order != query order (query {i})");
        queried.sort_unstable();
        let expected = neighbors_of(&brute, &pc(points), p, Some(i), radius);
        assert_eq!(queried, expected, "query {i} at box length {edge}");
    }
}

#[test]
fn far_apart_points_stay_within_the_box_budget() {
    // Two points 5000 (and 10⁶) radii apart: a radius-sized lattice would
    // need 1.25·10¹¹ (10¹⁸) boxes; the coarsened one stays within the budget.
    for separation in [5_000.0, 1e6] {
        let points = vec![Real3::ZERO, Real3::splat(separation), Real3::splat(0.5)];
        check_density(&mut UniformGridEnvironment::new(), &points[..2], 1.0);
        check_density(&mut UniformGridEnvironment::new(), &points, 1.0);
    }
}

#[test]
fn density_sweep_on_one_grid_matches_brute_force() {
    // 0.1 to 10⁸ boxes per point, ordered so consecutive rebuilds of the one
    // grid instance jump across the coarsening boundary (the budget) in both
    // directions, including clouds sitting right on it.
    let mut grid = UniformGridEnvironment::new();
    let budget = MAX_BOXES_PER_POINT as f64;
    let densities = [
        0.1,
        1e6,
        4.0,
        budget * 0.9,
        budget * 1.1,
        budget * 0.99,
        budget * 1.01,
        1e8,
        1.0,
        1e3,
    ];
    for (round, &density) in densities.iter().enumerate() {
        let points = clumped_points(100 + round as u64, 240, 2.5, density);
        check_density(&mut grid, &points, 2.5);
    }
}

#[test]
fn grid_parallel_build_above_threshold_matches_brute() {
    // 70k points crosses the grid's parallel-build threshold (1 << 16), and
    // the build gets a pool: this exercises the parallel bounds, counting
    // and scatter passes of the build, which smaller tests never reach.
    // Queries are sampled (brute force is O(n) per query at this scale).
    let n = 70_000;
    let points = random_points(55, n, 120.0);
    let pool = NumaThreadPool::new(NumaTopology::new(2, 4));
    let mut grid = UniformGridEnvironment::new();
    let hint = UpdateHint {
        pool: Some(&pool),
        ..UpdateHint::default()
    };
    grid.update_with(&pc(&points), 4.0, hint);
    let mut brute = BruteForceEnvironment::new();
    brute.update(&pc(&points), 4.0);
    for (i, &p) in points.iter().enumerate().step_by(997) {
        assert_eq!(
            neighbors_of(&grid, &pc(&points), p, Some(i), 4.0),
            neighbors_of(&brute, &pc(&points), p, Some(i), 4.0),
            "parallel-build path, query {i}"
        );
    }
}

#[test]
fn known_bounds_hint_matches_self_computed_bounds() {
    // Passing precomputed bounds must produce the identical grid shape and
    // query results as letting the grid compute them.
    let points = random_points(79, 300, 15.0);
    let (mut lo, mut hi) = (points[0], points[0]);
    for p in &points[1..] {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    let mut self_computed = UniformGridEnvironment::new();
    self_computed.update(&pc(&points), 2.0);
    let mut hinted = UniformGridEnvironment::new();
    hinted.update_with(
        &pc(&points),
        2.0,
        UpdateHint {
            known_bounds: Some((lo, hi)),
            ..UpdateHint::default()
        },
    );
    assert_eq!(hinted.dims(), self_computed.dims());
    assert_eq!(hinted.bounds(), self_computed.bounds());
    for (i, &p) in points.iter().enumerate() {
        assert_eq!(
            neighbors_of(&hinted, &pc(&points), p, Some(i), 2.0),
            neighbors_of(&self_computed, &pc(&points), p, Some(i), 2.0),
        );
    }
}

#[test]
fn grid_box_coordinates_clamp() {
    let points = vec![Real3::ZERO, Real3::splat(10.0)];
    let mut grid = UniformGridEnvironment::new();
    grid.update(&pc(&points), 1.0);
    // Far outside queries clamp into the grid rather than panicking.
    let bc = grid.box_coordinates(Real3::splat(-100.0));
    assert_eq!(bc, [0, 0, 0]);
    let bc = grid.box_coordinates(Real3::splat(100.0));
    let dims = grid.dims();
    assert_eq!(bc, [dims[0] - 1, dims[1] - 1, dims[2] - 1]);
}

#[test]
fn clear_resets_environments() {
    let points = random_points(5, 100, 10.0);
    for mut env in environments() {
        env.update(&pc(&points), 2.0);
        env.clear();
        let got = neighbors_of(env.as_ref(), &pc(&points), points[0], None, 2.0);
        assert!(got.is_empty(), "{} after clear", env.name());
    }
}

#[test]
fn memory_bytes_reports_nonzero_after_update() {
    let points = random_points(11, 1000, 20.0);
    for mut env in environments() {
        env.update(&pc(&points), 2.0);
        assert!(env.memory_bytes() > 0, "{}", env.name());
    }
}

#[test]
fn octree_bucket_and_kdtree_leaf_parameters() {
    let points = random_points(17, 400, 15.0);
    let mut brute = BruteForceEnvironment::new();
    brute.update(&pc(&points), 2.5);
    for bucket in [1, 4, 64, 1000] {
        let mut oct = OctreeEnvironment::with_bucket_size(bucket);
        oct.update(&pc(&points), 2.5);
        let mut kd = KdTreeEnvironment::with_leaf_size(bucket);
        kd.update(&pc(&points), 2.5);
        for (i, &p) in points.iter().enumerate().step_by(17) {
            let expected = neighbors_of(&brute, &pc(&points), p, Some(i), 2.5);
            assert_eq!(
                neighbors_of(&oct, &pc(&points), p, Some(i), 2.5),
                expected.clone(),
                "octree bucket={bucket}"
            );
            assert_eq!(
                neighbors_of(&kd, &pc(&points), p, Some(i), 2.5),
                expected,
                "kdtree leaf={bucket}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_all_envs_match_brute_force(
        seed in any::<u64>(),
        n in 1usize..150,
        extent in 1.0f64..100.0,
        radius_frac in 0.05f64..1.0,
    ) {
        let points = random_points(seed, n, extent);
        // Radius scaled to the extent so both dense and sparse regimes occur.
        let radius = extent * radius_frac * 0.2 + 1e-3;
        let mut brute = BruteForceEnvironment::new();
        brute.update(&pc(&points), radius);
        for mut env in environments() {
            env.update(&pc(&points), radius);
            for (i, &p) in points.iter().enumerate() {
                let expected = neighbors_of(&brute, &pc(&points), p, Some(i), radius);
                let got = neighbors_of(env.as_ref(), &pc(&points), p, Some(i), radius);
                prop_assert_eq!(got, expected, "{} seed={} i={}", env.name(), seed, i);
            }
        }
    }

    #[test]
    fn prop_density_sweep_across_consecutive_rebuilds(
        seed in any::<u64>(),
        n in 2usize..160,
        log_a in -1.0f64..7.0,
        log_b in -1.0f64..7.0,
        near_boundary in 0.9f64..1.1,
    ) {
        // Two arbitrary densities plus one within 10% of the coarsening
        // boundary, rebuilt back to back on one grid instance.
        let mut grid = UniformGridEnvironment::new();
        let boundary = MAX_BOXES_PER_POINT as f64 * near_boundary;
        for (round, density) in [10f64.powf(log_a), boundary, 10f64.powf(log_b)].into_iter().enumerate() {
            let points = clumped_points(seed ^ round as u64, n, 1.5, density);
            check_density(&mut grid, &points, 1.5);
        }
    }

    #[test]
    fn prop_query_points_off_cloud(
        seed in any::<u64>(),
        n in 1usize..100,
        qx in -50.0f64..150.0,
        qy in -50.0f64..150.0,
        qz in -50.0f64..150.0,
    ) {
        let points = random_points(seed, n, 100.0);
        let radius = 10.0;
        let q = Real3::new(qx, qy, qz);
        let mut brute = BruteForceEnvironment::new();
        brute.update(&pc(&points), radius);
        let expected = neighbors_of(&brute, &pc(&points), q, None, radius);
        for mut env in environments() {
            env.update(&pc(&points), radius);
            let got = neighbors_of(env.as_ref(), &pc(&points), q, None, radius);
            prop_assert_eq!(got, expected.clone(), "{}", env.name());
        }
    }
}
