//! The box-batched query surface of the uniform grid (ISSUE 6 tentpole):
//! [`StencilRuns`] resolved once per box must reproduce the per-agent
//! query's visit sequence exactly, the conditional diameter scatter must be
//! a bitwise copy that only materializes on request, and both must behave
//! across boundary boxes and on coarsened lattices.

use bdm_env::{BruteForceEnvironment, Environment, UniformGridEnvironment, UpdateHint};
use bdm_util::{Real3, SimRng};

/// Positions with parallel per-point diameters (as the engine's snapshot
/// carries them).
struct DiamCloud {
    positions: Vec<Real3>,
    diameters: Vec<f64>,
}

fn diam_cloud(seed: u64, n: usize, extent: f64) -> DiamCloud {
    let mut rng = SimRng::new(seed);
    DiamCloud {
        positions: (0..n).map(|_| rng.point_in_cube(0.0, extent)).collect(),
        diameters: (0..n).map(|_| rng.uniform_in(1.0, 4.0)).collect(),
    }
}

/// Requests the diameter scatter of `cloud`'s diameters.
fn scatter_hint(cloud: &DiamCloud) -> UpdateHint<'_> {
    UpdateHint {
        diameters: Some(&cloud.diameters),
        ..UpdateHint::default()
    }
}

/// The batched scan every engine worker runs: resolve the stencil once for
/// the query's box, then walk the runs over the interleaved slots in order.
fn batched_neighbors(
    grid: &UniformGridEnvironment,
    pos: Real3,
    exclude: usize,
    radius: f64,
) -> Vec<(usize, Real3, f64, f64)> {
    let slots = grid.slots();
    let diams = grid.scattered_diameters().expect("diameters scattered");
    let runs = grid.stencil_runs(grid.box_coordinates(pos));
    let r2 = radius * radius;
    let mut out = Vec::new();
    for &(start, end) in runs.runs() {
        for i in start as usize..end as usize {
            let s = slots[i];
            let d2 = pos.distance_sq(&s.position);
            if d2 <= r2 && s.index as usize != exclude {
                out.push((s.index as usize, s.position, diams[i], d2));
            }
        }
    }
    out
}

#[test]
fn stencil_runs_reproduce_the_per_agent_visit_sequence() {
    // Includes lattice points on exact box boundaries and the eight grid
    // corners — the stencil clamp cases.
    let mut cloud = diam_cloud(11, 600, 24.0);
    for x in [0.0, 24.0] {
        for y in [0.0, 24.0] {
            for z in [0.0, 24.0] {
                cloud.positions.push(Real3::new(x, y, z));
                cloud.diameters.push(2.0);
            }
        }
    }
    let radius = 3.0;
    let mut grid = UniformGridEnvironment::new();
    grid.update_with(&cloud.positions, radius, scatter_hint(&cloud));

    for (i, &p) in cloud.positions.iter().enumerate() {
        // Per-agent reference: the engine's scalar query, in order.
        let mut scalar = Vec::new();
        grid.for_each_neighbor_soa(p, Some(i), radius, |idx, pos, d2| {
            scalar.push((idx, pos, d2));
        });
        let batched = batched_neighbors(&grid, p, i, radius);
        assert_eq!(batched.len(), scalar.len(), "query {i}");
        for (k, &(idx, pos, diam, d2)) in batched.iter().enumerate() {
            let (sidx, spos, sd2) = scalar[k];
            assert_eq!((idx, pos), (sidx, spos), "query {i} visit {k}");
            assert_eq!(d2.to_bits(), sd2.to_bits(), "query {i} visit {k}");
            // The scattered diameter is a bitwise copy of the cloud's.
            assert_eq!(
                diam.to_bits(),
                cloud.diameters[idx].to_bits(),
                "query {i} visit {k}"
            );
        }
    }
}

#[test]
fn batched_queries_match_brute_force() {
    let cloud = diam_cloud(23, 500, 20.0);
    let radius = 2.5;
    let mut grid = UniformGridEnvironment::new();
    grid.update_with(&cloud.positions, radius, scatter_hint(&cloud));
    let mut brute = BruteForceEnvironment::new();
    brute.update(&cloud.positions, radius);
    for (i, &p) in cloud.positions.iter().enumerate() {
        let mut batched: Vec<usize> = batched_neighbors(&grid, p, i, radius)
            .into_iter()
            .map(|(idx, ..)| idx)
            .collect();
        batched.sort_unstable();
        let expected = bdm_env::neighbors_of(&brute, &cloud.positions, p, Some(i), radius);
        assert_eq!(batched, expected, "query {i}");
    }
}

#[test]
fn diameter_scatter_is_conditional() {
    let cloud = diam_cloud(31, 400, 18.0);

    // No diameters in the hint → no scatter.
    let mut grid = UniformGridEnvironment::new();
    grid.update(&cloud.positions, 3.0);
    assert!(grid.scattered_diameters().is_none());
    let without = grid.memory_bytes();

    // Diameters in the hint → scattered, and the memory report reflects
    // exactly the extra 8 bytes/point.
    grid.update_with(&cloud.positions, 3.0, scatter_hint(&cloud));
    assert!(grid.scattered_diameters().is_some());
    assert_eq!(
        grid.memory_bytes(),
        without + cloud.positions.len() * std::mem::size_of::<f64>()
    );

    // A later scatter-free rebuild must deactivate a previous scatter.
    grid.update_with(
        &cloud.positions,
        3.0,
        UpdateHint {
            diameters: None,
            ..UpdateHint::default()
        },
    );
    assert!(grid.scattered_diameters().is_none());
}

#[test]
#[should_panic(expected = "the diameters to scatter must parallel the positions")]
fn diameters_shorter_than_the_positions_are_refused() {
    let cloud = diam_cloud(33, 50, 10.0);
    let mut grid = UniformGridEnvironment::new();
    let hint = UpdateHint {
        diameters: Some(&cloud.diameters[1..]),
        ..UpdateHint::default()
    };
    grid.update_with(&cloud.positions, 3.0, hint);
}

#[test]
fn coarsened_lattice_serves_the_batched_surface() {
    // Sparse cloud in a huge space (~3·10⁵ radius-sized boxes for 40
    // points): the lattice coarsens, and the whole batched surface —
    // slots, scattered diameters, stencil runs — keeps serving, in the
    // per-agent query's order. A dense rebuild of the same instance then
    // returns to radius-sized boxes.
    let mut sparse = diam_cloud(41, 40, 2000.0);
    for k in 0..20 {
        // Companions within the radius, so queries are not vacuous.
        sparse
            .positions
            .push(sparse.positions[k] + Real3::splat(5.0));
        sparse.diameters.push(2.0);
    }
    let mut grid = UniformGridEnvironment::new();
    let dense = diam_cloud(42, 600, 24.0);
    for (cloud, radius, coarsened) in [(&sparse, 30.0, true), (&dense, 3.0, false)] {
        grid.update_with(&cloud.positions, radius, scatter_hint(cloud));
        assert_eq!(grid.box_length() > radius, coarsened);
        let mut visited = 0;
        for (i, &p) in cloud.positions.iter().enumerate() {
            let mut scalar = Vec::new();
            grid.for_each_neighbor_soa(p, Some(i), radius, |idx, pos, d2| {
                scalar.push((idx, pos, cloud.diameters[idx], d2));
            });
            assert_eq!(batched_neighbors(&grid, p, i, radius), scalar, "query {i}");
            visited += scalar.len();
        }
        assert!(visited > 0);
    }
}

#[test]
fn build_count_advances_every_rebuild() {
    let cloud = diam_cloud(51, 100, 10.0);
    let mut grid = UniformGridEnvironment::new();
    let c0 = grid.build_count();
    grid.update_with(&cloud.positions, 2.0, scatter_hint(&cloud));
    let c1 = grid.build_count();
    assert!(c1 > c0);
    grid.update_with(&cloud.positions, 2.0, scatter_hint(&cloud));
    assert!(grid.build_count() > c1, "cached stencils must invalidate");
}
