//! The regime the repo benchmark sits in — above the grid's parallel-build
//! threshold at ~5 boxes per point — must hand every agent the same
//! neighbour *sequence* (not just set) however the build is split: serially
//! and on pools of 1, 2 and 4 workers over 1 and 2 domains.

use bdm_env::{
    neighbors_of, BruteForceEnvironment, Environment, UniformGridEnvironment, UpdateHint,
};
use bdm_numa::{NumaThreadPool, NumaTopology};
use bdm_util::Real3;

mod common;

const N: usize = 70_000;
const RADIUS: f64 = 2.0;

fn build(points: &[Real3], pool: Option<&NumaThreadPool>) -> UniformGridEnvironment {
    let mut grid = UniformGridEnvironment::new();
    let hint = UpdateHint {
        pool,
        ..UpdateHint::default()
    };
    grid.update_with(points, RADIUS, hint);
    grid
}

/// FNV-1a over every agent's neighbour index sequence, in visit order.
fn sequence_hash(grid: &UniformGridEnvironment, points: &[Real3]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| hash = (hash ^ v).wrapping_mul(0x0100_0000_01b3);
    for (i, &p) in points.iter().enumerate() {
        mix(u64::MAX);
        grid.for_each_neighbor_soa(p, Some(i), RADIUS, |idx, _, _| mix(idx as u64));
    }
    hash
}

#[test]
fn neighbour_sequence_is_identical_across_threads() {
    // Clumps of four in a cube sized for ~5 radius-sized boxes per point.
    let points = common::clumped_points(4357, N, RADIUS, 5.0);
    let serial = build(&points, None);
    let boxes_per_point = serial.num_boxes() as f64 / N as f64;
    assert!(
        serial.box_length() == RADIUS && (4.0..8.0).contains(&boxes_per_point),
        "scene left the benchmark's regime: {boxes_per_point} boxes/point"
    );
    let mut brute = BruteForceEnvironment::new();
    brute.update(&points, RADIUS);
    for (i, &p) in points.iter().enumerate().step_by(4099) {
        assert_eq!(
            neighbors_of(&serial, &points, p, Some(i), RADIUS),
            neighbors_of(&brute, &points, p, Some(i), RADIUS),
            "query {i}"
        );
    }
    let expected = sequence_hash(&serial, &points);
    for (domains, threads) in [(1, 1), (1, 2), (2, 2), (1, 4), (2, 4)] {
        let pool = NumaThreadPool::new(NumaTopology::new(domains, threads));
        assert_eq!(
            sequence_hash(&build(&points, Some(&pool)), &points),
            expected,
            "sequence differs on {threads} workers over {domains} domains"
        );
    }
}
