//! The regime the repo benchmark sits in — above the grid's parallel-build
//! threshold at ~5 boxes per point — must hand every agent the same
//! neighbour *sequence* (not just set) however the build is scheduled:
//! `RAYON_NUM_THREADS` ∈ {1, 4}.
//!
//! The variable is process-global (the thread count is read once and
//! cached), so the test re-runs its own binary once per value and compares
//! the sequence hashes; the determinism-matrix CI job additionally runs it
//! under each of its own thread counts.

use std::process::Command;

use bdm_env::{
    neighbors_of, BruteForceEnvironment, Environment, SliceCloud, UniformGridEnvironment,
};

mod common;

const CHILD: &str = "BDM_SEQUENCE_CHILD";
const TAG: &str = "sequence-hash ";
const TEST: &str = "neighbour_sequence_is_identical_across_threads";
const N: usize = 70_000;
const RADIUS: f64 = 2.0;

/// FNV-1a over every agent's neighbour index sequence, in visit order.
fn sequence_hash() -> u64 {
    // Clumps of four in a cube sized for ~5 radius-sized boxes per point.
    let points = common::clumped_points(4357, N, RADIUS, 5.0);
    let mut grid = UniformGridEnvironment::new();
    grid.update(&SliceCloud(&points), RADIUS);
    let boxes_per_point = grid.num_boxes() as f64 / N as f64;
    assert!(
        grid.box_length() == RADIUS && (4.0..8.0).contains(&boxes_per_point),
        "scene left the benchmark's regime: {boxes_per_point} boxes/point"
    );
    let mut brute = BruteForceEnvironment::new();
    brute.update(&SliceCloud(&points), RADIUS);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| hash = (hash ^ v).wrapping_mul(0x0100_0000_01b3);
    for (i, &p) in points.iter().enumerate() {
        let mut sequence = Vec::new();
        grid.for_each_neighbor_soa(p, Some(i), RADIUS, |idx, _, _| sequence.push(idx));
        mix(u64::MAX);
        sequence.iter().for_each(|&idx| mix(idx as u64));
        if i % 4099 == 0 {
            sequence.sort_unstable();
            let expected = neighbors_of(&brute, &SliceCloud(&points), p, Some(i), RADIUS);
            assert_eq!(sequence, expected, "query {i}");
        }
    }
    hash
}

#[test]
fn neighbour_sequence_is_identical_across_threads() {
    let here = sequence_hash();
    if std::env::var_os(CHILD).is_some() {
        println!("{TAG}{here:016x}");
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "4"] {
        let out = Command::new(&exe)
            .args(["--exact", TEST, "--nocapture", "--test-threads=1"])
            .env(CHILD, "1")
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("re-run the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "child failed: {stdout}");
        let there = stdout
            .lines()
            .find_map(|l| l.split_once(TAG).map(|(_, h)| h.trim().to_string()))
            .expect("child prints its hash");
        assert_eq!(
            there,
            format!("{here:016x}"),
            "sequence differs at {threads} threads"
        );
    }
}
