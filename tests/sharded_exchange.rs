//! The halo exchange seen from the public surface: halo widths far beyond
//! the lattice, and pool-worker-count invariance of the partition. (The
//! exchange's exact output is pinned against a brute-force oracle in
//! `bdm_core::sharded`'s unit tests.)

use biodynamo::core::testing::{fingerprint, first_divergence};
use biodynamo::models::{BenchmarkModel, CellClustering};
use biodynamo::prelude::*;

/// Regression: under static detection the halo width is
/// `2 + ⌊max_displacement / radius⌋ + 1`. With cells of diameter 10 a cap
/// of 10⁵ asks for 10 003 rings — the per-box stencil loop of the old
/// exchange never finished — and a cap of 10³⁰⁰ saturates the `u32`
/// (`u32::MAX + 1`: a debug panic, a silent zero-width halo in release).
/// Both are simply "the whole lattice": every shard's cloud is the whole
/// population and the run is bitwise the single engine's.
#[test]
fn halo_wider_than_the_lattice_completes_and_matches_single_engine() {
    let model = CellClustering::new(300);
    for max_displacement in [1e5, 1e300] {
        let run = |shards: usize| {
            let mut sim = model.build(Param {
                threads: Some(1),
                numa_domains: Some(1),
                seed: 77,
                shards,
                detect_static_agents: true,
                simulation_max_displacement: max_displacement,
                ..Param::default()
            });
            sim.simulate(8);
            sim
        };
        let single = run(1);
        let sharded = run(2);
        let report = sharded.shard_report().expect("sharded run");
        assert_eq!(report.exchanges + report.exchange_skips, 8);
        for shard in &report.per_shard {
            assert_eq!(shard.owned + shard.halo, sharded.num_agents());
        }
        if let Some(divergence) = first_divergence(&fingerprint(&single), &fingerprint(&sharded)) {
            panic!("max_displacement {max_displacement:e}: 1 vs 2 shards: {divergence}");
        }
    }
}

/// The exchange classifies agents on the engine's worker pool; partition,
/// owned and halo counts must not depend on how many workers there are.
#[test]
fn partition_is_worker_count_invariant() {
    let model = CellClustering::new(6000);
    let run = |threads: usize| {
        let mut sim = model.build(Param {
            threads: Some(threads),
            numa_domains: Some(1),
            seed: 5,
            shards: 4,
            detect_static_agents: true,
            ..Param::default()
        });
        sim.simulate(3);
        let counts: Vec<(usize, usize)> = sim
            .shard_report()
            .expect("sharded run")
            .per_shard
            .iter()
            .map(|s| (s.owned, s.halo))
            .collect();
        (sim.shard_manifest().expect("sharded run"), counts)
    };
    let reference = run(1);
    for threads in [2, 4] {
        assert_eq!(run(threads), reference, "{threads} workers");
    }
}
