//! Differential shard-conformance suite (DESIGN: `bdm_core::sharded`).
//!
//! The sharded engine's contract is **bitwise shard-count invariance**: for
//! any shard count K, a run partitioned into K SFC-range shards with halo
//! exchange must produce a final state bitwise identical to the classic
//! single-engine run — same positions (to the bit), same uid sets, same
//! payloads, same diffusion concentrations. These tests drive every
//! benchmark model through K ∈ {1, 2, 4, 7} and compare
//! [`SimFingerprint`](biodynamo::core::testing::SimFingerprint)s, reporting
//! the *first* diverging agent and field on failure.

use biodynamo::core::testing::{fingerprint, first_divergence, SimFingerprint};
use biodynamo::models::{all_models, BenchmarkModel};
use biodynamo::prelude::*;

mod common;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn run_sharded(model: &dyn BenchmarkModel, shards: usize, iterations: usize) -> SimFingerprint {
    let param = Param {
        threads: Some(1),
        numa_domains: Some(1),
        seed: 77,
        shards,
        ..Param::default()
    };
    let mut sim = model.build(param);
    sim.simulate(iterations);
    if shards > 1 {
        let report = sim
            .shard_report()
            .expect("sharded run must expose a shard report");
        assert_eq!(report.shards, shards, "{}", model.name());
        assert!(
            report.exchanges + report.exchange_skips >= iterations as u64,
            "{}: halo exchange must run every iteration ({} + {} < {iterations})",
            model.name(),
            report.exchanges,
            report.exchange_skips,
        );
    }
    fingerprint(&sim)
}

/// The core parity matrix: six models × K ∈ {1, 2, 4, 7}, bitwise.
#[test]
fn all_models_are_bitwise_shard_count_invariant() {
    for model in all_models(120) {
        let reference = run_sharded(model.as_ref(), 1, 10);
        assert!(
            !reference.agents.is_empty(),
            "{}: empty reference run",
            model.name()
        );
        for shards in SHARD_COUNTS {
            if shards == 1 {
                continue;
            }
            let candidate = run_sharded(model.as_ref(), shards, 10);
            if let Some(divergence) = first_divergence(&reference, &candidate) {
                panic!(
                    "{} diverges between 1 and {shards} shards: {divergence}",
                    model.name()
                );
            }
        }
    }
}

/// A population sparse enough to coarsen the lattice: the box edge is one
/// global decision every shard window receives through
/// `GridFrame::box_length`, so the run stays bitwise K-invariant.
#[test]
fn coarsened_lattice_is_bitwise_shard_count_invariant() {
    let scene = common::SparseScene { num_agents: 120 };
    let mut single = scene.build(Param {
        threads: Some(1),
        numa_domains: Some(1),
        seed: 77,
        ..Param::default()
    });
    single.simulate(10);
    assert!(common::lattice_is_coarsened(&single));
    assert!(single.stats().agents_added > 0 && single.stats().force_calculations > 0);
    let reference = fingerprint(&single);
    for shards in SHARD_COUNTS {
        let candidate = run_sharded(&scene, shards, 10);
        if let Some(divergence) = first_divergence(&reference, &candidate) {
            panic!("sparse scene diverges between 1 and {shards} shards: {divergence}");
        }
    }
}

/// Sharding must compose with the optimization ladder: sorting every
/// iteration (population reordered under the shards), extra sort memory,
/// and static-agent detection.
#[test]
fn sharding_composes_with_sorting_and_static_detection() {
    for model in all_models(90) {
        let mk = |shards: usize| Param {
            threads: Some(1),
            numa_domains: Some(1),
            seed: 31,
            shards,
            agent_sort_frequency: Some(1),
            sort_use_extra_memory: true,
            detect_static_agents: true,
            ..Param::default()
        };
        let run = |shards: usize| {
            let mut sim = model.build(mk(shards));
            sim.simulate(8);
            fingerprint(&sim)
        };
        let reference = run(1);
        for shards in [2, 4] {
            let candidate = run(shards);
            if let Some(divergence) = first_divergence(&reference, &candidate) {
                panic!(
                    "{} (sorted, static detection) diverges between 1 and {shards} shards: \
                     {divergence}",
                    model.name()
                );
            }
        }
    }
}

/// Model-level observables (the per-model `validate` summaries) agree too —
/// a coarse, human-readable cross-check on top of the bitwise comparison.
#[test]
fn model_observables_are_shard_invariant() {
    for model in all_models(100) {
        let observe = |shards: usize| {
            let mut sim = model.build(Param {
                threads: Some(1),
                numa_domains: Some(1),
                seed: 13,
                shards,
                ..Param::default()
            });
            sim.simulate(model.default_iterations().min(10));
            model.validate(&sim)
        };
        let reference = observe(1);
        for shards in [4, 7] {
            assert_eq!(
                reference,
                observe(shards),
                "{}: observables diverge at {shards} shards",
                model.name()
            );
        }
    }
}

/// The parallel engine path under sharding: same thread count on both
/// sides, discrete state must match exactly (positions are bitwise too for
/// mechanics-only models whose per-agent kernels are order-independent).
#[test]
fn parallel_sharded_run_matches_parallel_single_run() {
    let model = biodynamo::models::CellClustering::new(150);
    let run = |shards: usize| {
        let param = Param {
            threads: Some(4),
            numa_domains: Some(2),
            seed: 7,
            shards,
            ..Param::default()
        };
        let mut sim = model.build(param);
        sim.simulate(10);
        fingerprint(&sim)
    };
    let reference = run(1);
    let candidate = run(4);
    if let Some(divergence) = first_divergence(&reference, &candidate) {
        panic!("cell_clustering (4 threads) diverges between 1 and 4 shards: {divergence}");
    }
}

/// Shard report bookkeeping: owned counts cover the population exactly and
/// the manifest's SFC ranges tile the full code space.
#[test]
fn shard_report_accounts_for_every_agent() {
    let model = biodynamo::models::CellClustering::new(200);
    let mut sim = model.build(Param {
        threads: Some(1),
        numa_domains: Some(1),
        shards: 4,
        ..Param::default()
    });
    sim.simulate(5);
    let n = sim.num_agents();
    let report = sim.shard_report().unwrap();
    assert_eq!(report.per_shard.len(), 4);
    let owned: usize = report.per_shard.iter().map(|s| s.owned).sum();
    assert_eq!(owned, n, "owned counts must partition the population");
    let manifest = sim.shard_manifest().unwrap();
    assert_eq!(manifest.shards, 4);
    assert_eq!(manifest.ranges[0].0, 0);
    assert_eq!(manifest.ranges[3].1, u64::MAX);
    for w in manifest.ranges.windows(2) {
        assert_eq!(w[0].1, w[1].0, "ranges must tile the code space");
    }
    assert_eq!(manifest.owned.iter().sum::<u64>(), n as u64);
}
