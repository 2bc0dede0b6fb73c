//! Integration: the three neighbor-search environments (paper Figure 11)
//! are interchangeable — same simulation semantics, different index
//! structures — and agree with a brute-force reference through the engine.

use biodynamo::env::{
    neighbors_of, BruteForceEnvironment, Environment, EnvironmentKind, KdTreeEnvironment,
    OctreeEnvironment, UniformGridEnvironment,
};
use biodynamo::models::{all_models, BenchmarkModel};
use biodynamo::prelude::*;
use biodynamo::util::SimRng;

fn param_with(kind: EnvironmentKind) -> Param {
    Param {
        threads: Some(2),
        numa_domains: Some(2),
        environment: kind,
        ..Param::default()
    }
}

const KINDS: [EnvironmentKind; 3] = [
    EnvironmentKind::UniformGrid,
    EnvironmentKind::KdTree,
    EnvironmentKind::Octree,
];

#[test]
fn every_model_runs_on_every_environment() {
    for model in all_models(100) {
        for kind in KINDS {
            let mut sim = model.build(param_with(kind));
            sim.simulate(6);
            assert!(sim.num_agents() > 0, "{} on {kind:?}", model.name());
            sim.for_each_agent(|_, a| assert!(a.position().is_finite()));
        }
    }
}

#[test]
fn environments_agree_on_population_outcomes() {
    // Proliferation divisions are neighbor-independent: all three indexes
    // must produce the same uid set.
    let model = biodynamo::models::CellProliferation::new(64);
    let mut uid_sets = Vec::new();
    for kind in KINDS {
        let mut sim = model.build(param_with(kind));
        sim.simulate(10);
        let mut uids: Vec<u64> = Vec::new();
        sim.for_each_agent(|_, a| uids.push(a.uid().0));
        uids.sort_unstable();
        uid_sets.push(uids);
    }
    assert_eq!(uid_sets[0], uid_sets[1]);
    assert_eq!(uid_sets[0], uid_sets[2]);
}

#[test]
fn all_indexes_match_brute_force_through_common_interface() {
    // Direct cross-check of the environment trait (the engine-level twin of
    // the per-crate property tests).
    let mut rng = SimRng::new(42);
    let positions: Vec<Real3> = (0..300).map(|_| rng.point_in_cube(0.0, 80.0)).collect();
    let radius = 12.0;

    let mut reference = BruteForceEnvironment::new();
    reference.update(&positions, radius);

    let mut envs: Vec<Box<dyn Environment>> = vec![
        Box::new(UniformGridEnvironment::new()),
        Box::new(KdTreeEnvironment::new()),
        Box::new(OctreeEnvironment::new()),
    ];
    for env in &mut envs {
        env.update(&positions, radius);
        for (i, &p) in positions.iter().enumerate().step_by(7) {
            let expected = neighbors_of(&reference, &positions, p, Some(i), radius);
            let got = neighbors_of(env.as_ref(), &positions, p, Some(i), radius);
            assert_eq!(got, expected, "{} @ query {i}", env.name());
        }
    }
}

#[test]
fn uniform_grid_is_rebuildable_across_scale_changes() {
    // The timestamped-box rebuild (Section 3.1) must stay correct when the
    // population geometry changes drastically between iterations.
    let mut env = UniformGridEnvironment::new();
    let mut rng = SimRng::new(7);
    for round in 0..5 {
        let extent = 20.0 * (round + 1) as f64;
        let positions: Vec<Real3> = (0..100 + round * 50)
            .map(|_| rng.point_in_cube(0.0, extent))
            .collect();
        env.update(&positions, 8.0);
        let mut reference = BruteForceEnvironment::new();
        reference.update(&positions, 8.0);
        for (i, &p) in positions.iter().enumerate().step_by(13) {
            assert_eq!(
                neighbors_of(&env, &positions, p, Some(i), 8.0),
                neighbors_of(&reference, &positions, p, Some(i), 8.0),
                "round {round} query {i}"
            );
        }
    }
}

#[test]
fn environment_memory_reporting_is_sane() {
    for kind in KINDS {
        let model = biodynamo::models::CellClustering::new(200);
        let mut sim = model.build(param_with(kind));
        sim.simulate(2);
        let bytes = sim.environment_memory_bytes();
        assert!(bytes > 0, "{kind:?} must report index memory");
        assert!(
            bytes < 512 << 20,
            "{kind:?} reports implausible index size: {bytes}"
        );
    }
}

#[test]
fn interaction_radius_is_respected() {
    // Agents outside the interaction radius must never be visited.
    let positions = vec![
        Real3::new(0.0, 0.0, 0.0),
        Real3::new(5.0, 0.0, 0.0),
        Real3::new(11.0, 0.0, 0.0), // outside radius 10 of the origin
    ];
    for kind in KINDS {
        let mut env = kind.create();
        env.update(&positions, 10.0);
        let n = neighbors_of(env.as_ref(), &positions, positions[0], Some(0), 10.0);
        assert_eq!(n, vec![1], "{kind:?}");
    }
}
