//! Integration: reproducibility guarantees (DESIGN.md §4 "Determinism").
//!
//! With one thread and a fixed seed, runs are bit-reproducible. Agent uids
//! are derived from parent uids (not from scheduling), so population-level
//! outcomes of neighbor-independent models are invariant under thread
//! count, NUMA domains, sorting, and environment choice.
//!
//! Tests that stay on the default uniform grid honor `BDM_TEST_SHARDS`
//! (see [`test_shards`]): CI reruns this suite with the sharded engine and
//! every guarantee must hold bit-for-bit there too.

use std::collections::BTreeMap;

use biodynamo::core::testing::test_shards;
use biodynamo::models::{all_models, BenchmarkModel};
use biodynamo::prelude::*;

/// Snapshot of a finished simulation keyed by stable uid.
fn snapshot(sim: &Simulation) -> BTreeMap<u64, (Real3, f64, u64)> {
    let mut map = BTreeMap::new();
    sim.for_each_agent(|_, a| {
        let prev = map.insert(a.uid().0, (a.position(), a.diameter(), a.payload()));
        assert!(prev.is_none(), "duplicate uid {:?}", a.uid());
    });
    map
}

fn run(model: &dyn BenchmarkModel, param: Param, iterations: usize) -> Simulation {
    let mut sim = model.build(param);
    sim.simulate(iterations);
    sim
}

#[test]
fn single_thread_runs_are_bit_reproducible() {
    for model in all_models(120) {
        let param = || Param {
            threads: Some(1),
            numa_domains: Some(1),
            seed: 99,
            shards: test_shards(),
            ..Param::default()
        };
        let a = snapshot(&run(model.as_ref(), param(), 10));
        let b = snapshot(&run(model.as_ref(), param(), 10));
        assert_eq!(a.len(), b.len(), "{}", model.name());
        for (uid, (pa, da, ta)) in &a {
            let (pb, db, tb) = &b[uid];
            assert_eq!(pa, pb, "{} uid {uid}: position", model.name());
            assert_eq!(da, db, "{} uid {uid}: diameter", model.name());
            assert_eq!(ta, tb, "{} uid {uid}: payload", model.name());
        }
    }
}

#[test]
fn different_seeds_differ() {
    let model = biodynamo::models::Epidemiology::new(150);
    let mk = |seed| Param {
        threads: Some(1),
        numa_domains: Some(1),
        seed,
        shards: test_shards(),
        ..Param::default()
    };
    let a = snapshot(&run(&model, mk(1), 10));
    let b = snapshot(&run(&model, mk(2), 10));
    // Random walks with different seeds must diverge.
    let same = a
        .iter()
        .filter(|(uid, (p, ..))| b.get(uid).is_some_and(|(q, ..)| p == q))
        .count();
    assert!(
        same < a.len() / 2,
        "{same}/{} agents identical across seeds",
        a.len()
    );
}

#[test]
fn population_invariant_under_thread_count() {
    // Proliferation divisions depend only on per-agent state; the final
    // population and uid set must not depend on parallelism.
    let model = biodynamo::models::CellProliferation::new(125);
    let uids = |threads: usize, domains: usize| {
        let sim = run(
            &model,
            Param {
                threads: Some(threads),
                numa_domains: Some(domains),
                shards: test_shards(),
                ..Param::default()
            },
            12,
        );
        let mut v: Vec<u64> = Vec::new();
        sim.for_each_agent(|_, a| v.push(a.uid().0));
        v.sort_unstable();
        v
    };
    let one = uids(1, 1);
    assert_eq!(one, uids(2, 1), "2 threads");
    assert_eq!(one, uids(2, 2), "2 threads / 2 domains");
    assert_eq!(one, uids(4, 2), "oversubscribed");
}

#[test]
fn population_invariant_under_sorting_and_environment() {
    let model = biodynamo::models::CellProliferation::new(125);
    let count = |mutate: &dyn Fn(&mut Param)| {
        let mut param = Param {
            threads: Some(2),
            numa_domains: Some(2),
            ..Param::default()
        };
        mutate(&mut param);
        run(&model, param, 12).num_agents()
    };
    let baseline = count(&|_| {});
    assert_eq!(baseline, count(&|p| p.agent_sort_frequency = Some(1)));
    assert_eq!(
        baseline,
        count(&|p| {
            p.agent_sort_frequency = Some(1);
            p.sort_use_extra_memory = true;
        })
    );
    assert_eq!(
        baseline,
        count(&|p| p.environment = EnvironmentKind::KdTree)
    );
    assert_eq!(
        baseline,
        count(&|p| p.environment = EnvironmentKind::Octree)
    );
    assert_eq!(baseline, count(&|p| p.use_pool_allocator = false));
}

#[test]
fn scheduler_extraction_preserves_bit_reproducibility() {
    // The op-extraction refactor must not change execution order: a
    // builder-built simulation (scheduler pipeline) and a Param-built one
    // must produce bit-identical states, and injecting a read-only custom
    // operation must not perturb the simulation either.
    struct ReadOnlyProbe;
    impl Operation for ReadOnlyProbe {
        fn name(&self) -> &str {
            "readonly_probe"
        }
        fn kind(&self) -> OpKind {
            OpKind::Standalone
        }
        fn frequency(&self) -> u64 {
            2
        }
        fn run(&mut self, sim: &mut Simulation) {
            let _ = sim.num_agents();
        }
    }

    for model in all_models(120) {
        let param = Param {
            threads: Some(1),
            numa_domains: Some(1),
            seed: 99,
            shards: test_shards(),
            ..Param::default()
        };
        let via_param = snapshot(&run(model.as_ref(), param.clone(), 10));
        let mut built = model.build(param.clone());
        // Same pipeline, registered through the public scheduler API.
        built.scheduler_mut().add_op(ReadOnlyProbe);
        built.simulate(10);
        let via_builder = snapshot(&built);
        assert_eq!(
            via_param,
            via_builder,
            "{}: scheduler pipeline must be bit-identical",
            model.name()
        );
    }
}

#[test]
fn epidemiology_infections_are_seed_deterministic() {
    // SIR state transitions draw from the per-agent deterministic RNG
    // stream; infection counts must reproduce exactly on one thread.
    let model = biodynamo::models::Epidemiology::new(200);
    let infected = || {
        let sim = run(
            &model,
            Param {
                threads: Some(1),
                numa_domains: Some(1),
                seed: 5,
                shards: test_shards(),
                ..Param::default()
            },
            15,
        );
        model.validate(&sim).into_iter().collect::<BTreeMap<_, _>>()
    };
    assert_eq!(infected(), infected());
}

/// Cross-backend differential suite: for every model, the brute-force,
/// uniform-grid, kd-tree, and octree environments must agree on the final
/// state. Discrete state (uid sets, payloads, type tags) must match exactly;
/// positions, diameters, and concentrations are compared within a tolerance
/// because backends enumerate neighbors in different orders and FP summation
/// order legitimately moves the last few mantissa bits. On failure the first
/// diverging agent index is reported.
#[test]
fn all_backends_agree_on_final_state() {
    use biodynamo::core::testing::{fingerprint, first_divergence_within};

    const TOL: f64 = 1e-6;
    for model in all_models(100) {
        let mk = |env| Param {
            environment: env,
            threads: Some(2),
            numa_domains: Some(2),
            seed: 77,
            ..Param::default()
        };
        let reference = fingerprint(&run(model.as_ref(), mk(EnvironmentKind::Brute), 8));
        for env in EnvironmentKind::ALL {
            if env == EnvironmentKind::Brute {
                continue;
            }
            let candidate = fingerprint(&run(model.as_ref(), mk(env), 8));
            if let Some(divergence) = first_divergence_within(&reference, &candidate, TOL) {
                panic!(
                    "{} diverges between Brute and {env:?}: {divergence}",
                    model.name()
                );
            }
        }
    }
}
