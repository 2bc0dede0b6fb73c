//! Integration: reproducibility guarantees.
//!
//! With a fixed seed, runs are bit-reproducible, and within one NUMA domain
//! count the bits do not depend on the thread count or the shard count —
//! also for the models whose population turns over. Agent uids are derived
//! from parent uids (not from scheduling), so population-level outcomes of
//! neighbor-independent models are also invariant under NUMA domains,
//! sorting, and environment choice.
//!
//! Tests that stay on the default uniform grid honor `BDM_TEST_SHARDS`
//! (see [`test_shards`]): CI reruns this suite with the sharded engine and
//! every guarantee must hold bit-for-bit there too.

use std::collections::BTreeMap;

use biodynamo::core::testing::{assert_identical, fingerprint, test_shards};
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

/// The three models whose population turns over — agents divide, die or
/// grow neurites — run to the same bits over threads {1, 2, 4} × K {1, 2}
/// within each domain count {1, 2}: a newborn's slot, and with it every
/// later neighbour scan, follows the agent order, not the worker that ran
/// its parent. Blocks of 64 agents spread each run over the workers.
#[test]
fn population_invariant_under_thread_count() {
    for model in [
        biodynamo::models::model_by_name("oncology", 2000),
        biodynamo::models::model_by_name("neuroscience", 2000),
        biodynamo::models::model_by_name("cell_proliferation", 2000),
    ] {
        let model = model.expect("a benchmark model");
        let run = |threads: usize, domains: usize, shards: usize| {
            let param = Param {
                threads: Some(threads),
                numa_domains: Some(domains),
                shards,
                seed: 4357,
                iteration_block_size: 64,
                ..Param::default()
            };
            fingerprint(&run(model.as_ref(), param, 10))
        };
        for domains in [1, 2] {
            // Every domain needs a worker of its own.
            let threads = [1, 2, 4].into_iter().filter(|&t| t >= domains);
            let mut configs = threads.flat_map(|t| [(t, 1), (t, 2)]);
            let (t0, k0) = configs.next().expect("a topology per domain count");
            let reference = run(t0, domains, k0);
            for (threads, shards) in configs {
                let what = format!(
                    "{}: {threads} threads, {domains} domains, K = {shards} \
                     (reference: {t0} threads, K = {k0})",
                    model.name()
                );
                assert_identical(&reference, &run(threads, domains, shards), &what);
            }
        }
    }
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
            p.use_pool_allocator = false;
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
    use biodynamo::core::testing::first_divergence_within;

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
