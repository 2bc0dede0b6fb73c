//! Differential conformance harness for the checkpoint subsystem.
//!
//! The contract under test: **restore(checkpoint(sim)) followed by N steps
//! is bitwise identical to stepping the original simulation N times** — for
//! all six benchmark models, on all four environment backends, for
//! checkpoints taken at rest and mid-iteration (between the snapshot and
//! environment-update pipeline stages).
//!
//! Identity is asserted on [`biodynamo::core::testing::SimFingerprint`],
//! which captures every step-relevant bit: agent positions/diameters as
//! IEEE-754 bit patterns, payloads, per-type bodies, behavior lists, static
//! flags, violation flags, diffusion concentrations, the iteration counter,
//! and the uid counter.

use std::sync::{Arc, Mutex};

use biodynamo::checkpoint::{checkpoint, restore, restore_with, Registry};
use biodynamo::core::builtin;
use biodynamo::core::testing::{assert_identical, fingerprint};
use biodynamo::models::all_models;
use biodynamo::prelude::*;
use proptest::prelude::*;

mod common;

/// Agent scale for the harness: big enough for real neighbor interactions
/// and multi-domain partitions, small enough to sweep the full matrix.
const SCALE: usize = 90;

fn param_for(env: EnvironmentKind, threads: usize, domains: usize) -> Param {
    Param {
        environment: env,
        threads: Some(threads),
        numa_domains: Some(domains),
        seed: 4242,
        ..Param::default()
    }
}

/// The core scenario: run `pre` iterations, checkpoint, run both the
/// original and the restored simulation `post` more iterations, and demand
/// bitwise-identical fingerprints at both the checkpoint and the end.
fn assert_replay(model: &dyn BenchmarkModel, param: Param, pre: usize, post: usize, label: &str) {
    let reg = Registry::with_builtin_types();
    let mut truth = model.build(param);
    truth.simulate(pre);
    let bytes = checkpoint(&truth).unwrap_or_else(|e| panic!("{label}: checkpoint failed: {e}"));
    let mut restored =
        restore(&bytes, &reg).unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    assert_identical(
        &fingerprint(&truth),
        &fingerprint(&restored),
        &format!("{label}: at checkpoint"),
    );
    // Slot-exact restore: every domain must hold exactly its original
    // agents (the fingerprint keys by uid, so check placement separately).
    let (rma, rmb) = (truth.resource_manager(), restored.resource_manager());
    assert_eq!(
        rma.num_domains(),
        rmb.num_domains(),
        "{label}: domain count"
    );
    for d in 0..rma.num_domains() {
        assert_eq!(
            rma.num_in_domain(d),
            rmb.num_in_domain(d),
            "{label}: per-domain agent count, domain {d}"
        );
    }
    truth.simulate(post);
    restored.simulate(post);
    assert_identical(
        &fingerprint(&truth),
        &fingerprint(&restored),
        &format!("{label}: {post} steps after restore"),
    );
}

/// All six models × all four environment backends: restore → step-N is
/// bitwise identical to straight-run step-N.
#[test]
fn restore_then_step_is_bitwise_identical_on_every_backend() {
    for model in all_models(SCALE) {
        for env in EnvironmentKind::ALL {
            let label = format!("{} / {:?}", model.name(), env);
            assert_replay(model.as_ref(), param_for(env, 2, 2), 3, 5, &label);
        }
    }
}

/// The same contract on a coarsened lattice (sparse scene), single-engine
/// and sharded: the box edge is recomputed from the restored state, never
/// stored, so replay cannot drift from the straight run.
#[test]
fn restore_then_step_is_bitwise_identical_on_a_coarsened_lattice() {
    let scene = common::SparseScene { num_agents: SCALE };
    for shards in [1, 2] {
        let param = Param {
            shards,
            ..param_for(EnvironmentKind::UniformGrid, 2, 2)
        };
        let label = format!("sparse scene / K={shards}");
        assert_replay(&scene, param, 3, 5, &label);
    }
    let mut sim = scene.build(param_for(EnvironmentKind::UniformGrid, 2, 2));
    sim.simulate(3);
    assert!(common::lattice_is_coarsened(&sim));
}

/// Both thread settings of the CI matrix: topology is recorded in the
/// checkpoint and pinned on restore, so replay stays exact under either.
#[test]
fn restore_then_step_is_bitwise_identical_for_each_thread_topology() {
    for model in all_models(SCALE) {
        for (threads, domains) in [(1, 1), (4, 2)] {
            let label = format!("{} / {threads}t{domains}d", model.name());
            let param = param_for(EnvironmentKind::UniformGrid, threads, domains);
            assert_replay(model.as_ref(), param, 3, 4, &label);
        }
    }
}

/// A restored simulation replays exactly even when rebuilt under different
/// machine defaults: the COUNTERS section pins the captured topology, so the
/// builder's own thread/domain fields are overridden.
#[test]
fn restore_pins_the_captured_topology() {
    let models = all_models(SCALE);
    let model = &models[0];
    let mut truth = model.build(param_for(EnvironmentKind::UniformGrid, 4, 2));
    truth.simulate(3);
    let bytes = checkpoint(&truth).unwrap();
    let restored = restore(&bytes, &Registry::with_builtin_types()).unwrap();
    assert_eq!(
        restored.topology().num_threads(),
        4,
        "thread count must be pinned"
    );
    assert_eq!(
        restored.topology().num_domains(),
        2,
        "domain count must be pinned"
    );
}

/// Checkpoint taken mid-window (between snapshot and environment_update):
/// the stored iteration counter points at the last completed iteration, so
/// restore + step replays the interrupted iteration from its start and the
/// final states are bitwise identical.
#[test]
fn mid_window_checkpoint_replays_the_interrupted_iteration() {
    let reg = Registry::with_builtin_types();
    let total = 7;
    let capture_at = 4; // inside iteration 4 ⇒ stored counter is 3
    for model in all_models(SCALE) {
        let label = model.name();
        let slot = Arc::new(Mutex::new(None));
        let mut truth = model.build(param_for(EnvironmentKind::UniformGrid, 2, 2));
        let added = truth.scheduler_mut().add_op_after(
            builtin::SNAPSHOT,
            common::CheckpointProbe {
                at: capture_at,
                out: Arc::clone(&slot),
            },
        );
        assert!(added, "{label}: probe must sit right after the snapshot op");
        truth.simulate(total);

        let bytes = slot.lock().unwrap().take().expect("probe captured");
        let mut restored = restore_with(&bytes, &reg, |param| {
            let mut sim = Simulation::new(param);
            assert!(sim
                .scheduler_mut()
                .add_op_after(builtin::SNAPSHOT, common::InertProbe));
            sim
        })
        .unwrap_or_else(|e| panic!("{label}: mid-window restore failed: {e}"));

        assert_eq!(
            restored.iteration(),
            capture_at - 1,
            "{label}: mid-window checkpoint stores the last completed iteration"
        );
        restored.simulate(total - (capture_at as usize - 1));
        assert_identical(
            &fingerprint(&truth),
            &fingerprint(&restored),
            &format!("{label}: mid-window replay"),
        );
    }
}

/// A mid-window checkpoint whose pipeline contains a custom op restores only
/// through a builder that re-registers it; plain restore reports the op by
/// name instead of guessing.
#[test]
fn mid_window_restore_without_the_custom_op_is_a_typed_error() {
    use biodynamo::checkpoint::CheckpointError;
    let models = all_models(SCALE);
    let model = &models[0];
    let slot = Arc::new(Mutex::new(None));
    let mut truth = model.build(param_for(EnvironmentKind::UniformGrid, 2, 2));
    truth.scheduler_mut().add_op_after(
        builtin::SNAPSHOT,
        common::CheckpointProbe {
            at: 2,
            out: Arc::clone(&slot),
        },
    );
    truth.simulate(3);
    let bytes = slot.lock().unwrap().take().unwrap();
    let err = restore(&bytes, &Registry::with_builtin_types())
        .err()
        .unwrap();
    match err {
        CheckpointError::UnknownOp { name } => assert_eq!(name, "ckpt_probe"),
        other => panic!("expected UnknownOp, got {other}"),
    }
}

/// A checkpoint captured under one shard count restores into *any other*
/// shard count and replays bitwise identically: the SHARDS section is
/// validation-only, the partition is a pure function of agent state, and
/// the `halo_exchange` op exists in every pipeline — so the restored run
/// simply re-partitions under its own K at the first exchange.
#[test]
fn restore_into_different_shard_count_replays_identically() {
    let reg = Registry::with_builtin_types();
    for model in all_models(SCALE) {
        let label = model.name();
        let mut truth = model.build(Param {
            shards: 4,
            ..param_for(EnvironmentKind::UniformGrid, 1, 1)
        });
        truth.simulate(3);
        let bytes = checkpoint(&truth).unwrap_or_else(|e| panic!("{label}: checkpoint: {e}"));
        truth.simulate(4);
        let end = fingerprint(&truth);
        for k in [1usize, 2, 7] {
            let mut restored = restore_with(&bytes, &reg, |mut p| {
                assert_eq!(p.shards, 4, "PARAM section carries the captured K");
                p.shards = k;
                Simulation::new(p)
            })
            .unwrap_or_else(|e| panic!("{label}: restore into K={k}: {e}"));
            restored.simulate(4);
            assert_identical(
                &end,
                &fingerprint(&restored),
                &format!("{label}: captured at K=4, replayed at K={k}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite 2: random (model, checkpoint iteration, backend, opt level)
    /// tuples round-trip checkpoint → restore → run to bitwise-identical
    /// state.
    #[test]
    fn prop_random_config_round_trips(
        model_idx in 0usize..6,
        pre in 1usize..5,
        backend in 0usize..4,
        opt in 0usize..OptLevel::ALL.len(),
    ) {
        let models = all_models(60);
        let model = &models[model_idx];
        let param = Param {
            environment: EnvironmentKind::ALL[backend],
            threads: Some(2),
            numa_domains: Some(2),
            seed: 91,
            ..Param::default().apply_opt_level(OptLevel::ALL[opt])
        };
        let label = format!(
            "{} pre={pre} env={:?} opt={:?}",
            model.name(),
            EnvironmentKind::ALL[backend],
            OptLevel::ALL[opt],
        );
        let reg = Registry::with_builtin_types();
        let mut truth = model.build(param);
        truth.simulate(pre);
        let bytes = checkpoint(&truth).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut restored = restore(&bytes, &reg).unwrap_or_else(|e| panic!("{label}: {e}"));
        truth.simulate(3);
        restored.simulate(3);
        let div = biodynamo::core::testing::first_divergence(
            &fingerprint(&truth),
            &fingerprint(&restored),
        );
        prop_assert!(div.is_none(), "{label}: {}", div.unwrap());
    }
}
