//! Static detection's duty cycle (`Simulation::static_detection_engaged`).
//!
//! Armed detection runs only while at least 5% of an iteration's mechanics
//! agents end it static. These tests pin the contract:
//!
//! * a down iteration is bitwise an iteration with detection off, static
//!   flags and pending wakes included;
//! * a scene that skips from its first iteration never stands down, and
//!   skips exactly what always-on detection skipped;
//! * detection stands down and re-engages on a scene that settles, is
//!   shaken and settles again, and stays within rounding of "off";
//! * the engagement sequence is independent of thread and shard count;
//! * checkpoints restore the duty-cycle bit while down, while up and in the
//!   middle of the transition iteration.

use std::sync::{Arc, Mutex};

use biodynamo::checkpoint::{checkpoint, restore, restore_with, Registry};
use biodynamo::core::builtin;
use biodynamo::core::testing::{assert_identical, fingerprint};
use biodynamo::models::{BenchmarkModel, CellClustering, CellSorting, Neuroscience, Oncology};
use biodynamo::prelude::*;

mod common;

use common::{CheckpointProbe, InertProbe, Kick, SettleScene};

fn param(threads: usize, shards: usize, detect: bool) -> Param {
    Param {
        threads: Some(threads),
        numa_domains: Some(threads.min(2)),
        seed: 4357,
        shards,
        detect_static_agents: detect,
        ..Param::default()
    }
}

/// Steps `sim` `iterations` times and returns the duty-cycle bit after each
/// step (whether the next iteration runs detection).
fn engagement(sim: &mut Simulation, iterations: usize) -> Vec<bool> {
    (0..iterations)
        .map(|_| {
            sim.step();
            sim.static_detection_engaged()
        })
        .collect()
}

#[test]
fn down_iterations_are_bitwise_off_iterations() {
    // Neither scene leaves 5% of its agents static (oncology ≤ 0.3%,
    // cell_sorting 1.5–2.1%), so armed detection runs iteration 1 only.
    // Population turnover is not run-to-run reproducible above one thread,
    // so oncology runs on one.
    let scenes: [(Box<dyn BenchmarkModel>, usize); 2] = [
        (Box::new(Oncology::new(2000)), 1),
        (Box::new(CellSorting::new(2000)), 2),
    ];
    for (model, threads) in &scenes {
        for shards in [1, 2] {
            let what = format!("{} K={shards}", model.name());
            let mut armed = model.build(param(*threads, shards, true));
            let mut off = model.build(param(*threads, shards, false));
            armed.simulate(30);
            off.simulate(30);
            let stats = armed.stats();
            assert_eq!(stats.static_engaged_iterations, 1, "{what}: {stats:?}");
            assert_eq!(stats.static_stand_downs, 1, "{what}");
            assert!(!armed.static_detection_engaged(), "{what}");
            assert_identical(&fingerprint(&off), &fingerprint(&armed), &what);
        }
    }
}

#[test]
fn neuroscience_never_stands_down() {
    // ≥ 20% of the agents end every pass static. 140 588 is what the
    // always-on engine (a floor of 0) skips in this run.
    for shards in [1, 2] {
        let mut sim = Neuroscience::new(2000).build(param(1, shards, true));
        sim.simulate(30);
        let stats = sim.stats();
        assert_eq!(stats.static_engaged_iterations, 30, "K={shards}");
        assert_eq!(stats.static_stand_downs, 0, "K={shards}");
        assert_eq!(stats.static_skipped, 140_588, "K={shards}");
    }
}

#[test]
fn detection_stands_down_and_re_engages() {
    let scene = SettleScene;
    let mut armed = scene.build(param(2, 1, true));
    let mut off = scene.build(param(2, 1, false));
    let mut sequence = Vec::new();
    for _ in 0..30 {
        armed.step();
        off.step();
        let engaged = armed.static_detection_engaged();
        if !engaged {
            // The state a down iteration starts from is "off"'s, bit for
            // bit, static flags and pending wakes included.
            let what = format!("down after iteration {}", armed.iteration());
            assert_identical(&fingerprint(&off), &fingerprint(&armed), &what);
        }
        sequence.push(engaged);
    }
    // Engaged through the still start and the first shaken pass (6), down
    // while shaken (7, 8) and for the first still pass (9), engaged again
    // from 10.
    let expected: Vec<bool> = (1..=30).map(|i| !(6..=8).contains(&i)).collect();
    assert_eq!(sequence, expected);
    let stats = armed.stats();
    assert_eq!(stats.static_stand_downs, 1, "{stats:?}");
    assert_eq!(stats.static_engaged_iterations, 27, "{stats:?}");
    assert!(stats.static_skipped > 0, "{stats:?}");

    let positions = |sim: &Simulation| {
        let mut out = Vec::new();
        sim.for_each_agent(|_, a| out.push((a.uid().0, a.position())));
        out.sort_by_key(|(uid, _)| *uid);
        out
    };
    for ((uid, p), (_, q)) in positions(&armed).iter().zip(&positions(&off)) {
        let d = p.distance(q);
        assert!(d < 1e-6, "uid {uid}: detection moved it by {d}");
    }
}

#[test]
fn engagement_is_thread_and_shard_count_invariant() {
    let scenes: [Box<dyn BenchmarkModel>; 2] =
        [Box::new(SettleScene), Box::new(CellClustering::new(2000))];
    for model in &scenes {
        let mut reference = None;
        for threads in [1, 2, 4] {
            for shards in [1, 2] {
                let mut sim = model.build(param(threads, shards, true));
                let run = (engagement(&mut sim, 30), sim.stats().static_skipped);
                let what = format!("{} {threads} threads K={shards}", model.name());
                match &reference {
                    None => reference = Some(run),
                    Some(r) => assert_eq!(&run, r, "{what}"),
                }
            }
        }
        let (sequence, _) = reference.unwrap();
        assert!(
            sequence.contains(&false),
            "{}: never stood down",
            model.name()
        );
    }
}

fn registry() -> Registry {
    let mut reg = Registry::with_builtin_types();
    reg.register_behavior::<Kick, _>(Kick::TAG, |r| Ok(Kick::read(r)));
    reg
}

#[test]
fn checkpoints_restore_the_duty_cycle_bit() {
    let scene = SettleScene;
    let reg = registry();
    let mut truth = scene.build(param(2, 1, true));
    let mut captures = Vec::new();
    let mut sequence = Vec::new();
    for _ in 0..20 {
        truth.step();
        sequence.push(truth.static_detection_engaged());
        // Up after 4, down after 7 and 8, re-engaging after 9.
        if [4, 7, 8, 9].contains(&truth.iteration()) {
            captures.push((truth.iteration(), checkpoint(&truth).unwrap()));
        }
    }
    for (at, bytes) in captures {
        let mut restored = restore(&bytes, &reg).unwrap();
        assert_eq!(restored.iteration(), at);
        assert_eq!(
            restored.static_detection_engaged(),
            sequence[at as usize - 1],
            "bit restored from iteration {at}"
        );
        let replayed = engagement(&mut restored, 20 - at as usize);
        assert_eq!(replayed[..], sequence[at as usize..], "after {at}");
        assert_identical(
            &fingerprint(&truth),
            &fingerprint(&restored),
            &format!("restored after iteration {at}"),
        );
    }
}

#[test]
fn mid_iteration_checkpoints_store_the_starting_bit() {
    // Iteration 6 starts engaged and stands down at the end of its agent
    // phase; iteration 9 starts down and re-engages at the end of its.
    let scene = SettleScene;
    let reg = registry();
    for (at, anchor) in [
        (6, builtin::SNAPSHOT),
        (6, builtin::AGENT_OPS),
        (9, builtin::SNAPSHOT),
        (9, builtin::AGENT_OPS),
    ] {
        let what = format!("iteration {at}, after {anchor}");
        let slot = Arc::new(Mutex::new(None));
        let mut truth = scene.build(param(2, 1, true));
        let probe = CheckpointProbe {
            at,
            out: Arc::clone(&slot),
        };
        assert!(truth.scheduler_mut().add_op_after(anchor, probe), "{what}");
        truth.simulate(20);
        let bytes = slot.lock().unwrap().take().expect("probe captured");
        let mut restored = restore_with(&bytes, &reg, |p| {
            let mut sim = Simulation::new(p);
            assert!(sim.scheduler_mut().add_op_after(anchor, InertProbe));
            sim
        })
        .unwrap();
        assert_eq!(restored.iteration(), at - 1, "{what}");
        assert_eq!(restored.static_detection_engaged(), at == 6, "{what}");
        if anchor == builtin::SNAPSHOT {
            // Before the agent phase nothing has moved: replaying the
            // interrupted iteration from its start is the straight run.
            restored.simulate(20 - (at as usize - 1));
            assert_identical(&fingerprint(&truth), &fingerprint(&restored), &what);
        }
    }
}
