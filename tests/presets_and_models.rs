//! Integration: every benchmark model runs under every optimization preset
//! of the evaluation ladder (paper Figures 8–10) and stays valid.

use biodynamo::models::{all_models, BenchmarkModel};
use biodynamo::prelude::*;

fn run_with(model: &dyn BenchmarkModel, level: OptLevel, iterations: usize) -> Simulation {
    let param = Param {
        threads: Some(2),
        numa_domains: Some(2),
        ..Param::default()
    }
    .apply_opt_level(level);
    let mut sim = model.build(param);
    sim.simulate(iterations);
    sim
}

fn assert_valid(model: &dyn BenchmarkModel, sim: &Simulation, level: OptLevel) {
    assert!(
        sim.num_agents() > 0,
        "{} @ {level:?}: agents must survive",
        model.name()
    );
    sim.for_each_agent(|_, a| {
        assert!(
            a.position().is_finite(),
            "{} @ {level:?}: non-finite position",
            model.name()
        );
        assert!(
            a.diameter() >= 0.0 && a.diameter().is_finite(),
            "{} @ {level:?}: bad diameter",
            model.name()
        );
    });
    for (name, value) in model.validate(sim) {
        assert!(
            value.is_finite(),
            "{} @ {level:?}: metric {name} is not finite",
            model.name()
        );
    }
}

#[test]
fn every_model_runs_under_every_preset() {
    for model in all_models(150) {
        for level in OptLevel::ALL {
            let sim = run_with(model.as_ref(), level, 8);
            assert_valid(model.as_ref(), &sim, level);
        }
    }
}

#[test]
fn presets_preserve_proliferation_population() {
    // Cell division in the proliferation model depends only on per-agent
    // growth, so the final population must be identical across the entire
    // optimization ladder (the optimizations must not change semantics).
    let model = biodynamo::models::CellProliferation::new(125);
    let mut counts = Vec::new();
    for level in OptLevel::ALL {
        // Growth rate 30 µm³/step needs ~31 steps to reach the division
        // threshold from diameter 10, so run past that point.
        let sim = run_with(&model, level, 36);
        counts.push((level, sim.num_agents()));
    }
    let first = counts[0].1;
    assert!(first > 125, "divisions must have happened: {first}");
    for (level, count) in counts {
        assert_eq!(count, first, "population diverged at {level:?}");
    }
}

#[test]
fn oncology_removals_work_under_both_commit_paths() {
    // Parallel agent removal (paper Section 3.2, Figure 1) must agree with
    // the serial commit path on *which* agents die: same seed, same uids.
    let model = biodynamo::models::Oncology::new(200);
    let collect = |parallel: bool| -> Vec<u64> {
        let mut param = Param {
            threads: Some(2),
            numa_domains: Some(2),
            ..Param::default()
        };
        param.parallel_add_remove = parallel;
        // Keep forces out of the picture so crowding counts are identical.
        param.enable_mechanics = false;
        let mut sim = model.build(param);
        sim.simulate(10);
        let mut uids: Vec<u64> = Vec::new();
        sim.for_each_agent(|_, a| uids.push(a.uid().0));
        uids.sort_unstable();
        uids
    };
    let serial = collect(false);
    let parallel = collect(true);
    assert_eq!(serial, parallel);
}

#[test]
fn static_detection_skips_forces_in_static_lattice() {
    // A lattice of well-separated cells never moves; the detection mechanism
    // (paper Section 5) must declare it static and skip force calculations.
    let mut param = Param {
        threads: Some(2),
        numa_domains: Some(1),
        detect_static_agents: true,
        ..Param::default()
    };
    param.simulation_time_step = 0.1;
    let mut sim = Simulation::new(param);
    for x in 0..5 {
        for y in 0..5 {
            let uid = sim.new_uid();
            sim.add_agent(
                Cell::new(uid)
                    .with_position(Real3::new(x as f64 * 40.0, y as f64 * 40.0, 0.0))
                    .with_diameter(10.0),
            );
        }
    }
    sim.simulate(10);
    let stats = sim.stats();
    assert!(
        stats.static_skipped > 0,
        "separated lattice must become static: {stats:?}"
    );
    // Nothing moved.
    sim.for_each_agent(|_, a| {
        assert!(a.position().x() % 40.0 < 1e-9);
    });
}

#[test]
fn neuroscience_static_detection_reduces_force_work() {
    let model = biodynamo::models::Neuroscience::new(30);
    let forces = |detect: bool| {
        let mut param = Param {
            threads: Some(2),
            numa_domains: Some(2),
            ..Param::default()
        };
        param.detect_static_agents = detect;
        let mut sim = model.build(param);
        sim.simulate(25);
        sim.stats()
    };
    let without = forces(false);
    let with = forces(true);
    assert_eq!(without.static_skipped, 0);
    assert!(with.static_skipped > 0, "{with:?}");
    assert!(
        with.force_calculations < without.force_calculations,
        "static detection must reduce force work: {} vs {}",
        with.force_calculations,
        without.force_calculations
    );
}

#[test]
fn characteristics_are_observable() {
    // Table 1's dynamic claims must be observable in actual runs. Each
    // model's default iteration count is its own "long enough" horizon
    // (proliferation needs ~31 steps before the first division).
    for model in all_models(200) {
        let c = model.characteristics();
        let sim = run_with(
            model.as_ref(),
            OptLevel::MemoryLayout,
            model.default_iterations(),
        );
        let stats = sim.stats();
        assert_eq!(
            c.creates_agents,
            stats.agents_added > 0,
            "{}: creates_agents claim",
            model.name()
        );
        assert_eq!(
            c.deletes_agents,
            stats.agents_removed > 0,
            "{}: deletes_agents claim",
            model.name()
        );
    }
}
