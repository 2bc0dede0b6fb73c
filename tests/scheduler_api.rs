//! Integration: the first-class Operation/Scheduler API and the `Param`
//! construction path — op ordering, frequency semantics, unique names,
//! introspection/timing, and the `Simulation` setters.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use biodynamo::prelude::*;

/// An operation that appends `(name, iteration)` to a shared log.
struct LogOp {
    name: String,
    kind: OpKind,
    frequency: u64,
    log: Arc<Mutex<Vec<(String, u64)>>>,
}

impl Operation for LogOp {
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> OpKind {
        self.kind
    }
    fn frequency(&self) -> u64 {
        self.frequency
    }
    fn run(&mut self, sim: &mut Simulation) {
        self.log
            .lock()
            .unwrap()
            .push((self.name.clone(), sim.iteration()));
    }
}

fn log_op(name: &str, kind: OpKind, frequency: u64, log: &Arc<Mutex<Vec<(String, u64)>>>) -> LogOp {
    LogOp {
        name: name.to_string(),
        kind,
        frequency,
        log: log.clone(),
    }
}

/// Default parameters on `threads` worker threads.
fn threads(threads: usize) -> Param {
    Param {
        threads: Some(threads),
        ..Param::default()
    }
}

fn tiny_sim() -> Simulation {
    let mut sim = Simulation::new(Param {
        numa_domains: Some(2),
        ..threads(2)
    });
    let mut rng = SimRng::new(3);
    for _ in 0..40 {
        let uid = sim.new_uid();
        sim.add_agent(
            Cell::new(uid)
                .with_position(rng.point_in_cube(0.0, 80.0))
                .with_diameter(8.0),
        );
    }
    sim
}

#[test]
fn default_pipeline_is_algorithm_1() {
    let sim = Simulation::new(threads(1));
    assert_eq!(
        sim.scheduler().op_names(),
        vec![
            "snapshot",
            "halo_exchange",
            "environment_update",
            "agent_ops",
            "diffusion",
            "teardown",
            "agent_sorting"
        ]
    );
    // Sorting defaults to off (Param::default has no sort frequency)…
    assert!(!sim.scheduler().is_enabled("agent_sorting"));
    // …while a sorted configuration maps the frequency onto the op.
    let sorted = Simulation::new(Param {
        agent_sort_frequency: Some(7),
        ..threads(1)
    });
    assert_eq!(sorted.scheduler().frequency("agent_sorting"), Some(7));
    assert!(sorted.scheduler().is_enabled("agent_sorting"));
    // A sentinel frequency appends the health check as the last op, with
    // the frequency clamped to at least 1.
    for (every, frequency) in [(0, 1), (1, 1), (5, 5)] {
        let checked = Simulation::new(Param {
            health_check_every: Some(every),
            ..threads(1)
        });
        let names = checked.scheduler().op_names();
        assert_eq!(names.last().map(String::as_str), Some("health_check"));
        assert_eq!(names.len(), 8);
        assert_eq!(
            checked.scheduler().frequency("health_check"),
            Some(frequency),
            "health_check_every: Some({every})"
        );
    }
}

#[test]
fn custom_op_runs_at_configured_frequency() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(threads(2));
    sim.scheduler_mut()
        .add_op(log_op("every3", OpKind::Standalone, 3, &log));
    let uid = sim.new_uid();
    sim.add_agent(Cell::new(uid).with_diameter(10.0));
    sim.simulate(10);
    // Frequency-N ops run on iteration multiples of N: 3, 6, 9.
    let iterations: Vec<u64> = log.lock().unwrap().iter().map(|(_, i)| *i).collect();
    assert_eq!(iterations, vec![3, 6, 9]);
    // The scheduler accounted each run.
    let info = sim
        .scheduler()
        .ops()
        .into_iter()
        .find(|o| o.name == "every3")
        .expect("op registered");
    assert_eq!(info.runs, 3);
    assert_eq!(info.frequency, 3);
    assert_eq!(info.kind, OpKind::Standalone);
}

#[test]
fn ops_execute_in_kind_order() {
    let log = Arc::new(Mutex::new(Vec::new()));
    // Register deliberately out of order; kinds must still group correctly.
    let mut sim = Simulation::new(threads(1));
    let scheduler = sim.scheduler_mut();
    scheduler.add_op(log_op("user_post", OpKind::Post, 1, &log));
    scheduler.add_op(log_op("user_pre", OpKind::Pre, 1, &log));
    scheduler.add_op(log_op("user_standalone", OpKind::Standalone, 1, &log));
    scheduler.add_op(log_op("user_agent", OpKind::Agent, 1, &log));
    let uid = sim.new_uid();
    sim.add_agent(Cell::new(uid).with_diameter(10.0));
    sim.step();
    let order: Vec<String> = log.lock().unwrap().iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(
        order,
        vec!["user_pre", "user_agent", "user_standalone", "user_post"]
    );
    // User ops land at the end of their kind group, after the built-ins.
    let names = sim.scheduler().op_names();
    let pos = |n: &str| names.iter().position(|x| x == n).unwrap();
    assert!(pos("snapshot") < pos("environment_update"));
    assert!(pos("environment_update") < pos("user_pre"));
    assert!(pos("agent_ops") < pos("user_agent"));
    assert!(pos("diffusion") < pos("user_standalone"));
    assert!(pos("user_standalone") < pos("teardown"));
    assert!(pos("agent_sorting") < pos("user_post"));
}

#[test]
fn scheduler_retimes_and_removes_ops() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(threads(1));
    sim.scheduler_mut()
        .add_op(log_op("probe", OpKind::Standalone, 1, &log));
    sim.simulate(2); // runs at 1, 2
    assert!(sim.scheduler_mut().set_frequency("probe", 4));
    sim.simulate(6); // now due at 4, 8
    let iterations: Vec<u64> = log.lock().unwrap().iter().map(|(_, i)| *i).collect();
    assert_eq!(iterations, vec![1, 2, 4, 8]);

    assert!(sim.scheduler_mut().remove_op("probe"));
    assert!(!sim.scheduler().contains("probe"));
    sim.simulate(4);
    assert_eq!(log.lock().unwrap().len(), 4, "removed op must not run");

    // Disabling a built-in keeps it registered but skipped.
    assert!(sim.scheduler_mut().set_enabled("diffusion", false));
    sim.simulate(1);
    assert!(sim.scheduler().contains("diffusion"));
}

#[test]
fn anchored_insertion_controls_exact_position() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(threads(1));
    assert!(sim
        .scheduler_mut()
        .add_op_before("teardown", log_op("before_teardown", OpKind::Post, 1, &log)));
    assert!(sim
        .scheduler_mut()
        .add_op_after("snapshot", log_op("after_snapshot", OpKind::Pre, 1, &log)));
    let names = sim.scheduler().op_names();
    let pos = |n: &str| names.iter().position(|x| x == n).unwrap();
    assert_eq!(pos("after_snapshot"), pos("snapshot") + 1);
    assert_eq!(pos("before_teardown") + 1, pos("teardown"));
    sim.step();
    let order: Vec<String> = log.lock().unwrap().iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(order, vec!["after_snapshot", "before_teardown"]);
}

#[test]
fn time_buckets_derive_from_scheduler_timings() {
    let mut sim = tiny_sim();
    sim.simulate(5);
    let buckets = sim.time_buckets();
    // The legacy Figure 5 phase names are all present…
    for name in [
        "snapshot",
        "environment_update",
        "agent_ops",
        "standalone_ops",
        "teardown",
    ] {
        assert!(buckets.get(name).is_some(), "missing bucket {name}");
    }
    // …and equal the scheduler's per-op totals (diffusion maps onto the
    // legacy standalone_ops bucket).
    let ops = sim.scheduler().ops();
    let op_total = |n: &str| ops.iter().find(|o| o.name == n).unwrap().total;
    assert_eq!(buckets.get("agent_ops"), Some(op_total("agent_ops")));
    assert_eq!(buckets.get("standalone_ops"), Some(op_total("diffusion")));
    // Sorting is disabled by default: never ran, no bucket.
    assert!(buckets.get("agent_sorting").is_none());
}

#[test]
fn op_added_from_inside_an_op_takes_effect_next_iteration() {
    struct Late(Arc<AtomicUsize>);
    impl Operation for Late {
        fn name(&self) -> &str {
            "late"
        }
        fn kind(&self) -> OpKind {
            OpKind::Standalone
        }
        fn run(&mut self, _sim: &mut Simulation) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    /// Registers `late` on its first run.
    struct Registrar(Option<Late>);
    impl Operation for Registrar {
        fn name(&self) -> &str {
            "registrar"
        }
        fn kind(&self) -> OpKind {
            OpKind::Standalone
        }
        fn run(&mut self, sim: &mut Simulation) {
            if let Some(late) = self.0.take() {
                sim.scheduler_mut().add_op(late);
            }
        }
    }
    let counter = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new(threads(1));
    sim.scheduler_mut()
        .add_op(Registrar(Some(Late(counter.clone()))));
    sim.simulate(3);
    // Registered during iteration 1 → runs on iterations 2 and 3.
    assert_eq!(counter.load(Ordering::Relaxed), 2);
    assert!(sim.scheduler().contains("late"));
}

#[test]
fn in_op_edits_are_deferred_to_the_next_iteration() {
    // An operation re-timing another op (and disabling a built-in) from
    // inside its run: the edits must be accepted and applied for the next
    // iteration, even though the main op list is detached while it runs.
    struct Retimer;
    impl Operation for Retimer {
        fn name(&self) -> &str {
            "retimer"
        }
        fn kind(&self) -> OpKind {
            OpKind::Standalone
        }
        fn run(&mut self, sim: &mut Simulation) {
            if sim.iteration() == 1 {
                assert!(sim.scheduler_mut().set_frequency("probe", 3));
                assert!(sim.scheduler_mut().set_enabled("diffusion", false));
            }
        }
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(threads(1));
    sim.scheduler_mut().add_op(Retimer);
    sim.scheduler_mut()
        .add_op(log_op("probe", OpKind::Post, 1, &log));
    sim.simulate(6);
    // probe ran every iteration until the edit landed (end of iteration 1),
    // then only on multiples of 3.
    let iterations: Vec<u64> = log.lock().unwrap().iter().map(|(_, i)| *i).collect();
    assert_eq!(iterations, vec![1, 3, 6]);
    assert!(!sim.scheduler().is_enabled("diffusion"));
    assert_eq!(sim.scheduler().frequency("probe"), Some(3));
}

#[test]
fn panicking_op_leaves_pipeline_intact() {
    struct Exploder;
    impl Operation for Exploder {
        fn name(&self) -> &str {
            "exploder"
        }
        fn kind(&self) -> OpKind {
            OpKind::Standalone
        }
        fn frequency(&self) -> u64 {
            2
        }
        fn run(&mut self, _sim: &mut Simulation) {
            panic!("op exploded");
        }
    }
    let mut sim = tiny_sim();
    sim.scheduler_mut().add_op(Exploder);
    let ops_before = sim.scheduler().num_ops();
    sim.step(); // iteration 1: exploder not due
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()));
    assert!(caught.is_err(), "op panic must reach the caller");
    // The pipeline survives the unwind: all ops still registered, removal
    // of the faulty op works, and stepping continues normally.
    assert_eq!(sim.scheduler().num_ops(), ops_before);
    assert!(sim.scheduler_mut().remove_op("exploder"));
    sim.simulate(3);
    assert_eq!(sim.iteration(), 5);
    assert_eq!(sim.num_agents(), 40);
}

#[test]
fn custom_operation_enumerates_agents_through_the_grid_box_runs() {
    // Grid-specific reads need no capability declaration: the one structure
    // every rebuild produces serves box enumeration to any operation.
    let mut sim = Simulation::new(Param {
        numa_domains: Some(2),
        ..threads(2)
    });
    let mut rng = SimRng::new(5);
    for _ in 0..60 {
        let uid = sim.new_uid();
        sim.add_agent(
            Cell::new(uid)
                .with_position(rng.point_in_cube(0.0, 20.0))
                .with_diameter(8.0),
        );
    }
    struct BoxWalker {
        visited: Arc<AtomicUsize>,
    }
    impl Operation for BoxWalker {
        fn name(&self) -> &str {
            "box_walker"
        }
        fn kind(&self) -> OpKind {
            OpKind::Standalone
        }
        fn run(&mut self, sim: &mut Simulation) {
            let grid = sim.environment().as_uniform_grid().unwrap();
            let n = (0..grid.num_boxes())
                .map(|flat| grid.box_slots(flat).len())
                .sum();
            self.visited.store(n, Ordering::Relaxed);
        }
    }
    let visited = Arc::new(AtomicUsize::new(0));
    sim.scheduler_mut().add_op(BoxWalker {
        visited: Arc::clone(&visited),
    });
    sim.step();
    assert_eq!(visited.load(Ordering::Relaxed), sim.num_agents());
}

#[test]
fn setters_wire_grids_force_and_environment() {
    let mut sim = Simulation::new(Param {
        numa_domains: Some(1),
        seed: 11,
        environment: EnvironmentKind::KdTree,
        simulation_time_step: 0.5,
        interaction_radius: Some(12.0),
        detect_static_agents: true,
        ..threads(2)
    });
    sim.set_force(InteractionForce::repulsive_only());
    sim.add_diffusion_grid(DiffusionGrid::new("a", 0.1, 0.0, 8, Real3::ZERO, 50.0));
    sim.add_diffusion_grid(DiffusionGrid::new("b", 0.1, 0.0, 8, Real3::ZERO, 50.0));
    assert_eq!(sim.param().seed, 11);
    assert_eq!(sim.param().environment, EnvironmentKind::KdTree);
    assert_eq!(sim.param().simulation_time_step, 0.5);
    assert_eq!(sim.param().interaction_radius, Some(12.0));
    assert!(sim.param().detect_static_agents);
    assert_eq!(sim.environment_name(), "kd_tree");
    assert_eq!(sim.diffusion_grid(0).name(), "a");
    assert_eq!(sim.diffusion_grid(1).name(), "b");
    let uid = sim.new_uid();
    sim.add_agent(Cell::new(uid).with_diameter(10.0));
    sim.simulate(3);
    assert_eq!(sim.num_agents(), 1);
}

#[test]
fn opt_level_presets_apply_through_builder() {
    let sim = Simulation::new(Param {
        threads: Some(1),
        ..Param::default().apply_opt_level(OptLevel::Standard)
    });
    assert_eq!(sim.param().environment, EnvironmentKind::KdTree);
    assert!(!sim.scheduler().is_enabled("agent_sorting"));

    let sim = Simulation::new(Param {
        threads: Some(1),
        ..Param::default().apply_opt_level(OptLevel::MemoryLayout)
    });
    assert_eq!(sim.param().environment, EnvironmentKind::UniformGrid);
    assert!(sim.scheduler().is_enabled("agent_sorting"));
    assert_eq!(sim.scheduler().frequency("agent_sorting"), Some(10));
}

/// The message of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    }
}

#[test]
fn operation_names_are_unique() {
    use biodynamo::checkpoint::{checkpoint, restore_with, Registry};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = tiny_sim();
    let register = |sim: &mut Simulation, name: &str, frequency: u64| {
        let op = log_op(name, OpKind::Standalone, frequency, &log);
        catch_unwind(AssertUnwindSafe(|| sim.scheduler_mut().add_op(op))).map_err(panic_message)
    };

    // A second `tick` is refused, naming the op; the first keeps its timing.
    register(&mut sim, "tick", 1).unwrap();
    let err = register(&mut sim, "tick", 5).unwrap_err();
    assert!(err.contains("`tick`"), "{err}");
    register(&mut sim, "tock", 5).unwrap();
    let frequencies = |sim: &Simulation| {
        let ops = sim.scheduler().ops();
        let of = |n: &str| -> Vec<u64> {
            ops.iter()
                .filter(|o| o.name == n)
                .map(|o| o.frequency)
                .collect()
        };
        (of("tick"), of("tock"))
    };
    assert_eq!(frequencies(&sim), (vec![1], vec![5]));

    // A checkpoint round trip keeps each op's own frequency, even when the
    // restore shell registers them with other ones.
    sim.simulate(2);
    let bytes = checkpoint(&sim).unwrap();
    let restored = restore_with(&bytes, &Registry::with_builtin_types(), |param| {
        let mut sim = Simulation::new(param);
        sim.scheduler_mut()
            .add_op(log_op("tick", OpKind::Standalone, 5, &log));
        sim.scheduler_mut()
            .add_op(log_op("tock", OpKind::Standalone, 1, &log));
        sim
    })
    .unwrap();
    assert_eq!(frequencies(&restored), (vec![1], vec![5]));

    // A custom op cannot shadow a built-in, anchored or not, so the
    // built-in's controls keep retiming the built-in.
    let err = register(&mut sim, "agent_sorting", 1).unwrap_err();
    assert!(err.contains("`agent_sorting`"), "{err}");
    for before in [true, false] {
        let op = log_op("agent_sorting", OpKind::Post, 1, &log);
        let anchored = catch_unwind(AssertUnwindSafe(|| {
            if before {
                sim.scheduler_mut().add_op_before("teardown", op)
            } else {
                sim.scheduler_mut().add_op_after("teardown", op)
            }
        }));
        assert!(anchored.is_err(), "anchored before={before}");
    }
    assert!(sim.scheduler_mut().set_frequency("agent_sorting", 3));
    let sorting: Vec<OpInfo> = sim
        .scheduler()
        .ops()
        .into_iter()
        .filter(|o| o.name == "agent_sorting")
        .collect();
    assert_eq!(sorting.len(), 1);
    assert_eq!(sorting[0].kind, OpKind::Post);
    assert_eq!(sorting[0].frequency, 3);
    let sorts = sim.stats().sorts;
    sim.simulate(3); // iterations 3..=5: the sort is due at 3
    assert_eq!(sim.stats().sorts, sorts + 1);

    // Mid-iteration, the detached pipeline still holds its names.
    struct Shadower(Arc<Mutex<Vec<(String, u64)>>>);
    impl Operation for Shadower {
        fn name(&self) -> &str {
            "shadower"
        }
        fn kind(&self) -> OpKind {
            OpKind::Standalone
        }
        fn run(&mut self, sim: &mut Simulation) {
            let op = log_op("tick", OpKind::Post, 1, &self.0);
            let added = catch_unwind(AssertUnwindSafe(|| sim.scheduler_mut().add_op(op)));
            assert!(added.is_err(), "`tick` is in the detached pipeline");
        }
    }
    sim.scheduler_mut().add_op(Shadower(log.clone()));
    sim.step();
    let ticks = sim
        .scheduler()
        .ops()
        .iter()
        .filter(|o| o.name == "tick")
        .count();
    assert_eq!(ticks, 1);
}
