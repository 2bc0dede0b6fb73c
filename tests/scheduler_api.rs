//! Integration: the first-class Operation/Scheduler API and the
//! `Simulation::builder()` construction path — op ordering, frequency
//! semantics, introspection/timing, and builder defaults.

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
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        self.log
            .lock()
            .unwrap()
            .push((self.name.clone(), ctx.iteration()));
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

fn tiny_sim() -> Simulation {
    let mut sim = Simulation::builder().threads(2).numa_domains(2).build();
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
fn builder_defaults_match_param_default() {
    let sim = Simulation::builder().build();
    let p = sim.param();
    let d = Param::default();
    assert_eq!(p.seed, d.seed);
    assert_eq!(p.environment, d.environment);
    assert_eq!(p.interaction_radius, d.interaction_radius);
    assert_eq!(p.simulation_time_step, d.simulation_time_step);
    assert_eq!(p.enable_mechanics, d.enable_mechanics);
    assert_eq!(p.detect_static_agents, d.detect_static_agents);
    assert_eq!(p.agent_sort_frequency, d.agent_sort_frequency);
    assert_eq!(p.sort_curve, d.sort_curve);
    assert_eq!(p.parallel_add_remove, d.parallel_add_remove);
    assert_eq!(p.numa_aware_iteration, d.numa_aware_iteration);
    assert_eq!(p.use_pool_allocator, d.use_pool_allocator);
    assert_eq!(p.threads, d.threads);
    assert_eq!(p.iteration_block_size, d.iteration_block_size);
}

#[test]
fn default_pipeline_is_algorithm_1() {
    let sim = Simulation::builder().threads(1).build();
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
    let sorted = Simulation::builder()
        .threads(1)
        .sort_frequency(Some(7))
        .build();
    assert_eq!(sorted.scheduler().frequency("agent_sorting"), Some(7));
    assert!(sorted.scheduler().is_enabled("agent_sorting"));
}

#[test]
fn custom_op_runs_at_configured_frequency() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::builder()
        .threads(2)
        .operation(log_op("every3", OpKind::Standalone, 3, &log))
        .build();
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
    let mut sim = Simulation::builder()
        .threads(1)
        .operation(log_op("user_post", OpKind::Post, 1, &log))
        .operation(log_op("user_pre", OpKind::Pre, 1, &log))
        .operation(log_op("user_standalone", OpKind::Standalone, 1, &log))
        .operation(log_op("user_agent", OpKind::Agent, 1, &log))
        .build();
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
    let mut sim = Simulation::builder()
        .threads(1)
        .operation(log_op("probe", OpKind::Standalone, 1, &log))
        .build();
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
    let mut sim = Simulation::builder().threads(1).build();
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
    let counter = Arc::new(AtomicUsize::new(0));
    let c = counter.clone();
    let mut sim = Simulation::builder().threads(1).build();
    let mut registered = false;
    sim.add_standalone_op(
        "registrar",
        1,
        Box::new(move |sim| {
            if !registered {
                registered = true;
                let c = c.clone();
                sim.add_standalone_op(
                    "late",
                    1,
                    Box::new(move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
        }),
    );
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
        fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
            if ctx.iteration() == 1 {
                assert!(ctx.scheduler_mut().set_frequency("probe", 3));
                assert!(ctx.scheduler_mut().set_enabled("diffusion", false));
            }
        }
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::builder()
        .threads(1)
        .operation(Retimer)
        .operation(log_op("probe", OpKind::Post, 1, &log))
        .build();
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
        fn run(&mut self, _ctx: &mut SimulationCtx<'_>) {
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
    let mut sim = Simulation::builder().threads(2).numa_domains(2).build();
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
        fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
            let grid = ctx.environment().as_uniform_grid().unwrap();
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
fn builder_wires_grids_force_and_environment() {
    let mut sim = Simulation::builder()
        .threads(2)
        .numa_domains(1)
        .seed(11)
        .environment(EnvironmentKind::KdTree)
        .time_step(0.5)
        .interaction_radius(12.0)
        .detect_static_agents(true)
        .force(InteractionForce::repulsive_only())
        .diffusion_grid(DiffusionGrid::new("a", 0.1, 0.0, 8, Real3::ZERO, 50.0))
        .diffusion_grid(DiffusionGrid::new("b", 0.1, 0.0, 8, Real3::ZERO, 50.0))
        .build();
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
    let sim = Simulation::builder()
        .threads(1)
        .opt_level(OptLevel::Standard)
        .build();
    assert_eq!(sim.param().environment, EnvironmentKind::KdTree);
    assert!(!sim.scheduler().is_enabled("agent_sorting"));

    let sim = Simulation::builder()
        .threads(1)
        .opt_level(OptLevel::MemoryLayout)
        .build();
    assert_eq!(sim.param().environment, EnvironmentKind::UniformGrid);
    assert!(sim.scheduler().is_enabled("agent_sorting"));
    assert_eq!(sim.scheduler().frequency("agent_sorting"), Some(10));
}
