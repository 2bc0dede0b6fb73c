//! Integration: box-batched mechanics.
//!
//! On a uniform grid with scattered diameters the mechanics force
//! accumulation streams neighbor positions and diameters from the grid's
//! box-sorted arrays (stencil resolved once per box, one compacting pass
//! over the stencil runs); every other environment takes the generic
//! neighbor query. With static detection on, the grid route also serves a
//! mover's wake from its one scan. The hand-placed wake scenes here are
//! compared, wake flags included, with the same scene on the brute-force
//! environment, whose generic route wakes a mover with two plain queries
//! (every agent in them feels at most two non-zero forces, so the
//! summation order cannot change a bit); the route-for-route comparison on
//! one grid — the staged shell against the grid's own scan — is the unit
//! test in `crates/core/src/context.rs`. These tests
//! also pin when the grid's conditional diameter scatter materializes:
//! exactly when mechanics is enabled, whatever operations are registered.

use biodynamo::core::testing::{fingerprint, first_divergence};
use biodynamo::models::{all_models, BenchmarkModel};
use biodynamo::prelude::*;

mod common;

fn param() -> Param {
    Param {
        threads: Some(2),
        numa_domains: Some(2),
        seed: 4357,
        ..Param::default()
    }
}

#[test]
fn box_batched_path_serves_every_clustering_force_query() {
    // The wake scenes would pass vacuously if the batched path silently
    // declined; this pins that a mechanics model routes every force query
    // through it for a whole run. cell_clustering disperses from 3.4 to
    // ~80 radius-sized boxes per agent over these 60 iterations, so the
    // grid coarsens its lattice on the way — and keeps serving.
    let model = biodynamo::models::CellClustering::new(2000);
    let mut sim = model.build(param());
    let mut coarsened = false;
    for _ in 0..60 {
        sim.step();
        let grid = sim.environment().as_uniform_grid().unwrap();
        // No `Param::interaction_radius`: the build radius is the largest
        // diameter of the iteration's snapshot.
        coarsened |= grid.box_length() > sim.snapshot().max_diameter;
    }
    let stats = sim.stats();
    assert!(stats.force_calculations > 0);
    assert_eq!(
        stats.batched_force_queries, stats.force_calculations,
        "every clustering force query should take the batched path"
    );
    assert!(
        coarsened,
        "the run should have crossed the coarsening boundary"
    );
}

#[test]
fn force_scans_reuse_the_shell_a_behavior_staged() {
    let stats = |name: &str| {
        let mut sim = biodynamo::models::model_by_name(name, 2000)
            .expect("known model")
            .build(param());
        sim.simulate(10);
        sim.stats()
    };
    // TumorGrowth's crowding count stages the shell at the agent's
    // position; only dividers and apoptotic agents reach the force scan
    // elsewhere (or without a query).
    let oncology = stats("oncology");
    assert!(oncology.force_calculations > 0);
    assert!(
        oncology.shell_reuses * 100 >= oncology.force_calculations * 95,
        "oncology: {} of {} force scans reused",
        oncology.shell_reuses,
        oncology.force_calculations
    );
    // No neighbor-querying behavior (cell_clustering) or no mechanics
    // pass (epidemiology): nothing stages for a force scan to reuse.
    for name in ["cell_clustering", "epidemiology"] {
        assert_eq!(stats(name).shell_reuses, 0, "{name}");
    }
    // TypeAdhesion moves every agent with a same-type neighbor after its
    // query, and a moved agent's force scan restages.
    let sorting = stats("cell_sorting");
    assert!(
        0 < sorting.shell_reuses && sorting.shell_reuses < sorting.force_calculations,
        "cell_sorting: {} of {} force scans reused",
        sorting.shell_reuses,
        sorting.force_calculations
    );
    eprintln!(
        "force scans reusing a staged shell: oncology {:.3}, cell_sorting {:.3}",
        oncology.shell_reuses as f64 / oncology.force_calculations as f64,
        sorting.shell_reuses as f64 / sorting.force_calculations as f64
    );
}

/// Runs a scene with static detection on as `param` says and as
/// `reference` says, and asserts bitwise-equal fingerprints, wake flags
/// included. Returns the `param` run.
fn assert_wake_parity(
    build: &dyn Fn(Param) -> Simulation,
    param: Param,
    reference: Param,
    iterations: usize,
    what: &str,
) -> Simulation {
    let run = |param: Param| {
        let mut sim = build(Param {
            detect_static_agents: true,
            ..param
        });
        sim.simulate(iterations);
        sim
    };
    let (sim, reference) = (run(param), run(reference));
    if let Some(d) = first_divergence(&fingerprint(&sim), &fingerprint(&reference)) {
        panic!("{what}: wake diverges from the reference — {d}");
    }
    sim
}

/// `param` on the brute-force environment: no grid, so every force and
/// every wake takes the generic query.
fn on_brute(param: &Param) -> Param {
    Param {
        environment: EnvironmentKind::Brute,
        ..param.clone()
    }
}

#[test]
fn grid_route_serves_every_scene_under_static_detection() {
    // Every force query on the grid takes the shell scan, and the scan
    // serves wakes. Most models stand detection down after a few
    // iterations; the settle/shake scene keeps waking after it re-engages.
    let mut scenes = all_models(2000);
    scenes.push(Box::new(common::SparseScene { num_agents: 2000 }));
    scenes.push(Box::new(common::SettleScene));
    for model in &scenes {
        for shards in [1usize, 2] {
            let mut sim = model.build(Param {
                shards,
                detect_static_agents: true,
                ..param()
            });
            sim.simulate(30);
            let what = format!("{} K={shards}", model.name());
            let stats = sim.stats();
            assert!(stats.static_engaged_iterations > 0, "{what}: never engaged");
            assert_eq!(
                stats.batched_force_queries, stats.force_calculations,
                "{what}: a force query left the grid route"
            );
            if stats.force_calculations > 0 {
                assert!(stats.shell_wakes > 0, "{what}: no wake took the shell");
            }
            match model.name() {
                "neuroscience" => assert!(stats.static_skipped > 0, "{what}: nothing skipped"),
                "settle_shake_settle" => assert!(
                    stats.static_stand_downs > 0 && sim.static_detection_engaged(),
                    "{what}: {stats:?}"
                ),
                "sparse_two_clusters" if shards == 1 => {
                    assert!(common::lattice_is_coarsened(&sim), "{what}")
                }
                _ => {}
            }
        }
    }
}

/// Interaction radius and displacement cap of the hand-placed wake scenes.
const R: f64 = 10.0;
const MAX_STEP: f64 = 2.0;

/// Cells at the given positions with the given diameters.
struct Scene {
    cells: Vec<(Real3, f64)>,
    time_step: f64,
}

impl Scene {
    fn build(&self, mut param: Param) -> Simulation {
        param.interaction_radius = Some(R);
        param.simulation_max_displacement = MAX_STEP;
        param.simulation_time_step = self.time_step;
        let mut sim = Simulation::new(param);
        for &(position, diameter) in &self.cells {
            let uid = sim.new_uid();
            sim.add_agent(
                Cell::new(uid)
                    .with_position(position)
                    .with_diameter(diameter),
            );
        }
        sim
    }
}

fn at_x(x: f64) -> Real3 {
    Real3::new(x, 0.0, 0.0)
}

fn one_thread() -> Param {
    Param {
        threads: Some(1),
        numa_domains: Some(1),
        ..param()
    }
}

/// Where a cell at `x` lands after one iteration of being pushed away from
/// an overlapping cell 5 to its left: a capped step of `MAX_STEP` up to
/// rounding.
fn pushed_to(x: f64, time_step: f64) -> Real3 {
    let probe = Scene {
        cells: vec![(at_x(x - 5.0), 10.0), (at_x(x), 10.0)],
        time_step,
    };
    let mut sim = probe.build(one_thread());
    sim.simulate(1);
    let mut landed = Real3::ZERO;
    sim.for_each_agent(|_, a| {
        if a.position().x() > x - 5.0 {
            landed = a.position();
        }
    });
    assert!((landed.x() - (x + MAX_STEP)).abs() < 1e-9, "{landed:?}");
    landed
}

/// The sleeper position exactly `R` (up to rounding, never beyond) from a
/// mover's landing point.
fn sleeper_at_radius(landed: Real3) -> Real3 {
    let mut x = landed.x() + R;
    while at_x(x).distance_sq(&landed) > R * R {
        x = f64::from_bits(x.to_bits() - 1);
    }
    at_x(x)
}

/// Pusher B, mover A 5 to its right (pushed by a capped step of
/// `MAX_STEP` with a unit time step) and sleeper C `R` from A's landing
/// point, on the line at height `y`. B goes to the first x of 0, 0.37, …
/// where rounding leaves C *beyond* `R + MAX_STEP` of A's old position:
/// only the shell's margin keeps C among the force scan's candidates.
fn margin_cells(y: f64) -> [(Real3, f64); 3] {
    for k in 0..64 {
        let b = k as f64 * 0.37;
        let a = at_x(b + 5.0);
        let c = sleeper_at_radius(pushed_to(a.x(), 1.0));
        if c.distance_sq(&a) > (R + MAX_STEP) * (R + MAX_STEP) {
            // Moving along x leaves y untouched, so every distance is the
            // same bits at any height.
            let lift = |p: Real3| Real3::new(p.x(), y, 0.0);
            return [(lift(at_x(b)), 10.0), (lift(a), 10.0), (lift(c), 1.0)];
        }
    }
    panic!("no placement rounds C beyond R + MAX_STEP");
}

/// Whether the agent nearest to `p` holds a pending wake.
fn woken_near(sim: &Simulation, p: Real3) -> bool {
    let fp = fingerprint(sim);
    let distance = |bits: [u64; 3]| {
        let q = Real3::new(
            f64::from_bits(bits[0]),
            f64::from_bits(bits[1]),
            f64::from_bits(bits[2]),
        );
        q.distance_sq(&p)
    };
    let nearest = fp
        .agents
        .values()
        .min_by(|a, b| distance(a.position).total_cmp(&distance(b.position)))
        .expect("non-empty scene");
    nearest.violation
}

#[test]
fn shell_margin_wakes_a_sleeper_at_the_radius_of_the_new_position() {
    // Mover A is pushed by B by MAX_STEP (capped) toward sleeper C. The
    // lattice starts at B, so A's old and new positions share box 0; C sits
    // in box 1.
    let cells = margin_cells(0.0);
    let scene = Scene {
        cells: cells.to_vec(),
        time_step: 1.0,
    };
    let sim = assert_wake_parity(
        &|p| scene.build(p),
        one_thread(),
        on_brute(&one_thread()),
        1,
        "shell margin",
    );
    // B (pushed below the lattice, clamped into box 0) and A both stayed
    // in their box: both wakes came from the shell.
    assert_eq!(sim.stats().shell_wakes, 2);
    assert!(
        woken_near(&sim, cells[2].0),
        "C must be woken by A's arrival"
    );
}

#[test]
fn box_crossing_mover_takes_the_second_query() {
    // Anchor D at 0 puts the box faces at multiples of R. B at 14 pushes A
    // at 19 across the face at 20; C at ~31 lies in box 3, outside A's old
    // stencil, so only a query around the new position can find it. B
    // (pushed to ~12) stays in box 1.
    let landed = pushed_to(19.0, 10.0);
    assert!(landed.x() > 2.0 * R);
    let c = sleeper_at_radius(landed);
    let scene = Scene {
        cells: vec![
            (at_x(0.0), 1.0),
            (at_x(14.0), 10.0),
            (at_x(19.0), 10.0),
            (c, 1.0),
        ],
        time_step: 10.0,
    };
    let sim = assert_wake_parity(
        &|p| scene.build(p),
        one_thread(),
        on_brute(&one_thread()),
        1,
        "box crosser",
    );
    assert_eq!(sim.stats().shell_wakes, 1, "only B's wake is shell-served");
    assert!(woken_near(&sim, c), "C must be woken by A's arrival");
}

#[test]
fn non_finite_displacement_wakes_identically() {
    // f64::MAX overflows the displacement to ∞ (the cap turns it into NaN
    // and the mover lands on a NaN position); ∞ makes its norm NaN (the
    // mover is counted, not moved).
    for time_step in [f64::MAX, f64::INFINITY] {
        let scene = Scene {
            cells: vec![(at_x(0.0), 10.0), (at_x(5.0), 10.0), (at_x(14.0), 1.0)],
            time_step,
        };
        let what = format!("dt = {time_step}");
        let sim = assert_wake_parity(
            &|p| scene.build(p),
            one_thread(),
            on_brute(&one_thread()),
            1,
            &what,
        );
        assert!(sim.stats().violations_detected > 0, "{what}");
    }
}

#[test]
fn shard_grid_views_serve_the_shell_wake() {
    // The shell-margin scene twice, 3.5 R apart in y: a K = 2 split gives
    // each shard one copy, queried through its windowed grid and remap.
    let (low, high) = (margin_cells(0.0), margin_cells(3.5 * R));
    let scene = Scene {
        cells: low.iter().chain(&high).copied().collect(),
        time_step: 1.0,
    };
    let param = Param {
        shards: 2,
        ..one_thread()
    };
    let sim = assert_wake_parity(
        &|p| scene.build(p),
        param,
        one_thread(),
        1,
        "K = 2 vs K = 1",
    );
    let report = sim.shard_report().expect("sharded run");
    assert!(report.per_shard.iter().all(|s| s.owned == 3), "{report:?}");
    assert_eq!(sim.stats().shell_wakes, 4);
    assert!(woken_near(&sim, low[2].0) && woken_near(&sim, high[2].0));
}

fn grid_scatter_active(sim: &Simulation) -> bool {
    let grid = sim
        .environment()
        .as_uniform_grid()
        .expect("uniform-grid environment");
    grid.scattered_diameters().is_some()
}

#[test]
fn diameter_scatter_follows_the_declared_kernel_access() {
    // Mechanics on → the force kernel streams diameters → scattered.
    let model = biodynamo::models::CellClustering::new(150);
    let mut sim = model.build(param());
    sim.simulate(1);
    assert!(grid_scatter_active(&sim));

    // Epidemiology runs without mechanics — nobody streams the scatter.
    let model = biodynamo::models::Epidemiology::new(150);
    let mut sim = model.build(param());
    sim.simulate(1);
    assert!(!grid_scatter_active(&sim));
}

/// A pipeline stage that does not touch the simulation.
struct IdleOp;

impl Operation for IdleOp {
    fn name(&self) -> &str {
        "idle"
    }
    fn kind(&self) -> OpKind {
        OpKind::Standalone
    }
    fn run(&mut self, _sim: &mut Simulation) {}
}

fn dense_lattice_sim(enable_mechanics: bool) -> Simulation {
    let mut sim = Simulation::new(Param {
        enable_mechanics,
        ..param()
    });
    for x in 0..6 {
        for y in 0..6 {
            for z in 0..6 {
                let uid = sim.new_uid();
                sim.add_agent(
                    Cell::new(uid)
                        .with_position(Real3::new(x as f64 * 5.0, y as f64 * 5.0, z as f64 * 5.0))
                        .with_diameter(5.0),
                );
            }
        }
    }
    sim
}

#[test]
fn diameter_scatter_follows_mechanics() {
    // Without mechanics a registered custom operation does not scatter…
    let mut sim = dense_lattice_sim(false);
    sim.scheduler_mut().add_op(IdleOp);
    sim.simulate(1);
    assert!(!grid_scatter_active(&sim));

    // …and the same lattice with mechanics on does.
    let mut sim = dense_lattice_sim(true);
    sim.scheduler_mut().add_op(IdleOp);
    sim.simulate(1);
    assert!(grid_scatter_active(&sim));
}
