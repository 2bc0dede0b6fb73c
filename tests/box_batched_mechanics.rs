//! Integration: box-batched mechanics (ISSUE 6 tentpole).
//!
//! The mechanics force accumulation may stream neighbor positions and
//! diameters from the grid's box-sorted arrays (stencil resolved once per
//! box, one streamed pass per stencil run) — but only as a *routing*
//! change: results must be bitwise identical to the per-agent scalar path
//! on every model. These tests also pin when the grid's conditional
//! diameter scatter materializes: exactly when `NeighborAccess::DIAMETERS`
//! is in the scheduler's due-window union.

use std::collections::BTreeMap;

use biodynamo::models::{all_models, BenchmarkModel};
use biodynamo::prelude::*;

fn param() -> Param {
    Param {
        threads: Some(2),
        numa_domains: Some(2),
        seed: 4357,
        ..Param::default()
    }
}

/// Full agent state keyed by stable uid (as in tests/determinism.rs).
fn state(sim: &Simulation) -> BTreeMap<u64, (Real3, f64, u64)> {
    let mut map = BTreeMap::new();
    sim.for_each_agent(|_, a| {
        map.insert(a.uid().0, (a.position(), a.diameter(), a.payload()));
    });
    map
}

fn assert_bitwise_eq(
    a: &BTreeMap<u64, (Real3, f64, u64)>,
    b: &BTreeMap<u64, (Real3, f64, u64)>,
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: population diverged");
    for (uid, (pa, da, ya)) in a {
        let (pb, db, yb) = &b[uid];
        for axis in 0..3 {
            assert_eq!(
                pa[axis].to_bits(),
                pb[axis].to_bits(),
                "{what}: uid {uid} axis {axis}"
            );
        }
        assert_eq!(da.to_bits(), db.to_bits(), "{what}: uid {uid} diameter");
        assert_eq!(ya, yb, "{what}: uid {uid} payload");
    }
}

#[test]
fn box_batched_is_bitwise_identical_on_all_models() {
    for model in all_models(150) {
        let run = |batched: bool| {
            let mut sim = model.build(Param {
                box_batched_mechanics: batched,
                ..param()
            });
            sim.simulate(8);
            // Guards against vacuous parity: with the flag off, nothing may
            // route through the batched path. (With it on, whether it
            // engages depends on the model's density and mechanics; the
            // dedicated test below pins engagement on cell_clustering.)
            if !batched {
                assert_eq!(sim.stats().batched_force_queries, 0, "{}", model.name());
            }
            state(&sim)
        };
        assert_bitwise_eq(&run(true), &run(false), model.name());
    }
}

#[test]
fn box_batched_path_serves_every_clustering_force_query() {
    // The parity tests would pass vacuously if the batched path silently
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
fn box_batched_is_bitwise_identical_under_static_detection() {
    // Static detection consumes the batched path's neighbor_scratch (the
    // violation push set) and runs the mover-wake second query — both must
    // stay bitwise neutral, on one thread and on two.
    for threads in [1usize, 2] {
        let run = |batched: bool| {
            let model = biodynamo::models::CellClustering::new(150);
            let mut sim = model.build(Param {
                threads: Some(threads),
                numa_domains: Some(threads),
                seed: 4357,
                detect_static_agents: true,
                box_batched_mechanics: batched,
                ..Param::default()
            });
            sim.simulate(8);
            state(&sim)
        };
        assert_bitwise_eq(
            &run(true),
            &run(false),
            &format!("static detection, {threads} threads"),
        );
    }
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
    // Mechanics on → the interaction force declares DIAMETERS → scattered.
    let model = biodynamo::models::CellClustering::new(150);
    let mut sim = model.build(param());
    sim.simulate(1);
    assert!(grid_scatter_active(&sim));

    // Epidemiology runs without mechanics and its kernels declare
    // POSITIONS|PAYLOADS — no diameter reads, so no scatter.
    let model = biodynamo::models::Epidemiology::new(150);
    let mut sim = model.build(param());
    sim.simulate(1);
    assert!(!grid_scatter_active(&sim));
}

/// A pipeline stage that declares it reads neighbor diameters (keeping the
/// scatter alive) without touching the simulation.
struct DiameterProbe;

impl Operation for DiameterProbe {
    fn name(&self) -> &str {
        "diameter_probe"
    }
    fn kind(&self) -> OpKind {
        OpKind::Standalone
    }
    fn neighbor_access(&self) -> NeighborAccess {
        NeighborAccess::POSITIONS.union(NeighborAccess::DIAMETERS)
    }
    fn run(&mut self, _ctx: &mut SimulationCtx<'_>) {}
}

fn dense_lattice_sim(neighbor_access: NeighborAccess) -> Simulation {
    let mut sim = Simulation::new(Param {
        enable_mechanics: false,
        neighbor_access,
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
fn custom_operation_keeps_the_scatter_alive() {
    // Without mechanics and with position-only kernels the scatter is off…
    let mut sim = dense_lattice_sim(NeighborAccess::POSITIONS);
    sim.simulate(1);
    assert!(!grid_scatter_active(&sim));

    // …and a custom operation's DIAMETERS declaration switches it on.
    let mut sim = dense_lattice_sim(NeighborAccess::POSITIONS);
    sim.scheduler_mut().add_op(DiameterProbe);
    sim.simulate(1);
    assert!(grid_scatter_active(&sim));
}

#[test]
fn scalar_fallback_serves_unscattered_diameters() {
    // A model that never scatters diameters (epidemiology) must still be
    // able to read them lazily through the generic query: run it with the
    // batched flag on (the path declines and falls back) and off — same
    // bits either way.
    let run = |batched: bool| {
        let model = biodynamo::models::Epidemiology::new(150);
        let mut sim = model.build(Param {
            box_batched_mechanics: batched,
            ..param()
        });
        sim.simulate(8);
        state(&sim)
    };
    assert_bitwise_eq(&run(true), &run(false), "epidemiology lazy fallback");
}
