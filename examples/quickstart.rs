//! Quickstart: a small population of growing, dividing cells, configured
//! with a `Param` literal.
//!
//! Run with: `cargo run --release --example quickstart`

use biodynamo::models::GrowthDivision;
use biodynamo::prelude::*;

fn main() {
    // Full optimizations are the default; the standard (unoptimized)
    // configuration of the paper's evaluation is
    // `Param::default().apply_opt_level(OptLevel::Standard)`.
    let mut sim = Simulation::new(Param {
        simulation_time_step: 1.0,
        ..Param::default()
    });

    // A 4×4×4 grid of cells with the growth+division behavior.
    let mut rng = SimRng::new(42);
    for x in 0..4 {
        for y in 0..4 {
            for z in 0..4 {
                let uid = sim.new_uid();
                let mut cell = Cell::new(uid)
                    .with_position(Real3::new(
                        x as f64 * 20.0,
                        y as f64 * 20.0,
                        z as f64 * 20.0,
                    ))
                    .with_diameter(9.0 + rng.uniform_in(0.0, 2.0))
                    .with_growth_rate(50.0)
                    .with_division_threshold(14.0);
                cell.base_mut().add_behavior(new_behavior_box(
                    GrowthDivision,
                    sim.memory_manager(),
                    0,
                ));
                sim.add_agent(cell);
            }
        }
    }

    println!("initial agents: {}", sim.num_agents());
    for round in 1..=5 {
        sim.simulate(10);
        println!(
            "after {:3} iterations: {:6} agents (added {} / removed {})",
            round * 10,
            sim.num_agents(),
            sim.stats().agents_added,
            sim.stats().agents_removed,
        );
    }

    // The engine pipeline is a first-class op list: per-operation wall-clock
    // timings come straight from the scheduler (paper Figure 5).
    println!("\nscheduler pipeline (execution order):");
    let total = sim.time_buckets().total().as_secs_f64();
    for op in sim.scheduler().ops() {
        println!(
            "  {:20} kind={:10} freq={:3} runs={:3}  {:8.2} ms ({:4.1}%)",
            op.name,
            op.kind.label(),
            op.frequency,
            op.runs,
            op.total.as_secs_f64() * 1e3,
            if total > 0.0 {
                100.0 * op.total.as_secs_f64() / total
            } else {
                0.0
            },
        );
    }
}
