//! Soma clustering: two intermixed cell populations secrete distinct
//! substances and climb their own substance's gradient until same-type
//! clusters emerge — the diffusion-heavy use case of the paper's
//! evaluation (cell clustering, Table 1 column 2).
//!
//! Demonstrates building a simulation directly against the public API — a
//! `Param` literal plus `add_diffusion_grid` — with secretion, chemotaxis,
//! and the clustering quality metric.
//! Run with: `cargo run --release --example soma_clustering`

use biodynamo::models::{same_type_neighbor_fraction, Chemotaxis, Secretion};
use biodynamo::prelude::*;

fn main() {
    let n = 3_000;
    let extent = (n as f64).cbrt() * 15.0;
    // One substance per population; both diffuse and slowly decay.
    let resolution = 32;
    let grid = |name| DiffusionGrid::new(name, 0.4, 0.002, resolution, Real3::ZERO, extent);
    let mut sim = Simulation::new(Param {
        simulation_time_step: 1.0,
        interaction_radius: Some(15.0),
        ..Param::default()
    });
    sim.add_diffusion_grid(grid("substance_0"));
    sim.add_diffusion_grid(grid("substance_1"));

    // Two intermixed populations, each secreting its own substance and
    // climbing its own gradient.
    let mut rng = SimRng::new(7);
    for i in 0..n {
        let ty = (i % 2) as u64;
        let uid = sim.new_uid();
        let mut cell = Cell::new(uid)
            .with_position(rng.point_in_cube(0.0, extent))
            .with_diameter(10.0)
            .with_cell_type(ty);
        let mm = sim.memory_manager();
        cell.base_mut().add_behavior(new_behavior_box(
            Secretion {
                grid: ty as usize,
                amount: 1.0,
            },
            mm,
            0,
        ));
        cell.base_mut().add_behavior(new_behavior_box(
            Chemotaxis {
                grid: ty as usize,
                speed: 4.0,
            },
            mm,
            0,
        ));
        sim.add_agent(cell);
    }

    println!(
        "{} cells of two types, {}³ diffusion volumes each substance",
        n, resolution
    );
    println!("same-type neighbor fraction (0.5 = random mix, 1.0 = fully sorted):\n");
    let quality = |sim: &Simulation| same_type_neighbor_fraction(sim, 15.0, 300);
    println!("  iteration   0: {:.3}", quality(&sim));
    for round in 1..=4 {
        sim.simulate(25);
        println!("  iteration {:3}: {:.3}", round * 25, quality(&sim));
    }

    let total0 = sim.diffusion_grid(0).total();
    let total1 = sim.diffusion_grid(1).total();
    println!("\nsecreted substance totals: {total0:.0} / {total1:.0}");
    assert!(
        quality(&sim) > 0.55,
        "clusters should have formed (got {:.3})",
        quality(&sim)
    );
    println!("clusters formed ✓");
}
