//! The Biocellion cell-sorting model (paper Section 6.5, Figure 7a): two
//! adhesive cell types sort from a random mixture into same-type clusters.
//! Optionally dumps the final state as CSV for visualization.
//!
//! The progress metric is sampled by a custom [`Operation`] registered on
//! the engine scheduler (every 20th iteration) instead of an external
//! measure-and-step loop — the simulation runs in one `simulate` call.
//!
//! Run with: `cargo run --release --example cell_sorting -- [cells] [iterations] [out.csv]`

use biodynamo::models::cell_sorting::dump_positions_csv;
use biodynamo::models::{same_type_neighbor_fraction, BenchmarkModel, CellSorting};
use biodynamo::prelude::*;

/// Prints the same-type neighbor fraction on a fixed schedule.
struct SortingProgress {
    radius: f64,
}

impl Operation for SortingProgress {
    fn name(&self) -> &str {
        "sorting_progress"
    }
    fn kind(&self) -> OpKind {
        OpKind::Post
    }
    fn frequency(&self) -> u64 {
        20
    }
    fn run(&mut self, sim: &mut Simulation) {
        let f = same_type_neighbor_fraction(sim, self.radius, 300);
        println!("iter {:4}: same-type fraction {:.3}", sim.iteration(), f);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cells: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let iterations: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let out = args.next();

    let model = CellSorting::new(cells);
    let mut sim = model.build(Param::default());
    sim.scheduler_mut().add_op(SortingProgress {
        radius: model.adhesion_radius,
    });

    let initial = same_type_neighbor_fraction(&sim, model.adhesion_radius, 300);
    println!("initial same-type neighbor fraction: {initial:.3} (random mixture ≈ 0.5)");
    sim.simulate(iterations);

    if let Some(path) = out {
        std::fs::write(&path, dump_positions_csv(&sim)).expect("write CSV");
        println!("final state written to {path} (x,y,z,type)");
    }
}
