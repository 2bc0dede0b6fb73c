//! Tumor spheroid growth (the oncology benchmark): density-gated
//! proliferation with stochastic apoptosis — the only workload that removes
//! agents, exercising the parallel removal algorithm of paper Figure 1.
//!
//! Population progress is reported by a custom [`Operation`] scheduled
//! every 10th iteration on the engine pipeline.
//!
//! Run with: `cargo run --release --example tumor_spheroid -- [cells] [iterations]`

use biodynamo::models::{BenchmarkModel, Oncology};
use biodynamo::prelude::*;

/// Prints cell counts and cumulative add/remove statistics.
struct GrowthReport;

impl Operation for GrowthReport {
    fn name(&self) -> &str {
        "growth_report"
    }
    fn kind(&self) -> OpKind {
        OpKind::Post
    }
    fn frequency(&self) -> u64 {
        10
    }
    fn run(&mut self, sim: &mut Simulation) {
        let stats = sim.stats();
        println!(
            "iter {:4}: {:7} cells (+{} / -{})",
            sim.iteration(),
            sim.num_agents(),
            stats.agents_added,
            stats.agents_removed
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cells: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let iterations: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60);

    let model = Oncology::new(cells);
    let mut sim = model.build(Param::default());
    sim.scheduler_mut().add_op(GrowthReport);
    println!(
        "tumor spheroid: {} cells, {} iterations, engine={} threads / {} NUMA domains",
        sim.num_agents(),
        iterations,
        sim.topology().num_threads(),
        sim.topology().num_domains(),
    );

    sim.simulate(iterations);

    // Radial profile of the final spheroid.
    let mut center = Real3::ZERO;
    sim.for_each_agent(|_, a| center += a.position());
    center /= sim.num_agents() as f64;
    let mut radii: Vec<f64> = Vec::new();
    sim.for_each_agent(|_, a| radii.push(a.position().distance(&center)));
    radii.sort_by(|a, b| a.total_cmp(b));
    println!(
        "\nspheroid radius: median {:.1} µm, r90 {:.1} µm, max {:.1} µm",
        radii[radii.len() / 2],
        radii[radii.len() * 9 / 10],
        radii.last().unwrap()
    );
    for (k, v) in model.validate(&sim) {
        println!("  {k} = {v}");
    }
}
