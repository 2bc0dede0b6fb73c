//! Neural development: somas extend branching neurites toward a guidance
//! cue. Demonstrates the neuroscience specialization and the static-region
//! detection of paper Section 5 (only the growth front computes forces).
//!
//! Run with: `cargo run --release --example neurite_growth -- [neurons] [iterations]`

use biodynamo::models::{BenchmarkModel, Neuroscience};
use biodynamo::neuro::{NeuriteElement, PAYLOAD_NEURITE, PAYLOAD_SOMA};
use biodynamo::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let neurons: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let iterations: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(80);

    let mut model = Neuroscience::new(neurons * 3);
    model.cone.branch_probability = 0.05;
    // Models consume a plain `Param`, the one way to configure a
    // simulation.
    let mut sim = model.build(Param {
        detect_static_agents: true, // the paper's Section 5 mechanism
        ..Param::default()
    });

    for _ in 0..iterations / 10 {
        sim.simulate(10);
        let stats = sim.stats();
        let neurites = sim.count_agents(|a| a.payload() == PAYLOAD_NEURITE);
        println!(
            "iter {:4}: {:5} neurite elements | force calcs {:8} | static skips {:8}",
            sim.iteration(),
            neurites,
            stats.force_calculations,
            stats.static_skipped
        );
    }

    // Arbor statistics.
    let mut terminals = 0usize;
    let mut total_length = 0.0;
    let mut max_order = 0u32;
    sim.for_each_agent(|_, a| {
        if let Some(e) = a.as_any().downcast_ref::<NeuriteElement>() {
            if e.is_terminal() {
                terminals += 1;
            }
            total_length += e.length();
            max_order = max_order.max(e.branch_order());
        }
    });
    let somas = sim.count_agents(|a| a.payload() == PAYLOAD_SOMA);
    println!(
        "\n{} neurons grew {:.0} µm of neurite ({} growth cones, max branch order {})",
        somas, total_length, terminals, max_order
    );
    let stats = sim.stats();
    let saved = stats.static_skipped as f64
        / (stats.static_skipped + stats.force_calculations).max(1) as f64;
    println!(
        "static-region detection skipped {:.1}% of force calculations",
        saved * 100.0
    );
}
