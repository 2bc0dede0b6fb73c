//! SIR epidemic in a randomly moving population (the epidemiology
//! benchmark). Prints the S/I/R time series — the classic epidemic wave.
//!
//! The census is a custom [`Operation`] scheduled every 5th iteration, so
//! the whole run is a single `simulate` call with the reporting inside the
//! engine pipeline.
//!
//! Run with: `cargo run --release --example epidemiology -- [persons] [iterations]`

use biodynamo::models::{BenchmarkModel, Epidemiology};
use biodynamo::prelude::*;

/// Counts S/I/R compartments and prints one CSV row per sample.
struct SirCensus;

impl Operation for SirCensus {
    fn name(&self) -> &str {
        "sir_census"
    }
    fn kind(&self) -> OpKind {
        OpKind::Post
    }
    fn frequency(&self) -> u64 {
        5
    }
    fn run(&mut self, sim: &mut Simulation) {
        let s = sim.count_agents(|a| a.payload() == 0);
        let i = sim.count_agents(|a| a.payload() == 1);
        let r = sim.count_agents(|a| a.payload() == 2);
        println!("{},{},{},{}", sim.iteration(), s, i, r);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let persons: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let iterations: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(120);

    let model = Epidemiology::new(persons);
    let mut sim = model.build(Param::default());
    sim.scheduler_mut().add_op(SirCensus);

    println!("iteration,susceptible,infected,recovered");
    sim.simulate(iterations);

    let attack_rate = sim.count_agents(|a| a.payload() != 0) as f64 / sim.num_agents() as f64;
    eprintln!("\nfinal attack rate: {:.1}%", attack_rate * 100.0);
}
