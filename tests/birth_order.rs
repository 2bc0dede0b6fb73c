//! Integration: agents born in an iteration are committed in agent order to
//! their parent's domain, so a newborn's slot — and with it the within-box
//! order of every later neighbour scan and force sum — is a pure function of
//! the simulation state, not of which worker ran or stole the parent's
//! block.
//!
//! Every cell grows and divides; floating-point force sums do not commute in
//! rounding, so a newborn in another slot changes bits within a few
//! iterations. As in `secretion_order`, the domain count is part of the
//! state, so the comparison runs within one domain count, over threads
//! {1, 2, 4} and K {1, 2}.

use biodynamo::core::testing::{assert_identical, fingerprint, SimFingerprint};
use biodynamo::models::GrowthDivision;
use biodynamo::prelude::*;

/// 3000 packed cells that reach the division threshold within a few
/// iterations (≈ 2700 births over 8 iterations), blocks of 64 agents,
/// sorted every third iteration.
fn run(threads: usize, domains: usize, shards: usize) -> SimFingerprint {
    let param = Param {
        threads: Some(threads),
        numa_domains: Some(domains),
        shards,
        seed: 31,
        iteration_block_size: 64,
        agent_sort_frequency: Some(3),
        simulation_time_step: 1.0,
        ..Param::default()
    };
    let mut sim = Simulation::new(param);
    let mut rng = SimRng::new(31);
    for _ in 0..3000 {
        let uid = sim.new_uid();
        let mut cell = Cell::new(uid)
            .with_position(rng.point_in_cube(0.0, 150.0))
            .with_diameter(8.0 + rng.uniform_in(0.0, 2.0))
            .with_growth_rate(120.0)
            .with_division_threshold(10.0);
        cell.base_mut()
            .add_behavior(new_behavior_box(GrowthDivision, sim.memory_manager(), 0));
        sim.add_agent(cell);
    }
    sim.simulate(8);
    assert!(sim.num_agents() > 4000, "{} agents", sim.num_agents());
    fingerprint(&sim)
}

#[test]
fn birth_order_is_independent_of_threads_and_shards() {
    for domains in [1, 2] {
        // Every domain needs a worker of its own.
        let threads = [1, 2, 4].into_iter().filter(|&t| t >= domains);
        let mut configs = threads.flat_map(|t| [(t, 1), (t, 2)]);
        let (t0, k0) = configs.next().expect("a topology per domain count");
        let reference = run(t0, domains, k0);
        for (threads, shards) in configs {
            let what = format!(
                "{threads} threads, {domains} domains, K = {shards} \
                 (reference: {t0} threads, K = {k0})"
            );
            assert_identical(&reference, &run(threads, domains, shards), &what);
        }
    }
}
