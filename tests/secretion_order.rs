//! Integration: queued secretions reach their voxels in agent order, so the
//! diffusion grids are a pure function of the simulation state — not of
//! which worker ran or stole which block of agents.
//!
//! Every agent secretes an amount that depends on its uid into two grids,
//! several agents share each voxel, and floating-point addition does not
//! commute in rounding: any change of order within a voxel changes bits.
//! The agent storage order depends on the domain count (round-robin
//! placement), so the domain count is part of the state and the comparison
//! runs within one domain count, over threads {1, 2, 4} and K {1, 2}.

use biodynamo::core::testing::fingerprint;
use biodynamo::prelude::*;

/// Secretes `1 / (uid + 3)` into grid 0 and `uid / 7 + 0.1` into grid 1.
#[derive(Clone)]
struct UidSecretion;

impl Behavior for UidSecretion {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let uid = agent.uid().0 as f64;
        let pos = agent.position();
        ctx.secrete(0, pos, 1.0 / (uid + 3.0));
        ctx.secrete(1, pos, uid / 7.0 + 0.1);
        BehaviorControl::Keep
    }
    fn neighbor_access(&self) -> NeighborAccess {
        NeighborAccess::NONE
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "UidSecretion"
    }
}

/// 5000 overlapping cells in a cube of edge 120 over two 8³ grids (≈ 10
/// secretions per voxel and grid, 10⁴ per iteration — above the parallel
/// apply's threshold), blocks of 64 agents, sorted every third iteration.
fn run(threads: usize, domains: usize, shards: usize) -> Vec<Vec<u64>> {
    let param = Param {
        threads: Some(threads),
        numa_domains: Some(domains),
        shards,
        seed: 27,
        iteration_block_size: 64,
        agent_sort_frequency: Some(3),
        enable_mechanics: true,
        ..Param::default()
    };
    let mut sim = Simulation::new(param);
    for name in ["a", "b"] {
        sim.add_diffusion_grid(DiffusionGrid::new(name, 0.4, 0.01, 8, Real3::ZERO, 120.0));
    }
    let mut rng = SimRng::new(27);
    for _ in 0..5000 {
        let uid = sim.new_uid();
        let mut cell = Cell::new(uid)
            .with_position(rng.point_in_cube(0.0, 120.0))
            .with_diameter(8.0);
        cell.base_mut()
            .add_behavior(new_behavior_box(UidSecretion, sim.memory_manager(), 0));
        sim.add_agent(cell);
    }
    sim.simulate(6);
    fingerprint(&sim)
        .grids
        .into_iter()
        .map(|g| g.concentrations)
        .collect()
}

#[test]
fn secretion_order_is_independent_of_threads_and_shards() {
    for domains in [1, 2] {
        // Every domain needs a worker of its own.
        let threads = [1, 2, 4].into_iter().filter(|&t| t >= domains);
        let mut configs = threads.flat_map(|t| [(t, 1), (t, 2)]);
        let (t0, k0) = configs.next().expect("a topology per domain count");
        let reference = run(t0, domains, k0);
        for (threads, shards) in configs {
            assert!(
                run(threads, domains, shards) == reference,
                "grids differ at {threads} threads, {domains} domains, K = {shards} \
                 (reference: {t0} threads, K = {k0})"
            );
        }
    }
}
