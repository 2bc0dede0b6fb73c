//! Shared scene for the conformance suites: a population sparse enough that
//! the uniform grid coarsens its lattice.

use biodynamo::models::{BenchmarkModel, Characteristics, GrowthDivision};
use biodynamo::prelude::*;

/// Two clusters of growing, dividing, overlapping cells 10⁴ interaction
/// radii apart: ~10¹² radius-sized boxes for `num_agents` agents, so the grid
/// runs on a coarsened lattice from the first iteration — and the sharded
/// engine must ship that one global box edge to every shard window.
pub struct SparseScene {
    pub num_agents: usize,
}

impl BenchmarkModel for SparseScene {
    fn name(&self) -> &'static str {
        "sparse_two_clusters"
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics {
            creates_agents: true,
            deletes_agents: false,
            modifies_neighbors: false,
            load_imbalance: true,
            random_movement: false,
            uses_diffusion: false,
            has_static_regions: false,
            paper_iterations: 0,
            paper_agents: 0,
            paper_diffusion_volumes: 0,
        }
    }

    fn build(&self, mut param: Param) -> Simulation {
        param.simulation_time_step = 1.0;
        param.enable_mechanics = true;
        param.interaction_radius = Some(15.0);
        let mut sim = Simulation::new(param);
        let mut rng = SimRng::new(sim.param().seed ^ 0x5ba5);
        for i in 0..self.num_agents {
            let cluster = Real3::splat((i % 2) as f64 * 15.0 * 1e4);
            let uid = sim.new_uid();
            let mut cell = Cell::new(uid)
                .with_position(cluster + rng.point_in_cube(0.0, 40.0))
                .with_diameter(9.0 + rng.uniform_in(0.0, 2.0))
                .with_growth_rate(60.0)
                .with_division_threshold(12.0);
            cell.base_mut()
                .add_behavior(new_behavior_box(GrowthDivision, sim.memory_manager(), 0));
            sim.add_agent(cell);
        }
        sim
    }

    fn validate(&self, sim: &Simulation) -> Vec<(String, f64)> {
        vec![("final_agents".into(), sim.num_agents() as f64)]
    }
}

/// Whether the simulation's uniform grid currently sits on a coarsened
/// lattice (box edge above the build radius).
pub fn lattice_is_coarsened(sim: &Simulation) -> bool {
    let grid = sim.environment().as_uniform_grid().expect("uniform grid");
    grid.box_length()
        > sim
            .param()
            .interaction_radius
            .expect("scene pins the radius")
}
