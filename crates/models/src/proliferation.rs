//! Cell proliferation — cells on a 3-D grid that grow and divide
//! (paper Table 1, column 1: creates agents; 500 iterations; 12.6 M agents).

use bdm_core::{new_behavior_box, Agent, Cell, Param, Real3, Simulation};

use crate::behaviors::GrowthDivision;
use crate::characteristics::Characteristics;
use crate::BenchmarkModel;

/// The cell-proliferation benchmark.
#[derive(Debug, Clone)]
pub struct CellProliferation {
    /// Initial number of cells (rounded down to a cube number).
    pub num_agents: usize,
    /// Grid spacing between initial cells.
    pub spacing: f64,
    /// Whether to place cells randomly instead of on the grid (the paper's
    /// Section 6.11 variant: "Suppose we change the initialization of the
    /// cell proliferation simulation to random …").
    pub random_init: bool,
}

impl CellProliferation {
    /// Creates the model at the given initial agent count.
    pub fn new(num_agents: usize) -> CellProliferation {
        CellProliferation {
            num_agents,
            spacing: 20.0,
            random_init: false,
        }
    }

    /// Switches to random initialization (Figure 12 ablation).
    pub fn with_random_init(mut self) -> CellProliferation {
        self.random_init = true;
        self
    }
}

impl BenchmarkModel for CellProliferation {
    fn name(&self) -> &'static str {
        "cell_proliferation"
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics {
            creates_agents: true,
            deletes_agents: false,
            modifies_neighbors: false,
            load_imbalance: false,
            random_movement: false,
            uses_diffusion: false,
            has_static_regions: false,
            paper_iterations: 500,
            paper_agents: 12_600_000,
            paper_diffusion_volumes: 0,
        }
    }

    fn build(&self, mut param: Param) -> Simulation {
        param.simulation_time_step = 1.0;
        param.enable_mechanics = true;
        let mut sim = Simulation::new(param);
        let per_dim = (self.num_agents as f64).cbrt().floor().max(1.0) as usize;
        let mut rng = bdm_core::SimRng::new(sim.param().seed ^ 0xce11);
        let extent = per_dim as f64 * self.spacing;
        let mut placed = 0;
        'outer: for x in 0..per_dim {
            for y in 0..per_dim {
                for z in 0..per_dim {
                    if placed >= self.num_agents {
                        break 'outer;
                    }
                    let pos = if self.random_init {
                        rng.point_in_cube(0.0, extent)
                    } else {
                        Real3::new(
                            x as f64 * self.spacing,
                            y as f64 * self.spacing,
                            z as f64 * self.spacing,
                        )
                    };
                    let uid = sim.new_uid();
                    // Desynchronized initial sizes so divisions spread out.
                    let d0 = 9.0 + rng.uniform_in(0.0, 2.0);
                    let mut cell = Cell::new(uid)
                        .with_position(pos)
                        .with_diameter(d0)
                        .with_growth_rate(30.0)
                        .with_division_threshold(14.0);
                    cell.base_mut().add_behavior(new_behavior_box(
                        GrowthDivision,
                        sim.memory_manager(),
                        0,
                    ));
                    sim.add_agent(cell);
                    placed += 1;
                }
            }
        }
        sim
    }

    fn default_iterations(&self) -> usize {
        // Growth at 30 um^3/step reaches the division threshold (diameter
        // 14 from 10) after ~31 steps; the default horizon must include
        // divisions so the Table 1 "creates agents" characteristic is
        // observable.
        40
    }

    fn validate(&self, sim: &Simulation) -> Vec<(String, f64)> {
        let n = sim.num_agents() as f64;
        let mut finite = 0usize;
        sim.for_each_agent(|_, a| {
            if a.position().is_finite() && a.diameter() > 0.0 {
                finite += 1;
            }
        });
        vec![
            ("final_agents".into(), n),
            ("finite_agents".into(), finite as f64),
            (
                "population_grew".into(),
                f64::from(sim.stats().agents_added > 0),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param() -> Param {
        Param {
            threads: Some(2),
            numa_domains: Some(2),
            ..Param::default()
        }
    }

    #[test]
    fn population_grows() {
        let model = CellProliferation::new(64);
        let mut sim = model.build(param());
        assert_eq!(sim.num_agents(), 64);
        sim.simulate(model.default_iterations());
        assert!(sim.num_agents() > 64, "{}", sim.num_agents());
        let metrics = model.validate(&sim);
        let finite = metrics
            .iter()
            .find(|(k, _)| k == "finite_agents")
            .unwrap()
            .1;
        assert_eq!(finite as usize, sim.num_agents());
    }

    #[test]
    fn random_init_places_within_extent() {
        let model = CellProliferation::new(27).with_random_init();
        let sim = model.build(param());
        let extent = 3.0 * model.spacing;
        sim.for_each_agent(|_, a| {
            let p = a.position();
            assert!(p.x() >= 0.0 && p.x() <= extent);
            assert!(p.y() >= 0.0 && p.y() <= extent);
            assert!(p.z() >= 0.0 && p.z() <= extent);
        });
    }

    #[test]
    fn agent_count_capped_at_request() {
        // 10 is not a cube number; the grid places floor(cbrt)^3 = 8.
        let model = CellProliferation::new(10);
        let sim = model.build(param());
        assert_eq!(sim.num_agents(), 8);
    }
}
