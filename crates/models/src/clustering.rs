//! Cell clustering — two cell populations secreting distinct substances and
//! following their own substance's gradient until same-type clusters form
//! (paper Table 1, column 2: diffusion-heavy; 1000 iterations; 2 M agents;
//! 54 M diffusion volumes).

use bdm_core::{new_behavior_box, Agent, Cell, Param, Real3, Simulation};

use crate::behaviors::{Chemotaxis, Secretion};
use crate::characteristics::Characteristics;
use crate::metrics::same_type_neighbor_fraction;
use crate::BenchmarkModel;

/// The cell-clustering benchmark.
#[derive(Debug, Clone)]
pub struct CellClustering {
    /// Number of cells (split between two types).
    pub num_agents: usize,
    /// Diffusion grid resolution per axis (the paper uses 54 M volumes at
    /// 2 M agents; the default keeps the same volumes-per-agent ratio at
    /// small scale).
    pub substance_resolution: usize,
}

impl CellClustering {
    /// Creates the model at the given agent count.
    pub fn new(num_agents: usize) -> CellClustering {
        // Paper ratio: 54M volumes / 2M agents = 27 volumes per agent →
        // resolution = cbrt(27 × agents).
        let res = ((27.0 * num_agents as f64).cbrt().ceil() as usize).clamp(8, 96);
        CellClustering {
            num_agents,
            substance_resolution: res,
        }
    }

    fn extent(&self) -> f64 {
        (self.num_agents as f64).cbrt() * 15.0
    }
}

impl BenchmarkModel for CellClustering {
    fn name(&self) -> &'static str {
        "cell_clustering"
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics {
            creates_agents: false,
            deletes_agents: false,
            modifies_neighbors: false,
            load_imbalance: true,
            random_movement: false,
            uses_diffusion: true,
            has_static_regions: false,
            paper_iterations: 1000,
            paper_agents: 2_000_000,
            paper_diffusion_volumes: 54_000_000,
        }
    }

    fn build(&self, mut param: Param) -> Simulation {
        param.simulation_time_step = 1.0;
        param.enable_mechanics = true;
        let mut sim = Simulation::new(param);
        let extent = self.extent();
        for t in 0..2usize {
            sim.add_diffusion_grid(bdm_core::DiffusionGrid::new(
                format!("substance_{t}"),
                0.4,
                0.001,
                self.substance_resolution,
                Real3::ZERO,
                extent,
            ));
        }
        let mut rng = bdm_core::SimRng::new(sim.param().seed ^ 0xc105);
        for i in 0..self.num_agents {
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
                    speed: 3.0,
                },
                mm,
                0,
            ));
            sim.add_agent(cell);
        }
        sim
    }

    fn default_iterations(&self) -> usize {
        60
    }

    fn validate(&self, sim: &Simulation) -> Vec<(String, f64)> {
        let f = same_type_neighbor_fraction(sim, 20.0, 200);
        vec![
            ("same_type_fraction".into(), f),
            ("final_agents".into(), sim.num_agents() as f64),
            ("substance_total_0".into(), sim.diffusion_grid(0).total()),
            ("substance_total_1".into(), sim.diffusion_grid(1).total()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_emerge() {
        let model = CellClustering::new(300);
        let mut sim = model.build(Param {
            threads: Some(2),
            numa_domains: Some(2),
            ..Param::default()
        });
        let before = same_type_neighbor_fraction(&sim, 20.0, 200);
        sim.simulate(model.default_iterations());
        let after = same_type_neighbor_fraction(&sim, 20.0, 200);
        assert!(
            after > before + 0.05,
            "sorting metric must rise: {before:.3} -> {after:.3}"
        );
        // Both substances were secreted and diffused.
        assert!(sim.diffusion_grid(0).total() > 0.0);
        assert!(sim.diffusion_grid(1).total() > 0.0);
    }

    #[test]
    fn volume_ratio_tracks_paper() {
        let m = CellClustering::new(2000);
        let volumes = m.substance_resolution.pow(3);
        let ratio = volumes as f64 / 2000.0;
        assert!(
            (10.0..80.0).contains(&ratio),
            "volumes-per-agent ratio {ratio} out of range"
        );
    }

    #[test]
    fn population_is_constant() {
        let model = CellClustering::new(100);
        let mut sim = model.build(Param {
            threads: Some(1),
            numa_domains: Some(1),
            ..Param::default()
        });
        sim.simulate(10);
        assert_eq!(sim.num_agents(), 100);
        assert_eq!(sim.stats().agents_added, 0);
        assert_eq!(sim.stats().agents_removed, 0);
    }
}
