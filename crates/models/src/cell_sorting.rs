//! Cell sorting — the Biocellion comparison model (paper Section 6.5,
//! Figure 7): two adhesive cell types, initially mixed at random, sort into
//! same-type clusters through differential adhesion (repulsive collision
//! force + type-specific attraction).

use bdm_core::{new_behavior_box, Agent, Cell, InteractionForce, Param, Simulation};

use crate::behaviors::TypeAdhesion;
use crate::characteristics::Characteristics;
use crate::metrics::same_type_neighbor_fraction;
use crate::BenchmarkModel;

/// The Biocellion cell-sorting model.
#[derive(Debug, Clone)]
pub struct CellSorting {
    /// Number of cells (half per type).
    pub num_agents: usize,
    /// Adhesion interaction radius.
    pub adhesion_radius: f64,
    /// Adhesion movement speed.
    pub adhesion_speed: f64,
}

impl CellSorting {
    /// Creates the model at the given agent count (paper: 50 k for the
    /// visualization, 26.8 M / 281.4 M / 1.72 B for the benchmarks).
    pub fn new(num_agents: usize) -> CellSorting {
        CellSorting {
            num_agents,
            adhesion_radius: 15.0,
            adhesion_speed: 2.0,
        }
    }

    fn extent(&self) -> f64 {
        (self.num_agents as f64).cbrt() * 12.0
    }
}

impl BenchmarkModel for CellSorting {
    fn name(&self) -> &'static str {
        "cell_sorting"
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics {
            creates_agents: false,
            deletes_agents: false,
            modifies_neighbors: false,
            load_imbalance: false,
            random_movement: false,
            uses_diffusion: false,
            has_static_regions: false,
            paper_iterations: 500,
            paper_agents: 26_800_000,
            paper_diffusion_volumes: 0,
        }
    }

    fn build(&self, param: Param) -> Simulation {
        // Repulsion keeps cells apart; adhesion is type-specific (below).
        let adhesion = TypeAdhesion {
            radius: self.adhesion_radius,
            speed: self.adhesion_speed,
        };
        let mut sim = Simulation::builder()
            .with_param(param)
            .time_step(1.0)
            .mechanics(true)
            .interaction_radius(self.adhesion_radius)
            .force(InteractionForce::repulsive_only())
            .build();
        let extent = self.extent();
        let mut rng = bdm_core::SimRng::new(sim.param().seed ^ 0x5027);
        for i in 0..self.num_agents {
            let uid = sim.new_uid();
            let mut cell = Cell::new(uid)
                .with_position(rng.point_in_cube(0.0, extent))
                .with_diameter(10.0)
                .with_cell_type((i % 2) as u64);
            cell.base_mut().add_behavior(new_behavior_box(
                adhesion.clone(),
                sim.memory_manager(),
                0,
            ));
            sim.add_agent(cell);
        }
        sim
    }

    fn default_iterations(&self) -> usize {
        80
    }

    fn validate(&self, sim: &Simulation) -> Vec<(String, f64)> {
        vec![
            (
                "same_type_fraction".into(),
                same_type_neighbor_fraction(sim, self.adhesion_radius, 300),
            ),
            ("final_agents".into(), sim.num_agents() as f64),
        ]
    }
}

/// Writes the final state as `x,y,z,type` CSV — the harness uses this for
/// the Figure 7a visual-agreement check.
pub fn dump_positions_csv(sim: &Simulation) -> String {
    let mut out = String::from("x,y,z,type\n");
    sim.for_each_agent(|_, a| {
        let p = a.position();
        out.push_str(&format!("{},{},{},{}\n", p.x(), p.y(), p.z(), a.payload()));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_sort_by_type() {
        let model = CellSorting::new(250);
        let mut sim = model.build(Param {
            threads: Some(2),
            numa_domains: Some(2),
            ..Param::default()
        });
        let before = same_type_neighbor_fraction(&sim, model.adhesion_radius, 300);
        assert!(
            (0.3..0.7).contains(&before),
            "random mixture starts near 0.5: {before}"
        );
        sim.simulate(model.default_iterations());
        let after = same_type_neighbor_fraction(&sim, model.adhesion_radius, 300);
        assert!(
            after > before + 0.1,
            "differential adhesion must sort: {before:.3} -> {after:.3}"
        );
        assert_eq!(sim.num_agents(), 250);
    }

    #[test]
    fn csv_dump_has_all_agents() {
        let model = CellSorting::new(50);
        let sim = model.build(Param {
            threads: Some(1),
            numa_domains: Some(1),
            ..Param::default()
        });
        let csv = dump_positions_csv(&sim);
        assert_eq!(csv.lines().count(), 51, "header + one line per agent");
        assert!(csv.starts_with("x,y,z,type\n"));
    }
}
