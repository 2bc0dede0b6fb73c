//! Neuroscience — neurons extending branching neurites toward a guidance
//! cue; only the growth front is active, the rest of the arbor is static
//! (paper Table 1, column 4: creates agents, diffusion, static regions;
//! 500 iterations; 9 M agents; 65 k diffusion volumes).

use bdm_core::{DiffusionGrid, Param, Real3, Simulation};
use bdm_neuro::{GrowthCone, NeuronSoma, PAYLOAD_NEURITE};

use crate::characteristics::Characteristics;
use crate::BenchmarkModel;

/// The neuroscience benchmark (neural development).
#[derive(Debug, Clone)]
pub struct Neuroscience {
    /// Number of neurons (the agent count grows as neurites extend; the
    /// paper's 9 M agents are mostly neurite elements).
    pub num_neurons: usize,
    /// Neurites extended per soma.
    pub neurites_per_soma: usize,
    /// Growth-cone parameters.
    pub cone: GrowthCone,
    /// Guidance-substance grid resolution (65 k volumes in the paper ≈ 40³).
    pub substance_resolution: usize,
}

impl Neuroscience {
    /// Creates the model with the given number of *initial agents*
    /// (somas = n / (1 + neurites); matching how the harness scales models).
    pub fn new(num_agents: usize) -> Neuroscience {
        Neuroscience {
            num_neurons: (num_agents / 3).max(1),
            neurites_per_soma: 2,
            cone: GrowthCone {
                speed: 2.0,
                deviation: 0.15,
                max_segment_length: 5.0,
                branch_probability: 0.03,
                max_branch_order: 4,
                guidance_substance: Some(0),
                guidance_weight: 0.4,
            },
            substance_resolution: 20,
        }
    }

    fn grid_dim(&self) -> usize {
        (self.num_neurons as f64).sqrt().ceil().max(1.0) as usize
    }

    fn extent(&self) -> f64 {
        (self.grid_dim() as f64 * 30.0).max(120.0)
    }
}

impl BenchmarkModel for Neuroscience {
    fn name(&self) -> &'static str {
        "neuroscience"
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics {
            creates_agents: true,
            deletes_agents: false,
            modifies_neighbors: false,
            load_imbalance: true,
            random_movement: false,
            uses_diffusion: true,
            has_static_regions: true,
            paper_iterations: 500,
            paper_agents: 9_000_000,
            paper_diffusion_volumes: 65_000,
        }
    }

    fn build(&self, mut param: Param) -> Simulation {
        param.simulation_time_step = 1.0;
        param.enable_mechanics = true;
        param.interaction_radius = Some(12.0);
        let mut sim = Simulation::new(param);
        let extent = self.extent();

        // Frozen guidance field increasing with z: growth cones climb it.
        let mut guidance = DiffusionGrid::new(
            "guidance",
            0.0, // frozen: pure gradient source, no spreading
            0.0,
            self.substance_resolution,
            Real3::ZERO,
            extent,
        );
        let res = self.substance_resolution;
        let h = extent / res as f64;
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    let pos = Real3::new(
                        (x as f64 + 0.5) * h,
                        (y as f64 + 0.5) * h,
                        (z as f64 + 0.5) * h,
                    );
                    guidance.increase_concentration(pos, z as f64);
                }
            }
        }
        sim.add_diffusion_grid(guidance);

        // Somas on a 2-D grid near the bottom plane, each extending
        // `neurites_per_soma` neurites upward.
        let dim = self.grid_dim();
        let mut placed = 0;
        let mut rng = bdm_core::SimRng::new(sim.param().seed ^ 0x6e00);
        'outer: for gx in 0..dim {
            for gy in 0..dim {
                if placed >= self.num_neurons {
                    break 'outer;
                }
                let pos = Real3::new(gx as f64 * 30.0 + 15.0, gy as f64 * 30.0 + 15.0, 10.0);
                let soma_uid = sim.new_uid();
                let soma = NeuronSoma::new(soma_uid)
                    .with_position(pos)
                    .with_diameter(10.0);
                for _ in 0..self.neurites_per_soma {
                    let dir = (Real3::new(rng.gaussian(0.0, 0.3), rng.gaussian(0.0, 0.3), 1.0))
                        .normalized();
                    let uid = sim.new_uid();
                    let e = soma.extend_neurite(
                        uid,
                        dir,
                        2.0,
                        self.cone.clone(),
                        sim.memory_manager(),
                        0,
                    );
                    sim.add_agent(e);
                }
                sim.add_agent(soma);
                placed += 1;
            }
        }
        sim
    }

    fn default_iterations(&self) -> usize {
        40
    }

    fn validate(&self, sim: &Simulation) -> Vec<(String, f64)> {
        let neurites = sim.count_agents(|a| a.payload() == PAYLOAD_NEURITE) as f64;
        // Average neurite z: growth climbs the guidance gradient.
        let mut z_sum = 0.0;
        let mut n = 0.0;
        sim.for_each_agent(|_, a| {
            if a.payload() == PAYLOAD_NEURITE {
                z_sum += a.position().z();
                n += 1.0;
            }
        });
        vec![
            ("neurite_elements".into(), neurites),
            (
                "mean_neurite_z".into(),
                if n > 0.0 { z_sum / n } else { 0.0 },
            ),
            (
                "somas".into(),
                sim.count_agents(|a| a.payload() == bdm_neuro::PAYLOAD_SOMA) as f64,
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
    fn arbors_grow_and_climb_guidance() {
        let model = Neuroscience::new(12); // 4 neurons
        let mut sim = model.build(param());
        let initial = sim.num_agents();
        sim.simulate(model.default_iterations());
        assert!(sim.num_agents() > initial, "neurites must extend");
        let metrics = model.validate(&sim);
        let get = |k: &str| metrics.iter().find(|(n, _)| n == k).unwrap().1;
        assert!(get("neurite_elements") > get("somas"));
        assert!(
            get("mean_neurite_z") > 10.0,
            "growth follows the z gradient: {metrics:?}"
        );
    }

    #[test]
    fn static_region_detection_pays_off() {
        let model = Neuroscience::new(12);
        let mut p = param();
        p.detect_static_agents = true;
        let mut sim = model.build(p);
        sim.simulate(50);
        let stats = sim.stats();
        assert!(
            stats.static_skipped > 0,
            "interior arbor must be static: {stats:?}"
        );
    }
}
