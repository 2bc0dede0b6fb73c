//! Oncology — an avascular tumor spheroid: cells proliferate while
//! uncrowded, die stochastically (apoptosis), producing the only benchmark
//! that removes agents (paper Table 1, column 5: creates and deletes agents,
//! load imbalance; 288 iterations; 10 M agents).

use bdm_core::{
    clone_behavior_box, new_behavior_box, Agent, AgentContext, Behavior, BehaviorBox,
    BehaviorControl, Cell, MemoryManager, Param, Real3, Simulation,
};

use crate::characteristics::Characteristics;
use crate::BenchmarkModel;

/// Tumor-cell behavior: density-gated growth/division plus stochastic death.
#[derive(Clone, Debug)]
pub struct TumorGrowth {
    /// Neighbors within this radius gate proliferation (nutrient proxy).
    pub crowding_radius: f64,
    /// Max neighbors that still allow proliferation.
    pub crowding_limit: usize,
    /// Per-step apoptosis probability.
    pub death_probability: f64,
}

impl Behavior for TumorGrowth {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        if ctx.rng.chance(self.death_probability) {
            ctx.remove_self();
            return BehaviorControl::Keep;
        }
        let cell = agent
            .as_any_mut()
            .downcast_mut::<Cell>()
            .expect("TumorGrowth requires a Cell");
        let pos = cell.position();
        let crowd = ctx.count_neighbors(pos, self.crowding_radius, |_| true);
        if crowd <= self.crowding_limit {
            if cell.diameter() < cell.division_threshold() {
                let rate = cell.growth_rate();
                cell.change_volume(rate * ctx.dt);
            } else {
                let uid = ctx.next_uid();
                let dir = ctx.rng.unit_vector();
                let mm = ctx.memory_manager();
                let domain = ctx.alloc_domain();
                let daughter = cell.divide(uid, dir, mm, domain);
                ctx.new_agent(daughter);
            }
        }
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "TumorGrowth"
    }
    fn checkpoint_tag(&self) -> &'static str {
        "models.TumorGrowth"
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_f64(self.crowding_radius);
        out.put_u64(self.crowding_limit as u64);
        out.put_f64(self.death_probability);
    }
}

/// The oncology benchmark (tumor spheroid growth).
#[derive(Debug, Clone)]
pub struct Oncology {
    /// Initial number of tumor cells.
    pub num_agents: usize,
    /// Per-step apoptosis probability.
    pub death_probability: f64,
}

impl Oncology {
    /// Creates the model at the given initial agent count.
    pub fn new(num_agents: usize) -> Oncology {
        Oncology {
            num_agents,
            death_probability: 0.002,
        }
    }

    fn ball_radius(&self) -> f64 {
        (self.num_agents as f64).cbrt() * 6.0
    }
}

impl BenchmarkModel for Oncology {
    fn name(&self) -> &'static str {
        "oncology"
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics {
            creates_agents: true,
            deletes_agents: true,
            modifies_neighbors: false,
            load_imbalance: true,
            random_movement: false,
            uses_diffusion: false,
            has_static_regions: false,
            paper_iterations: 288,
            paper_agents: 10_000_000,
            paper_diffusion_volumes: 0,
        }
    }

    fn build(&self, mut param: Param) -> Simulation {
        param.simulation_time_step = 1.0;
        param.enable_mechanics = true;
        // The crowding query (15 µm) exceeds the largest cell diameter, so
        // the neighbor index must be built for it explicitly. It is also
        // the force scan's radius: the crowding count stages the agent's
        // candidate shell and the force scan reuses that one list.
        param.interaction_radius = Some(15.0);
        let growth = TumorGrowth {
            crowding_radius: 15.0,
            crowding_limit: 12,
            death_probability: self.death_probability,
        };
        let mut sim = Simulation::new(param);
        let r = self.ball_radius();
        let center = Real3::splat(r * 1.5);
        let mut rng = bdm_core::SimRng::new(sim.param().seed ^ 0x0c0);
        // Random cells inside a centered ball: the spheroid creates load
        // imbalance (dense center, empty borders).
        for _ in 0..self.num_agents {
            let dir = rng.unit_vector();
            let dist = r * rng.uniform().cbrt(); // uniform in the ball
            let uid = sim.new_uid();
            let mut cell = Cell::new(uid)
                .with_position(center + dir * dist)
                .with_diameter(9.0 + rng.uniform_in(0.0, 2.0))
                .with_growth_rate(40.0)
                .with_division_threshold(14.0);
            cell.base_mut()
                .add_behavior(new_behavior_box(growth.clone(), sim.memory_manager(), 0));
            sim.add_agent(cell);
        }
        sim
    }

    fn default_iterations(&self) -> usize {
        40
    }

    fn validate(&self, sim: &Simulation) -> Vec<(String, f64)> {
        vec![
            ("final_agents".into(), sim.num_agents() as f64),
            ("agents_added".into(), sim.stats().agents_added as f64),
            ("agents_removed".into(), sim.stats().agents_removed as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spheroid_grows_with_turnover() {
        let model = Oncology::new(200);
        let mut sim = model.build(Param {
            threads: Some(2),
            numa_domains: Some(2),
            ..Param::default()
        });
        sim.simulate(model.default_iterations());
        let stats = sim.stats();
        assert!(stats.agents_added > 0, "divisions happened: {stats:?}");
        assert!(stats.agents_removed > 0, "apoptosis happened: {stats:?}");
        assert!(sim.num_agents() > 0);
        sim.for_each_agent(|_, a| assert!(a.position().is_finite()));
    }

    #[test]
    fn high_death_rate_shrinks_population() {
        let mut model = Oncology::new(150);
        model.death_probability = 0.2;
        let mut sim = model.build(Param {
            threads: Some(1),
            numa_domains: Some(1),
            ..Param::default()
        });
        sim.simulate(30);
        assert!(
            sim.num_agents() < 150,
            "rapid apoptosis must shrink the tumor: {}",
            sim.num_agents()
        );
    }
}
