//! Integration: building a complete custom simulation against the public
//! API only (what a downstream user of the library would write) — custom
//! agent behavior, diffusion-coupled chemotaxis, division, death, and a
//! standalone operation, across optimization presets.

use biodynamo::core::{
    clone_behavior_box, new_behavior_box, Behavior, BehaviorBox, BehaviorControl,
};
use biodynamo::core::{AgentContext, MemoryManager};
use biodynamo::prelude::*;

/// A bacterium: secretes an attractant, climbs its gradient, divides when
/// grown, dies of starvation in crowded areas.
#[derive(Clone)]
struct Bacterium {
    grown: f64,
}

impl Behavior for Bacterium {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let pos = agent.position();
        // Secrete attractant and climb its gradient.
        ctx.secrete(0, pos, 1.0);
        let gradient = ctx.substance(0).gradient_at(pos);
        let norm = gradient.norm();
        if norm > 1e-12 {
            agent.set_position(pos + gradient * (2.0 / norm).min(20.0) * ctx.dt);
        }
        // Starve in overcrowded regions.
        let crowd = ctx.count_neighbors(pos, 8.0, |_| true);
        if crowd > 14 && ctx.rng.chance(0.3) {
            ctx.remove_self();
            return BehaviorControl::Keep;
        }
        // Grow and divide.
        self.grown += ctx.dt;
        if self.grown > 4.0 {
            self.grown = 0.0;
            let uid = ctx.next_uid();
            let dir = ctx.rng.unit_vector();
            ctx.new_agent(
                Cell::new(uid)
                    .with_position(pos + dir * 3.0)
                    .with_diameter(agent.diameter()),
            );
        }
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "Bacterium"
    }
}

fn build(param: Param) -> Simulation {
    let mut param = param;
    param.simulation_time_step = 1.0;
    param.interaction_radius = Some(10.0);
    let mut sim = Simulation::new(param);
    // Fast enough that the attractant reaches the neighbouring 7.5 µm boxes
    // within a few iterations, so walkers find a gradient to climb.
    sim.add_diffusion_grid(DiffusionGrid::new(
        "attractant",
        20.0,
        0.01,
        16,
        Real3::ZERO,
        120.0,
    ));
    let mut rng = SimRng::new(11);
    for _ in 0..80 {
        let uid = sim.new_uid();
        let mut cell = Cell::new(uid)
            .with_position(rng.point_in_cube(20.0, 100.0))
            .with_diameter(5.0);
        cell.base_mut().add_behavior(new_behavior_box(
            Bacterium { grown: 0.0 },
            sim.memory_manager(),
            0,
        ));
        sim.add_agent(cell);
    }
    sim
}

#[test]
fn custom_model_lifecycle() {
    let mut sim = build(Param {
        threads: Some(2),
        numa_domains: Some(2),
        ..Param::default()
    });
    sim.simulate(12);
    let stats = sim.stats();
    assert!(stats.agents_added > 0, "divisions: {stats:?}");
    assert!(sim.num_agents() > 0);
    // Secretion ended up in the grid.
    assert!(sim.diffusion_grid(0).total() > 0.0);
    sim.for_each_agent(|_, a| assert!(a.position().is_finite()));
}

#[test]
fn custom_model_runs_under_all_presets() {
    for level in OptLevel::ALL {
        let param = Param {
            threads: Some(2),
            numa_domains: Some(2),
            ..Param::default()
        }
        .apply_opt_level(level);
        let mut sim = build(param);
        sim.simulate(8);
        assert!(sim.num_agents() > 0, "{level:?}");
    }
}

/// A standalone operation recording the population at each of its runs.
struct Census {
    frequency: u64,
    populations: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
}

impl Operation for Census {
    fn name(&self) -> &str {
        "census"
    }
    fn kind(&self) -> OpKind {
        OpKind::Standalone
    }
    fn frequency(&self) -> u64 {
        self.frequency
    }
    fn run(&mut self, sim: &mut Simulation) {
        self.populations.lock().unwrap().push(sim.num_agents());
    }
}

#[test]
fn standalone_op_observes_every_iteration() {
    let mut sim = build(Param {
        threads: Some(2),
        numa_domains: Some(1),
        ..Param::default()
    });
    let populations = std::sync::Arc::default();
    sim.scheduler_mut().add_op(Census {
        frequency: 1,
        populations: std::sync::Arc::clone(&populations),
    });
    sim.simulate(7);
    let populations = populations.lock().unwrap();
    assert_eq!(populations.len(), 7);
    assert!(populations.iter().all(|&n| n > 0));
}

#[test]
fn standalone_op_frequency_is_honored() {
    let mut sim = build(Param {
        threads: Some(1),
        numa_domains: Some(1),
        ..Param::default()
    });
    let populations = std::sync::Arc::default();
    sim.scheduler_mut().add_op(Census {
        frequency: 3,
        populations: std::sync::Arc::clone(&populations),
    });
    sim.simulate(10); // fires on iterations 3, 6, 9
    assert_eq!(populations.lock().unwrap().len(), 3);
}

/// A user-defined pipeline stage: samples the population every 4th
/// iteration through the first-class `Operation` API.
struct PopulationProbe {
    samples: std::sync::Arc<std::sync::Mutex<Vec<(u64, usize)>>>,
}

impl Operation for PopulationProbe {
    fn name(&self) -> &str {
        "population_probe"
    }
    fn kind(&self) -> OpKind {
        OpKind::Post
    }
    fn frequency(&self) -> u64 {
        4
    }
    fn run(&mut self, sim: &mut Simulation) {
        let sample = (sim.iteration(), sim.num_agents());
        self.samples.lock().unwrap().push(sample);
    }
}

#[test]
fn custom_operation_runs_at_frequency() {
    // The same bacterium model with a user-defined Operation registered as
    // a pipeline stage.
    let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut sim = Simulation::new(Param {
        threads: Some(2),
        numa_domains: Some(2),
        simulation_time_step: 1.0,
        interaction_radius: Some(10.0),
        ..Param::default()
    });
    sim.add_diffusion_grid(DiffusionGrid::new(
        "attractant",
        0.2,
        0.01,
        16,
        Real3::ZERO,
        120.0,
    ));
    sim.scheduler_mut().add_op(PopulationProbe {
        samples: samples.clone(),
    });
    let mut rng = SimRng::new(11);
    for _ in 0..80 {
        let uid = sim.new_uid();
        let mut cell = Cell::new(uid)
            .with_position(rng.point_in_cube(20.0, 100.0))
            .with_diameter(5.0);
        cell.base_mut().add_behavior(new_behavior_box(
            Bacterium { grown: 0.0 },
            sim.memory_manager(),
            0,
        ));
        sim.add_agent(cell);
    }
    sim.simulate(12);
    // Frequency 4 → samples at iterations 4, 8, 12, observing the committed
    // population (the probe is a Post op, so divisions of the same
    // iteration are already visible).
    let samples = samples.lock().unwrap();
    assert_eq!(
        samples.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
        vec![4, 8, 12]
    );
    for &(_, agents) in samples.iter() {
        assert!(agents > 0);
    }
    assert_eq!(samples.last().unwrap().1, sim.num_agents());
    // The per-op timing shows up in the simulation's bucket report under
    // the op's own name.
    assert!(sim.time_buckets().get("population_probe").is_some());
}

#[test]
fn chemotaxis_aggregates_population() {
    // Self-attracting walkers must cluster: the mean distance to the
    // centre shrinks over time, by ≥ 2% (by 5.8% on average and at least
    // 4.9% over seeds 0–39).
    let spread = |sim: &Simulation| {
        let mut positions = Vec::new();
        sim.for_each_agent(|_, a| positions.push(a.position()));
        let center = positions.iter().fold(Real3::ZERO, |acc, p| acc + *p) / positions.len() as f64;
        positions.iter().map(|p| p.distance(&center)).sum::<f64>() / positions.len() as f64
    };
    let mut sim = build(Param {
        threads: Some(2),
        numa_domains: Some(1),
        ..Param::default()
    });
    let before = spread(&sim);
    sim.simulate(25);
    let after = spread(&sim);
    assert!(
        after < 0.98 * before,
        "attractant-climbing must aggregate: {before:.1} -> {after:.1}"
    );
}
