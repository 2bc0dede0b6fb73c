//! Epidemiology — an SIR (susceptible / infected / recovered) population of
//! randomly moving persons; infection spreads through spatial proximity
//! (paper Table 1, column 3: random movement; 1000 iterations; 10 M agents).

use std::any::Any;

use bdm_core::{
    clone_behavior_box, new_behavior_box, Agent, AgentBase, AgentContext, AgentUid, Behavior,
    BehaviorBox, BehaviorControl, MemoryManager, Param, Simulation,
};

use crate::behaviors::RandomWalk;
use crate::characteristics::Characteristics;
use crate::BenchmarkModel;

/// Disease state of a person.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SirState {
    /// Susceptible.
    Susceptible,
    /// Infected (and infectious).
    Infected,
    /// Recovered (immune).
    Recovered,
}

impl SirState {
    /// Payload encoding (read by neighbors through the snapshot).
    pub fn payload(self) -> u64 {
        match self {
            SirState::Susceptible => 0,
            SirState::Infected => 1,
            SirState::Recovered => 2,
        }
    }

    /// Inverse of [`SirState::payload`] (checkpoint restore).
    pub fn from_payload(code: u64) -> Option<SirState> {
        match code {
            0 => Some(SirState::Susceptible),
            1 => Some(SirState::Infected),
            2 => Some(SirState::Recovered),
            _ => None,
        }
    }
}

/// A person in the epidemiological model.
pub struct Person {
    base: AgentBase,
    state: SirState,
    infected_since: u64,
}

impl Person {
    /// Creates a susceptible person.
    pub fn new(uid: AgentUid) -> Person {
        Person {
            base: AgentBase::new(uid),
            state: SirState::Susceptible,
            infected_since: 0,
        }
    }

    /// Builder: position.
    pub fn with_position(mut self, p: bdm_core::Real3) -> Person {
        self.base.set_position(p);
        self
    }

    /// Builder: initial state.
    pub fn with_state(mut self, s: SirState) -> Person {
        self.state = s;
        self
    }

    /// Current disease state.
    pub fn state(&self) -> SirState {
        self.state
    }

    /// Sets the disease state (checkpoint restore).
    pub fn set_state(&mut self, s: SirState) {
        self.state = s;
    }

    /// Iteration at which the person became infected (0 if never).
    pub fn infected_since(&self) -> u64 {
        self.infected_since
    }

    /// Sets the infection timestamp (checkpoint restore).
    pub fn set_infected_since(&mut self, iteration: u64) {
        self.infected_since = iteration;
    }
}

impl Agent for Person {
    fn base(&self) -> &AgentBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut AgentBase {
        &mut self.base
    }
    fn payload(&self) -> u64 {
        self.state.payload()
    }
    fn participates_in_mechanics(&self) -> bool {
        false // persons pass through each other; movement is behavioral
    }
    fn checkpoint_tag(&self) -> &'static str {
        "models.Person"
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_u8(self.state.payload() as u8);
        out.put_u64(self.infected_since);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The infection behavior: susceptible persons near an infected neighbor
/// become infected with `transmission_probability`; infected persons recover
/// after `recovery_iterations`.
#[derive(Clone, Debug)]
pub struct Infection {
    /// Radius within which transmission can happen.
    pub radius: f64,
    /// Per-step transmission probability given ≥1 infectious neighbor.
    pub transmission_probability: f64,
    /// Iterations until recovery.
    pub recovery_iterations: u64,
}

impl Behavior for Infection {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let person = agent
            .as_any_mut()
            .downcast_mut::<Person>()
            .expect("Infection requires a Person");
        match person.state {
            SirState::Susceptible => {
                let pos = person.position();
                let infected_near = ctx.count_neighbors(pos, self.radius, |nd| {
                    nd.payload() == SirState::Infected.payload()
                });
                if infected_near > 0 && ctx.rng.chance(self.transmission_probability) {
                    person.state = SirState::Infected;
                    person.infected_since = ctx.iteration;
                }
            }
            SirState::Infected => {
                if ctx.iteration.saturating_sub(person.infected_since) >= self.recovery_iterations {
                    person.state = SirState::Recovered;
                }
            }
            SirState::Recovered => {}
        }
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "Infection"
    }
    fn checkpoint_tag(&self) -> &'static str {
        "models.Infection"
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_f64(self.radius);
        out.put_f64(self.transmission_probability);
        out.put_u64(self.recovery_iterations);
    }
}

/// The epidemiology benchmark.
#[derive(Debug, Clone)]
pub struct Epidemiology {
    /// Population size.
    pub num_agents: usize,
    /// Initially infected fraction.
    pub initial_infected: f64,
    /// Transmission radius.
    pub infection_radius: f64,
    /// Per-step transmission probability.
    pub transmission_probability: f64,
    /// Iterations until recovery.
    pub recovery_iterations: u64,
    /// Random-walk step length ("agents move randomly with large distances
    /// between iterations", Section 6.11).
    pub walk_step: f64,
}

impl Epidemiology {
    /// Creates the model at the given population size.
    pub fn new(num_agents: usize) -> Epidemiology {
        Epidemiology {
            num_agents,
            initial_infected: 0.05,
            infection_radius: 8.0,
            transmission_probability: 0.3,
            recovery_iterations: 30,
            walk_step: 6.0,
        }
    }

    fn extent(&self) -> f64 {
        (self.num_agents as f64).cbrt() * 12.0
    }
}

impl BenchmarkModel for Epidemiology {
    fn name(&self) -> &'static str {
        "epidemiology"
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics {
            creates_agents: false,
            deletes_agents: false,
            modifies_neighbors: false,
            load_imbalance: false,
            random_movement: true,
            uses_diffusion: false,
            has_static_regions: false,
            paper_iterations: 1000,
            paper_agents: 10_000_000,
            paper_diffusion_volumes: 0,
        }
    }

    fn build(&self, mut param: Param) -> Simulation {
        param.simulation_time_step = 1.0;
        param.enable_mechanics = false;
        param.interaction_radius = Some(self.infection_radius);
        let walk = RandomWalk {
            step: self.walk_step,
            min: 0.0,
            max: 0.0, // confinement bound set per instance below
        };
        let infection = Infection {
            radius: self.infection_radius,
            transmission_probability: self.transmission_probability,
            recovery_iterations: self.recovery_iterations,
        };
        let mut sim = Simulation::new(param);
        let extent = self.extent();
        let mut rng = bdm_core::SimRng::new(sim.param().seed ^ 0xe41d);
        for i in 0..self.num_agents {
            let uid = sim.new_uid();
            let state = if (i as f64) < self.initial_infected * self.num_agents as f64 {
                SirState::Infected
            } else {
                SirState::Susceptible
            };
            let mut person = Person::new(uid)
                .with_position(rng.point_in_cube(0.0, extent))
                .with_state(state);
            person.base_mut().set_diameter(2.0);
            let mm = sim.memory_manager();
            person.base_mut().add_behavior(new_behavior_box(
                RandomWalk {
                    max: extent,
                    ..walk.clone()
                },
                mm,
                0,
            ));
            person
                .base_mut()
                .add_behavior(new_behavior_box(infection.clone(), mm, 0));
            sim.add_agent(person);
        }
        sim
    }

    fn default_iterations(&self) -> usize {
        60
    }

    fn validate(&self, sim: &Simulation) -> Vec<(String, f64)> {
        let s = sim.count_agents(|a| a.payload() == 0) as f64;
        let i = sim.count_agents(|a| a.payload() == 1) as f64;
        let r = sim.count_agents(|a| a.payload() == 2) as f64;
        vec![
            ("susceptible".into(), s),
            ("infected".into(), i),
            ("recovered".into(), r),
            (
                "population_conserved".into(),
                f64::from((s + i + r) as usize == sim.num_agents()),
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
    fn epidemic_spreads_and_recovers() {
        let model = Epidemiology::new(400);
        let mut sim = model.build(param());
        let infected_initial = sim.count_agents(|a| a.payload() == 1);
        assert_eq!(infected_initial, 20, "5% initially infected");
        sim.simulate(model.default_iterations());
        let metrics = model.validate(&sim);
        let get = |k: &str| metrics.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("population_conserved"), 1.0);
        assert!(
            get("recovered") > 0.0,
            "after 60 steps some recovered: {metrics:?}"
        );
        let touched = get("infected") + get("recovered");
        assert!(
            touched > infected_initial as f64,
            "epidemic must spread: {metrics:?}"
        );
    }

    #[test]
    fn persons_stay_in_domain() {
        let model = Epidemiology::new(100);
        let mut sim = model.build(param());
        sim.simulate(20);
        let extent = model.extent();
        sim.for_each_agent(|_, a| {
            let p = a.position();
            for axis in 0..3 {
                assert!(p[axis] >= 0.0 && p[axis] <= extent);
            }
        });
    }

    #[test]
    fn no_infection_without_seeds() {
        let mut model = Epidemiology::new(100);
        model.initial_infected = 0.0;
        let mut sim = model.build(param());
        sim.simulate(20);
        assert_eq!(sim.count_agents(|a| a.payload() != 0), 0);
    }
}
