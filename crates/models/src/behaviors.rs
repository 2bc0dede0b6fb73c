//! Behaviors shared by the benchmark models.

use bdm_core::{
    clone_behavior_box, Agent, AgentContext, Behavior, BehaviorBox, BehaviorControl, Cell,
    MemoryManager, Real3,
};

/// Volume growth followed by division above the threshold diameter — the
/// cell-proliferation behavior (BioDynaMo's `GrowthDivision`).
#[derive(Clone, Debug)]
pub struct GrowthDivision;

impl Behavior for GrowthDivision {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let cell = agent
            .as_any_mut()
            .downcast_mut::<Cell>()
            .expect("GrowthDivision requires a Cell");
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
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "GrowthDivision"
    }
    fn checkpoint_tag(&self) -> &'static str {
        "models.GrowthDivision"
    }
}

/// Secretes `amount` of substance `grid` at the agent position each step.
#[derive(Clone, Debug)]
pub struct Secretion {
    /// Diffusion grid index.
    pub grid: usize,
    /// Quantity secreted per step.
    pub amount: f64,
}

impl Behavior for Secretion {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let pos = agent.position();
        ctx.secrete(self.grid, pos, self.amount);
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "Secretion"
    }
    fn checkpoint_tag(&self) -> &'static str {
        "models.Secretion"
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_u64(self.grid as u64);
        out.put_f64(self.amount);
    }
}

/// Moves the agent up the concentration gradient of substance `grid`
/// (chemotaxis, the core of the cell-clustering model).
#[derive(Clone, Debug)]
pub struct Chemotaxis {
    /// Diffusion grid index to climb.
    pub grid: usize,
    /// Movement speed (µm per time unit).
    pub speed: f64,
}

impl Behavior for Chemotaxis {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let pos = agent.position();
        let grad = ctx.substance(self.grid).gradient_at(pos).normalized();
        if grad != Real3::ZERO {
            agent.set_position(pos + grad * (self.speed * ctx.dt));
        }
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "Chemotaxis"
    }
    fn checkpoint_tag(&self) -> &'static str {
        "models.Chemotaxis"
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_u64(self.grid as u64);
        out.put_f64(self.speed);
    }
}

/// Random walk with large jumps, confined to a cubic domain
/// (the epidemiology population's movement).
#[derive(Clone, Debug)]
pub struct RandomWalk {
    /// Jump length per step.
    pub step: f64,
    /// Lower corner of the confinement cube.
    pub min: f64,
    /// Upper corner of the confinement cube.
    pub max: f64,
}

impl Behavior for RandomWalk {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let dir = ctx.rng.unit_vector();
        let p = agent.position() + dir * self.step;
        agent.set_position(p.clamp_scalar(self.min, self.max));
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "RandomWalk"
    }
    fn checkpoint_tag(&self) -> &'static str {
        "models.RandomWalk"
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_f64(self.step);
        out.put_f64(self.min);
        out.put_f64(self.max);
    }
}

/// Moves the agent toward the average position of same-type neighbors
/// (type-specific adhesion; together with a repulsive-only collision force
/// this reproduces the differential-adhesion cell-sorting model used for the
/// Biocellion comparison).
#[derive(Clone, Debug)]
pub struct TypeAdhesion {
    /// Neighbor radius considered for adhesion.
    pub radius: f64,
    /// Movement speed toward same-type neighbors.
    pub speed: f64,
}

impl Behavior for TypeAdhesion {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let pos = agent.position();
        let my_type = agent.payload();
        let mut sum = Real3::ZERO;
        let mut n = 0u32;
        ctx.for_each_neighbor(pos, self.radius, |_idx, nd, _d2| {
            if nd.payload() == my_type {
                sum += nd.position();
                n += 1;
            }
        });
        if n > 0 {
            let center = sum / n as f64;
            let dir = (center - pos).normalized();
            agent.set_position(pos + dir * (self.speed * ctx.dt));
        }
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "TypeAdhesion"
    }
    fn checkpoint_tag(&self) -> &'static str {
        "models.TypeAdhesion"
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_f64(self.radius);
        out.put_f64(self.speed);
    }
}
