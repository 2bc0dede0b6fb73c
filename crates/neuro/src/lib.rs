//! # bdm-neuro
//!
//! The neuroscience specialization of the engine (paper Section 1: the
//! engine "features a specialization for neuroscience, capable of simulating
//! the development of neurons", modelled after Cortex3D).
//!
//! * [`NeuronSoma`] — the cell body; extends neurites in a given direction.
//! * [`NeuriteElement`] — a cylindrical neurite segment with a proximal and a
//!   distal end; terminal elements carry the growth cone.
//! * [`GrowthCone`] — the elongation/branching behavior: terminal elements
//!   elongate with random direction deviation (optionally biased along a
//!   guidance-substance gradient), are discretized into fixed-length
//!   segments, and bifurcate stochastically up to a maximum branch order.
//!
//! Neural growth produces exactly the workload property the paper's static
//! region detection (Section 5) exploits: "Neural development simulations
//! might only have an active growth front, while the remaining part of the
//! neuron is unchanged" — only terminal elements move; interior segments
//! settle and are skipped by the mechanics operation.

use std::any::Any;

use bdm_core::{
    clone_agent_box, clone_behavior_box, Agent, AgentBase, AgentBox, AgentContext, AgentUid,
    Behavior, BehaviorBox, BehaviorControl, CloneIn, MemoryManager, Real3,
};

/// Payload tag for somas (readable by neighbors via the snapshot).
pub const PAYLOAD_SOMA: u64 = 1;
/// Payload tag for neurite elements.
pub const PAYLOAD_NEURITE: u64 = 2;

/// A neuron cell body.
pub struct NeuronSoma {
    base: AgentBase,
}

impl NeuronSoma {
    /// Creates a soma.
    pub fn new(uid: AgentUid) -> NeuronSoma {
        NeuronSoma {
            base: AgentBase::new(uid),
        }
    }

    /// Builder: position.
    pub fn with_position(mut self, p: Real3) -> NeuronSoma {
        self.base.set_position(p);
        self
    }

    /// Builder: diameter.
    pub fn with_diameter(mut self, d: f64) -> NeuronSoma {
        self.base.set_diameter(d);
        self
    }

    /// Creates the first element of a new neurite extending from the soma
    /// surface in `direction`, carrying `growth` as its growth cone.
    pub fn extend_neurite(
        &self,
        uid: AgentUid,
        direction: Real3,
        diameter: f64,
        growth: GrowthCone,
        mm: &MemoryManager,
        domain: usize,
    ) -> NeuriteElement {
        let dir = direction.normalized();
        let start = self.position() + dir * (self.diameter() / 2.0);
        let mut e = NeuriteElement::new(uid, self.uid(), None, start, start + dir * 1.0, diameter);
        e.base
            .add_behavior(bdm_core::new_behavior_box(growth, mm, domain));
        e
    }
}

impl CloneIn for NeuronSoma {
    fn clone_in(&self, mm: &MemoryManager, domain: usize) -> NeuronSoma {
        NeuronSoma {
            base: self.base.clone_in(mm, domain),
        }
    }
}

impl Agent for NeuronSoma {
    fn base(&self) -> &AgentBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut AgentBase {
        &mut self.base
    }
    fn payload(&self) -> u64 {
        PAYLOAD_SOMA
    }
    fn checkpoint_tag(&self) -> &'static str {
        "neuro.NeuronSoma"
    }
    fn clone_box(&self, mm: &MemoryManager, domain: usize) -> AgentBox {
        clone_agent_box(self, mm, domain)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A cylindrical neurite segment.
///
/// The agent position (used for neighbor search and mechanics) is the
/// **distal end** — the tip for terminal elements, which is where growth
/// happens; `proximal` is the attachment point toward the soma.
pub struct NeuriteElement {
    base: AgentBase,
    proximal: Real3,
    soma: AgentUid,
    parent: Option<AgentUid>,
    terminal: bool,
    branch_order: u32,
}

impl NeuriteElement {
    /// Creates a terminal element between `proximal` and `distal`.
    pub fn new(
        uid: AgentUid,
        soma: AgentUid,
        parent: Option<AgentUid>,
        proximal: Real3,
        distal: Real3,
        diameter: f64,
    ) -> NeuriteElement {
        let mut base = AgentBase::new(uid);
        base.set_position(distal);
        base.set_diameter(diameter);
        NeuriteElement {
            base,
            proximal,
            soma,
            parent,
            terminal: true,
            branch_order: 0,
        }
    }

    /// The proximal (soma-side) end.
    pub fn proximal(&self) -> Real3 {
        self.proximal
    }

    /// The distal end (= agent position).
    pub fn distal(&self) -> Real3 {
        self.position()
    }

    /// Segment length.
    pub fn length(&self) -> f64 {
        self.proximal.distance(&self.position())
    }

    /// Unit vector from proximal to distal.
    pub fn axis(&self) -> Real3 {
        (self.position() - self.proximal).normalized()
    }

    /// Whether this element carries the growth cone.
    pub fn is_terminal(&self) -> bool {
        self.terminal
    }

    /// Marks the element terminal (growth front) or interior. Growth flips
    /// this itself during discretization; checkpoint restore uses the setter
    /// to rebuild an element mid-tree.
    pub fn set_terminal(&mut self, terminal: bool) {
        self.terminal = terminal;
    }

    /// Number of bifurcations between the soma and this element.
    pub fn branch_order(&self) -> u32 {
        self.branch_order
    }

    /// Sets the bifurcation depth (checkpoint restore; [`NeuriteElement::new`]
    /// always starts at 0).
    pub fn set_branch_order(&mut self, order: u32) {
        self.branch_order = order;
    }

    /// Uid of the soma this neurite belongs to.
    pub fn soma(&self) -> AgentUid {
        self.soma
    }

    /// Uid of the parent element (`None` for the first element of a
    /// neurite).
    pub fn parent(&self) -> Option<AgentUid> {
        self.parent
    }
}

impl CloneIn for NeuriteElement {
    fn clone_in(&self, mm: &MemoryManager, domain: usize) -> NeuriteElement {
        NeuriteElement {
            base: self.base.clone_in(mm, domain),
            proximal: self.proximal,
            soma: self.soma,
            parent: self.parent,
            terminal: self.terminal,
            branch_order: self.branch_order,
        }
    }
}

impl Agent for NeuriteElement {
    fn base(&self) -> &AgentBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut AgentBase {
        &mut self.base
    }
    fn payload(&self) -> u64 {
        PAYLOAD_NEURITE
    }
    fn checkpoint_tag(&self) -> &'static str {
        "neuro.NeuriteElement"
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_real3(self.proximal);
        out.put_u64(self.soma.0);
        match self.parent {
            Some(p) => {
                out.put_u8(1);
                out.put_u64(p.0);
            }
            None => {
                out.put_u8(0);
                out.put_u64(0);
            }
        }
        out.put_u8(u8::from(self.terminal));
        out.put_u32(self.branch_order);
    }
    fn clone_box(&self, mm: &MemoryManager, domain: usize) -> AgentBox {
        clone_agent_box(self, mm, domain)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The growth-cone behavior: elongation, discretization, bifurcation.
#[derive(Clone, Debug)]
pub struct GrowthCone {
    /// Elongation speed (µm per time unit).
    pub speed: f64,
    /// Std-dev of the random direction deviation per step.
    pub deviation: f64,
    /// Segment length at which the element is discretized (a new terminal
    /// element continues the growth, this one becomes interior and static).
    pub max_segment_length: f64,
    /// Bifurcation probability per step (terminal elements only).
    pub branch_probability: f64,
    /// Maximum branch order; deeper growth cones retire.
    pub max_branch_order: u32,
    /// Guidance substance (diffusion grid index) the cone climbs, if any.
    pub guidance_substance: Option<usize>,
    /// Weight of the guidance gradient relative to the current axis.
    pub guidance_weight: f64,
}

impl Default for GrowthCone {
    fn default() -> Self {
        GrowthCone {
            speed: 1.0,
            deviation: 0.2,
            max_segment_length: 5.0,
            branch_probability: 0.01,
            max_branch_order: 6,
            guidance_substance: None,
            guidance_weight: 0.5,
        }
    }
}

impl Behavior for GrowthCone {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let e = agent
            .as_any_mut()
            .downcast_mut::<NeuriteElement>()
            .expect("GrowthCone only attaches to NeuriteElement");
        if !e.terminal {
            return BehaviorControl::RemoveSelf;
        }

        // Elongate: previous axis + random deviation (+ guidance gradient).
        let mut dir = e.axis();
        dir += Real3::new(
            ctx.rng.gaussian(0.0, self.deviation),
            ctx.rng.gaussian(0.0, self.deviation),
            ctx.rng.gaussian(0.0, self.deviation),
        );
        if let Some(grid) = self.guidance_substance {
            let grad = ctx.substance(grid).gradient_at(e.distal()).normalized();
            dir += grad * self.guidance_weight;
        }
        let dir = dir.normalized();
        let new_distal = e.distal() + dir * (self.speed * ctx.dt);
        e.set_position(new_distal);

        if e.length() < self.max_segment_length {
            return BehaviorControl::Keep;
        }

        let order = e.branch_order;
        let bifurcate = order < self.max_branch_order && ctx.rng.chance(self.branch_probability);
        if !bifurcate && order >= self.max_branch_order {
            // Deepest allowed order reached: the cone retires, the element
            // stays a (now quiescent) terminal tip.
            return BehaviorControl::RemoveSelf;
        }

        // Discretization: this element becomes interior; growth continues in
        // fresh terminal element(s).
        e.terminal = false;
        let parent_uid = e.uid();
        let soma = e.soma;
        let diameter = e.diameter();
        let tip = e.distal();
        let directions: Vec<Real3> = if bifurcate {
            // Two daughters spread around the current axis.
            let normal = dir.cross(&ctx.rng.unit_vector()).normalized();
            vec![
                (dir + normal * 0.8).normalized(),
                (dir - normal * 0.8).normalized(),
            ]
        } else {
            vec![dir]
        };
        for d in &directions {
            let uid = ctx.next_uid();
            let mut daughter =
                NeuriteElement::new(uid, soma, Some(parent_uid), tip, tip + *d * 0.5, diameter);
            daughter.branch_order = order + u32::from(bifurcate);
            daughter.base_mut().add_behavior(bdm_core::new_behavior_box(
                self.clone(),
                ctx.memory_manager(),
                ctx.alloc_domain(),
            ));
            ctx.new_agent(daughter);
        }
        // Interior elements no longer grow.
        BehaviorControl::RemoveSelf
    }

    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }

    fn name(&self) -> &'static str {
        "GrowthCone"
    }

    fn checkpoint_tag(&self) -> &'static str {
        "neuro.GrowthCone"
    }

    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_f64(self.speed);
        out.put_f64(self.deviation);
        out.put_f64(self.max_segment_length);
        out.put_f64(self.branch_probability);
        out.put_u32(self.max_branch_order);
        match self.guidance_substance {
            Some(g) => {
                out.put_u8(1);
                out.put_u64(g as u64);
            }
            None => {
                out.put_u8(0);
                out.put_u64(0);
            }
        }
        out.put_f64(self.guidance_weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_core::{new_agent_box, Param, Simulation};

    fn param() -> Param {
        Param {
            threads: Some(2),
            numa_domains: Some(2),
            simulation_time_step: 1.0,
            interaction_radius: Some(12.0),
            ..Param::default()
        }
    }

    fn seed_neuron(sim: &mut Simulation, pos: Real3, cone: GrowthCone) {
        let soma_uid = sim.new_uid();
        let soma = NeuronSoma::new(soma_uid)
            .with_position(pos)
            .with_diameter(10.0);
        let n_uid = sim.new_uid();
        let first = soma.extend_neurite(
            n_uid,
            Real3::new(0.0, 0.0, 1.0),
            2.0,
            cone,
            sim.memory_manager(),
            0,
        );
        sim.add_agent(soma);
        sim.add_agent(first);
    }

    #[test]
    fn soma_extends_neurite_at_surface() {
        let mm = MemoryManager::new(1, 1, bdm_core::PoolConfig::default());
        let soma = NeuronSoma::new(AgentUid(1))
            .with_position(Real3::splat(10.0))
            .with_diameter(8.0);
        let e = soma.extend_neurite(
            AgentUid(2),
            Real3::new(1.0, 0.0, 0.0),
            2.0,
            GrowthCone::default(),
            &mm,
            0,
        );
        assert_eq!(e.proximal(), Real3::new(14.0, 10.0, 10.0));
        assert!(e.is_terminal());
        assert_eq!(e.soma(), AgentUid(1));
        assert_eq!(e.parent(), None);
        assert!((e.length() - 1.0).abs() < 1e-12);
        drop(e);
    }

    #[test]
    fn neurite_grows_into_a_chain() {
        let mut sim = Simulation::new(Param {
            enable_mechanics: false,
            ..param()
        });
        seed_neuron(
            &mut sim,
            Real3::splat(50.0),
            GrowthCone {
                branch_probability: 0.0,
                deviation: 0.0,
                speed: 1.0,
                max_segment_length: 5.0,
                ..GrowthCone::default()
            },
        );
        sim.simulate(40);
        // Straight growth at speed 1 for 40 steps = ~40 µm of neurite in
        // ~5 µm segments → ≥ 8 elements + 1 soma.
        let neurites = sim.count_agents(|a| a.payload() == PAYLOAD_NEURITE);
        assert!(neurites >= 8, "neurites={neurites}");
        // Exactly one terminal element (no branching).
        let mut terminals = 0;
        let mut max_len: f64 = 0.0;
        sim.for_each_agent(|_, a| {
            if let Some(e) = a.as_any().downcast_ref::<NeuriteElement>() {
                if e.is_terminal() {
                    terminals += 1;
                }
                max_len = max_len.max(e.length());
            }
        });
        assert_eq!(terminals, 1);
        assert!(max_len <= 6.1, "discretization caps segment length");
    }

    #[test]
    fn interior_elements_are_connected_chain() {
        let mut sim = Simulation::new(Param {
            enable_mechanics: false,
            ..param()
        });
        seed_neuron(
            &mut sim,
            Real3::splat(30.0),
            GrowthCone {
                branch_probability: 0.0,
                deviation: 0.1,
                ..GrowthCone::default()
            },
        );
        sim.simulate(30);
        // Every element's proximal must coincide with its parent's distal
        // (no mechanics, so positions are exact).
        let mut by_uid = std::collections::HashMap::new();
        sim.for_each_agent(|_, a| {
            if let Some(e) = a.as_any().downcast_ref::<NeuriteElement>() {
                by_uid.insert(e.uid(), (e.proximal(), e.distal(), e.parent()));
            }
        });
        assert!(by_uid.len() > 3);
        for (uid, (prox, _distal, parent)) in &by_uid {
            if let Some(p) = parent {
                let (_, parent_distal, _) = by_uid
                    .get(p)
                    .unwrap_or_else(|| panic!("parent of {uid:?} missing"));
                assert!(
                    prox.distance(parent_distal) < 1e-9,
                    "chain broken at {uid:?}"
                );
            }
        }
    }

    #[test]
    fn branching_creates_tree() {
        let mut sim = Simulation::new(Param {
            enable_mechanics: false,
            ..param()
        });
        seed_neuron(
            &mut sim,
            Real3::splat(80.0),
            GrowthCone {
                branch_probability: 0.5,
                max_branch_order: 3,
                ..GrowthCone::default()
            },
        );
        sim.simulate(80);
        let mut terminals = 0;
        let mut max_order = 0;
        sim.for_each_agent(|_, a| {
            if let Some(e) = a.as_any().downcast_ref::<NeuriteElement>() {
                if e.is_terminal() {
                    terminals += 1;
                }
                max_order = max_order.max(e.branch_order());
            }
        });
        assert!(terminals > 1, "bifurcation must fan out: {terminals}");
        assert!(max_order >= 1);
        assert!(max_order <= 3, "branch order capped: {max_order}");
    }

    #[test]
    fn static_detection_skips_interior_segments() {
        let mut p = param();
        p.detect_static_agents = true;
        let mut sim = Simulation::new(p);
        seed_neuron(
            &mut sim,
            Real3::splat(100.0),
            GrowthCone {
                branch_probability: 0.05,
                ..GrowthCone::default()
            },
        );
        sim.simulate(60);
        let stats = sim.stats();
        assert!(
            stats.static_skipped > stats.force_calculations / 4,
            "interior neurite segments must be skipped: {stats:?}"
        );
    }

    #[test]
    fn growth_is_deterministic_serially() {
        let run = || {
            let mut p = param();
            p.threads = Some(1);
            p.numa_domains = Some(1);
            p.enable_mechanics = false;
            let mut sim = Simulation::new(p);
            seed_neuron(&mut sim, Real3::splat(10.0), GrowthCone::default());
            sim.simulate(50);
            let mut tips: Vec<(u64, [f64; 3])> = Vec::new();
            sim.for_each_agent(|_, a| tips.push((a.uid().0, a.position().into())));
            tips.sort_by_key(|(u, _)| *u);
            tips
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clone_box_preserves_neurite_state() {
        let mm = MemoryManager::new(1, 1, bdm_core::PoolConfig::default());
        let mut e = NeuriteElement::new(
            AgentUid(5),
            AgentUid(1),
            Some(AgentUid(4)),
            Real3::ZERO,
            Real3::new(0.0, 0.0, 3.0),
            2.0,
        );
        e.terminal = false;
        e.branch_order = 2;
        let boxed = new_agent_box(e, &mm, 0);
        let cloned = boxed.clone_box(&mm, 0);
        let c = cloned.as_any().downcast_ref::<NeuriteElement>().unwrap();
        assert_eq!(c.uid(), AgentUid(5));
        assert_eq!(c.parent(), Some(AgentUid(4)));
        assert!(!c.is_terminal());
        assert_eq!(c.branch_order(), 2);
        assert!((c.length() - 3.0).abs() < 1e-12);
    }
}
