//! The type registry: maps wire-format type tags back to constructors.
//!
//! Rust trait objects carry no portable type identity, so the checkpoint
//! format stores each agent's and behavior's
//! [`checkpoint_tag`](bdm_core::Agent::checkpoint_tag) and restore resolves
//! it here. [`Registry::with_builtin_types`] knows every type the six
//! benchmark models use; applications with custom types call
//! [`Registry::register_agent`] / [`Registry::register_behavior`] with a
//! reader that consumes exactly the bytes the type's `checkpoint_write`
//! produced. The built-in readers also reject a body their first step
//! could not execute: a diffusion-grid index past the restored grids, or a
//! `RandomWalk` whose bounds are NaN or crossed.

use std::collections::HashMap;

use bdm_core::{
    new_behavior_box, Agent, AgentHandle, AgentUid, Behavior, BehaviorBox, Cell, MemoryManager,
    Simulation,
};
use bdm_models::{
    Chemotaxis, GrowthDivision, Infection, Person, RandomWalk, Secretion, SirState, TumorGrowth,
    TypeAdhesion,
};
use bdm_neuro::{GrowthCone, NeuriteElement, NeuronSoma};
use bdm_util::{ByteReader, ReadError};

use crate::error::CheckpointError;
use crate::sections::RestoredAgent;

type AgentCtor = Box<
    dyn Fn(
            &mut Simulation,
            usize,
            RestoredAgent,
            &mut ByteReader<'_>,
        ) -> Result<AgentHandle, CheckpointError>
        + Send
        + Sync,
>;

/// Arguments: pool memory, domain, number of restored diffusion grids, body.
type BehaviorCtor = Box<
    dyn Fn(
            &MemoryManager,
            usize,
            usize,
            &mut ByteReader<'_>,
        ) -> Result<BehaviorBox, CheckpointError>
        + Send
        + Sync,
>;

fn body_truncated(cause: ReadError) -> CheckpointError {
    CheckpointError::Truncated {
        section: "AGENTS",
        cause,
    }
}

fn body_malformed(detail: String) -> CheckpointError {
    CheckpointError::Malformed {
        section: "AGENTS",
        detail,
    }
}

/// Reads a diffusion-grid index that must name one of the `grids` restored
/// grids (an index past them panics in the first step that uses it).
fn take_grid(r: &mut ByteReader<'_>, grids: usize) -> Result<usize, CheckpointError> {
    let grid = r.take_u64().map_err(body_truncated)?;
    if grid >= grids as u64 {
        return Err(body_malformed(format!(
            "diffusion grid {grid} of {grids} restored grids"
        )));
    }
    Ok(grid as usize)
}

/// Maps checkpoint type tags to constructors.
#[derive(Default)]
pub struct Registry {
    agents: HashMap<String, AgentCtor>,
    behaviors: HashMap<String, BehaviorCtor>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry covering every agent and behavior type of the six
    /// benchmark models (and the engine's built-in [`Cell`]).
    pub fn with_builtin_types() -> Registry {
        let mut reg = Registry::new();

        reg.register_agent("core.Cell", |uid, r| {
            let cell_type = r.take_u64().map_err(body_truncated)?;
            let growth_rate = r.take_f64().map_err(body_truncated)?;
            let division_threshold = r.take_f64().map_err(body_truncated)?;
            Ok(Cell::new(uid)
                .with_cell_type(cell_type)
                .with_growth_rate(growth_rate)
                .with_division_threshold(division_threshold))
        });
        reg.register_agent("models.Person", |uid, r| {
            let state_code = r.take_u8().map_err(body_truncated)?;
            let state = SirState::from_payload(state_code as u64)
                .ok_or_else(|| body_malformed(format!("invalid SIR state code {state_code}")))?;
            let infected_since = r.take_u64().map_err(body_truncated)?;
            let mut p = Person::new(uid).with_state(state);
            p.set_infected_since(infected_since);
            Ok(p)
        });
        reg.register_agent("neuro.NeuronSoma", |uid, _r| Ok(NeuronSoma::new(uid)));
        reg.register_agent("neuro.NeuriteElement", |uid, r| {
            let proximal = r.take_real3().map_err(body_truncated)?;
            let soma = AgentUid(r.take_u64().map_err(body_truncated)?);
            let has_parent = r.take_u8().map_err(body_truncated)? != 0;
            let parent_uid = r.take_u64().map_err(body_truncated)?;
            let terminal = r.take_u8().map_err(body_truncated)? != 0;
            let branch_order = r.take_u32().map_err(body_truncated)?;
            let parent = has_parent.then_some(AgentUid(parent_uid));
            // Distal end and diameter arrive through the common base fields;
            // the framework overwrites both right after construction.
            let mut e = NeuriteElement::new(uid, soma, parent, proximal, proximal, 1.0);
            e.set_terminal(terminal);
            e.set_branch_order(branch_order);
            Ok(e)
        });

        reg.register_behavior("models.GrowthDivision", |_r| Ok(GrowthDivision));
        reg.insert_behavior("models.Secretion", |r, grids| {
            Ok(Secretion {
                grid: take_grid(r, grids)?,
                amount: r.take_f64().map_err(body_truncated)?,
            })
        });
        reg.insert_behavior("models.Chemotaxis", |r, grids| {
            Ok(Chemotaxis {
                grid: take_grid(r, grids)?,
                speed: r.take_f64().map_err(body_truncated)?,
            })
        });
        reg.register_behavior("models.RandomWalk", |r| {
            let step = r.take_f64().map_err(body_truncated)?;
            let min = r.take_f64().map_err(body_truncated)?;
            let max = r.take_f64().map_err(body_truncated)?;
            // The walk clamps to [min, max], which panics on these.
            if min.is_nan() || max.is_nan() || min > max {
                return Err(body_malformed(format!("random-walk bounds [{min}, {max}]")));
            }
            Ok(RandomWalk { step, min, max })
        });
        reg.register_behavior("models.TypeAdhesion", |r| {
            Ok(TypeAdhesion {
                radius: r.take_f64().map_err(body_truncated)?,
                speed: r.take_f64().map_err(body_truncated)?,
            })
        });
        reg.register_behavior("models.Infection", |r| {
            Ok(Infection {
                radius: r.take_f64().map_err(body_truncated)?,
                transmission_probability: r.take_f64().map_err(body_truncated)?,
                recovery_iterations: r.take_u64().map_err(body_truncated)?,
            })
        });
        reg.register_behavior("models.TumorGrowth", |r| {
            Ok(TumorGrowth {
                crowding_radius: r.take_f64().map_err(body_truncated)?,
                crowding_limit: r.take_u64().map_err(body_truncated)? as usize,
                death_probability: r.take_f64().map_err(body_truncated)?,
            })
        });
        reg.insert_behavior("neuro.GrowthCone", |r, grids| {
            let speed = r.take_f64().map_err(body_truncated)?;
            let deviation = r.take_f64().map_err(body_truncated)?;
            let max_segment_length = r.take_f64().map_err(body_truncated)?;
            let branch_probability = r.take_f64().map_err(body_truncated)?;
            let max_branch_order = r.take_u32().map_err(body_truncated)?;
            let has_guidance = r.take_u8().map_err(body_truncated)? != 0;
            let guidance_grid = if has_guidance {
                take_grid(r, grids)?
            } else {
                r.take_u64().map_err(body_truncated)? as usize
            };
            let guidance_weight = r.take_f64().map_err(body_truncated)?;
            Ok(GrowthCone {
                speed,
                deviation,
                max_segment_length,
                branch_probability,
                max_branch_order,
                guidance_substance: has_guidance.then_some(guidance_grid),
                guidance_weight,
            })
        });

        reg
    }

    /// Registers an agent type. `read` consumes exactly the bytes the type's
    /// [`checkpoint_write`](bdm_core::Agent::checkpoint_write) produced and
    /// returns the agent with its type-specific state applied; the registry
    /// then applies the common base state (position, diameter, behaviors,
    /// flags) and inserts the agent into its original domain.
    pub fn register_agent<A, F>(&mut self, tag: &str, read: F)
    where
        A: Agent + 'static,
        F: Fn(AgentUid, &mut ByteReader<'_>) -> Result<A, CheckpointError> + Send + Sync + 'static,
    {
        self.agents.insert(
            tag.to_string(),
            Box::new(move |sim, domain, restored, body| {
                let mut agent = read(restored.uid, body)?;
                if !body.is_exhausted() {
                    return Err(body_malformed(format!(
                        "{} trailing agent-body bytes",
                        body.remaining()
                    )));
                }
                agent.base_mut().set_position(restored.position);
                agent.base_mut().set_diameter(restored.diameter);
                for b in restored.behaviors {
                    agent.base_mut().add_behavior(b);
                }
                Ok(sim.restore_agent(domain, agent, restored.flags, restored.violation))
            }),
        );
    }

    /// Registers a behavior type; `read` mirrors the type's
    /// [`checkpoint_write`](bdm_core::Behavior::checkpoint_write).
    pub fn register_behavior<B, F>(&mut self, tag: &str, read: F)
    where
        B: Behavior + 'static,
        F: Fn(&mut ByteReader<'_>) -> Result<B, CheckpointError> + Send + Sync + 'static,
    {
        self.insert_behavior(tag, move |r, _grids| read(r));
    }

    /// [`Registry::register_behavior`] for a reader that also sees the
    /// number of restored diffusion grids, so it can check a grid index.
    fn insert_behavior<B, F>(&mut self, tag: &str, read: F)
    where
        B: Behavior + 'static,
        F: Fn(&mut ByteReader<'_>, usize) -> Result<B, CheckpointError> + Send + Sync + 'static,
    {
        self.behaviors.insert(
            tag.to_string(),
            Box::new(move |mm, domain, grids, body| {
                let b = read(body, grids)?;
                if !body.is_exhausted() {
                    return Err(body_malformed(format!(
                        "{} trailing behavior-body bytes",
                        body.remaining()
                    )));
                }
                Ok(new_behavior_box(b, mm, domain))
            }),
        );
    }

    /// Resolves `tag` and rebuilds the agent inside `sim`.
    pub(crate) fn build_agent(
        &self,
        tag: &str,
        sim: &mut Simulation,
        domain: usize,
        restored: RestoredAgent,
        body: &[u8],
    ) -> Result<AgentHandle, CheckpointError> {
        let ctor = self
            .agents
            .get(tag)
            .ok_or_else(|| CheckpointError::UnknownAgentTag {
                tag: tag.to_string(),
            })?;
        ctor(sim, domain, restored, &mut ByteReader::new(body))
    }

    /// Resolves `tag` and rebuilds the behavior in pool memory of `domain`;
    /// `grids` is the number of diffusion grids restored before the agents.
    pub(crate) fn build_behavior(
        &self,
        tag: &str,
        mm: &MemoryManager,
        domain: usize,
        grids: usize,
        body: &[u8],
    ) -> Result<BehaviorBox, CheckpointError> {
        let ctor = self
            .behaviors
            .get(tag)
            .ok_or_else(|| CheckpointError::UnknownBehaviorTag {
                tag: tag.to_string(),
            })?;
        ctor(mm, domain, grids, &mut ByteReader::new(body))
    }
}
