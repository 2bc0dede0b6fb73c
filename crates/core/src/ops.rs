//! Agent operations: behavior execution and the mechanical-forces operation
//! with static-agent detection (paper Sections 2 and 5).

use bdm_util::Real3;

use crate::agent::Agent;
use crate::behavior::BehaviorControl;
use crate::context::AgentContext;
use crate::force::InteractionForce;
use crate::resource_manager::{split_global, StaticFlags, VIOL_CUR, VIOL_NEXT};

/// Runs all behaviors of `agent`. Behaviors are temporarily detached from
/// the agent so they can receive `&mut dyn Agent` without aliasing; behaviors
/// returning [`BehaviorControl::RemoveSelf`] are dropped.
pub(crate) fn run_behaviors(agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) {
    let mut behaviors = agent.base_mut().take_behaviors();
    let mut i = 0;
    while i < behaviors.len() {
        match behaviors.as_mut_slice()[i].run(agent, ctx) {
            BehaviorControl::Keep => i += 1,
            BehaviorControl::RemoveSelf => {
                behaviors.swap_remove(i);
            }
        }
    }
    agent.base_mut().put_behaviors(behaviors);
}

/// Share of an iteration's mechanics passes that must end static for armed
/// static detection to stay engaged in the next iteration (the duty cycle
/// of `Param::detect_static_agents`).
///
/// An agent can be skipped at iteration i + 1 only if its flag was set at
/// i, so the next pass skips at most as many agents as this one left
/// static: standing down forfeits less than this share of the next pass's
/// force work. The value sits between the measured per-iteration
/// `static ÷ passes` profiles of scenes that skip (`neuroscience`: ≥ 0.198
/// from the first iteration) and scenes that do not (`oncology` ≤ 0.003,
/// `cell_sorting` 0.015–0.021, `cell_clustering` 0 from its fourth
/// iteration); docs/PERFORMANCE.md ("Static detection, armed") has the
/// table.
pub(crate) const STATIC_FLOOR: f64 = 0.05;

/// Displacements (and behavior-driven moves) below this count as "did not
/// move" for the static-detection conditions.
pub(crate) const STATIC_THRESHOLD: f64 = 1e-5;

/// The duty-cycle rule: whether detection runs in the next iteration after
/// a pass of `passes` mechanics agents (computed plus skipped) left
/// `static_after` of them static (skipped plus newly settled).
pub(crate) fn stays_engaged(passes: u64, static_after: u64) -> bool {
    passes > 0 && static_after as f64 >= STATIC_FLOOR * passes as f64
}

/// Configuration of the mechanics operation for one iteration.
pub(crate) struct MechanicsConfig {
    pub force: InteractionForce,
    /// Neighbor-search radius (the environment's build radius).
    pub search_radius: f64,
    /// Time step used to turn forces into displacements.
    pub dt: f64,
    /// Hard displacement cap (`simulation_max_displacement`).
    pub max_displacement: f64,
    /// Static detection runs in this pass: armed
    /// (`detect_static_agents`) and engaged by the duty cycle.
    pub detect_static: bool,
}

/// Relative slack of the mechanics shell over `search_radius +
/// max_displacement`. The rounding it absorbs — the capped displacement,
/// the position update, the squared distances — is ~1e-16 relative; a
/// mover's step is held to half of it (see [`MechanicsConfig::max_step_sq`]).
const SHELL_MARGIN: f64 = 1e-9;

impl MechanicsConfig {
    /// Radius of the candidate shell the box-batched force scan keeps. With
    /// static detection on it reaches every agent a step of at most
    /// `max_displacement` can bring within `search_radius`, so the same
    /// scan serves the wake around a mover's new position; without
    /// detection there is no wake and the shell is the search radius. A
    /// behavior's grid query of an agent that runs a mechanics pass stages
    /// this shell, so the force scan reuses it.
    pub(crate) fn shell_radius(&self) -> f64 {
        if !self.detect_static {
            return self.search_radius;
        }
        // `max` keeps the shell ⊇ the search radius for a NaN cap too.
        ((self.search_radius + self.max_displacement.abs()) * (1.0 + SHELL_MARGIN))
            .max(self.search_radius)
    }

    /// Largest squared step a mover may have taken for the shell to cover
    /// its new neighborhood: `max_displacement` plus half the margin, so
    /// the step's own rounding never pushes a capped mover off the fast
    /// wake while `search_radius + step` stays inside the shell radius.
    fn max_step_sq(&self) -> f64 {
        let step = self.max_displacement.abs() * (1.0 + SHELL_MARGIN / 2.0);
        step * step
    }
}

/// Shared view of the per-domain violation flags, addressed by global index.
///
/// Double-buffered within one byte (see [`VIOL_CUR`]/[`VIOL_NEXT`]): raises
/// from this pass land on the NEXT bit, takes consume only the CUR bit set
/// by the *previous* pass, so the outcome never depends on which of two
/// concurrently processed agents ran first.
pub(crate) struct ViolationTable<'a> {
    /// One slice per domain.
    pub slices: Vec<&'a [std::sync::atomic::AtomicU8]>,
    /// Domain offsets (with total appended).
    pub offsets: &'a [usize],
}

impl ViolationTable<'_> {
    /// Raises a violation for the *next* iteration's pass of the agent at
    /// `global`. Neighborhoods overlap, so most raises find the bit already
    /// set: a plain load first spares them the locked read-modify-write.
    #[inline]
    pub fn raise(&self, global: usize) {
        let (d, i) = split_global(self.offsets, global);
        let flag = &self.slices[d][i];
        if flag.load(std::sync::atomic::Ordering::Relaxed) & VIOL_NEXT == 0 {
            flag.fetch_or(VIOL_NEXT, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Consumes the pending violation flag of the agent at `global`.
    #[inline]
    pub fn take(&self, global: usize) -> bool {
        let (d, i) = split_global(self.offsets, global);
        let prev = self.slices[d][i].fetch_and(!VIOL_CUR, std::sync::atomic::Ordering::Relaxed);
        prev & VIOL_CUR != 0
    }
}

/// The mechanical-forces agent operation: pairwise collision forces against
/// all neighbors, displacement application, and the static-agent detection
/// of paper Section 5.
///
/// Returns `true` if the force calculation was skipped (agent static).
pub(crate) fn run_mechanics(
    agent: &mut dyn Agent,
    flags: &mut StaticFlags,
    global: usize,
    violations: &ViolationTable<'_>,
    ctx: &mut AgentContext<'_>,
    cfg: &MechanicsConfig,
) -> bool {
    let snap_position = ctx.snapshot.positions[global];
    let snap_diameter = ctx.snapshot.diameters[global];
    let pos_now = agent.position();
    let diameter_now = agent.diameter();
    // Condition (ii): attribute changes that could increase the force —
    // growth or behavior-driven movement since the snapshot was taken.
    let behavior_changed = pos_now.distance_sq(&snap_position)
        > STATIC_THRESHOLD * STATIC_THRESHOLD
        || diameter_now > snap_diameter + 1e-12;
    // Condition (iii): new agents announce their presence to their
    // neighborhood on their first mechanics pass.
    let is_first_pass = flags.created_iter > 0 && flags.created_iter + 1 == ctx.iteration;

    if cfg.detect_static {
        // Consume the violation flag set by neighbors during the previous
        // iteration (conditions i–iii, push-based).
        let violated = violations.take(global);
        if flags.is_static && !violated && !behavior_changed && !is_first_pass {
            ctx.exec.static_skipped += 1;
            return true;
        }
    }

    // Pairwise collision forces against all neighbors (condition iv counts
    // the non-zero ones).
    let mut total_force = Real3::ZERO;
    let mut nonzero_forces = 0u32;
    // The route follows the environment: on a uniform grid with scattered
    // diameters, positions AND diameters stream from the grid's box-sorted
    // arrays, the stencil is resolved once per box, and one branchless pass
    // compacts the candidates within the shell radius that the force sum
    // and the wake below both walk — the pass a behavior's query of this
    // agent at the same position already made, if one did. Bit-identical
    // to the generic query:
    // same visit order (shared stencil traversal), bitwise-copied
    // diameters, and `sphere_sphere_sq` fed the scan's d² equals
    // `sphere_sphere` bit for bit (see its docs).
    let batched = ctx.for_each_neighbor_mech(
        pos_now,
        cfg.search_radius,
        cfg.shell_radius(),
        &mut |npos, ndiam, d2| {
            let f = cfg
                .force
                .sphere_sphere_sq(pos_now, diameter_now, npos, ndiam, d2);
            if f != Real3::ZERO {
                nonzero_forces += 1;
                total_force += f;
            }
        },
    );
    if batched {
        ctx.exec.batched_force_queries += 1;
    } else {
        // Generic route (non-grid environments, unscattered diameters): the
        // neighbor position the index streamed (free) plus one lazy diameter
        // load per accepted neighbor — never the payload.
        ctx.for_each_neighbor(pos_now, cfg.search_radius, |_, nd, d2| {
            let f =
                cfg.force
                    .sphere_sphere_sq(pos_now, diameter_now, nd.position(), nd.diameter(), d2);
            if f != Real3::ZERO {
                nonzero_forces += 1;
                total_force += f;
            }
        });
    }
    ctx.exec.force_calculations += 1;

    // Forces translate into displacement with unit mobility, capped by
    // `simulation_max_displacement`.
    let mut displacement = total_force * cfg.dt;
    if !displacement.is_finite() {
        // Count instead of abort: a NaN norm fails every comparison below,
        // so the position write is naturally skipped and the corruption is
        // contained to this counter (surfaced as a NonFiniteForce violation
        // at teardown) instead of spreading through the population.
        ctx.exec.nonfinite_forces += 1;
    }
    let norm = displacement.norm();
    if norm > cfg.max_displacement {
        displacement *= cfg.max_displacement / norm;
    }
    let moved = norm > STATIC_THRESHOLD;
    if moved {
        agent.set_position(pos_now + displacement);
    }
    // Did not move, nothing changed, and condition (iv) allows at most one
    // non-zero neighbor force (so that a shrinking or removed neighbor
    // cannot release a hidden counter-force). Counted with detection down
    // too: the duty cycle re-engages on it.
    let settled = !moved && !behavior_changed && !is_first_pass && nonzero_forces <= 1;
    ctx.exec.static_candidates += u64::from(settled);

    if cfg.detect_static {
        if moved || behavior_changed || is_first_pass {
            // The agent changed: it cannot be static, and all of its
            // neighbors must re-evaluate their forces next iteration. A
            // mover also wakes the agents around its *new* position: it can
            // enter the interaction radius of an agent that was not a
            // neighbor at the old one. Static agents have not moved, so the
            // (stale) index still holds them at their true positions and a
            // query around the new position finds exactly the sleepers that
            // must re-evaluate. Raises are idempotent ORs: only the raised
            // set matters, not its order.
            flags.is_static = false;
            let pos_new = agent.position();
            let raise = |idx: usize| violations.raise(idx);
            let new_woken = if batched {
                // The force scan's shell holds every candidate a step of at
                // most `max_displacement` can bring within range; when the
                // new position lies in the scanned box (same stencil runs)
                // one pass over it raises both neighborhoods.
                let covered = moved && pos_new.distance_sq(&pos_now) <= cfg.max_step_sq();
                let served = ctx.wake_from_shell(
                    pos_now,
                    cfg.search_radius,
                    cfg.shell_radius(),
                    covered.then_some(pos_new),
                    raise,
                );
                ctx.exec.shell_wakes += u64::from(served);
                served
            } else {
                // The index is the snapshot's for the whole agent phase, so
                // this query returns the force query's neighborhood.
                ctx.for_each_neighbor(pos_now, cfg.search_radius, |idx, _nd, _d2| raise(idx));
                false
            };
            if moved && !new_woken {
                ctx.for_each_neighbor(pos_new, cfg.search_radius, |idx, _nd, _d2| raise(idx));
            }
        } else {
            flags.is_static = settled;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use bdm_alloc::MemoryManager;
    use bdm_env::UniformGridEnvironment;
    use bdm_util::SimRng;

    use super::*;
    use crate::agent::tests::{ids, Tagged};
    use crate::agent::{AgentHandle, AgentUid, Cell};
    use crate::behavior::new_behavior_box;
    use crate::context::{ExecutionContext, Snapshot};

    /// Runs the behaviors of a cell carrying `behaviors` once and returns
    /// the ids it carries afterwards.
    fn run_once(behaviors: Vec<Tagged>) -> Vec<u8> {
        let mm = MemoryManager::system_only(1, 1);
        let mut cell = Cell::new(AgentUid(1));
        for b in behaviors {
            cell.base_mut().add_behavior(new_behavior_box(b, &mm, 0));
        }
        let env = UniformGridEnvironment::new();
        let snapshot = Snapshot::default();
        let mut exec = ExecutionContext::new(1);
        let mut ctx = AgentContext {
            exec: &mut exec,
            env: &env,
            snapshot: &snapshot,
            grid: None,
            mm: &mm,
            diffusion: &[],
            alloc_domain: 0,
            self_handle: AgentHandle::new(0, 0),
            self_global: 0,
            shell_radius: None,
            dt: 1.0,
            iteration: 1,
            rng: SimRng::new(1),
            uid_seq: 0,
            self_uid: AgentUid(1),
        };
        run_behaviors(&mut cell, &mut ctx);
        ids(cell.base().behaviors())
    }

    fn remove(id: u8) -> Tagged {
        Tagged {
            control: BehaviorControl::RemoveSelf,
            ..Tagged::keep(id)
        }
    }

    #[test]
    fn remove_self_swap_removes_and_runs_the_moved_behavior() {
        // 2 leaves; 4 takes its slot and runs there, then 3 runs.
        let kept = run_once(vec![
            Tagged::keep(1),
            remove(2),
            Tagged::keep(3),
            Tagged::keep(4),
        ]);
        assert_eq!(kept, [1, 4, 3]);
        // The moved behavior removing itself as well.
        assert_eq!(run_once(vec![remove(1), Tagged::keep(2), remove(3)]), [2]);
        assert_eq!(run_once(vec![remove(1), remove(2)]), Vec::<u8>::new());
    }

    #[test]
    fn behaviors_added_during_a_run_go_behind_the_survivors() {
        let spawner = Tagged {
            spawn: Some(9),
            ..Tagged::keep(1)
        };
        assert_eq!(
            run_once(vec![spawner.clone(), remove(2), Tagged::keep(3)]),
            [1, 3, 9]
        );
        assert_eq!(run_once(vec![spawner.clone()]), [1, 9]);
        let leaving_spawner = Tagged {
            control: BehaviorControl::RemoveSelf,
            ..spawner
        };
        assert_eq!(run_once(vec![leaving_spawner, Tagged::keep(2)]), [2, 9]);
    }
}
