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
    let mut len = behaviors.len();
    while i < len {
        match behaviors[i].run(agent, ctx) {
            BehaviorControl::Keep => i += 1,
            BehaviorControl::RemoveSelf => {
                behaviors.swap_remove(i);
                len -= 1;
            }
        }
    }
    agent.base_mut().put_behaviors(behaviors);
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
    /// Static-detection on/off (`detect_static_agents`).
    pub detect_static: bool,
    /// Displacements below this are "did not move".
    pub static_threshold: f64,
    /// Box-batched force accumulation on/off (`Param::box_batched_mechanics`;
    /// the off position pins the scalar path for parity tests).
    pub box_batched: bool,
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
    /// detection there is no wake and the shell is the search radius.
    fn shell_radius(&self) -> f64 {
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
    neighbor_scratch: &mut Vec<u32>,
) -> bool {
    let snap_position = ctx.snapshot.positions[global];
    let snap_diameter = ctx.snapshot.diameters[global];
    let pos_now = agent.position();
    let diameter_now = agent.diameter();
    // Condition (ii): attribute changes that could increase the force —
    // growth or behavior-driven movement since the snapshot was taken.
    let behavior_changed = pos_now.distance_sq(&snap_position)
        > cfg.static_threshold * cfg.static_threshold
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
    // Box-batched fast path: positions AND diameters stream from the
    // grid's box-sorted arrays, the stencil is resolved once per box, and
    // one branchless pass compacts the candidates within the shell radius
    // that the force sum and the wake below both walk. Bit-identical to
    // the fallback: same visit order (shared stencil traversal),
    // bitwise-copied diameters, and `sphere_sphere_sq` fed the scan's d²
    // equals `sphere_sphere` bit for bit (see its docs).
    let batched = cfg.box_batched
        && ctx.for_each_neighbor_mech(
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
        // Fallback (non-grid environments, unscattered diameters): the
        // neighbor position the index streamed (free) plus one lazy diameter
        // load per accepted neighbor — never the payload.
        neighbor_scratch.clear();
        let collect_neighbors = cfg.detect_static;
        ctx.for_each_neighbor(pos_now, cfg.search_radius, |idx, nd, d2| {
            let f =
                cfg.force
                    .sphere_sphere_sq(pos_now, diameter_now, nd.position(), nd.diameter(), d2);
            if f != Real3::ZERO {
                nonzero_forces += 1;
                total_force += f;
            }
            if collect_neighbors {
                neighbor_scratch.push(idx as u32);
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
    let moved = norm > cfg.static_threshold;
    if moved {
        agent.set_position(pos_now + displacement);
    }

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
                let served =
                    ctx.wake_from_shell(cfg.search_radius, covered.then_some(pos_new), raise);
                ctx.exec.shell_wakes += u64::from(served);
                served
            } else {
                neighbor_scratch.iter().for_each(|&n| raise(n as usize));
                false
            };
            if moved && !new_woken {
                ctx.for_each_neighbor(pos_new, cfg.search_radius, |idx, _nd, _d2| raise(idx));
            }
        } else {
            // Did not move, nothing changed; condition (iv) allows at most
            // one non-zero neighbor force (so that a shrinking or removed
            // neighbor cannot release a hidden counter-force).
            flags.is_static = nonzero_forces <= 1;
        }
    }
    false
}
