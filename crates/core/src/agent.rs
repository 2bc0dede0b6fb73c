//! Agents — the individual entities of the simulation (paper Section 2).
//!
//! Agents are stored as pool-allocated trait objects
//! ([`AgentBox`] = `PoolBox<dyn Agent>`), mirroring BioDynaMo's raw
//! `Agent*` vectors in the `ResourceManager`. Concrete agents embed an
//! [`AgentBase`] carrying the common state (uid, position, diameter,
//! behaviors) and implement the small amount of glue the engine cannot
//! provide generically (`base`, `as_any`).

use std::any::Any;

use bdm_alloc::{MemoryManager, PoolBox};
use bdm_util::Real3;

use crate::behavior::{BehaviorBox, BehaviorList};

/// Stable unique identifier of an agent.
///
/// Uids are derived deterministically (hash of parent uid and a per-parent
/// sequence number, see `ExecutionContext::new_agent`), so simulations with a
/// fixed seed produce identical uids regardless of thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentUid(pub u64);

/// Position of an agent inside the resource manager:
/// `(NUMA domain, index within the domain's agent vector)`.
///
/// Handles are invalidated by the end-of-iteration commit (removals swap
/// agents around) and by agent sorting; they must not be stored across
/// iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentHandle {
    /// NUMA domain.
    pub domain: u32,
    /// Index within the domain's agent vector.
    pub index: u32,
}

impl AgentHandle {
    /// Creates a handle.
    pub fn new(domain: usize, index: usize) -> AgentHandle {
        AgentHandle {
            domain: domain as u32,
            index: index as u32,
        }
    }
}

/// Owning pointer to a type-erased agent in pool memory.
pub type AgentBox = PoolBox<dyn Agent>;

/// Common per-agent state embedded in every concrete agent type.
pub struct AgentBase {
    uid: AgentUid,
    position: Real3,
    diameter: f64,
    behaviors: BehaviorList,
}

// Every concrete agent embeds the base, so a field added here moves every
// agent type up a pool size class (16-byte steps): fail the build instead.
// 40 bytes of state and the 64-byte behavior list that holds up to two
// behaviors inline: `Cell` is one 128-byte element, behaviors included.
const _: () = assert!(std::mem::size_of::<AgentBase>() == 104);

impl std::fmt::Debug for AgentBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentBase")
            .field("uid", &self.uid)
            .field("position", &self.position)
            .field("diameter", &self.diameter)
            .field("behaviors", &self.behaviors.len())
            .finish()
    }
}

impl AgentBase {
    /// Creates a base with the given uid at the origin.
    pub fn new(uid: AgentUid) -> AgentBase {
        AgentBase {
            uid,
            position: Real3::ZERO,
            diameter: 10.0,
            behaviors: BehaviorList::default(),
        }
    }

    /// Uid accessor.
    pub fn uid(&self) -> AgentUid {
        self.uid
    }

    /// Replaces the uid (used when cloning an agent into a daughter).
    pub fn set_uid(&mut self, uid: AgentUid) {
        self.uid = uid;
    }

    /// Position accessor.
    pub fn position(&self) -> Real3 {
        self.position
    }

    /// Position setter.
    ///
    /// A non-finite position is *counted* (process-global write sentinel,
    /// see [`crate::supervisor::write_sentinel_counts`]) rather than
    /// asserted on: release builds used to silently store NaNs here and
    /// debug builds aborted the whole process. The health sentinel turns
    /// the stored value into a typed violation on its next scan.
    pub fn set_position(&mut self, p: Real3) {
        if !p.is_finite() {
            crate::supervisor::flag_nonfinite_position();
        }
        self.position = p;
    }

    /// Diameter accessor.
    pub fn diameter(&self) -> f64 {
        self.diameter
    }

    /// Diameter setter.
    ///
    /// Like [`AgentBase::set_position`], an invalid (non-finite or negative)
    /// diameter is counted by the write sentinel instead of asserted on.
    pub fn set_diameter(&mut self, d: f64) {
        if !(d.is_finite() && d >= 0.0) {
            crate::supervisor::flag_invalid_diameter();
        }
        self.diameter = d;
    }

    /// The agent's behaviors.
    pub fn behaviors(&self) -> &[BehaviorBox] {
        self.behaviors.as_slice()
    }

    /// Adds a behavior.
    pub fn add_behavior(&mut self, b: BehaviorBox) {
        self.behaviors.push(b);
    }

    /// Takes the behavior list out (the engine runs behaviors detached from
    /// the agent to satisfy the borrow checker, then puts them back).
    pub(crate) fn take_behaviors(&mut self) -> BehaviorList {
        std::mem::take(&mut self.behaviors)
    }

    /// Puts the behavior list back after execution. Behaviors the agent
    /// added *during* execution were pushed onto the (temporarily empty)
    /// list and are appended behind the surviving originals.
    pub(crate) fn put_behaviors(&mut self, mut original: BehaviorList) {
        original.append(std::mem::take(&mut self.behaviors));
        self.behaviors = original;
    }

    /// Clones the base for a *new* agent: copies position/diameter, clones
    /// behaviors that are marked copy-to-new, and assigns `new_uid`.
    pub fn clone_for_daughter(
        &self,
        new_uid: AgentUid,
        mm: &MemoryManager,
        domain: usize,
    ) -> AgentBase {
        AgentBase {
            uid: new_uid,
            position: self.position,
            diameter: self.diameter,
            behaviors: self
                .behaviors()
                .iter()
                .filter(|b| b.copy_to_new())
                .map(|b| b.clone_behavior(mm, domain))
                .collect(),
        }
    }
}

/// The agent trait (BioDynaMo's `Agent` class).
///
/// The agent sort moves an agent as its bytes into another pool element
/// (`crate::sorting`), so an implementation must not hold a pointer into
/// itself — which safe Rust cannot build anyway.
pub trait Agent: Send + Sync {
    /// Common state accessor.
    fn base(&self) -> &AgentBase;
    /// Common state accessor (mutable).
    fn base_mut(&mut self) -> &mut AgentBase;

    /// Stable unique id.
    fn uid(&self) -> AgentUid {
        self.base().uid()
    }

    /// Current position.
    fn position(&self) -> Real3 {
        self.base().position()
    }

    /// Moves the agent to `p`.
    fn set_position(&mut self, p: Real3) {
        self.base_mut().set_position(p);
    }

    /// Current diameter (interaction size).
    fn diameter(&self) -> f64 {
        self.base().diameter()
    }

    /// Sets the diameter.
    fn set_diameter(&mut self, d: f64) {
        self.base_mut().set_diameter(d);
    }

    /// A small user-defined value exposed to neighbors through the neighbor
    /// snapshot (e.g. cell type or infection state). Keeps neighbor reads
    /// data-race-free without locking agents.
    fn payload(&self) -> u64 {
        0
    }

    /// Whether the mechanical-forces operation applies to this agent.
    fn participates_in_mechanics(&self) -> bool {
        true
    }

    /// Stable type tag identifying this agent type in a checkpoint. The
    /// default `""` marks the type as **not checkpointable**: serializing a
    /// simulation containing it fails with a typed error instead of writing
    /// a checkpoint that cannot be restored. Tags are wire format — once
    /// published they must never change meaning.
    fn checkpoint_tag(&self) -> &'static str {
        ""
    }

    /// Serializes the type-specific state **beyond** the [`AgentBase`]
    /// fields (uid/position/diameter/behaviors travel separately, written
    /// by the checkpoint layer). The registered reader for
    /// [`Agent::checkpoint_tag`] must consume exactly these bytes.
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        let _ = out;
    }

    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support (mutable).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Allocates a concrete agent in pool memory and type-erases it.
pub fn new_agent_box<A: Agent + 'static>(agent: A, mm: &MemoryManager, domain: usize) -> AgentBox {
    PoolBox::new_in(agent, mm, domain).unsize(|p| p as *mut dyn Agent)
}

/// The default spherical agent (BioDynaMo's `Cell`).
pub struct Cell {
    base: AgentBase,
    /// Marker distinguishing cell populations (read by neighbors via
    /// [`Agent::payload`]).
    cell_type: u64,
    /// Volume-growth rate used by growth behaviors (µm³ per hour).
    growth_rate: f64,
    /// Diameter above which division behaviors trigger.
    division_threshold: f64,
}

impl Cell {
    /// Creates a cell with the given uid.
    pub fn new(uid: AgentUid) -> Cell {
        Cell {
            base: AgentBase::new(uid),
            cell_type: 0,
            growth_rate: 100.0,
            division_threshold: 14.0,
        }
    }

    /// Builder: position.
    pub fn with_position(mut self, p: Real3) -> Cell {
        self.base.set_position(p);
        self
    }

    /// Builder: diameter.
    pub fn with_diameter(mut self, d: f64) -> Cell {
        self.base.set_diameter(d);
        self
    }

    /// Builder: cell type marker.
    pub fn with_cell_type(mut self, t: u64) -> Cell {
        self.cell_type = t;
        self
    }

    /// Builder: volume growth rate.
    pub fn with_growth_rate(mut self, r: f64) -> Cell {
        self.growth_rate = r;
        self
    }

    /// Builder: division threshold diameter.
    pub fn with_division_threshold(mut self, t: f64) -> Cell {
        self.division_threshold = t;
        self
    }

    /// Cell type marker.
    pub fn cell_type(&self) -> u64 {
        self.cell_type
    }

    /// Volume growth rate.
    pub fn growth_rate(&self) -> f64 {
        self.growth_rate
    }

    /// Division threshold diameter.
    pub fn division_threshold(&self) -> f64 {
        self.division_threshold
    }

    /// Cell volume (sphere).
    pub fn volume(&self) -> f64 {
        let r = self.diameter() / 2.0;
        4.0 / 3.0 * std::f64::consts::PI * r * r * r
    }

    /// Grows the cell by `delta_volume` (clamped at zero).
    pub fn change_volume(&mut self, delta_volume: f64) {
        let v = (self.volume() + delta_volume).max(0.0);
        let d = 2.0 * (3.0 * v / (4.0 * std::f64::consts::PI)).cbrt();
        self.set_diameter(d);
    }

    /// Splits this cell: shrinks it to half volume and returns the daughter
    /// placed `direction` away at the mother's radius.
    pub fn divide(
        &mut self,
        daughter_uid: AgentUid,
        direction: Real3,
        mm: &MemoryManager,
        domain: usize,
    ) -> Cell {
        let half_volume = self.volume() / 2.0;
        let new_diameter = 2.0 * (3.0 * half_volume / (4.0 * std::f64::consts::PI)).cbrt();
        self.set_diameter(new_diameter);
        let offset = direction.normalized() * (new_diameter / 2.0);
        let mother_pos = self.position();
        self.set_position(mother_pos - offset * 0.5);
        let mut daughter = Cell {
            base: self.base.clone_for_daughter(daughter_uid, mm, domain),
            cell_type: self.cell_type,
            growth_rate: self.growth_rate,
            division_threshold: self.division_threshold,
        };
        daughter.set_diameter(new_diameter);
        daughter.set_position(mother_pos + offset * 0.5);
        daughter
    }
}

impl Agent for Cell {
    fn base(&self) -> &AgentBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut AgentBase {
        &mut self.base
    }
    fn payload(&self) -> u64 {
        self.cell_type
    }
    fn checkpoint_tag(&self) -> &'static str {
        "core.Cell"
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        out.put_u64(self.cell_type);
        out.put_f64(self.growth_rate);
        out.put_f64(self.division_threshold);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::behavior::{clone_behavior_box, new_behavior_box, Behavior, BehaviorControl};
    use crate::context::AgentContext;
    use bdm_alloc::PoolConfig;

    fn mm() -> MemoryManager {
        MemoryManager::new(1, 1, PoolConfig::default())
    }

    /// A behavior known by its id: it runs `control` and, when `spawn` is
    /// set, attaches a behavior with that id to its agent during the run.
    #[derive(Clone)]
    pub(crate) struct Tagged {
        pub id: u8,
        pub control: BehaviorControl,
        pub copy: bool,
        pub spawn: Option<u8>,
    }

    impl Tagged {
        pub(crate) fn keep(id: u8) -> Tagged {
            Tagged {
                id,
                control: BehaviorControl::Keep,
                copy: true,
                spawn: None,
            }
        }
    }

    impl Behavior for Tagged {
        fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
            if let Some(id) = self.spawn.take() {
                let b = new_behavior_box(Tagged::keep(id), ctx.memory_manager(), 0);
                agent.base_mut().add_behavior(b);
            }
            self.control
        }
        fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
            clone_behavior_box(self, mm, domain)
        }
        fn copy_to_new(&self) -> bool {
            self.copy
        }
        fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
            out.put_u8(self.id);
        }
    }

    /// The ids of `behaviors`, in order.
    pub(crate) fn ids(behaviors: &[BehaviorBox]) -> Vec<u8> {
        behaviors
            .iter()
            .map(|b| {
                let mut w = bdm_util::ByteWriter::new();
                b.checkpoint_write(&mut w);
                w.as_slice()[0]
            })
            .collect()
    }

    fn tagged(id: u8, mm: &MemoryManager) -> BehaviorBox {
        new_behavior_box(Tagged::keep(id), mm, 0)
    }

    #[test]
    fn behavior_list_spills_at_three_and_shrinks_back() {
        let mm = mm();
        let mut list = BehaviorList::default();
        assert!(list.inline_len() == Some(0));
        list.push(tagged(1, &mm));
        assert!(list.inline_len() == Some(1));
        list.push(tagged(2, &mm));
        assert!(list.inline_len() == Some(2));
        list.push(tagged(3, &mm));
        assert!(list.inline_len().is_none());
        assert_eq!(ids(list.as_slice()), [1, 2, 3]);

        // Swap-remove moves the last behavior into the hole, and a list of
        // two returns inline.
        assert_eq!(ids(&[list.swap_remove(0)]), [1]);
        assert!(list.inline_len() == Some(2));
        assert_eq!(ids(list.as_slice()), [3, 2]);
        assert_eq!(ids(&[list.swap_remove(1)]), [2]);
        assert!(list.inline_len() == Some(1));
        assert_eq!(ids(&[list.swap_remove(0)]), [3]);
        assert!(list.inline_len() == Some(0));

        let mut list: BehaviorList = (1..=4).map(|id| tagged(id, &mm)).collect();
        assert_eq!(ids(list.as_slice()), [1, 2, 3, 4]);
        list.swap_remove(1);
        assert!(list.inline_len().is_none());
        assert_eq!(ids(list.as_slice()), [1, 4, 3]);
        list.append((5..=6).map(|id| tagged(id, &mm)).collect());
        assert_eq!(ids(list.as_slice()), [1, 4, 3, 5, 6]);
        drop(list);
        assert_eq!(mm.outstanding(), 0, "every behavior dropped exactly once");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn behavior_list_swap_remove_out_of_bounds_panics() {
        let mm = mm();
        let mut list: BehaviorList = (1..=2).map(|id| tagged(id, &mm)).collect();
        list.swap_remove(2);
    }

    #[test]
    fn clone_for_daughter_filters_copy_to_new_in_order() {
        let mm = mm();
        let mut base = AgentBase::new(AgentUid(1));
        for id in 1..=4 {
            let b = Tagged {
                copy: id != 2,
                ..Tagged::keep(id)
            };
            base.add_behavior(new_behavior_box(b, &mm, 0));
        }
        let daughter = base.clone_for_daughter(AgentUid(2), &mm, 0);
        assert_eq!(ids(daughter.behaviors()), [1, 3, 4]);
        assert!(daughter.behaviors.inline_len().is_none());
        assert_eq!(ids(base.behaviors()), [1, 2, 3, 4], "the mother keeps all");
        base.behaviors.swap_remove(0);
        base.behaviors.swap_remove(0);
        let second = base.clone_for_daughter(AgentUid(3), &mm, 0);
        assert_eq!(ids(second.behaviors()), [3]);
        assert!(second.behaviors.inline_len() == Some(1));
        drop((base, daughter, second));
        assert_eq!(mm.outstanding(), 0);
    }

    #[test]
    fn base_accessors() {
        let mut b = AgentBase::new(AgentUid(7));
        assert_eq!(b.uid(), AgentUid(7));
        b.set_position(Real3::new(1.0, 2.0, 3.0));
        b.set_diameter(5.0);
        assert_eq!(b.position(), Real3::new(1.0, 2.0, 3.0));
        assert_eq!(b.diameter(), 5.0);
    }

    #[test]
    fn cell_volume_roundtrip() {
        let mut c = Cell::new(AgentUid(1)).with_diameter(10.0);
        let v = c.volume();
        c.change_volume(0.0);
        assert!((c.diameter() - 10.0).abs() < 1e-9);
        c.change_volume(v); // double the volume
        assert!((c.volume() - 2.0 * v).abs() < 1e-6);
        assert!(c.diameter() > 10.0 && c.diameter() < 20.0);
    }

    #[test]
    fn cell_division_conserves_volume() {
        let mm = mm();
        let mut mother = Cell::new(AgentUid(1))
            .with_diameter(14.0)
            .with_position(Real3::splat(5.0))
            .with_cell_type(3);
        let v_before = mother.volume();
        let daughter = mother.divide(AgentUid(2), Real3::new(1.0, 0.0, 0.0), &mm, 0);
        let v_after = mother.volume() + daughter.volume();
        assert!((v_before - v_after).abs() < 1e-6 * v_before);
        assert_eq!(daughter.cell_type(), 3);
        assert_eq!(daughter.uid(), AgentUid(2));
        assert_ne!(mother.position(), daughter.position());
        // Mother and daughter sit on opposite sides of the division axis.
        assert!(mother.position().x() < daughter.position().x());
    }

    #[test]
    fn type_erasure_roundtrip() {
        let mm = mm();
        let cell = Cell::new(AgentUid(9))
            .with_position(Real3::splat(1.0))
            .with_cell_type(5);
        let boxed: AgentBox = new_agent_box(cell, &mm, 0);
        assert_eq!(boxed.uid(), AgentUid(9));
        assert_eq!(boxed.payload(), 5);
        let cell_ref = boxed.as_any().downcast_ref::<Cell>().unwrap();
        assert_eq!(cell_ref.cell_type(), 5);
        drop(boxed);
        assert_eq!(mm.outstanding(), 0);
    }

    #[test]
    fn handles() {
        let h = AgentHandle::new(2, 40);
        assert_eq!(h.domain, 2);
        assert_eq!(h.index, 40);
    }
}
