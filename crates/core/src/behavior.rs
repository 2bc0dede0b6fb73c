//! Behaviors — functions attached to individual agents (paper Section 2:
//! "Behaviors are functions that can be assigned and removed from an agent
//! and give users fine-grained control over the actions of an agent").
//!
//! Like agents, behaviors are pool-allocated trait objects so that the
//! memory-layout optimizations of Section 4.3 cover them ("the most
//! frequently allocated objects in a simulation: agents and behaviors").

use bdm_alloc::{MemoryManager, PoolBox};

use crate::agent::Agent;
use crate::context::AgentContext;

/// Owning pointer to a type-erased behavior in pool memory.
pub type BehaviorBox = PoolBox<dyn Behavior>;

/// What should happen to the behavior after it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BehaviorControl {
    /// Keep the behavior attached (the default).
    #[default]
    Keep,
    /// Detach and drop the behavior after this run.
    RemoveSelf,
}

/// A behavior attached to an agent.
pub trait Behavior: Send + Sync {
    /// Executes the behavior for `agent`. `ctx` provides neighbor queries,
    /// random numbers, agent creation/removal, and substance access.
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl;

    /// Clones the behavior into pool memory of `domain` (used by agent
    /// sorting and by division when the behavior is copy-to-new).
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox;

    /// Whether the behavior is copied onto daughter agents created by
    /// division (BioDynaMo's "copy to new" flag).
    fn copy_to_new(&self) -> bool {
        true
    }

    /// Diagnostic name.
    fn name(&self) -> &'static str {
        "behavior"
    }

    /// Stable type tag identifying this behavior type in a checkpoint. The
    /// default `""` marks the type as **not checkpointable**: serializing an
    /// agent carrying it fails with a typed error instead of silently
    /// dropping the behavior. Tags are wire format — once published they
    /// must never change meaning.
    fn checkpoint_tag(&self) -> &'static str {
        ""
    }

    /// Serializes the behavior's state. The registered reader for
    /// [`Behavior::checkpoint_tag`] must consume exactly these bytes.
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        let _ = out;
    }
}

/// One-line implementation helper for [`Behavior::clone_behavior`].
pub fn clone_behavior_box<B: Behavior + Clone + 'static>(
    b: &B,
    mm: &MemoryManager,
    domain: usize,
) -> BehaviorBox {
    PoolBox::new_in(b.clone(), mm, domain).unsize(|p| p as *mut dyn Behavior)
}

/// Allocates a concrete behavior in pool memory and type-erases it.
pub fn new_behavior_box<B: Behavior + 'static>(
    b: B,
    mm: &MemoryManager,
    domain: usize,
) -> BehaviorBox {
    PoolBox::new_in(b, mm, domain).unsize(|p| p as *mut dyn Behavior)
}
