//! First-class operations and the scheduler (paper Section 2, Algorithm 1).
//!
//! The paper organizes one simulation iteration as an ordered list of
//! *operations*: pre standalone operations (snapshot, environment update),
//! agent operations (behaviors + mechanics, executed per agent in parallel),
//! standalone operations (diffusion, user tasks), and post standalone
//! operations (teardown/commit, agent sorting). Each operation carries an
//! execution *frequency*: an operation with frequency `f` runs on every
//! iteration that is a multiple of `f` (iterations count from 1).
//!
//! [`Scheduler`] owns that ordered list and is the single place where
//! pipeline stages are added, removed, re-timed, or toggled;
//! [`Simulation::step`](crate::simulation::Simulation::step) contains no
//! phase logic of its own — it asks the scheduler which operations are due,
//! times each one, and runs it. The built-in phases are themselves
//! registered as operations (see [`builtin`] for their names), so the
//! Figure 5 runtime breakdown is derived directly from per-operation
//! scheduler timings.

use std::time::Duration;

use bdm_util::{TimeBuckets, Timer};

use crate::simulation::{Simulation, StandaloneOp};

/// Built-in operation names (also the Figure 5 phase/bucket names).
pub mod builtin {
    /// Gathers positions/diameters/payloads into the iteration snapshot.
    pub const SNAPSHOT: &str = "snapshot";
    /// Partitions the snapshot across shards and rebuilds the per-shard
    /// halo clouds (registered when
    /// [`Param::shards`](crate::param::Param::shards) > 1; see
    /// [`crate::sharded`]).
    pub const HALO_EXCHANGE: &str = "halo_exchange";
    /// Rebuilds the neighbor-search index (uniform grid / kd-tree / octree).
    pub const ENVIRONMENT: &str = "environment_update";
    /// Behaviors + mechanical forces for every agent, in parallel.
    pub const AGENT_OPS: &str = "agent_ops";
    /// Applies queued secretions and steps the diffusion grids.
    pub const DIFFUSION: &str = "diffusion";
    /// Deferred mutations and the parallel commit of additions/removals.
    pub const TEARDOWN: &str = "teardown";
    /// Space-filling-curve agent sorting and NUMA balancing (Section 4.2).
    pub const AGENT_SORTING: &str = "agent_sorting";
    /// Timing bucket that aggregates the diffusion operation and all
    /// user-registered standalone operations (legacy Figure 5 name).
    pub const STANDALONE_BUCKET: &str = "standalone_ops";
    /// Health-sentinel scan (registered when
    /// [`Param::health`](crate::param::Param::health) is set; see
    /// [`crate::supervisor`]).
    pub const HEALTH_CHECK: &str = "health_check";
}

/// Where in the iteration an operation executes (paper Algorithm 1).
///
/// The scheduler keeps its list ordered by kind: all `Pre` operations run
/// before all `Agent` operations, which run before all `Standalone`
/// operations, which run before all `Post` operations. Within a kind,
/// registration order is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Pre standalone operations: run before the agent phase (L3–5).
    Pre,
    /// Agent operations: the per-agent parallel phase (L7–11).
    Agent,
    /// Standalone operations: once per due iteration, after the agent
    /// phase (L12–14).
    Standalone,
    /// Post standalone operations: teardown, commit, sorting (L16–18).
    Post,
}

impl OpKind {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Pre => "pre",
            OpKind::Agent => "agent",
            OpKind::Standalone => "standalone",
            OpKind::Post => "post",
        }
    }

    fn group(self) -> u8 {
        match self {
            OpKind::Pre => 0,
            OpKind::Agent => 1,
            OpKind::Standalone => 2,
            OpKind::Post => 3,
        }
    }
}

/// Execution context handed to every operation: full access to the
/// [`Simulation`] plus the per-iteration scratch the built-in phases
/// communicate through (interaction radius, commit statistics).
///
/// Derefs to [`Simulation`], so `ctx.num_agents()`,
/// `ctx.resource_manager_mut()`, `ctx.diffusion_grid(0)` etc. all work
/// directly.
pub struct SimulationCtx<'a> {
    /// The simulation being stepped.
    pub sim: &'a mut Simulation,
}

impl std::ops::Deref for SimulationCtx<'_> {
    type Target = Simulation;
    fn deref(&self) -> &Simulation {
        self.sim
    }
}

impl std::ops::DerefMut for SimulationCtx<'_> {
    fn deref_mut(&mut self) -> &mut Simulation {
        self.sim
    }
}

/// A schedulable pipeline stage (paper Section 2: "operations").
///
/// Implement this trait to add custom stages to the engine via
/// [`Scheduler::add_op`] or
/// [`SimulationBuilder::operation`](crate::builder::SimulationBuilder::operation).
/// The scheduler copies [`Operation::frequency`] once at registration;
/// re-time a registered operation with [`Scheduler::set_frequency`].
pub trait Operation: Send {
    /// Unique name; used for lookup, reordering, and the timing report.
    fn name(&self) -> &str;

    /// Where in the iteration this operation runs.
    fn kind(&self) -> OpKind;

    /// Initial execution frequency: run on every iteration that is a
    /// multiple of this value (iterations count from 1). Defaults to 1 —
    /// every iteration.
    fn frequency(&self) -> u64 {
        1
    }

    /// Whether the operation additionally runs on iteration 1 even when
    /// its frequency would first make it due later. Copied once at
    /// registration, like [`Operation::frequency`]. Defaults to `false`.
    ///
    /// The built-in `agent_sorting` operation opts in: agents sit in
    /// initialization order until the first sort, and with the usual
    /// frequency of 10 the entire first window of a simulation would run
    /// its neighbor phase over a cache-hostile layout (paper Section 4.2 —
    /// sorting exists precisely to align memory order with space). One
    /// sort up front makes iteration 2 onwards spatially coherent.
    fn runs_on_first_iteration(&self) -> bool {
        false
    }

    /// Executes the operation for the current iteration.
    fn run(&mut self, ctx: &mut SimulationCtx<'_>);
}

/// Introspection record for one scheduled operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpInfo {
    /// Operation name.
    pub name: String,
    /// Phase kind.
    pub kind: OpKind,
    /// Current execution frequency.
    pub frequency: u64,
    /// Whether the operation is currently enabled.
    pub enabled: bool,
    /// Accumulated wall-clock time across all executions.
    pub total: Duration,
    /// Number of times the operation has run.
    pub runs: u64,
}

/// One entry of the scheduler's ordered op list.
pub(crate) struct ScheduledOp {
    op: Box<dyn Operation>,
    kind: OpKind,
    frequency: u64,
    /// Also due on iteration 1 regardless of `frequency`
    /// ([`Operation::runs_on_first_iteration`]).
    due_at_first: bool,
    enabled: bool,
    /// Timing bucket this op's runtime is attributed to (Figure 5 names).
    bucket: String,
    total: Duration,
    runs: u64,
}

impl ScheduledOp {
    fn new(op: Box<dyn Operation>, bucket: Option<String>) -> ScheduledOp {
        let kind = op.kind();
        let frequency = op.frequency().max(1);
        let due_at_first = op.runs_on_first_iteration();
        let bucket = bucket.unwrap_or_else(|| op.name().to_string());
        ScheduledOp {
            op,
            kind,
            frequency,
            due_at_first,
            enabled: true,
            bucket,
            total: Duration::ZERO,
            runs: 0,
        }
    }
}

/// A structural edit requested while the op list was detached (i.e. from
/// inside a running operation); applied when the iteration finishes.
enum DeferredEdit {
    SetFrequency(String, u64),
    SetEnabled(String, bool),
    Remove(String),
}

/// Owner of the ordered operation list; drives which operations are due
/// each iteration and accumulates per-operation wall-clock timings.
///
/// # Example
///
/// Operations register into kind groups and can be re-timed, toggled, and
/// inspected by name:
///
/// ```
/// use bdm_core::scheduler::{OpKind, Operation, Scheduler, SimulationCtx};
///
/// struct Census;
/// impl Operation for Census {
///     fn name(&self) -> &str { "census" }
///     fn kind(&self) -> OpKind { OpKind::Standalone }
///     fn frequency(&self) -> u64 { 5 } // every 5th iteration
///     fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
///         let _agents = ctx.num_agents();
///     }
/// }
///
/// let mut scheduler = Scheduler::new();
/// scheduler.add_op(Census);
/// assert_eq!(scheduler.frequency("census"), Some(5));
/// assert!(scheduler.is_enabled("census"));
///
/// scheduler.set_frequency("census", 2); // re-time at runtime
/// scheduler.set_enabled("census", false); // or park it without removing
/// assert_eq!(scheduler.op_names(), vec!["census"]);
/// ```
///
/// Inside a running [`Simulation`] the scheduler owns the whole pipeline —
/// the built-in phases are ordinary operations (see [`builtin`]) — and
/// [`Scheduler::ops`] reports their accumulated wall-clock timings.
#[derive(Default)]
pub struct Scheduler {
    entries: Vec<ScheduledOp>,
    /// True while `Simulation::step` runs the detached op list.
    detached: bool,
    /// Edits requested from inside a running operation.
    deferred: Vec<DeferredEdit>,
    /// [`OpInfo`] snapshot of the pipeline captured when the op list was
    /// last detached: while an iteration runs, `entries` is empty, so
    /// introspection from *inside* an operation (the mid-window checkpoint)
    /// reads this instead of [`Scheduler::ops`].
    pipeline_info: Vec<OpInfo>,
}

impl Scheduler {
    /// An empty scheduler (no operations registered).
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// Registers an operation at the end of its kind group (all `Pre` ops
    /// run before all `Agent` ops, and so on; see [`OpKind`]).
    pub fn add_op(&mut self, op: impl Operation + 'static) {
        self.add_boxed_op(Box::new(op));
    }

    /// [`Scheduler::add_op`] for an already-boxed operation.
    pub fn add_boxed_op(&mut self, op: Box<dyn Operation>) {
        self.insert_grouped(ScheduledOp::new(op, None));
    }

    /// Registers an operation with an explicit timing bucket (used for the
    /// built-in phases and legacy standalone closures).
    pub(crate) fn add_op_in_bucket(&mut self, op: Box<dyn Operation>, bucket: &str) {
        self.insert_grouped(ScheduledOp::new(op, Some(bucket.to_string())));
    }

    /// Inserts `op` immediately before the operation named `anchor`
    /// (ignoring kind groups). Returns `false` if `anchor` is not
    /// registered; the op is not added in that case.
    pub fn add_op_before(&mut self, anchor: &str, op: impl Operation + 'static) -> bool {
        match self.position(anchor) {
            Some(idx) => {
                self.entries
                    .insert(idx, ScheduledOp::new(Box::new(op), None));
                true
            }
            None => false,
        }
    }

    /// Inserts `op` immediately after the operation named `anchor`
    /// (ignoring kind groups). Returns `false` if `anchor` is not
    /// registered; the op is not added in that case.
    pub fn add_op_after(&mut self, anchor: &str, op: impl Operation + 'static) -> bool {
        match self.position(anchor) {
            Some(idx) => {
                self.entries
                    .insert(idx + 1, ScheduledOp::new(Box::new(op), None));
                true
            }
            None => false,
        }
    }

    /// Removes the operation named `name`. Returns `false` if absent.
    ///
    /// From inside a running operation the removal is deferred to the end
    /// of the iteration; `true` then means *accepted* (the edit is dropped
    /// if no such op exists).
    pub fn remove_op(&mut self, name: &str) -> bool {
        match self.position(name) {
            Some(idx) => {
                self.entries.remove(idx);
                true
            }
            None if self.detached => {
                self.deferred.push(DeferredEdit::Remove(name.to_string()));
                true
            }
            None => false,
        }
    }

    /// Re-times the operation named `name` to run every `frequency`
    /// iterations (clamped to ≥ 1) and enables it. Returns `false` if
    /// absent.
    ///
    /// From inside a running operation the edit is deferred to the end of
    /// the iteration; `true` then means *accepted* (the edit is dropped if
    /// no such op exists).
    pub fn set_frequency(&mut self, name: &str, frequency: u64) -> bool {
        if let Some(e) = self.entry_mut(name) {
            e.frequency = frequency.max(1);
            e.enabled = true;
            true
        } else if self.detached {
            self.deferred
                .push(DeferredEdit::SetFrequency(name.to_string(), frequency));
            true
        } else {
            false
        }
    }

    /// Enables or disables the operation named `name` without removing it.
    /// Returns `false` if absent.
    ///
    /// From inside a running operation the edit is deferred to the end of
    /// the iteration; `true` then means *accepted* (the edit is dropped if
    /// no such op exists).
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> bool {
        if let Some(e) = self.entry_mut(name) {
            e.enabled = enabled;
            true
        } else if self.detached {
            self.deferred
                .push(DeferredEdit::SetEnabled(name.to_string(), enabled));
            true
        } else {
            false
        }
    }

    /// The current frequency of the operation named `name`.
    pub fn frequency(&self, name: &str) -> Option<u64> {
        self.entry(name).map(|e| e.frequency)
    }

    /// Whether the operation named `name` is registered and enabled.
    pub fn is_enabled(&self, name: &str) -> bool {
        self.entry(name).is_some_and(|e| e.enabled)
    }

    /// Whether an operation named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.position(name).is_some()
    }

    /// Number of registered operations.
    pub fn num_ops(&self) -> usize {
        self.entries.len()
    }

    /// Introspection snapshot of every operation, in execution order.
    pub fn ops(&self) -> Vec<OpInfo> {
        Scheduler::infos(&self.entries)
    }

    fn infos(entries: &[ScheduledOp]) -> Vec<OpInfo> {
        entries
            .iter()
            .map(|e| OpInfo {
                name: e.op.name().to_string(),
                kind: e.kind,
                frequency: e.frequency,
                enabled: e.enabled,
                total: e.total,
                runs: e.runs,
            })
            .collect()
    }

    /// The pipeline as it stood when the current iteration started. Outside
    /// an iteration this equals [`Scheduler::ops`]; *inside* one (the op
    /// list is detached and `ops()` sees only operations registered during
    /// the iteration) it reports the pre-iteration snapshot — the view a
    /// mid-window checkpoint must serialize.
    pub fn pipeline_info(&self) -> Vec<OpInfo> {
        if self.detached {
            self.pipeline_info.clone()
        } else {
            self.ops()
        }
    }

    /// True while the op list is detached, i.e. the scheduler is currently
    /// running an iteration and the caller sits inside an operation.
    pub fn mid_iteration(&self) -> bool {
        self.detached
    }

    /// Operation names in execution order.
    pub fn op_names(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| e.op.name().to_string())
            .collect()
    }

    /// The per-phase wall-clock buckets derived from the per-operation
    /// timings (the Figure 5 runtime breakdown). Built-in phases map to the
    /// legacy bucket names; user operations registered through
    /// [`Simulation::add_standalone_op`] aggregate into `"standalone_ops"`,
    /// and custom [`Operation`]s appear under their own name.
    pub fn time_buckets(&self) -> TimeBuckets {
        let mut buckets = TimeBuckets::new();
        for e in &self.entries {
            if e.runs > 0 {
                buckets.add(&e.bucket, e.total);
            }
        }
        buckets
    }

    /// Resets all accumulated timings and run counts.
    pub fn reset_timings(&mut self) {
        for e in &mut self.entries {
            e.total = Duration::ZERO;
            e.runs = 0;
        }
    }

    /// Whether the entry is due on `iteration` (iterations count from 1).
    fn is_due(entry: &ScheduledOp, iteration: u64) -> bool {
        entry.enabled
            && (iteration.is_multiple_of(entry.frequency) || (entry.due_at_first && iteration == 1))
    }

    /// Executes one iteration over a detached op list (see
    /// [`Scheduler::take_entries`]): for each due op, time it, run it.
    pub(crate) fn run_iteration(entries: &mut [ScheduledOp], ctx: &mut SimulationCtx<'_>) {
        let iteration = ctx.sim.iteration();
        for entry in entries.iter_mut() {
            if !Scheduler::is_due(entry, iteration) {
                continue;
            }
            // Named injection site: a planned fault scheduled before this
            // operation fires here (no-op unless a plan is attached).
            ctx.sim.fire_op_fault(entry.op.name());
            let t = Timer::start();
            entry.op.run(ctx);
            entry.total += t.elapsed();
            entry.runs += 1;
        }
    }

    /// Detaches the op list so `step` can run it while operations retain
    /// `&mut Simulation` access (and may register further ops, which land
    /// in the now-empty list and are merged back by
    /// [`Scheduler::put_entries`]).
    pub(crate) fn take_entries(&mut self) -> Vec<ScheduledOp> {
        self.detached = true;
        self.pipeline_info = Scheduler::infos(&self.entries);
        std::mem::take(&mut self.entries)
    }

    /// Restores the detached op list. Operations registered while it was
    /// detached are re-inserted into their kind groups, then deferred
    /// re-time/toggle/remove edits are applied — both take effect from the
    /// next iteration.
    pub(crate) fn put_entries(&mut self, main: Vec<ScheduledOp>) {
        let added = std::mem::replace(&mut self.entries, main);
        for e in added {
            self.insert_grouped(e);
        }
        self.detached = false;
        for edit in std::mem::take(&mut self.deferred) {
            match edit {
                DeferredEdit::SetFrequency(name, freq) => {
                    self.set_frequency(&name, freq);
                }
                DeferredEdit::SetEnabled(name, enabled) => {
                    self.set_enabled(&name, enabled);
                }
                DeferredEdit::Remove(name) => {
                    self.remove_op(&name);
                }
            }
        }
    }

    fn insert_grouped(&mut self, entry: ScheduledOp) {
        let group = entry.kind.group();
        let idx = self
            .entries
            .iter()
            .position(|e| e.kind.group() > group)
            .unwrap_or(self.entries.len());
        self.entries.insert(idx, entry);
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.op.name() == name)
    }

    fn entry(&self, name: &str) -> Option<&ScheduledOp> {
        self.entries.iter().find(|e| e.op.name() == name)
    }

    fn entry_mut(&mut self, name: &str) -> Option<&mut ScheduledOp> {
        self.entries.iter_mut().find(|e| e.op.name() == name)
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("ops", &self.op_names())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Built-in operations: the phases of Algorithm 1, extracted from the old
// monolithic `Simulation::step`. Each one delegates to a `pub(crate)` phase
// method on `Simulation` so the split-borrow internals stay in simulation.rs.
// ---------------------------------------------------------------------------

pub(crate) struct SnapshotOp;

impl Operation for SnapshotOp {
    fn name(&self) -> &str {
        builtin::SNAPSHOT
    }
    fn kind(&self) -> OpKind {
        OpKind::Pre
    }
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        ctx.sim.phase_snapshot();
    }
}

pub(crate) struct HaloExchangeOp;

impl Operation for HaloExchangeOp {
    fn name(&self) -> &str {
        builtin::HALO_EXCHANGE
    }
    fn kind(&self) -> OpKind {
        OpKind::Pre
    }
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        ctx.sim.phase_halo_exchange();
    }
}

pub(crate) struct EnvironmentOp;

impl Operation for EnvironmentOp {
    fn name(&self) -> &str {
        builtin::ENVIRONMENT
    }
    fn kind(&self) -> OpKind {
        OpKind::Pre
    }
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        ctx.sim.phase_environment();
    }
}

pub(crate) struct AgentOp;

impl Operation for AgentOp {
    fn name(&self) -> &str {
        builtin::AGENT_OPS
    }
    fn kind(&self) -> OpKind {
        OpKind::Agent
    }
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        ctx.sim.phase_agent_ops();
    }
}

pub(crate) struct DiffusionOp;

impl Operation for DiffusionOp {
    fn name(&self) -> &str {
        builtin::DIFFUSION
    }
    fn kind(&self) -> OpKind {
        OpKind::Standalone
    }
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        ctx.sim.phase_diffusion();
    }
}

pub(crate) struct TeardownOp;

impl Operation for TeardownOp {
    fn name(&self) -> &str {
        builtin::TEARDOWN
    }
    fn kind(&self) -> OpKind {
        OpKind::Post
    }
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        ctx.sim.phase_teardown();
    }
}

pub(crate) struct SortingOp;

impl Operation for SortingOp {
    fn runs_on_first_iteration(&self) -> bool {
        // One sort up front: iteration 2 onwards runs the neighbor phase
        // over a spatially coherent layout instead of initialization order
        // (measured −40% agent_ops at 10⁶ on unsorted clustering).
        true
    }
    fn name(&self) -> &str {
        builtin::AGENT_SORTING
    }
    fn kind(&self) -> OpKind {
        OpKind::Post
    }
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        ctx.sim.phase_sorting();
    }
}

/// Adapter turning a legacy `FnMut(&mut Simulation)` closure (see
/// [`Simulation::add_standalone_op`]) into an [`Operation`].
pub(crate) struct ClosureOp {
    name: String,
    frequency: u64,
    f: StandaloneOp,
}

impl ClosureOp {
    pub(crate) fn new(name: String, frequency: u64, f: StandaloneOp) -> ClosureOp {
        ClosureOp { name, frequency, f }
    }
}

impl Operation for ClosureOp {
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> OpKind {
        OpKind::Standalone
    }
    fn frequency(&self) -> u64 {
        self.frequency
    }
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        (self.f)(ctx.sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop {
        name: &'static str,
        kind: OpKind,
        freq: u64,
    }

    impl Operation for Noop {
        fn name(&self) -> &str {
            self.name
        }
        fn kind(&self) -> OpKind {
            self.kind
        }
        fn frequency(&self) -> u64 {
            self.freq
        }
        fn run(&mut self, _ctx: &mut SimulationCtx<'_>) {}
    }

    fn noop(name: &'static str, kind: OpKind) -> Noop {
        Noop {
            name,
            kind,
            freq: 1,
        }
    }

    #[test]
    fn kind_groups_stay_ordered() {
        let mut s = Scheduler::new();
        s.add_op(noop("post1", OpKind::Post));
        s.add_op(noop("pre1", OpKind::Pre));
        s.add_op(noop("standalone1", OpKind::Standalone));
        s.add_op(noop("agent1", OpKind::Agent));
        s.add_op(noop("pre2", OpKind::Pre));
        assert_eq!(
            s.op_names(),
            vec!["pre1", "pre2", "agent1", "standalone1", "post1"]
        );
    }

    #[test]
    fn anchored_insertion_and_removal() {
        let mut s = Scheduler::new();
        s.add_op(noop("a", OpKind::Standalone));
        s.add_op(noop("c", OpKind::Standalone));
        assert!(s.add_op_before("c", noop("b", OpKind::Standalone)));
        assert!(s.add_op_after("c", noop("d", OpKind::Standalone)));
        assert_eq!(s.op_names(), vec!["a", "b", "c", "d"]);
        assert!(!s.add_op_before("missing", noop("x", OpKind::Standalone)));
        assert!(s.remove_op("b"));
        assert!(!s.remove_op("b"));
        assert_eq!(s.op_names(), vec!["a", "c", "d"]);
    }

    #[test]
    fn frequency_and_enablement() {
        let mut s = Scheduler::new();
        s.add_op(Noop {
            name: "op",
            kind: OpKind::Standalone,
            freq: 7,
        });
        assert_eq!(s.frequency("op"), Some(7));
        assert!(s.is_enabled("op"));
        assert!(s.set_enabled("op", false));
        assert!(!s.is_enabled("op"));
        // set_frequency re-enables and clamps to >= 1.
        assert!(s.set_frequency("op", 0));
        assert_eq!(s.frequency("op"), Some(1));
        assert!(s.is_enabled("op"));
        assert!(!s.set_frequency("missing", 3));
        assert_eq!(s.frequency("missing"), None);
    }

    #[test]
    fn due_semantics_are_multiples_of_frequency() {
        let entry = ScheduledOp::new(
            Box::new(Noop {
                name: "op",
                kind: OpKind::Standalone,
                freq: 3,
            }),
            None,
        );
        let due: Vec<u64> = (1..=10).filter(|&i| Scheduler::is_due(&entry, i)).collect();
        assert_eq!(due, vec![3, 6, 9]);
        let mut disabled = entry;
        disabled.enabled = false;
        assert!(!Scheduler::is_due(&disabled, 3));
    }

    #[test]
    fn first_iteration_opt_in_runs_once_up_front() {
        struct FirstToo;
        impl Operation for FirstToo {
            fn name(&self) -> &str {
                "first_too"
            }
            fn kind(&self) -> OpKind {
                OpKind::Post
            }
            fn frequency(&self) -> u64 {
                10
            }
            fn runs_on_first_iteration(&self) -> bool {
                true
            }
            fn run(&mut self, _ctx: &mut SimulationCtx<'_>) {}
        }
        let mut s = Scheduler::new();
        s.add_op(FirstToo);
        let due: Vec<u64> = (1..=21)
            .filter(|&i| Scheduler::is_due(&s.entries[0], i))
            .collect();
        assert_eq!(due, vec![1, 10, 20], "first iteration plus multiples");
        // Plain ops keep the multiples-only semantics.
        let plain = ScheduledOp::new(
            Box::new(Noop {
                name: "plain",
                kind: OpKind::Post,
                freq: 10,
            }),
            None,
        );
        assert!(!Scheduler::is_due(&plain, 1));
        // Disabling parks the first-iteration run too.
        s.entries[0].enabled = false;
        assert!(!Scheduler::is_due(&s.entries[0], 1));
    }

    #[test]
    fn buckets_aggregate_by_bucket_name() {
        let mut s = Scheduler::new();
        s.add_op_in_bucket(
            Box::new(noop("user1", OpKind::Standalone)),
            builtin::STANDALONE_BUCKET,
        );
        s.add_op_in_bucket(
            Box::new(noop("user2", OpKind::Standalone)),
            builtin::STANDALONE_BUCKET,
        );
        s.entries[0].total = Duration::from_millis(2);
        s.entries[0].runs = 1;
        s.entries[1].total = Duration::from_millis(3);
        s.entries[1].runs = 1;
        let buckets = s.time_buckets();
        assert_eq!(
            buckets.get(builtin::STANDALONE_BUCKET),
            Some(Duration::from_millis(5))
        );
        s.reset_timings();
        assert_eq!(s.time_buckets().total(), Duration::ZERO);
    }

    #[test]
    fn ops_snapshot_reports_state() {
        let mut s = Scheduler::new();
        s.add_op(Noop {
            name: "op",
            kind: OpKind::Pre,
            freq: 5,
        });
        let info = &s.ops()[0];
        assert_eq!(info.name, "op");
        assert_eq!(info.kind, OpKind::Pre);
        assert_eq!(info.frequency, 5);
        assert!(info.enabled);
        assert_eq!(info.runs, 0);
        assert_eq!(s.num_ops(), 1);
        assert!(s.contains("op"));
        assert_eq!(OpKind::Agent.label(), "agent");
    }
}
