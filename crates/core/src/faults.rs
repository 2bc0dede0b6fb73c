//! Deterministic fault injection for recovery testing.
//!
//! Recovery paths that are only exercised when hardware misbehaves are
//! recovery paths that do not work. This module makes faults a first-class,
//! *seeded* input: a [`FaultPlan`] lists planned faults as
//! `(site × iteration × kind)` triples, the engine consults the plan at a
//! small set of named [`FaultSite`]s (before each scheduled operation, at
//! grid rebuild, at checkpoint capture), and each fault fires **exactly
//! once** — so after the supervisor restores a checkpoint and replays the
//! window, the fault does not re-fire and the retry converges to the
//! uninterrupted trajectory bit-for-bit.
//!
//! Plans are either hand-built ([`FaultPlan::push`]) for targeted tests or
//! derived from a seed ([`FaultPlan::seeded`]) for soak runs; both are fully
//! deterministic.

use bdm_util::SimRng;

/// Where in the engine a fault fires.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Immediately before the scheduler runs the named operation (built-in
    /// names live in [`builtin`](crate::scheduler::builtin)).
    BeforeOp(String),
    /// At the start of the environment (neighbor-index) rebuild phase.
    GridRebuild,
    /// When a supervisor captures a checkpoint into its ring. Faults at this
    /// site are handled by the capture path itself, which is how the
    /// checkpoint-targeted kinds ([`FaultKind::CheckpointBitFlip`],
    /// [`FaultKind::SkippedCapture`]) act on the supervisor's ring.
    CheckpointCapture,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::BeforeOp(name) => write!(f, "before op `{name}`"),
            FaultSite::GridRebuild => write!(f, "grid rebuild"),
            FaultSite::CheckpointCapture => write!(f, "checkpoint capture"),
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (unwinds out of `Simulation::step`).
    Panic,
    /// Write `NaN` into the position of the agent at `agent_index`
    /// (reduced modulo the live agent count at fire time). Exercises the
    /// silent-corruption path: nothing unwinds, the health sentinel must
    /// *find* it.
    NanPosition {
        /// Index into the live agent set, reduced modulo the count.
        agent_index: usize,
    },
    /// Flip one bit of the newest checkpoint buffer (byte offset reduced
    /// modulo the buffer length). Only meaningful at
    /// [`FaultSite::CheckpointCapture`]; the corrupted buffer fails its
    /// checksum on restore, forcing fallback to an older ring entry.
    CheckpointBitFlip {
        /// Byte offset into the checkpoint buffer, reduced modulo its length.
        byte: u64,
    },
    /// Skip the due checkpoint capture entirely, leaving a gap in the ring —
    /// a later recovery must replay a longer window from an older entry.
    /// Only meaningful at [`FaultSite::CheckpointCapture`].
    SkippedCapture,
}

impl FaultKind {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::NanPosition { .. } => "nan position write",
            FaultKind::CheckpointBitFlip { .. } => "checkpoint bit flip",
            FaultKind::SkippedCapture => "skipped capture",
        }
    }
}

/// One planned fault: fire `kind` at `site` on `iteration`, once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    /// Where the fault fires.
    pub site: FaultSite,
    /// Iteration the fault fires on (iterations count from 1).
    pub iteration: u64,
    /// What the fault does.
    pub kind: FaultKind,
    fired: bool,
}

impl PlannedFault {
    /// Whether this fault has already fired.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

/// A deterministic schedule of faults to inject into a simulation.
///
/// Attach with
/// [`Simulation::set_fault_plan`](crate::simulation::Simulation::set_fault_plan).
/// The plan is plain data and travels *with* the failing run: a supervisor
/// transplants it onto the restored simulation so already-fired faults stay
/// fired across recoveries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a planned fault and returns the plan for chaining.
    pub fn push(mut self, site: FaultSite, iteration: u64, kind: FaultKind) -> FaultPlan {
        self.faults.push(PlannedFault {
            site,
            iteration,
            kind,
            fired: false,
        });
        self
    }

    /// Derives a plan of `count` faults from `seed`: sites drawn from
    /// `sites`, iterations uniform in `[first_iteration, last_iteration]`,
    /// kinds alternating over panics and NaN writes (the two kinds that are
    /// meaningful at simulation sites; use [`FaultPlan::push`] for the
    /// checkpoint-targeted kinds). Fully deterministic for a fixed seed.
    pub fn seeded(
        seed: u64,
        sites: &[FaultSite],
        first_iteration: u64,
        last_iteration: u64,
        count: usize,
    ) -> FaultPlan {
        assert!(!sites.is_empty(), "seeded plan needs at least one site");
        assert!(first_iteration >= 1 && last_iteration >= first_iteration);
        let mut rng = SimRng::stream(seed, 0xFA17);
        let span = (last_iteration - first_iteration + 1) as usize;
        let mut plan = FaultPlan::new();
        for i in 0..count {
            let site = sites[rng.below(sites.len())].clone();
            let iteration = first_iteration + rng.below(span) as u64;
            let kind = if i % 2 == 0 {
                FaultKind::Panic
            } else {
                FaultKind::NanPosition {
                    agent_index: rng.below(usize::MAX / 2),
                }
            };
            plan = plan.push(site, iteration, kind);
        }
        plan
    }

    /// Number of planned faults (fired or not).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// Whether every planned fault has fired.
    pub fn all_fired(&self) -> bool {
        self.faults.iter().all(|f| f.fired)
    }

    /// Takes the first unfired fault matching `site` and `iteration`,
    /// marking it fired.
    pub fn take_due(&mut self, site: &FaultSite, iteration: u64) -> Option<FaultKind> {
        self.take_matching(iteration, |s| s == site)
    }

    /// [`FaultPlan::take_due`] for [`FaultSite::BeforeOp`] without
    /// allocating the site key.
    pub fn take_due_op(&mut self, op_name: &str, iteration: u64) -> Option<FaultKind> {
        self.take_matching(
            iteration,
            |s| matches!(s, FaultSite::BeforeOp(n) if n == op_name),
        )
    }

    fn take_matching(
        &mut self,
        iteration: u64,
        pred: impl Fn(&FaultSite) -> bool,
    ) -> Option<FaultKind> {
        let f = self
            .faults
            .iter_mut()
            .find(|f| !f.fired && f.iteration == iteration && pred(&f.site))?;
        f.fired = true;
        Some(f.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::builtin;

    #[test]
    fn faults_fire_exactly_once() {
        let mut plan = FaultPlan::new().push(
            FaultSite::BeforeOp(builtin::AGENT_OPS.to_string()),
            3,
            FaultKind::Panic,
        );
        assert!(plan.take_due_op(builtin::AGENT_OPS, 2).is_none());
        assert!(plan.take_due_op(builtin::SNAPSHOT, 3).is_none());
        assert_eq!(
            plan.take_due_op(builtin::AGENT_OPS, 3),
            Some(FaultKind::Panic)
        );
        assert!(plan.take_due_op(builtin::AGENT_OPS, 3).is_none(), "once");
        assert!(plan.all_fired());
    }

    #[test]
    fn site_matching_distinguishes_kinds_of_site() {
        let mut plan = FaultPlan::new()
            .push(FaultSite::GridRebuild, 2, FaultKind::Panic)
            .push(
                FaultSite::CheckpointCapture,
                2,
                FaultKind::CheckpointBitFlip { byte: 99 },
            );
        assert!(plan.take_due(&FaultSite::CheckpointCapture, 1).is_none());
        assert_eq!(
            plan.take_due(&FaultSite::GridRebuild, 2),
            Some(FaultKind::Panic)
        );
        assert_eq!(
            plan.take_due(&FaultSite::CheckpointCapture, 2),
            Some(FaultKind::CheckpointBitFlip { byte: 99 })
        );
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let sites = [
            FaultSite::BeforeOp(builtin::AGENT_OPS.to_string()),
            FaultSite::GridRebuild,
        ];
        let a = FaultPlan::seeded(42, &sites, 1, 20, 6);
        let b = FaultPlan::seeded(42, &sites, 1, 20, 6);
        let c = FaultPlan::seeded(43, &sites, 1, 20, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 6);
        assert!(!a.is_empty());
        assert!(a
            .faults()
            .iter()
            .all(|f| (1..=20).contains(&f.iteration) && !f.fired()));
    }

    #[test]
    fn display_and_labels() {
        assert_eq!(FaultSite::BeforeOp("x".into()).to_string(), "before op `x`");
        assert_eq!(FaultSite::GridRebuild.to_string(), "grid rebuild");
        assert_eq!(FaultKind::Panic.label(), "panic");
        assert_eq!(FaultKind::SkippedCapture.label(), "skipped capture");
    }
}
