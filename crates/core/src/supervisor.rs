//! Health sentinels: cheap, typed runtime state validation.
//!
//! A long-running simulation must *detect* corrupted state instead of either
//! aborting the process (debug asserts) or silently integrating NaNs into
//! every downstream iteration (release builds). This module provides the
//! pieces of that first line of defense:
//!
//! * [`HealthPolicy`] — what to scan and how often, carried in
//!   [`Param::health`](crate::param::Param::health) so checkpoint restore
//!   re-creates the exact same pipeline (the sentinel op is registered by
//!   `default_scheduler` whenever the policy is present).
//! * [`HealthViolation`] / [`HealthViolationKind`] — a typed finding: which
//!   agent, which field, which iteration — instead of a panic.
//! * The built-in `health_check` [`Operation`]
//!   (name [`builtin::HEALTH_CHECK`]),
//!   which runs
//!   [`Simulation::run_health_check`](crate::Simulation::run_health_check)
//!   at the configured frequency
//!   as the last `Post` stage of the pipeline.
//! * Process-global *write sentinels* ([`write_sentinel_counts`]) that count
//!   non-finite position / invalid diameter writes at the setter itself —
//!   the always-on replacement for the release-silent `debug_assert!`s that
//!   previously guarded [`AgentBase::set_position`](crate::agent::AgentBase::set_position)
//!   and [`AgentBase::set_diameter`](crate::agent::AgentBase::set_diameter).
//!
//! The scan itself mutates nothing step-relevant (it only appends to the
//! violation log and bumps [`SimStats`](crate::simulation::SimStats)
//! counters), so enabling the sentinel never perturbs bit-reproducibility.

use std::sync::atomic::{AtomicU64, Ordering};

use bdm_util::Real3;

use crate::scheduler::{builtin, OpKind, Operation};
use crate::simulation::Simulation;

/// Maximum number of [`HealthViolation`] records kept per simulation. The
/// counters in [`SimStats`](crate::simulation::SimStats) keep exact totals;
/// the per-violation detail is capped so a mass corruption (10⁶ NaN agents)
/// does not allocate a gigabyte of diagnostics.
pub const MAX_RECORDED_VIOLATIONS: usize = 128;

/// What the health sentinel scans for and how often.
///
/// Stored in [`Param::health`](crate::param::Param::health): when present,
/// the default scheduler registers the built-in `health_check` operation
/// with [`HealthPolicy::frequency`]. The policy travels through checkpoints
/// (PARAM section), so a restored simulation re-creates the same sentinel.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPolicy {
    /// Run the scan on every iteration that is a multiple of this value
    /// (iterations count from 1; clamped to ≥ 1 at registration).
    pub frequency: u64,
    /// When set, any agent position outside the axis-aligned box
    /// `[min, max]` is reported as [`HealthViolationKind::OutOfBounds`].
    pub bounds: Option<(Real3, Real3)>,
    /// When set, a total agent count above this value is reported as
    /// [`HealthViolationKind::AgentExplosion`].
    pub max_agents: Option<u64>,
    /// Scan every diffusion grid's concentration array for non-finite
    /// values. On by default; the scan is a contiguous `f64` sweep.
    pub check_diffusion: bool,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            frequency: 8,
            bounds: None,
            max_agents: None,
            check_diffusion: true,
        }
    }
}

impl HealthPolicy {
    /// A policy that scans every `frequency` iterations with all structural
    /// checks (finiteness, diffusion) and no bounds/count limits.
    pub fn every(frequency: u64) -> HealthPolicy {
        HealthPolicy {
            frequency: frequency.max(1),
            ..HealthPolicy::default()
        }
    }
}

/// The field/invariant a [`HealthViolation`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthViolationKind {
    /// An agent position with a non-finite coordinate.
    NonFinitePosition,
    /// An agent diameter that is NaN, infinite, or negative.
    InvalidDiameter,
    /// An agent position outside [`HealthPolicy::bounds`].
    OutOfBounds,
    /// A non-finite value in a diffusion grid's concentration array.
    NonFiniteConcentration,
    /// Total agent count above [`HealthPolicy::max_agents`].
    AgentExplosion,
    /// A non-finite force/displacement produced by the mechanics kernel
    /// (counted per accumulation window by the worker contexts).
    NonFiniteForce,
}

impl HealthViolationKind {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            HealthViolationKind::NonFinitePosition => "non-finite position",
            HealthViolationKind::InvalidDiameter => "invalid diameter",
            HealthViolationKind::OutOfBounds => "out of bounds",
            HealthViolationKind::NonFiniteConcentration => "non-finite concentration",
            HealthViolationKind::AgentExplosion => "agent explosion",
            HealthViolationKind::NonFiniteForce => "non-finite force",
        }
    }
}

/// One typed finding of the health sentinel: what went wrong, where, when.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthViolation {
    /// The violated invariant.
    pub kind: HealthViolationKind,
    /// Iteration the scan ran on (iterations count from 1).
    pub iteration: u64,
    /// Uid of the offending agent, when the violation is agent-scoped.
    pub agent: Option<u64>,
    /// Free-form detail (the offending value, grid/box index, counts).
    pub detail: String,
}

impl std::fmt::Display for HealthViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at iteration {}", self.kind.label(), self.iteration)?;
        if let Some(uid) = self.agent {
            write!(f, " (agent uid {uid})")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

/// Per-simulation violation log with a bounded record buffer.
///
/// Exact totals live in [`SimStats`](crate::simulation::SimStats); this
/// keeps the first [`MAX_RECORDED_VIOLATIONS`] detailed records so a
/// supervisor (or a test) can see *what* failed, not just *that* something
/// failed.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    violations: Vec<HealthViolation>,
}

impl HealthMonitor {
    /// Appends a violation record, dropping detail past the cap.
    pub fn record(&mut self, v: HealthViolation) {
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// The recorded violations, oldest first.
    pub fn violations(&self) -> &[HealthViolation] {
        &self.violations
    }

    /// Drains the recorded violations.
    pub fn take(&mut self) -> Vec<HealthViolation> {
        std::mem::take(&mut self.violations)
    }

    /// Whether no violations are recorded.
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Write sentinels: the always-on replacement for the setter debug_asserts.
// Process-global because an `AgentBase` setter has no path to its owning
// simulation; the per-sim scan remains the authoritative detector, these
// counters make the *write itself* observable (and keep release builds from
// ignoring what debug builds used to abort on).
// ---------------------------------------------------------------------------

static NONFINITE_POSITION_WRITES: AtomicU64 = AtomicU64::new(0);
static INVALID_DIAMETER_WRITES: AtomicU64 = AtomicU64::new(0);

/// Counts a non-finite position write (called by
/// [`AgentBase::set_position`](crate::agent::AgentBase::set_position)).
#[cold]
pub(crate) fn flag_nonfinite_position() {
    NONFINITE_POSITION_WRITES.fetch_add(1, Ordering::Relaxed);
}

/// Counts an invalid (non-finite or negative) diameter write (called by
/// [`AgentBase::set_diameter`](crate::agent::AgentBase::set_diameter)).
#[cold]
pub(crate) fn flag_invalid_diameter() {
    INVALID_DIAMETER_WRITES.fetch_add(1, Ordering::Relaxed);
}

/// Cumulative process-wide `(non-finite position, invalid diameter)` write
/// counts since process start. Monotonic; shared by every simulation in the
/// process, so treat it as a diagnostic signal, not a per-run statistic —
/// per-run detection is [`Simulation::run_health_check`]'s job.
///
/// [`Simulation::run_health_check`]: crate::simulation::Simulation::run_health_check
pub fn write_sentinel_counts() -> (u64, u64) {
    (
        NONFINITE_POSITION_WRITES.load(Ordering::Relaxed),
        INVALID_DIAMETER_WRITES.load(Ordering::Relaxed),
    )
}

/// The built-in `health_check` operation: runs the sentinel scan at the
/// policy frequency as the last `Post` stage. Registered by the default
/// scheduler when [`Param::health`](crate::param::Param::health) is set.
pub(crate) struct HealthCheckOp {
    pub(crate) frequency: u64,
}

impl Operation for HealthCheckOp {
    fn name(&self) -> &str {
        builtin::HEALTH_CHECK
    }
    fn kind(&self) -> OpKind {
        OpKind::Post
    }
    fn frequency(&self) -> u64 {
        self.frequency
    }
    fn run(&mut self, sim: &mut Simulation) {
        sim.run_health_check();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_every_clamps_frequency() {
        assert_eq!(HealthPolicy::every(0).frequency, 1);
        assert_eq!(HealthPolicy::every(5).frequency, 5);
        assert!(HealthPolicy::default().check_diffusion);
    }

    #[test]
    fn monitor_caps_recorded_detail() {
        let mut m = HealthMonitor::default();
        for i in 0..(MAX_RECORDED_VIOLATIONS + 10) {
            m.record(HealthViolation {
                kind: HealthViolationKind::NonFinitePosition,
                iteration: i as u64,
                agent: Some(i as u64),
                detail: String::new(),
            });
        }
        assert_eq!(m.violations().len(), MAX_RECORDED_VIOLATIONS);
        let drained = m.take();
        assert_eq!(drained.len(), MAX_RECORDED_VIOLATIONS);
        assert!(m.is_empty());
    }

    #[test]
    fn violation_display_names_agent_and_iteration() {
        let v = HealthViolation {
            kind: HealthViolationKind::InvalidDiameter,
            iteration: 7,
            agent: Some(42),
            detail: "-1".to_string(),
        };
        let s = v.to_string();
        assert!(s.contains("invalid diameter"), "{s}");
        assert!(s.contains("iteration 7"), "{s}");
        assert!(s.contains("uid 42"), "{s}");
    }

    #[test]
    fn write_sentinels_are_monotonic() {
        let (p0, d0) = write_sentinel_counts();
        flag_nonfinite_position();
        flag_invalid_diameter();
        let (p1, d1) = write_sentinel_counts();
        assert!(p1 > p0);
        assert!(d1 > d0);
    }
}
