//! Health sentinels: cheap, typed runtime state validation.
//!
//! A long-running simulation must *detect* corrupted state instead of either
//! aborting the process (debug asserts) or silently integrating NaNs into
//! every downstream iteration (release builds). This module provides the
//! pieces of that first line of defense:
//!
//! * A fixed scan, [`Simulation::run_health_check`]: non-finite
//!   positions, invalid diameters and non-finite diffusion
//!   concentrations; the mechanics kernel adds non-finite forces as it
//!   finds them. How often the scan runs is
//!   [`Param::health_check_every`](crate::param::Param::health_check_every),
//!   carried in the checkpoint so a restore re-creates the same pipeline
//!   (the sentinel op is registered by `default_scheduler` whenever the
//!   frequency is set).
//! * [`HealthViolation`] / [`HealthViolationKind`] — a typed finding: which
//!   agent, which field, which iteration — instead of a panic.
//! * The built-in `health_check` [`Operation`]
//!   (name [`builtin::HEALTH_CHECK`]), which runs the scan at that
//!   frequency as the last `Post` stage of the pipeline.
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

use crate::scheduler::{builtin, OpKind, Operation};
use crate::simulation::Simulation;

/// Maximum number of [`HealthViolation`] records kept per simulation. The
/// counters in [`SimStats`](crate::simulation::SimStats) keep exact totals;
/// the per-violation detail is capped so a mass corruption (10⁶ NaN agents)
/// does not allocate a gigabyte of diagnostics.
pub const MAX_RECORDED_VIOLATIONS: usize = 128;

/// The field/invariant a [`HealthViolation`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthViolationKind {
    /// An agent position with a non-finite coordinate.
    NonFinitePosition,
    /// An agent diameter that is NaN, infinite, or negative.
    InvalidDiameter,
    /// A non-finite value in a diffusion grid's concentration array.
    NonFiniteConcentration,
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
            HealthViolationKind::NonFiniteConcentration => "non-finite concentration",
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

/// The built-in `health_check` operation: runs the sentinel scan every
/// `frequency` iterations as the last `Post` stage. Registered by the
/// default scheduler when
/// [`Param::health_check_every`](crate::param::Param::health_check_every)
/// is set.
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

    /// Each kind of finding the scan makes, named by kind and by agent uid
    /// or grid: a NaN position written by a planted fault, a negative
    /// diameter set at construction, and a NaN concentration seeded into
    /// the second of two grids.
    #[test]
    fn scan_classifies_each_finding() {
        use crate::{Cell, DiffusionGrid, FaultKind, FaultPlan, FaultSite, Param, Real3};

        let mut sim = Simulation::new(Param {
            threads: Some(1),
            numa_domains: Some(1),
            enable_mechanics: false,
            interaction_radius: Some(10.0),
            ..Param::default()
        });
        sim.add_diffusion_grid(DiffusionGrid::new("clean", 0.1, 0.0, 4, Real3::ZERO, 40.0));
        let mut poisoned = DiffusionGrid::new("poisoned", 0.1, 0.0, 4, Real3::ZERO, 40.0);
        let mut values = vec![0.0; 4 * 4 * 4];
        values[21] = f64::NAN;
        poisoned.set_concentrations(&values);
        sim.add_diffusion_grid(poisoned);
        let uids: Vec<u64> = [(5.0, 8.0), (20.0, -1.0), (35.0, 8.0)]
            .into_iter()
            .map(|(at, diameter)| {
                let uid = sim.new_uid();
                sim.add_agent(
                    Cell::new(uid)
                        .with_position(Real3::splat(at))
                        .with_diameter(diameter),
                );
                uid.0
            })
            .collect();
        sim.set_fault_plan(FaultPlan::new().push(
            FaultSite::BeforeOp("teardown".into()),
            1,
            FaultKind::NanPosition { agent_index: 2 },
        ));
        sim.step();

        assert_eq!(sim.run_health_check(), 3);
        let found = sim.take_health_violations();
        let kinds: Vec<_> = found.iter().map(|v| (v.kind, v.agent)).collect();
        assert_eq!(
            kinds,
            vec![
                (HealthViolationKind::InvalidDiameter, Some(uids[1])),
                (HealthViolationKind::NonFinitePosition, Some(uids[2])),
                (HealthViolationKind::NonFiniteConcentration, None),
            ],
            "{found:?}"
        );
        assert!(
            found[2].detail.starts_with("grid #1 (poisoned)"),
            "{found:?}"
        );
        assert!(found.iter().all(|v| v.iteration == 1));
        assert_eq!(sim.stats().violations_detected, 3);
        assert_eq!(sim.stats().health_checks_run, 1);
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
