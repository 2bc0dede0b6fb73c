//! Supervised execution: catch faults, roll back, retry, degrade.
//!
//! [`SupervisedRunner`] owns a [`Simulation`] and drives it like
//! [`Simulation::simulate`], but wraps every step in a panic boundary and
//! the health sentinel's verdict (see `bdm_core::supervisor`). On a failure
//! — a panic out of any operation, or a [`HealthViolation`] recorded by the
//! sentinel — the runner rolls the simulation back to the newest good
//! restore point in its [`CheckpointRing`] and replays. Because the engine
//! is deterministic and injected faults fire exactly once, a plain
//! rollback-and-retry converges to the *bitwise identical* state an
//! uninterrupted run would have reached.
//!
//! ## The recovery ladder
//!
//! 1. **Plain retry** — restore the newest restore point, replay.
//! 2. **Degrade** — on repeated failures of the same window, apply the
//!    configured [`Degradation`]s in order (e.g. fall back to the
//!    brute-force neighbor backend, disable an offending operation), then
//!    retry. Degradations trade fidelity/performance for progress and are
//!    off by default.
//! 3. **Walk back** — if a restore point itself is corrupt (checksum
//!    failure), drop it and retry against the next-older one.
//! 4. **Give up** — after [`RecoveryPolicy::max_attempts`] total recovery
//!    attempts, return [`SupervisorError::BudgetExhausted`]; with no intact
//!    restore point left, [`SupervisorError::NoRestorePoint`]. The runner
//!    never aborts the process.
//!
//! Recovery activity is surfaced twice: live in the simulation's
//! [`SimStats`](bdm_core::SimStats) counters (survives into bench reports)
//! and summarized in the returned [`RecoveryReport`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use bdm_core::supervisor::HealthViolation;
use bdm_core::{EnvironmentKind, FaultKind, FaultSite, Param, Simulation};

use crate::error::CheckpointError;
use crate::registry::Registry;
use crate::ring::{CheckpointRing, RingPolicy};

/// A fidelity/performance trade applied to the restored simulation when
/// plain rollback-and-retry keeps failing (see the module docs). Note that
/// degradations change the execution configuration, so a degraded run is no
/// longer bitwise comparable to the undisturbed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// Swap the neighbor-search backend for the O(n²) brute-force reference
    /// (slow but structurally trivial).
    UseBruteEnvironment,
    /// Turn off static-agent detection (every agent recomputed every step).
    DisableStaticDetection,
    /// Disable the named operation in the scheduler.
    DisableOp(String),
}

/// Bounds and knobs for a [`SupervisedRunner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Capture cadence and retention of the restore-point ring.
    pub ring: RingPolicy,
    /// Total recovery attempts allowed across the run before
    /// [`SupervisorError::BudgetExhausted`].
    pub max_attempts: u64,
    /// Escalation ladder: the `k`-th consecutive failure of the same window
    /// (k ≥ 2) applies `degradations[k - 2]` (clamped to the last entry).
    /// Empty (the default) keeps every retry bitwise-faithful.
    pub degradations: Vec<Degradation>,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            ring: RingPolicy::default(),
            max_attempts: 5,
            degradations: Vec::new(),
        }
    }
}

/// One recovery, as it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Iteration whose step failed (or was found corrupt).
    pub failed_iteration: u64,
    /// Iteration of the restore point the simulation was rolled back to.
    pub restored_from: u64,
    /// Human-readable failure cause (panic message or violation summary).
    pub cause: String,
    /// Degradation applied on this recovery, if the ladder escalated.
    pub degradation: Option<Degradation>,
}

/// Summary of a supervised run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Iterations the caller asked for (sum over `run` calls).
    pub iterations: u64,
    /// Panics caught at the step boundary.
    pub panics_caught: u64,
    /// Health violations that triggered recovery.
    pub violations_handled: u64,
    /// Recovery attempts performed (= rollbacks).
    pub attempts: u64,
    /// Recoveries confirmed by a clean replay past the failure point.
    pub succeeded: u64,
    /// Degradations applied by the escalation ladder.
    pub degradations_applied: u64,
    /// Checkpoint captures performed by the ring.
    pub captures: u64,
    /// Bytes resident in the restore-point ring at the end of the run.
    pub ring_bytes: usize,
    /// Every recovery, in order.
    pub recoveries: Vec<RecoveryEvent>,
}

/// Terminal supervision failure — the run could not be completed within the
/// recovery budget. The process is never aborted; the partially-advanced
/// simulation remains accessible through the runner.
#[derive(Debug, PartialEq, Eq)]
pub enum SupervisorError {
    /// The recovery-attempt budget ran out.
    BudgetExhausted {
        /// Attempts performed before giving up.
        attempts: u64,
        /// Iteration of the final failure.
        iteration: u64,
        /// Cause of the final failure.
        cause: String,
    },
    /// Every restore point in the ring failed to restore.
    NoRestorePoint {
        /// Iteration of the failure that triggered the (failed) recovery.
        iteration: u64,
        /// Cause of that failure.
        cause: String,
    },
    /// A checkpoint capture failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::BudgetExhausted {
                attempts,
                iteration,
                cause,
            } => write!(
                f,
                "recovery budget exhausted after {attempts} attempts at iteration {iteration}: {cause}"
            ),
            SupervisorError::NoRestorePoint { iteration, cause } => write!(
                f,
                "no intact restore point for failure at iteration {iteration}: {cause}"
            ),
            SupervisorError::Checkpoint(e) => write!(f, "checkpoint capture failed: {e}"),
        }
    }
}

impl std::error::Error for SupervisorError {}

impl From<CheckpointError> for SupervisorError {
    fn from(e: CheckpointError) -> SupervisorError {
        SupervisorError::Checkpoint(e)
    }
}

/// Drives a [`Simulation`] under the supervision loop described in the
/// module docs.
pub struct SupervisedRunner {
    sim: Simulation,
    ring: CheckpointRing,
    policy: RecoveryPolicy,
    registry: Registry,
    build: Box<dyn Fn(Param) -> Simulation>,
    report: RecoveryReport,
    consecutive_failures: u64,
    pending_verify: Option<u64>,
}

impl SupervisedRunner {
    /// Wraps `sim` with `policy`, using the built-in type
    /// [`Registry`] and [`Simulation::new`] for restores.
    pub fn new(sim: Simulation, policy: RecoveryPolicy) -> SupervisedRunner {
        let ring = CheckpointRing::new(policy.ring.clone());
        SupervisedRunner {
            sim,
            ring,
            policy,
            registry: Registry::with_builtin_types(),
            build: Box::new(Simulation::new),
            report: RecoveryReport::default(),
            consecutive_failures: 0,
            pending_verify: None,
        }
    }

    /// Replaces the restore [`Registry`] (needed when the model uses agent
    /// or behavior types beyond the built-ins).
    pub fn with_registry(mut self, registry: Registry) -> SupervisedRunner {
        self.registry = registry;
        self
    }

    /// Replaces the restore-time simulation builder (needed when the
    /// captured pipeline contains custom operations — see
    /// [`crate::restore_with`]).
    pub fn with_builder(
        mut self,
        build: impl Fn(Param) -> Simulation + 'static,
    ) -> SupervisedRunner {
        self.build = Box::new(build);
        self
    }

    /// The supervised simulation.
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Mutable access to the supervised simulation (e.g. for seeding agents
    /// before the first `run`).
    pub fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// Consumes the runner, returning the simulation.
    pub fn into_sim(self) -> Simulation {
        self.sim
    }

    /// The recovery activity so far.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The restore-point ring (for size accounting).
    pub fn ring(&self) -> &CheckpointRing {
        &self.ring
    }

    /// Runs `iterations` supervised steps (recovering as needed), then a
    /// final forced health scan so silent corruption injected after the
    /// last scheduled scan is still caught and rolled back before
    /// returning. On success the simulation state is bitwise what an
    /// undisturbed run would have produced, provided no degradation was
    /// applied.
    pub fn run(&mut self, iterations: u64) -> Result<RecoveryReport, SupervisorError> {
        let target = self.sim.iteration() + iterations;
        self.report.iterations += iterations;
        if self.ring.is_empty() {
            // Guaranteed restore point before the first supervised step.
            self.capture_checked()?;
        }
        loop {
            while self.sim.iteration() < target {
                self.step_supervised()?;
            }
            // Final integrity sweep: recover (and re-run the tail) until
            // the end state scans clean.
            if self.sim.run_health_check() == 0 {
                break;
            }
            let viols = self.sim.take_health_violations();
            self.report.violations_handled += viols.len() as u64;
            self.recover(describe_violations(&viols))?;
        }
        self.report.captures = self.ring.captures();
        self.report.ring_bytes = self.ring.resident_bytes();
        self.sync_counters();
        Ok(self.report.clone())
    }

    fn step_supervised(&mut self) -> Result<(), SupervisorError> {
        let result = catch_unwind(AssertUnwindSafe(|| self.sim.step()));
        match result {
            Err(payload) => {
                self.report.panics_caught += 1;
                let msg = panic_message(payload.as_ref());
                self.recover(format!("panic: {msg}"))
            }
            Ok(()) => {
                let viols = self.sim.take_health_violations();
                if !viols.is_empty() {
                    self.report.violations_handled += viols.len() as u64;
                    return self.recover(describe_violations(&viols));
                }
                if let Some(failed) = self.pending_verify {
                    if self.sim.iteration() >= failed {
                        // A clean step carried us past the failure point:
                        // the recovery held.
                        self.pending_verify = None;
                        self.consecutive_failures = 0;
                        self.report.succeeded += 1;
                        self.sync_counters();
                    }
                }
                if self.ring.is_due(self.sim.iteration()) {
                    self.capture_checked()?;
                }
                Ok(())
            }
        }
    }

    /// Captures a restore point — unless the state fails a forced health
    /// scan (recover instead: never checkpoint corruption), or a fault is
    /// planted at the capture site.
    fn capture_checked(&mut self) -> Result<(), SupervisorError> {
        if self.sim.run_health_check() > 0 {
            let viols = self.sim.take_health_violations();
            self.report.violations_handled += viols.len() as u64;
            return self.recover(describe_violations(&viols));
        }
        match self.sim.take_due_fault(&FaultSite::CheckpointCapture) {
            Some(FaultKind::Panic) => {
                self.report.panics_caught += 1;
                return self.recover(format!(
                    "panic: injected fault: checkpoint capture at iteration {}",
                    self.sim.iteration()
                ));
            }
            // A skipped capture: the ring keeps an older restore point, so
            // a later recovery just replays a longer window.
            Some(FaultKind::DeltaGap) => return Ok(()),
            Some(FaultKind::CheckpointBitFlip { byte }) => {
                self.ring.capture(&self.sim)?;
                self.ring.corrupt_latest(byte);
                return Ok(());
            }
            Some(FaultKind::NanPosition { .. }) | None => {}
        }
        self.ring.capture(&self.sim)?;
        Ok(())
    }

    fn recover(&mut self, cause: String) -> Result<(), SupervisorError> {
        let failed_iteration = self.sim.iteration();
        if self.report.attempts >= self.policy.max_attempts {
            return Err(SupervisorError::BudgetExhausted {
                attempts: self.report.attempts,
                iteration: failed_iteration,
                cause,
            });
        }
        self.report.attempts += 1;
        self.consecutive_failures += 1;
        // The fault plan lives outside checkpoints; carry it (with its
        // fired flags) across the rollback so each fault fires only once.
        let plan = self.sim.take_fault_plan();
        let restored = loop {
            if self.ring.is_empty() {
                return Err(SupervisorError::NoRestorePoint {
                    iteration: failed_iteration,
                    cause,
                });
            }
            match self
                .ring
                .restore_latest_with(&self.registry, |p| (self.build)(p))
            {
                Ok(sim) => break sim,
                // Corrupt restore point: walk back to the next-older one.
                Err(_) => {
                    self.ring.drop_latest();
                }
            }
        };
        let restored_from = restored.iteration();
        self.sim = restored;
        // A restored simulation's change counters restart, so deltas against
        // pre-restore baselines are unsound — start a fresh chain.
        self.ring.break_chain();
        if let Some(p) = plan {
            self.sim.set_fault_plan(p);
        }
        let degradation = if self.consecutive_failures >= 2 && !self.policy.degradations.is_empty()
        {
            let idx =
                ((self.consecutive_failures - 2) as usize).min(self.policy.degradations.len() - 1);
            let d = self.policy.degradations[idx].clone();
            self.apply_degradation(&d);
            self.report.degradations_applied += 1;
            Some(d)
        } else {
            None
        };
        self.pending_verify = Some(failed_iteration);
        self.report.recoveries.push(RecoveryEvent {
            failed_iteration,
            restored_from,
            cause,
            degradation,
        });
        self.sync_counters();
        Ok(())
    }

    fn apply_degradation(&mut self, d: &Degradation) {
        match d {
            Degradation::UseBruteEnvironment => {
                self.sim.set_environment_kind(EnvironmentKind::Brute);
            }
            Degradation::DisableStaticDetection => {
                self.sim.set_detect_static_agents(false);
            }
            Degradation::DisableOp(name) => {
                self.sim.scheduler_mut().set_enabled(name, false);
            }
        }
    }

    /// Pushes the running recovery totals into the simulation's stats (a
    /// restore resets them to the captured values, so they are re-applied
    /// after every rollback).
    fn sync_counters(&mut self) {
        self.sim
            .set_recovery_counters(self.report.attempts, self.report.succeeded);
    }
}

impl std::fmt::Debug for SupervisedRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedRunner")
            .field("iteration", &self.sim.iteration())
            .field("policy", &self.policy)
            .field("report", &self.report)
            .finish()
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn describe_violations(viols: &[HealthViolation]) -> String {
    match viols {
        [] => "health violation".to_string(),
        [only] => only.to_string(),
        [first, ..] => format!("{first} (+{} more)", viols.len() - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_core::supervisor::HealthPolicy;
    use bdm_core::{Cell, FaultPlan, Real3};

    fn seeded_sim(faults: Option<FaultPlan>) -> Simulation {
        let mut builder = Simulation::builder()
            .threads(2)
            .numa_domains(2)
            .interaction_radius(12.0)
            .health(HealthPolicy::every(2));
        if let Some(plan) = faults {
            builder = builder.fault_plan(plan);
        }
        let mut sim = builder.build();
        for i in 0..8 {
            let uid = sim.new_uid();
            sim.add_agent(
                Cell::new(uid)
                    .with_position(Real3::splat(10.0 + i as f64 * 5.0))
                    .with_diameter(10.0),
            );
        }
        sim
    }

    fn ring_policy() -> RingPolicy {
        RingPolicy {
            interval: 2,
            depth: 2,
            full_every: 2,
        }
    }

    #[test]
    fn recovers_from_injected_panic_bitwise() {
        let mut reference = seeded_sim(None);
        reference.simulate(10);

        let plan =
            FaultPlan::new().push(FaultSite::BeforeOp("agent_ops".into()), 6, FaultKind::Panic);
        let mut runner = SupervisedRunner::new(
            seeded_sim(Some(plan)),
            RecoveryPolicy {
                ring: ring_policy(),
                ..RecoveryPolicy::default()
            },
        );
        let report = runner.run(10).unwrap();
        assert_eq!(report.panics_caught, 1);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.succeeded, 1);
        bdm_core::testing::assert_identical(
            &bdm_core::testing::fingerprint(&reference),
            &bdm_core::testing::fingerprint(runner.sim()),
            "panic recovery",
        );
        let stats = runner.sim().stats();
        assert_eq!(stats.recoveries_attempted, 1);
        assert_eq!(stats.recoveries_succeeded, 1);
    }

    #[test]
    fn recovers_from_nan_position_write() {
        let mut reference = seeded_sim(None);
        reference.simulate(10);

        let plan = FaultPlan::new().push(
            FaultSite::BeforeOp("diffusion".into()),
            5,
            FaultKind::NanPosition { agent_index: 3 },
        );
        let mut runner = SupervisedRunner::new(
            seeded_sim(Some(plan)),
            RecoveryPolicy {
                ring: ring_policy(),
                ..RecoveryPolicy::default()
            },
        );
        let report = runner.run(10).unwrap();
        assert!(report.violations_handled >= 1, "{report:?}");
        assert_eq!(report.attempts, 1);
        bdm_core::testing::assert_identical(
            &bdm_core::testing::fingerprint(&reference),
            &bdm_core::testing::fingerprint(runner.sim()),
            "nan recovery",
        );
    }

    #[test]
    fn budget_exhaustion_is_typed() {
        // A fresh panic every iteration burns one attempt each; the plan
        // outlives a budget of 2.
        let mut plan = FaultPlan::new();
        for it in 2..10 {
            plan = plan.push(
                FaultSite::BeforeOp("agent_ops".into()),
                it,
                FaultKind::Panic,
            );
        }
        let mut runner = SupervisedRunner::new(
            seeded_sim(Some(plan)),
            RecoveryPolicy {
                ring: ring_policy(),
                max_attempts: 2,
                degradations: Vec::new(),
            },
        );
        let err = runner.run(10).unwrap_err();
        assert!(
            matches!(err, SupervisorError::BudgetExhausted { attempts: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn repeated_failure_escalates_degradation() {
        // Two panics at the same site force a second consecutive recovery,
        // which applies the first ladder entry.
        let plan = FaultPlan::new()
            .push(FaultSite::BeforeOp("agent_ops".into()), 5, FaultKind::Panic)
            .push(FaultSite::BeforeOp("agent_ops".into()), 5, FaultKind::Panic);
        let mut runner = SupervisedRunner::new(
            seeded_sim(Some(plan)),
            RecoveryPolicy {
                ring: ring_policy(),
                max_attempts: 5,
                degradations: vec![Degradation::DisableStaticDetection],
            },
        );
        let report = runner.run(10).unwrap();
        assert_eq!(report.attempts, 2);
        assert_eq!(report.degradations_applied, 1);
        assert_eq!(
            report.recoveries[1].degradation,
            Some(Degradation::DisableStaticDetection)
        );
        assert!(!runner.sim().param().detect_static_agents);
    }

    #[test]
    fn bit_flipped_restore_point_falls_back_to_older_one() {
        let plan = FaultPlan::new()
            .push(
                FaultSite::CheckpointCapture,
                4,
                FaultKind::CheckpointBitFlip { byte: 200 },
            )
            .push(FaultSite::BeforeOp("agent_ops".into()), 5, FaultKind::Panic);
        let mut reference = seeded_sim(None);
        reference.simulate(8);

        let mut runner = SupervisedRunner::new(
            seeded_sim(Some(plan)),
            RecoveryPolicy {
                ring: ring_policy(),
                ..RecoveryPolicy::default()
            },
        );
        let report = runner.run(8).unwrap();
        // Recovery had to skip the corrupt iteration-4 point and restore
        // an older one.
        assert_eq!(report.attempts, 1);
        assert!(report.recoveries[0].restored_from < 4, "{report:?}");
        bdm_core::testing::assert_identical(
            &bdm_core::testing::fingerprint(&reference),
            &bdm_core::testing::fingerprint(runner.sim()),
            "bit-flip fallback",
        );
    }

    #[test]
    fn delta_gap_lengthens_replay_but_stays_conformant() {
        let plan = FaultPlan::new()
            .push(FaultSite::CheckpointCapture, 4, FaultKind::DeltaGap)
            .push(FaultSite::BeforeOp("agent_ops".into()), 5, FaultKind::Panic);
        let mut reference = seeded_sim(None);
        reference.simulate(8);

        let mut runner = SupervisedRunner::new(
            seeded_sim(Some(plan)),
            RecoveryPolicy {
                ring: ring_policy(),
                ..RecoveryPolicy::default()
            },
        );
        let report = runner.run(8).unwrap();
        assert_eq!(report.attempts, 1);
        // The iteration-4 capture was skipped, so the rollback lands on 2.
        assert_eq!(report.recoveries[0].restored_from, 2);
        bdm_core::testing::assert_identical(
            &bdm_core::testing::fingerprint(&reference),
            &bdm_core::testing::fingerprint(runner.sim()),
            "delta gap",
        );
    }
}
