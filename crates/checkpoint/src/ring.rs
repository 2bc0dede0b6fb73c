//! Bounded in-memory ring of restore points.
//!
//! [`CheckpointRing`] keeps the last few checkpoints of a running simulation
//! resident so a supervisor can roll back after a fault without touching the
//! filesystem. Every restore point is a full checkpoint; [`RingPolicy`]
//! sets the capture cadence and how many are kept, so residency is `depth`
//! × one full checkpoint once the ring has filled.
//!
//! The ring is also the supervisor's fallback ladder for *corrupted* restore
//! points: [`CheckpointRing::drop_latest`] discards the newest restore point
//! so a failed restore can retry against the next-older state.

use std::collections::VecDeque;

use bdm_core::{Param, Simulation};

use crate::error::CheckpointError;
use crate::registry::Registry;
use crate::{checkpoint, restore_with};

/// Capture cadence and retention bound for a [`CheckpointRing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingPolicy {
    /// Capture every `interval` iterations (clamped to ≥ 1).
    pub interval: u64,
    /// Number of restore points retained (clamped to ≥ 1); the oldest is
    /// pruned when a capture would exceed it.
    pub depth: usize,
}

impl Default for RingPolicy {
    fn default() -> RingPolicy {
        RingPolicy {
            interval: 25,
            depth: 18,
        }
    }
}

impl RingPolicy {
    /// A policy capturing every `interval` iterations with the default
    /// depth.
    pub fn every(interval: u64) -> RingPolicy {
        RingPolicy {
            interval: interval.max(1),
            ..RingPolicy::default()
        }
    }
}

/// A bounded ring of in-memory restore points (see the module docs).
#[derive(Debug, Clone)]
pub struct CheckpointRing {
    policy: RingPolicy,
    /// `(iteration, full checkpoint)`, oldest first.
    points: VecDeque<(u64, Vec<u8>)>,
    captures: u64,
}

impl CheckpointRing {
    /// An empty ring with `policy`.
    pub fn new(policy: RingPolicy) -> CheckpointRing {
        CheckpointRing {
            policy,
            points: VecDeque::new(),
            captures: 0,
        }
    }

    /// The ring's capture/retention policy.
    pub fn policy(&self) -> &RingPolicy {
        &self.policy
    }

    /// Whether the ring wants a capture at `iteration` (a multiple of the
    /// policy interval).
    pub fn is_due(&self, iteration: u64) -> bool {
        iteration.is_multiple_of(self.policy.interval.max(1))
    }

    /// Captures a full checkpoint of `sim` as the ring's newest restore
    /// point, pruning the oldest ones beyond the policy depth.
    pub fn capture(&mut self, sim: &Simulation) -> Result<(), CheckpointError> {
        self.points.push_back((sim.iteration(), checkpoint(sim)?));
        while self.points.len() > self.policy.depth.max(1) {
            self.points.pop_front();
        }
        self.captures += 1;
        Ok(())
    }

    /// Restores the newest restore point, building the simulation shell
    /// through `build` (see [`crate::restore_with`]). `None` if the ring is
    /// empty; a [`CheckpointError`] if the bytes are corrupt — callers
    /// typically [`CheckpointRing::drop_latest`] and retry.
    pub fn restore_latest_with(
        &self,
        registry: &Registry,
        build: impl FnOnce(Param) -> Simulation,
    ) -> Option<Result<Simulation, CheckpointError>> {
        let (_, full) = self.points.back()?;
        Some(restore_with(full, registry, build))
    }

    /// Restores the newest restore point using [`Simulation::new`].
    pub fn restore_latest(
        &self,
        registry: &Registry,
    ) -> Option<Result<Simulation, CheckpointError>> {
        self.restore_latest_with(registry, Simulation::new)
    }

    /// Discards the newest restore point. Returns `false` if the ring was
    /// already empty.
    pub fn drop_latest(&mut self) -> bool {
        self.points.pop_back().is_some()
    }

    /// Flips one bit of the newest restore point's bytes (`byte` is taken
    /// modulo the blob length). Fault-injection hook for exercising the
    /// drop-and-retry restore ladder; no effect on an empty ring.
    pub fn corrupt_latest(&mut self, byte: u64) {
        if let Some((_, blob)) = self.points.back_mut() {
            if !blob.is_empty() {
                let idx = (byte % blob.len() as u64) as usize;
                blob[idx] ^= 1;
            }
        }
    }

    /// Whether the ring holds no restore points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of restore points currently held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Iteration of the newest restore point, if any.
    pub fn latest_iteration(&self) -> Option<u64> {
        self.points.back().map(|(it, _)| *it)
    }

    /// Total captures performed over the ring's lifetime (including ones
    /// since pruned).
    pub fn captures(&self) -> u64 {
        self.captures
    }

    /// Bytes currently resident in the ring (the sum of its restore
    /// points).
    pub fn resident_bytes(&self) -> usize {
        self.points.iter().map(|(_, full)| full.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_core::{Cell, Real3};

    fn small_sim() -> Simulation {
        let mut sim = Simulation::new(Param {
            threads: Some(2),
            numa_domains: Some(2),
            interaction_radius: Some(12.0),
            ..Param::default()
        });
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

    #[test]
    fn ring_restores_latest_capture() {
        let mut sim = small_sim();
        let mut ring = CheckpointRing::new(RingPolicy {
            interval: 1,
            depth: 6,
        });
        for _ in 0..5 {
            sim.step();
            ring.capture(&sim).unwrap();
        }
        assert_eq!(ring.latest_iteration(), Some(5));
        let restored = ring
            .restore_latest(&Registry::with_builtin_types())
            .unwrap()
            .unwrap();
        bdm_core::testing::assert_identical(
            &bdm_core::testing::fingerprint(&sim),
            &bdm_core::testing::fingerprint(&restored),
            "ring restore",
        );
    }

    #[test]
    fn depth_bound_prunes_old_restore_points() {
        let mut sim = small_sim();
        let depth = 2;
        let mut ring = CheckpointRing::new(RingPolicy { interval: 1, depth });
        let mut sizes = Vec::new();
        for captures in 1..=6 {
            sim.step();
            ring.capture(&sim).unwrap();
            sizes.push(checkpoint(&sim).unwrap().len());
            // Residency is `depth` × one full checkpoint once filled.
            let kept = captures.min(depth);
            assert_eq!(ring.len(), kept);
            assert_eq!(
                ring.resident_bytes(),
                sizes[sizes.len() - kept..].iter().sum::<usize>()
            );
        }
        assert_eq!(ring.captures(), 6);
        assert_eq!(ring.latest_iteration(), Some(6));
    }

    #[test]
    fn drop_latest_walks_back_through_every_restore_point() {
        let mut sim = small_sim();
        let mut ring = CheckpointRing::new(RingPolicy {
            interval: 1,
            depth: 4,
        });
        for _ in 0..4 {
            sim.step();
            ring.capture(&sim).unwrap();
        }
        for newest in (1..=4).rev() {
            assert_eq!(ring.latest_iteration(), Some(newest));
            assert!(ring.drop_latest());
        }
        assert!(!ring.drop_latest());
        assert!(ring.is_empty());
        assert!(ring
            .restore_latest(&Registry::with_builtin_types())
            .is_none());
    }

    #[test]
    fn corrupt_latest_fails_restore_until_dropped() {
        let mut sim = small_sim();
        let mut ring = CheckpointRing::new(RingPolicy {
            interval: 1,
            depth: 10,
        });
        sim.step();
        ring.capture(&sim).unwrap();
        sim.step();
        ring.capture(&sim).unwrap();
        ring.corrupt_latest(40);
        let reg = Registry::with_builtin_types();
        assert!(ring.restore_latest(&reg).unwrap().is_err());
        assert!(ring.drop_latest());
        let restored = ring.restore_latest(&reg).unwrap().unwrap();
        assert_eq!(restored.iteration(), 1);
    }
}
