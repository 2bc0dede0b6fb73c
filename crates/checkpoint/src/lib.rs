//! # bdm-checkpoint
//!
//! Versioned, self-describing binary checkpoint/restore of a running
//! simulation — everything step-relevant: the agent arrays (positions,
//! diameters, payloads, per-type state, behaviors, static flags), the
//! diffusion grids, the deterministic RNG inputs (seed + uid counter — the
//! engine's per-(agent, iteration) streams are stateless functions of
//! those), the scheduler's op list with frequencies and the iteration
//! counter, and the full [`Param`] set.
//!
//! The correctness contract, enforced by `tests/checkpoint_replay.rs` for
//! all six benchmark models on all four environment backends:
//! **restore(checkpoint(sim)) followed by N steps is bitwise identical to
//! stepping the original N times.** To make that hold the restore pins the
//! captured run's concrete thread/domain topology (recorded in the COUNTERS
//! section) and re-inserts agents into their exact original
//! `(domain, index)` slots.
//!
//! ## Failure behavior
//!
//! Restore never panics and never half-restores: it builds a fresh
//! [`Simulation`] internally and only returns it on success. Truncated,
//! bit-flipped, or version-mismatched inputs produce a typed
//! [`CheckpointError`] naming the failing section.
//!
//! ## Supervision
//!
//! On top of the wire format sit two runtime-resilience layers: [`ring`]
//! keeps a bounded in-memory ring of restore points (each one a full
//! checkpoint), and [`supervise`] drives a simulation with automatic
//! rollback-and-retry — panics and health-sentinel violations roll back to
//! the newest good restore point and replay bitwise-identically, within a
//! bounded attempt budget.

#![warn(missing_docs)]

mod error;
mod registry;
pub mod ring;
mod sections;
pub mod supervise;
mod wire;

pub use error::CheckpointError;
pub use registry::Registry;
pub use ring::{CheckpointRing, RingPolicy};
pub use sections::{Counters, RestoredAgent};
pub use supervise::{
    RecoveryEvent, RecoveryPolicy, RecoveryReport, SupervisedRunner, SupervisorError,
};
pub use wire::{FORMAT_VERSION, MAGIC};

use bdm_core::{Param, Simulation};
use wire::tag;

/// Serializes everything step-relevant into a full checkpoint.
///
/// Valid both at rest (between steps) and mid-iteration from inside a
/// custom operation (the stored iteration counter then points at the last
/// *completed* iteration, so restore + step replays the interrupted
/// iteration from its start).
///
/// Fails with [`CheckpointError::Unsupported`] if any live agent or
/// behavior has an empty `checkpoint_tag` — nothing is silently dropped.
pub fn checkpoint(sim: &Simulation) -> Result<Vec<u8>, CheckpointError> {
    let mid = sim.scheduler().mid_iteration();
    Ok(wire::assemble(&[
        (tag::PARAM, sections::write_param(sim.param())),
        (tag::FORCE, sections::write_force(sim.force())),
        (tag::COUNTERS, sections::write_counters(sim, mid)),
        (tag::AGENTS, sections::write_agents(sim)?),
        (tag::DIFFUSION, sections::write_diffusion(sim)),
        (tag::SCHEDULER, sections::write_scheduler(sim)),
        (tag::SHARDS, sections::write_shards(sim)),
    ]))
}

/// Restores a full checkpoint using [`Simulation::new`] as the builder.
pub fn restore(full: &[u8], registry: &Registry) -> Result<Simulation, CheckpointError> {
    restore_with(full, registry, Simulation::new)
}

/// Restores a full checkpoint, constructing the simulation shell through
/// `build`. Use this when the captured pipeline contained custom operations:
/// `build` must register operations with the same names before state is
/// applied, otherwise restore fails with [`CheckpointError::UnknownOp`].
///
/// Builds a fresh simulation; nothing observable escapes on error.
pub fn restore_with(
    full: &[u8],
    registry: &Registry,
    build: impl FnOnce(Param) -> Simulation,
) -> Result<Simulation, CheckpointError> {
    let parsed = wire::parse(full)?;
    let section = |t| parsed.require(t);
    let (param, force, counters, agents, diffusion, scheduler, shards) = (
        section(tag::PARAM)?,
        section(tag::FORCE)?,
        section(tag::COUNTERS)?,
        section(tag::AGENTS)?,
        section(tag::DIFFUSION)?,
        section(tag::SCHEDULER)?,
        section(tag::SHARDS)?,
    );
    let mut param = sections::read_param(param)?;
    let force = sections::read_force(force)?;
    let counters = sections::read_counters(counters)?;
    // Validation only: the partition manifest is checked for internal
    // consistency but never fed back — the partition is a pure function of
    // agent state and is recomputed at the first halo exchange, so the
    // restored simulation may run with any shard count (the `build` hook
    // can override `param.shards` freely).
    sections::read_shards(shards)?;

    // Pin the captured run's concrete topology: partitioning and domain
    // assignment must replay exactly regardless of this machine's defaults
    // or environment overrides.
    param.threads = Some(counters.num_threads as usize);
    param.numa_domains = Some(counters.num_domains as usize);

    let mut sim = build(param);
    sim.set_force(force);
    // Grids before agents: the behavior readers check grid indices.
    sections::restore_diffusion(&mut sim, diffusion)?;
    sections::restore_agents(&mut sim, registry, agents)?;
    sim.set_iteration(counters.iteration);
    sim.set_uid_counter(counters.uid_counter);
    sim.set_init_cursor(counters.init_cursor as usize);
    sim.set_static_detection_engaged(counters.static_engaged);
    sections::restore_scheduler(&mut sim, scheduler)?;
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_core::testing::{assert_identical, fingerprint};
    use bdm_core::{new_behavior_box, Agent, Cell, Real3};
    use bdm_models::{RandomWalk, TypeAdhesion};

    fn small_sim() -> Simulation {
        let mut sim = Simulation::new(Param {
            threads: Some(2),
            numa_domains: Some(2),
            interaction_radius: Some(12.0),
            ..Param::default()
        });
        for i in 0..10 {
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
    fn full_round_trip_preserves_fingerprint() {
        let mut sim = small_sim();
        sim.simulate(3);
        let bytes = checkpoint(&sim).unwrap();
        let restored = restore(&bytes, &Registry::with_builtin_types()).unwrap();
        bdm_core::testing::assert_identical(
            &bdm_core::testing::fingerprint(&sim),
            &bdm_core::testing::fingerprint(&restored),
            "round trip",
        );
        assert_eq!(restored.iteration(), 3);
    }

    #[test]
    fn spilled_behavior_list_round_trips_in_order() {
        // No model attaches three behaviors: the third spills the agent's
        // inline list to a `Vec`, and the order must survive the round trip.
        let mut sim = small_sim();
        let uid = sim.new_uid();
        let mut cell = Cell::new(uid)
            .with_position(Real3::splat(30.0))
            .with_diameter(10.0);
        let walk = |step| RandomWalk {
            step,
            min: 0.0,
            max: 80.0,
        };
        let adhesion = TypeAdhesion {
            radius: 12.0,
            speed: 0.5,
        };
        let mm = sim.memory_manager();
        cell.base_mut()
            .add_behavior(new_behavior_box(walk(0.5), mm, 0));
        cell.base_mut()
            .add_behavior(new_behavior_box(adhesion, mm, 0));
        cell.base_mut()
            .add_behavior(new_behavior_box(walk(1.5), mm, 0));
        sim.add_agent(cell);
        sim.simulate(2);

        let bytes = checkpoint(&sim).unwrap();
        let mut restored = restore(&bytes, &Registry::with_builtin_types()).unwrap();
        let before = fingerprint(&sim);
        let tags: Vec<&str> = before.agents[&uid.0]
            .behaviors
            .iter()
            .map(|(tag, _)| tag.as_str())
            .collect();
        assert_eq!(
            tags,
            [
                "models.RandomWalk",
                "models.TypeAdhesion",
                "models.RandomWalk"
            ]
        );
        assert_identical(&before, &fingerprint(&restored), "round trip");
        sim.simulate(3);
        restored.simulate(3);
        assert_identical(&fingerprint(&sim), &fingerprint(&restored), "replay");
    }

    /// The sentinel frequency travels through PARAM as one fixed-size
    /// optional u64, and the restored pipeline registers the sentinel
    /// exactly when the captured one did, at the same clamped frequency.
    #[test]
    fn health_check_frequency_round_trips() {
        let param_len = |every| {
            sections::write_param(&Param {
                health_check_every: every,
                ..Param::default()
            })
            .len()
        };
        assert_eq!(param_len(None), param_len(Some(3)));
        for every in [None, Some(0), Some(3)] {
            let mut sim = Simulation::new(Param {
                health_check_every: every,
                ..small_sim().param().clone()
            });
            sim.simulate(2);
            let bytes = checkpoint(&sim).unwrap();
            let restored = restore(&bytes, &Registry::with_builtin_types()).unwrap();
            assert_eq!(restored.param().health_check_every, every);
            assert_eq!(
                restored
                    .scheduler()
                    .frequency(bdm_core::builtin::HEALTH_CHECK),
                every.map(|f| f.max(1)),
                "health_check_every: {every:?}"
            );
        }
    }

    #[test]
    fn unknown_agent_tag_is_typed() {
        let mut sim = small_sim();
        sim.simulate(1);
        let bytes = checkpoint(&sim).unwrap();
        let err = restore(&bytes, &Registry::new()).err().unwrap();
        assert!(
            matches!(err, CheckpointError::UnknownAgentTag { .. }),
            "{err}"
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = restore(b"not a checkpoint", &Registry::new())
            .err()
            .unwrap();
        assert_eq!(err, CheckpointError::BadMagic);
    }
}
