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
//! ## Delta checkpoints
//!
//! [`checkpoint_delta`] writes only the sections that changed since a base
//! full checkpoint — the agent section is skipped when the resource
//! manager's structural/mutation generation is unchanged, the diffusion
//! section when every grid's change counter is unchanged, and the
//! param/force/scheduler sections when their serialized bytes hash equal.
//! Deltas name their base by whole-file checksum; [`restore_chain`] verifies
//! the linkage before merging.
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
//! keeps a bounded in-memory ring of restore points (full checkpoints plus
//! delta chains), and [`supervise`] drives a simulation with automatic
//! rollback-and-retry — panics and health-sentinel violations roll back to
//! the newest good restore point and replay bitwise-identically, with a
//! configurable degradation ladder and a bounded attempt budget.

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
    Degradation, RecoveryEvent, RecoveryPolicy, RecoveryReport, SupervisedRunner, SupervisorError,
};
pub use wire::{FORMAT_VERSION, KIND_DELTA, KIND_FULL, MAGIC};

use bdm_core::{Param, Simulation};
use bdm_util::fnv1a64;

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
    let sections = encode_sections(sim)?;
    Ok(wire::assemble(wire::KIND_FULL, 0, &sections))
}

/// A parsed summary of a full checkpoint that [`checkpoint_delta`] diffs
/// against: the file id plus the change counters and section checksums
/// recorded inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// fnv1a64 of the full checkpoint's bytes (the id deltas reference).
    pub file_id: u64,
    /// Resource-manager generation recorded in the base.
    pub generation: u64,
    /// Per-grid diffusion change counters recorded in the base.
    pub grid_versions: Vec<u64>,
    param_checksum: u64,
    force_checksum: u64,
    scheduler_checksum: u64,
}

/// Summarizes a full checkpoint for delta production.
pub fn baseline(full: &[u8]) -> Result<Baseline, CheckpointError> {
    let parsed = wire::parse(full)?;
    if parsed.kind != wire::KIND_FULL {
        return Err(CheckpointError::WrongKind { expected: "full" });
    }
    let counters = sections::read_counters(parsed.require(tag::COUNTERS)?)?;
    Ok(Baseline {
        file_id: fnv1a64(full),
        generation: counters.generation,
        grid_versions: counters.grid_versions,
        param_checksum: fnv1a64(parsed.require(tag::PARAM)?),
        force_checksum: fnv1a64(parsed.require(tag::FORCE)?),
        scheduler_checksum: fnv1a64(parsed.require(tag::SCHEDULER)?),
    })
}

/// Serializes only what changed since `base` (see the crate docs). The
/// COUNTERS section is always written; restoring the result requires the
/// base full checkpoint (see [`restore_chain`]).
///
/// `base` must describe a full checkpoint of **this same simulation
/// instance**: change detection compares the resource manager's generation
/// and the grids' change counters against the base's recorded values, and
/// those counters restart in a freshly restored simulation. After a
/// restore, take a new full checkpoint before producing deltas (the
/// [`CheckpointRing`] does this automatically via
/// [`CheckpointRing::break_chain`]).
pub fn checkpoint_delta(sim: &Simulation, base: &Baseline) -> Result<Vec<u8>, CheckpointError> {
    let all = encode_sections(sim)?;
    let mut kept = Vec::new();
    for (t, payload) in all {
        let unchanged = match t {
            tag::PARAM => fnv1a64(&payload) == base.param_checksum,
            tag::FORCE => fnv1a64(&payload) == base.force_checksum,
            tag::SCHEDULER => fnv1a64(&payload) == base.scheduler_checksum,
            tag::AGENTS => sim.resource_manager().generation() == base.generation,
            tag::DIFFUSION => {
                let n = sim.num_diffusion_grids();
                n == base.grid_versions.len()
                    && (0..n).all(|i| sim.diffusion_grid(i).version() == base.grid_versions[i])
            }
            _ => false, // COUNTERS and SHARDS: always written (both tiny)
        };
        if !unchanged {
            kept.push((t, payload));
        }
    }
    Ok(wire::assemble(wire::KIND_DELTA, base.file_id, &kept))
}

/// Restores a full checkpoint using [`Simulation::new`] as the builder.
pub fn restore(full: &[u8], registry: &Registry) -> Result<Simulation, CheckpointError> {
    restore_with(full, registry, Simulation::new)
}

/// Restores a full checkpoint, constructing the simulation shell through
/// `build`. Use this when the captured pipeline contained custom operations:
/// `build` must register operations with the same names before state is
/// applied, otherwise restore fails with [`CheckpointError::UnknownOp`].
pub fn restore_with(
    full: &[u8],
    registry: &Registry,
    build: impl FnOnce(Param) -> Simulation,
) -> Result<Simulation, CheckpointError> {
    let parsed = wire::parse(full)?;
    if parsed.kind != wire::KIND_FULL {
        return Err(CheckpointError::WrongKind { expected: "full" });
    }
    restore_merged(&collect_full(&parsed)?, registry, build)
}

/// Restores a base full checkpoint plus any number of deltas written
/// against it (later deltas override earlier ones section by section). Every
/// delta's recorded base id must match the full checkpoint's actual
/// checksum, otherwise [`CheckpointError::BaseMismatch`].
pub fn restore_chain(
    full: &[u8],
    deltas: &[&[u8]],
    registry: &Registry,
) -> Result<Simulation, CheckpointError> {
    restore_chain_with(full, deltas, registry, Simulation::new)
}

/// [`restore_chain`] with a custom simulation builder (see [`restore_with`]).
pub fn restore_chain_with(
    full: &[u8],
    deltas: &[&[u8]],
    registry: &Registry,
    build: impl FnOnce(Param) -> Simulation,
) -> Result<Simulation, CheckpointError> {
    let parsed = wire::parse(full)?;
    if parsed.kind != wire::KIND_FULL {
        return Err(CheckpointError::WrongKind { expected: "full" });
    }
    let full_id = fnv1a64(full);
    let mut merged = collect_full(&parsed)?;
    let parsed_deltas: Vec<wire::Parsed<'_>> = deltas
        .iter()
        .map(|d| wire::parse(d))
        .collect::<Result<_, _>>()?;
    for delta in &parsed_deltas {
        if delta.kind != wire::KIND_DELTA {
            return Err(CheckpointError::WrongKind { expected: "delta" });
        }
        if delta.base_id != full_id {
            return Err(CheckpointError::BaseMismatch {
                expected: delta.base_id,
                found: full_id,
            });
        }
        for (i, t) in wire::ALL_TAGS.iter().enumerate() {
            if let Some(payload) = delta.section(*t) {
                merged[i] = payload;
            }
        }
    }
    restore_merged(&merged, registry, build)
}

/// Encodes the seven sections in canonical order.
fn encode_sections(sim: &Simulation) -> Result<Vec<([u8; 4], Vec<u8>)>, CheckpointError> {
    let mid = sim.scheduler().mid_iteration();
    Ok(vec![
        (tag::PARAM, sections::write_param(sim.param())),
        (tag::FORCE, sections::write_force(sim.force())),
        (tag::COUNTERS, sections::write_counters(sim, mid)),
        (tag::AGENTS, sections::write_agents(sim)?),
        (tag::DIFFUSION, sections::write_diffusion(sim)),
        (tag::SCHEDULER, sections::write_scheduler(sim)),
        (tag::SHARDS, sections::write_shards(sim)),
    ])
}

/// Extracts all seven sections of a full checkpoint, in [`wire::ALL_TAGS`]
/// order, erroring on any missing one.
fn collect_full<'a>(parsed: &wire::Parsed<'a>) -> Result<[&'a [u8]; 7], CheckpointError> {
    Ok([
        parsed.require(tag::PARAM)?,
        parsed.require(tag::FORCE)?,
        parsed.require(tag::COUNTERS)?,
        parsed.require(tag::AGENTS)?,
        parsed.require(tag::DIFFUSION)?,
        parsed.require(tag::SCHEDULER)?,
        parsed.require(tag::SHARDS)?,
    ])
}

/// The restore recipe, from verified section payloads (indexed in
/// [`wire::ALL_TAGS`] order). Builds a fresh simulation; nothing observable
/// escapes on error.
fn restore_merged(
    merged: &[&[u8]; 7],
    registry: &Registry,
    build: impl FnOnce(Param) -> Simulation,
) -> Result<Simulation, CheckpointError> {
    let mut param = sections::read_param(merged[0])?;
    let force = sections::read_force(merged[1])?;
    let counters = sections::read_counters(merged[2])?;
    // Validation only: the partition manifest is checked for internal
    // consistency but never fed back — the partition is a pure function of
    // agent state and is recomputed at the first halo exchange, so the
    // restored simulation may run with any shard count (the `build` hook
    // can override `param.shards` freely).
    sections::read_shards(merged[6])?;

    // Pin the captured run's concrete topology: partitioning and domain
    // assignment must replay exactly regardless of this machine's defaults
    // or environment overrides.
    param.threads = Some(counters.num_threads as usize);
    param.numa_domains = Some(counters.num_domains as usize);

    let mut sim = build(param);
    sim.set_force(force);
    sections::restore_diffusion(&mut sim, merged[4])?;
    sections::restore_agents(&mut sim, registry, merged[3])?;
    sim.set_iteration(counters.iteration);
    sim.set_uid_counter(counters.uid_counter);
    sim.set_init_cursor(counters.init_cursor as usize);
    sim.set_static_detection_engaged(counters.static_engaged);
    sections::restore_scheduler(&mut sim, merged[5])?;
    Ok(sim)
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
    fn delta_with_no_changes_skips_bulk_sections() {
        let mut sim = small_sim();
        sim.simulate(2);
        let full = checkpoint(&sim).unwrap();
        let base = baseline(&full).unwrap();
        // No further steps: nothing changed.
        let delta = checkpoint_delta(&sim, &base).unwrap();
        assert!(
            delta.len() < full.len() / 2,
            "delta {} vs full {}",
            delta.len(),
            full.len()
        );
        let restored = restore_chain(&full, &[&delta], &Registry::with_builtin_types()).unwrap();
        bdm_core::testing::assert_identical(
            &bdm_core::testing::fingerprint(&sim),
            &bdm_core::testing::fingerprint(&restored),
            "delta chain",
        );
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
