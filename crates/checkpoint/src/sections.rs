//! Section payload encodings.
//!
//! Each `write_*` produces one section payload; the matching `read_*` /
//! `restore_*` consumes exactly those bytes and converts every reader
//! truncation or invalid value into a typed, section-naming
//! [`CheckpointError`]. The layouts are documented field-by-field in
//! `docs/ARCHITECTURE.md`.

use bdm_core::{EnvironmentKind, HealthPolicy, InteractionForce, Param, Simulation, StaticFlags};
use bdm_util::{ByteReader, ByteWriter, Real3};

use crate::error::{truncated, CheckpointError};
use crate::registry::Registry;

// ---------------------------------------------------------------------------
// PARAM

fn opt_f64(w: &mut ByteWriter, v: Option<f64>) {
    w.put_u8(u8::from(v.is_some()));
    w.put_f64(v.unwrap_or(0.0));
}

fn opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    w.put_u8(u8::from(v.is_some()));
    w.put_u64(v.unwrap_or(0));
}

/// Encodes every [`Param`] field, in declaration order.
pub fn write_param(p: &Param) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(p.seed);
    w.put_u8(p.environment.code());
    opt_f64(&mut w, p.interaction_radius);
    w.put_f64(p.simulation_time_step);
    w.put_f64(p.simulation_max_displacement);
    w.put_u8(u8::from(p.enable_mechanics));
    w.put_u8(u8::from(p.detect_static_agents));
    opt_u64(&mut w, p.agent_sort_frequency.map(|f| f as u64));
    w.put_u8(u8::from(p.sort_use_extra_memory));
    w.put_u8(u8::from(p.parallel_add_remove));
    w.put_u8(u8::from(p.numa_aware_iteration));
    w.put_u8(u8::from(p.use_pool_allocator));
    opt_u64(&mut w, p.threads.map(|t| t as u64));
    opt_u64(&mut w, p.numa_domains.map(|d| d as u64));
    w.put_u64(p.iteration_block_size as u64);
    // Health policy (format v2): fixed-size like the opt_* fields — absent
    // policies write zeroed placeholders so the payload length is stable.
    w.put_u8(u8::from(p.health.is_some()));
    let h = p.health.clone().unwrap_or_default();
    w.put_u64(h.frequency);
    w.put_u8(u8::from(h.bounds.is_some()));
    let (lo, hi) = h.bounds.unwrap_or((Real3::ZERO, Real3::ZERO));
    for v in [lo, hi] {
        w.put_f64(v.x());
        w.put_f64(v.y());
        w.put_f64(v.z());
    }
    opt_u64(&mut w, h.max_agents);
    w.put_u8(u8::from(h.check_diffusion));
    // Shard count (format v3).
    w.put_u64(p.shards as u64);
    w.into_bytes()
}

const S_PARAM: &str = "PARAM";

fn take_opt_f64(r: &mut ByteReader<'_>, s: &'static str) -> Result<Option<f64>, CheckpointError> {
    let some = r.take_u8().map_err(truncated(s))? != 0;
    let v = r.take_f64().map_err(truncated(s))?;
    Ok(some.then_some(v))
}

fn take_opt_u64(r: &mut ByteReader<'_>, s: &'static str) -> Result<Option<u64>, CheckpointError> {
    let some = r.take_u8().map_err(truncated(s))? != 0;
    let v = r.take_u64().map_err(truncated(s))?;
    Ok(some.then_some(v))
}

fn malformed(section: &'static str, detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed {
        section,
        detail: detail.into(),
    }
}

/// Decodes a [`write_param`] payload.
pub fn read_param(payload: &[u8]) -> Result<Param, CheckpointError> {
    let r = &mut ByteReader::new(payload);
    let t = truncated(S_PARAM);
    let seed = r.take_u64().map_err(t)?;
    let env_code = r.take_u8().map_err(truncated(S_PARAM))?;
    let environment = EnvironmentKind::from_code(env_code)
        .ok_or_else(|| malformed(S_PARAM, format!("unknown environment code {env_code}")))?;
    let interaction_radius = take_opt_f64(r, S_PARAM)?;
    let simulation_time_step = r.take_f64().map_err(truncated(S_PARAM))?;
    let simulation_max_displacement = r.take_f64().map_err(truncated(S_PARAM))?;
    let enable_mechanics = r.take_u8().map_err(truncated(S_PARAM))? != 0;
    let detect_static_agents = r.take_u8().map_err(truncated(S_PARAM))? != 0;
    let agent_sort_frequency = take_opt_u64(r, S_PARAM)?.map(|f| f as usize);
    let sort_use_extra_memory = r.take_u8().map_err(truncated(S_PARAM))? != 0;
    let parallel_add_remove = r.take_u8().map_err(truncated(S_PARAM))? != 0;
    let numa_aware_iteration = r.take_u8().map_err(truncated(S_PARAM))? != 0;
    let use_pool_allocator = r.take_u8().map_err(truncated(S_PARAM))? != 0;
    let threads = take_opt_u64(r, S_PARAM)?.map(|v| v as usize);
    let numa_domains = take_opt_u64(r, S_PARAM)?.map(|v| v as usize);
    let iteration_block_size = r.take_u64().map_err(truncated(S_PARAM))? as usize;
    let health_some = r.take_u8().map_err(truncated(S_PARAM))? != 0;
    let health_frequency = r.take_u64().map_err(truncated(S_PARAM))?;
    let bounds_some = r.take_u8().map_err(truncated(S_PARAM))? != 0;
    let mut bounds_vals = [0.0f64; 6];
    for v in &mut bounds_vals {
        *v = r.take_f64().map_err(truncated(S_PARAM))?;
    }
    let health_max_agents = take_opt_u64(r, S_PARAM)?;
    let health_check_diffusion = r.take_u8().map_err(truncated(S_PARAM))? != 0;
    let health = health_some.then(|| HealthPolicy {
        frequency: health_frequency,
        bounds: bounds_some.then(|| {
            (
                Real3::new(bounds_vals[0], bounds_vals[1], bounds_vals[2]),
                Real3::new(bounds_vals[3], bounds_vals[4], bounds_vals[5]),
            )
        }),
        max_agents: health_max_agents,
        check_diffusion: health_check_diffusion,
    });
    let shards = r.take_u64().map_err(truncated(S_PARAM))? as usize;
    if !(1..=bdm_core::MAX_SHARDS).contains(&shards) {
        return Err(malformed(S_PARAM, format!("invalid shard count {shards}")));
    }
    if let Some(radius) = interaction_radius.filter(|r| !(r.is_finite() && *r > 0.0)) {
        return Err(malformed(
            S_PARAM,
            format!("invalid interaction radius {radius}"),
        ));
    }
    if !(simulation_time_step.is_finite() && simulation_time_step > 0.0) {
        return Err(malformed(
            S_PARAM,
            format!("invalid time step {simulation_time_step}"),
        ));
    }
    if simulation_max_displacement.is_nan() || simulation_max_displacement < 0.0 {
        return Err(malformed(
            S_PARAM,
            format!("invalid displacement cap {simulation_max_displacement}"),
        ));
    }
    if shards > 1 && environment != EnvironmentKind::UniformGrid {
        return Err(malformed(
            S_PARAM,
            format!("{shards} shards with non-uniform-grid environment"),
        ));
    }
    if !r.is_exhausted() {
        return Err(malformed(
            S_PARAM,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(Param {
        seed,
        environment,
        interaction_radius,
        simulation_time_step,
        simulation_max_displacement,
        enable_mechanics,
        detect_static_agents,
        agent_sort_frequency,
        sort_use_extra_memory,
        parallel_add_remove,
        numa_aware_iteration,
        use_pool_allocator,
        threads,
        numa_domains,
        iteration_block_size,
        shards,
        health,
    })
}

// ---------------------------------------------------------------------------
// SHARDS

const S_SHRD: &str = "SHARDS";

/// Encodes the shard-partition manifest of the last halo exchange (see
/// [`bdm_core::ShardManifest`]): shard count, the Morton-code range of each
/// shard, and the per-shard owned-agent counts. Unsharded runs (and sharded
/// runs that have not exchanged yet) write an empty manifest (shard count
/// 0). The manifest is **validation-only** on restore — the partition is a
/// pure function of agent state and is recomputed from scratch, which is
/// what makes restoring into a *different* shard count bitwise-safe.
pub fn write_shards(sim: &Simulation) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match sim.shard_manifest() {
        Some(m) => {
            w.put_u64(m.shards);
            for (begin, end) in &m.ranges {
                w.put_u64(*begin);
                w.put_u64(*end);
            }
            for owned in &m.owned {
                w.put_u64(*owned);
            }
        }
        None => w.put_u64(0),
    }
    w.into_bytes()
}

/// Decodes and validates a [`write_shards`] payload: the ranges must tile
/// the full Morton-code space contiguously and the counts must be
/// per-shard complete. The decoded manifest is returned for inspection but
/// never fed back into the engine.
pub fn read_shards(payload: &[u8]) -> Result<Option<bdm_core::ShardManifest>, CheckpointError> {
    let r = &mut ByteReader::new(payload);
    let shards = r.take_u64().map_err(truncated(S_SHRD))?;
    if shards == 0 {
        if !r.is_exhausted() {
            return Err(malformed(
                S_SHRD,
                format!("{} trailing bytes", r.remaining()),
            ));
        }
        return Ok(None);
    }
    if shards as usize > bdm_core::MAX_SHARDS {
        return Err(malformed(S_SHRD, format!("invalid shard count {shards}")));
    }
    let mut ranges = Vec::with_capacity(shards as usize);
    for _ in 0..shards {
        let begin = r.take_u64().map_err(truncated(S_SHRD))?;
        let end = r.take_u64().map_err(truncated(S_SHRD))?;
        ranges.push((begin, end));
    }
    let mut owned = Vec::with_capacity(shards as usize);
    for _ in 0..shards {
        owned.push(r.take_u64().map_err(truncated(S_SHRD))?);
    }
    if !r.is_exhausted() {
        return Err(malformed(
            S_SHRD,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    if ranges[0].0 != 0 || ranges[shards as usize - 1].1 != u64::MAX {
        return Err(malformed(S_SHRD, "ranges do not cover the code space"));
    }
    for w in ranges.windows(2) {
        if w[0].1 != w[1].0 {
            return Err(malformed(
                S_SHRD,
                format!("ranges not contiguous at {:#018x}/{:#018x}", w[0].1, w[1].0),
            ));
        }
    }
    Ok(Some(bdm_core::ShardManifest {
        shards,
        ranges,
        owned,
    }))
}

// ---------------------------------------------------------------------------
// FORCE

/// Encodes the interaction-force coefficients.
pub fn write_force(f: InteractionForce) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_f64(f.repulsion);
    w.put_f64(f.attraction);
    w.into_bytes()
}

/// Decodes a [`write_force`] payload.
pub fn read_force(payload: &[u8]) -> Result<InteractionForce, CheckpointError> {
    let r = &mut ByteReader::new(payload);
    let repulsion = r.take_f64().map_err(truncated("FORCE"))?;
    let attraction = r.take_f64().map_err(truncated("FORCE"))?;
    if !r.is_exhausted() {
        return Err(malformed(
            "FORCE",
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(InteractionForce {
        repulsion,
        attraction,
    })
}

// ---------------------------------------------------------------------------
// COUNTERS

/// The scalar state: iteration/uid counters, the concrete topology the run
/// executed on (pinned on restore so neighbor partitioning is reproduced
/// exactly), and static detection's duty-cycle bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Completed iterations at capture (mid-iteration captures store the
    /// last *completed* iteration, so restore + one step replays the
    /// interrupted iteration in full).
    pub iteration: u64,
    /// Next agent uid.
    pub uid_counter: u64,
    /// Round-robin domain cursor of `Simulation::add_agent`.
    pub init_cursor: u64,
    /// Concrete NUMA domain count of the captured run.
    pub num_domains: u64,
    /// Concrete worker-thread count of the captured run.
    pub num_threads: u64,
    /// Static detection's duty-cycle bit
    /// ([`Simulation::static_detection_engaged`]); a mid-iteration capture
    /// stores the bit its interrupted iteration started with.
    pub static_engaged: bool,
}

const S_CNTR: &str = "COUNTERS";

/// Captures and encodes the counters of `sim`. `mid_iteration` subtracts the
/// in-flight iteration (see [`Counters::iteration`]).
pub fn write_counters(sim: &Simulation, mid_iteration: bool) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(sim.iteration() - u64::from(mid_iteration));
    w.put_u64(sim.uid_counter());
    w.put_u64(sim.init_cursor() as u64);
    w.put_u64(sim.topology().num_domains() as u64);
    w.put_u64(sim.topology().num_threads() as u64);
    w.put_u8(u8::from(sim.static_detection_engaged()));
    w.into_bytes()
}

/// Decodes a [`write_counters`] payload.
pub fn read_counters(payload: &[u8]) -> Result<Counters, CheckpointError> {
    let r = &mut ByteReader::new(payload);
    let iteration = r.take_u64().map_err(truncated(S_CNTR))?;
    let uid_counter = r.take_u64().map_err(truncated(S_CNTR))?;
    let init_cursor = r.take_u64().map_err(truncated(S_CNTR))?;
    let num_domains = r.take_u64().map_err(truncated(S_CNTR))?;
    let num_threads = r.take_u64().map_err(truncated(S_CNTR))?;
    let static_engaged = match r.take_u8().map_err(truncated(S_CNTR))? {
        0 => false,
        1 => true,
        other => return Err(malformed(S_CNTR, format!("duty-cycle byte {other}"))),
    };
    if num_domains == 0 || num_threads == 0 {
        return Err(malformed(S_CNTR, "zero domains or threads"));
    }
    if !r.is_exhausted() {
        return Err(malformed(
            S_CNTR,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(Counters {
        iteration,
        uid_counter,
        init_cursor,
        num_domains,
        num_threads,
        static_engaged,
    })
}

// ---------------------------------------------------------------------------
// AGENTS

const S_AGNT: &str = "AGENTS";

/// Encodes every agent, domain-major in storage order, so restore re-inserts
/// into identical `(domain, index)` slots — secretion queueing and any other
/// order-sensitive machinery then replays identically.
///
/// Per agent: uid, position, diameter, length-prefixed type body
/// ([`bdm_core::Agent::checkpoint_write`]), behavior list (tag +
/// length-prefixed body each), static flags, pending violation flag.
pub fn write_agents(sim: &Simulation) -> Result<Vec<u8>, CheckpointError> {
    let rm = sim.resource_manager();
    let mut w = ByteWriter::new();
    let domains = rm.num_domains();
    w.put_u32(domains as u32);
    for d in 0..domains {
        w.put_u64(rm.num_in_domain(d) as u64);
    }
    let mut failure: Option<CheckpointError> = None;
    sim.for_each_agent(|h, a| {
        if failure.is_some() {
            return;
        }
        let tag = a.checkpoint_tag();
        if tag.is_empty() {
            failure = Some(CheckpointError::Unsupported {
                kind: "agent",
                name: format!("agent uid {} (payload {})", a.uid().0, a.payload()),
            });
            return;
        }
        w.put_u64(a.uid().0);
        w.put_real3(a.position());
        w.put_f64(a.diameter());
        w.put_str(tag);
        let mut body = ByteWriter::new();
        a.checkpoint_write(&mut body);
        w.put_u32(body.len() as u32);
        w.put_bytes(body.as_slice());
        let behaviors = a.base().behaviors();
        w.put_u32(behaviors.len() as u32);
        for b in behaviors {
            let btag = b.checkpoint_tag();
            if btag.is_empty() {
                failure = Some(CheckpointError::Unsupported {
                    kind: "behavior",
                    name: b.name().to_string(),
                });
                return;
            }
            w.put_str(btag);
            let mut bb = ByteWriter::new();
            b.checkpoint_write(&mut bb);
            w.put_u32(bb.len() as u32);
            w.put_bytes(bb.as_slice());
        }
        let flags = rm.static_flags(h);
        w.put_u8(u8::from(flags.is_static));
        w.put_u64(flags.created_iter);
        w.put_u8(u8::from(rm.violation(h.domain as usize, h.index as usize)));
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(w.into_bytes()),
    }
}

/// Everything the engine stores about an agent outside its concrete type;
/// handed to the registered agent constructor on restore.
pub struct RestoredAgent {
    /// The agent's uid.
    pub uid: bdm_core::AgentUid,
    /// Position at capture.
    pub position: Real3,
    /// Diameter at capture.
    pub diameter: f64,
    /// Reconstructed behaviors, in attachment order.
    pub behaviors: Vec<bdm_core::BehaviorBox>,
    /// Static-detection flags at capture.
    pub flags: StaticFlags,
    /// Pending displacement-violation flag.
    pub violation: bool,
}

/// Decodes a [`write_agents`] payload into `sim`, resolving type tags
/// through `registry`.
pub fn restore_agents(
    sim: &mut Simulation,
    registry: &Registry,
    payload: &[u8],
) -> Result<(), CheckpointError> {
    let r = &mut ByteReader::new(payload);
    let domains = r.take_u32().map_err(truncated(S_AGNT))? as usize;
    if domains != sim.resource_manager().num_domains() {
        return Err(malformed(
            S_AGNT,
            format!(
                "checkpoint has {domains} domains, simulation has {}",
                sim.resource_manager().num_domains()
            ),
        ));
    }
    let mut counts = Vec::with_capacity(domains);
    for _ in 0..domains {
        counts.push(r.take_u64().map_err(truncated(S_AGNT))? as usize);
    }
    for (d, count) in counts.into_iter().enumerate() {
        for _ in 0..count {
            let uid = bdm_core::AgentUid(r.take_u64().map_err(truncated(S_AGNT))?);
            let position = r.take_real3().map_err(truncated(S_AGNT))?;
            let diameter = r.take_f64().map_err(truncated(S_AGNT))?;
            let tag = r.take_str().map_err(truncated(S_AGNT))?;
            let body_len = r.take_u32().map_err(truncated(S_AGNT))? as usize;
            let body = r.take_bytes(body_len).map_err(truncated(S_AGNT))?;
            let num_behaviors = r.take_u32().map_err(truncated(S_AGNT))? as usize;
            let mut behaviors = Vec::with_capacity(num_behaviors.min(64));
            for _ in 0..num_behaviors {
                let btag = r.take_str().map_err(truncated(S_AGNT))?;
                let blen = r.take_u32().map_err(truncated(S_AGNT))? as usize;
                let bbody = r.take_bytes(blen).map_err(truncated(S_AGNT))?;
                behaviors.push(registry.build_behavior(&btag, sim.memory_manager(), d, bbody)?);
            }
            let is_static = r.take_u8().map_err(truncated(S_AGNT))? != 0;
            let created_iter = r.take_u64().map_err(truncated(S_AGNT))?;
            let violation = r.take_u8().map_err(truncated(S_AGNT))? != 0;
            let restored = RestoredAgent {
                uid,
                position,
                diameter,
                behaviors,
                flags: StaticFlags {
                    is_static,
                    created_iter,
                },
                violation,
            };
            registry.build_agent(&tag, sim, d, restored, body)?;
        }
    }
    if !r.is_exhausted() {
        return Err(malformed(
            S_AGNT,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// DIFFUSION

const S_DIFF: &str = "DIFFUSION";

/// Encodes every diffusion grid: construction parameters and the
/// concentration array bitwise. (`c_next` is scratch — every solver
/// substep fully overwrites it before the buffer swap, so it is not
/// step-relevant state.)
pub fn write_diffusion(sim: &Simulation) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let n = sim.num_diffusion_grids();
    w.put_u32(n as u32);
    for i in 0..n {
        let g = sim.diffusion_grid(i);
        w.put_str(g.name());
        w.put_f64(g.diffusion_coefficient());
        w.put_f64(g.decay_constant());
        w.put_u64(g.resolution() as u64);
        w.put_u8(match g.boundary() {
            bdm_core::BoundaryCondition::ClosedReflecting => 0,
            bdm_core::BoundaryCondition::OpenAbsorbing => 1,
        });
        w.put_real3(g.domain_min());
        w.put_f64(g.domain_edge());
        let c = g.concentrations();
        w.put_u64(c.len() as u64);
        for v in c {
            w.put_f64(*v);
        }
    }
    w.into_bytes()
}

/// Decodes a [`write_diffusion`] payload, rebuilding the grids on `sim`
/// (which must have none yet).
pub fn restore_diffusion(sim: &mut Simulation, payload: &[u8]) -> Result<(), CheckpointError> {
    let r = &mut ByteReader::new(payload);
    let n = r.take_u32().map_err(truncated(S_DIFF))? as usize;
    for _ in 0..n {
        let name = r.take_str().map_err(truncated(S_DIFF))?;
        let d = r.take_f64().map_err(truncated(S_DIFF))?;
        let decay = r.take_f64().map_err(truncated(S_DIFF))?;
        let resolution = r.take_u64().map_err(truncated(S_DIFF))? as usize;
        let boundary_code = r.take_u8().map_err(truncated(S_DIFF))?;
        let boundary = match boundary_code {
            0 => bdm_core::BoundaryCondition::ClosedReflecting,
            1 => bdm_core::BoundaryCondition::OpenAbsorbing,
            c => return Err(malformed(S_DIFF, format!("unknown boundary code {c}"))),
        };
        let min = r.take_real3().map_err(truncated(S_DIFF))?;
        let edge = r.take_f64().map_err(truncated(S_DIFF))?;
        let len = r.take_u64().map_err(truncated(S_DIFF))?;
        // The checks `DiffusionGrid::new` asserts, as typed errors.
        let volumes = bdm_core::DiffusionGrid::volumes_for(resolution);
        if resolution < 2 || volumes.map(|v| v as u64) != Some(len) {
            return Err(malformed(
                S_DIFF,
                format!("grid {name:?}: {len} values for resolution {resolution}"),
            ));
        }
        let finite = min.is_finite() && [d, decay, edge].iter().all(|v| v.is_finite());
        if !(finite && edge > 0.0 && d >= 0.0 && decay >= 0.0) {
            return Err(malformed(
                S_DIFF,
                format!("grid {name:?}: invalid parameters"),
            ));
        }
        // Take the values' bytes before allocating: a claimed length is
        // not an allocation size.
        let values: Vec<f64> = r
            .take_bytes(len as usize * 8)
            .map_err(truncated(S_DIFF))?
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect();
        let mut grid = bdm_core::DiffusionGrid::new(&name, d, decay, resolution, min, edge)
            .with_boundary(boundary);
        grid.set_concentrations(&values);
        sim.add_diffusion_grid(grid);
    }
    if !r.is_exhausted() {
        return Err(malformed(
            S_DIFF,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// SCHEDULER

const S_SCHD: &str = "SCHEDULER";

/// Encodes the op list: name, frequency, enabled flag per operation, in
/// pipeline order. Mid-iteration captures read the pre-detach snapshot the
/// scheduler keeps for exactly this purpose.
pub fn write_scheduler(sim: &Simulation) -> Vec<u8> {
    let ops = sim.scheduler().pipeline_info();
    let mut w = ByteWriter::new();
    w.put_u32(ops.len() as u32);
    for op in &ops {
        w.put_str(&op.name);
        w.put_u64(op.frequency);
        w.put_u8(u8::from(op.enabled));
    }
    w.into_bytes()
}

/// Applies a [`write_scheduler`] payload to `sim`'s pipeline. Frequencies
/// are applied before enabled flags because `set_frequency` re-enables.
pub fn restore_scheduler(sim: &mut Simulation, payload: &[u8]) -> Result<(), CheckpointError> {
    let r = &mut ByteReader::new(payload);
    let n = r.take_u32().map_err(truncated(S_SCHD))? as usize;
    for _ in 0..n {
        let name = r.take_str().map_err(truncated(S_SCHD))?;
        let frequency = r.take_u64().map_err(truncated(S_SCHD))?;
        let enabled = r.take_u8().map_err(truncated(S_SCHD))? != 0;
        if !sim.scheduler_mut().set_frequency(&name, frequency) {
            return Err(CheckpointError::UnknownOp { name });
        }
        sim.scheduler_mut().set_enabled(&name, enabled);
    }
    if !r.is_exhausted() {
        return Err(malformed(
            S_SCHD,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(())
}
