//! Integration: edge cases and failure injection — empty simulations,
//! mass extinction, explosive growth, degenerate geometry, allocator
//! pressure, corrupt checkpoints, and supervised-recovery conformance
//! (every injected fault kind must recover to a state bitwise identical to
//! an undisturbed run). The engine must never panic or corrupt state.

use biodynamo::core::{
    clone_behavior_box, new_behavior_box, Behavior, BehaviorBox, BehaviorControl,
};
use biodynamo::core::{AgentContext, MemoryManager};
use biodynamo::prelude::*;

fn small_param() -> Param {
    Param {
        threads: Some(2),
        numa_domains: Some(2),
        ..Param::default()
    }
}

#[test]
fn empty_simulation_steps() {
    let mut sim = Simulation::new(small_param());
    sim.simulate(5);
    assert_eq!(sim.num_agents(), 0);
    assert_eq!(sim.iteration(), 5);
}

/// Behavior that removes its agent on a chosen iteration.
#[derive(Clone)]
struct DieAt(u64);

impl Behavior for DieAt {
    fn run(&mut self, _agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        if ctx.iteration >= self.0 {
            ctx.remove_self();
        }
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "DieAt"
    }
}

#[test]
fn mass_extinction_in_one_iteration() {
    // All agents removed in the same commit exercises the full swap
    // machinery of paper Figure 1 with new_size = 0.
    for parallel in [false, true] {
        let mut param = small_param();
        param.parallel_add_remove = parallel;
        let mut sim = Simulation::new(param);
        for i in 0..97 {
            let uid = sim.new_uid();
            let mut cell = Cell::new(uid).with_position(Real3::splat(i as f64 * 15.0));
            cell.base_mut()
                .add_behavior(new_behavior_box(DieAt(2), sim.memory_manager(), 0));
            sim.add_agent(cell);
        }
        sim.simulate(4);
        assert_eq!(sim.num_agents(), 0, "parallel={parallel}");
        assert_eq!(sim.stats().agents_removed, 97);
        // The engine keeps running fine after extinction.
        sim.simulate(3);
        assert_eq!(sim.num_agents(), 0);
    }
}

/// Behavior that spawns `n` children on the first iteration.
#[derive(Clone)]
struct SpawnBurst(usize);

impl Behavior for SpawnBurst {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        if ctx.iteration == 1 {
            for k in 0..self.0 {
                let uid = ctx.next_uid();
                ctx.new_agent(
                    Cell::new(uid)
                        .with_position(agent.position() + Real3::splat(0.5 + k as f64))
                        .with_diameter(2.0),
                );
            }
            BehaviorControl::RemoveSelf
        } else {
            BehaviorControl::Keep
        }
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "SpawnBurst"
    }
}

#[test]
fn explosive_growth_commits_in_parallel() {
    let mut sim = Simulation::new(small_param());
    for i in 0..8 {
        let uid = sim.new_uid();
        let mut cell = Cell::new(uid).with_position(Real3::splat(i as f64 * 100.0));
        cell.base_mut()
            .add_behavior(new_behavior_box(SpawnBurst(50), sim.memory_manager(), 0));
        sim.add_agent(cell);
    }
    sim.simulate(2);
    assert_eq!(sim.num_agents(), 8 + 8 * 50);
    assert_eq!(sim.stats().agents_added, 400);
    // Children are visible to later iterations (they participate in ops).
    sim.simulate(1);
    assert_eq!(sim.num_agents(), 408);
}

#[test]
fn single_agent_simulation() {
    let mut sim = Simulation::new(small_param());
    let uid = sim.new_uid();
    sim.add_agent(Cell::new(uid).with_diameter(10.0));
    sim.simulate(10);
    assert_eq!(sim.num_agents(), 1);
    sim.for_each_agent(|_, a| assert!(a.position().is_finite()));
}

#[test]
fn coincident_agents_do_not_explode() {
    // All agents at exactly the same point: the force law must not produce
    // NaN (zero-distance guard) and max_displacement caps the separation.
    let mut sim = Simulation::new(small_param());
    for _ in 0..20 {
        let uid = sim.new_uid();
        sim.add_agent(
            Cell::new(uid)
                .with_position(Real3::splat(50.0))
                .with_diameter(10.0),
        );
    }
    sim.simulate(5);
    sim.for_each_agent(|_, a| {
        assert!(
            a.position().is_finite(),
            "position exploded: {:?}",
            a.position()
        );
        assert!(
            a.position().distance(&Real3::splat(50.0)) < 100.0,
            "displacement must stay capped"
        );
    });
}

#[test]
fn zero_iterations_is_a_noop() {
    let model = biodynamo::models::CellClustering::new(60);
    let mut sim = model.build(small_param());
    let before = sim.num_agents();
    sim.simulate(0);
    assert_eq!(sim.num_agents(), before);
    assert_eq!(sim.iteration(), 0);
}

#[test]
fn extreme_sort_frequency_is_safe() {
    // Sorting every iteration including while agents are added/removed.
    let model = biodynamo::models::Oncology::new(120);
    let mut param = small_param();
    param.agent_sort_frequency = Some(1);
    let mut sim = model.build(param);
    sim.simulate(15);
    assert!(sim.num_agents() > 0);
    assert!(sim.stats().sorts > 0);
    // Uids remain unique after repeated relocation.
    let mut uids: Vec<u64> = Vec::new();
    sim.for_each_agent(|_, a| uids.push(a.uid().0));
    uids.sort_unstable();
    let before = uids.len();
    uids.dedup();
    assert_eq!(uids.len(), before, "duplicate uids after sorting");
}

#[test]
fn more_domains_than_needed_is_clamped_safely() {
    // 4 virtual domains on 4 threads with only 3 agents: some domains own
    // zero agents; iteration and sorting must handle empty domains.
    let param = Param {
        threads: Some(4),
        numa_domains: Some(4),
        agent_sort_frequency: Some(2),
        ..Param::default()
    };
    let mut sim = Simulation::new(param);
    for i in 0..3 {
        let uid = sim.new_uid();
        sim.add_agent(Cell::new(uid).with_position(Real3::splat(i as f64 * 30.0)));
    }
    sim.simulate(6);
    assert_eq!(sim.num_agents(), 3);
}

#[test]
fn allocator_survives_churn() {
    // Repeated create/destroy cycles stress pool reuse (free-list
    // migrations between thread-private and central lists, Figure 4B).
    let mut sim = Simulation::new(small_param());
    for round in 0..5u64 {
        for i in 0..60 {
            let uid = sim.new_uid();
            let mut cell = Cell::new(uid).with_position(Real3::splat(i as f64 * 12.0));
            cell.base_mut().add_behavior(new_behavior_box(
                DieAt(round * 3 + 2),
                sim.memory_manager(),
                0,
            ));
            sim.add_agent(cell);
        }
        sim.simulate(3);
    }
    sim.simulate(3);
    assert_eq!(sim.num_agents(), 0);
    let stats = sim.memory_stats();
    assert!(stats.pool_deallocations > 0);
    assert!(
        stats.pool_deallocations <= stats.pool_allocations,
        "{stats:?}"
    );
}

// ---- Corrupt-checkpoint injection -----------------------------------------
//
// Restore must never panic and never half-restore: truncated, bit-flipped,
// or version-mismatched checkpoints return a typed `CheckpointError` naming
// the failing section, and no `Simulation` escapes.

mod corrupt_checkpoints {
    use super::small_param;
    use biodynamo::checkpoint::{checkpoint, restore, CheckpointError, Registry, FORMAT_VERSION};
    use biodynamo::prelude::*;

    /// A small but fully featured checkpoint: agents with behaviors plus a
    /// diffusion grid, so every section is non-trivial.
    fn valid_checkpoint() -> Vec<u8> {
        let mut sim = Simulation::new(Param {
            interaction_radius: Some(12.0),
            ..small_param()
        });
        let g = sim.add_diffusion_grid(DiffusionGrid::new(
            "attractant",
            0.3,
            0.01,
            8,
            Real3::splat(0.0),
            80.0,
        ));
        for i in 0..30 {
            let uid = sim.new_uid();
            let mut cell = Cell::new(uid)
                .with_position(Real3::splat(5.0 + i as f64 * 2.0))
                .with_diameter(8.0);
            cell.base_mut().add_behavior(new_behavior_box(
                biodynamo::models::Secretion {
                    grid: g,
                    amount: 0.5,
                },
                sim.memory_manager(),
                0,
            ));
            sim.add_agent(cell);
        }
        sim.simulate(3);
        checkpoint(&sim).expect("valid checkpoint")
    }

    /// Truncation at every length in a byte-granular sweep near the front
    /// (header + section table) and a coarser sweep through the payloads:
    /// always a typed error, never a panic.
    #[test]
    fn truncated_checkpoints_return_typed_errors() {
        let reg = Registry::with_builtin_types();
        let bytes = valid_checkpoint();
        let lengths = (0..64.min(bytes.len()))
            .chain((64..bytes.len()).step_by(97))
            .chain([bytes.len() - 1]);
        for len in lengths {
            let err = restore(&bytes[..len], &reg)
                .err()
                .unwrap_or_else(|| panic!("restore of {len}-byte prefix must fail"));
            // Every prefix is either missing bytes or fails the whole-file
            // checksum; both carry the failing section's name.
            match err {
                CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch { .. } => {}
                other => panic!("prefix len {len}: unexpected error {other}"),
            }
        }
    }

    /// A single flipped bit anywhere in the file is caught by the whole-file
    /// checksum (or, for flips inside the trailer itself, by the mismatch
    /// against the recomputed sum) — typed error, never a panic, never a
    /// half-restored simulation.
    #[test]
    fn bit_flipped_checkpoints_return_typed_errors() {
        let reg = Registry::with_builtin_types();
        let bytes = valid_checkpoint();
        for pos in (0..bytes.len()).step_by(53) {
            for bit in [0, 7] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                let err = restore(&corrupt, &reg)
                    .err()
                    .unwrap_or_else(|| panic!("flip at byte {pos} bit {bit} must not restore"));
                match err {
                    CheckpointError::ChecksumMismatch { .. }
                    | CheckpointError::BadMagic
                    | CheckpointError::VersionMismatch { .. }
                    | CheckpointError::Malformed { .. } => {}
                    other => panic!("flip at byte {pos} bit {bit}: unexpected error {other}"),
                }
            }
        }
    }

    /// A future format version, and the retired one before the current
    /// (whose PARAM section holds the 68-byte health policy), are rejected as
    /// `VersionMismatch` naming the found version — even with a valid
    /// whole-file checksum, which the writer of that version would produce.
    #[test]
    fn version_mismatch_is_reported_by_name() {
        let reg = Registry::with_builtin_types();
        for version in [FORMAT_VERSION + 1, FORMAT_VERSION - 1] {
            let mut bytes = valid_checkpoint();
            // Set the version field (offset 8, u32 LE) and re-seal the file.
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let body_len = bytes.len() - 8;
            let sum = biodynamo::util::fnv1a64(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
            match restore(&bytes, &reg).err().unwrap() {
                CheckpointError::VersionMismatch { found } => assert_eq!(found, version),
                other => panic!("version {version}: unexpected error {other}"),
            }
        }
    }

    /// An interaction radius the grid cannot be built with is `Malformed`
    /// PARAM at restore, not a panic in the restored simulation's first
    /// environment update.
    #[test]
    fn invalid_interaction_radius_is_malformed_param() {
        let reg = Registry::with_builtin_types();
        for radius in [-1.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let sim = Simulation::new(Param {
                interaction_radius: Some(radius),
                ..small_param()
            });
            let bytes = checkpoint(&sim).expect("an unstepped simulation checkpoints");
            match restore(&bytes, &reg).err() {
                Some(CheckpointError::Malformed { section, .. }) => {
                    assert_eq!(section, "PARAM", "radius {radius}")
                }
                other => panic!("radius {radius}: unexpected result {other:?}"),
            }
        }
    }

    /// A time step that is not finite and positive, or a NaN or negative
    /// displacement cap, is `Malformed` PARAM at restore, not a diffusion
    /// panic or reversed displacements in the restored simulation's first
    /// step. An infinite or huge cap stays legal (it disables the cap).
    #[test]
    fn invalid_time_step_or_displacement_cap_is_malformed_param() {
        use biodynamo::util::fnv1a64;
        let reg = Registry::with_builtin_types();
        let bytes = valid_checkpoint();
        // Section layout: tag(4) + len(8) + sum(8) + payload. PARAM opens
        // with seed (8), environment (1) and the optional radius (1 + 8),
        // then the time step and the cap.
        let tag_at = bytes
            .windows(4)
            .position(|w| w == b"PARM")
            .expect("PARM section present");
        let len = u64::from_le_bytes(bytes[tag_at + 4..tag_at + 12].try_into().unwrap()) as usize;
        let payload_at = tag_at + 20;
        // The file with the f64 at PARAM offset `at` replaced, re-sealed.
        let with_param_f64 = |at: usize, v: f64| {
            let mut b = bytes.clone();
            b[payload_at + at..payload_at + at + 8].copy_from_slice(&v.to_le_bytes());
            let sum = fnv1a64(&b[payload_at..payload_at + len]);
            b[tag_at + 12..tag_at + 20].copy_from_slice(&sum.to_le_bytes());
            let body_len = b.len() - 8;
            let trailer = fnv1a64(&b[..body_len]);
            b[body_len..].copy_from_slice(&trailer.to_le_bytes());
            b
        };
        let (time_step, cap) = (18, 26);
        let cases = [
            ("time step", time_step, f64::NAN),
            ("time step", time_step, f64::INFINITY),
            ("time step", time_step, 0.0),
            ("time step", time_step, -0.01),
            ("cap", cap, f64::NAN),
            ("cap", cap, -1.0),
        ];
        for (field, at, v) in cases {
            match restore(&with_param_f64(at, v), &reg).err() {
                Some(CheckpointError::Malformed { section, .. }) => {
                    assert_eq!(section, "PARAM", "{field} {v}")
                }
                other => panic!("{field} {v}: unexpected result {other:?}"),
            }
        }
        for v in [f64::INFINITY, 1e300] {
            let mut sim =
                restore(&with_param_f64(cap, v), &reg).unwrap_or_else(|e| panic!("cap {v}: {e}"));
            assert_eq!(sim.param().simulation_max_displacement, v);
            sim.simulate(1);
        }
    }

    /// COUNTERS ends in static detection's duty-cycle byte. A re-sealed
    /// section without it is `Truncated`, and one holding neither 0 nor 1
    /// is `Malformed`; both errors name COUNTERS.
    #[test]
    fn corrupt_duty_cycle_byte_is_a_typed_error() {
        use biodynamo::util::fnv1a64;
        let reg = Registry::with_builtin_types();
        let bytes = valid_checkpoint();
        // Section layout: tag(4) + len(8) + sum(8) + payload.
        let tag_at = bytes
            .windows(4)
            .position(|w| w == b"CNTR")
            .expect("CNTR section present");
        let len = u64::from_le_bytes(bytes[tag_at + 4..tag_at + 12].try_into().unwrap()) as usize;
        let payload_at = tag_at + 20;
        let payload = &bytes[payload_at..payload_at + len];
        // The file around a replaced COUNTERS payload, checksums re-sealed.
        let with_counters = |new: &[u8]| {
            let mut b = bytes[..tag_at + 4].to_vec();
            b.extend_from_slice(&(new.len() as u64).to_le_bytes());
            b.extend_from_slice(&fnv1a64(new).to_le_bytes());
            b.extend_from_slice(new);
            b.extend_from_slice(&bytes[payload_at + len..bytes.len() - 8]);
            let trailer = fnv1a64(&b);
            b.extend_from_slice(&trailer.to_le_bytes());
            b
        };
        assert!(restore(&with_counters(payload), &reg).is_ok());
        match restore(&with_counters(&payload[..len - 1]), &reg)
            .err()
            .unwrap()
        {
            CheckpointError::Truncated { section, .. } => assert_eq!(section, "COUNTERS"),
            other => panic!("missing duty-cycle byte: unexpected error {other}"),
        }
        let mut bad = payload.to_vec();
        bad[len - 1] = 2;
        match restore(&with_counters(&bad), &reg).err().unwrap() {
            CheckpointError::Malformed { section, .. } => assert_eq!(section, "COUNTERS"),
            other => panic!("duty-cycle byte 2: unexpected error {other}"),
        }
    }

    /// The SCHD section re-sealed with payloads the writer never produces:
    /// an op at frequency 0 and an op listed twice. Both are typed errors
    /// naming SCHEDULER, not a clamped frequency or a second retiming of
    /// the same op.
    #[test]
    fn corrupt_scheduler_section_is_a_typed_error() {
        use biodynamo::util::{fnv1a64, ByteWriter};
        let reg = Registry::with_builtin_types();
        let bytes = valid_checkpoint();
        // Section layout: tag(4) + len(8) + sum(8) + payload.
        let tag_at = bytes
            .windows(4)
            .position(|w| w == b"SCHD")
            .expect("SCHD section present");
        let len = u64::from_le_bytes(bytes[tag_at + 4..tag_at + 12].try_into().unwrap()) as usize;
        let payload_at = tag_at + 20;
        // The file around a replaced SCHEDULER payload, checksums re-sealed.
        let with_scheduler = |new: &[u8]| {
            let mut b = bytes[..tag_at + 4].to_vec();
            b.extend_from_slice(&(new.len() as u64).to_le_bytes());
            b.extend_from_slice(&fnv1a64(new).to_le_bytes());
            b.extend_from_slice(new);
            b.extend_from_slice(&bytes[payload_at + len..bytes.len() - 8]);
            let trailer = fnv1a64(&b);
            b.extend_from_slice(&trailer.to_le_bytes());
            b
        };
        // The default pipeline's ops, each enabled at the given frequency.
        let names = Simulation::new(small_param()).scheduler().op_names();
        let schd = |ops: &[(&str, u64)]| {
            let mut w = ByteWriter::new();
            w.put_u32(ops.len() as u32);
            for &(name, frequency) in ops {
                w.put_str(name);
                w.put_u64(frequency);
                w.put_u8(1);
            }
            w.into_bytes()
        };
        let every: Vec<(&str, u64)> = names.iter().map(|n| (n.as_str(), 1)).collect();
        assert!(restore(&with_scheduler(&schd(&every)), &reg).is_ok());
        let mut zero = every.clone();
        zero[0].1 = 0;
        let mut twice = every.clone();
        twice.push((names[0].as_str(), 5));
        for (label, ops) in [("frequency 0", zero), ("name listed twice", twice)] {
            match restore(&with_scheduler(&schd(&ops)), &reg).err() {
                Some(CheckpointError::Malformed { section, .. }) => {
                    assert_eq!(section, "SCHEDULER", "{label}")
                }
                other => panic!("{label}: unexpected result {other:?}"),
            }
        }
    }

    /// The DIFF section re-sealed with impossible grids: a resolution whose
    /// cube overflows, a value count the payload cannot hold, and
    /// non-finite parameters (an infinite D would hang the first step).
    /// Each is a typed error naming DIFFUSION, never a panic, an abort or
    /// a restored simulation.
    #[test]
    fn corrupt_diffusion_grid_is_a_typed_error() {
        use biodynamo::util::{fnv1a64, ByteWriter};
        let reg = Registry::with_builtin_types();
        let bytes = valid_checkpoint();
        // Section layout: tag(4) + len(8) + sum(8) + payload.
        let tag_at = bytes
            .windows(4)
            .position(|w| w == b"DIFF")
            .expect("DIFF section present");
        let len = u64::from_le_bytes(bytes[tag_at + 4..tag_at + 12].try_into().unwrap()) as usize;
        let payload_at = tag_at + 20;
        // The file around a replaced DIFF payload, checksums re-sealed.
        let with_diffusion = |new: &[u8]| {
            let mut b = bytes[..tag_at + 4].to_vec();
            b.extend_from_slice(&(new.len() as u64).to_le_bytes());
            b.extend_from_slice(&fnv1a64(new).to_le_bytes());
            b.extend_from_slice(new);
            b.extend_from_slice(&bytes[payload_at + len..bytes.len() - 8]);
            let trailer = fnv1a64(&b);
            b.extend_from_slice(&trailer.to_le_bytes());
            b
        };
        // One closed grid claiming `len` values, at most 512 (zeros) present.
        let grid = |d: f64, decay: f64, resolution: u64, min: f64, edge: f64, len: u64| {
            let mut w = ByteWriter::new();
            w.put_u32(1);
            w.put_str("attractant");
            w.put_f64(d);
            w.put_f64(decay);
            w.put_u64(resolution);
            w.put_u8(0);
            w.put_real3(Real3::splat(min));
            w.put_f64(edge);
            w.put_u64(len);
            for _ in 0..len.min(512) {
                w.put_f64(0.0);
            }
            w.into_bytes()
        };
        assert!(restore(&with_diffusion(&grid(0.3, 0.01, 8, 0.0, 80.0, 512)), &reg).is_ok());
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let cases = [
            ("cube overflows", grid(0.3, 0.01, 1 << 22, 0.0, 80.0, 0)),
            ("D = inf", grid(inf, 0.01, 8, 0.0, 80.0, 512)),
            ("mu = nan", grid(0.3, nan, 8, 0.0, 80.0, 512)),
            ("edge = inf", grid(0.3, 0.01, 8, 0.0, inf, 512)),
            ("min = -inf", grid(0.3, 0.01, 8, -inf, 80.0, 512)),
        ];
        for (label, payload) in cases {
            match restore(&with_diffusion(&payload), &reg).err() {
                Some(CheckpointError::Malformed { section, .. }) => {
                    assert_eq!(section, "DIFFUSION", "{label}")
                }
                other => panic!("{label}: unexpected result {other:?}"),
            }
        }
        // 1625³ values claimed, 512 present: rejected before allocating.
        let claimed = grid(0.3, 0.01, 1625, 0.0, 80.0, 1625u64.pow(3));
        match restore(&with_diffusion(&claimed), &reg).err() {
            Some(CheckpointError::Truncated { section, .. }) => assert_eq!(section, "DIFFUSION"),
            other => panic!("oversized value count: unexpected result {other:?}"),
        }
    }

    /// Built-in behaviours that restore but whose first step cannot run: a
    /// grid index past the restored diffusion grids (the step indexes out
    /// of bounds) and NaN or crossed random-walk bounds (`f64::clamp`
    /// panics). Each restore is a typed error naming AGENTS; the same
    /// behaviours with usable values restore.
    #[test]
    fn unrunnable_builtin_behavior_is_malformed_agents() {
        use biodynamo::models::{Chemotaxis, RandomWalk, Secretion};
        use biodynamo::neuro::GrowthCone;
        // One diffusion grid and one cell carrying `behavior`, never stepped.
        fn one_grid_checkpoint(behavior: impl Behavior + 'static) -> Vec<u8> {
            let mut sim = Simulation::new(small_param());
            sim.add_diffusion_grid(DiffusionGrid::new(
                "substance",
                0.3,
                0.01,
                8,
                Real3::splat(0.0),
                80.0,
            ));
            let mut cell = Cell::new(sim.new_uid())
                .with_position(Real3::splat(40.0))
                .with_diameter(8.0);
            cell.base_mut()
                .add_behavior(new_behavior_box(behavior, sim.memory_manager(), 0));
            sim.add_agent(cell);
            checkpoint(&sim).expect("checkpoint")
        }
        let secretion = |grid| one_grid_checkpoint(Secretion { grid, amount: 1.0 });
        let chemotaxis = |grid| one_grid_checkpoint(Chemotaxis { grid, speed: 1.0 });
        let cone = |grid| {
            one_grid_checkpoint(GrowthCone {
                guidance_substance: Some(grid),
                ..GrowthCone::default()
            })
        };
        let walk = |min, max| {
            one_grid_checkpoint(RandomWalk {
                step: 1.0,
                min,
                max,
            })
        };
        let reg = Registry::with_builtin_types();
        for (label, bytes) in [
            ("secretion into grid 0", secretion(0)),
            ("chemotaxis on grid 0", chemotaxis(0)),
            ("growth cone guided by grid 0", cone(0)),
            (
                "growth cone without guidance",
                one_grid_checkpoint(GrowthCone::default()),
            ),
            ("walk in [0, 50]", walk(0.0, 50.0)),
        ] {
            assert!(restore(&bytes, &reg).is_ok(), "{label}");
        }
        let nan = f64::NAN;
        for (label, bytes) in [
            ("secretion into grid 7", secretion(7)),
            ("chemotaxis on grid 1", chemotaxis(1)),
            ("growth cone guided by grid 1", cone(1)),
            ("walk in [50, 0]", walk(50.0, 0.0)),
            ("walk in [nan, 50]", walk(nan, 50.0)),
            ("walk in [0, nan]", walk(0.0, nan)),
        ] {
            match restore(&bytes, &reg).err() {
                Some(CheckpointError::Malformed { section, .. }) => {
                    assert_eq!(section, "AGENTS", "{label}")
                }
                other => panic!("{label}: unexpected result {other:?}"),
            }
        }
    }

    /// A checkpoint from a *sharded* run, with every corruption mode aimed
    /// at its SHARDS section: a plain payload flip is caught by the section
    /// checksum; fully re-sealed corruptions (valid checksums, impossible
    /// content) are caught by the manifest validation — always a typed,
    /// section-naming error, never a panic.
    #[test]
    fn corrupt_shard_section_is_a_typed_error() {
        let reg = Registry::with_builtin_types();
        let mut sim = Simulation::new(Param {
            threads: Some(1),
            numa_domains: Some(1),
            shards: 4,
            interaction_radius: Some(12.0),
            ..Param::default()
        });
        for i in 0..40 {
            let uid = sim.new_uid();
            sim.add_agent(
                Cell::new(uid)
                    .with_position(Real3::new(i as f64 * 9.0, 0.0, 0.0))
                    .with_diameter(8.0),
            );
        }
        sim.simulate(3);
        assert!(sim.shard_manifest().is_some(), "run must have exchanged");
        let bytes = checkpoint(&sim).expect("sharded checkpoint");

        // Locate the SHRD section: tag(4) + len(8) + sum(8) + payload.
        let tag_at = bytes
            .windows(4)
            .position(|w| w == b"SHRD")
            .expect("SHRD section present");
        let payload_len =
            u64::from_le_bytes(bytes[tag_at + 4..tag_at + 12].try_into().unwrap()) as usize;
        let payload_at = tag_at + 20;
        assert!(
            payload_len > 8,
            "a sharded run's manifest carries ranges and counts"
        );

        // Re-seals section checksum and file trailer after a payload edit.
        let reseal = |mut b: Vec<u8>| {
            let sum = biodynamo::util::fnv1a64(&b[payload_at..payload_at + payload_len]);
            b[tag_at + 12..tag_at + 20].copy_from_slice(&sum.to_le_bytes());
            let body_len = b.len() - 8;
            let trailer = biodynamo::util::fnv1a64(&b[..body_len]);
            b[body_len..].copy_from_slice(&trailer.to_le_bytes());
            b
        };

        // 1. Plain payload flip: the file/section checksums catch it.
        let mut flipped = bytes.clone();
        flipped[payload_at + 3] ^= 0x40;
        match restore(&flipped, &reg).err().unwrap() {
            CheckpointError::ChecksumMismatch { .. } => {}
            other => panic!("payload flip: unexpected error {other}"),
        }

        // 2. Re-sealed impossible shard count (> MAX_SHARDS): the manifest
        //    reader rejects it by name.
        let mut bad_count = bytes.clone();
        bad_count[payload_at..payload_at + 8].copy_from_slice(&999u64.to_le_bytes());
        match restore(&reseal(bad_count), &reg).err().unwrap() {
            CheckpointError::Malformed { section, .. } => assert_eq!(section, "SHARDS"),
            CheckpointError::Truncated { section, .. } => assert_eq!(section, "SHARDS"),
            other => panic!("bad shard count: unexpected error {other}"),
        }

        // 3. Re-sealed non-contiguous ranges: first range's begin moved off
        //    zero breaks the tiling invariant.
        let mut bad_ranges = bytes.clone();
        bad_ranges[payload_at + 8..payload_at + 16].copy_from_slice(&7u64.to_le_bytes());
        match restore(&reseal(bad_ranges), &reg).err().unwrap() {
            CheckpointError::Malformed { section, .. } => assert_eq!(section, "SHARDS"),
            other => panic!("broken ranges: unexpected error {other}"),
        }
    }

    /// Flipping a payload byte *and* re-sealing both the section checksum
    /// and the file trailer defeats the checksums by construction — but a
    /// semantically impossible value still fails with a typed, named error
    /// instead of a panic or a half-restored simulation.
    #[test]
    fn resealed_semantic_corruption_still_fails_typed() {
        let reg = Registry::with_builtin_types();
        let bytes = valid_checkpoint();
        // Zero out the section count: a structurally valid file with no
        // sections must report the first missing section by name.
        let mut corrupt = bytes.clone();
        corrupt.truncate(16); // magic + version + count
        corrupt[12..16].copy_from_slice(&0u32.to_le_bytes());
        let sum = biodynamo::util::fnv1a64(&corrupt);
        corrupt.extend_from_slice(&sum.to_le_bytes());
        match restore(&corrupt, &reg).err().unwrap() {
            CheckpointError::MissingSection { section } => assert_eq!(section, "PARAM"),
            other => panic!("unexpected error {other}"),
        }
        // A section count far beyond the table is a truncation, not an
        // allocation of that many entries.
        let mut corrupt = bytes[..16].to_vec();
        corrupt[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = biodynamo::util::fnv1a64(&corrupt);
        corrupt.extend_from_slice(&sum.to_le_bytes());
        match restore(&corrupt, &reg).err().unwrap() {
            CheckpointError::Truncated { .. } => {}
            other => panic!("unexpected error {other}"),
        }
    }
}

// ---- Supervised-recovery conformance ---------------------------------------
//
// The contract of the supervised runtime: a run with injected faults,
// executed under the SupervisedRunner, finishes **bitwise identical** to the
// same run without faults — rollback + deterministic replay erases the
// fault entirely.

mod supervised_recovery {
    use biodynamo::checkpoint::{RecoveryPolicy, RingPolicy, SupervisedRunner, SupervisorError};
    use biodynamo::core::testing::{assert_identical, fingerprint, first_divergence};
    use biodynamo::models::all_models;
    use biodynamo::prelude::*;
    use proptest::prelude::*;

    const MODEL: &str = "cell_clustering";
    const SCALE: usize = 80;
    const ITERATIONS: u64 = 12;

    fn mk_param() -> Param {
        Param {
            threads: Some(2),
            numa_domains: Some(2),
            seed: 7331,
            health_check_every: Some(2),
            ..Param::default()
        }
    }

    fn reference() -> Simulation {
        let model = biodynamo::models::model_by_name(MODEL, SCALE).unwrap();
        let mut sim = model.build(mk_param());
        sim.simulate(ITERATIONS as usize);
        sim
    }

    fn supervised(plan: FaultPlan, policy: RecoveryPolicy) -> SupervisedRunner {
        let model = biodynamo::models::model_by_name(MODEL, SCALE).unwrap();
        let mut sim = model.build(mk_param());
        sim.set_fault_plan(plan);
        SupervisedRunner::new(sim, policy)
    }

    fn small_ring() -> RingPolicy {
        RingPolicy {
            interval: 3,
            depth: 6,
        }
    }

    #[test]
    fn op_panic_recovers_bitwise() {
        let plan =
            FaultPlan::new().push(FaultSite::BeforeOp("agent_ops".into()), 7, FaultKind::Panic);
        let mut runner = supervised(
            plan,
            RecoveryPolicy {
                ring: small_ring(),
                ..RecoveryPolicy::default()
            },
        );
        let report = runner.run(ITERATIONS).unwrap();
        assert_eq!(report.panics_caught, 1);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.succeeded, 1);
        assert_identical(
            &fingerprint(&reference()),
            &fingerprint(runner.sim()),
            "op panic",
        );
        assert!(runner.sim().stats().health_checks_run > 0);
    }

    #[test]
    fn grid_rebuild_panic_recovers_bitwise() {
        let plan = FaultPlan::new().push(FaultSite::GridRebuild, 5, FaultKind::Panic);
        let mut runner = supervised(
            plan,
            RecoveryPolicy {
                ring: small_ring(),
                ..RecoveryPolicy::default()
            },
        );
        let report = runner.run(ITERATIONS).unwrap();
        assert_eq!(report.panics_caught, 1);
        assert_identical(
            &fingerprint(&reference()),
            &fingerprint(runner.sim()),
            "grid rebuild panic",
        );
    }

    #[test]
    fn nan_position_write_recovers_bitwise() {
        let plan = FaultPlan::new().push(
            FaultSite::BeforeOp("environment_update".into()),
            6,
            FaultKind::NanPosition { agent_index: 11 },
        );
        let mut runner = supervised(
            plan,
            RecoveryPolicy {
                ring: small_ring(),
                ..RecoveryPolicy::default()
            },
        );
        let report = runner.run(ITERATIONS).unwrap();
        assert!(report.violations_handled >= 1, "{report:?}");
        assert_eq!(report.succeeded, report.attempts);
        assert_identical(
            &fingerprint(&reference()),
            &fingerprint(runner.sim()),
            "nan position",
        );
    }

    #[test]
    fn checkpoint_bit_flip_falls_back_to_older_point() {
        let plan = FaultPlan::new()
            .push(
                FaultSite::CheckpointCapture,
                6,
                FaultKind::CheckpointBitFlip { byte: 321 },
            )
            .push(FaultSite::BeforeOp("agent_ops".into()), 8, FaultKind::Panic);
        let mut runner = supervised(
            plan,
            RecoveryPolicy {
                ring: small_ring(),
                ..RecoveryPolicy::default()
            },
        );
        let report = runner.run(ITERATIONS).unwrap();
        assert_eq!(report.attempts, 1);
        // The corrupt iteration-6 capture was dropped; rollback landed on
        // an older intact point.
        assert!(report.recoveries[0].restored_from < 6, "{report:?}");
        assert_identical(
            &fingerprint(&reference()),
            &fingerprint(runner.sim()),
            "bit flip",
        );
    }

    #[test]
    fn skipped_capture_replays_longer_but_stays_conformant() {
        let plan = FaultPlan::new()
            .push(FaultSite::CheckpointCapture, 6, FaultKind::SkippedCapture)
            .push(FaultSite::BeforeOp("agent_ops".into()), 8, FaultKind::Panic);
        let mut runner = supervised(
            plan,
            RecoveryPolicy {
                ring: small_ring(),
                ..RecoveryPolicy::default()
            },
        );
        let report = runner.run(ITERATIONS).unwrap();
        assert_eq!(report.attempts, 1);
        // The iteration-6 capture was skipped, so rollback lands on 3.
        assert_eq!(report.recoveries[0].restored_from, 3);
        assert_identical(
            &fingerprint(&reference()),
            &fingerprint(runner.sim()),
            "skipped capture",
        );
    }

    #[test]
    fn exhausted_budget_returns_typed_error() {
        let mut plan = FaultPlan::new();
        for it in 2..ITERATIONS {
            plan = plan.push(
                FaultSite::BeforeOp("agent_ops".into()),
                it,
                FaultKind::Panic,
            );
        }
        let mut runner = supervised(
            plan,
            RecoveryPolicy {
                ring: small_ring(),
                max_attempts: 3,
            },
        );
        match runner.run(ITERATIONS).unwrap_err() {
            SupervisorError::BudgetExhausted { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn recurring_fault_is_replayed_from_the_same_point_bitwise() {
        // The same window fails three times: each recovery is a plain
        // retry from the same restore point, one clean pass past the
        // failure confirms the recovery, and the replay ends bitwise on
        // the undisturbed run.
        let site = || FaultSite::BeforeOp("agent_ops".into());
        let plan = FaultPlan::new()
            .push(site(), 5, FaultKind::Panic)
            .push(site(), 5, FaultKind::Panic)
            .push(site(), 5, FaultKind::Panic);
        let mut runner = supervised(
            plan,
            RecoveryPolicy {
                ring: small_ring(),
                max_attempts: 8,
            },
        );
        let report = runner.run(ITERATIONS).unwrap();
        assert_eq!(report.panics_caught, 3);
        assert_eq!(report.attempts, 3);
        assert_eq!(report.recoveries.len(), 3);
        assert!(
            report
                .recoveries
                .iter()
                .all(|r| r.failed_iteration == 5 && r.restored_from == 3),
            "{report:?}"
        );
        assert_eq!(report.succeeded, 1);
        assert_identical(
            &fingerprint(&reference()),
            &fingerprint(runner.sim()),
            "recurring fault",
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random (model, fault site, fault iteration, ring geometry)
        /// tuples: the supervised run must recover cleanly and finish
        /// bitwise identical to the undisturbed reference.
        #[test]
        fn prop_supervised_recovery_conforms(
            model_idx in 0usize..6,
            site_idx in 0usize..4,
            fault_iteration in 1u64..8,
            depth in 1usize..4,
            interval in 1u64..5,
        ) {
            let iterations = 10u64;
            let mk_param = || Param {
                threads: Some(2),
                numa_domains: Some(2),
                seed: 1009,
                health_check_every: Some(2),
                ..Param::default()
            };
            let build = |plan: Option<FaultPlan>| {
                let models = all_models(60);
                let mut sim = models[model_idx].build(mk_param());
                if let Some(p) = plan {
                    sim.set_fault_plan(p);
                }
                sim
            };
            let site = match site_idx {
                0 => FaultSite::BeforeOp("agent_ops".into()),
                1 => FaultSite::BeforeOp("environment_update".into()),
                2 => FaultSite::GridRebuild,
                _ => FaultSite::CheckpointCapture,
            };
            // Alternate fault kinds by iteration parity; capture-site faults
            // get capture-specific kinds.
            let kind = match (site_idx, fault_iteration % 2) {
                (3, 0) => FaultKind::SkippedCapture,
                (3, _) => FaultKind::CheckpointBitFlip { byte: 97 },
                (_, 0) => FaultKind::Panic,
                _ => FaultKind::NanPosition { agent_index: fault_iteration as usize * 7 },
            };
            let plan = FaultPlan::new().push(site, fault_iteration, kind);

            let mut reference = build(None);
            reference.simulate(iterations as usize);

            let mut runner = SupervisedRunner::new(
                build(Some(plan)),
                RecoveryPolicy {
                    ring: RingPolicy { interval, depth: 3 * depth },
                    max_attempts: 8,
                },
            );
            let report = runner.run(iterations).unwrap();
            prop_assert_eq!(report.succeeded, report.attempts);
            let div = first_divergence(&fingerprint(&reference), &fingerprint(runner.sim()));
            prop_assert!(div.is_none(), "diverged: {}", div.unwrap());
        }
    }
}
