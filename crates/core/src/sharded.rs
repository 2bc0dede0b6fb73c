//! Sharded in-process execution: SFC-range partitioning and halo exchange.
//!
//! The TeraAgent direction of the paper's lineage scales past one node by
//! spatial domain decomposition: split the population into K spatially
//! compact *shards*, give each shard its own neighbor index over its own
//! agents plus a read-only *halo* of boundary agents from neighboring
//! shards, and exchange halos between iterations. This module implements
//! that execution model **in process**: K shards share one
//! [`ResourceManager`](crate::resource_manager::ResourceManager) and one
//! iteration [`Snapshot`], the "wire format" of the exchange is the
//! snapshot's SoA arrays copied into per-shard member arrays, and the
//! partition is recomputed from scratch every exchange — recomputation *is*
//! the migration step, and because it happens in ascending agent-index
//! order from an iteration-boundary snapshot it is deterministic.
//!
//! # Bitwise shard-count invariance
//!
//! Results must be bitwise identical for every shard count. Three
//! invariants deliver that:
//!
//! 1. **Box membership** — every shard grid is built inside a
//!    [`GridFrame`] pinning the *global* anchor, lattice and box edge (one
//!    [`UniformGridEnvironment::lattice_for`] decision over the whole
//!    population, coarsened or not), so an agent lands in exactly the box
//!    the single-engine grid would assign (the box-coordinate computation
//!    is floating point; the frame keeps the expression and its inputs
//!    identical).
//! 2. **Halo completeness** — a shard's cloud contains every agent whose
//!    box lies within Chebyshev distance `halo_width` of a box the shard
//!    owns, so every box a neighbor query from an owned agent can visit
//!    holds the same within-radius agents the global grid holds. Extra
//!    (beyond-radius) halo agents are harmless: the `d² ≤ r²` filter
//!    rejects them exactly as the global grid would.
//! 3. **Within-box order** — shard member lists are built in ascending
//!    global index, and the grid's build inserts cloud points in index
//!    order, so the accepted-neighbor subsequence of any box is the global
//!    sequence filtered to the shard's members — identical once halo
//!    completeness guarantees no within-radius member is missing.
//!
//! The partition itself never feeds the simulation results, only the
//! execution schedule — which is why a checkpoint can be restored into a
//! *different* shard count and replay bitwise identically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bdm_env::{Environment, GridFrame, PointCloud, UniformGridEnvironment, UpdateHint};
use bdm_numa::NumaThreadPool;
use bdm_sfc::{
    cube_shard_mask, morton3_encode, shard_of, split_ranges, split_ranges_by, ShardRange,
};
use bdm_util::send_ptr::SendMut;
use bdm_util::{Real3, Timer};

use crate::context::Snapshot;

/// Maximum supported shard count: halo membership is tracked as one `u64`
/// bitmask per agent.
pub const MAX_SHARDS: usize = 64;

/// Agents per block of the exchange's parallel classification sweep.
const CLASSIFY_BLOCK: usize = 2048;

/// The shards named by a halo mask, ascending.
fn shards_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let t = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            t
        })
    })
}

/// One shard's slice of the population: owned + halo members in ascending
/// global-index order, with the snapshot columns copied alongside (the
/// exchange's SoA wire format — what a distributed implementation would
/// put on the network).
pub(crate) struct ShardCloud {
    /// Shard-local → global index map (ascending).
    pub members: Vec<u32>,
    /// Member positions, bitwise copies of the snapshot's.
    pub positions: Vec<Real3>,
    /// Member diameters, bitwise copies of the snapshot's (feeds the shard
    /// grid's conditional diameter scatter).
    pub diameters: Vec<f64>,
}

impl PointCloud for ShardCloud {
    fn len(&self) -> usize {
        self.positions.len()
    }
    fn position(&self, idx: usize) -> Real3 {
        self.positions[idx]
    }
    fn positions_slice(&self) -> Option<&[Real3]> {
        Some(&self.positions)
    }
    fn diameters(&self) -> Option<&[f64]> {
        Some(&self.diameters)
    }
}

/// Per-shard statistics of the last exchange/build cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Agents this shard owns (processes in the agent phase).
    pub owned: usize,
    /// Read-only halo copies imported from neighboring shards.
    pub halo: usize,
    /// Wall-clock time of this shard's last grid build.
    pub grid_build: Duration,
}

/// Aggregate report of the sharded execution state (see
/// [`Simulation::shard_report`](crate::simulation::Simulation::shard_report)).
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Configured shard count K.
    pub shards: usize,
    /// Halo exchanges performed (partition + clouds rebuilt).
    pub exchanges: u64,
    /// Exchanges skipped because `ResourceManager::generation`, the
    /// interaction radius, the population size and the halo width were
    /// unchanged since the last exchange.
    pub exchange_skips: u64,
    /// Wall-clock time of the last full exchange.
    pub last_exchange: Duration,
    /// Per-shard owned/halo counts and grid-build times.
    pub per_shard: Vec<ShardStats>,
}

/// Partition manifest of the last exchange — what the checkpoint's `SHRD`
/// section records (validation-only on restore: the partition is a pure
/// function of state and is recomputed from scratch after any restore,
/// which is what makes restore-into-a-different-shard-count bitwise-safe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Shard count the run executed with.
    pub shards: u64,
    /// The Morton-code ranges `[begin, end)` of the last partition.
    pub ranges: Vec<(u64, u64)>,
    /// Agents owned per shard at the last exchange.
    pub owned: Vec<u64>,
}

/// The engine-side state of sharded execution: partition, per-shard clouds
/// and grids, and the skip-if-unchanged bookkeeping.
pub(crate) struct ShardedState {
    /// Configured shard count K (≥ 2; K == 1 runs the single-engine path).
    pub shards: usize,
    /// Morton-code ranges of the current partition.
    pub ranges: Vec<ShardRange>,
    /// Global index → owning shard.
    pub owner: Vec<u32>,
    /// Global index → local index within the owner's cloud.
    pub local_of: Vec<u32>,
    /// Per-shard member clouds (owned + halo, ascending global index).
    pub clouds: Vec<ShardCloud>,
    /// Per-shard windowed grids.
    pub grids: Vec<UniformGridEnvironment>,
    /// Per-shard `(min, max)` global box coordinates of the member boxes
    /// (the grid window); `None` for an empty shard.
    windows: Vec<Option<([u32; 3], [u32; 3])>>,
    /// Global frame of the current exchange: anchor, global lattice dims,
    /// and the global box edge pinned onto every shard build.
    frame: Option<(Real3, [u32; 3], f64)>,
    /// Iteration the exchange last ran for; the environment and agent
    /// phases take the sharded path only when this matches the current
    /// iteration (0 = never ran / deactivated).
    pub active_iteration: u64,
    /// `ResourceManager::generation` of the last full exchange.
    last_generation: Option<u64>,
    /// Interaction-radius bits of the last full exchange.
    last_radius_bits: u64,
    /// Population size of the last full exchange.
    last_n: usize,
    /// Halo width of the last full exchange.
    last_halo_width: u32,
    /// Monotonic stamp incremented on every full exchange; grid builds are
    /// keyed on it so unchanged clouds skip the K rebuilds too.
    exchange_stamp: u64,
    /// `(exchange_stamp, diameter scatter)` the grids were last built for.
    grids_built_for: Option<(u64, bool)>,
    /// Full exchanges performed.
    pub exchanges: u64,
    /// Exchanges skipped (generation/radius/population/halo width
    /// unchanged).
    pub exchange_skips: u64,
    /// Wall-clock time of the last full exchange.
    pub last_exchange: Duration,
    /// Per-shard grid-build times of the last build cycle.
    pub grid_build: Vec<Duration>,
    /// Per-shard owned-agent counts of the last exchange.
    pub owned_counts: Vec<usize>,
    /// Reusable per-agent global box coordinates (classification sweep →
    /// cloud fill, for the windows).
    boxes: Vec<[u32; 3]>,
    /// Reusable per-agent halo masks: bit t set iff shard t's cloud holds
    /// the agent.
    masks: Vec<u64>,
    /// Per-shard member counts (owned + halo) of the current exchange,
    /// summed by the classification sweep's blocks.
    member_counts: Vec<AtomicUsize>,
}

impl ShardedState {
    /// Creates the state for `shards` shards (2 ..= [`MAX_SHARDS`]).
    pub fn new(shards: usize) -> ShardedState {
        assert!(
            (2..=MAX_SHARDS).contains(&shards),
            "sharded execution supports 2..={MAX_SHARDS} shards, got {shards}"
        );
        ShardedState {
            shards,
            ranges: Vec::new(),
            owner: Vec::new(),
            local_of: Vec::new(),
            clouds: (0..shards)
                .map(|_| ShardCloud {
                    members: Vec::new(),
                    positions: Vec::new(),
                    diameters: Vec::new(),
                })
                .collect(),
            grids: (0..shards).map(|_| UniformGridEnvironment::new()).collect(),
            windows: vec![None; shards],
            frame: None,
            active_iteration: 0,
            last_generation: None,
            last_radius_bits: 0,
            last_n: 0,
            last_halo_width: 0,
            exchange_stamp: 0,
            grids_built_for: None,
            exchanges: 0,
            exchange_skips: 0,
            last_exchange: Duration::ZERO,
            grid_build: vec![Duration::ZERO; shards],
            owned_counts: vec![0; shards],
            boxes: Vec::new(),
            masks: Vec::new(),
            member_counts: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Drops out of sharded execution for the current iteration (stale
    /// snapshot, degraded environment): the engine falls back to the
    /// single-engine path until the next successful exchange.
    pub fn deactivate(&mut self) {
        self.active_iteration = 0;
        // The next exchange must rebuild from scratch.
        self.last_generation = None;
    }

    /// The halo exchange: (re)partitions the population by Morton-code
    /// range and rebuilds the per-shard member clouds, skipping everything
    /// when the population generation, size, interaction radius and halo
    /// width are unchanged since the last exchange.
    ///
    /// `halo_width` is the Chebyshev box distance the halo extends past a
    /// shard's owned boxes: 1 covers queries centered inside owned boxes;
    /// static-agent detection needs more because a mover's wake query
    /// centers on its *post-displacement* position. Any width is safe: a
    /// width beyond the lattice adds no box, and the cost per agent does
    /// not depend on it.
    ///
    /// Two O(n) sweeps. Classification (parallel on `pool`): box, owner and
    /// halo mask are pure functions of an agent's position and the ranges,
    /// and the mask of the agent's halo cube — the boxes within `halo_width`
    /// of its own, clamped to the lattice — comes from the Morton codes of
    /// the cube's two corners ([`cube_shard_mask`]). Fill (serial): the K
    /// clouds are appended in ascending global index (invariant 3).
    pub fn exchange(
        &mut self,
        snapshot: &Snapshot,
        pool: &NumaThreadPool,
        radius: f64,
        generation: u64,
        iteration: u64,
        halo_width: u32,
    ) {
        let n = snapshot.len();
        if self.last_generation == Some(generation)
            && self.last_radius_bits == radius.to_bits()
            && self.last_n == n
            && self.last_halo_width == halo_width
        {
            self.active_iteration = iteration;
            self.exchange_skips += 1;
            return;
        }
        let timer = Timer::start();
        for cloud in &mut self.clouds {
            cloud.members.clear();
            cloud.positions.clear();
            cloud.diameters.clear();
        }
        self.windows.iter_mut().for_each(|w| *w = None);
        self.owned_counts.iter_mut().for_each(|c| *c = 0);
        self.owner.clear();
        self.local_of.clear();
        self.frame = None;

        if n > 0 {
            let (min, max) = snapshot
                .bounds
                .expect("a non-empty snapshot carries bounds");
            let (box_length, global_dims) =
                UniformGridEnvironment::lattice_for(min, max, radius, n);
            let inv = 1.0 / box_length;
            self.frame = Some((min, global_dims, box_length));
            let positions = &snapshot.positions[..];
            let box_of = |g: usize| {
                UniformGridEnvironment::global_box_coordinates(positions[g], min, inv, global_dims)
            };
            // The partition reads a stride sample of the codes only, so it
            // is fixed before the sweep and no code array is kept.
            self.ranges = split_ranges_by(n, self.shards, |g| {
                let bc = box_of(g);
                morton3_encode(bc[0], bc[1], bc[2])
            });

            self.owner.resize(n, 0);
            self.local_of.resize(n, 0);
            self.boxes.resize(n, [0; 3]);
            self.masks.resize(n, 0);
            let ranges = &self.ranges[..];
            let member_counts = &self.member_counts[..];
            for count in member_counts {
                count.store(0, Ordering::Relaxed);
            }
            // A halo wider than the lattice adds no box; clamped, `bc + w`
            // cannot overflow.
            let w = halo_width.min(global_dims[0].max(global_dims[1]).max(global_dims[2]));
            let owner_ptr = SendMut::new(self.owner.as_mut_ptr());
            let boxes_ptr = SendMut::new(self.boxes.as_mut_ptr());
            let masks_ptr = SendMut::new(self.masks.as_mut_ptr());
            pool.parallel_for(n, CLASSIFY_BLOCK, &|_worker, block| {
                let mut counts = [0usize; MAX_SHARDS];
                for g in block {
                    let bc = box_of(g);
                    let own = shard_of(ranges, morton3_encode(bc[0], bc[1], bc[2]));
                    let lo = bc.map(|c| c.saturating_sub(w));
                    let hi = [0, 1, 2].map(|a| (bc[a] + w).min(global_dims[a] - 1));
                    let mask = cube_shard_mask(ranges, lo, hi);
                    for t in shards_in(mask) {
                        counts[t] += 1;
                    }
                    // SAFETY: the arrays hold n slots, blocks partition
                    // 0..n, so slot g is written by exactly one task.
                    unsafe {
                        owner_ptr.write(g, own as u32);
                        boxes_ptr.write(g, bc);
                        masks_ptr.write(g, mask);
                    }
                }
                // Relaxed: plain sums, read only after the pool's
                // completion barrier.
                for (total, &count) in member_counts.iter().zip(&counts) {
                    if count > 0 {
                        total.fetch_add(count, Ordering::Relaxed);
                    }
                }
            });

            // Fill in ascending global index — the deterministic migration
            // order — into clouds sized once from the exact member counts.
            for (cloud, count) in self.clouds.iter_mut().zip(member_counts) {
                let count = count.load(Ordering::Relaxed);
                cloud.members.reserve(count);
                cloud.positions.reserve(count);
                cloud.diameters.reserve(count);
            }
            for g in 0..n {
                let (bc, own) = (self.boxes[g], self.owner[g]);
                for t in shards_in(self.masks[g]) {
                    let cloud = &mut self.clouds[t];
                    if t as u32 == own {
                        self.local_of[g] = cloud.members.len() as u32;
                        self.owned_counts[t] += 1;
                    }
                    cloud.members.push(g as u32);
                    cloud.positions.push(snapshot.positions[g]);
                    cloud.diameters.push(snapshot.diameters[g]);
                    match &mut self.windows[t] {
                        Some((lo, hi)) => {
                            for a in 0..3 {
                                lo[a] = lo[a].min(bc[a]);
                                hi[a] = hi[a].max(bc[a]);
                            }
                        }
                        win @ None => *win = Some((bc, bc)),
                    }
                }
            }
        } else {
            self.ranges = split_ranges(&[], self.shards);
        }

        self.active_iteration = iteration;
        self.last_generation = Some(generation);
        self.last_radius_bits = radius.to_bits();
        self.last_n = n;
        self.last_halo_width = halo_width;
        self.exchange_stamp += 1;
        self.exchanges += 1;
        self.last_exchange = timer.elapsed();
    }

    /// Rebuilds the K shard grids over the current clouds (no-op when the
    /// clouds and build capabilities are unchanged). Every build is framed
    /// to the global lattice ([`GridFrame`]) so box membership is bitwise
    /// that of the single-engine grid, and runs on the engine's `pool`.
    pub fn build_grids(
        &mut self,
        scatter_diameters: bool,
        radius: f64,
        bounds: Option<(Real3, Real3)>,
        pool: &NumaThreadPool,
    ) {
        if self.grids_built_for == Some((self.exchange_stamp, scatter_diameters)) {
            return;
        }
        let frame = self.frame;
        for t in 0..self.shards {
            let timer = Timer::start();
            match (self.windows[t], frame) {
                (Some((lo, hi)), Some((anchor, global_dims, box_length))) => {
                    let hint = UpdateHint {
                        known_bounds: bounds,
                        scatter_diameters,
                        grid_frame: Some(GridFrame {
                            anchor,
                            global_dims,
                            box_offset: lo,
                            dims: [hi[0] - lo[0] + 1, hi[1] - lo[1] + 1, hi[2] - lo[2] + 1],
                            box_length,
                        }),
                        pool: Some(pool),
                    };
                    self.grids[t].update_with(&self.clouds[t], radius, hint);
                }
                // Empty shard: an empty-cloud update resets the grid to a
                // zero-box state whose queries visit nothing.
                _ => self.grids[t].update_with(&self.clouds[t], radius, UpdateHint::default()),
            }
            self.grid_build[t] = timer.elapsed();
        }
        self.grids_built_for = Some((self.exchange_stamp, scatter_diameters));
    }

    /// Aggregate report of the current sharded state.
    pub fn report(&self) -> ShardReport {
        ShardReport {
            shards: self.shards,
            exchanges: self.exchanges,
            exchange_skips: self.exchange_skips,
            last_exchange: self.last_exchange,
            per_shard: (0..self.shards)
                .map(|t| ShardStats {
                    owned: self.owned_counts[t],
                    halo: self.clouds[t].members.len() - self.owned_counts[t],
                    grid_build: self.grid_build[t],
                })
                .collect(),
        }
    }

    /// Partition manifest of the last exchange (checkpoint `SHRD` section).
    pub fn manifest(&self) -> ShardManifest {
        ShardManifest {
            shards: self.shards as u64,
            ranges: self.ranges.iter().map(|r| (r.begin, r.end)).collect(),
            owned: self.owned_counts.iter().map(|&c| c as u64).collect(),
        }
    }
}

/// The conformance suites' shared scenes (the sparse, lattice-coarsening
/// one is used here), shared with the workspace's integration tests.
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use bdm_numa::NumaTopology;
    use bdm_util::SimRng;
    use biodynamo::models::{BenchmarkModel, CellClustering};

    use super::*;

    fn pool(threads: usize) -> NumaThreadPool {
        NumaThreadPool::new(NumaTopology::single_domain(threads))
    }

    fn snapshot_with(positions: Vec<Real3>, diameters: Vec<f64>) -> Snapshot {
        let n = positions.len();
        let mut lo = Real3::splat(f64::INFINITY);
        let mut hi = Real3::splat(f64::NEG_INFINITY);
        for p in &positions {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Snapshot {
            positions,
            max_diameter: diameters.iter().copied().fold(0.0, f64::max),
            diameters,
            payloads: Vec::new(),
            payloads_gathered: false,
            offsets: vec![0, n],
            bounds: (n > 0).then_some((lo, hi)),
        }
    }

    fn snapshot_of(positions: Vec<Real3>) -> Snapshot {
        let n = positions.len();
        snapshot_with(positions, vec![10.0; n])
    }

    fn line(n: usize, spacing: f64) -> Vec<Real3> {
        (0..n)
            .map(|i| Real3::new(i as f64 * spacing, 0.0, 0.0))
            .collect()
    }

    fn random_cloud(n: usize, extent: [f64; 3], seed: u64) -> Vec<Real3> {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| Real3(extent.map(|e| rng.uniform_in(0.0, e))))
            .collect()
    }

    /// The population of `model` after `iterations` single-engine steps.
    fn scene_of(model: &dyn BenchmarkModel, iterations: usize) -> Snapshot {
        let mut sim = model.build(biodynamo::prelude::Param {
            threads: Some(1),
            numa_domains: Some(1),
            seed: 4357,
            ..Default::default()
        });
        sim.simulate(iterations);
        let (mut positions, mut diameters) = (Vec::new(), Vec::new());
        sim.for_each_agent(|_, agent| {
            positions.push(agent.position());
            diameters.push(agent.diameter());
        });
        snapshot_with(positions, diameters)
    }

    /// Everything an exchange decides, floats as bit patterns.
    #[derive(Debug, PartialEq)]
    struct Partition {
        ranges: Vec<ShardRange>,
        owner: Vec<u32>,
        local_of: Vec<u32>,
        members: Vec<Vec<u32>>,
        positions: Vec<Vec<[u64; 3]>>,
        diameters: Vec<Vec<u64>>,
        windows: Vec<Option<([u32; 3], [u32; 3])>>,
        owned_counts: Vec<usize>,
    }

    impl Partition {
        fn of(st: &ShardedState) -> Partition {
            Partition {
                ranges: st.ranges.clone(),
                owner: st.owner.clone(),
                local_of: st.local_of.clone(),
                members: st.clouds.iter().map(|c| c.members.clone()).collect(),
                positions: st
                    .clouds
                    .iter()
                    .map(|c| c.positions.iter().map(|p| p.0.map(f64::to_bits)).collect())
                    .collect(),
                diameters: st
                    .clouds
                    .iter()
                    .map(|c| c.diameters.iter().map(|d| d.to_bits()).collect())
                    .collect(),
                windows: st.windows.clone(),
                owned_counts: st.owned_counts.clone(),
            }
        }
    }

    fn exchanged(
        snapshot: &Snapshot,
        pool: &NumaThreadPool,
        shards: usize,
        radius: f64,
        halo_width: u32,
    ) -> ShardedState {
        let mut st = ShardedState::new(shards);
        st.exchange(snapshot, pool, radius, 1, 1, halo_width);
        st
    }

    /// Brute-force reference for the exchange: every agent's code, the
    /// ranges from the full code array, and per occupied box a loop over
    /// the whole clamped `(2w+1)³` stencil asking `shard_of` for each box.
    fn oracle(snapshot: &Snapshot, shards: usize, radius: f64, halo_width: u32) -> Partition {
        let n = snapshot.len();
        let mut out = Partition {
            ranges: split_ranges(&[], shards),
            owner: vec![0; n],
            local_of: vec![0; n],
            members: vec![Vec::new(); shards],
            positions: vec![Vec::new(); shards],
            diameters: vec![Vec::new(); shards],
            windows: vec![None; shards],
            owned_counts: vec![0; shards],
        };
        let Some((min, max)) = snapshot.bounds else {
            return out;
        };
        let (box_length, global_dims) = UniformGridEnvironment::lattice_for(min, max, radius, n);
        let inv = 1.0 / box_length;
        let boxes: Vec<[u32; 3]> = snapshot
            .positions
            .iter()
            .map(|&pos| UniformGridEnvironment::global_box_coordinates(pos, min, inv, global_dims))
            .collect();
        let codes: Vec<u64> = boxes
            .iter()
            .map(|bc| morton3_encode(bc[0], bc[1], bc[2]))
            .collect();
        out.ranges = split_ranges(&codes, shards);
        let w = halo_width as i64;
        let mut memo: HashMap<u64, u64> = HashMap::new();
        for g in 0..n {
            let bc = boxes[g];
            let own = shard_of(&out.ranges, codes[g]) as u32;
            let mask = *memo.entry(codes[g]).or_insert_with(|| {
                let mut mask = 0u64;
                for dz in -w..=w {
                    let z = (bc[2] as i64 + dz).clamp(0, global_dims[2] as i64 - 1);
                    for dy in -w..=w {
                        let y = (bc[1] as i64 + dy).clamp(0, global_dims[1] as i64 - 1);
                        for dx in -w..=w {
                            let x = (bc[0] as i64 + dx).clamp(0, global_dims[0] as i64 - 1);
                            let c = morton3_encode(x as u32, y as u32, z as u32);
                            mask |= 1u64 << shard_of(&out.ranges, c);
                        }
                    }
                }
                mask
            });
            out.owner[g] = own;
            for t in shards_in(mask) {
                if t as u32 == own {
                    out.local_of[g] = out.members[t].len() as u32;
                    out.owned_counts[t] += 1;
                }
                out.members[t].push(g as u32);
                out.positions[t].push(snapshot.positions[g].0.map(f64::to_bits));
                out.diameters[t].push(snapshot.diameters[g].to_bits());
                out.windows[t] = Some(match out.windows[t] {
                    Some((lo, hi)) => (
                        [0, 1, 2].map(|a| lo[a].min(bc[a])),
                        [0, 1, 2].map(|a| hi[a].max(bc[a])),
                    ),
                    None => (bc, bc),
                });
            }
        }
        out
    }

    /// Asserts the exchange equals the oracle for K ∈ {2, 3, 4, 7, 64} ×
    /// `halo_width` ∈ {1, 2, 3}; returns the global lattice dims.
    fn assert_matches_oracle(scene: &str, snapshot: &Snapshot, radius: f64) -> [u32; 3] {
        let pool = pool(2);
        for shards in [2, 3, 4, 7, 64] {
            for halo_width in [1, 2, 3] {
                let got = Partition::of(&exchanged(snapshot, &pool, shards, radius, halo_width));
                let want = oracle(snapshot, shards, radius, halo_width);
                let at = format!("{scene}, K={shards}, halo_width={halo_width}");
                assert_eq!(got.ranges, want.ranges, "ranges: {at}");
                assert_eq!(got.owner, want.owner, "owner: {at}");
                assert_eq!(got.members, want.members, "members: {at}");
                assert_eq!(got.local_of, want.local_of, "local_of: {at}");
                assert_eq!(got.windows, want.windows, "windows: {at}");
                assert_eq!(got.owned_counts, want.owned_counts, "owned_counts: {at}");
                assert!(got == want, "positions/diameters: {at}");
            }
        }
        let (min, max) = snapshot.bounds.unwrap();
        UniformGridEnvironment::lattice_for(min, max, radius, snapshot.len()).1
    }

    #[test]
    fn oracle_uniform_random_cloud() {
        let snap = snapshot_of(random_cloud(3000, [250.0; 3], 1));
        assert_matches_oracle("uniform cloud", &snap, 10.0);
    }

    #[test]
    fn oracle_cell_clustering_scene() {
        let snap = scene_of(&CellClustering::new(2000), 10);
        assert_eq!(snap.len(), 2000);
        assert_matches_oracle("cell_clustering", &snap, snap.max_diameter);
    }

    #[test]
    fn oracle_positions_on_box_boundaries() {
        // Every coordinate a multiple of the box edge, the far faces (which
        // clamp into the last box) included.
        let positions: Vec<Real3> = (0..12 * 12 * 12)
            .map(|i| {
                let (x, y, z) = (i % 12, i / 12 % 12, i / 144);
                Real3::new(x as f64 * 10.0, y as f64 * 10.0, z as f64 * 10.0)
            })
            .collect();
        let dims = assert_matches_oracle("box boundaries", &snapshot_of(positions), 10.0);
        assert_eq!(dims, [12; 3]);
    }

    #[test]
    fn oracle_all_agents_in_one_box() {
        let snap = snapshot_of(random_cloud(500, [1.0; 3], 2));
        let dims = assert_matches_oracle("one box", &snap, 10.0);
        assert_eq!(dims, [1; 3]);
    }

    #[test]
    fn oracle_fewer_agents_than_shards() {
        let snap = snapshot_of(random_cloud(5, [80.0; 3], 3));
        assert_matches_oracle("population < K", &snap, 10.0);
    }

    #[test]
    fn oracle_duplicated_codes_leave_empty_ranges_between_non_empty_ones() {
        // 900 agents share one box in the middle of the curve, 50 sit at
        // either end: the quantile boundaries pile up on the shared code.
        let mut positions = random_cloud(50, [20.0; 3], 4);
        positions.extend(
            random_cloud(900, [5.0; 3], 5)
                .iter()
                .map(|p| *p + Real3::splat(52.0)),
        );
        positions.extend(
            random_cloud(50, [20.0; 3], 6)
                .iter()
                .map(|p| *p + Real3::splat(90.0)),
        );
        let snap = snapshot_of(positions);
        assert_matches_oracle("duplicated codes", &snap, 10.0);
        let st = exchanged(&snap, &pool(1), 7, 10.0, 3);
        let non_empty: Vec<usize> = (0..7)
            .filter(|&t| st.ranges[t].begin < st.ranges[t].end)
            .collect();
        assert!(
            non_empty.windows(2).any(|w| w[1] - w[0] > 1),
            "scene must put an empty range between two non-empty ones: {:?}",
            st.ranges
        );
    }

    #[test]
    fn oracle_coarsened_lattice() {
        let snap = scene_of(&crate::sharded::common::SparseScene { num_agents: 120 }, 5);
        let (min, max) = snap.bounds.unwrap();
        let (box_length, _) = UniformGridEnvironment::lattice_for(min, max, 15.0, snap.len());
        assert!(box_length > 15.0, "scene must coarsen the lattice");
        assert_matches_oracle("sparse two clusters", &snap, 15.0);
    }

    #[test]
    fn oracle_lattice_dims_not_powers_of_two() {
        let snap = snapshot_of(random_cloud(2000, [129.0, 69.0, 29.0], 7));
        let dims = assert_matches_oracle("13 x 7 x 3 lattice", &snap, 10.0);
        assert_eq!(dims, [13, 7, 3]);
    }

    /// Regression: a halo width far beyond the lattice (tiny radius under
    /// static detection) is the whole-lattice halo, at the same cost.
    #[test]
    fn halo_wider_than_the_lattice_is_the_whole_lattice_halo() {
        let snap = snapshot_of(random_cloud(400, [60.0; 3], 8));
        let pool = pool(1);
        let whole = Partition::of(&exchanged(&snap, &pool, 4, 10.0, 7));
        assert!(whole == oracle(&snap, 4, 10.0, 7));
        for halo_width in [1000, 3_000_000, u32::MAX] {
            assert!(Partition::of(&exchanged(&snap, &pool, 4, 10.0, halo_width)) == whole);
        }
    }

    /// The classification sweep writes per-agent slots and sums per-shard
    /// counts; the fill is serial — so the worker count cannot show.
    #[test]
    fn exchange_is_thread_count_invariant() {
        let snap = snapshot_of(random_cloud(3 * CLASSIFY_BLOCK + 17, [300.0; 3], 9));
        let run = |threads: usize| {
            let st = exchanged(&snap, &pool(threads), 4, 10.0, 3);
            (Partition::of(&st), st.manifest())
        };
        let reference = run(1);
        for threads in [2, 4] {
            assert!(run(threads) == reference, "{threads} workers");
        }
    }

    /// Steady state allocates nothing: a second exchange of the same
    /// population reuses every per-agent array and every cloud.
    #[test]
    fn repeated_exchange_reuses_its_buffers() {
        let snap = snapshot_of(random_cloud(2000, [150.0; 3], 10));
        let pool = pool(2);
        let mut st = exchanged(&snap, &pool, 3, 10.0, 2);
        let buffers = |st: &ShardedState| {
            let mut ptrs = vec![st.masks.as_ptr() as usize, st.boxes.as_ptr() as usize];
            ptrs.extend(st.clouds.iter().map(|c| c.positions.as_ptr() as usize));
            ptrs
        };
        let before = buffers(&st);
        st.exchange(&snap, &pool, 10.0, 2, 2, 2);
        assert_eq!(st.exchanges, 2);
        assert_eq!(buffers(&st), before);
    }

    #[test]
    fn ownership_partitions_every_agent_exactly_once() {
        let snap = snapshot_of(line(100, 15.0));
        let mut st = ShardedState::new(4);
        st.exchange(&snap, &pool(1), 10.0, 1, 1, 1);
        let total_owned: usize = st.owned_counts.iter().sum();
        assert_eq!(total_owned, 100);
        for g in 0..100 {
            let t = st.owner[g] as usize;
            let local = st.local_of[g] as usize;
            assert_eq!(st.clouds[t].members[local] as usize, g);
        }
    }

    #[test]
    fn members_ascend_and_carry_snapshot_columns() {
        let snap = snapshot_of(line(50, 15.0));
        let mut st = ShardedState::new(3);
        st.exchange(&snap, &pool(1), 10.0, 1, 1, 1);
        for cloud in &st.clouds {
            assert!(cloud.members.windows(2).all(|w| w[0] < w[1]));
            for (i, &g) in cloud.members.iter().enumerate() {
                assert_eq!(
                    cloud.positions[i].0.map(f64::to_bits),
                    snap.positions[g as usize].0.map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn halo_covers_range_frontiers() {
        // Agents 15 apart, radius 10: each box (edge 10) holds one agent
        // at most; neighbors within the interaction radius sit in adjacent
        // boxes, so each frontier agent must appear in both shard clouds.
        let snap = snapshot_of(line(40, 8.0));
        let mut st = ShardedState::new(2);
        st.exchange(&snap, &pool(1), 10.0, 1, 1, 1);
        let total_members: usize = st.clouds.iter().map(|c| c.members.len()).sum();
        assert!(
            total_members > 40,
            "frontier agents must be duplicated into neighbor shards"
        );
        // Every agent's own box neighborhood must be covered: for any two
        // agents within the radius, the owner shard of one must hold the
        // other as a member.
        for a in 0..40usize {
            for b in 0..40usize {
                if a == b {
                    continue;
                }
                let d = snap.positions[a].distance_sq(&snap.positions[b]).sqrt();
                if d <= 10.0 {
                    let t = st.owner[a] as usize;
                    assert!(
                        st.clouds[t].members.contains(&(b as u32)),
                        "agent {b} within radius of {a} missing from shard {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn exchange_skips_when_generation_unchanged() {
        let snap = snapshot_of(line(20, 15.0));
        let mut st = ShardedState::new(2);
        st.exchange(&snap, &pool(1), 10.0, 7, 1, 1);
        assert_eq!(st.exchanges, 1);
        st.exchange(&snap, &pool(1), 10.0, 7, 2, 1);
        assert_eq!(st.exchanges, 1);
        assert_eq!(st.exchange_skips, 1);
        assert_eq!(st.active_iteration, 2);
        st.exchange(&snap, &pool(1), 10.0, 8, 3, 1);
        assert_eq!(st.exchanges, 2);
    }

    /// Static detection's duty cycle flips the halo between 2 and 3 rings
    /// on an unchanged population: the wider request must rebuild, never
    /// be served the narrower clouds.
    #[test]
    fn exchange_rebuilds_when_the_halo_width_changes() {
        let snap = snapshot_of(line(40, 15.0));
        let pool = pool(1);
        let mut st = exchanged(&snap, &pool, 2, 10.0, 2);
        let narrow = Partition::of(&st);
        st.exchange(&snap, &pool, 10.0, 1, 2, 3);
        assert_eq!((st.exchanges, st.exchange_skips), (2, 0));
        let wide = Partition::of(&st);
        assert!(wide != narrow, "the scene must tell the widths apart");
        assert!(wide == Partition::of(&exchanged(&snap, &pool, 2, 10.0, 3)));
        st.exchange(&snap, &pool, 10.0, 1, 3, 3);
        assert_eq!((st.exchanges, st.exchange_skips), (2, 1));
    }

    #[test]
    fn empty_population_exchanges_cleanly() {
        let snap = snapshot_of(Vec::new());
        let mut st = ShardedState::new(3);
        st.exchange(&snap, &pool(1), 10.0, 1, 1, 1);
        assert_eq!(st.ranges.len(), 3);
        assert!(st.clouds.iter().all(|c| c.members.is_empty()));
        let report = st.report();
        assert_eq!(report.shards, 3);
        assert!(report.per_shard.iter().all(|s| s.owned == 0 && s.halo == 0));
    }

    #[test]
    fn manifest_matches_partition() {
        let snap = snapshot_of(line(30, 15.0));
        let mut st = ShardedState::new(2);
        st.exchange(&snap, &pool(1), 10.0, 1, 1, 1);
        let m = st.manifest();
        assert_eq!(m.shards, 2);
        assert_eq!(m.ranges.len(), 2);
        assert_eq!(m.owned.iter().sum::<u64>(), 30);
    }
}
