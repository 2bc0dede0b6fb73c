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

use std::collections::HashMap;
use std::time::Duration;

use bdm_env::{Environment, GridFrame, PointCloud, UniformGridEnvironment, UpdateHint};
use bdm_sfc::{morton3_encode, shard_of, split_ranges, ShardRange};
use bdm_util::{Real3, Timer};

use crate::context::Snapshot;

/// Maximum supported shard count: halo membership is tracked as one `u64`
/// bitmask per occupied box.
pub const MAX_SHARDS: usize = 64;

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
    /// Exchanges skipped because `ResourceManager::generation` and the
    /// interaction radius were unchanged since the last exchange.
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
    /// Monotonic stamp incremented on every full exchange; grid builds are
    /// keyed on it so unchanged clouds skip the K rebuilds too.
    exchange_stamp: u64,
    /// `(exchange_stamp, diameter scatter)` the grids were last built for.
    grids_built_for: Option<(u64, bool)>,
    /// Full exchanges performed.
    pub exchanges: u64,
    /// Exchanges skipped (generation/radius/population unchanged).
    pub exchange_skips: u64,
    /// Wall-clock time of the last full exchange.
    pub last_exchange: Duration,
    /// Per-shard grid-build times of the last build cycle.
    pub grid_build: Vec<Duration>,
    /// Per-shard owned-agent counts of the last exchange.
    pub owned_counts: Vec<usize>,
    /// Reusable per-agent Morton-code buffer.
    codes: Vec<u64>,
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
            exchange_stamp: 0,
            grids_built_for: None,
            exchanges: 0,
            exchange_skips: 0,
            last_exchange: Duration::ZERO,
            grid_build: vec![Duration::ZERO; shards],
            owned_counts: vec![0; shards],
            codes: Vec::new(),
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
    /// when the population generation, size, and interaction radius are
    /// unchanged since the last exchange.
    ///
    /// `halo_width` is the Chebyshev box distance the halo extends past a
    /// shard's owned boxes: 1 covers queries centered inside owned boxes;
    /// static-agent detection needs more because a mover's wake query
    /// centers on its *post-displacement* position.
    pub fn exchange(
        &mut self,
        snapshot: &Snapshot,
        radius: f64,
        generation: u64,
        iteration: u64,
        halo_width: u32,
    ) {
        let n = snapshot.len();
        if self.last_generation == Some(generation)
            && self.last_radius_bits == radius.to_bits()
            && self.last_n == n
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

            // Pass 1: every agent's global box Morton code (ascending
            // global index — the deterministic migration order).
            self.codes.clear();
            self.codes.reserve(n);
            for pos in &snapshot.positions {
                let bc =
                    UniformGridEnvironment::global_box_coordinates(*pos, min, inv, global_dims);
                self.codes.push(morton3_encode(bc[0], bc[1], bc[2]));
            }
            self.ranges = split_ranges(&self.codes, self.shards);

            // Pass 2: ownership + halo membership. Membership is a pure
            // function of the agent's box, so it is memoized per occupied
            // box: the mask has bit t set iff some box within Chebyshev
            // `halo_width` of this box is owned by shard t.
            let w = halo_width as i64;
            let mut memo: HashMap<u64, ([u32; 3], u32, u64)> = HashMap::with_capacity(1024.min(n));
            self.owner.resize(n, 0);
            self.local_of.resize(n, 0);
            for g in 0..n {
                let code = self.codes[g];
                let (bc, own, mask) = match memo.get(&code) {
                    Some(&entry) => entry,
                    None => {
                        let bc = UniformGridEnvironment::global_box_coordinates(
                            snapshot.positions[g],
                            min,
                            inv,
                            global_dims,
                        );
                        let own = shard_of(&self.ranges, code) as u32;
                        let mut mask = 0u64;
                        for dz in -w..=w {
                            let z = (bc[2] as i64 + dz).clamp(0, global_dims[2] as i64 - 1);
                            for dy in -w..=w {
                                let y = (bc[1] as i64 + dy).clamp(0, global_dims[1] as i64 - 1);
                                for dx in -w..=w {
                                    let x = (bc[0] as i64 + dx).clamp(0, global_dims[0] as i64 - 1);
                                    let c = morton3_encode(x as u32, y as u32, z as u32);
                                    mask |= 1u64 << shard_of(&self.ranges, c);
                                }
                            }
                        }
                        memo.insert(code, (bc, own, mask));
                        (bc, own, mask)
                    }
                };
                self.owner[g] = own;
                let mut m = mask;
                while m != 0 {
                    let t = m.trailing_zeros() as usize;
                    m &= m - 1;
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
        self.exchange_stamp += 1;
        self.exchanges += 1;
        self.last_exchange = timer.elapsed();
    }

    /// Rebuilds the K shard grids over the current clouds (no-op when the
    /// clouds and build capabilities are unchanged). Every build is framed
    /// to the global lattice ([`GridFrame`]) so box membership is bitwise
    /// that of the single-engine grid.
    pub fn build_grids(
        &mut self,
        scatter_diameters: bool,
        radius: f64,
        bounds: Option<(Real3, Real3)>,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_of(positions: Vec<Real3>) -> Snapshot {
        let n = positions.len();
        let mut lo = Real3::splat(f64::INFINITY);
        let mut hi = Real3::splat(f64::NEG_INFINITY);
        for p in &positions {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Snapshot {
            positions,
            diameters: vec![10.0; n],
            payloads: Vec::new(),
            payloads_gathered: false,
            offsets: vec![0, n],
            max_diameter: 10.0,
            bounds: (n > 0).then_some((lo, hi)),
        }
    }

    fn line(n: usize, spacing: f64) -> Vec<Real3> {
        (0..n)
            .map(|i| Real3::new(i as f64 * spacing, 0.0, 0.0))
            .collect()
    }

    #[test]
    fn ownership_partitions_every_agent_exactly_once() {
        let snap = snapshot_of(line(100, 15.0));
        let mut st = ShardedState::new(4);
        st.exchange(&snap, 10.0, 1, 1, 1);
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
        st.exchange(&snap, 10.0, 1, 1, 1);
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
        st.exchange(&snap, 10.0, 1, 1, 1);
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
        st.exchange(&snap, 10.0, 7, 1, 1);
        assert_eq!(st.exchanges, 1);
        st.exchange(&snap, 10.0, 7, 2, 1);
        assert_eq!(st.exchanges, 1);
        assert_eq!(st.exchange_skips, 1);
        assert_eq!(st.active_iteration, 2);
        st.exchange(&snap, 10.0, 8, 3, 1);
        assert_eq!(st.exchanges, 2);
    }

    #[test]
    fn empty_population_exchanges_cleanly() {
        let snap = snapshot_of(Vec::new());
        let mut st = ShardedState::new(3);
        st.exchange(&snap, 10.0, 1, 1, 1);
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
        st.exchange(&snap, 10.0, 1, 1, 1);
        let m = st.manifest();
        assert_eq!(m.shards, 2);
        assert_eq!(m.ranges.len(), 2);
        assert_eq!(m.owned.iter().sum::<u64>(), 30);
    }
}
