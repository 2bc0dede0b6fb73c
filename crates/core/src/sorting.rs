//! Agent sorting and balancing (paper Section 4.2, Figure 3).
//!
//! Rewrites the resource manager so that agents close in 3-D space become
//! close in memory, and rebalances them across NUMA domains proportionally
//! to each domain's thread count. The algorithm exploits the uniform grid:
//!
//! 1. Enumerate the grid boxes in Morton order using the linear-time
//!    gap-offset table of `bdm-sfc` (Figure 3 D/E) — no sorting, no visits
//!    to out-of-domain codes. The enumeration depends on the lattice
//!    dimensions alone, so it is kept between sorts and redone only when
//!    they change.
//! 2. Walk the boxes in that order and concatenate their agents (the grid's
//!    box-sorted slot runs are already the grouping), then partition the
//!    sequence among NUMA domains proportionally to their thread counts
//!    (Figure 3 F).
//! 3. Copy every agent into **freshly allocated pool memory** of its target
//!    domain in the new order (Figure 3 G) — the copy is what turns spatial
//!    locality into allocation locality: consecutive allocations of one
//!    thread are consecutive in memory.
//!
//! With `use_extra_memory`, all old agent copies are kept until the step
//! finished (better layout, more peak memory); otherwise each old agent is
//! freed immediately after its copy is made (paper Section 4.2, last
//! paragraph of the algorithm description).
//!
//! Steps 2 and 3 and the release of the old copies run on the engine's
//! pool. The old copies of a domain are released by that domain's workers:
//! the memory goes back through their thread-private free lists
//! (Figure 4B) instead of one central-list lock round-trip per element.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

use bdm_alloc::MemoryManager;
use bdm_env::UniformGridEnvironment;
use bdm_numa::{NumaThreadPool, NumaTopology};
use bdm_sfc::GapOffsets;
use bdm_util::send_ptr::SendMut;
use bdm_util::Timer;

use crate::agent::AgentBox;
use crate::resource_manager::{DomainStore, ResourceManager, StaticFlags};

/// Boxes per task of the two parallel passes over the curve-ordered boxes.
const ORDER_BLOCK_BOXES: usize = 4096;

/// Wall-clock time of each phase of one sort
/// ([`Simulation::last_sort_phases`](crate::Simulation::last_sort_phases));
/// docs/PERFORMANCE.md, "What a sort costs".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortPhases {
    /// Boxes in Morton order (next to nothing when the previous sort's
    /// lattice had the same dimensions and the enumeration was reused).
    pub enumerate: Duration,
    /// Agents per block of curve-ordered boxes.
    pub count: Duration,
    /// Old agent indices written out in the new order.
    pub order: Duration,
    /// Deep copy of every agent into fresh pool memory.
    pub clone: Duration,
    /// Release of the old copies kept until the copy finished
    /// (`sort_use_extra_memory`; zero otherwise).
    pub release: Duration,
}

/// The agent-sorting operation's state between sorts.
#[derive(Default)]
pub(crate) struct AgentSorter {
    /// Flat indices of all grid boxes in Morton order, for `enumerated`.
    flats: Vec<u32>,
    /// Lattice dimensions `flats` was enumerated for.
    enumerated: Option<[u32; 3]>,
    /// Phase times of the last sort that moved agents.
    pub(crate) phases: Option<SortPhases>,
}

impl AgentSorter {
    /// Sorts and balances all agents; returns the number of agents moved
    /// (= total agents) or 0 if the environment has no grid to sort by.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sort_and_balance(
        &mut self,
        rm: &mut ResourceManager,
        grid: &UniformGridEnvironment,
        mm: &MemoryManager,
        pool: &NumaThreadPool,
        topology: &NumaTopology,
        use_extra_memory: bool,
    ) -> usize {
        let dims = grid.dims();
        let total: usize = rm.num_agents();
        if total == 0 || dims.contains(&0) {
            return 0;
        }
        let mut phases = SortPhases::default();
        let mut timer = Timer::start();

        // --- Step 1 (Figure 3 D/E): boxes in Morton order. ---
        if self.enumerated != Some(dims) {
            self.flats = morton_ordered_boxes(grid);
            self.enumerated = Some(dims);
        }
        phases.enumerate = timer.restart();

        // --- Step 2 (Figure 3 F): agents in box order + partition. ---
        let starts = block_starts(grid, &self.flats, total, pool);
        phases.count = timer.restart();
        let new_order = box_grouped_order(grid, &self.flats, &starts, pool);
        phases.order = timer.restart();

        // Domain shares proportional to thread counts (Figure 3 F: "each NUMA
        // domain receives a share corresponding to its number of threads").
        let num_domains = topology.num_domains();
        let total_threads = topology.num_threads();
        let mut bounds = Vec::with_capacity(num_domains + 1);
        bounds.push(0usize);
        let mut acc_threads = 0usize;
        for d in 0..num_domains {
            acc_threads += topology.threads_in_domain(d);
            bounds.push(total * acc_threads / total_threads);
        }
        debug_assert_eq!(*bounds.last().unwrap(), total);

        // --- Step 3 (Figure 3 G): copy agents into fresh memory, new order. ---
        let offsets = rm.offsets();
        let old_sizes = rm.domain_sizes();
        let mut old_stores: Vec<DomainStore> = rm.domains.iter_mut().map(std::mem::take).collect();
        // The sort owns the old boxes from here on: each is dropped in place
        // exactly once below (after its copy, or in the release sweep), so
        // the vectors must never drop them again — and a panic in between
        // leaks them instead of freeing one twice.
        let old_ptrs: Vec<SendMut<AgentBox>> = old_stores
            .iter_mut()
            .map(|store| {
                // SAFETY: shrinking to zero only gives up ownership.
                unsafe { store.agents.set_len(0) };
                SendMut::new(store.agents.as_mut_ptr())
            })
            .collect();

        let split = |global: usize| -> (usize, usize) {
            let mut d = 0;
            while d + 1 < offsets.len() - 1 && offsets[d + 1] <= global {
                d += 1;
            }
            (d, global - offsets[d])
        };

        // Build each target domain in parallel: sizes are known, so allocate
        // uninitialized vectors and fill them with the NUMA-aware iterator (the
        // copying thread belongs to the target domain, so pool allocations land
        // on the right virtual node).
        let sizes: Vec<usize> = (0..num_domains)
            .map(|d| bounds[d + 1] - bounds[d])
            .collect();
        let mut new_stores: Vec<DomainStore> = sizes
            .iter()
            .map(|&n| {
                let mut s = DomainStore::default();
                s.agents.reserve(n);
                s.flags.reserve(n);
                s.violations.reserve(n);
                s
            })
            .collect();
        {
            let agent_ptrs: Vec<SendMut<AgentBox>> = new_stores
                .iter_mut()
                .map(|s| SendMut::new(s.agents.as_mut_ptr()))
                .collect();
            let flag_ptrs: Vec<SendMut<StaticFlags>> = new_stores
                .iter_mut()
                .map(|s| SendMut::new(s.flags.as_mut_ptr()))
                .collect();
            let viol_ptrs: Vec<SendMut<AtomicU8>> = new_stores
                .iter_mut()
                .map(|s| SendMut::new(s.violations.as_mut_ptr()))
                .collect();
            let (new_order, bounds, old_stores) = (&new_order, &bounds, &old_stores);
            pool.numa_for(&sizes, 1024, &|_wctx, domain, range| {
                for k in range {
                    let global_old = new_order[bounds[domain] + k] as usize;
                    let (od, oi) = split(global_old);
                    // SAFETY: slot `oi` of old domain `od` holds a live box
                    // (the vector's former length covers it) and, each old
                    // index appearing exactly once in `new_order`, only this
                    // task touches it.
                    let old_box = unsafe { old_ptrs[od].ptr_at(oi) };
                    let cloned = unsafe { (*old_box).clone_box(mm, domain) };
                    if !use_extra_memory {
                        // Free the obsolete copy immediately (lower peak
                        // memory, interleaved allocator traffic); otherwise
                        // it stays alive until the release sweep below.
                        // SAFETY: the one drop of this box, see above.
                        unsafe { std::ptr::drop_in_place(old_box) };
                    }
                    // SAFETY: slot k of the target domain written exactly once.
                    unsafe {
                        agent_ptrs[domain].write(k, cloned);
                        flag_ptrs[domain].write(k, old_stores[od].flags[oi]);
                        viol_ptrs[domain].write(
                            k,
                            AtomicU8::new(old_stores[od].violations[oi].load(Ordering::Relaxed)),
                        );
                    }
                }
            });
            for (s, &n) in new_stores.iter_mut().zip(&sizes) {
                // SAFETY: all n slots initialized by the loop above.
                unsafe {
                    s.agents.set_len(n);
                    s.flags.set_len(n);
                    s.violations.set_len(n);
                }
            }
        }
        phases.clone = timer.restart();
        if use_extra_memory {
            // All old copies die here, after the copy finished — each
            // domain's by that domain's workers, whose private free lists
            // take the memory back without touching the central list.
            pool.numa_for(&old_sizes, 1024, &|_wctx, domain, range| {
                for i in range {
                    // SAFETY: the one drop of this box (see `old_ptrs`);
                    // `numa_for` hands out every index once.
                    unsafe { std::ptr::drop_in_place(old_ptrs[domain].ptr_at(i)) };
                }
            });
            phases.release = timer.restart();
        }
        rm.domains = new_stores;
        rm.generation += 1;
        self.phases = Some(phases);
        total
    }
}

/// Flat indices of all grid boxes in Morton order, in linear time via the
/// gap-offset DFS (Figure 3 D/E).
fn morton_ordered_boxes(grid: &UniformGridEnvironment) -> Vec<u32> {
    let dims = grid.dims();
    // The grid build asserts that flat box indices fit 32 bits.
    GapOffsets::compute_3d(dims[0], dims[1], dims[2])
        .iter_coords()
        .map(|(x, y, z)| grid.flat_index([x, y, z]) as u32)
        .collect()
}

/// Block `b` of the curve-ordered boxes: [`ORDER_BLOCK_BOXES`] of them, the
/// unit of work of the two passes below.
fn order_block(flats: &[u32], b: usize) -> &[u32] {
    &flats[b * ORDER_BLOCK_BOXES..((b + 1) * ORDER_BLOCK_BOXES).min(flats.len())]
}

/// Where each block's agents start in the new order (exclusive prefix sum
/// of the blocks' agent counts), with `total` appended. One parallel pass
/// over the boxes; no per-box table exists.
///
/// # Panics
/// If the grid does not index exactly `total` agents.
fn block_starts(
    grid: &UniformGridEnvironment,
    flats: &[u32],
    total: usize,
    pool: &NumaThreadPool,
) -> Vec<usize> {
    let nblocks = flats.len().div_ceil(ORDER_BLOCK_BOXES);
    let mut starts: Vec<usize> = vec![0; nblocks + 1];
    let starts_ptr = SendMut::new(starts.as_mut_ptr());
    pool.parallel_for(nblocks, 1, &|_c, range| {
        for b in range {
            let agents = order_block(flats, b)
                .iter()
                .map(|&f| grid.box_slots(f as usize).len())
                .sum();
            // SAFETY: entry b is written by exactly one task.
            unsafe { starts_ptr.write(b, agents) };
        }
    });
    let mut counted = 0usize;
    for start in &mut starts {
        counted += std::mem::replace(start, counted);
    }
    // A real assert, not a debug one: the unsafe copy loop of the sort
    // relies on the new order being a permutation of all current agent
    // indices, which only holds if the grid was rebuilt after the last
    // add/remove commit.
    assert_eq!(
        counted, total,
        "agent sorting requires a fresh environment index: the grid indexes \
         {counted} agents but the resource manager holds {total}"
    );
    starts
}

/// Old global agent indices grouped by the boxes of `flats` — the grid's
/// sorted slot runs concatenated in that box order (ascending agent index
/// within a box), each block written from its entry of [`block_starts`].
fn box_grouped_order(
    grid: &UniformGridEnvironment,
    flats: &[u32],
    starts: &[usize],
    pool: &NumaThreadPool,
) -> Vec<u32> {
    let (nblocks, total) = (starts.len() - 1, starts[starts.len() - 1]);
    let mut new_order: Vec<u32> = Vec::with_capacity(total);
    let order_ptr = SendMut::new(new_order.as_mut_ptr());
    pool.parallel_for(nblocks, 1, &|_c, range| {
        for b in range {
            let mut at = starts[b];
            for &f in order_block(flats, b) {
                for slot in grid.box_slots(f as usize) {
                    // SAFETY: the blocks' ranges [starts[b], starts[b+1])
                    // are disjoint and end at `total`, the capacity.
                    unsafe { order_ptr.write(at, slot.index) };
                    at += 1;
                }
            }
        }
    });
    // SAFETY: the block ranges tile [0, total) and each was fully written.
    unsafe { new_order.set_len(total) };
    new_order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{new_agent_box, Agent, AgentUid, Cell};
    use crate::context::ExecutionContext;
    use crate::resource_manager::{VIOL_CUR, VIOL_NEXT};
    use bdm_alloc::PoolConfig;
    use bdm_env::Environment;
    use bdm_util::prefix_sum::prefix_sum_exclusive;
    use bdm_util::{Real3, SimRng};

    fn dense_grid() -> (UniformGridEnvironment, usize) {
        let mut rng = SimRng::new(2024);
        let points: Vec<Real3> = (0..700).map(|_| rng.point_in_cube(0.0, 22.0)).collect();
        let n = points.len();
        let mut grid = UniformGridEnvironment::new();
        grid.update(&points, 3.0);
        (grid, n)
    }

    /// The reference walk: Morton enumeration of the boxes, per-box counts,
    /// their prefix sum, and every box's slot run copied to its offset.
    fn oracle_order(grid: &UniformGridEnvironment) -> Vec<u32> {
        let dims = grid.dims();
        let flats: Vec<usize> = GapOffsets::compute_3d(dims[0], dims[1], dims[2])
            .iter_coords()
            .map(|(x, y, z)| grid.flat_index([x, y, z]))
            .collect();
        let mut offsets: Vec<usize> = flats.iter().map(|&f| grid.box_slots(f).len()).collect();
        let total = prefix_sum_exclusive(&mut offsets);
        let mut order = vec![0u32; total];
        for (b, &flat) in flats.iter().enumerate() {
            for (k, slot) in grid.box_slots(flat).iter().enumerate() {
                order[offsets[b] + k] = slot.index;
            }
        }
        order
    }

    #[test]
    fn grouped_order_is_the_oracle_permutation() {
        let (grid, total) = dense_grid();
        let flats = morton_ordered_boxes(&grid);
        for threads in [1, 2, 4] {
            let pool = NumaThreadPool::new(NumaTopology::new(1, threads));
            let starts = block_starts(&grid, &flats, total, &pool);
            let order = box_grouped_order(&grid, &flats, &starts, &pool);
            assert_eq!(order, oracle_order(&grid), "{threads} workers");
            let mut sorted = order;
            sorted.sort_unstable();
            assert!(sorted.iter().enumerate().all(|(i, &a)| a as usize == i));
        }
    }

    #[test]
    fn soa_order_within_box_is_ascending_agent_index() {
        let (grid, _) = dense_grid();
        for flat in 0..grid.num_boxes() {
            let slots = grid.box_slots(flat);
            assert!(
                slots.windows(2).all(|w| w[0].index < w[1].index),
                "box {flat} not ascending: {:?}",
                slots.iter().map(|s| s.index).collect::<Vec<_>>()
            );
        }
    }

    /// What a sort must preserve or produce, in store order.
    #[derive(Debug, PartialEq)]
    struct Sorted {
        uids: Vec<u64>,
        domain_sizes: Vec<usize>,
        flags: Vec<(bool, u64)>,
        violations: Vec<u8>,
    }

    /// A population that went through a commit with additions and removals
    /// (so domain sizes are uneven and creation iterations differ), with
    /// per-agent flags and violation bytes, sorted twice on a pool of
    /// `threads` workers in `domains` domains. Returns the sorted state and
    /// the uid sequence the oracle walk predicts. Everything before the sort
    /// is a function of `domains` alone.
    fn sorted_population(
        domains: usize,
        threads: usize,
        use_extra_memory: bool,
    ) -> (Sorted, Vec<u64>) {
        let topology = NumaTopology::new(domains, threads);
        let pool = NumaThreadPool::new(topology.clone());
        pool.broadcast(&|w| bdm_alloc::register_thread(w.thread_id, w.domain));
        let mm = MemoryManager::new(domains, threads, PoolConfig::default());
        let mut rm = ResourceManager::new(domains);
        let mut rng = SimRng::new(77);
        let mut cell = |uid: u64, domain: usize| {
            let mut c = Cell::new(AgentUid(uid));
            c.set_position(rng.point_in_cube(0.0, 40.0));
            new_agent_box(c, &mm, domain)
        };
        for uid in 0..3000u64 {
            let d = (uid % 3 == 0) as usize % domains;
            rm.push(d, cell(uid, d), 0);
        }
        // The commit's swaps depend on its pool, so it gets a fixed one.
        let commit_pool = NumaThreadPool::new(NumaTopology::new(1, 2));
        let mut ctxs = vec![
            ExecutionContext::new(domains),
            ExecutionContext::new(domains),
        ];
        let mut doomed = Vec::new();
        rm.for_each_agent(|h, a| {
            if a.uid().0 % 7 == 0 {
                doomed.push(h);
            }
        });
        for (k, h) in doomed.into_iter().enumerate() {
            ctxs[k % 2].queue_removal(h);
        }
        for uid in 3000..3400u64 {
            let d = (uid % 2) as usize % domains;
            ctxs[uid as usize % 2].queue_new_agent(d, cell(uid, d));
        }
        let commit = rm.commit(&mut ctxs, &commit_pool, true, 5);
        assert!(commit.added == 400 && commit.removed > 400);
        let violation = |uid: u64| [0, VIOL_CUR, VIOL_NEXT, VIOL_CUR | VIOL_NEXT][uid as usize % 4];
        let mut handles = Vec::new();
        rm.for_each_agent(|h, a| handles.push((h, a.uid().0)));
        for &(h, uid) in &handles {
            let store = &mut rm.domains[h.domain as usize];
            store.flags[h.index as usize].is_static = uid % 5 == 0;
            store.violations[h.index as usize].store(violation(uid), Ordering::Relaxed);
        }

        // Every agent's position in global-index order (domain-major).
        let positions = |rm: &ResourceManager| {
            let mut out = Vec::with_capacity(rm.num_agents());
            rm.for_each_agent(|_, a| out.push(a.position()));
            out
        };
        let mut grid = UniformGridEnvironment::new();
        grid.update(&positions(&rm), 2.5);
        // Expected uid sequence: the oracle walk over the pre-sort indices.
        let offsets = rm.offsets();
        let mut uid_of = vec![0u64; rm.num_agents()];
        for &(h, uid) in &handles {
            uid_of[offsets[h.domain as usize] + h.index as usize] = uid;
        }
        let expected: Vec<u64> = oracle_order(&grid)
            .iter()
            .map(|&i| uid_of[i as usize])
            .collect();

        // Twice: positions do not change, so the second sort — the one that
        // reuses the box enumeration — must reproduce the first one's order.
        let mut sorter = AgentSorter::default();
        for _ in 0..2 {
            grid.update(&positions(&rm), 2.5);
            let moved =
                sorter.sort_and_balance(&mut rm, &grid, &mm, &pool, &topology, use_extra_memory);
            assert_eq!(moved, expected.len());
        }
        let mut out = Sorted {
            uids: Vec::new(),
            domain_sizes: rm.domain_sizes(),
            flags: Vec::new(),
            violations: Vec::new(),
        };
        rm.for_each_agent(|h, a| {
            let store = &rm.domains[h.domain as usize];
            let f = store.flags[h.index as usize];
            out.uids.push(a.uid().0);
            out.flags.push((f.is_static, f.created_iter));
            out.violations
                .push(store.violations[h.index as usize].load(Ordering::Relaxed));
        });
        // The sidecars travelled with their agents.
        for (k, &uid) in out.uids.iter().enumerate() {
            let created = if uid >= 3000 { 5 } else { 0 };
            assert_eq!(out.flags[k], (uid % 5 == 0, created), "uid {uid}");
            assert_eq!(out.violations[k], violation(uid), "uid {uid}");
        }
        drop(rm);
        assert_eq!(mm.outstanding(), 0, "every old copy was released once");
        (out, expected)
    }

    #[test]
    fn sort_is_identical_across_workers_and_memory_modes() {
        for (domains, worker_counts) in [(1, &[1, 2, 4][..]), (2, &[2, 4][..])] {
            let (reference, expected) = sorted_population(domains, worker_counts[0], true);
            assert_eq!(reference.uids, expected, "the oracle walk's order");
            let n = expected.len();
            let halves = [vec![n], vec![n / 2, n - n / 2]];
            assert_eq!(reference.domain_sizes, halves[domains - 1]);
            for &threads in worker_counts {
                for use_extra_memory in [true, false] {
                    let (sorted, _) = sorted_population(domains, threads, use_extra_memory);
                    assert_eq!(
                        sorted, reference,
                        "{domains} domains, {threads} workers, extra memory {use_extra_memory}"
                    );
                }
            }
        }
    }
}
