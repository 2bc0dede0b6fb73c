//! Agent sorting and balancing (paper Section 4.2, Figure 3).
//!
//! Rewrites the resource manager so that agents close in 3-D space become
//! close in memory, and rebalances them across NUMA domains proportionally
//! to each domain's thread count. The algorithm exploits the uniform grid:
//!
//! 1. Enumerate the grid boxes in Morton order using the linear-time
//!    gap-offset table of `bdm-sfc` (Figure 3 D/E) — no sorting, no visits
//!    to out-of-domain codes.
//! 2. Count agents per box (O(1) each: the grid's box-sorted slot runs are
//!    already the grouping), prefix-sum, and partition agents among NUMA
//!    domains proportionally to their thread counts (Figure 3 F).
//! 3. Copy every agent into **freshly allocated pool memory** of its target
//!    domain in the new order (Figure 3 G) — the copy is what turns spatial
//!    locality into allocation locality.
//!
//! With `use_extra_memory`, all old agent copies are kept until the step
//! finished (better layout, more peak memory); otherwise each old agent is
//! freed immediately after its copy is made (paper Section 4.2, last
//! paragraph of the algorithm description).

use std::sync::atomic::AtomicU8;

use bdm_alloc::MemoryManager;
use bdm_env::UniformGridEnvironment;
use bdm_numa::{NumaThreadPool, NumaTopology};
use bdm_sfc::{hilbert3_encode, CurveKind, GapOffsets};
use bdm_util::prefix_sum::prefix_sum_exclusive;
use bdm_util::send_ptr::SendMut;

use crate::agent::AgentBox;
use crate::resource_manager::{DomainStore, ResourceManager, StaticFlags};

/// Sorts and balances all agents; returns the number of agents moved
/// (= total agents) or 0 if the environment has no grid to sort by.
pub(crate) fn sort_and_balance(
    rm: &mut ResourceManager,
    grid: &UniformGridEnvironment,
    mm: &MemoryManager,
    pool: &NumaThreadPool,
    topology: &NumaTopology,
    curve: CurveKind,
    use_extra_memory: bool,
) -> usize {
    let dims = grid.dims();
    let total: usize = rm.num_agents();
    if total == 0 || dims.contains(&0) {
        return 0;
    }
    let offsets = rm.offsets();

    // --- Step 1 (Figure 3 D/E): boxes in space-filling-curve order. ---
    // Morton: linear time via the gap-offset DFS. Hilbert: the ablation of
    // Section 4.2 — no gap-offset analogue exists, so enumeration costs an
    // explicit O(B log B) sort, which is part of why the paper chose Morton.
    let flats: Vec<usize> = match curve {
        CurveKind::Morton => {
            let gap = GapOffsets::compute_3d(dims[0], dims[1], dims[2]);
            gap.iter_coords()
                .map(|(x, y, z)| grid.flat_index([x, y, z]))
                .collect()
        }
        CurveKind::Hilbert => {
            let bits = dims
                .iter()
                .map(|&d| d.next_power_of_two().trailing_zeros())
                .max()
                .unwrap_or(1)
                .max(1);
            let mut keyed: Vec<(u64, usize)> =
                Vec::with_capacity(dims.iter().map(|&d| d as usize).product());
            for z in 0..dims[2] {
                for y in 0..dims[1] {
                    for x in 0..dims[0] {
                        keyed.push((hilbert3_encode(x, y, z, bits), grid.flat_index([x, y, z])));
                    }
                }
            }
            keyed.sort_unstable_by_key(|&(code, _)| code);
            keyed.into_iter().map(|(_, flat)| flat).collect()
        }
    };

    // --- Step 2 (Figure 3 F): agents per box + prefix sum + partition. ---
    // The grid's box-sorted slot array *is* the box-grouped order the sort
    // needs (its counting sort already grouped the agents), so both passes
    // read it directly — O(1) counts and slice copies.
    let mut counts: Vec<usize> = flats.iter().map(|&f| grid.box_slots(f).len()).collect();
    // A real assert, not a debug one: the unsafe copy loop below relies on
    // `new_order` being a permutation of all current agent indices, which
    // only holds if the grid was rebuilt after the last add/remove commit.
    let counted = prefix_sum_exclusive(&mut counts); // counts[b] = start offset
    assert_eq!(
        counted, total,
        "agent sorting requires a fresh environment index: the grid indexes \
         {counted} agents but the resource manager holds {total}"
    );

    // New order: global old indices arranged by Morton-ordered boxes.
    let new_order = box_grouped_order(grid, &flats, &counts, total, pool);

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
    // Old stores are wrapped in Option so the no-extra-memory mode can free
    // each source immediately after it was copied.
    let mut old_domains: Vec<Vec<Option<AgentBox>>> = rm
        .domains
        .iter_mut()
        .map(|store| store.agents.drain(..).map(Some).collect())
        .collect();
    let old_flags: Vec<Vec<StaticFlags>> = rm
        .domains
        .iter_mut()
        .map(|store| std::mem::take(&mut store.flags))
        .collect();
    let old_violations: Vec<Vec<AtomicU8>> = rm
        .domains
        .iter_mut()
        .map(|store| std::mem::take(&mut store.violations))
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
        let old_ptrs: Vec<SendMut<Option<AgentBox>>> = old_domains
            .iter_mut()
            .map(|v| SendMut::new(v.as_mut_ptr()))
            .collect();
        let new_order = &new_order;
        let bounds = &bounds;
        let old_flags = &old_flags;
        let old_violations = &old_violations;
        pool.numa_for(&sizes, 1024, &|_wctx, domain, range| {
            for k in range {
                let global_old = new_order[bounds[domain] + k] as usize;
                let (od, oi) = split(global_old);
                // SAFETY: each old index appears exactly once in new_order,
                // so this Option is taken by exactly one task.
                let old_box = unsafe { (*old_ptrs[od].ptr_at(oi)).take().expect("unique take") };
                let cloned = old_box.clone_box(mm, domain);
                if !use_extra_memory {
                    // Free the obsolete copy immediately (lower peak memory,
                    // interleaved allocator traffic).
                    drop(old_box);
                } else {
                    // Keep it alive until the whole step finished: put it
                    // back; the batch drop happens below.
                    // SAFETY: same unique slot as above.
                    unsafe { *old_ptrs[od].ptr_at(oi) = Some(old_box) };
                }
                // SAFETY: slot k of the target domain written exactly once.
                unsafe {
                    agent_ptrs[domain].write(k, cloned);
                    flag_ptrs[domain].write(k, old_flags[od][oi]);
                    viol_ptrs[domain].write(
                        k,
                        AtomicU8::new(
                            old_violations[od][oi].load(std::sync::atomic::Ordering::Relaxed),
                        ),
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
    // With extra memory, all old copies die here, after the copy finished.
    drop(old_domains);
    rm.domains = new_stores;
    rm.generation += 1;
    total
}

/// Old global agent indices grouped by the boxes of `flats`, box `b`'s
/// agents starting at `offsets[b]` — copied from the grid's sorted slot
/// runs (ascending agent index within a box).
fn box_grouped_order(
    grid: &UniformGridEnvironment,
    flats: &[usize],
    offsets: &[usize],
    total: usize,
    pool: &NumaThreadPool,
) -> Vec<u32> {
    let mut new_order: Vec<u32> = vec![0; total];
    let order_ptr = SendMut::new(new_order.as_mut_ptr());
    pool.parallel_for(flats.len(), 256, &|_c, range| {
        for b in range {
            for (k, slot) in grid.box_slots(flats[b]).iter().enumerate() {
                // SAFETY: box ranges [offsets[b], offsets[b+1]) are disjoint.
                unsafe { order_ptr.write(offsets[b] + k, slot.index) };
            }
        }
    });
    new_order
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_env::{Environment, SliceCloud};
    use bdm_util::{Real3, SimRng};

    fn dense_grid() -> (UniformGridEnvironment, usize) {
        let mut rng = SimRng::new(2024);
        let points: Vec<Real3> = (0..700).map(|_| rng.point_in_cube(0.0, 22.0)).collect();
        let n = points.len();
        let mut grid = UniformGridEnvironment::new();
        grid.update(&SliceCloud(&points), 3.0);
        (grid, n)
    }

    #[test]
    fn grouped_order_is_a_permutation_grouped_by_morton_box() {
        let (grid, total) = dense_grid();
        let pool = NumaThreadPool::new(NumaTopology::new(2, 2));
        let dims = grid.dims();
        let flats: Vec<usize> = GapOffsets::compute_3d(dims[0], dims[1], dims[2])
            .iter_coords()
            .map(|(x, y, z)| grid.flat_index([x, y, z]))
            .collect();
        let mut offsets: Vec<usize> = flats.iter().map(|&f| grid.box_slots(f).len()).collect();
        assert_eq!(prefix_sum_exclusive(&mut offsets), total);
        let order = box_grouped_order(&grid, &flats, &offsets, total, &pool);
        for (b, &flat) in flats.iter().enumerate() {
            let expected: Vec<u32> = grid.box_slots(flat).iter().map(|s| s.index).collect();
            assert_eq!(
                &order[offsets[b]..offsets[b] + expected.len()],
                &expected[..]
            );
        }
        let mut sorted = order;
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &a)| a as usize == i));
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
}
