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
//! 3. Permute the agents' bytes in place so that memory order follows the
//!    new order (Figure 3 G, by other means). The agents of one *group* —
//!    one layout, one allocation path and, for pool memory, one NUMA
//!    domain — can hold each other's bytes, so each group's elements are
//!    sorted by address, and agent k of a domain's share moves into that
//!    domain's k-th lowest element of its group. The moves follow the
//!    permutation's cycles through a one-element buffer. A share larger
//!    than the elements its domain owns gets fresh elements (the paths of
//!    moves start there); the surplus elements of a smaller share are freed
//!    once their agents have moved out. Each [`AgentBox`] is rebuilt from
//!    the pointer of the element it now lives in and its own vtable.
//!
//! The paper copies every agent into fresh memory instead, and offers to
//! keep the old copies until the copy ends (more memory, better layout).
//! The permutation reaches that layout with one generation of agents: no
//! clone, no drop, and no second set of pool elements. It relies on what
//! every Rust value guarantees: an agent can be moved as its bytes, so it
//! holds no pointer into itself (docs/ARCHITECTURE.md, "Sorting").
//!
//! Steps 2 and 3 run on the engine's pool, except two serial walks: one
//! buckets the elements by group, one lists the cycles in move order and
//! cuts them into segments, which then move in parallel. A group's task
//! runs on a worker of the group's domain where the pool allows, so its
//! fresh and surplus elements go through that worker's private free list.

use std::alloc::Layout;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bdm_alloc::{MemoryManager, NumaPoolAllocator};
use bdm_env::UniformGridEnvironment;
use bdm_numa::{NumaThreadPool, NumaTopology};
use bdm_sfc::GapOffsets;
use bdm_util::prefix_sum::prefix_sum_exclusive;
use bdm_util::send_ptr::SendMut;
use bdm_util::Timer;

use crate::agent::{Agent, AgentBox};
use crate::resource_manager::{split_global, DomainStore, ResourceManager, StaticFlags};

/// Boxes per task of the two parallel passes over the curve-ordered boxes.
const ORDER_BLOCK_BOXES: usize = 4096;

/// Agents per task of the per-agent passes of the permutation.
const PERMUTE_BLOCK: usize = 4096;

/// `from` entry of an element no agent moves into (a surplus element).
const NONE: u32 = u32::MAX;

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
    /// The in-place permutation of the agents' bytes: grouping, address
    /// ranks, the moves and the rebuilt boxes.
    pub permute: Duration,
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
    pub(crate) fn sort_and_balance(
        &mut self,
        rm: &mut ResourceManager,
        grid: &UniformGridEnvironment,
        mm: &MemoryManager,
        pool: &NumaThreadPool,
        topology: &NumaTopology,
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

        // --- Step 3 (Figure 3 G): permute the agents' bytes in place. ---
        let old = std::mem::take(&mut rm.domains);
        rm.domains = permute(old, &new_order, &bounds, mm, pool);
        phases.permute = timer.restart();
        rm.generation += 1;
        self.phases = Some(phases);
        total
    }
}

/// Agents whose elements can hold each other's bytes: one layout, one
/// allocation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Class {
    layout: Layout,
    from_pool: bool,
}

impl Class {
    fn of(agent: &AgentBox) -> Class {
        Class {
            layout: Layout::for_value::<dyn Agent>(&**agent),
            from_pool: agent.is_pool_backed(),
        }
    }
}

/// The NUMA domain of an agent's element: its pool allocator's, or 0 for
/// system memory, which the sort treats as one domain-free group.
fn memory_domain(agent: &AgentBox) -> usize {
    if !agent.is_pool_backed() {
        return 0;
    }
    // SAFETY: a pool-backed box's element came from a pool allocator of the
    // memory manager, which outlives every agent.
    unsafe { (*NumaPoolAllocator::allocator_of(agent.as_ptr() as *mut u8)).numa_id() }
}

/// `fat` with its data pointer replaced by `data`: the vtable of one agent
/// on the element (address and provenance) of another.
fn with_data(fat: *mut dyn Agent, data: *mut u8) -> *mut dyn Agent {
    let mut out = fat;
    // SAFETY: a `*mut dyn Trait` is its data pointer followed by the vtable
    // pointer; the assert below fails if that ever stops holding.
    unsafe { (&raw mut out).cast::<*mut u8>().write(data) };
    assert_eq!(
        out as *mut u8, data,
        "a trait-object pointer starts with its data pointer"
    );
    out
}

/// The boxes of the old domain stores by global index. The permutation
/// owns them: each one's element ends up either under a new box or
/// released, so the vectors must never drop them (their lengths are zero)
/// — and a panic in between leaks them instead of freeing one twice.
struct OldBoxes {
    ptrs: Vec<SendMut<AgentBox>>,
    /// Global index of each old domain's first agent, the total appended.
    offsets: Vec<usize>,
}

impl OldBoxes {
    fn take(stores: &mut [DomainStore], offsets: Vec<usize>) -> OldBoxes {
        let ptrs = stores
            .iter_mut()
            .map(|store| {
                // SAFETY: shrinking to zero only gives up ownership.
                unsafe { store.agents.set_len(0) };
                SendMut::new(store.agents.as_mut_ptr())
            })
            .collect();
        OldBoxes { ptrs, offsets }
    }

    fn get(&self, global: usize) -> &AgentBox {
        let (d, i) = split_global(&self.offsets, global);
        // SAFETY: slot `i` of old domain `d` holds a box (the vector's former
        // length covers it) that nothing writes or drops.
        unsafe { &*self.ptrs[d].ptr_at(i) }
    }

    /// The element of old agent `global`.
    fn data(&self, global: usize) -> *mut u8 {
        self.get(global).as_ptr() as *mut u8
    }
}

/// What one group's task leaves for the moves and the release.
#[derive(Default)]
struct GroupMoves {
    /// Fresh elements and the agent that moves into each: where the paths
    /// of moves start.
    fresh: Vec<(SendMut<u8>, u32)>,
    /// Elements no agent moves into, highest address first.
    surplus: Vec<SendMut<u8>>,
}

/// Step 3: the domain stores of `old` rewritten in `new_order`, domain `d`
/// holding `bounds[d]..bounds[d + 1]`, with every agent's bytes moved to
/// the element whose address rank in its group equals its rank in the new
/// order. Returns the new stores; `old`'s boxes are consumed without a
/// drop.
fn permute(
    mut old: Vec<DomainStore>,
    new_order: &[u32],
    bounds: &[usize],
    mm: &MemoryManager,
    pool: &NumaThreadPool,
) -> Vec<DomainStore> {
    let num_domains = bounds.len() - 1;
    let total = bounds[num_domains];
    let old_sizes: Vec<usize> = old.iter().map(|s| s.agents.len()).collect();
    let mut offsets = vec![0usize];
    offsets.extend(old_sizes.iter().scan(0, |acc, &n| {
        *acc += n;
        Some(*acc)
    }));
    let boxes = OldBoxes::take(&mut old, offsets);
    let (boxes, offsets) = (&boxes, &boxes.offsets);

    // Classes present, in a fixed order, then each element's group: class
    // index × domains + memory domain.
    let found = Mutex::new(Vec::<Class>::new());
    pool.numa_for(&old_sizes, PERMUTE_BLOCK, &|_w, d, range| {
        let mut seen: Vec<Class> = Vec::new();
        for i in range {
            let class = Class::of(boxes.get(offsets[d] + i));
            if !seen.contains(&class) {
                seen.push(class);
            }
        }
        let mut found = found.lock().unwrap();
        for class in seen {
            if !found.contains(&class) {
                found.push(class);
            }
        }
    });
    let mut classes = found.into_inner().unwrap();
    classes.sort_by_key(|c| (c.layout.size(), c.layout.align(), c.from_pool));
    let classes = &classes;
    let num_groups = classes.len() * num_domains;
    let mut group: Vec<u32> = Vec::with_capacity(total);
    let group_ptr = SendMut::new(group.as_mut_ptr());
    pool.numa_for(&old_sizes, PERMUTE_BLOCK, &|_w, d, range| {
        for i in range {
            let agent = boxes.get(offsets[d] + i);
            let class = Class::of(agent);
            let c = classes.iter().position(|&k| k == class).unwrap();
            let domain = memory_domain(agent);
            assert!(domain < num_domains, "agent memory of domain {domain}");
            // SAFETY: `numa_for` hands out every (domain, index) once.
            unsafe { group_ptr.write(offsets[d] + i, (c * num_domains + domain) as u32) };
        }
    });
    // SAFETY: every old agent's entry was written above.
    unsafe { group.set_len(total) };
    let group = &group;
    // Each group's elements with their addresses, bucketed in one pass over
    // `group`; each group's task sorts its own slice in place.
    let mut group_starts = vec![0usize; num_groups + 1];
    for &g in group {
        group_starts[g as usize] += 1;
    }
    prefix_sum_exclusive(&mut group_starts);
    let mut listed = vec![(0usize, 0u32); total];
    let mut next = group_starts.clone();
    for (e, &g) in group.iter().enumerate() {
        listed[next[g as usize]] = (boxes.data(e) as usize, e as u32);
        next[g as usize] += 1;
    }
    let mut rest = listed.as_mut_slice();
    let lists: Vec<Mutex<&mut [(usize, u32)]>> = group_starts
        .windows(2)
        .map(|w| {
            let (list, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
            rest = tail;
            Mutex::new(list)
        })
        .collect();

    // Per group: its elements by address against its agents by new order.
    // `from[e]` is the old agent that moves into the element of old agent
    // `e`; the new boxes are written as their targets become known.
    let mut new_stores: Vec<DomainStore> = (0..num_domains)
        .map(|d| {
            let n = bounds[d + 1] - bounds[d];
            DomainStore {
                agents: Vec::with_capacity(n),
                flags: Vec::with_capacity(n),
                violations: Vec::with_capacity(n),
            }
        })
        .collect();
    let agent_ptrs: Vec<SendMut<AgentBox>> = new_stores
        .iter_mut()
        .map(|s| SendMut::new(s.agents.as_mut_ptr()))
        .collect();
    let mut from = vec![NONE; total];
    let from_ptr = SendMut::new(from.as_mut_ptr());
    let mut moves: Vec<GroupMoves> = (0..num_groups).map(|_| GroupMoves::default()).collect();
    let moves_ptr = SendMut::new(moves.as_mut_ptr());
    // Domain d's groups run on d's workers first, so the fresh elements of
    // a rebalance come from their thread-private lists.
    let groups_per_domain = vec![classes.len(); num_domains];
    pool.numa_for(&groups_per_domain, 1, &|_w, domain, range| {
        for c in range {
            let g = c * num_domains + domain;
            let class = classes[c];
            // A pool group takes its domain's share; system memory has no
            // domain, so its one group takes every share.
            let share = match (class.from_pool, domain) {
                (true, _) => bounds[domain]..bounds[domain + 1],
                (false, 0) => 0..total,
                (false, _) => 0..0,
            };
            let targets =
                share.filter(|&j| group[new_order[j] as usize] as usize / num_domains == c);
            let wanted = targets.clone().count();
            let mut owned = lists[g].lock().expect("no task panics holding a list");
            owned.sort_unstable_by_key(|&(addr, _)| addr);
            let mut fresh: Vec<(usize, *mut u8)> = (owned.len()..wanted)
                .map(|_| {
                    let (p, from_pool) = mm.alloc(class.layout, domain);
                    assert!(from_pool, "a pool group's fresh element came from the pool");
                    (p as usize, p)
                })
                .collect();
            fresh.sort_unstable_by_key(|&(addr, _)| addr);
            // SAFETY: entry g is this task's alone.
            let out = unsafe { moves_ptr.get_mut(g) };
            // The targets take the owned and the fresh elements merged in
            // address order.
            let (mut next_owned, mut next_fresh) = (0, 0);
            for j in targets {
                let agent = new_order[j];
                let take_owned = match (owned.get(next_owned), fresh.get(next_fresh)) {
                    (Some(&(addr, _)), Some(&(fresh_addr, _))) => addr < fresh_addr,
                    (next, _) => next.is_some(),
                };
                let data = if take_owned {
                    let e = owned[next_owned].1 as usize;
                    next_owned += 1;
                    // SAFETY: element e is the target of this agent alone,
                    // so this task is its only writer.
                    unsafe { from_ptr.write(e, agent) };
                    boxes.data(e)
                } else {
                    let p = fresh[next_fresh].1;
                    next_fresh += 1;
                    out.fresh.push((SendMut::new(p), agent));
                    p
                };
                let fat = with_data(boxes.get(agent as usize).as_ptr(), data);
                let (d, k) = split_global(bounds, j);
                // SAFETY: new slot j is written once, by the task of its
                // agent's group; `fat` and the flag describe an element of
                // the agent's class that will hold its bytes after the
                // moves.
                unsafe { agent_ptrs[d].write(k, AgentBox::from_raw_parts(fat, class.from_pool)) };
            }
            out.surplus = owned[next_owned..]
                .iter()
                .rev()
                .map(|&(_, e)| SendMut::new(boxes.data(e as usize)))
                .collect();
        }
    });
    // Freed before the moves allocate their chains.
    drop(lists);
    drop(listed);

    let fresh: Vec<(SendMut<u8>, u32)> =
        moves.iter().flat_map(|m| m.fresh.iter().copied()).collect();
    let size = |e: u32| {
        classes[group[e as usize] as usize / num_domains]
            .layout
            .size()
    };
    let data = |e: u32| boxes.data(e as usize);
    move_agents(from, &fresh, &data, &size, MOVE_SEGMENT, pool);
    // On the domain's workers, the surplus returns to their private lists.
    let moves = &moves;
    pool.numa_for(&groups_per_domain, 1, &|_w, domain, range| {
        for c in range {
            let class = classes[c];
            for p in &moves[c * num_domains + domain].surplus {
                // SAFETY: a surplus element's agent has moved out, no box
                // points to it any more, and it was allocated with this
                // class.
                unsafe { MemoryManager::dealloc(p.ptr_at(0), class.layout, class.from_pool) };
            }
        }
    });

    // The sidecars follow their agents.
    let sizes: Vec<usize> = (0..num_domains)
        .map(|d| bounds[d + 1] - bounds[d])
        .collect();
    {
        let flag_ptrs: Vec<SendMut<StaticFlags>> = new_stores
            .iter_mut()
            .map(|s| SendMut::new(s.flags.as_mut_ptr()))
            .collect();
        let viol_ptrs: Vec<SendMut<AtomicU8>> = new_stores
            .iter_mut()
            .map(|s| SendMut::new(s.violations.as_mut_ptr()))
            .collect();
        let old = &old;
        pool.numa_for(&sizes, PERMUTE_BLOCK, &|_w, d, range| {
            for k in range {
                let (od, oi) = split_global(offsets, new_order[bounds[d] + k] as usize);
                let violation = old[od].violations[oi].load(Ordering::Relaxed);
                // SAFETY: slot k of domain d is written exactly once.
                unsafe {
                    flag_ptrs[d].write(k, old[od].flags[oi]);
                    viol_ptrs[d].write(k, AtomicU8::new(violation));
                }
            }
        });
    }
    for (s, &n) in new_stores.iter_mut().zip(&sizes) {
        // SAFETY: all n slots of each vector were written above.
        unsafe {
            s.agents.set_len(n);
            s.flags.set_len(n);
            s.violations.set_len(n);
        }
    }
    new_stores
}

/// Moves per [`Segment`] of a chain of moves.
const MOVE_SEGMENT: usize = 4096;

/// A run of consecutive moves of one chain (see [`move_agents`]): the
/// moves write element `order[t]` from element `order[t + 1]` for `t` in
/// `start..end`.
#[derive(Clone, Copy)]
struct Segment {
    start: u32,
    end: u32,
    /// Where the last move reads from instead of `order[end]`: [`NONE`]
    /// when nothing overwrites `order[end]` (a path's surplus end), this
    /// segment's own index for a whole cycle (its head, copied before its
    /// first move), or the segment whose head was saved in `slot`.
    tail: u32,
    /// This segment's slot among the saved heads, or [`NONE`].
    slot: u32,
}

/// Moves the agents' bytes: the agent of element `from[e]` into element
/// `e` (live elements `0..from.len()`, addressed by `data`), and the agent
/// of each `fresh` entry into that fresh element. A path of moves starts
/// at a fresh element and ends at a surplus one ([`NONE`] in `from`);
/// every other agent lies on a cycle or stays put.
///
/// One serial walk over `from` lists the chains in move order and cuts
/// them into segments of `segment` moves; the first move of a
/// segment overwrites the element the previous segment's last move reads,
/// so those heads are copied aside first. Then the segments move in
/// parallel.
fn move_agents(
    mut from: Vec<u32>,
    fresh: &[(SendMut<u8>, u32)],
    data: &(dyn Fn(u32) -> *mut u8 + Sync),
    size: &(dyn Fn(u32) -> usize + Sync),
    segment: usize,
    pool: &NumaThreadPool,
) {
    let total = from.len() as u32;
    let mut order: Vec<u32> = Vec::with_capacity(from.len() + fresh.len());
    let mut segments: Vec<Segment> = Vec::new();
    let mut slots = 0u32;
    // Cuts the chain `order[start..]` into segments; a cycle's last move
    // reads its first element's old bytes.
    let mut cut = |order: &[u32], start: usize, cycle: bool| {
        let (end, first) = (order.len() - 1, segments.len());
        for a in (start..end).step_by(segment) {
            let (start, end) = (a as u32, (a + segment).min(end) as u32);
            let (tail, slot) = (NONE, NONE);
            segments.push(Segment {
                start,
                end,
                tail,
                slot,
            });
        }
        let last = segments.len() - 1;
        for s in first..last {
            segments[s].tail = (s + 1) as u32;
            segments[s + 1].slot = slots;
            slots += 1;
        }
        if cycle {
            segments[last].tail = first as u32;
            if last != first {
                segments[first].slot = slots;
                slots += 1;
            }
        }
    };
    for (k, &(_, agent)) in fresh.iter().enumerate() {
        let start = order.len();
        order.push(total + k as u32);
        let mut e = agent;
        loop {
            order.push(e);
            let next = std::mem::replace(&mut from[e as usize], e);
            if next == NONE {
                break;
            }
            e = next;
        }
        cut(&order, start, false);
    }
    for head in 0..total {
        if from[head as usize] == head {
            continue;
        }
        let start = order.len();
        let mut e = head;
        loop {
            order.push(e);
            let next = std::mem::replace(&mut from[e as usize], e);
            debug_assert_ne!(next, NONE, "every path was followed");
            if next == head {
                break;
            }
            e = next;
        }
        order.push(head);
        cut(&order, start, true);
    }

    let element = |e: u32| match e.checked_sub(total) {
        // SAFETY: the fresh elements are live allocations.
        Some(k) => unsafe { fresh[k as usize].0.ptr_at(0) },
        None => data(e),
    };
    // A fresh element is never a move's source, so every segment's first
    // move reads a live element, which gives the segment's size.
    let seg_size = |seg: &Segment| size(order[seg.start as usize + 1]);
    let max_size = segments.iter().map(seg_size).max().unwrap_or(0);
    let mut saved = vec![MaybeUninit::<u8>::uninit(); slots as usize * max_size];
    let saved_at = SendMut::new(saved.as_mut_ptr().cast::<u8>());
    let (order, segments) = (&order, &segments);
    pool.parallel_for(segments.len(), 1, &|_w, range| {
        for seg in &segments[range] {
            if seg.slot != NONE {
                // SAFETY: slot `seg.slot` is this segment's alone, and no
                // move has run yet.
                unsafe {
                    let to = saved_at.ptr_at(seg.slot as usize * max_size);
                    std::ptr::copy_nonoverlapping(
                        element(order[seg.start as usize]),
                        to,
                        seg_size(seg),
                    );
                }
            }
        }
    });
    pool.parallel_for(segments.len(), 1, &|_w, range| {
        for (s, seg) in segments[range.clone()].iter().enumerate() {
            let (len, end) = (seg_size(seg), seg.end as usize);
            let mut own_head = Vec::new();
            let last_src = match seg.tail {
                NONE => element(order[end]),
                t if t as usize == range.start + s => {
                    own_head.resize(len, MaybeUninit::<u8>::uninit());
                    let head = own_head.as_mut_ptr().cast::<u8>();
                    // SAFETY: a whole cycle belongs to this segment, whose
                    // first move has not run yet.
                    unsafe {
                        std::ptr::copy_nonoverlapping(element(order[seg.start as usize]), head, len)
                    };
                    head
                }
                // SAFETY: the tail segment's head was saved above.
                t => unsafe { saved_at.ptr_at(segments[t as usize].slot as usize * max_size) },
            };
            for t in seg.start as usize..end {
                let src = if t + 1 == end {
                    last_src
                } else {
                    element(order[t + 1])
                };
                // SAFETY: every element is written by one move and read by
                // one move (or from its saved copy). A move reads element
                // `order[t + 1]` before the next move of the same segment
                // overwrites it; the one element another segment
                // overwrites, `order[end]`, is read from its copy. Source
                // and target are distinct elements of one class, and no
                // reference to an agent is alive.
                unsafe { std::ptr::copy_nonoverlapping(src, element(order[t]), len) };
            }
        }
    });
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
    use std::any::Any;
    use std::sync::atomic::AtomicUsize;

    use crate::agent::{new_agent_box, AgentBase, AgentUid, Cell};
    use crate::context::ExecutionContext;
    use crate::resource_manager::{VIOL_CUR, VIOL_NEXT};
    use bdm_alloc::PoolConfig;
    use bdm_env::Environment;
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

    /// `move_agents` on 8-byte elements holding their agent's number:
    /// paths from fresh to surplus elements and cycles of every length,
    /// cut into segments of 1 to 4096 moves, on one and two workers.
    #[test]
    fn segmented_moves_deliver_every_agent() {
        let (live, extra) = (500usize, 40usize);
        let mut rng = SimRng::new(9);
        // Targets: the live elements but the last `extra`, then `extra`
        // fresh ones (numbered after the live), shuffled.
        let mut targets: Vec<u32> = (0..(live - extra) as u32)
            .chain((live..live + extra).map(|k| k as u32))
            .collect();
        for i in (1..targets.len()).rev() {
            targets.swap(i, rng.below(i + 1));
        }
        // A stay-put agent (3) and a 2-cycle (5, 6) too.
        for (agent, target) in [(3, 3), (5, 6), (6, 5)] {
            let i = targets.iter().position(|&t| t == target).unwrap();
            targets.swap(agent, i);
        }
        for segment in [1, 2, 3, 7, 4096] {
            for threads in [1, 2] {
                let pool = NumaThreadPool::new(NumaTopology::new(1, threads));
                let mut memory: Vec<u64> = (0..live + extra).map(|e| e as u64 * 10 + 1).collect();
                let base = SendMut::new(memory.as_mut_ptr());
                let mut from = vec![NONE; live];
                let mut fresh = Vec::new();
                for (agent, &t) in targets.iter().enumerate() {
                    if t as usize >= live {
                        // SAFETY: element t lies inside `memory`.
                        let element = unsafe { base.ptr_at(t as usize).cast::<u8>() };
                        fresh.push((SendMut::new(element), agent as u32));
                    } else {
                        from[t as usize] = agent as u32;
                    }
                }
                // SAFETY: every element id indexes `memory`.
                let data = |e: u32| unsafe { base.ptr_at(e as usize).cast::<u8>() };
                move_agents(from, &fresh, &data, &|_| 8, segment, &pool);
                for (agent, &t) in targets.iter().enumerate() {
                    assert_eq!(
                        memory[t as usize],
                        agent as u64 * 10 + 1,
                        "segment {segment}, {threads} workers"
                    );
                }
            }
        }
    }

    /// A cell of another layout that counts its drops in `drops`: the sort
    /// must drop nothing.
    struct Tracked {
        cell: Cell,
        drops: &'static AtomicUsize,
        _wider: [u64; 3],
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Agent for Tracked {
        fn base(&self) -> &AgentBase {
            self.cell.base()
        }
        fn base_mut(&mut self) -> &mut AgentBase {
            self.cell.base_mut()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The invariant of the permutation: within each domain and class,
    /// store order is ascending address order, and a pool element lives in
    /// its store's domain.
    fn assert_address_order(rm: &ResourceManager) {
        for (d, store) in rm.domains.iter().enumerate() {
            let mut last: Vec<(Class, usize)> = Vec::new();
            for (i, agent) in store.agents.iter().enumerate() {
                let (class, addr) = (Class::of(agent), agent.as_ptr() as *mut u8 as usize);
                if class.from_pool {
                    assert_eq!(memory_domain(agent), d, "agent {i} of domain {d}");
                }
                match last.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, prev)) => {
                        assert!(
                            *prev < addr,
                            "agent {i} of domain {d} below its predecessor"
                        );
                        *prev = addr;
                    }
                    None => last.push((class, addr)),
                }
            }
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

    /// A population of two agent classes (every 8th agent [`Tracked`]) that
    /// went through a commit with additions and removals (so domain sizes
    /// are uneven, creation iterations differ and some agents live in
    /// another domain's memory), with per-agent flags and violation bytes,
    /// sorted twice on a pool of `threads` workers in `domains` domains,
    /// from pool or system memory. Returns the sorted state and the uid
    /// sequence the oracle walk predicts. Everything before the sort is a
    /// function of `domains` alone.
    fn sorted_population(domains: usize, threads: usize, use_pool: bool) -> (Sorted, Vec<u64>) {
        let topology = NumaTopology::new(domains, threads);
        let pool = NumaThreadPool::new(topology.clone());
        pool.broadcast(&|w| bdm_alloc::register_thread(w.thread_id, w.domain));
        let mm = match use_pool {
            true => MemoryManager::new(domains, threads, PoolConfig::default()),
            false => MemoryManager::system_only(domains, threads),
        };
        let drops: &'static AtomicUsize = Box::leak(Box::default());
        let mut rm = ResourceManager::new(domains);
        let mut rng = SimRng::new(77);
        let mut agent = |uid: u64, domain: usize| {
            let mut cell = Cell::new(AgentUid(uid));
            cell.set_position(rng.point_in_cube(0.0, 40.0));
            match uid % 8 {
                0 => new_agent_box(
                    Tracked {
                        cell,
                        drops,
                        _wider: [uid; 3],
                    },
                    &mm,
                    domain,
                ),
                _ => new_agent_box(cell, &mm, domain),
            }
        };
        for uid in 0..3000u64 {
            let d = (uid % 3 == 0) as usize % domains;
            rm.push(d, agent(uid, d), 0);
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
            let memory = (uid % 3) as usize % domains;
            ctxs[uid as usize % 2].queue_new_agent(d, agent(uid, memory));
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
        let dropped = drops.load(Ordering::Relaxed);
        for _ in 0..2 {
            grid.update(&positions(&rm), 2.5);
            let moved = sorter.sort_and_balance(&mut rm, &grid, &mm, &pool, &topology);
            assert_eq!(moved, expected.len());
            assert_address_order(&rm);
            if use_pool {
                assert_eq!(mm.outstanding(), moved as i64, "one element per agent");
            }
        }
        assert_eq!(
            drops.load(Ordering::Relaxed),
            dropped,
            "the sort drops nothing"
        );
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
            let tracked = a.as_any().downcast_ref::<Tracked>();
            assert_eq!(
                tracked.is_some(),
                a.uid().0 % 8 == 0,
                "the vtable moved along"
            );
            if let Some(t) = tracked {
                assert_eq!(t._wider, [a.uid().0; 3], "the bytes moved along");
            }
        });
        // The sidecars travelled with their agents.
        for (k, &uid) in out.uids.iter().enumerate() {
            let created = if uid >= 3000 { 5 } else { 0 };
            assert_eq!(out.flags[k], (uid % 5 == 0, created), "uid {uid}");
            assert_eq!(out.violations[k], violation(uid), "uid {uid}");
        }
        let tracked = out.uids.iter().filter(|&&uid| uid % 8 == 0).count();
        drop(rm);
        assert_eq!(mm.outstanding(), 0, "every element was released once");
        assert_eq!(
            drops.load(Ordering::Relaxed),
            dropped + tracked,
            "one drop each"
        );
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
                for use_pool in [true, false] {
                    let (sorted, _) = sorted_population(domains, threads, use_pool);
                    assert_eq!(
                        sorted, reference,
                        "{domains} domains, {threads} workers, pool allocator {use_pool}"
                    );
                }
            }
        }
    }
}
