//! The resource manager: per-NUMA-domain agent storage with parallel
//! addition and removal (paper Sections 3.2 and 4.1, Figures 1 and 2).
//!
//! Agents live in one pointer vector per (virtual) NUMA domain
//! (`Vec<AgentBox>`), exactly like BioDynaMo's `ResourceManager` keeps one
//! `std::vector<Agent*>` per NUMA node. Empty slots are disallowed, so
//! removing an agent from the middle swaps it with an element from the tail
//! before shrinking — the five-step parallel algorithm of Figure 1.
//!
//! Next to every agent vector sits an index-synchronized *sidecar*:
//! the static-detection state of Section 5 (`StaticFlags` owned exclusively
//! by the agent's processing thread, plus an `AtomicBool` violation flag
//! neighbors may set concurrently). All commit operations keep the sidecars
//! aligned.

use std::sync::atomic::{AtomicU8, Ordering};

use bdm_env::PointCloud;
use bdm_numa::NumaThreadPool;
use bdm_util::prefix_sum::prefix_sum_exclusive;
use bdm_util::send_ptr::SendMut;
use bdm_util::Real3;

use crate::agent::{Agent, AgentBox, AgentHandle};
use crate::context::ExecutionContext;

/// Per-agent static-detection state owned by the agent's processing thread.
#[derive(Debug, Clone, Copy)]
pub struct StaticFlags {
    /// Whether the force calculation may be skipped this iteration.
    pub is_static: bool,
    /// Iteration at which the agent was committed (detects "new" agents for
    /// condition iii of Section 5).
    pub created_iter: u64,
}

impl StaticFlags {
    fn new(created_iter: u64) -> StaticFlags {
        StaticFlags {
            is_static: false,
            created_iter,
        }
    }
}

/// Violation flag bit: pending for the *next* mechanics pass (what
/// [`ResourceManager::take_violation`] consumes).
///
/// The flag is double-buffered within one byte so that raising and
/// consuming can overlap inside the same parallel agent pass without the
/// outcome depending on scheduling: a raise during iteration *k* targets
/// [`VIOL_NEXT`], takes during *k* consume only `VIOL_CUR`, and
/// [`ResourceManager::promote_violations`] shifts NEXT into CUR once the
/// pass has finished. With a single bit, whether a neighbor's raise landed
/// before or after the victim's take decided *which iteration* the victim
/// woke up in — a data race breaking bit-reproducibility.
pub(crate) const VIOL_CUR: u8 = 0b01;
/// Violation flag bit: raised during the currently running agent pass.
pub(crate) const VIOL_NEXT: u8 = 0b10;

/// Global agent index → `(domain, local index)` against per-domain start
/// offsets with the total appended ([`ResourceManager::offsets`],
/// `Snapshot::offsets`). Domains are few (1–4 in the paper's systems), so a
/// linear scan wins; an empty domain starts where its successor does and is
/// stepped over.
#[inline]
pub(crate) fn split_global(offsets: &[usize], global: usize) -> (usize, usize) {
    let mut domain = 0;
    while domain + 2 < offsets.len() && offsets[domain + 1] <= global {
        domain += 1;
    }
    (domain, global - offsets[domain])
}

/// Storage of one NUMA domain.
#[derive(Default)]
pub(crate) struct DomainStore {
    pub(crate) agents: Vec<AgentBox>,
    pub(crate) flags: Vec<StaticFlags>,
    pub(crate) violations: Vec<AtomicU8>,
}

impl DomainStore {
    fn push(&mut self, agent: AgentBox, iteration: u64) {
        self.agents.push(agent);
        self.flags.push(StaticFlags::new(iteration));
        self.violations.push(AtomicU8::new(0));
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.agents.swap(a, b);
        self.flags.swap(a, b);
        self.violations.swap(a, b);
    }

    fn truncate(&mut self, len: usize) {
        self.agents.truncate(len);
        self.flags.truncate(len);
        self.violations.truncate(len);
    }

    fn len(&self) -> usize {
        self.agents.len()
    }
}

/// Statistics of one commit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Agents added.
    pub added: usize,
    /// Agents removed.
    pub removed: usize,
}

/// Owner of all agents (BioDynaMo's `ResourceManager`).
pub struct ResourceManager {
    pub(crate) domains: Vec<DomainStore>,
    /// Bumped on every change that can invalidate an index-addressed
    /// snapshot (push, commit, sort rewrite, exclusive agent access):
    /// consumers compare generations to detect that agent indices were
    /// remapped or an agent was mutated in place — a pure length check
    /// misses same-count add/remove pairs and in-place moves.
    pub(crate) generation: u64,
}

impl ResourceManager {
    /// Creates an empty manager with `num_domains` NUMA domains.
    pub fn new(num_domains: usize) -> ResourceManager {
        assert!(num_domains > 0);
        ResourceManager {
            domains: (0..num_domains).map(|_| DomainStore::default()).collect(),
            generation: 0,
        }
    }

    /// Structural-change generation (see the field docs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of NUMA domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Total number of agents.
    pub fn num_agents(&self) -> usize {
        self.domains.iter().map(DomainStore::len).sum()
    }

    /// Agents in one domain.
    pub fn num_in_domain(&self, domain: usize) -> usize {
        self.domains[domain].len()
    }

    /// Per-domain agent counts (input to the NUMA-aware iterator).
    pub fn domain_sizes(&self) -> Vec<usize> {
        self.domains.iter().map(DomainStore::len).collect()
    }

    /// Global-index offsets of each domain, with the total appended.
    pub fn offsets(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.domains.len() + 1);
        let mut acc = 0;
        for d in &self.domains {
            out.push(acc);
            acc += d.len();
        }
        out.push(acc);
        out
    }

    /// Inserts an agent during model initialization (round-robin balancing
    /// is the caller's responsibility; `Simulation::add_agent` does it).
    pub fn push(&mut self, domain: usize, agent: AgentBox, iteration: u64) -> AgentHandle {
        self.generation += 1;
        let store = &mut self.domains[domain];
        store.push(agent, iteration);
        AgentHandle::new(domain, store.len() - 1)
    }

    /// Shared access to an agent.
    pub fn agent(&self, h: AgentHandle) -> &dyn Agent {
        &*self.domains[h.domain as usize].agents[h.index as usize]
    }

    /// Exclusive access to an agent. Counts as a structural change for
    /// [`ResourceManager::generation`]: the caller may move the agent, which
    /// invalidates index-addressed position snapshots taken earlier in the
    /// iteration (the engine then re-reads live agents instead).
    pub fn agent_mut(&mut self, h: AgentHandle) -> &mut dyn Agent {
        self.generation += 1;
        &mut *self.domains[h.domain as usize].agents[h.index as usize]
    }

    /// The static-detection sidecar of an agent (checkpointing; Section 5
    /// state survives a serialize→restore round trip through this pair of
    /// accessors).
    pub fn static_flags(&self, h: AgentHandle) -> StaticFlags {
        self.domains[h.domain as usize].flags[h.index as usize]
    }

    /// Overwrites the static-detection sidecar of an agent (restore path).
    /// Does not count as a structural change: the agent itself is untouched.
    pub fn set_static_flags(&mut self, h: AgentHandle, flags: StaticFlags) {
        self.domains[h.domain as usize].flags[h.index as usize] = flags;
    }

    /// Visits every agent with its handle.
    pub fn for_each_agent(&self, mut f: impl FnMut(AgentHandle, &dyn Agent)) {
        for (d, store) in self.domains.iter().enumerate() {
            for (i, agent) in store.agents.iter().enumerate() {
                f(AgentHandle::new(d, i), &**agent);
            }
        }
    }

    /// Commits the buffered additions and removals of all execution contexts
    /// (the end-of-iteration teardown of paper Section 3.2).
    ///
    /// With `parallel` set, additions use grow-once + parallel writes and
    /// removals use the five-step swap algorithm of Figure 1; otherwise both
    /// run serially (the "standard implementation" baseline).
    pub fn commit(
        &mut self,
        ctxs: &mut [ExecutionContext],
        pool: &NumaThreadPool,
        parallel: bool,
        iteration: u64,
    ) -> CommitStats {
        let mut stats = CommitStats::default();

        // ---- Removals (before additions, so handles stay valid). ----
        // Group removal indices by domain.
        let num_domains = self.domains.len();
        let mut removals: Vec<Vec<u32>> = vec![Vec::new(); num_domains];
        for ctx in ctxs.iter_mut() {
            for h in ctx.removals.drain(..) {
                removals[h.domain as usize].push(h.index);
            }
        }
        for (d, mut list) in removals.into_iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            // Defensive dedup: removing the same slot twice would corrupt
            // the swap algorithm.
            list.sort_unstable();
            list.dedup();
            stats.removed += list.len();
            if parallel {
                parallel_remove(&mut self.domains[d], &list, pool);
            } else {
                serial_remove(&mut self.domains[d], &list);
            }
        }

        // ---- Additions. ----
        for d in 0..num_domains {
            let total: usize = ctxs.iter().map(|c| c.new_agents[d].len()).sum();
            if total == 0 {
                continue;
            }
            stats.added += total;
            let store = &mut self.domains[d];
            if parallel {
                parallel_append(store, ctxs, d, iteration, pool);
            } else {
                for ctx in ctxs.iter_mut() {
                    for agent in ctx.new_agents[d].drain(..) {
                        store.push(agent, iteration);
                    }
                }
            }
        }
        // A commit without additions or removals leaves every index and
        // agent untouched — only structural change advances the generation
        // (delta checkpoints skip the agent section on an unchanged
        // generation, so a no-op commit must not invalidate it).
        if stats.added > 0 || stats.removed > 0 {
            self.generation += 1;
        }
        stats
    }
}

/// Serial reference removal: swap-remove from the highest index down.
fn serial_remove(store: &mut DomainStore, sorted_indices: &[u32]) {
    for &idx in sorted_indices.iter().rev() {
        let idx = idx as usize;
        let last = store.len() - 1;
        store.swap(idx, last);
        store.truncate(last);
    }
}

/// The five-step parallel removal algorithm of paper Figure 1.
///
/// Runs in O(removed) time and space (steps 1–4 parallel) — independent of
/// the number of *remaining* agents.
fn parallel_remove(store: &mut DomainStore, indices: &[u32], pool: &NumaThreadPool) {
    let removed = indices.len();
    let old_size = store.len();
    debug_assert!(removed <= old_size);
    let new_size = old_size - removed;

    // Step 1: initialize the auxiliary arrays.
    const NIL: u32 = u32::MAX;
    let mut to_right = vec![NIL; removed];
    let mut not_to_left = vec![0u8; removed];

    // Step 2: fill them. Each parallel block of the (sorted) removal list
    // writes disjoint `to_right` slots; `not_to_left` slots are keyed by
    // `idx - new_size` and therefore unique per removed index.
    {
        let to_right_ptr = SendMut::new(to_right.as_mut_ptr());
        let not_left_ptr = SendMut::new(not_to_left.as_mut_ptr());
        pool.parallel_for(removed, 1024, &|_ctx, range| {
            for k in range {
                let idx = indices[k] as usize;
                if idx < new_size {
                    // This removed agent sits left of the boundary; its slot
                    // must be refilled from the right.
                    // SAFETY: slot k is written exactly once.
                    unsafe { to_right_ptr.write(k, indices[k]) };
                } else {
                    // SAFETY: idx - new_size < removed, unique per idx.
                    unsafe { not_left_ptr.write(idx - new_size, 1u8) };
                }
            }
        });
    }

    // Step 3: per-block compaction. `to_right`: move non-NIL entries to the
    // block front. `not_to_left` → `to_left`: a zero at position p means the
    // agent at `p + new_size` survives and must move left; replace it with
    // that index and move it to the block front.
    let nthreads = pool.num_threads();
    let block = removed.div_ceil(nthreads).max(1);
    let nblocks = removed.div_ceil(block);
    let mut swaps_right = vec![0usize; nblocks];
    let mut swaps_left = vec![0usize; nblocks];
    {
        let sr = SendMut::new(swaps_right.as_mut_ptr());
        let to_right_ptr = SendMut::new(to_right.as_mut_ptr());
        pool.parallel_for(nblocks, 1, &|_c, range| {
            for b in range {
                let start = b * block;
                let end = (start + block).min(removed);
                let mut write = start;
                for read in start..end {
                    // SAFETY: disjoint block [start, end).
                    unsafe {
                        let v = *to_right_ptr.ptr_at(read);
                        if v != NIL {
                            *to_right_ptr.ptr_at(write) = v;
                            write += 1;
                        }
                    }
                }
                // SAFETY: slot b written exactly once.
                unsafe { sr.write(b, write - start) };
            }
        });
        // `not_to_left` entries are u8 flags and cannot hold indices, so the
        // semantic change to `to_left` (paper step 3) writes into a dedicated
        // index array.
        let not_left_ptr = SendMut::new(not_to_left.as_mut_ptr());
        let sl = SendMut::new(swaps_left.as_mut_ptr());
        let mut to_left = vec![NIL; removed];
        let tl = SendMut::new(to_left.as_mut_ptr());
        pool.parallel_for(nblocks, 1, &|_c, range| {
            for b in range {
                let start = b * block;
                let end = (start + block).min(removed);
                let mut write = start;
                for read in start..end {
                    // SAFETY: disjoint block [start, end).
                    unsafe {
                        if *not_left_ptr.ptr_at(read) == 0 {
                            *tl.ptr_at(write) = (read + new_size) as u32;
                            write += 1;
                        }
                    }
                }
                // SAFETY: slot b written exactly once.
                unsafe { sl.write(b, write - start) };
            }
        });

        // Step 4: prefix sums over the per-block swap counters, then perform
        // the swaps in parallel.
        let total_right = prefix_sum_exclusive(&mut swaps_right);
        let total_left = prefix_sum_exclusive(&mut swaps_left);
        debug_assert_eq!(
            total_right, total_left,
            "removed-left-of-boundary must equal survivors-right-of-boundary"
        );
        let nswaps = total_right;
        // Compact the block-local runs into dense global arrays (parallel,
        // O(removed)).
        let mut right_dense = vec![NIL; nswaps];
        let mut left_dense = vec![NIL; nswaps];
        {
            let rd = SendMut::new(right_dense.as_mut_ptr());
            let ld = SendMut::new(left_dense.as_mut_ptr());
            let swaps_right = &swaps_right;
            let swaps_left = &swaps_left;
            let to_right = &to_right;
            let to_left = &to_left;
            pool.parallel_for(nblocks, 1, &|_c, range| {
                for b in range {
                    let start = b * block;
                    let end = (start + block).min(removed);
                    let rbase = swaps_right[b];
                    let rlen = if b + 1 < nblocks {
                        swaps_right[b + 1] - rbase
                    } else {
                        nswaps - rbase
                    };
                    for j in 0..rlen {
                        debug_assert!(start + j < end);
                        // SAFETY: dense ranges per block are disjoint.
                        unsafe { rd.write(rbase + j, to_right[start + j]) };
                    }
                    let lbase = swaps_left[b];
                    let llen = if b + 1 < nblocks {
                        swaps_left[b + 1] - lbase
                    } else {
                        nswaps - lbase
                    };
                    for j in 0..llen {
                        debug_assert!(start + j < end);
                        // SAFETY: dense ranges per block are disjoint.
                        unsafe { ld.write(lbase + j, to_left[start + j]) };
                    }
                }
            });
        }
        // Perform the swaps: survivor at `left_dense[k]` fills the hole at
        // `right_dense[k]`. Distinct k touch distinct indices, so parallel
        // swaps are safe.
        {
            let agents_ptr = SendMut::new(store.agents.as_mut_ptr());
            let flags_ptr = SendMut::new(store.flags.as_mut_ptr());
            let viol_ptr = SendMut::new(store.violations.as_mut_ptr());
            let right_dense = &right_dense;
            let left_dense = &left_dense;
            pool.parallel_for(nswaps, 512, &|_c, range| {
                for k in range {
                    let a = right_dense[k] as usize;
                    let b = left_dense[k] as usize;
                    // SAFETY: all `a` are unique removed slots < new_size,
                    // all `b` are unique survivor slots >= new_size.
                    unsafe {
                        agents_ptr.swap(a, b);
                        flags_ptr.swap(a, b);
                        viol_ptr.swap(a, b);
                    }
                }
            });
        }
    }

    // Step 5: shrink — drops the removed agents now sitting in the tail.
    store.truncate(new_size);
}

/// Parallel append: grow once, then let every worker move its own queued
/// agents into its disjoint slice (paper Section 3.2, "additions are
/// trivial").
fn parallel_append(
    store: &mut DomainStore,
    ctxs: &mut [ExecutionContext],
    domain: usize,
    iteration: u64,
    pool: &NumaThreadPool,
) {
    let old_len = store.len();
    let mut per_thread: Vec<usize> = ctxs.iter().map(|c| c.new_agents[domain].len()).collect();
    let total = prefix_sum_exclusive(&mut per_thread);
    store.agents.reserve(total);
    store.flags.reserve(total);
    store.violations.reserve(total);
    {
        assert_eq!(
            ctxs.len(),
            pool.num_threads(),
            "one execution context per worker thread"
        );
        let agents_ptr = SendMut::new(unsafe { store.agents.as_mut_ptr().add(old_len) });
        let flags_ptr = SendMut::new(unsafe { store.flags.as_mut_ptr().add(old_len) });
        let viol_ptr = SendMut::new(unsafe { store.violations.as_mut_ptr().add(old_len) });
        let ctxs_ptr = SendMut::new(ctxs.as_mut_ptr());
        let per_thread = &per_thread;
        pool.broadcast(&move |wctx| {
            // SAFETY: each context is accessed by exactly its own worker.
            let ctx = unsafe { ctxs_ptr.get_mut(wctx.thread_id) };
            let base = per_thread[wctx.thread_id];
            for (j, agent) in ctx.new_agents[domain].drain(..).enumerate() {
                // SAFETY: slot base+j is within the reserved region and
                // written exactly once.
                unsafe {
                    agents_ptr.write(base + j, agent);
                    flags_ptr.write(base + j, StaticFlags::new(iteration));
                    viol_ptr.write(base + j, AtomicU8::new(0));
                }
            }
        });
        // SAFETY: all `total` slots were initialized above.
        unsafe {
            store.agents.set_len(old_len + total);
            store.flags.set_len(old_len + total);
            store.violations.set_len(old_len + total);
        }
    }
}

/// The resource manager viewed as a point cloud — positions are read through
/// the agent pointers exactly like the original engine does during the
/// environment update.
pub struct ResourceManagerCloud<'a> {
    rm: &'a ResourceManager,
    offsets: Vec<usize>,
}

impl<'a> ResourceManagerCloud<'a> {
    /// Creates the view.
    pub fn new(rm: &'a ResourceManager) -> ResourceManagerCloud<'a> {
        ResourceManagerCloud {
            offsets: rm.offsets(),
            rm,
        }
    }
}

impl PointCloud for ResourceManagerCloud<'_> {
    fn len(&self) -> usize {
        *self.offsets.last().unwrap()
    }
    fn position(&self, idx: usize) -> Real3 {
        let (d, i) = split_global(&self.offsets, idx);
        self.rm.domains[d].agents[i].position()
    }
}

// Violation-flag helpers used by the mechanics operation.
impl ResourceManager {
    /// Marks agent `(domain, local)` as having a pending static-detection
    /// violation (paper Section 5 "sets the affected agents to not static").
    /// Restore API: the flag becomes visible to the *next* mechanics pass,
    /// exactly like a flag promoted at the end of the previous iteration.
    #[inline]
    pub fn raise_violation(&self, domain: usize, local: usize) {
        self.domains[domain].violations[local].store(VIOL_CUR, Ordering::Relaxed);
    }

    /// Consumes the pending violation flag of an agent.
    #[inline]
    pub fn take_violation(&self, domain: usize, local: usize) -> bool {
        let prev = self.domains[domain].violations[local].fetch_and(!VIOL_CUR, Ordering::Relaxed);
        prev & VIOL_CUR != 0
    }

    /// Reads the pending violation flag of an agent **without** consuming it
    /// (checkpointing: the flag is cross-iteration state — raised by moving
    /// neighbors in iteration *k*, consumed by the mechanics pass of
    /// *k* + 1 — so it must be serialized intact).
    #[inline]
    pub fn violation(&self, domain: usize, local: usize) -> bool {
        self.domains[domain].violations[local].load(Ordering::Relaxed) & VIOL_CUR != 0
    }

    /// Shifts every violation raised during the just-finished agent pass
    /// ([`VIOL_NEXT`]) into the pending position ([`VIOL_CUR`]) and clears
    /// pending flags nobody consumed. Runs once per iteration, after the
    /// parallel agent phase — never concurrently with raises or takes.
    pub(crate) fn promote_violations(&self) {
        for store in &self.domains {
            for v in &store.violations {
                let bits = v.load(Ordering::Relaxed);
                if bits != 0 {
                    let promoted = if bits & VIOL_NEXT != 0 { VIOL_CUR } else { 0 };
                    v.store(promoted, Ordering::Relaxed);
                }
            }
        }
    }
}
