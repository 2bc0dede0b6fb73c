//! The memory manager: one [`NumaPoolAllocator`] per (size class, NUMA
//! domain), plus a system-allocator fallback.
//!
//! Agents and behaviors of distinct sizes are served by distinct allocators,
//! "separated and stored in a columnar way" (paper Section 4.3). Sizes are
//! rounded up to 16-byte classes; allocations that are too large or
//! over-aligned for the pool transparently fall back to the system allocator.
//!
//! The classes live in a fixed table indexed by `size class / 16`, each
//! entry created on the first allocation of its class. Finding the
//! allocator of an existing class is one load — the allocator exists to
//! "minimize thread synchronization", and a sort clones every agent and
//! behavior through this lookup from all workers at once.
//!
//! The benchmark harness also constructs managers with the pool disabled
//! (`MemoryManager::system_only`) to reproduce the allocator comparison of
//! Figure 13.

use std::alloc::Layout;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::config::{current_thread_slot, max_pool_element_size, MAX_POOL_ALIGN};
use crate::pool_allocator::{NumaPoolAllocator, PoolConfig};

/// Aggregate allocator statistics (used by the Figure 13 harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Allocations served by pool allocators.
    pub pool_allocations: u64,
    /// Deallocations returned to pool allocators.
    pub pool_deallocations: u64,
    /// Allocations that fell back to the system allocator.
    pub system_allocations: u64,
    /// Bytes reserved from the OS by all pool allocators.
    pub reserved_bytes: u64,
    /// Number of distinct (size class, domain) pool allocators.
    pub allocator_instances: u64,
}

/// Owner of all pool allocators of one simulation.
pub struct MemoryManager {
    config: PoolConfig,
    num_domains: usize,
    thread_slots: usize,
    use_pool: bool,
    /// Entry `class / 16 - 1` holds the allocators of size class `class`,
    /// one per NUMA domain; empty until the class is first used. The boxed
    /// slices never move, so the segment back-pointers into them stay valid.
    classes: Box<[OnceLock<Box<[NumaPoolAllocator]>>]>,
    /// System-path allocations, one counter per thread slot plus a last one
    /// for threads without a slot, each on its own cache line.
    system_allocations: Box<[SystemCounter]>,
}

/// A statistics counter that shares its cache line with nothing.
#[derive(Default)]
#[repr(align(64))]
struct SystemCounter(AtomicU64);

impl MemoryManager {
    /// Creates a manager with pooling enabled.
    pub fn new(num_domains: usize, thread_slots: usize, config: PoolConfig) -> MemoryManager {
        assert!(num_domains > 0 && thread_slots > 0);
        MemoryManager {
            config,
            num_domains,
            thread_slots,
            use_pool: true,
            classes: (0..max_pool_element_size() / 16)
                .map(|_| OnceLock::new())
                .collect(),
            system_allocations: (0..=thread_slots)
                .map(|_| SystemCounter::default())
                .collect(),
        }
    }

    /// Creates a manager that routes everything to the system allocator
    /// (the paper's "ptmalloc2/jemalloc" comparison configurations).
    pub fn system_only(num_domains: usize, thread_slots: usize) -> MemoryManager {
        MemoryManager {
            use_pool: false,
            ..MemoryManager::new(num_domains, thread_slots, PoolConfig::default())
        }
    }

    /// Whether the pool is in use (false for `system_only`).
    pub fn uses_pool(&self) -> bool {
        self.use_pool
    }

    /// Number of NUMA domains served.
    pub fn num_domains(&self) -> usize {
        self.num_domains
    }

    /// Rounds a size up to its pool size class.
    #[inline]
    fn size_class(size: usize) -> usize {
        size.max(16).div_ceil(16) * 16
    }

    /// Whether the pool serves this layout (pure function of the layout, so
    /// the allocation and deallocation paths always agree).
    #[inline]
    pub fn pool_eligible(layout: Layout) -> bool {
        layout.size() > 0
            && layout.align() <= MAX_POOL_ALIGN
            && Self::size_class(layout.size()) <= max_pool_element_size()
    }

    /// Allocates memory for `layout` on `domain`.
    ///
    /// Returns a pointer and a flag saying whether it came from the pool;
    /// the flag must be passed back to [`MemoryManager::dealloc`].
    pub fn alloc(&self, layout: Layout, domain: usize) -> (*mut u8, bool) {
        debug_assert!(domain < self.num_domains);
        if self.use_pool && Self::pool_eligible(layout) {
            let class = Self::size_class(layout.size());
            // `pool_eligible` bounds the class, so the index is in the table.
            let allocators = self.classes[class / 16 - 1].get_or_init(|| {
                (0..self.num_domains)
                    .map(|d| NumaPoolAllocator::new(class, d, self.thread_slots, self.config))
                    .collect()
            });
            (self.alloc_from(&allocators[domain], domain), true)
        } else {
            let slot = current_thread_slot().map_or(self.thread_slots, |(s, _)| s);
            self.system_allocations[slot.min(self.thread_slots)]
                .0
                .fetch_add(1, Ordering::Relaxed);
            if layout.size() == 0 {
                return (std::ptr::NonNull::<u8>::dangling().as_ptr(), false);
            }
            // SAFETY: non-zero size checked above.
            let p = unsafe { std::alloc::alloc(layout) };
            assert!(!p.is_null(), "system allocation failed");
            (p, false)
        }
    }

    fn alloc_from(&self, allocator: &NumaPoolAllocator, domain: usize) -> *mut u8 {
        // Use the thread-private list only when the current thread belongs to
        // the allocator's domain.
        let slot = current_thread_slot()
            .filter(|&(s, d)| d == domain && s < self.thread_slots)
            .map(|(s, _)| s);
        allocator.alloc(slot)
    }

    /// Frees memory previously obtained from [`MemoryManager::alloc`].
    ///
    /// Pool memory finds its allocator through the segment back-pointer, so
    /// this is an associated function: no manager reference is needed at
    /// drop time (paper Figure 4B).
    ///
    /// # Safety
    /// `ptr` must come from an `alloc` call with the same `layout` and
    /// `from_pool` flag, the corresponding `MemoryManager` must still be
    /// alive if `from_pool` is true, and `ptr` must not be freed twice.
    pub unsafe fn dealloc(ptr: *mut u8, layout: Layout, from_pool: bool) {
        if from_pool {
            debug_assert!(Self::pool_eligible(layout));
            let allocator = NumaPoolAllocator::allocator_of(ptr);
            (*allocator).dealloc(ptr);
        } else if layout.size() > 0 {
            std::alloc::dealloc(ptr, layout);
        }
    }

    /// The allocators created so far, all classes and domains.
    fn allocators(&self) -> impl Iterator<Item = &NumaPoolAllocator> {
        self.classes
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|per_domain| per_domain.iter())
    }

    /// Aggregate statistics over all pool allocators.
    pub fn stats(&self) -> MemoryStats {
        let mut s = MemoryStats {
            system_allocations: self
                .system_allocations
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .sum(),
            ..MemoryStats::default()
        };
        for a in self.allocators() {
            let (alloc, dealloc, _, _) = a.counters();
            s.pool_allocations += alloc;
            s.pool_deallocations += dealloc;
            s.reserved_bytes += a.reserved_bytes();
            s.allocator_instances += 1;
        }
        s
    }

    /// Allocations minus deallocations across all pools (should be zero when
    /// the simulation has been torn down).
    pub fn outstanding(&self) -> i64 {
        self.allocators().map(NumaPoolAllocator::outstanding).sum()
    }
}

impl std::fmt::Debug for MemoryManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryManager")
            .field("num_domains", &self.num_domains)
            .field("thread_slots", &self.thread_slots)
            .field("use_pool", &self.use_pool)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_rounding() {
        assert_eq!(MemoryManager::size_class(1), 16);
        assert_eq!(MemoryManager::size_class(16), 16);
        assert_eq!(MemoryManager::size_class(17), 32);
        assert_eq!(MemoryManager::size_class(100), 112);
    }

    #[test]
    fn eligibility() {
        assert!(MemoryManager::pool_eligible(Layout::new::<[u8; 64]>()));
        assert!(!MemoryManager::pool_eligible(Layout::new::<()>()));
        let over_aligned = Layout::from_size_align(64, 64).unwrap();
        assert!(!MemoryManager::pool_eligible(over_aligned));
        let huge = Layout::from_size_align(max_pool_element_size() + 16, 8).unwrap();
        assert!(!MemoryManager::pool_eligible(huge));
    }

    #[test]
    fn pool_roundtrip() {
        let mm = MemoryManager::new(2, 2, PoolConfig::default());
        let layout = Layout::from_size_align(40, 8).unwrap();
        let (p, from_pool) = mm.alloc(layout, 1);
        assert!(from_pool);
        unsafe {
            std::ptr::write_bytes(p, 0xAB, 40);
            MemoryManager::dealloc(p, layout, true);
        }
        assert_eq!(mm.outstanding(), 0);
        let s = mm.stats();
        assert_eq!(s.pool_allocations, 1);
        assert_eq!(s.pool_deallocations, 1);
        assert_eq!(s.allocator_instances, 2); // one per domain for this class
    }

    #[test]
    fn system_only_never_pools() {
        let mm = MemoryManager::system_only(1, 1);
        let layout = Layout::from_size_align(40, 8).unwrap();
        let (p, from_pool) = mm.alloc(layout, 0);
        assert!(!from_pool);
        unsafe { MemoryManager::dealloc(p, layout, false) };
        assert_eq!(mm.stats().system_allocations, 1);
        assert_eq!(mm.stats().pool_allocations, 0);
    }

    #[test]
    fn distinct_sizes_get_distinct_allocators() {
        let mm = MemoryManager::new(1, 1, PoolConfig::default());
        let l1 = Layout::from_size_align(32, 8).unwrap();
        let l2 = Layout::from_size_align(64, 8).unwrap();
        let (p1, _) = mm.alloc(l1, 0);
        let (p2, _) = mm.alloc(l2, 0);
        unsafe {
            let a1 = NumaPoolAllocator::allocator_of(p1);
            let a2 = NumaPoolAllocator::allocator_of(p2);
            assert_ne!(a1, a2, "columnar separation of size classes");
            assert_eq!((*a1).element_size(), 32);
            assert_eq!((*a2).element_size(), 64);
            MemoryManager::dealloc(p1, l1, true);
            MemoryManager::dealloc(p2, l2, true);
        }
    }

    #[test]
    fn zero_sized_layout() {
        let mm = MemoryManager::new(1, 1, PoolConfig::default());
        let layout = Layout::new::<()>();
        let (p, from_pool) = mm.alloc(layout, 0);
        assert!(!from_pool);
        assert!(!p.is_null());
        unsafe { MemoryManager::dealloc(p, layout, false) };
    }

    #[test]
    fn oversized_falls_back_to_system() {
        let mm = MemoryManager::new(1, 1, PoolConfig::default());
        let size = max_pool_element_size() + 64;
        let layout = Layout::from_size_align(size, 16).unwrap();
        let (p, from_pool) = mm.alloc(layout, 0);
        assert!(!from_pool);
        unsafe {
            std::ptr::write_bytes(p, 1, size);
            MemoryManager::dealloc(p, layout, false);
        }
    }

    #[test]
    fn last_table_class_pools_and_the_next_falls_back() {
        let mm = MemoryManager::new(1, 1, PoolConfig::default());
        let last = mm.classes.len() * 16;
        assert!(last <= max_pool_element_size() && last + 16 > max_pool_element_size());
        for (size, pooled) in [(last - 15, true), (last, true), (last + 1, false)] {
            let layout = Layout::from_size_align(size, 16).unwrap();
            assert_eq!(MemoryManager::pool_eligible(layout), pooled, "size {size}");
            let (p, from_pool) = mm.alloc(layout, 0);
            assert_eq!(from_pool, pooled, "size {size}");
            unsafe {
                std::ptr::write_bytes(p, 0x5A, size);
                if pooled {
                    assert_eq!((*NumaPoolAllocator::allocator_of(p)).element_size(), last);
                }
                MemoryManager::dealloc(p, layout, from_pool);
            }
        }
        let s = mm.stats();
        assert_eq!((s.allocator_instances, s.pool_allocations), (1, 2));
        assert_eq!(s.system_allocations, 1);
        assert_eq!(mm.outstanding(), 0);
    }

    #[test]
    fn racing_first_allocations_create_one_allocator_per_domain() {
        const THREADS: usize = 8;
        const DOMAINS: usize = 2;
        let mm = MemoryManager::new(DOMAINS, THREADS, PoolConfig::default());
        let layout = Layout::from_size_align(200, 8).unwrap();
        let start = std::sync::Barrier::new(THREADS);
        let ptrs: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (mm, start) = (&mm, &start);
                    scope.spawn(move || {
                        crate::config::register_thread(t, t % DOMAINS);
                        // All threads hit the empty table entry together.
                        start.wait();
                        let (p, from_pool) = mm.alloc(layout, t % DOMAINS);
                        assert!(from_pool);
                        unsafe { std::ptr::write_bytes(p, t as u8, 200) };
                        crate::config::unregister_thread();
                        p as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let s = mm.stats();
        assert_eq!(s.allocator_instances, DOMAINS as u64);
        assert_eq!(s.pool_allocations, THREADS as u64);
        let distinct: std::collections::HashSet<usize> = ptrs.iter().copied().collect();
        assert_eq!(distinct.len(), THREADS, "no element handed out twice");
        for (t, &p) in ptrs.iter().enumerate() {
            unsafe {
                let owner = &*NumaPoolAllocator::allocator_of(p as *mut u8);
                assert_eq!((owner.element_size(), owner.numa_id()), (208, t % DOMAINS));
                MemoryManager::dealloc(p as *mut u8, layout, true);
            }
        }
        assert_eq!(mm.outstanding(), 0);
        assert_eq!(mm.stats().pool_deallocations, THREADS as u64);
    }

    #[test]
    fn system_allocations_sum_over_thread_slots() {
        let mm = MemoryManager::system_only(1, 2);
        let layout = Layout::from_size_align(40, 8).unwrap();
        std::thread::scope(|scope| {
            // Slot 0, slot 1, a slot beyond the manager's and no slot at all.
            for slot in [Some(0), Some(1), Some(7), None] {
                let mm = &mm;
                scope.spawn(move || {
                    if let Some(s) = slot {
                        crate::config::register_thread(s, 0);
                    }
                    for _ in 0..100 {
                        let (p, from_pool) = mm.alloc(layout, 0);
                        unsafe { MemoryManager::dealloc(p, layout, from_pool) };
                    }
                    crate::config::unregister_thread();
                });
            }
        });
        assert_eq!(mm.stats().system_allocations, 400);
    }

    #[test]
    fn concurrent_class_creation() {
        let mm = std::sync::Arc::new(MemoryManager::new(1, 4, PoolConfig::default()));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let mm = std::sync::Arc::clone(&mm);
                std::thread::spawn(move || {
                    crate::config::register_thread(t, 0);
                    let mut ptrs = Vec::new();
                    for i in 0..1000 {
                        let size = 16 * (1 + (i + t) % 8);
                        let layout = Layout::from_size_align(size, 8).unwrap();
                        let (p, pool) = mm.alloc(layout, 0);
                        ptrs.push((p, layout, pool));
                    }
                    for (p, layout, pool) in ptrs {
                        unsafe { MemoryManager::dealloc(p, layout, pool) };
                    }
                    crate::config::unregister_thread();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mm.outstanding(), 0);
        assert_eq!(mm.stats().allocator_instances, 8);
    }
}
