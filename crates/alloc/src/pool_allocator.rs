//! The per-(size-class, NUMA-domain) pool allocator (paper Section 4.3).
//!
//! A `NumaPoolAllocator` hands out equal-sized elements from large memory
//! blocks. Blocks are allocated with exponentially increasing sizes
//! (BioDynaMo's memory-manager growth rate) and divided into N-page-aligned **segments**; the
//! first bytes of each segment store a back-pointer to the owning allocator,
//! so deallocation recovers the allocator from the element address in
//! constant time (Figure 4B) without any per-element metadata.
//!
//! Unlike `numa_alloc_onnode`, Rust's allocator API lets us request
//! segment-aligned blocks directly, so the paper's wasted regions at the
//! block boundaries disappear (documented deviation, DESIGN.md §3); the waste
//! from elements that do not fit at the end of a segment and from the
//! metadata itself remains and is reported by [`NumaPoolAllocator::reserved_bytes`].
//!
//! Block *initialization* (free-node generation) is on-demand in small steps:
//! a refill carves at most one chunk's worth of elements from the current
//! block, bounding the worst-case allocation latency (paper: "performed
//! on-demand in smaller segments").

use std::alloc::Layout;

use parking_lot::Mutex;

use crate::config::{current_thread_slot, segment_mask, segment_size, SEGMENT_METADATA_SIZE};
use crate::free_list::{CentralFreeList, Chunk, LocalFreeList, CHUNK_SIZE};

/// Tuning knobs of the pool allocator (paper parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Factor by which consecutive memory blocks grow
    /// (BioDynaMo's memory-manager growth rate). Must be > 1.
    pub growth_rate: f64,
    /// Migrate full chunks to the central list once a thread-private list
    /// holds more than this many full chunks ("specific memory threshold").
    pub migration_threshold: usize,
    /// Upper bound for a single memory block, in bytes.
    pub max_block_bytes: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        // Tuned under `benches/removal.rs` + `fig13_allocator --quick`:
        // migration_threshold 8 beats 4 by ~5-7% on removal-heavy commits
        // (full chunks stay thread-private longer → fewer central-list
        // lock round-trips), while growth_rate 4.0 showed no win over 2.0
        // and doubles worst-case over-reservation, so 2.0 stays.
        PoolConfig {
            growth_rate: 2.0,
            migration_threshold: 8,
            max_block_bytes: 64 << 20,
        }
    }
}

/// One owned memory block.
struct Block {
    ptr: *mut u8,
    layout: Layout,
}

// SAFETY: blocks are raw memory owned exclusively by the allocator.
unsafe impl Send for Block {}

/// Bump state over the current block, carved segment by segment.
struct BumpState {
    /// Next free byte inside the current segment.
    cursor: *mut u8,
    /// End of the current segment.
    segment_end: *mut u8,
    /// Next segment base inside the current block.
    next_segment: *mut u8,
    /// End of the current block.
    block_end: *mut u8,
    /// Size of the next block to allocate.
    next_block_bytes: usize,
    /// All blocks ever allocated (freed on drop).
    blocks: Vec<Block>,
    /// Bytes reserved from the system allocator so far.
    reserved: u64,
}

// SAFETY: BumpState is only accessed under the allocator's mutex.
unsafe impl Send for BumpState {}

/// Central, lock-protected part of the allocator. The counters cover the
/// traffic of threads without a private list.
struct Central {
    free: CentralFreeList,
    bump: BumpState,
    allocations: u64,
    deallocations: u64,
    migrations: u64,
}

/// One thread's private free list with that thread's share of the
/// statistics. The counters sit under the slot's mutex, next to the list
/// the same operation touches, so counting costs no shared cache line;
/// the alignment keeps neighbouring slots off each other's line too.
#[repr(align(64))]
struct Local {
    free: LocalFreeList,
    allocations: u64,
    deallocations: u64,
}

/// Pool allocator for a single element size on a single (virtual) NUMA
/// domain.
pub struct NumaPoolAllocator {
    element_size: usize,
    numa_id: usize,
    config: PoolConfig,
    central: Mutex<Central>,
    locals: Box<[Mutex<Local>]>,
}

// SAFETY: all interior mutability is behind mutexes/atomics; raw pointers are
// managed memory owned by this allocator.
unsafe impl Send for NumaPoolAllocator {}
unsafe impl Sync for NumaPoolAllocator {}

impl NumaPoolAllocator {
    /// Creates an allocator for elements of exactly `element_size` bytes
    /// (must be a multiple of 16 and at least 16 — the size-class rounding is
    /// done by the `MemoryManager`).
    pub fn new(
        element_size: usize,
        numa_id: usize,
        thread_slots: usize,
        config: PoolConfig,
    ) -> NumaPoolAllocator {
        assert!(element_size >= 16 && element_size.is_multiple_of(16));
        assert!(
            element_size <= crate::config::max_pool_element_size(),
            "element size {element_size} exceeds pool maximum"
        );
        assert!(config.growth_rate > 1.0, "growth rate must exceed 1");
        let locals = (0..thread_slots.max(1))
            .map(|_| {
                Mutex::new(Local {
                    free: LocalFreeList::new(),
                    allocations: 0,
                    deallocations: 0,
                })
            })
            .collect();
        NumaPoolAllocator {
            element_size,
            numa_id,
            config,
            central: Mutex::new(Central {
                free: CentralFreeList::new(),
                bump: BumpState {
                    cursor: std::ptr::null_mut(),
                    segment_end: std::ptr::null_mut(),
                    next_segment: std::ptr::null_mut(),
                    block_end: std::ptr::null_mut(),
                    next_block_bytes: segment_size(),
                    blocks: Vec::new(),
                    reserved: 0,
                },
                allocations: 0,
                deallocations: 0,
                migrations: 0,
            }),
            locals,
        }
    }

    /// Element size served by this allocator.
    pub fn element_size(&self) -> usize {
        self.element_size
    }

    /// NUMA domain this allocator belongs to.
    pub fn numa_id(&self) -> usize {
        self.numa_id
    }

    /// Allocates one element. `thread_slot` selects the thread-private free
    /// list; pass `None` to go through the central list (foreign threads).
    pub fn alloc(&self, thread_slot: Option<usize>) -> *mut u8 {
        if let Some(slot) = thread_slot {
            let mut local = self.locals[slot].lock();
            local.allocations += 1;
            if let Some(p) = local.free.pop() {
                return p;
            }
            // Refill from the central list or fresh memory, then retry.
            let chunk = self.acquire_chunk();
            local.free.push_chunk(chunk);
            return local
                .free
                .pop()
                .expect("refill produced at least one element");
        }
        // Central path for unregistered/foreign threads — the whole model
        // build runs here: one element straight off the central open chunk.
        let mut central = self.central.lock();
        let Central { free, bump, .. } = &mut *central;
        let p = free.pop_or_else(|| self.carve_chunk(bump));
        central.allocations += 1;
        p
    }

    /// Returns one element to the allocator (paper Figure 4B): a thread of
    /// the same NUMA domain pushes to its private list; everyone else pushes
    /// to the central list.
    ///
    /// # Safety
    /// `ptr` must have been returned by [`NumaPoolAllocator::alloc`] of this
    /// allocator and not freed since.
    pub unsafe fn dealloc(&self, ptr: *mut u8) {
        if let Some((slot, domain)) = current_thread_slot() {
            if domain == self.numa_id && slot < self.locals.len() {
                let mut local = self.locals[slot].lock();
                local.deallocations += 1;
                local.free.push(ptr);
                if local.free.full_chunks() > self.config.migration_threshold {
                    let moved = local
                        .free
                        .take_full_chunks(self.config.migration_threshold / 2 + 1);
                    drop(local);
                    let mut central = self.central.lock();
                    central.migrations += 1;
                    central.free.push_chunks(moved);
                }
                return;
            }
        }
        let mut central = self.central.lock();
        central.deallocations += 1;
        central.free.push(ptr);
    }

    /// Obtains a chunk of free elements from the central list or fresh
    /// memory.
    fn acquire_chunk(&self) -> Chunk {
        let mut central = self.central.lock();
        if let Some(chunk) = central.free.pop_chunk() {
            return chunk;
        }
        self.carve_chunk(&mut central.bump)
    }

    /// Carves up to [`CHUNK_SIZE`] elements from the bump region, allocating
    /// a new segment/block when needed.
    fn carve_chunk(&self, bump: &mut BumpState) -> Chunk {
        let element_size = self.element_size;
        let mut chunk = Chunk::new();
        for _ in 0..CHUNK_SIZE {
            // Advance to a segment with room for one element.
            // SAFETY: cursor/segment_end delimit initialized raw memory we own.
            unsafe {
                if bump.cursor.add(element_size) > bump.segment_end {
                    if !self.next_segment(bump) {
                        break;
                    }
                    if bump.cursor.add(element_size) > bump.segment_end {
                        break; // element does not fit in a fresh segment
                    }
                }
                chunk.push(bump.cursor);
                bump.cursor = bump.cursor.add(element_size);
            }
        }
        assert!(
            !chunk.is_empty(),
            "pool allocator out of memory (element_size={element_size})"
        );
        chunk
    }

    /// Moves the bump region to the next segment, allocating a new block if
    /// the current one is exhausted. Writes the allocator back-pointer into
    /// the segment header. Returns false only on block allocation failure.
    fn next_segment(&self, bump: &mut BumpState) -> bool {
        let seg_size = segment_size();
        if bump.next_segment.is_null() || bump.next_segment == bump.block_end {
            // Allocate a new block, segment-aligned, sized in whole segments.
            let bytes = bump.next_block_bytes.max(seg_size);
            let bytes = bytes.div_ceil(seg_size) * seg_size;
            let layout = Layout::from_size_align(bytes, seg_size).expect("valid block layout");
            // SAFETY: non-zero, power-of-two-aligned layout.
            let ptr = unsafe { std::alloc::alloc(layout) };
            if ptr.is_null() {
                return false;
            }
            bump.reserved += bytes as u64;
            bump.blocks.push(Block { ptr, layout });
            bump.next_segment = ptr;
            // SAFETY: bytes is a multiple of seg_size.
            bump.block_end = unsafe { ptr.add(bytes) };
            let grown = (bytes as f64 * self.config.growth_rate) as usize;
            bump.next_block_bytes = grown.min(self.config.max_block_bytes);
        }
        let seg = bump.next_segment;
        // SAFETY: seg is a segment-aligned address inside an owned block with
        // at least seg_size bytes available.
        unsafe {
            // Paper Figure 4A: segment header stores the allocator pointer.
            (seg as *mut *const NumaPoolAllocator).write(self as *const NumaPoolAllocator);
            bump.cursor = seg.add(SEGMENT_METADATA_SIZE);
            bump.segment_end = seg.add(seg_size);
            bump.next_segment = seg.add(seg_size);
        }
        true
    }

    /// Recovers the owning allocator from an element address by masking with
    /// the segment size and reading the header (paper Figure 4B).
    ///
    /// # Safety
    /// `ptr` must have been returned by some `NumaPoolAllocator::alloc` whose
    /// allocator is still alive.
    #[inline]
    pub unsafe fn allocator_of(ptr: *mut u8) -> *const NumaPoolAllocator {
        let base = (ptr as usize) & segment_mask();
        *(base as *const *const NumaPoolAllocator)
    }

    /// Number of allocations minus deallocations.
    pub fn outstanding(&self) -> i64 {
        let (allocations, deallocations, _, _) = self.counters();
        allocations as i64 - deallocations as i64
    }

    /// Total bytes reserved from the system allocator.
    pub fn reserved_bytes(&self) -> u64 {
        self.central.lock().bump.reserved
    }

    /// (allocations, deallocations, central deallocations, migrations),
    /// summed over the central part and every thread slot. Exact once the
    /// threads using the allocator are quiescent.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        let (mut allocations, mut deallocations, central_deallocs, migrations) = {
            let c = self.central.lock();
            (
                c.allocations,
                c.deallocations,
                c.deallocations,
                c.migrations,
            )
        };
        for local in self.locals.iter() {
            let local = local.lock();
            allocations += local.allocations;
            deallocations += local.deallocations;
        }
        (allocations, deallocations, central_deallocs, migrations)
    }
}

impl Drop for NumaPoolAllocator {
    fn drop(&mut self) {
        let central = self.central.get_mut();
        for block in central.bump.blocks.drain(..) {
            // SAFETY: blocks were allocated with exactly this layout and are
            // not referenced anymore (caller guarantees no outstanding
            // elements).
            unsafe { std::alloc::dealloc(block.ptr, block.layout) };
        }
    }
}

impl std::fmt::Debug for NumaPoolAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NumaPoolAllocator")
            .field("element_size", &self.element_size)
            .field("numa_id", &self.numa_id)
            .field("outstanding", &self.outstanding())
            .field("reserved_bytes", &self.reserved_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn alloc(slots: usize) -> NumaPoolAllocator {
        NumaPoolAllocator::new(64, 0, slots, PoolConfig::default())
    }

    #[test]
    fn alloc_returns_distinct_aligned_pointers() {
        let a = alloc(1);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let p = a.alloc(Some(0));
            assert_eq!(p as usize % 16, 0, "16-byte alignment");
            assert!(seen.insert(p as usize), "pointer handed out twice");
        }
        assert_eq!(a.outstanding(), 10_000);
        for p in seen {
            unsafe { a.dealloc(p as *mut u8) };
        }
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn elements_never_cross_segment_metadata() {
        let a = alloc(1);
        let seg = segment_size();
        for _ in 0..50_000 {
            let p = a.alloc(Some(0)) as usize;
            let offset = p & (seg - 1);
            assert!(
                offset >= SEGMENT_METADATA_SIZE,
                "element at offset {offset} overlaps segment header"
            );
            assert!(offset + 64 <= seg, "element crosses segment boundary");
        }
    }

    #[test]
    fn backpointer_recovers_allocator() {
        let a = alloc(1);
        let b = NumaPoolAllocator::new(128, 1, 1, PoolConfig::default());
        let pa = a.alloc(Some(0));
        let pb = b.alloc(Some(0));
        unsafe {
            assert_eq!(NumaPoolAllocator::allocator_of(pa), &a as *const _);
            assert_eq!(NumaPoolAllocator::allocator_of(pb), &b as *const _);
            a.dealloc(pa);
            b.dealloc(pb);
        }
    }

    #[test]
    fn memory_is_recycled() {
        let a = alloc(1);
        crate::config::register_thread(0, 0);
        let p1 = a.alloc(Some(0));
        unsafe { a.dealloc(p1) };
        let p2 = a.alloc(Some(0));
        assert_eq!(p1, p2, "LIFO recycling of the thread-private list");
        unsafe { a.dealloc(p2) };
        crate::config::unregister_thread();
    }

    #[test]
    fn foreign_thread_dealloc_goes_central() {
        let a = alloc(2);
        crate::config::register_thread(0, 5); // wrong domain on purpose
        let p = a.alloc(Some(0));
        unsafe { a.dealloc(p) };
        let (_, _, central, _) = a.counters();
        assert_eq!(central, 1);
        crate::config::unregister_thread();
    }

    #[test]
    fn migration_threshold_triggers() {
        let cfg = PoolConfig {
            migration_threshold: 1,
            ..PoolConfig::default()
        };
        let a = NumaPoolAllocator::new(32, 0, 1, cfg);
        crate::config::register_thread(0, 0);
        let ptrs: Vec<*mut u8> = (0..CHUNK_SIZE * 4).map(|_| a.alloc(Some(0))).collect();
        for p in ptrs {
            unsafe { a.dealloc(p) };
        }
        let (_, _, _, migrations) = a.counters();
        assert!(
            migrations > 0,
            "bulk migration to the central list happened"
        );
        crate::config::unregister_thread();
    }

    #[test]
    fn blocks_grow_geometrically() {
        let a = alloc(1);
        let n = 100_000; // 64 B * 100k = 6.4 MB >> first block
        let ptrs: Vec<*mut u8> = (0..n).map(|_| a.alloc(Some(0))).collect();
        assert!(a.reserved_bytes() >= (n as u64) * 64);
        // Growth rate 2.0 => the reserve is within a small factor of demand.
        assert!(a.reserved_bytes() < (n as u64) * 64 * 4);
        for p in ptrs {
            unsafe { a.dealloc(p) };
        }
    }

    #[test]
    fn central_path_without_thread_slot() {
        let a = alloc(1);
        let p = a.alloc(None);
        assert!(!p.is_null());
        unsafe { a.dealloc(p) };
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn central_len_counts_the_reachable_elements() {
        // Unregistered thread: every alloc and free takes the central path.
        let a = alloc(1);
        let mut live: Vec<*mut u8> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..5 * CHUNK_SIZE {
            live.push(a.alloc(None));
        }
        for _ in 0..2_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if live.is_empty() || (state >> 33) % 5 < 2 {
                live.push(a.alloc(None));
            } else {
                let p = live.swap_remove((state >> 40) as usize % live.len());
                unsafe { a.dealloc(p) };
            }
        }
        assert_eq!(a.outstanding(), live.len() as i64);
        let mut central = a.central.lock();
        let claimed = central.free.len();
        let mut reachable = 0;
        while let Some(mut chunk) = central.free.pop_chunk() {
            while chunk.pop().is_some() {
                reachable += 1;
            }
        }
        assert_eq!(claimed, reachable);
        // Memory is carved a whole chunk at a time, so nothing went missing
        // if the live and the listed elements add up to whole chunks.
        assert!((live.len() + reachable).is_multiple_of(CHUNK_SIZE));
    }

    #[test]
    fn concurrent_alloc_dealloc_stress() {
        let a = std::sync::Arc::new(NumaPoolAllocator::new(48, 0, 4, PoolConfig::default()));
        let mut handles = Vec::new();
        for slot in 0..4 {
            let a = std::sync::Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                crate::config::register_thread(slot, 0);
                let mut live: Vec<*mut u8> = Vec::new();
                let mut state = (slot as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                for i in 0..20_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if live.is_empty() || !state.is_multiple_of(3) {
                        let p = a.alloc(Some(slot));
                        // Write a pattern to catch overlapping elements.
                        unsafe { (p as *mut u64).write(i as u64) };
                        live.push(p);
                    } else {
                        let idx = (state as usize / 4) % live.len();
                        let p = live.swap_remove(idx);
                        unsafe { a.dealloc(p) };
                    }
                }
                for p in live {
                    unsafe { a.dealloc(p) };
                }
                crate::config::unregister_thread();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn writes_to_distinct_elements_do_not_interfere() {
        let a = alloc(1);
        let ptrs: Vec<*mut u8> = (0..1000).map(|_| a.alloc(Some(0))).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            unsafe {
                std::ptr::write_bytes(p, (i % 251) as u8, 64);
            }
        }
        for (i, &p) in ptrs.iter().enumerate() {
            let expect = (i % 251) as u8;
            for off in 0..64 {
                assert_eq!(unsafe { *p.add(off) }, expect, "element {i} byte {off}");
            }
        }
        for p in ptrs {
            unsafe { a.dealloc(p) };
        }
    }
}
