//! Process-wide allocator geometry and the worker-thread registry.
//!
//! ## Segment geometry
//!
//! Every memory block is divided into N-page-aligned segments whose first
//! bytes store a back-pointer to the owning [`crate::NumaPoolAllocator`]
//! (paper Figure 4A). Deallocation recovers that pointer by masking the
//! element address with the segment size (Figure 4B), so the segment size
//! must be a process-wide constant. The paper's `mem_mgr_aligned_pages_shift`
//! parameter is therefore fixed at compile time: [`ALIGNED_PAGES_SHIFT`].
//!
//! ## Thread registry
//!
//! The engine registers each worker thread with its `(slot, numa domain)` so
//! the allocator can use the matching thread-private free list. Unregistered
//! threads (e.g. the main thread during model initialization) fall back to
//! the central free list, which is exactly the paper's deallocation rule for
//! threads of a foreign NUMA domain.

use std::cell::Cell;

/// Base page size assumed for segment geometry.
pub const PAGE_SIZE: usize = 4096;

/// The paper's `mem_mgr_aligned_pages_shift`: segments of 2^5 = 32 pages.
pub const ALIGNED_PAGES_SHIFT: u32 = 5;

/// Segment size in bytes (`2^shift * PAGE_SIZE` = 128 KiB).
pub const SEGMENT_SIZE: usize = PAGE_SIZE << ALIGNED_PAGES_SHIFT;

/// Mask that maps an element address to its segment base address.
pub const SEGMENT_MASK: usize = !(SEGMENT_SIZE - 1);

/// Bytes reserved at the start of each aligned segment for the back-pointer.
/// The pointer itself needs 8 bytes; we reserve 16 so that elements after the
/// metadata keep 16-byte alignment (a deviation from the paper's 8-byte
/// metadata, docs/ARCHITECTURE.md "Deviations from the paper").
pub const SEGMENT_METADATA_SIZE: usize = 16;

/// Maximum alignment the pool can serve. Larger alignments fall back to the
/// system allocator.
pub const MAX_POOL_ALIGN: usize = 16;

/// Largest element size the pool serves; larger allocations use the system
/// allocator (the paper: "the allocation size is limited by
/// N*page_size − metadata_size" — we cap earlier so each segment holds many
/// elements).
pub const MAX_POOL_ELEMENT_SIZE: usize = (SEGMENT_SIZE - SEGMENT_METADATA_SIZE) / 8;

thread_local! {
    static THREAD_SLOT: Cell<Option<(u32, u32)>> = const { Cell::new(None) };
}

/// Registers the current thread as worker `slot` of NUMA `domain`.
/// Typically invoked once per pool worker via `NumaThreadPool::broadcast`.
pub fn register_thread(slot: usize, domain: usize) {
    THREAD_SLOT.with(|t| t.set(Some((slot as u32, domain as u32))));
}

/// Clears the current thread's registration.
pub fn unregister_thread() {
    THREAD_SLOT.with(|t| t.set(None));
}

/// `(slot, domain)` of the current thread, if registered.
#[inline]
pub fn current_thread_slot() -> Option<(usize, usize)> {
    THREAD_SLOT.with(|t| t.get().map(|(s, d)| (s as usize, d as usize)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_size_is_power_of_two_and_stable() {
        assert_eq!(SEGMENT_SIZE.count_ones(), 1);
        assert_eq!(SEGMENT_SIZE, 128 << 10);
        assert_eq!(SEGMENT_MASK.trailing_zeros(), SEGMENT_SIZE.trailing_zeros());
        assert_eq!(SEGMENT_MASK.count_zeros(), SEGMENT_SIZE.trailing_zeros());
    }

    #[test]
    fn max_pool_size_fits_many_elements_per_segment() {
        // The largest class the manager's table holds: eight elements share
        // each segment.
        let class = MAX_POOL_ELEMENT_SIZE / 16 * 16;
        let a = crate::NumaPoolAllocator::new(class, 0, 1);
        let ptrs: Vec<usize> = (0..8).map(|_| a.alloc(None) as usize).collect();
        assert!(ptrs
            .iter()
            .all(|p| p & SEGMENT_MASK == ptrs[0] & SEGMENT_MASK));
        for p in ptrs {
            // SAFETY: each element came from `a.alloc` and is freed once.
            unsafe { a.dealloc(p as *mut u8) };
        }
    }

    #[test]
    fn thread_registry_roundtrip() {
        assert_eq!(current_thread_slot(), None);
        register_thread(3, 1);
        assert_eq!(current_thread_slot(), Some((3, 1)));
        unregister_thread();
        assert_eq!(current_thread_slot(), None);
    }

    #[test]
    fn registry_is_thread_local() {
        register_thread(1, 0);
        std::thread::spawn(|| {
            assert_eq!(current_thread_slot(), None);
            register_thread(2, 1);
            assert_eq!(current_thread_slot(), Some((2, 1)));
        })
        .join()
        .unwrap();
        assert_eq!(current_thread_slot(), Some((1, 0)));
        unregister_thread();
    }
}
