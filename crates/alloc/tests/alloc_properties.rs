//! Property-based tests of the pool allocator (paper Section 4.3):
//! no double hand-outs, correct alignment, segment metadata integrity, and
//! balanced accounting under arbitrary alloc/free interleavings.

use std::alloc::Layout;
use std::collections::HashSet;

use proptest::prelude::*;

use bdm_alloc::{MemoryManager, PoolConfig};

/// A randomized allocator workload: sizes index a fixed set of layouts, and
/// `free_order[i]` decides which live allocation the i-th free releases.
#[derive(Debug, Clone)]
struct Workload {
    ops: Vec<Op>,
}

#[derive(Debug, Clone)]
enum Op {
    Alloc { size_class: usize, domain: usize },
    Free { victim: usize },
}

const LAYOUTS: [(usize, usize); 5] = [(16, 8), (40, 8), (64, 16), (120, 8), (256, 16)];
const DOMAINS: usize = 2;

fn workload_strategy(max_ops: usize) -> impl Strategy<Value = Workload> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..LAYOUTS.len(), 0..DOMAINS)
                .prop_map(|(size_class, domain)| Op::Alloc { size_class, domain }),
            2 => (0usize..usize::MAX).prop_map(|victim| Op::Free { victim }),
        ],
        1..max_ops,
    )
    .prop_map(|ops| Workload { ops })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every live allocation occupies a disjoint, correctly aligned memory
    /// range, regardless of the alloc/free interleaving.
    #[test]
    fn prop_no_overlap_and_aligned(workload in workload_strategy(300)) {
        let mm = MemoryManager::new(DOMAINS, 1, PoolConfig::default());
        bdm_alloc::register_thread(0, 0);
        // (ptr, layout, pooled) of live allocations, in allocation order.
        let mut live: Vec<(*mut u8, Layout, bool)> = Vec::new();
        for op in &workload.ops {
            match *op {
                Op::Alloc { size_class, domain } => {
                    let (size, align) = LAYOUTS[size_class];
                    let layout = Layout::from_size_align(size, align).unwrap();
                    let (ptr, pooled) = mm.alloc(layout, domain);
                    prop_assert!(!ptr.is_null());
                    prop_assert_eq!(ptr as usize % align, 0, "misaligned");
                    prop_assert!(pooled, "these layouts are all pool-eligible");
                    // Fill the element; overlap with another live element
                    // would corrupt its fill pattern.
                    unsafe { ptr.write_bytes(0xAB, size) };
                    live.push((ptr, layout, pooled));
                }
                Op::Free { victim } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (ptr, layout, pooled) = live.swap_remove(victim % live.len());
                    unsafe { MemoryManager::dealloc(ptr, layout, pooled) };
                }
            }
        }
        // Overlap check over all live ranges.
        let mut ranges: Vec<(usize, usize)> = live
            .iter()
            .map(|&(p, l, _)| (p as usize, p as usize + l.size()))
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlapping allocations: {w:?}");
        }
        // Fill patterns intact (no aliasing through the free list).
        for &(ptr, layout, _) in &live {
            for off in 0..layout.size() {
                prop_assert_eq!(unsafe { ptr.add(off).read() }, 0xAB);
            }
        }
        for (ptr, layout, pooled) in live {
            unsafe { MemoryManager::dealloc(ptr, layout, pooled) };
        }
        prop_assert_eq!(mm.outstanding(), 0, "leaked allocations");
        bdm_alloc::unregister_thread();
    }

    /// Freed elements are recycled: allocating after freeing reuses pool
    /// memory instead of growing the reservation without bound.
    #[test]
    fn prop_freed_memory_is_reused(rounds in 2usize..6, per_round in 10usize..200) {
        let mm = MemoryManager::new(1, 1, PoolConfig::default());
        bdm_alloc::register_thread(0, 0);
        let layout = Layout::from_size_align(64, 8).unwrap();
        let mut seen: HashSet<usize> = HashSet::new();
        let mut reused = false;
        for _ in 0..rounds {
            let ptrs: Vec<*mut u8> = (0..per_round).map(|_| mm.alloc(layout, 0).0).collect();
            for &p in &ptrs {
                if !seen.insert(p as usize) {
                    reused = true;
                }
            }
            for p in ptrs {
                unsafe { MemoryManager::dealloc(p, layout, true) };
            }
        }
        prop_assert!(reused, "no pointer was ever reused across rounds");
        prop_assert_eq!(mm.outstanding(), 0);
        bdm_alloc::unregister_thread();
    }
}

#[test]
fn oversized_allocations_fall_back_to_system() {
    let mm = MemoryManager::new(1, 1, PoolConfig::default());
    let huge = Layout::from_size_align(10 << 20, 16).unwrap();
    let (ptr, pooled) = mm.alloc(huge, 0);
    assert!(!ptr.is_null());
    assert!(!pooled, "10 MiB cannot come from a pool segment");
    unsafe { ptr.write_bytes(1, 1024) };
    unsafe { MemoryManager::dealloc(ptr, huge, pooled) };
}

#[test]
fn cross_domain_allocations_are_isolated() {
    // Elements allocated on different virtual domains come from different
    // allocator instances (distinct segments).
    let mm = MemoryManager::new(2, 2, PoolConfig::default());
    let layout = Layout::from_size_align(64, 8).unwrap();
    let a = mm.alloc(layout, 0).0;
    let b = mm.alloc(layout, 1).0;
    let seg = bdm_alloc::SEGMENT_SIZE;
    assert_ne!(
        a as usize / seg,
        b as usize / seg,
        "different domains must not share a segment"
    );
    unsafe {
        MemoryManager::dealloc(a, layout, true);
        MemoryManager::dealloc(b, layout, true);
    }
    assert_eq!(mm.outstanding(), 0);
}

#[test]
fn concurrent_churn_from_foreign_threads() {
    // Threads that were never registered (foreign domain) must still be able
    // to free pool memory — it lands on the central free list (Figure 4B).
    let mm = std::sync::Arc::new(MemoryManager::new(1, 4, PoolConfig::default()));
    let layout = Layout::from_size_align(40, 8).unwrap();
    let ptrs: Vec<usize> = (0..1000).map(|_| mm.alloc(layout, 0).0 as usize).collect();
    let chunks: Vec<Vec<usize>> = ptrs.chunks(250).map(<[usize]>::to_vec).collect();
    let handles: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            // The clone is load-bearing: the manager must outlive every
            // thread that frees pool memory (dealloc follows the segment
            // back-pointer into the allocator).
            let _mm = std::sync::Arc::clone(&mm);
            std::thread::spawn(move || {
                let _keep_alive = &_mm;
                for p in chunk {
                    unsafe { MemoryManager::dealloc(p as *mut u8, layout, true) };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(mm.outstanding(), 0);
    // And the recycled memory is allocatable again.
    let again = mm.alloc(layout, 0).0;
    assert!(!again.is_null());
    unsafe { MemoryManager::dealloc(again, layout, true) };
}
