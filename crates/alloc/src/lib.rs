//! # bdm-alloc
//!
//! The BioDynaMo pool memory allocator (paper Section 4.3, Figure 4), built
//! from scratch in Rust:
//!
//! * [`NumaPoolAllocator`] — constant-time pool allocation for one element
//!   size on one (virtual) NUMA domain, with thread-private free lists, a
//!   central free list, and constant-time bulk migration between them.
//! * [`MemoryManager`] — one allocator per (16-byte size class, domain);
//!   agents and behaviors of distinct sizes end up "columnar" in memory.
//!   The classes sit in a fixed table indexed by size class, so finding an
//!   existing class's allocator takes no lock; from there an allocation
//!   touches only its thread's slot — free list and statistics under one
//!   uncontended mutex on the thread's own cache line.
//! * [`PoolBox`] — the owning smart pointer the engine stores agents in
//!   (behaviors ride inside their agent's element unless they exceed 24
//!   bytes); deallocation finds its allocator through the back-pointer
//!   written at the start of every N-page-aligned segment.
//!
//! The paper's allocator parameters are fixed constants here: its
//! `mem_mgr_aligned_pages_shift` is [`config::ALIGNED_PAGES_SHIFT`] (128 KiB
//! segments), and the block growth rate, the migration threshold and the
//! block-size cap are [`pool_allocator::GROWTH_RATE`],
//! [`pool_allocator::MIGRATION_THRESHOLD`] and
//! [`pool_allocator::MAX_BLOCK_BYTES`]. The other deviations from the C++
//! original (segment-aligned block allocation instead of
//! `numa_alloc_onnode`, 16-byte segment headers) are listed in
//! docs/ARCHITECTURE.md, "Deviations from the paper".

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod config;
pub mod free_list;
pub mod manager;
pub mod pool_allocator;
pub mod pool_box;

pub use config::{register_thread, unregister_thread, PAGE_SIZE, SEGMENT_SIZE};
pub use manager::{MemoryManager, MemoryStats};
pub use pool_allocator::{NumaPoolAllocator, PoolConfig};
pub use pool_box::PoolBox;
