//! # bdm-numa
//!
//! Virtual NUMA topology and a NUMA-aware work-stealing thread pool,
//! reproducing the iteration mechanism of paper Section 4.1 / Figure 2.
//!
//! The original engine uses libnuma + OpenMP thread pinning on multi-socket
//! servers. Containerized and laptop environments expose no NUMA hardware, so
//! this crate models the topology *virtually* (docs/ARCHITECTURE.md,
//! "Deviations from the paper"): all scheduling, partitioning, and
//! two-level work-stealing behaviour of the paper is exercised identically;
//! only the physical remote-DRAM latency is absent.

pub mod pool;
pub mod topology;

pub use pool::{NumaThreadPool, StealStats, WorkerCtx};
pub use topology::{Domain, NumaTopology};
