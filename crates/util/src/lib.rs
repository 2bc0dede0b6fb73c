//! # bdm-util
//!
//! Shared utilities for the `biodynamo-rs` workspace: 3-D vector math,
//! deterministic random number generation, prefix sums, descriptive
//! statistics, wall-clock timing, process memory introspection, and plain-text
//! table/CSV emitters used by the benchmark harness.
//!
//! Everything in this crate is dependency-light and engine-agnostic; the
//! simulation crates build on top of it.

pub mod io;
pub mod memory;
pub mod prefix_sum;
pub mod real3;
pub mod rng;
pub mod send_ptr;
pub mod stats;
pub mod table;
pub mod timing;

pub use io::{fnv1a64, ByteReader, ByteWriter, ReadError};
pub use memory::{format_bytes, peak_rss_bytes, rss_bytes};
pub use prefix_sum::{prefix_sum_exclusive, prefix_sum_inclusive};
pub use real3::Real3;
pub use rng::SimRng;
pub use stats::{geometric_mean, median, Summary};
pub use table::{write_csv, Table};
pub use timing::{TimeBuckets, Timer};
