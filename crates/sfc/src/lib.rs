//! # bdm-sfc
//!
//! Space-filling curves for memory-layout optimization (paper Section 4.2).
//!
//! * [`morton`] — Morton (Z-order) encode/decode in 2-D and 3-D; the curve the
//!   engine actually sorts agents by.
//! * [`hilbert`] — a 3-D Hilbert codec, kept for the ablation that reproduces
//!   the paper's Morton-vs-Hilbert design decision (0.54% difference).
//! * [`gap`] — the paper's linear-time algorithm for enumerating the boxes of
//!   a *non-power-of-two* grid in Morton order without sorting and without
//!   visiting out-of-domain codes (Figure 3 D/E).
//! * [`ranges`] — deterministic Morton-code range partitioning used by the
//!   sharded engine (TeraAgent direction): split a code population into K
//!   contiguous, roughly balanced intervals, and name the shards a cube of
//!   boxes touches from the codes of its two corners.

pub mod gap;
pub mod hilbert;
pub mod morton;
pub mod ranges;

/// Which space-filling curve orders the grid boxes during agent sorting
/// (paper Section 4.2: the authors measured a 0.54% advantage for the
/// Hilbert curve, offset by its decoding cost, and chose Morton; keeping
/// both makes that design decision reproducible as an ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CurveKind {
    /// Morton (Z-order) — the engine default; enumerable in linear time via
    /// [`GapOffsets`].
    #[default]
    Morton,
    /// Hilbert — better locality in theory, costlier to en/decode, and the
    /// box enumeration needs an explicit sort.
    Hilbert,
}

pub use gap::GapOffsets;
pub use hilbert::{hilbert3_decode, hilbert3_encode, HILBERT3_BITS};
pub use morton::{
    morton2_decode, morton2_encode, morton3_decode, morton3_encode, MORTON2_BITS, MORTON3_BITS,
};
pub use ranges::{cube_shard_mask, shard_of, split_ranges, split_ranges_by, ShardRange};
