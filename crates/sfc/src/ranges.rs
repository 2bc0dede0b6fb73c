//! Space-filling-curve range partitioning for sharded execution.
//!
//! The sharded engine (TeraAgent direction: spatial domain decomposition
//! with halo exchange) splits the agent population across K shards by
//! *Morton-code range*: every grid box has a Morton code, every agent
//! inherits its box's code, and a shard owns a half-open code interval.
//! Because Morton order preserves spatial locality, a contiguous code
//! range is a spatially compact region and its halo surface stays small.
//!
//! Splitting is a **pure function of the code multiset and K** — no state
//! is carried between iterations — so the partition can be recomputed from
//! scratch every iteration (implicit deterministic migration) and a
//! checkpoint restored into a *different* shard count replays bitwise
//! identically: the partition never feeds the simulation results, only the
//! execution schedule.
//!
//! Halo membership rides on the same ranges: [`cube_shard_mask`] names the
//! shards owning a box of an axis-aligned box cube from the Morton codes of
//! the cube's two corners, refining only cubes that span three or more
//! ranges.

use crate::morton::morton3_encode;

/// Maximum number of sample codes drawn for quantile estimation. The
/// sample is a deterministic stride over the code array (never random),
/// so equal inputs always produce equal partitions.
const MAX_SAMPLES: usize = 4096;

/// A half-open Morton-code interval `[begin, end)` owned by one shard.
/// The last shard's `end` is [`u64::MAX`] and that shard additionally owns
/// the code `u64::MAX` itself, so the K ranges jointly cover every code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First code owned by the shard (inclusive).
    pub begin: u64,
    /// First code *not* owned by the shard (exclusive), except that the
    /// final shard also owns `u64::MAX`.
    pub end: u64,
}

impl ShardRange {
    /// True if `code` falls inside this range (the final range also
    /// accepts `u64::MAX`).
    pub fn contains(&self, code: u64) -> bool {
        code >= self.begin && (code < self.end || (self.end == u64::MAX && code == u64::MAX))
    }
}

/// Splits the code population into `shards` contiguous Morton ranges of
/// approximately equal agent count.
///
/// Deterministic: a stride sample of at most `MAX_SAMPLES` (4096) codes is
/// sorted and quantile boundaries are read off it. Ranges are ascending,
/// contiguous, and cover `[0, u64::MAX]`; heavily duplicated codes can
/// produce empty ranges (`begin == end`), which the sharded engine treats
/// as valid empty shards.
///
/// # Panics
/// Panics if `shards == 0`.
pub fn split_ranges(codes: &[u64], shards: usize) -> Vec<ShardRange> {
    split_ranges_by(codes.len(), shards, |i| codes[i])
}

/// [`split_ranges`] over a population of `n` codes that exists only as a
/// function of the index: `code_at` is called for the stride sample alone
/// (at most `MAX_SAMPLES` indices, ascending), so a caller can fix the
/// partition before it computes — or ever stores — the per-agent codes.
///
/// # Panics
/// Panics if `shards == 0`.
pub fn split_ranges_by(
    n: usize,
    shards: usize,
    code_at: impl FnMut(usize) -> u64,
) -> Vec<ShardRange> {
    assert!(shards > 0, "shard count must be at least 1");
    if shards == 1 || n == 0 {
        let mut out = vec![ShardRange { begin: 0, end: 0 }; shards];
        out[0] = ShardRange {
            begin: 0,
            end: u64::MAX,
        };
        // All-empty population or K == 1: the first shard owns everything
        // and the rest (if any) are empty ranges stacked at the top.
        for r in out.iter_mut().skip(1) {
            *r = ShardRange {
                begin: u64::MAX,
                end: u64::MAX,
            };
        }
        return out;
    }

    let stride = n.div_ceil(MAX_SAMPLES).max(1);
    let mut samples: Vec<u64> = (0..n).step_by(stride).map(code_at).collect();
    samples.sort_unstable();

    let mut bounds = Vec::with_capacity(shards + 1);
    bounds.push(0u64);
    for j in 1..shards {
        let q = samples[(j * samples.len() / shards).min(samples.len() - 1)];
        // Boundaries must be non-decreasing even when quantiles collide.
        let prev = *bounds.last().unwrap();
        bounds.push(q.max(prev));
    }
    bounds.push(u64::MAX);

    bounds
        .windows(2)
        .map(|w| ShardRange {
            begin: w[0],
            end: w[1],
        })
        .collect()
}

/// Index of the shard owning `code` under `ranges` (as produced by
/// [`split_ranges`]): binary search over the ascending boundaries.
pub fn shard_of(ranges: &[ShardRange], code: u64) -> usize {
    debug_assert!(!ranges.is_empty());
    // partition_point: first range whose `end` exceeds `code` owns it;
    // code == u64::MAX belongs to the last range by convention.
    let idx = ranges.partition_point(|r| r.end <= code);
    idx.min(ranges.len() - 1)
}

/// Bitmask of the shards that own at least one box of the axis-aligned
/// cube of box coordinates `[min, max]` (both corners inclusive): bit `t`
/// is set iff `shard_of(ranges, morton3_encode(x, y, z)) == t` for some
/// box of the cube. Exactly the set a loop over every box of the cube
/// finds, in time independent of the cube's volume.
///
/// [`morton3_encode`] is monotone in each coordinate, so every box of the
/// cube has a code between the codes of the two corners, and the ranges are
/// contiguous. Hence: both corners in one range — the cube is that shard's
/// alone; corners in two ranges with no non-empty range between them — the
/// cube meets exactly those two (each corner is itself a box of the cube);
/// otherwise the cube is cut in two at the most significant Morton bit in
/// which the corner codes differ — the halves' code intervals are disjoint
/// and share one more leading bit — and each half is classified on its own.
/// A cube is cut only while two or more range boundaries fall strictly
/// inside its code interval, so at most `(ranges.len() - 1) / 2` cubes are
/// cut per leading-bit depth, whatever the cube's size.
///
/// `ranges` are those of [`split_ranges`], at most 64 of them.
pub fn cube_shard_mask(ranges: &[ShardRange], min: [u32; 3], max: [u32; 3]) -> u64 {
    debug_assert!(ranges.len() <= u64::BITS as usize);
    debug_assert!((0..3).all(|a| min[a] <= max[a]));
    let lo = morton3_encode(min[0], min[1], min[2]);
    let hi = morton3_encode(max[0], max[1], max[2]);
    let first = shard_of(ranges, lo);
    let last = first + shard_of(&ranges[first..], hi);
    if first == last {
        return 1 << first;
    }
    // `shard_of` never names an empty range, so a box can only belong to a
    // range strictly between the corners' if that range is non-empty.
    if ranges[first + 1..last].iter().all(|r| r.begin == r.end) {
        return 1 << first | 1 << last;
    }
    let bit = (lo ^ hi).ilog2();
    let (axis, level) = ((bit % 3) as usize, bit / 3);
    // Above `level` the two corners agree on this axis and at `level` only
    // the upper corner has the bit: `cut` is the first coordinate with it.
    let cut = max[axis] >> level << level;
    let (mut lower_max, mut upper_min) = (max, min);
    lower_max[axis] = cut - 1;
    upper_min[axis] = cut;
    cube_shard_mask(ranges, min, lower_max) | cube_shard_mask(ranges, upper_min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition: visit every box of the cube.
    fn cube_shard_mask_by_enumeration(ranges: &[ShardRange], min: [u32; 3], max: [u32; 3]) -> u64 {
        let mut mask = 0u64;
        for z in min[2]..=max[2] {
            for y in min[1]..=max[1] {
                for x in min[0]..=max[0] {
                    mask |= 1 << shard_of(ranges, morton3_encode(x, y, z));
                }
            }
        }
        mask
    }

    /// Contiguous ranges covering every code from ascending inner bounds
    /// (repeated bounds give empty ranges).
    fn ranges_from_bounds(mut inner: Vec<u64>) -> Vec<ShardRange> {
        inner.sort_unstable();
        let mut bounds = vec![0];
        bounds.extend(inner);
        bounds.push(u64::MAX);
        bounds
            .windows(2)
            .map(|w| ShardRange {
                begin: w[0],
                end: w[1],
            })
            .collect()
    }

    #[test]
    fn single_shard_owns_everything() {
        let ranges = split_ranges(&[1, 5, 9], 1);
        assert_eq!(ranges.len(), 1);
        for code in [0, 1, 5, 9, u64::MAX] {
            assert!(ranges[0].contains(code));
            assert_eq!(shard_of(&ranges, code), 0);
        }
    }

    #[test]
    fn ranges_are_contiguous_and_cover_everything() {
        let codes: Vec<u64> = (0..10_000).map(|i| (i * 37) % 4096).collect();
        for k in [2, 3, 4, 7, 16] {
            let ranges = split_ranges(&codes, k);
            assert_eq!(ranges.len(), k);
            assert_eq!(ranges[0].begin, 0);
            assert_eq!(ranges[k - 1].end, u64::MAX);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].begin, "contiguous");
                assert!(w[0].begin <= w[0].end, "ascending");
            }
            for &code in &codes {
                let s = shard_of(&ranges, code);
                assert!(ranges[s].contains(code));
            }
        }
    }

    #[test]
    fn split_is_roughly_balanced() {
        let codes: Vec<u64> = (0..8192).collect();
        let ranges = split_ranges(&codes, 4);
        let mut counts = [0usize; 4];
        for &c in &codes {
            counts[shard_of(&ranges, c)] += 1;
        }
        for &c in &counts {
            assert!(c > 8192 / 8, "no shard should be starved: {counts:?}");
        }
    }

    #[test]
    fn duplicate_codes_yield_empty_but_valid_ranges() {
        let codes = vec![42u64; 1000];
        let ranges = split_ranges(&codes, 4);
        assert_eq!(ranges.len(), 4);
        // All agents land in one shard; the others are empty but the
        // partition still covers the full code space.
        let s = shard_of(&ranges, 42);
        assert!(ranges[s].contains(42));
        assert_eq!(ranges[0].begin, 0);
        assert_eq!(ranges[3].end, u64::MAX);
    }

    #[test]
    fn empty_population_still_partitions() {
        let ranges = split_ranges(&[], 3);
        assert_eq!(ranges.len(), 3);
        assert_eq!(shard_of(&ranges, 0), 0);
        assert_eq!(shard_of(&ranges, u64::MAX), 2);
    }

    #[test]
    fn split_is_deterministic() {
        let codes: Vec<u64> = (0..50_000).map(|i| (i * 2654435761) % 100_000).collect();
        assert_eq!(split_ranges(&codes, 7), split_ranges(&codes, 7));
    }

    #[test]
    fn max_code_belongs_to_last_shard() {
        let ranges = split_ranges(&[0, u64::MAX], 2);
        assert_eq!(shard_of(&ranges, u64::MAX), 1);
    }

    #[test]
    fn split_by_index_reads_only_the_stride_sample() {
        let codes: Vec<u64> = (0..50_000).map(|i| (i * 2654435761) % 100_000).collect();
        let mut calls = 0;
        let ranges = split_ranges_by(codes.len(), 7, |i| {
            calls += 1;
            codes[i]
        });
        assert_eq!(ranges, split_ranges(&codes, 7));
        assert!(calls <= MAX_SAMPLES);
    }

    #[test]
    fn cube_inside_one_range_is_that_shard_alone() {
        let ranges = ranges_from_bounds(vec![morton3_encode(8, 0, 0)]);
        assert_eq!(cube_shard_mask(&ranges, [0, 0, 0], [7, 7, 7]), 0b01);
        assert_eq!(cube_shard_mask(&ranges, [8, 0, 0], [15, 7, 7]), 0b10);
        assert_eq!(cube_shard_mask(&ranges, [7, 0, 0], [8, 0, 0]), 0b11);
    }

    #[test]
    fn empty_ranges_between_the_corners_do_not_force_a_cut() {
        // Shards 1 and 2 are empty: shards 0 and 3 are adjacent among the
        // non-empty ranges, and no box can belong to 1 or 2.
        let b = morton3_encode(4, 0, 0);
        let ranges = ranges_from_bounds(vec![b, b, b]);
        assert_eq!(cube_shard_mask(&ranges, [0, 0, 0], [7, 7, 7]), 0b1001);
    }

    #[test]
    fn cube_spanning_three_ranges_may_miss_the_middle_one() {
        // x = 3 → 4 crosses from the first 4³ octant into the one after it;
        // with y = z = 0 pinned, the codes between (3,0,0) = 9 and
        // (4,0,0) = 64 belong to no box of the cube.
        let ranges = ranges_from_bounds(vec![10, 60]);
        assert_eq!(cube_shard_mask(&ranges, [3, 0, 0], [4, 0, 0]), 0b101);
        assert_eq!(cube_shard_mask(&ranges, [3, 0, 0], [4, 1, 0]), 0b111);
    }

    proptest! {
        #[test]
        fn prop_cube_mask_equals_enumeration(
            inner in prop::collection::vec(0u64..4096, 1..64),
            corner in (0u32..16, 0u32..16, 0u32..16),
            extent in (0u32..16, 0u32..16, 0u32..16),
        ) {
            let ranges = ranges_from_bounds(inner);
            let min = [corner.0, corner.1, corner.2];
            let max = [
                (corner.0 + extent.0).min(15),
                (corner.1 + extent.1).min(15),
                (corner.2 + extent.2).min(15),
            ];
            prop_assert_eq!(
                cube_shard_mask(&ranges, min, max),
                cube_shard_mask_by_enumeration(&ranges, min, max)
            );
        }

        #[test]
        fn prop_cube_spanning_three_ranges_is_refined_exactly(
            b0 in 1u64..4095,
            gap in 1u64..64,
            corner in (0u32..16, 0u32..16, 0u32..16),
            extent in (0u32..16, 0u32..16, 0u32..16),
        ) {
            // A narrow middle range: cubes whose corner codes straddle it
            // often hold no box of it.
            let ranges = ranges_from_bounds(vec![b0, (b0 + gap).min(4095)]);
            let min = [corner.0, corner.1, corner.2];
            let max = [
                (corner.0 + extent.0).min(15),
                (corner.1 + extent.1).min(15),
                (corner.2 + extent.2).min(15),
            ];
            prop_assert_eq!(
                cube_shard_mask(&ranges, min, max),
                cube_shard_mask_by_enumeration(&ranges, min, max)
            );
        }
    }
}
