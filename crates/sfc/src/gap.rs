//! Linear-time Morton-order enumeration of non-power-of-two grids.
//!
//! The Morton order is only gap-free for cubic grids whose side is a power of
//! two. For an arbitrary `nx × ny × nz` grid, the in-domain boxes enumerated
//! in Morton order have codes with gaps wherever the enclosing power-of-two
//! cube sticks out of the domain (paper Figure 3C: the 3×3 grid inside the
//! 4×4 cube has gaps at codes 5, 7, and 10–11).
//!
//! This module implements the paper's algorithm (Section 4.2, Figure 3 D/E):
//! a depth-first traversal of the *implicit* quad-/octree whose leaves are
//! grid boxes. The traversal never materializes the tree — it only keeps the
//! current path (O(log #boxes) space) — and descends only into nodes that are
//! neither *complete* (entirely inside the domain) nor *empty* (entirely
//! outside). It produces a small `offsets` array of `(box_counter, offset)`
//! pairs such that the Morton code of the `rank`-th in-domain box is
//! `rank + offset` where `offset` comes from the last entry with
//! `box_counter ≤ rank`. Complexity is proportional to the domain surface,
//! not `N³` — "to avoid a costly sorting operation or iteration over all
//! N × N boxes".

use crate::morton::{morton2_decode, morton3_decode};

/// Gap/offset table mapping in-domain Morton *ranks* to Morton *codes*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapOffsets {
    /// `(box_counter, offset)` entries, strictly increasing in both fields.
    entries: Vec<(u64, u64)>,
    /// Number of in-domain boxes (product of the grid dimensions).
    num_boxes: u64,
    /// Dimensionality (2 or 3) — selects the decode used by iterators.
    dim: u32,
}

/// Node classification during the DFS.
#[derive(PartialEq)]
enum NodeKind {
    Empty,
    Complete,
    Partial,
}

fn classify(origin: &[u32; 3], size: u32, dims: &[u32; 3], dim: u32) -> NodeKind {
    let mut complete = true;
    for i in 0..dim as usize {
        if origin[i] >= dims[i] {
            return NodeKind::Empty;
        }
        if origin[i] + size > dims[i] {
            complete = false;
        }
    }
    if complete {
        NodeKind::Complete
    } else {
        NodeKind::Partial
    }
}

struct DfsState {
    entries: Vec<(u64, u64)>,
    box_counter: u64,
    offset: u64,
    found_gap: bool,
}

impl DfsState {
    fn visit(&mut self, origin: [u32; 3], size: u32, dims: &[u32; 3], dim: u32) {
        let leaves = (size as u64).pow(dim);
        match classify(&origin, size, dims, dim) {
            NodeKind::Complete => {
                if self.found_gap {
                    self.entries.push((self.box_counter, self.offset));
                    self.found_gap = false;
                }
                self.box_counter += leaves;
            }
            NodeKind::Empty => {
                self.offset += leaves;
                self.found_gap = true;
            }
            NodeKind::Partial => {
                debug_assert!(size > 1, "a leaf is never partial");
                let half = size / 2;
                let children = 1u32 << dim; // 4 in 2-D, 8 in 3-D
                for c in 0..children {
                    // Child order = Morton order: x is the lowest bit.
                    let child_origin = [
                        origin[0] + (c & 1) * half,
                        origin[1] + ((c >> 1) & 1) * half,
                        origin[2] + ((c >> 2) & 1) * half,
                    ];
                    self.visit(child_origin, half, dims, dim);
                }
            }
        }
    }
}

fn compute(dims: [u32; 3], dim: u32) -> GapOffsets {
    let num_boxes: u64 = (0..dim as usize).map(|i| dims[i] as u64).product();
    if num_boxes == 0 {
        return GapOffsets {
            entries: Vec::new(),
            num_boxes: 0,
            dim,
        };
    }
    let max_side = (0..dim as usize).map(|i| dims[i]).max().unwrap();
    let side = max_side.next_power_of_two();
    let mut state = DfsState {
        entries: Vec::new(),
        box_counter: 0,
        offset: 0,
        found_gap: true, // forces the initial (0, 0) entry, as in the paper
    };
    state.visit([0, 0, 0], side, &dims, dim);
    debug_assert_eq!(state.box_counter, num_boxes);
    GapOffsets {
        entries: state.entries,
        num_boxes,
        dim,
    }
}

impl GapOffsets {
    /// Computes the gap offsets for a 3-D grid.
    pub fn compute_3d(nx: u32, ny: u32, nz: u32) -> GapOffsets {
        compute([nx, ny, nz], 3)
    }

    /// Computes the gap offsets for a 2-D grid (used by tests mirroring the
    /// paper's 2-D exposition).
    pub fn compute_2d(nx: u32, ny: u32) -> GapOffsets {
        compute([nx, ny, 1], 2)
    }

    /// Number of in-domain boxes.
    pub fn num_boxes(&self) -> u64 {
        self.num_boxes
    }

    /// The raw `(box_counter, offset)` entries (paper Figure 3D).
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Iterates the Morton codes of all in-domain boxes in Morton order, in
    /// O(#boxes + #entries) total time (paper Figure 3E: "iterate over all
    /// indices and add the offset").
    pub fn iter_codes(&self) -> impl Iterator<Item = u64> + '_ {
        let mut entry = 0usize;
        (0..self.num_boxes).map(move |rank| {
            while entry + 1 < self.entries.len() && self.entries[entry + 1].0 <= rank {
                entry += 1;
            }
            rank + self.entries[entry].1
        })
    }

    /// Iterates `(x, y, z)` coordinates of all in-domain boxes in Morton
    /// order. For 2-D tables, `z` is always zero.
    pub fn iter_coords(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let dim = self.dim;
        self.iter_codes().map(move |code| {
            if dim == 2 {
                let (x, y) = morton2_decode(code);
                (x, y, 0)
            } else {
                morton3_decode(code)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::{morton2_encode, morton3_encode};
    use proptest::prelude::*;

    #[test]
    fn paper_figure3_example() {
        // 3×3 grid inside a 4×4 cube: offsets {0,0},{5,1},{6,2},{8,4}.
        let g = GapOffsets::compute_2d(3, 3);
        assert_eq!(g.entries(), &[(0, 0), (5, 1), (6, 2), (8, 4)]);
        assert_eq!(g.num_boxes(), 9);
        // Figure 3E: resulting Morton order 0 1 2 3 4 6 8 9 12.
        let codes: Vec<u64> = g.iter_codes().collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 4, 6, 8, 9, 12]);
    }

    #[test]
    fn power_of_two_grid_has_single_entry() {
        let g = GapOffsets::compute_3d(8, 8, 8);
        assert_eq!(g.entries(), &[(0, 0)]);
        assert_eq!(g.num_boxes(), 512);
        let codes: Vec<u64> = g.iter_codes().collect();
        assert_eq!(codes, (0..512).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_grid() {
        let g = GapOffsets::compute_3d(0, 5, 5);
        assert_eq!(g.num_boxes(), 0);
        assert_eq!(g.iter_codes().count(), 0);
    }

    #[test]
    fn single_box() {
        let g = GapOffsets::compute_3d(1, 1, 1);
        assert_eq!(g.num_boxes(), 1);
    }

    /// Brute-force reference: sort Morton codes of all in-domain boxes.
    fn reference_3d(nx: u32, ny: u32, nz: u32) -> Vec<u64> {
        let mut codes = Vec::new();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    codes.push(morton3_encode(x, y, z));
                }
            }
        }
        codes.sort_unstable();
        codes
    }

    fn reference_2d(nx: u32, ny: u32) -> Vec<u64> {
        let mut codes = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                codes.push(morton2_encode(x, y));
            }
        }
        codes.sort_unstable();
        codes
    }

    #[test]
    fn elongated_grids_match_reference() {
        for (nx, ny, nz) in [(1, 1, 17), (5, 2, 9), (16, 3, 1), (7, 7, 7), (10, 1, 1)] {
            let g = GapOffsets::compute_3d(nx, ny, nz);
            let got: Vec<u64> = g.iter_codes().collect();
            assert_eq!(got, reference_3d(nx, ny, nz), "dims ({nx},{ny},{nz})");
        }
    }

    #[test]
    fn iter_coords_covers_domain_exactly_once() {
        let (nx, ny, nz) = (4, 5, 3);
        let g = GapOffsets::compute_3d(nx, ny, nz);
        let mut seen = vec![false; (nx * ny * nz) as usize];
        for (x, y, z) in g.iter_coords() {
            assert!(x < nx && y < ny && z < nz);
            let flat = (x + nx * (y + ny * z)) as usize;
            assert!(!seen[flat], "duplicate box ({x},{y},{z})");
            seen[flat] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    proptest! {
        #[test]
        fn prop_3d_matches_reference(nx in 1u32..20, ny in 1u32..20, nz in 1u32..20) {
            let g = GapOffsets::compute_3d(nx, ny, nz);
            let got: Vec<u64> = g.iter_codes().collect();
            prop_assert_eq!(got, reference_3d(nx, ny, nz));
        }

        #[test]
        fn prop_2d_matches_reference(nx in 1u32..64, ny in 1u32..64) {
            let g = GapOffsets::compute_2d(nx, ny);
            let got: Vec<u64> = g.iter_codes().collect();
            prop_assert_eq!(got, reference_2d(nx, ny));
        }

        #[test]
        fn prop_entry_count_is_small(nx in 1u32..64, ny in 1u32..64, nz in 1u32..64) {
            // The table must stay far below #boxes — that is the point of the
            // algorithm. The number of entries is bounded by the number of
            // nodes on the domain boundary of the implicit octree.
            let g = GapOffsets::compute_3d(nx, ny, nz);
            let boxes = (nx * ny * nz) as usize;
            prop_assert!(g.entries().len() <= boxes);
            let side = nx.max(ny).max(nz).next_power_of_two() as usize;
            // Generous surface-order bound.
            prop_assert!(g.entries().len() <= 8 * side * side + 8);
        }
    }
}
