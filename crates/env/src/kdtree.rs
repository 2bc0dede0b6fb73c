//! kd-tree environment — the from-scratch stand-in for BioDynaMo's
//! `nanoflann` backend.
//!
//! Median-split on the widest axis, bucketed leaves (`leaf_size`, nanoflann's
//! depth/leaf parameter validated in paper Section 6.9). The build is
//! **serial by design**: the paper attributes the poor scalability of the
//! "standard implementation" to exactly this serial kd-tree build (Section
//! 6.8), and we preserve that behaviour for the Figure 10/11 reproductions.

use bdm_util::Real3;

use crate::{Environment, NeighborQueryScratch, UpdateHint};

/// Default leaf bucket size (matches nanoflann's common default).
pub const DEFAULT_LEAF_SIZE: usize = 10;

enum Node {
    /// Interior node: split axis, split value, children indices into `nodes`.
    Split {
        axis: usize,
        value: f64,
        left: u32,
        right: u32,
    },
    /// Leaf: range into `indices`.
    Leaf { start: u32, end: u32 },
}

/// kd-tree over a point cloud (positions cached at build time, like
/// nanoflann's dataset adaptor).
pub struct KdTreeEnvironment {
    nodes: Vec<Node>,
    indices: Vec<u32>,
    positions: Vec<Real3>,
    root: Option<u32>,
    leaf_size: usize,
    bounds: Option<(Real3, Real3)>,
}

impl Default for KdTreeEnvironment {
    fn default() -> Self {
        Self::new()
    }
}

impl KdTreeEnvironment {
    /// Creates an empty tree with the default leaf size.
    pub fn new() -> KdTreeEnvironment {
        KdTreeEnvironment::with_leaf_size(DEFAULT_LEAF_SIZE)
    }

    /// Creates an empty tree with a custom leaf bucket size.
    pub fn with_leaf_size(leaf_size: usize) -> KdTreeEnvironment {
        KdTreeEnvironment {
            nodes: Vec::new(),
            indices: Vec::new(),
            positions: Vec::new(),
            root: None,
            leaf_size: leaf_size.max(1),
            bounds: None,
        }
    }

    /// Recursively builds the subtree over `indices[lo..hi]`; returns the
    /// node id.
    fn build(&mut self, lo: usize, hi: usize, min: Real3, max: Real3) -> u32 {
        let id = self.nodes.len() as u32;
        if hi - lo <= self.leaf_size {
            self.nodes.push(Node::Leaf {
                start: lo as u32,
                end: hi as u32,
            });
            return id;
        }
        // Widest axis of the actual extent.
        let extent = max - min;
        let axis = (0..3)
            .max_by(|&a, &b| extent[a].total_cmp(&extent[b]))
            .unwrap();
        let mid = (lo + hi) / 2;
        let positions = &self.positions;
        self.indices[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
            positions[a as usize][axis].total_cmp(&positions[b as usize][axis])
        });
        let split_value = positions[self.indices[mid] as usize][axis];
        self.nodes.push(Node::Split {
            axis,
            value: split_value,
            left: 0,
            right: 0,
        });
        let mut lmax = max;
        lmax[axis] = split_value;
        let mut rmin = min;
        rmin[axis] = split_value;
        let left = self.build(lo, mid, min, lmax);
        let right = self.build(mid, hi, rmin, max);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[id as usize]
        {
            *l = left;
            *r = right;
        }
        id
    }

    /// Iterative radius search over an explicit node stack — the stack
    /// lives in the caller's [`NeighborQueryScratch`], so repeated queries
    /// perform no allocation (the recursive formulation would be
    /// allocation-free too, but the explicit stack caps the depth cost and
    /// matches the octree's traversal).
    fn search(
        &self,
        root: u32,
        pos: Real3,
        exclude: Option<usize>,
        r: f64,
        r2: f64,
        stack: &mut Vec<u32>,
        visit: &mut dyn FnMut(usize, Real3, f64),
    ) {
        stack.clear();
        stack.push(root);
        while let Some(node) = stack.pop() {
            match &self.nodes[node as usize] {
                Node::Leaf { start, end } => {
                    for &i in &self.indices[*start as usize..*end as usize] {
                        let idx = i as usize;
                        if Some(idx) == exclude {
                            continue;
                        }
                        let p = self.positions[idx];
                        let d2 = pos.distance_sq(&p);
                        if d2 <= r2 {
                            visit(idx, p, d2);
                        }
                    }
                }
                Node::Split {
                    axis,
                    value,
                    left,
                    right,
                } => {
                    let delta = pos[*axis] - *value;
                    // Descend the near side first, prune the far side by
                    // the distance to the splitting plane.
                    let (near, far) = if delta < 0.0 {
                        (*left, *right)
                    } else {
                        (*right, *left)
                    };
                    if delta.abs() <= r {
                        stack.push(far);
                    }
                    stack.push(near);
                }
            }
        }
    }
}

impl Environment for KdTreeEnvironment {
    fn update_with(&mut self, positions: &[Real3], _interaction_radius: f64, hint: UpdateHint) {
        let n = positions.len();
        self.nodes.clear();
        self.indices.clear();
        self.positions.clear();
        self.root = None;
        self.bounds = None;
        if n == 0 {
            return;
        }
        self.positions.extend_from_slice(positions);
        let (min, max) = hint.known_bounds.unwrap_or_else(|| {
            let (mut min, mut max) = (self.positions[0], self.positions[0]);
            for p in &self.positions[1..] {
                min = min.min(p);
                max = max.max(p);
            }
            (min, max)
        });
        self.bounds = Some((min, max));
        self.indices.extend(0..n as u32);
        // Serial build, by design (see module docs).
        let root = self.build(0, n, min, max);
        self.root = Some(root);
    }

    fn for_each_neighbor(
        &self,
        _positions: &[Real3],
        pos: Real3,
        exclude: Option<usize>,
        radius: f64,
        scratch: &mut NeighborQueryScratch,
        visit: &mut dyn FnMut(usize, Real3, f64),
    ) {
        if let Some(root) = self.root {
            self.search(
                root,
                pos,
                exclude,
                radius,
                radius * radius,
                &mut scratch.node_stack,
                visit,
            );
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.indices.clear();
        self.positions.clear();
        self.root = None;
        self.bounds = None;
    }

    fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.indices.capacity() * std::mem::size_of::<u32>()
            + self.positions.capacity() * std::mem::size_of::<Real3>()
    }

    fn name(&self) -> &'static str {
        "kd_tree"
    }

    fn bounds(&self) -> Option<(Real3, Real3)> {
        self.bounds
    }
}
