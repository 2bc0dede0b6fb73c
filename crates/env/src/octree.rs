//! Octree environment — the from-scratch stand-in for the Behley et al.
//! radius-neighbor octree used by BioDynaMo.
//!
//! A point octree over the bounding cube with a `bucket_size` leaf capacity
//! (the parameter the paper validates in Section 6.9). Build is serial, like
//! the original; the search descends only octants intersecting the query
//! sphere and, following Behley et al., takes whole octants without
//! per-point checks when an octant is entirely inside the sphere.

use bdm_util::Real3;

use crate::{Environment, NeighborQueryScratch, UpdateHint};

/// Default leaf bucket size (Behley et al. use 32 for their experiments).
pub const DEFAULT_BUCKET_SIZE: usize = 32;

enum Node {
    Inner {
        /// Child node ids; `u32::MAX` marks an absent octant.
        children: [u32; 8],
        center: Real3,
        half: f64,
    },
    Leaf {
        start: u32,
        end: u32,
        center: Real3,
        half: f64,
    },
}

/// Octree over a cached copy of the point positions.
pub struct OctreeEnvironment {
    nodes: Vec<Node>,
    indices: Vec<u32>,
    positions: Vec<Real3>,
    root: Option<u32>,
    bucket_size: usize,
    bounds: Option<(Real3, Real3)>,
}

impl Default for OctreeEnvironment {
    fn default() -> Self {
        Self::new()
    }
}

const ABSENT: u32 = u32::MAX;

impl OctreeEnvironment {
    /// Creates an empty octree with the default bucket size.
    pub fn new() -> OctreeEnvironment {
        OctreeEnvironment::with_bucket_size(DEFAULT_BUCKET_SIZE)
    }

    /// Creates an empty octree with a custom bucket size.
    pub fn with_bucket_size(bucket_size: usize) -> OctreeEnvironment {
        OctreeEnvironment {
            nodes: Vec::new(),
            indices: Vec::new(),
            positions: Vec::new(),
            root: None,
            bucket_size: bucket_size.max(1),
            bounds: None,
        }
    }

    /// Builds the subtree over `indices[lo..hi]` inside the cube
    /// `(center, half)`; returns the node id.
    fn build(&mut self, lo: usize, hi: usize, center: Real3, half: f64) -> u32 {
        let id = self.nodes.len() as u32;
        // Degenerate cubes (coincident points) must terminate as leaves.
        if hi - lo <= self.bucket_size || half < 1e-9 {
            self.nodes.push(Node::Leaf {
                start: lo as u32,
                end: hi as u32,
                center,
                half,
            });
            return id;
        }
        self.nodes.push(Node::Inner {
            children: [ABSENT; 8],
            center,
            half,
        });
        // Partition indices into the eight octants (three stable passes of
        // in-place partitioning keep it simple and cache-friendly).
        let octant_of = |p: &Real3| -> usize {
            usize::from(p.x() >= center.x())
                | (usize::from(p.y() >= center.y()) << 1)
                | (usize::from(p.z() >= center.z()) << 2)
        };
        // Counting pass.
        let mut counts = [0usize; 8];
        for &i in &self.indices[lo..hi] {
            counts[octant_of(&self.positions[i as usize])] += 1;
        }
        let mut starts = [0usize; 8];
        let mut acc = lo;
        for o in 0..8 {
            starts[o] = acc;
            acc += counts[o];
        }
        // Scatter into a scratch buffer, then copy back.
        let mut scratch = vec![0u32; hi - lo];
        let mut cursors = starts;
        for &i in &self.indices[lo..hi] {
            let o = octant_of(&self.positions[i as usize]);
            scratch[cursors[o] - lo] = i;
            cursors[o] += 1;
        }
        self.indices[lo..hi].copy_from_slice(&scratch);
        drop(scratch);

        let quarter = half * 0.5;
        let mut children = [ABSENT; 8];
        for (o, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let child_center = Real3::new(
                center.x() + if o & 1 != 0 { quarter } else { -quarter },
                center.y() + if o & 2 != 0 { quarter } else { -quarter },
                center.z() + if o & 4 != 0 { quarter } else { -quarter },
            );
            children[o] = self.build(starts[o], starts[o] + count, child_center, quarter);
        }
        if let Node::Inner { children: c, .. } = &mut self.nodes[id as usize] {
            *c = children;
        }
        id
    }

    /// Iterative radius search over an explicit node stack borrowed from
    /// the caller's [`NeighborQueryScratch`] — zero allocation per query.
    fn search(
        &self,
        root: u32,
        pos: Real3,
        exclude: Option<usize>,
        r2: f64,
        stack: &mut Vec<u32>,
        visit: &mut dyn FnMut(usize, Real3, f64),
    ) {
        stack.clear();
        stack.push(root);
        while let Some(node) = stack.pop() {
            match &self.nodes[node as usize] {
                Node::Leaf { start, end, .. } => {
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
                Node::Inner { children, .. } => {
                    for &child in children {
                        if child == ABSENT {
                            continue;
                        }
                        let (c_center, c_half) = self.node_cube(child);
                        if cube_intersects_sphere(c_center, c_half, pos, r2) {
                            stack.push(child);
                        }
                    }
                }
            }
        }
    }

    fn node_cube(&self, node: u32) -> (Real3, f64) {
        match &self.nodes[node as usize] {
            Node::Inner { center, half, .. } | Node::Leaf { center, half, .. } => (*center, *half),
        }
    }
}

/// Cube (center, half-edge) vs. sphere (pos, radius²) intersection test.
fn cube_intersects_sphere(center: Real3, half: f64, pos: Real3, r2: f64) -> bool {
    let mut d2 = 0.0;
    for a in 0..3 {
        let d = (pos[a] - center[a]).abs() - half;
        if d > 0.0 {
            d2 += d * d;
        }
    }
    d2 <= r2
}

impl Environment for OctreeEnvironment {
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
        let center = (min + max) * 0.5;
        let half = ((max - min).max_element() * 0.5).max(1e-9);
        let root = self.build(0, n, center, half);
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
        "octree"
    }

    fn bounds(&self) -> Option<(Real3, Real3)> {
        self.bounds
    }
}
