//! O(n²) reference environment.
//!
//! Not used by the engine — it exists so tests and property checks can
//! validate the real environments against an implementation too simple to be
//! wrong, and so the serial baseline engine (Cortex3D/NetLogo stand-in) has a
//! deliberately naive index.

use bdm_util::Real3;

use crate::{Environment, NeighborQueryScratch, UpdateHint};

/// Brute-force fixed-radius search over a cached copy of the positions.
#[derive(Debug, Default)]
pub struct BruteForceEnvironment {
    positions: Vec<Real3>,
    bounds: Option<(Real3, Real3)>,
}

impl BruteForceEnvironment {
    /// Creates an empty environment.
    pub fn new() -> BruteForceEnvironment {
        BruteForceEnvironment::default()
    }
}

impl Environment for BruteForceEnvironment {
    fn update_with(&mut self, positions: &[Real3], _interaction_radius: f64, hint: UpdateHint) {
        self.positions.clear();
        self.positions.extend_from_slice(positions);
        self.bounds = match hint.known_bounds {
            Some(b) if !self.positions.is_empty() => Some(b),
            _ => self.positions.iter().fold(None, |acc, p| match acc {
                None => Some((*p, *p)),
                Some((lo, hi)) => Some((lo.min(p), hi.max(p))),
            }),
        };
    }

    fn for_each_neighbor(
        &self,
        _positions: &[Real3],
        pos: Real3,
        exclude: Option<usize>,
        radius: f64,
        _scratch: &mut NeighborQueryScratch,
        visit: &mut dyn FnMut(usize, Real3, f64),
    ) {
        let r2 = radius * radius;
        for (i, p) in self.positions.iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            let d2 = pos.distance_sq(p);
            if d2 <= r2 {
                visit(i, *p, d2);
            }
        }
    }

    fn clear(&mut self) {
        self.positions.clear();
        self.bounds = None;
    }

    fn memory_bytes(&self) -> usize {
        self.positions.capacity() * std::mem::size_of::<Real3>()
    }

    fn name(&self) -> &'static str {
        "brute_force"
    }

    fn bounds(&self) -> Option<(Real3, Real3)> {
        self.bounds
    }
}
