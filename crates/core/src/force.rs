//! Pairwise collision forces (BioDynaMo's `InteractionForce`, following the
//! Cortex3D force model of Zubler & Douglas the paper references in
//! Section 5).
//!
//! The sphere–sphere force combines an elastic repulsion proportional to the
//! overlap with an adhesive attraction proportional to the square root of the
//! overlap times the effective radius:
//!
//! ```text
//! δ  = r₁ + r₂ − |x₂ − x₁|          (overlap; ≤ 0 → no force)
//! r* = r₁ r₂ / (r₁ + r₂)            (effective interaction radius)
//! F  = k δ − γ √(r* δ)              (along the center line)
//! ```
//!
//! with repulsion coefficient `k = 2` and adhesion coefficient `γ = 1` by
//! default (BioDynaMo's defaults). The static-agent detection mechanism of
//! Section 5 is tightly coupled to this implementation (condition ii).

use bdm_util::Real3;

/// Parameters of the default interaction force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractionForce {
    /// Elastic repulsion coefficient (`k`).
    pub repulsion: f64,
    /// Adhesive attraction coefficient (`γ`).
    pub attraction: f64,
}

impl Default for InteractionForce {
    fn default() -> Self {
        InteractionForce {
            repulsion: 2.0,
            attraction: 1.0,
        }
    }
}

impl InteractionForce {
    /// Purely repulsive variant (used by the Biocellion cell-sorting model,
    /// where adhesion is modelled separately per type pair).
    pub fn repulsive_only() -> InteractionForce {
        InteractionForce {
            repulsion: 2.0,
            attraction: 0.0,
        }
    }

    /// Force exerted **on** the sphere at `pos1` by the sphere at `pos2`.
    /// Returns `Real3::ZERO` when the spheres do not touch.
    #[inline]
    pub fn sphere_sphere(&self, pos1: Real3, diameter1: f64, pos2: Real3, diameter2: f64) -> Real3 {
        self.sphere_sphere_sq(pos1, diameter1, pos2, diameter2, pos1.distance_sq(&pos2))
    }

    /// [`InteractionForce::sphere_sphere`] for callers that already hold the
    /// **squared** center distance — every accepted neighbor of a
    /// fixed-radius query computed it for the distance test, so the force
    /// kernel reuses it instead of re-deriving `|x₁ − x₂|²` from the
    /// positions.
    ///
    /// **Bitwise identical** to `sphere_sphere` whenever
    /// `dist_sq == pos1.distance_sq(&pos2)`: `distance_sq` sums the squared
    /// component deltas in the same order as `(pos1 - pos2).norm_sq()`, so
    /// the single square root here sees the identical operand (pinned by a
    /// unit test below).
    #[inline]
    pub fn sphere_sphere_sq(
        &self,
        pos1: Real3,
        diameter1: f64,
        pos2: Real3,
        diameter2: f64,
        dist_sq: f64,
    ) -> Real3 {
        let r1 = 0.5 * diameter1;
        let r2 = 0.5 * diameter2;
        let delta = pos1 - pos2; // points away from the neighbor
        let center_distance = dist_sq.sqrt();
        let overlap = r1 + r2 - center_distance;
        if overlap <= 0.0 {
            return Real3::ZERO;
        }
        // Coincident centers: push in a fixed direction to separate them.
        if center_distance < 1e-12 {
            return Real3::new(self.repulsion * overlap, 0.0, 0.0);
        }
        let r_eff = r1 * r2 / (r1 + r2);
        let magnitude = self.repulsion * overlap - self.attraction * (r_eff * overlap).sqrt();
        delta * (magnitude / center_distance)
    }

    /// Force on a sphere at `pos` from a capsule (cylinder with hemispherical
    /// caps) between `a` and `b` with the given diameter — the neurite
    /// interaction used by the neuroscience specialization. The capsule is
    /// treated as a sphere centered at the closest point on the segment.
    #[inline]
    pub fn sphere_capsule(
        &self,
        pos: Real3,
        diameter: f64,
        a: Real3,
        b: Real3,
        capsule_diameter: f64,
    ) -> Real3 {
        let closest = closest_point_on_segment(pos, a, b);
        self.sphere_sphere(pos, diameter, closest, capsule_diameter)
    }
}

/// Closest point to `p` on the segment `[a, b]`.
#[inline]
pub fn closest_point_on_segment(p: Real3, a: Real3, b: Real3) -> Real3 {
    let ab = b - a;
    let len_sq = ab.norm_sq();
    if len_sq < 1e-24 {
        return a;
    }
    let t = ((p - a).dot(&ab) / len_sq).clamp(0.0, 1.0);
    a + ab * t
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: InteractionForce = InteractionForce {
        repulsion: 2.0,
        attraction: 1.0,
    };

    #[test]
    fn no_force_when_apart() {
        let f = F.sphere_sphere(Real3::ZERO, 10.0, Real3::new(20.0, 0.0, 0.0), 10.0);
        assert_eq!(f, Real3::ZERO);
    }

    #[test]
    fn no_force_at_exact_touch() {
        let f = F.sphere_sphere(Real3::ZERO, 10.0, Real3::new(10.0, 0.0, 0.0), 10.0);
        assert_eq!(f, Real3::ZERO);
    }

    #[test]
    fn overlap_repels_along_center_line() {
        let f = F.sphere_sphere(Real3::ZERO, 10.0, Real3::new(8.0, 0.0, 0.0), 10.0);
        // Overlap 2, r_eff 2.5: magnitude = 2*2 - sqrt(5) ≈ 1.764 > 0,
        // pointing in -x2 direction (away from the neighbor) for pos1.
        assert!(f.x() < 0.0, "{f:?} pushes agent 1 away from agent 2");
        assert_eq!(f.y(), 0.0);
        assert_eq!(f.z(), 0.0);
        let expected = -(2.0 * 2.0 - (2.5f64 * 2.0).sqrt());
        assert!((f.x() - expected).abs() < 1e-12);
    }

    #[test]
    fn slight_overlap_is_adhesive() {
        // For small overlap the sqrt adhesion term dominates: net attraction.
        let f = F.sphere_sphere(Real3::ZERO, 10.0, Real3::new(9.9, 0.0, 0.0), 10.0);
        assert!(f.x() > 0.0, "{f:?} pulls agent 1 toward agent 2");
    }

    #[test]
    fn newton_third_law() {
        let p1 = Real3::new(1.0, 2.0, 3.0);
        let p2 = Real3::new(4.0, 3.0, 1.0);
        let f12 = F.sphere_sphere(p1, 8.0, p2, 6.0);
        let f21 = F.sphere_sphere(p2, 6.0, p1, 8.0);
        assert!((f12 + f21).norm() < 1e-12);
    }

    #[test]
    fn coincident_centers_still_separate() {
        let f = F.sphere_sphere(Real3::splat(1.0), 10.0, Real3::splat(1.0), 10.0);
        assert!(f.norm() > 0.0);
        assert!(f.is_finite());
    }

    #[test]
    fn repulsive_only_never_attracts() {
        let f = InteractionForce::repulsive_only();
        for dist in [1.0, 5.0, 9.0, 9.99] {
            let force = f.sphere_sphere(Real3::ZERO, 10.0, Real3::new(dist, 0.0, 0.0), 10.0);
            assert!(force.x() <= 0.0, "dist {dist}: {force:?}");
        }
    }

    #[test]
    fn sphere_sphere_sq_is_bitwise_identical() {
        // The squared-distance entry point must reproduce `sphere_sphere`
        // bit for bit when fed `distance_sq` — the box-batched mechanics
        // path depends on this identity for determinism.
        let mut rng = bdm_util::SimRng::new(7);
        for _ in 0..1000 {
            let p1 = rng.point_in_cube(0.0, 20.0);
            let p2 = p1 + rng.unit_vector() * rng.uniform_in(0.0, 12.0);
            let (d1, d2) = (rng.uniform_in(1.0, 12.0), rng.uniform_in(1.0, 12.0));
            let a = F.sphere_sphere(p1, d1, p2, d2);
            let b = F.sphere_sphere_sq(p1, d1, p2, d2, p1.distance_sq(&p2));
            for axis in 0..3 {
                assert_eq!(a[axis].to_bits(), b[axis].to_bits(), "{p1:?} vs {p2:?}");
            }
        }
    }

    #[test]
    fn closest_point_cases() {
        let a = Real3::ZERO;
        let b = Real3::new(10.0, 0.0, 0.0);
        // Projection inside the segment.
        assert_eq!(
            closest_point_on_segment(Real3::new(3.0, 4.0, 0.0), a, b),
            Real3::new(3.0, 0.0, 0.0)
        );
        // Clamped to the endpoints.
        assert_eq!(
            closest_point_on_segment(Real3::new(-5.0, 1.0, 0.0), a, b),
            a
        );
        assert_eq!(
            closest_point_on_segment(Real3::new(15.0, 1.0, 0.0), a, b),
            b
        );
        // Degenerate segment.
        assert_eq!(closest_point_on_segment(Real3::splat(3.0), a, a), a);
    }

    #[test]
    fn capsule_force_uses_closest_point() {
        let a = Real3::new(-10.0, 0.0, 0.0);
        let b = Real3::new(10.0, 0.0, 0.0);
        // Sphere above the middle of the capsule, overlapping.
        let f = F.sphere_capsule(Real3::new(0.0, 4.0, 0.0), 6.0, a, b, 4.0);
        assert!(f.y() > 0.0, "pushed away perpendicular to the axis: {f:?}");
        assert!(f.x().abs() < 1e-12);
        // Out of reach -> zero.
        let f = F.sphere_capsule(Real3::new(0.0, 50.0, 0.0), 6.0, a, b, 4.0);
        assert_eq!(f, Real3::ZERO);
    }
}
