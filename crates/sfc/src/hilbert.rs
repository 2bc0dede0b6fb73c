//! Hilbert curve encoding/decoding in 3-D (Skilling's transform).
//!
//! The paper compared Morton order against the Hilbert curve for agent
//! sorting and measured a negligible 0.54% improvement that did not justify
//! the higher decoding cost (Section 4.2). The engine sorts by Morton only;
//! this codec backs the box-enumeration micro-benchmark
//! (`crates/bench/benches/sfc.rs`), which times both curves' encode, decode
//! and enumeration. Nothing re-measures the end-to-end 0.54%.
//!
//! Implementation follows John Skilling, "Programming the Hilbert curve",
//! AIP Conf. Proc. 707 (2004): coordinates are converted to/from the
//! "transpose" form, then bits are gathered/scattered MSB-first.

/// Maximum bits per coordinate supported by the 3-D Hilbert codec
/// (3 × 21 = 63 bits fit a `u64` index).
pub const HILBERT3_BITS: u32 = 21;

/// Converts axes to Skilling transpose form, in place.
fn axes_to_transpose(x: &mut [u32; 3], bits: u32) {
    let m: u32 = 1 << (bits - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..3 {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..3 {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[2] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Converts Skilling transpose form back to axes, in place.
fn transpose_to_axes(x: &mut [u32; 3], bits: u32) {
    let n: u32 = 2 << (bits - 1);
    // Gray decode by H ^ (H/2).
    let mut t = x[2] >> 1;
    for i in (1..3).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u32;
    while q != n {
        let p = q - 1;
        for i in (0..3).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Encodes a 3-D coordinate (each < 2^bits, bits ≤ 21) into its Hilbert index.
pub fn hilbert3_encode(px: u32, py: u32, pz: u32, bits: u32) -> u64 {
    debug_assert!((1..=HILBERT3_BITS).contains(&bits));
    debug_assert!(px < (1 << bits) && py < (1 << bits) && pz < (1 << bits));
    let mut x = [px, py, pz];
    axes_to_transpose(&mut x, bits);
    // Gather: MSB-first interleave of the transpose form.
    let mut h = 0u64;
    for bit in (0..bits).rev() {
        for xi in &x {
            h = (h << 1) | ((*xi >> bit) & 1) as u64;
        }
    }
    h
}

/// Decodes a Hilbert index back to `(x, y, z)` (inverse of [`hilbert3_encode`]).
pub fn hilbert3_decode(h: u64, bits: u32) -> (u32, u32, u32) {
    debug_assert!((1..=HILBERT3_BITS).contains(&bits));
    let mut x = [0u32; 3];
    // Scatter: inverse of the gather above.
    let mut pos = 3 * bits;
    for bit in (0..bits).rev() {
        for xi in x.iter_mut() {
            pos -= 1;
            *xi |= (((h >> pos) & 1) as u32) << bit;
        }
    }
    transpose_to_axes(&mut x, bits);
    (x[0], x[1], x[2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn origin_is_zero() {
        for bits in 1..=8 {
            assert_eq!(hilbert3_encode(0, 0, 0, bits), 0);
        }
    }

    #[test]
    fn bijective_on_small_cube() {
        let bits = 3;
        let n = 1u32 << bits;
        let mut seen = vec![false; (n * n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let h = hilbert3_encode(x, y, z, bits) as usize;
                    assert!(h < seen.len(), "index in range");
                    assert!(!seen[h], "no collisions");
                    seen[h] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "curve covers the whole cube");
    }

    #[test]
    fn consecutive_indices_are_adjacent() {
        // The defining property of the Hilbert curve: successive indices map
        // to coordinates at L1 distance exactly 1.
        let bits = 4;
        let n = 1u64 << (3 * bits);
        let mut prev = hilbert3_decode(0, bits);
        for h in 1..n {
            let cur = hilbert3_decode(h, bits);
            let d = (prev.0 as i64 - cur.0 as i64).abs()
                + (prev.1 as i64 - cur.1 as i64).abs()
                + (prev.2 as i64 - cur.2 as i64).abs();
            assert_eq!(d, 1, "h={h}: {prev:?} -> {cur:?}");
            prev = cur;
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(bits in 1u32..=HILBERT3_BITS, raw in any::<(u32, u32, u32)>()) {
            let mask = (1u32 << bits) - 1;
            let (x, y, z) = (raw.0 & mask, raw.1 & mask, raw.2 & mask);
            let h = hilbert3_encode(x, y, z, bits);
            prop_assert!(h < 1u64 << (3 * bits));
            prop_assert_eq!(hilbert3_decode(h, bits), (x, y, z));
        }

        #[test]
        fn prop_index_roundtrip(bits in 1u32..=10, h_raw in any::<u64>()) {
            let h = h_raw & ((1u64 << (3 * bits)) - 1);
            let (x, y, z) = hilbert3_decode(h, bits);
            prop_assert_eq!(hilbert3_encode(x, y, z, bits), h);
        }
    }
}
