//! Serial prefix sums.
//!
//! The parallel removal and addition commits (paper Section 3.2, step 4)
//! scan per-block and per-thread counters — a few entries per worker, so a
//! serial pass is all they need. The uniform grid's per-box scan is fused
//! into the merge sweep of its build instead.

/// In-place exclusive prefix sum; returns the total.
///
/// `[3, 1, 4]` becomes `[0, 3, 4]` and `8` is returned.
pub fn prefix_sum_exclusive(values: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for v in values.iter_mut() {
        let next = acc + *v;
        *v = acc;
        acc = next;
    }
    acc
}

/// In-place inclusive prefix sum; returns the total (= last element).
pub fn prefix_sum_inclusive(values: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for v in values.iter_mut() {
        acc += *v;
        *v = acc;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exclusive_basic() {
        let mut v = vec![3, 1, 4, 1, 5];
        let total = prefix_sum_exclusive(&mut v);
        assert_eq!(v, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn inclusive_basic() {
        let mut v = vec![3, 1, 4, 1, 5];
        let total = prefix_sum_inclusive(&mut v);
        assert_eq!(v, vec![3, 4, 8, 9, 14]);
        assert_eq!(total, 14);
    }

    #[test]
    fn empty_and_single() {
        let mut e: Vec<usize> = vec![];
        assert_eq!(prefix_sum_exclusive(&mut e), 0);
        assert_eq!(prefix_sum_inclusive(&mut e), 0);
        let mut s = vec![7];
        assert_eq!(prefix_sum_inclusive(&mut s), 7);
        assert_eq!(s, vec![7]);
    }

    proptest! {
        #[test]
        fn prop_exclusive_shifts_inclusive(src in proptest::collection::vec(0usize..100, 1..1000)) {
            let mut ex = src.clone();
            let mut inc = src.clone();
            let t1 = prefix_sum_exclusive(&mut ex);
            let t2 = prefix_sum_inclusive(&mut inc);
            prop_assert_eq!(t1, t2);
            for i in 1..src.len() {
                prop_assert_eq!(ex[i], inc[i - 1]);
            }
            prop_assert_eq!(ex[0], 0);
        }
    }
}
