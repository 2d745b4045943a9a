//! The one total float order behind every neighbour ranking.

use std::cmp::Ordering;

/// Total ascending order with **every** NaN after every number.
///
/// `f64::total_cmp` alone is total but sign-sensitive: negative NaN sorts
/// *before* −∞, and runtime 0.0/0.0 produces negative NaN on x86-64 — so a
/// degenerate measure's NaN would rank as the *nearest* neighbour. Keying
/// on `is_nan()` first sends either NaN sign to the far end, which is the
/// "maximally distant / worst score" reading every algorithm wants.
/// Then broken on item index, it is the one neighbour order the VP-tree,
/// `dpe-mining` and the server executor all rank by.
#[inline]
pub fn nan_last_cmp(a: f64, b: f64) -> Ordering {
    a.is_nan().cmp(&b.is_nan()).then_with(|| a.total_cmp(&b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_nan_signs_sort_last() {
        let neg_nan = -f64::NAN;
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        let mut v = [
            1.0,
            neg_nan,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0,
            f64::INFINITY,
        ];
        v.sort_by(|a, b| nan_last_cmp(*a, *b));
        assert_eq!(v[0], f64::NEG_INFINITY);
        assert_eq!(v[3], f64::INFINITY);
        assert!(v[4].is_nan() && v[5].is_nan());
        // And deterministically: −NaN before +NaN via total_cmp.
        assert!(v[4].is_sign_negative() && v[5].is_sign_positive());
    }
}
