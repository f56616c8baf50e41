//! Edge weights and distance ordering.
//!
//! The paper requires non-negative edge weights (Definition 1); Dijkstra and
//! every pruning lemma depend on it. We validate at the builder boundary and
//! carry plain `f64` inside the hot loops, ordered with `total_cmp`.

use std::cmp::Ordering;

/// A validated edge weight: finite and non-negative.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub(crate) struct Weight(f64);

impl Weight {
    /// Validate a raw weight. Returns `None` for NaN, infinite, or negative
    /// values.
    #[inline]
    pub(crate) fn new(w: f64) -> Option<Weight> {
        if w.is_finite() && w >= 0.0 {
            Some(Weight(w))
        } else {
            None
        }
    }

    /// The raw value.
    #[inline(always)]
    pub(crate) fn get(self) -> f64 {
        self.0
    }
}

/// Distance value used throughout the traversal code.
///
/// `f64::INFINITY` encodes "unreached". Distances produced by summing
/// validated weights are never NaN, so `total_cmp` agrees with the intuitive
/// order.
pub type Distance = f64;

/// The "unreached" distance.
pub const INF: Distance = f64::INFINITY;

/// Total order for distances (no NaN by construction; `total_cmp` keeps the
/// comparator total anyway, which keeps heaps and sorts panic-free).
#[inline(always)]
pub(crate) fn cmp_dist(a: Distance, b: Distance) -> Ordering {
    a.total_cmp(&b)
}

/// `true` if `a` is strictly closer than `b`.
#[inline(always)]
pub(crate) fn dist_lt(a: Distance, b: Distance) -> bool {
    a < b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_weights() {
        assert_eq!(Weight::new(0.0).unwrap().get(), 0.0);
        assert_eq!(Weight::new(1.5).unwrap().get(), 1.5);
    }

    #[test]
    fn rejects_invalid_weights() {
        assert!(Weight::new(-1.0).is_none());
        assert!(Weight::new(f64::NAN).is_none());
        assert!(Weight::new(f64::INFINITY).is_none());
        assert!(Weight::new(f64::NEG_INFINITY).is_none());
    }

    #[test]
    fn negative_zero_is_accepted_as_zero() {
        // -0.0 >= 0.0 is true in IEEE; it behaves as zero in all sums.
        let w = Weight::new(-0.0).unwrap();
        assert_eq!(w.get() + 1.0, 1.0);
    }

    #[test]
    fn distance_ordering() {
        assert_eq!(cmp_dist(1.0, 2.0), Ordering::Less);
        assert_eq!(cmp_dist(2.0, 2.0), Ordering::Equal);
        assert_eq!(cmp_dist(INF, 2.0), Ordering::Greater);
        assert!(dist_lt(1.0, INF));
        assert!(!dist_lt(INF, INF));
    }
}
