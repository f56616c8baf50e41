//! Edge weights and distances: exact integers on one fixed grid.
//!
//! The paper requires non-negative edge weights and ranks by a strict
//! comparison, `d(p,v) < d(p,q)` (Definition 1). Float addition is not
//! associative, so one path summed from `p` (a refinement) and from `q` (the
//! SDS pass on the transpose) could differ in the last bit and flip that
//! comparison. So a [`Distance`] is a `u64` count of quanta of 2^-32 real
//! units ([`UNIT`] quanta make one unit), and every sum is exact in any
//! order.
//!
//! * **The grid** is one constant, not a per-graph choice: a per-graph grid
//!   would force a commit to re-quantize every weight.
//! * **Rounding.** A real weight becomes quanta here, and only here
//!   ([`quantize`], called by `GraphBuilder::add_edge` and
//!   `GraphStore::stage`, and through them by text I/O, WAL lines and wire
//!   updates), rounded to the nearest quantum. A positive weight never
//!   rounds below one quantum, so a positive edge stays positive.
//! * **Weight bound.** A weight must be below 2^21 real units (`q < 2^53`),
//!   so [`to_real`] is exact and printing it round-trips:
//!   `quantize(to_real(q)) == q`.
//! * **Span bound.** A graph of `n` nodes whose heaviest edge is `max_q`
//!   must have `(n − 1) · max_q < 2^63` ([`check_span`]), so no simple path
//!   plus one more edge can reach [`INF`] and no sum overflows.

use crate::error::{GraphError, Result};

/// A distance or edge weight: a count of quanta, 2^-32 real units each.
pub type Distance = u64;

/// The "unreached" distance.
pub const INF: Distance = u64::MAX;

/// One real unit of weight, in quanta: 2^32.
pub const UNIT: Distance = 1 << 32;

/// Every weight stays below 2^21 real units, i.e. 2^53 quanta.
const MAX_WEIGHT: f64 = (1u64 << 21) as f64;

/// `w` (real units) on the grid: the nearest quantum, never below one for a
/// positive weight. NaN, infinite, negative and too-large (≥ 2^21) weights
/// are a [`GraphError::InvalidWeight`] on the edge `(u, v)`.
pub(crate) fn quantize(u: u32, v: u32, w: f64) -> Result<Distance> {
    if !(0.0..MAX_WEIGHT).contains(&w) {
        return Err(GraphError::InvalidWeight { u, v, weight: w });
    }
    // `w · 2^32` is exact (a power-of-two scale) and below 2^53.
    let q = (w * UNIT as f64).round() as Distance;
    Ok(if w > 0.0 { q.max(1) } else { q })
}

/// `d` in real units (exact while `d < 2^53`: every weight, and every
/// distance below 2^21 real units). For output only.
pub fn to_real(d: Distance) -> f64 {
    d as f64 / UNIT as f64
}

/// The span bound: `(num_nodes − 1) · max_q < 2^63`, else a
/// [`GraphError::WeightSpan`].
pub(crate) fn check_span(num_nodes: u32, max_q: Distance) -> Result<()> {
    let span = u128::from(num_nodes.saturating_sub(1)) * u128::from(max_q);
    if span < 1 << 63 {
        Ok(())
    } else {
        Err(GraphError::WeightSpan {
            num_nodes,
            max_weight: to_real(max_q),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUANTUM: f64 = 1.0 / UNIT as f64;

    fn q(w: f64) -> Option<Distance> {
        quantize(0, 1, w).ok()
    }

    #[test]
    fn accepts_valid_weights() {
        assert_eq!(q(0.0), Some(0));
        assert_eq!(q(1.5), Some(3 * UNIT / 2));
    }

    #[test]
    fn negative_zero_is_accepted_as_zero() {
        assert_eq!(q(-0.0), Some(0));
    }

    #[test]
    fn rejects_invalid_weights() {
        for w in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, MAX_WEIGHT] {
            assert_eq!(q(w), None, "{w}");
        }
        assert_eq!(q(MAX_WEIGHT - QUANTUM), Some((1 << 53) - 1));
    }

    #[test]
    fn rounds_to_the_nearest_quantum_and_keeps_positive_weights_positive() {
        assert_eq!(q(0.1), Some(429_496_730)); // 0.1 · 2^32 = 429496729.6
        assert_eq!(q(QUANTUM * 0.4), Some(1));
        assert_eq!(q(f64::MIN_POSITIVE), Some(1));
        assert_eq!(q(QUANTUM * 2.6), Some(3));
    }

    #[test]
    fn printing_round_trips_every_weight() {
        for d in [0, 1, 429_496_730, 3 * UNIT / 2, (1 << 53) - 1] {
            let text = to_real(d).to_string();
            assert_eq!(q(text.parse().unwrap()), Some(d), "{text}");
        }
    }

    #[test]
    fn the_span_bound_is_exact() {
        let max_q = 1 << 40;
        assert!(check_span(1 << 23, max_q).is_ok()); // (2^23 − 1) · 2^40 < 2^63
        assert!(check_span((1 << 23) + 1, max_q).is_err()); // 2^23 · 2^40 = 2^63
        assert!(check_span(u32::MAX, 0).is_ok());
        assert!(check_span(0, INF).is_ok());
        let err = check_span(u32::MAX, (1 << 53) - 1).unwrap_err().to_string();
        assert!(err.contains("2^31"), "{err}");
    }
}
