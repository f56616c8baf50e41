//! Per-query statistics.
//!
//! The paper measures two things (§6.3): wall-clock query time and "Rank
//! Refinement" — the number of times the refinement procedure runs, its
//! proxy for pruning power. [`QueryStats`] captures both plus the
//! lower-level counters the bound analysis (Table 11) and our ablations
//! need.
//!
//! An SDS query may take several passes of the kRank ladder
//! (see [`crate::context`]). Every counter and timer here is the **sum
//! over all passes** — the work the query actually did — and
//! [`QueryStats::sds_passes`] / [`QueryStats::k_rank_guess`] say how many
//! passes that was and under which guess the last one was accepted.

use std::ops::AddAssign;
use std::time::Duration;

/// Which lower-bound component of Theorem 2 (plus the index's check
/// dictionary) won the `max` at each bound evaluation — the paper's
/// Table 11 measurement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundWins {
    /// Parent-rank component (Lemma 1).
    pub parent: u64,
    /// Tree-depth component (Lemma 2).
    pub height: u64,
    /// Visit-count component (Lemma 4, undirected monochromatic only).
    pub count: u64,
    /// Check-dictionary component (§5.3, indexed queries only).
    pub check: u64,
}

impl BoundWins {
    /// Total bound evaluations recorded.
    pub fn total(&self) -> u64 {
        self.parent + self.height + self.count + self.check
    }

    /// Percentage share of each component `(parent, height, count, check)`.
    pub fn shares(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let pct = |v: u64| 100.0 * v as f64 / t as f64;
        (
            pct(self.parent),
            pct(self.height),
            pct(self.count),
            pct(self.check),
        )
    }
}

impl AddAssign for BoundWins {
    fn add_assign(&mut self, rhs: BoundWins) {
        self.parent += rhs.parent;
        self.height += rhs.height;
        self.count += rhs.count;
        self.check += rhs.check;
    }
}

/// Counters and timing for one reverse k-ranks query.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Nodes popped from the SDS-tree priority queue.
    pub sds_popped: u64,
    /// Edge relaxations performed while building the SDS-tree.
    pub sds_relaxations: u64,
    /// Rank-refinement invocations (the paper's pruning-power metric).
    pub refinement_calls: u64,
    /// Refinements that terminated early on the `kRank` bound.
    pub refinements_pruned: u64,
    /// Rows relaxed across all refinements: one per settled node, and one
    /// more each time a first-in-first-out refinement dequeues a node again
    /// (see `refinement_requeues`).
    pub refinement_settles: u64,
    /// Total frontier insertions across all refinements — what a
    /// `kRank`-bounded refinement is bound by: an aborted one costs
    /// ≈ `kRank` of them.
    pub refinement_pushes: u64,
    /// Times a refinement queued a node again because its distance dropped
    /// after it was dequeued (plain and anchored refinements traverse
    /// first-in-first-out; see [`crate::refine`], "Order"). Not part of
    /// `refinement_pushes`.
    pub refinement_requeues: u64,
    /// Refinements that ran anchored: started from an SDS ancestor's
    /// frozen ball instead of re-enumerating it (see "Anchored refinement"
    /// in `context.rs`). A subset of `refinement_calls`.
    pub anchored_refinements: u64,
    /// Pendant leaves offered to `R` at their exact rank when their only
    /// neighbour's refinement completed, without a refinement of their own
    /// (see "Pendant leaves" in `context.rs`). Dynamic, index-free passes
    /// on undirected graphs only.
    pub pendant_offers: u64,
    /// Candidates pruned by the Theorem-2 lower bound *before* refinement
    /// (dynamic variants only).
    pub pruned_by_bound: u64,
    /// Candidates whose exact rank came straight from the Reverse Rank
    /// Dictionary (indexed variant only).
    pub index_exact_hits: u64,
    /// Which bound component supplied the max at each evaluation.
    pub bound_wins: BoundWins,
    /// Passes of the kRank ladder the SDS driver ran (0 for the
    /// naive baseline, which has no ladder).
    pub sds_passes: u64,
    /// The `kRank` guess the accepted pass ran under: `u32::MAX` when the
    /// ladder ended on its unbounded rung, 0 when no pass was accepted
    /// (naive, or a limit tripped first). After [`QueryStats::absorb`],
    /// the largest over the absorbed queries.
    pub k_rank_guess: u32,
    /// Wall-clock time for the query.
    pub elapsed: Duration,
    /// Wall-clock time spent inside rank refinement (a subset of
    /// `elapsed`; the rest is the SDS filter phase).
    pub refine_time: Duration,
}

impl QueryStats {
    /// Merge another query's counters into this one (a batch's totals).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.sds_popped += other.sds_popped;
        self.sds_relaxations += other.sds_relaxations;
        self.refinement_calls += other.refinement_calls;
        self.refinements_pruned += other.refinements_pruned;
        self.refinement_settles += other.refinement_settles;
        self.refinement_pushes += other.refinement_pushes;
        self.refinement_requeues += other.refinement_requeues;
        self.anchored_refinements += other.anchored_refinements;
        self.pendant_offers += other.pendant_offers;
        self.pruned_by_bound += other.pruned_by_bound;
        self.index_exact_hits += other.index_exact_hits;
        self.bound_wins += other.bound_wins;
        self.sds_passes += other.sds_passes;
        self.k_rank_guess = self.k_rank_guess.max(other.k_rank_guess);
        self.elapsed += other.elapsed;
        self.refine_time += other.refine_time;
    }
}

/// Per-stage breakdown of one query, derived from [`QueryStats`] by
/// [`crate::EngineContext::execute_with`] and carried on
/// [`crate::QueryOutcome`].
///
/// The paper's SDS algorithm is a filter-and-refine pipeline (§3–§4):
/// `filter` is the SDS-tree traversal plus bound evaluation, `refine`
/// is the time inside rank refinement (Algorithms 2/4). By
/// construction `filter + refine == elapsed`, so the invariant
/// `filter + refine <= total` always holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStageStats {
    /// Time in the SDS filter phase (traversal, bounds, bookkeeping).
    pub filter: Duration,
    /// Time inside rank-refinement calls.
    pub refine: Duration,
    /// Candidates eliminated without refinement (Theorem-2 bound
    /// prunes plus index exact hits).
    pub candidates_pruned: u64,
    /// Rank-refinement invocations.
    pub refine_calls: u64,
    /// Ladder passes the query took ([`QueryStats::sds_passes`]).
    pub sds_passes: u64,
    /// The accepted `kRank` guess ([`QueryStats::k_rank_guess`]).
    pub k_rank_guess: u32,
}

impl QueryStageStats {
    /// Derive the stage view from a query's raw counters.
    pub(crate) fn from_stats(stats: &QueryStats) -> QueryStageStats {
        let refine = stats.refine_time.min(stats.elapsed);
        QueryStageStats {
            filter: stats.elapsed - refine,
            refine,
            candidates_pruned: stats.pruned_by_bound + stats.index_exact_hits,
            refine_calls: stats.refinement_calls,
            sds_passes: stats.sds_passes,
            k_rank_guess: stats.k_rank_guess,
        }
    }

    /// `filter + refine` — never exceeds the query's `elapsed`.
    pub fn total(&self) -> Duration {
        self.filter + self.refine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_shares_sum_to_100() {
        let w = BoundWins {
            parent: 60,
            height: 30,
            count: 10,
            check: 0,
        };
        let (p, h, c, k) = w.shares();
        assert!((p + h + c + k - 100.0).abs() < 1e-9);
        assert!((p - 60.0).abs() < 1e-9);
    }

    #[test]
    fn empty_bound_shares_are_zero() {
        assert_eq!(BoundWins::default().shares(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = QueryStats {
            refinement_calls: 2,
            ..Default::default()
        };
        let b = QueryStats {
            refinement_calls: 3,
            refinement_pushes: 40,
            refinement_requeues: 6,
            anchored_refinements: 2,
            pendant_offers: 7,
            pruned_by_bound: 5,
            sds_passes: 3,
            k_rank_guess: 640,
            elapsed: Duration::from_millis(10),
            ..Default::default()
        };
        a.absorb(&b);
        a.absorb(&QueryStats {
            sds_passes: 1,
            k_rank_guess: 40,
            ..Default::default()
        });
        assert_eq!(a.sds_passes, 4);
        assert_eq!(a.k_rank_guess, 640); // the largest guess, not a sum
        assert_eq!(a.refinement_calls, 5);
        assert_eq!(a.refinement_pushes, 40);
        assert_eq!(a.refinement_requeues, 6);
        assert_eq!(a.anchored_refinements, 2);
        assert_eq!(a.pendant_offers, 7);
        assert_eq!(a.pruned_by_bound, 5);
        assert_eq!(a.elapsed, Duration::from_millis(10));
    }

    #[test]
    fn stage_split_covers_elapsed() {
        let stats = QueryStats {
            elapsed: Duration::from_micros(100),
            refine_time: Duration::from_micros(30),
            refinement_calls: 4,
            pruned_by_bound: 7,
            index_exact_hits: 2,
            ..Default::default()
        };
        let stage = QueryStageStats::from_stats(&stats);
        assert_eq!(stage.total(), stats.elapsed);
        assert_eq!(stage.refine, Duration::from_micros(30));
        assert_eq!(stage.candidates_pruned, 9);
        assert_eq!(stage.refine_calls, 4);
        // A refine clock that (pathologically) exceeds elapsed clamps.
        let odd = QueryStats {
            elapsed: Duration::from_micros(10),
            refine_time: Duration::from_micros(20),
            ..Default::default()
        };
        let stage = QueryStageStats::from_stats(&odd);
        assert_eq!(stage.filter, Duration::ZERO);
        assert!(stage.total() <= odd.elapsed);
    }
}
