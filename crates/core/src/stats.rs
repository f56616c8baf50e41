//! Per-query statistics.
//!
//! The paper measures two things (§6.3): wall-clock query time and "Rank
//! Refinement" — the number of times the refinement procedure runs, its
//! proxy for pruning power. [`QueryStats`] captures both plus the
//! lower-level counters the bound analysis (Table 11) and our ablations
//! need.
//!
//! Two kinds of number live here. What happened at each SDS pop is
//! counted once, in [`PopTally`]: one cell per decision kind and winning
//! bound row, bumped where `sds_pass` decides (see `context.rs`, "One pop,
//! one decision"); popped nodes, bound prunes, index hits and Table 11's
//! wins are sums over it. Work that is not a pop — edge relaxations,
//! refinement settles and pushes, pendant offers — is a plain counter,
//! bumped where the work is done.
//!
//! An SDS query may take several passes of the kRank ladder
//! (see [`crate::context`]). Every counter and timer here is the **sum
//! over all passes** — the work the query actually did — and
//! [`QueryStats::sds_passes`] / [`QueryStats::k_rank_guess`] say how many
//! passes that was and under which guess the last one was accepted.

use std::time::Duration;

use crate::engine::BoundSource;
use crate::trace::PopKind;

/// The SDS pops of a query, by decision kind (`PopKind`) and by the
/// [`BoundSource`] that won the pop's lower bound (the last column: no
/// bound was evaluated).
/// `sds_pass` bumps one cell per pop; every pop count the library reports
/// is a sum over this table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PopTally([[u64; BoundSource::ALL.len() + 1]; PopKind::RefinementPruned as usize + 1]);

impl PopTally {
    pub(crate) fn bump(&mut self, kind: PopKind, won: Option<BoundSource>) {
        self.0[kind as usize][won.map_or(BoundSource::ALL.len(), |s| s as usize)] += 1;
    }

    /// Pops decided as `kind`.
    pub(crate) fn pops(&self, kind: PopKind) -> u64 {
        self.0[kind as usize].iter().sum()
    }

    /// Pops whose lower bound `source` won, pruned or not (Table 11).
    pub fn wins(&self, source: BoundSource) -> u64 {
        self.0.iter().map(|row| row[source as usize]).sum()
    }

    fn absorb(&mut self, other: &PopTally) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }
}

/// Counters and timing for one reverse k-ranks query.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Every pop from the SDS-tree priority queue, by decision and winning
    /// bound.
    pub pops: PopTally,
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
    /// Nodes popped from the SDS-tree priority queue.
    pub fn sds_popped(&self) -> u64 {
        self.pops.0.iter().flatten().sum()
    }

    /// Candidates pruned by the Theorem-2 lower bound *before* refinement
    /// (dynamic variants only).
    pub fn pruned_by_bound(&self) -> u64 {
        self.pops.pops(PopKind::BoundPruned)
    }

    /// Candidates whose exact rank came straight from the Reverse Rank
    /// Dictionary (indexed variant only).
    pub fn index_exact_hits(&self) -> u64 {
        self.pops.pops(PopKind::IndexHit)
    }

    /// Merge another query's counters into this one (a batch's totals).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.pops.absorb(&other.pops);
        self.sds_relaxations += other.sds_relaxations;
        self.refinement_calls += other.refinement_calls;
        self.refinements_pruned += other.refinements_pruned;
        self.refinement_settles += other.refinement_settles;
        self.refinement_pushes += other.refinement_pushes;
        self.refinement_requeues += other.refinement_requeues;
        self.anchored_refinements += other.anchored_refinements;
        self.pendant_offers += other.pendant_offers;
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
            candidates_pruned: stats.pruned_by_bound() + stats.index_exact_hits(),
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

    fn tally(cells: &[(PopKind, Option<BoundSource>, u64)]) -> PopTally {
        let mut t = PopTally::default();
        for &(kind, won, n) in cells {
            (0..n).for_each(|_| t.bump(kind, won));
        }
        t
    }

    #[test]
    fn the_tally_reads_by_kind_and_by_winner() {
        let t = tally(&[
            (PopKind::Root, None, 1),
            (PopKind::BoundPruned, Some(BoundSource::Height), 3),
            (PopKind::Refined, Some(BoundSource::Parent), 2),
            (PopKind::RefinementPruned, Some(BoundSource::Height), 1),
            (PopKind::IndexHit, None, 4),
        ]);
        let stats = QueryStats {
            pops: t,
            ..Default::default()
        };
        assert_eq!(stats.sds_popped(), 11);
        assert_eq!(stats.pruned_by_bound(), 3);
        assert_eq!(stats.index_exact_hits(), 4);
        assert_eq!(t.wins(BoundSource::Height), 4);
        assert_eq!(t.wins(BoundSource::Parent), 2);
        assert_eq!(t.wins(BoundSource::Check), 0);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = QueryStats {
            refinement_calls: 2,
            pops: tally(&[(PopKind::Root, None, 1)]),
            ..Default::default()
        };
        let b = QueryStats {
            refinement_calls: 3,
            refinement_pushes: 40,
            refinement_requeues: 6,
            anchored_refinements: 2,
            pendant_offers: 7,
            pops: tally(&[(PopKind::BoundPruned, Some(BoundSource::Count), 5)]),
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
        assert_eq!(a.pruned_by_bound(), 5);
        assert_eq!(a.sds_popped(), 6);
        assert_eq!(a.pops.wins(BoundSource::Count), 5);
        assert_eq!(a.elapsed, Duration::from_millis(10));
    }

    #[test]
    fn stage_split_covers_elapsed() {
        let stats = QueryStats {
            elapsed: Duration::from_micros(100),
            refine_time: Duration::from_micros(30),
            refinement_calls: 4,
            pops: tally(&[
                (PopKind::BoundPruned, Some(BoundSource::Parent), 7),
                (PopKind::IndexHit, None, 2),
            ]),
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
