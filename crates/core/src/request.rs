//! The unified query API: one typed request, one executor, one outcome.
//!
//! The paper's three strategies (§3 static, §4 dynamic, §5 indexed), the
//! naive baseline, traced variants, and live/snapshot index modes are
//! plain data, so every consumer (CLI, serving daemon, eval harness)
//! shares one dispatch:
//!
//! * [`Strategy`] — *which algorithm*, as a value with a stable string
//!   form (`"dynamic-height"`, `"indexed-three"`, …). [`Strategy::name`]
//!   and the [`FromStr`] impl round-trip, so the same spelling works in
//!   CLI flags, the wire protocol, and config files.
//! * [`QueryRequest`] — *what to compute*: the query node, `k`, the
//!   strategy, whether to record a [`QueryTrace`], and optional execution
//!   limits (a wall-clock [`QueryRequest::deadline`] and/or a
//!   [`QueryRequest::refine_budget`]).
//! * [`QueryOutcome`] — *what happened*: the result, the optional trace,
//!   and a [`Completion`] that says whether the limits cut the search
//!   short.
//!
//! The single entry point is [`crate::EngineContext::execute`] (or
//! [`crate::EngineContext::execute_with`] when an index is bound).
//!
//! ## Partial results
//!
//! A request with a deadline or refinement budget trades completeness for
//! bounded latency: when a limit trips, the search stops and returns the
//! refined-so-far result set instead of running to exhaustion. Two
//! invariants make the partial answer usable for serving:
//!
//! 1. **Every returned entry is exact.** Nodes only enter the result set
//!    `R` with fully refined (or index-known) ranks, so a partial answer
//!    never over-reports — each `(node, rank)` pair it contains is the
//!    true `Rank(node, q)`.
//! 2. **The `k_rank_bound` is valid.** Continuing the search could only
//!    have *improved* `R` (replaced entries with strictly smaller ranks),
//!    so the complete answer's k-th rank is at most the `k_rank_bound`
//!    carried by [`Completion::Partial`] — the collector's `kRank` at the
//!    moment the limit tripped (`u32::MAX` while `R` held fewer than `k`
//!    entries).
//!
//! Limits are checked once per SDS-tree pop (and once per candidate in
//! the naive strategy), i.e. at refinement granularity: a single
//! refinement is never interrupted mid-flight, so the deadline can
//! overshoot by roughly one bounded Dijkstra.

use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

use rkranks_graph::NodeId;

use crate::engine::{BoundConfig, BoundSource};
use crate::result::QueryResult;
use crate::stats::{QueryStageStats, QueryStats};
use crate::trace::QueryTrace;

/// Which evaluation strategy a query runs — plain data, cheap to copy,
/// with a stable string form (see [`Strategy::name`] / [`FromStr`]).
///
/// The live-vs-snapshot distinction for indexed queries is deliberately
/// *not* part of the strategy: it is a resource-binding concern (who owns
/// the index and where discoveries go), expressed by the
/// [`crate::IndexAccess`] handed to
/// [`crate::EngineContext::execute_with`]. A `Strategy` therefore stays
/// pure data that can cross process boundaries as a string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// §2 brute force: refine every candidate (with `kRank` early
    /// termination), no SDS-tree.
    Naive,
    /// §3 / Algorithm 1: the static SDS-tree.
    Static,
    /// §4: the dynamic bounded SDS-tree with the given Theorem-2
    /// component selection.
    Dynamic(BoundConfig),
    /// §5 / Algorithms 3–4: dynamic search consulting (and updating) a
    /// [`crate::RkrIndex`]. Requires an index binding at execution time.
    Indexed(BoundConfig),
}

impl Strategy {
    /// Every distinct strategy value, in canonical-name order. Useful for
    /// exhaustive round-trip tests and `--help` listings.
    pub const ALL: [Strategy; 10] = [
        Strategy::Naive,
        Strategy::Static,
        Strategy::Dynamic(BoundConfig::PARENT_ONLY),
        Strategy::Dynamic(BoundConfig::PARENT_HEIGHT),
        Strategy::Dynamic(BoundConfig::PARENT_COUNT),
        Strategy::Dynamic(BoundConfig::ALL),
        Strategy::Indexed(BoundConfig::PARENT_ONLY),
        Strategy::Indexed(BoundConfig::PARENT_HEIGHT),
        Strategy::Indexed(BoundConfig::PARENT_COUNT),
        Strategy::Indexed(BoundConfig::ALL),
    ];

    /// The canonical name: parses back to the same value via [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::Static => "static",
            Strategy::Dynamic(b) => match (
                b.contains(BoundSource::Height),
                b.contains(BoundSource::Count),
            ) {
                (false, false) => "dynamic-parent",
                (true, false) => "dynamic-height",
                (false, true) => "dynamic-count",
                (true, true) => "dynamic-three",
            },
            Strategy::Indexed(b) => match (
                b.contains(BoundSource::Height),
                b.contains(BoundSource::Count),
            ) {
                (false, false) => "indexed-parent",
                (true, false) => "indexed-height",
                (false, true) => "indexed-count",
                (true, true) => "indexed-three",
            },
        }
    }

    /// The Theorem-2 bound configuration, if the strategy uses one.
    pub fn bounds(self) -> Option<BoundConfig> {
        match self {
            Strategy::Naive | Strategy::Static => None,
            Strategy::Dynamic(b) | Strategy::Indexed(b) => Some(b),
        }
    }

    /// `true` for the indexed strategy (which needs an index binding).
    pub fn needs_index(self) -> bool {
        matches!(self, Strategy::Indexed(_))
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Strategy {
    type Err = String;

    /// Parse a strategy name, case-insensitively. `"dynamic"` and
    /// `"indexed"` are accepted as aliases for the `-three` (all bounds)
    /// variants — the paper's strongest configurations. The error lists
    /// every [`Strategy::ALL`] name.
    fn from_str(s: &str) -> Result<Strategy, String> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "naive" => Ok(Strategy::Naive),
            "static" => Ok(Strategy::Static),
            "dynamic" => Ok(Strategy::Dynamic(BoundConfig::ALL)),
            "indexed" => Ok(Strategy::Indexed(BoundConfig::ALL)),
            _ => {
                let parsed = if let Some(rest) = lower.strip_prefix("dynamic-") {
                    rest.parse().ok().map(Strategy::Dynamic)
                } else if let Some(rest) = lower.strip_prefix("indexed-") {
                    rest.parse().ok().map(Strategy::Indexed)
                } else {
                    None
                };
                parsed.ok_or_else(|| {
                    let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
                    format!(
                        "unknown strategy '{s}' (expected one of: {})",
                        names.join(", ")
                    )
                })
            }
        }
    }
}

/// A fully specified reverse k-ranks query: everything an
/// [`crate::EngineContext`] needs to run it, as one plain value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// The query node `q`.
    pub q: NodeId,
    /// Result size `k` (must be positive).
    pub k: u32,
    /// Which algorithm evaluates the query.
    pub strategy: Strategy,
    /// Record a full `QueryTrace` of per-pop decisions (SDS strategies
    /// only; the naive baseline has no tree to trace).
    pub trace: bool,
    /// Best-effort wall-clock limit: when the elapsed time reaches it,
    /// the search stops and returns a [`Completion::Partial`] outcome.
    /// Checked at refinement granularity (see the module docs).
    pub deadline: Option<Duration>,
    /// Maximum number of rank refinements: the `refine_budget + 1`-th
    /// refinement is never started. The cheap bound/prune machinery keeps
    /// running, so small budgets still produce useful partial answers.
    pub refine_budget: Option<u64>,
}

impl QueryRequest {
    /// A request for the reverse `k`-ranks of `q` with the default
    /// strategy (dynamic, all Theorem-2 bounds), no trace, no limits.
    pub fn new(q: NodeId, k: u32) -> QueryRequest {
        QueryRequest {
            q,
            k,
            strategy: Strategy::Dynamic(BoundConfig::ALL),
            trace: false,
            deadline: None,
            refine_budget: None,
        }
    }

    /// Select the evaluation strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> QueryRequest {
        self.strategy = strategy;
        self
    }

    /// Request a full decision trace.
    pub fn with_trace(mut self) -> QueryRequest {
        self.trace = true;
        self
    }

    /// Bound the query's wall-clock time (best effort — see the module
    /// docs for granularity).
    pub fn with_deadline(mut self, deadline: Duration) -> QueryRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Bound the number of rank refinements.
    pub fn with_refine_budget(mut self, budget: u64) -> QueryRequest {
        self.refine_budget = Some(budget);
        self
    }
}

/// Why a query stopped before exhausting the search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartialReason {
    /// The [`QueryRequest::deadline`] elapsed.
    DeadlineExceeded,
    /// The [`QueryRequest::refine_budget`] was spent.
    RefineBudgetExhausted,
}

impl fmt::Display for PartialReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PartialReason::DeadlineExceeded => "deadline exceeded",
            PartialReason::RefineBudgetExhausted => "refine budget exhausted",
        })
    }
}

/// Whether a query ran to completion or was cut short by its limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// The search exhausted: the result is the exact reverse k-ranks
    /// answer.
    Complete,
    /// A limit tripped: the result holds the refined-so-far entries
    /// (every rank in it is exact), and the complete answer's k-th rank
    /// is at most `k_rank_bound`.
    Partial {
        /// What stopped the search.
        reason: PartialReason,
        /// The collector's `kRank` when the search stopped: an upper
        /// bound on the complete answer's k-th rank (`u32::MAX` while
        /// fewer than `k` entries were held).
        k_rank_bound: u32,
    },
}

impl Completion {
    /// `true` if the search exhausted.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }
}

/// The answer to an executed [`QueryRequest`].
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The (possibly partial — see [`QueryOutcome::completion`]) result.
    pub result: QueryResult,
    /// The decision trace, when the request asked for one.
    pub trace: Option<QueryTrace>,
    /// Whether the limits cut the search short.
    pub completion: Completion,
    /// Per-stage timing breakdown (SDS filter vs rank refinement).
    pub stage: QueryStageStats,
}

impl QueryOutcome {
    /// The query's performance counters (shorthand for
    /// `self.result.stats`).
    pub fn stats(&self) -> &QueryStats {
        &self.result.stats
    }

    /// `true` if the search exhausted and the result is exact.
    pub fn is_complete(&self) -> bool {
        self.completion.is_complete()
    }
}

/// Resolved execution limits, materialized once per query so the hot loop
/// only compares.
pub(crate) struct Limits {
    deadline_at: Option<Instant>,
    refine_budget: Option<u64>,
}

impl Limits {
    /// Resolve a request's limits against the current clock.
    pub(crate) fn for_request(req: &QueryRequest) -> Limits {
        Limits {
            // An unrepresentable deadline (`now + huge`) means "never".
            deadline_at: req.deadline.and_then(|d| Instant::now().checked_add(d)),
            refine_budget: req.refine_budget,
        }
    }

    /// These limits less `spent` refinements: what a later ladder pass,
    /// counting from zero, is charged against.
    pub(crate) fn after(&self, spent: u64) -> Limits {
        Limits {
            deadline_at: self.deadline_at,
            refine_budget: self.refine_budget.map(|b| b.saturating_sub(spent)),
        }
    }

    /// Has a limit tripped? The budget is checked first so
    /// budget-limited tests stay deterministic on arbitrarily slow
    /// machines.
    pub(crate) fn exceeded(&self, stats: &QueryStats) -> Option<PartialReason> {
        if let Some(budget) = self.refine_budget {
            if stats.refinement_calls >= budget {
                return Some(PartialReason::RefineBudgetExhausted);
            }
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return Some(PartialReason::DeadlineExceeded);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_strategy_name_round_trips() {
        for s in Strategy::ALL {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s, "{}", s.name());
        }
    }

    #[test]
    fn aliases_and_case_insensitivity() {
        assert_eq!(
            "dynamic".parse::<Strategy>().unwrap(),
            Strategy::Dynamic(BoundConfig::ALL)
        );
        assert_eq!(
            "indexed".parse::<Strategy>().unwrap(),
            Strategy::Indexed(BoundConfig::ALL)
        );
        assert_eq!(
            "DYNAMIC-HEIGHT".parse::<Strategy>().unwrap(),
            Strategy::Dynamic(BoundConfig::PARENT_HEIGHT)
        );
        assert_eq!("Naive".parse::<Strategy>().unwrap(), Strategy::Naive);
    }

    /// The retired hub-label spellings fail like any unknown name, and
    /// each error lists exactly the accepted ones.
    #[test]
    fn unknown_strategies_are_rejected_with_a_listing() {
        let all: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
        for bad in [
            "",
            "fast",
            "dynamic-",
            "dynamic-turbo",
            "indexed-naive",
            "dynamic-hub",
            "indexed-hub",
        ] {
            let err = bad.parse::<Strategy>().unwrap_err();
            let listed = err
                .split_once("expected one of: ")
                .and_then(|(_, rest)| rest.strip_suffix(')'))
                .unwrap_or_else(|| panic!("{bad}: no listing in {err}"));
            assert_eq!(listed.split(", ").collect::<Vec<_>>(), all, "{bad}");
        }
        for bad in ["hub", "dynamic-hub", "turbo"] {
            let err = bad.parse::<BoundConfig>().unwrap_err();
            assert_eq!(
                err,
                format!("unknown bound configuration '{bad}' (expected parent, height, count, or three)")
            );
        }
    }

    #[test]
    fn request_builder_defaults_and_overrides() {
        let req = QueryRequest::new(NodeId(3), 7);
        assert_eq!(req.strategy, Strategy::Dynamic(BoundConfig::ALL));
        assert!(!req.trace && req.deadline.is_none() && req.refine_budget.is_none());
        let req = req
            .with_strategy(Strategy::Static)
            .with_trace()
            .with_deadline(Duration::from_millis(5))
            .with_refine_budget(100);
        assert_eq!(req.strategy, Strategy::Static);
        assert!(req.trace);
        assert_eq!(req.deadline, Some(Duration::from_millis(5)));
        assert_eq!(req.refine_budget, Some(100));
    }

    #[test]
    fn limits_trip_in_budget_then_deadline_order() {
        let mut stats = QueryStats::default();
        let limits = Limits {
            deadline_at: Some(Instant::now() - Duration::from_secs(1)),
            refine_budget: Some(2),
        };
        assert_eq!(
            limits.exceeded(&stats),
            Some(PartialReason::DeadlineExceeded)
        );
        stats.refinement_calls = 2;
        assert_eq!(
            limits.exceeded(&stats),
            Some(PartialReason::RefineBudgetExhausted)
        );
        let unlimited = Limits {
            deadline_at: None,
            refine_budget: None,
        };
        assert_eq!(unlimited.exceeded(&stats), None);
    }

    #[test]
    fn completion_predicates() {
        assert!(Completion::Complete.is_complete());
        let p = Completion::Partial {
            reason: PartialReason::DeadlineExceeded,
            k_rank_bound: 4,
        };
        assert!(!p.is_complete());
    }

    #[test]
    fn strategy_helpers() {
        assert_eq!(Strategy::Naive.bounds(), None);
        assert_eq!(
            Strategy::Dynamic(BoundConfig::ALL).bounds(),
            Some(BoundConfig::ALL)
        );
        assert!(Strategy::Indexed(BoundConfig::ALL).needs_index());
        assert!(!Strategy::Static.needs_index());
        assert_eq!(format!("{}", Strategy::Static), "static");
    }
}
