//! The daemon's telemetry: every counter, gauge, and histogram `rkrd`
//! maintains, pre-registered in one [`Registry`] with stable names.
//!
//! Each field is a cheap `Arc` handle into the registry, and each number
//! is recorded once, where its event happens or its state changes:
//!
//! - **Counters** are added to at the event: `rkrd_queries_total` as a
//!   query starts, `rkrd_cache_misses_total` where the cache lookup comes
//!   back empty, `rkrd_cache_evictions_total` where an insert evicts,
//!   `rkrd_cache_stale_evicted_total` from the count a purge returns, and
//!   the commit counters inside the commit.
//! - **Gauges** are set where their state changes: the epoch pair and
//!   graph size at start and at each graph commit, the cache's entries
//!   and bytes under its lock at each insert or purge, the staged-delta
//!   count at each stage and commit.
//! - **Histograms** record nanoseconds and carry a `1e-9` scale so they
//!   render as seconds — the Prometheus convention. A histogram's count
//!   is also the count of the events it times, so no counter repeats it:
//!   `rkrd_query_seconds` is pre-registered for every `outcome` — `hit`
//!   (served from the result cache, so its count is the cache-hit
//!   count), `miss` (computed, complete) and `partial` (computed, cut
//!   short by the deadline, rkrd's only limit) — and
//!   `rkrd_merge_pass_seconds` counts commits. Summing the query family's
//!   three counts gives exactly the number of *successfully answered*
//!   queries. The daemon serves one strategy, so the family carries no
//!   strategy label.
//!
//! `stats` and `metrics` only read: `stats` picks its fields from these
//! handles (a histogram's count where a field counts timed events), and
//! `metrics` snapshots the whole registry in registration order
//! (`render_prometheus` turns that snapshot into text exposition format
//! for `rkr ctl ADDR metrics --prom`).
//!
//! The front-side instruments (connections, wake-ups, flow control,
//! request time) are the reactor's [`FrontMetrics`], registered here
//! under the `rkrd_` prefix.
//!
//! The slow-query log is a ring of [`SLOW_LOG_CAPACITY`] records: when
//! `--slow-query-ms` is set, any query serviced at or above the
//! threshold leaves a `SlowQueryRecord`; `{"op":"slow-queries"}`
//! returns the ring oldest-first.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rkranks_core::{Counter, Gauge, Histogram, Registry};

use crate::protocol::SlowQueryRecord;
use crate::reactor::FrontMetrics;

/// Slow-query ring capacity (oldest records overwritten).
pub const SLOW_LOG_CAPACITY: usize = 128;

/// How a query was answered, for latency-histogram labelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Served from the result cache.
    Hit,
    /// Computed and complete.
    Miss,
    /// Computed but cut short (deadline/budget); entries still exact.
    Partial,
}

impl QueryOutcome {
    /// The `outcome` label value.
    pub fn label(self) -> &'static str {
        match self {
            QueryOutcome::Hit => "hit",
            QueryOutcome::Miss => "miss",
            QueryOutcome::Partial => "partial",
        }
    }

    const ALL: [QueryOutcome; 3] = [QueryOutcome::Hit, QueryOutcome::Miss, QueryOutcome::Partial];
}

/// A ring of the [`SLOW_LOG_CAPACITY`] most recently captured slow
/// queries.
#[derive(Debug, Default)]
pub struct SlowQueryLog {
    inner: Mutex<VecDeque<SlowQueryRecord>>,
}

impl SlowQueryLog {
    /// Append a record, dropping the oldest once the ring is full.
    pub fn push(&self, record: SlowQueryRecord) {
        let mut ring = self.inner.lock().unwrap();
        if ring.len() == SLOW_LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<SlowQueryRecord> {
        self.inner.lock().unwrap().iter().cloned().collect()
    }
}

/// Every instrument the daemon records into, as registry-backed handles.
pub struct Metrics {
    /// The registry behind every handle (snapshot source).
    pub registry: Registry,

    // -- counters --
    /// Queries answered (batch ops count each node; errored requests
    /// count too).
    pub queries: Arc<Counter>,
    /// Commits that changed the graph.
    pub graph_commits: Arc<Counter>,
    /// Effective staged deltas committed into the live graph.
    pub updates_applied: Arc<Counter>,
    /// Slow-query records captured (includes records the ring has since
    /// overwritten).
    pub slow_queries: Arc<Counter>,
    /// Cache lookups that found nothing.
    pub cache_misses: Arc<Counter>,
    /// Entries evicted by LRU capacity pressure.
    pub cache_evictions: Arc<Counter>,
    /// Entries dropped because their epoch went stale.
    pub cache_stale_evicted: Arc<Counter>,

    // -- gauges --
    /// Entries currently cached.
    pub cache_entries: Arc<Gauge>,
    /// Approximate heap footprint of the cached results, in bytes.
    pub cache_bytes: Arc<Gauge>,
    /// Configured cache capacity (0 = disabled).
    pub cache_capacity: Arc<Gauge>,
    /// Staged-but-uncommitted graph deltas.
    pub updates_staged: Arc<Gauge>,
    /// Worker threads serving connections.
    pub workers: Arc<Gauge>,
    /// Current index epoch.
    pub index_epoch: Arc<Gauge>,
    /// Current graph epoch.
    pub graph_epoch: Arc<Gauge>,
    /// Nodes in the current graph snapshot.
    pub graph_nodes: Arc<Gauge>,
    /// Logical edges in the current graph snapshot.
    pub graph_edges: Arc<Gauge>,

    // -- histograms (nanoseconds) --
    /// End-to-end query latency, indexed by [`QueryOutcome`].
    pub query_latency: [Arc<Histogram>; 3],
    /// Time in the SDS filter stage (computed queries only).
    pub filter_seconds: Arc<Histogram>,
    /// Time in rank refinement (computed queries only).
    pub refine_seconds: Arc<Histogram>,
    /// Full commit duration (commit, retire, publish, checkpoint); its
    /// count is the number of commits.
    pub merge_pass_seconds: Arc<Histogram>,
    /// Snapshot-bundle checkpoint duration.
    pub checkpoint_seconds: Arc<Histogram>,

    /// The reactor's instruments (`rkrd_connections_open`, …).
    pub front: FrontMetrics,

    /// The slow-query ring buffer.
    pub slow_log: SlowQueryLog,
}

impl Metrics {
    /// Build the registry and pre-register every instrument.
    pub fn new() -> Metrics {
        let r = Registry::new();
        let ns = 1e-9; // raw nanoseconds, rendered as seconds
        let query_latency = QueryOutcome::ALL.map(|o| {
            r.histogram_with(
                "rkrd_query_seconds",
                &[("outcome", o.label())],
                "end-to-end query service time",
                ns,
            )
        });
        Metrics {
            queries: r.counter(
                "rkrd_queries_total",
                "queries answered (batch counts each node)",
            ),
            graph_commits: r.counter("rkrd_graph_commits_total", "commits that changed the graph"),
            updates_applied: r.counter("rkrd_updates_applied_total", "deltas committed live"),
            slow_queries: r.counter("rkrd_slow_queries_total", "slow-query records captured"),
            cache_misses: r.counter("rkrd_cache_misses_total", "result-cache misses"),
            cache_evictions: r.counter("rkrd_cache_evictions_total", "LRU capacity evictions"),
            cache_stale_evicted: r
                .counter("rkrd_cache_stale_evicted_total", "stale-epoch evictions"),
            cache_entries: r.gauge("rkrd_cache_entries", "entries currently cached"),
            cache_bytes: r.gauge("rkrd_cache_bytes", "approximate cached-result bytes"),
            cache_capacity: r.gauge("rkrd_cache_capacity", "configured cache capacity"),
            updates_staged: r.gauge("rkrd_updates_staged", "staged uncommitted graph deltas"),
            workers: r.gauge("rkrd_workers", "worker threads"),
            index_epoch: r.gauge("rkrd_index_epoch", "current index epoch"),
            graph_epoch: r.gauge("rkrd_graph_epoch", "current graph epoch"),
            graph_nodes: r.gauge("rkrd_graph_nodes", "nodes in the serving graph"),
            graph_edges: r.gauge("rkrd_graph_edges", "edges in the serving graph"),
            query_latency,
            filter_seconds: r.histogram_scaled(
                "rkrd_filter_seconds",
                "SDS filter stage time per computed query",
                ns,
            ),
            refine_seconds: r.histogram_scaled(
                "rkrd_refine_seconds",
                "rank-refinement time per computed query",
                ns,
            ),
            merge_pass_seconds: r.histogram_scaled(
                "rkrd_merge_pass_seconds",
                "commit duration of staged graph updates",
                ns,
            ),
            checkpoint_seconds: r.histogram_scaled(
                "rkrd_checkpoint_seconds",
                "snapshot checkpoint duration",
                ns,
            ),
            front: FrontMetrics::register(&r, "rkrd"),
            slow_log: SlowQueryLog::default(),
            registry: r,
        }
    }

    /// Record one answered query's end-to-end latency.
    pub(crate) fn record_query(&self, outcome: QueryOutcome, elapsed: Duration) {
        self.query_latency[outcome as usize].record(duration_ns(elapsed));
    }

    /// Queries answered with `outcome`: the count of its latency histogram.
    pub(crate) fn answered(&self, outcome: QueryOutcome) -> u64 {
        self.query_latency[outcome as usize].count()
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

/// A `Duration` as whole nanoseconds, saturating at `u64::MAX`.
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_core::MetricValue;

    #[test]
    fn every_instrument_is_registered_once() {
        let m = Metrics::default();
        let snap = m.registry.snapshot();
        // 3 outcomes plus the scalar instruments.
        let hists = snap
            .samples
            .iter()
            .filter(|s| matches!(s.value, MetricValue::Histogram(_)))
            .count();
        assert_eq!(hists, 3 + 7);
        let mut keys: Vec<_> = snap
            .samples
            .iter()
            .map(|s| (s.name.clone(), s.labels.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), snap.samples.len(), "duplicate registration");
    }

    #[test]
    fn record_query_lands_in_the_right_family_member() {
        let m = Metrics::default();
        m.record_query(QueryOutcome::Miss, Duration::from_micros(5));
        assert_eq!(m.query_latency[QueryOutcome::Miss as usize].count(), 1);
        assert_eq!(m.query_latency[QueryOutcome::Hit as usize].count(), 0);
    }

    #[test]
    fn slow_log_is_a_bounded_ring() {
        let log = SlowQueryLog::default();
        for i in 0..(SLOW_LOG_CAPACITY as u32 + 10) {
            log.push(SlowQueryRecord {
                node: i,
                ..SlowQueryRecord::default()
            });
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), SLOW_LOG_CAPACITY);
        assert_eq!(snap.first().unwrap().node, 10); // oldest 10 dropped
        assert_eq!(snap.last().unwrap().node, SLOW_LOG_CAPACITY as u32 + 9);
    }

    #[test]
    fn duration_ns_saturates() {
        assert_eq!(duration_ns(Duration::from_nanos(1500)), 1500);
        assert_eq!(duration_ns(Duration::MAX), u64::MAX);
    }
}
