//! Batch query drivers.
//!
//! All drivers share one immutable [`EngineContext`] across workers — the
//! graph and its transpose are materialized once per batch, and each
//! worker thread only allocates a cheap [`rkranks_core::QueryScratch`].
//! Batches dispatch on [`rkranks_core::Strategy`] values (the unified
//! query API): naive / static / dynamic queries are embarrassingly
//! parallel via [`run_batch`]. Indexed queries run the paper's §5 stream
//! via [`run_indexed_batch`]: one thread, each query learning into the
//! index the next one reads.
//!
//! Errors (an invalid query node, `k > K`) propagate out of the batch as
//! `Err` instead of panicking inside worker threads.

use std::sync::Arc;
use std::time::Duration;

use rkranks_core::{
    BoundConfig, EngineContext, IndexAccess, Partition, QueryRequest, QueryResult, QueryStats,
    RkrIndex, Strategy,
};
use rkranks_graph::{Graph, GraphError, NodeId, Result};

/// Tail-latency percentiles over a batch (seconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Median per-query seconds.
    pub p50: f64,
    /// 95th-percentile per-query seconds.
    pub p95: f64,
    /// 99th-percentile per-query seconds.
    pub p99: f64,
}

/// Aggregated counters for a batch of queries.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// Summed stats over all queries.
    pub totals: QueryStats,
    /// Number of queries executed.
    pub queries: u64,
    /// Per-query wall-clock seconds (unordered across workers; percentile
    /// queries sort a copy).
    pub latencies: Vec<f64>,
}

impl BatchOutcome {
    /// Mean seconds per query.
    pub fn mean_seconds(&self) -> f64 {
        self.totals.elapsed.as_secs_f64() / self.queries.max(1) as f64
    }

    /// Mean rank-refinement calls per query (the paper's pruning metric).
    pub fn mean_refinements(&self) -> f64 {
        self.totals.refinement_calls as f64 / self.queries.max(1) as f64
    }

    /// p50/p95/p99 per-query latency (linear interpolation on the sorted
    /// sample — see [`LatencyPercentiles::from_samples`]).
    pub fn latency_percentiles(&self) -> LatencyPercentiles {
        LatencyPercentiles::from_samples(&self.latencies)
    }

    /// Queries per wall-clock second, given the batch's wall time (the
    /// summed `totals.elapsed` double-counts concurrent workers).
    pub fn throughput(&self, wall: Duration) -> f64 {
        self.queries as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    fn absorb(&mut self, stats: &QueryStats) {
        self.latencies.push(stats.elapsed.as_secs_f64());
        self.totals.absorb(stats);
        self.queries += 1;
    }

    fn merge(&mut self, other: BatchOutcome) {
        self.totals.absorb(&other.totals);
        self.queries += other.queries;
        self.latencies.extend(other.latencies);
    }
}

impl LatencyPercentiles {
    /// Compute p50/p95/p99 from an unordered latency sample (seconds).
    ///
    /// Percentiles interpolate linearly between order statistics (the
    /// position is `p/100 · (n-1)`), so small samples behave sensibly:
    /// nearest-rank on `n < 100` degenerated p99 to the max sample, which
    /// made tail latencies jump discontinuously as batches shrank.
    pub fn from_samples(samples: &[f64]) -> LatencyPercentiles {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        LatencyPercentiles {
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            p99: percentile(&sorted, 99.0),
        }
    }
}

/// Linear-interpolation percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Run a batch of independent queries, parallel over `threads` workers
/// sharing one engine context.
///
/// `strategy` must be index-free ([`Strategy::Naive`], [`Strategy::Static`]
/// or [`Strategy::Dynamic`]); indexed batches need the index plumbing of
/// [`run_indexed_batch`] and are rejected here.
///
/// `graph` is anything convertible into an `Arc<Graph>`. Passing a
/// `&Graph` clones the CSR once per call — negligible next to a batch of
/// queries, but callers that batch repeatedly over one graph (benches,
/// experiment loops over parameter grids) should hold an `Arc<Graph>`
/// and pass it to skip the copy entirely.
pub fn run_batch(
    graph: impl Into<Arc<Graph>>,
    partition: Option<&Partition>,
    queries: &[NodeId],
    k: u32,
    strategy: Strategy,
    threads: usize,
) -> Result<BatchOutcome> {
    if strategy.needs_index() {
        return Err(GraphError::InvalidQuery(format!(
            "strategy '{strategy}' needs an index; use run_indexed_batch"
        )));
    }
    let ctx = make_context(graph.into(), partition);
    let threads = threads.clamp(1, queries.len().max(1));
    let chunk = queries.len().div_ceil(threads).max(1);
    let mut partials: Vec<Result<BatchOutcome>> = Vec::new();
    std::thread::scope(|s| {
        let ctx = &ctx;
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|chunk| {
                s.spawn(move || {
                    let mut scratch = ctx.new_scratch();
                    let mut out = BatchOutcome::default();
                    for &q in chunk {
                        let req = QueryRequest::new(q, k).with_strategy(strategy);
                        out.absorb(&ctx.execute(&mut scratch, &req)?.result.stats);
                    }
                    Ok(out)
                })
            })
            .collect();
        for h in handles {
            partials.push(h.join().expect("batch worker panicked"));
        }
    });
    // The first worker's outcome is the base; the rest merge into it.
    let mut partials = partials.into_iter();
    let mut out = partials
        .next()
        .unwrap_or_else(|| Ok(BatchOutcome::default()))?;
    for p in partials {
        out.merge(p?);
    }
    Ok(out)
}

/// Run an indexed batch as the paper's §5 stream, keeping only the
/// aggregate outcome (per-query results are never materialized): one
/// thread, the index mutates in stream order, and every query sees
/// everything earlier queries learned. See [`run_batch`] for the `graph`
/// conversion cost.
pub fn run_indexed_batch(
    graph: impl Into<Arc<Graph>>,
    partition: Option<&Partition>,
    index: &mut RkrIndex,
    queries: &[NodeId],
    k: u32,
    bounds: BoundConfig,
) -> Result<BatchOutcome> {
    run_indexed_inner(graph, partition, index, queries, k, bounds, false).map(|(out, _)| out)
}

/// [`run_indexed_batch`], additionally returning each query's result in
/// input order (equivalence tests compare these against the dynamic strategy).
pub fn run_indexed_batch_collect(
    graph: impl Into<Arc<Graph>>,
    partition: Option<&Partition>,
    index: &mut RkrIndex,
    queries: &[NodeId],
    k: u32,
    bounds: BoundConfig,
) -> Result<(BatchOutcome, Vec<QueryResult>)> {
    run_indexed_inner(graph, partition, index, queries, k, bounds, true)
}

/// The one indexed-batch driver. `collect` gates whether per-query results
/// are retained (an O(queries) cost nothing but equivalence tests want).
fn run_indexed_inner(
    graph: impl Into<Arc<Graph>>,
    partition: Option<&Partition>,
    index: &mut RkrIndex,
    queries: &[NodeId],
    k: u32,
    bounds: BoundConfig,
    collect: bool,
) -> Result<(BatchOutcome, Vec<QueryResult>)> {
    let ctx = make_context(graph.into(), partition);
    let mut out = BatchOutcome::default();
    let mut results = Vec::with_capacity(if collect { queries.len() } else { 0 });
    let mut scratch = ctx.new_scratch();
    for &q in queries {
        let req = QueryRequest::new(q, k).with_strategy(Strategy::Indexed(bounds));
        let r = ctx
            .execute_with(&mut scratch, Some(&mut IndexAccess::Live(index)), &req)?
            .result;
        out.absorb(&r.stats);
        if collect {
            results.push(r);
        }
    }
    Ok((out, results))
}

fn make_context(graph: Arc<Graph>, partition: Option<&Partition>) -> EngineContext {
    let ctx = EngineContext::with_partition(graph, partition.cloned());
    // Materialize the transpose now so the one-off O(n+m) build is never
    // charged to the first query's latency sample.
    ctx.sds_graph();
    ctx
}

/// Default worker count: the machine's parallelism, capped to 8 (query
/// batches are memory-bandwidth-bound beyond that on laptop hardware).
/// The `RKR_THREADS` environment variable overrides it.
pub fn default_threads() -> usize {
    if let Some(n) = env_threads("RKR_THREADS") {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// A positive thread count from the environment (`None` when the variable
/// is unset or unparseable). CI uses `RKR_TEST_THREADS` to rerun the test
/// suite with a different batch parallelism.
pub(crate) fn env_threads(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()?
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::{graph_from_edges, EdgeDirection};

    fn grid() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 1.0),
                (1, 2, 1.5),
                (2, 3, 0.5),
                (3, 0, 2.0),
                (1, 3, 1.0),
            ],
        )
        .unwrap()
    }

    fn test_threads() -> usize {
        env_threads("RKR_TEST_THREADS").unwrap_or(3)
    }

    #[test]
    fn sequential_and_parallel_agree_on_counters() {
        let g = grid();
        let queries: Vec<NodeId> = g.nodes().collect();
        let seq = run_batch(
            &g,
            None,
            &queries,
            2,
            Strategy::Dynamic(BoundConfig::ALL),
            1,
        )
        .unwrap();
        let par = run_batch(
            &g,
            None,
            &queries,
            2,
            Strategy::Dynamic(BoundConfig::ALL),
            test_threads(),
        )
        .unwrap();
        assert_eq!(seq.queries, par.queries);
        assert_eq!(seq.totals.refinement_calls, par.totals.refinement_calls);
        assert_eq!(seq.totals.sds_popped, par.totals.sds_popped);
    }

    #[test]
    fn naive_batch_runs() {
        let g = grid();
        let queries: Vec<NodeId> = g.nodes().collect();
        let out = run_batch(&g, None, &queries, 1, Strategy::Naive, 2).unwrap();
        assert_eq!(out.queries, 4);
        // naive refines every other node for every query
        assert_eq!(out.totals.refinement_calls, 4 * 3);
        assert!(out.mean_refinements() > 0.0);
    }

    #[test]
    fn invalid_query_node_is_an_error_not_a_panic() {
        let g = grid();
        let queries = vec![NodeId(0), NodeId(99)];
        for threads in [1, 2] {
            let r = run_batch(&g, None, &queries, 2, Strategy::Static, threads);
            assert!(r.is_err(), "threads={threads}");
        }
        let mut idx = RkrIndex::empty(g.num_nodes(), 4);
        let r = run_indexed_batch(&g, None, &mut idx, &queries, 2, BoundConfig::ALL);
        assert!(r.is_err());
    }

    #[test]
    fn indexed_batch_learns_across_queries() {
        let g = grid();
        let queries: Vec<NodeId> = g.nodes().chain(g.nodes()).collect();
        let mut idx = RkrIndex::empty(g.num_nodes(), 16);
        let out = run_indexed_batch(&g, None, &mut idx, &queries, 2, BoundConfig::ALL).unwrap();
        assert_eq!(out.queries, 8);
        assert!(idx.rrd_entries() > 0);
        assert!(
            out.totals.index_exact_hits > 0,
            "second pass should hit the index"
        );
    }

    #[test]
    fn empty_query_list() {
        let g = grid();
        let out = run_batch(&g, None, &[], 2, Strategy::Static, 4).unwrap();
        assert_eq!(out.queries, 0);
        assert_eq!(out.mean_seconds(), 0.0);
        assert_eq!(out.latency_percentiles(), LatencyPercentiles::default());
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let g = grid();
        let queries: Vec<NodeId> = g.nodes().collect();
        let out = run_batch(
            &g,
            None,
            &queries,
            2,
            Strategy::Dynamic(BoundConfig::ALL),
            2,
        )
        .unwrap();
        assert_eq!(out.latencies.len(), queries.len());
        let p = out.latency_percentiles();
        assert!(p.p50 > 0.0);
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
    }

    #[test]
    fn percentile_single_sample() {
        // n = 1: every percentile is the sample itself
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.0], p), 7.0);
        }
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_two_samples_interpolates() {
        // n = 2: p sweeps linearly from the min to the max — p99 must be
        // *near* the max, not equal to it
        let s = [1.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 1.5);
        assert!((percentile(&s, 95.0) - 1.95).abs() < 1e-12);
        assert!((percentile(&s, 99.0) - 1.99).abs() < 1e-12);
        assert_eq!(percentile(&s, 100.0), 2.0);
    }

    #[test]
    fn percentile_five_samples() {
        // n = 5: positions land at p/100 · 4
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert!((percentile(&s, 95.0) - 4.8).abs() < 1e-12);
        assert!((percentile(&s, 99.0) - 4.96).abs() < 1e-12);
        assert!(
            percentile(&s, 99.0) < 5.0,
            "p99 on tiny samples must not degenerate to the max"
        );
    }

    #[test]
    fn percentile_hundred_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&s, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&s, 95.0) - 95.05).abs() < 1e-9);
        assert!((percentile(&s, 99.0) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&s, 100.0), 100.0);
        // monotone in p
        for w in [0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0].windows(2) {
            assert!(percentile(&s, w[0]) <= percentile(&s, w[1]));
        }
    }

    #[test]
    fn from_samples_sorts_first() {
        let p = LatencyPercentiles::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(p.p50, 3.0);
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
    }
}
