//! Coordinator telemetry: every instrument the fan-out layer records
//! into, exposed through the same [`rkranks_core::Registry`] machinery
//! the shards use, under the `rkrd_coord_` prefix so one Prometheus
//! scrape config covers both tiers.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rkranks_core::{Counter, Gauge, Histogram, Registry};
use rkranks_server::metrics::duration_ns;
use rkranks_server::reactor::FrontMetrics;

/// Registry-backed handles for everything the coordinator measures.
///
/// Per-shard instruments (`shard_seconds`, `shard_errors`) are labeled
/// `{shard="i"}` and indexed by shard position, so the hot path records
/// through a pre-resolved `Arc` instead of a label lookup.
pub struct CoordMetrics {
    /// The registry behind every handle (the `metrics` op snapshots it).
    pub registry: Registry,

    /// Single queries answered through the coordinator.
    pub queries: Arc<Counter>,
    /// Batch requests answered (each counts once, not per node).
    pub batches: Arc<Counter>,
    /// Update batches routed to the shard fleet.
    pub updates: Arc<Counter>,
    /// Fan-out rounds issued (initial rounds plus every retry round).
    pub fanouts: Arc<Counter>,
    /// Answers marked partial: a deadline cut the answering replica's
    /// search short.
    pub partials: Arc<Counter>,
    /// Flushes of a replica whose reply was behind the fleet's graph
    /// epoch (each followed by one re-ask).
    pub epoch_retries: Arc<Counter>,
    /// Entries received from replicas, every reply counted — including
    /// one a replica behind the fleet's graph epoch gave before it was
    /// re-asked.
    pub candidates_received: Arc<Counter>,
    /// Entries returned to the client. One replica answers each read, so
    /// it equals `candidates_received` unless a stale reply was dropped.
    pub candidates_returned: Arc<Counter>,

    /// Transport failures per shard, indexed by shard position.
    pub shard_errors: Vec<Arc<Counter>>,
    /// Send-to-reply latency per shard, indexed by shard position. Reads
    /// go to one replica, so this is its round trip; in a broadcast or
    /// `hello` round replies are collected in shard order, and a later
    /// shard's reading includes time spent draining earlier ones.
    pub shard_seconds: Vec<Arc<Histogram>>,
    /// Shards contacted per round: one for a read (and for each failover
    /// step, flush or re-ask), the whole fleet for a write or `hello`
    /// round.
    pub fanout_width: Arc<Histogram>,

    /// The reactor's instruments (`rkrd_coord_connections_open`, …).
    /// `front.request_seconds` runs from a request line's parse to its
    /// reply being queued (every shard round trip, encode); minus the
    /// answering replica's round trip it is the coordinator's own cost.
    pub front: FrontMetrics,
    /// Configured fleet size.
    pub shards: Arc<Gauge>,
    /// The fleet's graph epoch: the newest any live replica reported.
    pub graph_epoch: Arc<Gauge>,
    /// Nodes the fleet reported at the last handshake or write.
    pub graph_nodes: Arc<Gauge>,
    /// Edges the fleet reported at the last handshake or write.
    pub graph_edges: Arc<Gauge>,
    /// The graph digest the replicas at the newest graph epoch last
    /// agreed on (`None` before the first check); the coordinator's
    /// `hello` reports it. Not a registry gauge: a metric sample is an
    /// `f64`, which cannot hold 64 bits.
    pub(crate) graph_digest: Mutex<Option<u64>>,
}

impl CoordMetrics {
    /// Build the registry and pre-register every instrument for a fleet
    /// of `shards` shards.
    pub fn new(shards: usize) -> CoordMetrics {
        let r = Registry::new();
        let ns = 1e-9; // raw nanoseconds, rendered as seconds
        let shard_errors = (0..shards)
            .map(|i| {
                r.counter_with(
                    "rkrd_coord_shard_errors_total",
                    &[("shard", &i.to_string())],
                    "transport failures talking to this shard",
                )
            })
            .collect();
        let shard_seconds = (0..shards)
            .map(|i| {
                r.histogram_with(
                    "rkrd_coord_shard_seconds",
                    &[("shard", &i.to_string())],
                    "send-to-reply latency per shard",
                    ns,
                )
            })
            .collect();
        let m = CoordMetrics {
            queries: r.counter("rkrd_coord_queries_total", "queries answered"),
            batches: r.counter("rkrd_coord_batches_total", "batch requests answered"),
            updates: r.counter("rkrd_coord_updates_total", "update batches routed"),
            fanouts: r.counter("rkrd_coord_fanouts_total", "fan-out rounds issued"),
            partials: r.counter("rkrd_coord_partials_total", "deadline-cut answers"),
            epoch_retries: r.counter(
                "rkrd_coord_epoch_retries_total",
                "flushes of a replica that answered behind the fleet graph epoch",
            ),
            candidates_received: r.counter(
                "rkrd_coord_candidates_received_total",
                "entries received from replicas",
            ),
            candidates_returned: r.counter(
                "rkrd_coord_candidates_returned_total",
                "entries returned to clients",
            ),
            shard_errors,
            shard_seconds,
            fanout_width: r.histogram(
                "rkrd_coord_fanout_width",
                "shards contacted per round (1 for a read)",
            ),
            front: FrontMetrics::register(&r, "rkrd_coord"),
            shards: r.gauge("rkrd_coord_shards", "configured fleet size"),
            graph_epoch: r.gauge(
                "rkrd_coord_graph_epoch",
                "newest graph epoch a live replica reported",
            ),
            graph_nodes: r.gauge("rkrd_coord_graph_nodes", "nodes the fleet reported"),
            graph_edges: r.gauge("rkrd_coord_graph_edges", "edges the fleet reported"),
            graph_digest: Mutex::new(None),
            registry: r,
        };
        m.shards.set(shards as u64);
        m
    }

    /// Record one shard's send-to-reply latency.
    pub(crate) fn record_shard(&self, shard: usize, elapsed: Duration) {
        if let Some(h) = self.shard_seconds.get(shard) {
            h.record(duration_ns(elapsed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_shard_instruments_carry_the_shard_label() {
        let m = CoordMetrics::new(3);
        assert_eq!(m.shard_errors.len(), 3);
        assert_eq!(m.shard_seconds.len(), 3);
        m.shard_errors[2].inc();
        m.record_shard(1, Duration::from_micros(250));
        m.record_shard(9, Duration::from_micros(250)); // out of range: ignored
        let snap = m.registry.snapshot();
        let errors: Vec<_> = snap
            .samples
            .iter()
            .filter(|s| s.name == "rkrd_coord_shard_errors_total")
            .collect();
        assert_eq!(errors.len(), 3);
        assert_eq!(errors[2].labels, vec![("shard".into(), "2".into())]);
        assert_eq!(m.shard_errors[2].get(), 1);
        assert_eq!(m.shard_seconds[1].count(), 1);
        assert_eq!(m.shards.get(), 3);
    }

    #[test]
    fn request_latency_and_accept_errors_are_registered_and_record() {
        let m = CoordMetrics::new(2);
        m.front
            .request_seconds
            .record(duration_ns(Duration::from_micros(80)));
        m.front.accept_errors.inc();
        assert_eq!(m.front.request_seconds.count(), 1);
        assert_eq!(m.front.request_seconds.sum(), 80_000);
        let snap = m.registry.snapshot();
        let sample = |name: &str| {
            snap.samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} is not registered"))
        };
        assert!(sample("rkrd_coord_request_seconds")
            .help
            .contains("reply queued"));
        sample("rkrd_coord_accept_errors_total");
        assert_eq!(m.front.accept_errors.get(), 1);
    }
}
