//! The metric vocabulary: every end-to-end and per-layer metric by name,
//! with its unit, direction and — written down before anything is
//! measured — which end-to-end metric on which workload it should move.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use crate::rep::Rep;

/// An end-to-end metric: the same five on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
    /// How one run's repetitions become the run's value. The timing
    /// metrics take the best of the three: on a shared host interference
    /// only ever slows a repetition, and about half of all repetitions
    /// land in a slow mode (`serve_hot` p90 ≈ 20 µs against 14 µs) — the
    /// median of three then flips between the modes from run to run (33 %
    /// spread measured), the best of three does not (9 %). Set-up time
    /// and memory take the median.
    pub best_of: bool,
    /// Whether `BENCHMARK.json` lists it as an end-to-end metric with a
    /// bound. An ungated metric is still measured, printed and compared.
    pub gated: bool,
    /// One repetition's value (`None`: too few samples for the percentile).
    pub of: fn(&Rep) -> Option<f64>,
    pub what: &'static str,
}

impl EndToEnd {
    /// The run's value from its repetitions' values.
    pub fn pick(&self, reps: &[f64]) -> f64 {
        match (self.best_of, self.better) {
            (false, _) => crate::stats::median(reps),
            (true, "lower") => reps.iter().copied().fold(f64::INFINITY, f64::min),
            (true, _) => reps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        best_of: false,
        gated: true,
        of: |r| Some(r.setup_s),
        what: "process start of the repetition to the first timed op: fixture generation, \
               context/store construction, index build, daemon spawn + hello, warm-up",
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        best_of: true,
        gated: true,
        of: |r| r.p50_ms,
        what: "median latency of the timed reads (send → reply decoded, or execute call → return)",
    },
    EndToEnd {
        name: "query_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        best_of: true,
        // Not gated: on serve_hot the tail of a 13 µs hit follows the
        // host, not the program. For minutes at a time 15–20 % of hits
        // take 6 µs longer (p90 ≈ 20 µs, 53 of 80 consecutive
        // repetitions) and then 5–8 % do (p90 ≈ 14 µs), on either vCPU,
        // with one daemon worker or two, no steal time and no interrupts
        // to show for it; ten runs spread 34 %. The miss cost that p90
        // stands for on the other workloads also sets their
        // queries_per_s, which is gated.
        gated: false,
        of: |r| r.p90_ms,
        what: "90th percentile (nearest rank) of the same samples",
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        best_of: true,
        gated: true,
        of: |r| Some(r.queries_per_s),
        what: "correct reads ÷ wall time of the whole timed script (writes and commits spend \
               wall time but are not counted as ops)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        // Repeats within 0.5 % on three workloads; on serve_churn the order
        // of reads decides how the allocator reuses the freed graph copies
        // after each commit (79.8–89.2 MB across six seeds, exact per seed).
        bound: 0.20,
        best_of: false,
        gated: true,
        of: |r| Some(r.peak_rss_mb),
        what: "VmHWM of the repetition's process when the timed script ends (daemons are \
               in-process, so it covers them)",
    },
];

/// A per-layer metric. `moves` pairs an end-to-end metric with the
/// workload on which a change to this layer should show (`served` = the
/// three served workloads, `all` = all four); empty means it explains
/// another per-layer metric or has no end-to-end metric today.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub how: &'static str,
    pub moves: &'static [(&'static str, &'static str)],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    how: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        how,
        moves,
    }
}

const SERVED_SETUP: &[(&str, &str)] = &[("setup_s", "served")];
const COLD_ALL: &[(&str, &str)] = &[
    ("queries_per_s", "engine_cold"),
    ("query_p50_ms", "engine_cold"),
    ("query_p90_ms", "engine_cold"),
    ("query_p90_ms", "serve_churn"),
    ("query_p90_ms", "fleet_scatter"),
];
const HOT_P50: &[(&str, &str)] = &[
    ("query_p50_ms", "serve_hot"),
    ("queries_per_s", "serve_hot"),
];
const CHURN_QPS: &[(&str, &str)] = &[("queries_per_s", "serve_churn")];
const CHURN_TAIL: &[(&str, &str)] = &[
    ("queries_per_s", "serve_churn"),
    ("query_p90_ms", "serve_churn"),
];
const FLEET_P50: &[(&str, &str)] = &[("query_p50_ms", "fleet_scatter")];
const FLEET_TAIL: &[(&str, &str)] = &[
    ("query_p90_ms", "fleet_scatter"),
    ("queries_per_s", "fleet_scatter"),
];
const EXPLAINS: &[(&str, &str)] = &[];

pub const PER_LAYER: [Layer; 46] = [
    layer("datasets.generate_s", "s", "lower", "dblp_like(Scale::Medium, 42)", &[("setup_s", "all")]),
    layer("graph.store_open_ms", "ms", "lower", "GraphStore::new(graph)", SERVED_SETUP),
    layer("graph.commit_ms", "ms", "lower", "stage_all(16 ops) + commit() on a local store", CHURN_TAIL),
    layer("graph.sssp_ms", "ms", "lower", "rkranks_graph::sssp from 32 fixture sources, mean", &[("queries_per_s", "engine_cold")]),
    layer("core.filter_ms", "ms", "lower", "mean QueryOutcome.stage.filter over the engine_cold list (≈ 5 % share: predict no visible move)", &[("query_p50_ms", "engine_cold")]),
    layer("core.refine_ms", "ms", "lower", "mean QueryOutcome.stage.refine over the engine_cold list", COLD_ALL),
    layer("core.refine_calls", "count", "lower", "mean refinements per query (exact)", EXPLAINS),
    layer("core.candidates_pruned", "count", "higher", "mean candidates eliminated without refinement per query (exact)", EXPLAINS),
    layer("core.refine_settles", "count", "lower", "mean nodes settled inside refinement per query (exact)", EXPLAINS),
    layer("core.prune_ratio", "ratio", "higher", "pruned ÷ (pruned + refine calls): useful-outcome ratio of the filter", EXPLAINS),
    layer("core.index_build_s", "s", "lower", "EngineContext::build_index with the served workloads' parameters", SERVED_SETUP),
    layer("core.index_merge_ms", "ms", "lower", "RkrIndex::merge_delta over the deltas of the 16 cold snapshot-mode queries", CHURN_QPS),
    layer("core.strategy.static_ms", "ms", "lower", "mean execute time, Strategy::Static, first 16 list nodes", EXPLAINS),
    layer("core.strategy.dynamic-three_ms", "ms", "lower", "same nodes, Strategy::Dynamic(ALL): the engine_cold path", COLD_ALL),
    layer("core.strategy.indexed-three.cold_ms", "ms", "lower", "same nodes, IndexAccess::Snapshot on the fresh built index: the served miss path", &[("query_p90_ms", "serve_churn"), ("query_p90_ms", "fleet_scatter")]),
    layer("core.strategy.indexed-three.warm_ms", "ms", "lower", "same nodes, IndexAccess::Live, second pass", &[("query_p90_ms", "serve_churn")]),
    layer("core.sharded_slowdown_x", "x", "lower", "mean execute time on with_shard_slice(slice 0 of 2) ÷ unsliced, same 16 nodes", FLEET_TAIL),
    layer("core.snapshot_save_ms", "ms", "lower", "save_snapshot(store, built index) under the build directory", EXPLAINS),
    layer("core.snapshot_load_ms", "ms", "lower", "load_snapshot of the same bundle", EXPLAINS),
    layer("server.request_encode_us", "us", "lower", "Request::to_json().render() on the serve_hot request, mean of 100k", HOT_P50),
    layer("server.request_parse_us", "us", "lower", "Request::from_line on the same line, mean of 100k", HOT_P50),
    layer("server.reply_encode_us", "us", "lower", "Reply::to_json().render() on a k = 10 reply, mean of 100k", HOT_P50),
    layer("server.reply_decode_us", "us", "lower", "Reply::from_line on the same line, mean of 100k", HOT_P50),
    layer("server.cache_get_us", "us", "lower", "ResultCache::get hit, 4096-cap cache holding the hot set", &[("query_p50_ms", "serve_hot")]),
    layer("server.cache_insert_us", "us", "lower", "ResultCache::insert of a k = 10 entry", CHURN_QPS),
    layer("server.cache_purge_ms", "ms", "lower", "purge_stale after an epoch bump with 256 live entries", CHURN_QPS),
    layer("server.spawn_ms", "ms", "lower", "spawn(..) until Client::hello answers", SERVED_SETUP),
    layer("server.client_send_us", "us", "lower", "mean client.send span (encode + write)", &[("query_p50_ms", "serve_hot")]),
    layer("server.client_recv_us", "us", "lower", "mean client.recv span (wait + read + decode)", &[("query_p50_ms", "serve_hot")]),
    layer("server.wire_wait_us", "us", "lower", "client_recv_us − reply_decode_us: daemon residence + kernel", &[("query_p50_ms", "serve_hot")]),
    layer("server.hit_roundtrip_us", "us", "lower", "p50 of client.query spans with cached: true", &[("query_p50_ms", "serve_hot")]),
    layer("server.hit_p99_us", "us", "lower", "p99 of the same (spread ≈ 12 %: informational)", EXPLAINS),
    layer("server.miss_roundtrip_ms", "ms", "lower", "mean client.query span with cached: false", CHURN_TAIL),
    layer("server.engine_filter_ms", "ms", "lower", "daemon's rkrd_filter_seconds sum ÷ count after the script", EXPLAINS),
    layer("server.engine_refine_ms", "ms", "lower", "daemon's rkrd_refine_seconds sum ÷ count; miss_roundtrip minus both is the non-engine share of a miss", EXPLAINS),
    layer("server.cache_hit_ratio", "ratio", "higher", "stats op: hits ÷ queries (exact); decides which mode serve_churn's p50 sits in", &[("query_p50_ms", "serve_churn")]),
    layer("server.update_stage_ms", "ms", "lower", "mean writer.update span", CHURN_TAIL),
    layer("server.flush_commit_ms", "ms", "lower", "mean writer.flush span (commit, context rebuild, purge, index retirement)", CHURN_TAIL),
    layer("coord.hit_roundtrip_ms", "ms", "lower", "p50 of cached: true replies through the coordinator", FLEET_P50),
    layer("coord.direct_hit_roundtrip_us", "us", "lower", "p50 of the same warm key asked of shard 0 directly, 2,000 times", EXPLAINS),
    layer("coord.overhead_ms", "ms", "lower", "hit_roundtrip_ms − direct_hit_roundtrip_us: the coordinator's own cost", FLEET_P50),
    layer("coord.miss_roundtrip_ms", "ms", "lower", "mean cached: false reply through the coordinator", FLEET_TAIL),
    layer("coord.shard_ms.0", "ms", "lower", "CoordHandle::metrics().shard_seconds[0] sum ÷ count", FLEET_TAIL),
    layer("coord.shard_ms.1", "ms", "lower", "the same for shard 1; the slower shard sets miss_roundtrip_ms", FLEET_TAIL),
    layer("coord.merge_prune_ratio", "ratio", "lower", "candidates_returned ÷ candidates_received (sanity: keeps k of 2k)", EXPLAINS),
    layer("coord.fanout_width", "count", "higher", "mean of the fanout_width histogram (sanity: 2)", EXPLAINS),
];

/// Reported beside [`PER_LAYER`] by a traced run, per workload.
pub const TRACE_OVERHEAD: Layer = layer(
    "bench.trace_overhead_share",
    "ratio",
    "lower",
    "(untraced − traced queries_per_s) ÷ untraced: must stay small for traced shares to be trusted; reported, not gated",
    EXPLAINS,
);

/// The ungated end-to-end metric, carried by a traced run so the
/// acceptance driver's records still hold it.
pub const QUERY_P90: Layer = layer(
    "bench.query_p90_ms",
    "ms",
    "lower",
    "query_p90_ms of the traced run's untraced repetition",
    EXPLAINS,
);

/// Every per-layer metric a traced run reports, in print order.
pub fn per_layer() -> impl Iterator<Item = &'static Layer> {
    PER_LAYER.iter().chain([&TRACE_OVERHEAD, &QUERY_P90])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Workload;
    use rkranks_server::json::Json;

    fn names(list: &Json) -> Vec<(String, String, String)> {
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    /// `BENCHMARK.json` is the contract the acceptance driver reads; the
    /// harness must print exactly the metrics it names.
    #[test]
    fn benchmark_json_names_what_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let e2e = json.get("end_to_end").unwrap();
        let gated: Vec<_> = END_TO_END.iter().filter(|m| m.gated).collect();
        let want: Vec<_> = gated
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(names(e2e), want);
        for (entry, m) in e2e.as_arr().unwrap().iter().zip(gated) {
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let want: Vec<_> = per_layer()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(names(json.get("per_layer").unwrap()), want);

        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let want: Vec<_> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, want);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_u64),
            Some(u64::from(crate::script::NOMINAL_SECONDS))
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(per_layer().map(|m| (m.name, m.unit)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in Workload::ALL {
            assert!(ok_name(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
    }
}
