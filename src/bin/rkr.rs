//! `rkr` — command-line reverse k-ranks queries.
//!
//! ```text
//! rkr gen <dblp|epinions|road> --scale tiny|small|medium|large --seed N --out graph.edges
//! rkr stats <graph.edges>
//! rkr build-index <graph.edges> --out index.rkri [--h 0.1] [--m 0.1] [--kmax 100]
//!                 [--strategy random|degree|closeness] [--threads N]
//! rkr query <graph.edges> --node Q --k K [--algo STRATEGY] [--deadline-ms MS]
//!                 [--refine-budget N] [--trace] [--index index.rkri] [--save-index]
//! rkr query --remote HOST:PORT --node Q --k K [--deadline-ms MS] [--no-cache]
//! rkr batch <graph.edges> --queries N --k K [--algo STRATEGY] [--threads T]
//!                 [--index index.rkri] [--seed S]
//! rkr serve [<graph.edges>] [--addr HOST:PORT] [--workers N] [--cache N]
//!                 [--snapshot FILE] [--high-water BYTES] [--max-line BYTES]
//!                 [--log-level error|warn|info|debug] [--slow-query-ms MS]
//!                 [--shard-id I --shard-count N [--shard-seed S]]
//! rkr shard-plan <graph.edges> --shards N [--seed S]
//! rkr coord --shards ADDR,ADDR,... [--addr HOST:PORT] [--max-line BYTES]
//!                 [--shard-timeout-ms MS] [--log-level error|warn|info|debug]
//! rkr ctl <HOST:PORT> stats [--json] | flush | checkpoint | shutdown
//! rkr ctl <HOST:PORT> metrics [--prom|--json] | slow-queries [--json]
//! rkr ctl <HOST:PORT> add-edge U V W | rm-edge U V | reweight U V W | add-node
//! rkr update <HOST:PORT> --from FILE [--batch N]
//! ```
//!
//! `STRATEGY` is the unified `rkranks_core::Strategy` string form —
//! `naive`, `static`, `dynamic[-parent|-height|-count|-three]`,
//! `indexed[-parent|-height|-count|-three]` — and the *same* spelling
//! works in local `query` and in `batch`, so e.g. `--algo dynamic-height`
//! replaces the old ad-hoc flag combinations. The daemon serves one
//! strategy, `dynamic-three`, so `query --remote` takes no `--algo`.
//! A flag the run would not read fails the command before it starts:
//! `--index` and `--save-index` need a local `indexed-*` run, and a
//! positional argument past the ones a command reads fails too.
//!
//! A thin shell over the library — everything it does is a few calls into
//! the public API. Queries build a `QueryRequest` and go through the one
//! `execute` entry point; `--deadline-ms` / `--refine-budget` make them
//! best-effort (partial results are flagged). `batch` drives the eval
//! runner: one shared `EngineContext` and per-worker scratch; an
//! `indexed-*` batch runs the paper's §5 stream on one thread, each query
//! learning into the index the next one reads. `serve` runs the `rkrd` daemon (see
//! `rkranks_server`, Linux-only): a pool of `epoll` event-loop workers
//! answering the line-delimited JSON protocol with write backpressure
//! (`--high-water`), bounded request lines (`--max-line`), an LRU result
//! cache and epoch-based invalidation;
//! `query --remote` and `ctl` are its clients. Every served query runs
//! `dynamic-three`, and a request naming another strategy is refused;
//! the daemon reads no index (it checkpoints the snapshot bundle's, or
//! an empty one). The daemon's graph is *live*:
//! `ctl add-edge`/`rm-edge`/`reweight`/`add-node` stage single updates and
//! `rkr update --from FILE` streams a whole update file in batches. The
//! daemon commits each update before it replies, and both commands flush
//! before they print, so a change is live when they return; each commit
//! publishes a fresh graph snapshot under a bumped graph epoch and
//! retires the index (stale rank knowledge is unsound on a changed graph).
//!
//! `serve --snapshot FILE` makes the daemon durable: load-or-create — an
//! existing bundle restores the exact serving state (committed graph,
//! index, epoch pair, staged-but-uncommitted WAL), a missing one is
//! created at the first checkpoint. The daemon checkpoints after every
//! commit of staged updates and at shutdown; `rkr ctl ADDR checkpoint`
//! forces one over the wire.
//!
//! Observability: `rkr ctl ADDR metrics` dumps every registered counter,
//! gauge, and latency histogram (`--prom` renders the Prometheus text
//! exposition for scrapers, `--json` the raw wire reply); `--slow-query-ms
//! MS` on `serve` captures queries at or over the threshold in a bounded
//! in-memory ring (the latest 128) that `rkr ctl ADDR slow-queries` reads
//! back; and `--log-level` controls the
//! daemon's stderr diagnostics (quiet `warn` by default).
//!
//! Sharded serving: `rkr serve --shard-id I --shard-count N
//! [--shard-seed S]` runs one daemon as replica `I` of `N` (it loads the
//! full graph and answers every query in full; the identity only lets a
//! coordinator verify the wiring); `rkr coord --shards A,B,...` runs the
//! coordinator that speaks the same wire protocol frontside, sends each
//! read to the lowest-index live replica, and refuses a fleet whose
//! replicas announce different graph digests (see `rkranks_coord`).
//! `rkr shard-plan`
//! previews which replica the deterministic consistent-hash map names as
//! each node's owner. `ctl` and `update` work unchanged against the
//! coordinator's address.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use reverse_k_ranks::prelude::*;
use rkranks_core::{
    load_index, load_snapshot, render_prometheus, save_index, Completion, MetricValue,
    MetricsSnapshot, QueryOutcome, QueryRequest, Strategy,
};
use rkranks_datasets::{dblp_like, epinions_like, sf_like};
use rkranks_eval::runner::{self, run_batch, run_indexed_batch};
use rkranks_eval::workload::random_queries;
use rkranks_graph::metrics::{degree_stats, weight_stats};
use rkranks_graph::traversal::is_weakly_connected;
use rkranks_graph::{load_graph, save_graph};
use rkranks_graph::{GraphDelta, GraphError, GraphStore, ShardMap, ShardSlice};
use rkranks_server::log::LogLevel;
use rkranks_server::{Client, QueryOptions, Request, ServerConfig};

const USAGE: &str = "usage:
  rkr gen <dblp|epinions|road> [--scale S] [--seed N] --out FILE
  rkr stats <graph.edges>
  rkr build-index <graph.edges> --out FILE [--h F] [--m F] [--kmax K] [--strategy S] [--threads N]
  rkr query <graph.edges> --node Q --k K [--algo STRATEGY] [--deadline-ms MS]
            [--refine-budget N] [--trace] [--index FILE] [--save-index]
  rkr query --remote HOST:PORT --node Q --k K [--deadline-ms MS] [--no-cache]
  rkr batch <graph.edges> --queries N --k K [--algo STRATEGY] [--threads T]
            [--index FILE] [--seed S]
  rkr serve [<graph.edges>] [--addr HOST:PORT] [--workers N] [--cache N]
            [--snapshot FILE] [--high-water BYTES] [--max-line BYTES]
            [--log-level error|warn|info|debug] [--slow-query-ms MS]
            [--shard-id I --shard-count N [--shard-seed S]]
  rkr shard-plan <graph.edges> --shards N [--seed S]
  rkr coord --shards ADDR,ADDR,... [--addr HOST:PORT] [--max-line BYTES]
            [--shard-timeout-ms MS] [--log-level error|warn|info|debug]
  rkr ctl <HOST:PORT> stats [--json] | flush | checkpoint | shutdown
  rkr ctl <HOST:PORT> metrics [--prom|--json] | slow-queries [--json]
  rkr ctl <HOST:PORT> add-edge U V W | rm-edge U V | reweight U V W | add-node
  rkr update <HOST:PORT> --from FILE [--batch N]

STRATEGY: naive | static | dynamic[-parent|-height|-count|-three]
        | indexed[-parent|-height|-count|-three]
update files: one op per line — add U V W | rm U V | reweight U V W | add-node";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Split `args` into positional arguments, `--flag value` pairs and
    /// switches. A name `is_switch` accepts never takes the next argument
    /// as its value; any other flag does, unless it is last or the next
    /// argument is a flag itself.
    fn parse(args: Vec<String>, is_switch: impl Fn(&str) -> bool) -> Flags {
        let mut f = Flags {
            positional: Vec::new(),
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !is_switch(name) && !v.starts_with("--") => {
                        f.pairs.push((name.to_string(), it.next().unwrap()));
                    }
                    _ => f.switches.push(name.to_string()),
                }
            } else {
                f.positional.push(a);
            }
        }
        f
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: '{v}'")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Every flag and switch name given, in that order.
    fn names(&self) -> impl Iterator<Item = &str> {
        let pairs = self.pairs.iter().map(|(n, _)| n.as_str());
        pairs.chain(self.switches.iter().map(String::as_str))
    }
}

type Command = fn(&Flags) -> Result<(), String>;

/// Each command, its handler, the most positional arguments it reads
/// after its name, and every flag or switch it accepts (space-separated,
/// a switch marked by a trailing `!`): the one list a command line is
/// checked against before any work starts, so a typo'd or retired flag,
/// or an argument the command would not read, fails instead of being
/// ignored. A switch never takes the next argument as a value. `ctl`'s
/// operation decides its own count (`cmd_ctl`). A unit test keeps the
/// lists equal to USAGE.
const COMMANDS: [(&str, Command, usize, &str); 10] = [
    ("gen", cmd_gen, 1, "scale seed out"),
    ("stats", cmd_stats, 1, ""),
    (
        "build-index",
        cmd_build_index,
        1,
        "out h m kmax strategy threads",
    ),
    (
        "query",
        cmd_query,
        1,
        "remote node k algo deadline-ms refine-budget trace! index save-index! no-cache!",
    ),
    ("batch", cmd_batch, 1, "queries k algo threads index seed"),
    (
        "serve",
        cmd_serve,
        1,
        "addr workers cache snapshot high-water max-line log-level slow-query-ms \
         shard-id shard-count shard-seed",
    ),
    ("shard-plan", cmd_shard_plan, 1, "shards seed"),
    (
        "coord",
        cmd_coord,
        0,
        "shards addr max-line shard-timeout-ms log-level",
    ),
    ("ctl", cmd_ctl, usize::MAX, "json! prom!"),
    ("update", cmd_update, 1, "from batch"),
];

/// The names a `COMMANDS` flag list accepts, each with whether it is a
/// switch.
fn flag_names(accepted: &str) -> impl Iterator<Item = (&str, bool)> {
    accepted
        .split_whitespace()
        .map(|a| match a.strip_suffix('!') {
            Some(name) => (name, true),
            None => (a, false),
        })
}

fn run(args: Vec<String>) -> Result<(), String> {
    let name = args.first().map(String::as_str);
    let (cmd, handler, arity, accepted) = COMMANDS
        .iter()
        .find(|(cmd, _, _, _)| Some(*cmd) == name)
        .ok_or("missing or unknown command")?;
    let flags = Flags::parse(args, |name| flag_names(accepted).any(|a| a == (name, true)));
    if let Some(bad) = flags
        .names()
        .find(|n| !flag_names(accepted).any(|(a, _)| a == *n))
    {
        return Err(format!("unknown flag --{bad} for 'rkr {cmd}'"));
    }
    if let Some(extra) = flags.positional.get(arity.saturating_add(1)) {
        return Err(format!("unexpected argument '{extra}' for 'rkr {cmd}'"));
    }
    handler(&flags)
}

fn graph_arg(flags: &Flags) -> Result<Graph, String> {
    let path = flags
        .positional
        .get(1)
        .ok_or("missing graph file argument")?;
    load_graph(path).map_err(|e| format!("cannot load {path}: {e}"))
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let kind = flags.positional.get(1).ok_or("gen needs a dataset kind")?;
    let scale = Scale::parse(flags.get("scale").unwrap_or("tiny"))
        .ok_or("bad --scale (tiny|small|medium|large)")?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let out = PathBuf::from(flags.get("out").ok_or("gen needs --out FILE")?);
    let g = match kind.as_str() {
        "dblp" => dblp_like(scale, seed),
        "epinions" => epinions_like(scale, seed),
        "road" => {
            let net = sf_like(scale, seed);
            println!(
                "# note: store markings are not stored in the edge list; first store ids: {:?}",
                &net.stores[..net.stores.len().min(8)]
            );
            net.graph
        }
        other => return Err(format!("unknown dataset kind '{other}'")),
    };
    save_graph(&g, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} edges, {})",
        out.display(),
        g.num_nodes(),
        g.num_edges(),
        if g.is_directed() {
            "directed"
        } else {
            "undirected"
        }
    );
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let g = graph_arg(flags)?;
    println!("nodes:      {}", g.num_nodes());
    println!("edges:      {}", g.num_edges());
    println!("directed:   {}", g.is_directed());
    println!("connected:  {}", is_weakly_connected(&g));
    if let Some(d) = degree_stats(&g) {
        println!(
            "degree:     min {} / median {} / mean {:.2} / p99 {} / max {}",
            d.min, d.median, d.mean, d.p99, d.max
        );
    }
    if let Some(w) = weight_stats(&g) {
        println!(
            "weights:    min {:.4} / mean {:.4} / max {:.4}",
            w.min, w.mean, w.max
        );
    }
    Ok(())
}

fn cmd_build_index(flags: &Flags) -> Result<(), String> {
    let g = graph_arg(flags)?;
    let out = flags.get("out").ok_or("build-index needs --out FILE")?;
    let strategy = match flags.get("strategy").unwrap_or("degree") {
        "random" => HubStrategy::Random,
        "degree" => HubStrategy::DegreeFirst,
        "closeness" => HubStrategy::ClosenessFirst,
        other => return Err(format!("unknown strategy '{other}'")),
    };
    let params = IndexParams {
        hub_fraction: flags.get_parsed("h", 0.1)?,
        prefix_fraction: flags.get_parsed("m", 0.1)?,
        k_max: flags.get_parsed("kmax", 100)?,
        strategy,
        ..Default::default()
    };
    let threads: usize = flags.get_parsed("threads", 1)?;
    let (index, stats) = RkrIndex::build_parallel(&g, QuerySpec::Mono, &params, threads.max(1));
    save_index(&index, out).map_err(|e| e.to_string())?;
    println!(
        "built index: {stats} ({} rrd entries, ~{} bytes) -> {out}",
        index.rrd_entries(),
        index.heap_bytes()
    );
    Ok(())
}

fn cmd_batch(flags: &Flags) -> Result<(), String> {
    let count: usize = flags.get_parsed("queries", 100)?;
    let k: u32 = flags.get_parsed("k", 10)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let threads: usize =
        flags
            .get_parsed("threads", 0)
            .map(|t: usize| if t == 0 { runner::default_threads() } else { t })?;
    let strategy: Strategy = flags.get("algo").unwrap_or("dynamic").parse()?;
    // Validate the index and thread flags before loading the graph.
    let indexed = match strategy {
        Strategy::Indexed(bounds) => {
            reject_unread(
                flags,
                &["threads"],
                &format!("with --algo {strategy} (the §5 stream runs on one thread)"),
            )?;
            Some(bounds)
        }
        _ => {
            reject_unread(
                flags,
                &["index"],
                &format!("with --algo {strategy} (only indexed-* strategies use an index)"),
            )?;
            None
        }
    };
    let g = graph_arg(flags)?;
    let queries = random_queries(&g, count, seed, |_| true);
    // One Arc for the whole batch: the drivers share it instead of
    // deep-cloning the CSR per call.
    let g = std::sync::Arc::new(g);
    // Index preparation happens outside the timed region so wall time and
    // throughput measure serving only, comparable across --algo values.
    let (out, detail, wall) = match indexed {
        None => {
            let start = Instant::now();
            let out = run_batch(
                std::sync::Arc::clone(&g),
                None,
                &queries,
                k,
                strategy,
                threads,
            )
            .map_err(|e| e.to_string())?;
            (
                out,
                format!("{strategy}, {threads} threads"),
                start.elapsed(),
            )
        }
        Some(bounds) => {
            let mut index = match flags.get("index") {
                Some(path) => load_index_for_edge_file(path)?,
                None => {
                    eprintln!("(no --index given; building a default one)");
                    let params = IndexParams {
                        k_max: k.max(IndexParams::default().k_max),
                        ..Default::default()
                    };
                    let (index, stats) =
                        EngineContext::new(std::sync::Arc::clone(&g)).build_index(&params);
                    eprintln!("({stats})");
                    index
                }
            };
            let start = Instant::now();
            let out = run_indexed_batch(
                std::sync::Arc::clone(&g),
                None,
                &mut index,
                &queries,
                k,
                bounds,
            )
            .map_err(|e| e.to_string())?;
            (out, format!("{strategy}, one stream"), start.elapsed())
        }
    };
    let p = out.latency_percentiles();
    println!("batch: {} queries, k={k} ({detail})", out.queries);
    println!("wall time:    {wall:.2?}");
    println!("throughput:   {:.1} queries/s", out.throughput(wall));
    println!(
        "latency:      mean {:.3}ms / p50 {:.3}ms / p95 {:.3}ms / p99 {:.3}ms",
        out.mean_seconds() * 1e3,
        p.p50 * 1e3,
        p.p95 * 1e3,
        p.p99 * 1e3
    );
    println!(
        "work:         {:.1} refinements/query, {} bound-pruned, {} index hits",
        out.mean_refinements(),
        out.totals.pruned_by_bound,
        out.totals.index_exact_hits
    );
    Ok(())
}

/// Fail on an index flag the run would not read instead of ignoring it,
/// before any work starts.
fn reject_unread(flags: &Flags, unread: &[&str], why: &str) -> Result<(), String> {
    match flags.names().find(|given| unread.contains(given)) {
        Some(name) => Err(format!("--{name} has no effect {why}")),
        None => Ok(()),
    }
}

/// Load an `--index` file for use against a plain edge file. An index
/// learned on an evolved graph (graph epoch > 0, tagged in its `v2`
/// header) describes that evolved graph, not the edge file it was
/// originally built from — pairing them would serve unsound exact-rank
/// hits and check prunes, so refuse loudly.
fn load_index_for_edge_file(path: &str) -> Result<RkrIndex, String> {
    let index = load_index(path).map_err(|e| e.to_string())?;
    if index.graph_epoch() > 0 {
        return Err(format!(
            "{path} was learned at graph epoch {} (a live-updated graph) and does not \
             describe any plain edge file; restart from the snapshot bundle instead \
             (rkr serve --snapshot FILE)",
            index.graph_epoch()
        ));
    }
    Ok(index)
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    // Logging first: a bad level should fail before any work, and the
    // level must be set before the daemon can emit anything.
    let log_level: LogLevel = flags.get_parsed("log-level", LogLevel::Warn)?;
    rkranks_server::log::set_level(log_level);
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");
    let workers: usize = flags.get_parsed("workers", 4)?;
    let cache: usize = flags.get_parsed("cache", 4096)?;
    let snapshot = flags.get("snapshot").map(PathBuf::from);
    // Resolve the serving state. An existing --snapshot bundle wins: it
    // restores the exact pre-shutdown state (committed graph, index,
    // epoch pair, staged WAL). Otherwise start fresh from the edge
    // file; a configured-but-missing bundle is created at the first
    // checkpoint (load-or-create).
    let (store, index) = match &snapshot {
        Some(path) if path.exists() => {
            let (store, index) = load_snapshot(path)
                .map_err(|e| format!("cannot restore snapshot {}: {e}", path.display()))?;
            println!(
                "restored snapshot {} (graph epoch {}, index epoch {}, {} nodes / {} edges, \
                 {} staged WAL delta(s)){}",
                path.display(),
                store.graph_epoch(),
                index.epoch(),
                store.snapshot().num_nodes(),
                store.snapshot().num_edges(),
                store.pending_deltas(),
                if flags.positional.get(1).is_some() {
                    " — the bundle's graph wins over the edge-file argument"
                } else {
                    ""
                }
            );
            (store, index)
        }
        _ => {
            // No query reads the daemon's index; it starts empty and only
            // rides along in checkpoints.
            let g = graph_arg(flags)?;
            let index = RkrIndex::empty(g.num_nodes(), IndexParams::default().k_max);
            (GraphStore::new(g), index)
        }
    };
    let shard = parse_shard_identity(flags)?;
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: workers.max(1),
        cache_capacity: cache,
        merge_every: defaults.merge_every,
        bounds: BoundConfig::ALL,
        snapshot: snapshot.clone(),
        write_high_water: flags.get_parsed("high-water", defaults.write_high_water)?,
        max_line_bytes: flags.get_parsed("max-line", defaults.max_line_bytes)?,
        slow_query_ms: match flags.get("slow-query-ms") {
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| format!("bad value for --slow-query-ms: '{v}'"))?,
            ),
            None => None,
        },
        shard,
    };
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    if let Some(s) = &config.shard {
        println!(
            "serving as shard {}/{} (seed {:#x}): full graph loaded, every answer complete",
            s.index(),
            s.shards(),
            s.seed()
        );
    }
    println!(
        "rkrd listening on {local} (epoll event loop, {} workers, cache {}, serving \
         dynamic-three)",
        config.workers,
        if cache > 0 {
            cache.to_string()
        } else {
            "off".into()
        },
    );
    let outcome = rkranks_server::serve_store(store, None, index, listener, &config);
    println!(
        "rkrd stopped (graph epoch {}, {} nodes / {} edges)",
        outcome.graph_epoch,
        outcome.graph.num_nodes(),
        outcome.graph.num_edges(),
    );
    if let Some(path) = &snapshot {
        println!("serving state checkpointed to {}", path.display());
    }
    Ok(())
}

/// Resolve `--shard-id` / `--shard-count` / `--shard-seed` into the
/// daemon's shard identity. The three flags travel together: a lone
/// `--shard-seed` (or a missing half of the id/count pair) is a config
/// mistake, and a daemon silently serving without an identity when the
/// operator meant shard 3-of-8 would only surface at the coordinator.
fn parse_shard_identity(flags: &Flags) -> Result<Option<ShardSlice>, String> {
    match (flags.get("shard-id"), flags.get("shard-count")) {
        (None, None) => {
            if flags.get("shard-seed").is_some() {
                return Err("--shard-seed needs --shard-id and --shard-count".into());
            }
            Ok(None)
        }
        (Some(_), None) | (None, Some(_)) => {
            Err("--shard-id and --shard-count must be given together".into())
        }
        (Some(_), Some(_)) => {
            let index: u32 = flags.get_parsed("shard-id", 0)?;
            let count: u32 = flags.get_parsed("shard-count", 0)?;
            let seed: u64 = flags.get_parsed("shard-seed", 0)?;
            if count == 0 {
                return Err("--shard-count must be at least 1".into());
            }
            if index >= count {
                return Err(format!(
                    "--shard-id {index} is out of range for --shard-count {count} \
                     (ids run 0..{count})"
                ));
            }
            Ok(Some(ShardSlice::new(index, count, seed)))
        }
    }
}

/// `rkr shard-plan`: preview which replica the deterministic
/// consistent-hash map names as each node's owner — per-shard counts, the
/// imbalance they imply, and copy-pasteable `serve`/`coord` commands.
fn cmd_shard_plan(flags: &Flags) -> Result<(), String> {
    let g = graph_arg(flags)?;
    let shards: u32 = flags.get_parsed("shards", 0)?;
    if shards == 0 {
        return Err("shard-plan needs --shards N (at least 1)".into());
    }
    let seed: u64 = flags.get_parsed("seed", 0)?;
    let map = ShardMap::new(shards, seed);
    let profile = map.load_profile(g.num_nodes());
    let total = g.num_nodes() as f64;
    let ideal = total / shards as f64;
    println!(
        "shard plan for {} nodes over {shards} shard(s), seed {seed:#x} (jump consistent hash):",
        g.num_nodes()
    );
    for (i, &owned) in profile.iter().enumerate() {
        println!(
            "  shard {i:>3}: {owned:>10} nodes owned ({:>6.2}%, {:+.2}% vs even split)",
            owned as f64 / total * 100.0,
            (owned as f64 - ideal) / ideal * 100.0
        );
    }
    let max = profile.iter().copied().max().unwrap_or(0);
    println!(
        "  largest shard owns {max} nodes ({:.3}x the even split)",
        max as f64 / ideal
    );
    let edges = flags
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or("graph.edges");
    println!("\ndeploy it (every shard loads the full graph):");
    for i in 0..shards {
        println!(
            "  rkr serve {edges} --addr HOST:PORT{i} --shard-id {i} --shard-count {shards} \
             --shard-seed {seed}"
        );
    }
    let fleet: Vec<String> = (0..shards).map(|i| format!("HOST:PORT{i}")).collect();
    println!("  rkr coord --shards {}", fleet.join(","));
    Ok(())
}

/// `rkr coord`: run the coordinator in the foreground
/// (`rkr ctl ADDR shutdown` stops it, same as the daemon).
fn cmd_coord(flags: &Flags) -> Result<(), String> {
    let log_level: LogLevel = flags.get_parsed("log-level", LogLevel::Warn)?;
    rkranks_server::log::set_level(log_level);
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7900");
    let shards: Vec<String> = flags
        .get("shards")
        .ok_or("coord needs --shards ADDR,ADDR,... (one per shard, in shard-id order)")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if shards.is_empty() {
        return Err("--shards names no addresses".into());
    }
    let mut config = rkranks_coord::CoordConfig::new(shards);
    config.max_line_bytes = flags.get_parsed("max-line", config.max_line_bytes)?;
    if let Some(v) = flags.get("shard-timeout-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("bad value for --shard-timeout-ms: '{v}'"))?;
        if ms == 0 {
            return Err("--shard-timeout-ms must be at least 1".into());
        }
        config.shard_reply_timeout = std::time::Duration::from_millis(ms);
    }
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "rkrd coordinator listening on {local}, fronting {} shard(s): {}",
        config.shards.len(),
        config.shards.join(", ")
    );
    rkranks_coord::serve_coord(listener, config).map_err(|e| e.to_string())?;
    println!("coordinator stopped");
    Ok(())
}

/// One update in the write-ahead log's grammar
/// ([`GraphDelta::parse_wal_line`]); `add-edge` and `rm-edge`, the
/// `rkr ctl` spellings, stand for `add` and `rm`.
fn parse_update(text: &str) -> Result<GraphDelta, String> {
    let (op, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    let op = match op {
        "add-edge" => "add",
        "rm-edge" => "rm",
        op => op,
    };
    match GraphDelta::parse_wal_line(&format!("{op} {rest}"), 0) {
        Err(GraphError::Parse { message, .. }) => Err(format!("'{text}': {message}")),
        parsed => parsed.map_err(|e| e.to_string()),
    }
}

fn cmd_update(flags: &Flags) -> Result<(), String> {
    let addr = flags.positional.get(1).ok_or("update needs a HOST:PORT")?;
    let path = flags.get("from").ok_or("update needs --from FILE")?;
    // Default: the whole file in ONE update request, so the server's
    // all-or-nothing batch validation covers the entire stream. An
    // explicit --batch opts into chunked requests for huge streams —
    // atomic per chunk only, so a mid-stream rejection leaves earlier
    // chunks staged (the error message then says so).
    let batch: usize = flags.get_parsed("batch", usize::MAX)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut ops = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        ops.push(parse_update(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
    }
    if ops.is_empty() {
        return Err(format!("{path} contains no update ops"));
    }
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut staged_total = 0u64;
    for chunk in ops.chunks(batch) {
        let (staged, _) = client.update(chunk).map_err(|e| {
            if staged_total > 0 {
                format!(
                    "{e} ({staged_total} updates from earlier --batch chunks were accepted \
                     and are not rolled back)"
                )
            } else {
                format!("{e} (nothing was staged)")
            }
        })?;
        staged_total += staged;
    }
    // A prompt daemon has committed every chunk already; the flush commits
    // what a flush-only one still holds.
    client.flush().map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!(
        "applied {staged_total} updates (graph epoch {}, {} nodes / {} edges)",
        stats.graph_epoch, stats.graph_nodes, stats.graph_edges
    );
    Ok(())
}

fn cmd_ctl(flags: &Flags) -> Result<(), String> {
    let addr = flags.positional.get(1).ok_or("ctl needs a HOST:PORT")?;
    let op = flags
        .positional
        .get(2)
        .ok_or("ctl needs an operation (stats|metrics|slow-queries|flush|checkpoint|shutdown)")?;
    // Every argument is checked before connecting: an update is parsed, so
    // a bad one never reaches the daemon, and a token no operation would
    // read fails the run.
    let update = match op.as_str() {
        "stats" | "metrics" | "slow-queries" | "flush" | "checkpoint" | "shutdown" => {
            if let Some(extra) = flags.positional.get(3) {
                return Err(format!(
                    "unexpected argument '{extra}' for 'rkr ctl ADDR {op}'"
                ));
            }
            None
        }
        "add-edge" | "rm-edge" | "reweight" | "add-node" => {
            Some(parse_update(&flags.positional[2..].join(" "))?)
        }
        other => return Err(format!("unknown ctl operation '{other}'")),
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match op.as_str() {
        "stats" => {
            if flags.has("json") {
                let line = client.raw(&Request::Stats).map_err(|e| e.to_string())?;
                println!("{line}");
                return Ok(());
            }
            let s = client.stats().map_err(|e| e.to_string())?;
            // The digest rides on `hello`, not `stats`: a coordinator
            // reports the one its fleet last agreed on.
            let digest = match client.hello().map_err(|e| e.to_string())?.graph_digest {
                Some(d) => format!("{d:016x}"),
                None => "not yet verified".into(),
            };
            println!("queries:        {}", s.queries);
            println!(
                "cache:          {} hits / {} misses ({} entries, capacity {}, ~{} bytes)",
                s.cache_hits, s.cache_misses, s.cache_entries, s.cache_capacity, s.cache_bytes
            );
            println!(
                "evictions:      {} lru, {} stale",
                s.cache_evictions, s.cache_stale_evicted
            );
            println!(
                "graph:          epoch {} ({} nodes, {} edges), digest {digest}",
                s.graph_epoch, s.graph_nodes, s.graph_edges
            );
            println!(
                "updates:        {} applied over {} commits",
                s.updates_applied, s.graph_commits
            );
            println!("index epoch:    {}", s.epoch);
            println!("merges:         {}", s.merges);
            println!("workers:        {}", s.workers);
            println!("event loop:     {} wakeups", s.wakeups);
            println!(
                "flow control:   {} backpressure pauses, {} oversize lines, {} accept errors",
                s.backpressure_pauses, s.oversize_lines, s.accept_errors
            );
        }
        "metrics" => {
            if flags.has("json") {
                let line = client.raw(&Request::Metrics).map_err(|e| e.to_string())?;
                println!("{line}");
                return Ok(());
            }
            let snap = client.metrics().map_err(|e| e.to_string())?;
            if flags.has("prom") {
                print!("{}", render_prometheus(&snap));
            } else {
                print_metrics_table(&snap);
            }
        }
        "slow-queries" => {
            if flags.has("json") {
                let line = client
                    .raw(&Request::SlowQueries)
                    .map_err(|e| e.to_string())?;
                println!("{line}");
                return Ok(());
            }
            let records = client.slow_queries().map_err(|e| e.to_string())?;
            if records.is_empty() {
                println!("no slow queries captured (is the daemon running with --slow-query-ms?)");
                return Ok(());
            }
            println!("{} slow quer(ies), oldest first:", records.len());
            for r in &records {
                println!(
                    "  node {:>8} k {:>4}  {:>9.3}ms (filter {:.3}ms, refine {:.3}ms, \
                     {} passes to kRank guess {}) {}{} epoch {}/{}",
                    r.node,
                    r.k,
                    r.total_ns as f64 / 1e6,
                    r.filter_ns as f64 / 1e6,
                    r.refine_ns as f64 / 1e6,
                    r.sds_passes,
                    guess_label(r.k_rank_guess),
                    if r.cached { "cached " } else { "" },
                    r.completion,
                    r.epoch,
                    r.graph_epoch,
                );
            }
        }
        "flush" => {
            let (epoch, merged) = client.flush().map_err(|e| e.to_string())?;
            println!("flushed: committed {merged} staged deltas (index epoch {epoch})");
        }
        "checkpoint" => {
            let (epoch, graph_epoch) = client.checkpoint().map_err(|e| e.to_string())?;
            println!("checkpointed (index epoch {epoch}, graph epoch {graph_epoch})");
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("rkrd at {addr} shut down");
        }
        op => {
            // single-op update path: stage it, then flush so the effect
            // is visible to the next query
            let update = update.expect("an update op was parsed above");
            client.update(&[update]).map_err(|e| e.to_string())?;
            client.flush().map_err(|e| e.to_string())?;
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!(
                "applied {op} (graph epoch {}, {} nodes / {} edges)",
                stats.graph_epoch, stats.graph_nodes, stats.graph_edges
            );
        }
    }
    Ok(())
}

/// The human `rkr ctl ADDR metrics` view: one line per instrument, with
/// quantile summaries for histograms. Histograms that never recorded are
/// skipped (a daemon without deadlines never fills the
/// `rkrd_query_seconds{outcome="partial"}` member); `--prom` and `--json`
/// expose everything.
fn print_metrics_table(snap: &MetricsSnapshot) {
    for s in &snap.samples {
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            let inner: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{{{}}}", inner.join(","))
        };
        match &s.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                println!("{}{labels}  {v}", s.name);
            }
            MetricValue::Histogram(h) => {
                if h.count == 0 {
                    continue;
                }
                // Nanosecond histograms carry scale 1e-9 and read as
                // seconds; raw ones (bytes) carry scale 1 and read as-is.
                let q = |p: f64| h.quantile(p) as f64 * h.scale;
                let fmt = |v: f64| {
                    if h.scale == 1.0 {
                        format!("{v:.0}")
                    } else {
                        format!("{:.3}ms", v * 1e3)
                    }
                };
                println!(
                    "{}{labels}  count {}  mean {}  p50 {}  p95 {}  p99 {}",
                    s.name,
                    h.count,
                    fmt(h.scaled_sum() / h.count as f64),
                    fmt(q(0.50)),
                    fmt(q(0.95)),
                    fmt(q(0.99)),
                );
            }
        }
    }
}

fn cmd_query_remote(flags: &Flags, addr: &str) -> Result<(), String> {
    let node: u32 = flags.get_parsed("node", u32::MAX)?;
    if node == u32::MAX {
        return Err("query needs --node Q".into());
    }
    let k: u32 = flags.get_parsed("k", 10)?;
    reject_unread(
        flags,
        &["index", "save-index"],
        "with --remote (the daemon reads no index)",
    )?;
    reject_unread(
        flags,
        &["algo"],
        "with --remote (rkrd serves dynamic-three only; run other strategies \
         in-process with rkr query or rkr batch)",
    )?;
    if let Some(graph) = flags.positional.get(1) {
        return Err(format!(
            "a graph file ('{graph}') has no effect with --remote (the daemon holds its own)"
        ));
    }
    // The wire protocol carries deadline_ms; a silently dropped budget
    // would look like an unbounded query, so refuse it.
    if flags.get("refine-budget").is_some() {
        return Err(
            "--refine-budget is not supported over --remote (the wire protocol carries \
             --deadline-ms only)"
                .into(),
        );
    }
    let deadline_ms = match flags.get("deadline-ms") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("bad value for --deadline-ms: '{v}'"))?,
        ),
        None => None,
    };
    let opts = QueryOptions {
        cache: !flags.has("no-cache"),
        deadline_ms,
    };
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let start = Instant::now();
    let reply = client
        .query_opts(node, k, &opts)
        .map_err(|e| e.to_string())?;
    println!(
        "reverse {k}-ranks of node {node} (remote {addr}, {:.2?}, cached: {}, graph epoch {}, \
         index epoch {}{}):",
        start.elapsed(),
        reply.cached,
        reply.graph_epoch,
        reply.epoch,
        if reply.partial {
            ", PARTIAL (deadline exceeded)"
        } else {
            ""
        }
    );
    for (n, rank) in &reply.entries {
        println!("  node {n:>8}  rank {rank}");
    }
    Ok(())
}

/// Human form of `QueryStats::k_rank_guess`.
fn guess_label(guess: u32) -> String {
    match guess {
        0 => "none".to_string(),
        u32::MAX => "unbounded".to_string(),
        g => g.to_string(),
    }
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    if let Some(addr) = flags.get("remote") {
        return cmd_query_remote(flags, addr);
    }
    let strategy: Strategy = flags.get("algo").unwrap_or("dynamic").parse()?;
    if !strategy.needs_index() {
        reject_unread(
            flags,
            &["index", "save-index"],
            &format!("with --algo {strategy} (only indexed-* strategies use an index)"),
        )?;
    } else if flags.has("save-index") && flags.get("index").is_none() {
        return Err("--save-index needs --index FILE to write the index back to".into());
    }
    let g = graph_arg(flags)?;
    let node: u32 = flags.get_parsed("node", u32::MAX)?;
    if node == u32::MAX {
        return Err("query needs --node Q".into());
    }
    let k: u32 = flags.get_parsed("k", 10)?;
    let mut req = QueryRequest::new(NodeId(node), k).with_strategy(strategy);
    if let Some(ms) = flags.get("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad value for --deadline-ms: '{ms}'"))?;
        req = req.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(budget) = flags.get("refine-budget") {
        let budget: u64 = budget
            .parse()
            .map_err(|_| format!("bad value for --refine-budget: '{budget}'"))?;
        req = req.with_refine_budget(budget);
    }
    if flags.has("trace") {
        req = req.with_trace();
    }
    let mut engine = QueryEngine::new(g);
    let start = Instant::now();
    let (outcome, index_to_save): (QueryOutcome, Option<RkrIndex>) = if strategy.needs_index() {
        let mut index = match flags.get("index") {
            Some(path) => load_index_for_edge_file(path)?,
            None => {
                eprintln!("(no --index given; building a default one)");
                let (index, stats) = engine.build_index(&IndexParams::default());
                eprintln!("({stats})");
                index
            }
        };
        let out = engine
            .execute_with(Some(&mut rkranks_core::IndexAccess::Live(&mut index)), &req)
            .map_err(|e| e.to_string())?;
        (out, Some(index))
    } else {
        (engine.execute(&req).map_err(|e| e.to_string())?, None)
    };
    let result = &outcome.result;
    println!(
        "reverse {k}-ranks of node {node} ({strategy}, {:.2?}):",
        start.elapsed()
    );
    for e in &result.entries {
        println!("  node {:>8}  rank {}", e.node.to_string(), e.rank);
    }
    if let Completion::Partial {
        reason,
        k_rank_bound,
    } = outcome.completion
    {
        println!(
            "PARTIAL result ({reason}): entries above are exact; the complete \
             answer's k-th rank is at most {}",
            if k_rank_bound == u32::MAX {
                "unbounded".to_string()
            } else {
                k_rank_bound.to_string()
            }
        );
    }
    println!(
        "stats: {} refinements ({} pruned early), {} bound-pruned, {} index hits",
        result.stats.refinement_calls,
        result.stats.refinements_pruned,
        result.stats.pruned_by_bound,
        result.stats.index_exact_hits
    );
    if result.stats.sds_passes > 0 {
        println!(
            "ladder: {} passes, {} refinement settles, {} pushes and {} requeues in all \
             ({} refinements anchored, {} pendant offers); accepted kRank guess {}",
            result.stats.sds_passes,
            result.stats.refinement_settles,
            result.stats.refinement_pushes,
            result.stats.refinement_requeues,
            result.stats.anchored_refinements,
            result.stats.pendant_offers,
            guess_label(result.stats.k_rank_guess)
        );
    }
    if let Some(trace) = &outcome.trace {
        println!("decision trace:");
        print!("{}", trace.render(None));
    }
    if flags.has("save-index") {
        if let (Some(index), Some(path)) = (index_to_save, flags.get("index")) {
            save_index(&index, path).map_err(|e| e.to_string())?;
            println!("updated index written back to {path}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--flag` names USAGE shows for each command, continuation lines
    /// included, each with whether it is a switch: shown with no value
    /// after it (`[--trace]`, `[--prom|--json]`).
    fn usage_flags() -> Vec<(&'static str, Vec<(&'static str, bool)>)> {
        let mut out: Vec<(&str, Vec<(&str, bool)>)> = Vec::new();
        let mut current = None;
        for line in USAGE.lines() {
            if let Some(rest) = line.strip_prefix("  rkr ") {
                let cmd = rest.split_whitespace().next().unwrap();
                if !out.iter().any(|(c, _)| *c == cmd) {
                    out.push((cmd, Vec::new()));
                }
                current = out.iter().position(|(c, _)| *c == cmd);
            } else if !line.starts_with("            ") {
                current = None;
            }
            let Some(i) = current else { continue };
            for (at, _) in line.match_indices("--") {
                let name = &line[at + 2..];
                let end = name
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(name.len());
                let flag = (&name[..end], name[end..].starts_with([']', '|']));
                if !out[i].1.contains(&flag) {
                    out[i].1.push(flag);
                }
            }
        }
        out
    }

    #[test]
    fn usage_and_the_accepted_flag_lists_agree() {
        let usage = usage_flags();
        let commands: Vec<&str> = usage.iter().map(|(c, _)| *c).collect();
        let listed: Vec<&str> = COMMANDS.iter().map(|(c, _, _, _)| *c).collect();
        assert_eq!(
            commands, listed,
            "USAGE and COMMANDS name different commands"
        );
        for ((cmd, shown), (_, _, _, accepted)) in usage.iter().zip(&COMMANDS) {
            let accepted: Vec<(&str, bool)> = flag_names(accepted).collect();
            for flag in shown {
                assert!(
                    accepted.contains(flag),
                    "USAGE shows --{} for {cmd} (a switch: {})",
                    flag.0,
                    flag.1
                );
            }
            for flag in &accepted {
                assert!(
                    shown.contains(flag),
                    "{cmd} accepts --{} (a switch: {}), USAGE omits it",
                    flag.0,
                    flag.1
                );
            }
        }
    }

    /// A switch leaves the next argument positional; a valued flag takes
    /// it, unless it is a flag itself.
    #[test]
    fn a_switch_never_takes_the_next_argument() {
        let args = "query g --trace extra --k 3 --save-index --node --no-cache x";
        let args = args.split(' ').map(String::from).collect();
        let flags = Flags::parse(args, |n| ["trace", "save-index", "no-cache"].contains(&n));
        assert_eq!(flags.positional, ["query", "g", "extra", "x"]);
        assert_eq!(flags.get("k"), Some("3"));
        assert!(flags.has("trace") && flags.has("save-index") && flags.has("no-cache"));
        assert!(
            flags.has("node"),
            "a valued flag followed by a flag has no value"
        );
    }

    /// A command reads as many positional arguments as the `<…>`
    /// placeholders on its first USAGE line (`ctl`'s operation decides
    /// its own count).
    #[test]
    fn usage_and_the_positional_arities_agree() {
        for (cmd, _, arity, _) in COMMANDS.iter().filter(|c| c.0 != "ctl") {
            let prefix = format!("  rkr {cmd} ");
            let line = USAGE.lines().find(|l| l.starts_with(&prefix)).unwrap();
            assert_eq!(line.matches('<').count(), *arity, "{line}");
        }
    }
}
