//! End-to-end smoke test of the serving path through the real `rkr`
//! binary: start `rkrd` on an ephemeral port, query it remotely, check the
//! result is rank-identical to the in-process dynamic query, exercise the
//! cache, the control ops, live updates (single ops and one file batch
//! that patches a hub's row), metrics and a snapshot restart, and shut it
//! down cleanly. CI's loopback smoke job runs this suite in release
//! mode.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

mod common;
use common::{assert_equivalent, parse_result, rkr, rkr_ok};

/// Kills the daemon on drop so a failing assertion never leaks a process.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rkr-serve-smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn remote_queries_match_in_process_and_shutdown_is_clean() {
    let dir = temp_dir("loop");
    rkr_ok(
        &dir,
        &[
            "gen", "dblp", "--scale", "tiny", "--seed", "7", "--out", "g.edges",
        ],
    );

    // start the daemon on an ephemeral port and scrape the bound address
    let mut child = Command::new(env!("CARGO_BIN_EXE_rkr"))
        .current_dir(&dir)
        .args([
            "serve",
            "g.edges",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache",
            "256",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("failed to spawn rkrd");
    let stdout = child.stdout.take().expect("rkrd stdout piped");
    let mut guard = DaemonGuard(child);
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("rkrd banner");
    assert!(
        banner.contains("epoll event loop"),
        "banner must announce the event loop: {banner:?}"
    );
    let addr = banner
        .split_whitespace()
        .find(|tok| tok.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .to_string();

    // remote vs in-process: rank-identical (tie-aware)
    for node in ["0", "5", "17"] {
        let remote = rkr_ok(
            &dir,
            &["query", "--remote", &addr, "--node", node, "--k", "4"],
        );
        let local = rkr_ok(
            &dir,
            &[
                "query", "g.edges", "--node", node, "--k", "4", "--algo", "dynamic",
            ],
        );
        assert_equivalent(
            &format!("node {node}"),
            &parse_result(&remote),
            &parse_result(&local),
        );
    }

    // a repeat of the last query is served from the cache
    let repeat = rkr_ok(
        &dir,
        &["query", "--remote", &addr, "--node", "17", "--k", "4"],
    );
    assert!(repeat.contains("cached: true"), "expected a hit:\n{repeat}");

    // control plane: stats shows traffic and the event-loop and
    // flow-control counters, flush reports an epoch
    let stats = rkr_ok(&dir, &["ctl", &addr, "stats"]);
    for section in [
        "queries:",
        "epoch:",
        "graph:",
        "event loop:",
        "flow control:",
    ] {
        assert!(stats.contains(section), "no {section:?} in:\n{stats}");
    }
    let flush = rkr_ok(&dir, &["ctl", &addr, "flush"]);
    assert!(flush.contains("epoch"), "{flush}");

    // live update round-trip: a new node at distance 0.01 from node 17
    // has rank 1 and must change that query's answer
    let before = parse_result(&rkr_ok(
        &dir,
        &["query", "--remote", &addr, "--node", "17", "--k", "4"],
    ));
    let graph_stats = rkr_ok(&dir, &["stats", "g.edges"]);
    let nodes: u32 = graph_stats
        .lines()
        .find_map(|l| l.strip_prefix("nodes:"))
        .expect("stats prints the node count")
        .trim()
        .parse()
        .unwrap();
    rkr_ok(&dir, &["ctl", &addr, "add-node"]);
    rkr_ok(
        &dir,
        &["ctl", &addr, "add-edge", "17", &nodes.to_string(), "0.01"],
    );
    let after_raw = rkr_ok(
        &dir,
        &["query", "--remote", &addr, "--node", "17", "--k", "4"],
    );
    assert!(
        after_raw.contains("graph epoch 2"),
        "two ctl commits must reach graph epoch 2:\n{after_raw}"
    );
    assert!(
        after_raw.contains("cached: false"),
        "a graph commit must strand the cached answer:\n{after_raw}"
    );
    let after = parse_result(&after_raw);
    assert_ne!(before, after, "the committed update must change the answer");
    assert!(
        after.contains_key(&nodes),
        "the new nearest node must enter the result: {after:?}"
    );
    // ...and the updated daemon must agree with an in-process rebuild of
    // the updated edge list
    let edges = std::fs::read_to_string(dir.join("g.edges")).unwrap();
    let mut lines = edges.lines();
    let header = lines.next().unwrap();
    let mut rebuilt = format!("undirected {}\n", nodes + 1);
    assert!(header.starts_with("undirected"), "{header}");
    for l in lines {
        rebuilt.push_str(l);
        rebuilt.push('\n');
    }
    rebuilt.push_str(&format!("17 {nodes} 0.01\n"));
    std::fs::write(dir.join("g2.edges"), rebuilt).unwrap();
    let local = parse_result(&rkr_ok(
        &dir,
        &[
            "query", "g2.edges", "--node", "17", "--k", "4", "--algo", "dynamic",
        ],
    ));
    assert_equivalent("post-update node 17", &after, &local);

    // File-driven updates land as one commit: a batch that removes the
    // hub's heaviest edge, reweights its lightest past every other edge of
    // its row, and adds a node wired to the hub and to node 17 patches the
    // hub's row, its neighbours' rows and an appended row.
    let edge = |l: &str| -> (u32, u32, f64) {
        let mut it = l.split_whitespace().map(str::parse::<f64>);
        let mut next = || it.next().unwrap().unwrap();
        (next() as u32, next() as u32, next())
    };
    let mut degree = vec![0u32; nodes as usize];
    for (u, v, _) in edges.lines().skip(1).map(edge) {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let hub = (0..nodes)
        .max_by_key(|&n| (degree[n as usize], u32::MAX - n))
        .unwrap();
    assert_ne!(hub, 17, "the batch wires the new node to both");
    let hub_edges: Vec<(u32, u32, f64)> = edges
        .lines()
        .skip(1)
        .map(edge)
        .filter(|&(u, v, _)| u == hub || v == hub)
        .collect();
    let by_weight = |a: &&(u32, u32, f64), b: &&(u32, u32, f64)| a.2.total_cmp(&b.2);
    let (rw_u, rw_v, _) = *hub_edges.iter().min_by(by_weight).unwrap();
    let (rm_u, rm_v, _) = *hub_edges.iter().max_by(by_weight).unwrap();
    let new = nodes + 1;
    std::fs::write(
        dir.join("ups.txt"),
        format!(
            "add-node\nadd {new} {hub} 0.05\nadd {new} 17 0.3\nrm {rm_u} {rm_v}\n\
             reweight {rw_u} {rw_v} 1.9\n"
        ),
    )
    .unwrap();
    let update_out = rkr_ok(&dir, &["update", &addr, "--from", "ups.txt"]);
    assert!(update_out.contains("applied 5 updates"), "{update_out}");
    let stats = rkr_ok(&dir, &["ctl", &addr, "stats"]);
    assert!(
        stats.contains(&format!("({} nodes", nodes + 2)),
        "rkr update --from did not land:\n{stats}"
    );
    let mut rebuilt = format!("undirected {}\n", nodes + 2);
    for l in std::fs::read_to_string(dir.join("g2.edges"))
        .unwrap()
        .lines()
        .skip(1)
    {
        match edge(l) {
            (u, v, _) if (u, v) == (rm_u, rm_v) => continue,
            (u, v, _) if (u, v) == (rw_u, rw_v) => rebuilt.push_str(&format!("{u} {v} 1.9\n")),
            _ => rebuilt.push_str(&format!("{l}\n")),
        }
    }
    rebuilt.push_str(&format!("{new} {hub} 0.05\n{new} 17 0.3\n"));
    std::fs::write(dir.join("g3.edges"), rebuilt).unwrap();
    for q in [17, hub, new].map(|n| n.to_string()) {
        let remote = rkr_ok(
            &dir,
            &["query", "--remote", &addr, "--node", &q, "--k", "4"],
        );
        assert!(
            remote.contains("graph epoch 3"),
            "the file batch must be one commit:\n{remote}"
        );
        let local = rkr_ok(
            &dir,
            &[
                "query", "g3.edges", "--node", &q, "--k", "4", "--algo", "dynamic",
            ],
        );
        assert_equivalent(
            &format!("file batch, node {q} (hub {hub})"),
            &parse_result(&remote),
            &parse_result(&local),
        );
    }

    // clean shutdown: the ctl op succeeds and the daemon exits 0
    rkr_ok(&dir, &["ctl", &addr, "shutdown"]);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = guard.0.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "rkrd did not exit after shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "rkrd exited with {status}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability end-to-end through the real binary: a daemon started with
/// `--snapshot` absorbs live updates, checkpoints, and shuts down, leaving
/// the bundle; a second daemon restarted from the bundle (no edge file at
/// all) announces the restore and serves rank-identical answers at the
/// same graph/index epochs and graph digest.
#[test]
fn snapshot_restart_serves_identical_answers() {
    let dir = temp_dir("restart");
    rkr_ok(
        &dir,
        &[
            "gen", "dblp", "--scale", "tiny", "--seed", "7", "--out", "g.edges",
        ],
    );

    // The reader must stay alive until the daemon exits: dropping it
    // closes the pipe and the daemon's shutdown banner would hit EPIPE.
    // The last field is what the daemon printed up to its address.
    type Daemon = (
        DaemonGuard,
        String,
        BufReader<std::process::ChildStdout>,
        String,
    );
    let spawn_daemon = |args: &[&str]| -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rkr"))
            .current_dir(&dir)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("failed to spawn rkrd");
        let stdout = child.stdout.take().expect("rkrd stdout piped");
        let guard = DaemonGuard(child);
        let mut reader = BufReader::new(stdout);
        // On restart a "restored snapshot ..." note precedes the listening
        // banner; scan a few lines for the bound address.
        let mut banner = String::new();
        for _ in 0..8 {
            reader.read_line(&mut banner).expect("rkrd banner");
            let last = banner.lines().last().unwrap_or_default();
            if let Some(tok) = last
                .split_whitespace()
                .find(|tok| tok.starts_with("127.0.0.1:"))
            {
                let addr = tok.to_string();
                return (guard, addr, reader, banner);
            }
        }
        panic!("rkrd never printed its bound address");
    };
    let wait_for_exit = |mut guard: DaemonGuard| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = guard.0.try_wait().expect("try_wait") {
                assert!(status.success(), "rkrd exited with {status}");
                return;
            }
            assert!(Instant::now() < deadline, "rkrd did not exit");
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let stat_field = |stats: &str, prefix: &str| -> String {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no '{prefix}' in stats:\n{stats}"))
            .trim()
            .to_string()
    };

    // First life: commit two live updates, checkpoint, shut down.
    let (guard, addr, _keep_stdout, _) = spawn_daemon(&[
        "serve",
        "g.edges",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--cache",
        "64",
        "--snapshot",
        "state.rkrsnap",
    ]);
    let graph_stats = rkr_ok(&dir, &["stats", "g.edges"]);
    let nodes: u32 = graph_stats
        .lines()
        .find_map(|l| l.strip_prefix("nodes:"))
        .expect("stats prints the node count")
        .trim()
        .parse()
        .unwrap();
    rkr_ok(&dir, &["ctl", &addr, "add-node"]);
    rkr_ok(
        &dir,
        &["ctl", &addr, "add-edge", "17", &nodes.to_string(), "0.01"],
    );
    let before_raw = rkr_ok(
        &dir,
        &["query", "--remote", &addr, "--node", "17", "--k", "4"],
    );
    assert!(before_raw.contains("graph epoch 2"), "{before_raw}");
    let before = parse_result(&before_raw);
    let checkpoint = rkr_ok(&dir, &["ctl", &addr, "checkpoint"]);
    assert!(
        checkpoint.contains("graph epoch 2"),
        "checkpoint must report the committed epoch pair:\n{checkpoint}"
    );
    let stats_before = rkr_ok(&dir, &["ctl", &addr, "stats"]);
    let index_epoch_before = stat_field(&stats_before, "index epoch:");
    let digest = |stats: &str| {
        stat_field(stats, "graph:")
            .rsplit(' ')
            .next()
            .unwrap()
            .to_string()
    };
    let digest_before = digest(&stats_before);
    assert!(
        digest_before.len() == 16 && digest_before.chars().all(|c| c.is_ascii_hexdigit()),
        "stats must print a 16-hex-digit graph digest:\n{stats_before}"
    );
    rkr_ok(&dir, &["ctl", &addr, "shutdown"]);
    wait_for_exit(guard);
    assert!(
        dir.join("state.rkrsnap").is_file(),
        "shutdown left no snapshot bundle"
    );

    // Second life: restart from the bundle alone — no edge file argument.
    let (guard, addr, _keep_stdout2, banner) = spawn_daemon(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--cache",
        "64",
        "--snapshot",
        "state.rkrsnap",
    ]);
    assert!(
        banner.contains("restored snapshot"),
        "the restart must announce the restore:\n{banner}"
    );
    let after_raw = rkr_ok(
        &dir,
        &["query", "--remote", &addr, "--node", "17", "--k", "4"],
    );
    assert!(
        after_raw.contains("graph epoch 2"),
        "the restart must resume at the pre-shutdown graph epoch:\n{after_raw}"
    );
    assert_equivalent("post-restart node 17", &parse_result(&after_raw), &before);
    let stats_after = rkr_ok(&dir, &["ctl", &addr, "stats"]);
    assert!(
        stat_field(&stats_after, "graph:").starts_with("epoch 2 "),
        "{stats_after}"
    );
    assert_eq!(
        stat_field(&stats_after, "index epoch:"),
        index_epoch_before,
        "the index epoch must survive the restart:\n{stats_after}"
    );
    assert_eq!(
        digest(&stats_after),
        digest_before,
        "the graph digest must survive the restart"
    );
    rkr_ok(&dir, &["ctl", &addr, "shutdown"]);
    wait_for_exit(guard);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Observability end-to-end through the real binary: metrics counters are
/// monotone across a query burst, the latency histograms account for
/// every query served, the `--prom` output passes a hand-rolled
/// Prometheus text-exposition check, and a `--slow-query-ms 0` daemon
/// captures the whole burst in its slow-query ring.
#[test]
fn metrics_scrape_is_monotone_and_prometheus_valid() {
    let dir = temp_dir("metrics");
    rkr_ok(
        &dir,
        &[
            "gen", "dblp", "--scale", "tiny", "--seed", "7", "--out", "g.edges",
        ],
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_rkr"))
        .current_dir(&dir)
        .args([
            "serve",
            "g.edges",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache",
            "64",
            "--slow-query-ms",
            "0",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("failed to spawn rkrd");
    let stdout = child.stdout.take().expect("rkrd stdout piped");
    let mut guard = DaemonGuard(child);
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("rkrd banner");
    let addr = banner
        .split_whitespace()
        .find(|tok| tok.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .to_string();

    let before = parse_prometheus(&rkr_ok(&dir, &["ctl", &addr, "metrics", "--prom"]));

    // burst: 4 distinct queries + 2 repeats (cache hits) = 6 served
    for (node, k) in [
        ("1", "4"),
        ("2", "4"),
        ("3", "4"),
        ("5", "3"),
        ("1", "4"),
        ("2", "4"),
    ] {
        rkr_ok(
            &dir,
            &["query", "--remote", &addr, "--node", node, "--k", k],
        );
    }

    let after = parse_prometheus(&rkr_ok(&dir, &["ctl", &addr, "metrics", "--prom"]));

    // no counter moves backwards across the burst
    for (series, &b) in &before.samples {
        if series.contains("_total") {
            let a = *after
                .samples
                .get(series)
                .unwrap_or_else(|| panic!("counter {series} vanished"));
            assert!(a >= b, "counter {series} went backwards: {b} -> {a}");
        }
    }

    // the histograms account for every query served: family total == the
    // query counter, split 2 hits / 4 misses exactly
    let queries = after.samples["rkrd_queries_total"];
    assert_eq!(
        queries - before.samples["rkrd_queries_total"],
        6.0,
        "a 6-query burst must count 6 queries"
    );
    let family_sum = |outcome: Option<&str>| -> f64 {
        after
            .samples
            .iter()
            .filter(|(k, _)| k.starts_with("rkrd_query_seconds_count{"))
            .filter(|(k, _)| outcome.is_none_or(|o| k.contains(&format!("outcome=\"{o}\""))))
            .map(|(_, v)| v)
            .sum()
    };
    assert_eq!(
        family_sum(None),
        queries,
        "histogram total != queries served"
    );
    assert_eq!(family_sum(Some("hit")), 2.0, "repeats must be hits");
    assert_eq!(family_sum(Some("miss")), 4.0, "distinct queries must miss");
    // stage histograms only see computed (non-cached) queries
    assert_eq!(after.samples["rkrd_filter_seconds_count"], 4.0);
    assert_eq!(after.samples["rkrd_refine_seconds_count"], 4.0);

    // the human table shows the counters; the ring captured the burst
    let table = rkr_ok(&dir, &["ctl", &addr, "metrics"]);
    assert!(table.contains("rkrd_queries_total"), "{table}");
    let slow = rkr_ok(&dir, &["ctl", &addr, "slow-queries"]);
    let records = slow
        .lines()
        .filter(|l| l.trim_start().starts_with("node"))
        .count();
    assert_eq!(
        records, 6,
        "--slow-query-ms 0 must capture every query:\n{slow}"
    );

    rkr_ok(&dir, &["ctl", &addr, "shutdown"]);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = guard.0.try_wait().expect("try_wait") {
            assert!(status.success(), "rkrd exited with {status}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "rkrd did not exit after shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A validated Prometheus scrape: full series string (name + labels,
/// exactly as printed) mapped to its value.
struct PromScrape {
    samples: std::collections::BTreeMap<String, f64>,
}

/// Hand-rolled checker for Prometheus text exposition 0.0.4. Panics on
/// any structural violation: a sample whose family lacks a `# TYPE`
/// declaration, an unparseable value, malformed labels, a histogram
/// whose cumulative buckets decrease, whose `le` bounds are not
/// ascending, or whose `+Inf` bucket disagrees with its `_count`.
fn parse_prometheus(text: &str) -> PromScrape {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: BTreeMap<String, f64> = BTreeMap::new();
    // count-series key -> cumulative bucket values in file order
    let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE names a metric");
            let kind = it.next().expect("TYPE names a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind in {line:?}"
            );
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate TYPE for {name}"
            );
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line:?}");

        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        if let Some(labels) = series.strip_prefix(name).filter(|r| !r.is_empty()) {
            let inner = labels
                .strip_prefix('{')
                .and_then(|r| r.strip_suffix('}'))
                .unwrap_or_else(|| panic!("unbalanced label braces: {line:?}"));
            for pair in inner.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("malformed label {pair:?} in {line:?}"));
                assert!(
                    k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "bad label name in {line:?}"
                );
                assert!(
                    v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
                    "unquoted label value in {line:?}"
                );
            }
        }

        // every sample belongs to a declared family (histogram samples via
        // their _bucket/_sum/_count suffix)
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf)
                    .filter(|b| types.get(*b).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        assert!(types.contains_key(base), "sample {name} has no TYPE");

        if name.ends_with("_bucket") && base != name {
            let (head, le_part) = series
                .rsplit_once("le=")
                .unwrap_or_else(|| panic!("bucket without le: {line:?}"));
            let le: f64 = le_part
                .trim_end_matches('}')
                .trim_matches('"')
                .parse()
                .unwrap_or_else(|_| panic!("unparseable le in {line:?}"));
            let head = head.replacen("_bucket", "_count", 1);
            let count_key = if let Some(h) = head.strip_suffix(',') {
                format!("{h}}}")
            } else if let Some(h) = head.strip_suffix('{') {
                h.to_string()
            } else {
                panic!("malformed bucket series: {line:?}");
            };
            buckets.entry(count_key).or_default().push((le, value));
        }

        assert!(
            samples.insert(series.to_string(), value).is_none(),
            "duplicate sample {series}"
        );
    }

    for (count_key, series) in &buckets {
        for pair in series.windows(2) {
            assert!(
                pair[1].0 > pair[0].0,
                "{count_key}: le bounds not ascending ({} then {})",
                pair[0].0,
                pair[1].0
            );
            assert!(
                pair[1].1 >= pair[0].1,
                "{count_key}: cumulative buckets decrease"
            );
        }
        let (last_le, last_cum) = *series.last().unwrap();
        assert!(last_le.is_infinite(), "{count_key}: no +Inf bucket");
        let count = *samples
            .get(count_key)
            .unwrap_or_else(|| panic!("buckets without {count_key}"));
        assert_eq!(last_cum, count, "{count_key}: +Inf bucket != _count");
        let sum_key = count_key.replacen("_count", "_sum", 1);
        assert!(samples.contains_key(&sum_key), "missing {sum_key}");
    }

    PromScrape { samples }
}

/// A flag the command does not accept fails the command before it does
/// any work — a retired one (the hub-label `distance` flag, the
/// `event-loop` backend flag, the served index's `index` / `kmax` /
/// `save-index` and `merge-every` cadence, and `rkr update`'s
/// `no-flush`) or a typo alike — instead of being silently ignored.
#[test]
fn serve_rejects_retired_flags() {
    let dir = temp_dir("retired-arg");
    rkr_ok(
        &dir,
        &["gen", "dblp", "--scale", "tiny", "--out", "g.edges"],
    );
    for (flag, value) in [
        ("distance", Some("hub")),
        ("event-loop", Some("poll")),
        ("index", Some("g.rkri")),
        ("kmax", Some("32")),
        ("save-index", None),
        ("merge-every", Some("8")),
        ("slow-query-cap", Some("8")),
    ] {
        let flag_arg = format!("--{flag}");
        let mut line = vec!["serve", "g.edges", "--addr", "127.0.0.1:0", &flag_arg];
        line.extend(value);
        let out = rkr(&dir, &line);
        assert!(!out.status.success(), "--{flag} must be rejected");
        assert!(out.stdout.is_empty(), "no daemon may start");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag --{flag} for 'rkr serve'")),
            "unhelpful error: {stderr}"
        );
    }
    // `rkr update` commits what it sends (the daemon commits each update
    // before replying), so its `--no-flush` is retired too — refused
    // before the file is read or any daemon is dialled.
    let out = rkr(
        &dir,
        &["update", "127.0.0.1:1", "--from", "ups.txt", "--no-flush"],
    );
    assert!(!out.status.success(), "--no-flush must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --no-flush for 'rkr update'"),
        "unhelpful error: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_rejects_a_misspelled_flag() {
    let dir = temp_dir("typo-arg");
    rkr_ok(
        &dir,
        &["gen", "dblp", "--scale", "tiny", "--out", "g.edges"],
    );
    // a misspelled valued flag, a misspelled switch, and index flags on
    // runs that never read an index
    for (args, expected) in [
        (
            &["--algoo", "naive"][..],
            "unknown flag --algoo for 'rkr query'",
        ),
        (&["--tracee"][..], "unknown flag --tracee for 'rkr query'"),
        (
            &["--index", "missing.rkri"][..],
            "--index has no effect with --algo dynamic",
        ),
        (
            &["--algo", "naive", "--save-index"][..],
            "--save-index has no effect with --algo naive",
        ),
        (
            &["--algo", "indexed", "--save-index"][..],
            "--save-index needs --index FILE",
        ),
        (
            &["--remote", "127.0.0.1:1", "--index", "missing.rkri"][..],
            "--index has no effect with --remote",
        ),
        // rkrd serves one strategy: refused before any connect is tried
        (
            &["--remote", "127.0.0.1:1", "--algo", "naive"][..],
            "--algo has no effect with --remote",
        ),
    ] {
        let mut line = vec!["query", "g.edges", "--node", "5", "--k", "3"];
        line.extend_from_slice(args);
        let out = rkr(&dir, &line);
        assert!(!out.status.success(), "{args:?} must be rejected");
        assert!(out.stdout.is_empty(), "no query may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "unhelpful error: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot mode's flags are retired: `--indexed-mode` and
/// `--merge-every` are unknown flags, an index flag on a run that never
/// reads it still fails, `--threads` on the one-thread indexed stream
/// fails, and an indexed batch runs the paper's stream.
#[test]
fn batch_rejects_retired_index_flags() {
    let dir = temp_dir("args");
    rkr_ok(
        &dir,
        &["gen", "dblp", "--scale", "tiny", "--out", "g.edges"],
    );
    for (args, expected) in [
        (
            &["--algo", "indexed", "--indexed-mode", "snapshot"][..],
            "unknown flag --indexed-mode for 'rkr batch'",
        ),
        (
            &["--algo", "indexed", "--merge-every", "8"][..],
            "unknown flag --merge-every for 'rkr batch'",
        ),
        (
            &["--algo", "dynamic", "--index", "missing.rkri"][..],
            "--index has no effect with --algo dynamic",
        ),
        (
            &["--algo", "indexed", "--threads", "4"][..],
            "--threads has no effect with --algo indexed-three",
        ),
    ] {
        let mut line = vec!["batch", "g.edges", "--queries", "4", "--k", "2"];
        line.extend_from_slice(args);
        let out = rkr(&dir, &line);
        assert!(!out.status.success(), "{args:?} must be rejected");
        assert!(out.stdout.is_empty(), "no batch may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "unhelpful error: {stderr}");
    }
    let out = rkr(
        &dir,
        &[
            "batch",
            "g.edges",
            "--queries",
            "4",
            "--k",
            "2",
            "--algo",
            "indexed",
        ],
    );
    assert!(
        out.status.success(),
        "indexed batch broke: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("one stream"),
        "the indexed batch names its mode"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
