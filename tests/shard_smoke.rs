//! End-to-end smoke of replicated serving through the real `rkr`
//! binaries: plan a 2-shard fleet, start both shards and the coordinator
//! on ephemeral ports, check a Zipf-skewed query mix through the
//! coordinator is rank-identical (tie-aware) to the in-process dynamic
//! query, route a live update through the coordinator, kill shard 0 (the
//! replica every read goes to first) and check the survivor still answers
//! completely, and shut the fleet down cleanly. The CI loopback smoke job runs the same scenario
//! via `scripts/shard_smoke.sh`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
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
    let dir = std::env::temp_dir().join(format!("rkr-shard-smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn an `rkr` daemon (shard or coordinator) and scrape the bound
/// address from its banner. The stdout reader is returned alongside:
/// dropping it closes the pipe and the daemon's shutdown banner would
/// hit EPIPE.
fn spawn_daemon(dir: &PathBuf, args: &[&str]) -> (DaemonGuard, String, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rkr"))
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("failed to spawn rkr daemon");
    let stdout = child.stdout.take().expect("daemon stdout piped");
    let guard = DaemonGuard(child);
    let mut reader = BufReader::new(stdout);
    // A shard prints its identity line before the listening banner; scan
    // a few lines for the first bound address (it may carry punctuation,
    // e.g. the coordinator's "listening on ADDR, fronting ...").
    for _ in 0..8 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("daemon banner");
        if let Some(tok) = line
            .split_whitespace()
            .find(|tok| tok.starts_with("127.0.0.1:"))
        {
            let addr = tok.trim_end_matches(',').to_string();
            return (guard, addr, reader);
        }
    }
    panic!("daemon never printed its bound address");
}

fn wait_for_exit(mut guard: DaemonGuard, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = guard.0.try_wait().expect("try_wait") {
            assert!(status.success(), "{what} exited with {status}");
            return;
        }
        assert!(Instant::now() < deadline, "{what} did not exit");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn fleet_matches_single_box_and_answers_completely_on_shard_loss() {
    let dir = temp_dir("fleet");
    rkr_ok(
        &dir,
        &[
            "gen", "dblp", "--scale", "tiny", "--seed", "7", "--out", "g.edges",
        ],
    );

    // the plan is deterministic and prints a deployable fleet
    let plan = rkr_ok(
        &dir,
        &["shard-plan", "g.edges", "--shards", "2", "--seed", "7"],
    );
    assert!(plan.contains("shard plan for"), "{plan}");
    assert!(plan.contains("rkr coord --shards"), "{plan}");

    // fleet up: 2 shards + the coordinator, all on ephemeral ports
    let shard_args = |id: &'static str| {
        vec![
            "serve",
            "g.edges",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache",
            "64",
            "--shard-id",
            id,
            "--shard-count",
            "2",
            "--shard-seed",
            "7",
        ]
    };
    let (mut shard0_guard, shard0, _keep0) = spawn_daemon(&dir, &shard_args("0"));
    let (shard1_guard, shard1, _keep1) = spawn_daemon(&dir, &shard_args("1"));
    let fleet = format!("{shard0},{shard1}");
    let (coord_guard, coord, _keepc) = spawn_daemon(
        &dir,
        &["coord", "--shards", &fleet, "--addr", "127.0.0.1:0"],
    );

    // coordinator == single box over a Zipf-skewed mix (head-heavy
    // repeats also exercise the per-shard caches)
    for node in ["5", "17", "5", "0", "3", "5", "17", "8", "2", "5"] {
        let remote = rkr_ok(
            &dir,
            &["query", "--remote", &coord, "--node", node, "--k", "4"],
        );
        assert!(
            !remote.contains("PARTIAL"),
            "a healthy fleet must answer completely:\n{remote}"
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

    // a repeat of an already-served query is a fleet-wide cache hit
    let repeat = rkr_ok(
        &dir,
        &["query", "--remote", &coord, "--node", "5", "--k", "4"],
    );
    assert!(
        repeat.contains("cached: true"),
        "expected a fleet-wide hit:\n{repeat}"
    );

    // coordinator telemetry is scrapeable and labels every shard
    let prom = rkr_ok(&dir, &["ctl", &coord, "metrics", "--prom"]);
    for needle in [
        "rkrd_coord_queries_total",
        "rkrd_coord_shard_seconds_count{shard=\"0\"}",
        "rkrd_coord_shard_seconds_count{shard=\"1\"}",
        "rkrd_coord_candidates_received_total",
    ] {
        assert!(prom.contains(needle), "missing {needle}:\n{prom}");
    }
    // one replica answered each query, and its whole reply went back
    let counter = |name: &str| -> u64 {
        prom.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {name} sample:\n{prom}"))
    };
    assert_eq!(
        counter("rkrd_coord_candidates_received_total"),
        counter("rkrd_coord_candidates_returned_total")
    );

    // the coordinator reports the graph digest its fleet agreed on
    let digest = |addr: &str| -> String {
        let stats = rkr_ok(&dir, &["ctl", addr, "stats"]);
        let line = stats.lines().find(|l| l.starts_with("graph:")).unwrap();
        let (_, digest) = line.rsplit_once(" digest ").expect("stats prints a digest");
        digest.to_string()
    };
    let fleet_digest = digest(&coord);
    assert_eq!(fleet_digest.len(), 16, "{fleet_digest}");
    assert_eq!(fleet_digest, digest(&shard0));
    assert_eq!(fleet_digest, digest(&shard1));

    // a live update routed through the coordinator lands on every shard
    let graph_stats = rkr_ok(&dir, &["stats", "g.edges"]);
    let nodes: u32 = graph_stats
        .lines()
        .find_map(|l| l.strip_prefix("nodes:"))
        .expect("stats prints the node count")
        .trim()
        .parse()
        .unwrap();
    rkr_ok(&dir, &["ctl", &coord, "add-node"]);
    rkr_ok(
        &dir,
        &["ctl", &coord, "add-edge", "17", &nodes.to_string(), "0.01"],
    );
    let updated_raw = rkr_ok(
        &dir,
        &["query", "--remote", &coord, "--node", "17", "--k", "4"],
    );
    assert!(
        updated_raw.contains("graph epoch 2"),
        "two commits through the coordinator must reach graph epoch 2:\n{updated_raw}"
    );
    let updated = parse_result(&updated_raw);
    assert!(
        updated.contains_key(&nodes),
        "the new nearest node must enter the result: {updated:?}"
    );
    // ...and must agree with an in-process rebuild of the updated edges
    let edges = std::fs::read_to_string(dir.join("g.edges")).unwrap();
    let mut lines = edges.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("undirected"), "{header}");
    let mut rebuilt = format!("undirected {}\n", nodes + 1);
    for l in lines {
        rebuilt.push_str(l);
        rebuilt.push('\n');
    }
    rebuilt.push_str(&format!("17 {nodes} 0.01\n"));
    std::fs::write(dir.join("g2.edges"), rebuilt).unwrap();
    let local = rkr_ok(
        &dir,
        &[
            "query", "g2.edges", "--node", "17", "--k", "4", "--algo", "dynamic",
        ],
    );
    assert_equivalent("post-update node 17", &updated, &parse_result(&local));

    // kill shard 0: reads fail over to shard 1, a full replica, so every
    // answer is still complete and equal to the in-process one on the
    // updated graph
    shard0_guard.0.kill().expect("kill shard 0");
    let _ = shard0_guard.0.wait();
    for node in ["5", "17", "3"] {
        let remote = rkr_ok(
            &dir,
            &["query", "--remote", &coord, "--node", node, "--k", "4"],
        );
        assert!(
            !remote.contains("PARTIAL"),
            "node {node}: a dead shard must not make the answer partial:\n{remote}"
        );
        let local = rkr_ok(
            &dir,
            &[
                "query", "g2.edges", "--node", node, "--k", "4", "--algo", "dynamic",
            ],
        );
        assert_equivalent(
            &format!("node {node} after shard loss"),
            &parse_result(&remote),
            &parse_result(&local),
        );
    }
    // writes must reach every replica: a fleet-wide flush fails loudly
    let flush = rkr(&dir, &["ctl", &coord, "flush"]);
    assert!(
        !flush.status.success(),
        "a fleet-wide flush with a dead shard must fail loudly"
    );

    // clean shutdown: the coordinator's shutdown is its own — the
    // surviving shard keeps serving until told otherwise
    rkr_ok(&dir, &["ctl", &coord, "shutdown"]);
    wait_for_exit(coord_guard, "coordinator");
    rkr_ok(
        &dir,
        &["query", "--remote", &shard1, "--node", "5", "--k", "4"],
    );
    rkr_ok(&dir, &["ctl", &shard1, "shutdown"]);
    wait_for_exit(shard1_guard, "shard 1");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The shard flags travel together and are validated before any work:
/// half a shard identity (or an out-of-range id) must be refused with a
/// pointed error, not served unsharded.
#[test]
fn serve_validates_shard_and_slow_query_flags() {
    let dir = temp_dir("args");
    rkr_ok(
        &dir,
        &["gen", "dblp", "--scale", "tiny", "--out", "g.edges"],
    );
    let cases: &[(&[&str], &str)] = &[
        (
            &["--shard-id", "0"],
            "--shard-id and --shard-count must be given together",
        ),
        (
            &["--shard-count", "2"],
            "--shard-id and --shard-count must be given together",
        ),
        (
            &["--shard-seed", "7"],
            "--shard-seed needs --shard-id and --shard-count",
        ),
        (&["--shard-id", "2", "--shard-count", "2"], "out of range"),
    ];
    for (flags, needle) in cases {
        let mut args = vec!["serve", "g.edges", "--addr", "127.0.0.1:0"];
        args.extend_from_slice(flags);
        let out = rkr(&dir, &args);
        assert!(!out.status.success(), "{flags:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{flags:?}: unhelpful error: {stderr}"
        );
    }
    // the coordinator refuses an empty fleet
    let out = rkr(&dir, &["coord", "--addr", "127.0.0.1:0"]);
    assert!(!out.status.success(), "coord without --shards must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--shards"), "unhelpful error: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
