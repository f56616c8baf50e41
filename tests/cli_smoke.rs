//! End-to-end smoke test for the `rkr` binary: generate a dataset, inspect
//! it, build and persist an index, and query it with every algorithm —
//! the full round-trip a user runs, at toy/tiny scale.

use std::path::PathBuf;

mod common;
use common::{assert_equivalent, parse_result, rkr, rkr_ok};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rkr-cli-smoke").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_stats_index_query_round_trip() {
    let dir = scratch_dir("round-trip");

    // gen
    let out = rkr_ok(
        &dir,
        &[
            "gen", "dblp", "--scale", "tiny", "--seed", "3", "--out", "g.edges",
        ],
    );
    assert!(out.contains("300 nodes"), "gen output: {out}");
    assert!(dir.join("g.edges").is_file());

    // stats
    let out = rkr_ok(&dir, &["stats", "g.edges"]);
    assert!(out.contains("nodes:      300"), "stats output: {out}");
    assert!(out.contains("directed:   false"), "stats output: {out}");
    assert!(out.contains("connected:  true"), "stats output: {out}");

    // build-index
    let out = rkr_ok(
        &dir,
        &[
            "build-index",
            "g.edges",
            "--out",
            "g.rkri",
            "--h",
            "0.1",
            "--m",
            "0.2",
            "--kmax",
            "32",
            "--strategy",
            "degree",
        ],
    );
    assert!(out.contains("built index"), "build-index output: {out}");
    assert!(dir.join("g.rkri").is_file());

    // query: every algorithm must agree on the result set.
    let naive = parse_result(&rkr_ok(
        &dir,
        &[
            "query", "g.edges", "--node", "17", "--k", "5", "--algo", "naive",
        ],
    ));
    assert_eq!(naive.len(), 5, "naive returned {naive:?}");
    // The trace shows pendant leaves ranked from their neighbour's
    // refinement, and the switch keeps the answer unchanged.
    let traced = rkr_ok(
        &dir,
        &[
            "query", "g.edges", "--node", "17", "--k", "5", "--algo", "dynamic", "--trace",
        ],
    );
    assert!(traced.contains("decision trace:"), "{traced}");
    assert!(traced.contains("pendant of "), "{traced}");
    assert!(traced.contains("pendant offers"), "{traced}");
    assert_equivalent("dynamic --trace", &parse_result(&traced), &naive);
    for algo in ["static", "dynamic"] {
        let got = parse_result(&rkr_ok(
            &dir,
            &[
                "query", "g.edges", "--node", "17", "--k", "5", "--algo", algo,
            ],
        ));
        assert_equivalent(algo, &got, &naive);
    }
    let indexed = parse_result(&rkr_ok(
        &dir,
        &[
            "query",
            "g.edges",
            "--node",
            "17",
            "--k",
            "5",
            "--algo",
            "indexed",
            "--index",
            "g.rkri",
            "--save-index",
        ],
    ));
    assert_equivalent("indexed", &indexed, &naive);

    // --save-index wrote the refined index back; it must still load and agree.
    let again = parse_result(&rkr_ok(
        &dir,
        &[
            "query", "g.edges", "--node", "17", "--k", "5", "--algo", "indexed", "--index",
            "g.rkri",
        ],
    ));
    assert_equivalent("indexed-reloaded", &again, &naive);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn road_gen_and_directed_epinions_stats() {
    let dir = scratch_dir("datasets");
    rkr_ok(
        &dir,
        &[
            "gen", "road", "--scale", "tiny", "--seed", "5", "--out", "r.edges",
        ],
    );
    let out = rkr_ok(&dir, &["stats", "r.edges"]);
    assert!(out.contains("nodes:      300"), "road stats: {out}");

    rkr_ok(
        &dir,
        &[
            "gen", "epinions", "--scale", "tiny", "--seed", "5", "--out", "e.edges",
        ],
    );
    let out = rkr_ok(&dir, &["stats", "e.edges"]);
    assert!(out.contains("directed:   true"), "epinions stats: {out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evolved_index_is_rejected_against_a_plain_edge_file() {
    // An index saved after live graph commits carries its graph epoch in
    // its header; pairing it with a plain edge file would silently serve
    // ranks measured on a different graph, so every edge-file loader must
    // refuse it with a pointer at the snapshot bundle.
    let dir = scratch_dir("evolved-index");
    rkr_ok(
        &dir,
        &[
            "gen", "dblp", "--scale", "tiny", "--seed", "3", "--out", "g.edges",
        ],
    );
    // Forge an evolved index the same way the daemon produces one: an
    // empty index tagged with a non-zero graph epoch.
    let idx = {
        let mut idx = rkranks_core::RkrIndex::empty(300, 8);
        idx.set_graph_epoch(3);
        idx
    };
    rkranks_core::save_index(&idx, dir.join("evolved.rkri")).unwrap();

    let out = rkr(
        &dir,
        &[
            "query",
            "g.edges",
            "--node",
            "17",
            "--k",
            "5",
            "--algo",
            "indexed",
            "--index",
            "evolved.rkri",
        ],
    );
    assert!(!out.status.success(), "evolved index must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("graph epoch 3"),
        "must name the epoch: {stderr}"
    );
    assert!(
        stderr.contains("--snapshot"),
        "must point at the bundle workflow: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `rkr update` and `rkr ctl` parse updates in the write-ahead log's
/// grammar before they connect: a bad line is named by file and line with
/// no daemon running, a token an op would not read is refused, and both
/// spellings of each op parse (those runs fail only at the connect).
#[test]
fn updates_parse_before_connecting() {
    let dir = scratch_dir("update-parse");
    let dead = "127.0.0.1:1";
    let stderr_of = |args: &[&str]| {
        let out = rkr(&dir, args);
        assert!(!out.status.success(), "rkr {args:?} unexpectedly succeeded");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    std::fs::write(dir.join("bad.txt"), "add 0 1 0.5\nadd-node\nrm 0 1 7\n").unwrap();
    let err = stderr_of(&["update", dead, "--from", "bad.txt"]);
    assert!(err.contains("bad.txt:3: "), "{err}");
    assert!(!err.contains("cannot connect"), "{err}");

    let both = "add 0 1 0.5\nadd-edge 1 2 0.5\nrm 0 1\nrm-edge 1 2\nreweight 2 3 1.5\nadd-node\n";
    std::fs::write(dir.join("ok.txt"), both).unwrap();
    let err = stderr_of(&["update", dead, "--from", "ok.txt"]);
    assert!(err.contains("cannot connect"), "{err}");

    let err = stderr_of(&["ctl", dead, "add-edge", "1", "2", "0.5", "9"]);
    assert!(err.contains("trailing tokens"), "{err}");
    assert!(!err.contains("cannot connect"), "{err}");
    for op in [
        &["add-edge", "1", "2", "0.5"][..],
        &["rm-edge", "1", "2"][..],
        &["reweight", "1", "2", "0.5"][..],
        &["add-node"][..],
    ] {
        let err = stderr_of(&[&["ctl", dead][..], op].concat());
        assert!(err.contains("cannot connect"), "ctl {op:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A positional argument no command would read fails the run before any
/// connect or load: `ctl`'s non-update operations take exactly an address
/// and an operation, `update` an address, `stats` a graph file, and a
/// remote query none.
#[test]
fn extra_positional_arguments_fail_before_any_work() {
    let dir = scratch_dir("extra-args");
    let dead = "127.0.0.1:1";
    std::fs::write(dir.join("ups.txt"), "add-node\n").unwrap();
    let ops = [
        "stats",
        "metrics",
        "slow-queries",
        "flush",
        "checkpoint",
        "shutdown",
    ];
    let mut cases: Vec<(Vec<&str>, &str)> = ops
        .into_iter()
        .map(|op| {
            (
                vec!["ctl", dead, op, "extra"],
                "unexpected argument 'extra'",
            )
        })
        .collect();
    cases.extend([
        (
            vec!["ctl", dead, "shutdown", "now", "please"],
            "unexpected argument 'now'",
        ),
        (
            vec!["update", dead, "extra", "--from", "ups.txt"],
            "unexpected argument 'extra' for 'rkr update'",
        ),
        (
            vec!["stats", "/x.edges", "extra"],
            "unexpected argument 'extra' for 'rkr stats'",
        ),
        (
            vec!["query", "--remote", dead, "g.edges", "--node", "1"],
            "a graph file ('g.edges') has no effect with --remote",
        ),
        // A switch takes no value, so what follows it is positional.
        (
            vec![
                "query", "g.edges", "--node", "5", "--k", "3", "--trace", "extra",
            ],
            "unexpected argument 'extra' for 'rkr query'",
        ),
        (
            vec!["query", "g.edges", "--node", "5", "--save-index", "extra"],
            "unexpected argument 'extra' for 'rkr query'",
        ),
        (
            vec![
                "query",
                "--remote",
                dead,
                "--node",
                "1",
                "--no-cache",
                "extra",
            ],
            "a graph file ('extra') has no effect with --remote",
        ),
        (
            vec!["ctl", dead, "stats", "--json", "extra"],
            "unexpected argument 'extra'",
        ),
        (
            vec!["ctl", dead, "metrics", "--prom", "extra"],
            "unexpected argument 'extra'",
        ),
    ]);
    for (args, expected) in cases {
        let out = rkr(&dir, &args);
        assert!(!out.status.success(), "rkr {args:?} unexpectedly succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "rkr {args:?}: {stderr}");
        for later in ["cannot connect", "cannot load", "cannot read"] {
            assert!(
                !stderr.contains(later),
                "rkr {args:?} got as far as: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_with_usage_message() {
    let dir = scratch_dir("usage");
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["gen", "dblp"][..],                        // missing --out
        &["query", "missing.edges", "--k", "3"][..], // missing graph + --node
    ] {
        let out = rkr(&dir, args);
        assert!(!out.status.success(), "rkr {args:?} unexpectedly succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "stderr for {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
