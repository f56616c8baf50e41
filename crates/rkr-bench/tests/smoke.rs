//! Quick end-to-end smoke of the real binary: all four workloads on the
//! 300-node graph with every correctness check on, the traced run, the
//! acceptance driver's form, and `compare` on the files they write.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rkranks_server::json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_rkr-bench");
const WORKLOADS: [&str; 4] = ["engine_cold", "serve_hot", "serve_churn", "fleet_scatter"];
const END_TO_END: [&str; 5] = [
    "setup_s",
    "query_p50_ms",
    "query_p90_ms",
    "queries_per_s",
    "peak_rss_mb",
];

fn bench(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("run rkr-bench")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn load(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn quick_run_checks_every_answer_and_compares_same_with_itself() {
    let file = tmp("smoke-run.json");
    let out = bench(&["run", "--quick", "--out", file.to_str().unwrap()]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    for name in WORKLOADS.iter().chain(&END_TO_END) {
        assert!(text.contains(name), "'{name}' is not printed:\n{text}");
    }

    let json = load(&file);
    assert_eq!(json.get("quick"), Some(&Json::Bool(true)));
    assert!(json.get("host").and_then(|h| h.get("nproc")).is_some());
    for w in WORKLOADS {
        let phases = json
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .and_then(|w| w.get("phases"))
            .unwrap_or_else(|| panic!("{w} has no phases"));
        for phase in ["setup", "script", "check"] {
            let failed = phases.get(phase).and_then(|p| p.get("failed"));
            assert_eq!(failed.and_then(Json::as_u64), Some(0), "{w} {phase}");
        }
        let checked = phases.get("check").and_then(|p| p.get("checked"));
        assert!(
            checked.and_then(Json::as_u64) >= Some(4),
            "{w}: {checked:?}"
        );
    }

    let path = file.to_str().unwrap();
    let cmp = bench(&["compare", path, path]);
    let report = stdout(&cmp);
    assert!(cmp.status.success(), "{report}");
    assert!(
        !report.contains("%  worse") && !report.contains("differ"),
        "{report}"
    );
}

#[test]
fn quick_traced_run_writes_traces_and_prints_every_layer() {
    let file = tmp("smoke-trace.json");
    let out = bench(&["run", "--quick", "--trace", "--out", file.to_str().unwrap()]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");

    let json = load(&file);
    let layers = json.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!(layers.len() >= 40);
    for layer in layers {
        let name = layer.get("name").and_then(Json::as_str).unwrap();
        assert!(text.contains(name), "'{name}' is not printed:\n{text}");
    }
    let share = text
        .lines()
        .find_map(|l| {
            l.trim()
                .strip_prefix("engine.execute children's self times cover ")
        })
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .expect("the engine.execute coverage line");
    assert!(
        share >= 95.0,
        "children explain only {share} % of engine.execute"
    );

    // <build dir>/bench/<workload>.trace.json, beside the executable's profile dir.
    let bench_dir = Path::new(EXE)
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .join("bench");
    for w in WORKLOADS {
        let trace = load(&bench_dir.join(format!("{w}.trace.json")));
        assert_eq!(trace.get("workload").and_then(Json::as_str), Some(w));
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(!spans.is_empty(), "{w} recorded no spans");
    }
}

#[test]
fn the_driver_form_prints_one_result_object_last() {
    let out = bench(&[
        "--workload",
        "serve_hot",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    let last = Json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
    assert!(last.get("attempted").and_then(Json::as_u64) >= Some(1));
    let Some(Json::Obj(metrics)) = last.get("metrics") else {
        panic!("no metrics in {text}");
    };
    // Every end-to-end metric but the ungated p90.
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let gated: Vec<&str> = END_TO_END
        .into_iter()
        .filter(|m| *m != "query_p90_ms")
        .collect();
    assert_eq!(names, gated);
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Json::as_f64) > Some(0.0), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }

    let bad = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stdout(&bad).is_empty());
}
