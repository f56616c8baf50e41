//! `rkr-bench`: the repository's one benchmark. See `README.md`.
//!
//! ```text
//! rkr-bench run [--seed S] [--trace] [--quick] [--out FILE]
//! rkr-bench compare A.json[,A2.json,...] B.json[,B2.json,...]
//! rkr-bench --workload NAME --seed N --seconds T --trace 0|1
//! ```
//!
//! The last form is the acceptance driver's: it runs one workload and
//! prints one JSON object as the last line of its output. Every
//! repetition runs in a fresh child process of this executable.

mod affinity;
mod engine;
mod probe;
mod rep;
mod report;
mod script;
mod served;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rkranks_server::json::Json;

use rep::Rep;
use report::WorkloadResult;
use script::{Params, Workload, NOMINAL_SECONDS};
use spec::{per_layer, END_TO_END};
use trace::Recorder;

/// Repetitions per workload: each a fresh process, same seed, set-up
/// included; `spec::EndToEnd::pick` turns the three into the run's value.
const REPEAT: usize = 3;

const USAGE: &str = "usage:
  rkr-bench run [--seed S] [--trace] [--quick] [--out FILE]
  rkr-bench compare A.json[,A2.json,...] B.json[,B2.json,...]
  rkr-bench --workload NAME --seed N --seconds T --trace 0|1";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..], started),
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => driver(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("rkr-bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare `--switch`es (those named in `switches`).
fn parse_flags(args: &[String], switches: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument '{arg}'\n{USAGE}"));
        };
        let value = if switches.contains(&name) {
            "1".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value\n{USAGE}"))?
                .clone()
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match (flags.get(name), default) {
        (Some(text), _) => text
            .parse()
            .map_err(|_| format!("--{name} '{text}' is not a valid number")),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(format!("--{name} is required\n{USAGE}")),
    }
}

fn workload_flag(flags: &BTreeMap<String, String>) -> Result<Workload, String> {
    let name = flags
        .get("workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}' (expected one of {known:?})")
    })
}

/// One repetition, in this process: what `child` runs.
fn child(args: &[String], started: Instant) -> Result<bool, String> {
    let flags = parse_flags(args, &["quick"])?;
    let workload = workload_flag(&flags)?;
    let seed = number(&flags, "seed", None)?;
    let seconds = number(&flags, "seconds", None)?;
    let params = Params::new(workload, seconds, flags.contains_key("quick"));
    // Already inherited from the harness; pinning again makes a child run
    // by hand behave the same.
    affinity::pin_to_first_allowed();
    let mut recorder = flags.get("trace-file").map(|_| Recorder::new());
    let run = match workload {
        Workload::EngineCold => engine::run,
        _ => served::run,
    };
    let mut rep = run(&params, seed, started, recorder.as_mut())?;
    if let (Some(path), Some(rec)) = (flags.get("trace-file"), &recorder) {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = BufWriter::new(file);
        trace::write_trace(&mut out, workload.name(), rec.spans())
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("{path}: {e}"))?;
        rep.spans = trace::summarize(rec.spans())
            .into_iter()
            .map(|(name, s)| (name.to_string(), s))
            .collect();
    }
    println!("{}", rep.to_json().render());
    Ok(true)
}

/// Spawns repetitions as child processes of this executable.
struct Harness {
    exe: PathBuf,
    /// `<build dir>/bench`: trace files, results files, probe scratch.
    out_dir: PathBuf,
    pinned_cpu: Option<usize>,
    seed: u64,
    seconds: u32,
    quick: bool,
}

impl Harness {
    fn new(seed: u64, seconds: u32, quick: bool) -> Result<Harness, String> {
        // Before anything is spawned, so every child and thread inherits it.
        let pinned_cpu = affinity::pin_to_first_allowed();
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // <build dir>/<profile>/rkr-bench → <build dir>/bench
        let out_dir = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("the executable has no build directory above it")?
            .join("bench");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Harness {
            exe,
            out_dir,
            pinned_cpu,
            seed,
            seconds,
            quick,
        })
    }

    fn params(&self, workload: Workload) -> Params {
        Params::new(workload, self.seconds, self.quick)
    }

    /// Run one repetition in a fresh process and wait for it.
    fn rep(&self, workload: Workload, traced: bool) -> Result<Rep, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("child")
            .args(["--workload", workload.name()])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()]);
        if self.quick {
            cmd.arg("--quick");
        }
        if traced {
            let file = self.out_dir.join(format!("{}.trace.json", workload.name()));
            cmd.arg("--trace-file").arg(file);
        }
        let output = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn repetition: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "{} repetition ended with {}",
                workload.name(),
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{} repetition printed nothing", workload.name()))?;
        let json = Json::parse(line).map_err(|e| format!("repetition result: {e}"))?;
        Rep::from_json(&json)
    }

    /// `REPEAT` untraced repetitions (one in quick mode), guarded for
    /// determinism.
    fn measure(&self, workload: Workload) -> Result<WorkloadResult, String> {
        let repeat = if self.quick { 1 } else { REPEAT };
        let reps = (0..repeat)
            .map(|_| self.rep(workload, false))
            .collect::<Result<Vec<_>, _>>()?;
        let result = WorkloadResult {
            params: self.params(workload),
            reps,
        };
        result.check_deterministic()?;
        Ok(result)
    }

    /// The traced run of one workload: one untraced and one traced
    /// repetition back to back. End-to-end metrics come from the untraced
    /// one, per-layer metrics and spans from the traced one, and their
    /// difference is the tracing overhead. Returns both repetitions (in
    /// that order) and the workload's per-layer metrics.
    fn trace(&self, workload: Workload) -> Result<(WorkloadResult, Vec<(String, f64)>), String> {
        let untraced = self.rep(workload, false)?;
        let traced = self.rep(workload, true)?;
        let mut layers = traced.layers.clone();
        layers.push((
            spec::TRACE_OVERHEAD.name.to_string(),
            (untraced.queries_per_s - traced.queries_per_s) / untraced.queries_per_s,
        ));
        layers.extend(
            untraced
                .p90_ms
                .map(|p90| (spec::QUERY_P90.name.to_string(), p90)),
        );
        let result = WorkloadResult {
            params: self.params(workload),
            reps: vec![untraced, traced],
        };
        result.check_deterministic()?;
        Ok((result, layers))
    }

    fn scale(&self) -> rkranks_datasets::Scale {
        script::scale(self.quick)
    }
}

/// `server.wire_wait_us`: what is left of a client's receive span once
/// decoding the reply is taken out — daemon residence plus kernel.
fn wire_wait(layers: &[(String, f64)], probes: &[(String, f64)]) -> Option<(String, f64)> {
    let get =
        |list: &[(String, f64)], name: &str| list.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
    let recv = get(layers, "server.client_recv_us")?;
    let decode = get(probes, "server.reply_decode_us")?;
    Some(("server.wire_wait_us".to_string(), recv - decode))
}

/// Print `layers` in the vocabulary's order, each with its unit.
fn print_layers(title: &str, layers: &[(String, f64)]) {
    println!("{title}");
    for m in per_layer() {
        if let Some((_, value)) = layers.iter().find(|(name, _)| name == m.name) {
            println!("  {:<40} {value:>14.4} {}", m.name, m.unit);
        }
    }
}

fn print_spans(rep: &Rep) {
    if rep.spans.is_empty() {
        return;
    }
    println!("  spans: name, count, total ms, self ms");
    for (name, s) in &rep.spans {
        println!(
            "    {name:<16} {:>8} {:>12.3} {:>12.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
    // How much of each engine.execute its children's self times explain.
    let get = |name: &str| rep.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s);
    if let (Some(parent), Some(filter), Some(refine)) = (
        get("engine.execute"),
        get("core.filter"),
        get("core.refine"),
    ) {
        println!(
            "    engine.execute children's self times cover {:.2} % of its total",
            100.0 * (filter.self_ns + refine.self_ns) as f64 / parent.total_ns as f64
        );
    }
}

/// What `rustc --version` / `git rev-parse HEAD` print, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc` is read before pinning narrows what the process may use.
fn host_json(nproc: usize, pinned_cpu: Option<usize>) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::num(nproc as f64)),
        ("cpu".into(), Json::Str(cpu)),
        ("pinned".into(), Json::Bool(pinned_cpu.is_some())),
        (
            "pinned_cpu".into(),
            pinned_cpu.map_or(Json::Null, |c| Json::num(c as f64)),
        ),
        (
            "rustc".into(),
            Json::Str(tool_line("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// `run`: all four workloads, every metric by name with its unit, every
/// answer checked; non-zero exit if any check fails.
fn run(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, &["trace", "quick"])?;
    let seed: u64 = number(&flags, "seed", Some(1))?;
    let traced = flags.contains_key("trace");
    let quick = flags.contains_key("quick");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let h = Harness::new(seed, NOMINAL_SECONDS, quick)?;
    let host = host_json(nproc, h.pinned_cpu);
    let graph = script::fixture(h.scale());
    println!(
        "rkr-bench run{}{}  seed {seed}  pinned cpu {}  nproc {nproc}",
        if traced { " --trace" } else { "" },
        if quick { " --quick" } else { "" },
        h.pinned_cpu
            .map_or("none (pinned: false)".into(), |c| c.to_string()),
    );
    println!(
        "fixture dblp_like({}, {}): {} nodes, {} edges, k = {}\n",
        h.scale().name(),
        script::FIXTURE_SEED,
        graph.num_nodes(),
        graph.num_edges(),
        script::K
    );
    let fixture = report::fixture_json(h.scale().name(), graph.num_nodes(), graph.num_edges());
    drop(graph);

    let probes = if traced {
        let mut probes = probe::run(h.scale(), &h.out_dir)?;
        probes.sort_by(|a, b| a.0.cmp(&b.0));
        print_layers("probes (direct calls, workload-independent)", &probes);
        println!();
        probes
    } else {
        Vec::new()
    };

    let mut failed = 0;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let (mut result, layers) = if traced {
            let (result, mut layers) = h.trace(w)?;
            layers.extend(wire_wait(&layers, &probes));
            (result, layers)
        } else {
            (h.measure(w)?, Vec::new())
        };
        failed += result.failed();
        let traced_rep = if traced { result.reps.pop() } else { None };
        print!("{}", result.render());
        if let Some(rep) = &traced_rep {
            print_layers("  per-layer (from the traced repetition)", &layers);
            print_spans(rep);
            println!(
                "  trace file {}",
                h.out_dir.join(format!("{}.trace.json", w.name())).display()
            );
        }
        println!();
        let mut json = result.to_json();
        if let (true, Json::Obj(fields)) = (traced, &mut json) {
            fields.push(("layers".into(), report::layers_json(&layers)));
        }
        workloads.push((w.name().to_string(), json));
    }

    let mut fields = vec![
        ("schema".into(), Json::Str("rkr-bench/1".into())),
        ("quick".into(), Json::Bool(quick)),
        ("traced".into(), Json::Bool(traced)),
        ("seed".into(), Json::num(seed as f64)),
        (
            "repeat".into(),
            Json::num(if traced || quick { 1 } else { REPEAT as u32 }),
        ),
        ("seconds".into(), Json::num(NOMINAL_SECONDS)),
        ("host".into(), host),
        ("fixture".into(), fixture),
        ("workloads".into(), Json::Obj(workloads)),
    ];
    if traced {
        fields.push(("probes".into(), report::layers_json(&probes)));
    }
    fields.extend(report::vocabulary_json());
    let default_name = format!(
        "{}{}-seed{seed}.json",
        if traced { "trace" } else { "run" },
        if quick { "-quick" } else { "" }
    );
    let out = flags
        .get("out")
        .map_or_else(|| h.out_dir.join(default_name), PathBuf::from);
    std::fs::write(&out, report::pretty(&Json::Obj(fields)))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    if failed > 0 {
        println!("FAILED: {failed} op(s) failed or answered wrongly");
    }
    Ok(failed == 0)
}

/// The acceptance driver's form: one workload, one JSON object last.
fn driver(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, &[])?;
    let workload = workload_flag(&flags)?;
    let seed = number(&flags, "seed", None)?;
    let seconds: u32 = number(&flags, "seconds", None)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let traced = match flags.get("trace").map(String::as_str) {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace '{other}' is neither 0 nor 1")),
    };
    let h = Harness::new(seed, seconds, false)?;

    let (mut result, metrics) = if traced {
        let (result, mut layers) = h.trace(workload)?;
        let probes = probe::run(h.scale(), &h.out_dir)?;
        layers.extend(wire_wait(&layers, &probes));
        layers.extend(probes);
        // Every per-layer metric, every time: a layer this workload does
        // not cross did no work in it, and reads 0.
        let metrics = per_layer()
            .map(|m| {
                let value = layers
                    .iter()
                    .find(|(k, _)| k == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name, m.unit, value)
            })
            .collect::<Vec<_>>();
        (result, metrics)
    } else {
        let result = h.measure(workload)?;
        let mut metrics = Vec::new();
        for m in END_TO_END.iter().filter(|m| m.gated) {
            let values = result.values(m);
            if values.is_empty() {
                return Err(format!(
                    "{} has too few samples for {} at --seconds {seconds}",
                    workload.name(),
                    m.name
                ));
            }
            metrics.push((m.name, m.unit, m.pick(&values)));
        }
        (result, metrics)
    };

    // Ops are counted over every repetition; the printed end-to-end block
    // leaves the traced one out.
    let (attempted, failed) = (result.attempted(), result.failed());
    if traced {
        result.reps.pop();
    }
    print!("{}", result.render());
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, value)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::num(attempted as f64)),
        ("failed".into(), Json::num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    // The result line carries the verdict; the exit code only says the
    // harness itself ran.
    Ok(true)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |paths: &String| {
        paths
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<Json>, String>>()
    };
    let (report, pass) = report::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    Ok(pass)
}
