//! Aggregating repetitions into results, printing them, writing the
//! results file, and comparing two results files.

use std::fmt::Write as _;

use rkranks_server::json::Json;

use crate::rep::{object, phases_json, Phase, Rep, PHASES};
use crate::script::{Params, Workload, ALPHA, FIXTURE_SEED, K, UPDATE_BATCH};
use crate::spec::{per_layer, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};

/// All repetitions of one workload at one seed.
pub struct WorkloadResult {
    pub params: Params,
    pub reps: Vec<Rep>,
}

impl WorkloadResult {
    /// One value per repetition (repetitions without the metric — a
    /// percentile below the ten-beyond rule — are left out).
    pub fn values(&self, metric: &EndToEnd) -> Vec<f64> {
        self.reps.iter().filter_map(metric.of).collect()
    }

    pub fn phases(&self) -> [Phase; 3] {
        let mut sum = [Phase::default(); 3];
        for rep in &self.reps {
            for (total, phase) in sum.iter_mut().zip(&rep.phases) {
                total.add(phase);
            }
        }
        sum
    }

    pub fn attempted(&self) -> u64 {
        self.phases().iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases().iter().map(|p| p.failed).sum()
    }

    /// The determinism guard: the script fingerprint and every
    /// exact-repeat counter must be identical across repetitions.
    pub fn check_deterministic(&self) -> Result<(), String> {
        let name = self.params.workload.name();
        let differ = |counter: &str, values: Vec<String>| {
            if values.windows(2).all(|w| w[0] == w[1]) {
                Ok(())
            } else {
                Err(format!(
                    "nondeterministic workload: {name} {counter} {values:?}"
                ))
            }
        };
        differ(
            "script_hash",
            self.reps.iter().map(|r| r.script_hash.clone()).collect(),
        )?;
        let Some(first) = self.reps.first() else {
            return Ok(());
        };
        for (i, (counter, _)) in first.counters.iter().enumerate() {
            let values = self
                .reps
                .iter()
                .map(|r| {
                    r.counters
                        .get(i)
                        .map_or("missing".into(), |(_, v)| v.to_string())
                })
                .collect();
            differ(counter, values)?;
        }
        Ok(())
    }

    /// Human-readable block: every end-to-end metric by name with its
    /// unit, the per-repetition values, sample counts and op accounting.
    pub fn render(&self) -> String {
        let p = &self.params;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}  {} reads over {} nodes{}",
            p.workload.name(),
            p.reads,
            p.hot,
            match p.commits() {
                0 => String::new(),
                n => format!(
                    ", {n} commits of {UPDATE_BATCH} deltas (every {} reads)",
                    p.commit_every
                ),
            }
        );
        for m in &END_TO_END {
            let values = self.values(m);
            if values.is_empty() {
                let _ = writeln!(
                    out,
                    "  {:<14} n/a ({} samples: fewer than ten beyond the rank)",
                    m.name,
                    self.reps.first().map_or(0, |r| r.samples)
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>12.4} {:<4} {} of {:?}{}",
                    m.name,
                    m.pick(&values),
                    m.unit,
                    if m.best_of { "best" } else { "median" },
                    values,
                    if m.gated { "" } else { "  (not gated)" }
                );
            }
        }
        if let Some(rep) = self.reps.first() {
            let _ = writeln!(
                out,
                "  samples {} per repetition, {} repetition(s)",
                rep.samples,
                self.reps.len()
            );
            let counters: Vec<String> = rep
                .counters
                .iter()
                .map(|(k, v)| format!("{k} {v}"))
                .collect();
            let _ = writeln!(
                out,
                "  script_hash {}  {}",
                rep.script_hash,
                counters.join("  ")
            );
        }
        for (name, ph) in PHASES.iter().zip(self.phases()) {
            let _ = writeln!(
                out,
                "  {name:<7} sent {} ok {} failed {} checked {}",
                ph.sent, ph.ok, ph.failed, ph.checked
            );
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let p = &self.params;
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let values = self.values(m);
                let value = if values.is_empty() {
                    Json::Null
                } else {
                    Json::Num(m.pick(&values))
                };
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("unit".into(), Json::Str(m.unit.into())),
                        ("value".into(), value),
                        (
                            "values".into(),
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let first = self.reps.first();
        Json::Obj(vec![
            ("why".into(), Json::Str(p.workload.why().into())),
            (
                "params".into(),
                Json::Obj(vec![
                    ("reads".into(), Json::num(p.reads as f64)),
                    ("hot_set".into(), Json::num(p.hot as f64)),
                    ("alpha".into(), Json::Num(p.alpha)),
                    ("warmup".into(), Json::num(p.warmup as f64)),
                    ("commit_every".into(), Json::num(p.commit_every as f64)),
                    ("commits".into(), Json::num(p.commits() as f64)),
                    ("update_batch".into(), Json::num(UPDATE_BATCH as f64)),
                    ("k".into(), Json::num(K)),
                ]),
            ),
            ("metrics".into(), Json::Obj(metrics)),
            (
                "samples".into(),
                Json::num(first.map_or(0, |r| r.samples) as f64),
            ),
            ("phases".into(), phases_json(&self.phases())),
            (
                "script_hash".into(),
                Json::Str(first.map_or(String::new(), |r| r.script_hash.clone())),
            ),
            (
                "counters".into(),
                object(first.map_or(&[], |r| &r.counters), |v| Json::num(*v as f64)),
            ),
        ])
    }
}

/// Per-layer `name → value` pairs as a JSON object.
pub fn layers_json(layers: &[(String, f64)]) -> Json {
    object(layers, |v| Json::Num(*v))
}

/// The metric vocabulary as the results file records it: each end-to-end
/// metric's unit / direction / bound, each per-layer metric's `moves`.
pub fn vocabulary_json() -> Vec<(String, Json)> {
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name.into())),
                ("unit".into(), Json::Str(m.unit.into())),
                ("better".into(), Json::Str(m.better.into())),
                ("bound".into(), Json::Num(m.bound)),
                ("gated".into(), Json::Bool(m.gated)),
                (
                    "value_is".into(),
                    Json::Str(
                        if m.best_of {
                            "best of repetitions"
                        } else {
                            "median of repetitions"
                        }
                        .into(),
                    ),
                ),
                ("what".into(), Json::Str(m.what.into())),
            ])
        })
        .collect();
    let layers = per_layer()
        .map(|m| {
            let moves = m
                .moves
                .iter()
                .map(|(metric, workload)| {
                    Json::Obj(vec![
                        ("metric".into(), Json::Str((*metric).into())),
                        ("workload".into(), Json::Str((*workload).into())),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name.into())),
                ("unit".into(), Json::Str(m.unit.into())),
                ("better".into(), Json::Str(m.better.into())),
                ("how".into(), Json::Str(m.how.into())),
                ("moves".into(), Json::Arr(moves)),
            ])
        })
        .collect();
    vec![
        ("end_to_end".into(), Json::Arr(end_to_end)),
        ("per_layer".into(), Json::Arr(layers)),
    ]
}

/// The fixed fixture, as recorded beside the results.
pub fn fixture_json(scale: &str, nodes: u32, edges: usize) -> Json {
    Json::Obj(vec![
        ("generator".into(), Json::Str("dblp_like".into())),
        ("scale".into(), Json::Str(scale.into())),
        ("seed".into(), Json::num(FIXTURE_SEED as f64)),
        ("nodes".into(), Json::num(nodes)),
        ("edges".into(), Json::num(edges as f64)),
        ("k".into(), Json::num(K)),
        ("zipf_alpha".into(), Json::Num(ALPHA)),
    ])
}

/// Indented rendering (two spaces), so a results file diffs line by line.
pub fn pretty(json: &Json) -> String {
    fn go(j: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match j {
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}{}: ", Json::Str(k.clone()).render());
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{}}}", "  ".repeat(depth));
            }
            Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Obj(_))) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad);
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{}]", "  ".repeat(depth));
            }
            other => out.push_str(&other.render()),
        }
    }
    let mut out = String::new();
    go(json, 0, &mut out);
    out.push('\n');
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The spread of either side's values is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison for one workload × metric.
pub struct Side {
    pub centre: f64,
    /// What is printed beside the centre: the quartiles of the runs, or
    /// the lowest and highest repetition of a single run.
    pub range: (f64, f64),
    /// How far the values behind `centre` disagree, as a share of it.
    pub spread: f64,
}

impl Side {
    /// Several runs: the median of their values, spread over their
    /// interquartile range — the acceptance driver's rule.
    pub fn of_runs(values: &[f64]) -> Side {
        let centre = median(values);
        let range = quartiles(values);
        Side {
            centre,
            range,
            spread: (range.1 - range.0) / centre,
        }
    }

    /// One run: its value, spread by how far the nearest other repetition
    /// lies from it. The value is a best or a median of three, so one slow
    /// repetition does not move it and must not make it `unresolved`; two
    /// repetitions that disagree do.
    pub fn of_run(value: f64, reps: &[f64]) -> Side {
        let mut gaps: Vec<f64> = reps.iter().map(|r| (r - value).abs()).collect();
        gaps.sort_by(f64::total_cmp);
        let low = reps.iter().copied().fold(value, f64::min);
        let high = reps.iter().copied().fold(value, f64::max);
        Side {
            centre: value,
            range: (low, high),
            // gaps[0] is the value's own repetition.
            spread: gaps.get(1).map_or(0.0, |gap| gap / value),
        }
    }
}

/// One workload × metric row of a comparison.
pub struct Row {
    /// Signed so that positive is worse: the share of A's centre by which
    /// B is worse.
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Compare B against A for one metric. `unresolved` when either side's
/// spread exceeds the bound.
pub fn judge(a: &Side, b: &Side, metric: &EndToEnd) -> Row {
    let rise = (b.centre - a.centre) / a.centre;
    let worse_by = if metric.better == "lower" {
        rise
    } else {
        -rise
    };
    let verdict = if a.spread.max(b.spread) > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row { worse_by, verdict }
}

fn workload_of<'a>(file: &'a Json, workload: &str) -> Result<&'a Json, String> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .ok_or_else(|| format!("a results file lacks workload {workload}"))
}

/// One side from its results files: [`Side::of_run`] for one file,
/// [`Side::of_runs`] for several (ten runs a side is the rule for a claim).
fn side(files: &[Json], workload: &str, metric: &EndToEnd) -> Result<Option<Side>, String> {
    let lacks = || format!("a results file lacks {workload} {}", metric.name);
    let mut runs = Vec::new();
    let mut reps = Vec::new();
    for file in files {
        let m = workload_of(file, workload)?
            .get("metrics")
            .and_then(|m| m.get(metric.name))
            .ok_or_else(lacks)?;
        runs.extend(m.get("value").and_then(Json::as_f64));
        let values = m.get("values").and_then(Json::as_arr).ok_or_else(lacks)?;
        reps.extend(values.iter().filter_map(Json::as_f64));
    }
    Ok(match runs.as_slice() {
        [] => None, // too few samples for the percentile
        [only] => Some(Side::of_run(*only, &reps)),
        _ => Some(Side::of_runs(&runs)),
    })
}

/// `(failed, sent)` summed over a workload's phases in every file.
fn failures(files: &[Json], workload: &str) -> Result<(u64, u64), String> {
    let mut total = (0, 0);
    for file in files {
        for name in PHASES {
            let count = |key: &str| {
                workload_of(file, workload)?
                    .get("phases")
                    .and_then(|p| p.get(name)?.get(key)?.as_u64())
                    .ok_or_else(|| format!("a results file lacks the phases of {workload}"))
            };
            total.0 += count("failed")?;
            total.1 += count("sent")?;
        }
    }
    Ok(total)
}

/// Compare two sets of results files; returns the printed report and
/// whether B passed (nothing `worse`, no larger failed share).
pub fn compare(a: &[Json], b: &[Json]) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<14} {:<14} {:>12} {:>24} {:>12} {:>24} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "A range", "B", "B range", "B worse", "bound"
    );
    for w in Workload::ALL {
        let name = w.name();
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, name, m)?, side(b, name, m)?) else {
                let _ = writeln!(out, "{name:<14} {:<14} n/a (too few samples)", m.name);
                continue;
            };
            let row = judge(&sa, &sb, m);
            pass &= row.verdict != Verdict::Worse || !m.gated;
            let range = |(q1, q3): (f64, f64)| format!("[{q1:.4} .. {q3:.4}]");
            let _ = writeln!(
                out,
                "{name:<14} {:<14} {:>12.4} {:>24} {:>12.4} {:>24} {:>+7.2}% {:>5.0}%  {}{}",
                m.name,
                sa.centre,
                range(sa.range),
                sb.centre,
                range(sb.range),
                row.worse_by * 100.0,
                m.bound * 100.0,
                row.verdict.name(),
                if m.gated { "" } else { " (not gated)" }
            );
        }
        let ((fa, sa), (fb, sb)) = (failures(a, name)?, failures(b, name)?);
        let _ = writeln!(
            out,
            "{name:<14} failed ops      A {fa} of {sa}    B {fb} of {sb}"
        );
        // fb/sb > fa/sa without dividing by a zero count.
        if fb * sa.max(1) > fa * sb.max(1) {
            pass = false;
            let _ = writeln!(out, "{name:<14} B fails a larger share of its ops");
        }
        let exact = |file: &Json| {
            let w = workload_of(file, name).ok()?;
            Some((w.get("script_hash")?.render(), w.get("counters")?.render()))
        };
        let mut seen: Vec<_> = a.iter().chain(b).map(exact).collect();
        seen.dedup();
        if seen.len() > 1 {
            let _ = writeln!(out, "{name:<14} exact-repeat counters differ: {seen:?}");
        }
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: &EndToEnd = &END_TO_END[1]; // query_p50_ms, best of, bound 0.25
    const HIGHER: &EndToEnd = &END_TO_END[3]; // queries_per_s, best of, bound 0.25

    fn one_run(m: &EndToEnd, reps: [f64; 3]) -> Side {
        Side::of_run(m.pick(&reps), &reps)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let verdict = |m: &EndToEnd, b: [f64; 3]| {
            judge(&one_run(m, [10.0, 10.1, 10.2]), &one_run(m, b), m).verdict
        };
        assert_eq!(verdict(LOWER, [11.3, 11.4, 11.5]), Verdict::Same);
        assert_eq!(verdict(LOWER, [13.0, 13.1, 13.2]), Verdict::Worse);
        assert_eq!(verdict(LOWER, [7.0, 7.1, 7.2]), Verdict::Better);
        // Higher is better: the same drop is now a regression.
        assert_eq!(verdict(HIGHER, [7.0, 7.1, 7.2]), Verdict::Worse);
        assert_eq!(verdict(HIGHER, [13.0, 13.1, 13.2]), Verdict::Better);
        // One slow repetition does not unsettle a best of three; two
        // repetitions that disagree by more than the bound do.
        assert_eq!(verdict(LOWER, [10.0, 10.1, 14.0]), Verdict::Same);
        assert_eq!(verdict(LOWER, [10.0, 13.0, 14.0]), Verdict::Unresolved);
        // Ten runs a side: the driver's interquartile rule.
        let runs =
            |shift: f64| -> Vec<f64> { (0..10).map(|i| 10.0 + shift + 0.1 * i as f64).collect() };
        let (a, b) = (Side::of_runs(&runs(0.0)), Side::of_runs(&runs(3.0)));
        assert!((a.spread - 0.55 / 10.45).abs() < 1e-9, "{}", a.spread);
        assert_eq!(judge(&a, &b, LOWER).verdict, Verdict::Worse);
        let wide: Vec<f64> = (0..10).map(|i| 10.0 + 0.6 * i as f64).collect();
        assert_eq!(
            judge(&a, &Side::of_runs(&wide), LOWER).verdict,
            Verdict::Unresolved
        );
        // Best of three: A's 10.0 against B's 11.0.
        let row = judge(
            &one_run(LOWER, [10.0, 10.1, 10.2]),
            &one_run(LOWER, [11.0, 11.5, 11.2]),
            LOWER,
        );
        assert!((row.worse_by - 0.10).abs() < 1e-9, "{}", row.worse_by);
    }

    fn results(p50: [f64; 3], failed: u64, hits: u64) -> Json {
        let metric = |m: &EndToEnd, values: &[f64]| {
            Json::Obj(vec![
                ("value".into(), Json::Num(m.pick(values))),
                (
                    "values".into(),
                    Json::Arr(values.iter().copied().map(Json::Num).collect()),
                ),
            ])
        };
        let phase = |failed: u64| {
            Json::Obj(vec![
                ("sent".into(), Json::num(100)),
                ("failed".into(), Json::num(failed as f64)),
            ])
        };
        let workload = Json::Obj(vec![
            (
                "metrics".into(),
                Json::Obj(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            let v = if m.name == "query_p50_ms" {
                                p50
                            } else {
                                [5.0; 3]
                            };
                            (m.name.to_string(), metric(m, &v))
                        })
                        .collect(),
                ),
            ),
            (
                "phases".into(),
                Json::Obj(vec![
                    ("setup".into(), phase(0)),
                    ("script".into(), phase(failed)),
                    ("check".into(), phase(0)),
                ]),
            ),
            ("script_hash".into(), Json::Str("ab".into())),
            (
                "counters".into(),
                Json::Obj(vec![("cache_hits".into(), Json::num(hits as f64))]),
            ),
        ]);
        Json::Obj(vec![(
            "workloads".into(),
            Json::Obj(
                Workload::ALL
                    .iter()
                    .map(|w| (w.name().to_string(), workload.clone()))
                    .collect(),
            ),
        )])
    }

    #[test]
    fn compare_passes_a_a_and_fails_a_regression_or_new_failures() {
        let a = [results([10.0, 10.1, 10.2], 0, 7)];
        let (report, pass) = compare(&a, &a).unwrap();
        assert!(pass, "{report}");
        assert_eq!(report.matches("%  same").count(), 20, "{report}");
        assert!(!report.contains("counters differ"));

        let (report, pass) = compare(&a, &[results([13.0, 13.1, 13.2], 0, 7)]).unwrap();
        assert!(!pass);
        assert_eq!(report.matches("%  worse").count(), 4, "{report}");

        let (report, pass) = compare(&a, &[results([10.0, 10.1, 10.2], 3, 8)]).unwrap();
        assert!(!pass, "more failed ops must fail the comparison");
        assert!(report.contains("larger share") && report.contains("counters differ"));

        assert!(compare(&a, &[Json::Obj(vec![])]).is_err());
    }

    #[test]
    fn several_files_a_side_spread_over_the_runs_not_the_repetitions() {
        // Within each run the two best repetitions disagree by 30 %, but
        // the runs' own values (best of three: 10.0 and 10.2) agree.
        let side = [
            results([10.0, 14.0, 13.0], 0, 7),
            results([10.2, 14.0, 13.3], 0, 7),
        ];
        let (report, pass) = compare(&side, &side).unwrap();
        assert!(pass && !report.contains("unresolved"), "{report}");
        let (report, _) = compare(&side[..1], &side[..1]).unwrap();
        assert_eq!(report.matches("%  unresolved").count(), 4, "{report}");
    }

    #[test]
    fn the_determinism_guard_names_the_counter() {
        let rep = |hits| Rep {
            script_hash: "ab".into(),
            counters: vec![("commits".into(), 4), ("cache_hits".into(), hits)],
            ..Rep::default()
        };
        let params = Params::new(Workload::ServeChurn, 12, true);
        let steady = WorkloadResult {
            params,
            reps: vec![rep(9), rep(9), rep(9)],
        };
        assert_eq!(steady.check_deterministic(), Ok(()));
        let drifting = WorkloadResult {
            params,
            reps: vec![rep(9), rep(9), rep(8)],
        };
        assert_eq!(
            drifting.check_deterministic().unwrap_err(),
            "nondeterministic workload: serve_churn cache_hits [\"9\", \"9\", \"8\"]"
        );
    }

    #[test]
    fn pretty_output_parses_back() {
        let j = results([1.0, 2.0, 3.5], 0, 1);
        assert_eq!(Json::parse(&pretty(&j)).unwrap(), j);
    }
}
