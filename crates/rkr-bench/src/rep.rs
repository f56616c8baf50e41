//! One repetition's result: what a child process measures and prints as a
//! single JSON line for the harness to aggregate.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rkranks_server::json::Json;

use crate::stats::percentile;
use crate::trace::NameSummary;

/// Op accounting of one phase. A refused, errored, `partial` or wrong
/// answer is a failed op; `checked` counts answers compared against a
/// reference.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Phase {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub checked: u64,
}

impl Phase {
    /// Account one op.
    pub fn op(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Account one answer compared against its reference.
    pub fn check(&mut self, ok: bool) {
        self.checked += 1;
        self.op(ok);
    }

    pub fn add(&mut self, other: &Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.checked += other.checked;
    }
}

pub const PHASES: [&str; 3] = ["setup", "script", "check"];

/// Three phases' accounting, keyed by [`PHASES`].
pub fn phases_json(phases: &[Phase; 3]) -> Json {
    let fields = PHASES.iter().zip(phases).map(|(name, p)| {
        let counts = [
            ("sent", p.sent),
            ("ok", p.ok),
            ("failed", p.failed),
            ("checked", p.checked),
        ];
        let counts = counts.map(|(k, v)| (k.to_string(), Json::num(v as f64)));
        (name.to_string(), Json::Obj(counts.to_vec()))
    });
    Json::Obj(fields.collect())
}

/// `name → value` pairs as a JSON object, in order.
pub fn object<T>(pairs: &[(String, T)], value: impl Fn(&T) -> Json) -> Json {
    Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

/// What one repetition measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Process start to first timed op.
    pub setup_s: f64,
    /// Wall time of the whole timed script.
    pub script_s: f64,
    /// Latency percentiles of the timed reads; `None` below the
    /// ten-samples-beyond rule.
    pub p50_ms: Option<f64>,
    pub p90_ms: Option<f64>,
    /// Correct reads ÷ `script_s`.
    pub queries_per_s: f64,
    /// `VmHWM` when the timed script ended (set-up included, the
    /// correctness checks that follow excluded).
    pub peak_rss_mb: f64,
    /// Timed reads behind the percentiles.
    pub samples: u64,
    /// In [`PHASES`] order.
    pub phases: [Phase; 3],
    /// FNV-1a of the op list, hex.
    pub script_hash: String,
    /// Exact-repeat counters: identical across repetitions of one seed.
    pub counters: Vec<(String, u64)>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<(String, f64)>,
    /// Per-name span totals (traced repetitions only).
    pub spans: Vec<(String, NameSummary)>,
}

impl Rep {
    /// Fill the latency and throughput fields from the timed reads, of
    /// which `reads_ok` were answered correctly.
    pub fn set_latencies(&mut self, mut latencies_ns: Vec<u64>, script_s: f64, reads_ok: u64) {
        latencies_ns.sort_unstable();
        let ms = |ns: u64| ns as f64 / 1e6;
        self.p50_ms = percentile(&latencies_ns, 0.5).map(ms);
        self.p90_ms = percentile(&latencies_ns, 0.9).map(ms);
        self.samples = latencies_ns.len() as u64;
        self.script_s = script_s;
        self.queries_per_s = reads_ok as f64 / script_s;
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::Obj(vec![
            ("setup_s".into(), Json::Num(self.setup_s)),
            ("script_s".into(), Json::Num(self.script_s)),
            ("query_p50_ms".into(), opt(self.p50_ms)),
            ("query_p90_ms".into(), opt(self.p90_ms)),
            ("queries_per_s".into(), Json::Num(self.queries_per_s)),
            ("peak_rss_mb".into(), Json::Num(self.peak_rss_mb)),
            ("samples".into(), Json::num(self.samples as f64)),
            ("phases".into(), phases_json(&self.phases)),
            ("script_hash".into(), Json::Str(self.script_hash.clone())),
            (
                "counters".into(),
                object(&self.counters, |v| Json::num(*v as f64)),
            ),
            ("layers".into(), object(&self.layers, |v| Json::Num(*v))),
            ("spans".into(), object(&self.spans, NameSummary::to_json)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Rep, String> {
        let num = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("repetition result lacks '{key}'"))
        };
        let obj = |key: &str| match j.get(key) {
            Some(Json::Obj(fields)) => Ok(fields),
            _ => Err(format!("repetition result lacks '{key}'")),
        };
        let mut phases = [Phase::default(); 3];
        for (slot, name) in phases.iter_mut().zip(PHASES) {
            let p = j
                .get("phases")
                .and_then(|p| p.get(name))
                .ok_or_else(|| format!("repetition result lacks phase '{name}'"))?;
            let field = |key: &str| p.get(key).and_then(Json::as_u64).unwrap_or(0);
            *slot = Phase {
                sent: field("sent"),
                ok: field("ok"),
                failed: field("failed"),
                checked: field("checked"),
            };
        }
        Ok(Rep {
            setup_s: num("setup_s")?,
            script_s: num("script_s")?,
            p50_ms: j.get("query_p50_ms").and_then(Json::as_f64),
            p90_ms: j.get("query_p90_ms").and_then(Json::as_f64),
            queries_per_s: num("queries_per_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            samples: num("samples")? as u64,
            phases,
            script_hash: j
                .get("script_hash")
                .and_then(Json::as_str)
                .ok_or("repetition result lacks 'script_hash'")?
                .to_string(),
            counters: obj("counters")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect(),
            layers: obj("layers")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            spans: obj("spans")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), NameSummary::from_json(v)?)))
                .collect(),
        })
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is not there).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `want` distinct indices below `n` chosen by `seed`, ascending — the
/// seeded sample of answers a repetition re-checks against a reference.
pub fn sample_indices(n: usize, want: usize, seed: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    all.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xC4EC));
    all.truncate(want);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_survives_its_json_line() {
        let mut rep = Rep {
            setup_s: 2.25,
            peak_rss_mb: 93.5,
            script_hash: "00ff".into(),
            counters: vec![("cache_hits".into(), 42)],
            layers: vec![("core.refine_ms".into(), 7.5)],
            spans: vec![(
                "engine.execute".into(),
                NameSummary {
                    count: 30,
                    total_ns: 900,
                    self_ns: 12,
                },
            )],
            ..Rep::default()
        };
        for _ in 0..30 {
            rep.phases[1].op(true);
        }
        rep.phases[2].check(false);
        rep.set_latencies((1..=30).map(|i| i * 1_000_000).collect(), 1.5, 30);
        assert_eq!(rep.p50_ms, Some(15.0));
        assert_eq!(rep.p90_ms, None, "27 of 30 leaves three samples beyond");
        assert_eq!(rep.queries_per_s, 20.0);
        assert_eq!((rep.phases[2].failed, rep.phases[2].checked), (1, 1));
        let line = rep.to_json().render();
        assert_eq!(Rep::from_json(&Json::parse(&line).unwrap()).unwrap(), rep);
    }

    #[test]
    fn samples_are_seeded_distinct_and_bounded() {
        let a = sample_indices(100, 16, 7);
        assert_eq!(a, sample_indices(100, 16, 7));
        assert_ne!(a, sample_indices(100, 16, 8));
        assert_eq!(a.len(), 16);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(3, 16, 7), vec![0, 1, 2]);
    }
}
