//! The harness's own span recorder.
//!
//! A span is recorded around each call the benchmark makes into a layer
//! (`engine.execute`, `client.query` → `client.send` / `client.recv`,
//! `writer.update`, `writer.flush`); spans of one request share a
//! `request` id. Spans live in memory for the whole script and are
//! written when the repetition ends. Spans *inside* `rkrd`, the
//! coordinator or the engine are a later change (ROADMAP item 5).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use rkranks_server::json::Json;

/// At most this many spans are written to a trace file (the per-name
/// summary always covers all of them): `serve_hot` records 750,000.
const SPANS_WRITTEN_CAP: usize = 30_000;

/// One timed interval. `parent == 0` marks a root span (ids start at 1).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store with its own clock origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id (for children to name).
    pub fn push(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals for all spans of one name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameSummary {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of each span its children cover.
    pub self_ns: u64,
}

impl NameSummary {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::num(self.count as f64)),
            ("total_ns".into(), Json::num(self.total_ns as f64)),
            ("self_ns".into(), Json::num(self.self_ns as f64)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<NameSummary> {
        Some(NameSummary {
            count: j.get("count")?.as_u64()?,
            total_ns: j.get("total_ns")?.as_u64()?,
            self_ns: j.get("self_ns")?.as_u64()?,
        })
    }
}

/// Per-name `count / total / self` over `spans`. A span's self time is its
/// duration minus the union of its children's intervals clipped to it, so
/// overlapping or overhanging children are never counted twice.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - covered;
    }
    out
}

/// Write a `<workload>.trace.json` body: the summary, then the first
/// [`SPANS_WRITTEN_CAP`] spans one per line.
pub fn write_trace(out: &mut impl Write, workload: &str, spans: &[Span]) -> io::Result<()> {
    let summary = summarize(spans)
        .into_iter()
        .map(|(name, s)| (name.to_string(), s.to_json()))
        .collect();
    let written = spans.len().min(SPANS_WRITTEN_CAP);
    writeln!(
        out,
        "{{\"workload\":{},\"spans_total\":{},\"spans_written\":{},\"summary\":{},\"spans\":[",
        Json::Str(workload.into()).render(),
        spans.len(),
        written,
        Json::Obj(summary).render(),
    )?;
    for (i, s) in spans[..written].iter().enumerate() {
        let line = Json::Obj(vec![
            ("id".into(), Json::num(s.id)),
            ("parent".into(), Json::num(s.parent)),
            ("request".into(), Json::num(s.request)),
            ("name".into(), Json::Str(s.name.into())),
            ("start_ns".into(), Json::num(s.start_ns as f64)),
            ("end_ns".into(), Json::num(s.end_ns as f64)),
        ]);
        let comma = if i + 1 < written { "," } else { "" };
        writeln!(out, "{}{comma}", line.render())?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        // root [0,100]: children [10,40] and [30,60] overlap (union 50),
        // a third [90,120] overhangs the parent (clipped to 10).
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "kid", 10, 40),
            span(3, 1, "kid", 30, 60),
            span(4, 1, "late", 90, 120),
            span(5, 2, "leaf", 15, 20),
        ];
        let s = summarize(&spans);
        assert_eq!(
            s["root"],
            NameSummary {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        // kid #2 loses its leaf's 5 ns; kid #3 has no children.
        assert_eq!(
            s["kid"],
            NameSummary {
                count: 2,
                total_ns: 60,
                self_ns: 55
            }
        );
        assert_eq!(s["late"].self_ns, 30);
        assert_eq!(s["leaf"].self_ns, 5);
    }

    #[test]
    fn trace_file_round_trips_through_the_json_parser() {
        let mut rec = Recorder::new();
        let root = rec.push(0, 7, "client.query", 5, 50);
        rec.push(root, 7, "client.send", 5, 20);
        let mut text = Vec::new();
        write_trace(&mut text, "serve_hot", rec.spans()).unwrap();
        let json = Json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(json.get("spans_total").and_then(Json::as_u64), Some(2));
        let summary = json.get("summary").unwrap();
        let query = summary.get("client.query").unwrap();
        assert_eq!(query.get("self_ns").and_then(Json::as_u64), Some(30));
        assert_eq!(json.get("spans").and_then(Json::as_arr).unwrap().len(), 2);
    }
}
