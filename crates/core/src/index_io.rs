//! Index persistence.
//!
//! The paper's index is expensive to build (Table 15: hours on real DBLP)
//! and keeps improving as it absorbs queries (Table 14) — exactly the kind
//! of state a deployment wants to keep across restarts. This module stores
//! an [`RkrIndex`] in a line-oriented text format:
//!
//! ```text
//! rkr-index v3 <num_nodes> <k_max> <graph_epoch>
//! H <hub> <hub> ...
//! C <node> <check-value>
//! R <target> <source> <rank>
//! ```
//!
//! The header's graph epoch ([`RkrIndex::graph_epoch`]) says which graph
//! the ranks were measured on: 0 for an index built against a static edge
//! file. Callers that pair a loaded index with a plain edge file must
//! refuse `graph_epoch > 0` indexes — those belong inside a snapshot
//! bundle ([`crate::snapshot`]) where the matching graph travels
//! alongside.
//!
//! `v3` marks ranks measured with exact integer distances. [`read_index`]
//! refuses the older `v1` and `v2` headers: their ranks came from
//! floating-point path sums, which can misorder near-tied distances, so
//! such a file is rebuilt with `rkr build-index`, not loaded.
//!
//! Loading validates structure (ids in range, ranks ≥ 1, list caps) so a
//! corrupted file cannot produce an index that silently mis-prunes.
//! [`save_index`] writes atomically ([`rkranks_graph::write_atomic`]):
//! a crash mid-save never truncates the previous good file.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use rkranks_graph::{write_atomic, GraphError, NodeId, Result};

use crate::index::RkrIndex;

/// Serialize an index (see the module docs for the format).
pub fn write_index<W: Write>(index: &RkrIndex, out: W) -> Result<()> {
    let mut w = BufWriter::new(out);
    writeln!(
        w,
        "rkr-index v3 {} {} {}",
        index.num_nodes(),
        index.k_max(),
        index.graph_epoch()
    )?;
    if !index.hubs().is_empty() {
        write!(w, "H")?;
        for h in index.hubs() {
            write!(w, " {h}")?;
        }
        writeln!(w)?;
    }
    for (u, c) in index.check_entries() {
        writeln!(w, "C {u} {c}")?;
    }
    for (target, list) in index.rrd_lists() {
        for &(rank, source) in list {
            writeln!(w, "R {target} {source} {rank}")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Save an index to a file (atomically; see
/// [`rkranks_graph::write_atomic`]).
pub fn save_index<P: AsRef<Path>>(index: &RkrIndex, path: P) -> Result<()> {
    write_atomic(path, |w| write_index(index, w))
}

/// Deserialize an index.
pub fn read_index<R: Read>(input: R) -> Result<RkrIndex> {
    let reader = BufReader::new(input);
    let mut lines = reader.lines().enumerate();
    let parse_err = |line: usize, message: String| GraphError::Parse {
        line: line + 1,
        message,
    };

    let (num_nodes, k_max, graph_epoch) = loop {
        let (idx, line) = lines
            .next()
            .ok_or_else(|| parse_err(0, "empty index file".into()))
            .and_then(|(i, l)| Ok((i, l?)))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("rkr-index"), Some("v3")) => {}
            (Some("rkr-index"), Some("v1" | "v2")) => {
                return Err(parse_err(
                    idx,
                    "this index predates exact integer distances; rebuild it with \
                     `rkr build-index`"
                        .into(),
                ))
            }
            _ => {
                return Err(parse_err(
                    idx,
                    "expected 'rkr-index v3 <nodes> <k_max> <graph_epoch>' header".into(),
                ))
            }
        }
        let n: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(idx, "bad node count".into()))?;
        let k: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(idx, "bad k_max".into()))?;
        let ge: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(idx, "bad graph epoch".into()))?;
        break (n, k, ge);
    };

    let mut index = RkrIndex::empty(num_nodes, k_max);
    index.set_graph_epoch(graph_epoch);
    let in_range = |line: usize, v: u32| {
        if v < num_nodes {
            Ok(NodeId(v))
        } else {
            Err(parse_err(
                line,
                format!("node {v} out of range (n = {num_nodes})"),
            ))
        }
    };
    for (idx, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let tag = parts.next().unwrap();
        let mut num = |what: &str| -> Result<u32> {
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(idx, format!("bad {what}")))
        };
        match tag {
            "H" => {
                let mut hubs = Vec::new();
                for tok in t.split_whitespace().skip(1) {
                    let v: u32 = tok
                        .parse()
                        .map_err(|_| parse_err(idx, format!("bad hub id '{tok}'")))?;
                    hubs.push(in_range(idx, v)?);
                }
                index.set_hubs(hubs);
            }
            "C" => {
                let u = in_range(idx, num("node")?)?;
                let c = num("check value")?;
                index.raise_check(u, c);
            }
            "R" => {
                let target = in_range(idx, num("target")?)?;
                let source = in_range(idx, num("source")?)?;
                let rank = num("rank")?;
                if rank == 0 {
                    return Err(parse_err(idx, "ranks start at 1".into()));
                }
                index.offer(target, source, rank);
            }
            other => return Err(parse_err(idx, format!("unknown record tag '{other}'"))),
        }
    }
    Ok(index)
}

/// Load an index from a file.
pub fn load_index<P: AsRef<Path>>(path: P) -> Result<RkrIndex> {
    read_index(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BoundConfig, QueryEngine};
    use crate::index::{IndexAccess, IndexParams};
    use crate::request::{QueryRequest, Strategy};
    use crate::spec::QuerySpec;
    use rkranks_graph::{graph_from_edges, EdgeDirection};

    fn sample_index() -> RkrIndex {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 0, 1.5)],
        )
        .unwrap();
        let params = IndexParams {
            hub_fraction: 0.5,
            prefix_fraction: 0.75,
            k_max: 3,
            ..Default::default()
        };
        RkrIndex::build(&g, QuerySpec::Mono, &params).0
    }

    fn round_trip(idx: &RkrIndex) -> RkrIndex {
        let mut buf = Vec::new();
        write_index(idx, &mut buf).unwrap();
        read_index(&buf[..]).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let idx = sample_index();
        let back = round_trip(&idx);
        assert_eq!(back.k_max(), idx.k_max());
        assert_eq!(back.num_nodes(), idx.num_nodes());
        assert_eq!(back.hubs(), idx.hubs());
        assert_eq!(back.rrd_entries(), idx.rrd_entries());
        for u in 0..idx.num_nodes() {
            assert_eq!(back.check(NodeId(u)), idx.check(NodeId(u)));
            assert_eq!(
                back.top_entries(NodeId(u), 10),
                idx.top_entries(NodeId(u), 10)
            );
        }
    }

    #[test]
    fn round_trip_after_query_updates() {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 1.0),
                (1, 2, 0.5),
                (2, 3, 2.0),
                (3, 0, 1.5),
                (0, 2, 3.0),
            ],
        )
        .unwrap();
        let mut engine = QueryEngine::new(&g);
        let mut live = |idx: &mut RkrIndex, q| {
            let req = QueryRequest::new(q, 2).with_strategy(Strategy::Indexed(BoundConfig::ALL));
            let access = &mut IndexAccess::Live(idx);
            engine.execute_with(Some(access), &req).unwrap().result
        };
        let mut idx = RkrIndex::empty(g.num_nodes(), 4);
        for q in g.nodes() {
            live(&mut idx, q);
        }
        // and the loaded index answers identically
        let mut loaded = round_trip(&idx);
        for q in g.nodes() {
            let a = live(&mut idx, q);
            let b = live(&mut loaded, q);
            assert_eq!(a.entries, b.entries, "q={q}");
        }
    }

    #[test]
    fn empty_index_round_trips() {
        let idx = RkrIndex::empty(5, 7);
        let back = round_trip(&idx);
        assert_eq!(back.num_nodes(), 5);
        assert_eq!(back.k_max(), 7);
        assert_eq!(back.rrd_entries(), 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_index("not an index\n".as_bytes()).is_err());
        assert!(read_index("".as_bytes()).is_err());
        assert!(read_index("rkr-index v3 5\n".as_bytes()).is_err()); // missing k_max
        assert!(read_index("rkr-index v3 5 3 0\nX 1 2 3\n".as_bytes()).is_err()); // bad tag
        assert!(read_index("rkr-index v3 5 3 0\nR 9 0 1\n".as_bytes()).is_err()); // out of range
        assert!(read_index("rkr-index v3 5 3 0\nR 0 1 0\n".as_bytes()).is_err());
        // rank 0
    }

    /// A write interrupted mid-stream (partial header, record cut short,
    /// or numeric garbage where a field was truncated) must be a parse
    /// error, never a silently mis-pruning index.
    #[test]
    fn rejects_truncated_and_corrupt_files() {
        // a real serialized index whose final record lost its last field
        // (the classic interrupted-write shape)
        let mut buf = Vec::new();
        write_index(&sample_index(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with('R'), "expected an R record last: {last:?}");
        let cut_field = last.rsplit_once(' ').unwrap().0;
        let truncated = format!("{}{cut_field}\n", &text[..text.len() - last.len() - 1]);
        assert!(
            read_index(truncated.as_bytes()).is_err(),
            "accepted a record truncated to {cut_field:?}"
        );
        // header truncated before the dimensions
        assert!(read_index("rkr-index\n".as_bytes()).is_err());
        assert!(read_index("rkr-index v3\n".as_bytes()).is_err());
        // records with missing fields
        assert!(read_index("rkr-index v3 5 3 0\nC 1\n".as_bytes()).is_err());
        assert!(read_index("rkr-index v3 5 3 0\nR 0 1\n".as_bytes()).is_err());
        // numeric garbage
        assert!(read_index("rkr-index v3 5 3 0\nC x 2\n".as_bytes()).is_err());
        assert!(read_index("rkr-index v3 5 3 0\nR 0 1 abc\n".as_bytes()).is_err());
        assert!(read_index("rkr-index v3 5 3 0\nH 1 x\n".as_bytes()).is_err());
        // hub id out of range
        assert!(read_index("rkr-index v3 5 3 0\nH 9\n".as_bytes()).is_err());
        // check-dictionary node out of range
        assert!(read_index("rkr-index v3 5 3 0\nC 9 1\n".as_bytes()).is_err());
        // non-UTF-8 bytes mid-file surface as an error, not a panic
        let mut bad = b"rkr-index v3 5 3 0\nC 1 ".to_vec();
        bad.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        assert!(read_index(&bad[..]).is_err());
    }

    /// Parse errors carry the 1-based line number of the offending record.
    #[test]
    fn parse_errors_point_at_the_bad_line() {
        let text = "rkr-index v3 5 3 0\nC 1 2\nR 0 1 oops\n";
        match read_index(text.as_bytes()) {
            Err(rkranks_graph::GraphError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blanks_allowed() {
        let text = "# persisted index\n\nrkr-index v3 3 2 0\nC 1 4\nR 0 1 2\n";
        let idx = read_index(text.as_bytes()).unwrap();
        assert_eq!(idx.check(NodeId(1)), 4);
        assert_eq!(idx.lookup(NodeId(0), NodeId(1)), Some(2));
    }

    /// Every index writes the `v3` header, its graph epoch included, and
    /// the epoch survives the round trip.
    #[test]
    fn graph_epoch_round_trips_through_the_v3_header() {
        let mut idx = sample_index();
        for epoch in [0, 3] {
            idx.set_graph_epoch(epoch);
            let mut buf = Vec::new();
            write_index(&idx, &mut buf).unwrap();
            let header = format!("rkr-index v3 {} {} {epoch}\n", idx.num_nodes(), idx.k_max());
            assert!(buf.starts_with(header.as_bytes()), "expected {header:?}");
            let back = read_index(&buf[..]).unwrap();
            assert_eq!(back.graph_epoch(), epoch);
            assert_eq!(back.rrd_entries(), idx.rrd_entries());
        }
    }

    /// `v1` and `v2` files hold ranks from floating-point distances: each
    /// is refused with one line that says so and names the rebuild.
    #[test]
    fn v1_and_v2_headers_are_refused() {
        for text in ["rkr-index v1 3 2\nC 1 4\n", "rkr-index v2 3 2 9\nC 1 4\n"] {
            let err = read_index(text.as_bytes()).unwrap_err().to_string();
            assert!(err.contains("exact integer distances"), "{err}");
            assert!(err.contains("rkr build-index"), "{err}");
        }
    }

    #[test]
    fn v3_header_is_validated() {
        // missing epoch field
        assert!(read_index("rkr-index v3 5 3\n".as_bytes()).is_err());
        // numeric garbage in the epoch field
        assert!(read_index("rkr-index v3 5 3 soon\n".as_bytes()).is_err());
        // unknown versions are rejected outright
        assert!(read_index("rkr-index v4 5 3 1\n".as_bytes()).is_err());
        // well-formed v3 loads
        let idx = read_index("rkr-index v3 5 3 9\nC 1 2\n".as_bytes()).unwrap();
        assert_eq!(idx.graph_epoch(), 9);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rkranks-index-io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.rkri");
        let idx = sample_index();
        save_index(&idx, &path).unwrap();
        let back = load_index(&path).unwrap();
        assert_eq!(back.rrd_entries(), idx.rrd_entries());
        std::fs::remove_file(&path).ok();
    }
}
