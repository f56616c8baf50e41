//! Weighted edge-list text I/O.
//!
//! Format (one logical edge per line, `#` comments allowed):
//!
//! ```text
//! # header: direction and node count (node count covers isolated nodes;
//! # every endpoint must be below it)
//! undirected 7
//! 0 1 1.0
//! 1 4 0.2
//! ```

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::{EdgeDirection, GraphBuilder};
use crate::error::{GraphError, Result};
use crate::graph::Graph;

/// Serialize a graph to the text format.
pub fn write_graph<W: Write>(graph: &Graph, out: W) -> Result<()> {
    let mut w = BufWriter::new(out);
    let dir = if graph.is_directed() {
        "directed"
    } else {
        "undirected"
    };
    writeln!(w, "{dir} {}", graph.num_nodes())?;
    for u in graph.nodes() {
        for (v, weight) in graph.edges(u) {
            // Undirected graphs store both arcs; emit each edge once.
            if !graph.is_directed() && v.0 < u.0 {
                continue;
            }
            writeln!(w, "{} {} {}", u.0, v.0, weight)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Save a graph to a file (atomically; see [`write_atomic`]).
pub fn save_graph<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<()> {
    write_atomic(path, |w| write_graph(graph, w))
}

/// Write a file atomically: stream through `write` into a temp file in
/// the same directory, fsync, and rename over `path`.
///
/// A crash mid-write therefore never clobbers the previous good state
/// with a truncated file — the destination is either the old contents or
/// the complete new ones. All the persistence entry points
/// ([`save_graph`], the index and snapshot writers in `rkranks-core`)
/// funnel through here.
pub fn write_atomic<P, F>(path: P, write: F) -> Result<()>
where
    P: AsRef<Path>,
    F: FnOnce(&mut dyn Write) -> Result<()>,
{
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path.file_name().ok_or_else(|| {
        GraphError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("not a file path: {}", path.display()),
        ))
    })?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        write(&mut w)?;
        w.flush()?;
        w.into_inner()
            .map_err(|e| GraphError::Io(e.into_error()))?
            .sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Parse a graph from the text format.
///
/// An endpoint at or past the header's node count is a
/// [`GraphError::Parse`] naming the line, the node and the count.
pub fn read_graph<R: Read>(input: R) -> Result<Graph> {
    let reader = BufReader::new(input);
    let mut lines = reader.lines().enumerate();

    // Header (skipping comments / blank lines).
    let (direction, node_count) = loop {
        let (idx, line) = match lines.next() {
            Some((idx, line)) => (idx, line?),
            None => {
                return Err(GraphError::Parse {
                    line: 0,
                    message: "missing header".into(),
                })
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let dir = match parts.next() {
            Some("directed") => EdgeDirection::Directed,
            Some("undirected") => EdgeDirection::Undirected,
            other => {
                return Err(GraphError::Parse {
                    line: idx + 1,
                    message: format!("expected 'directed' or 'undirected', got {other:?}"),
                })
            }
        };
        let n: u32 =
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| GraphError::Parse {
                    line: idx + 1,
                    message: "header must be '<direction> <num_nodes>'".into(),
                })?;
        break (dir, n);
    };

    let mut b = GraphBuilder::new(direction);
    b.reserve_nodes(node_count);
    for (idx, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_err = |message: String| GraphError::Parse {
            line: idx + 1,
            message,
        };
        let u: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err("bad source node".into()))?;
        let v: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err("bad target node".into()))?;
        let w: f64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err("bad weight".into()))?;
        if parts.next().is_some() {
            return Err(parse_err("trailing tokens".into()));
        }
        if let Some(node) = [u, v].into_iter().find(|&x| x >= node_count) {
            return Err(parse_err(format!(
                "node {node} is out of range: the header declares {node_count} nodes"
            )));
        }
        b.add_edge(u, v, w)?;
    }
    b.build()
}

/// Load a graph from a file.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<Graph> {
    read_graph(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::node::NodeId;

    #[test]
    fn round_trip_undirected() {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 0.25), (0, 3, 2.5)],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn round_trip_directed() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert!(g2.is_directed());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# a comment\n\nundirected 3\n# another\n0 1 1.5\n\n1 2 2.5\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn header_reserves_isolated_nodes() {
        let text = "undirected 10\n0 1 1.0\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(NodeId(9)), 0);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "undirected 3\n0 1 not-a-number\n";
        match read_graph(text.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn endpoints_past_the_header_count_are_rejected() {
        for (text, node) in [
            ("undirected 3\n0 1 1.0\n1 10 2.0\n", 10),
            ("directed 3\n0 1 1.0\n3 1 2.0\n", 3),
            ("undirected 3\n0 1 1.0\n1 400000000 2.0\n", 400_000_000),
            ("directed 3\n# a comment\n4294967295 0 1.0\n", u32::MAX),
        ] {
            match read_graph(text.as_bytes()) {
                Err(GraphError::Parse { line: 3, message }) => {
                    assert!(message.contains(&format!("node {node} ")), "{message}");
                    assert!(message.contains("3 nodes"), "{message}");
                }
                other => panic!("expected a parse error on line 3 for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_header_is_rejected() {
        assert!(matches!(
            read_graph("sideways 3\n".as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_graph("".as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn negative_weight_in_file_is_rejected() {
        let text = "directed 2\n0 1 -3.0\n";
        assert!(matches!(
            read_graph(text.as_bytes()),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rkranks-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 0.5)]).unwrap();
        save_graph(&g, &path).unwrap();
        let g2 = load_graph(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }

    /// An interrupted write must leave the previous file intact and no
    /// temp debris behind — the whole point of [`write_atomic`].
    #[test]
    fn failed_atomic_write_preserves_previous_contents() {
        let dir = std::env::temp_dir().join(format!("rkranks-io-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.txt");
        std::fs::write(&path, "good state\n").unwrap();

        let err = write_atomic(&path, |w| {
            w.write_all(b"partial garbage")?;
            Err(GraphError::Parse {
                line: 1,
                message: "simulated crash mid-write".into(),
            })
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "good state\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp debris left: {leftovers:?}");

        // and a successful write replaces the contents
        write_atomic(&path, |w| Ok(w.write_all(b"new state\n")?)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new state\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
