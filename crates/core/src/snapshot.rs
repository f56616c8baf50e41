//! Durable serving-state snapshots: one integrity-checked bundle holding
//! the committed graph, the index, the epoch pair, and the staged
//! write-ahead log.
//!
//! The paper's index is the expensive asset (Table 15: hours of
//! preprocessing on real DBLP) — state a daemon must be able to lay down
//! and pick back up. A serving daemon holds its index read-only until a
//! graph commit retires it; the bundle keeps the index being served.
//!
//! A [`rkranks_graph::GraphStore`] adds the second half of the problem:
//! after live [`GraphDelta`] commits, the graph on disk and the
//! graph being served have diverged, and an index file alone cannot say
//! which graph its ranks were measured on. The snapshot bundle stores all
//! of it together, so a restarted daemon resumes at exactly the epoch pair
//! it went down with.
//!
//! ## Bundle layout (`rkr-snapshot v1`)
//!
//! Line-oriented text, in the spirit of [`crate::index_io`]'s `v3`
//! format, with length- and checksum-guarded binary-safe sections:
//!
//! ```text
//! rkr-snapshot v1 <graph_epoch> <index_epoch>
//! section graph <byte_len> <fnv64-hex>
//! <byte_len bytes: the committed graph, edge-list text>
//! section index <byte_len> <fnv64-hex>
//! <byte_len bytes: the index, rkr-index v3 text>
//! section wal <byte_len> <fnv64-hex>
//! <byte_len bytes: staged-but-uncommitted deltas, one per line>
//! end
//! ```
//!
//! * `graph` is [`rkranks_graph::write_graph`] output for the *committed*
//!   snapshot at `graph_epoch`.
//! * `index` is [`crate::write_index`] output; its graph-epoch tag must
//!   equal the bundle's `graph_epoch` (a `v1` record means epoch 0).
//! * `wal` holds [`GraphDelta::to_wal_line`] records for every staged
//!   delta — updates accepted but not yet committed when the snapshot was
//!   cut. Loading replays them into the staged overlay, so not even
//!   un-merged updates are lost across a restart.
//! * `index_epoch` is [`RkrIndex::epoch`], the cache-keying version
//!   counter, restored via [`RkrIndex::set_epoch`] so "unchanged epoch ⇒
//!   unchanged index" survives the restart.
//!
//! Every section declares its exact byte length and an FNV-1a 64 checksum;
//! [`read_snapshot`] verifies both and fails with a one-line
//! [`GraphError::Parse`] on truncation, corruption, a checksum mismatch,
//! or an index/graph epoch disagreement — a damaged bundle can never
//! produce a silently wrong serving state. [`save_snapshot`] writes
//! atomically ([`rkranks_graph::write_atomic`]), so the file on disk is
//! always a complete bundle.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use rkranks_graph::{
    read_graph, write_atomic, write_graph, GraphDelta, GraphError, GraphStore, Result,
};

use crate::index::RkrIndex;
use crate::index_io::{read_index, write_index};

/// FNV-1a 64-bit: tiny, dependency-free, and plenty to catch the
/// truncation/bit-rot class of corruption the sections guard against
/// (this is an integrity check, not an authenticity one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize the full serving state of `store` + `index` as a bundle.
///
/// `index.graph_epoch()` must equal `store.graph_epoch()` — the serving
/// layer maintains that invariant (a graph commit retires the index to a
/// fresh one tagged with the new epoch), and persisting a violation would
/// bake the very mismatch the bundle exists to rule out.
pub(crate) fn write_snapshot<W: Write>(store: &GraphStore, index: &RkrIndex, out: W) -> Result<()> {
    assert_eq!(
        index.graph_epoch(),
        store.graph_epoch(),
        "index/graph epoch mismatch"
    );
    let mut w = out;

    let mut graph_bytes = Vec::new();
    write_graph(&store.snapshot(), &mut graph_bytes)?;
    let mut index_bytes = Vec::new();
    write_index(index, &mut index_bytes)?;
    let mut wal_bytes = Vec::new();
    for delta in store.staged_deltas() {
        wal_bytes.extend_from_slice(delta.to_wal_line().as_bytes());
        wal_bytes.push(b'\n');
    }

    writeln!(
        w,
        "rkr-snapshot v1 {} {}",
        store.graph_epoch(),
        index.epoch()
    )?;
    for (name, bytes) in [
        ("graph", &graph_bytes),
        ("index", &index_bytes),
        ("wal", &wal_bytes),
    ] {
        writeln!(w, "section {name} {} {:016x}", bytes.len(), fnv1a64(bytes))?;
        w.write_all(bytes)?;
    }
    writeln!(w, "end")?;
    w.flush()?;
    Ok(())
}

/// Save a bundle to a file (atomically; see
/// [`rkranks_graph::write_atomic`]).
pub fn save_snapshot<P: AsRef<Path>>(store: &GraphStore, index: &RkrIndex, path: P) -> Result<()> {
    write_atomic(path, |w| write_snapshot(store, index, w))
}

/// Byte cursor over the bundle, tracking 1-based line numbers so every
/// rejection points at the offending line like the other text readers do.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: String) -> GraphError {
        GraphError::Parse {
            line: self.line,
            message,
        }
    }

    /// The next `\n`-terminated header line as UTF-8.
    fn next_line(&mut self) -> Result<&'a str> {
        let rest = &self.buf[self.pos..];
        let end = rest
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| self.err("truncated bundle: unterminated line".into()))?;
        self.pos += end + 1;
        self.line += 1;
        std::str::from_utf8(&rest[..end]).map_err(|_| self.err("non-UTF-8 header line".into()))
    }

    /// Exactly `len` raw section-payload bytes.
    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        if rest.len() < len {
            return Err(self.err(format!(
                "truncated bundle: section declares {len} bytes, {} remain",
                rest.len()
            )));
        }
        let bytes = &rest[..len];
        self.pos += len;
        self.line += bytes.iter().filter(|&&b| b == b'\n').count();
        Ok(bytes)
    }
}

/// Deserialize a bundle back into its serving state: a [`GraphStore`] at
/// the persisted graph epoch with the WAL re-staged, and the learned
/// [`RkrIndex`] at the persisted epoch pair.
///
/// Strict by design — see the module docs for everything this rejects.
pub(crate) fn read_snapshot<R: Read>(mut input: R) -> Result<(GraphStore, RkrIndex)> {
    let mut buf = Vec::new();
    input.read_to_end(&mut buf)?;
    let mut cur = Cursor {
        buf: &buf,
        pos: 0,
        line: 0,
    };

    // Header: `rkr-snapshot v1 <graph_epoch> <index_epoch>`.
    let header = cur.next_line()?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("rkr-snapshot") || parts.next() != Some("v1") {
        return Err(cur.err("expected 'rkr-snapshot v1 <graph_epoch> <index_epoch>' header".into()));
    }
    let graph_epoch: u64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| cur.err("bad graph epoch".into()))?;
    let index_epoch: u64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| cur.err("bad index epoch".into()))?;
    if parts.next().is_some() {
        return Err(cur.err("trailing tokens in header".into()));
    }

    // The three sections, in fixed order.
    let mut sections: [Option<&[u8]>; 3] = [None, None, None];
    for (slot, expected) in sections.iter_mut().zip(["graph", "index", "wal"]) {
        let line = cur.next_line()?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("section") || parts.next() != Some(expected) {
            return Err(cur.err(format!(
                "expected 'section {expected} <byte_len> <fnv64-hex>', got '{line}'"
            )));
        }
        let len: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| cur.err(format!("bad byte length for section '{expected}'")))?;
        let declared = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| cur.err(format!("bad checksum for section '{expected}'")))?;
        let bytes = cur.take(len)?;
        let actual = fnv1a64(bytes);
        if actual != declared {
            return Err(cur.err(format!(
                "section '{expected}' checksum mismatch \
                 (declared {declared:016x}, computed {actual:016x}): bundle is corrupt"
            )));
        }
        *slot = Some(bytes);
    }
    let [graph_bytes, index_bytes, wal_bytes] = sections.map(|s| s.expect("all sections read"));
    let end = cur.next_line()?;
    if end.trim() != "end" {
        return Err(cur.err(format!("expected 'end' trailer, got '{end}'")));
    }

    // Graph: the committed snapshot, restored at the persisted epoch.
    let graph = read_graph(graph_bytes)?;
    let mut store = GraphStore::restore(graph, graph_epoch);

    // Index: validated like any index file, then cross-checked against the
    // bundle — a mismatched tag or node universe means the sections do not
    // belong together, which is exactly the silent hazard to refuse.
    let mut index = read_index(index_bytes)?;
    if index.graph_epoch() != graph_epoch {
        return Err(GraphError::Parse {
            line: 1,
            message: format!(
                "index section is tagged for graph epoch {} but the bundle is at {graph_epoch}",
                index.graph_epoch()
            ),
        });
    }
    if index.num_nodes() != store.num_nodes() {
        return Err(GraphError::Parse {
            line: 1,
            message: format!(
                "index covers {} nodes but the graph section has {}",
                index.num_nodes(),
                store.num_nodes()
            ),
        });
    }
    index.set_epoch(index_epoch);

    // WAL: re-stage every persisted delta. `stage_all` re-validates each
    // one against the restored graph, so a WAL that does not apply cleanly
    // is reported as corruption, not silently skipped.
    let mut wal = Vec::new();
    let mut line_no = 0;
    for line in std::str::from_utf8(wal_bytes)
        .map_err(|_| GraphError::Parse {
            line: 1,
            message: "non-UTF-8 bytes in the wal section".into(),
        })?
        .lines()
    {
        line_no += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        wal.push(GraphDelta::parse_wal_line(t, line_no)?);
    }
    store.stage_all(&wal).map_err(|e| GraphError::Parse {
        line: 1,
        message: format!("wal section does not apply to the graph section: {e}"),
    })?;

    Ok((store, index))
}

/// Load a bundle from a file.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<(GraphStore, RkrIndex)> {
    read_snapshot(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::{graph_from_edges, to_real, EdgeDirection, NodeId};

    fn diamond_store() -> GraphStore {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)],
        )
        .unwrap();
        GraphStore::new(g)
    }

    fn round_trip(store: &GraphStore, index: &RkrIndex) -> (GraphStore, RkrIndex) {
        let mut buf = Vec::new();
        write_snapshot(store, index, &mut buf).unwrap();
        read_snapshot(&buf[..]).unwrap()
    }

    #[test]
    fn fresh_state_round_trips() {
        let store = diamond_store();
        let index = RkrIndex::empty(store.num_nodes(), 8);
        let (store2, index2) = round_trip(&store, &index);
        assert_eq!(*store2.snapshot(), *store.snapshot());
        assert_eq!(store2.graph_epoch(), 0);
        assert_eq!(index2.num_nodes(), 4);
        assert_eq!(index2.epoch(), 0);
        assert_eq!(index2.graph_epoch(), 0);
    }

    #[test]
    fn evolved_state_round_trips_with_the_epoch_pair() {
        let mut store = diamond_store();
        store
            .apply(&[GraphDelta::AddEdge { u: 1, v: 2, w: 0.5 }])
            .unwrap();
        let mut index = RkrIndex::empty(store.num_nodes(), 8);
        index.set_graph_epoch(store.graph_epoch());
        index.offer(NodeId(0), NodeId(1), 2);
        index.raise_check(NodeId(1), 3);
        index.set_epoch(5);

        let (store2, index2) = round_trip(&store, &index);
        assert_eq!(store2.graph_epoch(), 1);
        assert_eq!(*store2.snapshot(), *store.snapshot());
        // the reloaded CSR keeps the (weight, target) row order refinement
        // relies on: node 1's lightest edge is the 0.5 one just added
        let reloaded = store2.snapshot();
        let (targets, weights) = reloaded.out_neighbors(NodeId(1));
        assert_eq!((targets[0], to_real(weights[0])), (NodeId(2), 0.5));
        assert!(weights.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(index2.graph_epoch(), 1);
        assert_eq!(index2.epoch(), 5, "index epoch must survive the restart");
        assert_eq!(index2.lookup(NodeId(0), NodeId(1)), Some(2));
        assert_eq!(index2.check(NodeId(1)), 3);
    }

    #[test]
    fn staged_wal_replays_into_the_restored_store() {
        let mut store = diamond_store();
        store
            .stage_all(&[
                GraphDelta::AddNode,
                GraphDelta::AddEdge { u: 4, v: 0, w: 0.5 },
                GraphDelta::RemoveEdge { u: 2, v: 3 },
                GraphDelta::Reweight { u: 0, v: 1, w: 9.0 },
            ])
            .unwrap();
        let index = RkrIndex::empty(store.num_nodes(), 8);

        let (mut store2, _) = round_trip(&store, &index);
        assert_eq!(store2.pending_deltas(), store.pending_deltas());
        assert_eq!(store2.effective_num_nodes(), 5);
        // committing both stores lands on identical graphs and epochs
        assert_eq!(*store2.commit(), *store.commit());
        assert_eq!(store2.graph_epoch(), store.graph_epoch());
    }

    #[test]
    fn truncation_and_corruption_are_one_line_errors() {
        let mut store = diamond_store();
        store
            .stage(GraphDelta::AddEdge { u: 1, v: 2, w: 0.5 })
            .unwrap();
        let index = RkrIndex::empty(store.num_nodes(), 8);
        let mut buf = Vec::new();
        write_snapshot(&store, &index, &mut buf).unwrap();

        // any strict prefix must be rejected (cut at several depths:
        // mid-header, mid-section-payload, before the trailer)
        for cut in [5, buf.len() / 4, buf.len() / 2, buf.len() - 2] {
            assert!(
                matches!(read_snapshot(&buf[..cut]), Err(GraphError::Parse { .. })),
                "accepted a bundle truncated to {cut} bytes"
            );
        }

        // flip one payload byte: the section checksum must catch it (pick
        // a weight digit so the graph parser alone would not object)
        let text = String::from_utf8(buf.clone()).unwrap();
        let pos = text.find(" 2 ").expect("weight 2 in the graph section");
        let mut bad = buf.clone();
        bad[pos + 1] = b'3';
        let err = read_snapshot(&bad[..]).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch"),
            "expected a checksum error, got: {err}"
        );

        // garbage headers
        assert!(read_snapshot(&b"rkr-snapshot v2 0 0\nend\n"[..]).is_err());
        assert!(read_snapshot(&b"not a snapshot\n"[..]).is_err());
        assert!(read_snapshot(&b""[..]).is_err());
    }

    #[test]
    fn epoch_and_universe_mismatches_are_rejected() {
        let store = diamond_store();
        let index = RkrIndex::empty(store.num_nodes(), 8);
        let mut buf = Vec::new();
        write_snapshot(&store, &index, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        // doctor the bundle header to claim graph epoch 7: the index
        // section (tagged 0) no longer matches
        let doctored = text.replacen("rkr-snapshot v1 0 0", "rkr-snapshot v1 7 0", 1);
        let err = read_snapshot(doctored.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("graph epoch"),
            "expected an epoch mismatch error, got: {err}"
        );
    }

    #[test]
    fn wal_that_does_not_apply_is_corruption() {
        let store = diamond_store();
        let index = RkrIndex::empty(store.num_nodes(), 8);
        let mut buf = Vec::new();
        write_snapshot(&store, &index, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        // splice in a WAL that removes a non-existent edge (checksum and
        // length recomputed, so only the semantic replay can object)
        let wal = "rm 1 2\n";
        let doctored = text.replacen(
            &format!("section wal 0 {:016x}\n", fnv1a64(b"")),
            &format!(
                "section wal {} {:016x}\n{wal}",
                wal.len(),
                fnv1a64(wal.as_bytes())
            ),
            1,
        );
        let err = read_snapshot(doctored.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("does not apply"),
            "expected a WAL replay error, got: {err}"
        );
    }

    #[test]
    #[should_panic(expected = "epoch mismatch")]
    fn writer_refuses_mismatched_epochs() {
        let mut store = diamond_store();
        store
            .apply(&[GraphDelta::AddEdge { u: 1, v: 2, w: 0.5 }])
            .unwrap();
        // index still tagged epoch 0 — persisting this would bake in the
        // silent mismatch the bundle exists to prevent
        let index = RkrIndex::empty(store.num_nodes(), 8);
        let mut buf = Vec::new();
        let _ = write_snapshot(&store, &index, &mut buf);
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("rkranks-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.rkrs");
        let store = diamond_store();
        let index = RkrIndex::empty(store.num_nodes(), 8);
        save_snapshot(&store, &index, &path).unwrap();
        let (store2, _) = load_snapshot(&path).unwrap();
        assert_eq!(*store2.snapshot(), *store.snapshot());
        // overwriting an existing snapshot goes through the same
        // temp-and-rename path
        save_snapshot(&store, &index, &path).unwrap();
        assert!(load_snapshot(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
