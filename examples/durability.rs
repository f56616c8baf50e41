//! Durable restarts: kill the daemon, restart from its snapshot bundle,
//! and get the same serving state back.
//!
//! ```text
//! cargo run --release --example durability
//! ```
//!
//! The daemon checkpoints one self-describing bundle — committed graph,
//! index, the epoch pair, and a WAL of staged-but-uncommitted deltas —
//! after every commit of staged updates and at shutdown. This example
//! runs two daemon "lives" in one process: the first absorbs a live graph
//! update and shuts down; the second starts from nothing but the bundle
//! and must answer rank-identically at the same graph epoch.

use rkranks_core::{load_snapshot, RkrIndex};
use rkranks_datasets::{collab_graph, CollabParams};
use rkranks_graph::GraphStore;
use rkranks_server::{spawn_store, Client, ServerConfig, UpdateOp};

fn main() {
    let g = collab_graph(&CollabParams::with_authors(300, 13));
    let nodes = g.num_nodes();
    println!("graph: {} authors / {} edges\n", nodes, g.num_edges());

    let dir = std::env::temp_dir().join("rkr-durability-example");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let bundle = dir.join(format!("state-{}.rkrsnap", std::process::id()));

    let config = ServerConfig {
        workers: 2,
        cache_capacity: 256,
        snapshot: Some(bundle.clone()),
        ..Default::default()
    };

    // First life: serve, commit a live update, die.
    let handle = spawn_store(
        GraphStore::new(g),
        None,
        RkrIndex::empty(nodes, 50),
        "127.0.0.1:0",
        config.clone(),
    )
    .expect("bind first daemon");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .update(&[
            UpdateOp::AddNode,
            UpdateOp::AddEdge {
                u: 5,
                v: nodes as u32,
                w: 0.05,
            },
        ])
        .expect("the live update commits before its reply");
    let before = client.query(5, 10).expect("pre-restart query");
    println!(
        "life 1: answered at graph epoch {} -> {:?}",
        before.graph_epoch,
        before.entries.iter().take(3).collect::<Vec<_>>()
    );
    client
        .shutdown()
        .expect("shutdown writes the final checkpoint");
    handle.join();

    // Second life: nothing but the bundle.
    let (store, index) = load_snapshot(&bundle).expect("the bundle must load");
    println!(
        "restored: graph epoch {}, index epoch {}, {} staged WAL delta(s)",
        store.graph_epoch(),
        index.epoch(),
        store.pending_deltas()
    );
    let handle =
        spawn_store(store, None, index, "127.0.0.1:0", config).expect("bind second daemon");
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let after = client.query(5, 10).expect("post-restart query");
    client.shutdown().expect("clean shutdown");
    handle.join();
    std::fs::remove_file(&bundle).ok();

    assert_eq!(
        before.graph_epoch, after.graph_epoch,
        "the restart must resume at the same graph epoch"
    );
    assert_eq!(
        before.entries, after.entries,
        "the restart must serve rank-identical answers"
    );
    println!(
        "life 2: answered at graph epoch {} -> identical entries\n",
        after.graph_epoch
    );
    println!(
        "restart recovered the exact serving state from {:?}",
        bundle
    );
}
