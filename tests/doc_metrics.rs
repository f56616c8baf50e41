//! README's metric tables and the daemons' registries name the same
//! series: every `rkrd_…` row of the tables is registered by
//! `Metrics::new()` (rkrd) or `CoordMetrics::new(1)` (the coordinator)
//! with the type the row states, and every registered name has a row.

use std::collections::{BTreeMap, BTreeSet};

use rkranks_coord::CoordMetrics;
use rkranks_core::{MetricValue, MetricsSnapshot};
use rkranks_server::metrics::Metrics;

/// `name → type` for every table row whose first cell is a backticked
/// `rkrd_…` series (its labels stripped: one labelled family may take a
/// row per label value).
fn documented() -> BTreeMap<String, String> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("read README.md");
    let mut rows = BTreeMap::new();
    let mut series = BTreeSet::new();
    for line in readme.lines() {
        let Some(row) = line.strip_prefix("| `") else {
            continue;
        };
        let cells: Vec<&str> = row.split(" | ").collect();
        let full = cells[0].trim_end_matches('`');
        if !full.starts_with("rkrd_") {
            continue;
        }
        assert!(series.insert(full.to_string()), "{full}: two rows");
        let name = full.split('{').next().unwrap().to_string();
        let kind = cells.get(1).expect("a type column").to_string();
        let first = rows.entry(name.clone()).or_insert_with(|| kind.clone());
        assert_eq!(
            *first, kind,
            "{name}: rows of one family disagree on its type"
        );
    }
    rows
}

fn registered(snap: &MetricsSnapshot, into: &mut BTreeMap<String, String>) {
    for s in &snap.samples {
        let kind = match s.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        into.insert(s.name.clone(), kind.to_string());
    }
}

#[test]
fn readme_metric_tables_match_the_registries() {
    let rows = documented();
    let mut live = BTreeMap::new();
    registered(&Metrics::new().registry.snapshot(), &mut live);
    registered(&CoordMetrics::new(1).registry.snapshot(), &mut live);
    for (name, kind) in &rows {
        match live.get(name) {
            None => panic!("README documents {name}, which no registry registers"),
            Some(k) => assert_eq!(k, kind, "{name}: README says {kind}, the registry {k}"),
        }
    }
    for name in live.keys() {
        assert!(
            rows.contains_key(name),
            "{name} is registered but README has no row for it"
        );
    }
}
