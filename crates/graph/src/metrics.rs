//! Graph statistics: degree and weight summaries.
//!
//! Used by the dataset generators' validation tests and by the harness's
//! Table 2 reproduction (the paper's dataset-statistics table), and handy
//! for anyone loading their own graphs.

use crate::graph::Graph;
use crate::weight::{to_real, INF, UNIT};

/// Degree distribution summary.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum out-degree.
    pub min: u32,
    /// Maximum out-degree.
    pub max: u32,
    /// Mean out-degree.
    pub mean: f64,
    /// Median out-degree.
    pub median: u32,
    /// 99th-percentile out-degree.
    pub p99: u32,
}

/// Compute the degree summary.
pub fn degree_stats(graph: &Graph) -> Option<DegreeStats> {
    if graph.num_nodes() == 0 {
        return None;
    }
    let mut degrees: Vec<u32> = graph.nodes().map(|u| graph.degree(u)).collect();
    degrees.sort_unstable();
    let n = degrees.len();
    Some(DegreeStats {
        min: degrees[0],
        max: degrees[n - 1],
        mean: degrees.iter().map(|&d| d as u64).sum::<u64>() as f64 / n as f64,
        median: degrees[n / 2],
        p99: degrees[(n * 99 / 100).min(n - 1)],
    })
}

/// Weight summary over all stored arcs.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightStats {
    /// Minimum arc weight.
    pub min: f64,
    /// Maximum arc weight.
    pub max: f64,
    /// Mean arc weight.
    pub mean: f64,
}

/// Compute the weight summary (`None` for edgeless graphs).
pub fn weight_stats(graph: &Graph) -> Option<WeightStats> {
    let (mut min, mut max, mut sum, mut count) = (INF, 0, 0u128, 0u64);
    for u in graph.nodes() {
        for &w in graph.out_neighbors(u).1 {
            min = min.min(w);
            max = max.max(w);
            sum += u128::from(w);
            count += 1;
        }
    }
    (count > 0).then(|| WeightStats {
        min: to_real(min),
        max: to_real(max),
        mean: sum as f64 / UNIT as f64 / count as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, EdgeDirection, GraphBuilder};

    fn path() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)],
        )
        .unwrap()
    }

    #[test]
    fn degree_stats_on_path() {
        let s = degree_stats(&path()).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 2);
        assert!((s.mean - 1.5).abs() < 1e-12);
        assert_eq!(s.median, 2);
    }

    #[test]
    fn degree_stats_empty_graph() {
        let g = graph_from_edges(EdgeDirection::Undirected, std::iter::empty()).unwrap();
        assert_eq!(degree_stats(&g), None);
    }

    #[test]
    fn weight_stats_on_path() {
        let s = weight_stats(&path()).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weight_stats_edgeless() {
        let mut b = GraphBuilder::new(EdgeDirection::Undirected);
        b.reserve_nodes(2);
        assert_eq!(weight_stats(&b.build().unwrap()), None);
    }
}
