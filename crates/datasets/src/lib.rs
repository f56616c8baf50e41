//! # rkranks-datasets
//!
//! Seeded synthetic datasets standing in for the paper's evaluation data
//! (EDBT 2017, Table 2):
//!
//! | Paper dataset | Generator | Regime preserved |
//! |---|---|---|
//! | DBLP collaboration graph | [`collab_graph`] | undirected, heavy-tailed, avg degree ≈ 14, the paper's exact weight formula |
//! | Epinions trust network | [`trust_graph`] | directed, preferential in-degree, Zipf(α=2) weights |
//! | SF road network + stores | [`road_network`] | sparse planar-like, avg degree ≈ 2.5, bichromatic store marking |
//!
//! plus the exact Figure-1 toy graph ([`toy::paper_example`], verified
//! against Table 1) and a random-graph fuzzing substrate ([`gnm_graph`]).
//!
//! Every generator is deterministic given its seed; [`Scale`] provides
//! laptop-friendly presets used by the experiment harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod collab;
mod random;
mod road;
mod social;
pub mod toy;
mod workload;
mod zipf;

pub use collab::{collab_graph, CollabParams};
pub use random::gnm_graph;
pub use road::{road_network, RoadNetwork, RoadParams};
pub use social::{trust_graph, trust_graph_undirected, TrustParams};
pub use workload::{default_update_stream, update_stream, UpdateStreamParams};
pub use zipf::Zipf;

use rkranks_graph::Graph;

/// Dataset size presets. The paper ran on a 1 TB Xeon server; these scales
/// keep the same structural regimes at laptop cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Hundreds of nodes — unit tests, doc examples.
    Tiny,
    /// Thousands of nodes — default for the experiment harness.
    Small,
    /// Tens of thousands of nodes — minutes per experiment.
    Medium,
    /// ≥ 10⁵ nodes — approaches the paper's Epinions scale.
    Large,
}

impl Scale {
    /// Parse from the CLI flag.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }
}

/// DBLP-like collaboration graph at the given scale.
pub fn dblp_like(scale: Scale, seed: u64) -> Graph {
    let authors = match scale {
        Scale::Tiny => 300,
        Scale::Small => 4_000,
        Scale::Medium => 25_000,
        Scale::Large => 120_000,
    };
    collab_graph(&CollabParams::with_authors(authors, seed))
}

/// Epinions-like directed trust graph at the given scale.
pub fn epinions_like(scale: Scale, seed: u64) -> Graph {
    let users = match scale {
        Scale::Tiny => 300,
        Scale::Small => 3_000,
        Scale::Medium => 15_000,
        Scale::Large => 75_000,
    };
    trust_graph(&TrustParams::with_users(users, seed))
}

/// Undirected Epinions-like graph (for the paper's bound-analysis
/// experiments, which use the count bound — valid on undirected graphs
/// only).
pub fn epinions_like_undirected(scale: Scale, seed: u64) -> Graph {
    let users = match scale {
        Scale::Tiny => 300,
        Scale::Small => 3_000,
        Scale::Medium => 15_000,
        Scale::Large => 75_000,
    };
    trust_graph_undirected(&TrustParams::with_users(users, seed))
}

/// SF-like bichromatic road network at the given scale.
pub fn sf_like(scale: Scale, seed: u64) -> RoadNetwork {
    let (w, h, stores) = match scale {
        Scale::Tiny => (20, 15, 12),
        Scale::Small => (80, 50, 60),
        Scale::Medium => (200, 125, 200),
        Scale::Large => (450, 280, 408),
    };
    road_network(&RoadParams::grid(w, h, stores, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_round_trip() {
        for s in [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large] {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn tiny_presets_build() {
        let d = dblp_like(Scale::Tiny, 1);
        assert_eq!(d.num_nodes(), 300);
        assert!(!d.is_directed());

        let e = epinions_like(Scale::Tiny, 1);
        assert_eq!(e.num_nodes(), 300);
        assert!(e.is_directed());

        let r = sf_like(Scale::Tiny, 1);
        assert_eq!(r.graph.num_nodes(), 300);
        assert_eq!(r.stores.len(), 12);
    }
}
