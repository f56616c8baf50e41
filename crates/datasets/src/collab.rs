//! DBLP-style collaboration graph generator.
//!
//! Stands in for the paper's DBLP dataset (KONECT `dblp_coauthor`,
//! 1,314,050 authors / 18,986,618 edges, average degree 14.45). We simulate
//! the co-authorship *process*: papers arrive one at a time, each written by
//! a team mixing new authors with established ones picked preferentially by
//! past activity — yielding the heavy-tailed degree distribution and dense
//! core of real collaboration networks.
//!
//! Edge weights follow the paper exactly (§6.1): the weight between `u` and
//! `v` is `1 / papers(u,v)` increased by `log2 deg(u) + log2 deg(v)` with
//! normalization (we normalize the degree term to `[0, 1]` across edges).
//! The paper notes this weighting "can produce less ties ... which is
//! important for unambiguous ranking".
//!
//! **Memory contract:** the generator holds sequential vectors only, and
//! no map of pairs. While papers arrive it holds one packed 8-byte key per
//! co-authorship and the preferential-attachment `slots`. Then it frees
//! `slots`, sorts the keys and counts their runs into one `(u, v, papers)`
//! triple per distinct pair, and frees the keys. The weights go into the
//! builder's edge list, and the triples are freed before
//! [`GraphBuilder::build`] runs. So generation peaks at the larger of the
//! keys plus `slots` and the builder's edge list plus the graph it returns
//! plus `O(n)` (`crates/datasets/tests/generate_memory.rs` holds it to that).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rkranks_graph::{EdgeDirection, Graph, GraphBuilder};

/// Tuning knobs for the collaboration process.
#[derive(Clone, Debug)]
pub struct CollabParams {
    /// Number of authors (nodes) in the final graph.
    pub authors: u32,
    /// Number of papers to simulate. More papers ⇒ denser graph; with the
    /// default team sizes, `papers ≈ 4 × authors` lands near DBLP's average
    /// degree of ~14.
    pub papers: u32,
    /// Largest team size (teams are drawn in `2..=max_team`, skewed small).
    pub max_team: usize,
    /// RNG seed; the generator is fully deterministic given the params.
    pub seed: u64,
}

impl CollabParams {
    /// Reasonable defaults for `authors` authors.
    pub fn with_authors(authors: u32, seed: u64) -> CollabParams {
        CollabParams {
            authors,
            papers: authors.saturating_mul(4),
            max_team: 6,
            seed,
        }
    }
}

/// Generate the collaboration graph.
///
/// Guarantees: undirected, weakly connected (every author's first paper
/// includes an established author), no self-loops, all weights positive.
pub fn collab_graph(params: &CollabParams) -> Graph {
    let CollabParams {
        authors,
        papers,
        max_team,
        seed,
    } = *params;
    assert!(authors >= 2, "need at least two authors");
    assert!(max_team >= 2, "teams need at least two authors");
    let mut rng = StdRng::seed_from_u64(seed);

    // One packed key per co-authorship (`record_paper`).
    let mut keys: Vec<u64> = Vec::new();
    // Preferential-attachment slots: one entry per past authorship.
    let mut slots: Vec<u32> = vec![0, 1];
    let mut pool: u32 = 2; // authors 0 and 1 exist from the seed paper
    record_paper(&[0, 1], &mut keys, &mut slots);

    let mut team: Vec<u32> = Vec::with_capacity(max_team);
    for paper in 1..papers {
        let team_size = sample_team_size(&mut rng, max_team);
        team.clear();
        // Introduce new authors steadily until the pool is full: spread the
        // remaining introductions over the remaining papers.
        let introduce = pool < authors && {
            let remaining_papers = (papers - paper).max(1);
            let remaining_authors = authors - pool;
            // probability chosen so expected introductions fill the pool
            rng.random::<f64>() < remaining_authors as f64 / remaining_papers as f64
                || remaining_authors >= remaining_papers
        };
        if introduce {
            team.push(pool);
            pool += 1;
        }
        // Fill the team with established authors, preferential by activity.
        let mut guard = 0;
        while team.len() < team_size && guard < 64 {
            guard += 1;
            let candidate = if rng.random::<f64>() < 0.8 {
                slots[rng.random_range(0..slots.len())]
            } else {
                rng.random_range(0..pool)
            };
            if !team.contains(&candidate) {
                team.push(candidate);
            }
        }
        if team.len() >= 2 {
            record_paper(&team, &mut keys, &mut slots);
        }
    }

    // If the paper budget ran out before every author appeared, attach the
    // stragglers with one paper each so the graph stays connected.
    while pool < authors {
        let buddy = slots[rng.random_range(0..slots.len())];
        let newcomer = pool;
        pool += 1;
        record_paper(&[newcomer, buddy], &mut keys, &mut slots);
    }

    drop(slots);
    weights_from_counts(authors, count_pairs(keys))
}

fn sample_team_size<R: Rng>(rng: &mut R, max_team: usize) -> usize {
    // Skewed-small team sizes: 2 is the mode, each size above half as likely.
    let mut size = 2;
    while size < max_team && rng.random::<f64>() < 0.5 {
        size += 1;
    }
    size
}

/// Record one authorship slot per team member and one key
/// `(min << 32) | max` per co-authoring pair.
fn record_paper(team: &[u32], keys: &mut Vec<u64>, slots: &mut Vec<u32>) {
    for (i, &u) in team.iter().enumerate() {
        slots.push(u);
        for &v in &team[i + 1..] {
            keys.push((u64::from(u.min(v)) << 32) | u64::from(u.max(v)));
        }
    }
}

/// `papers(u, v)` for every co-authoring pair `u < v`, as `(u, v, papers)`
/// in ascending pair order: the runs of the sorted keys. The keys are freed
/// on return.
fn count_pairs(mut keys: Vec<u64>) -> Vec<(u32, u32, u32)> {
    keys.sort_unstable();
    let runs = || keys.chunk_by(|a, b| a == b);
    // Sized by a counting pass: a growing push would hold spare capacity,
    // and two buffers while it reallocates, beside the keys.
    let mut pairs = Vec::with_capacity(runs().count());
    pairs.extend(runs().map(|run| ((run[0] >> 32) as u32, run[0] as u32, run.len() as u32)));
    pairs
}

/// Apply the paper's weight formula to raw co-authorship counts. The
/// triples are freed before the builder runs.
fn weights_from_counts(authors: u32, pairs: Vec<(u32, u32, u32)>) -> Graph {
    let mut degree = vec![0u32; authors as usize];
    for &(u, v, _) in &pairs {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    // Degree term, normalized to [0, 1] over all edges.
    let log_term = |u: u32, v: u32| {
        (degree[u as usize].max(1) as f64).log2() + (degree[v as usize].max(1) as f64).log2()
    };
    let max_log = pairs
        .iter()
        .map(|&(u, v, _)| log_term(u, v))
        .fold(0.0f64, f64::max)
        .max(1e-9);

    let mut b = GraphBuilder::with_capacity(EdgeDirection::Undirected, pairs.len());
    b.reserve_nodes(authors);
    // Consumes `pairs`: its buffer is freed when the loop ends.
    for (u, v, c) in pairs {
        let w = 1.0 / c as f64 + log_term(u, v) / max_log;
        b.add_edge(u, v, w).expect("generator produces valid edges");
    }
    b.build().expect("generator produces a valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::to_real;
    use rkranks_graph::traversal::is_weakly_connected;

    fn small() -> Graph {
        collab_graph(&CollabParams::with_authors(300, 7))
    }

    #[test]
    fn produces_requested_author_count() {
        let g = small();
        assert_eq!(g.num_nodes(), 300);
    }

    #[test]
    fn is_connected_and_undirected() {
        let g = small();
        assert!(!g.is_directed());
        assert!(is_weakly_connected(&g));
    }

    #[test]
    fn average_degree_in_dblp_regime() {
        let g = collab_graph(&CollabParams::with_authors(1000, 3));
        let avg = g.average_degree();
        assert!(
            (4.0..40.0).contains(&avg),
            "average degree {avg} out of range"
        );
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let g = collab_graph(&CollabParams::with_authors(1000, 11));
        let (_, max_deg) = g.max_degree().unwrap();
        let avg = g.average_degree();
        assert!(
            max_deg as f64 > 4.0 * avg,
            "max degree {max_deg} not heavy-tailed vs average {avg}"
        );
    }

    #[test]
    fn weights_are_positive_and_bounded() {
        let g = small();
        for u in g.nodes() {
            for (_, w) in g.edges(u) {
                let w = to_real(w);
                // 1/c ≤ 1 plus normalized log term ≤ 1 ⇒ (0, 2]
                assert!(w > 0.0 && w <= 2.0, "weight {w} out of expected band");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = collab_graph(&CollabParams::with_authors(200, 5));
        let b = collab_graph(&CollabParams::with_authors(200, 5));
        assert_eq!(a, b);
        let c = collab_graph(&CollabParams::with_authors(200, 6));
        assert_ne!(a, c);
    }

    #[test]
    fn repeat_collaborations_lower_weight() {
        // The 1/c term means frequently co-authoring pairs sit closer: check
        // that some weight spread exists (not all weights equal).
        let g = small();
        let mut min_w = f64::INFINITY;
        let mut max_w: f64 = 0.0;
        for u in g.nodes() {
            for (_, w) in g.edges(u) {
                let w = to_real(w);
                min_w = min_w.min(w);
                max_w = max_w.max(w);
            }
        }
        assert!(
            max_w - min_w > 0.1,
            "weights suspiciously uniform: [{min_w}, {max_w}]"
        );
    }
}
