//! Experiment registry: one entry per table/figure of the paper's §6.

use crate::report::Table;
use crate::ExpContext;

mod bounds;
mod case_study;
mod datasets_table;
mod effectiveness;
mod fig6;
mod fig7;
mod index_build;
mod index_params;
mod index_updates;
mod naive;

/// A registered experiment.
pub struct Experiment {
    /// CLI name.
    pub name: &'static str,
    /// Which paper exhibit it regenerates.
    pub paper_ref: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Entry point.
    pub run: fn(&ExpContext) -> Vec<Table>,
}

/// All experiments in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table2",
            paper_ref: "Table 2",
            description: "dataset statistics, paper vs synthetic stand-ins",
            run: datasets_table::run,
        },
        Experiment {
            name: "table3",
            paper_ref: "Table 3",
            description: "reverse top-k result-set size imbalance on the DBLP-like graph",
            run: effectiveness::table3,
        },
        Experiment {
            name: "table4",
            paper_ref: "Table 4",
            description: "top-k agreement rate on the DBLP-like graph",
            run: effectiveness::table4,
        },
        Experiment {
            name: "case_study",
            paper_ref: "Figure 5",
            description: "supermarket case study: top-1 vs reverse top-1 vs reverse 1-ranks",
            run: case_study::run,
        },
        Experiment {
            name: "fig6",
            paper_ref: "Figure 6",
            description: "query time and rank refinements vs k (static/dynamic/indexed)",
            run: fig6::run,
        },
        Experiment {
            name: "naive",
            paper_ref: "§6.3.1",
            description: "naive baseline vs the framework at k=1",
            run: naive::run,
        },
        Experiment {
            name: "hub_pct",
            paper_ref: "Tables 6-7",
            description: "effect of the hub percentage h",
            run: index_params::hub_pct,
        },
        Experiment {
            name: "index_pct",
            paper_ref: "Tables 8-9",
            description: "effect of the prefix percentage m",
            run: index_params::index_pct,
        },
        Experiment {
            name: "hub_strategy",
            paper_ref: "Table 10",
            description: "hub selection strategies (Random / Degree / Closeness)",
            run: index_params::hub_strategy,
        },
        Experiment {
            name: "bound_wins",
            paper_ref: "Table 11",
            description: "which Theorem-2 bound component wins the max",
            run: bounds::bound_wins,
        },
        Experiment {
            name: "bounds_maxdeg",
            paper_ref: "Table 12",
            description: "bound strategies on max-degree queries",
            run: bounds::max_degree,
        },
        Experiment {
            name: "bounds_mindeg",
            paper_ref: "Table 13",
            description: "bound strategies on min-degree queries",
            run: bounds::min_degree,
        },
        Experiment {
            name: "index_updates",
            paper_ref: "Table 14",
            description: "index quality as it absorbs a query stream",
            run: index_updates::run,
        },
        Experiment {
            name: "index_build",
            paper_ref: "Table 15",
            description: "index construction cost over the h/m grid",
            run: index_build::run,
        },
        Experiment {
            name: "fig7",
            paper_ref: "Figure 7",
            description: "bichromatic queries on the road network",
            run: fig7::run,
        },
    ]
}

/// Look up one experiment by CLI name.
pub fn find(name: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.name == name)
}

/// The k values the paper sweeps (Table 5).
pub const K_VALUES: [u32; 5] = [5, 10, 20, 50, 100];

/// The paper's default k (bold in Table 5).
pub const DEFAULT_K: u32 = 10;

/// The h / m sweep values (Table 5).
pub const FRACTIONS: [f64; 5] = [0.03, 0.05, 0.07, 0.1, 0.15];

/// The paper's default hub/prefix fraction.
pub const DEFAULT_FRACTION: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|e| e.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn find_works() {
        assert!(find("fig6").is_some());
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn registry_covers_every_paper_exhibit() {
        let refs: Vec<&str> = all().iter().map(|e| e.paper_ref).collect();
        for expected in [
            "Table 2",
            "Table 3",
            "Table 4",
            "Figure 5",
            "Figure 6",
            "Tables 6-7",
            "Tables 8-9",
            "Table 10",
            "Table 11",
            "Table 12",
            "Table 13",
            "Table 14",
            "Table 15",
            "Figure 7",
        ] {
            assert!(refs.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn every_experiment_names_a_paper_exhibit() {
        for e in all() {
            assert!(
                ["Table ", "Tables ", "Figure ", "§"]
                    .iter()
                    .any(|p| e.paper_ref.starts_with(p)),
                "{} regenerates no paper exhibit (paper_ref {:?})",
                e.name,
                e.paper_ref
            );
        }
    }
}
