//! # rkranks-eval
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section (§6) on the synthetic stand-in datasets; one module
//! of [`experiments`] per exhibit.
//!
//! Run everything (`-- list` names each experiment and its exhibit):
//!
//! ```text
//! cargo run --release -p rkranks_eval --bin experiments -- all --scale small
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod experiments;
mod report;
pub mod runner;
pub mod workload;

pub use report::Table;

use rkranks_datasets::Scale;

/// Shared experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExpContext {
    /// Dataset scale preset.
    pub scale: Scale,
    /// Master RNG seed (graphs, workloads, hub sampling).
    pub seed: u64,
    /// Queries per measurement point (the paper uses 1000).
    pub queries: usize,
    /// Worker threads for independent-query batches.
    pub threads: usize,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            scale: Scale::Small,
            seed: 42,
            queries: 100,
            threads: runner::default_threads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_is_sane() {
        let c = ExpContext::default();
        assert_eq!(c.scale, Scale::Small);
        assert!(c.queries > 0);
        assert!(c.threads >= 1);
    }
}
