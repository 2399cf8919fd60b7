#![warn(missing_docs)]
//! Experiment harness: one function per table/figure of the paper.
//!
//! Every experiment returns an [`ExperimentResult`] — a human-readable
//! text block plus a machine-readable JSON value — and is reachable
//! through the `repro` binary (`repro fig9`, `repro all`, …). The
//! DESIGN.md experiment index maps each paper artifact to its function
//! here.

pub mod case_studies;
pub mod characterize;
pub mod cluster;
pub mod config_tables;
pub mod error;
pub mod extensions;
pub mod optimizations;
pub mod overlap;
pub mod projection;
pub mod render;
pub mod resilience;
pub mod resume;
pub mod schedule;
pub mod scorecard;
pub mod sensitivity_x;
pub mod stream;
pub mod sweeps;

use std::sync::OnceLock;

use pai_core::{characterize, HeadlineStats, PerfModel};
use pai_par::Threads;
use pai_trace::{Population, PopulationConfig};
use serde_json::Value;

pub use error::ReproError;

/// Seed used for every population in the reproduction (the paper's
/// arXiv number).
pub const SEED: u64 = 1_905_930;

/// Default population size for the Sec. III collective analyses.
pub const POPULATION: usize = 20_000;

/// One regenerated artifact.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Identifier ("fig9", "table5", …).
    pub id: &'static str,
    /// What the artifact is.
    pub title: &'static str,
    /// The rendered text block.
    pub text: String,
    /// Machine-readable payload.
    pub json: Value,
}

/// Shared context: the synthetic population and the paper-default
/// analytical model.
pub struct Context {
    /// The configuration the population was generated from — the
    /// streaming experiment re-streams the identical job sequence
    /// from it.
    pub config: PopulationConfig,
    /// The calibrated synthetic population.
    pub population: Population,
    /// The Sec. III analytical model (Table I, 70 %, non-overlap).
    pub model: PerfModel,
    /// Worker threads for the chunked passes (population sampling,
    /// per-job model evaluation, projections, sweeps, faulted runs).
    /// Every experiment output is bit-for-bit identical at any value —
    /// the `PAI_THREADS` knob only changes wall-clock time.
    pub threads: Threads,
    /// The one [`characterize()`] pass over the population, run on
    /// first use.
    headline: OnceLock<HeadlineStats>,
}

impl Context {
    /// Builds the default context (20k jobs, fixed seed, `PAI_THREADS`
    /// workers).
    pub fn new() -> Context {
        Context::with_size(POPULATION)
    }

    /// Builds a context with a custom population size (tests use small
    /// ones) and the `PAI_THREADS` worker count.
    pub fn with_size(jobs: usize) -> Context {
        Context::with_size_threads(jobs, Threads::from_env())
    }

    /// Builds a context with an explicit worker count — the
    /// equivalence suites pin this to compare thread counts directly.
    pub fn with_size_threads(jobs: usize, threads: Threads) -> Context {
        // `jobs` is clamped to one so the calibrated config exists for
        // every input, keeping this constructor total.
        let config = PopulationConfig::paper_scale(jobs.max(1))
            .unwrap_or_else(|_| PopulationConfig::default());
        // Generation cannot fail on a config `paper_scale` just built
        // (pai-trace's tests pin its validity); if that contract ever
        // breaks, the failure must stay loud rather than hand the
        // experiments an empty population.
        let population = Population::builder(config.clone())
            .seed(SEED)
            .threads(threads)
            .build()
            // pai-lint: allow(panic-in-lib)
            .expect("the calibrated configuration is valid");
        Context {
            config,
            population,
            model: PerfModel::paper_default(),
            threads,
            headline: OnceLock::new(),
        }
    }

    /// The population's headline statistics: one [`characterize()`]
    /// pass per context, run on first use and shared by `summary`, the
    /// scorecard's fleet claims, `stream`'s batch side, fig7's "all"
    /// rows and ext-adoption's "before" shares.
    pub fn headline(&self) -> &HeadlineStats {
        self.headline
            .get_or_init(|| characterize(&self.model, self.population.store(), self.threads))
    }
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

/// Every paper experiment id, in paper order.
pub const PAPER_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table3", "fig11",
    "table4", "table5", "fig12", "table6", "fig13a", "fig13b", "fig13c", "fig13d", "fig15",
    "fig16", "summary",
];

/// Extensions beyond the paper (future work and Sec. VI implications).
pub const EXTENSION_EXPERIMENTS: &[&str] = &[
    "ext-inference",
    "ext-cluster",
    "ext-upgrade",
    "ext-scaling",
    "ext-adoption",
    "resilience",
    "schedule",
    "stream",
    "resume",
    "overlap",
];

/// Paper experiments followed by the extensions.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table3",
    "fig11",
    "table4",
    "table5",
    "fig12",
    "table6",
    "fig13a",
    "fig13b",
    "fig13c",
    "fig13d",
    "fig15",
    "fig16",
    "summary",
    "scorecard",
    "ext-inference",
    "ext-cluster",
    "ext-upgrade",
    "ext-scaling",
    "ext-adoption",
    "resilience",
    "schedule",
    "stream",
    "resume",
    "overlap",
];

/// Runs one experiment by id (the valid ids are [`ALL_EXPERIMENTS`]).
///
/// # Errors
///
/// Returns [`ReproError::UnknownExperiment`] for an unrecognized id,
/// and propagates any simulation/placement/fault-plan error an
/// experiment hits.
pub fn run_experiment(id: &str, ctx: &Context) -> Result<ExperimentResult, ReproError> {
    let result = match id {
        "table1" => config_tables::table1(),
        "table2" => config_tables::table2(),
        "fig5" => cluster::fig5(ctx),
        "fig6" => cluster::fig6(ctx),
        "fig7" => cluster::fig7(ctx),
        "fig8" => cluster::fig8(ctx),
        "fig9" => projection::fig9(ctx),
        "fig10" => projection::fig10(ctx),
        "table3" => config_tables::table3(),
        "fig11" => sweeps::fig11(ctx),
        "table4" => case_studies::table4(),
        "table5" => case_studies::table5(),
        "fig12" => case_studies::fig12(),
        "table6" => case_studies::table6(),
        "fig13a" => optimizations::fig13a()?,
        "fig13b" => optimizations::fig13b()?,
        "fig13c" => optimizations::fig13c()?,
        "fig13d" => optimizations::fig13d()?,
        "fig15" => sensitivity_x::fig15(ctx),
        "fig16" => projection::fig16(ctx)?,
        "summary" => cluster::summary(ctx),
        "scorecard" => scorecard::scorecard(ctx),
        "ext-inference" => extensions::inference()?,
        "ext-cluster" => extensions::cluster_mix(ctx)?,
        "ext-upgrade" => extensions::cluster_upgrade(ctx)?,
        "ext-scaling" => extensions::scaling()?,
        "ext-adoption" => extensions::adoption(ctx),
        "resilience" => resilience::resilience(ctx)?,
        "schedule" => schedule::schedule(ctx)?,
        "stream" => stream::stream(ctx),
        "resume" => resume::resume(ctx)?,
        "overlap" => overlap::overlap(ctx),
        _ => {
            return Err(ReproError::UnknownExperiment { id: id.to_string() });
        }
    };
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_are_unique() {
        let mut ids: Vec<&str> = ALL_EXPERIMENTS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_EXPERIMENTS.len());
    }

    #[test]
    fn unknown_id_is_a_typed_error() {
        let ctx = Context::with_size(10);
        assert!(matches!(
            run_experiment("fig99", &ctx),
            Err(ReproError::UnknownExperiment { .. })
        ));
        assert!(run_experiment("table1", &ctx).is_ok());
    }

    #[test]
    fn the_headline_pass_runs_once_per_context() {
        let ctx = Context::with_size(200);
        let first: *const HeadlineStats = ctx.headline();
        for id in ["summary", "scorecard", "stream", "fig7", "ext-adoption"] {
            run_experiment(id, &ctx).unwrap();
        }
        assert!(std::ptr::eq(first, ctx.headline()));
        assert_eq!(
            *ctx.headline(),
            characterize(&ctx.model, ctx.population.store(), ctx.threads)
        );
    }
}
