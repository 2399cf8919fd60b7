//! End-to-end serial≡parallel equivalence for the experiment harness:
//! the full context build plus every population-scale experiment must
//! render byte-identical text and JSON at any worker-thread count.
//!
//! This is the top of the determinism stack — it transitively pins
//! `Population::builder(..).threads(..)`, `PerfModel::projections`,
//! `class_sweep`, `characterize`,
//! `policy_sweep` and `StepSimulator::run_faulted` behind the public
//! experiment API.

use pai_par::{assert_serial_parallel_identical, EQUIVALENCE_THREADS};
use pai_repro::{run_experiment, Context};
use proptest::prelude::*;

/// The experiments that exercise a chunked pass somewhere below them.
const PARALLEL_EXPERIMENTS: &[&str] = &[
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig16",
    "summary",
    "scorecard",
    "resilience",
    "schedule",
    "stream",
    "resume",
    "overlap",
];

proptest! {
    // Each case builds four full contexts and runs ten experiments per
    // thread count; a handful of random sizes is plenty.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// ISSUE acceptance: cluster characterization (and every other
    /// population-scale experiment) is bit-for-bit identical at every
    /// worker-thread count, for arbitrary population sizes.
    #[test]
    fn experiments_are_thread_count_invariant(jobs in 300usize..1_500) {
        let rendered = assert_serial_parallel_identical(&EQUIVALENCE_THREADS, |threads| {
            let ctx = Context::with_size_threads(jobs, threads);
            PARALLEL_EXPERIMENTS
                .iter()
                .map(|id| {
                    let r = run_experiment(id, &ctx).expect("known experiment id");
                    (r.id, r.text, r.json.to_string())
                })
                .collect::<Vec<_>>()
        });
        prop_assert_eq!(rendered.len(), PARALLEL_EXPERIMENTS.len());
    }
}

/// The default context honors `PAI_THREADS` without changing output:
/// a direct (non-property) spot check at the seed the binary uses.
#[test]
fn default_context_matches_explicit_serial() {
    let serial = Context::with_size_threads(2_000, pai_par::Threads::SERIAL);
    let env = Context::with_size(2_000);
    assert_eq!(serial.population, env.population);
    let a = run_experiment("summary", &serial).expect("known experiment id");
    let b = run_experiment("summary", &env).expect("known experiment id");
    assert_eq!(a.text, b.text);
    assert_eq!(a.json, b.json);
}
