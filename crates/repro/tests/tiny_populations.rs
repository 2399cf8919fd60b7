//! Every experiment on the smallest populations.
//!
//! One or two jobs leave most classes empty. A class with no jobs must
//! come out as an empty panel or a marked row, never as a panic: this
//! runs every `repro --list` id at both sizes and reports each failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pai_repro::{run_experiment, Context, EXPERIMENTS};

#[test]
fn every_experiment_runs_on_one_and_two_job_populations() {
    let mut failures = Vec::new();
    for jobs in [1, 2] {
        let ctx = Context::with_size(jobs);
        for &(id, _) in EXPERIMENTS {
            match catch_unwind(AssertUnwindSafe(|| run_experiment(id, &ctx))) {
                Ok(Ok(result)) => assert_eq!(result.id, id),
                Ok(Err(e)) => failures.push(format!("{id} at {jobs} jobs: {e}")),
                Err(_) => failures.push(format!("{id} at {jobs} jobs: panicked")),
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
