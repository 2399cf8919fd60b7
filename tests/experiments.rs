//! Integration: every experiment of the repro harness runs and emits
//! well-formed output at a reduced population scale.

use pai_repro::{run_experiment, Context, EXPERIMENTS};

#[test]
fn every_experiment_runs_and_produces_output() {
    let ctx = Context::with_size(2_000);
    for &(id, _) in EXPERIMENTS {
        let result = run_experiment(id, &ctx).expect("experiment runs");
        assert_eq!(result.id, id);
        assert!(!result.title.is_empty(), "{id}: empty title");
        assert!(!result.text.trim().is_empty(), "{id}: empty text");
        assert!(!result.json.is_null(), "{id}: null JSON");
        let body = serde_json::to_string(&result.json).expect("serializable");
        assert!(body.len() > 2, "{id}: trivial JSON");
    }
}

#[test]
fn experiments_are_deterministic_per_seed() {
    let a = run_experiment("fig7", &Context::with_size(1_000)).expect("fig7 runs");
    let b = run_experiment("fig7", &Context::with_size(1_000)).expect("fig7 runs");
    assert_eq!(a.text, b.text);
    assert_eq!(a.json, b.json);
}

#[test]
fn population_size_changes_results_but_not_structure() {
    let small = run_experiment("fig5", &Context::with_size(500)).expect("fig5 runs");
    let large = run_experiment("fig5", &Context::with_size(3_000)).expect("fig5 runs");
    let rows = |r: &pai_repro::ExperimentResult| r.text.lines().count();
    assert_eq!(rows(&small), rows(&large));
}
