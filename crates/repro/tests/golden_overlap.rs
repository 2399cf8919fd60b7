//! Golden snapshot of the `overlap` experiment.
//!
//! The fixture pins the complete JSON artifact — the 18 zoo-graph
//! rows (additive / serial-DAG / WFBP / fused-WFBP step times,
//! exposed-communication fractions, transfer counts, overstatement
//! factors) and the population-level backend means — at the pinned
//! seed and a 2 000-job population. Structure, strings and integers
//! must match exactly; floats within 1e-9 relative (the documented
//! Serial ≡ additive agreement bound). A failure means the DAG
//! evaluator's numbers moved — either an intentional pricing change
//! (regenerate: `cargo run --release -q -p pai-repro --bin repro --
//! --jobs 2000 overlap && cp target/repro/overlap.json
//! crates/repro/tests/fixtures/overlap_golden.json`) or an accidental
//! determinism break (fix the code).

mod common;

use common::assert_close;
use pai_repro::overlap::overlap;
use pai_repro::{Context, SEED};
use serde_json::Value;

/// Small enough for debug-mode CI, large enough that every class and
/// sync path appears in the population means.
const GOLDEN_POPULATION: usize = 2_000;

fn fixture() -> Value {
    serde_json::from_str(include_str!("fixtures/overlap_golden.json"))
        .expect("the committed fixture is valid JSON")
}

#[test]
fn overlap_matches_the_golden_snapshot() {
    let golden = fixture();
    assert_eq!(
        golden["seed"].as_u64(),
        Some(SEED),
        "fixture seed matches the harness"
    );
    assert_eq!(
        golden["population"].as_u64().map(|p| p as usize),
        Some(GOLDEN_POPULATION),
        "fixture population matches this test"
    );
    let produced = overlap(&Context::with_size(GOLDEN_POPULATION)).json;
    assert_close(&golden, &produced, "$");
}
