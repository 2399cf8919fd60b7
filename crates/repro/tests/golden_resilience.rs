//! Golden snapshot of the `resilience` experiment.
//!
//! The fixture pins the complete JSON artifact: healthy and degraded
//! step-time percentiles, wall clock, goodput and lost work from
//! pai-sim's faulted multi-step runs, for PS/Worker and
//! AllReduce-Local, plus the closed-form straggler dilation. The
//! experiment does not read the population, so the fixture holds at
//! any `--jobs`. Structure, strings and integers must match exactly;
//! floats within 1e-9 relative. A failure means the faulted
//! simulator's numbers moved — either an intentional change
//! (regenerate: `cargo run --release -q -p pai-repro --bin repro --
//! resilience && cp target/repro/resilience.json
//! crates/repro/tests/fixtures/resilience_golden.json`) or an
//! accidental determinism break (fix the code).

mod common;

use common::assert_close;
use pai_repro::resilience::resilience;
use pai_repro::Context;

/// The experiment ignores the population; keep the one it is handed
/// small.
const CONTEXT_POPULATION: usize = 100;

#[test]
fn resilience_matches_the_golden_snapshot() {
    let golden: serde_json::Value =
        serde_json::from_str(include_str!("fixtures/resilience_golden.json"))
            .expect("the committed fixture is valid JSON");
    let produced = resilience(&Context::with_size(CONTEXT_POPULATION))
        .expect("resilience runs")
        .json;
    assert_close(&golden, &produced, "$");
}
