//! Golden snapshot of the `fig12` experiment.
//!
//! The fixture pins the complete JSON artifact: for each of the six
//! case-study models, the analytical estimate and the pai-sim step
//! measurement (Table VI efficiencies injected), their difference,
//! and both component-share vectors. The experiment does not read the
//! population, so the fixture holds at any `--jobs`. Structure,
//! strings and integers must match exactly; floats within 1e-9
//! relative. A failure means the simulator's or the model's numbers
//! moved — either an intentional change (regenerate: `cargo run
//! --release -q -p pai-repro --bin repro -- fig12 && cp
//! target/repro/fig12.json crates/repro/tests/fixtures/fig12_golden.json`)
//! or an accidental determinism break (fix the code).

mod common;

use common::assert_close;
use pai_repro::case_studies::fig12;

#[test]
fn fig12_matches_the_golden_snapshot() {
    let golden: serde_json::Value =
        serde_json::from_str(include_str!("fixtures/fig12_golden.json"))
            .expect("the committed fixture is valid JSON");
    assert_close(&golden, &fig12().json, "$");
}
