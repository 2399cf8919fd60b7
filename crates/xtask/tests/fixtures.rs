//! Lint-engine coverage over the known-bad and known-clean fixtures:
//! every rule must fire on its bad fixture with the right span, stay
//! silent on the clean tree, and the `xtask lint` binary must exit
//! non-zero on the bad set and zero on the clean set.

use std::path::{Path, PathBuf};
use std::process::Command;

use pai_par::Threads;
use xtask::{lint_paths, lint_source, Diagnostic};

fn fixture_dir(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(which)
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = fixture_dir("bad").join(name);
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    let (diags, _) = lint_source(&format!("fixtures/bad/{name}"), &src, true);
    diags
}

fn spans(diags: &[Diagnostic], rule: &str) -> Vec<(usize, usize)> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.line, d.col))
        .collect()
}

#[test]
fn hash_iteration_fires_on_use_and_signature() {
    let diags = lint_fixture("hash_iteration.rs");
    assert_eq!(spans(&diags, "hash-iteration"), vec![(3, 23), (5, 16)]);
    assert!(diags.iter().all(|d| d.rule == "hash-iteration"));
}

#[test]
fn panic_rule_fires_on_unwrap_expect_and_panic() {
    let diags = lint_fixture("lib_unwrap.rs");
    let matched: Vec<&str> = diags.iter().map(|d| d.matched.as_str()).collect();
    assert_eq!(matched, vec![".unwrap()", ".expect()", "panic!"]);
    assert_eq!(
        spans(&diags, "panic-in-lib"),
        vec![(3, 17), (7, 16), (11, 5)]
    );
}

#[test]
fn panic_rule_fires_on_unwraps_in_a_decode_path() {
    let diags = lint_fixture("codec_decode.rs");
    let matched: Vec<&str> = diags.iter().map(|d| d.matched.as_str()).collect();
    assert_eq!(matched, vec![".unwrap()", ".expect()"]);
    assert_eq!(spans(&diags, "panic-in-lib"), vec![(4, 27), (8, 31)]);
}

#[test]
fn predictor_hot_path_fixture_fires_both_guard_rules() {
    let diags = lint_fixture("predict_hot_path.rs");
    let panics = spans(&diags, "panic-in-lib");
    assert_eq!(panics.len(), 2, "{diags:?}");
    let clocks = spans(&diags, "wall-clock");
    assert_eq!(clocks.len(), 1, "{diags:?}");
    assert!(diags.iter().any(|d| d.matched == "Instant::now"));
}

#[test]
fn wall_clock_fires_on_systemtime_and_instant_now() {
    let diags = lint_fixture("wall_clock.rs");
    // Both `SystemTime` mentions fire; `Instant` only as `Instant::now`,
    // so the return type on line 6 stays silent.
    assert_eq!(spans(&diags, "wall-clock"), vec![(2, 30), (3, 16), (7, 16)]);
    assert!(diags.iter().any(|d| d.matched == "Instant::now"));
}

#[test]
fn lossy_cast_fires_with_span() {
    let diags = lint_fixture("lossy_cast.rs");
    assert_eq!(spans(&diags, "lossy-float-cast"), vec![(3, 7)]);
    assert_eq!(diags[0].matched, "as f32");
}

#[test]
fn par_suffix_fires_on_the_live_fn_only() {
    let diags = lint_fixture("par_suffix.rs");
    // Only the undeprecated `breakdown_all_par` fires, at the fn-name
    // token; the `#[deprecated]` shim stays silent.
    assert_eq!(spans(&diags, "par-suffix"), vec![(4, 8)]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].matched, "pub fn breakdown_all_par");
}

#[test]
fn rng_lineage_fires_once_at_the_construction_site() {
    let diags = lint_fixture("rng_literal_seed.rs");
    assert_eq!(spans(&diags, "rng-lineage"), vec![(10, 15)]);
    assert_eq!(diags.len(), 1, "only the lineage rule fires: {diags:?}");
    assert!(diags[0].matched.contains("literal seed"), "{diags:?}");
}

#[test]
fn reduction_order_fires_once_at_the_sum() {
    let diags = lint_fixture("reduction_unordered.rs");
    assert_eq!(spans(&diags, "reduction-order"), vec![(6, 16)]);
    assert_eq!(diags.len(), 1, "only the reduction rule fires: {diags:?}");
    assert!(diags[0].matched.contains("values"), "{diags:?}");
}

#[test]
fn panic_transitive_fires_once_at_the_public_entry() {
    let diags = lint_fixture("panic_transitive.rs");
    assert_eq!(spans(&diags, "panic-transitive"), vec![(4, 8)]);
    let hit = diags
        .iter()
        .find(|d| d.rule == "panic-transitive")
        .expect("transitive hit");
    assert!(hit.matched.contains("entry -> hop -> inner"), "{hit:?}");
    // The lexical rule still owns the unwrap itself.
    assert_eq!(spans(&diags, "panic-in-lib").len(), 1);
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn cyclic_call_graph_terminates_and_fires_once() {
    let diags = lint_fixture("callgraph_cycle.rs");
    assert_eq!(spans(&diags, "panic-transitive"), vec![(4, 8)]);
    let hit = diags
        .iter()
        .find(|d| d.rule == "panic-transitive")
        .expect("transitive hit");
    assert!(hit.matched.contains("even -> odd -> boom"), "{hit:?}");
}

#[test]
fn allow_comment_suppresses_the_fixture() {
    let path = fixture_dir("bad").join("suppressed.rs");
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    let (diags, suppressed) = lint_source("fixtures/bad/suppressed.rs", &src, true);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn clean_fixture_tree_is_silent() {
    let root = fixture_dir("clean");
    let (diags, scanned, suppressed) =
        lint_paths(&root, std::slice::from_ref(&root), true, Threads::SERIAL)
            .expect("scan clean fixtures");
    assert_eq!(scanned, 4);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn bad_fixture_tree_reports_every_rule() {
    let root = fixture_dir("bad");
    let (diags, scanned, _) = lint_paths(&root, std::slice::from_ref(&root), true, Threads::SERIAL)
        .expect("scan bad fixtures");
    assert_eq!(scanned, 13);
    for rule in [
        "hash-iteration",
        "panic-in-lib",
        "wall-clock",
        "lossy-float-cast",
        "par-suffix",
        "rng-lineage",
        "reduction-order",
        "panic-transitive",
    ] {
        assert!(diags.iter().any(|d| d.rule == rule), "missing {rule}");
    }
}

#[test]
fn lint_binary_exits_nonzero_on_bad_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let json = std::env::temp_dir().join("pai-lint-fixture-report.json");
    let bad = Command::new(bin)
        .args(["lint", "--all-rules", "--no-graph", "--json"])
        .arg(&json)
        .arg("--paths")
        .arg(fixture_dir("bad"))
        .output()
        .expect("run xtask lint");
    assert!(!bad.status.success(), "bad fixtures must fail the lint");
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).expect("report written"))
            .expect("valid JSON report");
    assert!(report["diagnostics"].as_array().expect("array").len() >= 18);
    assert_eq!(report["files_scanned"], 13);
    assert_eq!(report["version"], 2);
    let _ = std::fs::remove_file(&json);

    let clean = Command::new(bin)
        .args(["lint", "--all-rules", "--no-graph", "--paths"])
        .arg(fixture_dir("clean"))
        .output()
        .expect("run xtask lint");
    assert!(
        clean.status.success(),
        "clean fixtures must pass: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
}

#[test]
fn lint_binary_report_is_byte_identical_across_thread_counts() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let mut reports = Vec::new();
    for threads in ["1", "8"] {
        let json = std::env::temp_dir().join(format!("pai-lint-threads-{threads}.json"));
        let out = Command::new(bin)
            .args(["lint", "--all-rules", "--no-graph", "--json"])
            .arg(&json)
            .arg("--paths")
            .arg(fixture_dir("bad"))
            .arg(fixture_dir("clean"))
            .env("PAI_THREADS", threads)
            .output()
            .expect("run xtask lint");
        assert!(!out.status.success(), "bad fixtures fail at any threads");
        reports.push(std::fs::read(&json).expect("report written"));
        let _ = std::fs::remove_file(&json);
    }
    assert_eq!(
        reports[0], reports[1],
        "lint --json must be byte-identical at PAI_THREADS=1 vs 8"
    );
}
