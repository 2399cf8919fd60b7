//! Tests of the benchmark itself, at small input sizes.

use pai_hw::Seconds;
use pai_perfbench::layers::LAYER_METRICS;
use pai_perfbench::runner::{judge, measure, Budget, Tally};
use pai_perfbench::spans::Tracer;
use pai_perfbench::workloads::{Analyze, Ingest, Price, Schedule, Workload};
use pai_perfbench::{run, run_traced, Sizes, END_TO_END, WORKLOADS};
use serde_json::Value;

/// Small enough for a debug build; the ingest feed still spans one
/// 64-chunk checkpoint interval.
const SMALL: Sizes = Sizes {
    analyze: 20_000,
    ingest: 70_000,
    price: 2_000,
    schedule: 2_000,
    parallel: 4_000,
};

const QUICK: Budget = Budget {
    seconds: 0.0,
    min_passes: 2,
    min_rebuilds: 1,
};

/// Builds `W` at `jobs`, doctors one pass's output with `doctor`, and
/// returns the tally after judging that pass.
fn doctored<W: Workload>(jobs: usize, doctor: impl FnOnce(&mut W::Output)) -> Tally {
    let mut t = Tracer::off();
    let inputs = W::setup(jobs, pai_repro::SEED, &mut t).expect("set-up");
    let reference = W::reference(&inputs).expect("reference");
    let warm_out = W::pass(&inputs, &mut t).expect("warm-up pass");
    let warm = W::check(&inputs, &reference, &warm_out);
    assert!(warm.is_ok(), "{} warm-up: {warm:?}", W::NAME);
    let mut out = W::pass(&inputs, &mut t).expect("pass");
    doctor(&mut out);
    let mut tally = Tally::default();
    tally.record(judge::<W>(&inputs, &reference, &warm, Ok(out)).is_ok());
    tally
}

const ONE_FAILED: Tally = Tally {
    attempted: 1,
    failed: 1,
};

#[test]
fn a_doctored_result_fails_its_check_and_counts_as_a_failed_pass() {
    // Each doctoring breaks a property the workload's check asserts.
    assert_eq!(
        doctored::<Analyze>(SMALL.analyze, |o| o.stats.jobs += 1),
        ONE_FAILED
    );
    assert_eq!(
        doctored::<Ingest>(SMALL.ingest, |o| o.resumed_stats.quarantined_total += 1),
        ONE_FAILED
    );
    assert_eq!(
        doctored::<Price>(SMALL.price, |o| {
            let serial = &mut o.zoo[0][0];
            serial.total = Seconds::from_f64(serial.total.as_f64() * 1.001);
        }),
        ONE_FAILED
    );
    assert_eq!(
        doctored::<Schedule>(SMALL.schedule, |o| {
            o.outcomes[0][0].jobs.pop();
        }),
        ONE_FAILED
    );
    // One that keeps every property but differs from the warm-up pass.
    assert_eq!(
        doctored::<Analyze>(SMALL.analyze, |o| o.whatif[0].mean_speedup += 1.0),
        ONE_FAILED
    );
}

#[test]
fn an_undoctored_pass_is_counted_as_passing() {
    assert_eq!(
        doctored::<Schedule>(SMALL.schedule, |_| {}),
        Tally {
            attempted: 1,
            failed: 0
        }
    );
}

#[test]
fn a_second_seed_changes_the_inputs_and_every_check_still_passes() {
    fn both_seeds<W: Workload>(jobs: usize) {
        let digests: Vec<u64> = [pai_repro::SEED, 42]
            .into_iter()
            .map(|seed| {
                let m = measure::<W>(jobs, seed, QUICK, false).expect("runs");
                assert_eq!(
                    m.tally.failed,
                    0,
                    "{} seed {seed}: {:?}",
                    W::NAME,
                    m.first_error
                );
                assert!(m.tally.attempted >= 2);
                m.warm.expect("warm-up check").digest
            })
            .collect();
        assert_ne!(
            digests[0],
            digests[1],
            "{}: the seed changed nothing",
            W::NAME
        );
    }
    both_seeds::<Analyze>(SMALL.analyze);
    both_seeds::<Ingest>(SMALL.ingest);
    both_seeds::<Price>(SMALL.price);
    both_seeds::<Schedule>(SMALL.schedule);
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("valid JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v[key]
        .as_str()
        .unwrap_or_else(|| panic!("{key} is a string in {v}"))
}

#[test]
fn benchmark_json_records_each_workload_and_every_layer_metric() {
    let bench = benchmark_json();
    let workloads = bench["workloads"].as_array().expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        let why = field(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
    let e2e: Vec<(&str, &str)> = bench["end_to_end"]
        .as_array()
        .expect("end_to_end")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    assert_eq!(e2e, END_TO_END);
    // The per-layer list is the layer table, in order; the table also
    // records which end-to-end metric each one should move, which the
    // fixed keys of BENCHMARK.json leave no room for.
    let layers: Vec<(&str, &str, &str)> = bench["per_layer"]
        .as_array()
        .expect("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let table: Vec<(&str, &str, &str)> = LAYER_METRICS
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    assert_eq!(layers, table);
    for m in LAYER_METRICS {
        assert!(!m.moves.is_empty(), "{} names no end-to-end metric", m.name);
    }
}

#[test]
fn the_untraced_run_reports_every_end_to_end_metric() {
    let report = run(Price::NAME, SMALL, pai_repro::SEED, 0.0).expect("runs");
    assert!(report.correct, "{:#?}", report.notes);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    assert!(report.metrics.iter().all(|m| m.1 > 0.0));
    let line: Value = serde_json::from_str(&report.json_line()).expect("the result is JSON");
    assert_eq!(line["correct"], Value::Bool(true));
    assert_eq!(line["failed"].as_u64(), Some(0));
}

#[test]
fn the_traced_run_emits_every_per_layer_metric() {
    let report = run_traced(Schedule::NAME, SMALL, pai_repro::SEED, 0.0).expect("runs");
    assert!(report.correct, "{:#?}", report.notes);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    let spans: Vec<&str> = report.spans.iter().map(|s| s.0).collect();
    assert_eq!(spans[0], Schedule::NAME);
    assert_eq!(spans.len(), WORKLOADS.len());
}

#[test]
fn an_unknown_workload_is_an_error() {
    assert!(run("nope", SMALL, 1, 0.0).is_err());
}
