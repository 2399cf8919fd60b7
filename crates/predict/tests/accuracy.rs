//! Self-population accuracy. Observe a seeded 10k-job trace
//! population whose ground-truth duration is the analytical step
//! time × a fixed step count, then predict every job back and pin the
//! calibration report's error bounds. The bounds are deliberately loose enough to survive hash
//! collisions and neighbor averaging, and tight enough that a broken
//! distance metric, class leak, or prior fallback fails immediately.

use pai_core::{Jobs, PerfModel};
use pai_predict::{CalibrationAccum, HistoryConfig, HistoryStore, Signature, NUM_CLASSES};
use pai_trace::{Population, PopulationConfig};

const JOBS: usize = 10_000;
const SEED: u64 = 1_905_930;
const STEPS: f64 = 100.0;

/// Ground truth: the analytical per-step time of the job, scaled to a
/// fixed step count — a deterministic function of the signature's
/// underlying features, so the only prediction error is the
/// predictor's own (neighbor averaging, collisions, cold starts).
fn observations() -> Vec<(Signature, f64)> {
    let config = PopulationConfig::paper_scale(JOBS).expect("valid scale");
    let population = Population::generate(&config, SEED).expect("valid config");
    let model = PerfModel::paper_default();
    (0..population.len())
        .map(|i| {
            let features = population.get(i);
            let ct = model.component_times(&features);
            let step = (ct.data_io + ct.computation() + ct.weight_traffic).as_f64();
            (Signature::of(&features), step * STEPS)
        })
        .collect()
}

#[test]
fn self_population_mape_stays_under_the_pinned_bound() {
    let history = observations();
    let mut store = HistoryStore::new(HistoryConfig::with_priors(SEED, [1.0; NUM_CLASSES]))
        .expect("valid config");
    for (sig, duration_s) in &history {
        store.observe(sig, *duration_s).expect("valid duration");
    }
    assert_eq!(store.observations(), JOBS as u64);

    let mut calib = CalibrationAccum::new();
    for (sig, duration_s) in &history {
        let p = store.predict(sig);
        assert!(
            p.duration_s.is_finite() && p.duration_s > 0.0,
            "prediction must stay positive and finite: {p:?}"
        );
        calib.record(sig.class_index(), p.duration_s, *duration_s);
    }
    let report = calib.report().expect("non-empty evaluation");

    assert_eq!(report.jobs, JOBS);
    assert_eq!(report.skipped, 0);
    // Pinned bounds: measured ~0.07 MAPE / ~0.17 p90 at this seed;
    // 2x headroom against distributional drift in upstream sampling.
    assert!(report.mape < 0.15, "MAPE {:.4} out of bounds", report.mape);
    assert!(
        report.p50_rel_err < 0.10,
        "p50 {:.4} out of bounds",
        report.p50_rel_err
    );
    assert!(
        report.p90_rel_err < 0.35,
        "p90 {:.4} out of bounds",
        report.p90_rel_err
    );
    // Every class the population realizes must appear in the
    // breakdown with a sane error of its own.
    assert!(!report.per_class.is_empty());
    let covered: usize = report.per_class.iter().map(|c| c.jobs).sum();
    assert_eq!(covered, JOBS);
    for class in &report.per_class {
        assert!(
            class.mape < 0.5,
            "class {} MAPE {:.4} out of bounds",
            class.class,
            class.mape
        );
    }
}

#[test]
fn a_grown_history_beats_the_cold_prior() {
    // The predictor must earn its keep: per-job k-NN error well under
    // the best single-constant-per-class baseline (the prior itself).
    let history = observations();
    let mut store = HistoryStore::new(HistoryConfig::with_priors(SEED, [1.0; NUM_CLASSES]))
        .expect("valid config");

    // Baseline: per-class mean duration as the only estimate.
    let mut sums = [0.0f64; NUM_CLASSES];
    let mut counts = [0usize; NUM_CLASSES];
    for (sig, duration_s) in &history {
        sums[sig.class_index()] += duration_s;
        counts[sig.class_index()] += 1;
    }
    let mut baseline = CalibrationAccum::new();
    for (sig, duration_s) in &history {
        let class = sig.class_index();
        baseline.record(
            class,
            sums[class] / counts[class].max(1) as f64,
            *duration_s,
        );
    }
    let baseline_mape = baseline.report().expect("non-empty").mape;

    for (sig, duration_s) in &history {
        store.observe(sig, *duration_s).expect("valid duration");
    }
    let mut knn = CalibrationAccum::new();
    for (sig, duration_s) in &history {
        let p = store.predict(sig);
        knn.record(sig.class_index(), p.duration_s, *duration_s);
    }
    let knn_mape = knn.report().expect("non-empty").mape;
    assert!(
        knn_mape < baseline_mape * 0.5,
        "k-NN MAPE {knn_mape:.4} must clearly beat the per-class-mean baseline {baseline_mape:.4}"
    );
}
