//! The timing loop shared by the bench targets that write a
//! `BENCH_*.json` report.

use std::time::Instant;

/// Best-of-N timing for the JSON reports.
pub const TIMING_RUNS: usize = 3;

/// Best-of-N wall-clock seconds for `f`.
pub fn time_best<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TIMING_RUNS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}
