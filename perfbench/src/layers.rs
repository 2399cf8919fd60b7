//! The per-layer metrics of the traced run: where each comes from, and
//! which end-to-end metric, on which workload, it should move.

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The span's self time summed within each operation (pass or
    /// set-up), fastest over the operations that recorded it; seconds.
    SelfSeconds(&'static str),
    /// The fastest call to the span; microseconds.
    CallMicros(&'static str),
    /// A count the workload's check derives from its output.
    Count,
    /// Measured by the traced run beside the workloads.
    Context,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMetric {
    /// `layer.metric`, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `higher` or `lower`, as in `BENCHMARK.json`.
    pub better: &'static str,
    /// The end-to-end metric and workload a change in this metric
    /// should move, or why it should move nothing.
    pub moves: &'static str,
    /// How the value is obtained.
    pub source: Source,
}

const fn seconds(name: &'static str, span: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit: "s",
        better: "lower",
        moves,
        source: Source::SelfSeconds(span),
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        source: Source::Count,
    }
}

const fn context(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        source: Source::Context,
    }
}

const CONTEXT: &str = "nothing gated: context";
const FIXED: &str = "nothing: must not move";

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    seconds(
        "trace.generate_s",
        "trace.generate",
        "setup_s of analyze, price and schedule",
    ),
    seconds("trace.sample_s", "trace.sample", "setup_s of ingest"),
    seconds("trace.ingest_s", "trace.ingest", "jobs_per_s of ingest"),
    seconds(
        "trace.checkpoint_s",
        "trace.checkpoint",
        "jobs_per_s of ingest",
    ),
    count(
        "trace.checkpoints",
        "count",
        "lower",
        "jobs_per_s of ingest",
    ),
    count(
        "trace.checkpoint_bytes",
        "bytes",
        "lower",
        "jobs_per_s and peak_rss_mb of ingest",
    ),
    seconds("trace.resume_s", "trace.resume", "jobs_per_s of ingest"),
    count(
        "trace.accepted_ratio",
        "ratio",
        "higher",
        "nothing: must equal one minus the injected 1% corruption rate",
    ),
    seconds(
        "core.characterize_s",
        "core.characterize",
        "jobs_per_s of analyze",
    ),
    seconds("core.project_s", "core.project", "jobs_per_s of analyze"),
    count(
        "core.project_eligible_ratio",
        "ratio",
        "higher",
        "jobs_per_s of analyze",
    ),
    seconds("core.sweep_s", "core.sweep", "jobs_per_s of analyze"),
    LayerMetric {
        name: "core.whatif_query_us",
        unit: "us",
        better: "lower",
        moves: "jobs_per_s of analyze",
        source: Source::CallMicros("core.whatif_query"),
    },
    context("core.scan_frac", "ratio", "higher", "jobs_per_s of analyze"),
    seconds(
        "core.whatif_build_s",
        "core.whatif_build",
        "setup_s of analyze",
    ),
    seconds("dag.price_wfbp_s", "dag.price_wfbp", "jobs_per_s of price"),
    seconds(
        "dag.price_fused_s",
        "dag.price_fused",
        "jobs_per_s of price",
    ),
    seconds("dag.lower_s", "dag.lower", "jobs_per_s of price"),
    seconds("dag.evaluate_s", "dag.evaluate", "jobs_per_s of price"),
    count("dag.transfers", "count", "lower", "jobs_per_s of price"),
    seconds("sim.step_s", "sim.step", "jobs_per_s of price"),
    count("sim.ops", "count", "lower", "jobs_per_s of price"),
    seconds("graph.zoo_build_s", "graph.zoo_build", "setup_s of price"),
    count(
        "dag.above_serial.wfbp",
        "count",
        "lower",
        "nothing: jobs WFBP prices above serial, kept visible",
    ),
    count(
        "dag.above_serial.fused",
        "count",
        "lower",
        "nothing: jobs fused WFBP prices above serial, kept visible",
    ),
    seconds(
        "sched.templates_s",
        "sched.templates",
        "setup_s of schedule",
    ),
    seconds("sched.realize_s", "sched.realize", "setup_s of schedule"),
    seconds(
        "sched.run_s.fifo-first-fit",
        "sched.run.fifo-first-fit",
        "jobs_per_s of schedule",
    ),
    seconds(
        "sched.run_s.best-fit-packed",
        "sched.run.best-fit-packed",
        "jobs_per_s of schedule",
    ),
    seconds(
        "sched.run_s.spread",
        "sched.run.spread",
        "jobs_per_s of schedule",
    ),
    seconds(
        "sched.run_s.locality-aware",
        "sched.run.locality-aware",
        "jobs_per_s of schedule",
    ),
    seconds(
        "sched.run_s.qssf",
        "sched.run.qssf",
        "jobs_per_s of schedule; a queue-ordering fix moves only this one",
    ),
    count("sched.jobs", "count", "higher", FIXED),
    count("sched.crashes", "count", "lower", FIXED),
    count("predict.calibrated", "count", "higher", FIXED),
    count("predict.mape", "ratio", "lower", FIXED),
    context("par.speedup_2t.generate", "x", "higher", CONTEXT),
    context("par.speedup_2t.characterize", "x", "higher", CONTEXT),
    context("par.speedup_2t.projections", "x", "higher", CONTEXT),
    context("par.speedup_2t.class_sweep", "x", "higher", CONTEXT),
    context("par.speedup_2t.dag_price", "x", "higher", CONTEXT),
    context("host.memcpy_gbps", "GB/s", "higher", CONTEXT),
    context("host.scan_gbps", "GB/s", "higher", CONTEXT),
    context("bench.trace_overhead_pct", "%", "lower", CONTEXT),
    context("bench.cold_setup_s", "s", "lower", CONTEXT),
];
