//! Human-readable profiling reports from run metadata.
//!
//! The paper's workflow ends in a performance report a cluster operator
//! reads (Fig. 4's "Performance Breakdown" stage); this module renders
//! one from a [`RunMetadata`]: component shares, the op-kind histogram,
//! the hottest kernels, and the framework-overhead share (Sec. VI-A3).

use std::fmt::Write as _;

use pai_graph::Graph;
use pai_hw::Seconds;

use crate::runmeta::RunMetadata;

/// Options controlling report contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportOptions {
    /// How many of the hottest ops to list.
    pub top_ops: usize,
    /// Whether to include the per-kind histogram.
    pub kind_histogram: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            top_ops: 10,
            kind_histogram: true,
        }
    }
}

fn pct_of(part: Seconds, total: Seconds) -> f64 {
    if total.is_zero() {
        0.0
    } else {
        part.as_f64() / total.as_f64() * 100.0
    }
}

/// Renders the report of a step simulated on `graph`, which names the
/// hottest ops.
///
/// # Panics
///
/// Panics if a profiled op is not a node of `graph`.
///
/// # Examples
///
/// ```
/// use pai_collectives::CommPlan;
/// use pai_core::Architecture;
/// use pai_graph::zoo;
/// use pai_profiler::report::{render, ReportOptions};
/// use pai_profiler::{JobMeta, RunMetadata};
/// use pai_sim::{SimConfig, StepSimulator};
///
/// let model = zoo::resnet50();
/// let step = StepSimulator::new(SimConfig::testbed())
///     .run(model.graph(), &CommPlan::new(), 1)?;
/// let meta = RunMetadata::new(
///     JobMeta { arch: Architecture::OneWorkerOneGpu, cnodes: 1, batch_size: 64 },
///     step,
/// );
/// let report = render(&meta, model.graph(), &ReportOptions::default());
/// assert!(report.contains("hottest ops"));
/// # Ok::<(), pai_sim::SimError>(())
/// ```
pub fn render(meta: &RunMetadata, graph: &Graph, options: &ReportOptions) -> String {
    let m = &meta.step;
    let mut out = String::new();
    let _ = writeln!(out, "profile: {meta}");
    let _ = writeln!(out, "\ncomponent shares:");
    for (label, part) in [
        ("input data I/O", m.data_io),
        ("compute-bound", m.compute_bound),
        ("memory-bound", m.memory_bound),
        ("communication", m.comm_total()),
    ] {
        let _ = writeln!(out, "  {label:<16} {part}  ({:.1}%)", pct_of(part, m.total));
    }
    let _ = writeln!(
        out,
        "\nframework overhead: {:.1}% of GPU occupancy lost to the \
         kernel-launch gap ({} kernels)",
        meta.framework_overhead_fraction() * 100.0,
        m.kernels
    );

    if options.kind_histogram {
        let _ = writeln!(out, "\ntime by op kind:");
        for (kind, t) in meta.time_by_kind() {
            let _ = writeln!(
                out,
                "  {kind:<16} {t}  ({:.1}% of computation)",
                pct_of(t, m.computation())
            );
        }
    }

    if options.top_ops > 0 {
        let _ = writeln!(out, "\nhottest ops:");
        for op in meta.top_ops(options.top_ops) {
            let name = graph.node(op.op).name();
            let _ = writeln!(out, "  {name:<40} {}  ({})", op.duration, op.kind);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runmeta::JobMeta;
    use pai_collectives::CommPlan;
    use pai_core::Architecture;
    use pai_graph::op::{elementwise, matmul};
    use pai_graph::{Graph, Op};
    use pai_sim::{SimConfig, StepSimulator};

    fn meta() -> (RunMetadata, Graph) {
        let mut g = Graph::new("toy");
        let a = g.add(Op::new("big_matmul", matmul(2048, 2048, 2048)));
        let b = g.add(Op::new("activation", elementwise(1, 1 << 20, 1)));
        g.connect(a, b);
        let step = StepSimulator::new(SimConfig::testbed())
            .run(&g, &CommPlan::new(), 1)
            .unwrap();
        let meta = RunMetadata::new(
            JobMeta {
                arch: Architecture::OneWorkerOneGpu,
                cnodes: 1,
                batch_size: 32,
            },
            step,
        );
        (meta, g)
    }

    #[test]
    fn report_names_the_hottest_op() {
        let (m, g) = meta();
        let r = render(&m, &g, &ReportOptions::default());
        let mut hottest = r.lines().skip_while(|l| !l.contains("hottest ops"));
        assert!(hottest.nth(1).unwrap().contains("big_matmul"));
        assert!(r.contains("component shares"));
        assert!(r.contains("framework overhead"));
        assert!(r.contains("MatMul"));
    }

    #[test]
    fn options_prune_sections() {
        let (m, g) = meta();
        let r = render(
            &m,
            &g,
            &ReportOptions {
                top_ops: 0,
                kind_histogram: false,
            },
        );
        assert!(!r.contains("hottest ops"));
        assert!(!r.contains("time by op kind"));
        assert!(r.contains("component shares"));
    }

    #[test]
    fn shares_are_percentages() {
        let (m, g) = meta();
        let r = render(&m, &g, &ReportOptions::default());
        // Every component line carries a percentage.
        let pct_lines = r.lines().filter(|l| l.contains('%')).count();
        assert!(pct_lines >= 5, "{r}");
    }
}
