//! Fig. 11: speedup under the Table III hardware variations, per class
//! — including the projected AllReduce-Local panel.

use pai_core::project::ProjectionTarget;
use pai_core::sweep::SweepCurves;
use pai_core::{class_sweep, Architecture};
use pai_hw::SweepAxis;
use serde_json::json;

use crate::cluster::ANALYZED;
use crate::render::table;
use crate::{Context, ExperimentResult};

fn curves_rows(curves: &SweepCurves, rows: &mut Vec<Vec<String>>) {
    for sample in &curves.samples {
        rows.push(vec![
            curves.arch.label().to_string(),
            sample.axis.label().to_string(),
            format!("{:.2}", sample.normalized),
            format!("{:.3}x", sample.mean_speedup),
        ]);
    }
}

/// Fig. 11: all four panels.
pub fn fig11(ctx: &Context) -> ExperimentResult {
    let mut rows = vec![vec![
        "class".to_string(),
        "axis".to_string(),
        "normalized".to_string(),
        "mean speedup".to_string(),
    ]];
    let mut payload = Vec::new();

    for arch in ANALYZED {
        let jobs = ctx.population.jobs_of(arch);
        let weights = vec![1.0; jobs.len()];
        let curves = class_sweep(&ctx.model, arch, &jobs, &weights, ctx.threads);
        curves_rows(&curves, &mut rows);
        payload.push(json!({
            "class": arch.label(),
            "most_sensitive": curves.most_sensitive_axis().map(SweepAxis::label),
        }));
    }

    // Panel (d): the PS/Worker population projected to AllReduce-Local.
    // Only the jobs the projection actually improves are considered —
    // nobody would port the losers (their post-projection profile is
    // I/O-bound, which would otherwise let the PCIe axis dominate the
    // arithmetic-mean speedup through a few extreme outliers).
    let ps = ctx.population.jobs_of(Architecture::PsWorker);
    let projected: Vec<_> = ctx
        .model
        .projections(&ps, ProjectionTarget::AllReduceLocal, ctx.threads)
        .into_iter()
        .filter(|o| o.improves_throughput())
        .map(|o| o.projected)
        .collect();
    let weights = vec![1.0; projected.len()];
    let curves = class_sweep(
        &ctx.model,
        Architecture::AllReduceLocal,
        &projected,
        &weights,
        ctx.threads,
    );
    curves_rows(&curves, &mut rows);
    payload.push(json!({
        "class": "AllReduce-Local (projected)",
        "most_sensitive": curves.most_sensitive_axis().map(SweepAxis::label),
    }));

    ExperimentResult {
        id: "fig11",
        title: "Fig. 11: speedup with different hardware configurations",
        text: table(&rows),
        json: json!(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_par::Threads;

    fn ctx() -> Context {
        Context::with_size(5_000)
    }

    #[test]
    fn fig11_sensitivities_match_the_paper() {
        // Sec. III-D: "PS/Worker workloads are most sensitive to
        // Ethernet bandwidth; after projected to AllReduce-Local, they
        // benefit the most from the improvement of GPU memory access
        // bandwidth" — and 1w1g tracks GPU memory too.
        let r = fig11(&ctx());
        let arr = r.json.as_array().expect("array");
        let find = |class: &str| {
            arr.iter()
                .find(|v| v["class"] == class)
                .and_then(|v| v["most_sensitive"].as_str())
                .expect("present")
                .to_string()
        };
        assert_eq!(find("PS/Worker"), "Ethernet");
        assert_eq!(find("1w1g"), "GPU_memory");
        assert_eq!(find("AllReduce-Local (projected)"), "GPU_memory");
    }

    #[test]
    fn onewng_is_most_sensitive_to_pcie_among_links() {
        // Fig. 11b: "1wng ones vary most with the variation of PCIe
        // bandwidth" among the interconnects (its weights move on PCIe).
        let c = ctx();
        let jobs = c.population.jobs_of(Architecture::OneWorkerMultiGpu);
        let weights = vec![1.0; jobs.len()];
        let curves = class_sweep(
            &c.model,
            Architecture::OneWorkerMultiGpu,
            &jobs,
            &weights,
            Threads::SERIAL,
        );
        let top = |axis: SweepAxis| {
            curves
                .curve(axis)
                .last()
                .map(|s| s.mean_speedup)
                .expect("has samples")
        };
        assert!(top(SweepAxis::Pcie) > 1.1);
        // PCIe (5x budget) helps more than FLOPs (5.8x budget).
        assert!(top(SweepAxis::Pcie) > top(SweepAxis::GpuFlops));
    }
}
