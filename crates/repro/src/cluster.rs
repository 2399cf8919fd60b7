//! Cluster-level collective behavior: Fig. 5–8 and the Sec. III-D
//! summary.

use pai_core::{characterize, Architecture, Ecdf, HardwareBreakdown, HeadlineStats};
use pai_hw::LinkKind;
use serde_json::json;

use crate::render::{cdf_header, cdf_row, ecdf, no_data_row, pct, table};
use crate::{Context, ExperimentResult};

/// The three classes analyzed in Sec. III.
pub const ANALYZED: [Architecture; 3] = [
    Architecture::OneWorkerOneGpu,
    Architecture::OneWorkerMultiGpu,
    Architecture::PsWorker,
];

/// Fig. 5: constitution of workloads at job and cNode level.
pub fn fig5(ctx: &Context) -> ExperimentResult {
    let counts = ctx.population.class_counts();
    let cnodes = ctx.population.cnode_totals();
    let jobs_total: usize = counts.iter().sum();
    let cnodes_total: usize = cnodes.iter().sum();
    let mut rows = vec![vec![
        "class".to_string(),
        "job share".to_string(),
        "cNode share".to_string(),
    ]];
    let mut payload = Vec::new();
    for (i, arch) in Architecture::ALL.iter().enumerate() {
        let job_share = counts[i] as f64 / jobs_total as f64;
        let cnode_share = cnodes[i] as f64 / cnodes_total as f64;
        rows.push(vec![arch.label().into(), pct(job_share), pct(cnode_share)]);
        payload.push(json!({
            "class": arch.label(),
            "job_share": job_share,
            "cnode_share": cnode_share,
        }));
    }
    ExperimentResult {
        id: "fig5",
        title: "Fig. 5: constitution of workloads (job-level / cNode-level)",
        text: table(&rows),
        json: json!(payload),
    }
}

/// Fig. 6: CDFs of cNode counts and weight sizes per class.
pub fn fig6(ctx: &Context) -> ExperimentResult {
    let mut rows = vec![cdf_header("series")];
    let mut payload = Vec::new();
    for arch in [Architecture::OneWorkerMultiGpu, Architecture::PsWorker] {
        let cdf = ecdf(
            ctx.population
                .jobs_of(arch)
                .iter()
                .map(|j| j.cnodes() as f64),
        );
        rows.push(cdf_row(&format!("{} cNodes", arch.label()), cdf.as_ref()));
        payload.push(json!({
            "series": format!("{} cNodes", arch.label()),
            "median": cdf.as_ref().map(|c| c.quantile(0.5)),
            "p99": cdf.as_ref().map(|c| c.quantile(0.99)),
        }));
    }
    for arch in ANALYZED {
        let cdf = ecdf(
            ctx.population
                .jobs_of(arch)
                .iter()
                .map(|j| j.weight_bytes().as_gb()),
        );
        rows.push(cdf_row(
            &format!("{} weights (GB)", arch.label()),
            cdf.as_ref(),
        ));
        payload.push(json!({
            "series": format!("{} weight GB", arch.label()),
            "median": cdf.as_ref().map(|c| c.quantile(0.5)),
            "max": cdf.as_ref().map(Ecdf::max),
        }));
    }
    ExperimentResult {
        id: "fig6",
        title: "Fig. 6: workload scale distributions (quantiles)",
        text: table(&rows),
        json: json!(payload),
    }
}

/// Fig. 7's job-level and cNode-level mean shares from one
/// [`characterize`] pass, or `None` when it saw no analyzed job, and
/// the table rows for both.
fn mean_shares(
    label: &str,
    h: &HeadlineStats,
    rows: &mut Vec<Vec<String>>,
) -> (Option<[f64; 4]>, Option<[f64; 4]>) {
    let analyzed: u64 = ANALYZED.iter().map(|a| h.class_counts[a.index()]).sum();
    let (job, cnode) = if analyzed == 0 {
        (None, None)
    } else {
        (Some(h.job_level_fractions), Some(h.cnode_level_fractions))
    };
    for (level, shares) in [("job", job), ("cNode", cnode)] {
        let label = format!("{label} ({level})");
        rows.push(match shares {
            Some(shares) => std::iter::once(label)
                .chain(shares.iter().map(|&f| pct(f)))
                .collect(),
            None => no_data_row(&label, rows[0].len()),
        });
    }
    (job, cnode)
}

/// Fig. 7: average execution-time breakdown per class, job-level and
/// cNode-level: [`characterize`] over each class, and the "all" rows
/// from the pass `summary` reads. A class with no jobs gets marked rows
/// and `null` shares.
pub fn fig7(ctx: &Context) -> ExperimentResult {
    let mut rows = vec![vec![
        "class / level".to_string(),
        "data I/O".to_string(),
        "weights".to_string(),
        "compute-bound".to_string(),
        "memory-bound".to_string(),
    ]];
    let mut payload = Vec::new();
    for arch in ANALYZED {
        let h = characterize(&ctx.model, &ctx.population.jobs_of(arch), ctx.threads);
        let (job, cnode) = mean_shares(arch.label(), &h, &mut rows);
        payload.push(json!({"class": arch.label(), "job": job, "cnode": cnode}));
    }
    let (all_job, all_cnode) = mean_shares("all", ctx.headline(), &mut rows);
    payload.push(json!({"class": "all", "job": all_job, "cnode": all_cnode}));
    ExperimentResult {
        id: "fig7",
        title: "Fig. 7: average time breakdown (order: data, weights, compute, memory)",
        text: table(&rows),
        json: json!(payload),
    }
}

/// Fig. 8: per-component CDFs per class plus the per-hardware view,
/// each analyzed job priced once. A series with no jobs gets a marked
/// row and `null` statistics.
pub fn fig8(ctx: &Context) -> ExperimentResult {
    let mut rows = vec![cdf_header("series (job-level)")];
    let mut payload = Vec::new();
    // Per-hardware view (Fig. 8a) over all analyzed jobs.
    let mut hw_series: Vec<(LinkKind, Vec<f64>)> = vec![
        (LinkKind::HbmMemory, Vec::new()),
        (LinkKind::Pcie, Vec::new()),
        (LinkKind::Ethernet, Vec::new()),
    ];
    let mut gpu_flops = Vec::new();
    for arch in ANALYZED {
        let jobs = ctx.population.jobs_of(arch);
        let priced = pai_par::map_items(&jobs, pai_par::DEFAULT_CHUNK_SIZE, ctx.threads, |j| {
            let terms = ctx.model.terms(j);
            let ct = ctx.model.combine(&terms);
            (
                ct.fractions(),
                HardwareBreakdown::new(arch, &terms, ct.total),
            )
        });
        for (k, name) in ["data", "weights", "compute", "memory"]
            .into_iter()
            .enumerate()
        {
            let cdf = ecdf(priced.iter().map(|(f, _)| f[k]));
            rows.push(cdf_row(&format!("{} {}", arch.label(), name), cdf.as_ref()));
            payload.push(json!({
                "class": arch.label(), "component": name,
                "mean": cdf.as_ref().map(Ecdf::mean),
                "p90": cdf.as_ref().map(|c| c.quantile(0.9)),
            }));
        }
        for (_, hb) in &priced {
            gpu_flops.push(hb.gpu_flops_fraction());
            for (kind, values) in hw_series.iter_mut() {
                values.push(hb.fraction(*kind));
            }
        }
    }
    rows.push(cdf_row("all GPU_FLOPs", ecdf(gpu_flops).as_ref()));
    for (kind, values) in hw_series {
        rows.push(cdf_row(
            &format!("all {}", kind.label()),
            ecdf(values).as_ref(),
        ));
    }
    ExperimentResult {
        id: "fig8",
        title: "Fig. 8: component-share CDFs (quantiles)",
        text: table(&rows),
        json: json!(payload),
    }
}

/// Sec. III-D: the headline observations, read from the context's one
/// [`characterize`] pass (the numbers `stream` reports as `batch`).
pub fn summary(ctx: &Context) -> ExperimentResult {
    let h = ctx.headline();
    let rows = vec![
        vec![
            "observation".to_string(),
            "paper".to_string(),
            "reproduced".to_string(),
        ],
        vec![
            "PS/Worker cNode share".into(),
            "81%".into(),
            pct(h.ps_cnode_share),
        ],
        vec![
            "jobs with model < 10 GB".into(),
            "90%".into(),
            pct(h.small_model_share),
        ],
        vec![
            "weight comm share (cNode level)".into(),
            "62%".into(),
            pct(h.cnode_level_fractions[1]),
        ],
        vec![
            "compute-bound share (cNode level)".into(),
            "13%".into(),
            pct(h.cnode_level_fractions[2]),
        ],
        vec![
            "memory-bound share (cNode level)".into(),
            "22%".into(),
            pct(h.cnode_level_fractions[3]),
        ],
        vec![
            "PS jobs >80% in communication".into(),
            ">40%".into(),
            pct(h.ps_over_80_comm),
        ],
        vec![
            "PS jobs improved by AllReduce-Local".into(),
            "60%".into(),
            pct(h.arl_throughput_improved),
        ],
        vec![
            "mean PS speedup, 25->100 GbE".into(),
            "1.7x".into(),
            format!("{:.2}x", h.eth_100g_speedup),
        ],
        vec![
            "Eq. 3 comm-bound speedup bound".into(),
            "21x".into(),
            format!("{:.1}x", h.eq3_bound),
        ],
    ];
    ExperimentResult {
        id: "summary",
        title: "Sec. III-D: key observations, paper vs reproduction",
        text: table(&rows),
        json: json!({
            "ps_cnode_share": h.ps_cnode_share,
            "small_model_share": h.small_model_share,
            "cnode_level_fractions": h.cnode_level_fractions,
            "ps_over_80_comm": h.ps_over_80_comm,
            "arl_throughput_improved": h.arl_throughput_improved,
            "eth_100g_speedup": h.eth_100g_speedup,
            "eq3_bound": h.eq3_bound,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::with_size(4_000)
    }

    #[test]
    fn fig5_shares_sum_to_one() {
        let r = fig5(&ctx());
        let arr = r.json.as_array().expect("array");
        let job_sum: f64 = arr
            .iter()
            .map(|v| v["job_share"].as_f64().expect("f64"))
            .sum();
        let cnode_sum: f64 = arr
            .iter()
            .map(|v| v["cnode_share"].as_f64().expect("f64"))
            .sum();
        assert!((job_sum - 1.0).abs() < 1e-9);
        assert!((cnode_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig7_reports_all_levels() {
        let r = fig7(&ctx());
        assert!(r.text.contains("1w1g (job)"));
        assert!(r.text.contains("PS/Worker (cNode)"));
        assert!(r.text.contains("all (cNode)"));
    }

    #[test]
    fn fig8_covers_hardware_series() {
        let r = fig8(&ctx());
        for label in ["GPU_FLOPs", "GPU_memory", "PCIe", "Ethernet"] {
            assert!(r.text.contains(label), "missing {label}");
        }
    }

    #[test]
    fn summary_hits_headline_targets() {
        let r = summary(&Context::with_size(8_000));
        let j = &r.json;
        let comm = j["cnode_level_fractions"][1].as_f64().expect("f64");
        assert!((comm - 0.62).abs() < 0.06, "comm share {comm}");
        let improved = j["arl_throughput_improved"].as_f64().expect("f64");
        assert!((improved - 0.60).abs() < 0.12, "improved {improved}");
        let eq3 = j["eq3_bound"].as_f64().expect("f64");
        assert!((eq3 - 21.0).abs() < 1e-6);
    }
}
