//! Architecture projections: Fig. 9, Fig. 10 and the overlap study
//! Fig. 16.

use pai_core::breakdown::mean_fractions;
use pai_core::project::{ProjectionOutcome, ProjectionTarget};
use pai_core::{comm_bound_speedup, Architecture, Ecdf, OverlapMode};
use serde_json::json;

use crate::render::{cdf_header, cdf_quantiles, pct, table};
use crate::{Context, ExperimentResult};

fn ps_jobs(ctx: &Context) -> Vec<pai_core::WorkloadFeatures> {
    ctx.population.jobs_of(Architecture::PsWorker)
}

/// Fig. 9: speedups from mapping PS/Worker jobs to AllReduce.
pub fn fig9(ctx: &Context) -> ExperimentResult {
    let ps = ps_jobs(ctx);
    let local = ctx
        .model
        .projections(&ps, ProjectionTarget::AllReduceLocal, ctx.threads);
    let cluster = ctx
        .model
        .projections(&ps, ProjectionTarget::AllReduceCluster, ctx.threads);

    let frac_not = |outs: &[ProjectionOutcome], f: fn(&ProjectionOutcome) -> f64| {
        outs.iter().filter(|o| f(o) <= 1.0).count() as f64 / outs.len().max(1) as f64
    };
    let single_not = frac_not(&local, |o| o.single_cnode_speedup);
    let thr_not = frac_not(&local, |o| o.throughput_speedup);
    let cluster_not = frac_not(&cluster, |o| o.single_cnode_speedup);

    // Fig. 9b second series: AllReduce-Cluster over the jobs NOT
    // improved by AllReduce-Local.
    let losers: Vec<_> = local
        .iter()
        .filter(|o| !o.improves_throughput())
        .map(|o| o.original)
        .collect();
    let rescue = ctx
        .model
        .projections(&losers, ProjectionTarget::AllReduceCluster, ctx.threads);
    let rescue_not = frac_not(&rescue, |o| o.single_cnode_speedup);

    let mut rows = vec![cdf_header("series")];
    rows.push(cdf_quantiles(
        "ARL single-cNode speedup",
        &Ecdf::from_values(local.iter().map(|o| o.single_cnode_speedup)),
    ));
    rows.push(cdf_quantiles(
        "ARL throughput speedup",
        &Ecdf::from_values(local.iter().map(|o| o.throughput_speedup)),
    ));
    rows.push(cdf_quantiles(
        "ARC speedup (all)",
        &Ecdf::from_values(cluster.iter().map(|o| o.single_cnode_speedup)),
    ));
    if !rescue.is_empty() {
        rows.push(cdf_quantiles(
            "ARC speedup (ARL losers)",
            &Ecdf::from_values(rescue.iter().map(|o| o.single_cnode_speedup)),
        ));
    }
    let mut text = table(&rows);
    text.push_str(&format!(
        "\nnot sped up single-cNode (paper 22.6%): {}\n\
         throughput not improved (paper 40.2%): {}\n\
         ARC not sped up (paper 32.1%): {}\n\
         ARL losers rescued by ARC (paper 37.8%): {}\n",
        pct(single_not),
        pct(thr_not),
        pct(cluster_not),
        pct(1.0 - rescue_not),
    ));
    ExperimentResult {
        id: "fig9",
        title: "Fig. 9: improvement by mapping PS/Worker to AllReduce",
        text,
        json: json!({
            "arl_single_not_sped_up": single_not,
            "arl_throughput_not_improved": thr_not,
            "arc_not_sped_up": cluster_not,
            "arl_losers_rescued_by_arc": 1.0 - rescue_not,
            "eligible": local.len(),
            "ps_jobs": ps.len(),
        }),
    }
}

/// Fig. 10: the breakdown of PS/Worker jobs after projection to
/// AllReduce-Local — the bottleneck-shift picture.
pub fn fig10(ctx: &Context) -> ExperimentResult {
    let ps = ps_jobs(ctx);
    let outs = ctx
        .model
        .projections(&ps, ProjectionTarget::AllReduceLocal, ctx.threads);
    let after = pai_par::map_items(&outs, pai_par::DEFAULT_CHUNK_SIZE, ctx.threads, |o| {
        ctx.model.component_times(&o.projected)
    });
    let before = pai_par::map_items(&outs, pai_par::DEFAULT_CHUNK_SIZE, ctx.threads, |o| {
        ctx.model.component_times(&o.original)
    });
    let ones = vec![1.0; after.len()];
    let after_mean = mean_fractions(&after, &ones);
    let before_mean = mean_fractions(&before, &ones);

    let mut rows = vec![vec![
        "state".to_string(),
        "data I/O (PCIe)".to_string(),
        "weights".to_string(),
        "compute".to_string(),
        "memory".to_string(),
    ]];
    rows.push(
        std::iter::once("PS/Worker (before)".to_string())
            .chain(before_mean.iter().map(|&f| pct(f)))
            .collect(),
    );
    rows.push(
        std::iter::once("AllReduce-Local (after)".to_string())
            .chain(after_mean.iter().map(|&f| pct(f)))
            .collect(),
    );
    ExperimentResult {
        id: "fig10",
        title: "Fig. 10: breakdown after projection to AllReduce-Local",
        text: table(&rows),
        json: json!({"before": before_mean, "after": after_mean}),
    }
}

/// Fig. 16: the overlap-assumption study — weight-traffic share and
/// projection speedups under non-overlap vs ideal overlap, plus the
/// Eq. 3 21× cohort.
///
/// # Errors
///
/// Returns [`crate::ReproError::Json`] if the speedup-stats payload
/// fails to serialize.
pub fn fig16(ctx: &Context) -> Result<ExperimentResult, crate::ReproError> {
    let ps = ps_jobs(ctx);
    let ideal = ctx.model.with_overlap(OverlapMode::Ideal);

    let mut rows = vec![cdf_header("series")];
    let mut shares = Vec::new();
    for (label, model) in [("non-overlap", &ctx.model), ("ideal overlap", &ideal)] {
        let cdf = Ecdf::from_values(
            ps.iter()
                .map(|j| model.component_times(j).weight_fraction()),
        );
        rows.push(cdf_quantiles(&format!("weight share, {label}"), &cdf));
        shares.push((label, cdf.mean()));
    }

    let mut speed_stats = Vec::new();
    for (label, model) in [("non-overlap", &ctx.model), ("ideal overlap", &ideal)] {
        let outs = model.projections(&ps, ProjectionTarget::AllReduceLocal, ctx.threads);
        let cdf = Ecdf::from_values(outs.iter().map(|o| o.single_cnode_speedup));
        rows.push(cdf_quantiles(&format!("ARL speedup, {label}"), &cdf));
        let not_sped = outs
            .iter()
            .filter(|o| o.single_cnode_speedup <= 1.0)
            .count() as f64
            / outs.len().max(1) as f64;
        let bound = comm_bound_speedup(model);
        let at_bound = outs
            .iter()
            .filter(|o| o.single_cnode_speedup > bound * 0.95)
            .count() as f64
            / outs.len().max(1) as f64;
        speed_stats.push(json!({
            "mode": label,
            "not_sped_up": not_sped,
            "at_21x_bound": at_bound,
        }));
    }
    let mut text = table(&rows);
    text.push_str(&format!(
        "\nEq. 3 bound at Table I capacities: {:.1}x\n{}\n",
        comm_bound_speedup(&ctx.model),
        serde_json::to_string_pretty(&speed_stats)?,
    ));
    Ok(ExperimentResult {
        id: "fig16",
        title: "Fig. 16: shift effects under different overlap states",
        text,
        json: json!({
            "mean_weight_share": shares.iter().map(|(l, m)| json!({"mode": l, "mean": m})).collect::<Vec<_>>(),
            "speedup_stats": speed_stats,
            "eq3_bound": comm_bound_speedup(&ctx.model),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::with_size(6_000)
    }

    #[test]
    fn fig9_loser_cohorts_are_in_the_papers_ballpark() {
        let r = fig9(&ctx());
        let single = r.json["arl_single_not_sped_up"].as_f64().expect("f64");
        let thr = r.json["arl_throughput_not_improved"].as_f64().expect("f64");
        let arc = r.json["arc_not_sped_up"].as_f64().expect("f64");
        assert!((single - 0.226).abs() < 0.08, "single {single}");
        assert!((thr - 0.402).abs() < 0.10, "throughput {thr}");
        assert!((arc - 0.321).abs() < 0.10, "cluster {arc}");
    }

    #[test]
    fn fig10_shows_the_bottleneck_shift() {
        let r = fig10(&ctx());
        let before = r.json["before"].as_array().expect("array");
        let after = r.json["after"].as_array().expect("array");
        let get = |v: &[serde_json::Value], i: usize| v[i].as_f64().expect("f64");
        // Weight share collapses, data-I/O share grows (Sec. III-C1:
        // "the portion of data I/O via PCIe increases the most").
        assert!(get(after, 1) < get(before, 1) * 0.4);
        assert!(get(after, 0) > get(before, 0) * 2.0);
    }

    #[test]
    fn fig16_ideal_overlap_exposes_weight_traffic() {
        let r = fig16(&ctx()).expect("fig16 runs");
        let shares = r.json["mean_weight_share"].as_array().expect("array");
        let non = shares[0]["mean"].as_f64().expect("f64");
        let ideal = shares[1]["mean"].as_f64().expect("f64");
        assert!(ideal > non, "ideal {ideal} vs non {non}");
        // A visible cohort sits at the 21x bound under ideal overlap
        // (paper: 23.4%).
        let at_bound = r.json["speedup_stats"][1]["at_21x_bound"]
            .as_f64()
            .expect("f64");
        assert!(at_bound > 0.08, "at-bound cohort {at_bound}");
    }
}
