//! Extensions beyond the paper's evaluation.
//!
//! - [`inference`] — the future work the paper names in Sec. VIII
//!   ("characterize inference workloads in our cluster using a similar
//!   methodology"): forward-only variants of the six case-study models
//!   through the same estimate/measure pipeline;
//! - [`cluster_mix`] — the Sec. VI cluster-operations view: place a
//!   population-derived job mix onto the 64-server testbed with
//!   `pai-sched`'s placement and NIC-sharing price, and report
//!   contention slowdowns and utilization.

use pai_core::{Architecture, PerfModel, WorkloadFeatures};
use pai_graph::zoo::{self, inference::all_inference};
use pai_hw::{Bandwidth, ClusterSpec, LinkKind, LinkModel};
use pai_sched::{place_mix, templates_from_population, FifoFirstFit, JobTemplate};
use pai_sim::{SimConfig, StepSimulator};
use serde_json::json;

use crate::render::{ms, pct, table};
use crate::{Context, ExperimentResult, ReproError};

/// Inference characterization of the six models.
///
/// # Errors
///
/// Propagates any [`ReproError::Sim`] the serving simulation reports.
pub fn inference() -> Result<ExperimentResult, ReproError> {
    let model = PerfModel::testbed_default();
    let sim = StepSimulator::new(SimConfig::testbed());
    let mut rows = vec![vec![
        "model".to_string(),
        "resident".to_string(),
        "estimated".to_string(),
        "simulated".to_string(),
        "data I/O".to_string(),
        "compute".to_string(),
        "memory".to_string(),
    ]];
    let mut payload = Vec::new();
    for (spec, train) in all_inference().into_iter().zip(zoo::all()) {
        let stats = spec.graph().stats();
        // Serving replica: one GPU, no synchronization.
        let features = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
            .batch_size(spec.batch_size())
            .input_bytes(stats.input_bytes)
            .flops(stats.flops)
            .mem_access_bytes(stats.mem_access_memory_bound)
            .build();
        let estimated = model.component_times(&features);
        let measured = sim.run(spec.graph(), &pai_collectives::CommPlan::new(), 1)?;
        rows.push(vec![
            spec.name().to_string(),
            format!("{}", spec.resident_bytes()),
            ms(estimated.total),
            ms(measured.total),
            pct(measured.fraction(measured.data_io)),
            pct(measured.fraction(measured.compute_bound)),
            pct(measured.fraction(measured.memory_bound)),
        ]);
        payload.push(json!({
            "model": spec.name(),
            "resident_mb": spec.resident_bytes().as_mb(),
            "estimated_s": estimated.total.as_f64(),
            "simulated_s": measured.total.as_f64(),
            "training_s_for_reference": {
                "flops_ratio": stats.flops.as_f64()
                    / train.graph().stats().flops.as_f64(),
            },
        }));
    }
    Ok(ExperimentResult {
        id: "ext-inference",
        title: "Extension (Sec. VIII future work): inference-workload characterization",
        text: table(&rows),
        json: json!(payload),
    })
}

/// The PS/Worker mix both cluster extensions place: medium jobs (the
/// fleet's giants get dedicated sub-clusters), biggest first, each
/// kept when it fits the GPUs the earlier ones left, priced by the
/// context's model.
fn ps_mix(ctx: &Context, cluster: &ClusterSpec) -> Vec<JobTemplate> {
    let mut ps: Vec<WorkloadFeatures> = ctx.population.jobs_of(Architecture::PsWorker);
    ps.retain(|j| j.cnodes() <= 64);
    ps.sort_by_key(|j| std::cmp::Reverse(j.cnodes()));
    let mut mix = Vec::new();
    let mut budget = cluster.total_gpus();
    for f in ps {
        if f.cnodes() > budget {
            continue;
        }
        budget -= f.cnodes();
        mix.push(f);
        if budget == 0 {
            break;
        }
    }
    templates_from_population(&ctx.model, &mix, cluster.total_gpus()).0
}

/// Places the PS/Worker subpopulation's largest jobs first-fit onto
/// the testbed and reports contention.
///
/// # Errors
///
/// Propagates any [`ReproError::Sched`] the placement reports.
pub fn cluster_mix(ctx: &Context) -> Result<ExperimentResult, ReproError> {
    let cluster = ClusterSpec::testbed(0.7);
    let mix = ps_mix(ctx, &cluster);
    let placed = place_mix(&cluster, &mix, &FifoFirstFit)?;

    let slowdowns: Vec<f64> = mix
        .iter()
        .zip(&placed)
        .map(|(job, p)| {
            let solo = job.solo_step(&cluster);
            if solo.is_zero() {
                1.0
            } else {
                p.step_time_s / solo.as_f64()
            }
        })
        .collect();
    let mean = slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64;
    let worst = slowdowns.iter().cloned().fold(1.0, f64::max);
    let eth_bound = mix
        .iter()
        .zip(&placed)
        .filter(|(job, p)| p.step_time_s - job.compute_time.as_f64() > 0.5 * p.step_time_s)
        .count() as f64
        / mix.len().max(1) as f64;
    let used: usize = mix.iter().map(|j| j.cnodes).sum();
    let utilization = used as f64 / cluster.total_gpus() as f64;
    let mut servers: Vec<usize> = placed
        .iter()
        .flat_map(|p| p.assignment.iter().map(|&(server, _)| server))
        .collect();
    servers.sort_unstable();
    servers.dedup();

    let rows = vec![
        vec!["metric".to_string(), "value".to_string()],
        vec!["jobs placed".into(), format!("{}", mix.len())],
        vec!["GPU utilization".into(), pct(utilization)],
        vec!["servers used".into(), format!("{}", servers.len())],
        vec!["mean contention slowdown".into(), format!("{mean:.2}x")],
        vec!["worst contention slowdown".into(), format!("{worst:.2}x")],
        vec![
            "jobs >50% time on Ethernet when co-located".into(),
            pct(eth_bound),
        ],
    ];
    Ok(ExperimentResult {
        id: "ext-cluster",
        title: "Extension (Sec. VI): testbed placement with NIC contention",
        text: table(&rows),
        json: json!({
            "jobs": mix.len(),
            "gpu_utilization": utilization,
            "servers_used": servers.len(),
            "mean_slowdown": mean,
            "worst_slowdown": worst,
            "ethernet_bound_share": eth_bound,
        }),
    })
}

/// Ethernet-upgrade what-if at the cluster level: the same mix on
/// 25 vs 100 GbE (Sec. VI-B1's provisioning question, end to end).
///
/// # Errors
///
/// Propagates any [`ReproError::Sched`] the placement reports.
pub fn cluster_upgrade(ctx: &Context) -> Result<ExperimentResult, ReproError> {
    let testbed = ClusterSpec::testbed(0.7);
    let mix = ps_mix(ctx, &testbed);
    let mut rows = vec![vec![
        "Ethernet".to_string(),
        "aggregate throughput (samples/s)".to_string(),
    ]];
    let mut through = Vec::new();
    for gbit in [25.0, 100.0] {
        let cluster = ClusterSpec::new(
            *testbed.server(),
            testbed.num_servers(),
            LinkModel::new(LinkKind::Ethernet, Bandwidth::from_gbit_per_sec(gbit), 0.7),
        );
        let placed = place_mix(&cluster, &mix, &FifoFirstFit)?;
        let mut total = 0.0;
        for (job, p) in mix.iter().zip(&placed) {
            total += job.cnodes as f64 / p.step_time_s * job.record.features.batch_size() as f64;
        }
        rows.push(vec![format!("{gbit:.0} Gb/s"), format!("{total:.0}")]);
        through.push(total);
    }
    let gain = through[1] / through[0];
    let mut text = table(&rows);
    text.push_str(&format!("\ncluster-level throughput gain: {gain:.2}x\n"));
    Ok(ExperimentResult {
        id: "ext-upgrade",
        title: "Extension (Sec. VI-B1): cluster-level 25->100 GbE what-if",
        text,
        json: json!({"throughput_25g": through[0], "throughput_100g": through[1], "gain": gain}),
    })
}

/// What the cluster looks like after adopting the paper's advice:
/// every PS/Worker job whose throughput improves on AllReduce-Local is
/// ported (Sec. III-C1 notes the port "saves system resources
/// significantly"); the rest stay. Recomputes the Fig. 7 aggregate;
/// the "before" shares are the context's one headline pass
/// ([`Context::headline`]), the one `summary` reads.
pub fn adoption(ctx: &Context) -> ExperimentResult {
    use pai_core::breakdown::mean_fractions;
    use pai_core::project::{project, ProjectionTarget};

    let mut total_before = 0.0;
    let mut times_after = Vec::new();
    let mut weights_after = Vec::new();
    let mut ported = 0usize;
    let mut cnodes_saved = 0usize;

    for arch in [
        Architecture::OneWorkerOneGpu,
        Architecture::OneWorkerMultiGpu,
        Architecture::PsWorker,
    ] {
        for job in ctx.population.jobs_of(arch) {
            total_before += job.cnodes() as f64;
            let projected = if arch == Architecture::PsWorker {
                project(&ctx.model, &job, ProjectionTarget::AllReduceLocal)
                    .filter(|o| o.improves_throughput())
            } else {
                None
            };
            match projected {
                Some(o) => {
                    ported += 1;
                    cnodes_saved += job.cnodes() - o.projected.cnodes();
                    times_after.push(ctx.model.component_times(&o.projected));
                    weights_after.push(o.projected.cnodes() as f64);
                }
                None => {
                    times_after.push(ctx.model.component_times(&job));
                    weights_after.push(job.cnodes() as f64);
                }
            }
        }
    }

    let before = ctx.headline().cnode_level_fractions;
    let after = mean_fractions(&times_after, &weights_after);
    let total_after: f64 = weights_after.iter().sum();

    let mut rows = vec![vec![
        "state".to_string(),
        "data".to_string(),
        "weights".to_string(),
        "compute".to_string(),
        "memory".to_string(),
        "cNodes in use".to_string(),
    ]];
    rows.push(
        std::iter::once("today (paper's cluster)".to_string())
            .chain(before.iter().map(|&f| pct(f)))
            .chain(std::iter::once(format!("{total_before:.0}")))
            .collect(),
    );
    rows.push(
        std::iter::once("after adopting AllReduce-Local".to_string())
            .chain(after.iter().map(|&f| pct(f)))
            .chain(std::iter::once(format!("{total_after:.0}")))
            .collect(),
    );
    let mut text = table(&rows);
    text.push_str(&format!(
        "
ported {ported} PS/Worker jobs; freed {cnodes_saved} cNodes          ({} of the fleet)
",
        pct(cnodes_saved as f64 / total_before)
    ));
    ExperimentResult {
        id: "ext-adoption",
        title: "Extension: the cluster after adopting the paper's recommendation",
        text,
        json: json!({
            "before": before,
            "after": after,
            "ported_jobs": ported,
            "cnodes_saved": cnodes_saved,
            "cnodes_before": total_before,
            "cnodes_after": total_after,
        }),
    }
}

/// Strong-scaling curves per architecture for a communication-heavy
/// profile, plus the PEARL GCN scalability claim (Sec. IV-C).
///
/// # Errors
///
/// Propagates any [`ReproError::Sim`] the PEARL sweep reports.
pub fn scaling() -> Result<ExperimentResult, ReproError> {
    use pai_core::scaling::scaling_curve;
    use pai_hw::Flops;
    let model = PerfModel::testbed_default();

    // A comm-heavy per-replica profile (1 GB of gradients per step).
    let mut rows = vec![vec![
        "series".to_string(),
        "cNodes".to_string(),
        "throughput (samples/s)".to_string(),
        "scaling efficiency".to_string(),
    ]];
    let mut payload = Vec::new();
    let profile = |arch| {
        WorkloadFeatures::builder(arch)
            .cnodes(2)
            .batch_size(256)
            .input_bytes(pai_hw::Bytes::from_mb(20.0))
            .weight_bytes(pai_hw::Bytes::from_gb(1.0))
            .flops(Flops::from_tera(0.5))
            .mem_access_bytes(pai_hw::Bytes::from_gb(20.0))
            .build()
    };
    for (label, arch, counts) in [
        (
            "PS/Worker",
            Architecture::PsWorker,
            vec![2usize, 8, 32, 128],
        ),
        (
            "AllReduce-Local",
            Architecture::AllReduceLocal,
            vec![2, 4, 8],
        ),
    ] {
        let curve = scaling_curve(&model, &profile(arch), &counts);
        for p in &curve {
            rows.push(vec![
                label.to_string(),
                format!("{}", p.cnodes),
                format!("{:.0}", p.throughput),
                pct(p.efficiency),
            ]);
        }
        payload.push(json!({
            "series": label,
            "final_efficiency": curve.last().map(|p| p.efficiency),
        }));
    }

    // PEARL GCN scalability through the simulator.
    let gcn = zoo::gcn();
    let sim = StepSimulator::new(SimConfig::testbed().with_efficiency(*gcn.measured_efficiency()));
    let mut base_throughput = None;
    for gpus in [2usize, 4, 8] {
        let plan = pai_pearl::comm_plan(
            &pai_pearl::Strategy::Pearl { gpus },
            &pai_pearl::ModelComm::of(&gcn),
        );
        let m = sim.run(gcn.graph(), &plan, gpus)?;
        let throughput = gpus as f64 / m.total.as_f64() * gcn.batch_size() as f64;
        let base = *base_throughput.get_or_insert(throughput / 2.0);
        rows.push(vec![
            "GCN under PEARL (simulated)".to_string(),
            format!("{gpus}"),
            format!("{throughput:.0}"),
            pct(throughput / (base * gpus as f64)),
        ]);
        payload.push(json!({
            "series": "gcn_pearl",
            "gpus": gpus,
            "throughput": throughput,
        }));
    }
    Ok(ExperimentResult {
        id: "ext-scaling",
        title: "Extension (Sec. IV-C): strong-scaling curves and PEARL scalability",
        text: table(&rows),
        json: json!(payload),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_cheaper_than_training_everywhere() {
        let r = inference().expect("inference experiment runs");
        for entry in r.json.as_array().expect("array") {
            let ratio = entry["training_s_for_reference"]["flops_ratio"]
                .as_f64()
                .expect("f64");
            assert!(ratio < 0.45, "{}: {ratio}", entry["model"]);
        }
        assert!(r.text.contains("ResNet50"));
    }

    #[test]
    fn cluster_mix_fills_the_testbed() {
        let r = cluster_mix(&Context::with_size(3_000)).expect("mix fits the testbed");
        let util = r.json["gpu_utilization"].as_f64().expect("f64");
        assert!(util > 0.9, "utilization {util}");
        let mean = r.json["mean_slowdown"].as_f64().expect("f64");
        assert!(mean >= 1.0);
    }

    #[test]
    fn adoption_cuts_communication_and_saves_resources() {
        // The giant jobs (cNodes >> 8) never port — their throughput
        // would collapse under the 8-GPU cap — so they keep the fleet
        // communication share high; the drop is real but moderate.
        let r = adoption(&Context::with_size(4_000));
        let before = r.json["before"][1].as_f64().expect("f64");
        let after = r.json["after"][1].as_f64().expect("f64");
        assert!(after < before - 0.05, "comm share {before} -> {after}");
        let saved = r.json["cnodes_saved"].as_f64().expect("f64");
        let total = r.json["cnodes_before"].as_f64().expect("f64");
        assert!(saved / total > 0.05, "saved {saved} of {total}");
    }

    #[test]
    fn scaling_reports_both_series() {
        let r = scaling().expect("scaling experiment runs");
        assert!(r.text.contains("PS/Worker"));
        assert!(r.text.contains("GCN under PEARL"));
        // PEARL throughput grows with GPUs.
        let gcn: Vec<f64> = r
            .json
            .as_array()
            .expect("array")
            .iter()
            .filter(|v| v["series"] == "gcn_pearl")
            .map(|v| v["throughput"].as_f64().expect("f64"))
            .collect();
        assert_eq!(gcn.len(), 3);
        assert!(gcn[2] > gcn[0]);
    }

    #[test]
    fn hundred_gig_lifts_cluster_throughput() {
        let r = cluster_upgrade(&Context::with_size(3_000)).expect("mix fits the testbed");
        let gain = r.json["gain"].as_f64().expect("f64");
        assert!(gain > 1.2, "gain {gain}");
        assert!(gain < 4.0, "gain {gain}");
    }
}
