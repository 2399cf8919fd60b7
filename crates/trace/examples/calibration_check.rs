//! Scratch calibration probe (not part of the public surface).
use pai_core::project::ProjectionTarget;
use pai_core::{Architecture, PerfModel};
use pai_hw::{SweepAxis, SweepPoint};
use pai_par::Threads;
use pai_trace::{Population, PopulationConfig};

fn main() {
    let pop = Population::generate(
        &PopulationConfig::paper_scale(20_000).expect("nonzero"),
        1905930,
    )
    .expect("the calibrated config is valid");
    let model = PerfModel::paper_default();
    let feats = pop.features();

    let (mut jw, mut cw, mut ctot) = (0.0, 0.0, 0.0);
    let (mut jd, mut jcc, mut jcm) = (0.0, 0.0, 0.0);
    for f in &feats {
        let [data, weights, compute, memory] = model.component_times(f).fractions();
        jw += weights;
        jd += data;
        jcc += compute;
        jcm += memory;
        cw += f.cnodes() as f64 * weights;
        ctot += f.cnodes() as f64;
    }
    let n = feats.len() as f64;
    println!(
        "job-level  mean: Tw {:.3} Td {:.3} Tcc {:.3} Tcm {:.3}",
        jw / n,
        jd / n,
        jcc / n,
        jcm / n
    );
    println!("cNode-level mean Tw: {:.3} (target 0.62)", cw / ctot);

    let ps = pop.jobs_of(Architecture::PsWorker);
    let over80 = ps
        .iter()
        .filter(|f| model.component_times(f).weight_fraction() > 0.8)
        .count() as f64
        / ps.len() as f64;
    println!("PS jobs >80% comm: {:.3} (target >0.40)", over80);

    let outs = model.projections(&ps, ProjectionTarget::AllReduceLocal, Threads::SERIAL);
    println!(
        "eligible for ARL: {:.3} of PS",
        outs.len() as f64 / ps.len() as f64
    );
    let not_sped = outs
        .iter()
        .filter(|o| o.single_cnode_speedup <= 1.0)
        .count() as f64
        / outs.len() as f64;
    let thr_not =
        outs.iter().filter(|o| o.throughput_speedup <= 1.0).count() as f64 / outs.len() as f64;
    println!("single-cNode not sped up: {:.3} (target 0.226)", not_sped);
    println!("throughput not improved: {:.3} (target 0.402)", thr_not);

    let outs_c = model.projections(&ps, ProjectionTarget::AllReduceCluster, Threads::SERIAL);
    let arc_sped =
        outs_c.iter().filter(|o| o.throughput_speedup > 1.0).count() as f64 / outs_c.len() as f64;
    println!("ARC sped up: {:.3} (target 0.679)", arc_sped);

    let fast = model.with_config(model.config().with_resource(SweepPoint {
        axis: SweepAxis::Ethernet,
        value: 100.0,
    }));
    let sp: f64 = ps
        .iter()
        .map(|f| model.total_time(f).as_f64() / fast.total_time(f).as_f64())
        .sum::<f64>()
        / ps.len() as f64;
    println!("mean PS speedup at 100GbE: {:.3} (target ~1.7)", sp);
}
