//! Cluster-level characterization: the Sec. III pipeline on a
//! synthetic population.
//!
//! Generates a calibrated population of jobs, computes the collective
//! execution-time breakdown at the job level and the cNode level
//! (Fig. 7), and prints the distributional findings behind the paper's
//! "weight/gradient communication takes almost 62% of the total
//! execution time" headline.
//!
//! Run with: `cargo run --release --example cluster_characterization`

use alibaba_pai_workloads::core::breakdown::mean_fractions;
use alibaba_pai_workloads::core::{Architecture, Ecdf, PerfModel};
use alibaba_pai_workloads::trace::{Population, PopulationConfig};

fn main() {
    let pop = Population::generate(
        &PopulationConfig::paper_scale(10_000).expect("nonzero"),
        1_905_930,
    )
    .expect("the calibrated config is valid");
    let model = PerfModel::paper_default();

    println!(
        "population: {} jobs, {} cNodes",
        pop.len(),
        pop.total_cnodes()
    );

    let classes = [
        Architecture::OneWorkerOneGpu,
        Architecture::OneWorkerMultiGpu,
        Architecture::PsWorker,
    ];
    let mut all = Vec::new();
    let mut all_weights = Vec::new();
    println!("\nper-class average breakdown [data / weights / compute / memory]:");
    for arch in classes {
        let jobs = pop.jobs_of(arch);
        let times: Vec<_> = jobs.iter().map(|j| model.component_times(j)).collect();
        let cnode_weights: Vec<f64> = jobs.iter().map(|j| j.cnodes() as f64).collect();
        let job_level = mean_fractions(&times, &vec![1.0; times.len()]);
        let fmt = |f: [f64; 4]| {
            f.iter()
                .map(|x| format!("{:4.1}%", x * 100.0))
                .collect::<Vec<_>>()
                .join(" / ")
        };
        println!("  {:<10} {}", arch.label(), fmt(job_level));
        all.extend(times);
        all_weights.extend(cnode_weights);
    }

    let cnode_level = mean_fractions(&all, &all_weights);
    println!(
        "\ncNode-level weight-communication share: {:.1}% (paper: ~62%)",
        cnode_level[1] * 100.0
    );

    // The PS/Worker communication tail.
    let ps = pop.jobs_of(Architecture::PsWorker);
    let comm = Ecdf::from_values(
        ps.iter()
            .map(|j| model.component_times(j).weight_fraction()),
    );
    println!(
        "PS/Worker jobs spending >80% of the step communicating: {:.1}% (paper: >40%)",
        comm.fraction_above(0.8) * 100.0
    );
    println!(
        "PS/Worker communication-share quantiles: p25 {:.2}, median {:.2}, p75 {:.2}",
        comm.quantile(0.25),
        comm.quantile(0.5),
        comm.quantile(0.75)
    );
}
