//! Architecture what-if analysis (Sec. III-C): port every PS/Worker job
//! to AllReduce and see who wins.
//!
//! Also sweeps the Table III hardware variations to find which resource
//! upgrade helps each class the most (Fig. 11).
//!
//! Run with: `cargo run --release --example architecture_projection`

use alibaba_pai_workloads::core::project::ProjectionTarget;
use alibaba_pai_workloads::core::{class_sweep, comm_bound_speedup, Architecture, Ecdf, PerfModel};
use alibaba_pai_workloads::par::Threads;
use alibaba_pai_workloads::trace::{Population, PopulationConfig};

fn main() {
    let pop = Population::generate(
        &PopulationConfig::paper_scale(10_000).expect("nonzero"),
        1_905_930,
    )
    .expect("the calibrated config is valid");
    let model = PerfModel::paper_default();
    let ps = pop.jobs_of(Architecture::PsWorker);
    println!("{} PS/Worker jobs", ps.len());

    for target in [
        ProjectionTarget::AllReduceLocal,
        ProjectionTarget::AllReduceCluster,
    ] {
        let outs = model.projections(&ps, target, Threads::SERIAL);
        let speedups = Ecdf::from_values(outs.iter().map(|o| o.single_cnode_speedup));
        let improved = outs.iter().filter(|o| o.improves_throughput()).count();
        println!(
            "\n-> {:?}: {} eligible (fits GPU memory), median step speedup {:.2}x",
            target,
            outs.len(),
            speedups.quantile(0.5)
        );
        println!(
            "   throughput improved for {:.1}% of them",
            improved as f64 / outs.len() as f64 * 100.0
        );
        println!(
            "   sped up (step time): {:.1}%; slowed down: {:.1}%",
            speedups.fraction_above(1.0) * 100.0,
            speedups.fraction_at_most(1.0) * 100.0
        );
    }

    println!(
        "\nEq. 3 bound for purely communication-bound jobs: {:.1}x",
        comm_bound_speedup(&model)
    );

    println!("\nhardware sensitivity (mean speedup at each axis's top Table III value):");
    for arch in [
        Architecture::OneWorkerOneGpu,
        Architecture::OneWorkerMultiGpu,
        Architecture::PsWorker,
    ] {
        let jobs = pop.jobs_of(arch);
        let curves = class_sweep(&model, arch, &jobs, &vec![1.0; jobs.len()], Threads::SERIAL);
        print!("  {:<10}", arch.label());
        for axis in alibaba_pai_workloads::core::sweep::relevant_axes(arch) {
            let top = curves
                .curve(axis)
                .last()
                .map(|s| s.mean_speedup)
                .unwrap_or(1.0);
            print!("  {}: {:.2}x", axis.label(), top);
        }
        match curves.most_sensitive_axis() {
            Some(axis) => println!("  => most sensitive: {}", axis.label()),
            None => println!("  => no jobs"),
        }
    }
}
