//! Integration: the Sec. III-D headline observations must emerge from
//! the full trace → analytical-model pipeline within tolerance of the
//! published values.

use alibaba_pai_workloads::core::breakdown::mean_fractions;
use alibaba_pai_workloads::core::project::ProjectionTarget;
use alibaba_pai_workloads::core::{comm_bound_speedup, Architecture, Jobs, PerfModel};
use alibaba_pai_workloads::hw::{SweepAxis, SweepPoint};
use alibaba_pai_workloads::par::Threads;
use alibaba_pai_workloads::trace::{Population, PopulationConfig};

const SEED: u64 = 1_905_930;

fn population() -> Population {
    Population::generate(&PopulationConfig::paper_scale(20_000).unwrap(), SEED).unwrap()
}

fn model() -> PerfModel {
    PerfModel::paper_default()
}

#[test]
fn ps_worker_consumes_about_81_percent_of_cnodes() {
    let pop = population();
    let totals = pop.cnode_totals();
    let ps = totals[2] as f64 / pop.total_cnodes() as f64;
    assert!((ps - 0.81).abs() < 0.08, "PS cNode share {ps}");
}

#[test]
fn ninety_percent_of_jobs_train_small_models() {
    let pop = population();
    let small = pop
        .iter_jobs()
        .filter(|j| j.weight_bytes().as_gb() < 10.0)
        .count() as f64
        / pop.len() as f64;
    assert!((small - 0.90).abs() < 0.04, "small-model share {small}");
}

#[test]
fn weight_communication_is_62_percent_at_the_cnode_level() {
    let pop = population();
    let m = model();
    let mut times = Vec::new();
    let mut weights = Vec::new();
    for arch in [
        Architecture::OneWorkerOneGpu,
        Architecture::OneWorkerMultiGpu,
        Architecture::PsWorker,
    ] {
        for job in pop.jobs_of(arch) {
            times.push(m.component_times(&job));
            weights.push(job.cnodes() as f64);
        }
    }
    let fractions = mean_fractions(&times, &weights);
    assert!(
        (fractions[1] - 0.62).abs() < 0.05,
        "cNode-level communication share {}",
        fractions[1]
    );
    // Memory-bound exceeds compute-bound (paper: 22% vs 13%).
    assert!(fractions[3] > fractions[2]);
    // Job-level communication sits near 22%.
    let job_fracs = mean_fractions(&times, &vec![1.0; times.len()]);
    assert!(
        (job_fracs[1] - 0.22).abs() < 0.05,
        "job-level {}",
        job_fracs[1]
    );
}

#[test]
fn forty_percent_of_ps_jobs_are_over_80_percent_communication() {
    let pop = population();
    let m = model();
    let ps = pop.jobs_of(Architecture::PsWorker);
    let over = ps
        .iter()
        .filter(|j| m.component_times(j).weight_fraction() > 0.8)
        .count() as f64
        / ps.len() as f64;
    assert!(over > 0.37, "only {over} of PS jobs over 80% comm");
}

#[test]
fn sixty_percent_of_ps_jobs_gain_throughput_on_allreduce_local() {
    let pop = population();
    let m = model();
    let ps = pop.jobs_of(Architecture::PsWorker);
    let outs = m.projections(&ps, ProjectionTarget::AllReduceLocal, Threads::SERIAL);
    let improved =
        outs.iter().filter(|o| o.improves_throughput()).count() as f64 / outs.len() as f64;
    assert!((improved - 0.60).abs() < 0.10, "improved share {improved}");
    // The paper's loser cohort: ~22.6% see no step-time gain.
    let losers = outs
        .iter()
        .filter(|o| o.single_cnode_speedup <= 1.0)
        .count() as f64
        / outs.len() as f64;
    assert!((losers - 0.226).abs() < 0.08, "loser share {losers}");
}

#[test]
fn hundred_gig_ethernet_gives_about_1_7x_on_ps_jobs() {
    let pop = population();
    let m = model();
    let fast = m.with_config(m.config().with_resource(SweepPoint {
        axis: SweepAxis::Ethernet,
        value: 100.0,
    }));
    let ps = pop.jobs_of(Architecture::PsWorker);
    let mean: f64 = ps
        .iter()
        .map(|j| m.total_time(j).as_f64() / fast.total_time(j).as_f64())
        .sum::<f64>()
        / ps.len() as f64;
    assert!((mean - 1.7).abs() < 0.12, "mean Ethernet speedup {mean}");
}

#[test]
fn eq3_bound_is_exactly_21x() {
    assert!((comm_bound_speedup(&model()) - 21.0).abs() < 1e-9);
}

#[test]
fn allreduce_cluster_helps_about_two_thirds() {
    let pop = population();
    let m = model();
    let ps = pop.jobs_of(Architecture::PsWorker);
    let outs = m.projections(&ps, ProjectionTarget::AllReduceCluster, Threads::SERIAL);
    let sped =
        outs.iter().filter(|o| o.single_cnode_speedup > 1.0).count() as f64 / outs.len() as f64;
    assert!((sped - 0.679).abs() < 0.10, "ARC sped-up share {sped}");
    // And never beyond the 1.23x medium-swap bound.
    assert!(outs.iter().all(|o| o.single_cnode_speedup < 1.24));
}

#[test]
fn extreme_scale_jobs_are_rare_but_resource_heavy() {
    let pop = population();
    let big: Vec<_> = pop.iter_jobs().filter(|j| j.cnodes() > 128).collect();
    let job_share = big.len() as f64 / pop.len() as f64;
    let cnode_share =
        big.iter().map(|j| j.cnodes()).sum::<usize>() as f64 / pop.total_cnodes() as f64;
    assert!(job_share < 0.02, "big-job share {job_share}");
    assert!(cnode_share > 0.10, "big-job cNode share {cnode_share}");
}
