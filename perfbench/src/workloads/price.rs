//! `price`: step-time pricing on the overlap-aware backends.
//!
//! One pass prices a 50k-job population through the DAG engine under
//! WFBP and fused WFBP, lowers and evaluates the 18 zoo graphs
//! (training, inference and optimized forms) under all three overlap
//! strategies, and runs the six training graphs op by op through the
//! step simulator with their communication plans. pai-dag and pai-sim
//! run here and in no other workload.

use pai_core::{ComponentTimes, PerfModel, WorkloadFeatures};
use pai_dag::{
    evaluate, job_of_graph, lower, DagStepTime, NetworkPath, OverlapStrategy, StepTimeBackend,
    StepTimeEngine,
};
use pai_graph::passes::{apply_mixed_precision, xla};
use pai_graph::zoo::{self, inference, CaseStudyArch};
use pai_graph::Graph;
use pai_hw::Bytes;
use pai_profiler::extract_features;
use pai_profiler::validate::plan_for;
use pai_sim::{SimConfig, StepMeasurement, StepSimulator};
use pai_trace::{Population, PopulationConfig};

use super::{ensure, Checked, Workload, ONE};
use crate::spans::Tracer;
use crate::stats::Digest;

/// Largest relative gap allowed between serial-DAG and additive times.
pub const SERIAL_TOLERANCE: f64 = 1e-9;

/// The strategies each zoo graph is evaluated under, in output order.
fn strategies() -> [OverlapStrategy; 3] {
    [
        OverlapStrategy::Serial,
        OverlapStrategy::Wfbp,
        OverlapStrategy::fused_default(),
    ]
}

/// The `price` workload.
pub struct Price;

/// One zoo graph with the job it is priced as.
struct Case {
    graph: Graph,
    job: WorkloadFeatures,
}

/// One training graph with what the step simulator needs for it.
struct Training {
    graph: Graph,
    sim: StepSimulator,
    plan: pai_collectives::CommPlan,
    contention: usize,
}

/// The population, the zoo cases and the two engines.
pub struct Inputs {
    model: PerfModel,
    population: Population,
    cases: Vec<Case>,
    training: Vec<Training>,
    wfbp: StepTimeEngine,
    fused: StepTimeEngine,
}

/// Serial-DAG step times of the population, and how many of them stray
/// from the additive closed form.
pub struct Reference {
    serial: Vec<f64>,
    serial_mismatches: usize,
}

/// One pass's results.
#[derive(Debug, Clone)]
pub struct Output {
    /// Population component times under WFBP.
    pub wfbp: Vec<ComponentTimes>,
    /// Population component times under fused WFBP.
    pub fused: Vec<ComponentTimes>,
    /// Each zoo graph under [`strategies`] order.
    pub zoo: Vec<[DagStepTime; 3]>,
    /// Each training graph's simulated step.
    pub sim: Vec<StepMeasurement>,
}

/// The 18 zoo graphs at one cNode for the single-GPU case study and 8
/// otherwise, each as trained, served and XLA+AMP-optimized.
fn zoo_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for spec in zoo::all() {
        let cnodes = if spec.arch() == CaseStudyArch::OneWorkerOneGpu {
            1
        } else {
            8
        };
        let features = extract_features(&spec, cnodes);
        let (arch, weight) = (features.arch(), features.weight_bytes());
        let (optimized, _) = apply_mixed_precision(&xla::fuse_elementwise(spec.graph()));
        let variants = [
            (spec.graph().clone(), weight),
            (
                inference::inference_variant(&spec).graph().clone(),
                Bytes::ZERO,
            ),
            (optimized, weight),
        ];
        for (graph, weight_bytes) in variants {
            let job = job_of_graph(&graph, arch, cnodes, spec.batch_size(), weight_bytes);
            cases.push(Case { graph, job });
        }
    }
    cases
}

/// The six training graphs with their simulators and plans.
fn training_cases() -> Vec<Training> {
    zoo::all()
        .into_iter()
        .map(|spec| {
            let cnodes = if spec.arch() == CaseStudyArch::OneWorkerOneGpu {
                1
            } else {
                8
            };
            let contention = match spec.arch() {
                CaseStudyArch::AllReduceLocal | CaseStudyArch::Pearl => cnodes,
                _ => 1,
            };
            Training {
                sim: StepSimulator::new(
                    SimConfig::testbed().with_efficiency(*spec.measured_efficiency()),
                ),
                plan: plan_for(&spec, cnodes),
                graph: spec.graph().clone(),
                contention,
            }
        })
        .collect()
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

impl Workload for Price {
    const NAME: &'static str = "price";
    const JOBS: usize = 50_000;
    type Inputs = Inputs;
    type Reference = Reference;
    type Output = Output;

    fn setup(jobs: usize, seed: u64, t: &mut Tracer) -> Result<Inputs, String> {
        let model = PerfModel::paper_default();
        let config = PopulationConfig::paper_scale(jobs).map_err(|e| e.to_string())?;
        let population = t.span("trace.generate", |_| {
            Population::builder(config)
                .seed(seed)
                .threads(ONE)
                .build()
                .map_err(|e| e.to_string())
        })?;
        let (cases, training) = t.span("graph.zoo_build", |_| (zoo_cases(), training_cases()));
        Ok(Inputs {
            model,
            population,
            cases,
            training,
            wfbp: StepTimeEngine::new(model, StepTimeBackend::Dag(OverlapStrategy::Wfbp)),
            fused: StepTimeEngine::new(
                model,
                StepTimeBackend::Dag(OverlapStrategy::fused_default()),
            ),
        })
    }

    fn jobs_per_pass(inputs: &Inputs) -> usize {
        inputs.population.len()
    }

    fn reference(inputs: &Inputs) -> Result<Reference, String> {
        let serial =
            StepTimeEngine::new(inputs.model, StepTimeBackend::Dag(OverlapStrategy::Serial))
                .component_times_all(&inputs.population, ONE);
        let additive = StepTimeEngine::new(inputs.model, StepTimeBackend::Additive)
            .component_times_all(&inputs.population, ONE);
        let serial_mismatches = serial
            .iter()
            .zip(&additive)
            .filter(|(s, a)| relative_gap(s.total.as_f64(), a.total.as_f64()) > SERIAL_TOLERANCE)
            .count();
        Ok(Reference {
            serial: serial.iter().map(|c| c.total.as_f64()).collect(),
            serial_mismatches,
        })
    }

    fn pass(inputs: &Inputs, t: &mut Tracer) -> Result<Output, String> {
        let pop = &inputs.population;
        let wfbp = t.span("dag.price_wfbp", |_| {
            inputs.wfbp.component_times_all(pop, ONE)
        });
        let fused = t.span("dag.price_fused", |_| {
            inputs.fused.component_times_all(pop, ONE)
        });
        let config = inputs.model.config();
        let zoo = inputs
            .cases
            .iter()
            .map(|case| {
                let (step, path) = t.span("dag.lower", |_| {
                    (
                        lower::from_graph(&case.graph, &case.job, config),
                        NetworkPath::for_arch(config, case.job.arch()),
                    )
                });
                strategies().map(|s| t.span("dag.evaluate", |_| evaluate(&step, &path, s)))
            })
            .collect();
        let sim = inputs
            .training
            .iter()
            .map(|tr| {
                t.span("sim.step", |_| {
                    tr.sim.run(&tr.graph, &tr.plan, tr.contention)
                })
                .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Output {
            wfbp,
            fused,
            zoo,
            sim,
        })
    }

    fn check(inputs: &Inputs, reference: &Reference, out: &Output) -> Result<Checked, String> {
        let n = inputs.population.len();
        ensure(out.wfbp.len() == n && out.fused.len() == n, || {
            format!(
                "{} / {} priced jobs of {n}",
                out.wfbp.len(),
                out.fused.len()
            )
        })?;
        ensure(reference.serial_mismatches == 0, || {
            format!(
                "{} population jobs price differently under serial-DAG and additive",
                reference.serial_mismatches
            )
        })?;
        ensure(out.zoo.len() == inputs.cases.len(), || {
            format!("{} zoo graphs evaluated", out.zoo.len())
        })?;
        for (case, [serial, _, _]) in inputs.cases.iter().zip(&out.zoo) {
            let additive = inputs.model.total_time(&case.job).as_f64();
            let gap = relative_gap(serial.total.as_f64(), additive);
            ensure(gap <= SERIAL_TOLERANCE, || {
                format!(
                    "{}: serial-DAG {} vs additive {additive}",
                    case.graph.name(),
                    serial.total.as_f64()
                )
            })?;
        }
        for m in &out.sim {
            ensure(
                m.total.as_f64().is_finite() && m.total.as_f64() > 0.0,
                || format!("simulated step of {} s", m.total.as_f64()),
            )?;
        }
        let above = |times: &[ComponentTimes]| {
            times
                .iter()
                .zip(&reference.serial)
                .filter(|(c, &serial)| c.total.as_f64() > serial)
                .count() as f64
        };
        let mut d = Digest::new();
        for c in out.wfbp.iter().chain(&out.fused) {
            d.f64(c.total.as_f64());
            d.f64(c.weight_traffic.as_f64());
        }
        d.debug(&out.zoo);
        for m in &out.sim {
            d.f64(m.total.as_f64());
            d.u64(m.kernels as u64);
        }
        let transfers: usize = out.zoo.iter().flatten().map(|e| e.transfers).sum();
        let ops: usize = out.sim.iter().map(|m| m.kernels).sum();
        Ok(Checked {
            digest: d.finish(),
            counts: vec![
                ("dag.transfers", transfers as f64),
                ("sim.ops", ops as f64),
                ("dag.above_serial.wfbp", above(&out.wfbp)),
                ("dag.above_serial.fused", above(&out.fused)),
            ],
        })
    }
}
