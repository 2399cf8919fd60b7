//! The population generator.
//!
//! For each job the generator samples the class, scale (cNodes, batch),
//! weight size and *time-share targets*, then inverts the shares
//! through the paper's analytical model
//! ([`PerfModel::paper_default`]) into physical features. See the
//! crate-level docs for why this calibration strategy is sound.

use std::ops::Range;

use pai_core::{Architecture, JobColumns, Jobs, PerfModel, WorkloadFeatures};
use pai_hw::{Bytes, Flops, LinkKind};
use pai_par::Threads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::config::PopulationConfig;
use crate::error::TraceError;
use crate::sampler;
use crate::store::JobStore;

/// Jobs per sampling chunk. Fixed — never derived from the thread
/// count — so the chunk decomposition, and with it every RNG stream,
/// is a pure function of `(jobs, seed)`.
pub const JOB_CHUNK: usize = pai_par::DEFAULT_CHUNK_SIZE;

/// One synthetic job: an identifier plus its feature record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Stable id within the population.
    pub id: usize,
    /// The per-step, per-cNode feature record.
    pub features: WorkloadFeatures,
}

/// A generated population of synthetic jobs, stored columnar
/// ([`JobStore`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    store: JobStore,
}

/// Configures and runs population generation: seed, worker threads.
///
/// The chunk decomposition and per-chunk seeds never depend on the
/// thread count, so every `threads` value yields the identical
/// population; [`Threads::SERIAL`] (the default) is the oracle the
/// equivalence tests compare against.
#[derive(Debug, Clone)]
pub struct PopulationBuilder {
    config: PopulationConfig,
    seed: u64,
    threads: Threads,
}

impl PopulationBuilder {
    /// The RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> PopulationBuilder {
        self.seed = seed;
        self
    }

    /// Worker threads (default [`Threads::SERIAL`]). Pass
    /// [`Threads::from_env`] to honor the `PAI_THREADS` knob.
    pub fn threads(mut self, threads: Threads) -> PopulationBuilder {
        self.threads = threads;
        self
    }

    /// Samples the population into a columnar [`JobStore`].
    ///
    /// Sampling is chunked ([`JOB_CHUNK`] jobs per chunk) with one RNG
    /// stream per chunk derived from `(seed, chunk_id)`, and chunk
    /// stores merge in index order, so the result is a pure function
    /// of `(config, seed)` — bit-for-bit identical at any thread
    /// count, and identical to draining a [`crate::JobStream`] into a
    /// store one job at a time.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::config::ConfigError`] (wrapped in
    /// [`TraceError::Config`]) when the config fails
    /// [`PopulationConfig::validate`].
    pub fn build(self) -> Result<Population, TraceError> {
        self.config.validate()?;
        let model = PerfModel::paper_default();
        let config = &self.config;
        let seed = self.seed;
        let store = pai_par::fold_chunks(
            config.jobs,
            JOB_CHUNK,
            self.threads,
            JobStore::new(),
            |chunk, range| {
                let mut rng = StdRng::seed_from_u64(pai_par::derive_seed(seed, chunk as u64));
                let mut part = JobStore::new();
                for _ in range {
                    part.push(&sample_job(&mut rng, config, &model));
                }
                part
            },
            |acc, part| acc.append(&part),
        );
        Ok(Population { store })
    }
}

impl Population {
    /// Starts configuring a generation run; see [`PopulationBuilder`].
    pub fn builder(config: PopulationConfig) -> PopulationBuilder {
        PopulationBuilder {
            config,
            seed: 0,
            threads: Threads::SERIAL,
        }
    }

    /// Generates a population deterministically from a seed on the
    /// current thread — shorthand for
    /// `Population::builder(config).seed(seed).build()`.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::config::ConfigError`] (wrapped in
    /// [`TraceError::Config`]) when `config` fails
    /// [`PopulationConfig::validate`].
    pub fn generate(config: &PopulationConfig, seed: u64) -> Result<Population, TraceError> {
        Population::builder(config.clone()).seed(seed).build()
    }

    /// Rebuilds a population from previously exported records (e.g.
    /// deserialized from the JSON a [`Population::records`] dump
    /// produced) — the load half of trace sharing.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyPopulation`] when `records` is empty,
    /// [`TraceError::DuplicateJobId`] when two records share an id, and
    /// [`TraceError::RejectedFeatures`] when a record fails the ingest
    /// invariants (possible when records arrive as typed values from
    /// outside the deserializer, which validates on decode).
    pub fn from_records<I: IntoIterator<Item = JobRecord>>(
        records: I,
    ) -> Result<Population, TraceError> {
        let mut store = JobStore::new();
        let mut ids: Vec<usize> = Vec::new();
        for record in records {
            record.features.validate()?;
            store.push_record(&record);
            ids.push(record.id);
        }
        if store.is_empty() {
            return Err(TraceError::EmptyPopulation);
        }
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(TraceError::DuplicateJobId { id: dup[0] });
        }
        Ok(Population { store })
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no jobs were generated (never, per config validation).
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The columnar store — the zero-copy view every analysis should
    /// run against (it implements [`pai_core::Jobs`], as does
    /// `Population` itself).
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// All records, **materialized** into a fresh array-of-structs
    /// `Vec` — the exchange format for serialization and fault
    /// planning. Analyses should prefer [`Population::store`], which
    /// borrows instead of copying the whole population.
    pub fn records(&self) -> Vec<JobRecord> {
        (0..self.store.len())
            .map(|i| self.store.record(i))
            .collect()
    }

    /// All feature records, materialized.
    pub fn features(&self) -> Vec<WorkloadFeatures> {
        (0..self.store.len()).map(|i| self.store.get(i)).collect()
    }

    /// Feature records of one class, materialized.
    pub fn jobs_of(&self, arch: Architecture) -> Vec<WorkloadFeatures> {
        (0..self.store.len())
            .map(|i| self.store.get(i))
            .filter(|f| f.arch() == arch)
            .collect()
    }

    /// Job count per class, in [`Architecture::ALL`] order.
    pub fn class_counts(&self) -> [usize; 5] {
        self.store.class_counts()
    }

    /// Total cNodes per class, in [`Architecture::ALL`] order — the
    /// denominator of Fig. 5b's resource-consumption view.
    pub fn cnode_totals(&self) -> [usize; 5] {
        self.store.cnode_totals()
    }

    /// Total cNodes across the population.
    pub fn total_cnodes(&self) -> usize {
        self.store.total_cnodes()
    }
}

impl Jobs for Population {
    fn len(&self) -> usize {
        self.store.len()
    }

    fn get(&self, index: usize) -> WorkloadFeatures {
        self.store.get(index)
    }

    fn id_at(&self, index: usize) -> usize {
        self.store.id_at(index)
    }

    fn columns(&self, range: Range<usize>) -> Option<JobColumns<'_>> {
        self.store.columns(range)
    }
}

fn sample_class(rng: &mut StdRng, config: &PopulationConfig) -> Architecture {
    let classes = [
        Architecture::OneWorkerOneGpu,
        Architecture::OneWorkerMultiGpu,
        Architecture::PsWorker,
        Architecture::AllReduceLocal,
    ];
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (share, &arch) in config.class_mix.iter().zip(&classes) {
        acc += share;
        if u < acc {
            return arch;
        }
    }
    // Floating-point fall-through (the mix sums to 1 within rounding)
    // lands in the last sampled class.
    Architecture::AllReduceLocal
}

fn sample_cnodes(rng: &mut StdRng, config: &PopulationConfig, arch: Architecture) -> usize {
    match arch {
        Architecture::OneWorkerOneGpu => 1,
        Architecture::OneWorkerMultiGpu | Architecture::AllReduceLocal => {
            sampler::pow2(rng, config.onewng_cnode_exp.0, config.onewng_cnode_exp.1)
        }
        Architecture::PsWorker => {
            let (mu, sigma) = config.ps_cnode_log2;
            let n = sampler::normal(rng, mu, sigma).exp2().round() as i64;
            (n.max(2) as usize).min(config.ps_cnode_max)
        }
        // Absent from the default mix (Fig. 5a: < 1 %); a custom mix
        // that produces it samples like its local sibling.
        Architecture::AllReduceCluster => {
            sampler::pow2(rng, config.onewng_cnode_exp.0, config.onewng_cnode_exp.1)
        }
    }
}

fn sample_weight_gb(rng: &mut StdRng, config: &PopulationConfig, arch: Architecture) -> f64 {
    match arch {
        Architecture::OneWorkerOneGpu => {
            sampler::log_uniform(rng, config.w1g_weight_gb.0, config.w1g_weight_gb.1)
        }
        // AllReduce-Cluster is absent from the default mix; a custom
        // mix that produces it samples like its local sibling.
        Architecture::OneWorkerMultiGpu
        | Architecture::AllReduceLocal
        | Architecture::AllReduceCluster => {
            sampler::log_uniform(rng, config.wng_weight_gb.0, config.wng_weight_gb.1)
        }
        Architecture::PsWorker => {
            let u: f64 = rng.gen();
            let [small, medium, _] = config.ps_weight_regime_mix;
            let range = if u < small {
                config.ps_weight_small_gb
            } else if u < small + medium {
                config.ps_weight_medium_gb
            } else {
                config.ps_weight_large_gb
            };
            sampler::log_uniform(rng, range.0, range.1)
        }
    }
}

/// Communication-time share target for a communicating class.
fn sample_comm_share(
    rng: &mut StdRng,
    config: &PopulationConfig,
    arch: Architecture,
    cnodes: usize,
) -> f64 {
    let p = match arch {
        Architecture::PsWorker => {
            let median = (config.ps_comm_median_base
                + config.ps_comm_median_slope * (cnodes as f64).log2())
            .clamp(config.ps_comm_median_range.0, config.ps_comm_median_range.1);
            sampler::logit_normal(rng, median, config.ps_comm_sigma)
        }
        Architecture::OneWorkerMultiGpu
        | Architecture::AllReduceLocal
        | Architecture::AllReduceCluster => {
            sampler::logit_normal(rng, config.wng_comm.0, config.wng_comm.1)
        }
        // 1w1g does not communicate: its share target is zero.
        Architecture::OneWorkerOneGpu => return 0.0,
    };
    sampler::clamp_share(p, 0.02, 0.98)
}

/// Input-I/O share target. For 1w1g this is the share of total time;
/// for communicating classes it is the share `q_d` of *non-
/// communication* time (see [`PopulationConfig::dist_io_bulk`]).
fn sample_io_share(rng: &mut StdRng, config: &PopulationConfig, arch: Architecture) -> f64 {
    let p = match arch {
        Architecture::OneWorkerOneGpu => {
            if rng.gen::<f64>() < config.w1g_io_heavy_prob {
                rng.gen_range(config.w1g_io_heavy_range.0..=config.w1g_io_heavy_range.1)
            } else {
                sampler::logit_normal(rng, config.w1g_io.0, config.w1g_io.1)
            }
        }
        _ => {
            if rng.gen::<f64>() < config.dist_io_heavy_prob {
                sampler::logit_normal(rng, config.dist_io_heavy.0, config.dist_io_heavy.1)
            } else {
                sampler::logit_normal(rng, config.dist_io_bulk.0, config.dist_io_bulk.1)
            }
        }
    };
    sampler::clamp_share(p, 0.001, 0.95)
}

#[allow(clippy::too_many_arguments)]
/// Inverts time-share targets into physical features through the
/// analytical model: given the target total step time and the shares,
/// the byte/FLOP volumes that produce exactly those component times
/// under `model`.
fn invert_features(
    model: &PerfModel,
    arch: Architecture,
    cnodes: usize,
    batch: usize,
    weight_gb: f64,
    total_s: f64,
    p_d: f64,
    p_cc: f64,
    p_cm: f64,
) -> WorkloadFeatures {
    let cfg = model.config();
    let contention = arch.input_contention_factor(cnodes, pai_core::model::GPUS_PER_SERVER);
    let pcie_eff = cfg
        .link(LinkKind::Pcie)
        .effective_bandwidth()
        .as_bytes_per_sec();
    let mem_eff = cfg
        .link(LinkKind::HbmMemory)
        .effective_bandwidth()
        .as_bytes_per_sec();
    let peak_eff = cfg.gpu().peak_flops().as_flops_per_sec() * cfg.efficiency().compute();

    let sd = p_d * total_s * pcie_eff / contention as f64;
    let flops = p_cc * total_s * peak_eff;
    let smem = p_cm * total_s * mem_eff;

    WorkloadFeatures::builder(arch)
        .cnodes(cnodes)
        .batch_size(batch)
        .input_bytes(Bytes::from_f64(sd))
        .weight_bytes(Bytes::from_gb(weight_gb))
        .flops(Flops::from_f64(flops))
        .mem_access_bytes(Bytes::from_f64(smem))
        .build()
}

/// Samples one job — the single sampling routine behind batch,
/// parallel and streaming generation.
pub(crate) fn sample_job(
    rng: &mut StdRng,
    config: &PopulationConfig,
    model: &PerfModel,
) -> WorkloadFeatures {
    let arch = sample_class(rng, config);
    let cnodes = sample_cnodes(rng, config, arch);
    let batch = sampler::pow2(rng, config.batch_exp.0, config.batch_exp.1);
    let weight_gb = sample_weight_gb(rng, config, arch);
    let p_d_raw = sample_io_share(rng, config, arch);
    let mem_share = sampler::logit_normal(
        rng,
        config.mem_share_of_compute.0,
        config.mem_share_of_compute.1,
    );

    let (total_s, p_d) = if arch.communicates() {
        let p_w = sample_comm_share(rng, config, arch, cnodes);
        // Anchor the absolute scale on the weight-transfer time the
        // model assigns to this class's Table II media path.
        let probe = WorkloadFeatures::builder(arch)
            .cnodes(cnodes.max(2))
            .weight_bytes(Bytes::from_gb(weight_gb))
            .build();
        let tw = model.weight_traffic_time(&probe).as_f64();
        let total = tw / p_w;
        // q_d is the share of the non-communication remainder.
        let p_d = p_d_raw * (1.0 - p_w);
        (total, p_d)
    } else {
        let total = sampler::log_uniform(rng, config.free_step_time_s.0, config.free_step_time_s.1);
        (total, p_d_raw)
    };

    let p_w_actual = if arch.communicates() {
        let probe = WorkloadFeatures::builder(arch)
            .cnodes(cnodes.max(2))
            .weight_bytes(Bytes::from_gb(weight_gb))
            .build();
        model.weight_traffic_time(&probe).as_f64() / total_s
    } else {
        0.0
    };
    let p_c = (1.0 - p_w_actual - p_d).max(0.0);
    let p_cm = p_c * mem_share;
    let p_cc = p_c * (1.0 - mem_share);

    invert_features(
        model, arch, cnodes, batch, weight_gb, total_s, p_d, p_cc, p_cm,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pop() -> Population {
        Population::generate(&PopulationConfig::paper_scale(3_000).unwrap(), 1905930).unwrap()
    }

    #[test]
    fn records_roundtrip_through_json() {
        let pop = Population::generate(&PopulationConfig::paper_scale(50).unwrap(), 3).unwrap();
        let body = serde_json::to_string(&pop.records()).expect("serialize");
        let back: Vec<JobRecord> = serde_json::from_str(&body).expect("deserialize");
        assert_eq!(Population::from_records(back).unwrap(), pop);
    }

    #[test]
    fn from_records_rejects_duplicates() {
        let pop = Population::generate(&PopulationConfig::paper_scale(2).unwrap(), 3).unwrap();
        let mut records = pop.records();
        records[1].id = records[0].id;
        assert_eq!(
            Population::from_records(records),
            Err(TraceError::DuplicateJobId { id: 0 })
        );
    }

    #[test]
    fn from_records_rejects_empty() {
        assert_eq!(
            Population::from_records(std::iter::empty()),
            Err(TraceError::EmptyPopulation)
        );
    }

    #[test]
    fn generate_rejects_invalid_configs() {
        let mut cfg = PopulationConfig::paper_scale(10).unwrap();
        cfg.class_mix = [1.0, 1.0, 0.0, 0.0];
        assert!(matches!(
            Population::generate(&cfg, 1),
            Err(TraceError::Config(_))
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = PopulationConfig::paper_scale(200).unwrap();
        let a = Population::generate(&cfg, 7).unwrap();
        let b = Population::generate(&cfg, 7).unwrap();
        assert_eq!(a, b);
        let c = Population::generate(&cfg, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn class_mix_tracks_fig5a() {
        let pop = small_pop();
        let counts = pop.class_counts();
        let n = pop.len() as f64;
        // [1w1g, 1wng, PS, ARL, ARC]
        assert!(
            (counts[0] as f64 / n - 0.59).abs() < 0.04,
            "1w1g {}",
            counts[0]
        );
        assert!(
            (counts[2] as f64 / n - 0.29).abs() < 0.04,
            "PS {}",
            counts[2]
        );
        assert!(counts[3] as f64 / n < 0.02, "AllReduce {}", counts[3]);
        assert_eq!(counts[4], 0, "no AllReduce-Cluster in the default mix");
    }

    #[test]
    fn ps_consumes_the_lions_share_of_cnodes() {
        // Fig. 5b: PS/Worker jobs consume ~81 % of cNodes.
        let pop = small_pop();
        let totals = pop.cnode_totals();
        let ps_share = totals[2] as f64 / pop.total_cnodes() as f64;
        assert!(
            (0.70..0.92).contains(&ps_share),
            "PS cNode share {ps_share}"
        );
    }

    #[test]
    fn onewng_stays_within_a_server() {
        let pop = small_pop();
        for f in pop.jobs_of(Architecture::OneWorkerMultiGpu) {
            assert!((2..=8).contains(&f.cnodes()));
        }
    }

    #[test]
    fn ps_cnode_median_is_about_eight() {
        let pop = small_pop();
        let mut counts: Vec<usize> = pop
            .jobs_of(Architecture::PsWorker)
            .iter()
            .map(|f| f.cnodes())
            .collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        assert!((4..=16).contains(&median), "median {median}");
    }

    #[test]
    fn extreme_jobs_exist_and_are_rare() {
        // Sec. III-A: ~0.7 % of jobs exceed 128 cNodes yet consume >16 %
        // of resources.
        let pop =
            Population::generate(&PopulationConfig::paper_scale(20_000).unwrap(), 1905930).unwrap();
        let records = pop.records();
        let big: Vec<&JobRecord> = records
            .iter()
            .filter(|j| j.features.cnodes() > 128)
            .collect();
        let frac = big.len() as f64 / pop.len() as f64;
        assert!((0.001..0.02).contains(&frac), "big-job fraction {frac}");
        let big_cnodes: usize = big.iter().map(|j| j.features.cnodes()).sum();
        let share = big_cnodes as f64 / pop.total_cnodes() as f64;
        assert!(share > 0.10, "big-job resource share {share}");
    }

    #[test]
    fn ninety_percent_of_jobs_are_small_models() {
        // Sec. III-D: "90% jobs train small-scale models, i.e., model
        // size less than 10GB".
        let pop = small_pop();
        let under = pop
            .records()
            .iter()
            .filter(|j| j.features.weight_bytes().as_gb() < 10.0)
            .count();
        let frac = under as f64 / pop.len() as f64;
        assert!((0.85..0.95).contains(&frac), "small-model fraction {frac}");
    }

    #[test]
    fn features_reproduce_target_shares() {
        // The inversion must round-trip: analyzing the generated
        // features with the same model yields self-consistent fractions.
        let pop = small_pop();
        let model = PerfModel::paper_default();
        for f in pop.features().iter().take(100) {
            let sum: f64 = model.component_times(f).fractions().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn one_w_one_g_io_has_a_heavy_tail() {
        // Fig. 8b: ~5 % of 1w1g jobs spend >50 % of time on input I/O.
        let pop = small_pop();
        let model = PerfModel::paper_default();
        let io: Vec<f64> = pop
            .jobs_of(Architecture::OneWorkerOneGpu)
            .iter()
            .map(|f| model.component_times(f).fractions()[0])
            .collect();
        let heavy = io.iter().filter(|&&p| p > 0.5).count() as f64 / io.len() as f64;
        assert!((0.02..0.10).contains(&heavy), "heavy-I/O fraction {heavy}");
        let mean = io.iter().sum::<f64>() / io.len() as f64;
        assert!((0.05..0.15).contains(&mean), "mean 1w1g I/O share {mean}");
    }
}
