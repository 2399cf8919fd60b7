//! Property tests for the population generator: structural invariants
//! that must hold for every seed and size.

use pai_core::{characterize, Architecture, PerfModel, WorkloadFeatures};
use pai_hw::{Bytes, Flops};
use pai_par::{assert_serial_parallel_identical, Threads, EQUIVALENCE_THREADS};
use pai_trace::{JobStore, Population, PopulationConfig, StreamSession};
use proptest::prelude::*;

proptest! {
    // Generation is comparatively expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_job_is_class_consistent(seed in 0u64..1_000_000, jobs in 50usize..400) {
        let pop = Population::generate(&PopulationConfig::paper_scale(jobs).unwrap(), seed).unwrap();
        prop_assert_eq!(pop.len(), jobs);
        for rec in pop.records() {
            let f = &rec.features;
            match f.arch() {
                Architecture::OneWorkerOneGpu => prop_assert_eq!(f.cnodes(), 1),
                Architecture::OneWorkerMultiGpu | Architecture::AllReduceLocal => {
                    prop_assert!((2..=8).contains(&f.cnodes()))
                }
                Architecture::PsWorker => prop_assert!(f.cnodes() >= 2),
                Architecture::AllReduceCluster => {
                    prop_assert!(false, "not generated by the default mix")
                }
            }
            prop_assert!(f.batch_size().is_power_of_two());
            prop_assert!(f.weight_bytes().as_f64() > 0.0);
        }
    }

    #[test]
    fn breakdowns_are_finite_and_normalized(seed in 0u64..1_000_000) {
        let pop = Population::generate(&PopulationConfig::paper_scale(200).unwrap(), seed).unwrap();
        let m = PerfModel::paper_default();
        for rec in pop.records() {
            let ct = m.component_times(&rec.features);
            prop_assert!(ct.total.as_f64().is_finite());
            prop_assert!(ct.total.as_f64() > 0.0);
            let sum: f64 = ct.fractions().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            // Non-communicating class never shows weight traffic.
            if rec.features.arch() == Architecture::OneWorkerOneGpu {
                prop_assert_eq!(ct.weight_fraction(), 0.0);
            }
        }
    }

    #[test]
    fn same_seed_same_population(seed in 0u64..1_000_000) {
        let cfg = PopulationConfig::paper_scale(100).unwrap();
        prop_assert_eq!(
            Population::generate(&cfg, seed).unwrap(),
            Population::generate(&cfg, seed).unwrap()
        );
    }

    /// ISSUE acceptance: the population is bit-for-bit identical at
    /// every worker-thread count, including sizes that exercise a
    /// short trailing chunk and sizes below one full chunk.
    #[test]
    fn generation_is_thread_count_invariant(seed in 0u64..1_000_000, jobs in 1usize..4_000) {
        let cfg = PopulationConfig::paper_scale(jobs).unwrap();
        let oracle = assert_serial_parallel_identical(&EQUIVALENCE_THREADS, |threads| {
            Population::builder(cfg.clone())
                .seed(seed)
                .threads(threads)
                .build()
                .unwrap()
        });
        prop_assert_eq!(oracle.len(), jobs);
        // The public serial entry point is the same oracle.
        prop_assert_eq!(oracle, Population::generate(&cfg, seed).unwrap());
    }

    #[test]
    fn class_counts_and_cnode_totals_are_consistent(seed in 0u64..1_000_000) {
        let pop = Population::generate(&PopulationConfig::paper_scale(300).unwrap(), seed).unwrap();
        let counts = pop.class_counts();
        prop_assert_eq!(counts.iter().sum::<usize>(), pop.len());
        let totals = pop.cnode_totals();
        prop_assert_eq!(totals.iter().sum::<usize>(), pop.total_cnodes());
        // 1w1g contributes exactly one cNode per job.
        prop_assert_eq!(counts[0], totals[0]);
    }
}

proptest! {
    // Streaming runs the sampler once per job on top of the batch
    // reference; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ISSUE acceptance: batch generation and one-job-at-a-time
    /// streaming ingest produce bit-identical populations and
    /// bit-identical headline statistics at 1/2/4/8 threads — sizes
    /// chosen to exercise sub-chunk, boundary and multi-chunk streams.
    #[test]
    fn streaming_ingest_matches_batch_bitwise(
        seed in 0u64..1_000_000,
        jobs in prop_oneof![1usize..60, 1000usize..1100, 2048usize..2100],
    ) {
        use pai_trace::JobStream;

        let cfg = PopulationConfig::paper_scale(jobs).unwrap();
        let model = PerfModel::paper_default();

        let mut session = StreamSession::new(model);
        let mut store = JobStore::new();
        for job in JobStream::new(&cfg, seed).unwrap() {
            session.ingest(&job);
            store.push(&job);
        }
        let streamed_stats = session.stats();

        for t in [1usize, 2, 4, 8] {
            let threads = Threads::new(t);
            let pop = Population::builder(cfg.clone())
                .seed(seed)
                .threads(threads)
                .build()
                .unwrap();
            prop_assert_eq!(pop.store(), &store, "store drifted at {} threads", t);
            prop_assert_eq!(
                characterize(&model, pop.store(), threads),
                streamed_stats.clone(),
                "stats drifted at {} threads",
                t
            );
        }
    }
}

fn decades(exponents: std::ops::RangeInclusive<f64>) -> impl Strategy<Value = f64> {
    exponents.prop_map(|e| 10f64.powf(e))
}

/// A volume: `+0`, `-0` (both pass ingest validation), uniform, or
/// log-uniform up to 1e15.
fn volume() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(-0.0), 0.0..=1e15, decades(0.0..=15.0)]
}

/// The records pai-core's reference-fold property draws: any class,
/// cNode counts on both sides of the 8-GPU server, weights on both
/// sides of one GPU's memory, and one record in ten a PS/Worker job
/// with every size zero.
fn any_record() -> impl Strategy<Value = WorkloadFeatures> {
    let memory = PerfModel::paper_default()
        .config()
        .gpu()
        .memory_capacity()
        .as_f64();
    let weight = prop_oneof![volume(), Just(memory), memory * 0.5..=memory * 2.0];
    let priced = (
        0..Architecture::ALL.len(),
        prop_oneof![2..=16usize, 2..=4096usize],
        1..=1024usize,
        (volume(), weight, volume(), volume()),
    )
        .prop_map(|(arch, cnodes, batch, (input, weight, flops, mem))| {
            let arch = Architecture::ALL[arch];
            let cnodes = if arch == Architecture::OneWorkerOneGpu {
                1
            } else {
                cnodes
            };
            WorkloadFeatures::builder(arch)
                .cnodes(cnodes)
                .batch_size(batch)
                .input_bytes(Bytes::from_f64(input))
                .weight_bytes(Bytes::from_f64(weight))
                .flops(Flops::from_f64(flops))
                .mem_access_bytes(Bytes::from_f64(mem))
                .build()
        });
    let idle = (2..=64usize).prop_map(|cnodes| {
        WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(cnodes)
            .build()
    });
    (0..10u8, priced, idle).prop_map(|(pick, priced, idle)| if pick == 0 { idle } else { priced })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every driver of the characterization fold agrees on records the
    /// generator never draws (zero-work jobs, `-0` volumes), over
    /// partial, exactly-one and multi-chunk stores: the column driver
    /// (a `JobStore`) and the per-job driver (a `Vec`) at 1, 2 and 4
    /// threads, and a stream session. Statistics compare through their
    /// `Debug` form, which spells every `f64` exactly, signed zeros
    /// included.
    #[test]
    fn every_driver_agrees_on_edge_case_records(
        jobs in prop_oneof![
            proptest::collection::vec(any_record(), 1..=2100),
            proptest::collection::vec(any_record(), 1024..=1024),
        ],
    ) {
        let model = PerfModel::paper_default();
        let mut session = StreamSession::new(model);
        for job in &jobs {
            session.ingest(job);
        }
        let want = format!("{:?}", session.stats());
        let store: JobStore = jobs.iter().copied().collect();
        for t in [1usize, 2, 4] {
            let threads = Threads::new(t);
            let by_column = format!("{:?}", characterize(&model, &store, threads));
            prop_assert_eq!(&by_column, &want, "column driver at {} threads", t);
            let by_job = format!("{:?}", characterize(&model, &jobs, threads));
            prop_assert_eq!(&by_job, &want, "per-job driver at {} threads", t);
        }
    }
}
