//! Streaming columnar-store throughput on a 1M-job population, plus a
//! machine-readable report.
//!
//! Besides the criterion groups, this target writes `BENCH_stream.json`
//! at the repository root:
//!
//! - **ingest jobs/sec** — one-job-at-a-time streaming into a
//!   stats-only [`StreamSession`] (includes the sampling cost, so it
//!   is the honest end-to-end streaming rate) and into a columnar
//!   [`JobStore`];
//! - **checkpointed ingest jobs/sec** — the same stream snapshotting
//!   every 64 chunks; the ISSUE caps the durability overhead at 10 %;
//! - **query jobs/sec + latency** — a resident-column
//!   [`WhatIfIndex`] Ethernet what-if sweep over the full population;
//! - **serial characterize baseline** — re-measured in the same run so
//!   the ISSUE's ≥5× query-vs-characterize ratio is computed against
//!   this host, not a stale number.

mod common;

use common::{time_best, TIMING_RUNS};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pai_core::{characterize, PerfModel, WhatIfIndex};
use pai_par::Threads;
use pai_trace::population::JOB_CHUNK;
use pai_trace::{JobStore, JobStream, Population, PopulationConfig, StreamSession};
use std::time::Duration;

/// The ISSUE-mandated workload: a 1M-job stream.
const JOBS: usize = 1_000_000;
/// The Ethernet what-if point the report queries, in Gbps.
const QUERY_GBPS: f64 = 100.0;
/// Checkpoint cadence for the durability-overhead measurement, in
/// chunks (the ISSUE's every-64-chunks budget: one snapshot per
/// 65 536 jobs).
const CHECKPOINT_EVERY_CHUNKS: usize = 64;

fn seed() -> u64 {
    pai_repro::SEED
}

fn config() -> PopulationConfig {
    PopulationConfig::paper_scale(JOBS).expect("1M jobs is a valid scale")
}

fn population() -> Population {
    Population::builder(config())
        .seed(seed())
        .threads(Threads::from_env())
        .build()
        .expect("valid config")
}

fn bench_characterize(c: &mut Criterion) {
    let pop = population();
    let model = PerfModel::paper_default();
    let mut group = c.benchmark_group("stream_1m");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("characterize_serial", |b| {
        b.iter(|| black_box(characterize(&model, pop.store(), Threads::SERIAL)));
    });
    let index = WhatIfIndex::build(&model, pop.store(), Threads::from_env());
    group.bench_function("whatif_query", |b| {
        b.iter(|| black_box(index.summary_at(QUERY_GBPS)));
    });
    group.finish();
}

/// Measures the streaming/query rates and writes the
/// `BENCH_stream.json` report.
fn emit_report(_c: &mut Criterion) {
    let cfg = config();
    let model = PerfModel::paper_default();
    let pop = population();

    // Serial characterize over the resident columns: the ISSUE's
    // throughput baseline, re-measured on this host.
    let char_s = time_best(|| {
        black_box(characterize(&model, pop.store(), Threads::SERIAL));
    });
    let char_rate = JOBS as f64 / char_s;

    // End-to-end streaming ingest, stats only: sampling + accumulator,
    // no resident population.
    let ingest_s = time_best(|| {
        let mut session = StreamSession::new(model);
        for job in JobStream::new(&cfg, seed()).expect("valid config") {
            session.ingest(&job);
        }
        black_box(session.stats());
    });
    let ingest_rate = JOBS as f64 / ingest_s;

    // The same stats-only stream, checkpointing every 64 chunks: the
    // durability tax the ISSUE caps at 10 % of ingest throughput.
    let stride = CHECKPOINT_EVERY_CHUNKS * JOB_CHUNK;
    let mut checkpoints = 0usize;
    let mut checkpoint_bytes = 0usize;
    let ckpt_s = time_best(|| {
        checkpoints = 0;
        checkpoint_bytes = 0;
        let mut session = StreamSession::new(model);
        for (i, job) in JobStream::new(&cfg, seed())
            .expect("valid config")
            .enumerate()
        {
            session.ingest(&job);
            if (i + 1) % stride == 0 {
                let bytes = session.checkpoint().expect("on the chunk grid");
                checkpoints += 1;
                checkpoint_bytes = bytes.len();
                black_box(bytes);
            }
        }
        black_box(session.stats());
    });
    let ckpt_rate = JOBS as f64 / ckpt_s;
    let ckpt_overhead = (ckpt_s - ingest_s) / ingest_s * 100.0;

    // Columnar store fill from the same stream.
    let store_s = time_best(|| {
        let mut store = JobStore::new();
        for job in JobStream::new(&cfg, seed()).expect("valid config") {
            store.push(&job);
        }
        black_box(store.len());
    });
    let store_rate = JOBS as f64 / store_s;

    // Resident-column what-if query over the full population.
    let index = WhatIfIndex::build(&model, pop.store(), Threads::from_env());
    let query_s = time_best(|| {
        black_box(index.summary_at(QUERY_GBPS));
    });
    let query_rate = JOBS as f64 / query_s;

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = format!(
        "{{\n  \"workload_jobs\": {JOBS},\n  \"host_cpus\": {host_cpus},\n  \
         \"timing\": \"best of {TIMING_RUNS} runs, wall clock\",\n  \
         \"characterize_serial_jobs_per_sec\": {char_rate:.0},\n  \
         \"stream_ingest\": {{\n    \
         \"stats_only_jobs_per_sec\": {ingest_rate:.0},\n    \
         \"checkpointed_jobs_per_sec\": {ckpt_rate:.0},\n    \
         \"checkpoint_every_chunks\": {CHECKPOINT_EVERY_CHUNKS},\n    \
         \"checkpoints_taken\": {checkpoints},\n    \
         \"checkpoint_bytes\": {checkpoint_bytes},\n    \
         \"checkpoint_overhead_pct\": {ckpt_overhead:.2},\n    \
         \"columnar_store_jobs_per_sec\": {store_rate:.0}\n  }},\n  \
         \"whatif_query\": {{\n    \
         \"ethernet_gbps\": {QUERY_GBPS},\n    \
         \"indexed_jobs\": {},\n    \
         \"latency_ms\": {:.3},\n    \
         \"jobs_per_sec\": {query_rate:.0},\n    \
         \"speedup_vs_serial_characterize\": {:.1}\n  }}\n}}\n",
        index.len(),
        query_s * 1e3,
        query_rate / char_rate,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(path, &report).expect("the repo root is writable");
    println!("wrote {path}\n{report}");
    assert!(
        query_rate >= 5.0 * char_rate,
        "ISSUE acceptance: what-if query ({query_rate:.0} jobs/s) must be at least \
         5x the serial characterize baseline ({char_rate:.0} jobs/s)"
    );
    assert!(
        ckpt_overhead < 10.0,
        "ISSUE acceptance: checkpointing every {CHECKPOINT_EVERY_CHUNKS} chunks \
         ({ckpt_rate:.0} jobs/s) must cost under 10% of plain ingest \
         ({ingest_rate:.0} jobs/s); measured {ckpt_overhead:.2}%"
    );
}

criterion_group!(benches, bench_characterize, emit_report);
criterion_main!(benches);
