//! Prints one line per scheduler run for comparing two builds.
//!
//! `cargo run --release -p pai-sched --example outcome_dump -- [seed] [jobs]`
//!
//! Replays all six built-in [`PolicyKind`]s on both arrival streams of
//! the perfbench `schedule` workload — the `jobs`-job population at the
//! reproduction's seed, gangs capped at 64 GPUs, offered at load 0.6,
//! one stream drawn from `seed` and one from `derive_seed(seed, 1)` —
//! with the event log on. Each line names the stream and the policy and
//! gives the run's event count and an FNV-1a digest of
//! `format!("{:?}", outcome)`, so `cmp` of two builds' output checks
//! that every outcome is bit-identical. The defaults are the
//! reproduction's seed (1905930) and population (20000 jobs).

use pai_core::PerfModel;
use pai_hw::ClusterSpec;
use pai_sched::{
    realize_stream, run_kind, templates_from_population, ArrivalConfig, PolicyKind, SchedConfig,
};
use pai_trace::{FailureSampler, Population, PopulationConfig};

/// The reproduction's seed: it draws the population.
const POPULATION_SEED: u64 = 1_905_930;
/// Widest gang admitted, in GPUs.
const WIDTH_CAP: usize = 64;
/// Offered load as a fraction of the cluster's solo-work capacity.
const OFFERED_LOAD: f64 = 0.6;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(Ok(POPULATION_SEED), |s| s.parse())?;
    let jobs: usize = args.next().map_or(Ok(20_000), |s| s.parse())?;

    let cluster = ClusterSpec::testbed(0.7);
    let population = Population::generate(&PopulationConfig::paper_scale(jobs)?, POPULATION_SEED)?;
    let (templates, _) =
        templates_from_population(&PerfModel::paper_default(), &population, WIDTH_CAP);
    let arrival = ArrivalConfig::for_offered_load(
        &templates,
        &cluster,
        OFFERED_LOAD,
        ArrivalConfig::default().steps_range,
    )?;
    let failures = FailureSampler::paper_calibrated();
    let config = SchedConfig {
        log_events: true,
        ..SchedConfig::default()
    };
    for stream_seed in [seed, pai_par::derive_seed(seed, 1)] {
        let stream = realize_stream(&templates, &arrival, &failures, stream_seed)?;
        for kind in PolicyKind::ALL {
            let outcome = run_kind(&cluster, &stream, kind, stream_seed, &config)?;
            let digest = fnv1a(format!("{outcome:?}").as_bytes());
            println!(
                "stream {stream_seed} {}: {} events, digest {digest:#018x}",
                kind.name(),
                outcome.events.len()
            );
        }
    }
    Ok(())
}
