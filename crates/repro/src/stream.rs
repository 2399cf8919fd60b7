//! The `stream` experiment: the ISSUE's streaming-characterization
//! repro.
//!
//! Three passes over the same `(config, seed)` job sequence:
//!
//! 1. **Batch**: the context's one headline pass
//!    ([`crate::Context::headline`]), [`pai_core::characterize`] over
//!    the resident columnar store at the context's thread count.
//! 2. **Streaming**: one job at a time from [`pai_trace::JobStream`]
//!    into a [`pai_trace::StreamSession`] — no population ever
//!    resident, constant memory.
//! 3. **Query**: the session's [`pai_core::WhatIfIndex`] answers
//!    "what if Ethernet were X Gbps?" from the resident columns,
//!    without re-walking the population.
//!
//! The experiment asserts nothing itself; it *reports* whether the
//! batch and streaming headline statistics are bit-identical
//! (`identical: true`), which the equivalence suite and the CI
//! byte-compare then pin. All three passes are thread-count invariant,
//! so `target/repro/stream.json` is byte-identical at any
//! `PAI_THREADS`.

use pai_trace::{JobStream, StreamSession};
use serde_json::json;

use crate::render::{pct, table};
use crate::{Context, ExperimentResult, SEED};

/// Ethernet what-if points, in Gbps: the Table I baseline, the
/// paper's Sec. III-D upgrade, and a 16× headroom probe.
pub const WHATIF_GBPS: [f64; 3] = [50.0, 100.0, 400.0];

/// The `stream` experiment.
pub fn stream(ctx: &Context) -> ExperimentResult {
    let batch = ctx.headline();

    let mut session = StreamSession::with_whatif(ctx.model);
    let jobs = JobStream::new(&ctx.config, SEED)
        // pai-lint: allow(panic-in-lib)
        .expect("the context's config generated a population, so it is valid");
    for job in jobs {
        session.ingest(&job);
    }
    let streamed = session.stats();
    let identical = *batch == streamed;

    let index = session
        .into_whatif()
        // pai-lint: allow(panic-in-lib)
        .expect("the session was built with a what-if index");
    let summaries: Vec<_> = WHATIF_GBPS
        .iter()
        .map(|&gbps| index.summary_at(gbps))
        .collect();

    let mut rows = vec![vec![
        "Ethernet (Gbps)".to_string(),
        "mean speedup".to_string(),
        "p50".to_string(),
        "p90".to_string(),
        "max".to_string(),
    ]];
    for s in &summaries {
        rows.push(vec![
            format!("{:.0}", s.ethernet_gbps),
            format!("{:.3}x", s.mean_speedup),
            format!("{:.3}x", s.p50_speedup),
            format!("{:.3}x", s.p90_speedup),
            format!("{:.2}x", s.max_speedup),
        ]);
    }
    let mut text = table(&rows);
    text.push_str(&format!(
        "\nbatch == streaming (bit-identical): {identical}\n\
         jobs characterized: {}\n\
         PS/Worker cNode share: {}\n\
         mean PS speedup at 100 GbE (accumulator): {:.3}x\n",
        batch.jobs,
        pct(batch.ps_cnode_share),
        batch.eth_100g_speedup,
    ));

    ExperimentResult {
        id: "stream",
        title: "Streaming characterization: batch vs incremental ingest, \
                plus resident-column Ethernet what-ifs",
        text,
        json: json!({
            "identical": identical,
            "batch": batch,
            "streamed": streamed,
            "whatif": summaries,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_and_streaming_agree_bitwise() {
        let r = stream(&Context::with_size(3_000));
        assert_eq!(r.json["identical"], json!(true));
        assert_eq!(r.json["batch"], r.json["streamed"]);
        assert!(r.text.contains("bit-identical): true"));
    }

    #[test]
    fn whatif_speedups_grow_with_bandwidth() {
        let r = stream(&Context::with_size(3_000));
        let means: Vec<f64> = r.json["whatif"]
            .as_array()
            .expect("array")
            .iter()
            .map(|s| s["mean_speedup"].as_f64().expect("f64"))
            .collect();
        assert_eq!(means.len(), WHATIF_GBPS.len());
        assert!(means[0] < means[1] && means[1] < means[2], "{means:?}");
        // The 100 Gbps point is the paper's ~1.7x Sec. III-D claim.
        assert!((means[1] - 1.7).abs() < 0.1, "100 GbE mean {}", means[1]);
    }

    #[test]
    fn index_query_matches_the_accumulator_headline() {
        // The accumulator's eth_100g_speedup and the index's 100 Gbps
        // summary fold in different shapes — ulp-close, never asserted
        // bit-equal.
        let r = stream(&Context::with_size(3_000));
        let acc = r.json["batch"]["eth_100g_speedup"].as_f64().expect("f64");
        let idx = r.json["whatif"][1]["mean_speedup"].as_f64().expect("f64");
        assert!((acc - idx).abs() < 1e-9, "acc {acc} vs index {idx}");
    }
}
