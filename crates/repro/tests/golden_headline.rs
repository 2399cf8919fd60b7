//! Golden snapshot of the Sec. III headline statistics.
//!
//! The fixture pins the exact numbers the summary experiment produced
//! at the pinned seed and population when the snapshot was taken,
//! each with an explicit tolerance. A failure here means the
//! reproduction's headline numbers moved — either an intentional
//! generator/model change (regenerate the fixture, see its comment)
//! or an accidental determinism break (fix the code).

use pai_core::characterize;
use pai_repro::cluster::{fig7, summary};
use pai_repro::extensions::adoption;
use pai_repro::scorecard::claims;
use pai_repro::stream::stream;
use pai_repro::{Context, POPULATION, SEED};

fn fixture() -> serde_json::Value {
    serde_json::from_str(include_str!("fixtures/headline_golden.json"))
        .expect("the committed fixture is valid JSON")
}

fn check(golden: &serde_json::Value, key: &str, actual: f64) {
    let entry = &golden["headline"][key];
    let value = entry["value"]
        .as_f64()
        .unwrap_or_else(|| panic!("fixture has {key}.value"));
    let tolerance = entry["tolerance"]
        .as_f64()
        .unwrap_or_else(|| panic!("fixture has {key}.tolerance"));
    assert!(
        (actual - value).abs() <= tolerance,
        "{key}: reproduced {actual} drifted from golden {value} (tolerance {tolerance})"
    );
}

#[test]
fn summary_matches_the_golden_snapshot() {
    let golden = fixture();
    assert_eq!(
        golden["seed"].as_u64(),
        Some(SEED),
        "fixture seed matches the harness"
    );
    assert_eq!(
        golden["population"].as_u64().map(|p| p as usize),
        Some(POPULATION),
        "fixture population matches the harness"
    );

    let j = summary(&Context::new()).json;
    check(
        &golden,
        "ps_cnode_share",
        j["ps_cnode_share"].as_f64().expect("f64"),
    );
    check(
        &golden,
        "small_model_share",
        j["small_model_share"].as_f64().expect("f64"),
    );
    check(
        &golden,
        "comm_share_cnode",
        j["cnode_level_fractions"][1].as_f64().expect("f64"),
    );
    check(
        &golden,
        "compute_share_cnode",
        j["cnode_level_fractions"][2].as_f64().expect("f64"),
    );
    check(
        &golden,
        "memory_share_cnode",
        j["cnode_level_fractions"][3].as_f64().expect("f64"),
    );
    check(
        &golden,
        "ps_over_80_comm",
        j["ps_over_80_comm"].as_f64().expect("f64"),
    );
    check(
        &golden,
        "arl_win_rate",
        j["arl_throughput_improved"].as_f64().expect("f64"),
    );
    check(
        &golden,
        "eth_100g_speedup",
        j["eth_100g_speedup"].as_f64().expect("f64"),
    );
    check(&golden, "eq3_bound", j["eq3_bound"].as_f64().expect("f64"));
}

#[test]
fn every_scorecard_claim_passes_at_the_golden_scale() {
    // The snapshot was taken with 17/17 claims PASS; the golden state
    // must not regress to CLOSE or MISS on any of them.
    let all = claims(&Context::new());
    assert!(all.len() >= 17, "only {} claims", all.len());
    let failing: Vec<String> = all
        .iter()
        .filter(|c| c.verdict() != "PASS")
        .map(|c| format!("{}: {} vs paper {}", c.statement, c.reproduced, c.paper))
        .collect();
    assert!(failing.is_empty(), "non-PASS claims: {failing:?}");
}

#[test]
fn summary_scorecard_and_characterize_report_one_headline() {
    // One characterization pass feeds the summary artifact, the
    // scorecard's fleet claims and `stream`'s `batch`; all three must
    // agree with `characterize` bit for bit.
    let ctx = Context::with_size(2_000);
    let h = characterize(&ctx.model, ctx.population.store(), ctx.threads);
    let f = h.cnode_level_fractions;
    let summary_json = summary(&ctx).json;
    let batch = &stream(&ctx).json["batch"];
    let bits = |v: &serde_json::Value| v.as_f64().expect("f64").to_bits();
    for (key, value) in [
        ("ps_cnode_share", h.ps_cnode_share),
        ("small_model_share", h.small_model_share),
        ("ps_over_80_comm", h.ps_over_80_comm),
        ("arl_throughput_improved", h.arl_throughput_improved),
        ("eth_100g_speedup", h.eth_100g_speedup),
        ("eq3_bound", h.eq3_bound),
    ] {
        assert_eq!(bits(&summary_json[key]), value.to_bits(), "summary {key}");
        assert_eq!(bits(&batch[key]), value.to_bits(), "stream batch {key}");
    }
    for (k, value) in f.iter().enumerate() {
        let key = "cnode_level_fractions";
        assert_eq!(
            bits(&summary_json[key][k]),
            value.to_bits(),
            "summary {key}[{k}]"
        );
        assert_eq!(
            bits(&batch[key][k]),
            value.to_bits(),
            "stream batch {key}[{k}]"
        );
    }

    let fleet = [
        ("PS/Worker share of cNodes", h.ps_cnode_share),
        ("jobs training models under 10 GB", h.small_model_share),
        ("weight-communication share, cNode level", f[1]),
        (
            "weight-communication share, job level",
            h.job_level_fractions[1],
        ),
        ("compute-bound share, cNode level", f[2]),
        ("memory-bound share, cNode level", f[3]),
        ("PS jobs with >80% communication", h.ps_over_80_comm),
        ("PS jobs not sped up on AllReduce-Local", h.arl_not_sped_up),
        (
            "PS jobs with throughput improved by AllReduce-Local",
            h.arl_throughput_improved,
        ),
        ("PS jobs sped up on AllReduce-Cluster", h.arc_sped_up),
        ("mean PS speedup from 25 to 100 GbE", h.eth_100g_speedup),
        ("communication-bound speedup bound", h.eq3_bound),
    ];
    let all = claims(&ctx);
    for (statement, value) in fleet {
        let claim = all
            .iter()
            .find(|c| c.statement == statement)
            .unwrap_or_else(|| panic!("no claim '{statement}'"));
        assert_eq!(claim.reproduced.to_bits(), value.to_bits(), "{statement}");
    }
}

#[test]
fn fig7_all_rows_and_adoption_before_read_the_headline_pass() {
    // Fig. 7's "all" rows and ext-adoption's "before" shares come from
    // the `characterize` pass `summary` reads, so they print its bits.
    let ctx = Context::with_size(2_000);
    let h = characterize(&ctx.model, ctx.population.store(), ctx.threads);
    let fig7_json = fig7(&ctx).json;
    let all = fig7_json
        .as_array()
        .expect("fig7 is an array of class rows")
        .iter()
        .find(|row| row["class"] == "all")
        .expect("fig7 has an \"all\" row");
    let before = &adoption(&ctx).json["before"];
    let bits = |v: &serde_json::Value| v.as_f64().expect("f64").to_bits();
    for k in 0..4 {
        let (job, cnode) = (h.job_level_fractions[k], h.cnode_level_fractions[k]);
        assert_eq!(bits(&all["job"][k]), job.to_bits(), "fig7 all job[{k}]");
        assert_eq!(
            bits(&all["cnode"][k]),
            cnode.to_bits(),
            "fig7 all cnode[{k}]"
        );
        assert_eq!(
            bits(&before[k]),
            cnode.to_bits(),
            "ext-adoption before[{k}]"
        );
    }
}
