//! Property test: the lint report is byte-identical at any thread
//! count. The linter must satisfy the invariant it enforces — the
//! per-file lane fans out over `PAI_THREADS` workers, and the gathered
//! report may not depend on how the chunks interleave.

use pai_par::Threads;
use proptest::prelude::*;

use xtask::{lint_sources, SourceFile};

/// Source snippets mixing findings from every rule family with clean
/// code, so shuffled corpora exercise lexical rules, suppressions and
/// the cross-file semantic pass at once.
const SNIPPETS: &[&str] = &[
    // Clean: plain arithmetic.
    "pub fn add(a: u64, b: u64) -> u64 { a + b }\n",
    // Clean: seeded stream with lineage.
    "pub fn lane(seed: u64) -> u64 { let r = SplitMix64::new(seed); r }\n",
    // panic-in-lib finding.
    "pub fn f(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n",
    // Suppressed panic-in-lib.
    "pub fn g(v: &[u8]) -> u8 {\n    // pai-lint: allow(panic-in-lib) fixture\n    v.first().copied().unwrap()\n}\n",
    // rng-lineage finding.
    "pub fn h() -> u64 { let r = SplitMix64::new(7); r }\n",
    // reduction-order finding.
    "pub fn i(m: &std::collections::HashMap<u64, f64>) -> f64 { m.values().sum::<f64>() }\n",
    // hash-iteration finding (HashMap in a pub signature).
    "pub fn j(m: &HashMap<u64, u64>) -> u64 { m.len() as u64 }\n",
    // panic-transitive finding: pub entry reaching a private panic.
    "pub fn outer(v: &[u8]) -> u8 { inner(v) }\nfn inner(v: &[u8]) -> u8 { v.first().copied().expect(\"non-empty\") }\n",
    // wall-clock finding.
    "pub fn now_ms() -> u128 { std::time::Instant::now().elapsed().as_millis() }\n",
];

fn corpus(picks: &[usize]) -> Vec<SourceFile> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &pick)| SourceFile {
            rel_path: format!("crates/gen{i}/src/lib.rs"),
            src: SNIPPETS[pick % SNIPPETS.len()].to_string(),
        })
        .collect()
}

fn report_json(sources: &[SourceFile], threads: Threads) -> String {
    let (diags, suppressed) = lint_sources(sources, true, threads);
    let body = serde_json::to_string(&diags).expect("diagnostics serialize");
    format!("{body}|suppressed={suppressed}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn report_is_byte_identical_at_threads_1_and_8(
        picks in proptest::collection::vec(0usize..SNIPPETS.len(), 1usize..48),
    ) {
        let sources = corpus(&picks);
        let serial = report_json(&sources, Threads::SERIAL);
        let eight = report_json(&sources, Threads::new(8));
        prop_assert_eq!(serial, eight);
    }
}

#[test]
fn every_snippet_family_lints_deterministically_alone() {
    for (i, _) in SNIPPETS.iter().enumerate() {
        let sources = corpus(&[i]);
        assert_eq!(
            report_json(&sources, Threads::SERIAL),
            report_json(&sources, Threads::new(8)),
            "snippet {i}"
        );
    }
}
