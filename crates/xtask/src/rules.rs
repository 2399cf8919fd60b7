//! The workspace invariant rules: five token-level (lexical) rules
//! and three AST/call-graph (semantic) rules.
//!
//! Every rule exists to protect a property the reproduction's numbers
//! depend on:
//!
//! - [`HASH_ITERATION`]: `pai-par` guarantees bit-identical results at
//!   any thread count by folding in a fixed index order. Iterating a
//!   `HashMap`/`HashSet` yields values in an order that varies per
//!   process (SipHash keys are randomized), so one such iteration in a
//!   numeric fold path silently breaks the serial≡parallel oracle.
//! - [`PANIC_IN_LIB`]: the public-API crates expose typed errors
//!   (`SimError`, `ConfigError`, ...); `unwrap()`/`panic!` in library
//!   code bypasses them and turns recoverable misconfiguration into an
//!   abort mid-experiment.
//! - [`WALL_CLOCK`]: wall-clock and OS-entropy reads make runs
//!   unreproducible; all randomness must flow from seeded `SplitMix64`
//!   streams and all "time" from the simulated clock.
//! - [`LOSSY_FLOAT_CAST`]: the model crates carry FLOP/byte counts that
//!   exceed 2^24; an `as f32` cast silently rounds them and skews every
//!   downstream breakdown.
//! - [`PAR_SUFFIX`]: the `Threads`-parameter API redesign collapsed
//!   every doubled `foo`/`foo_par` pair into one function; a new
//!   public `_par` function reintroduces the doubled surface. The
//!   `#[deprecated]` compatibility shims are exempt.
//! - [`RNG_LINEAGE`]: every RNG stream must derive its seed from a
//!   function parameter, chunk index, or named seed constant — a fresh
//!   literal splits the reproduction into two seed universes, and two
//!   streams built from the same seed expression silently correlate.
//!   Taint-propagated through locals and same-crate calls
//!   ([`crate::taint`]).
//! - [`REDUCTION_ORDER`]: float accumulation is only thread-count
//!   invariant when its iteration source is index-ordered; summing a
//!   map's values folds in key order, which drifts from the chunk
//!   grid's index order the moment the keying changes.
//! - [`PANIC_TRANSITIVE`]: lexical panic detection stops at the
//!   function boundary; this rule walks the call graph so a public fn
//!   of a typed-error crate cannot reach `unwrap`/`panic!`/panicking
//!   slice helpers through any private-call chain.
//!
//! A diagnostic can be suppressed by putting
//! `// pai-lint: allow(<rule>)` on the offending line or the line
//! directly above it.

use crate::ast::Span;
use crate::callgraph::{CallGraph, PanicSite};
use crate::lexer::Tok;
use crate::symbols::SymbolTable;
use crate::taint::Taint;
use crate::FileAnalysis;

/// A lint rule: a slug (used by the allow escape hatch), the crates it
/// guards, and a token-pattern matcher.
#[derive(Debug)]
pub struct Rule {
    /// Stable machine-readable identifier, e.g. `panic-in-lib`.
    pub slug: &'static str,
    /// One-line human rationale.
    pub rationale: &'static str,
    /// Path prefixes (relative to the workspace root, `/`-separated)
    /// the rule applies to.
    pub scopes: &'static [&'static str],
    /// True when the rule only applies outside `#[cfg(test)]` items.
    pub lib_only: bool,
}

/// Crates whose public APIs expose typed errors and must not panic in
/// library code.
const PANIC_SCOPES: &[&str] = &[
    "crates/sim/src",
    "crates/trace/src",
    "crates/core/src",
    "crates/repro/src",
    "crates/faults/src",
    "crates/par/src",
    "crates/collectives/src",
    "crates/hw/src",
    "crates/sched/src",
    "crates/predict/src",
    "crates/dag/src",
];

/// Crates that compute the model-level FLOP/byte accounting.
const MODEL_SCOPES: &[&str] = &["crates/graph/src", "crates/hw/src", "crates/core/src"];

/// Every crate source tree (numeric fold paths run through all of
/// them, including the lint engine itself).
const ALL_SCOPES: &[&str] = &["crates/"];

/// Order-nondeterministic container rule.
pub const HASH_ITERATION: Rule = Rule {
    slug: "hash-iteration",
    rationale: "HashMap/HashSet iteration order is randomized per process and breaks \
                the serial\u{2261}parallel bit-identity oracle; use BTreeMap/BTreeSet \
                or an index-ordered Vec",
    scopes: ALL_SCOPES,
    lib_only: false,
};

/// Panic-free library code rule.
pub const PANIC_IN_LIB: Rule = Rule {
    slug: "panic-in-lib",
    rationale: "library code of the public-API crates must return typed errors \
                (SimError/ConfigError pattern), not unwrap/expect/panic",
    scopes: PANIC_SCOPES,
    lib_only: true,
};

/// Wall-clock / OS-entropy rule.
pub const WALL_CLOCK: Rule = Rule {
    slug: "wall-clock",
    rationale: "wall-clock and OS-entropy sources make runs unreproducible; use the \
                simulated clock and seeded SplitMix64 streams",
    scopes: ALL_SCOPES,
    lib_only: false,
};

/// Lossy float cast rule.
pub const LOSSY_FLOAT_CAST: Rule = Rule {
    slug: "lossy-float-cast",
    rationale: "`as f32` silently rounds FLOP/byte counts above 2^24 in the model \
                crates; keep accounting in f64 or integer types",
    scopes: MODEL_SCOPES,
    lib_only: false,
};

/// Doubled-parallel-API rule.
pub const PAR_SUFFIX: Rule = Rule {
    slug: "par-suffix",
    rationale: "the unified API takes a `Threads` parameter instead of doubling \
                every entry point into `foo`/`foo_par`; mark compatibility shims \
                `#[deprecated]` or fold the function into its serial twin",
    scopes: ALL_SCOPES,
    lib_only: true,
};

/// RNG seed lineage rule (semantic).
pub const RNG_LINEAGE: Rule = Rule {
    slug: "rng-lineage",
    rationale: "RNG seeds must derive from a fn parameter, chunk index, or named \
                seed constant (derive_seed lineage) — a literal seed forks the \
                seed universe and a reused seed expression correlates two streams",
    scopes: ALL_SCOPES,
    lib_only: true,
};

/// Float reduction order rule (semantic).
pub const REDUCTION_ORDER: Rule = Rule {
    slug: "reduction-order",
    rationale: "f32/f64 accumulation must fold an index-ordered source (slices, \
                ranges, ChunkedVec segments); map values/keys fold in key order, \
                which is not the chunk grid's index order",
    scopes: ALL_SCOPES,
    lib_only: true,
};

/// Transitive panic-freedom rule (semantic).
pub const PANIC_TRANSITIVE: Rule = Rule {
    slug: "panic-transitive",
    rationale: "public fns of typed-error crates must not reach unwrap/expect/\
                panic!/panicking slice helpers through any private-call chain; \
                return the crate's typed error instead",
    scopes: PANIC_SCOPES,
    lib_only: true,
};

/// The token-level rules, in reporting order.
pub const ALL_RULES: &[&Rule] = &[
    &HASH_ITERATION,
    &PANIC_IN_LIB,
    &WALL_CLOCK,
    &LOSSY_FLOAT_CAST,
    &PAR_SUFFIX,
];

/// The AST/call-graph rules, in reporting order.
pub const SEMANTIC_RULES: &[&Rule] = &[&RNG_LINEAGE, &REDUCTION_ORDER, &PANIC_TRANSITIVE];

/// One rule hit before allow-comment filtering.
#[derive(Debug, Clone)]
pub struct Hit {
    /// The rule that fired.
    pub slug: &'static str,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What was matched, e.g. `.unwrap()`.
    pub matched: String,
}

/// Runs one lexical rule's matcher over a token stream.
pub fn run_rule(rule: &Rule, toks: &[Tok]) -> Vec<Hit> {
    let mut hits = Vec::new();
    let mut push = |tok: &Tok, matched: String| {
        hits.push(Hit {
            slug: rule.slug,
            line: tok.line,
            col: tok.col,
            matched,
        });
    };
    for (i, tok) in toks.iter().enumerate() {
        if rule.lib_only && tok.in_test {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        let next2 = toks.get(i + 2).map(|t| t.text.as_str());
        let next3 = toks.get(i + 3).map(|t| t.text.as_str());
        match rule.slug {
            "hash-iteration" => {
                if matches!(
                    tok.text.as_str(),
                    "HashMap" | "HashSet" | "hash_map" | "hash_set" | "RandomState"
                ) {
                    push(tok, tok.text.clone());
                }
            }
            "panic-in-lib" => match tok.text.as_str() {
                "unwrap" | "expect" if prev == Some(".") && next == Some("(") => {
                    push(tok, format!(".{}()", tok.text));
                }
                "panic" | "unreachable" | "todo" | "unimplemented" if next == Some("!") => {
                    push(tok, format!("{}!", tok.text));
                }
                _ => {}
            },
            "wall-clock" => match tok.text.as_str() {
                "SystemTime" | "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => {
                    push(tok, tok.text.clone());
                }
                "Instant" if next == Some(":") && next2 == Some(":") && next3 == Some("now") => {
                    push(tok, "Instant::now".to_string());
                }
                _ => {}
            },
            "lossy-float-cast" => {
                if tok.text == "as" && next == Some("f32") {
                    push(tok, "as f32".to_string());
                }
            }
            "par-suffix" => {
                if tok.text == "pub"
                    && next == Some("fn")
                    && toks
                        .get(i + 2)
                        .is_some_and(|t| t.text.ends_with("_par") && t.text.len() > 4)
                    && !has_deprecated_attr(toks, i)
                {
                    let name = &toks[i + 2];
                    push(name, format!("pub fn {}", name.text));
                }
            }
            _ => unreachable!("unknown rule slug {}", rule.slug),
        }
    }
    hits
}

/// One semantic-rule finding: the file it lands in, the rule, and the
/// hit payload.
#[derive(Debug)]
pub struct SemanticHit {
    /// Index into the analyzed file slice.
    pub file: usize,
    /// The rule that fired.
    pub rule: &'static Rule,
    /// Span of the finding.
    pub span: Span,
    /// What was matched (for `panic-transitive`, the whole chain).
    pub matched: String,
}

/// Runs the three semantic rules over the parsed workspace: builds the
/// symbol table and call graph, then walks every function once. The
/// output order is a pure function of the input file order.
pub fn run_semantic(files: &[FileAnalysis], all_rules: bool) -> Vec<SemanticHit> {
    let table = SymbolTable::build(files);
    let graph = CallGraph::build(files, &table);
    let taint = Taint::new(files, &table);
    let mut hits = Vec::new();

    for id in 0..table.fns.len() {
        let (def, decl_span) = table.def(files, id);
        let file = table.file_of(id);
        let rel = files[file].rel_path.as_str();
        if def.in_test {
            // Every semantic rule is lib-only: test code may seed
            // ad hoc, sum ad hoc, and unwrap freely.
            continue;
        }

        if all_rules || in_scope(&RNG_LINEAGE, rel) {
            for h in taint.rng_lineage(id) {
                hits.push(SemanticHit {
                    file,
                    rule: &RNG_LINEAGE,
                    span: h.span,
                    matched: h.matched,
                });
            }
        }

        if all_rules || in_scope(&REDUCTION_ORDER, rel) {
            for h in taint.reduction_order(id) {
                hits.push(SemanticHit {
                    file,
                    rule: &REDUCTION_ORDER,
                    span: h.span,
                    matched: h.matched,
                });
            }
        }

        if def.is_pub && !def.is_deprecated && (all_rules || in_scope(&PANIC_TRANSITIVE, rel)) {
            let enter = |t: usize| {
                let (tdef, _) = table.def(files, t);
                !tdef.in_test
                    && (all_rules || in_scope(&PANIC_TRANSITIVE, &files[table.file_of(t)].rel_path))
            };
            let site_live = |sid: usize, site: &PanicSite| {
                // Direct unwrap/panic in the fn itself is the lexical
                // rule's finding; this rule owns the transitive chains
                // and the slice-helper tier the lexer can't see.
                if sid == id && !site.slice {
                    return false;
                }
                let lines = &files[table.file_of(sid)].lines;
                !site_allowed(lines, site.span.line)
            };
            if let Some((chain, site)) = graph.find_panic_chain(id, &enter, &site_live) {
                let names: Vec<&str> = chain
                    .iter()
                    .map(|&c| table.def(files, c).0.name.as_str())
                    .collect();
                hits.push(SemanticHit {
                    file,
                    rule: &PANIC_TRANSITIVE,
                    span: decl_span,
                    matched: format!("`{}` via {}", site.what, names.join(" -> ")),
                });
            }
        }
    }
    hits
}

/// True when a panic *site* is allowed by either the lexical or the
/// transitive panic escape hatch — an allowed site is clean and stops
/// propagating through the call graph.
fn site_allowed(lines: &[String], line: usize) -> bool {
    let check = |l: &String| {
        l.contains("pai-lint: allow(panic-in-lib)")
            || l.contains("pai-lint: allow(panic-transitive)")
    };
    let here = line.checked_sub(1).and_then(|i| lines.get(i));
    let above = line.checked_sub(2).and_then(|i| lines.get(i));
    here.is_some_and(check) || above.is_some_and(check)
}

/// True when the item starting at token `i` carries a `deprecated`
/// attribute token in the attribute stack directly above it.
///
/// String literals lex to nothing, so `#[deprecated(note = "...")]`
/// arrives as `# [ deprecated ( note = ) ]`; the scan walks the
/// stacked `#[...]` groups backwards from the `pub` keyword.
fn has_deprecated_attr(toks: &[Tok], start: usize) -> bool {
    let mut i = start;
    while i > 0 && toks[i - 1].text == "]" {
        let mut j = i - 1;
        let mut depth = 1usize;
        let mut found = false;
        while j > 0 && depth > 0 {
            j -= 1;
            match toks[j].text.as_str() {
                "]" => depth += 1,
                "[" => depth -= 1,
                "deprecated" => found = true,
                _ => {}
            }
        }
        if depth != 0 || j == 0 || toks[j - 1].text != "#" {
            return false;
        }
        if found {
            return true;
        }
        i = j - 1;
    }
    false
}

/// True when `rel_path` (always `/`-separated) is inside one of the
/// rule's scopes.
pub fn in_scope(rule: &Rule, rel_path: &str) -> bool {
    rule.scopes.iter().any(|s| rel_path.starts_with(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn panic_rule_needs_method_call_shape() {
        let toks = tokenize("fn expect(x: u8) {} let y = v.expect(\"m\"); w.unwrap();");
        let hits = run_rule(&PANIC_IN_LIB, &toks);
        let matched: Vec<&str> = hits.iter().map(|h| h.matched.as_str()).collect();
        assert_eq!(matched, vec![".expect()", ".unwrap()"]);
    }

    #[test]
    fn panic_rule_skips_test_modules() {
        let toks = tokenize("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }");
        assert!(run_rule(&PANIC_IN_LIB, &toks).is_empty());
    }

    #[test]
    fn macro_panics_fire() {
        let toks = tokenize("panic!(\"boom\"); unreachable!(); todo!()");
        assert_eq!(run_rule(&PANIC_IN_LIB, &toks).len(), 3);
    }

    #[test]
    fn hash_rule_fires_on_type_and_module_paths() {
        let toks = tokenize("use std::collections::hash_map::Entry; let m: HashMap<A, B>;");
        assert_eq!(run_rule(&HASH_ITERATION, &toks).len(), 2);
    }

    #[test]
    fn wall_clock_rule_distinguishes_instant_now() {
        let toks = tokenize("let d: Instant = x; let t = Instant::now(); SystemTime::now();");
        let hits = run_rule(&WALL_CLOCK, &toks);
        let matched: Vec<&str> = hits.iter().map(|h| h.matched.as_str()).collect();
        assert_eq!(matched, vec!["Instant::now", "SystemTime"]);
    }

    #[test]
    fn lossy_cast_rule() {
        let toks = tokenize("let x = n as f64; let y = n as f32;");
        assert_eq!(run_rule(&LOSSY_FLOAT_CAST, &toks).len(), 1);
    }

    #[test]
    fn par_suffix_fires_on_live_pub_fn() {
        let toks = tokenize("pub fn breakdown_all_par(x: u8) {}\nfn helper_par() {}");
        let hits = run_rule(&PAR_SUFFIX, &toks);
        assert_eq!(hits.len(), 1, "private fns are not public surface");
        assert_eq!(hits[0].matched, "pub fn breakdown_all_par");
    }

    #[test]
    fn par_suffix_exempts_deprecated_shims() {
        let toks = tokenize(
            "#[deprecated(note = \"use `sweep`\")]\npub fn sweep_par(x: u8) {}\n\
             /// Docs.\n#[must_use]\n#[deprecated]\npub fn run_par(x: u8) {}",
        );
        assert!(run_rule(&PAR_SUFFIX, &toks).is_empty());
    }

    #[test]
    fn par_suffix_skips_test_code_and_bare_par() {
        let toks = tokenize("#[cfg(test)]\nmod tests { pub fn oracle_par() {} }\npub fn par() {}");
        assert!(run_rule(&PAR_SUFFIX, &toks).is_empty());
    }

    #[test]
    fn scoping_is_prefix_based() {
        assert!(in_scope(&PANIC_IN_LIB, "crates/sim/src/executor.rs"));
        assert!(in_scope(&PANIC_IN_LIB, "crates/sched/src/engine.rs"));
        // The checkpoint codec, ingest validation, and chaos modules
        // sit inside already-scoped crates; pin that they stay linted.
        assert!(in_scope(&PANIC_IN_LIB, "crates/core/src/codec.rs"));
        assert!(in_scope(&PANIC_IN_LIB, "crates/core/src/features.rs"));
        assert!(in_scope(&PANIC_IN_LIB, "crates/trace/src/stream.rs"));
        assert!(in_scope(&PANIC_IN_LIB, "crates/faults/src/chaos.rs"));
        // The predictor is library code with a typed PredictError —
        // both panic-free and wall-clock rules must cover it.
        assert!(in_scope(&PANIC_IN_LIB, "crates/predict/src/store.rs"));
        // The DAG step-time evaluator prices untrusted graph sizes;
        // its lib code must stay panic-free and wall-clock-free.
        assert!(in_scope(&PANIC_IN_LIB, "crates/dag/src/evaluate.rs"));
        assert!(in_scope(&PANIC_TRANSITIVE, "crates/dag/src/engine.rs"));
        assert!(!in_scope(
            &PANIC_IN_LIB,
            "crates/dag/tests/zoo_properties.rs"
        ));
        assert!(in_scope(&WALL_CLOCK, "crates/predict/src/signature.rs"));
        assert!(!in_scope(
            &PANIC_IN_LIB,
            "crates/sched/tests/determinism.rs"
        ));
        assert!(!in_scope(&PANIC_IN_LIB, "crates/predict/tests/accuracy.rs"));
        assert!(!in_scope(&PANIC_IN_LIB, "crates/graph/src/graph.rs"));
        assert!(in_scope(&LOSSY_FLOAT_CAST, "crates/graph/src/op.rs"));
        assert!(in_scope(&HASH_ITERATION, "crates/xtask/src/main.rs"));
        // The semantic rules' scoping: panic-transitive follows the
        // typed-error crate set, the dataflow rules cover everything.
        assert!(in_scope(&PANIC_TRANSITIVE, "crates/trace/src/stream.rs"));
        assert!(!in_scope(&PANIC_TRANSITIVE, "crates/graph/src/graph.rs"));
        assert!(in_scope(&RNG_LINEAGE, "crates/graph/src/graph.rs"));
        assert!(in_scope(&REDUCTION_ORDER, "crates/xtask/src/rules.rs"));
    }

    // ---- semantic-rule integration (built via FileAnalysis) -------

    fn semantic(srcs: &[(&str, &str)], all_rules: bool) -> Vec<SemanticHit> {
        let files: Vec<FileAnalysis> = srcs
            .iter()
            .map(|(p, s)| FileAnalysis::analyze(p, s, all_rules))
            .collect();
        run_semantic(&files, all_rules)
    }

    #[test]
    fn transitive_panic_is_found_through_private_chains() {
        let hits = semantic(
            &[(
                "crates/sim/src/a.rs",
                "pub fn entry(v: &[u8]) -> u8 { hop(v) }\n\
                 fn hop(v: &[u8]) -> u8 { inner(v) }\n\
                 fn inner(v: &[u8]) -> u8 { *v.first().unwrap() }",
            )],
            false,
        );
        let transitive: Vec<&SemanticHit> = hits
            .iter()
            .filter(|h| h.rule.slug == "panic-transitive")
            .collect();
        assert_eq!(transitive.len(), 1, "{hits:?}");
        assert_eq!(transitive[0].span.line, 1);
        assert!(transitive[0].matched.contains("entry -> hop -> inner"));
    }

    #[test]
    fn direct_unwrap_belongs_to_the_lexical_rule_only() {
        let hits = semantic(
            &[(
                "crates/sim/src/a.rs",
                "pub fn entry(v: &[u8]) -> u8 { *v.first().unwrap() }",
            )],
            false,
        );
        assert!(
            hits.iter().all(|h| h.rule.slug != "panic-transitive"),
            "distance-0 unwrap is panic-in-lib's finding: {hits:?}"
        );
    }

    #[test]
    fn direct_slice_helpers_are_the_transitive_rules_tier() {
        let hits = semantic(
            &[(
                "crates/sim/src/a.rs",
                "pub fn entry(v: &[u8]) -> (&[u8], &[u8]) { v.split_at(4) }",
            )],
            false,
        );
        let transitive: Vec<&SemanticHit> = hits
            .iter()
            .filter(|h| h.rule.slug == "panic-transitive")
            .collect();
        assert_eq!(transitive.len(), 1, "{hits:?}");
        assert!(transitive[0].matched.contains("split_at"));
    }

    #[test]
    fn allowed_panic_sites_stop_propagation() {
        let hits = semantic(
            &[(
                "crates/sim/src/a.rs",
                "pub fn entry() { hop(); }\n\
                 fn hop() {\n\
                 // pai-lint: allow(panic-in-lib)\n\
                 panic!(\"executor corruption must stay loud\");\n\
                 }",
            )],
            false,
        );
        assert!(
            hits.iter().all(|h| h.rule.slug != "panic-transitive"),
            "{hits:?}"
        );
    }

    #[test]
    fn exempt_crates_do_not_propagate_panics_inward() {
        // graph is outside the typed-error set: a sim pub fn calling
        // into pai_graph code that panics is a documented `# Panics`
        // contract, not a finding.
        let hits = semantic(
            &[
                (
                    "crates/sim/src/a.rs",
                    "pub fn entry() { pai_graph::lookup(3); }",
                ),
                (
                    "crates/graph/src/lib.rs",
                    "pub fn lookup(i: u64) { panic!(\"no such op\"); }",
                ),
            ],
            false,
        );
        assert!(
            hits.iter().all(|h| h.rule.slug != "panic-transitive"),
            "{hits:?}"
        );
    }
}
