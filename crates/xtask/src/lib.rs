#![warn(missing_docs)]
//! `pai-lint`: the workspace static-analysis engine behind
//! `cargo xtask lint`.
//!
//! Three passes run under one report:
//!
//! 1. **Lexical pass** — a token-level walk over every `crates/*/src`
//!    file (no crates.io access, so no `syn`; see [`lexer`]) enforcing
//!    the determinism, panic-safety, wall-clock and precision rules in
//!    [`rules`]. Runs per file through `pai-par` lanes with in-order
//!    gather, so the report is bit-identical at any `PAI_THREADS`.
//! 2. **Semantic pass** — a recursive-descent [`parser`] turns each
//!    token stream into a lightweight AST ([`ast`]); a workspace
//!    [`symbols::SymbolTable`] and interprocedural
//!    [`callgraph::CallGraph`] then drive the three dataflow rules
//!    (RNG lineage, reduction order, transitive panic-freedom — see
//!    [`taint`] and [`rules::run_semantic`]).
//! 3. **Graph validator** — [`pai_graph::passes::validate`] run over
//!    every zoo model (training, inference and optimized variants), so
//!    the FLOPs/`S_mem` inputs to the closed-form `Tc` are proven
//!    consistent rather than assumed.
//!
//! Diagnostics carry file/line/col spans, serialize to a
//! machine-readable JSON report, and honor an inline
//! `// pai-lint: allow(<rule>)` escape hatch on the offending line or
//! the line above it.

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod taint;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use pai_par::Threads;
use serde::Serialize;

use rules::ALL_RULES;

/// Files per `pai-par` chunk in the per-file lexical/parse lane.
/// Fixed (never thread-count derived) so the decomposition — and with
/// it the report — is a pure function of the input file list.
const FILES_PER_CHUNK: usize = 4;

/// One finding, with enough span information for an editor jump.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostic {
    /// Workspace-relative `/`-separated path (or `zoo://<model>` for
    /// graph-validator findings).
    pub file: String,
    /// 1-based line (0 for graph-level findings).
    pub line: usize,
    /// 1-based column (0 for graph-level findings).
    pub col: usize,
    /// The rule slug, e.g. `panic-in-lib` or `graph-validate`.
    pub rule: String,
    /// The matched construct, e.g. `.unwrap()`.
    pub matched: String,
    /// Human-readable rationale.
    pub message: String,
}

impl Diagnostic {
    /// Renders `file:line:col: [rule] matched — message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] `{}` — {}",
            self.file, self.line, self.col, self.rule, self.matched, self.message
        )
    }
}

/// The machine-readable lint report (`--json`).
#[derive(Debug, Serialize)]
pub struct Report {
    /// Report schema version (2 = semantic rules added).
    pub version: u32,
    /// Number of `.rs` files scanned by pass 1.
    pub files_scanned: usize,
    /// Number of graphs checked by pass 2.
    pub graphs_validated: usize,
    /// Findings (empty on a clean tree).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by `pai-lint: allow(...)` comments.
    pub suppressed: usize,
}

/// One input file for [`lint_sources`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel_path: String,
    /// The file contents.
    pub src: String,
}

/// One file's lane output: its lexical findings plus the parsed items
/// and raw lines the serial semantic pass consumes after the gather.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative `/`-separated path.
    pub rel_path: String,
    /// The file's lines (for allow-comment checks at semantic spans).
    pub lines: Vec<String>,
    /// The parsed item list.
    pub items: Vec<ast::Item>,
    /// Lexical diagnostics, allow-filtered.
    pub diagnostics: Vec<Diagnostic>,
    /// Lexical findings silenced by allow comments.
    pub suppressed: usize,
}

impl FileAnalysis {
    /// Tokenizes, parses and lexically lints one file. Pure — this is
    /// the per-file unit of work the `pai-par` lanes map.
    pub fn analyze(rel_path: &str, src: &str, all_rules: bool) -> FileAnalysis {
        let toks = lexer::tokenize(src);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let mut diagnostics = Vec::new();
        let mut suppressed = 0usize;
        for rule in ALL_RULES {
            if !all_rules && !rules::in_scope(rule, rel_path) {
                continue;
            }
            for hit in rules::run_rule(rule, &toks) {
                if is_allowed(&lines, hit.line, rule.slug) {
                    suppressed += 1;
                    continue;
                }
                diagnostics.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: hit.line,
                    col: hit.col,
                    rule: rule.slug.to_string(),
                    matched: hit.matched,
                    message: rule.rationale.to_string(),
                });
            }
        }
        let items = parser::parse_items(&toks);
        FileAnalysis {
            rel_path: rel_path.to_string(),
            lines,
            items,
            diagnostics,
            suppressed,
        }
    }
}

/// Lints a set of sources: the per-file lexical/parse lane runs
/// through `pai-par` with in-order gather, then the semantic pass
/// (symbol table, call graph, dataflow rules) runs serially over the
/// gathered analyses. Returns `(diagnostics, suppressed)` sorted by
/// `(file, line, col, rule)` — byte-identical at any thread count.
pub fn lint_sources(
    sources: &[SourceFile],
    all_rules: bool,
    threads: Threads,
) -> (Vec<Diagnostic>, usize) {
    let files: Vec<FileAnalysis> = pai_par::map_items(sources, FILES_PER_CHUNK, threads, |sf| {
        FileAnalysis::analyze(&sf.rel_path, &sf.src, all_rules)
    });
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut suppressed = 0usize;
    for fa in &files {
        diags.extend(fa.diagnostics.iter().cloned());
        suppressed += fa.suppressed;
    }
    for hit in rules::run_semantic(&files, all_rules) {
        let fa = &files[hit.file];
        if is_allowed(&fa.lines, hit.span.line, hit.rule.slug) {
            suppressed += 1;
            continue;
        }
        diags.push(Diagnostic {
            file: fa.rel_path.clone(),
            line: hit.span.line,
            col: hit.span.col,
            rule: hit.rule.slug.to_string(),
            matched: hit.matched,
            message: hit.rule.rationale.to_string(),
        });
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    (diags, suppressed)
}

/// Lints one source file serially (both passes, single-file symbol
/// table). Convenience wrapper over [`lint_sources`].
pub fn lint_source(rel_path: &str, src: &str, all_rules: bool) -> (Vec<Diagnostic>, usize) {
    let sources = [SourceFile {
        rel_path: rel_path.to_string(),
        src: src.to_string(),
    }];
    lint_sources(&sources, all_rules, Threads::SERIAL)
}

/// True when `line` (1-based) or the line above carries
/// `pai-lint: allow(<slug>)`.
fn is_allowed(lines: &[String], line: usize, slug: &str) -> bool {
    let needle = format!("pai-lint: allow({slug})");
    let here = line.checked_sub(1).and_then(|i| lines.get(i));
    let above = line.checked_sub(2).and_then(|i| lines.get(i));
    here.is_some_and(|l| l.contains(&needle)) || above.is_some_and(|l| l.contains(&needle))
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic reports.
pub fn collect_rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every `.rs` file under the given roots. Paths in diagnostics
/// are reported relative to `workspace_root`.
pub fn lint_paths(
    workspace_root: &Path,
    roots: &[PathBuf],
    all_rules: bool,
    threads: Threads,
) -> io::Result<(Vec<Diagnostic>, usize, usize)> {
    let mut sources = Vec::new();
    for root in roots {
        for file in collect_rs_files(root)? {
            let rel = file
                .strip_prefix(workspace_root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let src = fs::read_to_string(&file)?;
            sources.push(SourceFile { rel_path: rel, src });
        }
    }
    let scanned = sources.len();
    let (diags, suppressed) = lint_sources(&sources, all_rules, threads);
    Ok((diags, scanned, suppressed))
}

/// The default pass-1 scan roots: every `crates/*/src` directory.
pub fn default_roots(workspace_root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = Vec::new();
    for entry in fs::read_dir(workspace_root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            roots.push(src);
        }
    }
    roots.sort();
    Ok(roots)
}

/// Pass 3: validates every zoo model — training graphs against their
/// Table V targets, plus the inference and optimized (XLA fusion +
/// mixed precision) variants — returning one diagnostic per defect.
pub fn validate_zoo() -> (Vec<Diagnostic>, usize) {
    use pai_graph::passes::validate;
    use pai_graph::passes::{apply_mixed_precision, fuse_elementwise};
    use pai_graph::zoo;

    let mut out = Vec::new();
    let mut graphs = 0usize;
    let mut record = |model: String, findings: Vec<validate::Diagnostic>| {
        for f in findings {
            out.push(Diagnostic {
                file: model.clone(),
                line: 0,
                col: 0,
                rule: "graph-validate".to_string(),
                matched: f.defect.slug().to_string(),
                message: f.message,
            });
        }
    };
    for spec in zoo::all() {
        graphs += 1;
        record(
            format!("zoo://{}", spec.name()),
            validate::validate_model(&spec),
        );
        let serve = zoo::inference::inference_variant(&spec);
        graphs += 1;
        record(
            format!("zoo://{}/inference", spec.name()),
            validate::validate_model_graph(serve.graph()),
        );
        let fused = fuse_elementwise(spec.graph());
        let (optimized, _) = apply_mixed_precision(&fused);
        graphs += 1;
        // The optimized variant is still a training graph: the
        // backward-augmented checks (acyclic, every gradient tensor
        // has a producer) must survive XLA fusion + AMP rewriting.
        record(
            format!("zoo://{}/optimized", spec.name()),
            validate::validate_training_graph(&optimized),
        );
    }
    (out, graphs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_comment_suppresses_same_line() {
        let src = "fn f() { x.unwrap(); } // pai-lint: allow(panic-in-lib)";
        let (d, s) = lint_source("crates/sim/src/executor.rs", src, false);
        assert!(d.is_empty());
        assert_eq!(s, 1);
    }

    #[test]
    fn allow_comment_suppresses_line_above() {
        let src = "// pai-lint: allow(wall-clock)\nuse std::time::SystemTime;";
        let (d, s) = lint_source("crates/sim/src/executor.rs", src, false);
        assert!(d.is_empty());
        assert_eq!(s, 1);
    }

    #[test]
    fn allow_comment_is_rule_specific() {
        let src = "// pai-lint: allow(wall-clock)\nfn f() { x.unwrap(); }";
        let (d, _) = lint_source("crates/sim/src/executor.rs", src, false);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "panic-in-lib");
    }

    #[test]
    fn scoping_limits_rules_per_crate() {
        // graph is exempt from panic-in-lib (documented `# Panics`
        // contracts) but not from the float-cast rule.
        let src = "fn f() { x.unwrap(); let y = n as f32; }";
        let (d, _) = lint_source("crates/graph/src/op.rs", src, false);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lossy-float-cast");
    }

    #[test]
    fn all_rules_flag_ignores_scoping() {
        let src = "fn f() { x.unwrap(); }";
        let (d, _) = lint_source("fixtures/bad.rs", src, true);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn diagnostics_render_with_spans() {
        let (d, _) = lint_source("crates/sim/src/a.rs", "fn f() { panic!(\"x\") }", false);
        assert_eq!(d.len(), 1);
        let r = d[0].render();
        assert!(r.contains("crates/sim/src/a.rs:1:"), "{r}");
        assert!(r.contains("panic-in-lib"), "{r}");
    }

    #[test]
    fn semantic_diagnostics_flow_through_lint_source() {
        let src = "pub fn entry(v: &[u8]) -> u8 { hop(v) }\n\
                   fn hop(v: &[u8]) -> u8 { *v.first().unwrap() }";
        let (d, _) = lint_source("crates/sim/src/a.rs", src, false);
        let rules: Vec<&str> = d.iter().map(|x| x.rule.as_str()).collect();
        assert!(rules.contains(&"panic-in-lib"), "{rules:?}");
        assert!(rules.contains(&"panic-transitive"), "{rules:?}");
    }

    #[test]
    fn semantic_suppression_is_counted() {
        let src = "// pai-lint: allow(rng-lineage)\n\
                   fn f() { let r = SplitMix64::new(42); }";
        let (d, s) = lint_source("crates/sim/src/a.rs", src, false);
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(s, 1);
    }

    #[test]
    fn reports_are_identical_at_any_thread_count() {
        let sources: Vec<SourceFile> = (0..40)
            .map(|i| SourceFile {
                rel_path: format!("crates/sim/src/gen{i}.rs"),
                src: format!(
                    "pub fn entry{i}(v: &[u8]) -> u8 {{ hop{i}(v) }}\n\
                     fn hop{i}(v: &[u8]) -> u8 {{ *v.first().unwrap() }}\n\
                     fn seed{i}() {{ let r = SplitMix64::new({i}); }}"
                ),
            })
            .collect();
        let serial = lint_sources(&sources, false, Threads::SERIAL);
        for t in [2usize, 8] {
            let parallel = lint_sources(&sources, false, Threads::new(t));
            assert_eq!(
                serde_json::to_string(&serial.0).unwrap(),
                serde_json::to_string(&parallel.0).unwrap(),
                "diverged at {t} threads"
            );
            assert_eq!(serial.1, parallel.1);
        }
        // And the findings themselves are the expected ones.
        assert!(serial.0.iter().any(|d| d.rule == "panic-transitive"));
        assert!(serial.0.iter().any(|d| d.rule == "rng-lineage"));
    }
}
