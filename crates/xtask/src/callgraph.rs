//! The interprocedural call graph and per-function panic-site index.
//!
//! Edges come from [`crate::ast::ExprKind::Call`] /
//! [`crate::ast::ExprKind::MethodCall`] nodes resolved through the
//! [`crate::symbols::SymbolTable`]:
//!
//! - `name(..)` and `module::name(..)` resolve union-by-name within
//!   the calling crate;
//! - `Type::name(..)` resolves to same-crate impls of `Type` (with
//!   `Self::` mapped through the caller's impl type);
//! - `pai_x::…::name(..)` resolves cross-crate to crate `x`;
//! - `recv.name(..)` resolves union-by-name over same-crate methods.
//!
//! An unresolved callee (std, vendored deps) produces no edge and is
//! treated as clean — the graph only has to cover workspace-internal
//! chains. Reachability is a plain BFS over sorted adjacency with a
//! visited set, so recursion and call cycles terminate.

use crate::ast::{Expr, ExprKind, Span};
use crate::symbols::SymbolTable;
use crate::FileAnalysis;

/// Method names that panic on bad indices/lengths instead of
/// returning a checked result — the slice-helper tier of the
/// transitive panic rule.
pub const SLICE_HELPERS: &[&str] = &[
    "split_at",
    "split_at_mut",
    "copy_from_slice",
    "clone_from_slice",
];

/// Macros that unconditionally abort.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One resolved (or unresolved) call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee's name (last path segment / method name).
    pub name: String,
    /// Resolved target fn ids, sorted; empty when the callee is
    /// outside the analyzed set.
    pub targets: Vec<usize>,
}

/// One direct panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Span of the panicking token.
    pub span: Span,
    /// What was matched, e.g. `.unwrap()` or `split_at`.
    pub what: String,
    /// True for the slice-helper tier (`split_at` &c.), which the
    /// lexical panic rule does not already cover.
    pub slice: bool,
}

/// The call graph: per-fn call sites and panic sites, indexed by the
/// symbol table's fn-id space.
pub struct CallGraph {
    /// Call sites per function, in source order.
    pub calls: Vec<Vec<CallSite>>,
    /// Direct panic sites per function, in source order.
    pub panics: Vec<Vec<PanicSite>>,
}

impl CallGraph {
    /// Extracts calls and panic sites from every function body.
    pub fn build(files: &[FileAnalysis], table: &SymbolTable) -> CallGraph {
        let mut calls = Vec::with_capacity(table.fns.len());
        let mut panics = Vec::with_capacity(table.fns.len());
        for id in 0..table.fns.len() {
            let (def, _) = table.def(files, id);
            let crate_name = &table.crates[table.file_of(id)];
            let mut fn_calls = Vec::new();
            let mut fn_panics = Vec::new();
            if let Some(body) = &def.body {
                body.walk_exprs(&mut |e| {
                    collect_site(
                        e,
                        files,
                        table,
                        crate_name,
                        def.self_type.as_deref(),
                        &mut fn_calls,
                        &mut fn_panics,
                    );
                });
            }
            calls.push(fn_calls);
            panics.push(fn_panics);
        }
        CallGraph { calls, panics }
    }

    /// Shortest call chain (as fn ids, starting at `from`) to a
    /// function whose panic sites pass `site_live`, following only
    /// edges into functions accepted by `enter`. Returns the chain
    /// and the first live panic site of its last function. A chain of
    /// length 1 means a panic site in `from` itself.
    ///
    /// BFS over a visited set: cyclic and recursive graphs terminate.
    pub fn find_panic_chain(
        &self,
        from: usize,
        enter: &dyn Fn(usize) -> bool,
        site_live: &dyn Fn(usize, &PanicSite) -> bool,
    ) -> Option<(Vec<usize>, PanicSite)> {
        let mut parent: Vec<Option<usize>> = vec![None; self.calls.len()];
        let mut visited = vec![false; self.calls.len()];
        let mut queue = std::collections::VecDeque::new();
        visited[from] = true;
        queue.push_back(from);
        while let Some(id) = queue.pop_front() {
            if let Some(site) = self.panics[id].iter().find(|s| site_live(id, s)) {
                let mut chain = vec![id];
                let mut cur = id;
                while let Some(p) = parent[cur] {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                return Some((chain, site.clone()));
            }
            for call in &self.calls[id] {
                for &t in &call.targets {
                    if !visited[t] && enter(t) {
                        visited[t] = true;
                        parent[t] = Some(id);
                        queue.push_back(t);
                    }
                }
            }
        }
        None
    }
}

/// Records the call/panic facts of one expression node (the walk
/// visits every node, so only the node itself is inspected here).
fn collect_site(
    e: &Expr,
    files: &[FileAnalysis],
    table: &SymbolTable,
    crate_name: &str,
    self_type: Option<&str>,
    calls: &mut Vec<CallSite>,
    panics: &mut Vec<PanicSite>,
) {
    match &e.kind {
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                let (name, targets) = resolve_path(segs, files, table, crate_name, self_type);
                if let Some(name) = name {
                    calls.push(CallSite { name, targets });
                }
            }
        }
        ExprKind::MethodCall { method, .. } => {
            match method.as_str() {
                "unwrap" | "expect" => panics.push(PanicSite {
                    span: e.span,
                    what: format!(".{method}()"),
                    slice: false,
                }),
                m if SLICE_HELPERS.contains(&m) => panics.push(PanicSite {
                    span: e.span,
                    what: method.clone(),
                    slice: true,
                }),
                _ => {}
            }
            // Union-by-name over same-crate methods; free fns don't
            // answer method calls.
            let mut targets: Vec<usize> = table
                .resolve(crate_name, method)
                .iter()
                .copied()
                .filter(|&id| table.def(files, id).0.self_type.is_some())
                .collect();
            targets.sort_unstable();
            if !targets.is_empty() {
                calls.push(CallSite {
                    name: method.clone(),
                    targets,
                });
            }
        }
        ExprKind::MacroCall { name, .. } if PANIC_MACROS.contains(&name.as_str()) => {
            panics.push(PanicSite {
                span: e.span,
                what: format!("{name}!"),
                slice: false,
            });
        }
        _ => {}
    }
}

/// Resolves a call-path to candidate fn ids. Returns `(None, _)` for
/// shapes that cannot be workspace calls (empty paths).
fn resolve_path(
    segs: &[String],
    files: &[FileAnalysis],
    table: &SymbolTable,
    crate_name: &str,
    self_type: Option<&str>,
) -> (Option<String>, Vec<usize>) {
    let stripped: Vec<&str> = segs
        .iter()
        .map(String::as_str)
        .skip_while(|s| matches!(*s, "crate" | "self" | "super"))
        .collect();
    let Some((&last, qualifiers)) = stripped.split_last() else {
        return (None, Vec::new());
    };
    let name = last.to_string();
    let mut targets: Vec<usize> = match qualifiers.first() {
        None => table.resolve(crate_name, last).to_vec(),
        Some(&first) => {
            if let Some(dep) = first.strip_prefix("pai_") {
                table.resolve(dep, last).to_vec()
            } else if first == "Self" {
                let ty = self_type;
                table
                    .resolve(crate_name, last)
                    .iter()
                    .copied()
                    .filter(|&id| table.def(files, id).0.self_type.as_deref() == ty)
                    .collect()
            } else if first.chars().next().is_some_and(char::is_uppercase) {
                // `Type::assoc(..)`: same-crate impls of that type
                // only — `Vec::new(..)` must not resolve to an
                // unrelated local `new`.
                table
                    .resolve(crate_name, last)
                    .iter()
                    .copied()
                    .filter(|&id| table.def(files, id).0.self_type.as_deref() == Some(first))
                    .collect()
            } else if first == "std" || first == "core" || first == "alloc" {
                Vec::new()
            } else {
                // Lowercase module path inside the same crate
                // (modules are flattened).
                table.resolve(crate_name, last).to_vec()
            }
        }
    };
    targets.sort_unstable();
    (Some(name), targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(srcs: &[(&str, &str)]) -> (Vec<FileAnalysis>, SymbolTable, CallGraph) {
        let files: Vec<FileAnalysis> = srcs
            .iter()
            .map(|(p, s)| FileAnalysis::analyze(p, s, true))
            .collect();
        let table = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &table);
        (files, table, graph)
    }

    fn id_of(files: &[FileAnalysis], table: &SymbolTable, name: &str) -> usize {
        (0..table.fns.len())
            .find(|&i| table.def(files, i).0.name == name)
            .expect("fn present")
    }

    #[test]
    fn same_crate_and_cross_crate_calls_resolve() {
        let (files, table, graph) = build(&[
            (
                "crates/sim/src/a.rs",
                "pub fn entry() { helper(); pai_hw::price(3); std::mem::drop(1); }",
            ),
            ("crates/sim/src/b.rs", "fn helper() {}"),
            ("crates/hw/src/lib.rs", "pub fn price(x: u64) {}"),
        ]);
        let entry = id_of(&files, &table, "entry");
        let names: Vec<&str> = graph.calls[entry].iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["helper", "price", "drop"]);
        assert_eq!(graph.calls[entry][0].targets.len(), 1);
        assert_eq!(graph.calls[entry][1].targets.len(), 1);
        assert!(graph.calls[entry][2].targets.is_empty(), "std stays clean");
    }

    #[test]
    fn type_qualified_calls_do_not_cross_impls() {
        let (files, table, graph) = build(&[(
            "crates/sim/src/a.rs",
            "impl Foo { pub fn new() -> Foo { Foo } }\n\
             fn mk() { let a = Foo::new(); let b = Vec::new(); }",
        )]);
        let mk = id_of(&files, &table, "mk");
        let resolved: Vec<usize> = graph.calls[mk].iter().map(|c| c.targets.len()).collect();
        assert_eq!(resolved, vec![1, 0], "Vec::new must not hit Foo::new");
    }

    #[test]
    fn panic_sites_cover_methods_macros_and_slice_helpers() {
        let (files, table, graph) = build(&[(
            "crates/sim/src/a.rs",
            "fn f(v: &[u8]) { v.first().unwrap(); panic!(\"x\"); v.split_at(4); }",
        )]);
        let f = id_of(&files, &table, "f");
        let whats: Vec<&str> = graph.panics[f].iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec![".unwrap()", "panic!", "split_at"]);
        assert!(graph.panics[f][2].slice);
        assert!(!graph.panics[f][0].slice);
    }

    #[test]
    fn reachability_terminates_on_cycles_and_finds_shortest_chain() {
        let (files, table, graph) = build(&[(
            "crates/sim/src/a.rs",
            "pub fn even(n: u64) { odd(n); }\n\
             fn odd(n: u64) { even(n); boom(); }\n\
             fn boom() { panic!(\"deep\"); }",
        )]);
        let even = id_of(&files, &table, "even");
        let (chain, site) = graph
            .find_panic_chain(even, &|_| true, &|_, _| true)
            .expect("panic reachable");
        assert_eq!(chain.len(), 3, "even -> odd -> boom");
        assert_eq!(site.what, "panic!");
        // A filter that rejects every site must terminate on the cycle.
        assert!(graph
            .find_panic_chain(even, &|_| true, &|_, _| false)
            .is_none());
    }
}
