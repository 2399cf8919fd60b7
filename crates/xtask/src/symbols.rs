//! The workspace symbol table: every parsed function and constant,
//! indexed by crate and name.
//!
//! Resolution is deliberately coarser than rustc's: items are flat per
//! crate (modules don't shadow), methods resolve union-by-name, and an
//! unresolved name is treated as *clean* by every rule — std and
//! vendored-dependency calls must never produce findings. The table
//! only has to be precise enough that same-workspace call chains (the
//! ones the rules reason about) resolve.

use std::collections::BTreeMap;

use crate::ast::{FnDef, ItemKind, Span};
use crate::FileAnalysis;

/// The crate a workspace-relative path belongs to: `crates/<c>/src/…`
/// maps to `<c>`; anything else (fixtures, tests) is its own
/// single-file "crate" so fixture files can't see each other.
pub fn crate_of(rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some((name, tail)) = rest.split_once('/') {
            if tail.starts_with("src/") || tail == "src" {
                return name.to_string();
            }
        }
    }
    rel_path.to_string()
}

/// A function's location in the analyzed file set.
#[derive(Debug, Clone, Copy)]
pub struct FnId {
    /// Index into the `FileAnalysis` slice.
    pub file: usize,
    /// Index into that file's `items`.
    pub item: usize,
}

/// The workspace symbol table.
pub struct SymbolTable {
    /// Every function, in (file, item) order — the canonical fn-id
    /// space the call graph indexes into.
    pub fns: Vec<FnId>,
    /// Per-file crate names, parallel to the file slice.
    pub crates: Vec<String>,
    /// `(crate, fn name)` → fn ids (union-by-name: overloads across
    /// impl blocks all resolve).
    by_name: BTreeMap<(String, String), Vec<usize>>,
    /// `(crate, const name)` → present. Named-constant carve-out for
    /// the RNG-lineage rule.
    consts: BTreeMap<(String, String), ()>,
}

impl SymbolTable {
    /// Builds the table over every parsed file.
    pub fn build(files: &[FileAnalysis]) -> SymbolTable {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut consts = BTreeMap::new();
        let crates: Vec<String> = files.iter().map(|f| crate_of(&f.rel_path)).collect();
        for (file, fa) in files.iter().enumerate() {
            for (item, it) in fa.items.iter().enumerate() {
                match &it.kind {
                    ItemKind::Fn(def) => {
                        let id = fns.len();
                        fns.push(FnId { file, item });
                        by_name
                            .entry((crates[file].clone(), def.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    ItemKind::Const { name, .. } => {
                        consts.insert((crates[file].clone(), name.clone()), ());
                    }
                }
            }
        }
        SymbolTable {
            fns,
            crates,
            by_name,
            consts,
        }
    }

    /// The function definition and its declaration span.
    pub fn def<'a>(&self, files: &'a [FileAnalysis], id: usize) -> (&'a FnDef, Span) {
        let FnId { file, item } = self.fns[id];
        match &files[file].items[item].kind {
            ItemKind::Fn(def) => (def, files[file].items[item].span),
            // `fns` only ever indexes Fn items by construction.
            ItemKind::Const { .. } => unreachable!("fn id points at a const"),
        }
    }

    /// The file index a function lives in.
    pub fn file_of(&self, id: usize) -> usize {
        self.fns[id].file
    }

    /// Functions named `name` in `crate_name` (empty when unresolved).
    pub fn resolve(&self, crate_name: &str, name: &str) -> &[usize] {
        self.by_name
            .get(&(crate_name.to_string(), name.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// True when `crate_name` declares a constant called `name`.
    pub fn has_const(&self, crate_name: &str, name: &str) -> bool {
        self.consts
            .contains_key(&(crate_name.to_string(), name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_src_trees_and_isolates_fixtures() {
        assert_eq!(crate_of("crates/sim/src/executor.rs"), "sim");
        assert_eq!(crate_of("crates/core/src/codec.rs"), "core");
        assert_eq!(
            crate_of("crates/xtask/fixtures/bad/a.rs"),
            "crates/xtask/fixtures/bad/a.rs"
        );
        assert_eq!(crate_of("src/lib.rs"), "src/lib.rs");
    }

    #[test]
    fn table_resolves_same_crate_by_name() {
        let files = vec![
            FileAnalysis::analyze(
                "crates/sim/src/a.rs",
                "pub fn entry() { helper(); }\nfn helper() {}\npub const SEED: u64 = 7;",
                true,
            ),
            FileAnalysis::analyze("crates/sim/src/b.rs", "fn helper() {}", true),
            FileAnalysis::analyze("crates/hw/src/lib.rs", "fn helper() {}", true),
        ];
        let table = SymbolTable::build(&files);
        assert_eq!(table.resolve("sim", "helper").len(), 2);
        assert_eq!(table.resolve("hw", "helper").len(), 1);
        assert!(table.resolve("sim", "absent").is_empty());
        assert!(table.has_const("sim", "SEED"));
        assert!(!table.has_const("hw", "SEED"));
        let (def, span) = table.def(&files, 0);
        assert_eq!(def.name, "entry");
        assert_eq!(span.line, 1);
    }
}
