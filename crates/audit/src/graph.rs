//! The workspace call graph: conservative resolution of the call sites
//! [`items`](crate::items) extracted, reachability closures from policy
//! root sets, and the deterministic closure report data.
//!
//! Resolution is *over*-approximate by construction — the analyzer would
//! rather drag a same-named cold function into a closure (and make the
//! policy say so with an explicit `prune` entry a reviewer can see) than
//! silently miss a reachable allocation:
//!
//! * a free or method call `foo(…)` / `.foo(…)` links to **every**
//!   workspace `fn foo`, whatever its owner;
//! * a path call `A::foo(…)` links to the workspace functions whose
//!   owner is `A` — precise, because both segments are known;
//! * a module-path call `m::foo(…)` (also `crate::m::foo(…)`) links to
//!   the free `fn foo`s of every file that defines a module `m`
//!   (`m.rs` or `m/mod.rs`), and `self::foo(…)` / `super::foo(…)` to
//!   those of the caller's own or parent module file;
//! * anything that matches no workspace definition (std/core methods,
//!   `Vec::new`, float intrinsics) lands in the **unresolved** bucket,
//!   which the closure report publishes so reviewers see exactly what
//!   the analyzer could not follow.

use crate::items::{Call, FnItem};
use crate::policy::RootEntry;
use std::collections::{BTreeMap, BTreeSet};

/// The resolved workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Every non-test function in the workspace, file-sorted.
    pub fns: Vec<FnItem>,
    /// Call edges as `(caller, callee)` indices into `fns`.
    pub edges: BTreeSet<(usize, usize)>,
    /// Unresolved calls: caller index → display names of calls that
    /// matched no workspace definition.
    pub unresolved: BTreeMap<usize, BTreeSet<String>>,
    /// Bare name → indices of every function with that name.
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from the parsed items of every workspace file.
    /// `fns` keeps the given order (callers should pass file-sorted
    /// items so ids and report order stay deterministic).
    pub fn build(fns: Vec<FnItem>) -> CallGraph {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        for (i, f) in fns.iter().enumerate() {
            if let Some(owner) = &f.owner {
                by_owner.entry((owner.as_str(), f.name.as_str())).or_default().push(i);
            }
        }
        // Free functions, with their module path, by (module name, name):
        // `params.rs` and `params/mod.rs` both define the module `params`.
        let mut free: BTreeMap<(&str, &str), Vec<(usize, &str)>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate().filter(|(_, f)| f.owner.is_none()) {
            let module = module_of(&f.file);
            let key = (module_name(module), f.name.as_str());
            free.entry(key).or_default().push((i, module));
        }
        let mut edges = BTreeSet::new();
        let mut unresolved: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            for site in &f.calls {
                let call = &site.call;
                let targets: Vec<usize> = match call {
                    Call::Free(name) | Call::Method(name) => {
                        by_name.get(name).into_iter().flatten().copied().collect()
                    }
                    Call::Path(owner, name) => {
                        // `self::` and `super::` name one module file.
                        let module = match owner.as_str() {
                            "self" => Some(module_of(&f.file)),
                            "super" => module_of(&f.file).rsplit_once('/').map(|(m, _)| m),
                            _ => None,
                        };
                        let key = (module.map_or(owner.as_str(), module_name), name.as_str());
                        let in_module = free
                            .get(&key)
                            .into_iter()
                            .flatten()
                            .filter(|(_, m)| module.is_none_or(|want| want == *m))
                            .map(|&(t, _)| t);
                        let owned = by_owner.get(&(owner.as_str(), name.as_str()));
                        owned
                            .into_iter()
                            .flatten()
                            .copied()
                            .chain(in_module)
                            .collect()
                    }
                };
                if targets.is_empty() {
                    unresolved.entry(i).or_default().insert(call.display());
                } else {
                    for t in targets {
                        edges.insert((i, t));
                    }
                }
            }
        }
        CallGraph { fns, edges, unresolved, by_name }
    }

    /// Indices of the functions a policy entry list names: every `fn`
    /// whose file and bare name match. Entries that match nothing are
    /// returned separately so the caller can flag them as policy-target
    /// violations (the root-set analogue of a stale manifest).
    pub fn select(&self, entries: &[RootEntry]) -> (BTreeSet<usize>, Vec<(String, String)>) {
        let mut picked = BTreeSet::new();
        let mut missing = Vec::new();
        for entry in entries {
            for func in &entry.functions {
                let mut any = false;
                for &i in self.by_name.get(func).map(Vec::as_slice).unwrap_or(&[]) {
                    if self.fns[i].file == entry.file {
                        picked.insert(i);
                        any = true;
                    }
                }
                if !any {
                    missing.push((entry.file.clone(), func.clone()));
                }
            }
        }
        (picked, missing)
    }

    /// The reachability closure from `roots`, never expanding into or
    /// through `pruned` functions.
    pub fn closure(&self, roots: &BTreeSet<usize>, pruned: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> =
            roots.iter().copied().filter(|i| !pruned.contains(i)).collect();
        let mut frontier: Vec<usize> = seen.iter().copied().collect();
        while let Some(i) = frontier.pop() {
            for &(a, b) in self.edges.range((i, 0)..(i + 1, 0)) {
                debug_assert_eq!(a, i);
                if !pruned.contains(&b) && seen.insert(b) {
                    frontier.push(b);
                }
            }
        }
        seen
    }

    /// Sorted display ids of the functions in `set`.
    pub fn ids(&self, set: &BTreeSet<usize>) -> Vec<String> {
        let mut out: Vec<String> = set.iter().map(|&i| self.fns[i].id()).collect();
        out.sort();
        out
    }

    /// Sorted `caller -> callee` display edges with both ends in `set`.
    pub fn edge_ids(&self, set: &BTreeSet<usize>) -> Vec<String> {
        let mut out: Vec<String> = self
            .edges
            .iter()
            .filter(|(a, b)| set.contains(a) && set.contains(b))
            .map(|(a, b)| format!("{} -> {}", self.fns[*a].id(), self.fns[*b].id()))
            .collect();
        out.sort();
        out
    }

    /// Sorted, deduplicated display names of the unresolved calls made
    /// by functions in `set`.
    pub fn unresolved_in(&self, set: &BTreeSet<usize>) -> Vec<String> {
        let mut names = BTreeSet::new();
        for i in set {
            if let Some(calls) = self.unresolved.get(i) {
                names.extend(calls.iter().cloned());
            }
        }
        names.into_iter().collect()
    }

    /// The whole graph in `--dump-graph` text form: one line per
    /// function followed by its resolved and unresolved callees.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, f) in self.fns.iter().enumerate() {
            let _ = writeln!(out, "{}", f.id());
            for &(_, b) in self.edges.range((i, 0)..(i + 1, 0)) {
                let _ = writeln!(out, "  -> {}", self.fns[b].id());
            }
            if let Some(calls) = self.unresolved.get(&i) {
                for c in calls {
                    let _ = writeln!(out, "  ?? {c}");
                }
            }
        }
        out
    }
}

/// The module a file defines, as a path: `crates/ml/src/params.rs` and
/// `crates/ml/src/params/mod.rs` are both `crates/ml/src/params`, and a
/// crate root (`lib.rs`, `main.rs`) is its directory.
fn module_of(file: &str) -> &str {
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    ["/mod", "/lib", "/main"]
        .iter()
        .find_map(|root| stem.strip_suffix(root))
        .unwrap_or(stem)
}

/// The last segment of a module path: `crates/ml/src/params` is `params`.
fn module_name(module: &str) -> &str {
    module.rsplit('/').next().unwrap_or(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::scan::FileScan;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let mut fns = Vec::new();
        for (path, src) in files {
            fns.extend(parse_items(&FileScan::new(*path, src)));
        }
        CallGraph::build(fns)
    }

    fn entry(file: &str, funcs: &[&str]) -> RootEntry {
        RootEntry {
            file: file.into(),
            functions: funcs.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn bare_names_fan_out_and_paths_stay_precise() {
        let g = graph(&[(
            "src/a.rs",
            "
            impl A { fn step(&self) {} }
            impl B { fn step(&self) {} }
            fn m1(x: &A) { x.step(); }
            fn m2() { A::step(a); }
            ",
        )]);
        let m1 = g.fns.iter().position(|f| f.name == "m1").unwrap();
        let m2 = g.fns.iter().position(|f| f.name == "m2").unwrap();
        assert_eq!(g.edges.iter().filter(|(a, _)| *a == m1).count(), 2, "method fans out");
        assert_eq!(g.edges.iter().filter(|(a, _)| *a == m2).count(), 1, "path is precise");
    }

    #[test]
    fn module_paths_link_to_that_modules_free_fns() {
        let g = graph(&[
            (
                "crates/m/src/params.rs",
                "fn axpy() {} fn norm_sq() {} impl P { fn axpy(&self) {} }",
            ),
            ("crates/m/src/kernels/mod.rs", "fn dot() {} fn helper() {}"),
            (
                "crates/m/src/kernels/step.rs",
                "fn run() { params::axpy(); crate::params::norm_sq(); kernels::dot();
                            super::helper(); self::local(); }
                 fn local() {}",
            ),
            (
                "crates/m/src/other.rs",
                "fn axpy() {} fn helper() {} fn local() {}",
            ),
        ]);
        let run = g.fns.iter().position(|f| f.name == "run").unwrap();
        let callees: Vec<String> = g
            .edges
            .iter()
            .filter(|(a, _)| *a == run)
            .map(|&(_, b)| g.fns[b].id())
            .collect();
        assert_eq!(
            callees,
            [
                "crates/m/src/params.rs#axpy",
                "crates/m/src/params.rs#norm_sq",
                "crates/m/src/kernels/mod.rs#dot",
                "crates/m/src/kernels/mod.rs#helper",
                "crates/m/src/kernels/step.rs#local",
            ]
        );
        assert!(
            !g.unresolved.contains_key(&run),
            "{:?}",
            g.unresolved.get(&run)
        );
    }

    #[test]
    fn unknown_calls_land_in_unresolved() {
        let g = graph(&[("src/a.rs", "fn f(v: &mut Vec<u32>) { v.sort_unstable(); g(); }")]);
        let f = g.fns.iter().position(|x| x.name == "f").unwrap();
        let u = g.unresolved.get(&f).unwrap();
        assert!(u.contains(".sort_unstable"));
        assert!(u.contains("g"));
        assert!(g.edges.is_empty());
    }

    #[test]
    fn closure_crosses_files_and_respects_prunes() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn root() { mid(); cold(); }"),
            ("crates/b/src/lib.rs", "fn mid() { leaf(); } fn leaf() {} fn cold() { leaf(); }"),
        ]);
        let (roots, missing) = g.select(&[entry("crates/a/src/lib.rs", &["root"])]);
        assert!(missing.is_empty());
        let (pruned, _) = g.select(&[entry("crates/b/src/lib.rs", &["cold"])]);
        let closure = g.closure(&roots, &pruned);
        let ids = g.ids(&closure);
        assert_eq!(
            ids,
            [
                "crates/a/src/lib.rs#root",
                "crates/b/src/lib.rs#leaf",
                "crates/b/src/lib.rs#mid"
            ]
        );
        // Without the prune, cold joins the closure.
        assert_eq!(g.closure(&roots, &BTreeSet::new()).len(), 4);
    }

    #[test]
    fn select_reports_missing_entries() {
        let g = graph(&[("src/a.rs", "fn real() {}")]);
        let (picked, missing) = g.select(&[entry("src/a.rs", &["real", "ghost"])]);
        assert_eq!(picked.len(), 1);
        assert_eq!(missing, [("src/a.rs".to_string(), "ghost".to_string())]);
    }

    #[test]
    fn report_ids_and_edges_are_sorted() {
        let g = graph(&[
            ("src/b.rs", "fn beta() { alpha(); }"),
            ("src/a.rs", "fn alpha() { beta(); }"),
        ]);
        let all: BTreeSet<usize> = (0..g.fns.len()).collect();
        let ids = g.ids(&all);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let edges = g.edge_ids(&all);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(edges.len(), 2);
    }
}
