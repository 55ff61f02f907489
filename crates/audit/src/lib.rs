//! `netmax-audit` — the workspace invariant analyzer.
//!
//! The simulation engine's headline guarantees — bit-reproducible runs in
//! virtual time, an allocation-free steady state, panic-free library
//! crates, exhaustive handling of every event and algorithm variant — are
//! enforced dynamically by tests, but tests only cover the paths they
//! drive. This crate adds the static half: a lightweight, comment- and
//! string-aware Rust tokenizer (no full AST, no third-party parser — the
//! same dependency-free discipline as `netmax-json`) that walks every
//! `.rs` file in the workspace and checks a committed rule policy
//! (`audit.policy.json`):
//!
//! * **determinism** — `Instant`/`SystemTime` only in allowlisted bench
//!   timing code; `HashMap`/`HashSet` nowhere in library sources (iteration
//!   order leaks into artifacts);
//! * **hot-path hygiene** — nothing reachable from the `hot_path` root
//!   set may contain allocation patterns (`vec!`, `.collect`, `.clone`,
//!   `format!`, …);
//! * **panic-freedom ratchet** — per-crate counts of `unwrap`/`expect`/
//!   `panic!`/`unreachable!`/indexing may never exceed the committed
//!   budget, and the budget must be lowered as sites are removed (a
//!   too-high budget is itself a violation);
//! * **cross-file exhaustiveness** — every variant of registered enums
//!   (`StepEvent`, `AlgorithmKind`) must appear, qualified, in the
//!   dispatch, registry, and test files the policy names.
//!
//! Every finding is a violation. The only escapes are reviewed data in
//! the committed policy: allowlists, budgets and prunes.

#![forbid(unsafe_code)]

pub mod enums;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod policy;
pub mod report;
pub mod scan;

pub use graph::CallGraph;
pub use policy::{Policy, POLICY_SCHEMA};
pub use report::{
    AuditReport, BudgetStatus, ClosureInfo, ClosureReport, Violation, CLOSURE_SCHEMA,
    REPORT_SCHEMA,
};

use report::rules;
use scan::{BannedPattern, FileScan, PanicCounts};
use std::collections::BTreeSet;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;

/// A fatal analyzer error (I/O or policy parse) — distinct from audit
/// violations, which are findings, not failures of the tool itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// What went wrong, with the path involved.
    pub message: String,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for AuditError {}

fn err(message: impl Into<String>) -> AuditError {
    AuditError { message: message.into() }
}

/// Loads and validates the policy document at `path`.
pub fn load_policy(path: &Path) -> Result<Policy, AuditError> {
    let text = fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read policy {}: {e}", path.display())))?;
    let doc = netmax_json::Json::parse(&text)
        .map_err(|e| err(format!("policy {} is not valid JSON: {e}", path.display())))?;
    netmax_json::FromJson::from_json(&doc)
        .map_err(|e| err(format!("policy {} is malformed: {e}", path.display())))
}

/// Whether a workspace-relative path is *library source* (subject to the
/// determinism, hot-path, and panic rules) as opposed to tests, benches,
/// or examples — which are only consulted for enum-coverage and
/// required-text checks.
pub fn is_source(rel: &str) -> bool {
    rel.starts_with("src/") || rel.contains("/src/")
}

/// Recursively collects every `.rs` file under `root` (skipping `target`,
/// VCS metadata, and the policy's excluded prefixes), returning
/// `(workspace-relative path, contents)` pairs in sorted path order.
pub fn collect_files(root: &Path, exclude: &[String]) -> Result<Vec<(String, String)>, AuditError> {
    let mut rel_paths = Vec::new();
    walk(root, Path::new(""), exclude, &mut rel_paths)?;
    rel_paths.sort();
    let mut files = Vec::with_capacity(rel_paths.len());
    for rel in rel_paths {
        let text = fs::read_to_string(root.join(&rel))
            .map_err(|e| err(format!("cannot read {rel}: {e}")))?;
        files.push((rel, text));
    }
    Ok(files)
}

fn walk(
    root: &Path,
    rel: &Path,
    exclude: &[String],
    out: &mut Vec<String>,
) -> Result<(), AuditError> {
    let dir = root.join(rel);
    let entries = fs::read_dir(&dir)
        .map_err(|e| err(format!("cannot list {}: {e}", dir.display())))?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| err(format!("cannot list {}: {e}", dir.display())))?;
        if let Some(name) = entry.file_name().to_str() {
            names.push(name.to_string());
        }
    }
    names.sort();
    for name in names {
        let child_rel = if rel.as_os_str().is_empty() {
            name.clone().into()
        } else {
            rel.join(&name)
        };
        let rel_str = child_rel.to_string_lossy().replace('\\', "/");
        if exclude.iter().any(|p| rel_str.starts_with(p.trim_end_matches('/'))) {
            continue;
        }
        let path = root.join(&child_rel);
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &child_rel, exclude, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_str);
        }
    }
    Ok(())
}

/// Everything one audit run produces: the report (violations, budgets
/// and closures) and the resolved call graph (for `--dump-graph`).
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// The report.
    pub report: AuditReport,
    /// The workspace call graph.
    pub graph: CallGraph,
}

/// Runs the full audit of the workspace at `root` under `policy`,
/// returning only the report. See [`run_audit_full`] for the call graph.
pub fn run_audit(root: &Path, policy: &Policy) -> Result<AuditReport, AuditError> {
    run_audit_full(root, policy).map(|o| o.report)
}

/// Runs the full audit of the workspace at `root` under `policy`.
pub fn run_audit_full(root: &Path, policy: &Policy) -> Result<AuditOutcome, AuditError> {
    if policy.hot_path_banned.iter().any(|s| BannedPattern::parse(s).is_none()) {
        return Err(err("policy hot_path_banned contains an unparseable pattern"));
    }
    let time_banned: Vec<&str> =
        policy.determinism.time_banned.iter().map(String::as_str).collect();
    let hash_banned: Vec<&str> =
        policy.determinism.hash_banned.iter().map(String::as_str).collect();

    let files = collect_files(root, &policy.exclude)?;
    let mut scans: BTreeMap<String, FileScan> = BTreeMap::new();
    for (rel, text) in files {
        let scan = FileScan::new(rel.clone(), &text);
        scans.insert(rel, scan);
    }

    let mut rep = AuditReport { files_scanned: scans.len(), ..AuditReport::default() };
    let mut actuals: Vec<PanicCounts> = vec![PanicCounts::default(); policy.panic_budgets.len()];

    for (path, scan) in &scans {
        if !is_source(path) {
            continue;
        }
        if !Policy::allowlisted(&policy.determinism.time_allowlist, path) {
            for (line, ident) in scan::find_banned_idents(scan, &time_banned) {
                rep.violations.push(Violation {
                    rule: rules::DETERMINISM_TIME,
                    file: path.clone(),
                    line,
                    message: format!("real-time clock `{ident}` outside the bench allowlist"),
                });
            }
        }
        for (line, ident) in scan::find_banned_idents(scan, &hash_banned) {
            rep.violations.push(Violation {
                rule: rules::DETERMINISM_HASH,
                file: path.clone(),
                line,
                message: format!("iteration-order-nondeterministic `{ident}` in library source"),
            });
        }

        if let Some(bi) = policy
            .panic_budgets
            .iter()
            .position(|b| path.strip_prefix(&b.crate_dir).is_some_and(|r| r.starts_with('/')))
        {
            actuals[bi].add(&scan::count_panic_sites(scan));
        }
    }

    // The call-graph layer: parse items out of every library source
    // file, resolve calls, and enforce the per-closure rules over
    // everything reachable from the declared root sets.
    let mut fns = Vec::new();
    for (path, scan) in &scans {
        if is_source(path) {
            fns.extend(items::parse_items(scan));
        }
    }
    let call_graph = CallGraph::build(fns);
    if !policy.root_sets.is_empty() {
        closure_checks(policy, &scans, &call_graph, &mut rep);
    }
    rep.closures.finish();

    check_enums(policy, &scans, &mut rep);
    check_required_text(policy, &scans, &mut rep);
    check_budgets(policy, &actuals, &mut rep);

    rep.finish();
    Ok(AuditOutcome { report: rep, graph: call_graph })
}

/// Enforces the per-closure rules for every policy root set and fills
/// the closure report.
///
/// Closure findings are keyed by `(file, line, rule, message)` before
/// they become violations, so a function belonging to several closures
/// is reported once per offending site, not once per closure.
fn closure_checks(
    policy: &Policy,
    scans: &BTreeMap<String, FileScan>,
    graph: &CallGraph,
    rep: &mut AuditReport,
) {
    let time_banned: Vec<&str> =
        policy.determinism.time_banned.iter().map(String::as_str).collect();
    let hash_banned: Vec<&str> =
        policy.determinism.hash_banned.iter().map(String::as_str).collect();
    let banned_patterns: Vec<BannedPattern> =
        policy.hot_path_banned.iter().filter_map(|s| BannedPattern::parse(s)).collect();

    let mut findings: BTreeSet<(String, u32, &'static str, String)> = BTreeSet::new();

    // Saved for rule 5 (tier isolation) after the per-set loop.
    let mut strict_closure: Option<BTreeSet<usize>> = None;
    let mut fast_closure: Option<BTreeSet<usize>> = None;

    for set in &policy.root_sets {
        let (roots, missing) = graph.select(&set.roots);
        let (pruned, missing_prune) = graph.select(&set.prune);
        for (kind, misses) in [("root", missing), ("prune", missing_prune)] {
            for (file, func) in misses {
                rep.violations.push(Violation {
                    rule: rules::POLICY_TARGET,
                    file,
                    line: 0,
                    message: format!(
                        "root set `{}` {kind} names `{func}` but the file defines no such fn",
                        set.name
                    ),
                });
            }
        }
        let closure = graph.closure(&roots, &pruned);
        if set.name == "strict_numerics" {
            strict_closure = Some(closure.clone());
        } else if set.name == "fast_numerics" {
            fast_closure = Some(closure.clone());
        }

        // The closure's panic sites, keyed by token index so nested
        // bodies never double-count: the digest publishes them, and rule
        // 3 ratchets them for a set that carries a `budget`.
        let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();
        let mut actual = PanicCounts::default();
        for &i in &closure {
            let f = &graph.fns[i];
            let Some((open, close)) = f.body else { continue };
            let Some(scan) = scans.get(&f.file) else { continue };
            for (idx, category) in scan::panic_sites_in(scan, open, close) {
                if seen.insert((f.file.as_str(), idx)) {
                    actual.bump(category);
                }
            }
        }
        rep.closures.closures.push(ClosureInfo {
            name: set.name.clone(),
            roots: graph.ids(&roots),
            functions: graph.ids(&closure),
            edges: graph.edge_ids(&closure),
            unresolved: graph.unresolved_in(&closure),
            panic_sites: actual,
        });

        // Rule 1 — determinism, in *every* closure: no real-time clocks,
        // no iteration-order-nondeterministic containers, no allowlist.
        for &i in &closure {
            let f = &graph.fns[i];
            let Some((open, close)) = f.body else { continue };
            let Some(scan) = scans.get(&f.file) else { continue };
            for (line, ident) in scan::find_banned_idents_in(scan, open, close, &time_banned) {
                findings.insert((
                    f.file.clone(),
                    line,
                    rules::CLOSURE_DETERMINISM,
                    format!("real-time clock `{ident}` in closure member `{}`", f.qual()),
                ));
            }
            for (line, ident) in scan::find_banned_idents_in(scan, open, close, &hash_banned) {
                findings.insert((
                    f.file.clone(),
                    line,
                    rules::CLOSURE_DETERMINISM,
                    format!("nondeterministic container `{ident}` in closure member `{}`", f.qual()),
                ));
            }
        }

        // Rule 2 — the allocation ban over the hot_path closure.
        if set.name == "hot_path" {
            for &i in &closure {
                let f = &graph.fns[i];
                let Some((open, close)) = f.body else { continue };
                let Some(scan) = scans.get(&f.file) else { continue };
                for (line, pat) in
                    scan::find_banned_patterns_in(scan, open, close, &banned_patterns)
                {
                    findings.insert((
                        f.file.clone(),
                        line,
                        rules::CLOSURE_ALLOC,
                        format!("`{pat}` in hot_path-closure member `{}`", f.qual()),
                    ));
                }
            }
        }

        // Rule 3 — the panic ratchet over the closure of any set that
        // carries a `budget`.
        if let Some(budget) = &set.budget {
            let crate_dir = format!("closure:{}", set.name);
            rep.budgets.push(BudgetStatus {
                crate_dir: crate_dir.clone(),
                actual,
                budget: *budget,
            });
            if let Some(over) = actual.exceeds(budget) {
                rep.violations.push(Violation {
                    rule: rules::CLOSURE_PANIC_BUDGET,
                    file: crate_dir.clone(),
                    line: 0,
                    message: format!("panic sites over the closure budget: {over}"),
                });
            }
            if let Some(slack) = budget.exceeds(&actual) {
                rep.violations.push(Violation {
                    rule: rules::CLOSURE_PANIC_BUDGET_STALE,
                    file: crate_dir,
                    line: 0,
                    message: format!("closure budget above actual count, lower it: {slack}"),
                });
            }
        }

        // Rule 4 — the reassociation boundary: every numeric-helper call
        // out of the strict_numerics closure must be on the approved
        // list. "Numeric helper" means a function defined in one of the
        // boundary modules, or an unresolved call with a float-intrinsic
        // name (`.exp(…)`, `.mul_add(…)` resolve to nothing in the
        // workspace but are exactly the calls a fast-math tier rewires).
        if set.name == "strict_numerics" {
            if let Some(re) = &policy.reassociation {
                let boundary: BTreeSet<&str> = graph
                    .fns
                    .iter()
                    .filter(|f| re.modules.contains(&f.file))
                    .map(|f| f.name.as_str())
                    .collect();
                for &i in &closure {
                    let f = &graph.fns[i];
                    for site in &f.calls {
                        let name = site.call.name();
                        let numeric = boundary.contains(name)
                            || re.intrinsics.iter().any(|x| x == name);
                        if numeric && !re.approved.iter().any(|a| a == name) {
                            findings.insert((
                                f.file.clone(),
                                site.line,
                                rules::REASSOCIATION_BOUNDARY,
                                format!(
                                    "`{}` called from strict_numerics member `{}` is not an \
                                     approved numeric helper",
                                    site.call.display(),
                                    f.qual()
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    // Rule 5 — tier isolation: the strict and fast numerics closures
    // must be disjoint. A function reachable from both roots is a shared
    // numeric helper, and an edit aimed at the reassociated tier would
    // silently move strict-tier bits through it. The fix is duplicating
    // the helper into the fast module or recording a false edge as a
    // reviewed `prune` entry in the committed policy.
    if let (Some(strict), Some(fast)) = (&strict_closure, &fast_closure) {
        for &i in strict.intersection(fast) {
            let f = &graph.fns[i];
            rep.violations.push(Violation {
                rule: rules::TIER_ISOLATION,
                file: f.file.clone(),
                line: f.line,
                message: format!(
                    "`{}` is reachable from both the strict_numerics and fast_numerics \
                     roots — the tiers must not share numeric code",
                    f.qual()
                ),
            });
        }
    }

    for (file, line, rule, message) in findings {
        rep.violations.push(Violation { rule, file, line, message });
    }
}

/// Enum exhaustiveness: every variant of each registered enum must appear
/// qualified in every `each` file, and in at least one `union` file.
/// Findings are file-level (line 0).
fn check_enums(policy: &Policy, scans: &BTreeMap<String, FileScan>, rep: &mut AuditReport) {
    for check in &policy.enums {
        let Some(decl_scan) = scans.get(&check.decl) else {
            rep.violations.push(Violation {
                rule: rules::POLICY_TARGET,
                file: check.decl.clone(),
                line: 0,
                message: format!("enum check `{}`: decl file not found", check.name),
            });
            continue;
        };
        let Some(variants) = enums::enum_variants(decl_scan, &check.name) else {
            rep.violations.push(Violation {
                rule: rules::POLICY_TARGET,
                file: check.decl.clone(),
                line: 0,
                message: format!("file declares no `enum {}`", check.name),
            });
            continue;
        };
        let mut misses: Vec<(String, String)> = Vec::new();
        for file in &check.each {
            let Some(scan) = scans.get(file) else {
                rep.violations.push(Violation {
                    rule: rules::POLICY_TARGET,
                    file: file.clone(),
                    line: 0,
                    message: format!("enum check `{}`: file not found", check.name),
                });
                continue;
            };
            let same_file = file == &check.decl;
            for v in &variants {
                if !enums::variant_appears(scan, &check.name, v, same_file) {
                    misses.push((
                        file.clone(),
                        format!("`{}::{v}` never named here (dispatch incomplete?)", check.name),
                    ));
                }
            }
        }
        if !check.union.is_empty() {
            let union_scans: Vec<&FileScan> =
                check.union.iter().filter_map(|f| scans.get(f)).collect();
            if union_scans.len() != check.union.len() {
                for file in check.union.iter().filter(|f| !scans.contains_key(*f)) {
                    rep.violations.push(Violation {
                        rule: rules::POLICY_TARGET,
                        file: file.clone(),
                        line: 0,
                        message: format!("enum check `{}`: file not found", check.name),
                    });
                }
            }
            for v in &variants {
                if !union_scans.iter().any(|s| enums::variant_appears(s, &check.name, v, false)) {
                    misses.push((
                        check.union.join(", "),
                        format!("`{}::{v}` covered by none of the union files", check.name),
                    ));
                }
            }
        }
        for (file, message) in misses {
            rep.violations.push(Violation { rule: rules::ENUM_EXHAUSTIVE, file, line: 0, message });
        }
    }
}

fn check_required_text(
    policy: &Policy,
    scans: &BTreeMap<String, FileScan>,
    rep: &mut AuditReport,
) {
    for req in &policy.required_text {
        match scans.get(&req.file) {
            None => rep.violations.push(Violation {
                rule: rules::POLICY_TARGET,
                file: req.file.clone(),
                line: 0,
                message: "required_text: file not found".into(),
            }),
            Some(scan) if !scan.raw.contains(&req.needle) => {
                rep.violations.push(Violation {
                    rule: rules::REQUIRED_TEXT,
                    file: req.file.clone(),
                    line: 0,
                    message: format!("required text `{}` is missing", req.needle),
                });
            }
            Some(_) => {}
        }
    }
}

/// The two-way ratchet: counts above budget are violations, and so are
/// budgets above counts — the committed number must fall as panic sites
/// are removed, so the budget can only ever go down.
fn check_budgets(policy: &Policy, actuals: &[PanicCounts], rep: &mut AuditReport) {
    for (budget, actual) in policy.panic_budgets.iter().zip(actuals) {
        let committed = PanicCounts {
            unwrap: budget.unwrap,
            expect: budget.expect,
            panic: budget.panic,
            unreachable: budget.unreachable,
            index: budget.index,
        };
        rep.budgets.push(BudgetStatus {
            crate_dir: budget.crate_dir.clone(),
            actual: *actual,
            budget: committed,
        });
        if let Some(over) = actual.exceeds(&committed) {
            rep.violations.push(Violation {
                rule: rules::PANIC_BUDGET,
                file: budget.crate_dir.clone(),
                line: 0,
                message: format!("panic sites over budget: {over}"),
            });
        }
        if let Some(slack) = committed.exceeds(actual) {
            rep.violations.push(Violation {
                rule: rules::PANIC_BUDGET_STALE,
                file: budget.crate_dir.clone(),
                line: 0,
                message: format!("budget above actual count, lower it: {slack}"),
            });
        }
    }
}
