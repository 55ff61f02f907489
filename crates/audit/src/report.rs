//! Audit results: the violation list, the human rendering, the
//! versioned machine report (`netmax-audit/report/v2`) and the committed
//! closure digest (`netmax-audit/closure/v2`).

use crate::scan::PanicCounts;
use netmax_json::{Json, ToJson};
use std::fmt::Write as _;

/// Schema tag of the JSON report.
pub const REPORT_SCHEMA: &str = "netmax-audit/report/v2";

/// Rule identifiers, as they appear in reports.
pub mod rules {
    /// Real-time clock (`Instant`/`SystemTime`) outside the allowlist.
    pub const DETERMINISM_TIME: &str = "determinism-time";
    /// Iteration-order-nondeterministic container outside the allowlist.
    pub const DETERMINISM_HASH: &str = "determinism-hash";
    /// Panic-site count above the committed budget.
    pub const PANIC_BUDGET: &str = "panic-budget";
    /// Budget higher than the actual count — the ratchet must be lowered.
    pub const PANIC_BUDGET_STALE: &str = "panic-budget-stale";
    /// Enum variant missing from a required dispatch/registry/test file.
    pub const ENUM_EXHAUSTIVE: &str = "enum-exhaustive";
    /// Required raw text missing from a file.
    pub const REQUIRED_TEXT: &str = "required-text";
    /// Policy points at a file that does not exist or declares no such
    /// enum/function.
    pub const POLICY_TARGET: &str = "policy-target";
    /// Banned allocation pattern anywhere in the `hot_path` closure.
    pub const CLOSURE_ALLOC: &str = "closure-alloc";
    /// Real-time clock or hash container in any closure member's body.
    pub const CLOSURE_DETERMINISM: &str = "closure-determinism";
    /// Panic sites over a budgeted closure exceed its budget.
    pub const CLOSURE_PANIC_BUDGET: &str = "closure-panic-budget";
    /// A closure's budget is above the actual count.
    pub const CLOSURE_PANIC_BUDGET_STALE: &str = "closure-panic-budget-stale";
    /// The `strict_numerics` closure calls a numeric helper outside the
    /// approved list.
    pub const REASSOCIATION_BOUNDARY: &str = "reassociation-boundary";
    /// A function is reachable from both the `strict_numerics` and
    /// `fast_numerics` roots. The tiers must never share numeric code:
    /// a helper edited for the reassociated tier would silently move
    /// strict-tier bits. Disjointness is restored by duplicating the
    /// helper or pruning a false edge in the committed policy.
    pub const TIER_ISOLATION: &str = "tier-isolation";
}

/// One audit violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (see [`rules`]).
    pub rule: &'static str,
    /// Workspace-relative file, or `<policy>` for policy-level findings.
    pub file: String,
    /// 1-based line, or 0 when the finding is file- or crate-level.
    pub line: u32,
    /// Human explanation.
    pub message: String,
}

impl Violation {
    /// Location string: `file:line` or just `file` for line 0.
    pub fn locus(&self) -> String {
        if self.line == 0 {
            self.file.clone()
        } else {
            format!("{}:{}", self.file, self.line)
        }
    }
}

/// One crate's ratchet status in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetStatus {
    /// The crate directory the budget applies to.
    pub crate_dir: String,
    /// Counted panic sites.
    pub actual: PanicCounts,
    /// Committed budget.
    pub budget: PanicCounts,
}

/// The full audit outcome.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-crate ratchet state (always reported, violations or not).
    pub budgets: Vec<BudgetStatus>,
    /// Violations, sorted by `(file, line, rule)`.
    pub violations: Vec<Violation>,
    /// Every root set's closure, full lists included (empty when the
    /// policy declares no root sets).
    pub closures: ClosureReport,
}

impl AuditReport {
    /// Whether the audit passed.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Normalizes paths and sorts violations into the deterministic
    /// report order — after this, the emitted report is byte-stable
    /// across platforms and filesystem iteration order: every path uses
    /// `/` separators and violations sort by `(file, line, rule)`.
    pub fn finish(&mut self) {
        for v in &mut self.violations {
            if v.file.contains('\\') {
                v.file = v.file.replace('\\', "/");
            }
        }
        for b in &mut self.budgets {
            if b.crate_dir.contains('\\') {
                b.crate_dir = b.crate_dir.replace('\\', "/");
            }
        }
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// The human-readable report.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "netmax-audit: {} file(s) scanned", self.files_scanned);
        for b in &self.budgets {
            let _ = writeln!(
                out,
                "  ratchet {:<16} unwrap {}/{}  expect {}/{}  panic {}/{}  unreachable {}/{}  index {}/{}",
                b.crate_dir,
                b.actual.unwrap,
                b.budget.unwrap,
                b.actual.expect,
                b.budget.expect,
                b.actual.panic,
                b.budget.panic,
                b.actual.unreachable,
                b.budget.unreachable,
                b.actual.index,
                b.budget.index,
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "PASS: no violations");
        } else {
            let _ = writeln!(out, "FAIL: {} violation(s)", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  [{}] {}: {}", v.rule, v.locus(), v.message);
            }
        }
        out
    }
}

fn counts_json(c: &PanicCounts) -> Json {
    Json::obj([
        ("unwrap", c.unwrap.to_json()),
        ("expect", c.expect.to_json()),
        ("panic", c.panic.to_json()),
        ("unreachable", c.unreachable.to_json()),
        ("index", c.index.to_json()),
    ])
}

impl ToJson for AuditReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(REPORT_SCHEMA.into())),
            ("pass", self.clean().to_json()),
            ("files_scanned", self.files_scanned.to_json()),
            (
                "budgets",
                Json::Arr(
                    self.budgets
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("crate", b.crate_dir.to_json()),
                                ("actual", counts_json(&b.actual)),
                                ("budget", counts_json(&b.budget)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::obj([
                                ("rule", v.rule.to_json()),
                                ("file", v.file.to_json()),
                                ("line", (v.line as usize).to_json()),
                                ("message", v.message.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "closures",
                Json::Arr(
                    self.closures
                        .closures
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", c.name.to_json()),
                                ("roots", c.roots.to_json()),
                                ("functions", c.functions.to_json()),
                                ("edges", c.edges.to_json()),
                                ("unresolved", c.unresolved.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Schema tag of the committed closure digest (`audit.closure.json`).
pub const CLOSURE_SCHEMA: &str = "netmax-audit/closure/v2";

/// One computed closure in the report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClosureInfo {
    /// The root set's name.
    pub name: String,
    /// Display ids (`file#qual`) of the resolved roots, sorted.
    pub roots: Vec<String>,
    /// Display ids of every function in the closure, sorted.
    pub functions: Vec<String>,
    /// `caller -> callee` edges with both ends in the closure, sorted.
    pub edges: Vec<String>,
    /// Calls the analyzer could not resolve to a workspace function,
    /// deduplicated and sorted — published so reviewers see exactly
    /// what the closure proof does *not* cover.
    pub unresolved: Vec<String>,
    /// Panic sites in the closure's bodies, each counted once.
    pub panic_sites: PanicCounts,
}

impl ClosureInfo {
    /// FNV-1a 64 over the sorted function, edge and unresolved lists:
    /// each item followed by `\n`, each list by a NUL byte, so moving an
    /// item from one list to the next changes the hash too.
    fn lists_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for list in [&self.functions, &self.edges, &self.unresolved] {
            for item in list {
                eat(item.as_bytes());
                eat(b"\n");
            }
            eat(b"\0");
        }
        h
    }
}

/// The closures every root set reaches. Its committed form is a digest
/// (roots, list sizes, panic sites, a hash of the lists) that CI
/// diffs against a fresh run, so closure growth is a reviewed change to
/// a committed file, never a silent analyzer decision; the full lists
/// ride in the JSON report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClosureReport {
    /// One entry per policy root set, sorted by name.
    pub closures: Vec<ClosureInfo>,
}

impl ClosureReport {
    /// Normalizes into the committed byte-stable form: closures sorted
    /// by name, every list sorted, `/` path separators throughout.
    pub fn finish(&mut self) {
        for c in &mut self.closures {
            for list in [&mut c.roots, &mut c.functions, &mut c.edges, &mut c.unresolved] {
                for s in list.iter_mut() {
                    if s.contains('\\') {
                        *s = s.replace('\\', "/");
                    }
                }
                list.sort();
                list.dedup();
            }
        }
        self.closures.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// The digest text committed to `audit.closure.json` (trailing
    /// newline included).
    pub fn pretty_text(&self) -> String {
        let closures = self.closures.iter().map(|c| {
            Json::obj([
                ("name", c.name.to_json()),
                ("roots", c.roots.to_json()),
                ("functions", c.functions.len().to_json()),
                ("edges", c.edges.len().to_json()),
                ("unresolved", c.unresolved.len().to_json()),
                ("panic_sites", counts_json(&c.panic_sites)),
                ("fnv1a64", format!("{:016x}", c.lists_hash()).to_json()),
            ])
        });
        let doc = Json::obj([
            ("schema", Json::Str(CLOSURE_SCHEMA.into())),
            ("closures", Json::Arr(closures.collect())),
        ]);
        let mut text = doc.pretty();
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> AuditReport {
        let mut r = AuditReport {
            files_scanned: 3,
            budgets: vec![BudgetStatus {
                crate_dir: "crates/json".into(),
                actual: PanicCounts { unwrap: 1, ..PanicCounts::default() },
                budget: PanicCounts { unwrap: 2, ..PanicCounts::default() },
            }],
            violations: vec![
                Violation {
                    rule: rules::DETERMINISM_TIME,
                    file: "b.rs".into(),
                    line: 9,
                    message: "Instant".into(),
                },
                Violation {
                    rule: rules::PANIC_BUDGET,
                    file: "a.rs".into(),
                    line: 0,
                    message: "over".into(),
                },
            ],
            ..AuditReport::default()
        };
        r.finish();
        r
    }

    #[test]
    fn violations_sort_deterministically() {
        let r = report();
        assert_eq!(r.violations[0].file, "a.rs");
        assert!(!r.clean());
    }

    #[test]
    fn json_report_has_schema_and_violations() {
        let doc = report().to_json();
        assert_eq!(doc.field("schema").unwrap().as_str().unwrap(), REPORT_SCHEMA);
        assert!(!doc.field("pass").unwrap().as_bool().unwrap());
        assert_eq!(doc.field("violations").unwrap().as_arr().unwrap().len(), 2);
        let text = doc.pretty();
        assert!(text.contains("determinism-time"));
    }

    #[test]
    fn human_report_mentions_every_violation() {
        let text = report().human();
        assert!(text.contains("FAIL: 2 violation(s)"));
        assert!(text.contains("b.rs:9"));
        assert!(text.contains("ratchet crates/json"));
    }

    #[test]
    fn finish_normalizes_backslash_paths() {
        let mut r = AuditReport {
            violations: vec![Violation {
                rule: rules::DETERMINISM_TIME,
                file: "crates\\core\\src\\lib.rs".into(),
                line: 3,
                message: "m".into(),
            }],
            ..AuditReport::default()
        };
        r.finish();
        assert_eq!(r.violations[0].file, "crates/core/src/lib.rs");
    }

    #[test]
    fn closure_report_is_sorted_and_stable() {
        let mut c = ClosureReport {
            closures: vec![
                ClosureInfo { name: "step_loop".into(), ..ClosureInfo::default() },
                ClosureInfo {
                    name: "hot_path".into(),
                    functions: vec!["b.rs#g".into(), "a\\x.rs#f".into(), "b.rs#g".into()],
                    ..ClosureInfo::default()
                },
            ],
        };
        c.finish();
        assert_eq!(c.closures[0].name, "hot_path");
        assert_eq!(c.closures[0].functions, ["a/x.rs#f", "b.rs#g"]);
        let doc = Json::parse(&c.pretty_text()).unwrap();
        assert_eq!(doc.field("schema").unwrap().as_str().unwrap(), CLOSURE_SCHEMA);
        assert!(c.pretty_text().ends_with('\n'));
    }

    #[test]
    fn the_digest_counts_the_lists_and_hashes_every_item() {
        let info = ClosureInfo {
            name: "hot_path".into(),
            roots: vec!["a.rs#f".into()],
            functions: vec!["a.rs#f".into(), "a.rs#g".into()],
            edges: vec!["a.rs#f -> a.rs#g".into()],
            unresolved: vec![".len".into(), "helper".into()],
            panic_sites: PanicCounts { index: 3, ..PanicCounts::default() },
        };
        let report = ClosureReport { closures: vec![info.clone()] };
        let doc = Json::parse(&report.pretty_text()).unwrap();
        let digest = &doc.field("closures").unwrap().as_arr().unwrap()[0];
        let count = |key: &str| digest.field(key).unwrap().as_usize().unwrap();
        assert_eq!(count("functions"), info.functions.len());
        assert_eq!(count("edges"), info.edges.len());
        assert_eq!(count("unresolved"), info.unresolved.len());
        let sites = digest.field("panic_sites").unwrap();
        assert_eq!(sites.field("index").unwrap().as_usize().unwrap(), 3);
        assert_eq!(digest.field("roots").unwrap().as_arr().unwrap().len(), 1);
        // The encoding is pinned: this is the same FNV-1a 64 computed
        // independently over `a.rs#f\na.rs#g\n\0a.rs#f -> a.rs#g\n\0.len\nhelper\n\0`.
        assert_eq!(digest.field("fnv1a64").unwrap().as_str().unwrap(), "38424977444fd061");
        let mut edge = info.clone();
        edge.edges[0] = "a.rs#g -> a.rs#f".into();
        let mut name = info.clone();
        name.unresolved[1] = "helper2".into();
        let mut moved = info.clone();
        moved.edges.push(".len".into());
        moved.unresolved.remove(0);
        for changed in [edge, name, moved] {
            assert_ne!(changed.lists_hash(), info.lists_hash(), "{changed:?}");
        }
    }
}
