//! End-to-end analyzer tests over the fixture trees in
//! `tests/fixtures/`: each rule must fire on the violating fixture and
//! stay quiet on the clean one.

use netmax_audit::policy::{
    DeterminismPolicy, EnumCheck, PanicBudget, Policy, RequiredText, RootEntry, RootSet,
};
use netmax_audit::{run_audit, AuditReport};
use netmax_json::ToJson;
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// The shared fixture policy: both fixtures declare `Mode` and a `hot`
/// function, the one root of the `hot_path` set; budgets are zero so any
/// panic site trips the ratchet.
fn fixture_policy() -> Policy {
    Policy {
        exclude: vec![],
        determinism: DeterminismPolicy {
            time_banned: vec!["Instant".into(), "SystemTime".into()],
            time_allowlist: vec![],
            hash_banned: vec!["HashMap".into(), "HashSet".into()],
        },
        hot_path_banned: vec![
            "Vec::new".into(),
            "vec!".into(),
            "format!".into(),
            ".collect".into(),
            ".to_vec".into(),
            ".clone".into(),
        ],
        panic_budgets: vec![PanicBudget {
            crate_dir: "src".into(),
            unwrap: 0,
            expect: 0,
            panic: 0,
            unreachable: 0,
            index: 0,
        }],
        enums: vec![EnumCheck {
            name: "Mode".into(),
            decl: "src/lib.rs".into(),
            each: vec!["src/lib.rs".into()],
            union: vec![],
        }],
        required_text: vec![],
        root_sets: vec![RootSet {
            name: "hot_path".into(),
            roots: vec![RootEntry { file: "src/lib.rs".into(), functions: vec!["hot".into()] }],
            prune: vec![],
            budget: None,
        }],
        reassociation: None,
    }
}

fn audit(fixture: &str, policy: &Policy) -> AuditReport {
    run_audit(&fixture_root(fixture), policy).expect("fixture audit runs")
}

fn rules_fired(report: &AuditReport) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn clean_fixture_passes_every_rule() {
    let report = audit("clean", &fixture_policy());
    assert!(report.clean(), "clean fixture must pass:\n{}", report.human());
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn violating_fixture_trips_every_rule() {
    let report = audit("violating", &fixture_policy());
    let fired = rules_fired(&report);
    for rule in ["determinism-time", "determinism-hash", "closure-alloc", "enum-exhaustive", "panic-budget"] {
        assert!(fired.contains(&rule), "expected {rule} to fire, got {fired:?}");
    }
    // `Mode::Off` is the variant the wildcard arm swallowed.
    let enum_miss = report
        .violations
        .iter()
        .find(|v| v.rule == "enum-exhaustive")
        .expect("enum violation present");
    assert!(enum_miss.message.contains("Mode::Off"), "{}", enum_miss.message);
    // Violations carry real line numbers for line-level rules.
    assert!(report
        .violations
        .iter()
        .filter(|v| v.rule == "determinism-time" || v.rule == "closure-alloc")
        .all(|v| v.line > 0));
}

#[test]
fn an_allow_comment_does_not_silence_its_line() {
    // Line 31 of the violating fixture carries
    // `// audit: allow(closure-alloc) -- x`: a comment like any other.
    let report = audit("violating", &fixture_policy());
    assert!(
        report.violations.iter().any(|v| v.rule == "closure-alloc" && v.line == 31),
        "{}",
        report.human()
    );
}

#[test]
fn stale_hot_path_manifest_entry_is_a_violation() {
    let mut policy = fixture_policy();
    policy.root_sets[0].roots[0].functions.push("gone".into());
    let report = audit("clean", &policy);
    let stale = report.violations.iter().find(|v| v.rule == "policy-target");
    assert!(stale.is_some_and(|v| v.message.contains("`gone`")), "{}", report.human());
}

#[test]
fn budget_above_actual_is_a_stale_ratchet_violation() {
    let mut policy = fixture_policy();
    policy.panic_budgets[0].unwrap = 3;
    let report = audit("clean", &policy);
    assert!(rules_fired(&report).contains(&"panic-budget-stale"), "{}", report.human());
}

#[test]
fn missing_required_text_and_policy_targets_are_violations() {
    let mut policy = fixture_policy();
    policy.required_text = vec![
        RequiredText { file: "src/lib.rs".into(), needle: "Clean fixture".into() },
        RequiredText { file: "src/lib.rs".into(), needle: "no such needle".into() },
        RequiredText { file: "src/nope.rs".into(), needle: "x".into() },
    ];
    policy.enums.push(EnumCheck {
        name: "Ghost".into(),
        decl: "src/lib.rs".into(),
        each: vec![],
        union: vec![],
    });
    let report = audit("clean", &policy);
    let fired = rules_fired(&report);
    assert_eq!(fired.iter().filter(|r| **r == "required-text").count(), 1, "{fired:?}");
    assert_eq!(fired.iter().filter(|r| **r == "policy-target").count(), 2, "{fired:?}");
}

#[test]
fn json_report_round_trips_violations() {
    let report = audit("violating", &fixture_policy());
    let doc = report.to_json();
    assert_eq!(doc.field("schema").unwrap().as_str().unwrap(), "netmax-audit/report/v2");
    assert!(!doc.field("pass").unwrap().as_bool().unwrap());
    let listed = doc.field("violations").unwrap().as_arr().unwrap().len();
    assert_eq!(listed, report.violations.len());
    // The pretty form parses back — the CI artifact is real JSON.
    let parsed = netmax_json::Json::parse(&doc.pretty()).expect("report parses");
    assert_eq!(parsed.field("files_scanned").unwrap().as_usize().unwrap(), 1);
}
