//! The tier-1 gate: the committed `audit.policy.json` must hold over the
//! entire workspace, so `cargo test` fails the moment a banned pattern,
//! budget overrun, or stale budget lands — no separate CI step needed to
//! notice locally.

use netmax_audit::{load_policy, run_audit_full};
use std::path::PathBuf;

#[test]
fn workspace_is_audit_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let policy = load_policy(&root.join("audit.policy.json")).expect("committed policy loads");
    let report = run_audit_full(&root, &policy).expect("workspace audit runs").report;
    assert!(report.clean(), "\n{}", report.human());
}

#[test]
fn committed_closure_report_is_current_and_deterministic() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let policy = load_policy(&root.join("audit.policy.json")).expect("committed policy loads");
    let first = run_audit_full(&root, &policy).expect("workspace audit runs");
    let second = run_audit_full(&root, &policy).expect("workspace audit runs twice");
    // Two independent runs produce identical closures — the lists are a
    // pure function of the tree and the policy.
    assert_eq!(first.report.closures, second.report.closures);
    // And the committed `audit.closure.json` digest matches, so closure
    // growth is always a reviewed diff, never a silent drift.
    let committed = std::fs::read_to_string(root.join("audit.closure.json"))
        .expect("committed closure digest exists (run `netmax-audit --closure`)");
    assert_eq!(
        first.report.closures.pretty_text(),
        committed,
        "audit.closure.json is stale — regenerate with `netmax-audit --closure`"
    );
}
