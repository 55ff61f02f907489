//! Closure-rule integration tests over the `closure_*` fixture trees:
//! each rule must fire on the violating tree (where every violation
//! lives in a *transitive* callee, never a root), stay quiet on the
//! clean tree, honor prunes, and stay entirely off for a policy with no
//! root sets.

use netmax_audit::policy::{
    DeterminismPolicy, PanicBudget, Policy, Reassociation, RootEntry, RootSet,
};
use netmax_audit::scan::PanicCounts;
use netmax_audit::{run_audit_full, AuditOutcome};
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn root_set(name: &str, functions: &[&str], prune: &[&str]) -> RootSet {
    let entry = |functions: &[&str]| RootEntry {
        file: "src/lib.rs".into(),
        functions: functions.iter().map(|s| s.to_string()).collect(),
    };
    RootSet {
        name: name.into(),
        roots: vec![entry(functions)],
        prune: if prune.is_empty() { vec![] } else { vec![entry(prune)] },
        budget: None,
    }
}

/// The shared closure-fixture policy: three root sets anchored at
/// `hot_root`/`step_root`/`kernel`, a zero budget on the `step_loop` set,
/// and a reassociation boundary at `src/math.rs` approving only `axpy`.
fn closure_policy() -> Policy {
    Policy {
        exclude: vec![],
        determinism: DeterminismPolicy {
            time_banned: vec!["Instant".into(), "SystemTime".into()],
            time_allowlist: vec![],
            hash_banned: vec!["HashMap".into(), "HashSet".into()],
        },
        hot_path_banned: vec!["vec!".into(), "format!".into(), ".clone".into()],
        panic_budgets: vec![],
        enums: vec![],
        required_text: vec![],
        root_sets: vec![
            root_set("hot_path", &["hot_root"], &[]),
            RootSet {
                budget: Some(PanicCounts::default()),
                ..root_set("step_loop", &["step_root"], &[])
            },
            root_set("strict_numerics", &["kernel"], &[]),
        ],
        reassociation: Some(Reassociation {
            modules: vec!["src/math.rs".into()],
            intrinsics: vec!["exp".into(), "mul_add".into()],
            approved: vec!["axpy".into()],
        }),
    }
}

fn audit(fixture: &str, policy: &Policy) -> AuditOutcome {
    run_audit_full(&fixture_root(fixture), policy).expect("fixture audit runs")
}

fn rules_fired(outcome: &AuditOutcome) -> Vec<&'static str> {
    outcome.report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn clean_tree_passes_every_closure_rule() {
    let outcome = audit("closure_clean", &closure_policy());
    assert!(outcome.report.clean(), "\n{}", outcome.report.human());
    assert_eq!(outcome.report.closures.closures.len(), 3);
}

#[test]
fn violating_tree_trips_every_closure_rule() {
    let outcome = audit("closure_violating", &closure_policy());
    let fired = rules_fired(&outcome);
    for rule in [
        "closure-alloc",
        "closure-determinism",
        "closure-panic-budget",
        "reassociation-boundary",
    ] {
        assert!(fired.contains(&rule), "expected {rule} to fire, got {fired:?}");
    }
    // The reassociation boundary catches both shapes: the unapproved
    // boundary-module helper and the unapproved float intrinsic.
    let boundary: Vec<&str> = outcome
        .report
        .violations
        .iter()
        .filter(|v| v.rule == "reassociation-boundary")
        .map(|v| v.message.as_str())
        .collect();
    assert!(boundary.iter().any(|m| m.contains("shuffle")), "{boundary:?}");
    assert!(boundary.iter().any(|m| m.contains("exp")), "{boundary:?}");
}

#[test]
fn violations_live_in_transitive_callees_not_roots() {
    let outcome = audit("closure_violating", &closure_policy());
    let hot = outcome
        .report
        .closures
        .closures
        .iter()
        .find(|c| c.name == "hot_path")
        .expect("hot_path closure reported");
    assert!(hot.roots.contains(&"src/lib.rs#hot_root".to_string()), "{:?}", hot.roots);
    assert!(
        hot.functions.contains(&"src/lib.rs#spill".to_string()),
        "transitive callee missing from closure: {:?}",
        hot.functions
    );
    // Every closure-alloc finding is in the helper, not the root.
    for v in outcome.report.violations.iter().filter(|v| v.rule == "closure-alloc") {
        assert!(v.message.contains("spill"), "{}", v.message);
    }
}

#[test]
fn prunes_cut_the_traversal_at_the_named_functions() {
    let mut policy = closure_policy();
    policy.root_sets[0] = root_set("hot_path", &["hot_root"], &["spill"]);
    policy.root_sets[1] = RootSet {
        budget: Some(PanicCounts::default()),
        ..root_set("step_loop", &["step_root"], &["risky"])
    };
    let outcome = audit("closure_violating", &closure_policy());
    let pruned = audit("closure_violating", &policy);
    let fired = rules_fired(&pruned);
    assert!(!fired.contains(&"closure-alloc"), "prune must cut the alloc site: {fired:?}");
    assert!(!fired.contains(&"closure-panic-budget"), "prune must cut the panic sites: {fired:?}");
    // The unpruned run still fires both, so the prune is what changed.
    let unpruned = rules_fired(&outcome);
    assert!(unpruned.contains(&"closure-alloc") && unpruned.contains(&"closure-panic-budget"));
}

#[test]
fn stale_closure_budget_is_flagged() {
    let mut policy = closure_policy();
    // The set's budget far above the fixture's actual two sites — the
    // two-way ratchet must demand it be lowered, and only that.
    policy.root_sets[1].budget = Some(PanicCounts {
        unwrap: 5,
        expect: 0,
        panic: 0,
        unreachable: 0,
        index: 5,
    });
    let outcome = audit("closure_violating", &policy);
    let fired = rules_fired(&outcome);
    assert!(fired.contains(&"closure-panic-budget-stale"), "{fired:?}");
    assert!(!fired.contains(&"closure-panic-budget"), "{fired:?}");
}

#[test]
fn any_root_set_may_carry_a_panic_budget() {
    let mut policy = closure_policy();
    // A zero budget on the strict_numerics set: the ratchet now reports
    // a `closure:strict_numerics` status row alongside step_loop's.
    policy.root_sets[2].budget = Some(PanicCounts::default());
    let outcome = audit("closure_clean", &policy);
    assert!(outcome.report.clean(), "\n{}", outcome.report.human());
    let rows: Vec<&str> =
        outcome.report.budgets.iter().map(|b| b.crate_dir.as_str()).collect();
    assert!(rows.contains(&"closure:strict_numerics"), "{rows:?}");
    assert!(rows.contains(&"closure:step_loop"), "{rows:?}");
}

#[test]
fn v1_policies_compute_no_closures_and_fire_no_closure_rules() {
    let mut policy = closure_policy();
    policy.root_sets = vec![];
    // A crate budget keeps the per-crate ratchet exercised while the
    // closure machinery stays off.
    policy.panic_budgets = vec![PanicBudget {
        crate_dir: "src".into(),
        unwrap: 1,
        expect: 0,
        panic: 0,
        unreachable: 0,
        index: 1,
    }];
    let outcome = audit("closure_violating", &policy);
    assert!(outcome.report.closures.closures.is_empty());
    for v in &outcome.report.violations {
        assert!(!v.rule.starts_with("closure-"), "unexpected {} violation", v.rule);
        assert_ne!(v.rule, "reassociation-boundary");
    }
}

/// Minimal two-set policy over the `closure_tiers` fixture: one strict
/// root, one fast root, both reaching `shared_accum`.
fn tiers_policy() -> Policy {
    Policy {
        exclude: vec![],
        determinism: DeterminismPolicy {
            time_banned: vec!["Instant".into()],
            time_allowlist: vec![],
            hash_banned: vec!["HashMap".into()],
        },
        hot_path_banned: vec![],
        panic_budgets: vec![],
        enums: vec![],
        required_text: vec![],
        root_sets: vec![
            root_set("strict_numerics", &["strict_root"], &[]),
            root_set("fast_numerics", &["fast_root"], &[]),
        ],
        reassociation: None,
    }
}

#[test]
fn tier_isolation_fires_on_a_shared_helper() {
    let outcome = audit("closure_tiers", &tiers_policy());
    let fired = rules_fired(&outcome);
    assert!(fired.contains(&"tier-isolation"), "{fired:?}");
    let shared: Vec<&str> = outcome
        .report
        .violations
        .iter()
        .filter(|v| v.rule == "tier-isolation")
        .map(|v| v.message.as_str())
        .collect();
    assert!(shared.iter().all(|m| m.contains("shared_accum")), "{shared:?}");
}

#[test]
fn tier_isolation_is_silenced_by_a_reviewed_prune_only() {
    let mut policy = tiers_policy();
    policy.root_sets[1] = root_set("fast_numerics", &["fast_root"], &["shared_accum"]);
    let outcome = audit("closure_tiers", &policy);
    let fired = rules_fired(&outcome);
    assert!(!fired.contains(&"tier-isolation"), "prune must cut the shared helper: {fired:?}");
}

#[test]
fn tier_isolation_stays_off_without_a_fast_numerics_set() {
    let mut policy = tiers_policy();
    policy.root_sets.pop();
    let outcome = audit("closure_tiers", &policy);
    let fired = rules_fired(&outcome);
    assert!(!fired.contains(&"tier-isolation"), "{fired:?}");
}

#[test]
fn missing_roots_and_prunes_are_policy_target_violations() {
    let mut policy = closure_policy();
    policy.root_sets.push(root_set("hot_path", &["no_such_fn"], &["also_missing"]));
    let outcome = audit("closure_violating", &policy);
    let targets: Vec<&str> = outcome
        .report
        .violations
        .iter()
        .filter(|v| v.rule == "policy-target")
        .map(|v| v.message.as_str())
        .collect();
    assert!(targets.iter().any(|m| m.contains("no_such_fn")), "{targets:?}");
    assert!(targets.iter().any(|m| m.contains("also_missing")), "{targets:?}");
}
