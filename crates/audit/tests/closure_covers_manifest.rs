//! Differential guarantee kept from the v1 → v2 policy migration: the
//! `hot_path` closure computed from the committed root sets must cover
//! every function the retired hand-listed hot-path manifest named. The
//! closure may widen coverage (that is its point), but it must never
//! silently narrow it.

use netmax_audit::{load_policy, run_audit_full};
use std::path::PathBuf;

/// The hand-listed manifest as the last v1 policy committed it, frozen
/// here so a future edit to the live policy cannot rewrite the baseline
/// this test compares against. One entry was renamed with its function:
/// the recorder's per-replica `loss_scratch` became `loss_block` and then
/// the fleet-level `loss_fleet`, and the sample path it serves joined the
/// list with it (`force_record` and the two shared blocks' entry points)
/// — a manifest names what must stay covered, and the sample path now
/// must. Two left with theirs: the event
/// queue's `insert` and `link` were the calendar queue's, and the heap's
/// one insertion path is `restore_entry`, which `push` calls.
const V1_MANIFEST: &[(&str, &[&str])] = &[
    (
        "crates/ml/src/model.rs",
        &["gather", "loss_fleet", "loss_grad_scratch", "count_correct_scratch"],
    ),
    ("crates/ml/src/metrics.rs", &["gather_subsample", "diameter"]),
    ("crates/core/src/engine/recorder.rs", &["force_record"]),
    (
        "crates/core/src/engine/environment.rs",
        &[
            "compute_gradient",
            "gradient_step",
            "apply_gradient",
            "pull_params_into",
            "sample_active_neighbor",
            "sample_active_from",
            "book_iteration",
        ],
    ),
    ("crates/core/src/engine/gossip.rs", &["advance", "schedule_next"]),
    ("crates/net/src/event.rs", &["push", "pop", "restore_entry"]),
];

#[test]
fn hot_path_closure_covers_every_v1_manifest_function() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let policy = load_policy(&root.join("audit.policy.json")).expect("committed policy loads");
    let outcome = run_audit_full(&root, &policy).expect("workspace audit runs");
    let hot = outcome
        .report
        .closures
        .closures
        .iter()
        .find(|c| c.name == "hot_path")
        .expect("committed policy declares a hot_path root set");
    // A closure member id is `file#Owner::name` (or `file#name` for free
    // fns); a manifest entry is covered when some member in the same
    // file carries the bare name.
    let covered = |file: &str, func: &str| {
        hot.functions.iter().chain(&hot.roots).any(|id| {
            let Some((f, qual)) = id.split_once('#') else { return false };
            f == file && qual.rsplit("::").next() == Some(func)
        })
    };
    for (file, funcs) in V1_MANIFEST {
        for func in *funcs {
            assert!(
                covered(file, func),
                "v1 manifest entry {file}#{func} is not in the v2 hot_path closure"
            );
        }
    }
}
