//! The central experiment registry: every figure/table of the paper's
//! evaluation declared once as [`ExperimentSpec`]s.
//!
//! Each experiment module contributes its specs through a `specs(..)`
//! function; this module collects them at a given execution [`Mode`] and
//! is the single source the `netmax-bench` CLI, the smoke tests, and the
//! docs enumerate. Names are `group/detail` (`fig08/resnet18-cifar10`);
//! `netmax-bench run fig08` runs a whole group, `run all` runs everything.

use crate::common::Mode;
use crate::experiments::{
    ablations, accuracy, epoch_time, equivalence, faults, fig03, fig07, fig14, fig15, fig19,
    loss_curves, nonuniform, scale, scalability, tab05,
};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, Scenario, TrainConfig};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::{NetworkKind, SlowdownConfig};

/// The `sanity` suite: the PR-1 performance-baseline scenario
/// (`netmax-bench sanity` times it arm by arm into `BENCH_sanity.json`).
pub fn sanity_spec(mode: Mode) -> ExperimentSpec {
    ExperimentSpec {
        name: "sanity/resnet18-cifar10".into(),
        group: "sanity".into(),
        title: "Sanity — headline-four shape check on the heterogeneous dynamic network".into(),
        scenario: Scenario::builder()
            .workers(8)
            .network(NetworkKind::HeterogeneousDynamic)
            .workload(WorkloadSpec::resnet18_cifar10(42))
            .slowdown(SlowdownConfig { change_period_s: 120.0, ..SlowdownConfig::default() })
            .train_config(TrainConfig {
                max_epochs: mode.epochs(48.0),
                record_every_steps: 40,
                seed: 7,
                ..TrainConfig::default()
            })
            .build(),
        arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
        seeds: vec![7],
        metrics: vec![MetricKind::TimeToTarget, MetricKind::EpochCost, MetricKind::Accuracy],
    }
}

/// Builds the full registry at the given execution mode. Every entry's
/// name is unique; entries of one figure/table share a `group`.
pub fn registry(mode: Mode) -> Vec<ExperimentSpec> {
    let mut specs = fig03::specs();
    for module in [
        epoch_time::specs,
        fig07::specs,
        loss_curves::specs,
        scalability::specs,
        accuracy::specs,
        nonuniform::specs,
        tab05::specs,
        fig14::specs,
        fig15::specs,
        fig19::specs,
        ablations::specs,
        faults::specs,
    ] {
        specs.extend(module(mode));
    }
    specs.extend(scale::specs(&scale::Params::for_mode(mode)));
    specs.extend(equivalence::specs(mode));
    specs.push(sanity_spec(mode));
    specs
}

/// Schema tag of the machine-readable registry listing
/// (`netmax-bench list --json`).
pub const REGISTRY_SCHEMA: &str = "netmax-bench/registry/v1";

/// The registry as a machine-readable document: one entry per experiment
/// with its name, group, title, scenario shape, arm kinds, and seed count.
pub fn registry_json(specs: &[ExperimentSpec]) -> netmax_json::Json {
    use netmax_json::{Json, ToJson};
    Json::obj([
        ("schema", Json::Str(REGISTRY_SCHEMA.into())),
        (
            "experiments",
            Json::Arr(
                specs
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", s.name.to_json()),
                            ("group", s.group.to_json()),
                            ("title", s.title.to_json()),
                            ("workers", s.scenario.workers().to_json()),
                            ("workload", s.scenario.workload_spec().kind.name().to_json()),
                            ("network", s.scenario.network_kind().name().to_json()),
                            ("max_epochs", s.scenario.cfg().max_epochs.to_json()),
                            (
                                "arms",
                                Json::Arr(
                                    s.arms
                                        .iter()
                                        .map(|a| a.algorithm.name().to_json())
                                        .collect(),
                                ),
                            ),
                            ("seed_count", s.effective_seeds().len().to_json()),
                            ("cells", s.num_cells().to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Looks experiments up by exact name or by group.
pub fn find(specs: &[ExperimentSpec], query: &str) -> Vec<ExperimentSpec> {
    if query == "all" {
        return specs.to_vec();
    }
    let exact: Vec<_> = specs.iter().filter(|s| s.name == query).cloned().collect();
    if !exact.is_empty() {
        return exact;
    }
    specs.iter().filter(|s| s.group == query).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    const MODES: [Mode; 3] = [Mode::Full, Mode::Quick, Mode::Tiny];

    /// The registry at `mode`, built once for all of this module's tests:
    /// a build instantiates every non-uniform case's workload.
    fn built(mode: Mode) -> &'static [ExperimentSpec] {
        static BUILT: OnceLock<[Vec<ExperimentSpec>; 3]> = OnceLock::new();
        let all = BUILT.get_or_init(|| MODES.map(registry));
        &all[MODES.iter().position(|&m| m == mode).expect("one of MODES")]
    }

    #[test]
    fn names_are_unique_and_grouped() {
        for mode in MODES {
            let specs = built(mode);
            let names: BTreeSet<_> = specs.iter().map(|s| s.name.clone()).collect();
            assert_eq!(names.len(), specs.len(), "{mode:?}: duplicate experiment names");
            for s in specs {
                assert!(
                    s.name == s.group || s.name.starts_with(&format!("{}/", s.group)),
                    "{}: name must extend its group `{}`",
                    s.name,
                    s.group
                );
            }
            // Every figure/table of the paper's evaluation is declared.
            let groups: BTreeSet<_> = specs.iter().map(|s| s.group.as_str()).collect();
            for g in [
                "fig03", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
                "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "tab02", "tab03",
                "tab05", "abl", "sanity", "scale", "equivalence",
            ] {
                assert!(groups.contains(g), "{mode:?}: missing group {g}");
            }
        }
    }

    #[test]
    fn every_entry_builds_its_environment() {
        // Tiny mode keeps the datasets smallest; build_env materialises
        // topology, network, partition, and models for every entry.
        for spec in built(Mode::Tiny) {
            let env = spec.scenario.build_env();
            assert_eq!(env.num_nodes(), spec.scenario.workers(), "{}", spec.name);
            assert!(env.topology.is_connected(), "{}", spec.name);
            for i in 0..env.num_nodes() {
                assert!(!env.nodes[i].sampler.indices().is_empty(), "{}: empty shard", spec.name);
            }
        }
    }

    #[test]
    fn registry_json_lists_every_experiment() {
        use netmax_json::{FromJson, Json};
        let specs = built(Mode::Tiny);
        let doc = registry_json(specs);
        let reparsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(reparsed.field("schema").unwrap().as_str().unwrap(), REGISTRY_SCHEMA);
        let entries = reparsed.field("experiments").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), specs.len());
        for (entry, spec) in entries.iter().zip(specs) {
            assert_eq!(String::from_json(entry.field("name").unwrap()).unwrap(), spec.name);
            let arms = entry.field("arms").unwrap().as_arr().unwrap();
            assert_eq!(arms.len(), spec.arms.len());
            assert_eq!(
                usize::from_json(entry.field("seed_count").unwrap()).unwrap(),
                spec.effective_seeds().len()
            );
        }
    }

    #[test]
    fn every_algorithm_kind_is_run_by_some_spec() {
        for mode in MODES {
            let run: BTreeSet<_> = built(mode)
                .iter()
                .flat_map(|s| s.arms.iter().map(|a| a.algorithm.name()))
                .collect();
            let missing: Vec<_> = AlgorithmKind::all()
                .into_iter()
                .map(|k| k.name())
                .filter(|n| !run.contains(n))
                .collect();
            assert!(missing.is_empty(), "{mode:?}: no registry spec runs {missing:?}");
        }
    }

    #[test]
    fn per_server_counts_hold_for_registered_worker_counts() {
        use netmax_core::engine::scenario::per_server_counts;
        let counts: BTreeSet<usize> =
            built(Mode::Full).iter().map(|s| s.scenario.workers()).collect();
        for &n in &counts {
            for servers in 1..=4 {
                let per = per_server_counts(n, servers);
                assert_eq!(per.iter().sum::<usize>(), n, "n={n} servers={servers}");
                assert!(per.iter().all(|&c| c > 0), "n={n} servers={servers}: empty server");
                let (lo, hi) = (per.iter().min().unwrap(), per.iter().max().unwrap());
                assert!(hi - lo <= 1, "n={n} servers={servers}: unbalanced {per:?}");
            }
        }
    }

    #[test]
    fn find_matches_names_groups_and_all() {
        let specs = built(Mode::Tiny);
        assert_eq!(find(specs, "all").len(), specs.len());
        let fig08 = find(specs, "fig08");
        assert_eq!(fig08.len(), 2, "fig08 has two workload panels");
        let one = find(specs, "fig08/resnet18-cifar10");
        assert_eq!(one.len(), 1);
        assert!(find(specs, "nope").is_empty());
    }

    #[test]
    fn registry_specs_round_trip_through_json() {
        use netmax_json::{FromJson, Json, ToJson};
        for spec in MODES.into_iter().flat_map(built) {
            let text = spec.to_json().to_string();
            let back = ExperimentSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, spec, "{} must round-trip", spec.name);
        }
    }
}
