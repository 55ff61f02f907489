//! The benchmark must be built the way the repository's own binaries are:
//! its profile tables mirror the root manifest's, and this test fails when
//! they drift.

use std::collections::BTreeMap;
use std::path::Path;

/// `key = value` lines of one `[section]` of a manifest (enough TOML for
/// profile tables: no nesting, no multi-line values).
fn section(manifest: &str, header: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

#[test]
fn profiles_mirror_the_root_manifest() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = std::fs::read_to_string(here.join("Cargo.toml")).unwrap();
    let root = std::fs::read_to_string(here.join("../Cargo.toml")).unwrap();
    for header in ["[profile.release]", "[profile.dev]"] {
        let root_profile = section(&root, header);
        assert!(!root_profile.is_empty(), "root manifest has no {header}");
        assert_eq!(section(&ours, header), root_profile, "{header} drifted from the root manifest");
    }
    assert_eq!(
        section(&root, "[profile.release]").get("lto").map(String::as_str),
        Some("\"thin\"")
    );
}

#[test]
fn the_package_stands_alone() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = std::fs::read_to_string(here.join("Cargo.toml")).unwrap();
    assert!(ours.lines().any(|l| l.trim() == "[workspace]"), "needs its own [workspace] table");
    for (name, spec) in section(&ours, "[dependencies]") {
        assert!(spec.contains("path = \"../crates/"), "{name} is not a path dependency: {spec}");
    }
}
