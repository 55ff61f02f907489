//! `netmax-bench` at the process boundary: every subcommand that writes
//! a document writes it whole, newline-terminated and nowhere else; a run
//! suspended to a checkpoint directory resumes to the same artifact; the
//! mode comes from the arguments alone; malformed counts are usage
//! errors. Tiny mode throughout, each run in its own temp directory.

use netmax_json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh empty directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netmax-bench-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn bench(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netmax-bench"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("netmax-bench runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn every_artifact_is_whole_newline_terminated_and_the_only_thing_written() {
    let dir = scratch_dir("artifacts");
    // (arguments, the artifact they must leave behind)
    let table: [(&[&str], &str); 3] = [
        (&["sanity", "--tiny", "--out", "sanity.json"], "sanity.json"),
        (&["scale", "--tiny", "--out", "scale.json"], "scale.json"),
        (&["run", "fig03", "--tiny", "--json", "run.json"], "run.json"),
    ];
    for (args, artifact) in table {
        let out = bench(&dir, args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let text = std::fs::read_to_string(dir.join(artifact)).expect(artifact);
        assert!(text.ends_with("}\n") && !text.ends_with("\n\n"), "{artifact}: one trailing newline");
        Json::parse(&text).unwrap_or_else(|e| panic!("{artifact} does not parse: {e}"));
    }
    // Nothing but the three artifacts: no CSV directory, no `*.tmp`
    // sibling left by the atomic writer.
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["run.json", "sanity.json", "scale.json"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_suspended_run_resumes_through_the_cli_to_the_same_artifact() {
    let dir = scratch_dir("resume");
    let run = |extra: &[&str]| {
        let args = [&["run", "fig05/resnet18-cifar10", "--tiny", "--threads", "1"], extra].concat();
        let out = bench(&dir, &args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    };
    run(&["--json", "full.json"]);
    run(&["--checkpoint-dir", "ckpt", "--suspend-steps", "200"]);
    let shown = bench(
        &dir,
        &["show", "ckpt/fig05__resnet18-cifar10.checkpoint.bin"],
    );
    assert!(shown.status.success(), "{}", stderr(&shown));
    let shown = String::from_utf8_lossy(&shown.stdout);
    assert!(
        shown.contains("valid netmax-bench/checkpoint/v1 container"),
        "{shown}"
    );
    run(&["--resume", "ckpt", "--json", "resumed.json"]);
    let read = |name: &str| std::fs::read(dir.join(name)).expect(name);
    assert!(
        read("full.json") == read("resumed.json"),
        "the resumed artifact differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_counts_are_usage_errors_and_the_mode_variable_is_inert() {
    let dir = scratch_dir("usage");
    // (arguments, what the one-line message must contain)
    let table: [(&[&str], &str); 7] = [
        (&["run", "sanity", "--tiny", "--seeds", "0"], "--seeds needs a positive integer, got `0`"),
        (&["run", "sanity", "--tiny", "--threads", "0"], "--threads needs a positive integer, got `0`"),
        (&["scale", "--tiny", "--repeats", "x"], "--repeats needs a positive integer, got `x`"),
        (&["scale", "--tiny", "--repeats", "-3"], "--repeats needs a positive integer, got `-3`"),
        // Real time per layer is measured by `benchmark/`; the two
        // micro-harness subcommands are not commands.
        (&["throughput", "--quick"], "unknown command: throughput"),
        (&["checkpoint", "--quick"], "unknown command: checkpoint"),
        // One thread is `--threads 1`; there is no second spelling.
        (&["run", "sanity", "--tiny", "--sequential"], "unknown option `--sequential`"),
    ];
    for (args, message) in table {
        let out = bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(message), "{args:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{args:?} ran something before failing");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "a usage error writes nothing");

    // The retired mode variable is not read: the listing is the
    // full-mode one (the sanity scenario's 48 epochs, 2 under --tiny)
    // with or without it.
    let sanity_line = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("sanity/"))
            .map(str::to_owned)
            .expect("list names the sanity experiment")
    };
    let with_var = Command::new(env!("CARGO_BIN_EXE_netmax-bench"))
        .arg("list")
        .current_dir(&dir)
        .env("NETMAX_MODE", "tiny")
        .output()
        .unwrap();
    assert_eq!(sanity_line(&with_var), sanity_line(&bench(&dir, &["list"])));
    assert!(sanity_line(&with_var).contains(" 48.0 "), "{}", sanity_line(&with_var));
    assert!(sanity_line(&bench(&dir, &["list", "--tiny"])).contains(" 2.0 "));
    std::fs::remove_dir_all(&dir).ok();
}
