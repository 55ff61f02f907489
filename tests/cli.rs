//! `netmax-cli` at the process boundary: a malformed invocation is one
//! line on stderr and exit 2 — never a panic, never a silent fallback
//! to a default — and a well-formed one still trains.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netmax-cli")).args(args).output().expect("netmax-cli runs")
}

#[test]
fn malformed_invocations_are_usage_errors_never_panics() {
    // (arguments, what the message must name)
    let table: [(&[&str], &str); 9] = [
        (&["run", "--wrokers", "4"], "unknown option `--wrokers`"),
        (&["run", "--workers", "abc"], "--workers needs an integer of at least 2, got `abc`"),
        (&["run", "--workers", "0"], "--workers needs an integer of at least 2, got `0`"),
        (&["run", "--workers", "1"], "--workers needs an integer of at least 2, got `1`"),
        (&["run", "--epochs", "-1"], "--epochs needs a positive finite number, got `-1`"),
        (&["run", "--epochs", "nan"], "--epochs needs a positive finite number, got `nan`"),
        (&["policy", "--slowdown", "-5"], "--slowdown needs a positive finite number, got `-5`"),
        (&["compare", "--alpha", "inf"], "--alpha needs a positive finite number, got `inf`"),
        (&["run", "--seed"], "--seed needs a value"),
    ];
    for (args, message) in table {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: one line, got {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something before failing");
    }

    let out = cli(&["run", "--workload", "ridge", "--workers", "4", "--epochs", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("netmax") && stdout.contains("loss="), "{stdout}");
}
