//! `netmax-audit` at the process boundary: `--help` is a request, not an
//! error, and an unknown argument is one line on stderr and exit 2.

use std::process::{Command, Output};

fn audit(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netmax-audit"))
        .args(args)
        .output()
        .expect("netmax-audit runs")
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = audit(&[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stdout}");
        assert!(
            stdout.starts_with("usage: netmax-audit"),
            "{flag}: {stdout}"
        );
        assert!(
            out.stderr.is_empty(),
            "{flag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn an_unknown_argument_is_one_line_and_exit_two() {
    let out = audit(&["--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("unknown argument `--bogus`"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
