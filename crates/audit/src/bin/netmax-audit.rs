//! The `netmax-audit` command-line front end.
//!
//! ```text
//! netmax-audit [--deny] [--closure] [--dump-graph] [--json PATH]
//!              [--root DIR] [--policy PATH]
//! ```
//!
//! Scans the workspace against `audit.policy.json`, prints the human
//! report, and optionally writes the versioned JSON report
//! (`netmax-audit/report/v2`, every closure's full lists included).
//! `--closure` recomputes the closure digest (`netmax-audit/closure/v2`)
//! and writes it to the committed location `audit.closure.json` at the
//! root — CI then diffs the working tree, so any closure growth must be
//! a reviewed commit. `--dump-graph` prints the whole resolved call
//! graph. `--help` prints the usage line. Exit status: 0 when clean (or
//! when violations exist but `--deny` was not passed — report-only
//! mode), 1 for violations under `--deny`, 2 for usage or I/O errors.

use netmax_audit::{load_policy, run_audit_full};
use netmax_json::ToJson;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    deny: bool,
    closure: bool,
    dump_graph: bool,
    json: Option<PathBuf>,
    root: Option<PathBuf>,
    policy: Option<PathBuf>,
}

const USAGE: &str = "usage: netmax-audit [--deny] [--closure] [--dump-graph] [--json PATH] \
                     [--root DIR] [--policy PATH]";

/// The parsed arguments, or `None` for `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        deny: false,
        closure: false,
        dump_graph: false,
        json: None,
        root: None,
        policy: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--closure" => args.closure = true,
            "--dump-graph" => args.dump_graph = true,
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs a path")?.into());
            }
            "--root" => {
                args.root = Some(it.next().ok_or("--root needs a directory")?.into());
            }
            "--policy" => {
                args.policy = Some(it.next().ok_or("--policy needs a path")?.into());
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(Some(args))
}

/// Walks up from the current directory to the first one containing
/// `audit.policy.json` — the workspace root.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("audit.policy.json").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("netmax-audit: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("netmax-audit: no audit.policy.json found here or above (try --root)");
            return ExitCode::from(2);
        }
    };
    let policy_path = args.policy.unwrap_or_else(|| root.join("audit.policy.json"));
    let policy = match load_policy(&policy_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("netmax-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_audit_full(&root, &policy) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("netmax-audit: {e}");
            return ExitCode::from(2);
        }
    };
    if args.dump_graph {
        print!("{}", outcome.graph.dump());
    }
    print!("{}", outcome.report.human());
    if let Some(json_path) = args.json {
        let text = outcome.report.to_json().pretty();
        if let Err(e) = std::fs::write(&json_path, text) {
            eprintln!("netmax-audit: cannot write {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }
    if args.closure {
        let closure_path = root.join("audit.closure.json");
        if let Err(e) = std::fs::write(&closure_path, outcome.report.closures.pretty_text()) {
            eprintln!("netmax-audit: cannot write {}: {e}", closure_path.display());
            return ExitCode::from(2);
        }
        println!(
            "closure digest: {} set(s) written to {}",
            outcome.report.closures.closures.len(),
            closure_path.display()
        );
    }
    if args.deny && !outcome.report.clean() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
