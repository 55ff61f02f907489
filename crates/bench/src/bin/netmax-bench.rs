//! `netmax-bench` — the one runner CLI for every registered experiment.
//!
//! ```text
//! netmax-bench list [--json] [--quick|--tiny]
//! netmax-bench run <name|group|all> [--quick|--tiny] [--seeds N|a,b,c]
//!                  [--json out.json] [--threads N]
//!                  [--progress] [--deadline-s S]
//!                  [--checkpoint-dir DIR [--suspend-steps K]]
//!                  [--resume DIR] [--tier strict|fast]
//! netmax-bench scale [--quick|--tiny] [--repeats R] [--out path]
//! netmax-bench sanity [--quick|--tiny] [--out path]
//! netmax-bench show <artifact.json|checkpoint.bin>
//! ```
//!
//! `run` drives every `(arm, seed)` cell of the matching experiments
//! through step-wise sessions on a scoped thread pool (runs are
//! deterministic per cell, so parallelism cannot change results), prints
//! one summary table per experiment, and with `--json` writes the
//! versioned `netmax-bench/run-report/v1` artifact. With
//! `--checkpoint-dir` each cell is *suspended* after `--suspend-steps`
//! global steps and the experiment is written as one
//! `netmax-bench/checkpoint/v1` NMXB container
//! (`<name>.checkpoint.bin`) instead; `--resume` picks those up and
//! finishes them — byte-identical to an uninterrupted run. `show` parses
//! a run artifact back and re-prints its summaries, or summarizes a
//! checkpoint container per cell (algorithm, seed, global step, tier);
//! any other schema is a typed "unknown schema" error — it doubles as a
//! schema check in CI. `sanity` runs the registry's `sanity` arms one at
//! a time, each timed alone on one thread, and writes
//! `BENCH_sanity.json`; `scale` does the same for the torus fleets of
//! `BENCH_scale.json`. `tests/contract.rs` holds both documents' simulated
//! fields equal to the committed files. Every JSON artifact goes through
//! [`write_artifact`].

use netmax_bench::registry::{find, registry, registry_json};
use netmax_bench::runner::{CellProgress, RunOptions};
use netmax_bench::{runner, Mode};
use netmax_core::engine::AlgorithmKind;
use netmax_json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One command's flag vocabulary: flags that consume a value, and boolean
/// flags. Anything else starting with `-` is an error — a typo must not
/// silently drop a requested artifact or determinism setting.
struct FlagSpec {
    value: &'static [&'static str],
    boolean: &'static [&'static str],
}

const LIST_FLAGS: FlagSpec = FlagSpec { value: &[], boolean: &["--json", "--quick", "--tiny"] };
const RUN_FLAGS: FlagSpec = FlagSpec {
    value: &[
        "--seeds",
        "--json",
        "--threads",
        "--deadline-s",
        "--checkpoint-dir",
        "--suspend-steps",
        "--resume",
        "--tier",
    ],
    boolean: &["--quick", "--tiny", "--progress"],
};
const SHOW_FLAGS: FlagSpec = FlagSpec { value: &[], boolean: &[] };
const SCALE_FLAGS: FlagSpec =
    FlagSpec { value: &["--repeats", "--out"], boolean: &["--quick", "--tiny"] };
const SANITY_FLAGS: FlagSpec = FlagSpec { value: &["--out"], boolean: &["--quick", "--tiny"] };

/// Splits argv into positional arguments under a command's flag spec,
/// skipping the value each value-taking flag consumes (so `run --seeds 2
/// sanity` parses the target as `sanity`, not `2`). Unknown or
/// `--flag=value`-form options are an error.
fn positionals<'a>(args: &'a [String], spec: &FlagSpec) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if spec.value.contains(&a.as_str()) {
            if it.next().is_none() {
                return Err(format!("{a} needs a value"));
            }
        } else if a.starts_with('-') {
            if !spec.boolean.contains(&a.as_str()) {
                return Err(format!(
                    "unknown option `{a}` (note: `--flag=value` is not supported, use `--flag value`)"
                ));
            }
        } else {
            out.push(a.as_str());
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    // The command may appear anywhere among the flags (`--tiny list`
    // works): it is the first argument matching a known command name that
    // is not the value of a flag. Flags that take a value in *every*
    // command that accepts them shield their value from command
    // detection (`scale --out list` writes to a file named `list`);
    // `--json` is the one ambiguous flag (boolean for `list`, value for
    // `run`), so an artifact path literally named after a command must be
    // placed after the command word.
    let known = ["list", "run", "show", "scale", "sanity", "help"];
    let always_value = [
        "--seeds",
        "--threads",
        "--deadline-s",
        "--checkpoint-dir",
        "--suspend-steps",
        "--resume",
        "--repeats",
        "--out",
        "--tier",
    ];
    let cmd = args.iter().enumerate().find_map(|(i, a)| {
        let shielded = i > 0 && always_value.contains(&args[i - 1].as_str());
        (!shielded && known.contains(&a.as_str())).then_some(a)
    });
    let Some(cmd) = cmd else {
        if let Some(other) = args.iter().find(|a| !a.starts_with('-')) {
            eprintln!("unknown command: {other}");
        }
        usage();
        return ExitCode::from(2);
    };
    let spec = match cmd.as_str() {
        "list" => &LIST_FLAGS,
        "run" => &RUN_FLAGS,
        "show" => &SHOW_FLAGS,
        "scale" => &SCALE_FLAGS,
        "sanity" => &SANITY_FLAGS,
        "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        _ => unreachable!("filtered to known commands"),
    };
    let mut positional = match positionals(&args, spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            usage();
            return ExitCode::from(2);
        }
    };
    // Drop the command token itself; what remains is the operand list.
    let idx = positional
        .iter()
        .position(|p| p == cmd)
        .expect("command is a positional");
    positional.remove(idx);
    let outcome = match cmd.as_str() {
        "list" => list(&args),
        "run" => run(&args, positional.first().copied()),
        "show" => show(positional.first().copied()),
        "scale" => scale(&args),
        "sanity" => sanity(&args),
        _ => unreachable!("filtered to known commands"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn usage() {
    eprintln!(
        "netmax-bench — declarative experiment runner (NetMax, ICDE 2021)

commands:
  list                      all registered experiments (name, scenario, arms)
  run <name|group|all>      execute matching experiments over (arm, seed) cells
  show <path>               parse a run artifact (re-printing its summaries)
                            or a checkpoint container (per-cell algorithm,
                            seed, global step, tier); unknown schemas fail
  scale                     sweep the headline four over torus fleets (full:
                            32-4096 workers; tiny: 32/256) measuring
                            convergence, steps/sec, and peak RSS, and write
                            BENCH_scale.json
  sanity                    run the sanity arms one at a time, each timed on
                            one thread, and write BENCH_sanity.json

options:
  --quick / --tiny          compressed experiment scale (default: full)
  --json                    list: emit the registry as JSON on stdout
  --seeds <N | a,b,c>       N derived seeds, or an explicit seed list
  --json <path>             run: write the versioned JSON run artifact
  --threads <N>             worker threads (default: all cores; any count
                            gives the same results)
  --progress                stream per-sample progress lines to stderr
  --deadline-s <S>          real-time budget per cell; expiry finishes the
                            cell early (partial report; non-deterministic)
  --checkpoint-dir <DIR>    suspend each cell mid-run and write one
                            <name>.checkpoint.bin container per experiment
  --suspend-steps <K>       global steps before suspension (default 100)
  --resume <DIR>            resume the containers written by
                            --checkpoint-dir and run them to completion
  --tier <strict|fast>      run: numerics tier for every matching experiment
                            (default: the spec's own tier)
  --repeats <R>             scale: repetitions per cell (best kept)
  --out <path>              scale/sanity: output path
                            (default BENCH_<command>.json)"
    );
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(|s| s.as_str())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// A usage error: one line on stderr, exit 2.
fn usage_error(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}

/// A failed operation (I/O, an unreadable document): one line on stderr,
/// exit 1.
fn failure(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// The experiment scale, from the command's own arguments: `--tiny` wins
/// over `--quick`, neither means full.
fn mode_of(args: &[String]) -> Mode {
    if has_flag(args, "--tiny") {
        Mode::Tiny
    } else if has_flag(args, "--quick") {
        Mode::Quick
    } else {
        Mode::Full
    }
}

/// Parses `text`, the value of `flag`, as a positive integer; anything
/// else is a usage error.
fn positive<T>(flag: &str, text: &str) -> Result<T, ExitCode>
where
    T: std::str::FromStr + Default + PartialOrd,
{
    match text.parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err(usage_error(format!("{flag} needs a positive integer, got `{text}`"))),
    }
}

/// [`positive`] over an optional flag: `None` when the flag is absent.
fn positive_flag<T>(args: &[String], flag: &str) -> Result<Option<T>, ExitCode>
where
    T: std::str::FromStr + Default + PartialOrd,
{
    flag_value(args, flag).map(|text| positive(flag, text)).transpose()
}

/// Parses `--tier`, turning an unknown tier name into a usage error
/// instead of silently running the default tier.
fn parse_tier(args: &[String]) -> Result<Option<netmax_ml::NumericsTier>, ExitCode> {
    flag_value(args, "--tier")
        .map(|name| {
            netmax_ml::NumericsTier::from_name(name).ok_or_else(|| {
                usage_error(format!("unknown numerics tier `{name}` (want `strict` or `fast`)"))
            })
        })
        .transpose()
}

/// The one place a JSON artifact reaches disk: the pretty form (2-space
/// indent, one trailing newline) through [`runner::write_atomic`], so a
/// failed write never leaves a truncated document behind.
fn write_artifact(path: &str, doc: &Json) -> Result<(), ExitCode> {
    runner::write_atomic(Path::new(path), doc.pretty().as_bytes())
        .map_err(|e| failure(format!("could not write {path}: {e}")))?;
    eprintln!("wrote {path}");
    Ok(())
}

fn list(args: &[String]) -> Result<(), ExitCode> {
    let specs = registry(mode_of(args));
    if has_flag(args, "--json") {
        println!("{}", registry_json(&specs).pretty());
        return Ok(());
    }
    let seeds_heading = "seeds";
    println!(
        "{:<32} {:<8} {:>3}  {:<24} {:<7} {:>6} {:>5}x{seeds_heading}",
        "name", "group", "n", "workload", "network", "epochs", "arms"
    );
    for s in &specs {
        println!(
            "{:<32} {:<8} {:>3}  {:<24} {:<7} {:>6.1} {:>5}x{}",
            s.name,
            s.group,
            s.scenario.workers(),
            s.scenario.workload_spec().kind.name(),
            s.scenario.network_kind().name(),
            s.scenario.cfg().max_epochs,
            s.arms.len(),
            s.effective_seeds().len(),
        );
    }
    println!("\n{} experiments; run one with `netmax-bench run <name|group>`", specs.len());
    Ok(())
}

/// `--seeds N` is the first registered seed plus N-1 successors;
/// `--seeds a,b,c` is that list.
fn parse_seeds(text: &str, base: &[u64]) -> Result<Vec<u64>, ExitCode> {
    if text.contains(',') {
        return text
            .split(',')
            .map(|t| t.trim().parse::<u64>().ok())
            .collect::<Option<Vec<u64>>>()
            .ok_or_else(|| usage_error(format!("bad --seeds value `{text}` (want N or a,b,c)")));
    }
    let n: u64 = positive("--seeds", text)?;
    let first = base.first().copied().unwrap_or(0);
    Ok((0..n).map(|i| first + i).collect())
}

/// One experiment's checkpoint path inside a checkpoint directory.
fn checkpoint_path(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("{}.checkpoint.bin", experiment.replace('/', "__")))
}

fn run(args: &[String], query: Option<&str>) -> Result<(), ExitCode> {
    let Some(query) = query else {
        return Err(usage_error(
            "run needs an experiment name or group (see `netmax-bench list`)",
        ));
    };
    let checkpoint_dir = flag_value(args, "--checkpoint-dir").map(PathBuf::from);
    let resume_dir = flag_value(args, "--resume").map(PathBuf::from);
    if checkpoint_dir.is_some() && resume_dir.is_some() {
        return Err(usage_error("--checkpoint-dir and --resume are mutually exclusive"));
    }
    if flag_value(args, "--suspend-steps").is_some() && checkpoint_dir.is_none() {
        return Err(usage_error("--suspend-steps only makes sense with --checkpoint-dir"));
    }
    if resume_dir.is_some() && flag_value(args, "--seeds").is_some() {
        return Err(usage_error(
            "--seeds cannot be combined with --resume (seeds come from the checkpoint)",
        ));
    }
    let tier = parse_tier(args)?;
    if resume_dir.is_some() && tier.is_some() {
        return Err(usage_error(
            "--tier cannot be combined with --resume (the tier is recorded in the \
             checkpoint; resuming under a different tier is rejected)",
        ));
    }
    if checkpoint_dir.is_some() && flag_value(args, "--json").is_some() {
        return Err(usage_error(
            "--json cannot be combined with --checkpoint-dir (no reports are produced)",
        ));
    }
    if checkpoint_dir.is_some()
        && (has_flag(args, "--progress") || flag_value(args, "--deadline-s").is_some())
    {
        return Err(usage_error(
            "--progress/--deadline-s cannot be combined with --checkpoint-dir \
             (suspension is step-bounded, not sample- or time-driven)",
        ));
    }

    let mut specs = find(&registry(mode_of(args)), query);
    if specs.is_empty() {
        return Err(usage_error(format!(
            "no experiment matches `{query}` (see `netmax-bench list`)"
        )));
    }
    if let Some(text) = flag_value(args, "--seeds") {
        for spec in &mut specs {
            spec.seeds = parse_seeds(text, &spec.effective_seeds())?;
        }
    }
    if let Some(t) = tier {
        for spec in &mut specs {
            spec.scenario.cfg_mut().tier = t;
        }
    }
    let threads = positive_flag(args, "--threads")?.unwrap_or_else(runner::default_threads);
    let deadline = flag_value(args, "--deadline-s")
        .map(|t| {
            t.parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .and_then(|s| Duration::try_from_secs_f64(s).ok())
                .ok_or_else(|| {
                    usage_error(format!("bad --deadline-s value `{t}` (want positive seconds)"))
                })
        })
        .transpose()?;
    let progress_fn = |p: CellProgress<'_>| {
        eprintln!(
            "  [{} {} seed={}] step {} epoch {:.2} t={:.1}s loss {:.4}",
            p.experiment, p.label, p.seed, p.global_step, p.epoch, p.sim_time_s, p.train_loss
        );
    };
    let opts = RunOptions {
        threads,
        progress: has_flag(args, "--progress").then_some(&progress_fn),
        cell_deadline: deadline,
    };

    if let Some(dir) = checkpoint_dir {
        let suspend_steps = positive_flag(args, "--suspend-steps")?.unwrap_or(100);
        return suspend(&specs, &dir, threads, suspend_steps);
    }

    let results = if let Some(dir) = resume_dir {
        resume_from(&specs, &dir, &opts)?
    } else {
        let mut results = Vec::new();
        for spec in &specs {
            let cells = spec.num_cells();
            eprintln!(
                "running {} ({} cells on {} thread{})...",
                spec.name,
                cells,
                threads.min(cells.max(1)),
                if threads == 1 { "" } else { "s" }
            );
            let t0 = Instant::now();
            let result = runner::try_execute(spec, &opts)
                .map_err(|e| usage_error(format!("{}: {e}", spec.name)))?;
            eprintln!("  done in {:.1}s real time", t0.elapsed().as_secs_f64());
            print_result(&result);
            results.push(result);
        }
        results
    };

    match flag_value(args, "--json") {
        Some(path) => write_artifact(path, &runner::artifact(&results)),
        None => Ok(()),
    }
}

/// `run --checkpoint-dir`: suspend every matching experiment mid-run and
/// write one checkpoint container per experiment.
fn suspend(
    specs: &[netmax_bench::ExperimentSpec],
    dir: &Path,
    threads: usize,
    suspend_steps: u64,
) -> Result<(), ExitCode> {
    std::fs::create_dir_all(dir)
        .map_err(|e| failure(format!("could not create {}: {e}", dir.display())))?;
    for spec in specs {
        eprintln!(
            "suspending {} after {} global steps per cell...",
            spec.name, suspend_steps
        );
        let suspended = runner::execute_suspended(spec, threads, suspend_steps)
            .map_err(|e| usage_error(format!("{}: {e}", spec.name)))?;
        let bytes = runner::checkpoint_bytes(&suspended)
            .map_err(|e| usage_error(format!("{}: {e}", spec.name)))?;
        let path = checkpoint_path(dir, &spec.name);
        runner::write_atomic(&path, &bytes)
            .map_err(|e| failure(format!("could not write {}: {e}", path.display())))?;
        eprintln!("wrote {}", path.display());
    }
    eprintln!("resume with `netmax-bench run <name> --resume {}`", dir.display());
    Ok(())
}

/// `run --resume`: load each matching experiment's checkpoint container
/// and run it to completion.
fn resume_from(
    specs: &[netmax_bench::ExperimentSpec],
    dir: &Path,
    opts: &RunOptions<'_>,
) -> Result<Vec<runner::ExperimentResult>, ExitCode> {
    let mut results = Vec::new();
    for spec in specs {
        let path = checkpoint_path(dir, &spec.name);
        let bytes = std::fs::read(&path).map_err(|e| {
            failure(format!(
                "no checkpoint for {}: could not read {}: {e}",
                spec.name,
                path.display()
            ))
        })?;
        // The checkpoint embeds the exact spec that produced it; resuming
        // uses that spec, not the registry's (they normally agree, but the
        // checkpoint is the ground truth for determinism).
        let suspended = runner::parse_checkpoint_bytes(&bytes)
            .map_err(|e| failure(format!("{}: {e}", path.display())))?;
        eprintln!("resuming {} ({} cells)...", suspended.spec.name, suspended.cells.len());
        let t0 = Instant::now();
        let result = runner::resume(&suspended, opts)
            .map_err(|e| usage_error(format!("{}: {e}", suspended.spec.name)))?;
        eprintln!("  done in {:.1}s real time", t0.elapsed().as_secs_f64());
        print_result(&result);
        results.push(result);
    }
    Ok(results)
}

fn print_result(result: &runner::ExperimentResult) {
    println!("\n[{}] {}", result.spec.name, result.spec.title);
    if result.cells.is_empty() {
        println!("{}", result.summary().pretty());
        return;
    }
    let target = result.loss_target();
    println!(
        "{:<28} {:>12} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "arm", "seed", "epochs", "wall(s)", "t@target(s)", "loss", "acc"
    );
    for c in &result.cells {
        let r = &c.report;
        let t = r
            .time_to_loss(target)
            .map_or_else(|| "-".to_string(), |t| format!("{t:.1}"));
        println!(
            "{:<28} {:>12} {:>10.1} {:>12.1} {:>12} {:>10.4} {:>7.2}%",
            c.label,
            c.seed,
            r.epochs_completed,
            r.wall_clock_s,
            t,
            r.final_train_loss,
            100.0 * r.final_test_accuracy
        );
    }
    // The paper's headline ordering, when the headline pair is present.
    let wall = |kind: AlgorithmKind| result.cell(kind).map(|c| c.report.wall_clock_s);
    if let (Some(nm), Some(ad)) = (wall(AlgorithmKind::NetMax), wall(AlgorithmKind::AdPsgd)) {
        println!("NetMax vs AD-PSGD wall-clock: {:.1}s vs {:.1}s", nm, ad);
    }
}

fn show(path: Option<&str>) -> Result<(), ExitCode> {
    let Some(path) = path else {
        return Err(usage_error("show needs an artifact path"));
    };
    let bytes = std::fs::read(path).map_err(|e| failure(format!("could not read {path}: {e}")))?;
    match runner::summarize_bytes(&bytes) {
        Ok(runner::ShownDoc::RunReport(results)) => {
            println!(
                "{path}: valid {} artifact, {} experiment(s)",
                runner::ARTIFACT_SCHEMA,
                results.len()
            );
            for r in &results {
                print_result(r);
            }
            Ok(())
        }
        Ok(runner::ShownDoc::Checkpoint(suspended)) => {
            println!(
                "{path}: valid {} container — suspended experiment [{}], {} cell(s)",
                runner::CHECKPOINT_SCHEMA,
                suspended.spec.name,
                suspended.cells.len()
            );
            println!(
                "{:<28} {:>18} {:>12} {:>12} {:>7}",
                "arm", "algorithm", "seed", "step", "tier"
            );
            for c in &suspended.cells {
                println!(
                    "{:<28} {:>18} {:>12} {:>12} {:>7}",
                    c.label,
                    c.algorithm.name(),
                    c.seed,
                    c.global_step,
                    c.tier.tier_name()
                );
            }
            Ok(())
        }
        Err(e) => Err(failure(format!("{path}: {e}"))),
    }
}

fn scale(args: &[String]) -> Result<(), ExitCode> {
    use netmax_bench::experiments::scale;
    let mut p = scale::Params::for_mode(mode_of(args));
    if let Some(repeats) = positive_flag(args, "--repeats")? {
        p.repeats = repeats;
    }
    eprintln!(
        "scale sweep: {} steps/node x {} repeats over n = {:?}...",
        p.steps_per_node, p.repeats, p.node_counts
    );
    let rows = scale::run(&p);
    print!("{}", scale::render_table(&rows));
    write_artifact(
        flag_value(args, "--out").unwrap_or("BENCH_scale.json"),
        &scale::scale_doc(&p, &rows),
    )
}

/// `sanity`: prints one table row per arm as it finishes and writes
/// [`runner::sanity_doc`].
fn sanity(args: &[String]) -> Result<(), ExitCode> {
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "algorithm", "wall(s)", "epoch_t", "comp/ep", "comm/ep", "loss", "acc", "t@0.40"
    );
    let doc = runner::sanity_doc(mode_of(args), |label, r| {
        println!(
            "{:<16} {:>10.1} {:>10.2} {:>10.2} {:>10.2} {:>8.4} {:>8.3} {:>10.1?}",
            label,
            r.wall_clock_s,
            r.epoch_time_avg_s(),
            r.comp_cost_per_epoch_s(),
            r.comm_cost_per_epoch_s(),
            r.final_train_loss,
            r.final_test_accuracy,
            r.time_to_loss(0.40)
        );
    });
    write_artifact(
        flag_value(args, "--out").unwrap_or("BENCH_sanity.json"),
        &doc,
    )
}
