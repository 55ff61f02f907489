//! `netmax-bench` — the one runner CLI for every registered experiment.
//!
//! ```text
//! netmax-bench list [--json] [--quick|--tiny]
//! netmax-bench run <name|group|all> [--quick|--tiny] [--seeds N|a,b,c]
//!                  [--json out.json] [--threads N] [--sequential]
//!                  [--progress] [--deadline-s S]
//!                  [--checkpoint-dir DIR [--suspend-steps K]]
//!                  [--resume DIR] [--tier strict|fast]
//! netmax-bench throughput [--quick] [--steps N] [--repeats R] [--out path]
//!                  [--tier strict|fast]
//! netmax-bench scale [--quick|--tiny] [--repeats R] [--out path]
//! netmax-bench checkpoint [--quick] [--out path]
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
//! schema check in CI. `checkpoint` benchmarks the encode/decode paths
//! (logical JSON document vs NMXB vs delta) and writes
//! `BENCH_checkpoint.json`.

use netmax_bench::registry::{find, registry, registry_json};
use netmax_bench::runner::{CellProgress, RunOptions};
use netmax_bench::{common, runner, Mode};
use netmax_core::engine::AlgorithmKind;
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
    boolean: &["--sequential", "--quick", "--tiny", "--progress"],
};
const SHOW_FLAGS: FlagSpec = FlagSpec { value: &[], boolean: &[] };
const CHECKPOINT_FLAGS: FlagSpec = FlagSpec { value: &["--out"], boolean: &["--quick"] };
const THROUGHPUT_FLAGS: FlagSpec =
    FlagSpec { value: &["--steps", "--repeats", "--out", "--tier"], boolean: &["--quick"] };
const SCALE_FLAGS: FlagSpec =
    FlagSpec { value: &["--repeats", "--out"], boolean: &["--quick", "--tiny"] };

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
    // detection (`throughput --out list` writes to a file named `list`);
    // `--json` is the one ambiguous flag (boolean for `list`, value for
    // `run`), so an artifact path literally named after a command must be
    // placed after the command word.
    let known = ["list", "run", "show", "throughput", "scale", "checkpoint", "help"];
    let always_value = [
        "--seeds",
        "--threads",
        "--deadline-s",
        "--checkpoint-dir",
        "--suspend-steps",
        "--resume",
        "--steps",
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
        "throughput" => &THROUGHPUT_FLAGS,
        "scale" => &SCALE_FLAGS,
        "checkpoint" => &CHECKPOINT_FLAGS,
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
    match cmd.as_str() {
        "list" => list(&args),
        "run" => run(&args, positional.first().copied()),
        "show" => show(positional.first().copied()),
        "throughput" => throughput(&args),
        "scale" => scale(&args),
        "checkpoint" => checkpoint_cmd(&args),
        _ => unreachable!("filtered to known commands"),
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
  throughput                measure real global-steps/sec and samples/sec per
                            algorithm on the sanity workload (pipeline and
                            engine modes) and write BENCH_throughput.json
  scale                     sweep the headline four over torus fleets (full:
                            32-4096 workers; tiny: 32/256) measuring
                            convergence, steps/sec, and peak RSS, and write
                            BENCH_scale.json
  checkpoint                benchmark checkpoint encode/decode (logical JSON
                            document vs NMXB vs incremental delta) over
                            fleet sizes and write BENCH_checkpoint.json

options:
  --quick / --tiny          compressed experiment scale (default: full; also
                            honoured via NETMAX_MODE=quick|tiny)
  --json                    list: emit the registry as JSON on stdout
  --seeds <N | a,b,c>       N derived seeds, or an explicit seed list
  --json <path>             run: write the versioned JSON run artifact
  --threads <N>             worker threads (default: all cores)
  --sequential              force one thread (same results, longer wall-clock)
  --progress                stream per-sample progress lines to stderr
  --deadline-s <S>          real-time budget per cell; expiry finishes the
                            cell early (partial report; non-deterministic)
  --checkpoint-dir <DIR>    suspend each cell mid-run and write one
                            <name>.checkpoint.bin container per experiment
  --suspend-steps <K>       global steps before suspension (default 100)
  --resume <DIR>            resume the containers written by
                            --checkpoint-dir and run them to completion
  --tier <strict|fast>      run: numerics tier for every matching experiment;
                            throughput: restrict the grid to one tier
                            (default: strict for run, both for throughput)
  --steps <N>               throughput: global steps per repetition
  --repeats <R>             throughput/scale: repetitions per cell (best kept)
  --out <path>              throughput/scale/checkpoint: output path
                            (BENCH_throughput.json / BENCH_scale.json /
                            BENCH_checkpoint.json)"
    );
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(|s| s.as_str())
}

/// Parses `--tier`, turning an unknown tier name into a typed usage
/// error (exit 2) instead of silently running the default tier.
fn parse_tier(args: &[String]) -> Result<Option<netmax_ml::NumericsTier>, ExitCode> {
    match flag_value(args, "--tier") {
        None => Ok(None),
        Some(name) => match netmax_ml::NumericsTier::from_name(name) {
            Some(t) => Ok(Some(t)),
            None => {
                eprintln!("unknown numerics tier `{name}` (want `strict` or `fast`)");
                Err(ExitCode::from(2))
            }
        },
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn list(args: &[String]) -> ExitCode {
    let mode = Mode::from_env();
    let specs = registry(mode);
    if has_flag(args, "--json") {
        println!("{}", registry_json(&specs).pretty());
        return ExitCode::SUCCESS;
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
    ExitCode::SUCCESS
}

fn parse_seeds(text: &str, base: &[u64]) -> Option<Vec<u64>> {
    if let Ok(n) = text.parse::<usize>() {
        // `--seeds N`: the first registered seed plus N-1 successors.
        let first = base.first().copied().unwrap_or(0);
        return Some((0..n as u64).map(|i| first + i).collect());
    }
    text.split(',').map(|t| t.trim().parse::<u64>().ok()).collect()
}

/// One experiment's checkpoint path inside a checkpoint directory.
fn checkpoint_path(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("{}.checkpoint.bin", experiment.replace('/', "__")))
}

fn run(args: &[String], query: Option<&str>) -> ExitCode {
    let Some(query) = query else {
        eprintln!("run needs an experiment name or group (see `netmax-bench list`)");
        return ExitCode::from(2);
    };
    let checkpoint_dir = flag_value(args, "--checkpoint-dir").map(PathBuf::from);
    let resume_dir = flag_value(args, "--resume").map(PathBuf::from);
    if checkpoint_dir.is_some() && resume_dir.is_some() {
        eprintln!("--checkpoint-dir and --resume are mutually exclusive");
        return ExitCode::from(2);
    }
    if flag_value(args, "--suspend-steps").is_some() && checkpoint_dir.is_none() {
        eprintln!("--suspend-steps only makes sense with --checkpoint-dir");
        return ExitCode::from(2);
    }
    if resume_dir.is_some() && flag_value(args, "--seeds").is_some() {
        eprintln!("--seeds cannot be combined with --resume (seeds come from the checkpoint)");
        return ExitCode::from(2);
    }
    let tier = match parse_tier(args) {
        Ok(t) => t,
        Err(code) => return code,
    };
    if resume_dir.is_some() && tier.is_some() {
        eprintln!(
            "--tier cannot be combined with --resume (the tier is recorded in the \
             checkpoint; resuming under a different tier is rejected)"
        );
        return ExitCode::from(2);
    }
    if checkpoint_dir.is_some() && flag_value(args, "--json").is_some() {
        eprintln!("--json cannot be combined with --checkpoint-dir (no reports are produced)");
        return ExitCode::from(2);
    }
    if checkpoint_dir.is_some()
        && (has_flag(args, "--progress") || flag_value(args, "--deadline-s").is_some())
    {
        eprintln!(
            "--progress/--deadline-s cannot be combined with --checkpoint-dir \
             (suspension is step-bounded, not sample- or time-driven)"
        );
        return ExitCode::from(2);
    }

    let mode = Mode::from_env();
    let mut specs = find(&registry(mode), query);
    if specs.is_empty() {
        eprintln!("no experiment matches `{query}` (see `netmax-bench list`)");
        return ExitCode::from(2);
    }
    if let Some(text) = flag_value(args, "--seeds") {
        for spec in &mut specs {
            let Some(seeds) = parse_seeds(text, &spec.effective_seeds()) else {
                eprintln!("bad --seeds value `{text}` (want N or a,b,c)");
                return ExitCode::from(2);
            };
            spec.seeds = seeds;
        }
    }
    if let Some(t) = tier {
        for spec in &mut specs {
            spec.scenario.cfg_mut().tier = t;
        }
    }
    let threads = if has_flag(args, "--sequential") {
        1
    } else {
        match flag_value(args, "--threads") {
            Some(t) => match t.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("bad --threads value `{t}` (want a positive integer)");
                    return ExitCode::from(2);
                }
            },
            None => runner::default_threads(),
        }
    };
    let deadline = match flag_value(args, "--deadline-s") {
        Some(t) => match t.parse::<f64>() {
            Ok(s) if s > 0.0 => Some(Duration::from_secs_f64(s)),
            _ => {
                eprintln!("bad --deadline-s value `{t}` (want positive seconds)");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
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
        let suspend_steps = match flag_value(args, "--suspend-steps") {
            Some(t) => match t.parse::<u64>() {
                Ok(k) if k > 0 => k,
                _ => {
                    eprintln!("bad --suspend-steps value `{t}` (want a positive integer)");
                    return ExitCode::from(2);
                }
            },
            None => 100,
        };
        return suspend(&specs, &dir, threads, suspend_steps);
    }

    let results = if let Some(dir) = resume_dir {
        match resume_from(&specs, &dir, &opts) {
            Ok(r) => r,
            Err(code) => return code,
        }
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
            let result = match runner::try_execute(spec, &opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{}: {e}", spec.name);
                    return ExitCode::from(2);
                }
            };
            eprintln!("  done in {:.1}s real time", t0.elapsed().as_secs_f64());
            print_result(&result);
            results.push(result);
        }
        results
    };

    if let Some(path) = flag_value(args, "--json") {
        let doc = runner::artifact(&results);
        match std::fs::write(path, doc.pretty()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `run --checkpoint-dir`: suspend every matching experiment mid-run and
/// write one checkpoint container per experiment.
fn suspend(
    specs: &[netmax_bench::ExperimentSpec],
    dir: &Path,
    threads: usize,
    suspend_steps: u64,
) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for spec in specs {
        eprintln!(
            "suspending {} after {} global steps per cell...",
            spec.name, suspend_steps
        );
        let suspended = match runner::execute_suspended(spec, threads, suspend_steps) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: {e}", spec.name);
                return ExitCode::from(2);
            }
        };
        let bytes = match runner::checkpoint_bytes(&suspended) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{}: {e}", spec.name);
                return ExitCode::from(2);
            }
        };
        let path = checkpoint_path(dir, &spec.name);
        match runner::write_atomic(&path, &bytes) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("resume with `netmax-bench run <name> --resume {}`", dir.display());
    ExitCode::SUCCESS
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
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("no checkpoint for {}: could not read {}: {e}", spec.name, path.display());
                return Err(ExitCode::FAILURE);
            }
        };
        // The checkpoint embeds the exact spec that produced it; resuming
        // uses that spec, not the registry's (they normally agree, but the
        // checkpoint is the ground truth for determinism).
        let suspended = match runner::parse_checkpoint_bytes(&bytes) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return Err(ExitCode::FAILURE);
            }
        };
        eprintln!("resuming {} ({} cells)...", suspended.spec.name, suspended.cells.len());
        let t0 = Instant::now();
        let result = match runner::resume(&suspended, opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", suspended.spec.name);
                return Err(ExitCode::from(2));
            }
        };
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
    let target = common::common_loss_target_of(result.cells.iter().map(|c| &c.report));
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
    let wall = |kind: AlgorithmKind| {
        result.cells.iter().find(|c| c.algorithm == kind).map(|c| c.report.wall_clock_s)
    };
    if let (Some(nm), Some(ad)) = (wall(AlgorithmKind::NetMax), wall(AlgorithmKind::AdPsgd)) {
        println!("NetMax vs AD-PSGD wall-clock: {:.1}s vs {:.1}s", nm, ad);
    }
}

fn show(path: Option<&str>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("show needs an artifact path");
        return ExitCode::from(2);
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
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
            ExitCode::SUCCESS
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn scale(args: &[String]) -> ExitCode {
    use netmax_bench::experiments::scale;
    let ctx = common::ExpCtx::with_mode(Mode::from_env());
    let mut p = scale::Params::for_mode(&ctx);
    if let Some(repeats) = flag_value(args, "--repeats") {
        match repeats.parse::<usize>() {
            Ok(n) if n > 0 => p.repeats = n,
            _ => {
                eprintln!("--repeats needs a positive integer, got `{repeats}`");
                return ExitCode::from(2);
            }
        }
    }
    let out = flag_value(args, "--out").unwrap_or("BENCH_scale.json");
    eprintln!(
        "scale sweep: {} steps/node x {} repeats over n = {:?}...",
        p.steps_per_node, p.repeats, p.node_counts
    );
    let rows = scale::run(&p);
    scale::print(&ctx, &p, &rows);
    let doc = scale::scale_doc(&p, &rows);
    match std::fs::write(out, doc.pretty() + "\n") {
        Ok(()) => {
            eprintln!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn checkpoint_cmd(args: &[String]) -> ExitCode {
    use netmax_bench::checkpoint_bench;
    let p = if has_flag(args, "--quick") {
        checkpoint_bench::Params::quick()
    } else {
        checkpoint_bench::Params::full()
    };
    let out = flag_value(args, "--out").unwrap_or("BENCH_checkpoint.json");
    eprintln!(
        "checkpoint I/O benchmark: n = {:?}, {} repeat(s) per point...",
        p.node_counts, p.repeats
    );
    let rows = checkpoint_bench::run(&p);
    print!("{}", checkpoint_bench::render_table(&rows));
    let doc = checkpoint_bench::checkpoint_bench_doc(&p, &rows);
    match std::fs::write(out, doc.pretty() + "\n") {
        Ok(()) => {
            eprintln!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn throughput(args: &[String]) -> ExitCode {
    let mut opts = if has_flag(args, "--quick") {
        netmax_bench::throughput::ThroughputOptions::quick()
    } else {
        netmax_bench::throughput::ThroughputOptions::full()
    };
    opts.tier = match parse_tier(args) {
        Ok(t) => t,
        Err(code) => return code,
    };
    if let Some(steps) = flag_value(args, "--steps") {
        match steps.parse::<u64>() {
            Ok(n) if n > 0 => opts.steps = n,
            _ => {
                eprintln!("--steps needs a positive integer, got `{steps}`");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(repeats) = flag_value(args, "--repeats") {
        match repeats.parse::<usize>() {
            Ok(n) if n > 0 => opts.repeats = n,
            _ => {
                eprintln!("--repeats needs a positive integer, got `{repeats}`");
                return ExitCode::from(2);
            }
        }
    }
    let out = flag_value(args, "--out").unwrap_or("BENCH_throughput.json");
    eprintln!(
        "measuring sanity-workload throughput: {} steps x {} repeats per (arm, tier, mode)...",
        opts.steps, opts.repeats
    );
    let rows = netmax_bench::throughput::measure(&opts);
    print!("{}", netmax_bench::throughput::render_table(&rows));
    let doc = netmax_bench::throughput::throughput_doc(&opts, &rows);
    match std::fs::write(out, doc.pretty() + "\n") {
        Ok(()) => {
            eprintln!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
