//! `netmax-cli` — run simulated decentralized-training experiments from
//! the command line.
//!
//! ```text
//! netmax-cli list
//! netmax-cli run     --workload resnet18-cifar10 --algorithm netmax --workers 8 \
//!                    --network hetero --epochs 12 --seed 42
//! netmax-cli compare --workload resnet18-cifar10 --workers 8 --epochs 12
//! netmax-cli policy  --workers 8 --fast 0.2 --slow 0.94 --slowdown 50
//! ```

use netmax::core::diagnostics::audit_policy;
use netmax::core::policy::{PolicyGenerator, PolicySearchConfig};
use netmax::core::EdgeTimes;
use netmax::net::Topology;
use netmax::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let command: fn(&Options) -> ExitCode = match cmd.as_str() {
        "list" => return list(),
        "run" => run,
        "compare" => compare,
        "policy" => policy,
        "--help" | "-h" | "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
            return ExitCode::from(2);
        }
    };
    match Options::parse(&args[1..]) {
        Ok(opts) => command(&opts),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "netmax-cli — simulated decentralized training (NetMax, ICDE 2021)

commands:
  list                         available workloads, algorithms, networks
  run      one algorithm on one scenario
  compare  the paper's four headline algorithms on one scenario
  policy   generate + audit a communication policy for a synthetic cluster

options (run/compare):
  --workload <name>    e.g. resnet18-cifar10 (default)
  --algorithm <name>   e.g. netmax (run only)
  --workers <n>        default 8
  --network <kind>     hetero | homo | static | wan   (default hetero)
  --epochs <x>         default 8
  --seed <n>           default 42

options (policy):
  --workers <n>        default 8
  --fast <s>           intra-server iteration time (default 0.2)
  --slow <s>           inter-server iteration time (default 0.94)
  --slowdown <f>       factor applied to one cross link (default 50)
  --alpha <a>          learning rate (default 0.1)"
    );
}

struct Options {
    workload: String,
    algorithm: String,
    workers: usize,
    network: String,
    epochs: f64,
    seed: u64,
    fast: f64,
    slow: f64,
    slowdown: f64,
    alpha: f64,
}

/// Parses `value`, the argument of `flag`, or names both in the error.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str, want: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} needs {want}, got `{value}`"))
}

/// A finite number above zero: every time, rate and budget the commands take.
fn positive(flag: &str, value: &str) -> Result<f64, String> {
    let want = "a positive finite number";
    match parsed::<f64>(flag, value, want)? {
        x if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("{flag} needs {want}, got `{value}`")),
    }
}

impl Options {
    /// Every malformed invocation is an error here, before any scenario is
    /// built: an unknown flag, a flag without its value, a value that does
    /// not parse or lies outside what the engine accepts.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options {
            workload: "resnet18-cifar10".into(),
            algorithm: "netmax".into(),
            workers: 8,
            network: "hetero".into(),
            epochs: 8.0,
            seed: 42,
            fast: 0.2,
            slow: 0.94,
            slowdown: 50.0,
            alpha: 0.1,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => o.workload = value()?.clone(),
                "--algorithm" => o.algorithm = value()?.clone(),
                "--network" => o.network = value()?.clone(),
                "--workers" => {
                    let (v, want) = (value()?, "an integer of at least 2");
                    o.workers = parsed(flag, v, want)?;
                    if o.workers < 2 {
                        return Err(format!("{flag} needs {want}, got `{v}`"));
                    }
                }
                "--seed" => o.seed = parsed(flag, value()?, "a non-negative integer")?,
                "--epochs" => o.epochs = positive(flag, value()?)?,
                "--fast" => o.fast = positive(flag, value()?)?,
                "--slow" => o.slow = positive(flag, value()?)?,
                "--slowdown" => o.slowdown = positive(flag, value()?)?,
                "--alpha" => o.alpha = positive(flag, value()?)?,
                other => return Err(format!("unknown option `{other}` (see `netmax-cli help`)")),
            }
        }
        Ok(o)
    }
}

fn list() -> ExitCode {
    println!("workloads:");
    for kind in WorkloadKind::all() {
        println!("  {}", kind.name());
    }
    println!("algorithms:");
    for kind in AlgorithmKind::all() {
        println!("  {}", kind.name());
    }
    println!("networks:\n  hetero\n  static\n  homo\n  wan");
    ExitCode::SUCCESS
}

/// Builds the scenario plus one instantiated workload (datasets
/// included); runs share the instantiation through `build_env_with`
/// instead of regenerating the datasets per run.
fn build_scenario(o: &Options) -> Option<(Scenario, Workload)> {
    let spec = WorkloadKind::by_name(&o.workload)
        .map(|k| WorkloadSpec::new(k, o.seed))
        .or_else(|| {
            eprintln!("unknown workload '{}' (see `netmax-cli list`)", o.workload);
            None
        })?;
    let network = NetworkKind::by_name(&o.network).or_else(|| {
        eprintln!("unknown network '{}' (see `netmax-cli list`)", o.network);
        None
    })?;
    let workers = if network == NetworkKind::Wan { 6 } else { o.workers };
    let sc = ScenarioBuilder::new()
        .workers(workers)
        .network(network)
        .workload(spec)
        .max_epochs(o.epochs)
        .seed(o.seed)
        .build();
    let workload = sc.workload();
    Some((sc, workload))
}

fn print_report(r: &netmax::core::engine::RunReport) {
    println!(
        "{:<16} wall={:>9.1}s epoch/node={:>7.2}s comm/ep={:>7.2}s loss={:.4} acc={:.2}%",
        r.algorithm,
        r.wall_clock_s,
        r.epoch_time_avg_s(),
        r.comm_cost_per_epoch_s(),
        r.final_train_loss,
        100.0 * r.final_test_accuracy
    );
}

/// Runs one algorithm to completion and prints its summary line. A
/// configuration the engine rejects is reported as the typed
/// [`SessionError`], not unwrapped.
fn run_one(sc: &Scenario, workload: Workload, kind: AlgorithmKind) -> ExitCode {
    let mut algo = algorithm_for(kind, workload.optim.lr);
    let mut env = sc.build_env_with(workload);
    let report = match Session::new(&mut env, algo.driver()) {
        Ok(mut session) => session.run(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    print_report(&report);
    ExitCode::SUCCESS
}

fn run(o: &Options) -> ExitCode {
    let Some((sc, workload)) = build_scenario(o) else {
        return ExitCode::from(2);
    };
    let Some(kind) = AlgorithmKind::by_name(&o.algorithm) else {
        eprintln!("unknown algorithm '{}' (see `netmax-cli list`)", o.algorithm);
        return ExitCode::from(2);
    };
    run_one(&sc, workload, kind)
}

fn compare(o: &Options) -> ExitCode {
    let Some((sc, workload)) = build_scenario(o) else {
        return ExitCode::from(2);
    };
    for kind in AlgorithmKind::headline_four() {
        // Arc-shared datasets: one instantiation serves all four runs.
        let code = run_one(&sc, workload.clone(), kind);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    ExitCode::SUCCESS
}

fn policy(o: &Options) -> ExitCode {
    let m = o.workers;
    let per = m.div_ceil(2);
    let topo = Topology::fully_connected(m);
    let times = EdgeTimes::from_fn(&topo, |i, j| {
        let base = if (i / per) == (j / per) { o.fast } else { o.slow };
        // Slow one cross link by the requested factor.
        if (i, j) == (0, per) || (i, j) == (per, 0) {
            base * o.slowdown
        } else {
            base
        }
    });

    let gen = PolicyGenerator::new(PolicySearchConfig::new(o.alpha));
    match gen.generate_sparse(&times, &topo) {
        Some(res) => {
            let audit = audit_policy(&res, &times, &topo, o.alpha);
            println!("policy for {m} workers (fast {}s / slow {}s / one link ×{}):", o.fast, o.slow, o.slowdown);
            println!("  rho            = {:.4}", res.rho);
            println!("  lambda2        = {:.4}", res.lambda2);
            println!("  spectral gap   = {:.4}", audit.spectral_gap);
            println!("  E[iter] policy = {:.3}s   uniform = {:.3}s   speedup = {:.2}x",
                audit.expected_iteration_s, audit.uniform_iteration_s, audit.iteration_speedup());
            println!("  slow-link mass = {:.4}", audit.slow_link_mass);
            println!("  bottleneck cut = {:?} | {:?}", audit.bottleneck.0, audit.bottleneck.1);
            println!("{:?}", res.policy.to_dense());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("no feasible policy for these parameters");
            ExitCode::FAILURE
        }
    }
}
