//! The six workloads: what each runs, and one *pass* of it.
//!
//! A pass does a fixed amount of simulated work (step and cycle counts,
//! never a time budget), so every simulated statistic repeats exactly
//! from pass to pass and only host time varies; the time budget of a run
//! decides how many passes fit. Everything here goes through `Session`,
//! `Scenario`, the registry and `scale::specs`; anything below that is in
//! [`crate::layers`].

use crate::layers::{ControlPlaneReplay, SnapshotChain};
use crate::trace::{span, Off, Probe};
use netmax_bench::experiments::scale;
use netmax_bench::registry::sanity_spec;
use netmax_bench::{Arm, Mode};
use netmax_core::engine::{
    Algorithm, AlgorithmKind, CheckpointFormat, CheckpointScratch, Environment, RunReport,
    Scenario, Session, SessionError, StepEvent, StopCondition,
};
use netmax_json::ToJson;
use netmax_ml::NumericsTier;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::Instant;

/// Dataset seed of the torus fleets (`scale::Params::full().seed`). The
/// run's `--seed` replaces only the scenario's training seed — link
/// draws, shards, batch order, peer choice — exactly what the registry's
/// per-cell seeds vary; the dataset stays, so that losses from different
/// seeds are comparable.
const TORUS_DATA_SEED: u64 = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper8,
    Paper8Fast,
    Fleet64,
    Fleet256,
    Gossip1024,
    Snap1024,
}

/// Periodic-snapshot schedule of `snap1024`.
#[derive(Debug, Clone, Copy)]
pub struct SnapPlan {
    pub cycles: usize,
    pub steps_per_cycle: u64,
    /// Snapshots per chain: one full, then `chain − 1` deltas, then
    /// reconstruct and restore.
    pub chain: usize,
}

/// What one workload runs at one seed.
pub struct Cell {
    pub workload: Workload,
    pub scenario: Scenario,
    pub arms: Vec<Arm>,
    pub snapshots: Option<SnapPlan>,
}

impl Cell {
    /// The gossip arm a control-plane replay follows: NetMax where the
    /// workload has one, AD-PSGD otherwise.
    pub fn replay_arm(&self) -> AlgorithmKind {
        let has = |k| self.arms.iter().any(|a| a.algorithm == k);
        if has(AlgorithmKind::NetMax) {
            AlgorithmKind::NetMax
        } else {
            AlgorithmKind::AdPsgd
        }
    }

    /// A few synchronous rounds of Allreduce on this cell's scenario with
    /// a sample after each: what `baselines.round` and `recorder.sample`
    /// cost at this workload's size when its own arms have neither.
    pub fn rounds_probe(&self) -> Cell {
        let n = self.scenario.workers() as u64;
        let mut scenario = self.scenario.clone();
        scenario.cfg_mut().stop = Some(StopCondition::MaxGlobalSteps(4 * n));
        scenario.cfg_mut().record_every_steps = n;
        Cell {
            workload: self.workload,
            scenario,
            arms: vec![Arm::new(AlgorithmKind::AllreduceSgd)],
            snapshots: None,
        }
    }

    /// One snapshot chain on this cell's AD-PSGD arm: what the checkpoint
    /// layer costs at this workload's size when it takes no snapshots.
    pub fn snapshot_probe(&self) -> Cell {
        Cell {
            workload: self.workload,
            scenario: self.scenario.clone(),
            arms: vec![Arm::new(AlgorithmKind::AdPsgd)],
            snapshots: Some(SnapPlan { cycles: 4, steps_per_cycle: 8, chain: 4 }),
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Paper8,
        Workload::Paper8Fast,
        Workload::Fleet64,
        Workload::Fleet256,
        Workload::Gossip1024,
        Workload::Snap1024,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper8 => "paper8",
            Workload::Paper8Fast => "paper8_fast",
            Workload::Fleet64 => "fleet64",
            Workload::Fleet256 => "fleet256",
            Workload::Gossip1024 => "gossip1024",
            Workload::Snap1024 => "snap1024",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed of the committed artifacts this workload mirrors
    /// (`BENCH_sanity.json`: 7; `scale::Params`: 11).
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Paper8 | Workload::Paper8Fast => 7,
            _ => TORUS_DATA_SEED,
        }
    }

    /// The arm whose report gives `sim_s` and `final_loss`: NetMax where
    /// the workload has one, AD-PSGD otherwise.
    pub fn report_arm(self) -> AlgorithmKind {
        match self {
            Workload::Gossip1024 | Workload::Snap1024 => AlgorithmKind::AdPsgd,
            _ => AlgorithmKind::NetMax,
        }
    }

    /// Builds the cell. `smoke` shrinks it to a fraction of a second.
    pub fn cell(self, seed: u64, smoke: bool) -> Cell {
        const GOSSIP_PAIR: [AlgorithmKind; 2] = [AlgorithmKind::AdPsgd, AlgorithmKind::NetMax];
        match self {
            Workload::Paper8 | Workload::Paper8Fast => {
                let spec = sanity_spec(if smoke { Mode::Tiny } else { Mode::Full });
                let mut scenario = spec.scenario;
                scenario.cfg_mut().seed = seed;
                if self == Workload::Paper8Fast {
                    scenario.cfg_mut().tier = NumericsTier::Fast;
                }
                Cell { workload: self, scenario, arms: spec.arms, snapshots: None }
            }
            // n = DENSE_CONTROL_THRESHOLD: the largest fleet on the dense
            // control plane. The registry cell's own step budget (96 a
            // node; steps are cheap, and fewer make `sim_s` swing 8 % from
            // seed to seed) with a quarter of its monitor rounds (≈ 11
            // instead of ≈ 43), so that a pass takes ≈ 1.5 s instead of ≈ 6 s.
            Workload::Fleet64 => {
                let (n, steps) = if smoke { (16, 24) } else { (64, 96) };
                torus(self, n, steps, 4.0, &GOSSIP_PAIR, seed)
            }
            // The `scale --tiny` n = 256 cell with the monitor period
            // stretched to 2 rounds (≈ 1.2 s each) instead of ≈ 10. The
            // smoke size is the smallest balanced torus still above the
            // dense threshold, so the edge-list path is smoke-tested too.
            Workload::Fleet256 => {
                torus(self, if smoke { 72 } else { 256 }, 24, 4.0, &GOSSIP_PAIR, seed)
            }
            Workload::Gossip1024 => {
                torus(self, if smoke { 32 } else { 1024 }, 8, 1.0, &[AlgorithmKind::AdPsgd], seed)
            }
            Workload::Snap1024 => {
                let n = if smoke { 32 } else { 1024 };
                let mut cell = torus(self, n, 8, 1.0, &[AlgorithmKind::AdPsgd], seed);
                // Recorder off and no reachable stop: the snapshot loop
                // alone decides how far the session runs.
                cell.scenario.cfg_mut().record_every_steps = u64::MAX / 2;
                cell.scenario.cfg_mut().stop = Some(StopCondition::MaxGlobalSteps(10_000_000));
                cell.snapshots = Some(if smoke {
                    SnapPlan { cycles: 16, steps_per_cycle: 8, chain: 4 }
                } else {
                    SnapPlan { cycles: 128, steps_per_cycle: 64, chain: 8 }
                });
                cell
            }
        }
    }
}

/// A `scale/ridge/n{n}` registry cell restricted to `kinds`, with the
/// monitor period stretched by `period_mul`.
fn torus(
    workload: Workload,
    n: usize,
    steps_per_node: u64,
    period_mul: f64,
    kinds: &[AlgorithmKind],
    seed: u64,
) -> Cell {
    let params =
        scale::Params { node_counts: vec![n], steps_per_node, repeats: 1, seed: TORUS_DATA_SEED };
    let spec = scale::specs(&params).remove(0);
    let mut scenario = spec.scenario;
    scenario.cfg_mut().seed = seed;
    let arms = spec
        .arms
        .into_iter()
        .filter(|a| kinds.contains(&a.algorithm))
        .map(|mut a| {
            a.monitor_period_s = a.monitor_period_s.map(|p| p * period_mul);
            a
        })
        .collect();
    Cell { workload, scenario, arms, snapshots: None }
}

/// One arm's outcome in a pass.
pub struct ArmRun {
    pub kind: AlgorithmKind,
    pub real_s: f64,
    pub report: RunReport,
}

/// Sizes seen by the snapshot loop.
#[derive(Default)]
pub struct SnapStats {
    pub full_bytes: usize,
    pub delta_bytes: Vec<f64>,
    pub changed_nodes: Vec<f64>,
    /// Full binary snapshot of the state the loop ended in.
    pub final_snapshot: Vec<u8>,
    pub final_global_step: u64,
    /// Chains whose reconstruction differed from a fresh full snapshot
    /// (only counted by a verifying pass).
    pub reconstruct_mismatches: usize,
}

/// One pass: set-up, then every arm (or the snapshot loop) to the end.
pub struct Pass {
    pub setup_s: f64,
    pub real_s: f64,
    pub arms: Vec<ArmRun>,
    pub snap: Option<SnapStats>,
    /// Operations attempted: one per arm, one per snapshot, one per
    /// reconstruct-and-restore.
    pub operations: usize,
    /// Hash of everything simulated the pass produced (compared within
    /// one process only).
    pub digest: u64,
}

impl Pass {
    pub fn arm(&self, kind: AlgorithmKind) -> Option<&ArmRun> {
        self.arms.iter().find(|a| a.kind == kind)
    }
}

fn step_name(ev: &StepEvent) -> &'static str {
    match ev {
        StepEvent::GlobalStep { .. } => span::STEP,
        StepEvent::MonitorRound { .. } => span::MONITOR,
        StepEvent::RoundComplete { .. } => span::ROUND,
        StepEvent::Sampled { .. } => span::SAMPLE,
        StepEvent::NodeDown { .. } | StepEvent::NodeUp { .. } => span::MEMBERSHIP,
        StepEvent::Finished { .. } => span::FINISH,
    }
}

/// One spanned `Session::step()`; `replay` sees what a monitor on this
/// arm would.
fn step<P: Probe>(
    session: &mut Session<'_>,
    probe: &mut P,
    replay: Option<&mut ControlPlaneReplay>,
) -> StepEvent {
    let tok = probe.enter();
    let ev = session.step();
    probe.exit(tok, step_name(&ev));
    if let Some(r) = replay {
        match &ev {
            StepEvent::GlobalStep { node, peer, iteration_s } => {
                r.on_step(session.env(), *node, *peer, *iteration_s);
            }
            StepEvent::MonitorRound { .. } => r.on_monitor(session.env()),
            _ => {}
        }
    }
    ev
}

/// Steps a session to `Finished`.
fn drive<P: Probe>(
    session: &mut Session<'_>,
    probe: &mut P,
    mut replay: Option<&mut ControlPlaneReplay>,
) -> RunReport {
    loop {
        if let StepEvent::Finished { report } = step(session, probe, replay.as_deref_mut()) {
            return report;
        }
    }
}

/// Everything a pass builds before its first step: one environment and
/// one algorithm per session.
struct Fleet {
    envs: Vec<Environment>,
    algos: Vec<Box<dyn Algorithm>>,
}

fn build_fleet<P: Probe>(cell: &Cell, arms: &[&Arm], probe: &mut P) -> Fleet {
    let tok = probe.enter();
    let workload = cell.scenario.workload();
    probe.exit(tok, span::WORKLOAD_BUILD);
    let alpha = workload.optim.lr;
    let algos = arms.iter().map(|a| a.instantiate(alpha)).collect();
    let envs = arms
        .iter()
        .map(|_| {
            let tok = probe.enter();
            let env = cell.scenario.build_env_with(workload.clone());
            probe.exit(tok, span::ENV_BUILD);
            env
        })
        .collect();
    Fleet { envs, algos }
}

fn new_session<'a, P: Probe>(
    env: &'a mut Environment,
    algo: &'a mut Box<dyn Algorithm>,
    probe: &mut P,
) -> Result<Session<'a>, SessionError> {
    let tok = probe.enter();
    let session = Session::new(env, algo.driver());
    probe.exit(tok, span::SESSION_NEW);
    session
}

/// Runs one pass of `cell`. `replay` follows the arm of its kind (traced
/// passes only); `verify` makes the snapshot loop compare every
/// reconstruction with a fresh full snapshot (the unmeasured pass only).
pub fn run_pass<P: Probe>(
    cell: &Cell,
    pass: usize,
    probe: &mut P,
    replay: Option<&mut ControlPlaneReplay>,
    verify: bool,
) -> Result<Pass, SessionError> {
    probe.set_run(&|| format!("{}/{pass}", cell.workload.name()));
    let pass_tok = probe.enter();
    let out = match cell.snapshots {
        Some(plan) => run_snapshots(cell, plan, pass, probe, replay, verify),
        None => run_arms(cell, pass, probe, replay),
    };
    probe.exit(pass_tok, span::PASS);
    out
}

fn run_arms<P: Probe>(
    cell: &Cell,
    pass: usize,
    probe: &mut P,
    mut replay: Option<&mut ControlPlaneReplay>,
) -> Result<Pass, SessionError> {
    let setup_tok = probe.enter();
    let t0 = Instant::now();
    let arms: Vec<&Arm> = cell.arms.iter().collect();
    let mut fleet = build_fleet(cell, &arms, probe);
    let mut sessions = Vec::with_capacity(arms.len());
    for (env, algo) in fleet.envs.iter_mut().zip(fleet.algos.iter_mut()) {
        sessions.push(new_session(env, algo, probe)?);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    probe.exit(setup_tok, span::SETUP);

    let mut runs = Vec::with_capacity(arms.len());
    let mut digest = DefaultHasher::new();
    for (arm, session) in arms.iter().zip(&mut sessions) {
        let kind = arm.algorithm;
        probe.set_run(&|| format!("{}/{pass}/{}", cell.workload.name(), kind.name()));
        let follow = replay.as_deref_mut().filter(|_| kind == cell.replay_arm());
        let arm_tok = probe.enter();
        let t0 = Instant::now();
        let report = drive(session, probe, follow);
        let real_s = t0.elapsed().as_secs_f64();
        probe.exit(arm_tok, span::ARM);
        digest.write(report.to_json().pretty().as_bytes());
        runs.push(ArmRun { kind, real_s, report });
    }
    Ok(Pass {
        setup_s,
        real_s: runs.iter().map(|r| r.real_s).sum(),
        operations: runs.len(),
        arms: runs,
        snap: None,
        digest: digest.finish(),
    })
}

fn run_snapshots<P: Probe>(
    cell: &Cell,
    plan: SnapPlan,
    pass: usize,
    probe: &mut P,
    mut replay: Option<&mut ControlPlaneReplay>,
    verify: bool,
) -> Result<Pass, SessionError> {
    let arm = &cell.arms[0];
    let restores = plan.cycles / plan.chain;

    let setup_tok = probe.enter();
    let t0 = Instant::now();
    // One environment to start in and one pre-built target per restore.
    let arms = vec![arm; 1 + restores];
    let mut fleet = build_fleet(cell, &arms, probe);
    let mut targets = fleet.envs.iter_mut().zip(fleet.algos.iter_mut());
    let (env, algo) = targets.next().expect("the fleet has a starting environment");
    let mut session = new_session(env, algo, probe)?;
    let mut chain = SnapshotChain::default();
    let setup_s = t0.elapsed().as_secs_f64();
    probe.exit(setup_tok, span::SETUP);

    // Warm-up, off the clock: about one step per node, so every sampler,
    // clock and parameter vector carries live state.
    let n = session.env().num_nodes() as u64;
    while session.env().global_step < n {
        session.step();
    }

    let mut stats = SnapStats::default();
    let mut operations = 0;
    probe.set_run(&|| format!("{}/{pass}/{}", cell.workload.name(), arm.algorithm.name()));
    let arm_tok = probe.enter();
    let t0 = Instant::now();
    for cycle in 0..plan.cycles {
        let until = session.env().global_step + plan.steps_per_cycle;
        while session.env().global_step < until {
            step(&mut session, probe, replay.as_deref_mut());
        }
        operations += 1;
        let tok = probe.enter();
        if cycle % plan.chain == 0 {
            stats.full_bytes = chain.full(&session)?;
            probe.exit(tok, span::FULL_ENCODE);
        } else {
            let bytes = chain.delta(&session)?;
            probe.exit(tok, span::DELTA_ENCODE);
            if P::ON {
                stats.delta_bytes.push(bytes as f64);
                stats.changed_nodes.push(chain.last_changed_nodes() as f64);
            }
        }
        if (cycle + 1) % plan.chain == 0 {
            operations += 1;
            let tok = probe.enter();
            let snapshot = chain.reconstruct()?;
            probe.exit(tok, span::RECONSTRUCT);
            if verify {
                let fresh = session
                    .checkpoint_bytes(CheckpointFormat::Binary, &mut CheckpointScratch::new())?;
                stats.reconstruct_mismatches += usize::from(fresh != snapshot);
            }
            let tok = probe.enter();
            let (env, algo) = targets.next().expect("one target per restore was built");
            let restored = Session::restore_bytes(env, algo.driver(), &snapshot);
            probe.exit(tok, span::RESTORE);
            // Assigning drops the old session: the run continues on the
            // restored one.
            session = restored?;
        }
    }
    let real_s = t0.elapsed().as_secs_f64();
    probe.exit(arm_tok, span::ARM);

    stats.final_global_step = session.env().global_step;
    stats.final_snapshot =
        session.checkpoint_bytes(CheckpointFormat::Binary, &mut CheckpointScratch::new())?;
    let report = session.finish_now();
    let mut digest = DefaultHasher::new();
    digest.write(&stats.final_snapshot);
    digest.write(report.to_json().pretty().as_bytes());
    Ok(Pass {
        setup_s,
        real_s,
        arms: vec![ArmRun { kind: arm.algorithm, real_s, report }],
        snap: Some(stats),
        operations,
        digest: digest.finish(),
    })
}

/// The binary snapshot of an uninterrupted run of the snapshot cell at
/// `global_step` — what 16 restores later must still equal.
pub fn uninterrupted_snapshot(cell: &Cell, global_step: u64) -> Result<Vec<u8>, SessionError> {
    let mut fleet = build_fleet(cell, &[&cell.arms[0]], &mut Off);
    let mut session = new_session(&mut fleet.envs[0], &mut fleet.algos[0], &mut Off)?;
    while session.env().global_step < global_step {
        session.step();
    }
    session.checkpoint_bytes(CheckpointFormat::Binary, &mut CheckpointScratch::new())
}
