//! The experiment executor: one `(arm, seed)` cell per task, optionally
//! fanned out over a scoped thread pool.
//!
//! Every cell is fully independent — it builds its own [`Environment`]
//! from the (pure-data) scenario and drives its own algorithm instance
//! through a step-wise [`Session`] — and every run is deterministic via
//! the engine's per-node RNG streams, so the parallel executor produces
//! *byte-identical* reports to the sequential one; only wall-clock
//! changes. The datasets are instantiated once per experiment and shared
//! across cells through the workload's internal `Arc`s.
//!
//! Executing through sessions gives the runner three capabilities a
//! blocking call cannot offer:
//!
//! * **progress callbacks** — [`RunOptions::progress`] fires on every
//!   recorded sample of every cell, from whichever worker thread runs it;
//! * **real-time deadlines** — [`RunOptions::cell_deadline`] finishes a
//!   cell early (with a truthful partial report) when its real wall-clock
//!   budget expires; the runner reads the clock, the engine never does;
//! * **suspend/resume** — [`execute_suspended`] checkpoints every cell
//!   mid-run into NMXB bytes, [`checkpoint_bytes`] packs them into one
//!   `netmax-bench/checkpoint/v1` container, and [`resume`] continues
//!   it, byte-identical to an uninterrupted run.
//!
//! All three, the up-front validation, [`sanity_doc`] and
//! `experiments::scale::run` open and step their sessions in one
//! function, `run_cell`, which also times its step loop.
//!
//! [`Environment`]: netmax_core::engine::Environment

use crate::common::Mode;
use crate::experiments::fig03;
use crate::registry::sanity_spec;
use crate::spec::{ExperimentSpec, MetricKind};
use netmax_core::engine::{
    AlgorithmKind, CheckpointScratch, RunReport, Session, SessionError, StepEvent,
};
use netmax_json::{codec, CodecError, FromJson, Json, JsonError, ToJson};
use netmax_ml::workload::Workload;
use netmax_ml::NumericsTier;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Schema tag written into every artifact; bump on breaking changes.
pub const ARTIFACT_SCHEMA: &str = "netmax-bench/run-report/v1";

/// Schema tag of suspended-experiment checkpoint containers.
pub const CHECKPOINT_SCHEMA: &str = "netmax-bench/checkpoint/v1";

/// One `(arm, seed)` cell's outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Index into the spec's arm list.
    pub arm: usize,
    /// The arm's display label.
    pub label: String,
    /// The arm's algorithm.
    pub algorithm: AlgorithmKind,
    /// The training seed this cell ran with.
    pub seed: u64,
    /// The full recorded run.
    pub report: RunReport,
}

impl ToJson for CellResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("arm", self.arm.to_json()),
            ("label", self.label.to_json()),
            ("algorithm", self.algorithm.to_json()),
            ("seed", self.seed.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

impl FromJson for CellResult {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            arm: usize::from_json(v.field("arm")?)?,
            label: String::from_json(v.field("label")?)?,
            algorithm: AlgorithmKind::from_json(v.field("algorithm")?)?,
            seed: u64::from_json(v.field("seed")?)?,
            report: RunReport::from_json(v.field("report")?)?,
        })
    }
}

/// All cells of one executed experiment, in `(arm, seed)` grid order.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The spec that produced these cells.
    pub spec: ExperimentSpec,
    /// One result per cell, arms outermost, seeds innermost.
    pub cells: Vec<CellResult>,
}

impl ExperimentResult {
    /// The first cell matching an algorithm.
    pub fn cell(&self, kind: AlgorithmKind) -> Option<&CellResult> {
        self.cells.iter().find(|c| c.algorithm == kind)
    }

    /// The loss level the `time_to_target` summary is read at
    /// ([`common_loss_target_of`](crate::common::common_loss_target_of)
    /// over every cell).
    pub fn loss_target(&self) -> f64 {
        crate::common::common_loss_target_of(self.cells.iter().map(|c| &c.report))
    }

    /// The test accuracy the `time_to_accuracy` summary is read at: 98 %
    /// of the worst cell's final accuracy, so every arm reaches it.
    pub fn accuracy_target(&self) -> f64 {
        let worst =
            self.cells.iter().map(|c| c.report.final_test_accuracy).fold(f64::INFINITY, f64::min);
        worst * 0.98
    }

    /// Per-experiment record for the JSON artifact: spec, numerics tier
    /// (hoisted from the spec's scenario for quick artifact filtering),
    /// summary (per the spec's metric list), and every cell's full report.
    pub fn to_record(&self) -> Json {
        Json::obj([
            ("spec", self.spec.to_json()),
            ("tier", self.spec.scenario.cfg().tier.to_json()),
            ("summary", self.summary()),
            ("cells", self.cells.to_json()),
        ])
    }

    /// Summary metrics as JSON (one entry per requested [`MetricKind`]).
    pub fn summary(&self) -> Json {
        let mut entries: Vec<(String, Json)> = Vec::new();
        for metric in &self.spec.metrics {
            let value = match metric {
                MetricKind::TimeToTarget => {
                    let target = self.loss_target();
                    Json::obj([
                        ("loss_target", target.to_json()),
                        (
                            "seconds",
                            Json::Arr(
                                self.cells
                                    .iter()
                                    .map(|c| {
                                        cell_entry(c, c.report.time_to_loss(target).to_json())
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                }
                MetricKind::EpochCost => Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            cell_entry(
                                c,
                                Json::obj([
                                    ("comp_s", c.report.comp_cost_per_epoch_s().to_json()),
                                    ("comm_s", c.report.comm_cost_per_epoch_s().to_json()),
                                    ("epoch_s", c.report.epoch_time_avg_s().to_json()),
                                ]),
                            )
                        })
                        .collect(),
                ),
                MetricKind::Accuracy => Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| cell_entry(c, c.report.final_test_accuracy.to_json()))
                        .collect(),
                ),
                MetricKind::TimeToAccuracy => {
                    let target = self.accuracy_target();
                    Json::obj([
                        ("accuracy_target", target.to_json()),
                        (
                            "seconds",
                            Json::Arr(
                                self.cells
                                    .iter()
                                    .map(|c| {
                                        cell_entry(c, time_to_accuracy(&c.report, target).to_json())
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                }
                MetricKind::Straggler => Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            let straggler = c
                                .report
                                .per_node
                                .iter()
                                .map(|x| if x.epochs > 0.0 { x.clock_s / x.epochs } else { 0.0 })
                                .fold(0.0f64, f64::max);
                            cell_entry(c, straggler.to_json())
                        })
                        .collect(),
                ),
                MetricKind::IterationTime => fig03::iteration_time_summary(),
            };
            entries.push((metric.name().to_string(), value));
        }
        Json::Obj(entries)
    }
}

fn cell_entry(c: &CellResult, value: Json) -> Json {
    Json::obj([
        ("arm", Json::Str(c.label.clone())),
        ("seed", c.seed.to_json()),
        ("value", value),
    ])
}

/// Seconds for the averaged model to first reach `target` test accuracy.
pub fn time_to_accuracy(report: &RunReport, target: f64) -> Option<f64> {
    report
        .samples
        .iter()
        .find(|s| s.test_accuracy.is_some_and(|a| a >= target))
        .map(|s| s.time_s)
}

/// Default worker-thread count: the machine's parallelism, capped by the
/// cell count (a cell is one full training run — there is nothing smaller
/// to parallelise).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Live progress of one cell, handed to [`RunOptions::progress`] at every
/// recorded sample.
#[derive(Debug, Clone, Copy)]
pub struct CellProgress<'a> {
    /// The experiment name.
    pub experiment: &'a str,
    /// The cell's arm label.
    pub label: &'a str,
    /// The cell's training seed.
    pub seed: u64,
    /// Global steps completed so far.
    pub global_step: u64,
    /// Mean fractional epoch so far.
    pub epoch: f64,
    /// Simulated wall-clock so far (seconds).
    pub sim_time_s: f64,
    /// The sample's training loss.
    pub train_loss: f64,
}

/// A progress callback; called from worker threads, so it must be `Sync`.
pub type ProgressFn<'a> = dyn Fn(CellProgress<'_>) + Sync + 'a;

/// Execution options for [`try_execute`] / [`resume`].
#[derive(Default, Clone, Copy)]
pub struct RunOptions<'p> {
    /// Worker threads (0 ⇒ [`default_threads`]).
    pub threads: usize,
    /// Called after every recorded sample of every cell.
    pub progress: Option<&'p ProgressFn<'p>>,
    /// Real wall-clock budget per cell: when it expires the cell's session
    /// finishes immediately and reports the partial run. **Breaks
    /// cross-run determinism** (the cut point depends on machine speed) —
    /// off by default, meant for smoke runs under CI time limits.
    pub cell_deadline: Option<Duration>,
}

/// The `(arm, seed)` grid of a spec, arms outermost.
fn grid(spec: &ExperimentSpec) -> Vec<(usize, u64)> {
    let seeds = spec.effective_seeds();
    spec.arms
        .iter()
        .enumerate()
        .flat_map(|(a, _)| seeds.iter().map(move |&s| (a, s)))
        .collect()
}

/// Fans `tasks` out over `threads` scoped workers (0 ⇒
/// [`default_threads`]); results come back in task order. `run` must be
/// deterministic per task for the executor's byte-identity guarantee to
/// hold.
fn fan_out<T: Sync, R: Send>(tasks: &[T], threads: usize, run: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = if threads == 0 { default_threads() } else { threads };
    let threads = threads.min(tasks.len());
    if threads <= 1 {
        return tasks.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else { return done };
            done.push((i, run(task)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        // A worker's panic is re-raised here, on the calling thread.
        workers.into_iter().flat_map(|w| w.join().unwrap_or_else(|e| resume_unwind(e))).collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// How far [`run_cell`] takes a cell's session: opened and never stepped
/// (the up-front validation), to the end of the run or the cell
/// deadline, or until its global step count reaches the given one (or
/// the run ends first), then checkpointed.
#[derive(Clone, Copy)]
enum Until {
    Opened,
    Finished,
    Suspended(u64),
}

/// A cell's session as [`run_cell`] left it, one variant per [`Until`].
enum CellEnd {
    Opened,
    Finished(CellResult),
    Suspended(SuspendedCell),
}

/// The one path from a cell to a session: builds the cell's environment
/// around the shared `workload`, opens its session — fresh, or from
/// `checkpoint` bytes — and steps it as far as `until` says, streaming
/// every recorded sample to `opts.progress` and finishing early when
/// `opts.cell_deadline` passes. Also returns the real seconds of the
/// step loop alone.
fn run_cell(
    spec: &ExperimentSpec,
    workload: &Workload,
    (arm_idx, seed): (usize, u64),
    checkpoint: Option<&[u8]>,
    until: Until,
    opts: &RunOptions<'_>,
) -> Result<(CellEnd, f64), SessionError> {
    let arm = spec.arms.get(arm_idx).ok_or_else(|| {
        SessionError::BadCheckpoint(format!("cell references arm {arm_idx} not in spec"))
    })?;
    let mut scenario = spec.scenario.clone();
    scenario.cfg_mut().seed = seed;
    let mut algo = arm.instantiate(workload.optim.lr);
    let mut env = scenario.build_env_with(workload.clone());
    let mut session = match checkpoint {
        None => Session::new(&mut env, algo.driver())?,
        Some(bytes) => Session::restore_bytes(&mut env, algo.driver(), bytes)?,
    };
    let suspend_at = match until {
        Until::Opened => return Ok((CellEnd::Opened, 0.0)),
        Until::Finished => None,
        Until::Suspended(steps) => Some(steps),
    };
    let (label, algorithm) = (arm.label(), arm.algorithm);
    let stream = |sample: &netmax_core::engine::Sample| {
        if let Some(progress) = opts.progress {
            progress(CellProgress {
                experiment: &spec.name,
                label: &label,
                seed,
                global_step: sample.global_step,
                epoch: sample.epoch,
                sim_time_s: sample.time_s,
                train_loss: sample.train_loss,
            });
        }
    };
    // The deadline is checked before every session step, so a
    // round-granular driver can overshoot by at most the one event in
    // flight when the budget expires, never by further rounds.
    let t0 = Instant::now();
    let deadline = opts.cell_deadline.map(|d| t0 + d);
    let report = loop {
        if suspend_at.is_some_and(|steps| session.env().global_step >= steps) {
            break None;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break Some(session.finish_now());
        }
        match session.step() {
            StepEvent::Sampled { sample } => stream(&sample),
            StepEvent::Finished { report } => break Some(report),
            _ => {}
        }
    };
    let real_s = t0.elapsed().as_secs_f64();
    if let (None, Some(report)) = (suspend_at, report) {
        // The finishing sample is taken inside `finish` (it carries the
        // final test evaluation) and is not delivered as a `Sampled`
        // event.
        if let Some(last) = report.samples.last() {
            stream(last);
        }
        let cell = CellResult { arm: arm_idx, label, algorithm, seed, report };
        return Ok((CellEnd::Finished(cell), real_s));
    }
    // A cell that finished before the suspension count is checkpointed
    // finished; resuming it reproduces the same report.
    let mut bytes = Vec::new();
    session.checkpoint_binary(&mut CheckpointScratch::new(), &mut bytes)?;
    let (global_step, tier) = (session.env().global_step, session.env().cfg.tier);
    let cell =
        SuspendedCell { arm: arm_idx, label, algorithm, seed, global_step, tier, session: bytes };
    Ok((CellEnd::Suspended(cell), real_s))
}

/// Opens the first seed's session of every arm through [`run_cell`], so
/// a spec whose sessions cannot open fails before any training work.
fn validate(spec: &ExperimentSpec, workload: &Workload) -> Result<(), SessionError> {
    let Some(&seed) = spec.effective_seeds().first() else { return Ok(()) };
    for arm in 0..spec.arms.len() {
        run_cell(spec, workload, (arm, seed), None, Until::Opened, &RunOptions::default())?;
    }
    Ok(())
}

/// Validates `spec`, then runs `cells` — `(arm, seed)`, each with the
/// checkpoint bytes to restore it from or `None` — to the end, each with
/// the real seconds of its step loop.
fn finish_cells(
    spec: &ExperimentSpec,
    cells: &[(usize, u64, Option<&[u8]>)],
    opts: &RunOptions<'_>,
) -> Result<Vec<(CellResult, f64)>, SessionError> {
    if cells.is_empty() {
        return Ok(Vec::new());
    }
    // Materialise the datasets once; cells share them via internal Arcs.
    let workload = spec.scenario.workload();
    validate(spec, &workload)?;
    let results = fan_out(cells, opts.threads, |&(arm, seed, checkpoint)| {
        match run_cell(spec, &workload, (arm, seed), checkpoint, Until::Finished, opts)? {
            (CellEnd::Finished(result), real_s) => Ok((result, real_s)),
            _ => unreachable!("a cell run until finished ends finished"),
        }
    });
    results.into_iter().collect()
}

/// [`try_execute`] with each cell's real seconds of its step loop, which
/// `scale` prints from a run on one thread.
pub(crate) fn execute_timed(
    spec: &ExperimentSpec,
    opts: &RunOptions<'_>,
) -> Result<Vec<(CellResult, f64)>, SessionError> {
    let cells: Vec<_> = grid(spec).into_iter().map(|(arm, seed)| (arm, seed, None)).collect();
    finish_cells(spec, &cells, opts)
}

/// Runs the spec's cells through step-wise sessions with the given
/// options, surfacing configuration problems as typed errors before any
/// cell starts.
///
/// Determinism: each cell builds a fresh environment from the pure-data
/// scenario and owns its algorithm instance, so the result is independent
/// of scheduling; `threads = 1` and `threads = N` produce byte-identical
/// reports, in the same grid order.
pub fn try_execute(
    spec: &ExperimentSpec,
    opts: &RunOptions<'_>,
) -> Result<ExperimentResult, SessionError> {
    let cells = execute_timed(spec, opts)?.into_iter().map(|(cell, _)| cell).collect();
    Ok(ExperimentResult { spec: spec.clone(), cells })
}

/// One cell of a suspended experiment: its grid coordinates, how far it
/// got, and the session's serialized checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspendedCell {
    /// Index into the spec's arm list.
    pub arm: usize,
    /// The arm's display label.
    pub label: String,
    /// The arm's algorithm.
    pub algorithm: AlgorithmKind,
    /// The training seed this cell ran with.
    pub seed: u64,
    /// Global steps completed at suspension.
    pub global_step: u64,
    /// The numerics tier the cell was running under.
    pub tier: NumericsTier,
    /// The session's `netmax-core/session-checkpoint/v3` NMXB bytes,
    /// exactly as [`Session::checkpoint_binary`] wrote them.
    pub session: Vec<u8>,
}

/// An experiment checkpointed mid-run: the exact spec plus one suspended
/// session per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspendedExperiment {
    /// The spec that produced these cells.
    pub spec: ExperimentSpec,
    /// One suspended session per cell, in `(arm, seed)` grid order.
    pub cells: Vec<SuspendedCell>,
}

/// Runs every cell until it has taken at least `suspend_after_steps`
/// global steps (or finished first), then checkpoints it. The returned
/// experiment, resumed with [`resume`], yields reports byte-identical to
/// an uninterrupted [`try_execute`] run.
pub fn execute_suspended(
    spec: &ExperimentSpec,
    threads: usize,
    suspend_after_steps: u64,
) -> Result<SuspendedExperiment, SessionError> {
    let workload = spec.scenario.workload();
    validate(spec, &workload)?;
    let until = Until::Suspended(suspend_after_steps);
    let cells = fan_out(&grid(spec), threads, |&cell| {
        match run_cell(spec, &workload, cell, None, until, &RunOptions::default())? {
            (CellEnd::Suspended(cell), _) => Ok(cell),
            _ => unreachable!("a cell run until suspended ends suspended"),
        }
    });
    let cells = cells.into_iter().collect::<Result<_, SessionError>>()?;
    Ok(SuspendedExperiment { spec: spec.clone(), cells })
}

/// Resumes a suspended experiment to completion.
pub fn resume(
    suspended: &SuspendedExperiment,
    opts: &RunOptions<'_>,
) -> Result<ExperimentResult, SessionError> {
    let spec = &suspended.spec;
    let cells: Vec<_> =
        suspended.cells.iter().map(|c| (c.arm, c.seed, Some(&c.session[..]))).collect();
    let cells = finish_cells(spec, &cells, opts)?.into_iter().map(|(cell, _)| cell).collect();
    Ok(ExperimentResult { spec: spec.clone(), cells })
}

/// Renders a binary-codec failure as the schema-error type the rest of
/// the checkpoint plumbing speaks.
fn codec_err(e: CodecError) -> JsonError {
    JsonError::schema(format!("binary container: {e}"))
}

/// Serializes a suspended experiment as one NMXB container: the
/// `netmax-bench/checkpoint/v1` schema tag, a `meta` section carrying the
/// spec plus one row per cell (everything in [`SuspendedCell`] but the
/// session), and one `session.N` section per cell holding the cell's
/// session bytes untouched.
pub fn checkpoint_bytes(suspended: &SuspendedExperiment) -> Result<Vec<u8>, JsonError> {
    let rows = suspended.cells.iter().map(|c| {
        Json::obj([
            ("arm", c.arm.to_json()),
            ("label", c.label.to_json()),
            ("algorithm", c.algorithm.to_json()),
            ("seed", c.seed.to_json()),
            ("global_step", c.global_step.to_json()),
            ("tier", c.tier.to_json()),
        ])
    });
    let meta = Json::obj([
        ("schema", Json::Str(CHECKPOINT_SCHEMA.into())),
        ("spec", suspended.spec.to_json()),
        ("cells", Json::Arr(rows.collect())),
    ]);
    let mut meta_bytes = Vec::new();
    codec::encode_value(&mut meta_bytes, &meta).map_err(codec_err)?;
    let names: Vec<String> = (0..suspended.cells.len()).map(|i| format!("session.{i}")).collect();
    let mut sections: Vec<(&str, &[u8])> = vec![("meta", &meta_bytes)];
    sections.extend(
        names.iter().map(String::as_str).zip(suspended.cells.iter().map(|c| c.session.as_slice())),
    );
    let mut out = Vec::new();
    codec::write_document(&mut out, CHECKPOINT_SCHEMA, &sections).map_err(codec_err)?;
    Ok(out)
}

/// Parses a container written by [`checkpoint_bytes`]. Session payloads
/// are copied out undecoded — [`resume`] restores each cell's session
/// from them, and the session restore owns their validation; the spec is
/// checked against its own fleet as it parses. Anything that is not an
/// NMXB container under [`CHECKPOINT_SCHEMA`] is a typed error.
pub fn parse_checkpoint_bytes(bytes: &[u8]) -> Result<SuspendedExperiment, JsonError> {
    let doc = codec::read_document(bytes).map_err(codec_err)?;
    doc.check_schema(CHECKPOINT_SCHEMA).map_err(codec_err)?;
    suspended_from(&doc)
}

/// The sections of a [`CHECKPOINT_SCHEMA`] container as a
/// [`SuspendedExperiment`].
fn suspended_from(doc: &codec::BinaryDocument<'_>) -> Result<SuspendedExperiment, JsonError> {
    let meta = codec::decode_value(doc.require("meta").map_err(codec_err)?).map_err(codec_err)?;
    let cells = meta
        .field("cells")?
        .as_arr()?
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Ok(SuspendedCell {
                arm: usize::from_json(c.field("arm")?)?,
                label: String::from_json(c.field("label")?)?,
                algorithm: AlgorithmKind::from_json(c.field("algorithm")?)?,
                seed: u64::from_json(c.field("seed")?)?,
                global_step: u64::from_json(c.field("global_step")?)?,
                tier: NumericsTier::from_json(c.field("tier")?)?,
                session: doc.require(&format!("session.{i}")).map_err(codec_err)?.to_vec(),
            })
        })
        .collect::<Result<_, JsonError>>()?;
    Ok(SuspendedExperiment { spec: ExperimentSpec::from_json(meta.field("spec")?)?, cells })
}

/// Writes `bytes` to `path` through `<path>.tmp` in the same directory —
/// write, `sync_all`, rename — so a crash or a full disk mid-write can
/// never leave a truncated file at `path` shadowing the previous good one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        // Best effort: the write error is what the caller needs to see.
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    // Make the rename itself durable. Not every platform can open or
    // sync a directory, so this half is best effort.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Typed outcome of `netmax-bench show` document dispatch: either a run
/// artifact or a suspended-experiment checkpoint.
#[derive(Debug, Clone)]
pub enum ShownDoc {
    /// A `netmax-bench/run-report/v1` artifact.
    RunReport(Vec<ExperimentResult>),
    /// A `netmax-bench/checkpoint/v1` container; every per-cell fact
    /// `show` prints lives in its `meta` rows, so no session is decoded.
    Checkpoint(Box<SuspendedExperiment>),
}

/// Typed errors from [`summarize_bytes`]: a document whose schema tag is
/// not one this tool understands is distinguished from one that is
/// structurally broken.
#[derive(Debug, Clone)]
pub enum ShowError {
    /// The document carries a schema tag `show` does not understand.
    UnknownSchema(String),
    /// The document is malformed under its declared schema.
    Malformed(JsonError),
}

impl std::fmt::Display for ShowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShowError::UnknownSchema(s) => write!(
                f,
                "unknown schema `{s}` (expected a `{ARTIFACT_SCHEMA}` JSON artifact or a \
                 `{CHECKPOINT_SCHEMA}` NMXB container)"
            ),
            ShowError::Malformed(e) => write!(f, "malformed document: {e}"),
        }
    }
}

impl std::error::Error for ShowError {}

impl From<JsonError> for ShowError {
    fn from(e: JsonError) -> Self {
        ShowError::Malformed(e)
    }
}

/// Dispatches a JSON document by its `schema` tag: run artifacts parse
/// fully, anything else is a typed [`ShowError::UnknownSchema`].
pub fn summarize_doc(doc: &Json) -> Result<ShownDoc, ShowError> {
    match doc.field("schema")?.as_str()? {
        ARTIFACT_SCHEMA => Ok(ShownDoc::RunReport(parse_artifact(doc)?)),
        other => Err(ShowError::UnknownSchema(other.to_string())),
    }
}

/// Dispatches raw on-disk bytes for `netmax-bench show`: NMXB containers
/// (by magic) must be checkpoints, anything else must be a UTF-8 JSON run
/// artifact ([`summarize_doc`]). A document under an unrecognized schema
/// tag is a typed [`ShowError::UnknownSchema`] in either encoding.
pub fn summarize_bytes(bytes: &[u8]) -> Result<ShownDoc, ShowError> {
    if !codec::is_binary(bytes) {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ShowError::Malformed(JsonError::schema("not UTF-8 JSON".to_string())))?;
        return summarize_doc(&Json::parse(text)?);
    }
    let doc = codec::read_document(bytes).map_err(codec_err)?;
    if doc.schema != CHECKPOINT_SCHEMA {
        return Err(ShowError::UnknownSchema(doc.schema.to_string()));
    }
    Ok(ShownDoc::Checkpoint(Box::new(suspended_from(&doc)?)))
}

/// Assembles the versioned artifact document for a set of executed
/// experiments.
pub fn artifact(results: &[ExperimentResult]) -> Json {
    Json::obj([
        ("schema", Json::Str(ARTIFACT_SCHEMA.into())),
        ("experiments", Json::Arr(results.iter().map(ExperimentResult::to_record).collect())),
    ])
}

/// Parses an artifact document back into `(spec, cells)` pairs, verifying
/// the schema tag. The derived `summary` block is not re-validated — it is
/// recomputable from the cells.
pub fn parse_artifact(doc: &Json) -> Result<Vec<ExperimentResult>, JsonError> {
    let schema = doc.field("schema")?.as_str()?;
    if schema != ARTIFACT_SCHEMA {
        return Err(JsonError::schema(format!(
            "unsupported artifact schema `{schema}` (expected `{ARTIFACT_SCHEMA}`)"
        )));
    }
    doc.field("experiments")?
        .as_arr()?
        .iter()
        .map(|record| {
            Ok(ExperimentResult {
                spec: ExperimentSpec::from_json(record.field("spec")?)?,
                cells: Vec::from_json(record.field("cells")?)?,
            })
        })
        .collect()
}

/// `x` at `digits` decimals, as the JSON number that text denotes — the
/// per-field precision `BENCH_sanity.json` is committed at.
fn rounded(x: f64, digits: usize) -> Json {
    Json::parse(&format!("{x:.digits$}")).unwrap_or(Json::Null)
}

/// The `BENCH_sanity.json` document at `mode` — the headline shape check
/// (not a paper figure): on the heterogeneous dynamic network NetMax
/// should reach the loss target in less simulated time than AD-PSGD,
/// Allreduce-SGD and Prague. Same cells as `run sanity`, and like every
/// committed document it holds simulated values only; `on_arm` sees
/// every arm's label and report, in arm order.
pub fn sanity_doc(mode: Mode, mut on_arm: impl FnMut(&str, &RunReport)) -> Json {
    use netmax_ml::workload::WorkloadKind;
    use netmax_net::NetworkKind;
    let spec = sanity_spec(mode);
    // The header below names the scenario with fixed strings; these
    // asserts tie them to the spec so the baseline can never silently
    // drift from what actually ran.
    assert_eq!(spec.scenario.workload_spec().kind, WorkloadKind::Resnet18Cifar10);
    assert_eq!(spec.scenario.network_kind(), NetworkKind::HeterogeneousDynamic);
    let result = try_execute(&spec, &RunOptions::default())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    let results = result.cells.iter().map(|cell| {
        let (label, r) = (&cell.label, &cell.report);
        on_arm(label, r);
        Json::obj([
            ("algorithm", label.to_json()),
            ("simulated_wall_clock_s", rounded(r.wall_clock_s, 3)),
            ("epoch_time_avg_s", rounded(r.epoch_time_avg_s(), 4)),
            ("comp_cost_per_epoch_s", rounded(r.comp_cost_per_epoch_s(), 4)),
            ("comm_cost_per_epoch_s", rounded(r.comm_cost_per_epoch_s(), 4)),
            ("final_train_loss", rounded(r.final_train_loss, 6)),
            ("final_test_accuracy", rounded(r.final_test_accuracy, 4)),
            ("time_to_loss_0_40_s", r.time_to_loss(0.40).map_or(Json::Null, |t| rounded(t, 2))),
            ("global_steps", r.global_steps.to_json()),
        ])
    });
    let results = results.collect();
    let cfg = spec.scenario.cfg();
    Json::obj([
        ("benchmark", "sanity".to_json()),
        (
            "scenario",
            Json::obj([
                ("workers", spec.scenario.workers().to_json()),
                ("network", "heterogeneous_dynamic".to_json()),
                ("workload", "resnet18/cifar10".to_json()),
                ("max_epochs", rounded(cfg.max_epochs, 1)),
                ("seed", cfg.seed.to_json()),
            ]),
        ),
        ("results", Json::Arr(results)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Arm;
    use netmax_core::engine::Scenario;
    use netmax_ml::workload::WorkloadSpec;

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "test/parallel".into(),
            group: "test".into(),
            title: "executor determinism fixture".into(),
            scenario: Scenario::builder()
                .workers(4)
                .workload(WorkloadSpec::convex_ridge(3))
                .max_epochs(1.0)
                .seed(9)
                .build(),
            arms: vec![
                Arm::new(AlgorithmKind::NetMax),
                Arm::new(AlgorithmKind::AdPsgd),
                Arm::new(AlgorithmKind::AllreduceSgd),
            ],
            seeds: vec![9, 10],
            metrics: vec![MetricKind::TimeToTarget, MetricKind::Accuracy],
        }
    }

    /// [`try_execute`] of a valid spec on `threads` workers.
    fn run_on(spec: &ExperimentSpec, threads: usize) -> ExperimentResult {
        try_execute(spec, &RunOptions { threads, ..RunOptions::default() }).unwrap()
    }

    /// A fresh per-test directory (tests run on parallel threads).
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("netmax-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_sequential() {
        let spec = small_spec();
        let sequential = run_on(&spec, 1);
        let parallel = run_on(&spec, 4);
        assert_eq!(sequential.cells.len(), 6);
        let (a, b) = (artifact(&[sequential]), artifact(&[parallel]));
        assert_eq!(a.to_string(), b.to_string(), "thread count must not change results");
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let spec = small_spec();
        let result = run_on(&spec, 2);
        let doc = artifact(std::slice::from_ref(&result));
        let text = doc.pretty();
        let back = parse_artifact(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].spec, result.spec);
        assert_eq!(back[0].cells.len(), result.cells.len());
        for (x, y) in back[0].cells.iter().zip(&result.cells) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.report.global_steps, y.report.global_steps);
            assert_eq!(x.report.samples.len(), y.report.samples.len());
        }
    }

    #[test]
    fn artifact_schema_is_enforced() {
        let doc = Json::parse(r#"{"schema":"other/v9","experiments":[]}"#).unwrap();
        assert!(parse_artifact(&doc).is_err());
    }

    #[test]
    fn seeds_produce_distinct_runs() {
        let spec = small_spec();
        let result = run_on(&spec, 1);
        let netmax: Vec<_> = result.cells.iter().filter(|c| c.arm == 0).collect();
        assert_eq!(netmax.len(), 2);
        assert_ne!(
            netmax[0].report.final_train_loss, netmax[1].report.final_train_loss,
            "different seeds must not produce identical trajectories"
        );
    }

    #[test]
    fn progress_callback_streams_samples() {
        use std::sync::atomic::AtomicU64;
        let mut spec = small_spec();
        spec.arms.truncate(1);
        spec.seeds.truncate(1);
        let samples = AtomicU64::new(0);
        let progress = |p: CellProgress<'_>| {
            assert_eq!(p.experiment, "test/parallel");
            assert!(p.global_step > 0);
            samples.fetch_add(1, Ordering::Relaxed);
        };
        let result = try_execute(
            &spec,
            &RunOptions { threads: 1, progress: Some(&progress), cell_deadline: None },
        )
        .unwrap();
        let recorded = result.cells[0].report.samples.len() as u64;
        // Every recorded sample, the forced final one included, streams
        // through the callback.
        assert_eq!(samples.load(Ordering::Relaxed), recorded);
    }

    #[test]
    fn suspend_resume_is_byte_identical_through_the_checkpoint_file() {
        let spec = small_spec();
        let direct = run_on(&spec, 2);

        let suspended = execute_suspended(&spec, 2, 40).unwrap();
        let dir = scratch_dir("resume");
        let path = dir.join("test__parallel.checkpoint.bin");
        write_atomic(&path, &checkpoint_bytes(&suspended).unwrap()).unwrap();
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(left, std::slice::from_ref(&path), "the temp file must not outlive the write");
        let parsed = parse_checkpoint_bytes(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(parsed.spec, spec);
        assert_eq!(parsed.cells.len(), 6);
        let resumed = resume(&parsed, &RunOptions { threads: 2, ..Default::default() }).unwrap();

        let (a, b) = (artifact(&[direct]), artifact(&[resumed]));
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "suspend + resume must reproduce the uninterrupted artifact byte-for-byte"
        );
    }

    #[test]
    fn failed_checkpoint_write_leaves_the_previous_file_intact() {
        let dir = scratch_dir("atomic");
        let path = dir.join("x.checkpoint.bin");
        write_atomic(&path, b"good").unwrap();
        // The temp path is occupied by a directory, so the write cannot
        // even start: the error surfaces and the old bytes stay put.
        std::fs::create_dir(dir.join("x.checkpoint.bin.tmp")).unwrap();
        assert!(write_atomic(&path, b"newer").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"good");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_suspend_resume_is_byte_identical_across_driver_families() {
        // All four driver families in one suspended experiment:
        // monitor-bearing (NetMax), gossip (AD-PSGD), round-structured
        // (Allreduce), and parameter-server (PS-async).
        let mut spec = small_spec();
        spec.arms.push(Arm::new(AlgorithmKind::PsAsync));
        spec.seeds.truncate(1);
        let direct = run_on(&spec, 2);

        let suspended = execute_suspended(&spec, 2, 40).unwrap();
        let bytes = checkpoint_bytes(&suspended).unwrap();
        let parsed = parse_checkpoint_bytes(&bytes).unwrap();
        // The container is lossless: spec, per-cell rows and every
        // session's bytes come back exactly.
        assert_eq!(parsed, suspended);
        assert_eq!(parsed.cells.len(), 4);
        let resumed = resume(&parsed, &RunOptions { threads: 2, ..Default::default() }).unwrap();

        let (a, b) = (artifact(&[direct]), artifact(&[resumed]));
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "binary suspend + resume must reproduce the uninterrupted artifact byte-for-byte"
        );
    }

    #[test]
    fn show_dispatch_handles_binary_containers() {
        let mut spec = small_spec();
        spec.arms.truncate(1);
        spec.seeds.truncate(1);
        let suspended = execute_suspended(&spec, 1, 30).unwrap();
        let bytes = checkpoint_bytes(&suspended).unwrap();

        match summarize_bytes(&bytes).unwrap() {
            ShownDoc::Checkpoint(shown) => {
                assert_eq!(shown.spec.name, spec.name);
                assert_eq!(shown.cells.len(), 1);
                let cell = &shown.cells[0];
                assert_eq!(cell.algorithm, AlgorithmKind::NetMax);
                assert_eq!(cell.seed, 9);
                assert!(cell.global_step >= 30, "{}", cell.global_step);
                assert_eq!(cell.tier, NumericsTier::Strict);
            }
            other => panic!("expected a checkpoint, got {other:?}"),
        }

        // A binary document under a foreign schema tag is the same typed
        // error as its JSON twin; truncated bytes are Malformed.
        let mut alien = Vec::new();
        codec::write_document(&mut alien, "netmax-bench/mystery/v9", &[]).unwrap();
        match summarize_bytes(&alien) {
            Err(ShowError::UnknownSchema(s)) => assert_eq!(s, "netmax-bench/mystery/v9"),
            other => panic!("expected UnknownSchema, got {other:?}"),
        }
        assert!(matches!(
            summarize_bytes(&bytes[..bytes.len() - 3]),
            Err(ShowError::Malformed(_))
        ));
    }

    #[test]
    fn checkpoint_schema_is_enforced() {
        // The one parser accepts an NMXB container under CHECKPOINT_SCHEMA
        // and nothing else: not a foreign container, not a bare session
        // snapshot, not JSON text.
        let mut alien = Vec::new();
        codec::write_document(&mut alien, ARTIFACT_SCHEMA, &[]).unwrap();
        assert!(parse_checkpoint_bytes(&alien).is_err());
        let mut spec = small_spec();
        spec.arms.truncate(1);
        spec.seeds.truncate(1);
        let suspended = execute_suspended(&spec, 1, 5).unwrap();
        assert!(parse_checkpoint_bytes(&suspended.cells[0].session).is_err());
        let err = parse_checkpoint_bytes(br#"{"schema":"netmax-bench/checkpoint/v1"}"#).unwrap_err();
        assert!(err.to_string().contains("NMXB"), "{err}");
    }

    #[test]
    fn show_dispatch_summarizes_artifacts_and_checkpoints() {
        let mut spec = small_spec();
        spec.arms.truncate(2);
        spec.seeds.truncate(1);

        // A run artifact dispatches to RunReport.
        let result = run_on(&spec, 1);
        let doc = artifact(std::slice::from_ref(&result));
        match summarize_bytes(doc.pretty().as_bytes()).unwrap() {
            ShownDoc::RunReport(results) => assert_eq!(results.len(), 1),
            other => panic!("expected a run report, got {other:?}"),
        }

        // A checkpoint container dispatches to its per-cell rows:
        // algorithm, seed, global step and tier, no session decoded.
        let suspended = execute_suspended(&spec, 1, 30).unwrap();
        match summarize_bytes(&checkpoint_bytes(&suspended).unwrap()).unwrap() {
            ShownDoc::Checkpoint(shown) => {
                assert_eq!(shown.spec.name, spec.name);
                assert_eq!(shown.cells.len(), 2);
                for cell in &shown.cells {
                    assert!(cell.global_step >= 30, "{}: {}", cell.label, cell.global_step);
                    assert_eq!(cell.tier, NumericsTier::Strict);
                }
                assert_eq!(shown.cells[0].algorithm, AlgorithmKind::NetMax);
                assert_eq!(shown.cells[0].seed, 9);
            }
            other => panic!("expected a checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn show_dispatch_rejects_unknown_schemas_with_a_typed_error() {
        let doc = Json::parse(r#"{"schema":"netmax-bench/mystery/v7","cells":[]}"#).unwrap();
        match summarize_doc(&doc) {
            Err(ShowError::UnknownSchema(s)) => assert_eq!(s, "netmax-bench/mystery/v7"),
            other => panic!("expected UnknownSchema, got {other:?}"),
        }
        // Structurally broken documents are a different typed error.
        let doc = Json::parse(r#"{"no_schema_at_all": 1}"#).unwrap();
        assert!(matches!(summarize_doc(&doc), Err(ShowError::Malformed(_))));
    }

    #[test]
    fn invalid_spec_fails_before_any_work() {
        let mut spec = small_spec();
        spec.scenario.cfg_mut().record_every_steps = 0;
        let err = try_execute(&spec, &RunOptions::default()).unwrap_err();
        assert!(err.to_string().contains("record_every_steps"), "{err}");
    }

    #[test]
    fn expired_cell_deadline_bounds_overshoot_to_zero_driver_advances() {
        // A zero budget expires before the first driver advance: the
        // deadline check in front of every session step must finish every
        // cell immediately with a truthful empty partial report — no
        // round-granular driver gets to run "one more round".
        let mut spec = small_spec();
        spec.seeds.truncate(1);
        let result = try_execute(
            &spec,
            &RunOptions {
                threads: 1,
                progress: None,
                cell_deadline: Some(Duration::ZERO),
            },
        )
        .unwrap();
        assert_eq!(result.cells.len(), 3);
        for cell in &result.cells {
            assert_eq!(
                cell.report.global_steps, 0,
                "{}: deadline expired before any step, but {} steps ran",
                cell.label, cell.report.global_steps
            );
            // The forced final sample still makes the report truthful.
            assert_eq!(cell.report.samples.len(), 1);
        }
    }

    #[test]
    fn max_sim_seconds_safety_net_stops_the_run() {
        let mut spec = small_spec();
        spec.arms.truncate(1);
        spec.seeds.truncate(1);
        // A simulated-time budget far below what the epoch target needs.
        spec.scenario.cfg_mut().max_wall_clock_s = 2.0;
        let result = run_on(&spec, 1);
        let report = &result.cells[0].report;
        assert!(
            report.wall_clock_s >= 2.0,
            "run must reach the budget before stopping, got {}",
            report.wall_clock_s
        );
        assert!(
            report.epochs_completed < spec.scenario.cfg().max_epochs,
            "the time budget, not the epoch target, must have stopped the run"
        );
        // And the safety net composes with explicit stop conditions too.
        spec.scenario.cfg_mut().stop =
            Some(netmax_core::engine::StopCondition::LossBelow(-1.0));
        let report = &run_on(&spec, 1).cells[0].report;
        assert!(report.wall_clock_s >= 2.0, "unreachable loss target must hit the net");
    }

    fn accuracy_fixture(points: &[(f64, Option<f64>)]) -> RunReport {
        RunReport {
            algorithm: "x".into(),
            workload: "w".into(),
            num_nodes: 1,
            samples: points
                .iter()
                .map(|&(t, acc)| netmax_core::engine::Sample {
                    time_s: t,
                    global_step: (t * 10.0) as u64,
                    epoch: t,
                    train_loss: 1.0,
                    consensus_diameter: 0.0,
                    test_accuracy: acc,
                })
                .collect(),
            wall_clock_s: points.last().map(|&(t, _)| t).unwrap_or(0.0),
            epochs_completed: 1.0,
            global_steps: 10,
            final_train_loss: 1.0,
            final_test_accuracy: 0.0,
            per_node: vec![],
        }
    }

    #[test]
    fn time_to_accuracy_never_reached_is_none() {
        let r = accuracy_fixture(&[(1.0, Some(0.2)), (2.0, None), (3.0, Some(0.5))]);
        assert_eq!(time_to_accuracy(&r, 0.9), None);
        // Samples without accuracy evaluation never satisfy the target.
        assert_eq!(time_to_accuracy(&r, 0.4), Some(3.0));
    }

    #[test]
    fn time_to_accuracy_met_at_step_zero() {
        // Target already met by the very first evaluated sample.
        let r = accuracy_fixture(&[(0.0, Some(0.95)), (1.0, Some(0.96))]);
        assert_eq!(time_to_accuracy(&r, 0.9), Some(0.0));
        // An exactly-met target counts (>=, not >).
        assert_eq!(time_to_accuracy(&r, 0.95), Some(0.0));
        // Empty sample list: trivially never reached.
        let empty = accuracy_fixture(&[]);
        assert_eq!(time_to_accuracy(&empty, 0.0), None);
    }
}
