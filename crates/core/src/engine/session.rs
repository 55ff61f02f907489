//! The step-wise training session: a resumable state machine around the
//! engine.
//!
//! [`Algorithm::run`](super::Algorithm::run) is a convenience blocking
//! call; the real execution surface is [`Session`]. A session owns a
//! borrowed [`Environment`], a boxed [`SessionDriver`] (the
//! algorithm-specific event source), the metric [`Recorder`], and a
//! [`StopCondition`]. [`Session::step`] advances exactly one event and
//! reports it as a [`StepEvent`], so callers can
//!
//! * **observe** a run in flight by matching on the events,
//! * **stop** it on any serializable [`StopCondition`] — or imperatively
//!   via [`Session::finish_now`] (how a caller enforces a real-time
//!   budget: the engine itself never reads a clock),
//! * **checkpoint** the full mid-run state to NMXB bytes and **resume** it later
//!   with the guarantee that *checkpoint-at-step-k then resume* produces a
//!   [`RunReport`] byte-identical to an uninterrupted run.
//!
//! Determinism is the load-bearing property: a checkpoint captures the
//! virtual clocks, the pending event queue (with its FIFO tie-break
//! sequence numbers), every parameter replica and optimiser buffer, every
//! per-node RNG stream, the recorder, and the driver/behavior state.
//! Everything *not* in the checkpoint (topology, datasets, network timing)
//! is pure data reconstructed from the
//! [`Scenario`](super::scenario::Scenario).

use super::checkpoint::{self, CheckpointFormat, CheckpointScratch};
use super::environment::Environment;
use super::recorder::{Recorder, RunReport, Sample};
use super::stop::StopCondition;
use netmax_json::{CodecError, FromJson, Json, JsonError, ToJson};
use netmax_ml::NumericsTier;
use netmax_net::MembershipEvent;
use std::fmt;

/// Schema tag carried in the `meta` section of every NMXB
/// `session-checkpoint/v3` container (and in the document
/// [`decode_session_v3`](super::decode_session_v3) rebuilds from one);
/// [`Session::restore_bytes`] rejects any other; bump on breaking changes.
pub const SESSION_CHECKPOINT_SCHEMA: &str = "netmax-core/session-checkpoint/v2";

/// Typed errors surfaced at session construction or restore — before any
/// training work is done.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// A configuration value is invalid; the message names the field.
    InvalidConfig(String),
    /// A checkpoint document is malformed or inconsistent with the
    /// session being restored.
    BadCheckpoint(String),
    /// A peer access named a node that is out of range or currently down
    /// (crashed per the scenario's fault plan). `fleet` is `Some(size)`
    /// when the index was out of range, `None` when the node exists but
    /// is down. Structured (not a `String`) so the pull path that
    /// constructs it never allocates; the message is rendered lazily by
    /// `Display`.
    NodeUnavailable {
        /// The node index the peer access named.
        node: usize,
        /// `Some(fleet_size)` when `node` was out of range; `None` when
        /// the node exists but is down.
        fleet: Option<usize>,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SessionError::BadCheckpoint(msg) => write!(f, "bad checkpoint: {msg}"),
            SessionError::NodeUnavailable { node, fleet: Some(n) } => {
                write!(f, "node unavailable: node {node} is out of range (fleet has {n})")
            }
            SessionError::NodeUnavailable { node, fleet: None } => {
                write!(f, "node unavailable: node {node} is down")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<JsonError> for SessionError {
    fn from(e: JsonError) -> Self {
        SessionError::BadCheckpoint(e.to_string())
    }
}

impl From<CodecError> for SessionError {
    fn from(e: CodecError) -> Self {
        SessionError::BadCheckpoint(format!("binary codec: {e}"))
    }
}

/// What one [`Session::step`] call did.
#[derive(Debug, Clone)]
pub enum StepEvent {
    /// One asynchronous worker completed one iteration (one global step
    /// `k` of the paper's §IV model).
    GlobalStep {
        /// The worker that completed.
        node: usize,
        /// The peer it pulled from (`None` for a self/communication-free
        /// step, or for exchanges with a central server).
        peer: Option<usize>,
        /// The realised iteration time in simulated seconds.
        iteration_s: f64,
    },
    /// A Network-Monitor collection round fired (Algorithm 1).
    MonitorRound {
        /// Simulated time of the firing.
        time_s: f64,
    },
    /// A round-structured algorithm (Allreduce, Prague, PS-sync) completed
    /// one synchronous round, advancing several global steps at once.
    RoundComplete {
        /// Global steps the round contributed.
        steps: u64,
        /// Simulated wall-clock after the round.
        time_s: f64,
    },
    /// A metric sample was recorded (at the cadence of
    /// [`TrainConfig`](super::config::TrainConfig)).
    Sampled {
        /// The freshly recorded sample.
        sample: Sample,
    },
    /// A node crashed per the scenario's fault plan; it no longer
    /// schedules iterations and the policy layer routes around it.
    NodeDown {
        /// The crashed worker.
        node: usize,
        /// Scheduled crash time (virtual seconds).
        time_s: f64,
    },
    /// A crashed node rejoined, warm-started from a live peer's replica.
    NodeUp {
        /// The rejoining worker.
        node: usize,
        /// Scheduled rejoin time (virtual seconds).
        time_s: f64,
        /// The live peer whose replica seeded the rejoin (`None` when no
        /// other node was alive and the node restarted from its own
        /// stale replica).
        donor: Option<usize>,
    },
    /// The session finished; the report is final. Subsequent `step` calls
    /// keep returning this event.
    Finished {
        /// The complete run report.
        report: RunReport,
    },
}

/// What one driver advance produced (the driver-side analogue of
/// [`StepEvent`]; the session layers sampling, stop conditions, and
/// finishing on top).
#[derive(Debug, Clone)]
pub enum DriverEvent {
    /// One worker completed one iteration.
    Step {
        /// The worker that completed.
        node: usize,
        /// The peer it pulled from, if any.
        peer: Option<usize>,
        /// The realised iteration time in simulated seconds.
        iteration_s: f64,
    },
    /// A Network-Monitor round fired.
    Monitor {
        /// Simulated time of the firing.
        time_s: f64,
    },
    /// One synchronous round completed.
    Round {
        /// Global steps the round contributed.
        steps: u64,
        /// Simulated wall-clock after the round.
        time_s: f64,
    },
    /// The driver has no further events (never the case for the training
    /// drivers in this workspace, which schedule forever; the session
    /// normally ends via its [`StopCondition`]).
    Exhausted,
}

/// An algorithm's event source: the pluggable half of a [`Session`].
///
/// A driver owns the algorithm-specific scheduling state (event queues,
/// round structure, behavior state) and advances the [`Environment`] one
/// event at a time. Drivers must be *suspendable*: `advance` may never be
/// called again after any event, and [`SessionDriver::checkpoint_state`] /
/// [`SessionDriver::restore_state`] must round-trip all internal state so
/// a restored driver continues byte-identically.
pub trait SessionDriver {
    /// Algorithm identifier used in reports ("netmax", "ad-psgd", …).
    fn name(&self) -> &str;

    /// Validates configuration against the environment; called once at
    /// [`Session::new`] so a bad spec fails before any work is done.
    fn validate(&self, env: &Environment) -> Result<(), SessionError> {
        let _ = env;
        Ok(())
    }

    /// Advances the simulation by exactly one event. The first call must
    /// lazily perform any start-up work (initial scheduling, warm-up
    /// probes).
    fn advance(&mut self, env: &mut Environment) -> DriverEvent;

    /// Serializes the driver's internal state (event queue, pending
    /// scheduling decisions, behavior state). `Json::Null` when stateless.
    fn checkpoint_state(&self) -> Json {
        Json::Null
    }

    /// Restores internal state captured by
    /// [`SessionDriver::checkpoint_state`], rebuilding any derived state
    /// from `env`. After this call the driver must behave as if it had
    /// advanced to the checkpointed event itself.
    fn restore_state(&mut self, env: &mut Environment, state: &Json) -> Result<(), JsonError> {
        let _ = (env, state);
        Ok(())
    }

    /// Called by the session after it applied a membership transition
    /// (the environment's active flags are already updated, and a
    /// rejoining node is already warm-started). Event-driven drivers use
    /// this to re-admit a rejoined node into their schedule; crashed
    /// nodes' stale events are expected to be dropped lazily. Default:
    /// no-op (round drivers re-derive membership every round).
    fn on_membership_change(&mut self, env: &mut Environment, node: usize, active: bool) {
        let _ = (env, node, active);
    }
}

/// A resumable, observable, step-wise training run. See the module docs.
pub struct Session<'a> {
    env: &'a mut Environment,
    driver: Box<dyn SessionDriver + 'a>,
    recorder: Recorder,
    stop: StopCondition,
    algorithm: String,
    /// A sample is due before the next driver advance (set when the
    /// recording cadence hits after a step; delivered as the next event).
    sample_due: bool,
    /// Most recent recorded sample — the input to metric stop conditions.
    latest: Option<Sample>,
    /// The fault plan's crash/rejoin schedule, sorted by virtual time
    /// (pure data, derived from the environment at construction).
    membership: Vec<MembershipEvent>,
    /// Index of the next unapplied membership event.
    membership_next: usize,
    finished: Option<RunReport>,
}

impl<'a> Session<'a> {
    /// Creates a session over `env` driven by `driver`, stopping per the
    /// environment's
    /// [`TrainConfig::effective_stop`](super::config::TrainConfig::effective_stop).
    /// Fails with a typed [`SessionError`] — before any training work —
    /// if the config or driver parameters are invalid.
    pub fn new(
        env: &'a mut Environment,
        driver: Box<dyn SessionDriver + 'a>,
    ) -> Result<Self, SessionError> {
        env.cfg.validate()?;
        let stop = env.cfg.effective_stop();
        stop.validate()?;
        driver.validate(env)?;
        let algorithm = driver.name().to_string();
        let membership = env.fault_plan().membership_events();
        Ok(Self {
            env,
            driver,
            recorder: Recorder::new(),
            stop,
            algorithm,
            sample_due: false,
            latest: None,
            membership,
            membership_next: 0,
            finished: None,
        })
    }

    /// The algorithm identifier the final report will carry.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Read access to the simulation state.
    pub fn env(&self) -> &Environment {
        self.env
    }

    /// The metric recorder — for what it observed beyond the report, such
    /// as [`Recorder::pairs_total`].
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// `true` once the session has produced its final report.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// The final report, once finished.
    pub fn report(&self) -> Option<&RunReport> {
        self.finished.as_ref()
    }

    /// Advances the session by exactly one event.
    ///
    /// Event order mirrors the classic blocking loop exactly: after a
    /// `GlobalStep`/`RoundComplete` that hits the recording cadence the
    /// next call returns `Sampled` (the environment does not change in
    /// between); the stop condition is evaluated before each driver
    /// advance; and finishing forces one last fully evaluated sample into
    /// the report.
    pub fn step(&mut self) -> StepEvent {
        if let Some(report) = &self.finished {
            return StepEvent::Finished { report: report.clone() };
        }
        if self.sample_due {
            self.sample_due = false;
            let sample = self.recorder.record_now(self.env);
            self.latest = Some(sample);
            return StepEvent::Sampled { sample };
        }
        // Membership transitions fire once the virtual clock has reached
        // their scheduled time — one transition per step, before the next
        // driver advance, so drivers always observe a consistent
        // active-set.
        if self
            .membership
            .get(self.membership_next)
            .is_some_and(|ev| ev.time_s <= self.env.wall_clock())
        {
            return self.apply_membership();
        }
        if self.stop.satisfied(self.env, self.latest.as_ref()) {
            return self.finish_event();
        }
        match self.driver.advance(self.env) {
            DriverEvent::Step { node, peer, iteration_s } => {
                self.sample_due = self.recorder.due(self.env);
                StepEvent::GlobalStep { node, peer, iteration_s }
            }
            DriverEvent::Round { steps, time_s } => {
                self.sample_due = self.recorder.due(self.env);
                StepEvent::RoundComplete { steps, time_s }
            }
            DriverEvent::Monitor { time_s } => StepEvent::MonitorRound { time_s },
            // An exhausted driver with membership transitions still
            // pending is a fleet-wide outage, not the end of training:
            // the simulation idles until the next scheduled event (a
            // rejoin advances the clock past the gap and the driver
            // re-admits the node). Only a drained schedule finishes.
            DriverEvent::Exhausted if self.membership_next < self.membership.len() => {
                self.apply_membership()
            }
            DriverEvent::Exhausted => self.finish_event(),
        }
    }

    /// Runs the session to completion and returns the report.
    pub fn run(&mut self) -> RunReport {
        loop {
            if let StepEvent::Finished { report } = self.step() {
                return report;
            }
        }
    }

    /// Finishes immediately (e.g. on the caller's real wall-clock
    /// deadline), forcing the final sample and report exactly as a
    /// condition-driven stop would.
    pub fn finish_now(&mut self) -> RunReport {
        self.finish_report()
    }

    /// Applies the next pending membership transition: flips the active
    /// flag, warm-starts a rejoining node from a live peer, and notifies
    /// the driver.
    fn apply_membership(&mut self) -> StepEvent {
        let ev = self.membership[self.membership_next];
        self.membership_next += 1;
        self.env.set_active(ev.node, ev.up);
        let donor = if ev.up { self.env.warm_start(ev.node, ev.time_s) } else { None };
        self.driver.on_membership_change(self.env, ev.node, ev.up);
        if ev.up {
            StepEvent::NodeUp { node: ev.node, time_s: ev.time_s, donor }
        } else {
            StepEvent::NodeDown { node: ev.node, time_s: ev.time_s }
        }
    }

    fn finish_event(&mut self) -> StepEvent {
        StepEvent::Finished { report: self.finish_report() }
    }

    /// Forces the final sample and report. Idempotent: the first call's
    /// report is cached and later calls return it unchanged.
    fn finish_report(&mut self) -> RunReport {
        if let Some(report) = &self.finished {
            return report.clone();
        }
        let report = self.recorder.finish(self.env, &self.algorithm);
        self.finished = Some(report.clone());
        report
    }

    /// The checkpoint's `meta` section: the complete mid-run state except
    /// the per-node objects, which the encoder streams from the
    /// environment into the `nodes` section. The single home of the
    /// document's field order.
    ///
    /// The checkpoint holds only *mutable* state — everything derivable
    /// from the scenario (datasets, topology, network timing, config) is
    /// reconstructed by building a fresh session and calling
    /// [`Session::restore_bytes`].
    fn checkpoint_meta(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(SESSION_CHECKPOINT_SCHEMA.into())),
            ("algorithm", self.algorithm.to_json()),
            ("tier", self.env.cfg.tier.to_json()),
            ("stop", self.stop.to_json()),
            ("env", self.env.checkpoint_meta()),
            ("recorder", self.recorder.checkpoint()),
            ("driver", self.driver.checkpoint_state()),
            ("sample_due", self.sample_due.to_json()),
            ("latest", self.latest.to_json()),
            ("active", self.env.active_flags().to_json()),
            ("membership_next", self.membership_next.to_json()),
            (
                "finished",
                match &self.finished {
                    Some(r) => r.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Encodes a full binary (`session-checkpoint/v3`) snapshot into
    /// `out` (cleared first). Node state streams straight from the
    /// environment through `scratch`'s reusable buffers — zero
    /// steady-state allocations on the per-node path — and the scratch's
    /// delta chain is (re)seeded at this snapshot.
    pub fn checkpoint_binary(
        &self,
        scratch: &mut CheckpointScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        let meta = self.checkpoint_meta();
        scratch.encode_full(&meta, self.env, out).map_err(SessionError::from)
    }

    /// Encodes an incremental (`session-delta/v1`) snapshot into `out`
    /// (cleared first): only nodes whose encoded bytes changed since the
    /// last snapshot taken through `scratch` are included. Requires a
    /// prior [`Session::checkpoint_binary`] on the same scratch to seed
    /// the chain; [`checkpoint::reconstruct_chain`] replays base + deltas
    /// into bytes bit-identical to a fresh full snapshot.
    pub fn checkpoint_delta(
        &self,
        scratch: &mut CheckpointScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        if !scratch.has_base(self.env.num_nodes()) {
            return Err(SessionError::BadCheckpoint(
                "delta checkpoint requires a prior full binary snapshot through the same \
                 scratch (same fleet size)"
                    .into(),
            ));
        }
        let meta = self.checkpoint_meta();
        scratch.encode_delta(&meta, self.env, out).map_err(SessionError::from)
    }

    /// [`Session::checkpoint_binary`] into a fresh buffer.
    pub fn checkpoint_bytes(
        &self,
        format: CheckpointFormat,
        scratch: &mut CheckpointScratch,
    ) -> Result<Vec<u8>, SessionError> {
        let CheckpointFormat::Binary = format;
        let mut out = Vec::new();
        self.checkpoint_binary(scratch, &mut out)?;
        Ok(out)
    }

    /// Restores a session from a `session-checkpoint/v3` NMXB container —
    /// the only serialized form and the only restore. Anything else
    /// (text, a delta, a foreign container) is a typed
    /// [`SessionError::BadCheckpoint`].
    ///
    /// `env` and `driver` must be *freshly constructed* from the same
    /// scenario and algorithm configuration that produced the checkpoint
    /// (the checkpoint's `algorithm` and `tier` tags are verified). The
    /// restored session continues byte-identically to the one that was
    /// checkpointed. Only the `meta` section is decoded as a document;
    /// the node blobs are decoded and applied one at a time, so the fleet
    /// never exists as a [`Json`] tree. The membership flags are derived
    /// from the fault plan's transitions the checkpoint says were
    /// applied; stored flags that disagree are rejected.
    pub fn restore_bytes(
        env: &'a mut Environment,
        driver: Box<dyn SessionDriver + 'a>,
        bytes: &[u8],
    ) -> Result<Self, SessionError> {
        let (meta, blobs) = checkpoint::split_session_v3(bytes)?;
        Session::restore_from(env, driver, &meta, &blobs)
    }

    /// The restore sequence behind [`Session::restore_bytes`]: the
    /// environment's node objects come from `blobs`, everything else is
    /// read from `checkpoint` (the container's `meta`).
    fn restore_from(
        env: &'a mut Environment,
        driver: Box<dyn SessionDriver + 'a>,
        checkpoint: &Json,
        blobs: &[&[u8]],
    ) -> Result<Self, SessionError> {
        let schema = checkpoint.field("schema")?.as_str()?;
        if schema != SESSION_CHECKPOINT_SCHEMA {
            return Err(SessionError::BadCheckpoint(format!(
                "unsupported checkpoint schema `{schema}` (expected `{SESSION_CHECKPOINT_SCHEMA}`)"
            )));
        }
        let algorithm = String::from_json(checkpoint.field("algorithm")?)?;
        if algorithm != driver.name() {
            return Err(SessionError::BadCheckpoint(format!(
                "checkpoint is for algorithm `{algorithm}`, driver is `{}`",
                driver.name()
            )));
        }
        // A resume must never silently cross numerics tiers: the restored
        // trajectory would be neither the strict nor the fast one.
        let ckpt_tier = NumericsTier::from_json(checkpoint.field("tier")?)?;
        if ckpt_tier != env.cfg.tier {
            return Err(SessionError::BadCheckpoint(format!(
                "checkpoint was recorded under the `{}` numerics tier, session is configured \
                 for `{}`",
                ckpt_tier.tier_name(),
                env.cfg.tier.tier_name()
            )));
        }
        let mut session = Session::new(env, driver)?;
        let stop = StopCondition::from_json(checkpoint.field("stop")?)?;
        stop.validate()?;
        session.stop = stop;
        session.env.restore_from(checkpoint.field("env")?, blobs)?;
        let next = usize::from_json(checkpoint.field("membership_next")?)?;
        let Some(applied) = session.membership.get(..next) else {
            return Err(SessionError::BadCheckpoint(format!(
                "checkpoint applied {next} membership events, plan has {}",
                session.membership.len()
            )));
        };
        // `apply_membership` is the flags' only writer, so they are the
        // applied transitions replayed onto an all-active fleet; the
        // stored copy is checked against that, never trusted.
        for ev in applied {
            session.env.set_active(ev.node, ev.up);
        }
        let stored: Vec<bool> = Vec::from_json(checkpoint.field("active")?)?;
        if stored.len() != session.env.num_nodes() {
            return Err(SessionError::BadCheckpoint(format!(
                "checkpoint has {} membership flags, environment has {} nodes",
                stored.len(),
                session.env.num_nodes()
            )));
        }
        let mut flags = stored.iter().zip(session.env.active_flags()).enumerate();
        if let Some((i, (&stored, &derived))) = flags.find(|(_, (s, d))| s != d) {
            let state = |up: bool| if up { "up" } else { "down" };
            return Err(SessionError::BadCheckpoint(format!(
                "checkpoint marks node {i} {}, but its {next} applied membership events leave \
                 it {}",
                state(stored),
                state(derived)
            )));
        }
        session.membership_next = next;
        session.recorder.restore(session.env, checkpoint.field("recorder")?)?;
        session
            .driver
            .restore_state(session.env, checkpoint.field("driver")?)?;
        session.sample_due = bool::from_json(checkpoint.field("sample_due")?)?;
        session.latest = Option::from_json(checkpoint.field("latest")?)?;
        session.finished = match checkpoint.field("finished")? {
            Json::Null => None,
            other => Some(RunReport::from_json(other)?),
        };
        Ok(session)
    }
}

/// Serializes an RNG stream's raw state.
pub(crate) fn rng_to_json(rng: &rand::rngs::StdRng) -> Json {
    rng.state().to_vec().to_json()
}

/// Inverse of [`rng_to_json`].
pub(crate) fn rng_from_json(v: &Json) -> Result<rand::rngs::StdRng, JsonError> {
    let words: Vec<u64> = Vec::from_json(v)?;
    let state: [u64; 4] = words
        .try_into()
        .map_err(|_| JsonError::schema("rng state must have 4 words".into()))?;
    // The all-zero state is outside xoshiro's period (and can never be
    // produced by a live generator); surface it as a schema error rather
    // than letting the shim's assert abort the process.
    if state.iter().all(|&w| w == 0) {
        return Err(JsonError::schema("rng state must not be all-zero".into()));
    }
    Ok(rand::rngs::StdRng::from_state(state))
}
