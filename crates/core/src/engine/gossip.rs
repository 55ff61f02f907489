//! The asynchronous gossip driver.
//!
//! NetMax, AD-PSGD, and SAPS-PSGD share the same execution
//! skeleton (§III-B): every worker loops { pick a peer, pull its model
//! while computing local gradients, apply the two-step update }, entirely
//! asynchronously. [`GossipDriver`] implements that skeleton once over the
//! virtual clock as a step-wise [`SessionDriver`]; the algorithms differ
//! only in *how peers are selected* and *how pulled parameters are
//! merged* — the two required methods of [`GossipBehavior`] — and in
//! whether a Network Monitor ([`Steering`]) steers the selection, which
//! the driver then runs for them.
//!
//! Staleness is modelled faithfully: the parameters a worker merges are
//! whatever its peer holds at the *completion* time of the pull, exactly
//! like the freshest-parameter semantics of Algorithm 2 line 10/12.
//!
//! Scheduling of a worker's *next* iteration is deferred to the driver
//! advance that follows its completion event. That keeps the RNG draw for
//! peer selection on the far side of the session's stop check — exactly
//! where the classic blocking loop made it — so step-wise execution and
//! checkpoint/resume consume byte-identical random streams.

use super::environment::Environment;
use super::session::{DriverEvent, SessionDriver, SessionError};
use crate::monitor::Steering;
use netmax_json::{FromJson, Json, JsonError, ToJson};
use netmax_net::EventQueue;
use std::collections::BTreeSet;

/// A worker's choice at the start of an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerChoice {
    /// Pull from neighbour `m` this iteration.
    Peer(usize),
    /// Self-selection (`p_{i,i}`): a gradient-only iteration with no
    /// communication.
    SelfStep,
}

/// Algorithm-specific hooks plugged into the gossip driver.
pub trait GossipBehavior {
    /// Chooses the peer node `i` communicates with this iteration
    /// (Algorithm 2 line 9) while the arm has no monitor policy; once its
    /// [`Steering`] holds one, the driver samples from that instead.
    fn select_peer(&mut self, env: &mut Environment, i: usize) -> PeerChoice;

    /// Merges the pulled parameters into node `i`'s replica
    /// (Algorithm 2 lines 13–15 for NetMax; plain averaging for AD-PSGD).
    fn merge(&mut self, env: &mut Environment, i: usize, m: usize, pulled: &[f32]);

    /// Called once before the first iteration is scheduled, and again on
    /// restore; the place for warm-up work (SAPS-PSGD's link probe). Must
    /// not draw from the environment's RNG streams, and what it builds
    /// must be a function of the scenario alone: nothing of it is
    /// checkpointed.
    fn on_start(&mut self, _env: &mut Environment) {}

    /// Checks the behaviour's own settings; the driver's
    /// [`SessionDriver::validate`] runs it, so a bad setting fails
    /// [`Session::new`](super::Session::new) before any work is done.
    fn validate(&self) -> Result<(), SessionError> {
        Ok(())
    }

    /// The arm's Network Monitor, if it has one. The driver feeds it every
    /// realised iteration time, runs a round every `Ts` simulated seconds,
    /// samples peers from its policy once one exists, and checkpoints it.
    fn steering(&self) -> Option<&Steering> {
        None
    }

    /// Mutable access to [`GossipBehavior::steering`].
    fn steering_mut(&mut self) -> Option<&mut Steering> {
        None
    }
}

impl<B: GossipBehavior + ?Sized> GossipBehavior for &mut B {
    fn select_peer(&mut self, env: &mut Environment, i: usize) -> PeerChoice {
        (**self).select_peer(env, i)
    }
    fn merge(&mut self, env: &mut Environment, i: usize, m: usize, pulled: &[f32]) {
        (**self).merge(env, i, m, pulled)
    }
    fn on_start(&mut self, env: &mut Environment) {
        (**self).on_start(env)
    }
    fn validate(&self) -> Result<(), SessionError> {
        (**self).validate()
    }
    fn steering(&self) -> Option<&Steering> {
        (**self).steering()
    }
    fn steering_mut(&mut self) -> Option<&mut Steering> {
        (**self).steering_mut()
    }
}

/// One scheduled completion in the gossip event queue.
#[derive(Debug, Clone)]
enum Ev {
    NodeDone { node: usize, peer: Option<usize>, compute_s: f64, iteration_s: f64 },
    Monitor,
}

impl ToJson for Ev {
    fn to_json(&self) -> Json {
        match self {
            Ev::Monitor => Json::Str("monitor".into()),
            Ev::NodeDone { node, peer, compute_s, iteration_s } => Json::obj([
                ("node", node.to_json()),
                ("peer", peer.to_json()),
                ("compute_s", compute_s.to_json()),
                ("iteration_s", iteration_s.to_json()),
            ]),
        }
    }
}

impl FromJson for Ev {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s == "monitor" => Ok(Ev::Monitor),
            Json::Obj(_) => Ok(Ev::NodeDone {
                node: usize::from_json(v.field("node")?)?,
                peer: Option::from_json(v.field("peer")?)?,
                compute_s: f64::from_json(v.field("compute_s")?)?,
                iteration_s: f64::from_json(v.field("iteration_s")?)?,
            }),
            other => Err(JsonError::schema(format!("expected event, got {}", other.kind()))),
        }
    }
}

/// Serializes an event queue (entries with explicit FIFO sequence
/// numbers, plus the next sequence counter) for a driver checkpoint.
pub fn queue_to_json<E: ToJson>(queue: &EventQueue<E>) -> Json {
    Json::obj([
        (
            "entries",
            Json::Arr(
                queue
                    .entries()
                    .into_iter()
                    .map(|(time, seq, ev)| {
                        Json::obj([
                            ("time", time.to_json()),
                            ("seq", seq.to_json()),
                            ("event", ev.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("next_seq", queue.next_seq().to_json()),
    ])
}

/// Checks a checkpointed worker index against the environment's node
/// count, so corrupt documents surface as typed errors rather than
/// out-of-bounds panics mid-run.
pub fn check_node_index(node: usize, num_nodes: usize) -> Result<(), JsonError> {
    if node >= num_nodes {
        return Err(JsonError::schema(format!(
            "checkpoint references node {node}, environment has {num_nodes}"
        )));
    }
    Ok(())
}

/// Rebuilds an event queue without the entries `keep` rejects, preserving
/// every surviving entry's time and FIFO sequence number (and the next
/// sequence counter) so determinism is unaffected. Drivers use this to
/// remove a crashed node's in-flight events *at crash time* — a lazy
/// active-flag check at pop time would mistake a stale pre-crash event
/// for a live one when the node rejoins before it pops.
pub fn purge_events<E: Clone>(
    queue: &EventQueue<E>,
    keep: impl Fn(&E) -> bool,
) -> EventQueue<E> {
    let mut out = EventQueue::new();
    for (time, seq, ev) in queue.entries() {
        if keep(ev) {
            out.restore_entry(time, seq, ev.clone());
        }
    }
    out.set_next_seq(queue.next_seq());
    out
}

/// Inverse of [`queue_to_json`].
pub fn queue_from_json<E: FromJson>(v: &Json) -> Result<EventQueue<E>, JsonError> {
    let next_seq = u64::from_json(v.field("next_seq")?)?;
    let mut seqs = BTreeSet::new();
    let mut queue = EventQueue::new();
    for entry in v.field("entries")?.as_arr()? {
        let time = f64::from_json(entry.field("time")?)?;
        // Reject what `EventQueue::restore_entry` would assert on, so a
        // corrupt checkpoint surfaces as a typed error, not a panic.
        if !(time.is_finite() && time >= 0.0) {
            return Err(JsonError::schema(format!(
                "event time must be finite and non-negative, got {time}"
            )));
        }
        // FIFO tie-breaking needs unique sequence numbers, all below the
        // one the next push takes.
        let seq = u64::from_json(entry.field("seq")?)?;
        if seq >= next_seq {
            return Err(JsonError::schema(format!(
                "event seq {seq} is not below next_seq {next_seq}"
            )));
        }
        if !seqs.insert(seq) {
            return Err(JsonError::schema(format!("event seq {seq} appears twice")));
        }
        queue.restore_entry(time, seq, E::from_json(entry.field("event")?)?);
    }
    queue.set_next_seq(next_seq);
    Ok(queue)
}

/// The sessionized asynchronous gossip skeleton: dispatches workers in
/// completion-time order (one dispatch = one global step `k`), with
/// iteration times following the configured
/// [`ExecutionMode`](super::config::ExecutionMode).
pub struct GossipDriver<B: GossipBehavior> {
    behavior: B,
    name: String,
    queue: EventQueue<Ev>,
    /// Nominal per-node compute times (fixed batch size ⇒ fixed `C_i`);
    /// derived from the environment at start/restore.
    compute: Vec<f64>,
    /// The node whose next iteration must be scheduled before the next
    /// event pops — deferred so the peer-selection RNG draw happens after
    /// the session's stop check, like the classic loop.
    pending_next: Option<(usize, f64)>,
    started: bool,
}

impl<B: GossipBehavior> GossipDriver<B> {
    /// Wraps `behavior` as a session driver reporting under `name`.
    pub fn new(behavior: B, name: impl Into<String>) -> Self {
        Self {
            behavior,
            name: name.into(),
            queue: EventQueue::new(),
            compute: Vec::new(),
            pending_next: None,
            started: false,
        }
    }

    /// Starts node `i`'s next iteration: selects a peer at the node's
    /// current clock and schedules the completion event.
    fn schedule_next(&mut self, env: &mut Environment, i: usize, compute_s: f64) {
        let start = env.nodes[i].clock;
        let choice = match self.behavior.steering().and_then(Steering::policy) {
            Some(policy) => policy.sample_peer(env, i),
            None => self.behavior.select_peer(env, i),
        };
        let (peer, comm_s) = match choice {
            PeerChoice::Peer(m) => {
                debug_assert!(
                    env.topology.is_edge(i, m),
                    "behavior selected non-neighbour {m} for node {i}"
                );
                (Some(m), env.comm_time(i, m, start))
            }
            PeerChoice::SelfStep => (None, 0.0),
        };
        let iteration_s = env.cfg.execution.iteration_time(compute_s, comm_s);
        self.queue.push(
            start + iteration_s,
            Ev::NodeDone { node: i, peer, compute_s, iteration_s },
        );
    }

    /// Derives what a start builds from the environment alone: the
    /// behavior's warm-up, a fresh monitor and the nominal compute times.
    fn prepare(&mut self, env: &mut Environment) {
        self.behavior.on_start(env);
        if let Some(steering) = self.behavior.steering_mut() {
            steering.start(env.num_nodes());
        }
        self.compute = env.nominal_compute_times();
    }

    fn start(&mut self, env: &mut Environment) {
        self.started = true;
        self.prepare(env);
        for i in 0..env.num_nodes() {
            if !env.is_active(i) {
                continue;
            }
            let c = self.compute[i];
            self.schedule_next(env, i, c);
        }
        if let Some(steering) = self.behavior.steering() {
            self.queue.push(steering.period_s(), Ev::Monitor);
        }
    }
}

impl<B: GossipBehavior> SessionDriver for GossipDriver<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn validate(&self, env: &Environment) -> Result<(), SessionError> {
        self.behavior.validate()?;
        let Some(steering) = self.behavior.steering() else {
            return Ok(());
        };
        steering.validate()?;
        // Every monitor round hands the learning rate in effect to the
        // policy LP as its α, so each rate the schedule reaches
        // (`SgdConfig::lr_at`: one per number of milestones passed)
        // must be positive.
        let optim = &env.workload.optim;
        for passed in 0..=optim.lr_milestones.len() {
            let lr = optim.lr * optim.lr_decay.powi(passed as i32);
            if !(lr.is_finite() && lr > 0.0) {
                return Err(SessionError::InvalidConfig(format!(
                    "a monitored arm needs a positive learning rate; after {passed} \
                     milestone(s) the schedule reaches {lr}"
                )));
            }
        }
        Ok(())
    }

    fn advance(&mut self, env: &mut Environment) -> DriverEvent {
        if !self.started {
            self.start(env);
        }
        if let Some((node, compute_s)) = self.pending_next.take() {
            if env.is_active(node) {
                self.schedule_next(env, node, compute_s);
            }
        }
        loop {
            return match self.queue.pop() {
                None => DriverEvent::Exhausted,
                // With the whole fleet down no worker events can advance
                // the clock; re-arming the monitor would tick forever
                // against a frozen simulation. Let the queue drain.
                Some((_, Ev::Monitor)) if env.num_active() == 0 => continue,
                Some((now, Ev::Monitor)) => {
                    if let Some(steering) = self.behavior.steering_mut() {
                        let alpha = env.workload.optim.lr_at(env.mean_epoch());
                        steering.round(&env.topology, alpha, env.active_flags());
                        self.queue.push(now + steering.period_s(), Ev::Monitor);
                    }
                    DriverEvent::Monitor { time_s: now }
                }
                // Safety net only: `on_membership_change` eagerly purges
                // a crashed node's events (the load-bearing mechanism —
                // see `purge_events`), so a dead node's completion should
                // never reach this pop.
                Some((_, Ev::NodeDone { node, .. })) if !env.is_active(node) => continue,
                Some((_, Ev::NodeDone { node, peer, compute_s, iteration_s })) => {
                    // First update: local gradients (Algorithm 2 line 11).
                    let _ = env.gradient_step(node);
                    // Second update: merge the pulled model (lines 12–15).
                    // The pull buffer comes from the environment's pool so
                    // the steady-state step is allocation-free. A peer that
                    // crashed mid-pull delivers nothing — the time was
                    // already paid, the merge is skipped.
                    if let Some(m) = peer {
                        let mut pulled = env.take_param_buf();
                        if env.pull_params_into(m, &mut pulled).is_ok() {
                            self.behavior.merge(env, node, m, &pulled);
                        }
                        env.recycle_param_buf(pulled);
                    }
                    env.book_iteration(node, compute_s, iteration_s);
                    env.global_step += 1;
                    if let (Some(steering), Some(m)) = (self.behavior.steering_mut(), peer) {
                        steering.record(node, m, iteration_s);
                    }
                    self.pending_next = Some((node, compute_s));
                    DriverEvent::Step { node, peer, iteration_s }
                }
            };
        }
    }

    fn on_membership_change(&mut self, env: &mut Environment, node: usize, active: bool) {
        if !self.started {
            return;
        }
        if active {
            // Re-admit the rejoined node: its clock was advanced to the
            // rejoin time by the warm start, so its next iteration begins
            // there.
            let c = self.compute[node];
            self.schedule_next(env, node, c);
            // A full-fleet outage drains the monitor chain (its events
            // are dropped rather than re-armed against a frozen clock);
            // the first rejoin restarts it so the policy resumes
            // adapting.
            if let Some(ts) = self.behavior.steering().map(Steering::period_s) {
                let armed = self
                    .queue
                    .entries()
                    .iter()
                    .any(|(_, _, ev)| matches!(ev, Ev::Monitor));
                if !armed {
                    self.queue.push(env.nodes[node].clock + ts, Ev::Monitor);
                }
            }
        } else {
            if matches!(self.pending_next, Some((n, _)) if n == node) {
                // The crashed node completed the last event but its next
                // iteration was never scheduled — drop it.
                self.pending_next = None;
            }
            // Purge the node's in-flight completion *now*: a lazy
            // active-flag check at pop time would mistake a stale
            // pre-crash event for a live one if the node rejoins first,
            // leaving the rejoined worker with two iteration chains.
            self.queue = purge_events(&self.queue, |ev| {
                !matches!(ev, Ev::NodeDone { node: n, .. } if *n == node)
            });
        }
    }

    fn checkpoint_state(&self) -> Json {
        Json::obj([
            ("started", self.started.to_json()),
            ("queue", queue_to_json(&self.queue)),
            (
                "pending_next",
                match self.pending_next {
                    Some((node, compute_s)) => Json::obj([
                        ("node", node.to_json()),
                        ("compute_s", compute_s.to_json()),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "steering",
                match self.behavior.steering() {
                    Some(steering) if self.started => steering.checkpoint(),
                    _ => Json::Null,
                },
            ),
        ])
    }

    fn restore_state(&mut self, env: &mut Environment, state: &Json) -> Result<(), JsonError> {
        let n = env.num_nodes();
        self.started = bool::from_json(state.field("started")?)?;
        if self.started {
            // Rebuild derived state the same way a fresh start would; the
            // steering is then overwritten from the checkpoint.
            self.prepare(env);
        }
        self.queue = queue_from_json(state.field("queue")?)?;
        for (_, _, ev) in self.queue.entries() {
            if let Ev::NodeDone { node, peer, .. } = ev {
                check_node_index(*node, n)?;
                if let Some(m) = peer {
                    check_node_index(*m, n)?;
                }
            }
        }
        self.pending_next = match state.field("pending_next")? {
            Json::Null => None,
            p => {
                let node = usize::from_json(p.field("node")?)?;
                check_node_index(node, n)?;
                Some((node, f64::from_json(p.field("compute_s")?)?))
            }
        };
        // Only a started monitored arm has steering state to restore.
        let doc = state.field("steering")?;
        if let Some(steering) = self.behavior.steering_mut().filter(|_| self.started) {
            steering.restore(doc, n)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::config::TrainConfig;
    use crate::engine::recorder::RunReport;
    use crate::engine::session::{Session, StepEvent};
    use crate::engine::stop::StopCondition;
    use crate::monitor::MonitorConfig;
    use crate::policy::PolicySearchConfig;
    use netmax_json::ToJson;
    use netmax_ml::partition::Partition;
    use netmax_ml::workload::Workload;
    use netmax_net::{ElasticNetwork, LinkQuality, Topology};
    use rand::Rng;

    fn run_gossip<B: GossipBehavior>(
        behavior: &mut B,
        env: &mut Environment,
        name: &str,
    ) -> RunReport {
        let driver = GossipDriver::new(behavior, name);
        Session::new(env, Box::new(driver)).unwrap().run()
    }

    /// Minimal AD-PSGD-like behavior for driver tests: uniform neighbour,
    /// half-half averaging.
    struct UniformAveraging;

    impl GossipBehavior for UniformAveraging {
        fn select_peer(&mut self, env: &mut Environment, i: usize) -> PeerChoice {
            let degree = env.topology.neighbors(i).len();
            let k = env.node_rng(i).gen_range(0..degree);
            PeerChoice::Peer(env.topology.neighbors(i)[k])
        }

        fn merge(&mut self, env: &mut Environment, i: usize, _m: usize, pulled: &[f32]) {
            netmax_ml::params::blend(0.5, env.nodes[i].model.params_mut(), pulled);
        }
    }

    fn env(seed: u64) -> Environment {
        let w = Workload::convex_ridge(5);
        let part = Partition::uniform(&w.train, 4, 1);
        let cfg = TrainConfig { seed, ..TrainConfig::quick_test() };
        Environment::new(
            Topology::fully_connected(4),
            ElasticNetwork::uniform(4, LinkQuality::virtual_switch_10g()),
            w,
            part,
            cfg,
        )
    }

    #[test]
    fn driver_runs_to_epoch_target() {
        let mut e = env(11);
        let report = run_gossip(&mut UniformAveraging, &mut e, "uniform-avg");
        assert!(report.epochs_completed >= e.cfg.max_epochs);
        assert!(report.wall_clock_s > 0.0);
        assert!(report.global_steps > 0);
        assert!(!report.samples.is_empty());
    }

    #[test]
    fn training_loss_decreases() {
        let mut e = env(12);
        let report = run_gossip(&mut UniformAveraging, &mut e, "uniform-avg");
        let first = report.samples.first().unwrap().train_loss;
        let last = report.final_train_loss;
        assert!(
            last < first * 0.8,
            "gossip training failed to reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let r1 = run_gossip(&mut UniformAveraging, &mut env(13), "a");
        let r2 = run_gossip(&mut UniformAveraging, &mut env(13), "a");
        assert_eq!(r1.global_steps, r2.global_steps);
        assert_eq!(r1.wall_clock_s, r2.wall_clock_s);
        assert_eq!(r1.final_train_loss, r2.final_train_loss);
    }

    #[test]
    fn different_seeds_diverge() {
        // On a homogeneous network iteration *times* are seed-invariant by
        // construction; the optimisation trajectory is not.
        let r1 = run_gossip(&mut UniformAveraging, &mut env(1), "a");
        let r2 = run_gossip(&mut UniformAveraging, &mut env(2), "a");
        assert_ne!(r1.final_train_loss, r2.final_train_loss);
    }

    /// [`UniformAveraging`] steered by a Network Monitor with period
    /// `period_s`.
    struct Monitored(Steering);

    impl Monitored {
        fn every(period_s: f64) -> Self {
            Self(Steering::new(MonitorConfig { period_s, ..MonitorConfig::paper_default(0.05) }))
        }
    }

    impl GossipBehavior for Monitored {
        fn select_peer(&mut self, env: &mut Environment, i: usize) -> PeerChoice {
            UniformAveraging.select_peer(env, i)
        }
        fn merge(&mut self, env: &mut Environment, i: usize, m: usize, pulled: &[f32]) {
            UniformAveraging.merge(env, i, m, pulled);
        }
        fn steering(&self) -> Option<&Steering> {
            Some(&self.0)
        }
        fn steering_mut(&mut self) -> Option<&mut Steering> {
            Some(&mut self.0)
        }
    }

    #[test]
    fn monitor_hook_fires_on_schedule() {
        let mut b = Monitored::every(0.5);
        let mut e = env(14);
        let mut session =
            Session::new(&mut e, Box::new(GossipDriver::new(&mut b, "monitored"))).unwrap();
        let mut fires = Vec::new();
        let report = loop {
            match session.step() {
                StepEvent::MonitorRound { time_s } => fires.push(time_s),
                StepEvent::Finished { report } => break report,
                _ => {}
            }
        };
        drop(session);
        assert!(!fires.is_empty(), "monitor never fired");
        // Every firing ran one round of the steering.
        let rounds = b.0.checkpoint().field("monitor").and_then(|m| m.field("rounds")?.as_u64());
        assert_eq!(rounds.unwrap(), fires.len() as u64);
        // Fires at 0.5, 1.0, 1.5, ... while the run lasted.
        for (k, t) in fires.iter().enumerate() {
            assert!((t - 0.5 * (k + 1) as f64).abs() < 1e-9);
        }
        assert!(*fires.last().unwrap() <= report.wall_clock_s + 0.5);
    }

    #[test]
    fn consensus_tightens_over_run() {
        let mut e = env(15);
        let report = run_gossip(&mut UniformAveraging, &mut e, "uniform-avg");
        let first = report.samples.first().unwrap().consensus_diameter;
        let last = report.samples.last().unwrap().consensus_diameter;
        assert!(
            last < first,
            "replica disagreement should shrink: {first} -> {last}"
        );
    }

    #[test]
    fn bad_monitor_period_is_a_typed_construction_error() {
        let mut e = env(16);
        let mut b = Monitored::every(0.0);
        let err = Session::new(&mut e, Box::new(GossipDriver::new(&mut b, "bad")))
            .err()
            .expect("zero monitor period must fail construction");
        assert!(matches!(err, SessionError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("monitor period"), "{err}");
    }

    #[test]
    fn bad_monitor_search_is_a_typed_construction_error() {
        let bad = [(0, 10, 0.01, "K = 0"), (10, 0, 0.01, "R = 0")]
            .into_iter()
            .chain([0.0, 1.0, f64::NAN].map(|epsilon| (10, 10, epsilon, "ε")));
        for (outer_k, inner_r, epsilon, needle) in bad {
            let mut cfg = MonitorConfig::paper_default(0.05);
            cfg.search = PolicySearchConfig {
                outer_k,
                inner_r,
                epsilon,
                ..cfg.search
            };
            let mut b = Monitored(Steering::new(cfg));
            let mut e = env(16);
            let err = Session::new(&mut e, Box::new(GossipDriver::new(&mut b, "bad")))
                .err()
                .expect("an invalid search must fail construction");
            assert!(matches!(err, SessionError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn vanishing_learning_rate_is_a_typed_construction_error_for_monitored_arms() {
        let zero_after_milestone = || {
            let mut e = env(16);
            e.workload.optim.lr_milestones = vec![1.0];
            e.workload.optim.lr_decay = 0.0;
            e
        };
        // Plain gossip averaging (AD-PSGD's shape) never hands the rate
        // to a policy LP; a monitored arm (NetMax's shape) does.
        let mut e = zero_after_milestone();
        let mut plain = UniformAveraging;
        assert!(Session::new(&mut e, Box::new(GossipDriver::new(&mut plain, "plain"))).is_ok());
        let mut e = zero_after_milestone();
        let mut b = Monitored::every(0.5);
        let err = Session::new(&mut e, Box::new(GossipDriver::new(&mut b, "bad")))
            .err()
            .expect("a rate that reaches 0 must fail construction of a monitored arm");
        assert!(matches!(err, SessionError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("learning rate"), "{err}");
    }

    #[test]
    fn stepwise_session_matches_blocking_run() {
        let blocking = run_gossip(&mut UniformAveraging, &mut env(17), "uniform-avg");

        let mut e = env(17);
        let mut b = UniformAveraging;
        let mut session =
            Session::new(&mut e, Box::new(GossipDriver::new(&mut b, "uniform-avg"))).unwrap();
        let mut steps = 0u64;
        let mut samples = 0usize;
        let stepped = loop {
            match session.step() {
                StepEvent::GlobalStep { .. } => steps += 1,
                StepEvent::Sampled { .. } => samples += 1,
                StepEvent::Finished { report } => break report,
                _ => {}
            }
        };
        assert_eq!(steps, stepped.global_steps);
        // The finishing sample is not delivered as a `Sampled` event.
        assert_eq!(samples + 1, stepped.samples.len());
        assert_eq!(
            blocking.to_json().to_string(),
            stepped.to_json().to_string(),
            "step-wise execution must be byte-identical to the blocking loop"
        );
    }

    #[test]
    fn max_global_steps_stops_exactly() {
        let mut e = env(18);
        e.cfg.stop = Some(StopCondition::MaxGlobalSteps(37));
        let mut b = UniformAveraging;
        let mut session =
            Session::new(&mut e, Box::new(GossipDriver::new(&mut b, "uniform-avg"))).unwrap();
        let report = session.run();
        assert_eq!(report.global_steps, 37);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_mid_run() {
        let full = run_gossip(&mut UniformAveraging, &mut env(19), "uniform-avg");

        // Run 25 global steps, checkpoint, resume in a fresh session.
        let mut e = env(19);
        let mut b = UniformAveraging;
        let mut session =
            Session::new(&mut e, Box::new(GossipDriver::new(&mut b, "uniform-avg"))).unwrap();
        let mut steps = 0;
        while steps < 25 {
            if let StepEvent::GlobalStep { .. } = session.step() {
                steps += 1;
            }
        }
        let mut bytes = Vec::new();
        session
            .checkpoint_binary(&mut crate::engine::CheckpointScratch::new(), &mut bytes)
            .unwrap();
        drop(session);

        let mut e2 = env(19);
        let mut b2 = UniformAveraging;
        let mut resumed = Session::restore_bytes(
            &mut e2,
            Box::new(GossipDriver::new(&mut b2, "uniform-avg")),
            &bytes,
        )
        .unwrap();
        let report = resumed.run();
        assert_eq!(
            report.to_json().to_string(),
            full.to_json().to_string(),
            "checkpoint-at-k + resume must equal the uninterrupted run"
        );
    }
}
