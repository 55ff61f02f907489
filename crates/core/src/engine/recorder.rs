//! Metric recording and the final run report.
//!
//! A [`Sample`] reads the whole live fleet — mean training loss over the
//! replicas, their consensus diameter, now and then the test accuracy of
//! their average — and a run takes about a hundred of them whatever the
//! fleet size, so at a thousand nodes the sample, not the step, is where
//! real time goes. [`Recorder::force_record`] therefore makes **one pass
//! per sample** over two shared blocks it owns, instead of one
//! evaluation per replica and one distance per pair:
//!
//! * the `loss_sample_size` stride-subsample is gathered into a
//!   feature-major [`EvalBlock`] by the first sample of the run — it is a
//!   pure function of the immutable training set — and each sample is one
//!   [`Model::loss_fleet`] call over the live fleet: the block is shared,
//!   each replica contributes its parameter slice, read in place, and gets
//!   back the float the plain loss returns (why: [`netmax_ml::metrics`]);
//!   the f64 mean then adds those losses in live order;
//! * a [`ConsensusBlock`] reads the live replicas' parameters in place
//!   and returns the maximum pairwise distance as an exact pruned maximum
//!   (the rule and its guard band are stated in [`netmax_ml::metrics`]).
//!
//! Every [`Sample`] field is the same float the plain reference functions
//! (`mean_loss_across_replicas`, `consensus_diameter`, `accuracy`) return
//! — those bytes are the contract of the committed artifacts. After the
//! first sample has sized the blocks a sample allocates nothing but the
//! growth of the sample list. How much the pruning skipped is a
//! deterministic count ([`Recorder::pairs_total`]); it is an observation
//! about the run, not part of a [`Sample`], the report or a checkpoint.

use super::environment::Environment;
use netmax_json::{FromJson, Json, JsonError, ToJson};
use netmax_ml::metrics::{self, ConsensusBlock};
use netmax_ml::model::{EvalBlock, Model, Scratch};

/// One recorded point of a training run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Simulated wall-clock seconds.
    pub time_s: f64,
    /// Global step `k` at which the sample was taken.
    pub global_step: u64,
    /// Mean fractional epoch across nodes.
    pub epoch: f64,
    /// Mean (subsampled) training loss across replicas.
    pub train_loss: f64,
    /// Maximum pairwise replica parameter distance.
    pub consensus_diameter: f64,
    /// Test accuracy of the replica-averaged model, when evaluated.
    pub test_accuracy: Option<f64>,
}

/// Per-node cost accounting of one run.
#[derive(Debug, Clone)]
pub struct NodeCost {
    /// The node's final virtual clock (s).
    pub clock_s: f64,
    /// Epochs the node completed over its own shard.
    pub epochs: f64,
    /// Total gradient-compute seconds.
    pub comp_s: f64,
    /// Total exposed-communication seconds.
    pub comm_s: f64,
}

/// Full record of one training run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm identifier.
    pub algorithm: String,
    /// Workload name.
    pub workload: String,
    /// Number of worker nodes.
    pub num_nodes: usize,
    /// Time series of recorded samples.
    pub samples: Vec<Sample>,
    /// Final simulated wall-clock seconds.
    pub wall_clock_s: f64,
    /// Mean epochs completed.
    pub epochs_completed: f64,
    /// Total global steps executed.
    pub global_steps: u64,
    /// Final training loss (last sample).
    pub final_train_loss: f64,
    /// Final test accuracy of the replica-averaged model.
    pub final_test_accuracy: f64,
    /// Per-node clocks, epochs, and cost totals.
    pub per_node: Vec<NodeCost>,
}

impl RunReport {
    /// Average epoch wall time — the Fig. 5/6 bar height, computed the
    /// way a real deployment logs it: each node's own time-per-epoch,
    /// averaged across nodes. Nodes stuck on slow links are charged their
    /// long epochs (a fleet-mean-epoch denominator would hide laggards).
    pub fn epoch_time_avg_s(&self) -> f64 {
        mean(self.per_node.iter().map(|n| safe_div(n.clock_s, n.epochs)))
    }

    /// Computation share of the average epoch time (Fig. 5/6 lower bar).
    pub fn comp_cost_per_epoch_s(&self) -> f64 {
        mean(self.per_node.iter().map(|n| safe_div(n.comp_s, n.epochs)))
    }

    /// Communication share of the average epoch time (Fig. 5/6 upper bar).
    pub fn comm_cost_per_epoch_s(&self) -> f64 {
        mean(self.per_node.iter().map(|n| safe_div(n.comm_s, n.epochs)))
    }

    /// Simulated seconds to reach `loss` (first sample at or below it), if
    /// ever reached — the paper's convergence-speedup measure.
    pub fn time_to_loss(&self, loss: f64) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.train_loss <= loss)
            .map(|s| s.time_s)
    }
}

impl ToJson for Sample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("time_s", self.time_s.to_json()),
            ("global_step", self.global_step.to_json()),
            ("epoch", self.epoch.to_json()),
            ("train_loss", self.train_loss.to_json()),
            ("consensus_diameter", self.consensus_diameter.to_json()),
            ("test_accuracy", self.test_accuracy.to_json()),
        ])
    }
}

impl FromJson for Sample {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            time_s: f64::from_json(v.field("time_s")?)?,
            global_step: u64::from_json(v.field("global_step")?)?,
            epoch: f64::from_json(v.field("epoch")?)?,
            train_loss: f64::from_json(v.field("train_loss")?)?,
            consensus_diameter: f64::from_json(v.field("consensus_diameter")?)?,
            test_accuracy: Option::from_json(v.field("test_accuracy")?)?,
        })
    }
}

impl ToJson for NodeCost {
    fn to_json(&self) -> Json {
        Json::obj([
            ("clock_s", self.clock_s.to_json()),
            ("epochs", self.epochs.to_json()),
            ("comp_s", self.comp_s.to_json()),
            ("comm_s", self.comm_s.to_json()),
        ])
    }
}

impl FromJson for NodeCost {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            clock_s: f64::from_json(v.field("clock_s")?)?,
            epochs: f64::from_json(v.field("epochs")?)?,
            comp_s: f64::from_json(v.field("comp_s")?)?,
            comm_s: f64::from_json(v.field("comm_s")?)?,
        })
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("algorithm", self.algorithm.to_json()),
            ("workload", self.workload.to_json()),
            ("num_nodes", self.num_nodes.to_json()),
            ("wall_clock_s", self.wall_clock_s.to_json()),
            ("epochs_completed", self.epochs_completed.to_json()),
            ("global_steps", self.global_steps.to_json()),
            ("final_train_loss", self.final_train_loss.to_json()),
            ("final_test_accuracy", self.final_test_accuracy.to_json()),
            ("per_node", self.per_node.to_json()),
            ("samples", self.samples.to_json()),
        ])
    }
}

impl FromJson for RunReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            algorithm: String::from_json(v.field("algorithm")?)?,
            workload: String::from_json(v.field("workload")?)?,
            num_nodes: usize::from_json(v.field("num_nodes")?)?,
            wall_clock_s: f64::from_json(v.field("wall_clock_s")?)?,
            epochs_completed: f64::from_json(v.field("epochs_completed")?)?,
            global_steps: u64::from_json(v.field("global_steps")?)?,
            final_train_loss: f64::from_json(v.field("final_train_loss")?)?,
            final_test_accuracy: f64::from_json(v.field("final_test_accuracy")?)?,
            per_node: Vec::from_json(v.field("per_node")?)?,
            samples: Vec::from_json(v.field("samples")?)?,
        })
    }
}

/// Squared distances the consensus readout evaluated, beside the
/// `n(n−1)/2` of the all-pairs loop it replaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCount {
    /// Pairs whose distance was computed.
    pub evaluated: u64,
    /// Pairs among the replicas read: `n(n−1)/2` per sample.
    pub all_pairs: u64,
}

impl PairCount {
    /// `evaluated / all_pairs` (0 when there was no pair).
    pub fn share(&self) -> f64 {
        safe_div(self.evaluated as f64, self.all_pairs as f64)
    }
}

/// The recorder's evaluation workspaces: sized by the first sample,
/// reused by every later one, handed back when the run finishes.
/// Transient — never checkpointed.
#[derive(Default)]
struct Workspaces {
    /// Workspace of the models' batched kernels.
    eval: Scratch,
    /// The loss subsample: a pure function of the run's immutable
    /// training set, gathered by the first sample for every later one.
    loss_block: EvalBlock,
    /// One loss per live replica of the sample being taken, in `live`
    /// order.
    losses: Vec<f32>,
    /// The pruned-diameter workspace.
    consensus: ConsensusBlock,
    /// The nodes the sample being taken reads: the active ones, or all
    /// of them when none is.
    live: Vec<usize>,
    /// The replica-averaged model of the test evaluation (cloned from
    /// node 0 at the first one, overwritten at each).
    averaged: Option<Box<dyn Model>>,
}

/// Collects samples during a run and assembles the [`RunReport`]. A
/// recorder serves one environment for one run.
#[derive(Default)]
pub struct Recorder {
    samples: Vec<Sample>,
    records_taken: usize,
    last_recorded_step: u64,
    work: Workspaces,
    pairs_last: PairCount,
    pairs_total: PairCount,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pairs the most recent sample's consensus diameter evaluated.
    pub fn pairs_last(&self) -> PairCount {
        self.pairs_last
    }

    /// Pairs evaluated over every sample this recorder took — a
    /// deterministic function of the run (it restarts from zero in a
    /// session restored from a checkpoint).
    pub fn pairs_total(&self) -> PairCount {
        self.pairs_total
    }

    /// `true` when the configured cadence calls for a sample at the
    /// current global step.
    pub fn due(&self, env: &Environment) -> bool {
        env.global_step == 1
            || env.global_step - self.last_recorded_step >= env.cfg.record_every_steps
    }

    /// Records a sample unconditionally and returns it (the session's
    /// `Sampled` event payload).
    pub fn record_now(&mut self, env: &Environment) -> Sample {
        self.force_record(env)
    }

    /// Records a sample unconditionally: one pass over the live fleet
    /// through the recorder's two shared blocks (module docs). Every
    /// recorded value is bitwise identical to the plain
    /// `mean_loss_across_replicas`/`consensus_diameter`/`accuracy` path.
    pub fn force_record(&mut self, env: &Environment) -> Sample {
        self.last_recorded_step = env.global_step;
        // Metrics are computed over the *live* fleet: a crashed node's
        // frozen replica is not part of the model being trained (with
        // everyone active this is exactly the historic all-nodes path).
        // Should every worker be down, the frozen replicas are the only
        // honest readout — an empty filter would report loss 0.0, a
        // perfect score for a fleet that entirely crashed.
        let any_active = env.num_active() > 0;
        let Workspaces { eval, loss_block, losses, consensus, live, .. } = &mut self.work;
        live.clear();
        live.extend((0..env.num_nodes()).filter(|&i| !any_active || env.is_active(i)));
        if loss_block.is_empty() {
            metrics::gather_subsample(&env.workload.train, env.cfg.loss_sample_size, loss_block);
        }
        // One fleet pass: every live replica is scored in place through
        // its parameter slice (node 0 lends the fleet's shape); the f64
        // mean then adds the losses in `live` order.
        losses.resize(live.len(), 0.0);
        let mut replicas = live.iter().map(|&i| env.nodes[i].model.params());
        env.nodes[0].model.loss_fleet(loss_block, &mut replicas, eval, losses);
        let train_loss =
            losses.iter().map(|&loss| f64::from(loss)).sum::<f64>() / live.len() as f64;
        let consensus_diameter =
            consensus.diameter(live.len(), |k| env.nodes[live[k]].model.params());
        let read = live.len() as u64;
        self.pairs_last = PairCount {
            evaluated: consensus.pairs_evaluated(),
            all_pairs: read * read.saturating_sub(1) / 2,
        };
        self.pairs_total.evaluated += self.pairs_last.evaluated;
        self.pairs_total.all_pairs += self.pairs_last.all_pairs;
        let test_accuracy = if self.records_taken.is_multiple_of(env.cfg.test_eval_every_records) {
            Some(self.evaluate_averaged(env))
        } else {
            None
        };
        self.records_taken += 1;
        let sample = Sample {
            time_s: env.wall_clock(),
            global_step: env.global_step,
            epoch: env.mean_epoch(),
            train_loss,
            consensus_diameter,
            test_accuracy,
        };
        self.samples.push(sample);
        sample
    }

    /// Test accuracy of the parameter-averaged model — the paper evaluates
    /// "the trained model"; at consensus all replicas agree, and averaging
    /// is the standard readout. Only the live replicas of the sample
    /// being taken enter the average (with everyone active this is the
    /// historic all-nodes mean), accumulated in node order straight into
    /// the recorder's averaged replica.
    fn evaluate_averaged(&mut self, env: &Environment) -> f64 {
        let Workspaces { eval, live, averaged, .. } = &mut self.work;
        let n = live.len() as f32;
        let avg = averaged.get_or_insert_with(|| env.nodes[0].model.clone_box());
        avg.params_mut().fill(0.0);
        for &i in live.iter() {
            for (a, p) in avg.params_mut().iter_mut().zip(env.nodes[i].model.params()) {
                *a += p / n;
            }
        }
        metrics::accuracy_scratch(avg.as_ref(), &env.workload.test, eval)
    }

    /// Serializes the recorder's state (samples taken so far and cadence
    /// counters) for checkpoint/resume.
    pub fn checkpoint(&self) -> Json {
        Json::obj([
            ("samples", self.samples.to_json()),
            ("records_taken", self.records_taken.to_json()),
            ("last_recorded_step", self.last_recorded_step.to_json()),
        ])
    }

    /// Restores state captured by [`Recorder::checkpoint`] in place, for
    /// the already restored `env`. [`Recorder::force_record`] is the only
    /// writer of both the sample list and the cadence counter, so a
    /// recorder whose last sample is not at `last_recorded_step`, or that
    /// is ahead of its environment (where [`Recorder::due`]'s `u64`
    /// difference would overflow), was not written by this engine.
    pub fn restore(&mut self, env: &Environment, state: &Json) -> Result<(), JsonError> {
        let samples: Vec<Sample> = Vec::from_json(state.field("samples")?)?;
        let last_recorded_step = u64::from_json(state.field("last_recorded_step")?)?;
        let last_sampled_step = samples.last().map_or(0, |s| s.global_step);
        if last_sampled_step != last_recorded_step {
            return Err(JsonError::schema(format!(
                "recorder last sampled at step {last_sampled_step} but last_recorded_step is \
                 {last_recorded_step}"
            )));
        }
        if last_recorded_step > env.global_step {
            return Err(JsonError::schema(format!(
                "recorder last_recorded_step {last_recorded_step} is ahead of the environment's \
                 global step {}",
                env.global_step
            )));
        }
        self.samples = samples;
        self.records_taken = usize::from_json(state.field("records_taken")?)?;
        self.last_recorded_step = last_recorded_step;
        Ok(())
    }

    /// Finalises the report (records one last sample with test accuracy).
    pub fn finish(&mut self, env: &Environment, algorithm: &str) -> RunReport {
        // Always end with a fully evaluated sample.
        self.records_taken = 0; // forces test eval below
        self.force_record(env);
        // The run is over; a finished session is kept for its report,
        // not for hundreds of kilobytes of evaluation blocks.
        self.work = Workspaces::default();
        let final_acc = self
            .samples
            .last()
            .and_then(|s| s.test_accuracy)
            .unwrap_or_default();
        let final_loss = self.samples.last().map(|s| s.train_loss).unwrap_or(f64::NAN);
        let per_node = env
            .nodes
            .iter()
            .map(|x| NodeCost {
                clock_s: x.clock,
                epochs: x.epochs(),
                comp_s: x.comp_time_total,
                comm_s: x.comm_exposed_total,
            })
            .collect();
        RunReport {
            algorithm: algorithm.to_string(),
            workload: env.workload.name.clone(),
            num_nodes: env.num_nodes(),
            wall_clock_s: env.wall_clock(),
            epochs_completed: env.mean_epoch(),
            global_steps: env.global_step,
            final_train_loss: final_loss,
            final_test_accuracy: final_acc,
            per_node,
            samples: self.samples.clone(),
        }
    }
}

/// The sample [`Recorder::force_record`] must produce for `env`, computed
/// the slow, obvious way — every live replica cloned and scored by the
/// plain [`metrics`] functions, every pair's distance taken. It defines
/// what a [`Sample`] means and is what the tests hold the recorder's
/// one-pass path to, bit for bit; nothing on a run's path calls it.
pub fn reference_sample(env: &Environment, evaluate_test: bool) -> Sample {
    let any_active = env.num_active() > 0;
    let live: Vec<Box<dyn Model>> = env
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| !any_active || env.is_active(i))
        .map(|(_, n)| n.model.clone_box())
        .collect();
    let test_accuracy = live.first().filter(|_| evaluate_test).map(|first| {
        let mut avg = first.clone_box();
        let mut acc = vec![0.0f32; avg.num_params()];
        for m in &live {
            for (a, p) in acc.iter_mut().zip(m.params()) {
                *a += p / live.len() as f32;
            }
        }
        avg.params_mut().copy_from_slice(&acc);
        metrics::accuracy(avg.as_ref(), &env.workload.test)
    });
    Sample {
        time_s: env.wall_clock(),
        global_step: env.global_step,
        epoch: env.mean_epoch(),
        train_loss: metrics::mean_loss_across_replicas(
            &live,
            &env.workload.train,
            env.cfg.loss_sample_size,
        ),
        consensus_diameter: metrics::consensus_diameter(&live),
        test_accuracy,
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in it {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::config::TrainConfig;
    use netmax_ml::partition::Partition;
    use netmax_ml::workload::Workload;
    use netmax_net::{ElasticNetwork, LinkQuality, Topology};

    fn env() -> Environment {
        let w = Workload::convex_ridge(3);
        let part = Partition::uniform(&w.train, 3, 0);
        Environment::new(
            Topology::fully_connected(3),
            ElasticNetwork::uniform(3, LinkQuality::virtual_switch_10g()),
            w,
            part,
            TrainConfig::quick_test(),
        )
    }

    #[test]
    fn records_on_cadence() {
        let mut e = env();
        let mut rec = Recorder::new();
        for step in 1..=45u64 {
            e.global_step = step;
            if rec.due(&e) {
                rec.record_now(&e);
            }
        }
        // Step 1 and steps 21, 41 (cadence 20).
        assert_eq!(rec.samples.len(), 3);
    }

    #[test]
    fn finish_produces_complete_report() {
        let mut e = env();
        e.global_step = 1;
        e.book_iteration(0, 0.1, 0.3);
        let mut rec = Recorder::new();
        let report = rec.finish(&e, "test-algo");
        assert_eq!(report.algorithm, "test-algo");
        assert_eq!(report.num_nodes, 3);
        assert_eq!(report.samples.len(), 1);
        assert!(report.final_test_accuracy >= 0.0);
        assert!(report.final_train_loss.is_finite());
        assert!(report.per_node[0].comp_s > 0.0);
    }

    #[test]
    fn epoch_time_breakdown_adds_up() {
        let r = RunReport {
            algorithm: "x".into(),
            workload: "w".into(),
            num_nodes: 2,
            samples: vec![],
            wall_clock_s: 100.0,
            epochs_completed: 10.0,
            global_steps: 1000,
            final_train_loss: 0.1,
            final_test_accuracy: 0.9,
            per_node: vec![
                NodeCost { clock_s: 100.0, epochs: 10.0, comp_s: 40.0, comm_s: 60.0 },
                NodeCost { clock_s: 100.0, epochs: 5.0, comp_s: 40.0, comm_s: 60.0 },
            ],
        };
        // Node 1: 10 s/epoch; node 2: 20 s/epoch; per-node average 15.
        assert!((r.epoch_time_avg_s() - 15.0).abs() < 1e-12);
        assert!((r.comp_cost_per_epoch_s() - 6.0).abs() < 1e-12);
        assert!((r.comm_cost_per_epoch_s() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn run_report_json_round_trip() {
        let report = RunReport {
            algorithm: "netmax".into(),
            workload: "resnet18/cifar10".into(),
            num_nodes: 2,
            samples: vec![Sample {
                time_s: 1.5,
                global_step: 40,
                epoch: 0.25,
                train_loss: 2.0,
                consensus_diameter: 0.125,
                test_accuracy: None,
            }],
            wall_clock_s: 10.0,
            epochs_completed: 1.0,
            global_steps: 100,
            final_train_loss: 0.5,
            final_test_accuracy: 0.875,
            per_node: vec![NodeCost { clock_s: 10.0, epochs: 1.0, comp_s: 4.0, comm_s: 6.0 }],
        };
        let text = report.to_json().pretty();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.algorithm, report.algorithm);
        assert_eq!(back.samples.len(), 1);
        assert_eq!(back.samples[0].test_accuracy, None);
        assert_eq!(back.samples[0].train_loss, 2.0);
        assert_eq!(back.per_node[0].comm_s, 6.0);
        assert_eq!(back.global_steps, 100);
        // And a NaN loss survives as null → NaN.
        let mut nan_report = report;
        nan_report.final_train_loss = f64::NAN;
        let back =
            RunReport::from_json(&Json::parse(&nan_report.to_json().to_string()).unwrap()).unwrap();
        assert!(back.final_train_loss.is_nan());
    }

    #[test]
    fn time_to_loss_lookup() {
        let mk = |t: f64, l: f64| Sample {
            time_s: t,
            global_step: 0,
            epoch: 0.0,
            train_loss: l,
            consensus_diameter: 0.0,
            test_accuracy: None,
        };
        let r = RunReport {
            algorithm: "x".into(),
            workload: "w".into(),
            num_nodes: 1,
            samples: vec![mk(1.0, 2.0), mk(2.0, 1.0), mk(3.0, 0.5)],
            wall_clock_s: 3.0,
            epochs_completed: 1.0,
            global_steps: 3,
            final_train_loss: 0.5,
            final_test_accuracy: 0.0,
            per_node: vec![],
        };
        assert_eq!(r.time_to_loss(1.0), Some(2.0));
        assert_eq!(r.time_to_loss(0.1), None);
    }
}
