//! SGD with momentum, weight decay, and step-decay learning-rate schedule.
//!
//! Hyper-parameters mirror the paper's configuration (§V-A): "the models
//! are trained with batch size 128, momentum 0.9, and weight decay 10⁻⁴.
//! The learning rate starts from 0.1 and decays by a factor of 10 once the
//! loss does not decrease any more" (reproduced here as explicit epoch
//! milestones, as the paper itself does in §V-F: "decays by a factor of 10
//! at epoch 80").


/// SGD hyper-parameters.
#[derive(Debug, Clone)]
pub struct SgdConfig {
    /// Initial learning rate α.
    pub lr: f64,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f64,
    /// Weight decay (L2) coefficient.
    pub weight_decay: f64,
    /// Epochs at which the learning rate is multiplied by `lr_decay`.
    pub lr_milestones: Vec<f64>,
    /// Multiplicative decay applied at each milestone (paper: 0.1).
    pub lr_decay: f64,
}

impl SgdConfig {
    /// The paper's §V-A defaults.
    pub fn paper_default() -> Self {
        Self {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_milestones: vec![80.0],
            lr_decay: 0.1,
        }
    }

    /// Plain SGD with a fixed learning rate (used by the theory tests).
    pub fn plain(lr: f64) -> Self {
        Self { lr, momentum: 0.0, weight_decay: 0.0, lr_milestones: Vec::new(), lr_decay: 1.0 }
    }

    /// Learning rate in effect at fractional `epoch`.
    pub fn lr_at(&self, epoch: f64) -> f64 {
        let passed = self.lr_milestones.iter().filter(|&&m| epoch >= m).count();
        self.lr * self.lr_decay.powi(passed as i32)
    }
}

/// Per-replica optimiser state (momentum buffer).
#[derive(Debug, Clone)]
pub struct SgdState {
    velocity: Vec<f32>,
}

impl SgdState {
    /// Creates zeroed state for `num_params` parameters.
    pub fn new(num_params: usize) -> Self {
        Self { velocity: vec![0.0; num_params] }
    }

    /// The momentum buffer (checkpointing hook).
    pub fn velocity(&self) -> &[f32] {
        &self.velocity
    }

    /// Mutable momentum buffer (checkpoint restore hook).
    ///
    /// # Panics
    /// Callers must preserve the length; [`SgdState::step`] asserts it.
    pub fn velocity_mut(&mut self) -> &mut [f32] {
        &mut self.velocity
    }

    /// Applies one SGD step: `v ← µv + (g + wd·θ)`, `θ ← θ − lr·v`.
    ///
    /// This is the PyTorch-convention momentum update the paper's
    /// implementation uses.
    ///
    /// # Panics
    /// Panics if buffer sizes disagree.
    pub fn step(&mut self, cfg: &SgdConfig, lr: f64, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "step: grad/params mismatch");
        assert_eq!(params.len(), self.velocity.len(), "step: state mismatch");
        let mu = cfg.momentum as f32;
        let wd = cfg.weight_decay as f32;
        let lr = lr as f32;
        for ((v, p), g) in self.velocity.iter_mut().zip(params.iter_mut()).zip(grad) {
            let g_eff = g + wd * *p;
            *v = mu * *v + g_eff;
            *p -= lr * *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SgdConfig::paper_default();
        assert_eq!(c.lr, 0.1);
        assert_eq!(c.momentum, 0.9);
        assert_eq!(c.weight_decay, 1e-4);
    }

    #[test]
    fn lr_schedule_steps_down() {
        let mut c = SgdConfig::paper_default();
        c.lr_milestones = vec![10.0, 20.0];
        assert!((c.lr_at(0.0) - 0.1).abs() < 1e-12);
        assert!((c.lr_at(9.99) - 0.1).abs() < 1e-12);
        assert!((c.lr_at(10.0) - 0.01).abs() < 1e-12);
        assert!((c.lr_at(25.0) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn plain_sgd_descends_quadratic() {
        // minimise ½θ² by gradient θ.
        let cfg = SgdConfig::plain(0.1);
        let mut st = SgdState::new(1);
        let mut p = vec![10.0f32];
        for _ in 0..100 {
            let g = vec![p[0]];
            st.step(&cfg, cfg.lr, &mut p, &g);
        }
        assert!(p[0].abs() < 1e-3, "did not descend: {}", p[0]);
    }

    #[test]
    fn momentum_accelerates_on_quadratic() {
        let run = |mu: f64| {
            let cfg = SgdConfig { momentum: mu, ..SgdConfig::plain(0.02) };
            let mut st = SgdState::new(1);
            let mut p = vec![10.0f32];
            let mut steps = 0;
            while p[0].abs() > 0.01 && steps < 10_000 {
                let g = vec![p[0]];
                st.step(&cfg, cfg.lr, &mut p, &g);
                steps += 1;
            }
            steps
        };
        assert!(run(0.9) < run(0.0), "momentum should converge in fewer steps");
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let cfg = SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.1,
            lr_milestones: vec![],
            lr_decay: 1.0,
        };
        let mut st = SgdState::new(1);
        let mut p = vec![1.0f32];
        // Zero data gradient: only decay acts.
        for _ in 0..10 {
            st.step(&cfg, cfg.lr, &mut p, &[0.0]);
        }
        assert!(p[0] < 1.0 && p[0] > 0.0);
    }
}
