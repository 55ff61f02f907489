//! Policy diagnostics: the observability layer an operator of a NetMax
//! deployment would want.
//!
//! Given a policy `P` and the iteration times it was optimised for,
//! [`PolicyAudit`] reports the quantities that explain *why* the policy
//! looks the way it does: the predicted mean iteration time versus
//! uniform selection, the mixing rate (spectral gap of `Y_P`), the
//! slowest-mixing worker partition (the communication bottleneck, from
//! the sign cut of the second eigenvector), and per-link usage shares.

use crate::gossip_matrix::build_y_sparse;
use crate::sparse_policy::{EdgeTimes, SparsePolicyResult};
use netmax_linalg::symmetric_eigen;
use netmax_net::Topology;

/// A structured audit of one communication policy.
#[derive(Debug, Clone)]
pub struct PolicyAudit {
    /// Expected per-iteration communication time under the policy (s).
    pub expected_iteration_s: f64,
    /// Expected per-iteration time if neighbours were selected uniformly.
    pub uniform_iteration_s: f64,
    /// λ₂ of `Y_P`.
    pub lambda2: f64,
    /// Mixing rate `1 − λ₂`.
    pub spectral_gap: f64,
    /// The two slowest-mixing worker groups (bottleneck cut).
    pub bottleneck: (Vec<usize>, Vec<usize>),
    /// Total probability mass each node places on its diagonal
    /// (self-selection — idle iterations).
    pub self_selection: Vec<f64>,
    /// Fraction of selection mass on outlier links (strictly slower than
    /// the 75th-percentile link time) — the slowed links of the paper's
    /// dynamic regime.
    pub slow_link_mass: f64,
}

impl PolicyAudit {
    /// Speed advantage of the policy over uniform selection (>1 = faster).
    pub fn iteration_speedup(&self) -> f64 {
        if self.expected_iteration_s > 0.0 {
            self.uniform_iteration_s / self.expected_iteration_s
        } else {
            f64::INFINITY
        }
    }
}

/// Audits a generated policy against the iteration times it was built
/// from. The bottleneck cut needs `Y_P`'s second eigen*vector*, which only
/// the dense Jacobi decomposition provides, so this is a tool for fleets
/// small enough to densify one `M × M` matrix.
///
/// # Panics
/// Panics on shape mismatches.
pub fn audit_policy(
    res: &SparsePolicyResult,
    times: &EdgeTimes,
    topo: &Topology,
    alpha: f64,
) -> PolicyAudit {
    let m = topo.len();
    assert_eq!(times.len(), m, "times shape mismatch");
    assert_eq!(res.policy.len(), m, "policy shape mismatch");
    let p = &res.policy;

    // Expected per-iteration comm time, averaged over nodes.
    let expected = (0..m)
        .map(|i| times.row(i).iter().map(|&(j, t)| t * p.get(i, j)).sum::<f64>())
        .sum::<f64>()
        / m as f64;
    let uniform = (0..m)
        .map(|i| {
            let nbrs = topo.degree(i).max(1) as f64;
            times.row(i).iter().map(|&(_, t)| t / nbrs).sum::<f64>()
        })
        .sum::<f64>()
        / m as f64;

    let p_node = vec![1.0 / m as f64; m];
    let eig = symmetric_eigen(&build_y_sparse(p, topo, &p_node, alpha, res.rho).to_dense());
    let lambda2 = eig.values.get(1).copied().unwrap_or(0.0);
    let bottleneck = eig.bottleneck_cut();

    let self_selection: Vec<f64> = (0..m).map(|i| p.self_p(i)).collect();

    // Mass on outlier links: strictly slower than the 75th percentile.
    let mut link_times: Vec<f64> =
        (0..m).flat_map(|i| times.row(i).iter().map(|&(_, t)| t)).collect();
    link_times.sort_by(f64::total_cmp);
    let cut = link_times[(link_times.len() * 3) / 4];
    let mut slow_mass = 0.0;
    let mut total_mass = 0.0;
    for i in 0..m {
        for &(j, t) in times.row(i) {
            total_mass += p.get(i, j);
            if t > cut {
                slow_mass += p.get(i, j);
            }
        }
    }

    PolicyAudit {
        expected_iteration_s: expected,
        uniform_iteration_s: uniform,
        lambda2,
        spectral_gap: 1.0 - lambda2,
        bottleneck,
        self_selection,
        slow_link_mass: if total_mass > 0.0 { slow_mass / total_mass } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyGenerator, PolicySearchConfig};

    /// Two-island times with one severely slowed cross link.
    fn slowed_times(m: usize, per: usize, factor: f64) -> EdgeTimes {
        EdgeTimes::from_fn(&Topology::fully_connected(m), |i, j| {
            let base = if (i / per) == (j / per) { 0.2 } else { 0.94 };
            if (i, j) == (0, per) || (i, j) == (per, 0) {
                base * factor
            } else {
                base
            }
        })
    }

    #[test]
    fn audit_reports_speedup_under_slowdown() {
        let topo = Topology::fully_connected(8);
        let times = slowed_times(8, 4, 50.0);
        let alpha = 0.1;
        let gen = PolicyGenerator::new(PolicySearchConfig::new(alpha));
        let res = gen.generate_sparse(&times, &topo).expect("feasible");
        let audit = audit_policy(&res, &times, &topo, alpha);

        assert!(
            audit.iteration_speedup() > 1.5,
            "policy should beat uniform clearly under a 50× slowdown: {:.2}×",
            audit.iteration_speedup()
        );
        assert!(audit.lambda2 < 1.0 && audit.lambda2 > 0.0);
        assert!((audit.spectral_gap - (1.0 - audit.lambda2)).abs() < 1e-12);
        // The slowed outlier link gets almost none of the selection mass
        // (it sits at its Eq. 11 floor).
        assert!(
            audit.slow_link_mass < 0.05,
            "slow-link mass {} should be suppressed to the floor",
            audit.slow_link_mass
        );
    }

    #[test]
    fn bottleneck_cut_splits_the_islands() {
        let topo = Topology::fully_connected(6);
        // Strong island structure: cross links 30× slower.
        let times = EdgeTimes::from_fn(&topo, |i, j| if (i / 3) == (j / 3) { 0.1 } else { 3.0 });
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate_sparse(&times, &topo).expect("feasible");
        let audit = audit_policy(&res, &times, &topo, 0.1);
        let (mut a, mut b) = audit.bottleneck;
        a.sort_unstable();
        b.sort_unstable();
        let ok = (a == vec![0, 1, 2] && b == vec![3, 4, 5])
            || (a == vec![3, 4, 5] && b == vec![0, 1, 2]);
        assert!(ok, "bottleneck cut should separate the servers: {a:?} | {b:?}");
    }

    #[test]
    fn self_selection_reported_per_node() {
        let topo = Topology::fully_connected(4);
        let times = slowed_times(4, 2, 1.0);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate_sparse(&times, &topo).expect("feasible");
        let audit = audit_policy(&res, &times, &topo, 0.1);
        assert_eq!(audit.self_selection.len(), 4);
        for (i, &s) in audit.self_selection.iter().enumerate() {
            assert!((0.0..=1.0).contains(&s), "node {i} self prob {s}");
            assert!((s - res.policy.self_p(i)).abs() < 1e-12);
        }
    }
}
