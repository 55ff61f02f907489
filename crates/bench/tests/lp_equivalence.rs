//! Satellite suite: the edge-list control plane must be
//! *indistinguishable* from the dense reference formulation of Algorithm 3
//! on every topology the benchmark registry can produce — including the
//! mid-churn masked subgraphs the fault plans of the faults experiments
//! create.
//!
//! The row-wise solver (`solve_policy_lp_rowwise`) exploits the LP's
//! block structure, so under the deterministic Bland's-rule simplex the
//! per-row solutions must be **bit-for-bit** the dense joint solution —
//! not merely close. Same for the candidate-sweep bound helpers: the
//! edge-list folds visit the same values in the same order as the dense
//! row scans (absent entries contribute exact zeros), so ρ and t̄ grids
//! are float-identical. And up to `DENSE_CONTROL_THRESHOLD` nodes the
//! whole search is: the production generator (`generate_sparse`: edge
//! lists, block LP template, sparse `Y_P`, Jacobi on its densification)
//! must return the dense reference generator's `(P, ρ, t̄, λ₂)` to the
//! last bit — although production visits the grid best first, not
//! row-major, and hands Jacobi only the candidates its Lanczos screen
//! cannot show to have lost. Above the threshold exactly one thing
//! changes — the eigensolver — and the last tests pin that and the early
//! exits on either side of it. (That the visit order cannot move the
//! selection is `sparse_policy.rs`'s own test, on this file's fabrics.)

use netmax_bench::{registry, Mode};
use netmax_core::policy::{rho_upper_bound, solve_policy_lp, t_bar_bounds};
use netmax_core::sparse_policy::{
    rho_upper_bound_sparse, t_bar_bounds_sparse, DENSE_CONTROL_THRESHOLD, SPARSE_L2_MAX_ITERS,
    SPARSE_L2_TOL,
};
use netmax_core::{
    build_y, solve_policy_lp_rowwise, EdgeTimes, PolicyGenerator, PolicySearchConfig,
    SparsePolicyResult,
};
use netmax_linalg::{
    second_largest_eigenvalue, second_largest_eigenvalue_sparse, Matrix, SparseSymmetric,
};
use netmax_net::Topology;

/// Deterministic heterogeneous iteration times over the topology's edges:
/// strictly positive, direction-dependent, and varied enough to give the
/// LP non-trivial vertices.
fn synthetic_times(topo: &Topology) -> Matrix {
    let n = topo.len();
    let mut t = Matrix::zeros(n, n);
    for i in 0..n {
        for &j in topo.neighbors(i) {
            t[(i, j)] = 0.25 + 0.05 * ((i * 31 + j * 17) % 9) as f64;
        }
    }
    t
}

/// A coarse search: the equivalence is per candidate, so a 3×3 grid
/// exercises everything the default 10×10 does.
fn coarse_search(alpha: f64) -> PolicySearchConfig {
    PolicySearchConfig { outer_k: 3, inner_r: 3, ..PolicySearchConfig::new(alpha) }
}

/// Asserts dense and row-wise LP agree (feasibility *and* bytes) over a
/// small candidate grid derived from the shared sweep-bound helpers, that
/// the sparse bound helpers are float-identical to the dense ones, and —
/// up to the eigensolver threshold — that the production generator
/// selects the dense reference generator's result bit for bit.
/// Returns the number of feasible candidates exercised.
fn assert_lp_equivalent(topo: &Topology, label: &str) -> usize {
    let times = synthetic_times(topo);
    let edge_times = EdgeTimes::from_dense(&times, topo);
    let mut feasible = 0usize;
    for &alpha in &[0.05, 0.1] {
        if topo.len() <= DENSE_CONTROL_THRESHOLD {
            let generator = PolicyGenerator::new(coarse_search(alpha));
            let reference = generator.generate(&times, topo);
            let production = generator.generate_sparse(&edge_times, topo);
            assert_eq!(
                production.as_ref().map(|r| (r.rho, r.t_bar, r.lambda2)),
                reference.as_ref().map(|r| (r.rho, r.t_bar, r.lambda2)),
                "{label}: selected (ρ, t̄, λ₂) diverged (α = {alpha})"
            );
            if let (Some(p), Some(r)) = (&production, &reference) {
                assert_eq!(
                    p.policy.to_dense().as_slice(),
                    r.policy.as_slice(),
                    "{label}: selected policy diverged (α = {alpha})"
                );
            }
        }
        let u_rho = rho_upper_bound(alpha, &times, topo);
        assert_eq!(
            u_rho,
            rho_upper_bound_sparse(alpha, &edge_times, topo),
            "{label}: ρ upper bound diverged (α = {alpha})"
        );
        let Some(u_rho) = u_rho else { continue };
        for k in 1..=3usize {
            let rho = u_rho * k as f64 / 3.0;
            let bounds = t_bar_bounds(alpha, rho, &times, topo);
            assert_eq!(
                bounds,
                t_bar_bounds_sparse(alpha, rho, &edge_times, topo),
                "{label}: t̄ bounds diverged (α = {alpha}, ρ = {rho})"
            );
            let Some((lower, upper)) = bounds else { continue };
            for r in 1..=3usize {
                let t_bar = lower + (upper - lower) * r as f64 / 4.0;
                let dense = solve_policy_lp(alpha, rho, t_bar, &times, topo);
                let rowwise = solve_policy_lp_rowwise(alpha, rho, t_bar, &edge_times, topo);
                match (&dense, &rowwise) {
                    (Some(d), Some(s)) => {
                        assert_eq!(
                            s.to_dense().as_slice(),
                            d.as_slice(),
                            "{label}: policies diverged at (α = {alpha}, ρ = {rho}, t̄ = {t_bar})"
                        );
                        feasible += 1;
                    }
                    (None, None) => {}
                    _ => panic!(
                        "{label}: feasibility diverged at (α = {alpha}, ρ = {rho}, t̄ = {t_bar}): \
                         dense = {}, rowwise = {}",
                        dense.is_some(),
                        rowwise.is_some()
                    ),
                }
            }
        }
    }
    feasible
}

/// Stable fingerprint so the registry sweep solves each distinct graph
/// once rather than once per experiment.
fn signature(topo: &Topology) -> Vec<usize> {
    let mut sig = vec![topo.len()];
    for i in 0..topo.len() {
        sig.push(usize::MAX); // row separator
        sig.extend(topo.neighbors(i).iter().copied());
    }
    sig
}

/// The live-node subgraph under a mask, compacted to contiguous indices.
/// `None` if fewer than two nodes survive or the survivors disconnect
/// (the monitor skips those rounds; there is no LP to compare).
fn masked_subgraph(topo: &Topology, active: &[bool]) -> Option<Topology> {
    let idx: Vec<usize> = (0..topo.len()).filter(|&i| active[i]).collect();
    if idx.len() < 2 {
        return None;
    }
    let mut pos = vec![usize::MAX; topo.len()];
    for (a, &i) in idx.iter().enumerate() {
        pos[i] = a;
    }
    let mut sub = Topology::empty(idx.len());
    for (a, &i) in idx.iter().enumerate() {
        for &j in topo.neighbors(i) {
            if j > i && active[j] {
                sub.set_edge(a, pos[j], true);
            }
        }
    }
    if sub.is_connected() {
        Some(sub)
    } else {
        None
    }
}

#[test]
fn rowwise_lp_matches_dense_on_every_registry_topology() {
    let mut seen: Vec<Vec<usize>> = Vec::new();
    let mut checked = 0usize;
    let mut feasible = 0usize;
    for spec in registry(Mode::Tiny) {
        let topo = spec.scenario.build_env().topology;
        let sig = signature(&topo);
        if seen.contains(&sig) {
            continue;
        }
        seen.push(sig);
        feasible += assert_lp_equivalent(&topo, &spec.name);
        checked += 1;
    }
    assert!(checked >= 3, "registry produced only {checked} distinct topologies");
    assert!(feasible > 0, "no feasible candidate was ever exercised");
}

#[test]
fn rowwise_lp_matches_dense_on_mid_churn_masked_subgraphs() {
    // Replay every fault plan in the registry: sample the fleet's active
    // mask just after each membership transition and compare the LPs on
    // the compacted live subgraph — exactly what a monitor round sees
    // mid-churn.
    let mut masked_cases = 0usize;
    let mut feasible = 0usize;
    for spec in registry(Mode::Tiny) {
        let plan = spec.scenario.fault_plan().clone();
        let events = plan.membership_events();
        if events.is_empty() {
            continue;
        }
        let topo = spec.scenario.build_env().topology;
        let n = topo.len();
        for ev in &events {
            let now = ev.time_s + 1e-6;
            let active: Vec<bool> = (0..n).map(|i| plan.active_at(i, now)).collect();
            if active.iter().all(|&a| a) {
                continue;
            }
            let Some(sub) = masked_subgraph(&topo, &active) else { continue };
            feasible +=
                assert_lp_equivalent(&sub, &format!("{} @ t = {:.1}s", spec.name, ev.time_s));
            masked_cases += 1;
        }
    }
    assert!(masked_cases > 0, "no fault plan produced a masked subgraph to test");
    assert!(feasible > 0, "no feasible masked candidate was ever exercised");
}

#[test]
fn rowwise_lp_matches_dense_on_synthetic_crash_masks() {
    // Independent of what the registry's fault plans happen to schedule:
    // canonical graph shapes under hand-picked crash masks, covering the
    // structural corners (leaf loss, hub survival, ring splits avoided).
    let shapes: Vec<(&str, Topology)> = vec![
        ("ring-8", Topology::ring(8)),
        ("star-8", Topology::star(8, 0)),
        ("full-8", Topology::fully_connected(8)),
        ("torus-4x4", Topology::torus(4, 4)),
    ];
    let mut feasible = 0usize;
    for (name, topo) in &shapes {
        let n = topo.len();
        let masks: Vec<Vec<bool>> = vec![
            { let mut m = vec![true; n]; m[0] = false; m },
            { let mut m = vec![true; n]; m[n - 1] = false; m },
            { let mut m = vec![true; n]; m[1] = false; m[2] = false; m },
        ];
        for (k, mask) in masks.iter().enumerate() {
            let Some(sub) = masked_subgraph(topo, mask) else { continue };
            feasible += assert_lp_equivalent(&sub, &format!("{name} mask {k}"));
        }
    }
    assert!(feasible > 0, "no synthetic masked candidate was feasible");
}

/// What Algorithm 3 selects: `(P, ρ, t̄, λ₂)`.
type Selection = (Matrix, f64, f64, f64);

/// Algorithm 3 walked over the dense reference functions with the λ₂
/// solver injected and **every** candidate scored to the end: the first
/// minimal-`T_convergence` candidate, as both generators select it, with
/// its position among the feasible candidates in sweep order and their
/// number.
fn reference_search(
    cfg: &PolicySearchConfig,
    times: &Matrix,
    topo: &Topology,
    lambda2_of: impl Fn(&Matrix) -> f64,
) -> Option<(usize, usize, Selection)> {
    let n = topo.len();
    let p_node = vec![1.0 / n as f64; n];
    let u_rho = rho_upper_bound(cfg.alpha, times, topo)?;
    let mut best: Option<(f64, usize, Selection)> = None;
    let mut feasible = 0;
    for k in 1..=cfg.outer_k {
        let rho = k as f64 * (u_rho / cfg.outer_k as f64);
        let Some((lower, upper)) = t_bar_bounds(cfg.alpha, rho, times, topo) else { continue };
        let delta = (upper - lower) / cfg.inner_r as f64;
        for r in 1..=cfg.inner_r {
            let t_bar = lower + r as f64 * delta;
            let Some(policy) = solve_policy_lp(cfg.alpha, rho, t_bar, times, topo) else {
                continue;
            };
            feasible += 1;
            let lambda2 = lambda2_of(&build_y(&policy, topo, &p_node, cfg.alpha, rho));
            if lambda2 >= 1.0 - 1e-12 || lambda2 <= 0.0 {
                continue;
            }
            let t_conv = t_bar * cfg.epsilon.ln() / lambda2.ln();
            if best.as_ref().is_none_or(|(b, ..)| t_conv < *b) {
                best = Some((t_conv, feasible - 1, (policy, rho, t_bar, lambda2)));
            }
        }
    }
    best.map(|(_, position, selected)| (position, feasible, selected))
}

fn jacobi(y: &Matrix) -> f64 {
    second_largest_eigenvalue(y)
}

/// The power iteration with the settings `generate_sparse` runs it with,
/// through the single-matrix entry point: no lanes, no ceilings.
fn power(y: &Matrix) -> f64 {
    let y = SparseSymmetric::from_dense(y);
    second_largest_eigenvalue_sparse(&y, SPARSE_L2_MAX_ITERS, SPARSE_L2_TOL).eigenvalue
}

fn production(cfg: &PolicySearchConfig, topo: &Topology, times: &Matrix) -> SparsePolicyResult {
    PolicyGenerator::new(cfg.clone())
        .generate_sparse(&EdgeTimes::from_dense(times, topo), topo)
        .expect("the search is feasible")
}

fn selection(res: &SparsePolicyResult) -> Selection {
    (res.policy.to_dense(), res.rho, res.t_bar, res.lambda2)
}

#[test]
fn only_the_eigensolver_changes_across_the_threshold() {
    // The 8×8 torus sits on the threshold, the 8×9 torus just past it.
    // Walking the dense reference functions with Jacobi must reproduce
    // production at n = 64, and with the power iteration (the settings
    // `generate_sparse` uses) at n = 72: bounds, LP and Y_P assembly are
    // therefore untouched by the switch. The solvers themselves disagree
    // in the low bits, so swapping them would fail one of the two.
    let cfg = coarse_search(0.05);

    let at = Topology::torus(8, 8);
    assert_eq!(at.len(), DENSE_CONTROL_THRESHOLD);
    let times = synthetic_times(&at);
    let res = production(&cfg, &at, &times);
    let selected = selection(&res);
    let (_, feasible, reference) =
        reference_search(&cfg, &times, &at, jacobi).expect("reference feasible");
    assert_eq!(selected, reference);
    assert_ne!(Some(selected.3), reference_search(&cfg, &times, &at, power).map(|s| s.2 .3));
    // The screen spared some candidates the exact solve and never the
    // first visited; what it cost is a count, and a function of the inputs
    // alone.
    assert!(
        (1..feasible as u64).contains(&res.exact_solves),
        "{} Jacobi solves for {feasible} candidates",
        res.exact_solves
    );
    assert!(res.lambda2_iterations > 0, "the screen took no Lanczos step");
    let again = production(&cfg, &at, &times);
    assert_eq!(
        (again.exact_solves, again.lambda2_iterations),
        (res.exact_solves, res.lambda2_iterations)
    );

    let past = Topology::torus(8, 9);
    let times = synthetic_times(&past);
    let res = production(&cfg, &past, &times);
    let selected = selection(&res);
    assert_eq!(Some(&selected), reference_search(&cfg, &times, &past, power).map(|s| s.2).as_ref());
    // The estimate is bounded-effort (the iteration cap binds on a torus
    // this size): near the exact λ₂ of the selected Y_P, not equal to it.
    let p_node = vec![1.0 / past.len() as f64; past.len()];
    let exact = jacobi(&build_y(&selected.0, &past, &p_node, cfg.alpha, selected.1));
    assert_ne!(selected.3, exact);
    assert!((selected.3 - exact).abs() < 1e-3, "{} vs {exact}", selected.3);

    // What the sweep cost, as a count: candidates that had already lost
    // were dropped before the cap, and the count is a function of the
    // inputs alone.
    let candidates = (cfg.outer_k * cfg.inner_r) as u64;
    assert!(res.lambda2_iterations >= SPARSE_L2_MAX_ITERS as u64, "the winner ran to the cap");
    assert!(
        res.lambda2_iterations < candidates * SPARSE_L2_MAX_ITERS as u64,
        "{} steps for {candidates} candidates: nothing was abandoned",
        res.lambda2_iterations
    );
    assert_eq!(production(&cfg, &past, &times).lambda2_iterations, res.lambda2_iterations);
    assert_eq!(res.exact_solves, 0, "no Jacobi past the threshold");
}

/// Heterogeneous iteration times drawn from `seed`: a slow tier on about
/// a fifth of the directed edges, jitter on all of them.
fn seeded_times(topo: &Topology, seed: u64) -> Matrix {
    let n = topo.len();
    let mut t = Matrix::zeros(n, n);
    for i in 0..n {
        for &j in topo.neighbors(i) {
            let mut z = (seed << 32 | (i * n + j) as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            t[(i, j)] = if z.is_multiple_of(5) { 1.0 + 2.0 * u } else { 0.1 + 0.3 * u };
        }
    }
    t
}

fn ring_with_chords(n: usize, stride: usize) -> Topology {
    let mut topo = Topology::ring(n);
    for i in (0..n).step_by(stride) {
        topo.set_edge(i, (i + n / 2) % n, true);
    }
    topo
}

#[test]
fn lanes_and_early_abandon_select_what_the_exhaustive_sweep_selects() {
    // Past the threshold production scores candidates a batch at a time
    // and drops a lane once its estimate shows it has lost; the reference
    // scores every candidate to the cap, alone. Same selection, bit for
    // bit, on the fabric shapes the scale experiments and the fault plans
    // produce between n = 65 and n = 160, under seeded link times.
    let fabrics: Vec<(&str, Topology)> = vec![
        ("torus 5x13", Topology::torus(5, 13)),
        ("torus 9x9", Topology::torus(9, 9)),
        ("torus 10x16", Topology::torus(10, 16)),
        ("ring 70 + chords", ring_with_chords(70, 7)),
        ("ring 128 + chords", ring_with_chords(128, 4)),
        ("random 65", Topology::random_connected(65, 0.04, 5)),
        ("random 96", Topology::random_connected(96, 0.03, 9)),
        ("random 150", Topology::random_connected(150, 0.02, 2)),
    ];
    // Two landscapes: on the first the winner comes early in the
    // row-major enumeration, on the second (a lax ε, a fine ρ grid) late.
    let searches = [
        coarse_search(0.05),
        PolicySearchConfig {
            outer_k: 6,
            inner_r: 2,
            epsilon: 0.5,
            ..PolicySearchConfig::new(0.02)
        },
    ];
    let mut winners = Vec::new();
    let (mut steps, mut exhaustive_steps) = (0u64, 0u64);
    for (label, topo) in &fabrics {
        assert!(topo.is_connected() && (65..=160).contains(&topo.len()), "{label}");
        for seed in 0..3u64 {
            let times = seeded_times(topo, seed);
            for cfg in &searches {
                let res = production(cfg, topo, &times);
                let (position, feasible, reference) =
                    reference_search(cfg, &times, topo, power).expect("reference feasible");
                assert_eq!(selection(&res), reference, "{label}, seed {seed}, K = {}", cfg.outer_k);
                winners.push((position, feasible));
                steps += res.lambda2_iterations;
                exhaustive_steps += (feasible * SPARSE_L2_MAX_ITERS) as u64;
            }
        }
    }
    // The table must exercise what the lanes add, wherever the winner
    // sits in Algorithm 3's enumeration: at its head, near it, and in its
    // last third — production opens with the first t̄ column from the top
    // ρ row, so each of those is met in a different batch, under a
    // different ceiling. And candidates were in fact abandoned, or none
    // of this was tested.
    assert!(winners.iter().any(|&(at, _)| at == 0));
    assert!(winners.iter().any(|&(at, _)| (1..4).contains(&at)), "{winners:?}");
    assert!(winners.iter().any(|&(at, of)| 3 * at >= 2 * of), "{winners:?}");
    assert!(steps < exhaustive_steps, "{steps} of {exhaustive_steps} steps");

    // The grid sessions run (10 × 10): two dozen batches, most of the
    // sweep abandoned.
    let (cfg, topo) = (PolicySearchConfig::new(0.05), Topology::torus(8, 9));
    let times = synthetic_times(&topo);
    let res = production(&cfg, &topo, &times);
    let (_, feasible, reference) =
        reference_search(&cfg, &times, &topo, power).expect("reference feasible");
    assert_eq!(selection(&res), reference, "default grid");
    assert!(
        2 * res.lambda2_iterations < (feasible * SPARSE_L2_MAX_ITERS) as u64,
        "{} steps for {feasible} candidates",
        res.lambda2_iterations
    );
}

#[test]
fn the_screen_selects_what_the_exhaustive_jacobi_sweep_selects() {
    // Up to the threshold production scores a candidate with Jacobi only
    // if a Lanczos lower bound on its λ₂ cannot place it above the
    // incumbent's ceiling; the reference scores every candidate. Same
    // selection, bit for bit, on the fabric shapes of the registry and the
    // scale experiments from n = 8 to the threshold itself, under seeded
    // link times.
    let fabrics: Vec<(&str, Topology)> = vec![
        ("K8", Topology::fully_connected(8)),
        ("K16", Topology::fully_connected(16)),
        ("ring 8", Topology::ring(8)),
        ("ring 33", Topology::ring(33)),
        ("star 9", Topology::star(9, 0)),
        ("torus 4x4", Topology::torus(4, 4)),
        ("torus 6x6", Topology::torus(6, 6)),
        ("torus 8x8", Topology::torus(8, 8)),
        ("ring 64 + chords", ring_with_chords(64, 4)),
        ("random 20", Topology::random_connected(20, 0.15, 3)),
        ("random 48", Topology::random_connected(48, 0.06, 7)),
        ("random 64", Topology::random_connected(64, 0.05, 11)),
    ];
    // The two landscapes of the lanes' table, the grid sessions run
    // (10 × 10) at the two learning rates of the registry, and a long t̄
    // row: `T_convergence` falls with ρ on these fabrics, so the winner
    // opens the last feasible row and what follows it is what is left of
    // that row — more than a 10-wide row can hold only here.
    let searches = [
        coarse_search(0.05),
        PolicySearchConfig {
            outer_k: 6,
            inner_r: 2,
            epsilon: 0.5,
            ..PolicySearchConfig::new(0.02)
        },
        PolicySearchConfig::new(0.05),
        PolicySearchConfig::new(0.1),
        PolicySearchConfig { outer_k: 3, inner_r: 30, ..PolicySearchConfig::new(0.05) },
    ];
    // Per search: the winner's row-major position among the feasible
    // candidates, their number, and the Jacobi solves production paid for.
    let mut table = Vec::new();
    for (label, topo) in &fabrics {
        assert!(topo.is_connected() && topo.len() <= DENSE_CONTROL_THRESHOLD, "{label}");
        for seed in 0..3u64 {
            let times = seeded_times(topo, seed);
            for cfg in &searches {
                let res = production(cfg, topo, &times);
                let (position, feasible, reference) =
                    reference_search(cfg, &times, topo, jacobi).expect("reference feasible");
                assert_eq!(
                    selection(&res),
                    reference,
                    "{label}, seed {seed}, K = {}, α = {}",
                    cfg.outer_k,
                    cfg.alpha
                );
                table.push((position, feasible, res.exact_solves as usize));
                // Visited best first, the `fleet64` fabric's winner is
                // among the first candidates scored and nearly all the
                // rest is screened (row-major: 7–10 solves a search).
                assert!(
                    *label != "torus 8x8" || res.exact_solves <= 3,
                    "{label}, seed {seed}, K = {}: {} Jacobi solves",
                    cfg.outer_k,
                    res.exact_solves
                );
            }
        }
    }
    // The table must exercise what the screen adds. A winner in the last
    // third of the enumeration: a row-major sweep would have built every
    // ceiling before it from an incumbent that lost. A winner with a long
    // screened tail: the tightest ceiling of the sweep dropped ten
    // candidates or more. And the screen carries the sweep: under a tenth
    // of the feasible candidates reach Jacobi.
    assert!(table.iter().any(|&(at, of, _)| 3 * at >= 2 * of), "{table:?}");
    assert!(table.iter().any(|&(at, of, solves)| of >= at + solves + 10), "{table:?}");
    let (feasible, solves) =
        table.iter().fold((0, 0), |(f, s), &(_, of, solves)| (f + of, s + solves));
    assert!(10 * solves < feasible, "{solves} Jacobi solves for {feasible} feasible candidates");
}
