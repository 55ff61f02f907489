//! Graph builders shared by the λ₂ suites.

use netmax_linalg::Matrix;

/// Undirected edge list of a connected graph on `n` nodes, built from a
/// deterministic spanning tree (node k attaches to `parents[k-1] % k`)
/// plus any extra pairs selected by `extra`.
pub fn connected_edges(n: usize, parents: &[usize], extra: &[u8]) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for k in 1..n {
        let p = parents[k - 1] % k;
        edges.push((p, k));
    }
    let mut idx = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let tree_edge = edges.contains(&(i, j));
            if idx < extra.len() && extra[idx] == 1 && !tree_edge {
                edges.push((i, j));
            }
            idx += 1;
        }
    }
    edges
}

/// Metropolis-Hastings gossip matrix over an edge list: symmetric, doubly
/// stochastic, zero outside the graph pattern (plus the diagonal).
pub fn metropolis(n: usize, edges: &[(usize, usize)]) -> Matrix {
    let mut deg = vec![0usize; n];
    for &(i, j) in edges {
        deg[i] += 1;
        deg[j] += 1;
    }
    let mut m = Matrix::zeros(n, n);
    for &(i, j) in edges {
        let w = 1.0 / (deg[i].max(deg[j]) as f64 + 1.0);
        m[(i, j)] = w;
        m[(j, i)] = w;
    }
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)]).sum();
        m[(i, i)] = 1.0 - off;
    }
    m
}
