//! Communication topologies.
//!
//! The paper models the worker fleet as an undirected graph `G = (V, E)`
//! with the connection indicator `d_{i,m}` (§II-A, Table I). This module
//! provides that indicator plus the concrete shapes used across the
//! evaluation: fully-connected gossip graphs, rings (the Allreduce-SGD and
//! Prague collectives), and the placement helper that maps worker nodes to
//! physical servers (intra- vs inter-machine links of Fig. 3).


/// Length up to which the part of a row [`Topology::is_edge`] still has
/// to search is scanned instead of bisected (measured on the 4-entry
/// rows of the torus fleets: 2.3 against 5.0 ns a probe).
const SCAN_ROW_LEN: usize = 16;

/// An undirected communication graph over `n` worker nodes, stored as
/// per-node sorted neighbour lists — O(E) memory, so a 4 096-node torus
/// costs kilobytes, not the 16 MB of an n² indicator matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `nbrs[i]` = neighbours of `i` in ascending order (`d_{i,m} = 1`
    /// iff `m` is in it), maintained by [`Topology::set_edge`] so
    /// [`Topology::neighbors`] is an allocation-free slice lookup on the
    /// peer-selection hot path.
    nbrs: Vec<Vec<usize>>,
}

impl Topology {
    /// Creates an edgeless topology over `n` nodes.
    pub fn empty(n: usize) -> Self {
        assert!(n > 0, "topology needs at least one node");
        Self { nbrs: vec![Vec::new(); n] }
    }

    /// Fully-connected graph (every distinct pair is an edge). This is the
    /// shape assumed by the paper's approximation-ratio analysis
    /// (Appendix B).
    pub fn fully_connected(n: usize) -> Self {
        let mut t = Self::empty(n);
        for i in 0..n {
            for m in 0..n {
                if i != m {
                    t.set_edge(i, m, true);
                }
            }
        }
        t
    }

    /// Ring graph `0 — 1 — … — (n-1) — 0`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2, "ring needs at least two nodes");
        let mut t = Self::empty(n);
        for i in 0..n {
            t.set_edge(i, (i + 1) % n, true);
        }
        t
    }

    /// Star graph with `center` connected to everyone else (the
    /// parameter-server communication shape).
    pub fn star(n: usize, center: usize) -> Self {
        assert!(center < n, "star center out of range");
        let mut t = Self::empty(n);
        for i in 0..n {
            if i != center {
                t.set_edge(i, center, true);
            }
        }
        t
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nbrs.len()
    }

    /// `true` when the topology has exactly one node (and hence no edges).
    #[inline]
    pub fn is_empty(&self) -> bool {
        // A topology always has ≥ 1 node; "empty" here means no possible edge.
        self.nbrs.len() == 1
    }

    /// The connection indicator `d_{i,m}` of the paper: 1.0 if `i` and `m`
    /// are neighbours, 0.0 otherwise (diagonal is always 0).
    #[inline]
    pub fn d(&self, i: usize, m: usize) -> f64 {
        if self.is_edge(i, m) {
            1.0
        } else {
            0.0
        }
    }

    /// `true` iff `{i, m}` is an edge.
    ///
    /// A row is sorted, distinct and never holds `i`, so its `k`-th entry
    /// is at least `k` (`k + 1` once past `i`): `m` can sit no further
    /// right than position `m` (`m − 1` if `m > i`). The entry there
    /// settles most probes at once — on the fully connected graph of the
    /// paper's setting every one, which matters because the row LPs and
    /// `Y_P` assembly ask `d_{i,m}` several times per pair per candidate —
    /// and only a larger entry sends the search left.
    #[inline]
    pub fn is_edge(&self, i: usize, m: usize) -> bool {
        if i == m {
            return false;
        }
        let row = &self.nbrs[i];
        let reach = row.len().min(m + usize::from(m < i));
        match row.get(..reach).and_then(<[usize]>::split_last) {
            None => false,
            Some((&v, _)) if v <= m => v == m,
            Some((_, left)) if left.len() <= SCAN_ROW_LEN => left.contains(&m),
            Some((_, left)) => left.binary_search(&m).is_ok(),
        }
    }

    /// Adds or removes the undirected edge `{i, m}`.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or a self-loop.
    pub fn set_edge(&mut self, i: usize, m: usize, present: bool) {
        assert!(i < self.len() && m < self.len(), "set_edge: node out of range");
        assert_ne!(i, m, "set_edge: self-loops are not part of G");
        for (a, b) in [(i, m), (m, i)] {
            match self.nbrs[a].binary_search(&b) {
                Ok(pos) if !present => {
                    self.nbrs[a].remove(pos);
                }
                Err(pos) if present => self.nbrs[a].insert(pos, b),
                _ => {}
            }
        }
    }

    /// Neighbours of node `i` in ascending order (a cached slice; no
    /// allocation).
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.nbrs[i]
    }

    /// Node degree.
    pub fn degree(&self, i: usize) -> usize {
        self.nbrs[i].len()
    }

    /// `true` if the graph is connected (Assumption 1 of the paper).
    pub fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.len()
    }

    /// Total number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.nbrs.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// 2-D torus over an `rows × cols` grid (`rows·cols` nodes): each node
    /// connects to its four grid neighbours with wrap-around. A standard
    /// sparse D-PSGD topology for larger fleets.
    ///
    /// # Panics
    /// Panics unless both dimensions are ≥ 2 (smaller wraps create
    /// self-loops or duplicate edges).
    pub fn torus(rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "torus needs both dimensions ≥ 2");
        let n = rows * cols;
        let mut t = Self::empty(n);
        let id = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                t.set_edge(id(r, c), id((r + 1) % rows, c), true);
                t.set_edge(id(r, c), id(r, (c + 1) % cols), true);
            }
        }
        t
    }

    /// Random connected graph: a random spanning tree (guaranteeing
    /// connectivity, Assumption 1) plus each remaining pair independently
    /// with probability `extra_p`. Deterministic in `seed`.
    ///
    /// # Panics
    /// Panics unless `n ≥ 2` and `0 ≤ extra_p ≤ 1`.
    pub fn random_connected(n: usize, extra_p: f64, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        assert!(n >= 2, "need at least two nodes");
        assert!((0.0..=1.0).contains(&extra_p), "probability out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Self::empty(n);
        // Random spanning tree: shuffle nodes, attach each to a random
        // earlier node (uniform random recursive tree on a permutation).
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        for k in 1..n {
            let parent = order[rng.gen_range(0..k)];
            t.set_edge(order[k], parent, true);
        }
        for i in 0..n {
            for m in (i + 1)..n {
                if !t.is_edge(i, m) && rng.gen_bool(extra_p) {
                    t.set_edge(i, m, true);
                }
            }
        }
        debug_assert!(t.is_connected());
        t
    }
}

/// Maps worker nodes to physical servers, reproducing the paper's
/// deployments ("8 worker nodes instantiated in two GPU servers. Each
/// server hosts 4 worker nodes", §V-F).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `server_of[i]` = index of the server hosting worker `i`.
    pub server_of: Vec<usize>,
}

impl Placement {
    /// Distributes `n` workers across `servers` machines as evenly as
    /// possible, filling lower-indexed servers first.
    pub fn spread(n: usize, servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        let per = n.div_ceil(servers);
        Self { server_of: (0..n).map(|i| (i / per).min(servers - 1)).collect() }
    }

    /// Builds a placement from explicit per-server worker counts.
    pub fn from_counts(counts: &[usize]) -> Self {
        let mut server_of = Vec::new();
        for (s, &c) in counts.iter().enumerate() {
            server_of.extend(std::iter::repeat_n(s, c));
        }
        Self { server_of }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.server_of.len()
    }

    /// `true` when no workers are placed.
    pub fn is_empty(&self) -> bool {
        self.server_of.is_empty()
    }

    /// `true` iff workers `i` and `m` share a server (fast, intra-machine
    /// communication in Fig. 3).
    pub fn same_server(&self, i: usize, m: usize) -> bool {
        self.server_of[i] == self.server_of[m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_shape() {
        let t = Topology::fully_connected(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.num_edges(), 6);
        assert!(t.is_connected());
        for i in 0..4 {
            assert_eq!(t.degree(i), 3);
            assert!(!t.is_edge(i, i));
            assert_eq!(t.d(i, (i + 1) % 4), 1.0);
        }
    }

    #[test]
    fn is_edge_agrees_with_the_lists_on_every_shape() {
        // Complete rows (settled by the entry at the bound), 2- and
        // 4-entry rows, a hub row, and half-dense random rows long enough
        // to be bisected.
        let shapes = [
            Topology::fully_connected(40),
            Topology::ring(9),
            Topology::torus(5, 8),
            Topology::star(12, 5),
            Topology::random_connected(60, 0.5, 3),
            Topology::random_connected(25, 0.1, 4),
            Topology::empty(3),
        ];
        for t in shapes {
            for i in 0..t.len() {
                for m in 0..t.len() {
                    assert_eq!(t.is_edge(i, m), t.neighbors(i).contains(&m), "({i}, {m})");
                }
                assert_eq!(t.degree(i), t.neighbors(i).len());
            }
        }
    }

    #[test]
    fn ring_shape() {
        let t = Topology::ring(5);
        assert_eq!(t.num_edges(), 5);
        assert!(t.is_connected());
        assert_eq!(t.neighbors(0), vec![1, 4]);
        assert_eq!(t.degree(2), 2);
        assert_eq!(t.d(0, 2), 0.0);
    }

    #[test]
    fn star_shape() {
        let t = Topology::star(5, 0);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.degree(0), 4);
        assert_eq!(t.degree(3), 1);
        assert!(t.is_connected());
    }

    #[test]
    fn connectivity_detection() {
        let mut t = Topology::empty(4);
        t.set_edge(0, 1, true);
        t.set_edge(2, 3, true);
        assert!(!t.is_connected());
        t.set_edge(1, 2, true);
        assert!(t.is_connected());
    }

    #[test]
    fn edge_removal() {
        let mut t = Topology::fully_connected(3);
        t.set_edge(0, 1, false);
        assert!(!t.is_edge(0, 1));
        assert!(!t.is_edge(1, 0));
        assert_eq!(t.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut t = Topology::empty(3);
        t.set_edge(1, 1, true);
    }

    #[test]
    fn torus_shape() {
        let t = Topology::torus(3, 4);
        assert_eq!(t.len(), 12);
        assert!(t.is_connected());
        // Every torus node has exactly 4 neighbours (distinct for ≥3×3...
        // here 3×4 with wrap: check a middle node).
        assert_eq!(t.degree(5), 4);
        // Wrap-around edges exist.
        assert!(t.is_edge(0, 8)); // (0,0) - (2,0) via row wrap
        assert!(t.is_edge(0, 3)); // (0,0) - (0,3) via col wrap
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        for seed in 0..5 {
            let t = Topology::random_connected(10, 0.2, seed);
            assert!(t.is_connected(), "seed {seed}");
            assert!(t.num_edges() >= 9, "at least a spanning tree");
        }
        let a = Topology::random_connected(10, 0.3, 7);
        let b = Topology::random_connected(10, 0.3, 7);
        assert_eq!(a, b);
        let c = Topology::random_connected(10, 0.3, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_connected_extra_edges_scale_with_p() {
        let sparse = Topology::random_connected(12, 0.0, 1);
        let dense = Topology::random_connected(12, 0.9, 1);
        assert_eq!(sparse.num_edges(), 11); // exactly the spanning tree
        assert!(dense.num_edges() > sparse.num_edges());
    }

    #[test]
    fn placement_spread_and_counts() {
        let p = Placement::spread(8, 2);
        assert!(p.same_server(0, 3));
        assert!(!p.same_server(3, 4));
        assert!(p.same_server(4, 7));

        let p = Placement::from_counts(&[3, 5]);
        assert_eq!(p.len(), 8);
        assert!(p.same_server(0, 2));
        assert!(!p.same_server(2, 3));

        // Paper §V-A runs 16 workers across 4 servers.
        let p = Placement::spread(16, 4);
        assert_eq!(p.len(), 16);
        assert!(p.same_server(0, 3));
        assert!(!p.same_server(3, 4));
        assert!(p.same_server(12, 15));
    }
}
