//! Data partitioning across worker nodes.
//!
//! The paper evaluates three regimes:
//!
//! * **Uniform** (§V-B–E): the dataset is split evenly.
//! * **Segmented non-uniform** (§V-F): the dataset is cut into `S` equal
//!   segments and node `i` receives `segments[i]` of them; batch size is
//!   proportional to the segment count ("The batch size of each worker
//!   node is set to 64 × the segment number").
//! * **Non-IID label removal** (Tables IV and VII): each node drops all
//!   examples of a per-node list of "lost labels".

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A partition of dataset example indices across worker nodes.
#[derive(Debug, Clone)]
pub struct Partition {
    per_node: Vec<Vec<usize>>,
    /// Relative data share of each node (segments, or example fraction),
    /// used to scale per-node batch sizes like the paper does.
    weights: Vec<f64>,
}

impl Partition {
    /// Splits `dataset` evenly across `nodes` workers (shuffled, seeded).
    pub fn uniform(dataset: &Dataset, nodes: usize, seed: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        let mut idx: Vec<usize> = (0..dataset.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        // Shard `j` is every `nodes`-th index from `j`: an exact-size
        // iterator, so each shard is allocated once at its final length.
        let per_node =
            (0..nodes).map(|j| idx.iter().skip(j).step_by(nodes).copied().collect()).collect();
        Self { per_node, weights: vec![1.0; nodes] }
    }

    /// Segmented split: the dataset is cut into `segments.iter().sum()`
    /// equal segments and node `i` gets `segments[i]` of them. Mirrors the
    /// paper's ⟨1,1,1,1,2,1,2,1⟩-style distributions of §V-F.
    pub fn segmented(dataset: &Dataset, segments: &[usize], seed: u64) -> Self {
        assert!(!segments.is_empty() && segments.iter().all(|&s| s > 0));
        let total: usize = segments.iter().sum();
        let mut idx: Vec<usize> = (0..dataset.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let seg_len = dataset.len() / total;
        assert!(seg_len > 0, "dataset too small for {total} segments");

        let mut per_node = Vec::with_capacity(segments.len());
        let mut cursor = 0usize;
        for (node, &s) in segments.iter().enumerate() {
            let take = if node + 1 == segments.len() {
                // Last node absorbs the rounding remainder.
                dataset.len() - cursor
            } else {
                s * seg_len
            };
            per_node.push(idx[cursor..cursor + take].to_vec());
            cursor += take;
        }
        let weights = segments.iter().map(|&s| s as f64).collect();
        Self { per_node, weights }
    }

    /// Non-IID label removal: node `i` keeps only examples whose label is
    /// **not** in `lost_labels[i]`. This is exactly the construction of
    /// Tables IV and VII.
    pub fn label_skew(dataset: &Dataset, lost_labels: &[Vec<u32>]) -> Self {
        assert!(!lost_labels.is_empty());
        let per_node: Vec<Vec<usize>> = lost_labels
            .iter()
            .map(|lost| dataset.indices_with_labels(|l| !lost.contains(&l)))
            .collect();
        let total: usize = per_node.iter().map(Vec::len).sum();
        let mean = total as f64 / per_node.len() as f64;
        let weights = per_node.iter().map(|p| p.len() as f64 / mean).collect();
        Self { per_node, weights }
    }

    /// The paper's Table IV MNIST distribution: 8 workers on two servers,
    /// each missing three digit labels.
    pub fn paper_table4(dataset: &Dataset) -> Self {
        let lost: Vec<Vec<u32>> = vec![
            vec![0, 1, 2], // w0, server 1
            vec![0, 1, 3], // w1
            vec![0, 1, 4], // w2
            vec![0, 1, 5], // w3
            vec![5, 6, 7], // w4, server 2
            vec![5, 6, 8], // w5
            vec![5, 6, 9], // w6
            vec![5, 6, 0], // w7
        ];
        Self::label_skew(dataset, &lost)
    }

    /// The paper's Table VII cross-cloud distribution: six regions, each
    /// missing three labels.
    pub fn paper_table7(dataset: &Dataset) -> Self {
        let lost: Vec<Vec<u32>> = vec![
            vec![0, 1, 2], // US West
            vec![1, 2, 3], // US East
            vec![2, 3, 4], // Ireland
            vec![4, 5, 6], // Mumbai
            vec![5, 6, 7], // Singapore
            vec![6, 7, 8], // Tokyo
        ];
        Self::label_skew(dataset, &lost)
    }

    /// The §V-F 8-node segmented pattern ⟨1,1,1,1,2,1,2,1⟩.
    pub fn paper_8node_segments(dataset: &Dataset, seed: u64) -> Self {
        Self::segmented(dataset, &[1, 1, 1, 1, 2, 1, 2, 1], seed)
    }

    /// The §V-F 16-node segmented pattern: first server's 8 nodes get one
    /// segment each, second server's get ⟨2,1,2,1,2,1,2,1⟩.
    pub fn paper_16node_segments(dataset: &Dataset, seed: u64) -> Self {
        Self::segmented(
            dataset,
            &[1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1],
            seed,
        )
    }

    /// Number of worker nodes.
    pub fn num_nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Example indices owned by node `i`.
    pub fn node(&self, i: usize) -> &[usize] {
        &self.per_node[i]
    }

    /// Hands the shards over, node by node, to whoever will sample from
    /// them — the partition's one large allocation moves, not copies.
    pub fn into_shards(self) -> Vec<Vec<usize>> {
        self.per_node
    }

    /// Relative data weight of node `i` (≥ 0; 1.0 = average share).
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Per-node batch size following the paper's rule
    /// `batch = base × segment-count` (§V-F). For uniform partitions this
    /// is just `base`.
    pub fn batch_size(&self, i: usize, base: usize) -> usize {
        ((base as f64 * self.weights[i]).round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::mnist_like;

    #[test]
    fn uniform_splits_evenly() {
        let (train, _) = mnist_like(1);
        let p = Partition::uniform(&train, 8, 99);
        assert_eq!(p.num_nodes(), 8);
        let sizes: Vec<usize> = (0..8).map(|i| p.node(i).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), train.len());
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // No index appears twice.
        let mut all: Vec<usize> = (0..8).flat_map(|i| p.node(i).to_vec()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), train.len());
    }

    #[test]
    fn segmented_respects_ratios() {
        let (train, _) = mnist_like(2);
        let p = Partition::segmented(&train, &[1, 2, 1], 5);
        let n0 = p.node(0).len() as f64;
        let n1 = p.node(1).len() as f64;
        assert!((n1 / n0 - 2.0).abs() < 0.1, "ratio {} should be ~2", n1 / n0);
        assert_eq!(p.per_node.iter().map(Vec::len).sum::<usize>(), train.len());
        assert_eq!(p.batch_size(0, 64), 64);
        assert_eq!(p.batch_size(1, 64), 128);
    }

    #[test]
    fn paper_8node_pattern() {
        let (train, _) = mnist_like(3);
        let p = Partition::paper_8node_segments(&train, 1);
        assert_eq!(p.num_nodes(), 8);
        // Nodes 4 and 6 have double share.
        assert_eq!(p.batch_size(4, 64), 128);
        assert_eq!(p.batch_size(5, 64), 64);
        assert_eq!(p.batch_size(6, 64), 128);
    }

    #[test]
    fn label_skew_removes_labels() {
        let (train, _) = mnist_like(4);
        let p = Partition::paper_table4(&train);
        assert_eq!(p.num_nodes(), 8);
        // w0 must have no examples labelled 0, 1 or 2.
        for &i in p.node(0) {
            assert!(![0, 1, 2].contains(&train.label(i)));
        }
        // w7 must have no 5, 6 or 0 but must still see label 1.
        assert!(p.node(7).iter().any(|&i| train.label(i) == 1));
        for &i in p.node(7) {
            assert!(![5, 6, 0].contains(&train.label(i)));
        }
    }

    #[test]
    fn table7_has_six_regions_covering_all_labels() {
        let (train, _) = mnist_like(5);
        let p = Partition::paper_table7(&train);
        assert_eq!(p.num_nodes(), 6);
        // Union of nodes must cover every label (9 is never lost).
        let mut covered = [false; 10];
        for n in 0..6 {
            for &i in p.node(n) {
                covered[train.label(i) as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "some label lost everywhere");
    }

    #[test]
    fn weights_reflect_share() {
        let (train, _) = mnist_like(6);
        let p = Partition::uniform(&train, 4, 0);
        for i in 0..4 {
            assert_eq!(p.weight(i), 1.0);
        }
    }
}
