//! Seeded mini-batch sampling.
//!
//! Each worker node samples batches from its own shard (`D_{i,n}` sampled
//! from `D_i` in the paper's Eq. 5). The sampler reshuffles the shard at
//! each epoch boundary, which is both what the reference PyTorch loaders
//! do and what keeps epoch accounting exact.

use netmax_json::{codec, CodecError, FromJson, Json, JsonError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Epoch-aware shuffling batch sampler over a fixed set of example indices.
#[derive(Debug, Clone)]
pub struct BatchSampler {
    indices: Vec<usize>,
    batch_size: usize,
    cursor: usize,
    epoch: u64,
    samples_drawn: u64,
    rng: StdRng,
}

impl BatchSampler {
    /// Creates a sampler over `indices` with the given batch size.
    ///
    /// # Panics
    /// Panics if `indices` is empty or `batch_size == 0`.
    pub fn new(indices: Vec<usize>, batch_size: usize, seed: u64) -> Self {
        assert!(!indices.is_empty(), "sampler needs at least one example");
        assert!(batch_size > 0, "batch size must be positive");
        let mut s = Self {
            indices,
            batch_size,
            cursor: 0,
            epoch: 0,
            samples_drawn: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        s.indices.shuffle(&mut s.rng);
        s
    }

    /// Draws the next mini-batch (clipped at the epoch boundary; a new
    /// epoch reshuffles). Returns a view into the sampler's shuffle order —
    /// no allocation per draw — valid until the next call.
    pub fn next_batch(&mut self) -> &[usize] {
        if self.cursor >= self.indices.len() {
            self.indices.shuffle(&mut self.rng);
            self.cursor = 0;
            self.epoch += 1;
        }
        let start = self.cursor;
        let end = (start + self.batch_size).min(self.indices.len());
        self.cursor = end;
        self.samples_drawn += (end - start) as u64;
        &self.indices[start..end]
    }

    /// Completed epochs plus the fraction of the current one.
    pub fn epochs_elapsed(&self) -> f64 {
        self.samples_drawn as f64 / self.indices.len() as f64
    }

    /// Number of examples in the shard.
    pub fn shard_len(&self) -> usize {
        self.indices.len()
    }

    /// The shard's example indices (restore-time validation hook).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Streams the sampler's full state — the current shuffle order,
    /// cursor, epoch counters, and RNG stream — into `out` in the binary
    /// codec's wire form, for checkpoint/resume: one object, straight from
    /// the typed state (no intermediate [`Json`], no allocation beyond
    /// `out`'s own growth). [`BatchSampler::restore`] rebuilds, from the
    /// decoded object, a sampler whose future draws are byte-identical to
    /// this one's.
    pub fn encode_checkpoint_into(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        codec::write_obj_header(out, 6)?;
        codec::write_key(out, "indices")?;
        codec::write_usize_slice(out, &self.indices)?;
        codec::write_key(out, "batch_size")?;
        codec::write_int(out, self.batch_size as i128);
        codec::write_key(out, "cursor")?;
        codec::write_int(out, self.cursor as i128);
        codec::write_key(out, "epoch")?;
        codec::write_int(out, self.epoch as i128);
        codec::write_key(out, "samples_drawn")?;
        codec::write_int(out, self.samples_drawn as i128);
        codec::write_key(out, "rng")?;
        codec::write_u64_slice(out, &self.rng.state())
    }

    /// Rebuilds a sampler from the decoded object
    /// [`BatchSampler::encode_checkpoint_into`] writes.
    pub fn restore(state: &Json) -> Result<Self, JsonError> {
        let indices: Vec<usize> = Vec::from_json(state.field("indices")?)?;
        if indices.is_empty() {
            return Err(JsonError::schema("sampler checkpoint has no indices".into()));
        }
        let rng_words: Vec<u64> = Vec::from_json(state.field("rng")?)?;
        let rng_state: [u64; 4] = rng_words
            .try_into()
            .map_err(|_| JsonError::schema("sampler rng state must have 4 words".into()))?;
        // A live generator can never reach the all-zero state; reject it
        // as a schema error rather than tripping the shim's assert.
        if rng_state.iter().all(|&w| w == 0) {
            return Err(JsonError::schema("sampler rng state must not be all-zero".into()));
        }
        let batch_size = usize::from_json(state.field("batch_size")?)?;
        if batch_size == 0 {
            return Err(JsonError::schema("sampler batch size must be positive".into()));
        }
        Ok(Self {
            indices,
            batch_size,
            cursor: usize::from_json(state.field("cursor")?)?,
            epoch: u64::from_json(state.field("epoch")?)?,
            samples_drawn: u64::from_json(state.field("samples_drawn")?)?,
            rng: StdRng::from_state(rng_state),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_example_each_epoch() {
        let mut s = BatchSampler::new((0..10).collect(), 3, 1);
        let mut seen: Vec<usize> = Vec::new();
        for _ in 0..4 {
            seen.extend(s.next_batch());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!((s.epochs_elapsed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batches_have_requested_size_mid_epoch() {
        let mut s = BatchSampler::new((0..100).collect(), 32, 2);
        assert_eq!(s.next_batch().len(), 32);
        assert_eq!(s.next_batch().len(), 32);
        assert_eq!(s.next_batch().len(), 32);
        assert_eq!(s.next_batch().len(), 4); // epoch tail
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = BatchSampler::new((0..20).collect(), 5, 9);
        let mut b = BatchSampler::new((0..20).collect(), 5, 9);
        for _ in 0..8 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let mut a = BatchSampler::new((0..23).collect(), 4, 7);
        for _ in 0..9 {
            a.next_batch();
        }
        let mut bytes = Vec::new();
        a.encode_checkpoint_into(&mut bytes).unwrap();
        let mut b = BatchSampler::restore(&codec::decode_value(&bytes).unwrap()).unwrap();
        assert_eq!(b.epochs_elapsed(), a.epochs_elapsed());
        for _ in 0..20 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
    }

    #[test]
    fn binary_encode_matches_generic_codec_on_checkpoint_json() {
        use netmax_json::ToJson;
        let mut s = BatchSampler::new((0..23).collect(), 4, 7);
        for _ in 0..9 {
            s.next_batch();
        }
        let mut typed = Vec::new();
        s.encode_checkpoint_into(&mut typed).unwrap();
        // The same state, spelled out as the Json object `restore` reads.
        let document = Json::obj([
            ("indices", s.indices.to_json()),
            ("batch_size", s.batch_size.to_json()),
            ("cursor", s.cursor.to_json()),
            ("epoch", s.epoch.to_json()),
            ("samples_drawn", s.samples_drawn.to_json()),
            ("rng", s.rng.state().to_vec().to_json()),
        ]);
        let mut generic = Vec::new();
        codec::encode_value(&mut generic, &document).unwrap();
        assert_eq!(typed, generic);
        // And the decoded bytes restore an identical sampler.
        let mut back = BatchSampler::restore(&codec::decode_value(&typed).unwrap()).unwrap();
        for _ in 0..20 {
            assert_eq!(s.next_batch(), back.next_batch());
        }
    }

    #[test]
    fn epochs_accumulate_fractionally() {
        let mut s = BatchSampler::new((0..8).collect(), 2, 0);
        s.next_batch();
        assert!((s.epochs_elapsed() - 0.25).abs() < 1e-12);
        for _ in 0..7 {
            s.next_batch();
        }
        assert!((s.epochs_elapsed() - 2.0).abs() < 1e-12);
    }
}
