//! The checkpoint form: `session-checkpoint/v3` containers and
//! node-granular incremental deltas — the only form the engine writes or
//! restores.
//!
//! A v3 document is a [`netmax_json::codec`] container
//! (`NMXB` magic + schema tag) with two sections: `meta`, the session
//! state except the per-node objects (generic-value-encoded), and
//! `nodes`, one length-prefixed blob per node.
//! [`Session::restore_bytes`](super::Session::restore_bytes) is the one
//! restore: it decodes `meta`, then decodes and applies the blobs one
//! node at a time — no fleet-sized [`Json`] tree — and derives the
//! membership flags from the fault plan's applied transitions, rejecting
//! a stored copy that disagrees. [`decode_session_v3`] splices the
//! blobs back into `env.nodes` to give the whole state as one readable
//! document, for the tests and the benchmark; restoring never builds it.
//!
//! There is one encoder: the [`CheckpointScratch`] streams node state
//! straight from the [`Environment`] through the codec's typed writers —
//! no per-node `Json`, no per-node allocation once the scratch buffers
//! are warm — and a full container is written once, at its exact size.
//!
//! Incremental snapshots (`session-delta/v1`) re-serialize only the
//! nodes whose encoded bytes changed since the previous snapshot taken
//! through the same scratch. Each delta records FNV-1a fingerprints of
//! the chain state before and after, and [`reconstruct_chain`] replays
//! `base + deltas` into bytes **bit-identical** to a full v3 snapshot
//! taken at the same point. Both ends hash each link once: the scratch
//! remembers its base's fingerprint, and the replay checks link k + 1's
//! `parent` against link k's already-verified `result`, splicing views
//! of the input documents rather than copies of the blobs.

use super::environment::{Environment, NodeState};
use netmax_json::{codec, CodecError, Json};

/// Schema tag of binary full-session checkpoint containers.
pub const SESSION_CHECKPOINT_SCHEMA_V3: &str = "netmax-core/session-checkpoint/v3";

/// Schema tag of binary incremental (delta) checkpoint containers.
pub const SESSION_DELTA_SCHEMA: &str = "netmax-core/session-delta/v1";

/// The serialized form of a session checkpoint. NMXB is the only one;
/// the enum survives solely because the frozen `benchmark/` package
/// passes `CheckpointFormat::Binary` to
/// [`Session::checkpoint_bytes`](super::Session::checkpoint_bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFormat {
    /// `session-checkpoint/v3` binary container.
    Binary,
}

// ---------------------------------------------------------------------
// Byte-level helpers (panic-free, no indexing).
// ---------------------------------------------------------------------

fn split_prefix<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    let (head, tail) = bytes.split_at_checked(n).ok_or(CodecError::Truncated)?;
    *bytes = tail;
    Ok(head)
}

fn read_u32(bytes: &mut &[u8]) -> Result<u32, CodecError> {
    let b: [u8; 4] = split_prefix(bytes, 4)?.try_into().map_err(|_| CodecError::Truncated)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(bytes: &mut &[u8]) -> Result<u64, CodecError> {
    let b: [u8; 8] = split_prefix(bytes, 8)?.try_into().map_err(|_| CodecError::Truncated)?;
    Ok(u64::from_le_bytes(b))
}

fn push_u32(out: &mut Vec<u8>, v: usize) -> Result<(), CodecError> {
    let v = u32::try_from(v).map_err(|_| CodecError::Length)?;
    out.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

fn push_u64(out: &mut Vec<u8>, v: usize) -> Result<(), CodecError> {
    let v = u64::try_from(v).map_err(|_| CodecError::Length)?;
    out.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

/// FNV-1a 64 over the node blobs (length-framed, so blob boundaries are
/// part of the digest). Chain links verify against this before a delta
/// applies — a delta spliced onto the wrong base is a typed error, not
/// silent corruption.
fn fingerprint<'a>(blobs: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for blob in blobs {
        for b in (blob.len() as u64).to_le_bytes() {
            eat(b);
        }
        for b in blob {
            eat(*b);
        }
    }
    h
}

/// Writes a full v3 container into `out`: the `meta` section, then the
/// `nodes` section — element count, one length-prefixed blob per node —
/// streamed from `blobs` with no intermediate payload buffer, and `out`
/// reserved at the container's exact size first. Shared by the encoder
/// and [`reconstruct_chain`], so both frame nodes identically.
fn write_session_v3<B: AsRef<[u8]>>(
    out: &mut Vec<u8>,
    meta: &[u8],
    blobs: &[B],
) -> Result<(), CodecError> {
    let nodes_len = 4 + blobs.iter().map(|b| 8 + b.as_ref().len()).sum::<usize>();
    let sections = [("meta", meta.len()), ("nodes", nodes_len)];
    out.reserve(codec::document_len(SESSION_CHECKPOINT_SCHEMA_V3, sections));
    codec::write_document_header(out, SESSION_CHECKPOINT_SCHEMA_V3, sections.len())?;
    codec::write_section_header(out, "meta", meta.len())?;
    out.extend_from_slice(meta);
    codec::write_section_header(out, "nodes", nodes_len)?;
    push_u32(out, blobs.len())?;
    for blob in blobs {
        push_u64(out, blob.as_ref().len())?;
        out.extend_from_slice(blob.as_ref());
    }
    Ok(())
}

/// Splits a `nodes` section payload back into per-node blob views.
fn split_nodes_payload(mut payload: &[u8]) -> Result<Vec<&[u8]>, CodecError> {
    let count = read_u32(&mut payload)? as usize;
    // Every blob carries an 8-byte length: a count the payload cannot
    // hold fails before anything is reserved for it.
    if count > payload.len() / 8 {
        return Err(CodecError::Length);
    }
    let mut blobs = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_u64(&mut payload)?;
        let len = usize::try_from(len).map_err(|_| CodecError::Length)?;
        blobs.push(split_prefix(&mut payload, len)?);
    }
    if !payload.is_empty() {
        return Err(CodecError::Trailing);
    }
    Ok(blobs)
}

// ---------------------------------------------------------------------
// Node encoding (the fast direct-from-environment path).
// ---------------------------------------------------------------------

/// Streams one node's checkpoint state in the binary codec's wire form,
/// straight from the typed state: the object [`decode_session_v3`] puts
/// in `env.nodes` and the session restore decodes one node at a time.
fn encode_node_binary(node: &NodeState, out: &mut Vec<u8>) -> Result<(), CodecError> {
    codec::write_obj_header(out, 7)?;
    codec::write_key(out, "params")?;
    codec::write_f32_slice(out, node.model.params())?;
    codec::write_key(out, "velocity")?;
    codec::write_f32_slice(out, node.opt.velocity())?;
    codec::write_key(out, "sampler")?;
    node.sampler.encode_checkpoint_into(out)?;
    codec::write_key(out, "clock")?;
    codec::write_f64_json(out, node.clock);
    codec::write_key(out, "comp_time_total")?;
    codec::write_f64_json(out, node.comp_time_total);
    codec::write_key(out, "comm_exposed_total")?;
    codec::write_f64_json(out, node.comm_exposed_total);
    codec::write_key(out, "local_steps")?;
    codec::write_int(out, i128::from(node.local_steps));
    Ok(())
}

// ---------------------------------------------------------------------
// The reusable scratch.
// ---------------------------------------------------------------------

/// Reusable buffers for periodic binary snapshots.
///
/// The per-node encode path allocates nothing once the buffers are warm:
/// each node's blob is rebuilt in place (capacity retained across
/// snapshots), the delta payload reuses its buffer, and emitting a
/// snapshot swaps the current blobs into the delta base instead of
/// copying. The `meta` document still passes through `Json`, and it is
/// not small: besides the recorder's samples it carries one driver
/// queue entry, one RNG stream and one membership flag per node, so it
/// grows with the fleet (on the n = 1 024 AD-PSGD torus it is 195 of a
/// 963 KiB snapshot — 156 KiB of driver queue, 37 KiB of environment
/// RNG streams — and 715 KiB as a `Json` tree). Only the model size
/// stays out of it.
#[derive(Debug, Default)]
pub struct CheckpointScratch {
    /// Per-node blobs of the snapshot being built.
    cur: Vec<Vec<u8>>,
    /// Per-node blobs of the last emitted snapshot — the state deltas
    /// diff against. Empty until a full binary snapshot seeds the chain.
    base: Vec<Vec<u8>>,
    /// Fingerprint of `base`, once a delta has needed it: a full snapshot
    /// clears it (so full and one-shot snapshots hash nothing), the first
    /// delta after it hashes the base, and every delta's `result`
    /// replaces it.
    base_fingerprint: Option<u64>,
    /// Encoded `meta` section.
    meta: Vec<u8>,
    /// Assembled delta `nodes` section payload.
    payload: Vec<u8>,
}

impl CheckpointScratch {
    /// A scratch with no buffers warmed and no delta base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a delta can be emitted (a prior full binary snapshot of a
    /// same-sized fleet seeded the chain).
    pub fn has_base(&self, num_nodes: usize) -> bool {
        !self.base.is_empty() && self.base.len() == num_nodes
    }

    /// Rebuilds every node blob in `cur` from the environment, reusing
    /// buffer capacity. Zero allocations in steady state (same fleet,
    /// same model shapes, warm buffers).
    fn encode_nodes(&mut self, env: &Environment) -> Result<(), CodecError> {
        if self.cur.len() != env.nodes.len() {
            self.cur.resize_with(env.nodes.len(), Vec::new);
        }
        for (buf, node) in self.cur.iter_mut().zip(env.nodes.iter()) {
            buf.clear();
            encode_node_binary(node, buf)?;
        }
        Ok(())
    }

    /// Encodes a full v3 snapshot into `out` (cleared first) and seeds /
    /// advances the delta chain state.
    ///
    /// Building block behind
    /// [`Session::checkpoint_binary`](super::Session::checkpoint_binary)
    /// (which supplies the real `meta` document); public so harnesses can
    /// drive the node-encoding path with a fixed meta — the
    /// counting-allocator test proves this call allocates nothing once
    /// the buffers are warm.
    pub fn encode_full(
        &mut self,
        meta: &Json,
        env: &Environment,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        self.meta.clear();
        codec::encode_value(&mut self.meta, meta)?;
        self.encode_nodes(env)?;
        out.clear();
        write_session_v3(out, &self.meta, &self.cur)?;
        std::mem::swap(&mut self.base, &mut self.cur);
        self.base_fingerprint = None;
        Ok(())
    }

    /// Encodes a delta snapshot into `out` (cleared first): only nodes
    /// whose encoded bytes differ from the chain state are included. The
    /// chain state advances to this snapshot. Building block behind
    /// [`Session::checkpoint_delta`](super::Session::checkpoint_delta).
    pub fn encode_delta(
        &mut self,
        meta: &Json,
        env: &Environment,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        if !self.has_base(env.nodes.len()) {
            return Err(CodecError::MissingSection("delta base".to_string()));
        }
        self.meta.clear();
        codec::encode_value(&mut self.meta, meta)?;
        self.encode_nodes(env)?;
        let parent = match self.base_fingerprint {
            Some(fp) => fp,
            None => fingerprint(self.base.iter().map(Vec::as_slice)),
        };
        // `base` is unchanged until the swap below, so the hash stays
        // valid even if this delta fails.
        self.base_fingerprint = Some(parent);
        let result = fingerprint(self.cur.iter().map(Vec::as_slice));
        self.payload.clear();
        let changed =
            self.base.iter().zip(self.cur.iter()).filter(|(b, c)| b != c).count();
        push_u32(&mut self.payload, changed)?;
        for (i, (_, cur)) in self
            .base
            .iter()
            .zip(self.cur.iter())
            .enumerate()
            .filter(|(_, (b, c))| b != c)
        {
            push_u32(&mut self.payload, i)?;
            push_u64(&mut self.payload, cur.len())?;
            self.payload.extend_from_slice(cur);
        }
        out.clear();
        codec::write_document(
            out,
            SESSION_DELTA_SCHEMA,
            &[
                ("meta", &self.meta),
                ("parent", &parent.to_le_bytes()),
                ("result", &result.to_le_bytes()),
                ("nodes", &self.payload),
            ],
        )?;
        std::mem::swap(&mut self.base, &mut self.cur);
        self.base_fingerprint = Some(result);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Decoding and chain replay.
// ---------------------------------------------------------------------

/// Splits a v3 container into its decoded `meta` document and views of
/// its per-node blobs —
/// the framing both [`decode_session_v3`] and
/// [`Session::restore_bytes`](super::Session::restore_bytes) read. A
/// delta is named as such, not as a foreign schema. Never panics; all
/// failures are typed.
pub(crate) fn split_session_v3(bytes: &[u8]) -> Result<(Json, Vec<&[u8]>), CodecError> {
    let doc = codec::read_document(bytes)?;
    if doc.schema == SESSION_DELTA_SCHEMA {
        return Err(CodecError::Schema(
            SESSION_DELTA_SCHEMA.to_string(),
            SESSION_CHECKPOINT_SCHEMA_V3.to_string(),
        ));
    }
    doc.check_schema(SESSION_CHECKPOINT_SCHEMA_V3)?;
    // The framing first: a `nodes` section that cannot hold its count
    // fails before the `meta` tree is built.
    let blobs = split_nodes_payload(doc.require("nodes")?)?;
    let meta = codec::decode_value(doc.require("meta")?)?;
    Ok((meta, blobs))
}

/// Decodes v3 binary bytes into the whole session state as one [`Json`]
/// document (`meta` with the node objects spliced into `env.nodes`) —
/// what the tests and the benchmark's decode probe read; restoring does
/// not go through it. Never panics; all failures are typed.
pub fn decode_session_v3(bytes: &[u8]) -> Result<Json, CodecError> {
    let (mut meta, blobs) = split_session_v3(bytes)?;
    let mut nodes = Vec::with_capacity(blobs.len());
    for blob in blobs {
        nodes.push(codec::decode_value(blob)?);
    }
    let not_v2 =
        || CodecError::Schema("malformed v3 meta".to_string(), "session-checkpoint/v2".to_string());
    let Json::Obj(entries) = &mut meta else {
        return Err(not_v2());
    };
    let env = entries
        .iter_mut()
        .find(|(k, _)| k == "env")
        .map(|(_, v)| v)
        .ok_or_else(not_v2)?;
    let Json::Obj(env_entries) = env else {
        return Err(not_v2());
    };
    // `nodes` goes last in the env object, after the fields
    // `Environment::checkpoint_meta` writes.
    env_entries.push(("nodes".to_string(), Json::Arr(nodes)));
    Ok(meta)
}

/// Replays a delta chain: `base` (a full v3 snapshot) plus `deltas` in
/// order, verifying every fingerprint link, and re-emits the final state
/// as full v3 bytes — **bit-identical** to a full snapshot taken at the
/// same point (both paths share the same container writer).
///
/// The chain state is a vector of views into `base` and `deltas`, and
/// each link is hashed once: link k + 1's `parent` is checked against
/// link k's already-verified `result`, so only the first link hashes the
/// base, and an n-delta chain hashes n + 1 times.
pub fn reconstruct_chain(base: &[u8], deltas: &[Vec<u8>]) -> Result<Vec<u8>, CodecError> {
    let doc = codec::read_document(base)?;
    doc.check_schema(SESSION_CHECKPOINT_SCHEMA_V3)?;
    let mut meta = doc.require("meta")?;
    let mut blobs = split_nodes_payload(doc.require("nodes")?)?;
    let link_err = |msg: &str| CodecError::Schema(msg.to_string(), SESSION_DELTA_SCHEMA.to_string());
    // The fingerprint of `blobs` as the last link verified it; `None`
    // until a link needs the base's.
    let mut state: Option<u64> = None;
    for delta in deltas {
        let d = codec::read_document(delta)?;
        d.check_schema(SESSION_DELTA_SCHEMA)?;
        let mut parent_bytes = d.require("parent")?;
        let parent = read_u64(&mut parent_bytes)?;
        let expected = match state {
            Some(fp) => fp,
            None => fingerprint(blobs.iter().copied()),
        };
        if parent != expected {
            return Err(link_err("delta parent fingerprint does not match chain state"));
        }
        meta = d.require("meta")?;
        let mut payload = d.require("nodes")?;
        let changed = read_u32(&mut payload)? as usize;
        if changed > payload.len() {
            return Err(CodecError::Length);
        }
        for _ in 0..changed {
            let idx = read_u32(&mut payload)? as usize;
            let len = read_u64(&mut payload)?;
            let len = usize::try_from(len).map_err(|_| CodecError::Length)?;
            let blob = split_prefix(&mut payload, len)?;
            let slot = blobs
                .get_mut(idx)
                .ok_or_else(|| link_err("delta names a node index outside the fleet"))?;
            *slot = blob;
        }
        if !payload.is_empty() {
            return Err(CodecError::Trailing);
        }
        let mut result_bytes = d.require("result")?;
        let result = read_u64(&mut result_bytes)?;
        if result != fingerprint(blobs.iter().copied()) {
            return Err(link_err("delta result fingerprint does not match spliced state"));
        }
        state = Some(result);
    }
    let mut out = Vec::new();
    write_session_v3(&mut out, meta, &blobs)?;
    Ok(out)
}
