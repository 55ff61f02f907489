//! Hostile serialized checkpoints at the session level: every broken
//! NMXB document fed to [`Session::restore_bytes`] or
//! [`reconstruct_chain`] must come back as a typed error — never a
//! panic, never a silently wrong session. (`netmax-json`'s
//! `codec_props.rs` fuzzes the container codec itself; this table pins
//! what the engine does with containers that are well-formed but wrong.)

use netmax_core::engine::{
    decode_session_v3, reconstruct_chain, Algorithm, CheckpointScratch, Scenario, Session,
    SessionError, StepEvent, TrainConfig, SESSION_CHECKPOINT_SCHEMA_V3, SESSION_DELTA_SCHEMA,
};
use netmax_core::monitor::EmaTimeTracker;
use netmax_core::netmax::NetMax;
use netmax_core::SparsePolicy;
use netmax_json::{codec, Json};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

const WORKERS: usize = 4;

fn scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .workers(WORKERS)
        .network(NetworkKind::Homogeneous)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig {
            seed,
            max_epochs: 4.0,
            ..TrainConfig::quick_test()
        })
        .build()
}

fn step(session: &mut Session<'_>, global_steps: usize) {
    let mut done = 0;
    while done < global_steps {
        if let StepEvent::GlobalStep { .. } = session.step() {
            done += 1;
        }
    }
}

/// A full snapshot after 20 steps plus three deltas, 5 steps apart.
fn chain(seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    let sc = scenario(seed);
    let mut env = sc.build_env();
    let mut algo = NetMax::paper_default(0.05);
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut scratch = CheckpointScratch::new();
    step(&mut session, 20);
    let mut base = Vec::new();
    session.checkpoint_binary(&mut scratch, &mut base).unwrap();
    let deltas = (0..3)
        .map(|_| {
            step(&mut session, 5);
            let mut d = Vec::new();
            session.checkpoint_delta(&mut scratch, &mut d).unwrap();
            d
        })
        .collect();
    (base, deltas)
}

/// Where `section`'s payload sits inside `bytes`.
fn payload_range(bytes: &[u8], section: &str) -> std::ops::Range<usize> {
    let payload = codec::read_document(bytes)
        .unwrap()
        .require(section)
        .unwrap();
    let start = payload.as_ptr() as usize - bytes.as_ptr() as usize;
    start..start + payload.len()
}

fn flipped(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at] ^= 0x01;
    out
}

/// Cuts at the header, at both edges of every section payload, and in the
/// middle of the `nodes` blobs.
fn truncations(bytes: &[u8], sections: &[&str]) -> Vec<(String, Vec<u8>)> {
    let mut cuts = vec![("empty".to_string(), 0), ("mid-magic".to_string(), 3)];
    for name in sections {
        let r = payload_range(bytes, name);
        cuts.push((format!("before `{name}`"), r.start));
        cuts.push((format!("after `{name}`"), r.end));
    }
    let nodes = payload_range(bytes, "nodes");
    cuts.push(("mid-blob".to_string(), nodes.start + nodes.len() / 2));
    cuts.retain(|(_, at)| *at < bytes.len());
    cuts.into_iter()
        .map(|(what, at)| (what, bytes[..at].to_vec()))
        .collect()
}

/// The decoded `meta` section of a v3 snapshot.
fn meta_of(base: &[u8]) -> Json {
    codec::decode_value(codec::read_document(base).unwrap().require("meta").unwrap()).unwrap()
}

/// `base` with its `meta` section re-encoded from `meta`, and its
/// `nodes` section kept.
fn with_meta(base: &[u8], meta: &Json) -> Vec<u8> {
    let mut meta_bytes = Vec::new();
    codec::encode_value(&mut meta_bytes, meta).unwrap();
    let mut out = Vec::new();
    codec::write_document(
        &mut out,
        SESSION_CHECKPOINT_SCHEMA_V3,
        &[
            ("meta", &meta_bytes),
            ("nodes", codec::read_document(base).unwrap().require("nodes").unwrap()),
        ],
    )
    .unwrap();
    out
}

/// `base` with `key` dropped from its `meta` object.
fn without_meta_key(base: &[u8], key: &str) -> Vec<u8> {
    let mut meta = meta_of(base);
    let Json::Obj(pairs) = &mut meta else {
        panic!("meta is an object")
    };
    let before = pairs.len();
    pairs.retain(|(k, _)| k != key);
    assert_eq!(pairs.len(), before - 1, "fixture has no `{key}`");
    with_meta(base, &meta)
}

/// The node blobs of a v3 snapshot's `nodes` section, in fleet order.
fn node_blobs(base: &[u8]) -> Vec<Vec<u8>> {
    let doc = codec::read_document(base).unwrap();
    let payload = doc.require("nodes").unwrap();
    let count = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    let mut rest = &payload[4..];
    let mut blobs = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u64::from_le_bytes(rest[..8].try_into().unwrap()) as usize;
        blobs.push(rest[8..8 + len].to_vec());
        rest = &rest[8 + len..];
    }
    assert!(rest.is_empty(), "the fixture's `nodes` section is exactly its blobs");
    blobs
}

/// `base` re-framed around `blobs`: the same `meta`, and a well-formed
/// `nodes` section holding exactly `blobs`.
fn with_blobs(base: &[u8], blobs: &[Vec<u8>]) -> Vec<u8> {
    let doc = codec::read_document(base).unwrap();
    let mut nodes = (blobs.len() as u32).to_le_bytes().to_vec();
    for blob in blobs {
        nodes.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        nodes.extend_from_slice(blob);
    }
    let mut out = Vec::new();
    codec::write_document(
        &mut out,
        SESSION_CHECKPOINT_SCHEMA_V3,
        &[("meta", doc.require("meta").unwrap()), ("nodes", &nodes)],
    )
    .unwrap();
    out
}

/// `base` with node 0's blob replaced by `edit` applied to its object.
fn with_first_node(base: &[u8], edit: impl FnOnce(&Json) -> Json) -> Vec<u8> {
    let mut blobs = node_blobs(base);
    let node = codec::decode_value(&blobs[0]).unwrap();
    blobs[0].clear();
    codec::encode_value(&mut blobs[0], &edit(&node)).unwrap();
    with_blobs(base, &blobs)
}

/// `doc` with the value at `path` replaced.
fn replaced(doc: &Json, path: &[&str], value: Json) -> Json {
    let mut doc = doc.clone();
    let mut at = &mut doc;
    for key in path {
        let Json::Obj(pairs) = at else {
            panic!("`{key}` sits in an object")
        };
        let slot = pairs.iter_mut().find(|(k, _)| k == key);
        at = &mut slot.unwrap_or_else(|| panic!("fixture has no `{key}`")).1;
    }
    *at = value;
    doc
}

/// The global step a snapshot's `meta` was taken at.
fn session_step(doc: &Json) -> u64 {
    doc.field("env")
        .and_then(|e| e.field("global_step")?.as_u64())
        .expect("the environment checkpoints its step")
}

/// One hostile input and the entry point it is fed to.
enum Row {
    Restore(Vec<u8>),
    Chain(Vec<u8>, Vec<Vec<u8>>),
}

#[test]
fn hostile_nmxb_is_always_a_typed_error() {
    // The on-disk tag is part of the format: pin its spelling.
    assert_eq!(
        SESSION_CHECKPOINT_SCHEMA_V3,
        "netmax-core/session-checkpoint/v3"
    );
    let (base, deltas) = chain(5);
    let (other_base, other_deltas) = chain(6);
    assert_eq!(
        codec::read_document(&base).unwrap().schema,
        SESSION_CHECKPOINT_SCHEMA_V3
    );
    assert_eq!(
        codec::read_document(&deltas[0]).unwrap().schema,
        SESSION_DELTA_SCHEMA
    );

    let sc = scenario(5);
    let restore = |bytes: &[u8]| {
        let mut env = sc.build_env();
        let mut algo = NetMax::paper_default(0.05);
        Session::restore_bytes(&mut env, algo.driver(), bytes).map(|_| ())
    };
    // The fixture itself is sound, so every failure below is the row's.
    restore(&base).expect("intact snapshot restores");
    let rebuilt = reconstruct_chain(&base, &deltas).expect("intact chain replays");
    restore(&rebuilt).expect("replayed chain restores");

    let mut rows: Vec<(String, Row)> = Vec::new();
    for (what, cut) in truncations(&base, &["meta", "nodes"]) {
        rows.push((format!("snapshot truncated {what}"), Row::Restore(cut)));
    }
    for (what, cut) in truncations(&deltas[0], &["meta", "parent", "result", "nodes"]) {
        rows.push((
            format!("delta truncated {what}"),
            Row::Chain(base.clone(), vec![cut]),
        ));
    }

    let nodes_len_field = payload_range(&base, "nodes").start - 8;
    for (what, at) in [
        ("magic", 0),
        ("version", 4),
        ("schema tag", 6 + 4 + 3),
        ("`nodes` section length", nodes_len_field),
    ] {
        rows.push((
            format!("snapshot with a flipped byte in the {what}"),
            Row::Restore(flipped(&base, at)),
        ));
    }
    let delta_nodes = payload_range(&deltas[0], "nodes");
    rows.push((
        "delta with a flipped byte inside a node blob".into(),
        Row::Chain(base.clone(), vec![flipped(&deltas[0], delta_nodes.end - 1)]),
    ));

    rows.push((
        "deltas out of order".into(),
        Row::Chain(base.clone(), vec![deltas[1].clone(), deltas[0].clone()]),
    ));
    rows.push((
        "a delta replayed twice".into(),
        Row::Chain(base.clone(), vec![deltas[0].clone(), deltas[0].clone()]),
    ));
    rows.push((
        "a delta from a different chain".into(),
        Row::Chain(base.clone(), vec![other_deltas[0].clone()]),
    ));
    rows.push((
        "a chain on a different base".into(),
        Row::Chain(other_base.clone(), deltas.clone()),
    ));
    // First changed-node index sits right after the u32 change count.
    let mut out_of_fleet = deltas[0].clone();
    out_of_fleet[delta_nodes.start + 4..delta_nodes.start + 8]
        .copy_from_slice(&(WORKERS as u32).to_le_bytes());
    rows.push((
        "a delta naming a node index outside the fleet".into(),
        Row::Chain(base.clone(), vec![out_of_fleet]),
    ));
    rows.push((
        "a delta passed as the base".into(),
        Row::Chain(deltas[0].clone(), Vec::new()),
    ));
    rows.push((
        "a full snapshot passed as a delta".into(),
        Row::Chain(base.clone(), vec![base.clone()]),
    ));

    rows.push((
        "a chain with its middle delta omitted".into(),
        Row::Chain(base.clone(), vec![deltas[0].clone(), deltas[2].clone()]),
    ));
    let second_parent = payload_range(&deltas[1], "parent");
    rows.push((
        "a chain whose second delta has a flipped parent byte".into(),
        Row::Chain(
            base.clone(),
            vec![deltas[0].clone(), flipped(&deltas[1], second_parent.start)],
        ),
    ));

    // Re-framed snapshots, well-formed as containers, whose node blobs
    // are wrong: restore decodes and applies them one node at a time.
    let blobs = node_blobs(&base);
    assert_eq!(blobs.len(), WORKERS);
    rows.push((
        "a `nodes` section one blob short of the fleet".into(),
        Row::Restore(with_blobs(&base, &blobs[..WORKERS - 1])),
    ));
    let mut one_more = blobs.clone();
    one_more.push(blobs[0].clone());
    rows.push((
        "a `nodes` section one blob over the fleet".into(),
        Row::Restore(with_blobs(&base, &one_more)),
    ));
    rows.push((
        "a node blob that decodes to a number".into(),
        Row::Restore(with_first_node(&base, |_| Json::Num(1.5))),
    ));
    rows.push((
        "a node blob with a short params vector".into(),
        Row::Restore(with_first_node(&base, |node| {
            let params = node.field("params").unwrap().as_arr().unwrap();
            replaced(node, &["params"], Json::Arr(params[1..].to_vec()))
        })),
    ));
    rows.push((
        "a node blob whose sampler names an example outside the dataset".into(),
        Row::Restore(with_first_node(&base, |node| {
            let sampler = node.field("sampler").unwrap();
            let mut indices = sampler.field("indices").unwrap().as_arr().unwrap().to_vec();
            indices[0] = Json::Int(1 << 40);
            replaced(node, &["sampler", "indices"], Json::Arr(indices))
        })),
    ));
    // A blob count the section's bytes could never hold (each blob
    // carries an 8-byte length) but its byte length could: it used to be
    // accepted far enough to reserve 16 bytes per claimed blob.
    let nodes = payload_range(&base, "nodes");
    let mut inflated = base.clone();
    let claimed = (nodes.len() - 4) as u32;
    inflated[nodes.start..nodes.start + 4].copy_from_slice(&claimed.to_le_bytes());
    rows.push((
        "a `nodes` section claiming one blob per byte".into(),
        Row::Restore(inflated),
    ));

    rows.push((
        "a delta passed to restore_bytes".into(),
        Row::Restore(deltas[0].clone()),
    ));
    let logical = decode_session_v3(&base).unwrap();
    rows.push((
        "JSON text passed to restore_bytes".into(),
        Row::Restore(logical.pretty().into_bytes()),
    ));
    for key in ["tier", "active", "env"] {
        rows.push((
            format!("a v3 whose meta lacks `{key}`"),
            Row::Restore(without_meta_key(&base, key)),
        ));
    }
    // The `nodes` section is the container's only node source.
    rows.push((
        "a v3 whose meta carries env.nodes beside the `nodes` section".into(),
        Row::Restore(with_meta(&base, &logical)),
    ));

    for (what, row) in rows {
        match row {
            Row::Restore(bytes) => match restore(&bytes) {
                Err(SessionError::BadCheckpoint(_)) => {}
                other => panic!("{what}: expected BadCheckpoint, got {other:?}"),
            },
            Row::Chain(base, deltas) => {
                if let Ok(bytes) = reconstruct_chain(&base, &deltas) {
                    panic!(
                        "{what}: replayed into {} bytes instead of failing",
                        bytes.len()
                    );
                }
            }
        }
    }

    // Well-formed containers whose `meta` is wrong: what the error must
    // name.
    let meta = meta_of(&base);
    let small_tracker = EmaTimeTracker::for_fleet(WORKERS - 1, 0.5).checkpoint();
    let large_policy = SparsePolicy::identity(WORKERS + 1).checkpoint();
    // The restored FIFO order hangs on the queue's sequence numbers.
    let entries = meta
        .field("driver")
        .and_then(|d| d.field("queue")?.field("entries")?.as_arr())
        .expect("the driver checkpoints its queue");
    let with_first_seq = |seq: &Json| {
        let mut entries = entries.to_vec();
        entries[0] = replaced(&entries[0], &["seq"], seq.clone());
        replaced(&meta, &["driver", "queue", "entries"], Json::Arr(entries))
    };
    // The recorder's cadence counter and its last sample move together,
    // and never past the environment's step counter.
    let samples = meta
        .field("recorder")
        .and_then(|r| r.field("samples")?.as_arr())
        .expect("the recorder checkpoints its samples");
    let ahead = Json::Int(i128::from(session_step(&meta)) + 1);
    let mut future_samples = samples.to_vec();
    let last = future_samples.last_mut().expect("the fixture has sampled");
    *last = replaced(last, &["global_step"], ahead.clone());
    let recorder_ahead = replaced(
        &replaced(&meta, &["recorder", "samples"], Json::Arr(future_samples)),
        &["recorder", "last_recorded_step"],
        ahead.clone(),
    );
    let one_down = Json::Arr([true, false, true, true].map(Json::Bool).to_vec());
    // The driver document of a release that kept the monitor state under
    // the behavior's own `behavior` key.
    let Some(Json::Obj(mut driver)) = meta.get("driver").cloned() else {
        panic!("the driver checkpoints an object")
    };
    let steering = driver.iter_mut().find(|(k, _)| k == "steering").expect("monitored fixture");
    steering.0 = "behavior".into();
    let metas = [
        // Driver state that is sound in itself but another fleet's: it
        // used to restore, then index past the policy's rows in
        // `sample_peer` or trip the generator's shape assert at the first
        // monitor round.
        (
            "a tracker smaller than the fleet",
            replaced(&meta, &["driver", "steering", "tracker"], small_tracker),
            "tracker is for 3 nodes, environment has 4",
        ),
        (
            "a policy larger than the fleet",
            replaced(&meta, &["driver", "steering", "policy"], large_policy),
            "policy is for 5 nodes, environment has 4",
        ),
        // A NetMax run without a tracker used to restore, and then never
        // adapt again: every later monitor round skipped for coverage.
        (
            "a NetMax steering whose tracker is null",
            replaced(&meta, &["driver", "steering", "tracker"], Json::Null),
            "missing field `n`",
        ),
        (
            "monitor state under the retired `behavior` key",
            replaced(&meta, &["driver"], Json::Obj(driver)),
            "missing field `steering`",
        ),
        // `seq + 1` used to overflow: a panic in the dev profile, and in
        // release a `next_seq` wrapped to 0, after which fresh pushes sort
        // before restored events at equal times.
        (
            "a queue entry whose seq is u64::MAX",
            with_first_seq(&Json::Int(i128::from(u64::MAX))),
            "is not below next_seq",
        ),
        (
            "two queue entries with one seq",
            with_first_seq(entries[1].field("seq").unwrap()),
            "appears twice",
        ),
        // `Recorder::due` subtracts the counter from the global step in
        // `u64`: this used to restore, then overflow at the first step
        // (a panic in the dev profile, a sample on every step in release).
        (
            "a recorder ahead of its environment",
            recorder_ahead,
            "is ahead of the environment's global step",
        ),
        (
            "a cadence counter that is not the last sample's step",
            replaced(&meta, &["recorder", "last_recorded_step"], ahead),
            "but last_recorded_step is",
        ),
        // The flags are what the applied membership events leave: these
        // used to be applied as stored, so the resumed run silently
        // trained a three-node fleet.
        (
            "a node down that no applied membership event took down",
            replaced(
                &replaced(&meta, &["active"], one_down),
                &["membership_next"],
                Json::Int(0),
            ),
            "checkpoint marks node 1 down, but its 0 applied membership events leave it up",
        ),
    ];
    for (what, meta, needle) in metas {
        match restore(&with_meta(&base, &meta)) {
            Err(SessionError::BadCheckpoint(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
            other => panic!("{what}: expected BadCheckpoint, got {other:?}"),
        }
    }
}
