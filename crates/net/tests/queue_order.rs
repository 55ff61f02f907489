//! Drain-order property suite: the calendar [`EventQueue`] must pop the
//! exact `(time, FIFO-seq)` sequence a binary min-heap would, over
//! randomized schedules including simultaneous events, crash-time purges
//! (the `purge_events` rebuild pattern in `netmax-core`), and
//! suspend/resume checkpoint round-trips.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use netmax_net::EventQueue;
use proptest::prelude::*;

/// Reference implementation: the binary heap the engine used before the
/// calendar queue, kept here as the ordering oracle.
#[derive(Debug)]
struct RefEntry {
    time: f64,
    seq: u64,
    event: u32,
}

impl PartialEq for RefEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for RefEntry {}

impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min on top.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event time was NaN")
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct RefQueue {
    heap: BinaryHeap<RefEntry>,
    next_seq: u64,
}

impl RefQueue {
    fn push(&mut self, time: f64, event: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(RefEntry { time, seq, event });
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

/// Drains both queues fully and asserts identical (time, event) streams.
fn assert_same_drain(q: &mut EventQueue<u32>, r: &mut RefQueue) {
    let mut step = 0usize;
    loop {
        let a = q.pop();
        let b = r.pop();
        assert_eq!(a, b, "drain diverged at step {step}");
        if a.is_none() {
            break;
        }
        step += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved pushes and pops over a randomized schedule drain in the
    /// reference heap's exact order. Times come from a coarse grid so
    /// simultaneous events (FIFO ties) occur constantly.
    #[test]
    fn interleaved_ops_match_reference(
        ops in proptest::collection::vec((0u8..4, 0u32..60), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut r = RefQueue::default();
        let mut payload = 0u32;
        for &(op, t) in &ops {
            if op == 3 {
                assert_eq!(q.pop(), r.pop());
            } else {
                // Coarse grid: many collisions; op skews the scale so
                // schedules mix sub-second and far-future times.
                let time = f64::from(t) * if op == 2 { 1e4 } else { 0.25 };
                q.push(time, payload);
                r.push(time, payload);
                payload += 1;
            }
            assert_eq!(q.len(), r.heap.len());
            assert_eq!(q.is_empty(), r.heap.is_empty());
        }
        assert_same_drain(&mut q, &mut r);
    }

    /// All-simultaneous schedules: every event at one of two timestamps,
    /// so ordering is almost entirely FIFO-sequence tie-breaking.
    #[test]
    fn simultaneous_events_pop_fifo(
        picks in proptest::collection::vec(0u8..2, 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut r = RefQueue::default();
        for (i, &p) in picks.iter().enumerate() {
            let time = f64::from(p);
            q.push(time, i as u32);
            r.push(time, i as u32);
        }
        assert_same_drain(&mut q, &mut r);
    }

    /// The crash-time `purge_events` pattern: snapshot via `entries()`,
    /// rebuild keeping only a predicate's survivors, continue scheduling.
    /// Order and sequence numbering must match a reference heap given the
    /// same treatment.
    #[test]
    fn purge_rebuild_matches_reference(
        times in proptest::collection::vec(0u32..40, 1..150),
        later in proptest::collection::vec(0u32..40, 0..60),
        keep_parity in 0u32..2,
    ) {
        let mut q = EventQueue::new();
        let mut r = RefQueue::default();
        for (i, &t) in times.iter().enumerate() {
            q.push(f64::from(t) * 0.5, i as u32);
            r.push(f64::from(t) * 0.5, i as u32);
        }
        // Advance both clocks a little before the "crash".
        for _ in 0..times.len() / 3 {
            assert_eq!(q.pop(), r.pop());
        }

        // Purge: drop events whose payload parity matches `keep_parity`'s
        // complement — mirrors purge_events dropping a crashed node's
        // completions while preserving (time, seq) for the survivors.
        let snapshot: Vec<(f64, u64, u32)> =
            q.entries().into_iter().map(|(t, s, e)| (t, s, *e)).collect();
        let next = q.next_seq();
        let mut q2: EventQueue<u32> = EventQueue::new();
        for &(t, s, e) in &snapshot {
            if e % 2 == keep_parity {
                q2.restore_entry(t, s, e);
            }
        }
        q2.set_next_seq(next);

        let mut r2 = RefQueue::default();
        let mut survivors: Vec<RefEntry> = r.heap.into_vec();
        survivors.retain(|e| e.event % 2 == keep_parity);
        r2.heap = survivors.into();
        r2.next_seq = r.next_seq;

        // Post-purge schedules must still interleave identically.
        for (i, &t) in later.iter().enumerate() {
            q2.push(f64::from(t) * 0.5, 10_000 + i as u32);
            r2.push(f64::from(t) * 0.5, 10_000 + i as u32);
        }
        assert_same_drain(&mut q2, &mut r2);
    }

    /// Suspend/resume: a mid-run checkpoint (`entries` + `next_seq`)
    /// restored into a fresh queue continues with identical behavior to
    /// the uninterrupted original.
    #[test]
    fn checkpoint_roundtrip_is_transparent(
        times in proptest::collection::vec(0u32..50, 1..150),
        after in proptest::collection::vec(0u32..50, 0..60),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(f64::from(t) * 0.125, i as u32);
        }
        for _ in 0..times.len() / 4 {
            q.pop();
        }

        // Checkpoint and restore — the gossip engine's suspend path.
        let snapshot: Vec<(f64, u64, u32)> =
            q.entries().into_iter().map(|(t, s, e)| (t, s, *e)).collect();
        let next = q.next_seq();
        let mut restored: EventQueue<u32> = EventQueue::new();
        for &(t, s, e) in &snapshot {
            restored.restore_entry(t, s, e);
        }
        restored.set_next_seq(next);
        assert_eq!(restored.next_seq(), next);
        assert_eq!(restored.len(), q.len());

        // Both sides keep running: pops and fresh pushes must agree.
        for (i, &t) in after.iter().enumerate() {
            let time = f64::from(t) * 0.125;
            q.push(time, 50_000 + i as u32);
            restored.push(time, 50_000 + i as u32);
        }
        let mut step = 0usize;
        loop {
            let a = q.pop();
            let b = restored.pop();
            assert_eq!(a, b, "resumed run diverged at step {step}");
            if a.is_none() {
                break;
            }
            step += 1;
        }
    }
}

/// Events pushed before the current clock (a restored checkpoint can
/// re-anchor time backwards) still pop strictly by (time, seq).
#[test]
fn backward_time_pushes_keep_global_order() {
    let mut q = EventQueue::new();
    let mut r = RefQueue::default();
    let schedule = [500.0, 2.0, 300.0, 1.0, 250.0, 0.0, 275.0];
    for (i, &t) in schedule.iter().enumerate() {
        // Pop between pushes so `last_time` advances past later pushes.
        q.push(t, i as u32);
        r.push(t, i as u32);
        if i % 2 == 1 {
            assert_eq!(q.pop(), r.pop());
        }
    }
    assert_same_drain(&mut q, &mut r);
}
