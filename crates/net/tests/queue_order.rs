//! Drain-order property suite: [`EventQueue`] must pop the exact
//! `(time, FIFO-seq)` sequence of a naive sorted list, over randomized
//! schedules including simultaneous events, the engine's bimodal
//! fast-link/slow-link delays, crash-time purges (the `purge_events`
//! rebuild pattern in `netmax-core`), and suspend/resume checkpoint
//! round-trips.

use netmax_net::EventQueue;
use proptest::prelude::*;

/// The ordering oracle, deliberately not a heap (the implementation is
/// one): a `Vec` stably re-sorted by `(time, seq)` on every insert and
/// popped from the front.
#[derive(Debug, Default)]
struct RefQueue {
    entries: Vec<(f64, u64, u32)>,
    next_seq: u64,
}

impl RefQueue {
    fn push(&mut self, time: f64, event: u32) {
        self.entries.push((time, self.next_seq, event));
        self.next_seq += 1;
        self.entries
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("event time was NaN").then(a.1.cmp(&b.1)));
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        if self.entries.is_empty() {
            return None;
        }
        let (time, _, event) = self.entries.remove(0);
        Some((time, event))
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
    /// reference list's exact order. Times come from a coarse grid so
    /// simultaneous events (FIFO ties) occur constantly.
    #[test]
    fn interleaved_ops_match_reference(
        ops in proptest::collection::vec((0u8..6, 0u32..60), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut r = RefQueue::default();
        let mut payload = 0u32;
        let mut clock = 0.0;
        for &(op, t) in &ops {
            if op == 3 {
                let popped = q.pop();
                assert_eq!(popped, r.pop());
                if let Some((time, _)) = popped {
                    clock = time;
                }
            } else {
                // Coarse grid: many collisions; op skews the scale so
                // schedules mix sub-second and far-future times. Ops 4
                // and 5 are the engine's spacing: a completion lands one
                // delay after the last dispatch, over a fast link or over
                // one 2–100× slower.
                let time = match op {
                    2 => f64::from(t) * 1e4,
                    4 => clock + 0.25,
                    5 => clock + 0.25 * f64::from(2 + t * 98 / 59),
                    _ => f64::from(t) * 0.25,
                };
                q.push(time, payload);
                r.push(time, payload);
                payload += 1;
            }
            assert_eq!(q.len(), r.entries.len());
            assert_eq!(q.is_empty(), r.entries.is_empty());
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
    /// Order and sequence numbering must match the reference list given
    /// the same treatment.
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

        let mut r2 = r;
        r2.entries.retain(|&(_, _, e)| e % 2 == keep_parity);

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
        // Pop between pushes so the clock advances past later pushes.
        q.push(t, i as u32);
        r.push(t, i as u32);
        if i % 2 == 1 {
            assert_eq!(q.pop(), r.pop());
        }
    }
    assert_same_drain(&mut q, &mut r);
}
