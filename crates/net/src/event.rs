//! A deterministic event queue keyed by virtual time.
//!
//! The NetMax engine simulates asynchronous training by dispatching, at
//! every global step, the worker whose next completion time is smallest
//! (the paper's §IV global-step model). Ties are broken FIFO by insertion
//! sequence so runs are fully deterministic across platforms.
//!
//! The queue is a binary min-heap on `(time, seq)`: O(log n) per operation
//! whatever the spacing of the pending times (the paper's links differ
//! 2×–100×, so completion times are skewed, not evenly spaced), and the
//! keys are unique, so the pop order is a total order that does not depend
//! on the heap's layout. Steady-state `pop`→`push` performs **zero heap
//! allocations**: capacity only grows when the pending-event high-water
//! mark does (the engine's hot-path allocation tests pin that down).

use std::{cmp::Ordering, collections::BinaryHeap};

/// One pending event, ordered *reversed* on `(time, seq)`: `BinaryHeap` is
/// a max-heap and the earliest entry must sit on top.
#[derive(Debug)]
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.time.total_cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

/// Min-queue of timestamped events with stable FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` at virtual time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub fn push(&mut self, time: f64, event: E) {
        self.restore_entry(time, self.next_seq, event);
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The pending entries as `(time, seq, event)` triples in pop order: with
    /// [`EventQueue::next_seq`], the queue's full state for checkpointing.
    pub fn entries(&self) -> Vec<(f64, u64, &E)> {
        let mut out: Vec<_> = self.heap.iter().map(|e| (e.time, e.seq, &e.event)).collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// The sequence number the next [`EventQueue::push`] will use. Part of
    /// the checkpointable state: FIFO tie-breaking depends on it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Inserts an entry under an explicit sequence number (checkpoint restore;
    /// `push` passes the next one) and keeps `next_seq` above it.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub fn restore_entry(&mut self, time: f64, seq: u64, event: E) {
        assert!(time.is_finite() && time >= 0.0, "event time must be finite and non-negative");
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
        self.heap.push(Entry { time, seq, event });
    }

    /// Overrides the next sequence number (checkpoint restore). Never
    /// lowers it below a value already implied by restored entries.
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        q.push(1.0, 2);
        q.push(1.0, 3);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((1.0, 2)));
        assert_eq!(q.pop(), Some((1.0, 3)));
    }

    #[test]
    fn snapshot_and_restore_preserve_order() {
        let mut q = EventQueue::new();
        q.push(2.0, "b");
        q.push(1.0, "a1");
        q.push(1.0, "a2");
        let entries: Vec<(f64, u64, String)> =
            q.entries().into_iter().map(|(t, s, e)| (t, s, e.to_string())).collect();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], (1.0, 1, "a1".to_string()));
        assert_eq!(entries[1], (1.0, 2, "a2".to_string()));
        let next = q.next_seq();

        let mut r: EventQueue<String> = EventQueue::new();
        for (t, s, e) in entries {
            r.restore_entry(t, s, e);
        }
        r.set_next_seq(next);
        assert_eq!(r.next_seq(), next);
        assert_eq!(r.pop().unwrap().1, "a1");
        assert_eq!(r.pop().unwrap().1, "a2");
        assert_eq!(r.pop().unwrap().1, "b");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    fn keeps_order_under_load() {
        // A time pattern mixing clusters and far-future outliers.
        let mut q = EventQueue::new();
        let mut expect: Vec<(f64, u64)> = Vec::new();
        for i in 0..200u64 {
            let t = match i % 5 {
                0 => 10.0,
                1 => (i as f64) * 0.25,
                2 => 1e6 + i as f64,
                3 => (i / 10) as f64,
                _ => 0.5,
            };
            q.push(t, i);
            expect.push((t, i));
        }
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        for &(t, i) in &expect {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_earlier_than_last_pop_is_served_first() {
        let mut q = EventQueue::new();
        q.push(100.0, "late");
        q.push(50.0, "mid");
        assert_eq!(q.pop(), Some((50.0, "mid")));
        // The simulation clock is at 50; an event landing before it must
        // still pop before the later one.
        q.push(10.0, "early");
        assert_eq!(q.pop(), Some((10.0, "early")));
        assert_eq!(q.pop(), Some((100.0, "late")));
    }

    #[test]
    fn steady_state_push_pop_keeps_its_capacity() {
        // A gossip-shaped workload: constant population with advancing
        // times. After warm-up the heap must stop growing — every push
        // lands in the room the pop before it left.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.push(i as f64 * 0.3, i);
        }
        let warm = q.heap.capacity();
        let mut clock = 0.0;
        for i in 0..1000u64 {
            let (t, _) = q.pop().expect("non-empty");
            assert!(t >= clock);
            clock = t;
            q.push(t + 2.5, 100 + i);
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.heap.capacity(), warm, "capacity moved at a constant population");
    }
}
