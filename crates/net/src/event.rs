//! A deterministic event queue keyed by virtual time.
//!
//! The NetMax engine simulates asynchronous training by dispatching, at
//! every global step, the worker whose next completion time is smallest
//! (the paper's §IV global-step model). Ties are broken FIFO by insertion
//! sequence so runs are fully deterministic across platforms.
//!
//! ## Calendar-queue internals
//!
//! The queue is a classic **calendar queue** (Brown 1988): an array of
//! "day" buckets of width `w` seconds, cycled through like the pages of a
//! desk calendar, so an event at time `t` lives in bucket
//! `⌊t/w⌋ mod num_buckets`. Pops scan forward from the year of the last
//! popped time; with the width sized to the live event spacing
//! (re-estimated whenever the queue resizes) both `push` and `pop` are
//! amortized O(1) regardless of fleet size — the former global
//! `BinaryHeap`'s O(log n) comparisons per operation disappear at
//! n = 4096.
//!
//! Entries live in a slab recycled through an intrusive free list, and
//! each bucket is an intrusive sorted list threaded through slab indices,
//! so steady-state `push`/`pop` performs **zero heap allocations**: the
//! slab only grows when the pending-event high-water mark does, the same
//! profile the binary heap had (and the profile the engine's hot-path
//! allocation tests pin down).
//!
//! The observable contract is unchanged and property-tested against the
//! reference heap: the exact `(time, FIFO seq)` pop order, including
//! simultaneous events, crash-time purges, and checkpoint
//! snapshot/restore round-trips.

/// Sentinel index for "no slot" in the intrusive lists.
const NIL: usize = usize::MAX;

/// Smallest number of calendar buckets kept allocated.
const MIN_BUCKETS: usize = 4;

/// Bucket width used until the first resize provides a measured spacing,
/// and whenever every pending event shares one timestamp.
const DEFAULT_WIDTH: f64 = 1.0;

/// One slab cell: an event with its key, linked into either a bucket
/// list (occupied, `event` is `Some`) or the free list (`event` is
/// `None`).
#[derive(Debug)]
struct Slot<E> {
    time: f64,
    seq: u64,
    event: Option<E>,
    next: usize,
}

/// Min-queue of timestamped events with stable FIFO tie-breaking,
/// implemented as a calendar queue (see the module docs).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Slab of event slots; freed slots are recycled via `free`.
    slots: Vec<Slot<E>>,
    /// Head of the free-slot list.
    free: usize,
    /// Calendar days: `heads[b]` starts an intrusive list sorted
    /// ascending by `(time, seq)`, so the head is the bucket minimum.
    heads: Vec<usize>,
    /// Seconds spanned by one bucket.
    width: f64,
    /// Total pending events.
    len: usize,
    /// Lower bound on every pending event's time: the last popped time,
    /// lowered whenever an earlier event is pushed.
    last_time: f64,
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
        Self {
            slots: Vec::new(),
            free: NIL,
            heads: vec![NIL; MIN_BUCKETS],
            width: DEFAULT_WIDTH,
            len: 0,
            last_time: 0.0,
            next_seq: 0,
        }
    }

    /// Schedules `event` at virtual time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(time.is_finite() && time >= 0.0, "event time must be finite and non-negative");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(time, seq, event);
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let b = self.min_bucket()?;
        let s = self.heads[b];
        // Taking the event before unlinking keeps this total: a slot on
        // a head list is always occupied, but if that invariant ever
        // broke the queue would report empty instead of panicking.
        let event = self.slots[s].event.take()?;
        let time = self.slots[s].time;
        self.heads[b] = self.slots[s].next;
        self.slots[s].next = self.free;
        self.free = s;
        self.len -= 1;
        self.last_time = time;
        self.maybe_shrink();
        Some((time, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pending entries as `(time, seq, event)` triples in pop order —
    /// the queue's full state for checkpointing (together with
    /// [`EventQueue::next_seq`]).
    pub fn entries(&self) -> Vec<(f64, u64, &E)> {
        let mut out: Vec<(f64, u64, &E)> = self
            .slots
            .iter()
            .filter_map(|s| s.event.as_ref().map(|e| (s.time, s.seq, e)))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// The sequence number the next [`EventQueue::push`] will use. Part of
    /// the checkpointable state: FIFO tie-breaking depends on it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Re-inserts an entry with an explicit sequence number (checkpoint
    /// restore). Keeps `next_seq` above every restored sequence.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub fn restore_entry(&mut self, time: f64, seq: u64, event: E) {
        assert!(time.is_finite() && time >= 0.0, "event time must be finite and non-negative");
        self.next_seq = self.next_seq.max(seq + 1);
        self.insert(time, seq, event);
    }

    /// Overrides the next sequence number (checkpoint restore). Never
    /// lowers it below a value already implied by restored entries.
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// The calendar year an event time falls in: `⌊t/width⌋`, saturating
    /// for times astronomically beyond the bucket span. Computed the same
    /// way at insert and scan time so the two can never disagree.
    fn year_of(&self, time: f64) -> u64 {
        // `as` saturates on overflow, which keeps far-future events
        // consistently in one (wrong but stable) year.
        (time / self.width) as u64
    }

    /// Takes a slot from the free list, or grows the slab — the only
    /// allocation path, taken when the pending high-water mark rises.
    fn alloc_slot(&mut self, time: f64, seq: u64, event: E) -> usize {
        if self.free != NIL {
            let s = self.free;
            self.free = self.slots[s].next;
            let slot = &mut self.slots[s];
            slot.time = time;
            slot.seq = seq;
            slot.event = Some(event);
            slot.next = NIL;
            s
        } else {
            self.slots.push(Slot { time, seq, event: Some(event), next: NIL });
            self.slots.len() - 1
        }
    }

    fn insert(&mut self, time: f64, seq: u64, event: E) {
        if time < self.last_time {
            // An event scheduled before the current clock re-anchors the
            // scan start; pending events all sit at or after it.
            self.last_time = time;
        }
        let s = self.alloc_slot(time, seq, event);
        self.link(s);
        self.len += 1;
        self.maybe_grow();
    }

    /// Splices slot `s` into its bucket's ascending `(time, seq)` list.
    fn link(&mut self, s: usize) {
        let (time, seq) = (self.slots[s].time, self.slots[s].seq);
        let nb = self.heads.len() as u64;
        let b = (self.year_of(time) % nb) as usize;
        let mut prev = NIL;
        let mut cur = self.heads[b];
        while cur != NIL && (self.slots[cur].time, self.slots[cur].seq) < (time, seq) {
            prev = cur;
            cur = self.slots[cur].next;
        }
        self.slots[s].next = cur;
        if prev == NIL {
            self.heads[b] = s;
        } else {
            self.slots[prev].next = s;
        }
    }

    /// Index of the bucket whose head is the global minimum, or `None`
    /// when empty. Scans one calendar year per bucket starting from the
    /// year of `last_time`; if the minimum lies beyond a full lap (events
    /// much sparser than the bucket span), falls back to a direct scan of
    /// every bucket's head.
    fn min_bucket(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let nb = self.heads.len() as u64;
        let y0 = self.year_of(self.last_time);
        for k in 0..nb {
            let year = y0.saturating_add(k);
            let b = (year % nb) as usize;
            let h = self.heads[b];
            if h != NIL && self.year_of(self.slots[h].time) == year {
                return Some(b);
            }
        }
        // Direct search. Equal times always map to the same bucket, so
        // comparing head times alone is unambiguous; the in-bucket sort
        // already puts the smallest seq first.
        self.heads
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h != NIL)
            .min_by(|&(_, &a), &(_, &b)| self.slots[a].time.total_cmp(&self.slots[b].time))
            .map(|(b, _)| b)
    }

    fn maybe_grow(&mut self) {
        if self.len > 2 * self.heads.len() {
            let nb = self.heads.len() * 2;
            self.rebuild(nb);
        }
    }

    fn maybe_shrink(&mut self) {
        if self.heads.len() > MIN_BUCKETS && self.len < self.heads.len() / 2 {
            let nb = (self.heads.len() / 2).max(MIN_BUCKETS);
            self.rebuild(nb);
        }
    }

    /// Re-threads every pending slot into `nb` buckets, re-estimating the
    /// bucket width from the live span so one bucket holds O(1) events of
    /// the current schedule. Deterministic: no sampling, no randomness.
    /// Runs only when `len` crosses a resize threshold, so its cost (and
    /// its single `heads` allocation) amortizes away; the slab and free
    /// list are untouched.
    fn rebuild(&mut self, nb: usize) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.slots {
            if s.event.is_some() {
                lo = lo.min(s.time);
                hi = hi.max(s.time);
            }
        }
        let span = hi - lo;
        self.width = if self.len == 0 || span <= 0.0 {
            DEFAULT_WIDTH
        } else {
            // Aim for ~one event per bucket-day across the live span; the
            // width floor keeps `t/width` finite and the year math sane.
            (span / self.len as f64).max(1e-9)
        };
        self.heads = vec![NIL; nb];
        // Re-link occupied slots in slab order — deterministic, and the
        // sorted splice makes the final lists independent of this order.
        for s in 0..self.slots.len() {
            if self.slots[s].event.is_some() {
                self.link(s);
            }
        }
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
    fn grows_shrinks_and_keeps_order_under_load() {
        // Enough churn to force several grow/shrink rebuilds, with a time
        // pattern mixing clusters and far-future outliers.
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
    fn steady_state_push_pop_recycles_slots() {
        // A gossip-shaped workload: constant population with advancing
        // times. After warm-up the slab must stop growing — pops feed
        // pushes through the free list, never the allocator.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.push(i as f64 * 0.3, i);
        }
        let mut clock = 0.0;
        for i in 0..1000u64 {
            let (t, _) = q.pop().expect("non-empty");
            assert!(t >= clock);
            clock = t;
            q.push(t + 2.5, 100 + i);
        }
        assert_eq!(q.len(), 8);
        assert!(q.slots.len() <= 8, "slab grew past the population high-water mark");
    }
}
