//! Deterministic discrete-event queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::Time;

/// A monotone bucketed event queue (a radix heap) with deterministic FIFO
/// tie-breaking.
///
/// Events pop in `(time, scheduling order)` order: the earliest time
/// first, and events scheduled for the same timestamp in the order they
/// were scheduled, which keeps whole-system simulations reproducible. The
/// payload type `E` is chosen by the embedding engine.
///
/// The queue remembers the latest popped time, `last`. Events at `last` wait
/// in a FIFO; a later event waits in the bucket named by the highest bit in
/// which its time differs from `last`. When the FIFO runs dry, the lowest
/// non-empty bucket is emptied into lower buckets around its minimum time,
/// which becomes the new `last`. A bucket is refilled only while it is
/// empty, so every bucket stays in scheduling order and needs no sequence
/// number. Events scheduled *before* `last` fall back to a small
/// `(time, seq)` binary heap that pops ahead of everything else.
///
/// # Example
///
/// ```
/// use mondrian_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(10, 'b');
/// q.schedule(10, 'c');
/// q.schedule(5, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The latest time popped so far (0 before the first pop); popping an
    /// event from `past` does not lower it. Every bucketed event is after
    /// it.
    last: Time,
    /// Events at exactly `last`, in scheduling order.
    head: VecDeque<E>,
    /// `buckets[i]` holds the events after `last` whose highest bit that
    /// differs from `last` is bit `i`, in scheduling order.
    buckets: [Vec<(Time, E)>; 64],
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: u64,
    /// Events scheduled before `last`, ordered by `(time, seq)`.
    past: BinaryHeap<Reverse<Entry<E>>>,
    /// Next sequence number for `past`.
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            last: 0,
            head: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            past: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// The bucket of an event at `time > last`: the highest bit in which
    /// the two differ.
    fn bucket_of(last: Time, time: Time) -> usize {
        63 - (time ^ last).leading_zeros() as usize
    }

    /// Schedules `event` to fire at absolute time `time`.
    ///
    /// Scheduling before the latest popped time is allowed: the event pops
    /// ahead of every later one, still in `(time, scheduling order)`.
    pub fn schedule(&mut self, time: Time, event: E) {
        if time == self.last {
            self.head.push_back(event);
        } else if time > self.last {
            let b = Self::bucket_of(self.last, time);
            self.buckets[b].push((time, event));
            self.occupied |= 1 << b;
        } else {
            let seq = self.seq;
            self.seq += 1;
            self.past.push(Reverse(Entry { time, seq, event }));
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if let Some(Reverse(e)) = self.past.pop() {
            return Some((e.time, e.event));
        }
        if self.head.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            // Every event in the lowest occupied bucket lands in `head` or
            // in a lower bucket, all of which are empty: scheduling order
            // survives the move.
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            let last = bucket.iter().map(|&(t, _)| t).min().expect("occupied bucket");
            self.last = last;
            for (t, e) in bucket.drain(..) {
                if t == last {
                    self.head.push_back(e);
                } else {
                    let lower = Self::bucket_of(last, t);
                    self.buckets[lower].push((t, e));
                    self.occupied |= 1 << lower;
                }
            }
            // Keep the drained allocation for the bucket's next fill.
            self.buckets[b] = bucket;
        }
        let e = self.head.pop_front().expect("head refilled");
        Some((self.last, e))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(Reverse(e)) = self.past.peek() {
            return Some(e.time);
        }
        if !self.head.is_empty() {
            return Some(self.last);
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.buckets.get(b).and_then(|bucket| bucket.iter().map(|&(t, _)| t).min())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.head.len() + self.buckets.iter().map(Vec::len).sum::<usize>() + self.past.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.occupied == 0 && self.past.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(42, ());
        q.schedule(41, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(41));
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(10, "a");
        assert_eq!(q.pop(), Some((10, "a")));
        q.schedule(5, "b");
        q.schedule(15, "c");
        assert_eq!(q.pop(), Some((5, "b")));
        q.schedule(12, "d");
        assert_eq!(q.pop(), Some((12, "d")));
        assert_eq!(q.pop(), Some((15, "c")));
    }

    /// Maps a drawn selector to an event time: a small set (many ties, and
    /// times below the last pop), the last popped time and its successor,
    /// or a time with the high bits set.
    fn time_of(selector: u64, last_popped: Time) -> Time {
        const SMALL: [Time; 6] = [0, 1, 2, 3, 7, 8];
        const HIGH: [Time; 4] = [u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) + 5];
        match selector {
            0..=5 => SMALL[selector as usize],
            6 => last_popped,
            7 => last_popped.saturating_add(1),
            _ => HIGH[(selector - 8) as usize],
        }
    }

    proptest! {
        /// Every pop, `peek_time` and `len` agree with a `(time, seq)`
        /// binary heap under random interleavings of `schedule` and `pop`.
        #[test]
        fn matches_a_time_seq_heap(ops in prop::collection::vec((0u32..3, 0u64..12), 1..400)) {
            let mut q = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut last_popped: Time = 0;
            for (op, selector) in ops {
                if op < 2 {
                    let time = time_of(selector, last_popped);
                    q.schedule(time, seq);
                    model.push(Reverse((time, seq)));
                    seq += 1;
                } else {
                    let expect = model.pop().map(|Reverse(entry)| entry);
                    prop_assert_eq!(q.pop(), expect);
                    if let Some((time, _)) = expect {
                        last_popped = time;
                    }
                }
                prop_assert_eq!(q.peek_time(), model.peek().map(|Reverse((time, _))| *time));
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            while let Some(Reverse(entry)) = model.pop() {
                prop_assert_eq!(q.pop(), Some(entry));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
