//! Deterministic discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Time;

/// A binary-heap event queue with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same timestamp pop in the order they were
/// scheduled, which keeps whole-system simulations reproducible regardless of
/// heap internals. The payload type `E` is chosen by the embedding engine.
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
    heap: BinaryHeap<Reverse<Entry<E>>>,
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
        Self { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `event` to fire at absolute time `time`.
    ///
    /// Scheduling in the past is allowed (the event fires "now" from the
    /// caller's perspective); the engine asserts monotonicity at pop time.
    pub fn schedule(&mut self, time: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
}
