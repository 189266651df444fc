//! [`TimerWheel`]: the earliest-deadline store for substrates whose clock
//! is not already an event queue (the threaded runtime's workers and
//! coordinator; the simulator schedules timers straight into its DES
//! queue). Ties fire in arming order, like the DES queue's tie rule, so
//! backends agree on timer semantics.
//!
//! The wheel is generic over both the deadline type (`Instant` on the
//! runtime, plain `u64` units on the reactor) and the payload (engine
//! [`Timer`]s by default; the reactor also parks `(owner, Timer)` pairs
//! and whole delayed messages on it — any deadline-ordered, FIFO-tied
//! release queue is the same structure).

use splice_core::engine::Timer;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T, P> {
    at: T,
    seq: u64,
    payload: P,
}

impl<T: Ord, P> PartialEq for Entry<T, P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T: Ord, P> Eq for Entry<T, P> {}
impl<T: Ord, P> PartialOrd for Entry<T, P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord, P> Ord for Entry<T, P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic earliest-deadline store of payloads `P` (engine
/// [`Timer`]s unless said otherwise), generic over the deadline type
/// (`Instant` on the runtime, anything `Ord`).
pub struct TimerWheel<T, P = Timer> {
    heap: BinaryHeap<Entry<T, P>>,
    next_seq: u64,
}

impl<T: Ord, P> Default for TimerWheel<T, P> {
    fn default() -> Self {
        TimerWheel {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<T: Ord, P> TimerWheel<T, P> {
    /// An empty wheel.
    pub fn new() -> TimerWheel<T, P> {
        TimerWheel::default()
    }

    /// Arms `payload` to fire at `at`.
    pub fn arm(&mut self, at: T, payload: P) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Pops the earliest payload due at or before `now`, if any. Call in
    /// a loop to drain everything due.
    pub fn pop_due(&mut self, now: &T) -> Option<P> {
        if self.heap.peek().is_some_and(|e| e.at <= *now) {
            self.heap.pop().map(|e| e.payload)
        } else {
            None
        }
    }

    /// Deadline of the earliest armed payload.
    pub fn next_deadline(&self) -> Option<&T> {
        self.heap.peek().map(|e| &e.at)
    }

    /// Number of armed payloads.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_deadline_order_with_fifo_ties() {
        let mut w = TimerWheel::new();
        w.arm(30u64, Timer::LoadBeacon);
        w.arm(
            10,
            Timer::ack_timeout(
                splice_core::ids::TaskKey(1),
                splice_core::stamp::LevelStamp::root(),
                0,
            ),
        );
        w.arm(10, Timer::LoadBeacon);
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_deadline(), Some(&10));
        assert!(matches!(w.pop_due(&20), Some(Timer::AckTimeout { .. })));
        assert!(matches!(w.pop_due(&20), Some(Timer::LoadBeacon)));
        assert!(w.pop_due(&20).is_none(), "deadline 30 is not yet due");
        assert!(matches!(w.pop_due(&30), Some(Timer::LoadBeacon)));
        assert!(w.is_empty());
    }

    #[test]
    fn carries_arbitrary_payloads_with_fifo_ties() {
        // The reactor's usage: deadline-ordered release of any payload,
        // same-deadline entries in arming order.
        let mut w: TimerWheel<u64, &str> = TimerWheel::new();
        w.arm(5, "first");
        w.arm(5, "second");
        w.arm(2, "early");
        assert_eq!(w.pop_due(&10), Some("early"));
        assert_eq!(w.pop_due(&10), Some("first"));
        assert_eq!(w.pop_due(&10), Some("second"));
        assert!(w.pop_due(&10).is_none());
    }
}
