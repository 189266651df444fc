//! The deterministic event queue.
//!
//! Events fire in `(time, sequence)` order: ties in virtual time are broken
//! by insertion order, making entire simulations reproducible bit-for-bit
//! for a given seed — the property every experiment and property test in
//! this repository leans on.
//!
//! # Calendar design
//!
//! The queue is the DES hot path: every message delivery, bounce, timer,
//! wave effect and step goes through one push and one pop. A binary heap
//! pays `O(log n)` pointer-chasing comparisons on both sides; the calendar
//! layout below gets amortized `O(1)`:
//!
//! * Near-future events land in a ring of [`N_BUCKETS`] *day* buckets of
//!   [`BUCKET_TICKS`] virtual ticks each, covering a sliding window of
//!   `N_BUCKETS × BUCKET_TICKS` ticks from the current day. A push is an
//!   append; the day being drained is sorted once (descending, so pops are
//!   `Vec::pop` from the back) and same-day pushes during the drain are
//!   order-preserving binary insertions.
//! * Far-future events (long timers: ack timeouts on high-latency routers,
//!   heartbeat horizons) overflow into an unordered spill vector and are
//!   migrated into the ring as the window slides over them.
//! * Day buffers are recycled. A day left empty when the window slides
//!   past it (or when an empty queue re-anchors) hands its buffer to a
//!   spare stack, and the next day that fills takes one from there, so the
//!   ring holds about as many allocated buffers as days that hold events at
//!   once, not one per day it has ever used. Only buffers move, never
//!   events, so pop order is untouched.
//!
//! Pop order is *identical* to the heap's — the property test in
//! `tests/queue_model.rs` cross-checks random interleaved schedules against
//! a `BinaryHeap` reference model, including same-tick ties and far-future
//! timers. Pushes at or before the current drain point (the simulator never
//! emits them, but the structure is public) clamp into the current day and
//! still pop in exact `(time, seq)` order.

use crate::time::VirtualTime;

/// Ticks covered by one calendar day bucket.
const BUCKET_TICKS: u64 = 16;
/// Days in the ring (power of two; the window is `N_BUCKETS × BUCKET_TICKS`
/// = 16384 ticks, comfortably past default ack timeouts and beacon periods).
const N_BUCKETS: usize = 1024;

struct Entry<E> {
    at: VirtualTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// `(time, seq)` packed into one word-pair: a single `u128` compare
    /// replaces the two-field tuple compare in the sort hot loop.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.ticks()) << 64) | u128::from(self.seq)
    }
}

/// A deterministic priority queue of timed events.
pub struct EventQueue<E> {
    /// The day ring. Bucket `d & (N_BUCKETS-1)` holds day `d`'s events
    /// while `d` is inside the window `[cur_day, cur_day + N_BUCKETS)`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Empty day buffers that kept their capacity, for the next day that
    /// fills.
    spare: Vec<Vec<Entry<E>>>,
    /// Events beyond the window, unordered.
    overflow: Vec<Entry<E>>,
    /// Smallest day present in `overflow` (meaningless when empty).
    overflow_min_day: u64,
    /// The day currently being drained.
    cur_day: u64,
    /// Day whose bucket is sorted descending (`u64::MAX` = none).
    sorted_day: u64,
    /// Events in the ring (len - overflow.len()).
    in_window: usize,
    len: usize,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            overflow: Vec::new(),
            overflow_min_day: 0,
            cur_day: 0,
            sorted_day: u64::MAX,
            in_window: 0,
            len: 0,
            next_seq: 0,
            scheduled_total: 0,
        }
    }
}

#[inline]
fn day_of(at: VirtualTime) -> u64 {
    at.ticks() / BUCKET_TICKS
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `at`. Returns the event's sequence number.
    pub fn push(&mut self, at: VirtualTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        if self.len == 0 {
            // Empty queue: re-anchor the window at the event so pops never
            // walk stale empty days. The old day's buffer is left behind.
            self.retire_day_buffer();
            self.cur_day = day_of(at);
            self.sorted_day = u64::MAX;
        }
        let entry = Entry { at, seq, event };
        // Late pushes (at or before the drain point) clamp into the current
        // day; the in-bucket `(time, seq)` order still pops them first.
        let day = day_of(at).max(self.cur_day);
        if day < self.cur_day + N_BUCKETS as u64 {
            let bucket = &mut self.buckets[(day & (N_BUCKETS as u64 - 1)) as usize];
            if day == self.sorted_day {
                // The day is mid-drain and sorted descending: insert in
                // place so the drain stays ordered.
                let pos = bucket.partition_point(|e| e.key() > entry.key());
                bucket.insert(pos, entry);
            } else {
                if bucket.capacity() == 0 {
                    if let Some(buffer) = self.spare.pop() {
                        *bucket = buffer;
                    }
                }
                if bucket.capacity() == bucket.len() {
                    // Skip the 4→8→16 doubling ramp: one day of a busy
                    // simulation holds tens of events.
                    bucket.reserve(16.max(bucket.len()));
                }
                bucket.push(entry);
            }
            self.in_window += 1;
        } else {
            if self.overflow.is_empty() || day < self.overflow_min_day {
                self.overflow_min_day = day;
            }
            self.overflow.push(entry);
        }
        self.len += 1;
        seq
    }

    /// Moves every overflow event now inside the window into the ring.
    fn migrate_overflow(&mut self) {
        let horizon = self.cur_day + N_BUCKETS as u64;
        let mut next_min = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let day = day_of(self.overflow[i].at);
            if day < horizon {
                let entry = self.overflow.swap_remove(i);
                debug_assert!(day >= self.cur_day);
                let bucket = &mut self.buckets[(day & (N_BUCKETS as u64 - 1)) as usize];
                if day == self.sorted_day {
                    let pos = bucket.partition_point(|e| e.key() > entry.key());
                    bucket.insert(pos, entry);
                } else {
                    bucket.push(entry);
                }
                self.in_window += 1;
            } else {
                next_min = next_min.min(day);
                i += 1;
            }
        }
        self.overflow_min_day = next_min;
    }

    /// Moves the current day's buffer, empty by now, onto the spare stack
    /// if it holds any capacity.
    fn retire_day_buffer(&mut self) {
        let bucket = &mut self.buckets[(self.cur_day & (N_BUCKETS as u64 - 1)) as usize];
        debug_assert!(bucket.is_empty());
        if bucket.capacity() > 0 {
            self.spare.push(std::mem::take(bucket));
        }
    }

    /// Day buffers holding capacity, in the ring and on the spare stack.
    #[cfg(test)]
    fn buffers_held(&self) -> usize {
        self.buckets.iter().filter(|b| b.capacity() > 0).count() + self.spare.len()
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let idx = (self.cur_day & (N_BUCKETS as u64 - 1)) as usize;
            if !self.buckets[idx].is_empty() {
                if self.sorted_day != self.cur_day {
                    self.buckets[idx].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.sorted_day = self.cur_day;
                }
                let e = self.buckets[idx].pop().expect("bucket non-empty");
                self.len -= 1;
                self.in_window -= 1;
                return Some((e.at, e.event));
            }
            // Advance the window one day — or jump it straight to the
            // overflow when nothing nearer remains.
            self.retire_day_buffer();
            if self.in_window == 0 {
                debug_assert!(!self.overflow.is_empty());
                self.cur_day = self.overflow_min_day;
            } else {
                self.cur_day += 1;
            }
            if !self.overflow.is_empty() && self.overflow_min_day < self.cur_day + N_BUCKETS as u64
            {
                self.migrate_overflow();
            }
        }
    }

    /// Time of the earliest pending event. (Not on the hot path: scans the
    /// window rather than mutating drain state.)
    pub fn peek_time(&self) -> Option<VirtualTime> {
        if self.len == 0 {
            return None;
        }
        for day in self.cur_day..self.cur_day + N_BUCKETS as u64 {
            let bucket = &self.buckets[(day & (N_BUCKETS as u64 - 1)) as usize];
            if let Some(e) = bucket.iter().min_by_key(|e| e.key()) {
                return Some(e.at);
            }
        }
        self.overflow.iter().map(|e| e.at).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(VirtualTime(30), "c");
        q.push(VirtualTime(10), "a");
        q.push(VirtualTime(20), "b");
        assert_eq!(q.peek_time(), Some(VirtualTime(10)));
        assert_eq!(q.pop(), Some((VirtualTime(10), "a")));
        assert_eq!(q.pop(), Some((VirtualTime(20), "b")));
        assert_eq!(q.pop(), Some((VirtualTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(VirtualTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_deterministic() {
        let mut q = EventQueue::new();
        q.push(VirtualTime(10), 1);
        q.push(VirtualTime(10), 2);
        assert_eq!(q.pop(), Some((VirtualTime(10), 1)));
        q.push(VirtualTime(10), 3);
        assert_eq!(q.pop(), Some((VirtualTime(10), 2)));
        assert_eq!(q.pop(), Some((VirtualTime(10), 3)));
        assert_eq!(q.scheduled_total(), 3);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        let horizon = BUCKET_TICKS * N_BUCKETS as u64;
        q.push(VirtualTime(3 * horizon), "far");
        q.push(VirtualTime(7 * horizon), "farther");
        q.push(VirtualTime(2), "near");
        assert_eq!(q.peek_time(), Some(VirtualTime(2)));
        assert_eq!(q.pop(), Some((VirtualTime(2), "near")));
        assert_eq!(q.peek_time(), Some(VirtualTime(3 * horizon)));
        assert_eq!(q.pop(), Some((VirtualTime(3 * horizon), "far")));
        // Push into the re-anchored window while the second spill is still
        // pending.
        q.push(VirtualTime(3 * horizon + 5), "mid");
        assert_eq!(q.pop(), Some((VirtualTime(3 * horizon + 5), "mid")));
        assert_eq!(q.pop(), Some((VirtualTime(7 * horizon), "farther")));
        assert!(q.is_empty());
    }

    #[test]
    fn same_day_pushes_during_drain_keep_order() {
        let mut q = EventQueue::new();
        // Fill one day, start draining it, then push more of the same day.
        q.push(VirtualTime(4), 0);
        q.push(VirtualTime(6), 1);
        assert_eq!(q.pop(), Some((VirtualTime(4), 0)));
        q.push(VirtualTime(5), 2); // earlier time, later seq — pops first
        q.push(VirtualTime(6), 3); // ties with 1 on time, later seq
        assert_eq!(q.pop(), Some((VirtualTime(5), 2)));
        assert_eq!(q.pop(), Some((VirtualTime(6), 1)));
        assert_eq!(q.pop(), Some((VirtualTime(6), 3)));
    }

    #[test]
    fn late_pushes_clamp_into_the_current_day() {
        let mut q = EventQueue::new();
        q.push(VirtualTime(100), "now");
        q.push(VirtualTime(120), "later");
        assert_eq!(q.pop(), Some((VirtualTime(100), "now")));
        // A push earlier than the drain point (the heap allowed this) must
        // still come out before everything later.
        q.push(VirtualTime(40), "past");
        assert_eq!(q.pop(), Some((VirtualTime(40), "past")));
        assert_eq!(q.pop(), Some((VirtualTime(120), "later")));
    }

    #[test]
    fn drained_days_hand_their_buffers_on() {
        // A steady schedule that keeps at most K days non-empty at once:
        // every pop schedules one event at most K-1 days later. Over ten
        // laps of the window the ring must hold no more buffers than the
        // busy days plus the day being left.
        const K: u64 = 4;
        let mut q = EventQueue::new();
        for t in 0..(K - 1) * BUCKET_TICKS {
            q.push(VirtualTime(t), ());
        }
        let end = 10 * N_BUCKETS as u64 * BUCKET_TICKS;
        let mut popped = 0u64;
        while let Some((at, ())) = q.pop() {
            popped += 1;
            if at.ticks() < end {
                q.push(VirtualTime(at.ticks() + (K - 1) * BUCKET_TICKS), ());
            }
            assert!(
                q.buffers_held() <= K as usize + 1,
                "{} day buffers held at tick {}",
                q.buffers_held(),
                at.ticks()
            );
        }
        assert!(popped > end);
    }

    #[test]
    fn empty_queue_reanchors_far_ahead() {
        let mut q = EventQueue::new();
        q.push(VirtualTime(10), 1);
        assert_eq!(q.pop(), Some((VirtualTime(10), 1)));
        // Next event epochs later: no window walk, direct re-anchor.
        let far = 1_000_000_000u64;
        q.push(VirtualTime(far), 2);
        assert_eq!(q.peek_time(), Some(VirtualTime(far)));
        assert_eq!(q.pop(), Some((VirtualTime(far), 2)));
        assert_eq!(q.pop(), None);
    }
}
