//! Canonical typed event tracing.
//!
//! Every backend narrates a run as one stream of [`TraceEvent`]s — compact,
//! `Copy`, and diffable. The stream is what makes backends comparable: two
//! runs of the same plan can be checksummed, diffed event-by-event with
//! [`first_divergence`], or recorded in full and replayed as a cross-check.
//!
//! Two checksums summarize a stream:
//!
//! * **stream** — an order-sensitive FNV-1a chain over every event. Equal
//!   stream checksums mean byte-identical event streams; each backend's
//!   stream is deterministic per (seed, plan) but *differs between*
//!   backends, whose schedulers interleave work differently.
//! * **semantic** — a commutative (wrapping-add) digest over the payloads
//!   of [`TraceKind::Complete`] events only. On a fault-free plan every
//!   task completes exactly once with the same value on every backend, so
//!   the semantic checksum is invariant across backends and pump counts.

use crate::time::VirtualTime;
use std::collections::VecDeque;
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Starts an FNV-1a digest chain.
pub fn fnv_start() -> u64 {
    FNV_OFFSET
}

/// Mixes one word into an FNV-1a digest chain.
pub fn fnv_mix(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What happened. Processor ids are raw `u32`s (this crate sits below the
/// protocol layer and never sees `ProcId`); message/timer payloads are
/// reduced to a stable `u64` digest by the layer that can inspect them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A message reached a live processor and was handed to its engine.
    Deliver {
        /// Receiving processor.
        to: u32,
        /// Message kind tag (index into the protocol's kind table).
        kind: u8,
        /// Stable digest of the full message payload.
        digest: u64,
    },
    /// A reliable send bounced off a dead destination back to its sender.
    Bounce {
        /// The sender the bounce returns to.
        sender: u32,
        /// The dead destination.
        dead: u32,
        /// Message kind tag of the bounced message.
        kind: u8,
    },
    /// A timer fired on a live processor.
    TimerFire {
        /// The processor whose timer fired.
        owner: u32,
        /// Stable digest of the timer payload.
        digest: u64,
    },
    /// A fault-plan event landed.
    Fault {
        /// The victim: a processor for kinds 0/1, a super-root replica
        /// *rank* for kind 2.
        victim: u32,
        /// 0 = crash, 1 = corrupt (mirrors [`crate::fault::FaultKind`]);
        /// 2 = root-replica crash ([`crate::fault::RootFaultEvent`]).
        kind: u8,
        /// False when the fault was a no-op (victim already dead).
        applied: bool,
    },
    /// An engine ran a wave of ready tasks.
    Wave {
        /// The processor that ran the wave.
        owner: u32,
        /// Abstract work units the wave charged.
        work: u64,
    },
    /// An engine completed a task and emitted its result. The digest
    /// covers the completed stamp and value, so the commutative sum of
    /// `Complete` digests is a backend-invariant answer fingerprint.
    Complete {
        /// The processor that completed the task.
        owner: u32,
        /// Stable digest of (stamp, value) of the completed task.
        digest: u64,
    },
    /// The acting super-root primary died and a successor replica took
    /// the role over (reissuing the root wave unless the answer was
    /// already in). Replica crashes that depose nobody — idle
    /// successors, the last replica — emit only their `Fault` event.
    RootFailover {
        /// The successor rank that now leads.
        rank: u32,
    },
    /// The run launched under a non-default recovery policy. Emitted once
    /// at launch, and only when the policy differs from the Eager
    /// default — so Eager streams stay bit-identical to pre-policy
    /// recordings.
    Policy {
        /// The policy's stable tag (`PolicyKind::tag`).
        kind: u8,
        /// Incremental re-checkpoint period (0 = off).
        every: u32,
    },
}

impl TraceKind {
    fn fold(self, h: u64) -> u64 {
        match self {
            TraceKind::Deliver { to, kind, digest } => fnv_mix(
                fnv_mix(fnv_mix(fnv_mix(h, 1), u64::from(to)), u64::from(kind)),
                digest,
            ),
            TraceKind::Bounce { sender, dead, kind } => fnv_mix(
                fnv_mix(fnv_mix(fnv_mix(h, 2), u64::from(sender)), u64::from(dead)),
                u64::from(kind),
            ),
            TraceKind::TimerFire { owner, digest } => {
                fnv_mix(fnv_mix(fnv_mix(h, 3), u64::from(owner)), digest)
            }
            TraceKind::Fault {
                victim,
                kind,
                applied,
            } => fnv_mix(
                fnv_mix(fnv_mix(fnv_mix(h, 4), u64::from(victim)), u64::from(kind)),
                u64::from(applied),
            ),
            TraceKind::Wave { owner, work } => {
                fnv_mix(fnv_mix(fnv_mix(h, 5), u64::from(owner)), work)
            }
            TraceKind::Complete { owner, digest } => {
                fnv_mix(fnv_mix(fnv_mix(h, 6), u64::from(owner)), digest)
            }
            TraceKind::RootFailover { rank } => fnv_mix(fnv_mix(h, 7), u64::from(rank)),
            TraceKind::Policy { kind, every } => {
                fnv_mix(fnv_mix(fnv_mix(h, 8), u64::from(kind)), u64::from(every))
            }
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::Deliver { to, kind, digest } => {
                write!(f, "deliver to=p{to} kind={kind} digest={digest:#018x}")
            }
            TraceKind::Bounce { sender, dead, kind } => {
                write!(f, "bounce sender=p{sender} dead=p{dead} kind={kind}")
            }
            TraceKind::TimerFire { owner, digest } => {
                write!(f, "timer owner=p{owner} digest={digest:#018x}")
            }
            TraceKind::Fault {
                victim,
                kind,
                applied,
            } => match kind {
                0 => write!(f, "fault victim=p{victim} kind=crash applied={applied}"),
                1 => write!(f, "fault victim=p{victim} kind=corrupt applied={applied}"),
                _ => write!(f, "fault victim=root#{victim} kind=crash applied={applied}"),
            },
            TraceKind::Wave { owner, work } => write!(f, "wave owner=p{owner} work={work}"),
            TraceKind::Complete { owner, digest } => {
                write!(f, "complete owner=p{owner} digest={digest:#018x}")
            }
            TraceKind::RootFailover { rank } => {
                write!(f, "root-failover new-primary=root#{rank}")
            }
            TraceKind::Policy { kind, every } => {
                write!(f, "policy kind={kind} every={every}")
            }
        }
    }
}

/// One trace record: when, in what order, and what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: VirtualTime,
    /// Position in this tracer's stream (0-based, gapless).
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    fn fold(self, h: u64) -> u64 {
        self.kind.fold(fnv_mix(h, self.at.0))
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} #{}] {}", self.at, self.seq, self.kind)
    }
}

/// Where recorded events go. The [`Tracer`] owns sequencing and checksums;
/// sinks only decide what (if anything) to retain.
pub trait TraceSink {
    /// Accepts one event.
    fn record(&mut self, ev: TraceEvent);
    /// Events evicted or never retained because of a capacity bound.
    fn dropped(&self) -> u64 {
        0
    }
    /// Removes and returns the retained events, oldest first.
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// Keeps the newest `capacity` events, counting evictions.
#[derive(Debug, Default)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring keeping at most `capacity` events.
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

/// Retains every event — the recording sink behind record/replay.
#[derive(Debug, Default)]
pub struct FullSink {
    events: Vec<TraceEvent>,
}

impl FullSink {
    /// An empty recording.
    pub fn new() -> FullSink {
        FullSink::default()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl TraceSink for FullSink {
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Retains nothing: the [`Tracer`] already folds every event into its
/// running checksums, so checksum-only tracing allocates nothing at all.
#[derive(Debug, Default)]
pub struct ChecksumSink;

impl TraceSink for ChecksumSink {
    fn record(&mut self, _ev: TraceEvent) {}
}

/// How much of the stream to keep (all modes maintain both checksums).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Tracing entirely off: no events, no checksums, zero cost.
    #[default]
    Off,
    /// Keep the newest N events (post-mortem tail).
    Ring(usize),
    /// Keep every event (recording for replay).
    Full,
    /// Keep no events, only the running checksums.
    Checksum,
}

/// Fixed-size fingerprint of a traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events emitted (whether or not retained).
    pub events: u64,
    /// Events the sink evicted or declined to retain.
    pub dropped: u64,
    /// Order-sensitive FNV chain over the whole stream.
    pub stream: u64,
    /// Commutative digest over `Complete` payloads (backend-invariant).
    pub semantic: u64,
}

impl TraceSummary {
    /// Folds another tracer's summary into this one, in call order.
    /// `events`/`dropped` add, `semantic` is commutative by construction,
    /// and the combined `stream` chains the parts in the order given — so
    /// merging per-pump summaries in pump order is deterministic.
    pub fn absorb(&mut self, other: TraceSummary) {
        self.events += other.events;
        self.dropped += other.dropped;
        self.semantic = self.semantic.wrapping_add(other.semantic);
        if other.events > 0 {
            self.stream = fnv_mix(self.stream, other.stream);
        }
    }
}

enum Sink {
    Off,
    Ring(RingSink),
    Full(FullSink),
    Checksum(ChecksumSink),
}

/// The per-backend trace head: assigns sequence numbers, folds checksums,
/// and forwards each event to the configured sink.
pub struct Tracer {
    sink: Sink,
    next_seq: u64,
    dropped_base: u64,
    stream: u64,
    semantic: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(TraceMode::Off)
    }
}

impl Tracer {
    /// A tracer in the given mode.
    pub fn new(mode: TraceMode) -> Tracer {
        let sink = match mode {
            TraceMode::Off => Sink::Off,
            TraceMode::Ring(cap) => Sink::Ring(RingSink::new(cap)),
            TraceMode::Full => Sink::Full(FullSink::new()),
            TraceMode::Checksum => Sink::Checksum(ChecksumSink),
        };
        Tracer {
            sink,
            next_seq: 0,
            dropped_base: 0,
            stream: 0,
            semantic: 0,
        }
    }

    /// True when events should be emitted (lets callers skip digest work).
    pub fn enabled(&self) -> bool {
        !matches!(self.sink, Sink::Off)
    }

    /// Records one event (no-op when the tracer is off).
    pub fn emit(&mut self, at: VirtualTime, kind: TraceKind) {
        if !self.enabled() {
            return;
        }
        let ev = TraceEvent {
            at,
            seq: self.next_seq,
            kind,
        };
        self.next_seq += 1;
        self.stream = ev.fold(if self.stream == 0 {
            fnv_start()
        } else {
            self.stream
        });
        if let TraceKind::Complete { digest, .. } = kind {
            self.semantic = self.semantic.wrapping_add(digest);
        }
        match &mut self.sink {
            Sink::Off => {}
            Sink::Ring(s) => s.record(ev),
            Sink::Full(s) => s.record(ev),
            Sink::Checksum(s) => s.record(ev),
        }
    }

    /// The fixed-size fingerprint of everything emitted so far.
    pub fn summary(&self) -> TraceSummary {
        let dropped = match &self.sink {
            Sink::Off => 0,
            Sink::Ring(s) => s.dropped(),
            Sink::Full(s) => s.dropped(),
            Sink::Checksum(s) => s.dropped(),
        };
        TraceSummary {
            events: self.next_seq,
            dropped: self.dropped_base + dropped,
            stream: self.stream,
            semantic: self.semantic,
        }
    }

    /// Removes and returns the retained events, oldest first (empty for
    /// off/checksum modes). Checksums and counts are unaffected.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        match &mut self.sink {
            Sink::Off => Vec::new(),
            Sink::Ring(s) => s.drain(),
            Sink::Full(s) => s.drain(),
            Sink::Checksum(s) => s.drain(),
        }
    }

    /// Folds a harvested child tracer into this one (used by the parallel
    /// backend to merge per-pump tracers in pump order).
    pub fn absorb(&mut self, mut child: Tracer) -> Vec<TraceEvent> {
        let s = child.summary();
        self.next_seq += s.events;
        self.dropped_base += s.dropped;
        self.semantic = self.semantic.wrapping_add(s.semantic);
        if s.events > 0 {
            self.stream = fnv_mix(self.stream, s.stream);
        }
        child.take_events()
    }
}

/// The first position where two event streams disagree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index into both streams (events before it are identical).
    pub index: usize,
    /// Left stream's event at `index` (`None` = left ended early).
    pub left: Option<TraceEvent>,
    /// Right stream's event at `index` (`None` = right ended early).
    pub right: Option<TraceEvent>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "first divergence at event #{}:", self.index)?;
        match &self.left {
            Some(e) => writeln!(f, "  left:  {e}")?,
            None => writeln!(f, "  left:  <stream ended>")?,
        }
        match &self.right {
            Some(e) => write!(f, "  right: {e}"),
            None => write!(f, "  right: <stream ended>"),
        }
    }
}

/// Pinpoints the first event where `left` and `right` differ, or `None`
/// when the streams are identical.
pub fn first_divergence(left: &[TraceEvent], right: &[TraceEvent]) -> Option<Divergence> {
    let n = left.len().min(right.len());
    for i in 0..n {
        if left[i] != right[i] {
            return Some(Divergence {
                index: i,
                left: Some(left[i]),
                right: Some(right[i]),
            });
        }
    }
    if left.len() != right.len() {
        return Some(Divergence {
            index: n,
            left: left.get(n).copied(),
            right: right.get(n).copied(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut t = Tracer::new(TraceMode::Ring(3));
        for i in 0..5u64 {
            t.emit(VirtualTime(i), TraceKind::Wave { owner: 0, work: i });
        }
        let s = t.summary();
        assert_eq!(s.events, 5);
        assert_eq!(s.dropped, 2);
        let kept = t.take_events();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].seq, 2);
        assert_eq!(kept[2].seq, 4);
    }

    #[test]
    fn checksum_mode_matches_full_mode() {
        let mut a = Tracer::new(TraceMode::Checksum);
        let mut b = Tracer::new(TraceMode::Full);
        for i in 0..10u64 {
            let k = TraceKind::Complete {
                owner: (i % 3) as u32,
                digest: i.wrapping_mul(0x9e37_79b9),
            };
            a.emit(VirtualTime(i), k);
            b.emit(VirtualTime(i), k);
        }
        assert_eq!(a.summary().stream, b.summary().stream);
        assert_eq!(a.summary().semantic, b.summary().semantic);
        assert!(a.take_events().is_empty());
        assert_eq!(b.take_events().len(), 10);
    }

    #[test]
    fn semantic_is_order_insensitive_stream_is_not() {
        let x = TraceKind::Complete {
            owner: 1,
            digest: 11,
        };
        let y = TraceKind::Complete {
            owner: 2,
            digest: 22,
        };
        let mut fwd = Tracer::new(TraceMode::Checksum);
        fwd.emit(VirtualTime(1), x);
        fwd.emit(VirtualTime(2), y);
        let mut rev = Tracer::new(TraceMode::Checksum);
        rev.emit(VirtualTime(1), y);
        rev.emit(VirtualTime(2), x);
        assert_eq!(fwd.summary().semantic, rev.summary().semantic);
        assert_ne!(fwd.summary().stream, rev.summary().stream);
    }

    #[test]
    fn off_tracer_is_free_and_silent() {
        let mut t = Tracer::new(TraceMode::Off);
        assert!(!t.enabled());
        t.emit(VirtualTime(0), TraceKind::Wave { owner: 0, work: 1 });
        assert_eq!(t.summary(), TraceSummary::default());
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn divergence_pinpoints_first_difference() {
        let mk = |work: &[u64]| -> Vec<TraceEvent> {
            work.iter()
                .enumerate()
                .map(|(i, w)| TraceEvent {
                    at: VirtualTime(i as u64),
                    seq: i as u64,
                    kind: TraceKind::Wave { owner: 0, work: *w },
                })
                .collect()
        };
        let a = mk(&[1, 2, 3]);
        let b = mk(&[1, 9, 3]);
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.left.unwrap().kind, TraceKind::Wave { owner: 0, work: 2 });
        assert!(first_divergence(&a, &a).is_none());
        let short = mk(&[1, 2]);
        let d = first_divergence(&a, &short).unwrap();
        assert_eq!(d.index, 2);
        assert!(d.right.is_none());
        assert!(format!("{d}").contains("stream ended"));
    }

    #[test]
    fn absorb_merges_in_call_order() {
        let mk = |vals: &[u64]| {
            let mut t = Tracer::new(TraceMode::Checksum);
            for (i, v) in vals.iter().enumerate() {
                t.emit(
                    VirtualTime(i as u64),
                    TraceKind::Complete {
                        owner: 0,
                        digest: *v,
                    },
                );
            }
            t
        };
        let mut root_ab = Tracer::new(TraceMode::Checksum);
        root_ab.absorb(mk(&[1, 2]));
        root_ab.absorb(mk(&[3]));
        let mut root_ba = Tracer::new(TraceMode::Checksum);
        root_ba.absorb(mk(&[3]));
        root_ba.absorb(mk(&[1, 2]));
        let ab = root_ab.summary();
        let ba = root_ba.summary();
        assert_eq!(ab.events, 3);
        assert_eq!(ab.semantic, ba.semantic, "semantic commutes");
        assert_ne!(ab.stream, ba.stream, "stream is order-sensitive");
    }
}
