//! Sharded placement: the inter-shard router decorator.
//!
//! A sharded machine partitions its processors into `shards` groups of
//! `per_shard` each. Intra-shard traffic uses the backend's ordinary
//! delivery; traffic that crosses a shard boundary goes through the
//! router, which charges a fixed `inter_latency` surcharge (via
//! [`Substrate::send_delayed`]) and is accounted separately — recovery
//! across a partition boundary is exactly the cost the flat substrates
//! cannot see. [`ShardRouter`] is a [`Substrate`] decorator, so any
//! backend (the DES simulator, the threaded runtime, future multi-process
//! transports) becomes shard-aware by wrapping, not by reimplementation.

use crate::substrate::Substrate;
use splice_core::engine::Timer;
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::ActionSink;
use splice_simnet::trace::TraceKind;

/// The processor-to-shard partition: `shards` shards of `per_shard`
/// processors, processor `p` in shard `p / per_shard`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Number of shards.
    pub shards: u32,
    /// Processors per shard.
    pub per_shard: u32,
}

impl ShardMap {
    /// A map of `shards` shards with `per_shard` processors each.
    pub fn new(shards: u32, per_shard: u32) -> ShardMap {
        ShardMap { shards, per_shard }
    }

    /// The trivial partition: one shard holding all `n` processors (the
    /// router degenerates to a transparent pass-through).
    pub fn single(n: u32) -> ShardMap {
        ShardMap {
            shards: 1,
            per_shard: n,
        }
    }

    /// Total processor count.
    pub fn len(&self) -> u32 {
        self.shards * self.per_shard
    }

    /// True when the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard hosting processor `p`.
    pub fn shard_of(&self, p: ProcId) -> u32 {
        p.0 / self.per_shard.max(1)
    }

    /// True when `a` and `b` live in the same shard.
    pub fn same_shard(&self, a: ProcId, b: ProcId) -> bool {
        self.shard_of(a) == self.shard_of(b)
    }
}

/// Per-run router accounting: how much traffic stayed inside a shard and
/// how much crossed the router, by shard pair.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Shard count the `per_link` matrix is sized for.
    shards: u32,
    /// Worker-to-worker messages that stayed inside one shard.
    pub intra_msgs: u64,
    /// Worker-to-worker messages that crossed a shard boundary.
    pub inter_msgs: u64,
    /// Payload units carried across shard boundaries.
    pub inter_units: u64,
    /// Cross-shard messages per directed `(from_shard, to_shard)` link,
    /// stored row-major (`from * shards + to`).
    pub per_link: Vec<u64>,
}

impl ShardStats {
    fn for_map(map: &ShardMap) -> ShardStats {
        ShardStats {
            shards: map.shards,
            // A single-shard router never crosses a boundary, so the link
            // matrix stays unallocated — the threaded runtime builds a
            // transient router per pump and must not pay a heap allocation
            // for the flat-topology common case.
            per_link: if map.shards > 1 {
                vec![0; (map.shards as usize).pow(2)]
            } else {
                Vec::new()
            },
            ..ShardStats::default()
        }
    }

    /// Messages sent from `from` shard to `to` shard across the router.
    pub fn link(&self, from: u32, to: u32) -> u64 {
        if from >= self.shards || to >= self.shards {
            return 0;
        }
        self.per_link
            .get((from * self.shards + to) as usize)
            .copied()
            .unwrap_or(0)
    }
}

/// A [`Substrate`] decorator that makes `send` shard-aware.
///
/// Everything except `send` forwards to the wrapped backend. Sends between
/// workers in different shards pay `inter_latency` extra units (through
/// [`Substrate::send_delayed`], which latency-modelling backends override)
/// and are counted in [`ShardStats`]. Driver-link traffic (to or from the
/// super-root) is the reliable out-of-band channel and bypasses the router
/// untouched. With [`ShardMap::single`] the router is a transparent
/// pass-through, so a machine can be built around it unconditionally.
///
/// `complete_wave` forwards to the wrapped substrate so a deferring core
/// (the simulator) can consume the wave's effects at the bottom of the
/// stack; a non-deferring core leaves the sink untouched and the driver
/// loop dispatches it against the stack *top*, so wave-produced sends are
/// routed exactly like handler-produced ones.
pub struct ShardRouter<S> {
    inner: S,
    map: ShardMap,
    inter_latency: u64,
    stats: ShardStats,
}

impl<S> ShardRouter<S> {
    /// Wraps `inner` with the `map` partition; cross-shard sends pay
    /// `inter_latency` extra driver units.
    pub fn new(inner: S, map: ShardMap, inter_latency: u64) -> ShardRouter<S> {
        ShardRouter {
            inner,
            map,
            inter_latency,
            stats: ShardStats::for_map(&map),
        }
    }

    /// The partition this router enforces.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Router accounting so far.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped substrate, mutably.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

// The machine event loops address the backend's own state (queues, clocks,
// liveness flags) through the router constantly; deref keeps that access
// direct while `Substrate` calls still resolve to the router first.
impl<S> std::ops::Deref for ShardRouter<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.inner
    }
}

impl<S> std::ops::DerefMut for ShardRouter<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: Substrate> Substrate for ShardRouter<S> {
    fn n_procs(&self) -> u32 {
        self.inner.n_procs()
    }

    fn is_live(&self, p: ProcId) -> bool {
        self.inner.is_live(p)
    }

    fn now_units(&self) -> u64 {
        self.inner.now_units()
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        self.send_delayed(from, to, msg, 0);
    }

    // Decorators above this router (a batching bus, a second router tier)
    // may carry their own surcharge; it composes with the router's rather
    // than being dropped by the trait default.
    fn send_delayed(&mut self, from: ProcId, to: ProcId, msg: Msg, extra: u64) {
        // The driver link is out-of-band: reliable, unrouted.
        if from.is_super_root() || to.is_super_root() {
            return self.inner.send_delayed(from, to, msg, extra);
        }
        if self.map.same_shard(from, to) {
            self.stats.intra_msgs += 1;
            self.inner.send_delayed(from, to, msg, extra);
        } else {
            let (a, b) = (self.map.shard_of(from), self.map.shard_of(to));
            self.stats.inter_msgs += 1;
            self.stats.inter_units += msg.size() as u64;
            if let Some(slot) = self
                .stats
                .per_link
                .get_mut((a * self.map.shards + b) as usize)
            {
                *slot += 1;
            }
            self.inner
                .send_delayed(from, to, msg, extra + self.inter_latency);
        }
    }

    fn arm_timer(&mut self, owner: ProcId, timer: Timer, delay: u64) {
        self.inner.arm_timer(owner, timer, delay);
    }

    fn report_death(&mut self, dead: ProcId) {
        self.inner.report_death(dead);
    }

    fn complete_wave(&mut self, proc: ProcId, sink: &mut ActionSink, work: u64) {
        self.inner.complete_wave(proc, sink, work);
    }

    fn trace(&mut self, kind: TraceKind) {
        self.inner.trace(kind);
    }

    fn trace_enabled(&self) -> bool {
        self.inner.trace_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::ids::TaskAddr;

    fn msg() -> Msg {
        Msg::ack(
            splice_core::stamp::LevelStamp::from_digits(&[1]),
            TaskAddr::new(ProcId(0), splice_core::ids::TaskKey(0)),
            TaskAddr::super_root(),
            0,
        )
    }

    /// Records sends with the extra delay the router asked for.
    #[derive(Default)]
    struct Probe {
        sent: Vec<(ProcId, ProcId, u64)>,
    }

    impl Substrate for Probe {
        fn n_procs(&self) -> u32 {
            8
        }
        fn is_live(&self, _p: ProcId) -> bool {
            true
        }
        fn now_units(&self) -> u64 {
            0
        }
        fn send(&mut self, from: ProcId, to: ProcId, _msg: Msg) {
            self.sent.push((from, to, 0));
        }
        fn send_delayed(&mut self, from: ProcId, to: ProcId, _msg: Msg, extra: u64) {
            self.sent.push((from, to, extra));
        }
        fn arm_timer(&mut self, _owner: ProcId, _timer: Timer, _delay: u64) {}
        fn report_death(&mut self, _dead: ProcId) {}
    }

    #[test]
    fn shard_map_partition() {
        let m = ShardMap::new(4, 4);
        assert_eq!(m.len(), 16);
        assert_eq!(m.shard_of(ProcId(0)), 0);
        assert_eq!(m.shard_of(ProcId(7)), 1);
        assert_eq!(m.shard_of(ProcId(15)), 3);
        assert!(m.same_shard(ProcId(4), ProcId(7)));
        assert!(!m.same_shard(ProcId(3), ProcId(4)));
        assert!(ShardMap::single(6).same_shard(ProcId(0), ProcId(5)));
    }

    #[test]
    fn router_counts_and_charges_cross_shard_only() {
        let mut r = ShardRouter::new(Probe::default(), ShardMap::new(2, 4), 250);
        r.send(ProcId(0), ProcId(3), msg()); // intra
        r.send(ProcId(1), ProcId(5), msg()); // inter 0→1
        r.send(ProcId(6), ProcId(2), msg()); // inter 1→0
        assert_eq!(r.stats().intra_msgs, 1);
        assert_eq!(r.stats().inter_msgs, 2);
        assert!(r.stats().inter_units > 0);
        assert_eq!(r.stats().link(0, 1), 1);
        assert_eq!(r.stats().link(1, 0), 1);
        assert_eq!(r.stats().link(0, 0), 0);
        assert_eq!(r.stats().link(5, 0), 0, "out-of-range shard reads 0");
        assert_eq!(
            r.inner().sent,
            vec![
                (ProcId(0), ProcId(3), 0),
                (ProcId(1), ProcId(5), 250),
                (ProcId(6), ProcId(2), 250),
            ]
        );
    }

    #[test]
    fn driver_link_bypasses_the_router() {
        let mut r = ShardRouter::new(Probe::default(), ShardMap::new(2, 2), 99);
        r.send(ProcId::SUPER_ROOT, ProcId(3), msg());
        r.send(ProcId(3), ProcId::SUPER_ROOT, msg());
        assert_eq!(r.stats().intra_msgs + r.stats().inter_msgs, 0);
        assert_eq!(r.inner().sent.len(), 2);
        assert!(r.inner().sent.iter().all(|(_, _, extra)| *extra == 0));
    }

    #[test]
    fn stacked_decorators_compose_their_surcharges() {
        // An outer decorator's extra delay must reach the backend summed
        // with the router's own surcharge, not be dropped.
        let mut r = ShardRouter::new(Probe::default(), ShardMap::new(2, 4), 250);
        r.send_delayed(ProcId(1), ProcId(5), msg(), 100); // inter: 100 + 250
        r.send_delayed(ProcId(0), ProcId(3), msg(), 100); // intra: 100
        r.send_delayed(ProcId(0), ProcId::SUPER_ROOT, msg(), 100); // driver link
        assert_eq!(
            r.inner().sent,
            vec![
                (ProcId(1), ProcId(5), 350),
                (ProcId(0), ProcId(3), 100),
                (ProcId(0), ProcId::SUPER_ROOT, 100),
            ]
        );
        assert_eq!(r.stats().inter_msgs, 1);
        assert_eq!(r.stats().intra_msgs, 1);
    }

    #[test]
    fn single_shard_is_a_transparent_pass_through() {
        let mut r = ShardRouter::new(Probe::default(), ShardMap::single(4), 1_000);
        r.send(ProcId(0), ProcId(3), msg());
        assert_eq!(r.stats().intra_msgs, 1);
        assert_eq!(r.stats().inter_msgs, 0);
        assert_eq!(r.inner().sent, vec![(ProcId(0), ProcId(3), 0)]);
    }

    #[test]
    fn default_send_delayed_falls_back_to_send() {
        /// A substrate that never overrides `send_delayed`.
        #[derive(Default)]
        struct Plain {
            sent: Vec<(ProcId, ProcId)>,
        }
        impl Substrate for Plain {
            fn n_procs(&self) -> u32 {
                4
            }
            fn is_live(&self, _p: ProcId) -> bool {
                true
            }
            fn now_units(&self) -> u64 {
                0
            }
            fn send(&mut self, from: ProcId, to: ProcId, _msg: Msg) {
                self.sent.push((from, to));
            }
            fn arm_timer(&mut self, _owner: ProcId, _timer: Timer, _delay: u64) {}
            fn report_death(&mut self, _dead: ProcId) {}
        }
        let mut r = ShardRouter::new(Plain::default(), ShardMap::new(2, 2), 500);
        r.send(ProcId(0), ProcId(2), msg());
        assert_eq!(r.stats().inter_msgs, 1, "still counted");
        assert_eq!(r.inner().sent, vec![(ProcId(0), ProcId(2))], "delivered");
    }
}
