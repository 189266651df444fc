//! The reactor: one cooperative pump on the caller's thread.
//!
//! A [`Pump`] is a cooperative reactor over every engine of the machine
//! ([`PumpSubstrate`]: per-engine mailboxes, a ready queue with waker
//! flags, [`TimerWheel`]s for engine timers and delayed sends) — so the
//! engine count is bounded by memory, not by the OS. An engine and its
//! placer are built together, only when the engine first has to act;
//! until then its slot is an empty pointer.
//!
//! Execution is organised as *rounds*. Within a round the pump routes the
//! front-end's injected sends, applies the round's faults, fires due
//! deadlines, and sweeps its ready queue once (bounded turns,
//! [`WAVE_BURST`] waves per turn). Between rounds the front-end advances
//! the virtual clock by the round's summed wave cost divided by the live
//! engine count (the emulated machine runs its engines in parallel,
//! whatever serialized them) and applies fault plans, so fault timing and
//! quiescence detection are deterministic.
//!
//! This file is sans-simulation: fault plans, cost models and run reports
//! live in the front-end (`splice-sim`'s `ParallelReactorMachine`).

use crate::batch::{BatchStats, BatchingSubstrate};
use crate::driver::DriverLoop;
use crate::shard::{ShardMap, ShardRouter, ShardStats};
use crate::substrate::{corrupt_value, Substrate};
use crate::timer::TimerWheel;
use crate::trace::TracingSubstrate;
use splice_applicative::Program;
use splice_core::config::Config;
use splice_core::engine::{beacons_on_start, Timer};
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::place::Placer;
use splice_core::sink::ActionSink;
use splice_simnet::trace::{TraceMode, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Ready waves one scheduling turn runs before the engine goes back to the
/// tail of the ready queue — long enough to amortize the turn, short enough
/// that no engine starves the pump.
pub const WAVE_BURST: usize = 4;

/// One stimulus waiting in an engine's mailbox.
#[derive(Debug)]
pub enum Inbound {
    /// A delivered message.
    Msg(Msg),
    /// A best-effort send that failed: the transport knew `dead` was
    /// unreachable and returned the message to its sender (the simulator's
    /// bounce, without the bounce delay).
    Bounce {
        /// The unreachable destination.
        dead: ProcId,
        /// The undeliverable message.
        msg: Msg,
    },
}

/// Per-engine liveness and corruption flags, shared by the pump and the
/// front-end. Written only by the front-end *between* rounds (faults), so
/// within a round the pump reads a stable snapshot.
pub struct ClusterMap {
    alive: Vec<AtomicBool>,
    corrupting: Vec<AtomicBool>,
    broadcast: bool,
}

impl ClusterMap {
    /// A cluster of `n` live engines; `broadcast` mirrors
    /// `DetectorConfig::broadcast`.
    pub fn new(n: u32, broadcast: bool) -> ClusterMap {
        ClusterMap {
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            corrupting: (0..n).map(|_| AtomicBool::new(false)).collect(),
            broadcast,
        }
    }

    /// Engine count.
    pub fn n(&self) -> u32 {
        self.alive.len() as u32
    }

    /// True while engine `p` has not crashed (out-of-range reads false).
    pub fn is_live(&self, p: ProcId) -> bool {
        self.alive
            .get(p.0 as usize)
            .is_some_and(|a| a.load(Ordering::Relaxed))
    }

    /// True when engine `p` emits corrupted replica results.
    pub fn is_corrupting(&self, p: ProcId) -> bool {
        self.corrupting
            .get(p.0 as usize)
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Marks `p` fail-silent dead (front-end, between rounds).
    pub fn set_dead(&self, p: ProcId) {
        self.alive[p.0 as usize].store(false, Ordering::Relaxed);
    }

    /// Marks `p` as corrupting (front-end, between rounds).
    pub fn set_corrupting(&self, p: ProcId) {
        self.corrupting[p.0 as usize].store(true, Ordering::Relaxed);
    }

    /// True when deaths produce failure notices.
    pub fn broadcast(&self) -> bool {
        self.broadcast
    }
}

/// A send waiting to be routed: parked for later release (router
/// surcharges, batching windows), or injected by the front-end (super-root
/// sends) at the top of the next round.
pub struct Delivery {
    /// Sending engine (or the super-root).
    pub from: ProcId,
    /// Destination engine (or the super-root).
    pub to: ProcId,
    /// The message.
    pub msg: Msg,
}

/// The pump's [`Substrate`]: mailboxes and a ready queue for the engines,
/// and timer and delayed-send wheels. The decorator stack over it is the
/// same shape as every other backend:
/// `ShardRouter<BatchingSubstrate<PumpSubstrate>>`.
pub struct PumpSubstrate {
    cluster: Arc<ClusterMap>,
    now: u64,
    /// Mailboxes, indexed by engine id (direct indexing keeps per-message
    /// routing O(1)).
    mail: Vec<VecDeque<Inbound>>,
    /// Stimuli waiting across all mailboxes (kept incrementally; summing
    /// 25k mailboxes per round would dominate large runs).
    backlog: u64,
    /// Engines with pending work, in wake order.
    ready: VecDeque<u32>,
    /// Waker flags, indexed by engine id (true while in `ready`).
    queued: Vec<bool>,
    timers: TimerWheel<u64, (ProcId, Timer)>,
    delayed: TimerWheel<u64, Delivery>,
    sr_mail: VecDeque<Msg>,
    pending_sr_delayed: u64,
    work_pending: u64,
    delivered: u64,
    dropped_to_dead: u64,
    bounces: u64,
}

impl PumpSubstrate {
    fn new(cluster: Arc<ClusterMap>) -> PumpSubstrate {
        let n = cluster.n() as usize;
        PumpSubstrate {
            cluster,
            now: 0,
            mail: (0..n).map(|_| VecDeque::new()).collect(),
            backlog: 0,
            ready: VecDeque::new(),
            queued: vec![false; n],
            timers: TimerWheel::new(),
            delayed: TimerWheel::new(),
            sr_mail: VecDeque::new(),
            pending_sr_delayed: 0,
            work_pending: 0,
            delivered: 0,
            dropped_to_dead: 0,
            bounces: 0,
        }
    }

    /// Queues engine `p` for a turn if live and not already queued.
    fn wake(&mut self, p: ProcId) {
        let i = p.0 as usize;
        if self.cluster.is_live(p) && !self.queued[i] {
            self.queued[i] = true;
            self.ready.push_back(p.0);
        }
    }

    /// The next engine to pump, in wake order, skipping engines that died
    /// after they were woken.
    fn pop_ready(&mut self) -> Option<ProcId> {
        while let Some(p) = self.ready.pop_front() {
            self.queued[p as usize] = false;
            if self.cluster.is_live(ProcId(p)) {
                return Some(ProcId(p));
            }
        }
        None
    }

    fn pop_inbound(&mut self, p: ProcId) -> Option<Inbound> {
        let ib = self.mail[p.0 as usize].pop_front()?;
        self.backlog -= 1;
        if matches!(ib, Inbound::Msg(_)) {
            self.delivered += 1;
        }
        Some(ib)
    }

    fn mail_len(&self, p: ProcId) -> usize {
        self.mail[p.0 as usize].len()
    }

    /// Kills `victim`: drops its mailbox (fail silent cuts both ways) and
    /// clears its waker flag. The alive flag is the front-end's to flip.
    fn kill(&mut self, victim: ProcId) {
        let i = victim.0 as usize;
        self.queued[i] = false;
        let q = &mut self.mail[i];
        self.backlog -= q.len() as u64;
        let dropped = q
            .drain(..)
            .filter(|ib| matches!(ib, Inbound::Msg(_)))
            .count();
        self.dropped_to_dead += dropped as u64;
    }

    /// A death broadcast: failure notices to every live engine except the
    /// victim. The super-root's notice is the front-end's.
    fn announce_death(&mut self, dead: ProcId) {
        if !self.cluster.broadcast() {
            return;
        }
        for p in 0..self.mail.len() as u32 {
            if p != dead.0 && self.cluster.is_live(ProcId(p)) {
                self.mail[p as usize].push_back(Inbound::Msg(Msg::FailureNotice { dead }));
                self.backlog += 1;
                if !self.queued[p as usize] {
                    self.queued[p as usize] = true;
                    self.ready.push_back(p);
                }
            }
        }
    }

    fn pop_due_timer(&mut self) -> Option<(ProcId, Timer)> {
        self.timers.pop_due(&self.now)
    }

    fn release_delayed_due(&mut self) {
        while let Some(d) = self.delayed.pop_due(&self.now) {
            if d.to.is_super_root() {
                self.pending_sr_delayed -= 1;
            }
            self.route_now(d.from, d.to, d.msg);
        }
    }

    fn next_deadline(&self) -> Option<u64> {
        match (
            self.timers.next_deadline().copied(),
            self.delayed.next_deadline().copied(),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Routes `msg` with the liveness known now: into the destination's
    /// mailbox, or back to a live sender as a bounce.
    fn route_now(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        if to.is_super_root() {
            // The driver link is reliable.
            self.sr_mail.push_back(msg);
            return;
        }
        let (dest, inbound) = if self.cluster.is_live(to) {
            (to, Inbound::Msg(msg))
        } else if !from.is_super_root() && self.cluster.is_live(from) {
            self.bounces += 1;
            (from, Inbound::Bounce { dead: to, msg })
        } else {
            self.dropped_to_dead += 1;
            return;
        };
        self.mail[dest.0 as usize].push_back(inbound);
        self.backlog += 1;
        self.wake(dest);
    }
}

impl Substrate for PumpSubstrate {
    fn n_procs(&self) -> u32 {
        self.cluster.n()
    }

    fn is_live(&self, p: ProcId) -> bool {
        self.cluster.is_live(p)
    }

    fn now_units(&self) -> u64 {
        self.now
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        self.send_delayed(from, to, msg, 0);
    }

    fn send_delayed(&mut self, from: ProcId, to: ProcId, mut msg: Msg, extra: u64) {
        // Send-side corruption, identical to the other substrates.
        if !from.is_super_root() && self.cluster.is_corrupting(from) {
            if let Msg::Result(rp) = &mut msg {
                if rp.replica.is_some() {
                    rp.value = corrupt_value(&rp.value);
                }
            }
        }
        if extra == 0 {
            return self.route_now(from, to, msg);
        }
        if to.is_super_root() {
            self.pending_sr_delayed += 1;
        }
        self.delayed
            .arm(self.now + extra, Delivery { from, to, msg });
    }

    fn arm_timer(&mut self, owner: ProcId, timer: Timer, delay: u64) {
        self.timers.arm(self.now + delay, (owner, timer));
    }

    fn report_death(&mut self, dead: ProcId) {
        self.announce_death(dead);
    }

    fn complete_wave(&mut self, _proc: ProcId, _sink: &mut ActionSink, work: u64) {
        // Non-deferring: the driver loop dispatches the sink against the
        // top of the decorator stack; only the work is recorded for the
        // front-end's clock charge.
        self.work_pending += work;
    }
}

/// The pump's decorator stack — the same shape as every other backend,
/// canonical tracer innermost so events carry the round clock.
pub type PumpStack = ShardRouter<BatchingSubstrate<TracingSubstrate<PumpSubstrate>>>;

/// What the pump reports at the end of a round.
pub struct RoundOutput {
    /// Scheduling turns taken this round.
    pub turns: u64,
    /// Waves executed this round.
    pub waves: u64,
    /// Work units those waves performed.
    pub work: u64,
    /// Ready-queue length at the end of the round.
    pub ready: usize,
    /// Stimuli still waiting across the mailboxes.
    pub backlog: u64,
    /// Earliest pending deadline (timer or parked delayed send).
    pub next_deadline: Option<u64>,
    /// Parked delayed sends addressed to the super-root (quiescence must
    /// wait for them — one can be the result).
    pub pending_sr_delayed: u64,
}

/// What the pump returns when the run finishes.
pub struct PumpHarvest {
    /// Engines that were ever built (id ascending) for report assembly;
    /// an engine missing here never received an input, so its snapshot is
    /// a fresh engine's. Boxed — a large harvest hands over pointers, not
    /// kilobyte moves.
    pub engines: Vec<(u32, Box<DriverLoop>)>,
    /// Messages consumed from the mailboxes.
    pub delivered: u64,
    /// Messages dropped at (or en route to) dead destinations.
    pub dropped_to_dead: u64,
    /// Sends returned to their senders because the destination was dead.
    pub bounces: u64,
    /// Shard-router accounting.
    pub shard_stats: ShardStats,
    /// Batching-bus accounting.
    pub batch_stats: BatchStats,
    /// The canonical-trace head (events, checksums), for the front-end to
    /// fold in after its own.
    pub tracer: Tracer,
}

/// The engine slots, indexed by engine id, and what it takes to build an
/// engine.
struct Cells {
    /// `None` until the engine is built. A driver loop is 1 216 B, and in
    /// a large fleet most engines never receive a message: an unbuilt slot
    /// costs one pointer and its placer does not exist yet. Boxed so a
    /// slot stays small.
    slots: Vec<Option<Box<DriverLoop>>>,
    /// Builds engine `p`'s placer: when the engine is built, and, with
    /// load beacons on, once per engine in the first round to ask whether
    /// its start arms a beacon.
    placer: Box<dyn Fn(ProcId) -> Box<dyn Placer> + Send>,
    program: Arc<Program>,
    config: Config,
}

impl Cells {
    /// The driver loop of engine `p`, built with its placer on first use.
    /// Building late is invisible: an engine's state depends only on the
    /// inputs it has received, an unbuilt engine has received none, and a
    /// placer's state starts from its id alone.
    fn materialize(&mut self, p: ProcId) -> &mut DriverLoop {
        if self.slots[p.0 as usize].is_none() {
            let placer = (self.placer)(p);
            return self.build(p, placer);
        }
        self.slots[p.0 as usize]
            .as_deref_mut()
            .expect("engine is built")
    }

    /// Builds engine `p` around `placer`.
    fn build(&mut self, p: ProcId, placer: Box<dyn Placer>) -> &mut DriverLoop {
        self.slots[p.0 as usize].insert(Box::new(DriverLoop::new(
            p,
            self.program.clone(),
            self.config.clone(),
            placer,
        )))
    }
}

/// The reactor pump: every engine, their substrate stack, and the round
/// loop that drives them.
pub struct Pump {
    /// The engines, built lazily with their placers when they first have
    /// to act (a message, a bounce, or a start that arms a load beacon).
    cells: Cells,
    sub: PumpStack,
    /// False until the first round has started the engines.
    started: bool,
}

impl Pump {
    /// Builds a pump over one engine per member of `cluster`, each built
    /// on first use from `program`, `config` and its placer
    /// `placer(p)`, with the standard decorator stack
    /// (`map`/`router_latency` for the shard router, `batch_window` for
    /// the bus) over the pump substrate. No engine and no placer is built
    /// here.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cluster: Arc<ClusterMap>,
        placer: Box<dyn Fn(ProcId) -> Box<dyn Placer> + Send>,
        program: Arc<Program>,
        config: Config,
        map: ShardMap,
        router_latency: u64,
        batch_window: u64,
        trace: TraceMode,
    ) -> Pump {
        Pump {
            cells: Cells {
                slots: (0..cluster.n()).map(|_| None).collect(),
                placer,
                program,
                config,
            },
            sub: ShardRouter::new(
                BatchingSubstrate::new(
                    TracingSubstrate::new(PumpSubstrate::new(cluster), Tracer::new(trace)),
                    batch_window,
                ),
                map,
                router_latency,
            ),
            started: false,
        }
    }

    /// Runs one round at clock `now`: route the front-end's `inject`ed
    /// sends (draining it), apply the round's `kills` in plan order, fire
    /// due deadlines, sweep the ready queue once. Messages for the
    /// super-root are appended to `sr_mail`.
    pub fn run_round(
        &mut self,
        now: u64,
        kills: &[ProcId],
        inject: &mut Vec<Delivery>,
        sr_mail: &mut Vec<Msg>,
    ) -> RoundOutput {
        self.sub.now = now;
        if !self.started {
            self.started = true;
            // Only an engine whose start arms a load beacon is built now;
            // every other start would emit nothing, so its engine (and
            // placer) waits for its first input. Without beacons no start
            // can emit, and no placer is built to ask.
            if self.cells.config.load_beacon_period > 0 {
                for p in (0..self.cells.slots.len() as u32).map(ProcId) {
                    let placer = (self.cells.placer)(p);
                    if !beacons_on_start(&self.cells.config, &*placer) {
                        continue;
                    }
                    let node = self.cells.build(p, placer);
                    node.start(&mut self.sub);
                    if node.has_ready() || self.sub.mail_len(p) > 0 {
                        self.sub.wake(p);
                    }
                }
            }
        }
        for d in inject.drain(..) {
            self.sub.route_now(d.from, d.to, d.msg);
        }
        // Faults, one victim at a time in plan order: drop the mailbox,
        // then announce the death to the live engines (the front-end
        // notifies the super-root).
        for &v in kills {
            self.sub.kill(v);
            self.sub.announce_death(v);
        }
        self.sub.inner_mut().flush();
        // Due deadlines: parked delayed sends, then engine timers.
        self.sub.release_delayed_due();
        while let Some((owner, timer)) = self.sub.pop_due_timer() {
            if !self.sub.cluster.is_live(owner) {
                continue;
            }
            let node = self.cells.materialize(owner);
            node.on_timer(timer, &mut self.sub);
            if node.has_ready() || self.sub.mail_len(owner) > 0 {
                self.sub.wake(owner);
            }
        }
        self.sub.inner_mut().flush();
        // Sweep: every engine ready at the top of the round gets one
        // cooperative turn: the stimuli that were waiting when the turn
        // began (never more — a bounce of one of this turn's own sends
        // would otherwise refill the mailbox as fast as it drains), then a
        // bounded wave burst. Engines woken during the sweep wait for the
        // next round, which is what bounds a round's clock charge to a few
        // waves per live engine.
        let mut turns: u64 = 0;
        let mut waves: u64 = 0;
        for _ in 0..self.sub.ready.len() {
            let Some(p) = self.sub.pop_ready() else {
                break;
            };
            turns += 1;
            let node = self.cells.materialize(p);
            for _ in 0..self.sub.mail_len(p) {
                let Some(ib) = self.sub.pop_inbound(p) else {
                    break;
                };
                match ib {
                    Inbound::Msg(msg) => node.on_message(msg, &mut self.sub),
                    Inbound::Bounce { dead, msg } => node.on_send_failed(dead, msg, &mut self.sub),
                }
            }
            for _ in 0..WAVE_BURST {
                if !node.run_ready_wave(&mut self.sub) {
                    break;
                }
                waves += 1;
            }
            if node.has_ready() || self.sub.mail_len(p) > 0 {
                self.sub.wake(p);
            }
            // One turn, one batch — the bus flushes per turn.
            self.sub.inner_mut().flush();
        }
        sr_mail.extend(self.sub.sr_mail.drain(..));
        RoundOutput {
            turns,
            waves,
            work: std::mem::take(&mut self.sub.work_pending),
            ready: self.sub.ready.len(),
            backlog: self.sub.backlog,
            next_deadline: self.sub.next_deadline(),
            pending_sr_delayed: self.sub.pending_sr_delayed,
        }
    }

    /// Dismantles the pump into its harvest: the engines that were built,
    /// and the counters.
    pub fn harvest(self) -> PumpHarvest {
        let Pump { cells, mut sub, .. } = self;
        let shard_stats = sub.stats().clone();
        let batch_stats = *sub.inner().batch_stats();
        let tracer = std::mem::take(sub.inner_mut().inner_mut().tracer_mut());
        // Dropping the stack flushes the (empty) bus into the core.
        let core: &PumpSubstrate = &sub;
        let (delivered, dropped_to_dead, bounces) =
            (core.delivered, core.dropped_to_dead, core.bounces);
        PumpHarvest {
            engines: cells
                .slots
                .into_iter()
                .enumerate()
                .filter_map(|(p, slot)| Some((p as u32, slot?)))
                .collect(),
            delivered,
            dropped_to_dead,
            bounces,
            shard_stats,
            batch_stats,
            tracer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cluster_map_tracks_liveness_and_corruption() {
        let c = ClusterMap::new(6, true);
        assert_eq!(c.n(), 6);
        assert!(c.is_live(ProcId(5)));
        assert!(!c.is_live(ProcId(9)), "out of range reads dead");
        c.set_dead(ProcId(4));
        assert!(!c.is_live(ProcId(4)));
        assert!(!c.is_corrupting(ProcId(1)));
        c.set_corrupting(ProcId(1));
        assert!(c.is_corrupting(ProcId(1)));
        assert!(c.broadcast());
    }

    fn msg(tag: u32) -> Msg {
        Msg::ack(
            splice_core::stamp::LevelStamp::from_digits(&[1]),
            splice_core::ids::TaskAddr::new(ProcId(tag), splice_core::ids::TaskKey(u64::from(tag))),
            splice_core::ids::TaskAddr::super_root(),
            tag,
        )
    }

    /// The pump's substrate over `n` engines.
    fn sub_of(n: u32, broadcast: bool) -> (Arc<ClusterMap>, PumpSubstrate) {
        let cluster = Arc::new(ClusterMap::new(n, broadcast));
        let sub = PumpSubstrate::new(cluster.clone());
        (cluster, sub)
    }

    fn tag(ib: Option<Inbound>) -> u32 {
        match ib {
            Some(Inbound::Msg(Msg::Ack(a))) => a.incarnation,
            other => panic!("expected an ack, got {other:?}"),
        }
    }

    #[test]
    fn sends_land_in_the_destination_mailbox_and_wake_it() {
        let (_cluster, mut sub) = sub_of(4, true);
        sub.send(ProcId(0), ProcId(1), msg(7));
        assert_eq!(sub.backlog, 1);
        assert_eq!(sub.pop_ready(), Some(ProcId(1)));
        assert_eq!(tag(sub.pop_inbound(ProcId(1))), 7);
        assert_eq!(sub.delivered, 1);
    }

    #[test]
    fn send_to_dead_engine_bounces_to_the_live_sender() {
        let (cluster, mut sub) = sub_of(4, true);
        cluster.set_dead(ProcId(1));
        sub.send(ProcId(0), ProcId(1), msg(1));
        assert_eq!(sub.bounces, 1);
        assert!(matches!(
            sub.pop_inbound(ProcId(0)),
            Some(Inbound::Bounce {
                dead: ProcId(1),
                ..
            })
        ));
        // Dead sender: dropped.
        cluster.set_dead(ProcId(3));
        sub.send(ProcId(3), ProcId(1), msg(3));
        assert_eq!(sub.dropped_to_dead, 1);
    }

    #[test]
    fn delayed_sends_release_against_current_liveness() {
        let (cluster, mut sub) = sub_of(4, true);
        sub.send_delayed(ProcId(0), ProcId(1), msg(5), 10);
        sub.send_delayed(ProcId(1), ProcId::SUPER_ROOT, msg(6), 20);
        assert_eq!(sub.pending_sr_delayed, 1);
        assert_eq!(sub.next_deadline(), Some(10));
        // Engine 1 dies while the send is parked: release must bounce it.
        cluster.set_dead(ProcId(1));
        sub.now = 25;
        sub.release_delayed_due();
        assert_eq!(sub.pending_sr_delayed, 0);
        assert_eq!(sub.sr_mail.len(), 1, "super-root link is reliable");
        assert_eq!(sub.bounces, 1);
    }

    #[test]
    fn kill_drops_the_mailbox_and_announce_notifies_live_peers() {
        let (cluster, mut sub) = sub_of(4, true);
        sub.send(ProcId(0), ProcId(1), msg(1));
        sub.send(ProcId(0), ProcId(1), msg(2));
        cluster.set_dead(ProcId(1));
        sub.kill(ProcId(1));
        assert_eq!(sub.dropped_to_dead, 2);
        assert_eq!(sub.backlog, 0);
        sub.announce_death(ProcId(1));
        assert!(matches!(
            sub.pop_inbound(ProcId(0)),
            Some(Inbound::Msg(Msg::FailureNotice { dead: ProcId(1) }))
        ));
        assert!(sub.pop_inbound(ProcId(1)).is_none(), "victim hears nothing");
    }

    #[test]
    fn corrupting_senders_flip_replica_results_only() {
        use splice_applicative::wave::Demand;
        use splice_applicative::{FnId, Value};
        use splice_core::packet::{ReplicaInfo, ResultPacket};
        let (cluster, mut sub) = sub_of(4, true);
        cluster.set_corrupting(ProcId(0));
        let rp = ResultPacket {
            from_stamp: splice_core::stamp::LevelStamp::from_digits(&[1]),
            demand: Demand::new(FnId(0), vec![Value::Int(1)]),
            value: Value::Int(7),
            to: splice_core::ids::TaskAddr::new(ProcId(2), splice_core::ids::TaskKey(0)),
            to_stamp: splice_core::stamp::LevelStamp::root(),
            relay_chain: vec![],
            replica: Some(ReplicaInfo { index: 0, total: 3 }),
        };
        let mut sent = |rp: ResultPacket| {
            sub.send(ProcId(0), ProcId(2), Msg::result(rp));
            let Some(Inbound::Msg(Msg::Result(got))) = sub.pop_inbound(ProcId(2)) else {
                panic!("result expected");
            };
            got.value
        };
        assert_ne!(sent(rp.clone()), Value::Int(7), "replica result corrupted");
        let plain = ResultPacket {
            replica: None,
            ..rp
        };
        assert_eq!(sent(plain), Value::Int(7), "non-replica results pass");
    }

    #[test]
    fn wake_deduplicates_and_the_dead_get_no_turn() {
        let (cluster, mut sub) = sub_of(4, true);
        sub.wake(ProcId(1));
        sub.wake(ProcId(1));
        sub.wake(ProcId(2));
        sub.wake(ProcId(3));
        // Killed before a wake: never queues. Killed between its wake and
        // its turn: the turn is cancelled — a fail-silent processor must
        // not run queued waves whose sends would escape.
        cluster.set_dead(ProcId(0));
        sub.wake(ProcId(0));
        cluster.set_dead(ProcId(2));
        sub.kill(ProcId(2));
        assert_eq!(sub.pop_ready(), Some(ProcId(1)));
        assert_eq!(sub.pop_ready(), Some(ProcId(3)), "stale dead entry skipped");
        assert_eq!(sub.pop_ready(), None);
    }

    #[test]
    fn delayed_sends_release_at_their_deadline_in_fifo_order() {
        let (_cluster, mut sub) = sub_of(2, true);
        sub.send_delayed(ProcId(0), ProcId(1), msg(1), 50);
        sub.send_delayed(ProcId(0), ProcId(1), msg(2), 50);
        sub.release_delayed_due();
        assert_eq!(sub.mail_len(ProcId(1)), 0, "not due yet");
        assert_eq!(sub.next_deadline(), Some(50));
        sub.now = 50;
        sub.release_delayed_due();
        let first = tag(sub.pop_inbound(ProcId(1)));
        assert_eq!((first, tag(sub.pop_inbound(ProcId(1)))), (1, 2), "FIFO");
    }

    #[test]
    fn super_root_link_is_reliable_and_counted_while_parked() {
        let (cluster, mut sub) = sub_of(2, true);
        sub.send_delayed(ProcId(0), ProcId::SUPER_ROOT, msg(5), 30);
        // Every worker dies while the message is parked: it must still
        // land, and quiescence must wait for it — it can be the result.
        cluster.set_dead(ProcId(0));
        cluster.set_dead(ProcId(1));
        assert_eq!(sub.pending_sr_delayed, 1);
        assert!(sub.sr_mail.is_empty());
        sub.now = 30;
        sub.release_delayed_due();
        assert_eq!(sub.pending_sr_delayed, 0);
        assert_eq!(sub.sr_mail.len(), 1);
    }

    #[test]
    fn disabled_broadcast_announces_no_deaths() {
        let (cluster, mut sub) = sub_of(3, false);
        cluster.set_dead(ProcId(1));
        sub.kill(ProcId(1));
        sub.report_death(ProcId(1));
        assert_eq!(sub.backlog, 0, "deaths are silent");
        assert_eq!(sub.pop_ready(), None);
    }

    /// A pump over `n` engines, each built on first use with `placer(p)`,
    /// running fib(5) under `beacon_period`, and the count of placers
    /// built so far.
    fn lazy_pump(
        n: u32,
        beacon_period: u64,
        placer: impl Fn(ProcId) -> Box<dyn Placer> + Send + 'static,
    ) -> (Pump, Arc<AtomicUsize>) {
        let config = Config {
            load_beacon_period: beacon_period,
            ..Config::default()
        };
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = calls.clone();
        let pump = Pump::new(
            Arc::new(ClusterMap::new(n, true)),
            Box::new(move |p| {
                counted.fetch_add(1, Ordering::Relaxed);
                placer(p)
            }),
            Arc::new(splice_applicative::Workload::fib(5).program),
            config,
            ShardMap::new(1, n),
            0,
            0,
            TraceMode::Off,
        );
        (pump, calls)
    }

    fn round(pump: &mut Pump, mut inject: Vec<Delivery>) {
        pump.run_round(0, &[], &mut inject, &mut Vec::new());
    }

    fn built(pump: Pump) -> Vec<u32> {
        pump.harvest().engines.iter().map(|(p, _)| *p).collect()
    }

    #[test]
    fn idle_engines_are_never_built() {
        use splice_core::place::RoundRobinPlacer;
        use splice_gradient::{GradientConfig, GradientPlacer};
        let n = 16;
        // Round-robin without beacons: a start emits nothing, so only the
        // two engines that receive a message are ever built, and only
        // their placers.
        let all: Arc<[ProcId]> = (0..n).map(ProcId).collect();
        let (mut pump, placers) =
            lazy_pump(n, 0, move |_| Box::new(RoundRobinPlacer::new(all.clone())));
        let probe = |to| Delivery {
            from: ProcId::SUPER_ROOT,
            to: ProcId(to),
            msg: Msg::Probe,
        };
        round(&mut pump, vec![probe(3), probe(11)]);
        round(&mut pump, Vec::new());
        assert_eq!(
            placers.load(Ordering::Relaxed),
            2,
            "one placer per built engine"
        );
        assert_eq!(built(pump), vec![3, 11]);
        // Gradient with beacons: every start arms a beacon, so every
        // engine is built in the first round, input or not, each with the
        // placer its beacon check built.
        let (mut pump, placers) = lazy_pump(n, 20, move |p| {
            let ring = vec![ProcId((p.0 + n - 1) % n), ProcId((p.0 + 1) % n)];
            Box::new(GradientPlacer::new(p, ring, GradientConfig::default()))
        });
        round(&mut pump, Vec::new());
        assert_eq!(
            placers.load(Ordering::Relaxed),
            n as usize,
            "one placer per engine"
        );
        assert_eq!(built(pump), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn timers_fire_per_owner_in_deadline_order() {
        let (_cluster, mut sub) = sub_of(2, true);
        sub.arm_timer(ProcId(1), Timer::LoadBeacon, 20);
        sub.arm_timer(ProcId(0), Timer::LoadBeacon, 10);
        assert!(sub.pop_due_timer().is_none());
        sub.now = 25;
        assert_eq!(sub.pop_due_timer().map(|(p, _)| p), Some(ProcId(0)));
        assert_eq!(sub.pop_due_timer().map(|(p, _)| p), Some(ProcId(1)));
        assert!(sub.pop_due_timer().is_none());
    }
}
