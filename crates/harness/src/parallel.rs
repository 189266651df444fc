//! The parallel reactor: one cooperative pump per core.
//!
//! [`ReactorCluster`] runs N [`Pump`]s on N OS threads, each a cooperative
//! reactor over its partition of the engines ([`PumpSubstrate`]: per-engine
//! mailboxes, a ready queue with waker flags, [`TimerWheel`]s for engine
//! timers and delayed sends) — so the engine count is bounded by memory,
//! not by the OS. A hosted engine's driver loop is built only when the
//! engine first has to act; until then its slot holds just its placer. A
//! single pump runs inline on the caller's thread: that configuration *is*
//! the single-thread reactor. Cross-reactor sends travel over per-pair
//! bounded channels (the crossbeam shim) as [`Transfer`] envelopes; the
//! envelope buffers are pooled and recycled between peers, so
//! steady-state cross-reactor traffic does not allocate per send.
//!
//! Execution is organised as *rounds* separated by barriers — a BSP-style
//! virtual-clock barrier protocol. Within a round each pump drains its
//! peers' envelopes, fires due deadlines, and sweeps its ready queue once
//! (bounded turns, [`WAVE_BURST`] waves per turn). Between rounds the
//! coordinator (the front-end driving [`ReactorCluster::round`]) advances
//! the shared virtual clock by the round's summed wave cost divided by the
//! live engine count (the emulated machine runs its engines in parallel,
//! whatever thread serialized them) and applies fault plans, so fault
//! timing and quiescence detection stay deterministic for a fixed thread
//! count, and verdict/value parity with the DES holds at any thread count.
//!
//! Engines are not pinned to their birth pump: the coordinator may ask a
//! loaded pump to *donate* ready engines to an idle one
//! ([`RoundInput::donate`]) — barrier-granular work stealing. A migrating
//! engine travels as a [`Transfer::Engine`] envelope carrying its driver
//! loop, mailbox and pending timers; the shared [`ClusterMap`] location
//! table is updated at the barrier, and pumps forward mid-flight messages
//! for engines they no longer host.
//!
//! This file is sans-simulation: fault plans, cost models and run reports
//! live in the front-end (`splice-sim`'s `ParallelReactorMachine`).

use crate::batch::{BatchStats, BatchingSubstrate};
use crate::driver::DriverLoop;
use crate::shard::{ShardMap, ShardRouter, ShardStats};
use crate::substrate::{corrupt_value, Substrate};
use crate::timer::TimerWheel;
use crate::trace::TracingSubstrate;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use splice_applicative::Program;
use splice_core::config::Config;
use splice_core::engine::{beacons_on_start, Timer};
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::place::Placer;
use splice_core::sink::ActionSink;
use splice_simnet::trace::{TraceMode, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// Cluster-wide shared state: per-engine liveness and corruption flags and
/// the engine→pump location table. All fields are atomics written only by
/// the coordinator *between* rounds (faults, migration commits), so within
/// a round every pump reads a stable snapshot; relaxed ordering suffices
/// because the barrier's channel send/recv pair already orders the writes.
pub struct ClusterMap {
    alive: Vec<AtomicBool>,
    corrupting: Vec<AtomicBool>,
    loc: Vec<AtomicU32>,
    broadcast: bool,
}

impl ClusterMap {
    /// A cluster of `n` live engines, engine `p` initially hosted on pump
    /// `assign(p)`; `broadcast` mirrors `DetectorConfig::broadcast`.
    pub fn new(n: u32, broadcast: bool, mut assign: impl FnMut(u32) -> u32) -> ClusterMap {
        ClusterMap {
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            corrupting: (0..n).map(|_| AtomicBool::new(false)).collect(),
            loc: (0..n).map(|p| AtomicU32::new(assign(p))).collect(),
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

    /// The pump currently hosting engine `p`.
    pub fn pump_of(&self, p: ProcId) -> u32 {
        self.loc[p.0 as usize].load(Ordering::Relaxed)
    }

    /// Marks `p` fail-silent dead (coordinator, at a barrier).
    pub fn set_dead(&self, p: ProcId) {
        self.alive[p.0 as usize].store(false, Ordering::Relaxed);
    }

    /// Marks `p` as corrupting (coordinator, at a barrier).
    pub fn set_corrupting(&self, p: ProcId) {
        self.corrupting[p.0 as usize].store(true, Ordering::Relaxed);
    }

    /// Commits a migration: engine `p` is now hosted on `pump`
    /// (coordinator, at a barrier).
    pub fn set_pump(&self, p: ProcId, pump: u32) {
        self.loc[p.0 as usize].store(pump, Ordering::Relaxed);
    }

    /// True when deaths produce failure notices.
    pub fn broadcast(&self) -> bool {
        self.broadcast
    }
}

/// An engine migrating between pumps: its driver loop, the mailbox it had
/// accumulated, and its pending timers (absolute deadlines — the virtual
/// clock is cluster-global, so they transfer unchanged).
pub struct Migration {
    /// The migrating engine.
    pub proc: ProcId,
    /// Its driver loop (engine, sink, placer).
    pub node: DriverLoop,
    /// Stimuli it had not consumed yet.
    pub mail: VecDeque<Inbound>,
    /// Pending timers in `(deadline, arming-order)` order.
    pub timers: Vec<(u64, Timer)>,
}

/// One item of an inter-reactor envelope.
pub enum Transfer {
    /// A message for an engine hosted on the receiving pump (or forwarded
    /// onward if it migrated again meanwhile).
    Deliver {
        /// Sending engine (or the super-root).
        from: ProcId,
        /// Destination engine.
        to: ProcId,
        /// The message.
        msg: Msg,
    },
    /// A bounced send returning to its sender on the receiving pump.
    Bounce {
        /// The live sender the message returns to.
        sender: ProcId,
        /// The unreachable destination.
        dead: ProcId,
        /// The undeliverable message.
        msg: Msg,
    },
    /// A migrating engine (work stealing).
    Engine(Box<Migration>),
}

/// A send parked for later release (router surcharges, batching windows).
struct DelayedSend {
    from: ProcId,
    to: ProcId,
    msg: Msg,
}

/// The per-pump [`Substrate`]: local mailboxes and ready queue for hosted
/// engines, timer and delayed-send wheels, and per-peer outboxes for
/// cross-reactor traffic. The decorator stack over it is the same shape as
/// every other backend: `ShardRouter<BatchingSubstrate<PumpSubstrate>>`.
pub struct PumpSubstrate {
    cluster: Arc<ClusterMap>,
    now: u64,
    /// Mailboxes, indexed by engine id over the full roster (only hosted
    /// slots are used; direct indexing keeps per-message routing O(1)).
    /// Roster-order iteration over the index keeps whole-roster walks
    /// deterministic.
    mail: Vec<VecDeque<Inbound>>,
    /// True at the slots of engines this pump currently hosts — the
    /// local-vs-cross routing test.
    hosted: Vec<bool>,
    /// Stimuli waiting across all hosted mailboxes (kept incrementally;
    /// summing 25k mailboxes per round would dominate large runs).
    backlog: u64,
    /// Hosted engines with pending work, in wake order.
    ready: VecDeque<u32>,
    /// Waker flags, indexed by engine id (true while in `ready`).
    queued: Vec<bool>,
    timers: TimerWheel<u64, (ProcId, Timer)>,
    delayed: TimerWheel<u64, DelayedSend>,
    /// Per-peer cross-reactor buffers, flushed once per round.
    outbox: Vec<Vec<Transfer>>,
    /// Recycled envelope buffers (drained peer envelopes land here).
    pool: Vec<Vec<Transfer>>,
    sr_mail: VecDeque<Msg>,
    pending_sr_delayed: u64,
    work_pending: u64,
    delivered: u64,
    dropped_to_dead: u64,
    bounces: u64,
    msgs_cross: u64,
}

impl PumpSubstrate {
    fn new(cluster: Arc<ClusterMap>, n_pumps: u32) -> PumpSubstrate {
        let n = cluster.n() as usize;
        PumpSubstrate {
            cluster,
            now: 0,
            mail: (0..n).map(|_| VecDeque::new()).collect(),
            hosted: vec![false; n],
            backlog: 0,
            ready: VecDeque::new(),
            queued: vec![false; n],
            timers: TimerWheel::new(),
            delayed: TimerWheel::new(),
            outbox: (0..n_pumps).map(|_| Vec::new()).collect(),
            // Prime one envelope buffer per peer so round 1 flushes
            // without allocating; afterwards drained peer envelopes keep
            // the pool in circulation.
            pool: (1..n_pumps).map(|_| Vec::new()).collect(),
            sr_mail: VecDeque::new(),
            pending_sr_delayed: 0,
            work_pending: 0,
            delivered: 0,
            dropped_to_dead: 0,
            bounces: 0,
            msgs_cross: 0,
        }
    }

    /// Queues hosted engine `p` for a turn if live and not already queued.
    fn wake(&mut self, p: ProcId) {
        let i = p.0 as usize;
        if self.cluster.is_live(p) && !self.queued[i] {
            self.queued[i] = true;
            self.ready.push_back(p.0);
        }
    }

    /// The next hosted engine to pump, in wake order, skipping engines
    /// that died after they were woken.
    fn pop_ready(&mut self) -> Option<ProcId> {
        while let Some(p) = self.ready.pop_front() {
            self.queued[p as usize] = false;
            if self.cluster.is_live(ProcId(p)) {
                return Some(ProcId(p));
            }
        }
        None
    }

    /// The most recently woken live engine — the donation pick (stealing
    /// from the tail keeps the head of the queue, already next in line,
    /// where it is).
    fn pop_ready_back(&mut self) -> Option<ProcId> {
        while let Some(p) = self.ready.pop_back() {
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

    /// Kills hosted `victim`: drops its mailbox (fail silent cuts both
    /// ways) and clears its waker flag. The cluster-wide alive flag is the
    /// coordinator's to flip.
    fn kill_local(&mut self, victim: ProcId) {
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

    /// This pump's share of a death broadcast: failure notices to every
    /// live hosted engine except the victim. The super-root notice is the
    /// coordinator's (delivered exactly once, not once per pump).
    fn announce_death(&mut self, dead: ProcId) {
        if !self.cluster.broadcast() {
            return;
        }
        for p in 0..self.hosted.len() as u32 {
            if self.hosted[p as usize] && p != dead.0 && self.cluster.is_live(ProcId(p)) {
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

    /// Returns a bounced message to its sender, wherever that engine is
    /// hosted. The bounce was already counted at the routing point.
    fn deliver_bounce(&mut self, sender: ProcId, dead: ProcId, msg: Msg) {
        if !self.cluster.is_live(sender) {
            self.dropped_to_dead += 1;
            return;
        }
        if self.hosted[sender.0 as usize] {
            self.mail[sender.0 as usize].push_back(Inbound::Bounce { dead, msg });
            self.backlog += 1;
            self.wake(sender);
        } else {
            let dest = self.cluster.pump_of(sender);
            self.outbox[dest as usize].push(Transfer::Bounce { sender, dead, msg });
        }
    }

    /// Routes `msg` with the liveness known now: local mailbox for hosted
    /// destinations, the per-peer outbox for everyone else.
    fn route_now(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        if to.is_super_root() {
            // The driver link is reliable.
            self.sr_mail.push_back(msg);
            return;
        }
        if !self.cluster.is_live(to) {
            let sender_live = !from.is_super_root() && self.cluster.is_live(from);
            if sender_live {
                self.bounces += 1;
                self.deliver_bounce(from, to, msg);
            } else {
                self.dropped_to_dead += 1;
            }
            return;
        }
        if self.hosted[to.0 as usize] {
            self.mail[to.0 as usize].push_back(Inbound::Msg(msg));
            self.backlog += 1;
            self.wake(to);
            return;
        }
        // Cross-reactor (or mid-migration: the location table may still
        // point at a pump the engine just left, in which case that pump
        // forwards — each forward costs one round and the table catches up
        // at the next barrier).
        let dest = self.cluster.pump_of(to);
        self.msgs_cross += 1;
        self.outbox[dest as usize].push(Transfer::Deliver { from, to, msg });
    }

    /// Applies one received transfer (envelope item or coordinator
    /// injection). `Engine` transfers are handled by the pump, which owns
    /// the driver loops.
    fn apply_transfer(&mut self, t: Transfer) -> Option<Box<Migration>> {
        match t {
            Transfer::Deliver { from, to, msg } => {
                self.route_now(from, to, msg);
                None
            }
            Transfer::Bounce { sender, dead, msg } => {
                self.deliver_bounce(sender, dead, msg);
                None
            }
            Transfer::Engine(m) => Some(m),
        }
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
            .arm(self.now + extra, DelayedSend { from, to, msg });
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
        // coordinator's clock charge.
        self.work_pending += work;
    }
}

/// The per-pump decorator stack — the same shape as every other backend,
/// canonical tracer innermost so events carry the barrier clock.
pub type PumpStack = ShardRouter<BatchingSubstrate<TracingSubstrate<PumpSubstrate>>>;

/// What the coordinator hands a pump at the top of a round.
pub struct RoundInput {
    /// The cluster virtual clock for this round (advanced at barriers
    /// only, so every pump computes against the same instant).
    pub now: u64,
    /// Engines that crashed at this barrier, in fault-plan order. Every
    /// pump receives the full list: the hosting pump drops the victim's
    /// mailbox, every pump notifies its own live engines.
    pub kills: Vec<ProcId>,
    /// Coordinator-originated traffic (super-root sends).
    pub inject: Vec<Transfer>,
    /// Work stealing: donate up to `.0` ready engines to pump `.1`.
    pub donate: Option<(u32, u32)>,
    /// Recycled buffer the round's super-root mail returns in.
    pub sr_mail_buf: Vec<Msg>,
    /// Recycled buffer the round's donated-engine list returns in.
    pub donated_buf: Vec<ProcId>,
}

/// What a pump reports back at the barrier.
pub struct RoundOutput {
    /// Scheduling turns taken this round.
    pub turns: u64,
    /// Waves executed this round.
    pub waves: u64,
    /// Work units those waves performed.
    pub work: u64,
    /// Ready-queue length at the end of the round.
    pub ready: usize,
    /// Stimuli still waiting across hosted mailboxes.
    pub backlog: u64,
    /// Earliest pending local deadline (timer or parked delayed send).
    pub next_deadline: Option<u64>,
    /// Parked delayed sends addressed to the super-root (quiescence must
    /// wait for them — one can be the result).
    pub pending_sr_delayed: u64,
    /// True when this round flushed at least one non-empty envelope.
    pub sent_cross: bool,
    /// Messages addressed to the super-root this round.
    pub sr_mail: Vec<Msg>,
    /// Engines donated this round (the coordinator commits them to the
    /// location table at the barrier).
    pub donated: Vec<ProcId>,
    /// The drained injection buffer, returned for reuse.
    pub spent_inject: Vec<Transfer>,
}

/// Aggregate a pump returns when the run finishes.
pub struct PumpHarvest {
    /// Hosted engines that were ever built (id ascending) for report
    /// assembly; an engine missing here never received an input, so its
    /// snapshot is a fresh engine's. Boxed — a large harvest hands over
    /// pointers, not kilobyte moves.
    pub engines: Vec<(u32, Box<DriverLoop>)>,
    /// Messages consumed from hosted mailboxes.
    pub delivered: u64,
    /// Messages dropped at (or en route to) dead destinations.
    pub dropped_to_dead: u64,
    /// Sends returned to their senders because the destination was dead.
    pub bounces: u64,
    /// Worker messages that crossed a pump boundary (forwards included —
    /// every hop is one inter-reactor message).
    pub msgs_cross: u64,
    /// This pump's shard-router accounting.
    pub shard_stats: ShardStats,
    /// This pump's batching-bus accounting.
    pub batch_stats: BatchStats,
    /// This pump's canonical-trace head (events, checksums), for the
    /// coordinator to fold in pump order.
    pub tracer: Tracer,
}

/// One engine slot of a pump.
enum Cell {
    /// Hosted by another pump.
    Away,
    /// Hosted here but not stimulated yet: only the placer its engine
    /// will be built with. A driver loop is 1 216 B, and in a large fleet
    /// most engines never receive a message.
    Pending(Box<dyn Placer>),
    /// Hosted here and built. Boxed so a slot is one pointer and
    /// migrations move the box, not the engine state.
    Live(Box<DriverLoop>),
}

/// A pump's engine slots, indexed by engine id over the full roster, and
/// what it takes to build a pending one.
struct Cells {
    slots: Vec<Cell>,
    program: Arc<Program>,
    config: Config,
}

impl Cells {
    /// The driver loop of hosted engine `p`, built from its placer on
    /// first use; `None` when another pump hosts `p`. Building late is
    /// invisible: an engine's state depends only on the inputs it has
    /// received, and a pending engine has received none.
    fn materialize(&mut self, p: ProcId) -> Option<&mut DriverLoop> {
        let slot = &mut self.slots[p.0 as usize];
        if let Cell::Pending(_) = slot {
            let Cell::Pending(placer) = std::mem::replace(slot, Cell::Away) else {
                unreachable!("slot was pending");
            };
            *slot = Cell::Live(Box::new(DriverLoop::new(
                p,
                self.program.clone(),
                self.config.clone(),
                placer,
            )));
        }
        match slot {
            Cell::Live(node) => Some(node),
            _ => None,
        }
    }

    /// Removes hosted engine `p` for migration, built first if it was
    /// pending; `None` when another pump hosts `p`.
    fn take(&mut self, p: ProcId) -> Option<DriverLoop> {
        self.materialize(p)?;
        match std::mem::replace(&mut self.slots[p.0 as usize], Cell::Away) {
            Cell::Live(node) => Some(*node),
            Cell::Away | Cell::Pending(_) => unreachable!("materialized engine is live"),
        }
    }
}

/// One reactor pump: a partition of the engines, their substrate stack,
/// and the per-pair links to every peer pump.
pub struct Pump {
    id: u32,
    /// Hosted engines, built lazily: a slot holds only its placer until
    /// the engine first has to act (a message, a bounce, a migration, or a
    /// start that arms a load beacon).
    cells: Cells,
    sub: PumpStack,
    /// Envelope senders, index = peer pump (own slot unused).
    links_tx: Vec<Option<Sender<Vec<Transfer>>>>,
    /// Envelope receivers, index = peer pump (own slot unused).
    links_rx: Vec<Option<Receiver<Vec<Transfer>>>>,
    /// False until the first round has started the hosted engines.
    started: bool,
    rounds: u64,
}

impl Pump {
    /// Builds pump `id` of `n_pumps` hosting the engines in `placers`,
    /// each to be built on first use from its placer, `program` and
    /// `config`, with the standard decorator stack (`map`/`router_latency`
    /// for the shard router, `batch_window` for the bus) over the pump
    /// substrate.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        n_pumps: u32,
        cluster: Arc<ClusterMap>,
        placers: Vec<(ProcId, Box<dyn Placer>)>,
        program: Arc<Program>,
        config: Config,
        map: ShardMap,
        router_latency: u64,
        batch_window: u64,
        trace: TraceMode,
    ) -> Pump {
        let n = cluster.n() as usize;
        let mut core = PumpSubstrate::new(cluster, n_pumps);
        let mut slots: Vec<Cell> = (0..n).map(|_| Cell::Away).collect();
        for (p, placer) in placers {
            core.hosted[p.0 as usize] = true;
            slots[p.0 as usize] = Cell::Pending(placer);
        }
        Pump {
            id,
            cells: Cells {
                slots,
                program,
                config,
            },
            sub: ShardRouter::new(
                BatchingSubstrate::new(
                    TracingSubstrate::new(core, Tracer::new(trace)),
                    batch_window,
                ),
                map,
                router_latency,
            ),
            links_tx: (0..n_pumps).map(|_| None).collect(),
            links_rx: (0..n_pumps).map(|_| None).collect(),
            started: false,
            rounds: 0,
        }
    }

    /// This pump's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Installs a migrated-in engine.
    fn install(&mut self, m: Migration) {
        let Migration {
            proc,
            node,
            mail,
            timers,
        } = m;
        self.sub.backlog += mail.len() as u64;
        for (at, timer) in timers {
            self.sub.timers.arm(at, (proc, timer));
        }
        self.sub.mail[proc.0 as usize] = mail;
        self.sub.hosted[proc.0 as usize] = true;
        if node.has_ready() || self.sub.mail_len(proc) > 0 {
            self.sub.wake(proc);
        }
        self.cells.slots[proc.0 as usize] = Cell::Live(Box::new(node));
    }

    /// Extracts up to `count` ready engines and ships them to `dest`,
    /// recording them in `donated`.
    fn donate(&mut self, count: u32, dest: u32, donated: &mut Vec<ProcId>) {
        for _ in 0..count {
            let Some(p) = self.sub.pop_ready_back() else {
                break;
            };
            let Some(node) = self.cells.take(p) else {
                continue;
            };
            self.sub.hosted[p.0 as usize] = false;
            let mail = std::mem::take(&mut self.sub.mail[p.0 as usize]);
            self.sub.backlog -= mail.len() as u64;
            let timers = self
                .sub
                .timers
                .extract_if(|(owner, _)| *owner == p)
                .into_iter()
                .map(|(at, (_, t))| (at, t))
                .collect();
            self.sub.outbox[dest as usize].push(Transfer::Engine(Box::new(Migration {
                proc: p,
                node,
                mail,
                timers,
            })));
            donated.push(p);
        }
    }

    /// Runs one round: drain peer envelopes and coordinator injections,
    /// apply barrier faults, fire due deadlines, sweep the ready queue
    /// once, honour a donation request, flush envelopes to every peer.
    pub fn run_round(&mut self, inp: RoundInput) -> RoundOutput {
        self.rounds += 1;
        self.sub.now = inp.now;
        let RoundInput {
            now: _,
            kills,
            mut inject,
            donate,
            mut sr_mail_buf,
            mut donated_buf,
        } = inp;
        if !self.started {
            self.started = true;
            // Only an engine whose start arms a load beacon is built now;
            // every other start would emit nothing, so its engine waits
            // for its first input.
            for p in 0..self.cells.slots.len() {
                let Cell::Pending(placer) = &self.cells.slots[p] else {
                    continue;
                };
                if !beacons_on_start(&self.cells.config, &**placer) {
                    continue;
                }
                let p = ProcId(p as u32);
                let node = self.cells.materialize(p).expect("pending engine is hosted");
                node.start(&mut self.sub);
                if node.has_ready() || self.sub.mail_len(p) > 0 {
                    self.sub.wake(p);
                }
            }
        }
        // Peer envelopes from the previous round: exactly one per peer per
        // round (the barrier guarantees they were all sent), drained in
        // peer order so application order is deterministic.
        if self.rounds > 1 {
            for peer in 0..self.links_rx.len() {
                let Some(rx) = &self.links_rx[peer] else {
                    continue;
                };
                let mut env = rx.recv().expect("peer pump hung up mid-run");
                for t in env.drain(..) {
                    if let Some(m) = self.sub.apply_transfer(t) {
                        self.install(*m);
                    }
                }
                self.sub.pool.push(env);
            }
        }
        // Coordinator injections (super-root sends).
        for t in inject.drain(..) {
            if let Some(m) = self.sub.apply_transfer(t) {
                self.install(*m);
            }
        }
        // Barrier faults, one victim at a time in plan order: the hosting
        // pump drops the mailbox, then the death is announced to this
        // pump's own live engines (the coordinator notifies the
        // super-root once, on its side of the barrier).
        for &v in &kills {
            if self.sub.hosted[v.0 as usize] {
                self.sub.kill_local(v);
            }
            self.sub.announce_death(v);
        }
        self.sub.inner_mut().flush();
        // Due deadlines: parked delayed sends, then engine timers.
        self.sub.release_delayed_due();
        while let Some((owner, timer)) = self.sub.pop_due_timer() {
            if !self.sub.cluster.is_live(owner) {
                continue;
            }
            let Some(node) = self.cells.materialize(owner) else {
                continue;
            };
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
            let node = self.cells.materialize(p).expect("ready engine is hosted");
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
        // Donation, after the sweep so stolen engines carry fresh state.
        if let Some((count, dest)) = donate {
            self.donate(count, dest, &mut donated_buf);
        }
        // Flush exactly one envelope per peer (empty ones included — the
        // fixed one-envelope-per-link-per-round cadence is what makes the
        // drain above deterministic without sequence numbers).
        let mut sent_cross = false;
        for peer in 0..self.links_tx.len() {
            let Some(tx) = &self.links_tx[peer] else {
                continue;
            };
            let fresh = self.sub.pool.pop().unwrap_or_default();
            let buf = std::mem::replace(&mut self.sub.outbox[peer], fresh);
            sent_cross |= !buf.is_empty();
            tx.send(buf).expect("peer pump hung up mid-run");
        }
        sr_mail_buf.extend(self.sub.sr_mail.drain(..));
        RoundOutput {
            turns,
            waves,
            work: std::mem::take(&mut self.sub.work_pending),
            ready: self.sub.ready.len(),
            backlog: self.sub.backlog,
            next_deadline: self.sub.next_deadline(),
            pending_sr_delayed: self.sub.pending_sr_delayed,
            sent_cross,
            sr_mail: sr_mail_buf,
            donated: donated_buf,
            spent_inject: inject,
        }
    }

    /// Dismantles the pump into its harvest: the engines that were built,
    /// and this pump's counters.
    pub fn harvest(self) -> PumpHarvest {
        let Pump { cells, mut sub, .. } = self;
        let shard_stats = sub.stats().clone();
        let batch_stats = *sub.inner().batch_stats();
        let tracer = std::mem::take(sub.inner_mut().inner_mut().tracer_mut());
        // Dropping the stack flushes the (empty) bus into the core.
        let core: &PumpSubstrate = &sub;
        let (delivered, dropped_to_dead, bounces, msgs_cross) = (
            core.delivered,
            core.dropped_to_dead,
            core.bounces,
            core.msgs_cross,
        );
        PumpHarvest {
            engines: cells
                .slots
                .into_iter()
                .enumerate()
                .filter_map(|(p, slot)| match slot {
                    Cell::Live(node) => Some((p as u32, node)),
                    Cell::Away | Cell::Pending(_) => None,
                })
                .collect(),
            delivered,
            dropped_to_dead,
            bounces,
            msgs_cross,
            shard_stats,
            batch_stats,
            tracer,
        }
    }
}

enum Cmd {
    Round(RoundInput),
    Finish,
}

enum Rsp {
    Round(RoundOutput),
    Finished(Box<PumpHarvest>),
}

enum Fleet {
    /// One pump, driven inline on the coordinator thread: no channels, no
    /// context switches — the no-coordination-regression configuration.
    Inline(Box<Pump>),
    Threads {
        cmd_tx: Vec<Sender<Cmd>>,
        rsp_rx: Vec<Receiver<Rsp>>,
        handles: Vec<JoinHandle<()>>,
    },
}

/// N pumps on N OS threads (or one pump inline), driven in rounds by a
/// coordinator front-end.
pub struct ReactorCluster {
    cluster: Arc<ClusterMap>,
    fleet: Fleet,
    threads: u32,
}

impl ReactorCluster {
    /// Wires per-pair envelope links between `pumps` and spawns one OS
    /// thread per pump — unless there is exactly one, which runs inline on
    /// the caller's thread.
    pub fn new(mut pumps: Vec<Pump>, cluster: Arc<ClusterMap>) -> ReactorCluster {
        let t = pumps.len() as u32;
        assert!(t >= 1, "need at least one pump");
        if t == 1 {
            return ReactorCluster {
                cluster,
                fleet: Fleet::Inline(Box::new(pumps.pop().expect("one pump"))),
                threads: 1,
            };
        }
        for i in 0..pumps.len() {
            for j in (i + 1)..pumps.len() {
                // Capacity 2 is the protocol bound: at most one undrained
                // envelope from the previous round plus this round's.
                let (tx_ij, rx_ij) = bounded::<Vec<Transfer>>(2);
                let (tx_ji, rx_ji) = bounded::<Vec<Transfer>>(2);
                pumps[i].links_tx[j] = Some(tx_ij);
                pumps[j].links_rx[i] = Some(rx_ij);
                pumps[j].links_tx[i] = Some(tx_ji);
                pumps[i].links_rx[j] = Some(rx_ji);
            }
        }
        let mut cmd_tx = Vec::with_capacity(pumps.len());
        let mut rsp_rx = Vec::with_capacity(pumps.len());
        let mut handles = Vec::with_capacity(pumps.len());
        for mut pump in pumps {
            let (ctx, crx) = unbounded::<Cmd>();
            let (rtx, rrx) = unbounded::<Rsp>();
            cmd_tx.push(ctx);
            rsp_rx.push(rrx);
            handles.push(std::thread::spawn(move || {
                while let Ok(cmd) = crx.recv() {
                    match cmd {
                        Cmd::Round(inp) => {
                            if rtx.send(Rsp::Round(pump.run_round(inp))).is_err() {
                                return;
                            }
                        }
                        Cmd::Finish => {
                            let _ = rtx.send(Rsp::Finished(Box::new(pump.harvest())));
                            return;
                        }
                    }
                }
            }));
        }
        ReactorCluster {
            cluster,
            fleet: Fleet::Threads {
                cmd_tx,
                rsp_rx,
                handles,
            },
            threads: t,
        }
    }

    /// Pump count.
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The shared liveness/location table.
    pub fn cluster(&self) -> &Arc<ClusterMap> {
        &self.cluster
    }

    /// Runs one round on every pump: drains `inputs` (one per pump, in
    /// pump order) and appends one [`RoundOutput`] per pump to `outs` in
    /// the same order — the barrier. Both vectors are caller-owned so
    /// round-trip buffers recycle instead of reallocating.
    pub fn round(&mut self, inputs: &mut Vec<RoundInput>, outs: &mut Vec<RoundOutput>) {
        match &mut self.fleet {
            Fleet::Inline(pump) => {
                debug_assert_eq!(inputs.len(), 1);
                let inp = inputs.pop().expect("one input for the inline pump");
                outs.push(pump.run_round(inp));
            }
            Fleet::Threads { cmd_tx, rsp_rx, .. } => {
                debug_assert_eq!(inputs.len(), cmd_tx.len());
                for (tx, inp) in cmd_tx.iter().zip(inputs.drain(..)) {
                    tx.send(Cmd::Round(inp)).expect("pump thread died");
                }
                for rx in rsp_rx.iter() {
                    match rx.recv().expect("pump thread died") {
                        Rsp::Round(out) => outs.push(out),
                        Rsp::Finished(_) => unreachable!("finish before round end"),
                    }
                }
            }
        }
    }

    /// Stops every pump and collects the harvests, in pump order.
    pub fn finish(self) -> Vec<PumpHarvest> {
        match self.fleet {
            Fleet::Inline(pump) => vec![pump.harvest()],
            Fleet::Threads {
                cmd_tx,
                rsp_rx,
                handles,
            } => {
                for tx in &cmd_tx {
                    tx.send(Cmd::Finish).expect("pump thread died");
                }
                let mut harvests = Vec::with_capacity(rsp_rx.len());
                for rx in &rsp_rx {
                    match rx.recv().expect("pump thread died") {
                        Rsp::Finished(h) => harvests.push(*h),
                        Rsp::Round(_) => unreachable!("round reply after finish"),
                    }
                }
                for h in handles {
                    h.join().expect("pump thread panicked");
                }
                harvests
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_map_tracks_liveness_corruption_and_location() {
        let c = ClusterMap::new(6, true, |p| p / 3);
        assert_eq!(c.n(), 6);
        assert!(c.is_live(ProcId(5)));
        assert!(!c.is_live(ProcId(9)), "out of range reads dead");
        assert_eq!(c.pump_of(ProcId(2)), 0);
        assert_eq!(c.pump_of(ProcId(3)), 1);
        c.set_dead(ProcId(4));
        assert!(!c.is_live(ProcId(4)));
        assert!(!c.is_corrupting(ProcId(1)));
        c.set_corrupting(ProcId(1));
        assert!(c.is_corrupting(ProcId(1)));
        c.set_pump(ProcId(2), 1);
        assert_eq!(c.pump_of(ProcId(2)), 1);
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

    fn sub_pair() -> (Arc<ClusterMap>, PumpSubstrate) {
        // 4 engines, engines 0-1 on pump 0, engines 2-3 on pump 1; the
        // substrate under test is pump 0's.
        let cluster = Arc::new(ClusterMap::new(4, true, |p| p / 2));
        let mut sub = PumpSubstrate::new(cluster.clone(), 2);
        sub.hosted[0] = true;
        sub.hosted[1] = true;
        (cluster, sub)
    }

    #[test]
    fn local_sends_stay_local_and_remote_sends_fill_the_outbox() {
        let (_cluster, mut sub) = sub_pair();
        sub.send(ProcId(0), ProcId(1), msg(7));
        assert_eq!(sub.backlog, 1);
        assert_eq!(sub.msgs_cross, 0);
        assert_eq!(sub.pop_ready(), Some(ProcId(1)));
        sub.send(ProcId(0), ProcId(2), msg(8));
        assert_eq!(sub.msgs_cross, 1);
        assert_eq!(sub.outbox[1].len(), 1, "parked for pump 1");
        assert!(
            matches!(sub.outbox[1][0], Transfer::Deliver { to: ProcId(2), .. }),
            "cross-reactor deliver"
        );
    }

    #[test]
    fn send_to_dead_engine_bounces_to_the_live_sender_wherever_hosted() {
        let (cluster, mut sub) = sub_pair();
        cluster.set_dead(ProcId(1));
        // Hosted sender: local bounce.
        sub.send(ProcId(0), ProcId(1), msg(1));
        assert_eq!(sub.bounces, 1);
        assert!(matches!(
            sub.pop_inbound(ProcId(0)),
            Some(Inbound::Bounce {
                dead: ProcId(1),
                ..
            })
        ));
        // Remote sender: the bounce crosses back to its pump.
        sub.send(ProcId(2), ProcId(1), msg(2));
        assert_eq!(sub.bounces, 2);
        assert!(matches!(
            sub.outbox[1].last(),
            Some(Transfer::Bounce {
                sender: ProcId(2),
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
    fn delayed_sends_release_against_current_liveness_and_location() {
        let (cluster, mut sub) = sub_pair();
        sub.send_delayed(ProcId(0), ProcId(1), msg(5), 10);
        sub.send_delayed(ProcId(1), ProcId::SUPER_ROOT, msg(6), 20);
        assert_eq!(sub.pending_sr_delayed, 1);
        assert_eq!(sub.next_deadline(), Some(10));
        // Engine 1 migrates away while the send is parked: release must
        // forward it cross-reactor.
        sub.hosted[1] = false;
        cluster.set_pump(ProcId(1), 1);
        sub.now = 25;
        sub.release_delayed_due();
        assert_eq!(sub.pending_sr_delayed, 0);
        assert_eq!(sub.sr_mail.len(), 1, "super-root link is reliable");
        assert!(matches!(
            sub.outbox[1].last(),
            Some(Transfer::Deliver { to: ProcId(1), .. })
        ));
    }

    #[test]
    fn kill_drops_the_local_mailbox_and_announce_notifies_hosted_peers() {
        let (cluster, mut sub) = sub_pair();
        sub.send(ProcId(0), ProcId(1), msg(1));
        sub.send(ProcId(0), ProcId(1), msg(2));
        cluster.set_dead(ProcId(1));
        sub.kill_local(ProcId(1));
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
    fn corrupting_senders_flip_replica_results_only_cross_reactor_too() {
        use splice_applicative::wave::Demand;
        use splice_applicative::{FnId, Value};
        use splice_core::packet::{ReplicaInfo, ResultPacket};
        let (cluster, mut sub) = sub_pair();
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
            let Some(Transfer::Deliver {
                msg: Msg::Result(got),
                ..
            }) = sub.outbox[1].pop()
            else {
                panic!("cross-reactor result expected");
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

    /// The single-thread reactor's substrate: one pump hosting all `n`
    /// engines.
    fn sub_solo(n: u32, broadcast: bool) -> (Arc<ClusterMap>, PumpSubstrate) {
        let cluster = Arc::new(ClusterMap::new(n, broadcast, |_| 0));
        let mut sub = PumpSubstrate::new(cluster.clone(), 1);
        sub.hosted.fill(true);
        (cluster, sub)
    }

    fn tag(ib: Option<Inbound>) -> u32 {
        match ib {
            Some(Inbound::Msg(Msg::Ack(a))) => a.incarnation,
            other => panic!("expected an ack, got {other:?}"),
        }
    }

    #[test]
    fn wake_deduplicates_and_the_dead_get_no_turn() {
        let (cluster, mut sub) = sub_solo(4, true);
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
        sub.kill_local(ProcId(2));
        assert_eq!(sub.pop_ready(), Some(ProcId(1)));
        assert_eq!(sub.pop_ready(), Some(ProcId(3)), "stale dead entry skipped");
        assert_eq!(sub.pop_ready(), None);
    }

    #[test]
    fn delayed_sends_release_at_their_deadline_in_fifo_order() {
        let (_cluster, mut sub) = sub_solo(2, true);
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
        let (cluster, mut sub) = sub_solo(2, true);
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
        let (cluster, mut sub) = sub_solo(3, false);
        cluster.set_dead(ProcId(1));
        sub.kill_local(ProcId(1));
        sub.report_death(ProcId(1));
        assert_eq!(sub.backlog, 0, "deaths are silent");
        assert_eq!(sub.pop_ready(), None);
    }

    /// One pump hosting all `n` engines, each built on first use from
    /// `placer(p)`, running fib(5) under `beacon_period`.
    fn lazy_pump(n: u32, beacon_period: u64, placer: impl Fn(ProcId) -> Box<dyn Placer>) -> Pump {
        let cluster = Arc::new(ClusterMap::new(n, true, |_| 0));
        let config = Config {
            load_beacon_period: beacon_period,
            ..Config::default()
        };
        Pump::new(
            0,
            1,
            cluster,
            (0..n).map(|p| (ProcId(p), placer(ProcId(p)))).collect(),
            Arc::new(splice_applicative::Workload::fib(5).program),
            config,
            ShardMap::new(1, n),
            0,
            0,
            TraceMode::Off,
        )
    }

    fn round(pump: &mut Pump, inject: Vec<Transfer>) {
        pump.run_round(RoundInput {
            now: 0,
            kills: Vec::new(),
            inject,
            donate: None,
            sr_mail_buf: Vec::new(),
            donated_buf: Vec::new(),
        });
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
        // two engines that receive a message are ever built.
        let all: Arc<[ProcId]> = (0..n).map(ProcId).collect();
        let mut pump = lazy_pump(n, 0, |_| Box::new(RoundRobinPlacer::new(all.clone())));
        let probe = |to| Transfer::Deliver {
            from: ProcId::SUPER_ROOT,
            to: ProcId(to),
            msg: Msg::Probe,
        };
        round(&mut pump, vec![probe(3), probe(11)]);
        round(&mut pump, Vec::new());
        assert_eq!(built(pump), vec![3, 11]);
        // Gradient with beacons: every start arms a beacon, so every
        // hosted engine is built in the first round, input or not.
        let mut pump = lazy_pump(n, 20, |p| {
            let ring = vec![ProcId((p.0 + n - 1) % n), ProcId((p.0 + 1) % n)];
            Box::new(GradientPlacer::new(p, ring, GradientConfig::default()))
        });
        round(&mut pump, Vec::new());
        assert_eq!(built(pump), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn timers_fire_per_owner_in_deadline_order() {
        let (_cluster, mut sub) = sub_solo(2, true);
        sub.arm_timer(ProcId(1), Timer::LoadBeacon, 20);
        sub.arm_timer(ProcId(0), Timer::LoadBeacon, 10);
        assert!(sub.pop_due_timer().is_none());
        sub.now = 25;
        assert_eq!(sub.pop_due_timer().map(|(p, _)| p), Some(ProcId(0)));
        assert_eq!(sub.pop_due_timer().map(|(p, _)| p), Some(ProcId(1)));
        assert!(sub.pop_due_timer().is_none());
    }
}
