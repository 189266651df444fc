//! The sans-IO processor engine: the paper's §4.2 protocol loop.
//!
//! ```text
//! LOOP
//!   CASE received packet OF
//!     forward result:  interpret the level stamp (child / grandchild / other)
//!     task packet:     execute; DEMAND unevaluated functions; send result to
//!                      the parent; if the parent is dead, notify the
//!                      grandparent and send the result there
//!     error-detection: respawn the topmost offspring of all severed
//!                      branches; establish the relay for partial results
//!   ENDCASE
//! ENDLOOP
//! ```
//!
//! The engine is *sans-IO*: it owns no clock, no RNG and no transport. Every
//! entry point takes an input and returns a list of [`Action`]s for the
//! driver (the discrete-event simulator or the threaded runtime) to
//! perform. This is what makes the protocol deterministic under test while
//! still running unchanged on real threads.
//!
//! A note on failure discovery: per the paper, "a processor makes its best
//! effort to communicate with a destination node. If the destination cannot
//! be reached ..., the unreachable node is considered faulty." Drivers
//! surface unreachability as [`Engine::on_send_failed`]; an explicit
//! detector (or gossip) surfaces it as a `FailureNotice` message. Both
//! converge on the same internal `on_proc_dead` handling, and splice
//! recovery additionally learns of deaths from arriving salvage packets —
//! "processor C receives these unexpected partial answers from
//! grandchildren and asserts that the parent of these grandchildren is
//! faulty" (§4.1).

use crate::checkpoint::{select_for_recovery, CheckpointTable};
use crate::config::{CheckpointFilter, Config, RecoveryMode};
use crate::ids::{ProcId, TaskAddr, TaskKey};
use crate::packet::{
    AckInfo, CkptPacket, Msg, ReplicaInfo, ResultPacket, SalvagePacket, TaskLink, TaskPacket,
};
use crate::place::Placer;
use crate::policy::{PolicyKind, RecoveryPolicy};
use crate::replicate::{Vote, VoteOutcome};
use crate::sink::ActionSink;
use crate::stamp::LevelStamp;
use crate::stats::ProcStats;
use crate::task::{ChildInfo, Task, VoteGroup};
use splice_applicative::wave::{Demand, FramePool};
use splice_applicative::{FxHashMap, FxHashSet, Program, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maximum placement hops before a packet must be accepted locally.
const MAX_HOPS: u32 = 16;

/// Retired task frames an engine keeps for reuse. Enough for the resident
/// peak of every shipped workload; beyond it frames are simply dropped.
const FREE_TASK_CAP: usize = 512;

/// Payload of [`Timer::AckTimeout`] (boxed to keep `Action` small).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AckTimer {
    /// The spawning (parent) task.
    pub owner: TaskKey,
    /// The child's stamp.
    pub stamp: LevelStamp,
    /// The incarnation this timer guards.
    pub incarnation: u32,
}

/// Payload of [`Timer::GraceReissue`] (boxed to keep `Action` small).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraceTimer {
    /// The owning (parent) task.
    pub owner: TaskKey,
    /// The dead child's stamp.
    pub stamp: LevelStamp,
}

/// A timer the engine asks its driver to arm.
///
/// Timers ride inside [`Action`]s through every substrate hop, so the fat
/// payloads are boxed: the enum stays two words and `Action` stays within
/// its 32-byte pin (see the `action_stays_small` test).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Timer {
    /// Fires if a spawned child packet has not been acknowledged
    /// (Figure 6 state b: reissue as if the first invocation never
    /// happened).
    AckTimeout(Box<AckTimer>),
    /// Periodic load-pressure beacon for the placer.
    LoadBeacon,
    /// Deferred splice twin creation (the E13 grace extension): fires
    /// `splice_grace` units after a failure notice; the child is reissued
    /// only if nothing (salvage, vote, result) satisfied it meanwhile.
    GraceReissue(Box<GraceTimer>),
}

impl Timer {
    /// Builds an ack-timeout timer.
    pub fn ack_timeout(owner: TaskKey, stamp: LevelStamp, incarnation: u32) -> Timer {
        Timer::AckTimeout(Box::new(AckTimer {
            owner,
            stamp,
            incarnation,
        }))
    }

    /// Builds a grace-reissue timer.
    pub fn grace_reissue(owner: TaskKey, stamp: LevelStamp) -> Timer {
        Timer::GraceReissue(Box::new(GraceTimer { owner, stamp }))
    }
}

/// An effect the driver must perform on the engine's behalf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Transmit `msg` to processor `to` (self-sends are allowed and mean
    /// local delivery).
    Send {
        /// Destination processor.
        to: ProcId,
        /// The message.
        msg: Msg,
    },
    /// Arm `timer` to fire after `delay` driver time units.
    SetTimer {
        /// The timer payload (returned verbatim on expiry).
        timer: Timer,
        /// Delay in driver units.
        delay: u64,
    },
}

/// The per-processor protocol engine.
pub struct Engine {
    id: ProcId,
    program: Arc<Program>,
    config: Config,
    placer: Box<dyn Placer>,
    tasks: FxHashMap<TaskKey, Task>,
    by_stamp: FxHashMap<LevelStamp, TaskKey>,
    ready: VecDeque<TaskKey>,
    next_key: u64,
    known_dead: FxHashSet<ProcId>,
    ckpt: CheckpointTable,
    /// The recovery-policy seam: what to persist at spawn, whether death
    /// discovery reissues eagerly or marks subtrees lost, re-checkpoint
    /// cadence. Built from `config.policy`.
    policy: Box<dyn RecoveryPolicy>,
    stats: ProcStats,
    /// Wave-evaluation scratch shared by every resident task.
    pool: FramePool,
    /// Reusable demand out-buffer for `run_wave`.
    demand_buf: Vec<Demand>,
    /// Retired task frames: their maps and buffers are reused by the next
    /// accepted spawn, so steady-state task churn allocates nothing.
    free_tasks: Vec<Task>,
    /// Only filled while a driver has enabled creation logging.
    log_created: bool,
    created_log: Vec<LevelStamp>,
}

/// Builds the packet for child `stamp` of `owner` on this processor `id`:
/// the spawn and every reissue of the child go through here, so a twin's
/// packet equals the original but for `incarnation`. `links` is how many
/// ancestor links beyond the parent the packet carries.
fn child_packet(
    id: ProcId,
    owner: &Task,
    links: usize,
    stamp: LevelStamp,
    demand: Demand,
    incarnation: u32,
) -> TaskPacket {
    TaskPacket {
        stamp,
        demand,
        parent: TaskLink::new(TaskAddr::new(id, owner.key), owner.stamp.clone()),
        ancestors: std::iter::once(owner.parent.clone())
            .chain(owner.ancestors.iter().cloned())
            .take(links)
            .collect(),
        incarnation,
        hops: 0,
        replica: None,
        under_replica: owner.under_replica,
    }
}

/// True when an engine built from `config` and `placer` arms a load
/// beacon in [`Engine::on_start`] — the only action a start can emit. A
/// driver that defers building idle engines asks this instead of building
/// one to find out.
pub fn beacons_on_start(config: &Config, placer: &dyn Placer) -> bool {
    config.load_beacon_period > 0 && !placer.beacon_targets().is_empty()
}

impl Engine {
    /// Creates an engine for processor `id`.
    pub fn new(
        id: ProcId,
        program: Arc<Program>,
        config: Config,
        placer: Box<dyn Placer>,
    ) -> Engine {
        let policy = config.policy.build();
        Engine {
            id,
            program,
            config,
            placer,
            policy,
            tasks: FxHashMap::default(),
            by_stamp: FxHashMap::default(),
            ready: VecDeque::new(),
            next_key: 0,
            known_dead: FxHashSet::default(),
            ckpt: CheckpointTable::new(),
            stats: ProcStats::default(),
            pool: FramePool::new(),
            demand_buf: Vec::new(),
            free_tasks: Vec::new(),
            log_created: false,
            created_log: Vec::new(),
        }
    }

    /// Enables the per-creation stamp log ([`Engine::drain_created`]).
    /// Off by default: unscripted runs should not grow a log nobody reads.
    pub fn enable_created_log(&mut self) {
        self.log_created = true;
    }

    /// Drains the stamps of tasks created since the last call. Drivers use
    /// this to build placement logs for scripted scenarios (enable with
    /// [`Engine::enable_created_log`] first).
    pub fn drain_created(&mut self) -> Vec<LevelStamp> {
        std::mem::take(&mut self.created_log)
    }

    /// Looks up a resident task key by stamp (scenario inspection).
    pub fn task_by_stamp(&self, stamp: &LevelStamp) -> Option<TaskKey> {
        self.by_stamp.get(stamp).copied()
    }

    /// This processor's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The engine's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// The checkpoint counters (for inspection by tests and reports).
    pub fn checkpoints(&self) -> &CheckpointTable {
        &self.ckpt
    }

    /// Which named recovery policy this engine runs.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Number of resident tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Processors this engine believes dead.
    pub fn known_dead(&self) -> &FxHashSet<ProcId> {
        &self.known_dead
    }

    /// Local pressure: tasks ready to run.
    pub fn pressure(&self) -> u32 {
        self.ready.len() as u32
    }

    /// Called once when the processor starts; arms periodic beacons.
    pub fn on_start(&mut self, sink: &mut ActionSink) {
        if beacons_on_start(&self.config, &*self.placer) {
            sink.push(Action::SetTimer {
                timer: Timer::LoadBeacon,
                delay: self.config.load_beacon_period,
            });
        }
    }

    /// Pops the next runnable task, if any.
    pub fn pop_ready(&mut self) -> Option<TaskKey> {
        while let Some(key) = self.ready.pop_front() {
            if let Some(t) = self.tasks.get_mut(&key) {
                if t.queued {
                    t.queued = false;
                    return Some(key);
                }
            }
        }
        None
    }

    /// True when at least one task is runnable.
    pub fn has_ready(&self) -> bool {
        self.ready
            .iter()
            .any(|k| self.tasks.get(k).map(|t| t.queued).unwrap_or(false))
    }

    fn enqueue(&mut self, key: TaskKey) {
        if let Some(t) = self.tasks.get_mut(&key) {
            if !t.queued {
                t.queued = true;
                self.ready.push_back(key);
            }
        }
    }

    fn send(&mut self, sink: &mut ActionSink, to: ProcId, msg: Msg) {
        self.stats.sent(msg.kind(), msg.size());
        sink.push(Action::Send { to, msg });
    }

    /// Retires the live checkpoints of a task leaving this processor.
    fn retire_checkpoints(&mut self, task: &mut Task) {
        for ci in task.children.values_mut() {
            if let Some(cp) = ci.ckpt.take() {
                self.ckpt.retire(cp);
            }
        }
    }

    // -----------------------------------------------------------------
    // Message dispatch
    // -----------------------------------------------------------------

    /// Handles an arriving message, appending the engine's responses to
    /// `sink` (as every handler below does).
    pub fn on_message(&mut self, msg: Msg, sink: &mut ActionSink) {
        self.stats.received(msg.kind());
        match msg {
            Msg::Spawn(p) => self.on_spawn(*p, sink),
            Msg::Ack(ack) => {
                let AckInfo {
                    child_stamp,
                    child_addr,
                    parent,
                    incarnation,
                } = *ack;
                self.on_ack(child_stamp, child_addr, parent, incarnation, sink)
            }
            Msg::Result(rp) => self.on_result(*rp, sink),
            Msg::Salvage(sp) => self.on_salvage(*sp, sink),
            Msg::Abort { to } => self.on_abort(to, sink),
            Msg::Load { from, pressure } => {
                self.placer.on_load(from, pressure);
            }
            Msg::FailureNotice { dead } => self.on_proc_dead(dead, sink),
            // A delivered probe answers itself: the sender only learns
            // anything when the transport bounces one.
            Msg::Probe => {}
            Msg::Ckpt(cp) => self.on_ckpt(*cp),
        }
    }

    /// Handles a send that the transport reports as undeliverable: the
    /// destination is considered faulty and the message's intent is
    /// recovered where possible.
    pub fn on_send_failed(&mut self, to: ProcId, msg: Msg, sink: &mut ActionSink) {
        self.on_proc_dead(to, sink);
        match msg {
            Msg::Spawn(p) => {
                // In-flight spawn lost. If we are the original parent, the
                // child's checkpoint (or vote group) reissues it; forwarded
                // packets of other parents are re-placed directly.
                self.reissue_packet(*p, sink);
            }
            Msg::Result(rp) => {
                self.handle_undeliverable_result(*rp, sink);
            }
            Msg::Salvage(sp) => {
                // Either the downward forward hit a fresh corpse (the local
                // re-route will buffer it), or the upward relay must try the
                // next ancestor. The packet moves through unrouted returns
                // instead of being cloned per attempt.
                if let Some(sp) = self.route_salvage(*sp, sink) {
                    self.relay_salvage_upward(sp);
                }
            }
            // Lost acks/aborts/loads/notices/probes carry no recoverable
            // intent beyond the death itself (handled above). A bounced
            // probe in particular has done its whole job by bouncing, and
            // a lost re-checkpoint only costs the twin some replayed waves.
            Msg::Ack { .. }
            | Msg::Abort { .. }
            | Msg::Load { .. }
            | Msg::FailureNotice { .. }
            | Msg::Probe
            | Msg::Ckpt(_) => {}
        }
    }

    /// Handles a timer expiry.
    pub fn on_timer(&mut self, timer: Timer, sink: &mut ActionSink) {
        match timer {
            Timer::AckTimeout(t) => {
                let AckTimer {
                    owner,
                    stamp,
                    incarnation,
                } = *t;
                // An unacked child is reissued outright. An acked child
                // with an overdue result is (optionally) probed instead:
                // its host may have died silently, and with the detector
                // broadcast off nothing else would ever tell us.
                let mut probe = None;
                let mut lazy_lost = false;
                let needs_reissue =
                    match self.tasks.get(&owner).and_then(|t| t.children.get(&stamp)) {
                        Some(ci) if !ci.done && ci.incarnation == incarnation => {
                            match ci.current_addr() {
                                // A child marked lost belongs to the lazy
                                // rebuild path, not the retransmit path.
                                None => !ci.lost,
                                Some(addr) => {
                                    if !self.policy.eager_on_death()
                                        && self.known_dead.contains(&addr.proc)
                                    {
                                        // Lazy: the acked host died and no
                                        // reissue bumped the incarnation, so
                                        // this timer would probe a corpse
                                        // forever. Hand the child to the
                                        // rebuild path and let it drop.
                                        lazy_lost = true;
                                    } else if self.config.probe_acked && addr.proc != self.id {
                                        probe = Some(addr.proc);
                                    }
                                    false
                                }
                            }
                        }
                        _ => false,
                    };
                if needs_reissue {
                    self.stats.ack_timeouts += 1;
                    self.reissue_child(owner, &stamp, sink);
                } else if lazy_lost {
                    if self.mark_lost(owner, &stamp) {
                        self.lazy_rebuild_check(owner, sink);
                    }
                } else if let Some(host) = probe {
                    // Live host: no-op. Dead host: the bounce runs the
                    // full discovery path (`on_send_failed`). Either way
                    // the re-armed timer keeps polling until the child
                    // retires or is reissued under a new incarnation.
                    self.send(sink, host, Msg::Probe);
                    sink.push(Action::SetTimer {
                        timer: Timer::ack_timeout(owner, stamp, incarnation),
                        delay: self.config.ack_timeout,
                    });
                }
            }
            Timer::GraceReissue(t) => {
                let GraceTimer { owner, stamp } = *t;
                let needs = match self
                    .tasks
                    .get_mut(&owner)
                    .and_then(|t| t.children.get_mut(&stamp))
                {
                    Some(ci) if ci.twin_pending && !ci.done => {
                        ci.twin_pending = false;
                        true
                    }
                    _ => false,
                };
                if needs {
                    self.stats.step_parents_created += 1;
                    self.reissue_child(owner, &stamp, sink);
                }
            }
            Timer::LoadBeacon => {
                let raw = self.pressure();
                self.placer.set_local_pressure(raw);
                let pressure = self.placer.beacon_value(raw);
                for t in self.placer.beacon_targets() {
                    self.send(
                        sink,
                        t,
                        Msg::Load {
                            from: self.id,
                            pressure,
                        },
                    );
                }
                sink.push(Action::SetTimer {
                    timer: Timer::LoadBeacon,
                    delay: self.config.load_beacon_period,
                });
            }
        }
    }

    // -----------------------------------------------------------------
    // Spawn / placement (DEMAND_IT receiving side)
    // -----------------------------------------------------------------

    fn on_spawn(&mut self, mut p: TaskPacket, sink: &mut ActionSink) {
        let pressure = self.pressure();
        self.placer.set_local_pressure(pressure);
        if p.hops < MAX_HOPS {
            if let Some(next) = self.placer.route(&p, &self.known_dead) {
                if next != self.id {
                    p.hops += 1;
                    self.send(sink, next, Msg::spawn(p));
                    return;
                }
            }
        }
        // Accept locally, reviving a retired task frame when one exists.
        let key = TaskKey(self.next_key);
        self.next_key += 1;
        let task = match self.free_tasks.pop() {
            Some(mut t) => {
                t.reset_from_packet(key, &p);
                t
            }
            None => Task::from_packet(key, &p),
        };
        self.by_stamp.insert(task.stamp.clone(), key);
        self.tasks.insert(key, task);
        self.stats.tasks_created += 1;
        if self.log_created {
            self.created_log.push(p.stamp.clone());
        }
        self.enqueue(key);
        let ack = Msg::ack(
            p.stamp,
            TaskAddr::new(self.id, key),
            p.parent.addr,
            p.incarnation,
        );
        self.send(sink, p.parent.addr.proc, ack);
    }

    /// Retires a task frame into the free list for reuse.
    fn recycle_task(&mut self, mut task: Task) {
        if self.free_tasks.len() < FREE_TASK_CAP {
            task.clear_for_reuse();
            self.free_tasks.push(task);
        }
    }

    fn on_ack(
        &mut self,
        child_stamp: LevelStamp,
        child_addr: TaskAddr,
        parent: TaskAddr,
        incarnation: u32,
        sink: &mut ActionSink,
    ) {
        let Some(task) = self.tasks.get_mut(&parent.key) else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        let Some(ci) = task.children.get_mut(&child_stamp) else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        if let Some(group) = ci.vote.as_mut() {
            // Replica ack: refine the placement record used for loss
            // tracking. The incarnation field carries the replica index for
            // replica packets (set at spawn).
            if let Some(slot) = group.placed.get_mut(incarnation as usize) {
                *slot = child_addr.proc;
            }
            return;
        }
        // An ack from a processor we already know is dead is a message from
        // a corpse: the child it places died with its host. Recording it
        // would permanently wedge the child — the failure-notice recovery
        // pass has already run (and found no checkpoint keyed to the dead
        // processor, since the placement was unacked then), and the ack
        // timeout refuses to reissue a child with a current address. The
        // race only opens when acks travel slower than failure notices
        // (e.g. across a high-latency inter-shard router). Reissue now.
        if self.known_dead.contains(&child_addr.proc) {
            if !ci.done && incarnation == ci.incarnation && ci.current_addr().is_none() {
                if self.policy.eager_on_death() {
                    return self.reissue_child(parent.key, &child_stamp, sink);
                }
                // Lazy: the placement died with its host; defer the
                // rebuild until the owner's progress demands it.
                if self.mark_lost(parent.key, &child_stamp) {
                    self.lazy_rebuild_check(parent.key, sink);
                }
                return;
            }
            self.stats.stale_messages_ignored += 1;
            return;
        }
        let newer = match ci.acked {
            Some((_, prev_inc)) => incarnation >= prev_inc,
            None => true,
        };
        if newer {
            ci.acked = Some((child_addr, incarnation));
            // File the checkpoint under the acking processor, also for a
            // late ack of an older incarnation (whose `current_addr()` is
            // empty): that processor's death still reissues the child.
            if let Some(cp) = ci.ckpt.as_mut() {
                cp.dest = Some(child_addr.proc);
            }
            // Flush salvages that were waiting for a location.
            let pending = std::mem::take(&mut ci.pending_salvages);
            for mut sp in pending {
                sp.to = child_addr;
                self.stats.salvage_forwarded += 1;
                self.send(sink, child_addr.proc, Msg::salvage(sp));
            }
        } else {
            self.stats.stale_messages_ignored += 1;
        }
    }

    // -----------------------------------------------------------------
    // Execution (task packet case of the §4.2 loop)
    // -----------------------------------------------------------------

    /// Runs one evaluation wave of `key`, appending the driver actions to
    /// `sink`. Returns the abstract work performed (for time accounting).
    /// Evaluation scratch (value stack, environments, demand buffers)
    /// comes from the engine's frame pool, so a steady-state wave performs
    /// no allocation beyond genuinely new demand payloads.
    pub fn run_wave(&mut self, key: TaskKey, sink: &mut ActionSink) -> u64 {
        let Some(task) = self.tasks.get_mut(&key) else {
            return 0;
        };
        if !task.eval.ready() {
            // Spurious wake-up; wave barrier not met.
            return 0;
        }
        let before = task.eval.work();
        let mut demands = std::mem::take(&mut self.demand_buf);
        demands.clear();
        let step = task
            .eval
            .step_pooled(&self.program, &mut self.pool, &mut demands);
        let work = task.eval.work() - before;
        self.stats.waves_run += 1;
        self.stats.work_units += work;
        match step {
            Err(_) => {
                self.stats.eval_errors += 1;
                self.drop_task(key);
            }
            Ok(Some(v)) => self.finish_task(key, v, sink),
            Ok(None) => {
                for d in demands.drain(..) {
                    self.spawn_child(key, d, sink);
                }
                // All demands may have been satisfied synchronously by
                // preloaded salvage; re-queue in that case.
                if let Some(t) = self.tasks.get(&key) {
                    if t.eval.ready() {
                        self.enqueue(key);
                    } else if !self.policy.eager_on_death() {
                        // Lazy: the wave re-blocked; if everything it still
                        // waits on is lost, the results are now demanded.
                        self.lazy_rebuild_check(key, sink);
                    }
                }
            }
        }
        self.demand_buf = demands;
        work
    }

    /// Spawns one child demand (the paper's `DEMAND_IT`):
    /// create packet → level-stamp it → attach parent and grandparent
    /// identifications → queue to the load balancer → functional checkpoint.
    fn spawn_child(&mut self, owner: TaskKey, demand: Demand, sink: &mut ActionSink) {
        let (packet, replica_spec, salvages) = {
            let task = self.tasks.get_mut(&owner).expect("owner exists");
            let stamp = task.next_child_stamp();
            let links = self.config.links_beyond_parent();
            let packet = child_packet(self.id, task, links, stamp, demand.clone(), 0);
            // Nothing inside a replica's subtree is re-replicated: the
            // whole critical section already executes once per replica.
            let replica_spec = if task.under_replica {
                None
            } else {
                self.config.replicate.get(&demand.fun).copied()
            };
            let salvages = task.take_future_salvages_for(&packet.stamp);
            (packet, replica_spec, salvages)
        };
        self.stats.spawns_emitted += 1;

        match replica_spec {
            Some(spec) => {
                let mut placed = Vec::with_capacity(spec.n as usize);
                let mut avoid = self.known_dead.clone();
                for i in 0..spec.n {
                    let mut rp = packet.clone();
                    rp.replica = Some(ReplicaInfo {
                        index: i,
                        total: spec.n,
                    });
                    // Replica packets reuse the incarnation field of the ACK
                    // as the replica index (see `on_ack`).
                    rp.incarnation = i;
                    let dest = self.placer.place(&rp, &avoid);
                    avoid.insert(dest); // replicas on distinct processors
                    placed.push(dest);
                    self.send(sink, dest, Msg::spawn(rp));
                }
                let task = self.tasks.get_mut(&owner).expect("owner exists");
                task.register_child(ChildInfo {
                    demand,
                    stamp: packet.stamp.clone(),
                    acked: None,
                    incarnation: 0,
                    done: false,
                    pending_salvages: salvages,
                    vote: Some(VoteGroup {
                        vote: Vote::new(spec.n, spec.vote),
                        base: packet,
                        placed,
                    }),
                    twin_pending: false,
                    lost: false,
                    ckpt: None,
                });
            }
            None => {
                // The functional checkpoint: the child record below keeps
                // everything needed to rebuild this packet.
                let ckpt = self
                    .config
                    .mode
                    .checkpoints()
                    .then(|| self.ckpt.store(packet.size()));
                let dest = self.placer.place(&packet, &self.known_dead);
                let task = self.tasks.get_mut(&owner).expect("owner exists");
                task.register_child(ChildInfo {
                    demand,
                    stamp: packet.stamp.clone(),
                    acked: None,
                    incarnation: 0,
                    done: false,
                    pending_salvages: salvages,
                    vote: None,
                    twin_pending: false,
                    lost: false,
                    ckpt,
                });
                sink.push(Action::SetTimer {
                    timer: Timer::ack_timeout(owner, packet.stamp.clone(), 0),
                    delay: self.config.ack_timeout,
                });
                self.send(sink, dest, Msg::spawn(packet));
            }
        }
    }

    fn finish_task(&mut self, key: TaskKey, value: Value, sink: &mut ActionSink) {
        let Some(mut task) = self.tasks.remove(&key) else {
            return;
        };
        if self.by_stamp.get(&task.stamp) == Some(&key) {
            self.by_stamp.remove(&task.stamp);
        }
        debug_assert!(task.all_children_done());
        // Safety net: any checkpoint not retired through the normal paths.
        self.retire_checkpoints(&mut task);
        self.stats.tasks_completed += 1;

        // The frame is being retired: move its links and arguments into
        // the result packet instead of cloning them.
        let rp = ResultPacket {
            from_stamp: task.stamp.clone(),
            demand: Demand::new(task.eval.fun(), task.eval.take_args()),
            value,
            to: task.parent.addr,
            to_stamp: std::mem::replace(&mut task.parent.stamp, LevelStamp::root()),
            relay_chain: std::mem::take(&mut task.ancestors),
            replica: task.replica.take(),
        };
        self.recycle_task(task);
        if self.known_dead.contains(&rp.to.proc) {
            self.handle_undeliverable_result(rp, sink);
        } else {
            let to = rp.to.proc;
            self.send(sink, to, Msg::result(rp));
        }
    }

    fn drop_task(&mut self, key: TaskKey) {
        if let Some(mut task) = self.tasks.remove(&key) {
            if self.by_stamp.get(&task.stamp) == Some(&key) {
                self.by_stamp.remove(&task.stamp);
            }
            self.retire_checkpoints(&mut task);
            self.recycle_task(task);
        }
    }

    // -----------------------------------------------------------------
    // Results (forward-result case of the §4.2 loop)
    // -----------------------------------------------------------------

    fn on_result(&mut self, rp: ResultPacket, sink: &mut ActionSink) {
        if let Some(replica) = rp.replica.clone() {
            self.stats.replica_results += 1;
            self.on_replica_result(rp, replica, sink);
            return;
        }
        let Some(task) = self.tasks.get_mut(&rp.to.key) else {
            // "others: Ignore the packet" — the addressee is gone (§4.1
            // case 8).
            self.stats.stale_messages_ignored += 1;
            return;
        };
        if task.stamp != rp.to_stamp {
            self.stats.stale_messages_ignored += 1;
            return;
        }
        match task.children.get(&rp.from_stamp) {
            None => {
                self.stats.stale_messages_ignored += 1;
            }
            Some(ci) if ci.done => {
                // "Since they are identical, the second copy is simply
                // ignored." (§4.1 cases 6/7)
                self.stats.duplicate_results_ignored += 1;
            }
            Some(_) => {
                self.supply_child(rp.to.key, &rp.from_stamp, rp.value, sink);
            }
        }
    }

    fn on_replica_result(&mut self, rp: ResultPacket, replica: ReplicaInfo, sink: &mut ActionSink) {
        let Some(task) = self.tasks.get_mut(&rp.to.key) else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        let Some(ci) = task.children.get_mut(&rp.from_stamp) else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        if ci.done {
            self.stats.duplicate_results_ignored += 1;
            return;
        }
        let Some(group) = ci.vote.as_mut() else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        match group.vote.add(replica.index, rp.value) {
            VoteOutcome::Pending => {}
            VoteOutcome::Decided { value, clean } => {
                let dissent = group.vote.dissenting(&value) as u64;
                if clean {
                    self.stats.votes_decided += 1;
                } else {
                    self.stats.votes_conflicted += 1;
                }
                self.stats.votes_dissenting += dissent;
                self.supply_child(rp.to.key, &rp.from_stamp, value, sink);
            }
        }
    }

    /// Marks a child demand satisfied and resumes the parent when its wave
    /// barrier is met. Under the MultiCheckpoint policy the completed
    /// result is also buffered and periodically streamed back to the
    /// owner's own checkpoint holder ([`Msg::Ckpt`]); under Lazy a supply
    /// that does not unblock the owner re-checks whether everything it
    /// still waits on is lost.
    fn supply_child(
        &mut self,
        owner: TaskKey,
        stamp: &LevelStamp,
        value: Value,
        sink: &mut ActionSink,
    ) {
        let every = self.policy.recheckpoint_every();
        let mut ckpt_msg: Option<(ProcId, CkptPacket)> = None;
        let mut duplicate = false;
        let ready;
        {
            let Some(task) = self.tasks.get_mut(&owner) else {
                return;
            };
            let Some(ci) = task.children.get_mut(stamp) else {
                return;
            };
            ci.done = true;
            // Clone the entry before the eval consumes the value. Only the
            // MultiCheckpoint policy pays this; the root task reports to
            // the super-root, which keeps the whole program anyway.
            let entry = (every > 0 && !task.parent.addr.proc.is_super_root())
                .then(|| (ci.demand.clone(), value.clone()));
            if let Some(cp) = ci.ckpt.take() {
                self.ckpt.retire(cp);
            }
            // `ci` borrows `task.children`; the eval is a disjoint field, so
            // the demand is passed by reference instead of cloned per result.
            if !task.eval.supply(&ci.demand, value) {
                duplicate = true;
            }
            if let Some(en) = entry {
                task.ckpt_pending.push(en);
                if task.ckpt_pending.len() >= every as usize {
                    ckpt_msg = Some((
                        task.parent.addr.proc,
                        CkptPacket {
                            owner: task.parent.addr,
                            from_stamp: task.stamp.clone(),
                            entries: std::mem::take(&mut task.ckpt_pending),
                        },
                    ));
                }
            }
            ready = task.eval.ready();
        }
        if duplicate {
            self.stats.duplicate_results_ignored += 1;
        }
        if let Some((to, cp)) = ckpt_msg {
            if !self.known_dead.contains(&to) {
                self.stats.recheckpoints += 1;
                self.send(sink, to, Msg::ckpt(cp));
            }
        }
        if ready {
            self.enqueue(owner);
        } else if !self.policy.eager_on_death() {
            self.lazy_rebuild_check(owner, sink);
        }
    }

    /// Handles an incremental re-checkpoint report: append the entries to
    /// the live checkpoint the reporting task's frame is stored under.
    fn on_ckpt(&mut self, cp: CkptPacket) {
        let live = if cp.owner.proc == self.id {
            self.tasks
                .get_mut(&cp.owner.key)
                .and_then(|t| t.children.get_mut(&cp.from_stamp))
                .and_then(|ci| ci.ckpt.as_mut())
        } else {
            None
        };
        match live {
            Some(ckpt) => self.ckpt.add_preloads(ckpt, cp.entries),
            // The owner moved on (twin elsewhere, checkpoint retired):
            // applicative determinism makes the loss benign.
            None => self.stats.stale_messages_ignored += 1,
        }
    }

    /// The §3.2 table entry for `dead`, built on discovery: every live
    /// checkpoint whose child the dead processor acknowledged, as
    /// `(child stamp, owner)` pairs in no particular order.
    fn checkpoints_filed_under(&self, dead: ProcId) -> Vec<(LevelStamp, TaskKey)> {
        let mut entry = Vec::new();
        for (key, task) in &self.tasks {
            for (stamp, ci) in &task.children {
                if ci.ckpt.as_ref().is_some_and(|cp| cp.dest == Some(dead)) {
                    entry.push((stamp.clone(), *key));
                }
            }
        }
        entry
    }

    // -----------------------------------------------------------------
    // Failure handling: rollback (§3) and splice (§4)
    // -----------------------------------------------------------------

    /// Convergence point for all failure discovery paths. Idempotent.
    fn on_proc_dead(&mut self, dead: ProcId, sink: &mut ActionSink) {
        if dead == self.id || dead.is_super_root() || !self.known_dead.insert(dead) {
            // A death already in `known_dead` is never re-forwarded: the
            // insert above is the gossip dedup — without it every redundant
            // notice (detector broadcast, peer gossip, repeated bounces)
            // would echo back out as a fresh broadcast.
            return;
        }
        // Gossip the first discovery to the placer neighbourhood, so deaths
        // learnt from bounces or salvage arrivals propagate even when the
        // detector's broadcast is disabled. Exactly once per engine per
        // death (the dedup above), and never to processors we believe dead.
        if self.config.gossip_notices {
            for t in self.placer.beacon_targets() {
                if t != dead && !self.known_dead.contains(&t) {
                    self.send(sink, t, Msg::FailureNotice { dead });
                }
            }
        }
        match self.config.mode {
            RecoveryMode::None => {}
            RecoveryMode::Rollback => {
                // Orphans commit suicide first, retiring their checkpoints,
                // so the recovery pass below does not reissue into aborted
                // fragments.
                let orphans: Vec<TaskKey> = self
                    .tasks
                    .iter()
                    .filter(|(_, t)| t.parent.addr.proc == dead)
                    .map(|(k, _)| *k)
                    .collect();
                for k in orphans {
                    self.stats.orphans_suicided += 1;
                    self.abort_cascade(k, sink);
                }
                let eager = self.policy.eager_on_death();
                let mut lazy_owners: Vec<TaskKey> = Vec::new();
                let entry = self.checkpoints_filed_under(dead);
                for (stamp, owner) in select_for_recovery(entry, self.config.ckpt_filter) {
                    if eager {
                        self.reissue_child(owner, &stamp, sink);
                    } else if self.mark_lost(owner, &stamp) {
                        lazy_owners.push(owner);
                    }
                }
                for owner in lazy_owners {
                    self.lazy_rebuild_check(owner, sink);
                }
            }
            RecoveryMode::Splice => {
                // Every live parent regenerates each of its dead children
                // as a step-parent twin; orphan fragments keep computing
                // and their results will be spliced in. With a grace
                // period configured, the proactive regeneration is
                // deferred so in-flight orphan results can land first.
                let grace = self.config.splice_grace;
                let eager = self.policy.eager_on_death();
                let mut lazy_owners: Vec<TaskKey> = Vec::new();
                let entry = self.checkpoints_filed_under(dead);
                for (stamp, owner) in select_for_recovery(entry, CheckpointFilter::All) {
                    if !eager {
                        // Lazy: no proactive twin — the subtree is rebuilt
                        // only when the owner's progress demands it. Orphan
                        // fragments keep computing; their salvages land in
                        // `pending_salvages` and flow to an eventual twin.
                        if self.mark_lost(owner, &stamp) {
                            lazy_owners.push(owner);
                        }
                    } else if grace == 0 {
                        self.stats.step_parents_created += 1;
                        self.reissue_child(owner, &stamp, sink);
                    } else {
                        if let Some(ci) = self
                            .tasks
                            .get_mut(&owner)
                            .and_then(|t| t.children.get_mut(&stamp))
                        {
                            ci.twin_pending = true;
                        }
                        sink.push(Action::SetTimer {
                            timer: Timer::grace_reissue(owner, stamp),
                            delay: grace,
                        });
                    }
                }
                for owner in lazy_owners {
                    self.lazy_rebuild_check(owner, sink);
                }
            }
        }
        // Replicated children: account for lost replicas in either mode
        // with checkpointing.
        if self.config.mode.checkpoints() {
            self.handle_replica_losses(dead, sink);
        }
    }

    fn handle_replica_losses(&mut self, dead: ProcId, sink: &mut ActionSink) {
        let mut decisions: Vec<(TaskKey, LevelStamp, Option<Value>, bool, u64)> = Vec::new();
        let mut respawns: Vec<(TaskKey, LevelStamp)> = Vec::new();
        for (key, task) in self.tasks.iter_mut() {
            for (stamp, ci) in task.children.iter_mut() {
                let Some(group) = ci.vote.as_mut() else {
                    continue;
                };
                if ci.done {
                    continue;
                }
                let lost = group.placed.iter().filter(|p| **p == dead).count();
                for _ in 0..lost {
                    match group.vote.mark_lost() {
                        VoteOutcome::Decided { value, clean } => {
                            let dissent = group.vote.dissenting(&value) as u64;
                            decisions.push((*key, stamp.clone(), Some(value), clean, dissent));
                        }
                        VoteOutcome::Pending => {}
                    }
                }
                if group.vote.all_lost() {
                    respawns.push((*key, stamp.clone()));
                }
            }
        }
        for (key, stamp, value, clean, dissent) in decisions {
            if let Some(v) = value {
                if clean {
                    self.stats.votes_decided += 1;
                } else {
                    self.stats.votes_conflicted += 1;
                }
                self.stats.votes_dissenting += dissent;
                self.supply_child(key, &stamp, v, sink);
            }
        }
        for (key, stamp) in respawns {
            self.respawn_replica_group(key, &stamp, sink);
        }
    }

    fn respawn_replica_group(&mut self, owner: TaskKey, stamp: &LevelStamp, sink: &mut ActionSink) {
        let Some(task) = self.tasks.get_mut(&owner) else {
            return;
        };
        let Some(ci) = task.children.get_mut(stamp) else {
            return;
        };
        let Some(group) = ci.vote.as_mut() else {
            return;
        };
        let n = group.vote.group_size();
        let mode = match self.config.replicate.get(&group.base.demand.fun) {
            Some(spec) => spec.vote,
            None => crate::config::VoteMode::Majority,
        };
        group.vote = Vote::new(n, mode);
        let base = group.base.reissue();
        group.base = base.clone();
        let mut placed = Vec::with_capacity(n as usize);
        let mut avoid = self.known_dead.clone();
        let mut spawns = Vec::new();
        for i in 0..n {
            let mut rp = base.clone();
            rp.replica = Some(ReplicaInfo { index: i, total: n });
            rp.incarnation = i;
            let dest = self.placer.place(&rp, &avoid);
            avoid.insert(dest);
            placed.push(dest);
            spawns.push((dest, rp));
        }
        group.placed = placed;
        self.stats.reissues += 1;
        for (dest, rp) in spawns {
            self.send(sink, dest, Msg::spawn(rp));
        }
    }

    /// Lazy policy: record a dead child as lost instead of reissuing it.
    /// Returns `true` when a live, undecided, non-replicated child was
    /// marked (replica groups keep their own eager loss handling).
    fn mark_lost(&mut self, owner: TaskKey, stamp: &LevelStamp) -> bool {
        match self
            .tasks
            .get_mut(&owner)
            .and_then(|t| t.children.get_mut(stamp))
        {
            Some(ci) if !ci.done && ci.vote.is_none() => {
                ci.lost = true;
                true
            }
            _ => false,
        }
    }

    /// Lazy policy: rebuild an owner's lost children once its progress
    /// actually demands them — i.e. the task is blocked and *everything*
    /// it still waits on is lost. While any live child remains, its
    /// arrival re-runs this check, so rebuilds start exactly when the
    /// subtree's results become the critical path.
    fn lazy_rebuild_check(&mut self, owner: TaskKey, sink: &mut ActionSink) {
        let mut stamps: Vec<LevelStamp> = {
            let Some(task) = self.tasks.get(&owner) else {
                return;
            };
            if task.queued || task.eval.ready() {
                return;
            }
            let mut lost = Vec::new();
            for (stamp, ci) in task.children.iter() {
                if ci.done {
                    continue;
                }
                if !ci.lost {
                    // A live child may still unblock the owner; its result
                    // (or its own loss) re-triggers this check.
                    return;
                }
                lost.push(stamp.clone());
            }
            lost
        };
        stamps.sort();
        for stamp in stamps {
            if let Some(ci) = self
                .tasks
                .get_mut(&owner)
                .and_then(|t| t.children.get_mut(&stamp))
            {
                ci.lost = false;
            }
            self.stats.lazy_rebuilds += 1;
            self.reissue_child(owner, &stamp, sink);
        }
    }

    /// Re-issues a (non-replicated) child from its functional checkpoint:
    /// the packet is rebuilt from the child record and its owner, equal to
    /// the spawned one but for the incarnation. In splice mode this is
    /// exactly step-parent/twin creation.
    fn reissue_child(&mut self, owner: TaskKey, stamp: &LevelStamp, sink: &mut ActionSink) {
        let Some(task) = self.tasks.get_mut(&owner) else {
            return;
        };
        let Some(ci) = task.children.get_mut(stamp) else {
            return;
        };
        if ci.done {
            return;
        }
        ci.incarnation += 1;
        let incarnation = ci.incarnation;
        if ci.ckpt.is_none() {
            return;
        }
        let demand = ci.demand.clone();
        let links = self.config.links_beyond_parent();
        let packet = child_packet(self.id, task, links, stamp.clone(), demand, incarnation);
        let ci = task.children.get_mut(stamp).expect("child looked up above");
        let cp = ci.ckpt.as_mut().expect("checkpoint checked above");
        // Pending again: the destination is unknown until the new ACK.
        cp.dest = None;
        // Hand incremental re-checkpoint entries (MultiCheckpoint) to the
        // twin as parked salvages: they flow out on the twin's placement
        // ACK like any salvage. The stored preloads are cloned, NOT
        // drained — a second crash during the rebuild must still find the
        // recovery anchor intact.
        for (d, v) in cp.preloads.iter() {
            if ci.pending_salvages.iter().any(|s| s.demand == *d) {
                continue;
            }
            ci.pending_salvages.push(SalvagePacket {
                to: TaskAddr::new(self.id, owner), // rewritten at the ACK flush
                dead_stamp: stamp.clone(),
                dead_addr: TaskAddr::new(self.id, owner),
                demand: d.clone(),
                value: v.clone(),
                from_stamp: stamp.clone(),
            });
        }
        let dest = self.placer.place(&packet, &self.known_dead);
        self.stats.reissues += 1;
        sink.push(Action::SetTimer {
            timer: Timer::ack_timeout(owner, stamp.clone(), incarnation),
            delay: self.config.ack_timeout,
        });
        self.send(sink, dest, Msg::spawn(packet));
    }

    /// Re-places a bounced spawn packet. If this processor is the packet's
    /// parent, go through the checkpointed reissue path (keeps incarnation
    /// bookkeeping coherent); otherwise re-place the packet directly. The
    /// bounced packet itself is reused for the re-send — the old path
    /// cloned it a second time on top of the copy already made for the
    /// failure handling.
    fn reissue_packet(&mut self, mut p: TaskPacket, sink: &mut ActionSink) {
        if p.parent.addr.proc == self.id && self.tasks.contains_key(&p.parent.addr.key) {
            if p.replica.is_some() {
                // Replica spawn lost; treat as a lost replica — the vote
                // already accounts for its processor via on_proc_dead.
                return;
            }
            if !self.policy.eager_on_death() {
                // Lazy: the spawn died in flight; rebuild only on demand.
                if self.mark_lost(p.parent.addr.key, &p.stamp) {
                    self.lazy_rebuild_check(p.parent.addr.key, sink);
                }
                return;
            }
            return self.reissue_child(p.parent.addr.key, &p.stamp, sink);
        }
        // A packet we were merely forwarding: place it somewhere else,
        // bumping the incarnation in place.
        p.incarnation += 1;
        p.hops = 0;
        let dest = self.placer.place(&p, &self.known_dead);
        self.stats.reissues += 1;
        self.send(sink, dest, Msg::spawn(p));
    }

    /// A completed task's result cannot reach its parent: splice relays it
    /// toward the nearest live ancestor ("notify the grandparent and send
    /// the result to the grandparent"); rollback discards it — the orphan
    /// has effectively committed suicide after the fact. The result's
    /// payload moves into the salvage packet; nothing is cloned.
    fn handle_undeliverable_result(&mut self, rp: ResultPacket, sink: &mut ActionSink) {
        if !self.config.mode.salvages() || rp.replica.is_some() {
            self.stats.orphans_suicided += 1;
            return;
        }
        let ResultPacket {
            from_stamp,
            demand,
            value,
            to,
            to_stamp,
            relay_chain,
            replica: _,
        } = rp;
        let sp = SalvagePacket {
            to: TaskAddr::new(ProcId(0), TaskKey(0)), // filled below
            dead_stamp: to_stamp,
            dead_addr: to,
            demand,
            value,
            from_stamp,
        };
        self.send_salvage_via_chain(sp, &relay_chain, sink);
    }

    /// Sends a salvage packet to the first live link of an ancestor chain.
    fn send_salvage_via_chain(
        &mut self,
        mut sp: SalvagePacket,
        chain: &[TaskLink],
        sink: &mut ActionSink,
    ) {
        for (i, link) in chain.iter().enumerate() {
            if self.known_dead.contains(&link.addr.proc) {
                continue;
            }
            sp.to = link.addr;
            if link.addr.proc == self.id {
                // The ancestor is local: route directly; an unrouted packet
                // comes back by value and tries the rest of the chain.
                if let Some(back) = self.route_salvage(sp, sink) {
                    let rest = &chain[i + 1..];
                    if rest.is_empty() {
                        self.stats.stranded_orphans += 1;
                    } else {
                        self.send_salvage_via_chain(back, rest, sink);
                    }
                }
                return;
            }
            self.send(sink, link.addr.proc, Msg::salvage(sp));
            return;
        }
        // "If both the parent and grandparent processors of a task fail
        // simultaneously, the orphan task would be stranded." (§5.2)
        self.stats.stranded_orphans += 1;
    }

    /// Upward retry after a salvage bounce: try the remaining ancestors of
    /// the dead stamp. The chain is reconstructed from the packet's stamp
    /// prefixes we know locally — if none, the orphan is stranded.
    fn relay_salvage_upward(&mut self, sp: SalvagePacket) {
        // We only know our own tasks; with the direct chain exhausted the
        // orphan result is stranded from this processor's point of view.
        let _ = sp;
        self.stats.stranded_orphans += 1;
    }

    fn on_salvage(&mut self, sp: SalvagePacket, sink: &mut ActionSink) {
        // An unexpected grandchild answer implies the intermediate parent is
        // faulty; the stamp itself tells us which task, and the processor it
        // lived on is already in our dead set if a notice arrived first.
        if self.route_salvage(sp, sink).is_some() {
            self.stats.salvage_dropped += 1;
        }
    }

    /// Routes a salvage packet at this processor: deliver to the twin if it
    /// lives here, otherwise hand it one step down the regenerated spine.
    /// Consumes the packet when it found a consumer or forwarder; returns
    /// it unrouted otherwise (so callers relay or drop without a clone).
    fn route_salvage(&mut self, sp: SalvagePacket, sink: &mut ActionSink) -> Option<SalvagePacket> {
        // Twin (or still-live original) of the dead task here?
        if let Some(&key) = self.by_stamp.get(&sp.dead_stamp) {
            self.preload_salvage(key, sp, sink);
            return None;
        }
        // Deepest live local ancestor of the dead stamp.
        let mut probe = sp.dead_stamp.clone();
        while let Some(parent) = probe.parent() {
            probe = parent;
            let Some(&key) = self.by_stamp.get(&probe) else {
                continue;
            };
            let Some(task) = self.tasks.get_mut(&key) else {
                continue;
            };
            let next = task
                .stamp
                .child_towards(&sp.dead_stamp)
                .expect("probe is an ancestor");
            match task.children.get_mut(&next) {
                None => {
                    // The (twin) ancestor has not demanded this child yet;
                    // park the salvage for when it does.
                    task.future_salvages.push(sp);
                    return None;
                }
                Some(ci) if ci.done => {
                    // The subtree's value is already known upstream; the
                    // orphan's contribution is stale (§4.1 case 8).
                    self.stats.salvage_dropped += 1;
                    return None;
                }
                Some(ci) => {
                    // The unexpected grandchild answer itself proves the
                    // instance it addressed is dead (§4.1): if we still
                    // point at exactly that instance, declare its processor
                    // faulty and regenerate before routing.
                    if ci.current_addr() == Some(sp.dead_addr)
                        && !self.known_dead.contains(&sp.dead_addr.proc)
                    {
                        let dead = sp.dead_addr.proc;
                        ci.pending_salvages.push(sp);
                        self.on_proc_dead(dead, sink);
                        // "Create a step-parent for the grandchild if there
                        // isn't one already": even with a grace period, the
                        // salvage arrival itself triggers the twin.
                        self.salvage_triggers_twin(key, &next, sink);
                        return None;
                    }
                    match ci.current_addr() {
                        Some(addr) if !self.known_dead.contains(&addr.proc) => {
                            let mut sp = sp;
                            sp.to = addr;
                            self.stats.salvage_forwarded += 1;
                            self.send(sink, addr.proc, Msg::salvage(sp));
                            return None;
                        }
                        Some(addr) => {
                            // Child instance died too: reissue it (twin) and
                            // park the salvage until the new ACK.
                            let dead = addr.proc;
                            ci.pending_salvages.push(sp);
                            self.on_proc_dead(dead, sink);
                            self.salvage_triggers_twin(key, &next, sink);
                            return None;
                        }
                        None => {
                            // Spawn in flight; park until the ACK flushes.
                            ci.pending_salvages.push(sp);
                            return None;
                        }
                    }
                }
            }
        }
        Some(sp)
    }

    /// Reactive twin creation: a salvage just arrived for a child whose
    /// twin creation was deferred by the grace period.
    fn salvage_triggers_twin(&mut self, owner: TaskKey, stamp: &LevelStamp, sink: &mut ActionSink) {
        let deferred = match self
            .tasks
            .get_mut(&owner)
            .and_then(|t| t.children.get_mut(stamp))
        {
            Some(ci) if ci.twin_pending && !ci.done => {
                ci.twin_pending = false;
                true
            }
            _ => false,
        };
        if deferred {
            self.stats.step_parents_created += 1;
            self.reissue_child(owner, stamp, sink);
        }
    }

    fn preload_salvage(&mut self, key: TaskKey, sp: SalvagePacket, sink: &mut ActionSink) {
        let Some(task) = self.tasks.get_mut(&key) else {
            return;
        };
        self.stats.salvaged_results += 1;
        // If the twin already spawned this demand, the preload satisfies it
        // (§4.1 case 6: the spawned duplicate's eventual result is ignored);
        // otherwise the preload prevents the spawn entirely (cases 4/5).
        if let Some(stamp) = task.by_demand.get(&sp.demand).cloned() {
            self.stats.salvage_after_spawn += 1;
            let done = task.children.get(&stamp).map(|c| c.done).unwrap_or(false);
            if !done {
                self.supply_child(key, &stamp, sp.value, sink);
            } else {
                self.stats.duplicate_results_ignored += 1;
            }
        } else {
            self.stats.salvage_before_spawn += 1;
            task.eval.preload(sp.demand, sp.value);
            if task.eval.ready() {
                self.enqueue(key);
            }
        }
    }

    // -----------------------------------------------------------------
    // Abort cascade (rollback garbage collection)
    // -----------------------------------------------------------------

    fn on_abort(&mut self, to: TaskAddr, sink: &mut ActionSink) {
        if self.tasks.contains_key(&to.key) {
            self.stats.tasks_aborted += 1;
            self.abort_cascade(to.key, sink);
        } else {
            self.stats.stale_messages_ignored += 1;
        }
    }

    fn abort_cascade(&mut self, key: TaskKey, sink: &mut ActionSink) {
        let Some(mut task) = self.tasks.remove(&key) else {
            return;
        };
        if self.by_stamp.get(&task.stamp) == Some(&key) {
            self.by_stamp.remove(&task.stamp);
        }
        self.retire_checkpoints(&mut task);
        for ci in task.children.values() {
            if ci.done {
                continue;
            }
            if let Some(addr) = ci.current_addr() {
                if !self.known_dead.contains(&addr.proc) {
                    self.stats.aborts_sent += 1;
                    self.send(sink, addr.proc, Msg::Abort { to: addr });
                }
            }
            if let Some(group) = &ci.vote {
                for (i, p) in group.placed.iter().enumerate() {
                    let _ = i;
                    if !self.known_dead.contains(p) {
                        // Best effort: abort replicas at their placement.
                        // Without the acked key we cannot address the task
                        // precisely; replicas finish and their results are
                        // ignored. (Counted as garbage work in experiments.)
                        let _ = p;
                    }
                }
            }
        }
        self.recycle_task(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::SelfPlacer;
    use splice_applicative::Workload;

    fn engine_for(w: &Workload, mode: RecoveryMode) -> Engine {
        let mut cfg = Config::with_mode(mode);
        cfg.load_beacon_period = 0;
        Engine::new(
            ProcId(0),
            Arc::new(w.program.clone()),
            cfg,
            Box::new(SelfPlacer { here: ProcId(0) }),
        )
    }

    fn root_packet(w: &Workload) -> TaskPacket {
        TaskPacket {
            stamp: LevelStamp::root().child(1),
            demand: Demand::new(w.entry, w.args.clone()),
            parent: TaskLink::super_root(),
            ancestors: vec![TaskLink::super_root()],
            incarnation: 0,
            hops: 0,
            replica: None,
            under_replica: false,
        }
    }

    /// Collects a handler's sink output into a plain `Vec` (test shim).
    fn pump(engine: &mut Engine, msg: Msg) -> Vec<Action> {
        let mut sink = ActionSink::new();
        engine.on_message(msg, &mut sink);
        sink.drain_to_vec()
    }

    /// Drives a single engine to completion by looping messages back into
    /// it, returning the root result observed at the super-root. The one
    /// sink is reused across the whole run, like the real drivers.
    fn run_single(engine: &mut Engine, w: &Workload) -> Value {
        let mut inbox: VecDeque<Msg> = VecDeque::new();
        inbox.push_back(Msg::spawn(root_packet(w)));
        let mut root_result = None;
        let mut sink = ActionSink::new();
        let mut guard = 0u64;
        loop {
            guard += 1;
            assert!(guard < 10_000_000, "single-engine run diverged");
            if let Some(msg) = inbox.pop_front() {
                engine.on_message(msg, &mut sink);
            } else if let Some(key) = engine.pop_ready() {
                engine.run_wave(key, &mut sink);
            } else {
                break;
            };
            for a in sink.drain() {
                match a {
                    Action::Send { to, msg } => {
                        if to.is_super_root() {
                            if let Msg::Result(rp) = msg {
                                root_result = Some(rp.value);
                            }
                            // Super-root acks are not modelled here.
                        } else {
                            assert_eq!(to, ProcId(0), "SelfPlacer keeps everything local");
                            inbox.push_back(msg);
                        }
                    }
                    Action::SetTimer { .. } => {
                        // Single reliable processor: timers never matter.
                    }
                }
            }
        }
        root_result.expect("root completed")
    }

    #[test]
    fn single_processor_runs_fib_to_completion() {
        let w = Workload::fib(10);
        let mut e = engine_for(&w, RecoveryMode::Splice);
        let v = run_single(&mut e, &w);
        assert_eq!(v, Value::Int(55));
        assert_eq!(e.task_count(), 0, "all tasks drained");
        assert!(e.checkpoints().is_empty(), "all checkpoints retired");
        assert!(e.stats().tasks_completed > 100);
    }

    #[test]
    fn single_processor_agrees_with_reference_across_suite() {
        for w in Workload::suite_small() {
            let mut e = engine_for(&w, RecoveryMode::Splice);
            let v = run_single(&mut e, &w);
            assert_eq!(v, w.reference_result().unwrap(), "{}", w.name);
            assert!(e.checkpoints().is_empty(), "{}", w.name);
        }
    }

    #[test]
    fn mode_none_stores_no_checkpoints() {
        let w = Workload::fib(8);
        let mut e = engine_for(&w, RecoveryMode::None);
        let v = run_single(&mut e, &w);
        assert_eq!(v, Value::Int(21));
        assert_eq!(e.checkpoints().stored_total(), 0);
    }

    #[test]
    fn rollback_stores_and_retires_checkpoints() {
        let w = Workload::fib(8);
        let mut e = engine_for(&w, RecoveryMode::Rollback);
        run_single(&mut e, &w);
        assert!(e.checkpoints().stored_total() > 0);
        assert_eq!(
            e.checkpoints().stored_total(),
            e.checkpoints().retired_total()
        );
        assert!(e.checkpoints().peak_entries() > 0);
    }

    #[test]
    fn stale_messages_are_ignored() {
        let w = Workload::fib(5);
        let mut e = engine_for(&w, RecoveryMode::Splice);
        let stale = Msg::result(ResultPacket {
            from_stamp: LevelStamp::from_digits(&[1, 1]),
            demand: Demand::new(w.entry, vec![Value::Int(1)]),
            value: Value::Int(1),
            to: TaskAddr::new(ProcId(0), TaskKey(999)),
            to_stamp: LevelStamp::from_digits(&[1]),
            relay_chain: vec![],
            replica: None,
        });
        let actions = pump(&mut e, stale);
        assert!(actions.is_empty());
        assert_eq!(e.stats().stale_messages_ignored, 1);
        // Unknown aborts equally ignored.
        pump(
            &mut e,
            Msg::Abort {
                to: TaskAddr::new(ProcId(0), TaskKey(1)),
            },
        );
        assert_eq!(e.stats().stale_messages_ignored, 2);
    }

    #[test]
    fn failure_notice_is_idempotent() {
        let w = Workload::fib(5);
        let mut e = engine_for(&w, RecoveryMode::Rollback);
        assert!(pump(&mut e, Msg::FailureNotice { dead: ProcId(3) }).is_empty());
        assert!(pump(&mut e, Msg::FailureNotice { dead: ProcId(3) }).is_empty());
        assert!(e.known_dead().contains(&ProcId(3)));
    }

    #[test]
    fn action_stays_small() {
        // Actions move by value through sinks, the DES queue and runtime
        // channels; the timer payload boxing exists to keep them small.
        assert!(
            std::mem::size_of::<Action>() <= 32,
            "Action grew past 32 bytes: {}",
            std::mem::size_of::<Action>()
        );
        assert!(
            std::mem::size_of::<Timer>() <= 16,
            "Timer grew past 16 bytes: {}",
            std::mem::size_of::<Timer>()
        );
    }

    #[test]
    fn task_frames_are_recycled_across_generations() {
        // Two back-to-back runs on one engine: the second run's tasks are
        // revived from the first run's retired frames, and the engine ends
        // both runs fully drained.
        let w = Workload::fib(8);
        let mut e = engine_for(&w, RecoveryMode::Splice);
        assert_eq!(run_single(&mut e, &w), Value::Int(21));
        let created_first = e.stats().tasks_created;
        assert!(!e.free_tasks.is_empty(), "retired frames were kept");
        assert_eq!(run_single(&mut e, &w), Value::Int(21));
        assert_eq!(e.task_count(), 0);
        assert!(e.stats().tasks_created > created_first);
        assert!(e.checkpoints().is_empty());
    }

    /// Sends every child to one fixed peer (the probe tests need a child
    /// that is placed — and acked — remotely).
    struct PeerPlacer(ProcId);

    impl Placer for PeerPlacer {
        fn place(&mut self, _packet: &TaskPacket, _avoid: &FxHashSet<ProcId>) -> ProcId {
            self.0
        }
    }

    /// Spawns the root on an engine that places children on `ProcId(1)` and
    /// runs waves until the first child spawn leaves, returning the engine,
    /// the outgoing packet and the ack timer guarding it.
    fn engine_with_remote_child(cfg: Config, w: &Workload) -> (Engine, Box<TaskPacket>, Timer) {
        let mut e = Engine::new(
            ProcId(0),
            Arc::new(w.program.clone()),
            cfg,
            Box::new(PeerPlacer(ProcId(1))),
        );
        let mut sink = ActionSink::new();
        e.on_message(Msg::spawn(root_packet(w)), &mut sink);
        let mut spawn: Option<Box<TaskPacket>> = None;
        let mut timer: Option<Timer> = None;
        for _ in 0..100 {
            if spawn.is_some() && timer.is_some() {
                break;
            }
            let key = e.pop_ready().expect("root must spawn children");
            e.run_wave(key, &mut sink);
            for a in sink.drain() {
                match a {
                    Action::Send {
                        to,
                        msg: Msg::Spawn(p),
                    } if to == ProcId(1) && spawn.is_none() => spawn = Some(p),
                    Action::SetTimer {
                        timer: t @ Timer::AckTimeout(_),
                        ..
                    } if timer.is_none() => timer = Some(t),
                    _ => {}
                }
            }
        }
        let spawn = spawn.expect("child spawn emitted");
        let timer = timer.expect("ack timer armed");
        if let Timer::AckTimeout(at) = &timer {
            assert_eq!(at.stamp, spawn.stamp, "timer guards the captured spawn");
        }
        (e, spawn, timer)
    }

    #[test]
    fn ack_timeout_probes_acked_children_when_enabled() {
        let w = Workload::fib(6);
        let mut cfg = Config::with_mode(RecoveryMode::Splice);
        cfg.load_beacon_period = 0;
        cfg.probe_acked = true;
        let (mut e, spawn, timer) = engine_with_remote_child(cfg, &w);
        let child_addr = TaskAddr::new(ProcId(1), TaskKey(7));
        pump(
            &mut e,
            Msg::ack(spawn.stamp.clone(), child_addr, spawn.parent.addr, 0),
        );
        let mut sink = ActionSink::new();
        e.on_timer(timer, &mut sink);
        let acts = sink.drain_to_vec();
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Send { to, msg: Msg::Probe } if *to == ProcId(1))),
            "placed child with an overdue result is probed: {acts:?}"
        );
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::SetTimer {
                    timer: Timer::AckTimeout(_),
                    ..
                }
            )),
            "the probe re-arms the poll: {acts:?}"
        );
        assert_eq!(
            e.stats().reissues,
            0,
            "acked children are never reissued blind"
        );
    }

    #[test]
    fn ack_timeout_on_acked_child_is_silent_without_probing() {
        let w = Workload::fib(6);
        let mut cfg = Config::with_mode(RecoveryMode::Splice);
        cfg.load_beacon_period = 0;
        let (mut e, spawn, timer) = engine_with_remote_child(cfg, &w);
        let child_addr = TaskAddr::new(ProcId(1), TaskKey(7));
        pump(
            &mut e,
            Msg::ack(spawn.stamp.clone(), child_addr, spawn.parent.addr, 0),
        );
        let mut sink = ActionSink::new();
        e.on_timer(timer, &mut sink);
        assert!(
            sink.drain_to_vec().is_empty(),
            "paper default: an acked child is trusted until a notice or bounce"
        );
    }

    /// Accepts the root on an engine that places every child on
    /// `ProcId(1)` and runs the root's first wave, returning the engine
    /// and the child packets that wave spawned.
    fn first_wave_spawns(mode: RecoveryMode) -> (Engine, Vec<TaskPacket>) {
        let w = Workload::fib(6);
        let mut cfg = Config::with_mode(mode);
        cfg.load_beacon_period = 0;
        let mut e = Engine::new(
            ProcId(0),
            Arc::new(w.program.clone()),
            cfg,
            Box::new(PeerPlacer(ProcId(1))),
        );
        let mut sink = ActionSink::new();
        e.on_message(Msg::spawn(root_packet(&w)), &mut sink);
        let key = e.pop_ready().expect("root accepted");
        e.run_wave(key, &mut sink);
        let spawns: Vec<TaskPacket> = sink.drain().filter_map(spawned).collect();
        assert!(spawns.len() >= 2, "fib's root demands two children");
        (e, spawns)
    }

    fn spawned(a: Action) -> Option<TaskPacket> {
        match a {
            Action::Send {
                msg: Msg::Spawn(p), ..
            } => Some(*p),
            _ => None,
        }
    }

    /// Acks child packet `p` as placed on `host`.
    fn ack_from(e: &mut Engine, p: &TaskPacket, host: ProcId) {
        let addr = TaskAddr::new(host, TaskKey(7));
        pump(
            e,
            Msg::ack(p.stamp.clone(), addr, p.parent.addr, p.incarnation),
        );
    }

    /// Delivers a failure notice and returns the spawns it reissued.
    fn notice(e: &mut Engine, dead: ProcId) -> Vec<TaskPacket> {
        pump(e, Msg::FailureNotice { dead })
            .into_iter()
            .filter_map(spawned)
            .collect()
    }

    fn packet_bytes(spawns: &[TaskPacket]) -> usize {
        spawns.iter().map(TaskPacket::size).sum()
    }

    #[test]
    fn spawn_stores_one_checkpoint_per_child() {
        let (e, spawns) = first_wave_spawns(RecoveryMode::Splice);
        let t = e.checkpoints();
        assert_eq!(t.len(), spawns.len());
        assert_eq!(t.stored_total(), spawns.len() as u64);
        assert_eq!(t.bytes(), packet_bytes(&spawns));
    }

    #[test]
    fn failure_notice_reissues_the_child_acked_there() {
        let (mut e, spawns) = first_wave_spawns(RecoveryMode::Rollback);
        ack_from(&mut e, &spawns[0], ProcId(2));
        // The other children are unacked (pending): no destination yet.
        let twins = notice(&mut e, ProcId(2));
        assert_eq!(twins.len(), 1);
        assert_eq!(twins[0].stamp, spawns[0].stamp);
        assert_eq!(twins[0].incarnation, 1);
        assert_eq!(e.stats().reissues, 1);
    }

    #[test]
    fn reissued_checkpoint_leaves_its_old_destination() {
        let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
        ack_from(&mut e, &spawns[0], ProcId(2));
        // A bounced spawn reissues the child: pending again.
        let mut sink = ActionSink::new();
        e.on_send_failed(ProcId(3), Msg::spawn(spawns[0].clone()), &mut sink);
        assert_eq!(e.stats().reissues, 1);
        assert!(notice(&mut e, ProcId(2)).is_empty());
        assert_eq!(e.stats().reissues, 1);
        assert_eq!(e.checkpoints().len(), spawns.len());
    }

    #[test]
    fn re_ack_moves_the_checkpoint() {
        let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
        ack_from(&mut e, &spawns[0], ProcId(2));
        ack_from(&mut e, &spawns[0], ProcId(3));
        assert!(notice(&mut e, ProcId(2)).is_empty());
        let twins = notice(&mut e, ProcId(3));
        assert_eq!(twins.len(), 1);
        assert_eq!(twins[0].stamp, spawns[0].stamp);
    }

    #[test]
    fn result_and_abort_retire_checkpoints() {
        let (mut e, spawns) = first_wave_spawns(RecoveryMode::Rollback);
        let p = &spawns[0];
        pump(
            &mut e,
            Msg::result(ResultPacket {
                from_stamp: p.stamp.clone(),
                demand: p.demand.clone(),
                value: Value::Int(5),
                to: p.parent.addr,
                to_stamp: p.parent.stamp.clone(),
                relay_chain: vec![],
                replica: None,
            }),
        );
        assert_eq!(e.checkpoints().len(), spawns.len() - 1);
        assert_eq!(e.checkpoints().retired_total(), 1);
        assert_eq!(e.checkpoints().bytes(), packet_bytes(&spawns[1..]));
        pump(&mut e, Msg::Abort { to: p.parent.addr });
        assert_eq!(e.task_count(), 0);
        assert_eq!(e.checkpoints().len(), 0);
        assert_eq!(e.checkpoints().bytes(), 0);
        assert_eq!(e.checkpoints().retired_total(), spawns.len() as u64);
    }

    #[test]
    fn preloads_dedup_by_demand_and_count_in_bytes() {
        let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
        let p = &spawns[0];
        let report = |entries: Vec<(Demand, Value)>| {
            Msg::ckpt(CkptPacket {
                owner: p.parent.addr,
                from_stamp: p.stamp.clone(),
                entries,
            })
        };
        let d1 = Demand::new(p.demand.fun, vec![Value::Int(1)]);
        let d2 = Demand::new(p.demand.fun, vec![Value::Int(2)]);
        let base = e.checkpoints().bytes();
        pump(&mut e, report(vec![(d1.clone(), Value::Int(10))]));
        pump(
            &mut e,
            report(vec![(d1, Value::Int(10)), (d2, Value::Int(20))]),
        );
        let added = Value::Int(10).size() + Value::Int(20).size();
        assert_eq!(e.checkpoints().bytes(), base + added);
        assert_eq!(e.stats().stale_messages_ignored, 0);
        // A report for a child this engine never spawned is stale.
        pump(
            &mut e,
            Msg::ckpt(CkptPacket {
                owner: p.parent.addr,
                from_stamp: p.stamp.child(9),
                entries: vec![],
            }),
        );
        assert_eq!(e.stats().stale_messages_ignored, 1);
        // Retiring the owner releases the preload bytes too.
        pump(&mut e, Msg::Abort { to: p.parent.addr });
        assert_eq!(e.checkpoints().bytes(), 0);
        assert!(e.checkpoints().peak_bytes() >= base + added);
    }

    #[test]
    fn checkpoint_peaks_keep_high_water_marks() {
        let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
        pump(
            &mut e,
            Msg::Abort {
                to: spawns[0].parent.addr,
            },
        );
        let t = e.checkpoints();
        assert!(t.is_empty());
        assert_eq!(t.peak_entries(), spawns.len());
        assert_eq!(t.peak_bytes(), packet_bytes(&spawns));
    }

    #[test]
    fn twin_packet_is_the_original_but_for_incarnation() {
        let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
        let b = ProcId(1);
        ack_from(&mut e, &spawns[0], b);
        let twins = notice(&mut e, b);
        assert_eq!(twins.len(), 1);
        let mut want = spawns[0].clone();
        want.incarnation = 1;
        assert_eq!(twins[0], want);
        assert!(!want.ancestors.is_empty(), "links are part of the pin");
    }
}
