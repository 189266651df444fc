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

use crate::checkpoint::CheckpointTable;
use crate::config::Config;
use crate::ids::{ProcId, TaskKey};
use crate::packet::{AckInfo, Msg};
use crate::place::Placer;
use crate::policy::{PolicyKind, RecoveryPolicy};
use crate::sink::ActionSink;
use crate::stamp::LevelStamp;
use crate::stats::ProcStats;
use crate::task::Task;
use frames::Frames;
use splice_applicative::wave::{Demand, FramePool};
use splice_applicative::{FxHashMap, FxHashSet, Program};
use std::collections::VecDeque;
use std::sync::Arc;

mod failure;
mod frames;
mod result;
mod salvage;
mod spawn;
#[cfg(test)]
mod tests;

pub use spawn::beacons_on_start;

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
    /// Resident task frames; spent frames stay for the next spawn, so
    /// steady-state task churn allocates nothing.
    tasks: Frames,
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
    /// Only filled while a driver has enabled creation logging.
    log_created: bool,
    created_log: Vec<LevelStamp>,
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
            tasks: Frames::default(),
            by_stamp: FxHashMap::default(),
            ready: VecDeque::new(),
            next_key: 0,
            known_dead: FxHashSet::default(),
            ckpt: CheckpointTable::new(),
            stats: ProcStats::default(),
            pool: FramePool::new(),
            demand_buf: Vec::new(),
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
}
