//! The simulated applicative multiprocessor.
//!
//! A [`Machine`] instantiates one shared driver loop
//! ([`splice_harness::DriverLoop`]) per processor of a topology and runs
//! them over [`SimSubstrate`] — the discrete-event implementation of the
//! [`Substrate`] trait: messages move through the deterministic event queue
//! with topology-dependent latency, execution time is charged per
//! evaluation wave, faults come from a [`FaultPlan`], and the reliable
//! super-root runs on the driver side. Everything is deterministic for a
//! given configuration and seed.
//!
//! All protocol plumbing (action dispatch, super-root fallbacks, failure
//! notices, report assembly) lives in `splice-harness` and is shared with
//! the threaded runtime; this file contributes only the event queue, the
//! latency/cost/fault models, and the driver-side event loop.

use crate::cost::CostModel;
use crate::report::{RunCounters, RunReport};
use splice_applicative::{Program, Workload};
use splice_core::config::Config as RecoveryConfig;
use splice_core::engine::{Action, Timer};
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::place::Placer;
use splice_core::sink::ActionSink;
use splice_core::stamp::LevelStamp;
use splice_gradient::Policy;
use splice_harness::{
    corrupt_value, death_notice_targets, dispatch_iter, BatchingSubstrate, DriverLoop,
    EngineSnapshot, EngineTotals, ShardMap, ShardRouter, Substrate, SuperRootDriver,
    TracingSubstrate,
};
use splice_simnet::detect::DetectorConfig;
use splice_simnet::fault::{FaultKind, FaultOutcome, FaultPlan, FaultState};
use splice_simnet::link::LinkModel;
use splice_simnet::queue::EventQueue;
use splice_simnet::time::VirtualTime;
use splice_simnet::topology::Topology;
use splice_simnet::trace::{TraceEvent, TraceKind, TraceMode, TraceSummary, Tracer};
use std::sync::Arc;

/// Full machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Interconnect topology (defines the processor count).
    pub topology: Topology,
    /// Link latency model.
    pub link: LinkModel,
    /// Failure detection timing.
    pub detector: DetectorConfig,
    /// Placement policy.
    pub policy: Policy,
    /// Recovery configuration shared by all engines.
    pub recovery: RecoveryConfig,
    /// Execution cost model.
    pub cost: CostModel,
    /// Extra delivery latency per message crossing a shard boundary (the
    /// inter-shard router's fixed cost; inert on flat topologies).
    pub router_latency: u64,
    /// Flush window of the batched-delivery bus: worker messages buffered
    /// within one pump are delivered together, `batch_window` ticks late
    /// (0 disables batching entirely — bit-identical to no bus). Swept by
    /// experiment E15.
    pub batch_window: u64,
    /// Seed for stochastic placers and jitter.
    pub seed: u64,
    /// OS threads (reactor pumps) the reactor backend spreads the engines
    /// over (`ReactorMachine` forces 1); the DES ignores it. Clamped to
    /// `[1, n_procs]` at machine build time.
    pub threads: u32,
    /// Hard event budget (guards against divergence).
    pub max_events: u64,
    /// Hard virtual-time budget.
    pub max_time: VirtualTime,
    /// Canonical-trace mode: off, ring of N, full recording, or
    /// checksum-only (see [`TraceMode`]).
    pub trace: TraceMode,
}

impl MachineConfig {
    /// A sensible default machine: `n` processors, complete graph, splice
    /// recovery, gradient placement.
    pub fn new(n: u32) -> MachineConfig {
        MachineConfig {
            topology: Topology::Complete { n },
            link: LinkModel::default(),
            detector: DetectorConfig::default(),
            policy: Policy::Gradient,
            recovery: RecoveryConfig::default(),
            cost: CostModel::default(),
            router_latency: 0,
            batch_window: 0,
            seed: 1,
            threads: 1,
            max_events: 200_000_000,
            max_time: VirtualTime(u64::MAX / 4),
            trace: TraceMode::Off,
        }
    }

    /// A sharded machine: `shards` shards of `per_shard` fully-connected
    /// processors each, joined by an inter-shard router that adds
    /// `router_latency` ticks to every boundary crossing and carries
    /// payload at a third of the intra-shard bandwidth
    /// (`link.inter_unit = 2 × per_unit`). Any workload and fault plan
    /// runs unchanged; cross-shard traffic is counted separately in the
    /// report.
    pub fn sharded(shards: u32, per_shard: u32, router_latency: u64) -> MachineConfig {
        let mut cfg = MachineConfig::new(shards * per_shard);
        cfg.topology = Topology::Sharded {
            shards,
            inner: Box::new(Topology::Complete { n: per_shard }),
        };
        cfg.router_latency = router_latency;
        cfg.link.inter_unit = 2 * cfg.link.per_unit;
        // The spawn/ack round trip can cross the router up to twice per
        // forwarding hop; an ack timeout tuned for a flat interconnect
        // sits right on top of that round trip and degenerates into a
        // reissue storm (every cross-shard spawn reissued just before its
        // ack lands, duplicating subtrees faster than they retire). Keep
        // the timeout clear of the router.
        cfg.recovery.ack_timeout += 4 * router_latency;
        cfg
    }

    /// A flat machine with the batched-delivery bus enabled: worker
    /// messages coalesce per pump and flush `window` ticks late. The ack
    /// timeout widens by four windows for the same reason the sharded
    /// constructor widens it by four router latencies: a flat-tuned
    /// timeout sitting on top of the spawn/ack round trip (now paying the
    /// window up to twice per hop) degenerates into a reissue storm.
    pub fn batched(n: u32, window: u64) -> MachineConfig {
        let mut cfg = MachineConfig::new(n);
        cfg.batch_window = window;
        cfg.recovery.ack_timeout += 4 * window;
        cfg
    }

    /// The recovery config the engines actually run: [`Self::recovery`],
    /// except that a machine whose failure detector never broadcasts
    /// (`detector.broadcast == false`) force-enables acked-child probing.
    /// Bounces and ack timeouts only cover unacked spawns; without either
    /// notices or probes, a parent would wait forever on an acked child
    /// whose host died silently.
    pub fn engine_recovery(&self) -> RecoveryConfig {
        let mut rec = self.recovery.clone();
        rec.probe_acked |= !self.detector.broadcast;
        rec
    }
}

enum Ev {
    Deliver {
        from: ProcId,
        to: ProcId,
        msg: Msg,
    },
    Bounce {
        sender: ProcId,
        dead: ProcId,
        msg: Msg,
    },
    Timer {
        proc: ProcId,
        timer: Timer,
    },
    Step {
        proc: ProcId,
    },
    Fault {
        victim: ProcId,
        kind: FaultKind,
    },
    /// Fault-plan crash of super-root replica `rank` ([`RootQuorum`]
    /// liveness; distinct from processor faults — the victim domain is
    /// replica ranks, not processor ids).
    ///
    /// [`RootQuorum`]: splice_core::superroot::RootQuorum
    RootFault {
        rank: u32,
    },
    Notice {
        to: ProcId,
        dead: ProcId,
    },
    /// Periodic state-size sampling for the global-checkpoint baseline.
    Sample,
    /// Deferred wave effects: a wave's sends/timers materialize when the
    /// wave completes, and die with the processor if it crashed mid-wave
    /// (fail-silent: "it will no longer transmit any valid messages").
    Effects {
        proc: ProcId,
        actions: Vec<Action>,
    },
}

/// The discrete-event [`Substrate`]: virtual time, the deterministic event
/// queue, the latency/bounce/cost models, and per-processor liveness.
struct SimSubstrate {
    cfg: MachineConfig,
    queue: EventQueue<Ev>,
    now: VirtualTime,
    msg_seq: u64,
    delivered: u64,
    dropped_to_dead: u64,
    bounces: u64,
    /// Per-processor liveness and corruption — the shared fault state
    /// machine (`splice_simnet::FaultState`), so the crash/corrupt
    /// transition rules are literally the same code on every backend.
    faults: FaultState,
    /// Pending queue entries that are *not* `Ev::Sample`. The sampler
    /// reschedules itself unconditionally, so the queue alone never
    /// drains; this counter is what quiescence detection watches.
    pending_real: u64,
    /// Pending deliveries addressed to the super-root. The driver link is
    /// reliable, so even with every processor dead these must land before
    /// the run may be declared stalled — one of them can be the result.
    pending_sr_deliver: u64,
    busy_until: Vec<VirtualTime>,
    step_pending: Vec<bool>,
    /// (time, live tasks across live processors) samples.
    state_samples: Vec<(u64, u64)>,
    sample_period: u64,
    /// Recycled `Ev::Effects` action buffers (one round-trips per wave).
    effects_pool: Vec<Vec<Action>>,
}

/// The full DES substrate stack: the inter-shard router over the batching
/// bus over the tracing decorator over the DES core. The tracer sits
/// innermost so events carry the core clock at the instant traffic reaches
/// it; with [`TraceMode::Off`] it is a transparent pass-through.
type SimStack = ShardRouter<BatchingSubstrate<TracingSubstrate<SimSubstrate>>>;

impl SimSubstrate {
    fn live(&self, p: ProcId) -> bool {
        self.faults.is_live(p.0)
    }

    /// Schedules `ev`, keeping the non-Sample and super-root-delivery
    /// pending counts in sync. Every push goes through here, and every pop
    /// through [`SimSubstrate::on_pop`] — the two classifications must
    /// stay exact mirrors.
    fn sched(&mut self, at: VirtualTime, ev: Ev) {
        if !matches!(ev, Ev::Sample) {
            self.pending_real += 1;
        }
        if matches!(ev, Ev::Deliver { to, .. } if to.is_super_root()) {
            self.pending_sr_deliver += 1;
        }
        self.queue.push(at, ev);
    }

    /// Un-counts a popped event — the exact mirror of [`SimSubstrate::sched`].
    fn on_pop(&mut self, ev: &Ev) {
        if !matches!(ev, Ev::Sample) {
            self.pending_real -= 1;
        }
        if matches!(ev, Ev::Deliver { to, .. } if to.is_super_root()) {
            self.pending_sr_deliver -= 1;
        }
    }
}

impl Substrate for SimSubstrate {
    fn n_procs(&self) -> u32 {
        self.faults.n()
    }

    fn is_live(&self, p: ProcId) -> bool {
        self.live(p)
    }

    fn now_units(&self) -> u64 {
        self.now.ticks()
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        self.send_delayed(from, to, msg, 0);
    }

    fn send_delayed(&mut self, from: ProcId, to: ProcId, mut msg: Msg, extra: u64) {
        self.msg_seq += 1;
        let at = self.now;
        // A corrupting processor emits detectably wrong replica results
        // (§5.3 experiment) — the same send-side rule as the threaded
        // substrate, so replicated-voting runs agree across backends.
        if !from.is_super_root() && self.faults.is_corrupting(from.0) {
            if let Msg::Result(rp) = &mut msg {
                if rp.replica.is_some() {
                    rp.value = corrupt_value(&rp.value);
                }
            }
        }
        if to.is_super_root() {
            // The driver link is reliable with base latency.
            let latency = self.cfg.link.base + extra;
            self.sched(at + latency, Ev::Deliver { from, to, msg });
            return;
        }
        // Dead destination known to the transport: the sender's best-effort
        // delivery fails and it learns the destination is unreachable (the
        // failed attempt still pays any router surcharge).
        if !self.live(to) && !from.is_super_root() {
            let bounce_at = self.cfg.detector.bounce_time(at) + extra;
            self.sched(
                bounce_at,
                Ev::Bounce {
                    sender: from,
                    dead: to,
                    msg,
                },
            );
            return;
        }
        let (src, dst) = (if from.is_super_root() { to.0 } else { from.0 }, to.0);
        let latency = self
            .cfg
            .link
            .latency(&self.cfg.topology, src, dst, msg.size(), self.msg_seq)
            + extra;
        self.sched(at + latency, Ev::Deliver { from, to, msg });
    }

    fn arm_timer(&mut self, owner: ProcId, timer: Timer, delay: u64) {
        self.sched(self.now + delay, Ev::Timer { proc: owner, timer });
    }

    fn report_death(&mut self, dead: ProcId) {
        // Detector: staggered notices to live peers and the super-root
        // driver, in the canonical recipient order.
        let targets = death_notice_targets(self.n_procs(), |p| self.live(p), dead);
        for (peer_index, to) in targets.into_iter().enumerate() {
            if let Some(at) = self.cfg.detector.notice_time(self.now, peer_index as u32) {
                self.sched(at, Ev::Notice { to, dead });
            }
        }
    }

    fn complete_wave(&mut self, proc: ProcId, sink: &mut ActionSink, work: u64) {
        // Charge the cost model; the effects only escape the processor if
        // it is still alive when the wave completes. The sink drains into
        // a recycled buffer so deferring a wave allocates nothing in the
        // steady state.
        let done = self.now + self.cfg.cost.wave_cost(work);
        self.busy_until[proc.0 as usize] = done;
        let mut actions = self.effects_pool.pop().unwrap_or_default();
        actions.extend(sink.drain());
        self.sched(done, Ev::Effects { proc, actions });
    }
}

/// The simulated machine.
pub struct Machine {
    program: Arc<Program>,
    nodes: Vec<DriverLoop>,
    superroot: SuperRootDriver,
    /// The substrate stack: the inter-shard router over the batching bus
    /// over the tracing decorator over the DES core. On flat topologies
    /// the router is a single-shard pass-through, with `batch_window == 0`
    /// the bus is transparent, and with `TraceMode::Off` the tracer is
    /// inert — so every machine is built the same way; sharded configs
    /// charge `cfg.router_latency` per boundary crossing, batched configs
    /// coalesce per-pump traffic, and traced configs record the canonical
    /// event stream.
    sub: SimStack,
    /// When enabled, records `(time, stamp, proc)` at every task creation.
    log_spawns: bool,
    spawn_log: Vec<(u64, LevelStamp, ProcId)>,
}

impl Machine {
    /// Builds a machine for `workload` with per-processor placers from the
    /// configured policy.
    pub fn new(cfg: MachineConfig, workload: &Workload) -> Machine {
        let topo = cfg.topology.clone();
        let policy = cfg.policy;
        let seed = cfg.seed;
        // One shared roster for every per-engine placer: per-placer roster
        // copies would make an n-engine build O(n^2) memory.
        let all: std::sync::Arc<[splice_core::ids::ProcId]> =
            (0..topo.len()).map(splice_core::ids::ProcId).collect();
        Machine::with_placer_factory(cfg, workload, |p| policy.build_shared(p, &topo, seed, &all))
    }

    /// Builds a machine with custom placers (used by scripted scenarios such
    /// as Figure 1).
    pub fn with_placer_factory(
        cfg: MachineConfig,
        workload: &Workload,
        mut factory: impl FnMut(ProcId) -> Box<dyn Placer>,
    ) -> Machine {
        let n = cfg.topology.len();
        assert!(n >= 1, "need at least one processor");
        let program = Arc::new(workload.program.clone());
        let recovery = cfg.engine_recovery();
        let mut nodes = Vec::with_capacity(n as usize);
        for i in 0..n {
            let id = ProcId(i);
            nodes.push(DriverLoop::new(
                id,
                program.clone(),
                recovery.clone(),
                factory(id),
            ));
        }
        let superroot = SuperRootDriver::new(workload, &cfg.recovery);
        let tracer = Tracer::new(cfg.trace);
        let map = ShardMap::new(cfg.topology.shard_count(), cfg.topology.per_shard());
        let router_latency = cfg.router_latency;
        let batch_window = cfg.batch_window;
        let sub = SimSubstrate {
            queue: EventQueue::new(),
            now: VirtualTime::ZERO,
            msg_seq: 0,
            delivered: 0,
            dropped_to_dead: 0,
            bounces: 0,
            faults: FaultState::new(n),
            pending_real: 0,
            pending_sr_deliver: 0,
            busy_until: vec![VirtualTime::ZERO; n as usize],
            step_pending: vec![false; n as usize],
            state_samples: Vec::new(),
            sample_period: 2_000,
            effects_pool: Vec::new(),
            cfg,
        };
        let sub = ShardRouter::new(
            BatchingSubstrate::new(TracingSubstrate::new(sub, tracer), batch_window),
            map,
            router_latency,
        );
        Machine {
            program,
            nodes,
            superroot,
            sub,
            log_spawns: false,
            spawn_log: Vec::new(),
        }
    }

    /// Enables the placement log (used by scripted scenarios to find crash
    /// instants).
    pub fn enable_spawn_log(&mut self) {
        self.log_spawns = true;
        for node in &mut self.nodes {
            node.engine_mut().enable_created_log();
        }
    }

    /// The placement log collected so far.
    pub fn spawn_log(&self) -> &[(u64, LevelStamp, ProcId)] {
        &self.spawn_log
    }

    /// The program under execution.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.sub.now
    }

    /// Fixed-size fingerprint of the canonical trace so far.
    pub fn trace_summary(&self) -> TraceSummary {
        self.sub.inner().inner().tracer().summary()
    }

    fn live_tasks(&self) -> u64 {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.sub.faults.is_live(*i as u32))
            .map(|(_, n)| n.engine().task_count() as u64)
            .sum()
    }

    /// Runs the workload under `faults` to completion (or until it
    /// quiesces without a result, or a budget trips) and reports.
    pub fn run(self, faults: &FaultPlan) -> RunReport {
        self.run_traced(faults).0
    }

    /// Like [`Machine::run`], additionally returning the events the
    /// configured trace mode retained (empty for off/checksum modes).
    pub fn run_traced(mut self, faults: &FaultPlan) -> (RunReport, Vec<TraceEvent>) {
        // Schedule faults.
        for f in faults.sorted() {
            self.sub.sched(
                f.at,
                Ev::Fault {
                    victim: ProcId(f.victim),
                    kind: f.kind,
                },
            );
        }
        for f in faults.sorted_root() {
            self.sub.sched(f.at, Ev::RootFault { rank: f.rank });
        }
        // Start engines (arms load beacons).
        for node in &mut self.nodes {
            node.start(&mut self.sub);
        }
        // Launch the program.
        self.superroot.launch(&mut self.sub);
        self.sub.inner_mut().flush();
        let first_sample = self.sub.now + self.sub.sample_period;
        self.sub.sched(first_sample, Ev::Sample);

        let mut events: u64 = 0;
        let mut finish: Option<VirtualTime> = None;
        let mut budget_tripped = false;
        while let Some((at, ev)) = self.sub.queue.pop() {
            debug_assert!(at >= self.sub.now, "time must not run backwards");
            self.sub.now = at;
            self.sub.on_pop(&ev);
            events += 1;
            if events > self.sub.cfg.max_events || self.sub.now > self.sub.cfg.max_time {
                budget_tripped = true;
                break;
            }
            self.handle(ev);
            // One pump, one batch: everything the event's handlers sent
            // through the bus goes out now, `batch_window` ticks late.
            self.sub.inner_mut().flush();
            if self.superroot.result().is_some() {
                finish = Some(self.sub.now);
                break;
            }
            // With every processor dead and nothing still in flight on the
            // reliable driver link, the result can never arrive; only the
            // sampler and the super-root's hopeless reissue cycle would
            // keep the queue busy (historically all the way to
            // `max_events`). Quiesce as stalled instead. Pending super-root
            // deliveries must drain first: one of them can be the result a
            // worker emitted just before the massacre.
            if self.sub.faults.live_count() == 0 && self.sub.pending_sr_deliver == 0 {
                break;
            }
            // With every root replica dead the super-root role itself is
            // gone: inputs are discarded, so no delivery can ever set the
            // result. Quiesce as stalled immediately.
            if !self.superroot.has_live_replica() {
                break;
            }
        }

        // Any exit without a result that is not a budget trip is
        // quiescence: nothing left in the system could have produced the
        // answer.
        let stalled = finish.is_none() && !budget_tripped;
        let trace_events = self.sub.inner_mut().inner_mut().tracer_mut().take_events();
        (
            self.build_report(events, finish, stalled, faults),
            trace_events,
        )
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Deliver { from, to, msg } => self.deliver(from, to, msg),
            Ev::Bounce { sender, dead, msg } => {
                self.sub.bounces += 1;
                if self.sub.live(sender) {
                    self.nodes[sender.0 as usize].on_send_failed(dead, msg, &mut self.sub);
                    self.poke(sender);
                }
            }
            Ev::Timer { proc, timer } => {
                if proc.is_super_root() {
                    self.superroot.on_timer(timer, &mut self.sub);
                } else if self.sub.live(proc) {
                    self.nodes[proc.0 as usize].on_timer(timer, &mut self.sub);
                    self.poke(proc);
                }
            }
            Ev::Step { proc } => self.step(proc),
            Ev::Fault { victim, kind } => self.fault(victim, kind),
            Ev::RootFault { rank } => self.root_fault(rank),
            Ev::Notice { to, dead } => {
                if to.is_super_root() {
                    self.superroot.on_failure(dead, &mut self.sub);
                } else if self.sub.live(to) {
                    self.nodes[to.0 as usize]
                        .on_message(Msg::FailureNotice { dead }, &mut self.sub);
                    self.poke(to);
                }
            }
            Ev::Sample => {
                let sample = (self.sub.now.ticks(), self.live_tasks());
                self.sub.state_samples.push(sample);
                // Stop the self-rescheduling cycle once nothing but
                // sampling remains and no live engine holds runnable work:
                // the run is quiesced and the queue must be allowed to
                // drain (otherwise a stalled run grinds through
                // `max_events` pops of pure sampling).
                let ready_somewhere = self
                    .nodes
                    .iter()
                    .enumerate()
                    .any(|(i, n)| self.sub.faults.is_live(i as u32) && n.has_ready());
                if self.sub.pending_real > 0 || ready_somewhere {
                    let next = self.sub.now + self.sub.sample_period;
                    self.sub.sched(next, Ev::Sample);
                }
            }
            Ev::Effects { proc, mut actions } => {
                if self.sub.live(proc) {
                    dispatch_iter(&mut self.sub, proc, actions.drain(..));
                }
                actions.clear();
                self.sub.effects_pool.push(actions);
            }
        }
    }

    fn deliver(&mut self, _from: ProcId, to: ProcId, msg: Msg) {
        if to.is_super_root() {
            self.sub.delivered += 1;
            self.superroot.on_message(msg, &mut self.sub);
            return;
        }
        if !self.sub.live(to) {
            // Fail-silent destination: the message vanishes. (Senders that
            // knew the destination was dead got a Bounce instead.)
            self.sub.dropped_to_dead += 1;
            return;
        }
        self.sub.delivered += 1;
        let now = self.sub.now;
        // Delivery is narrated by the driver loop's canonical-trace hook
        // inside `on_message`.
        self.nodes[to.0 as usize].on_message(msg, &mut self.sub);
        if self.log_spawns {
            let created = self.nodes[to.0 as usize].engine_mut().drain_created();
            for stamp in created {
                self.spawn_log.push((now.ticks(), stamp, to));
            }
        }
        self.poke(to);
    }

    fn step(&mut self, proc: ProcId) {
        self.sub.step_pending[proc.0 as usize] = false;
        if !self.sub.live(proc) {
            return;
        }
        // `complete_wave` on the substrate charges the cost model and
        // defers the wave's effects to its completion instant.
        if self.nodes[proc.0 as usize].run_ready_wave(&mut self.sub) {
            self.poke(proc);
        }
    }

    /// Ensures a Step event is pending when the processor has runnable work.
    fn poke(&mut self, proc: ProcId) {
        let i = proc.0 as usize;
        if self.sub.faults.is_live(proc.0) && !self.sub.step_pending[i] && self.nodes[i].has_ready()
        {
            self.sub.step_pending[i] = true;
            let at = self.sub.busy_until[i].max(self.sub.now);
            self.sub.sched(at, Ev::Step { proc });
        }
    }

    fn fault(&mut self, victim: ProcId, kind: FaultKind) {
        // The transition rules (incl. the corrupt-after-crash no-op: a
        // crashed processor is fail-silent and cannot start emitting
        // corrupted messages) live in the shared `FaultState`, so every
        // backend applies plans identically; this handler only times them
        // and drives the detector.
        let outcome = self.sub.faults.apply(victim.0, kind);
        if self.sub.trace_enabled() {
            self.sub.trace(TraceKind::Fault {
                victim: victim.0,
                kind: match kind {
                    FaultKind::Crash => 0,
                    FaultKind::Corrupt => 1,
                },
                applied: outcome != FaultOutcome::Ignored,
            });
        }
        if outcome == FaultOutcome::Crashed {
            self.sub.report_death(victim);
        }
    }

    /// Crashes super-root replica `rank`. A deposed acting primary's
    /// successor takes over from the replicated checkpoint inside
    /// `crash_replica` (reissuing the root wave if no result has landed);
    /// this handler only times the event and narrates it.
    fn root_fault(&mut self, rank: u32) {
        let applied = self.superroot.replica_live(rank);
        if self.sub.trace_enabled() {
            self.sub.trace(TraceKind::Fault {
                victim: rank,
                kind: 2,
                applied,
            });
        }
        let failed_over = self.superroot.crash_replica(rank, &mut self.sub);
        if failed_over && self.sub.trace_enabled() {
            let new_primary = self.superroot.primary().unwrap_or(u32::MAX);
            self.sub
                .trace(TraceKind::RootFailover { rank: new_primary });
        }
    }

    fn build_report(
        &mut self,
        events: u64,
        finish: Option<VirtualTime>,
        stalled: bool,
        faults: &FaultPlan,
    ) -> RunReport {
        let totals =
            EngineTotals::collect(self.nodes.iter().map(|n| EngineSnapshot::of(n.engine())));
        let shard_stats = self.sub.stats();
        let (shard_msgs_intra, shard_msgs_inter) = (shard_stats.intra_msgs, shard_stats.inter_msgs);
        let batch_stats = *self.sub.inner().batch_stats();
        let mut report = RunReport::assemble(
            RunCounters {
                finish,
                end: self.sub.now,
                stalled,
                events,
                delivered: self.sub.delivered,
                dropped_to_dead: self.sub.dropped_to_dead,
                bounces: self.sub.bounces,
                shards: self.sub.map().shards,
                shard_msgs_intra,
                shard_msgs_inter,
                faults: faults.events.len() + faults.root_events.len(),
                threads: 1,
                trace: self.sub.inner().inner().tracer().summary(),
            },
            totals,
            &self.superroot,
        );
        report.state_samples = std::mem::take(&mut self.sub.state_samples);
        report.spawn_log = std::mem::take(&mut self.spawn_log);
        report.batch_envelopes = batch_stats.envelopes;
        report.batch_msgs = batch_stats.messages;
        report
    }
}

/// Convenience: run `workload` on `n` processors with `cfg`-defaults and a
/// fault plan.
pub fn run_workload(cfg: MachineConfig, workload: &Workload, faults: &FaultPlan) -> RunReport {
    Machine::new(cfg, workload).run(faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::config::RecoveryMode;

    fn cfg(n: u32) -> MachineConfig {
        let mut c = MachineConfig::new(n);
        c.recovery.load_beacon_period = 200;
        c
    }

    #[test]
    fn fault_free_run_matches_reference() {
        let w = Workload::fib(10);
        let report = run_workload(cfg(4), &w, &FaultPlan::none());
        assert!(report.completed);
        assert_eq!(report.result, Some(w.reference_result().unwrap()));
        assert!(report.stats.tasks_completed >= 177);
        assert_eq!(report.stats.eval_errors, 0);
    }

    #[test]
    fn fault_free_suite_on_various_machines() {
        for (i, w) in Workload::suite_small().into_iter().enumerate() {
            let mut c = cfg(2 + (i as u32 % 6));
            c.topology = match i % 3 {
                0 => Topology::Complete {
                    n: 2 + (i as u32 % 6),
                },
                1 => Topology::Ring {
                    n: 2 + (i as u32 % 6),
                },
                _ => Topology::Mesh {
                    w: 2,
                    h: (2 + (i as u32 % 6)).div_ceil(2),
                    wrap: false,
                },
            };
            // Keep processor count consistent with topology.
            let report = run_workload(c, &w, &FaultPlan::none());
            assert!(report.completed, "{}", w.name);
            assert_eq!(
                report.result,
                Some(w.reference_result().unwrap()),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn single_crash_splice_recovers() {
        let w = Workload::fib(12);
        let mut c = cfg(4);
        c.recovery.mode = RecoveryMode::Splice;
        let faults = FaultPlan::crash_at(2, VirtualTime(3_000));
        let report = run_workload(c, &w, &faults);
        assert!(report.completed, "run stalled");
        assert_eq!(report.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn single_crash_rollback_recovers() {
        let w = Workload::fib(12);
        let mut c = cfg(4);
        c.recovery.mode = RecoveryMode::Rollback;
        let faults = FaultPlan::crash_at(1, VirtualTime(3_000));
        let report = run_workload(c, &w, &faults);
        assert!(report.completed, "run stalled");
        assert_eq!(report.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn runs_are_deterministic() {
        let w = Workload::quicksort(24, 7);
        let faults = FaultPlan::crash_at(3, VirtualTime(2_500));
        let a = run_workload(cfg(5), &w, &faults);
        let b = run_workload(cfg(5), &w, &faults);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.events, b.events);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn all_crash_plan_quiesces_far_below_the_event_budget() {
        // Kill every processor mid-run: the result can never arrive. The
        // seed behaviour was to grind through all 200M `max_events` pops
        // (the sampler reschedules itself unconditionally and the
        // super-root reissues into the void forever); quiescence detection
        // must report `stalled` after a vanishing fraction of that.
        let w = Workload::fib(12);
        let c = cfg(4);
        let max_events = c.max_events;
        let mut faults = FaultPlan::none();
        for p in 0..4 {
            faults = faults.and(p, VirtualTime(2_000), FaultKind::Crash);
        }
        let report = run_workload(c, &w, &faults);
        assert!(!report.completed);
        assert!(report.stalled, "all-dead run must be reported as stalled");
        assert_eq!(report.result, None);
        assert!(
            report.events < max_events / 100,
            "stall detected after {} events (budget {})",
            report.events,
            max_events
        );
    }

    #[test]
    fn all_crash_after_result_sent_still_completes() {
        // The root result leaves its worker `link.base` ticks before the
        // super-root receives it. Killing every processor inside that
        // window must NOT be declared a stall: the driver link is reliable
        // and the in-flight delivery still lands.
        let w = Workload::fib(10);
        let ff = run_workload(cfg(4), &w, &FaultPlan::none());
        let crash = VirtualTime(ff.finish.ticks() - 1);
        let mut faults = FaultPlan::none();
        for p in 0..4 {
            faults = faults.and(p, crash, FaultKind::Crash);
        }
        let report = run_workload(cfg(4), &w, &faults);
        assert!(report.completed, "in-flight result was discarded");
        assert!(!report.stalled);
        assert_eq!(report.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn completed_and_budget_tripped_runs_are_not_stalled() {
        let w = Workload::fib(10);
        let ok = run_workload(cfg(4), &w, &FaultPlan::none());
        assert!(ok.completed && !ok.stalled);
        let mut tight = cfg(4);
        tight.max_events = 50;
        let cut = run_workload(tight, &w, &FaultPlan::none());
        assert!(!cut.completed);
        assert!(!cut.stalled, "a budget trip is not quiescence");
    }

    #[test]
    fn corrupt_after_crash_is_inert() {
        // Corrupting an already-crashed (fail-silent) processor must change
        // nothing: the victim can emit no messages, valid or corrupt.
        let w = Workload::fib(12);
        let mut c = cfg(4);
        c.recovery.mode = RecoveryMode::Splice;
        let crash_only = FaultPlan::crash_at(2, VirtualTime(3_000));
        let with_corrupt = crash_only
            .clone()
            .and(2, VirtualTime(4_000), FaultKind::Corrupt);
        let a = run_workload(c.clone(), &w, &crash_only);
        let b = run_workload(c, &w, &with_corrupt);
        assert!(a.completed && b.completed);
        assert_eq!(a.result, b.result);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.delivered, b.delivered);
        // The only difference is the popped (no-op) fault event itself.
        assert_eq!(b.events, a.events + 1);
    }

    #[test]
    fn sharded_machine_runs_the_small_suite() {
        // Acceptance: ≥ 4 shards × 4 processors completes every small-suite
        // workload with the reference result, and traffic actually crosses
        // the router.
        for w in Workload::suite_small() {
            let mut c = MachineConfig::sharded(4, 4, 200);
            c.recovery.load_beacon_period = 200;
            let report = run_workload(c, &w, &FaultPlan::none());
            assert!(report.completed, "{}", w.name);
            assert_eq!(
                report.result,
                Some(w.reference_result().unwrap()),
                "{}",
                w.name
            );
            assert_eq!(report.shards, 4);
            assert!(
                report.shard_msgs_inter > 0,
                "{}: no traffic crossed the router",
                w.name
            );
        }
    }

    #[test]
    fn whole_shard_crash_is_survived_via_cross_shard_splice() {
        let w = Workload::fib(13);
        let mut c = MachineConfig::sharded(4, 4, 200);
        c.recovery.mode = RecoveryMode::Splice;
        c.recovery.load_beacon_period = 200;
        // Shard 1 (processors 4..8) dies wholesale mid-run.
        let faults = FaultPlan::crash_shard(1, 4, VirtualTime(3_000));
        let report = run_workload(c, &w, &faults);
        assert!(report.completed, "sharded run stalled");
        assert_eq!(report.result, Some(w.reference_result().unwrap()));
        assert!(report.shard_msgs_inter > 0);
    }

    #[test]
    fn early_shard_crash_survives_the_slow_ack_fast_notice_race() {
        // Regression: with a 400-tick router, placement acks from the dying
        // shard are still in flight when the 200-tick failure notices land.
        // The notice-time recovery pass finds no checkpoint keyed to the
        // dead processors (unacked placements have no destination yet), and
        // the late corpse acks used to be recorded as live placements —
        // wedging every waiting parent into a permanent quiescent stall.
        // Engine::on_ack now reissues on an ack from a known-dead host.
        let w = Workload::fib(13);
        for crash in [2_000u64, 3_000] {
            let mut c = MachineConfig::sharded(4, 4, 400);
            c.policy = Policy::RoundRobin;
            let faults = FaultPlan::crash_shard(3, 4, VirtualTime(crash));
            let report = run_workload(c, &w, &faults);
            assert!(report.completed, "crash@{crash} stalled");
            assert!(!report.stalled);
            assert_eq!(
                report.result,
                Some(w.reference_result().unwrap()),
                "crash@{crash}"
            );
        }
    }

    #[test]
    fn router_latency_slows_cross_shard_runs() {
        let w = Workload::fib(12);
        let mut near = MachineConfig::sharded(4, 2, 0);
        near.recovery.load_beacon_period = 200;
        let mut far = near.clone();
        far.router_latency = 2_000;
        let a = run_workload(near, &w, &FaultPlan::none());
        let b = run_workload(far, &w, &FaultPlan::none());
        assert!(a.completed && b.completed);
        assert_eq!(a.result, b.result);
        assert!(
            b.finish > a.finish,
            "router latency must be visible: {} vs {}",
            a.finish,
            b.finish
        );
    }

    #[test]
    fn batched_delivery_completes_and_counts_envelopes() {
        let w = Workload::fib(12);
        let mut c = MachineConfig::batched(4, 200);
        c.recovery.load_beacon_period = 200;
        let r = run_workload(c, &w, &FaultPlan::none());
        assert!(r.completed, "batched run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert!(r.batch_msgs > 0, "no traffic went through the bus");
        assert!(
            r.batch_envelopes <= r.batch_msgs,
            "envelopes cannot exceed messages"
        );
    }

    #[test]
    fn batch_window_delays_completion() {
        let w = Workload::fib(11);
        let mut near = MachineConfig::batched(4, 0);
        near.recovery.load_beacon_period = 200;
        let mut far = near.clone();
        far.batch_window = 1_000;
        let a = run_workload(near, &w, &FaultPlan::none());
        let b = run_workload(far, &w, &FaultPlan::none());
        assert!(a.completed && b.completed);
        assert_eq!(a.result, b.result);
        assert_eq!(a.batch_msgs, 0, "window 0 is a transparent pass-through");
        assert!(
            b.finish > a.finish,
            "the flush window must be visible: {} vs {}",
            a.finish,
            b.finish
        );
    }

    #[test]
    fn batched_machine_survives_a_crash() {
        let w = Workload::fib(12);
        let mut c = MachineConfig::batched(4, 300);
        c.recovery.mode = RecoveryMode::Splice;
        c.recovery.load_beacon_period = 200;
        let faults = FaultPlan::crash_at(2, VirtualTime(3_000));
        let r = run_workload(c, &w, &faults);
        assert!(r.completed, "batched crash run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn batching_composes_with_sharding() {
        let w = Workload::fib(12);
        let mut c = MachineConfig::sharded(2, 2, 200);
        c.batch_window = 150;
        c.recovery.ack_timeout += 4 * c.batch_window;
        c.recovery.load_beacon_period = 200;
        let r = run_workload(c, &w, &FaultPlan::none());
        assert!(r.completed);
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert!(r.shard_msgs_inter > 0);
        assert!(r.batch_msgs > 0);
    }

    #[test]
    fn root_processor_crash_is_survived_via_super_root() {
        let w = Workload::fib(10);
        let mut c = cfg(4);
        c.recovery.mode = RecoveryMode::Splice;
        // Processor 0 hosts the root (launch rotor starts there).
        let faults = FaultPlan::crash_at(0, VirtualTime(1_500));
        let report = run_workload(c, &w, &faults);
        assert!(report.completed);
        assert_eq!(report.result, Some(w.reference_result().unwrap()));
        assert!(report.root_reissues >= 1, "super-root reissued the program");
    }
}
