//! The reactor machine: one cooperative pump on the caller's thread.
//!
//! [`ParallelReactorMachine`] is the reactor backend front-end: the same
//! [`MachineConfig`] and [`FaultPlan`] in, the same [`RunReport`] out, but
//! execution is a single [`Pump`] running the cooperative-reactor loop
//! over every engine: messages deliver promptly into per-engine mailboxes
//! (no latency model), deadlines ride timer wheels, and there is no
//! thread-per-processor limit. The scheduling discipline — cooperative
//! round-robin over wake order, neither global time order nor the OS — is
//! what makes it an independent scheduler for the differential fuzz suite
//! (`tests/backend_fuzz.rs`).
//!
//! **Determinism.** The pump runs in rounds. Everything the front-end
//! owns (the virtual clock, faults, super-root traffic) moves only between
//! rounds, so a run is a pure function of `(config, workload, plan)`.
//! `cfg.threads` is ignored: the name is historical, and a run reports
//! one thread, no steals and no cross-pump messages whatever it asks for.
//!
//! **Clock semantics.** The pump serializes waves onto one thread, but the
//! machine it emulates runs its engines in parallel — so the clock
//! advances between rounds by the round's summed wave cost divided by the
//! live engine count (with a deterministic remainder carry). Charging full
//! serial cost would make virtual time race ahead of per-engine progress
//! by a factor of the engine count: every spawn's ack timeout would expire
//! before the child's scheduling turn came around, and the resulting
//! reissue storm diverges at thousands of engines. A round executes at
//! most [`WAVE_BURST`](splice_harness::parallel::WAVE_BURST) waves per
//! ready engine, so the per-round charge is bounded by a few wave costs
//! and fault plans written in virtual time land mid-run with the same
//! granularity as on the other backends.
//!
//! **Lazy engines.** Construction builds one placer per engine, not one
//! engine: the pump builds an engine's driver loop when the engine first
//! has to act (its first input, or a start that arms a load beacon). In a
//! large fleet most engines never hear from anyone and never cost more
//! than their placer; the report counts them as fresh engines.

use crate::machine::MachineConfig;
use crate::report::{RunCounters, RunReport};
use splice_applicative::{Program, Workload};
use splice_core::engine::Timer;
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::place::Placer;
use splice_core::sink::ActionSink;
use splice_harness::{
    ClusterMap, Delivery, EngineSnapshot, EngineTotals, Pump, ShardMap, Substrate, SuperRootDriver,
    TimerWheel,
};
use splice_simnet::fault::{FaultKind, FaultOutcome, FaultPlan, PlanRun};
use splice_simnet::time::VirtualTime;
use splice_simnet::trace::{TraceEvent, TraceKind, Tracer};
use std::sync::Arc;

/// The front-end-side [`Substrate`] the [`SuperRootDriver`] runs against:
/// sends are injected into the pump's next round, timers ride a
/// front-end wheel. The driver link is reliable and out-of-band, exactly
/// like every other backend.
struct CoordSub {
    cluster: Arc<ClusterMap>,
    now: u64,
    /// Sends for the next round.
    inject: Vec<Delivery>,
    timers: TimerWheel<u64, Timer>,
}

impl Substrate for CoordSub {
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
        if !self.cluster.is_live(to) {
            // The super-root's sends to dead processors vanish; it
            // discovers the loss through its own timers, like everywhere
            // else.
            return;
        }
        self.inject.push(Delivery { from, to, msg });
    }

    fn arm_timer(&mut self, _owner: ProcId, timer: Timer, delay: u64) {
        self.timers.arm(self.now + delay, timer);
    }

    fn report_death(&mut self, _dead: ProcId) {
        // Death notices to workers are the pump's job; the front-end
        // hands the super-root its notice directly.
    }

    fn complete_wave(&mut self, _proc: ProcId, _sink: &mut ActionSink, _work: u64) {}
}

/// The reactor machine. The name is historical: it runs one pump.
pub struct ParallelReactorMachine {
    program: Arc<Program>,
    cluster: Arc<ClusterMap>,
    pump: Pump,
    superroot: SuperRootDriver,
    csub: CoordSub,
    cfg: MachineConfig,
}

impl ParallelReactorMachine {
    /// Builds a reactor machine for `workload`; `cfg.threads` is ignored.
    pub fn new(cfg: MachineConfig, workload: &Workload) -> ParallelReactorMachine {
        let topo = cfg.topology.clone();
        let policy = cfg.policy;
        let seed = cfg.seed;
        // One shared roster for every per-engine placer: per-placer roster
        // copies would make an n-engine build O(n^2) memory.
        let all: Arc<[ProcId]> = (0..topo.len()).map(ProcId).collect();
        ParallelReactorMachine::with_placer_factory(cfg, workload, |p| {
            policy.build_shared(p, &topo, seed, &all)
        })
    }

    /// Builds a reactor machine with custom placers.
    pub fn with_placer_factory(
        cfg: MachineConfig,
        workload: &Workload,
        factory: impl FnMut(ProcId) -> Box<dyn Placer>,
    ) -> ParallelReactorMachine {
        let n = cfg.topology.len();
        assert!(n >= 1, "need at least one processor");
        let program = Arc::new(workload.program.clone());
        let cluster = Arc::new(ClusterMap::new(n, cfg.detector.broadcast));
        // Placers are built here, in roster order; the engines themselves
        // are built by the pump when they first have to act.
        let pump = Pump::new(
            cluster.clone(),
            (0..n).map(ProcId).map(factory).collect(),
            program.clone(),
            cfg.engine_recovery(),
            ShardMap::new(cfg.topology.shard_count(), cfg.topology.per_shard()),
            cfg.router_latency,
            cfg.batch_window,
            cfg.trace,
        );
        let superroot = SuperRootDriver::new(workload, &cfg.recovery);
        let csub = CoordSub {
            cluster: cluster.clone(),
            now: 0,
            inject: Vec::new(),
            timers: TimerWheel::new(),
        };
        ParallelReactorMachine {
            program,
            cluster,
            pump,
            superroot,
            csub,
            cfg,
        }
    }

    /// The program under execution.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Runs the workload under `faults` to completion (or until it
    /// quiesces without a result, or a budget trips) and reports.
    pub fn run(self, faults: &FaultPlan) -> RunReport {
        self.run_traced(faults).0
    }

    /// Like [`ParallelReactorMachine::run`], but also returns the recorded
    /// trace events: the front-end's fault events first, then the pump's
    /// stream (empty unless `cfg.trace` records).
    pub fn run_traced(mut self, faults: &FaultPlan) -> (RunReport, Vec<TraceEvent>) {
        // The front-end's own trace head: faults are applied here, not in
        // the pump, so they are narrated here; the pump's tracer is folded
        // in at harvest.
        let mut tracer = Tracer::new(self.cfg.trace);
        let mut plan = PlanRun::new(faults, self.cluster.n());
        self.superroot.launch(&mut self.csub);

        let mut events: u64 = 0;
        let mut finish: Option<VirtualTime> = None;
        let mut budget_tripped = false;
        let mut sr_delivered: u64 = 0;
        let mut carry: u64 = 0;
        let mut kills: Vec<ProcId> = Vec::new();
        let mut sr_mail: Vec<Msg> = Vec::new();

        loop {
            events += 1;
            if events > self.cfg.max_events || VirtualTime(self.csub.now) > self.cfg.max_time {
                budget_tripped = true;
                break;
            }
            // Faults due before this round. The front-end owns the global
            // transition rules; victims' mailboxes and the death notices
            // are the pump's side of the kill list.
            kills.clear();
            while let Some((ev, outcome)) = plan.pop_due(VirtualTime(self.csub.now)) {
                let victim = ProcId(ev.victim);
                tracer.emit(
                    VirtualTime(self.csub.now),
                    TraceKind::Fault {
                        victim: ev.victim,
                        kind: match ev.kind {
                            FaultKind::Crash => 0,
                            FaultKind::Corrupt => 1,
                        },
                        applied: outcome != FaultOutcome::Ignored,
                    },
                );
                match outcome {
                    FaultOutcome::Crashed => {
                        self.cluster.set_dead(victim);
                        kills.push(victim);
                    }
                    FaultOutcome::Corrupted => self.cluster.set_corrupting(victim),
                    FaultOutcome::Ignored => {}
                }
            }
            // The super-root's failure notice is the front-end's to
            // deliver.
            if self.cluster.broadcast() {
                for &v in &kills {
                    self.superroot.on_failure(v, &mut self.csub);
                }
            }
            // Root-replica crashes ride their own cursor: the victim
            // domain is replica ranks, not processor ids. A deposed
            // primary's successor takes over (reissuing the root wave)
            // inside `crash_replica`; the reissue injects through the
            // front-end substrate like any other super-root output.
            while let Some(ev) = plan.pop_due_root(VirtualTime(self.csub.now)) {
                let applied = self.superroot.replica_live(ev.rank);
                tracer.emit(
                    VirtualTime(self.csub.now),
                    TraceKind::Fault {
                        victim: ev.rank,
                        kind: 2,
                        applied,
                    },
                );
                let failed_over = self.superroot.crash_replica(ev.rank, &mut self.csub);
                if failed_over {
                    let new_primary = self.superroot.primary().unwrap_or(u32::MAX);
                    tracer.emit(
                        VirtualTime(self.csub.now),
                        TraceKind::RootFailover { rank: new_primary },
                    );
                }
            }
            // Super-root timers due under the round clock.
            while let Some(timer) = self.csub.timers.pop_due(&self.csub.now) {
                self.superroot.on_timer(timer, &mut self.csub);
            }
            let out =
                self.pump
                    .run_round(self.csub.now, &kills, &mut self.csub.inject, &mut sr_mail);
            events += out.turns;
            for msg in sr_mail.drain(..) {
                sr_delivered += 1;
                self.superroot.on_message(msg, &mut self.csub);
            }
            if self.superroot.result().is_some() {
                finish = Some(VirtualTime(self.csub.now));
                break;
            }
            // With every root replica dead the super-root role itself is
            // gone: inputs are discarded, so no delivery can ever set the
            // result. Quiesce as stalled immediately.
            if !self.superroot.has_live_replica() {
                break;
            }
            if out.waves > 0 || out.turns > 0 {
                // Parallel clock charge, aggregated per round: the round's
                // waves ran spread over `live` engines, so the emulated
                // machine's clock moves by total cost / live (carry keeps
                // the division exact over time). A round of message-only
                // turns (zero waves) still pays the fixed dispatch cost:
                // on the DES every hop charges link latency, and a
                // message relay cycle with no runnable waves — a salvage
                // packet orbiting between two twins that each point the
                // child instance at the other — would otherwise freeze
                // the clock so no timeout could ever break it.
                carry +=
                    out.waves * self.cfg.cost.wave_base + out.work * self.cfg.cost.per_work_unit;
                if out.waves == 0 {
                    carry += out.turns * self.cfg.cost.wave_base;
                }
                let live = u64::from(plan.state().live_count().max(1));
                self.csub.now += carry / live;
                carry %= live;
                continue;
            }
            // No wave ran. Messages still waiting (a mailbox, a pending
            // injection) mean the next round has work without the clock
            // moving.
            if out.ready > 0 || out.backlog > 0 || !self.csub.inject.is_empty() {
                continue;
            }
            // Idle. With every engine dead and no result parked anywhere,
            // the super-root's hopeless reissue cycle must not spin the
            // clock forever.
            if plan.state().live_count() == 0 && out.pending_sr_delayed == 0 {
                break;
            }
            // Skip the clock to the next thing that can happen: a pump
            // deadline, a super-root timer, or a scheduled fault. Nothing
            // left at all is quiescence without a result.
            let next_sr = self.csub.timers.next_deadline().copied();
            let next_fault = plan.next_at().map(|f| f.ticks());
            let target = [out.next_deadline, next_sr, next_fault]
                .into_iter()
                .flatten()
                .min();
            match target {
                Some(at) => self.csub.now = self.csub.now.max(at),
                None => break,
            }
        }

        let stalled = finish.is_none() && !budget_tripped;
        self.build_report(events, finish, stalled, faults, sr_delivered, tracer)
    }

    fn build_report(
        self,
        events: u64,
        finish: Option<VirtualTime>,
        stalled: bool,
        faults: &FaultPlan,
        sr_delivered: u64,
        mut tracer: Tracer,
    ) -> (RunReport, Vec<TraceEvent>) {
        let ParallelReactorMachine {
            pump,
            superroot,
            csub,
            cfg,
            cluster,
            ..
        } = self;
        let h = pump.harvest();
        // Front-end events first (faults), then the pump's stream — the
        // reactor backend's canonical order.
        let mut trace_events = tracer.take_events();
        trace_events.extend(tracer.absorb(h.tracer));
        // An engine the pump never built never received an input: its
        // snapshot is a fresh engine's, which is the default one.
        let mut built = h.engines.iter().peekable();
        let snapshots = (0..cluster.n()).map(|p| match built.next_if(|(q, _)| *q == p) {
            Some((_, node)) => EngineSnapshot::of(node.engine()),
            None => EngineSnapshot::default(),
        });
        let totals = EngineTotals::collect(snapshots);
        let mut report = RunReport::assemble(
            RunCounters {
                finish,
                end: VirtualTime(csub.now),
                stalled,
                events,
                delivered: sr_delivered + h.delivered,
                dropped_to_dead: h.dropped_to_dead,
                bounces: h.bounces,
                shards: cfg.topology.shard_count(),
                shard_msgs_intra: h.shard_stats.intra_msgs,
                shard_msgs_inter: h.shard_stats.inter_msgs,
                faults: faults.events.len() + faults.root_events.len(),
                threads: 1,
                trace: tracer.summary(),
            },
            totals,
            &superroot,
        );
        report.batch_envelopes = h.batch_stats.envelopes;
        report.batch_msgs = h.batch_stats.messages;
        (report, trace_events)
    }
}

/// Convenience: run `workload` on the reactor backend under `cfg` and a
/// fault plan.
pub fn run_parallel_reactor(
    cfg: MachineConfig,
    workload: &Workload,
    faults: &FaultPlan,
) -> RunReport {
    ParallelReactorMachine::new(cfg, workload).run(faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::config::RecoveryMode;
    use splice_gradient::Policy;
    use splice_simnet::fault::FaultKind;
    use splice_simnet::trace::TraceMode;

    fn cfg(n: u32) -> MachineConfig {
        let mut c = MachineConfig::new(n);
        c.policy = Policy::RoundRobin;
        c.recovery.load_beacon_period = 0;
        c
    }

    #[test]
    fn fault_free_run_matches_reference() {
        let w = Workload::fib(10);
        let r = run_parallel_reactor(cfg(4), &w, &FaultPlan::none());
        assert!(r.completed, "run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert!(r.finish > VirtualTime(0), "waves must charge the clock");
    }

    #[test]
    fn fault_free_small_suite() {
        for w in Workload::suite_small() {
            let r = run_parallel_reactor(cfg(6), &w, &FaultPlan::none());
            assert!(r.completed, "{}", w.name);
            assert_eq!(r.result, Some(w.reference_result().unwrap()), "{}", w.name);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = Workload::quicksort(24, 7);
        let faults = FaultPlan::crash_at(3, VirtualTime(2_500));
        let a = run_parallel_reactor(cfg(5), &w, &faults);
        let b = run_parallel_reactor(cfg(5), &w, &faults);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.events, b.events);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.delivered, b.delivered);
    }

    /// Fault-free completion time, for timing crashes mid-run.
    fn ff_finish(c: &MachineConfig, w: &Workload) -> u64 {
        let r = run_parallel_reactor(c.clone(), w, &FaultPlan::none());
        assert!(r.completed, "{} baseline stalled", w.name);
        r.finish.ticks()
    }

    #[test]
    fn single_crash_splice_recovers() {
        let w = Workload::fib(12);
        let mut c = cfg(4);
        c.recovery.mode = RecoveryMode::Splice;
        let crash = ff_finish(&c, &w) / 3;
        let faults = FaultPlan::crash_at(2, VirtualTime(crash.max(1)));
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(r.completed, "crash run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn single_crash_rollback_recovers() {
        let w = Workload::fib(12);
        let mut c = cfg(4);
        c.recovery.mode = RecoveryMode::Rollback;
        let crash = ff_finish(&c, &w) / 3;
        let faults = FaultPlan::crash_at(1, VirtualTime(crash.max(1)));
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(r.completed, "rollback run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn all_crash_plan_stalls_quickly() {
        let w = Workload::fib(12);
        let c = cfg(4);
        let max_events = c.max_events;
        let crash = VirtualTime((ff_finish(&c, &w) / 3).max(1));
        let mut faults = FaultPlan::none();
        for p in 0..4 {
            faults = faults.and(p, crash, FaultKind::Crash);
        }
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(!r.completed);
        assert!(r.stalled, "all-dead run must be reported as stalled");
        assert_eq!(r.result, None);
        assert!(
            r.events < max_events / 100,
            "stall detected after {} events (budget {max_events})",
            r.events
        );
    }

    #[test]
    fn corrupt_after_crash_is_inert() {
        let w = Workload::fib(12);
        let mut c = cfg(4);
        c.recovery.mode = RecoveryMode::Splice;
        let t = ff_finish(&c, &w);
        let crash_only = FaultPlan::crash_at(2, VirtualTime((t / 3).max(1)));
        let with_corrupt =
            crash_only
                .clone()
                .and(2, VirtualTime((t / 2).max(2)), FaultKind::Corrupt);
        let a = run_parallel_reactor(c.clone(), &w, &crash_only);
        let b = run_parallel_reactor(c, &w, &with_corrupt);
        assert!(a.completed && b.completed);
        assert_eq!(a.result, b.result);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn sharded_and_batched_decorators_compose_on_the_parallel_reactor() {
        let w = Workload::fib(12);
        let mut c = MachineConfig::sharded(2, 2, 200);
        c.policy = Policy::RoundRobin;
        c.batch_window = 150;
        c.recovery.ack_timeout += 4 * c.batch_window;
        c.recovery.load_beacon_period = 0;
        let r = run_parallel_reactor(c, &w, &FaultPlan::none());
        assert!(r.completed, "sharded+batched run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert!(r.shard_msgs_inter > 0, "traffic must cross the router");
        assert!(r.batch_msgs > 0, "traffic must ride the bus");
    }

    #[test]
    fn detector_disabled_recovery_completes_via_bounces_alone() {
        let w = Workload::fib(12);
        let mut c = cfg(4);
        c.recovery.mode = RecoveryMode::Splice;
        c.detector.broadcast = false;
        let crash = ff_finish(&c, &w) / 3;
        let faults = FaultPlan::crash_at(2, VirtualTime(crash.max(1)));
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(r.completed, "bounce-only recovery stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert!(r.bounces > 0, "discovery must have come from bounces");
    }

    #[test]
    fn root_processor_crash_is_survived_via_super_root() {
        let w = Workload::fib(10);
        let mut c = cfg(4);
        c.recovery.mode = RecoveryMode::Splice;
        let crash = ff_finish(&c, &w) / 4;
        let faults = FaultPlan::crash_at(0, VirtualTime(crash.max(1)));
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(r.completed, "run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn whole_shard_crash_is_survived() {
        let w = Workload::fib(13);
        let mut c = MachineConfig::sharded(4, 4, 200);
        c.policy = Policy::RoundRobin;
        c.recovery.mode = RecoveryMode::Splice;
        c.recovery.load_beacon_period = 0;
        let crash = ff_finish(&c, &w) / 3;
        let faults = FaultPlan::crash_shard(1, 4, VirtualTime(crash.max(1)));
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(r.completed, "sharded run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn silent_massacre_of_acked_hosts_is_discovered_by_probes() {
        // Round-robin has no beacon neighbourhood, so gossip has nowhere
        // to go, and the coarse reactor clock lands the crash after most
        // placements are acked: without acked-child probing the parents
        // of children on the dead hosts would wait forever (nothing ever
        // bounces — the sends all completed before the crash).
        let w = Workload::fib(12);
        let mut c = cfg(256);
        c.recovery.mode = RecoveryMode::Splice;
        c.detector.broadcast = false;
        let crash = ff_finish(&c, &w) / 2;
        let mut faults = FaultPlan::none();
        for v in (1..128u32).step_by(2) {
            faults = faults.and(v, VirtualTime(crash.max(1)), FaultKind::Crash);
        }
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(r.completed, "silent massacre stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn thousands_of_engines_on_one_pump() {
        let w = Workload::fib(12);
        let r = run_parallel_reactor(cfg(2_048), &w, &FaultPlan::none());
        assert!(r.completed, "2048-engine run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert_eq!((r.n_procs, r.threads), (2_048, 1));
    }

    /// Four shapes: a 4096-engine round-robin fleet without beacons (most
    /// engines never hear from anyone), the same fleet with two early
    /// crashes (the death broadcasts reach every engine), and a 64-engine
    /// gradient machine with beacons, fault-free and with a crash mid-run.
    /// Traced as checksums.
    fn pinned_shapes() -> [(MachineConfig, FaultPlan); 4] {
        let mut fleet = cfg(4096);
        fleet.trace = TraceMode::Checksum;
        let mut gradient = MachineConfig::new(64);
        gradient.recovery.load_beacon_period = 20;
        gradient.trace = TraceMode::Checksum;
        let fleet_crash =
            FaultPlan::crash_at(7, VirtualTime(1)).and(100, VirtualTime(3), FaultKind::Crash);
        [
            (fleet.clone(), FaultPlan::none()),
            (fleet, fleet_crash),
            (gradient.clone(), FaultPlan::none()),
            (gradient, FaultPlan::crash_at(5, VirtualTime(100))),
        ]
    }

    /// What a pinned run must reproduce bit for bit: trace stream and
    /// semantic checksums, events, finish and delivered.
    type Pin = (u64, u64, u64, u64, u64);

    /// The reactor's output on the four pinned shapes. Any change to the
    /// pump's scheduling, routing or engine life cycle that moves one
    /// event shows up here.
    #[test]
    fn reactor_output_is_pinned_bit_for_bit() {
        let golden: [Pin; 4] = [
            (0xab8f0426251fa265, 0x21aabd7b40dc2b0e, 323, 5, 1395),
            (0x50a1fdd541c7133b, 0xb0aaf94b893f465d, 8510, 5, 9788),
            (0x77d91be1eb1c8642, 0x21aabd7b40dc2b0e, 588, 333, 33651),
            (0xa0a872d62315ae6e, 0x49c819f5abcc40f7, 718, 402, 44966),
        ];
        for (shape, ((c, faults), want)) in pinned_shapes().into_iter().zip(golden).enumerate() {
            let r = run_parallel_reactor(c, &Workload::fib(12), &faults);
            assert!(r.completed, "shape {shape} stalled");
            let got = (
                r.trace.stream,
                r.trace.semantic,
                r.events,
                r.finish.ticks(),
                r.delivered,
            );
            assert_eq!(got, want, "shape {shape}");
        }
    }

    /// `cfg.threads` is inert: the four pinned shapes at 1, 2 and 4
    /// requested pumps report identically, field for field.
    #[test]
    fn threads_setting_is_inert() {
        for (shape, (c, faults)) in pinned_shapes().into_iter().enumerate() {
            let report = |threads| {
                let mut c = c.clone();
                c.threads = threads;
                format!("{:?}", run_parallel_reactor(c, &Workload::fib(12), &faults))
            };
            let one = report(1);
            for threads in [2, 4] {
                assert_eq!(report(threads), one, "shape {shape} at {threads} pumps");
            }
        }
    }
}
