//! The reactor machine: one cooperative reactor pump per core.
//!
//! [`ParallelReactorMachine`] is the reactor backend front-end: the same
//! [`MachineConfig`] and [`FaultPlan`] in, the same [`RunReport`] out, but
//! execution spreads the engines over `cfg.threads` reactor pumps
//! ([`splice_harness::ReactorCluster`]), each an OS thread running the
//! cooperative-reactor loop over its partition: messages deliver promptly
//! into per-engine mailboxes (no latency model), deadlines ride timer
//! wheels, and there is no thread-per-processor limit. Cross-reactor sends
//! travel over per-pair bounded channels; engines migrate between pumps
//! when the coordinator sees a load imbalance (barrier-granular work
//! stealing). The scheduling discipline — cooperative round-robin over
//! wake order, neither global time order nor the OS — is what makes it an
//! independent scheduler for the differential fuzz suite.
//!
//! **Determinism.** The pumps run in BSP-style rounds: within a round each
//! pump is sequential over its own deterministic state, and everything
//! that crosses a pump boundary (envelopes, the virtual clock, faults,
//! super-root traffic, migration commits) moves only at the barrier, in
//! pump order. The interleaving of OS threads therefore never reaches the
//! protocol: a run is a pure function of `(config, workload, plan)` — the
//! property the differential fault-plan fuzz suite
//! (`tests/backend_fuzz.rs`) checks against the DES at several thread
//! counts.
//!
//! **Clock semantics.** The pumps serialize waves onto a few real threads,
//! but the machine they emulate runs its engines in parallel — so the
//! cluster clock advances at barriers by the round's summed wave cost
//! divided by the live engine count (with a deterministic remainder
//! carry). Charging full serial cost would make virtual time race ahead
//! of per-engine progress by a factor of the engine count: every spawn's
//! ack timeout would expire before the child's scheduling turn came
//! around, and the resulting reissue storm diverges at thousands of
//! engines. A round executes at most
//! [`WAVE_BURST`](splice_harness::parallel::WAVE_BURST) waves per ready
//! engine, so the per-round charge is bounded by a few wave costs and
//! fault plans written in virtual time land mid-run with the same
//! granularity as on the other backends.
//!
//! With `threads == 1` the single pump runs inline on the coordinator
//! thread — no channels, no barriers to wait on: that configuration is the
//! single-thread reactor ([`ReactorMachine`](crate::reactor::ReactorMachine)).
//!
//! **Lazy engines.** Construction builds one placer per engine, not one
//! engine: each pump builds an engine's driver loop when the engine first
//! has to act (its first input, a migration, or a start that arms a load
//! beacon). In a large fleet most engines never hear from anyone and never
//! cost more than their placer; the report counts them as fresh engines.

use crate::machine::MachineConfig;
use crate::report::{RunCounters, RunReport};
use splice_applicative::{Program, Workload};
use splice_core::engine::Timer;
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::place::Placer;
use splice_core::sink::ActionSink;
use splice_harness::{
    ClusterMap, DriverLoop, EngineSnapshot, EngineTotals, Pump, PumpHarvest, ReactorCluster,
    RoundInput, RoundOutput, ShardMap, Substrate, SuperRootDriver, TimerWheel, Transfer,
};
use splice_simnet::fault::{FaultKind, FaultOutcome, FaultPlan, PlanRun};
use splice_simnet::time::VirtualTime;
use splice_simnet::trace::{TraceEvent, TraceKind, Tracer};
use std::sync::Arc;

/// A pump must be this many ready engines ahead of the laziest pump (and
/// at least this loaded in absolute terms) before the coordinator migrates
/// work — hysteresis so transient ripples do not thrash engines around.
const STEAL_THRESHOLD: usize = 8;

/// The coordinator-side [`Substrate`] the [`SuperRootDriver`] runs
/// against: sends become [`Transfer`]s injected into the destination
/// pump's next round, timers ride a coordinator-local wheel. The driver
/// link is reliable and out-of-band, exactly like every other backend.
struct CoordSub {
    cluster: Arc<ClusterMap>,
    now: u64,
    /// Per-pump injection buffers for the next round.
    inject: Vec<Vec<Transfer>>,
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
        let pump = self.cluster.pump_of(to) as usize;
        self.inject[pump].push(Transfer::Deliver { from, to, msg });
    }

    fn arm_timer(&mut self, _owner: ProcId, timer: Timer, delay: u64) {
        self.timers.arm(self.now + delay, timer);
    }

    fn report_death(&mut self, _dead: ProcId) {
        // Death notices to workers are the pumps' job; the coordinator
        // hands the super-root its notice directly.
    }

    fn complete_wave(&mut self, _proc: ProcId, _sink: &mut ActionSink, _work: u64) {}
}

/// The multi-core reactor machine.
pub struct ParallelReactorMachine {
    program: Arc<Program>,
    cluster: Arc<ClusterMap>,
    fleet: ReactorCluster,
    superroot: SuperRootDriver,
    csub: CoordSub,
    cfg: MachineConfig,
}

impl ParallelReactorMachine {
    /// Builds a parallel-reactor machine for `workload`;
    /// `cfg.threads` pumps (clamped to `[1, n]`), engines partitioned in
    /// contiguous blocks.
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

    /// Builds a parallel-reactor machine with custom placers.
    pub fn with_placer_factory(
        cfg: MachineConfig,
        workload: &Workload,
        mut factory: impl FnMut(ProcId) -> Box<dyn Placer>,
    ) -> ParallelReactorMachine {
        let n = cfg.topology.len();
        assert!(n >= 1, "need at least one processor");
        let t = cfg.threads.clamp(1, n);
        let program = Arc::new(workload.program.clone());
        let recovery = cfg.engine_recovery();
        // Contiguous block partition: pump i starts at floor(i*n/t).
        let pump_of = |p: u32| -> u32 { ((u64::from(p) * u64::from(t)) / u64::from(n)) as u32 };
        let cluster = Arc::new(ClusterMap::new(n, cfg.detector.broadcast, pump_of));
        let map = ShardMap::new(cfg.topology.shard_count(), cfg.topology.per_shard());
        let mut pumps = Vec::with_capacity(t as usize);
        // Placers are built here, in roster order; the engines themselves
        // are built by their pump when they first have to act.
        let mut roster: Vec<Vec<(ProcId, Box<dyn Placer>)>> = (0..t).map(|_| Vec::new()).collect();
        for i in 0..n {
            roster[pump_of(i) as usize].push((ProcId(i), factory(ProcId(i))));
        }
        for (i, placers) in roster.into_iter().enumerate() {
            pumps.push(Pump::new(
                i as u32,
                t,
                cluster.clone(),
                placers,
                program.clone(),
                recovery.clone(),
                map,
                cfg.router_latency,
                cfg.batch_window,
                cfg.trace,
            ));
        }
        let fleet = ReactorCluster::new(pumps, cluster.clone());
        let superroot = SuperRootDriver::new(workload, &cfg.recovery);
        let csub = CoordSub {
            cluster: cluster.clone(),
            now: 0,
            inject: (0..t).map(|_| Vec::new()).collect(),
            timers: TimerWheel::new(),
        };
        ParallelReactorMachine {
            program,
            cluster,
            fleet,
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
    /// trace events: the coordinator's fault events first, then each
    /// pump's stream in pump order (empty unless `cfg.trace` records).
    pub fn run_traced(mut self, faults: &FaultPlan) -> (RunReport, Vec<TraceEvent>) {
        // The coordinator's own trace head: barrier faults are applied
        // here, not on any pump, so they are narrated here; pump tracers
        // are folded in at harvest, in pump order.
        let mut tracer = Tracer::new(self.cfg.trace);
        let t = self.fleet.threads() as usize;
        let mut plan = PlanRun::new(faults, self.cluster.n());
        self.superroot.launch(&mut self.csub);

        let mut events: u64 = 0;
        let mut finish: Option<VirtualTime> = None;
        let mut budget_tripped = false;
        let mut sr_delivered: u64 = 0;
        let mut steals: u64 = 0;
        let mut carry: u64 = 0;
        let mut kills: Vec<ProcId> = Vec::new();
        // Recycled round-trip buffers, one set per pump.
        let mut inputs: Vec<RoundInput> = Vec::with_capacity(t);
        let mut outs: Vec<RoundOutput> = Vec::with_capacity(t);
        let mut sr_bufs: Vec<Vec<Msg>> = (0..t).map(|_| Vec::new()).collect();
        let mut donated_bufs: Vec<Vec<ProcId>> = (0..t).map(|_| Vec::new()).collect();
        // Per-pump ready-queue depth after the last round, for stealing.
        let mut ready: Vec<usize> = vec![0; t];
        let mut donate: Vec<Option<(u32, u32)>> = vec![None; t];
        let mut any_rounds = false;

        'run: loop {
            events += 1;
            if events > self.cfg.max_events || VirtualTime(self.csub.now) > self.cfg.max_time {
                budget_tripped = true;
                break;
            }
            // Faults due at this barrier. The coordinator owns the global
            // transition rules; victims' mailboxes and the death notices
            // are the pumps' side of the kill list.
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
            // The super-root's failure notice is the coordinator's to
            // deliver — once, not once per pump.
            if self.cluster.broadcast() {
                for &v in &kills {
                    self.superroot.on_failure(v, &mut self.csub);
                }
            }
            // Root-replica crashes ride their own cursor: the victim
            // domain is replica ranks, not processor ids. A deposed
            // primary's successor takes over (reissuing the root wave)
            // inside `crash_replica`; the reissue injects through the
            // coordinator substrate like any other super-root output.
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
            // Super-root timers due under the barrier clock.
            while let Some(timer) = self.csub.timers.pop_due(&self.csub.now) {
                self.superroot.on_timer(timer, &mut self.csub);
            }
            // Work stealing: if the last round left one pump far busier
            // than another, migrate half the gap at this barrier.
            donate.fill(None);
            if t > 1 && any_rounds {
                let (mut hi, mut lo) = (0usize, 0usize);
                for (i, &r) in ready.iter().enumerate() {
                    if r > ready[hi] {
                        hi = i;
                    }
                    if r < ready[lo] {
                        lo = i;
                    }
                }
                if ready[hi] >= STEAL_THRESHOLD && ready[hi] >= 2 * ready[lo] + STEAL_THRESHOLD {
                    donate[hi] = Some((((ready[hi] - ready[lo]) / 2) as u32, lo as u32));
                }
            }
            // Dispatch the round: every pump gets the barrier clock, the
            // kill list, its injections and its recycled buffers.
            for i in 0..t {
                inputs.push(RoundInput {
                    now: self.csub.now,
                    kills: kills.clone(),
                    inject: std::mem::take(&mut self.csub.inject[i]),
                    donate: donate[i],
                    sr_mail_buf: std::mem::take(&mut sr_bufs[i]),
                    donated_buf: std::mem::take(&mut donated_bufs[i]),
                });
            }
            self.fleet.round(&mut inputs, &mut outs);
            any_rounds = true;
            // Merge the barrier: pump order keeps every cross-pump effect
            // deterministic.
            let mut waves: u64 = 0;
            let mut turns: u64 = 0;
            let mut work: u64 = 0;
            let mut backlog: u64 = 0;
            let mut total_ready: usize = 0;
            let mut sent_cross = false;
            let mut sr_delayed: u64 = 0;
            let mut next_deadline: Option<u64> = None;
            for (i, mut out) in outs.drain(..).enumerate() {
                events += out.turns;
                turns += out.turns;
                waves += out.waves;
                work += out.work;
                backlog += out.backlog;
                total_ready += out.ready;
                ready[i] = out.ready;
                sent_cross |= out.sent_cross;
                sr_delayed += out.pending_sr_delayed;
                next_deadline = match (next_deadline, out.next_deadline) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if let Some((_, dest)) = donate[i] {
                    for &p in &out.donated {
                        self.cluster.set_pump(p, dest);
                    }
                    steals += out.donated.len() as u64;
                }
                out.donated.clear();
                for msg in out.sr_mail.drain(..) {
                    sr_delivered += 1;
                    self.superroot.on_message(msg, &mut self.csub);
                }
                sr_bufs[i] = out.sr_mail;
                donated_bufs[i] = out.donated;
                self.csub.inject[i] = out.spent_inject;
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
            if waves > 0 || turns > 0 {
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
                carry += waves * self.cfg.cost.wave_base + work * self.cfg.cost.per_work_unit;
                if waves == 0 {
                    carry += turns * self.cfg.cost.wave_base;
                }
                let live = u64::from(plan.state().live_count().max(1));
                self.csub.now += carry / live;
                carry %= live;
                continue;
            }
            // No wave ran anywhere. Messages still in flight (a flushed
            // envelope, a pending injection) mean the next round has work
            // without the clock moving.
            let injected = self.csub.inject.iter().any(|b| !b.is_empty());
            if total_ready > 0 || backlog > 0 || sent_cross || injected {
                continue;
            }
            // Idle. With every engine dead and no result parked anywhere,
            // the super-root's hopeless reissue cycle must not spin the
            // clock forever.
            if plan.state().live_count() == 0 && sr_delayed == 0 {
                break;
            }
            // Skip the clock to the next thing that can happen: a pump
            // deadline, a super-root timer, or a scheduled fault. Nothing
            // left at all is quiescence without a result.
            let next_sr = self.csub.timers.next_deadline().copied();
            let next_fault = plan.next_at().map(|f| f.ticks());
            let target = [next_deadline, next_sr, next_fault]
                .into_iter()
                .flatten()
                .min();
            match target {
                Some(at) => self.csub.now = self.csub.now.max(at),
                None => break 'run,
            }
        }

        let stalled = finish.is_none() && !budget_tripped;
        self.build_report(
            events,
            finish,
            stalled,
            faults,
            sr_delivered,
            steals,
            tracer,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build_report(
        self,
        events: u64,
        finish: Option<VirtualTime>,
        stalled: bool,
        faults: &FaultPlan,
        sr_delivered: u64,
        steals: u64,
        mut tracer: Tracer,
    ) -> (RunReport, Vec<TraceEvent>) {
        let ParallelReactorMachine {
            fleet,
            superroot,
            csub,
            cfg,
            cluster,
            ..
        } = self;
        let threads = fleet.threads();
        let harvests: Vec<PumpHarvest> = fleet.finish();
        let mut engines: Vec<(u32, Box<DriverLoop>)> = Vec::with_capacity(cluster.n() as usize);
        let mut delivered = sr_delivered;
        let mut dropped_to_dead = 0;
        let mut bounces = 0;
        let mut msgs_cross = 0;
        let mut shard_stats = splice_harness::ShardStats::default();
        let mut batch_envelopes = 0;
        let mut batch_msgs = 0;
        // Coordinator events first (barrier faults), then each pump's
        // stream in pump order — the parallel backend's canonical order.
        let mut trace_events = tracer.take_events();
        for h in harvests {
            engines.extend(h.engines);
            delivered += h.delivered;
            dropped_to_dead += h.dropped_to_dead;
            bounces += h.bounces;
            msgs_cross += h.msgs_cross;
            shard_stats.absorb(&h.shard_stats);
            batch_envelopes += h.batch_stats.envelopes;
            batch_msgs += h.batch_stats.messages;
            trace_events.extend(tracer.absorb(h.tracer));
        }
        // Migrated engines live in their stealer's harvest; global engine
        // order is restored here so per-proc stats index by ProcId. An
        // engine no pump ever built never received an input: its snapshot
        // is a fresh engine's, which is the default one.
        engines.sort_by_key(|(p, _)| *p);
        let mut built = engines.iter().peekable();
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
                delivered,
                dropped_to_dead,
                bounces,
                shards: cfg.topology.shard_count(),
                shard_msgs_intra: shard_stats.intra_msgs,
                shard_msgs_inter: shard_stats.inter_msgs,
                faults: faults.events.len() + faults.root_events.len(),
                threads,
                trace: tracer.summary(),
            },
            totals,
            &superroot,
        );
        report.batch_envelopes = batch_envelopes;
        report.batch_msgs = batch_msgs;
        report.msgs_cross_reactor = msgs_cross;
        report.steals = steals;
        (report, trace_events)
    }
}

/// Convenience: run `workload` on the parallel-reactor backend under `cfg`
/// and a fault plan.
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

    fn cfg(n: u32, threads: u32) -> MachineConfig {
        let mut c = MachineConfig::new(n);
        c.policy = Policy::RoundRobin;
        c.recovery.load_beacon_period = 0;
        c.threads = threads;
        c
    }

    #[test]
    fn fault_free_run_matches_reference_at_each_thread_count() {
        let w = Workload::fib(10);
        for threads in [1, 2, 4] {
            let r = run_parallel_reactor(cfg(4, threads), &w, &FaultPlan::none());
            assert!(r.completed, "{threads}-thread run stalled");
            assert_eq!(r.result, Some(w.reference_result().unwrap()));
            assert_eq!(r.threads, threads.min(4));
            assert!(r.finish > VirtualTime(0), "waves must charge the clock");
            if threads > 1 {
                assert!(r.msgs_cross_reactor > 0, "work must cross pumps");
            }
        }
    }

    #[test]
    fn fault_free_small_suite_on_two_pumps() {
        for w in Workload::suite_small() {
            let r = run_parallel_reactor(cfg(6, 2), &w, &FaultPlan::none());
            assert!(r.completed, "{}", w.name);
            assert_eq!(r.result, Some(w.reference_result().unwrap()), "{}", w.name);
        }
    }

    #[test]
    fn runs_are_deterministic_despite_real_threads() {
        let w = Workload::quicksort(24, 7);
        let faults = FaultPlan::crash_at(3, VirtualTime(2_500));
        let a = run_parallel_reactor(cfg(5, 2), &w, &faults);
        let b = run_parallel_reactor(cfg(5, 2), &w, &faults);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.events, b.events);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.msgs_cross_reactor, b.msgs_cross_reactor);
    }

    /// Fault-free completion time, for timing crashes mid-run.
    fn ff_finish(c: &MachineConfig, w: &Workload) -> u64 {
        let r = run_parallel_reactor(c.clone(), w, &FaultPlan::none());
        assert!(r.completed, "{} baseline stalled", w.name);
        r.finish.ticks()
    }

    #[test]
    fn single_crash_splice_recovers_across_pumps() {
        let w = Workload::fib(12);
        let mut c = cfg(4, 2);
        c.recovery.mode = RecoveryMode::Splice;
        let crash = ff_finish(&c, &w) / 3;
        let faults = FaultPlan::crash_at(2, VirtualTime(crash.max(1)));
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(r.completed, "crash run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
    }

    #[test]
    fn single_crash_rollback_recovers_across_pumps() {
        let w = Workload::fib(12);
        let mut c = cfg(4, 2);
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
        let c = cfg(4, 2);
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
        let mut c = cfg(4, 2);
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
        c.threads = 2;
        let r = run_parallel_reactor(c, &w, &FaultPlan::none());
        assert!(r.completed, "sharded+batched parallel run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert!(r.shard_msgs_inter > 0, "traffic must cross the router");
        assert!(r.batch_msgs > 0, "traffic must ride the bus");
    }

    #[test]
    fn massacre_of_one_pump_triggers_stealing_into_the_other() {
        // Pump 1's engines (16..32) all die mid-run: every survivor lives
        // on pump 0, whose ready queue swells while pump 1 idles — exactly
        // the imbalance the coordinator's stealing rule exists for.
        let w = Workload::fib(14);
        let mut c = cfg(32, 2);
        c.recovery.mode = RecoveryMode::Splice;
        let crash = VirtualTime((ff_finish(&c, &w) / 3).max(1));
        let mut faults = FaultPlan::none();
        for p in 16..32 {
            faults = faults.and(p, crash, FaultKind::Crash);
        }
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(r.completed, "half-massacre run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert!(r.steals > 0, "survivor overload must trigger migration");
    }

    #[test]
    fn detector_disabled_recovery_completes_via_bounces_alone() {
        let w = Workload::fib(12);
        let mut c = cfg(4, 2);
        c.recovery.mode = RecoveryMode::Splice;
        c.detector.broadcast = false;
        let crash = ff_finish(&c, &w) / 3;
        let faults = FaultPlan::crash_at(2, VirtualTime(crash.max(1)));
        let r = run_parallel_reactor(c, &w, &faults);
        assert!(r.completed, "bounce-only parallel recovery stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert!(r.bounces > 0, "discovery must have come from bounces");
    }

    #[test]
    fn root_processor_crash_is_survived_via_super_root() {
        let w = Workload::fib(10);
        for threads in [1, 2] {
            let mut c = cfg(4, threads);
            c.recovery.mode = RecoveryMode::Splice;
            let crash = ff_finish(&c, &w) / 4;
            let faults = FaultPlan::crash_at(0, VirtualTime(crash.max(1)));
            let r = run_parallel_reactor(c, &w, &faults);
            assert!(r.completed, "{threads}-thread run stalled");
            assert_eq!(r.result, Some(w.reference_result().unwrap()));
        }
    }

    #[test]
    fn whole_shard_crash_is_survived() {
        let w = Workload::fib(13);
        for threads in [1, 2] {
            let mut c = MachineConfig::sharded(4, 4, 200);
            c.policy = Policy::RoundRobin;
            c.recovery.mode = RecoveryMode::Splice;
            c.recovery.load_beacon_period = 0;
            c.threads = threads;
            let crash = ff_finish(&c, &w) / 3;
            let faults = FaultPlan::crash_shard(1, 4, VirtualTime(crash.max(1)));
            let r = run_parallel_reactor(c, &w, &faults);
            assert!(r.completed, "{threads}-thread sharded run stalled");
            assert_eq!(r.result, Some(w.reference_result().unwrap()));
        }
    }

    #[test]
    fn silent_massacre_of_acked_hosts_is_discovered_by_probes() {
        // Round-robin has no beacon neighbourhood, so gossip has nowhere
        // to go, and the coarse reactor clock lands the crash after most
        // placements are acked: without acked-child probing the parents
        // of children on the dead hosts would wait forever (nothing ever
        // bounces — the sends all completed before the crash).
        let w = Workload::fib(12);
        for threads in [1, 2] {
            let mut c = cfg(256, threads);
            c.recovery.mode = RecoveryMode::Splice;
            c.detector.broadcast = false;
            let crash = ff_finish(&c, &w) / 2;
            let mut faults = FaultPlan::none();
            for v in (1..128u32).step_by(2) {
                faults = faults.and(v, VirtualTime(crash.max(1)), FaultKind::Crash);
            }
            let r = run_parallel_reactor(c, &w, &faults);
            assert!(r.completed, "{threads}-thread silent massacre stalled");
            assert_eq!(r.result, Some(w.reference_result().unwrap()));
        }
    }

    #[test]
    fn thousands_of_engines_across_pumps() {
        let w = Workload::fib(12);
        let c = cfg(2_048, 4);
        let r = run_parallel_reactor(c, &w, &FaultPlan::none());
        assert!(r.completed, "2048-engine parallel run stalled");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert_eq!(r.n_procs, 2_048);
        assert_eq!(r.threads, 4);
    }

    /// What a pinned run must reproduce bit for bit: trace stream and
    /// semantic checksums, events, finish, delivered, steals and
    /// cross-pump messages.
    type Pin = (u64, u64, u64, u64, u64, u64, u64);

    fn pin(mut c: MachineConfig, threads: u32, faults: &FaultPlan) -> Pin {
        c.threads = threads;
        c.trace = TraceMode::Checksum;
        let r = run_parallel_reactor(c, &Workload::fib(12), faults);
        assert!(r.completed, "{threads}-pump pinned run stalled");
        (
            r.trace.stream,
            r.trace.semantic,
            r.events,
            r.finish.ticks(),
            r.delivered,
            r.steals,
            r.msgs_cross_reactor,
        )
    }

    /// The parallel backend's output at 1, 2 and 4 pumps on four shapes: a
    /// 4096-engine round-robin fleet without beacons (most engines never
    /// hear from anyone), the same fleet with two early crashes (the death
    /// broadcasts reach every engine), and a 64-engine gradient machine
    /// with beacons, fault-free and with a crash mid-run. Any change to
    /// the pump's scheduling, routing or engine life cycle that moves one
    /// event shows up here.
    #[test]
    fn reactor_output_is_pinned_bit_for_bit() {
        let fleet = cfg(4096, 1);
        let mut gradient = MachineConfig::new(64);
        gradient.recovery.load_beacon_period = 20;
        let fleet_crash =
            FaultPlan::crash_at(7, VirtualTime(1)).and(100, VirtualTime(3), FaultKind::Crash);
        let gradient_crash = FaultPlan::crash_at(5, VirtualTime(100));
        #[rustfmt::skip]
        let golden: [(&MachineConfig, &FaultPlan, [Pin; 3]); 4] = [
            (&fleet, &FaultPlan::none(), [
                (0xab8f0426251fa265, 0x21aabd7b40dc2b0e, 323, 5, 1395, 0, 0),
                (0x2e939446fea2626c, 0x21aabd7b40dc2b0e, 346, 5, 1395, 9, 773),
                (0x7d5a47649369eb00, 0x21aabd7b40dc2b0e, 360, 5, 1395, 18, 892),
            ]),
            (&fleet, &fleet_crash, [
                (0x50a1fdd541c7133b, 0xb0aaf94b893f465d, 8510, 5, 9788, 0, 0),
                (0x85f822737a2b5710, 0xb0aaf94b893f465d, 8556, 5, 9776, 9, 926),
                (0x879f10de9a2b0dbb, 0xb0aaf94b893f465d, 8566, 5, 9776, 14, 1028),
            ]),
            (&gradient, &FaultPlan::none(), [
                (0x77d91be1eb1c8642, 0x21aabd7b40dc2b0e, 588, 333, 33651, 0, 0),
                (0x59db59026fd72e19, 0x21aabd7b40dc2b0e, 830, 333, 37683, 11, 17665),
                (0xe9611902c10662fb, 0x21aabd7b40dc2b0e, 900, 333, 41715, 26, 29983),
            ]),
            (&gradient, &gradient_crash, [
                (0xa0a872d62315ae6e, 0x49c819f5abcc40f7, 718, 402, 44966, 0, 0),
                (0xda62c76c9692a596, 0xe27dd9c36183b7d3, 888, 405, 48853, 4, 23969),
                (0xafbe9e9afed394ad, 0xc2433542e83e4431, 1022, 406, 52745, 28, 39899),
            ]),
        ];
        for (shape, (c, faults, want)) in golden.into_iter().enumerate() {
            for (threads, want) in [1, 2, 4].into_iter().zip(want) {
                assert_eq!(
                    pin((*c).clone(), threads, faults),
                    want,
                    "shape {shape} at {threads} pumps"
                );
            }
        }
    }

    #[test]
    fn threads_clamp_to_the_engine_count() {
        let w = Workload::fib(8);
        let r = run_parallel_reactor(cfg(2, 16), &w, &FaultPlan::none());
        assert!(r.completed);
        assert_eq!(r.threads, 2, "16 pumps over 2 engines clamps to 2");
    }
}
