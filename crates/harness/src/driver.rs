//! The shared driver loop: one [`DriverLoop`] per processor engine, one
//! [`SuperRootDriver`] per machine. Every entry point pumps the engine (or
//! the super-root) and fans its actions out through [`dispatch`] — no
//! backend carries protocol plumbing of its own.

use crate::substrate::{dispatch, Substrate};
use crate::trace::{kind_tag, msg_digest, timer_digest};
use splice_applicative::{Program, Value, Workload};
use splice_core::config::Config;
use splice_core::engine::{Engine, Timer};
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::place::Placer;
use splice_core::policy::PolicySpec;
use splice_core::sink::ActionSink;
use splice_core::superroot::{RootInput, RootQuorum, SuperRoot};
use std::sync::Arc;

/// The per-processor driver loop: owns one protocol [`Engine`] plus the
/// engine's reusable [`ActionSink`], and feeds every stimulus (messages,
/// timers, send failures, ready waves) through it, draining the sink onto
/// the substrate. One buffer per engine pump: the steady-state loop
/// allocates nothing.
pub struct DriverLoop {
    engine: Engine,
    sink: ActionSink,
}

impl DriverLoop {
    /// A driver loop for processor `id` running `program`.
    pub fn new(
        id: ProcId,
        program: Arc<Program>,
        config: Config,
        placer: Box<dyn Placer>,
    ) -> DriverLoop {
        DriverLoop {
            engine: Engine::new(id, program, config, placer),
            sink: ActionSink::new(),
        }
    }

    /// The wrapped engine (measurements, checkpoint table, task counts).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (spawn-log draining and other driver-side
    /// instrumentation).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Starts the engine (arms load beacons).
    pub fn start<S: Substrate + ?Sized>(&mut self, sub: &mut S) {
        self.engine.on_start(&mut self.sink);
        dispatch(sub, self.engine.id(), &mut self.sink);
    }

    /// Delivers `msg` to the engine.
    pub fn on_message<S: Substrate + ?Sized>(&mut self, msg: Msg, sub: &mut S) {
        if sub.trace_enabled() {
            sub.trace(splice_simnet::trace::TraceKind::Deliver {
                to: self.engine.id().0,
                kind: kind_tag(msg.kind()),
                digest: msg_digest(&msg),
            });
        }
        self.engine.on_message(msg, &mut self.sink);
        dispatch(sub, self.engine.id(), &mut self.sink);
    }

    /// Fires `timer` on the engine.
    pub fn on_timer<S: Substrate + ?Sized>(&mut self, timer: Timer, sub: &mut S) {
        if sub.trace_enabled() {
            sub.trace(splice_simnet::trace::TraceKind::TimerFire {
                owner: self.engine.id().0,
                digest: timer_digest(&timer),
            });
        }
        self.engine.on_timer(timer, &mut self.sink);
        dispatch(sub, self.engine.id(), &mut self.sink);
    }

    /// Reports that a best-effort send to `dead` bounced.
    pub fn on_send_failed<S: Substrate + ?Sized>(&mut self, dead: ProcId, msg: Msg, sub: &mut S) {
        if sub.trace_enabled() {
            sub.trace(splice_simnet::trace::TraceKind::Bounce {
                sender: self.engine.id().0,
                dead: dead.0,
                kind: kind_tag(msg.kind()),
            });
        }
        self.engine.on_send_failed(dead, msg, &mut self.sink);
        dispatch(sub, self.engine.id(), &mut self.sink);
    }

    /// Runs one ready wave, if any, releasing its effects through
    /// [`Substrate::complete_wave`]. A deferring backend (the simulator)
    /// consumes the sink there; otherwise the effects dispatch immediately
    /// — against the *top* of the substrate stack, so routers and batching
    /// buses see wave-produced sends exactly like handler-produced ones.
    /// Returns false when nothing was ready.
    pub fn run_ready_wave<S: Substrate + ?Sized>(&mut self, sub: &mut S) -> bool {
        let Some(key) = self.engine.pop_ready() else {
            return false;
        };
        let work = self.engine.run_wave(key, &mut self.sink);
        if sub.trace_enabled() {
            sub.trace(splice_simnet::trace::TraceKind::Wave {
                owner: self.engine.id().0,
                work,
            });
        }
        sub.complete_wave(self.engine.id(), &mut self.sink, work);
        if !self.sink.is_empty() {
            dispatch(sub, self.engine.id(), &mut self.sink);
        }
        true
    }

    /// True while the engine has runnable waves queued.
    pub fn has_ready(&self) -> bool {
        self.engine.has_ready()
    }
}

/// The replicated super-root role and its live-placement rotor: launches
/// the program, survives root-processor failures *and root-replica
/// crashes*, and collects the answer. Lives on the driver side of every
/// backend (the simulator's event loop, the runtime's coordinator
/// thread, the process coordinator).
///
/// Internally a [`RootQuorum`] of `config.root_replicas` ranks: dispatch
/// routes `TaskAddr::super_root()` traffic to the acting primary (the
/// lowest live rank), and when a fault plan crashes the primary the next
/// rank takes over from the replicated checkpoint, reissuing the root
/// wave. With one replica this is bit-identical to the old reliable
/// singleton.
pub struct SuperRootDriver {
    quorum: RootQuorum,
    sink: ActionSink,
    rotor: u32,
    policy: PolicySpec,
}

impl SuperRootDriver {
    /// A super-root quorum for `workload` under `config`'s timing and
    /// replica count.
    pub fn new(workload: &Workload, config: &Config) -> SuperRootDriver {
        SuperRootDriver {
            quorum: RootQuorum::new(
                SuperRoot::new(
                    workload.entry,
                    workload.args.clone(),
                    config.ancestor_depth,
                    config.ack_timeout,
                ),
                config.root_replicas,
            ),
            sink: ActionSink::new(),
            rotor: 0,
            policy: config.policy,
        }
    }

    /// The program's answer, once the root reported it.
    pub fn result(&self) -> Option<&Value> {
        self.quorum.result()
    }

    /// Times the root was reissued.
    pub fn reissues(&self) -> u64 {
        self.quorum.reissues()
    }

    /// The configured root-replica count.
    pub fn replicas(&self) -> u32 {
        self.quorum.replicas()
    }

    /// How many acting primaries died and were succeeded.
    pub fn failovers(&self) -> u64 {
        self.quorum.failovers()
    }

    /// The recovery policy the run was configured with.
    pub fn policy(&self) -> PolicySpec {
        self.policy
    }

    /// True while replica `rank` is live (false for out-of-range ranks).
    pub fn replica_live(&self, rank: u32) -> bool {
        self.quorum.replica_live(rank)
    }

    /// Rank of the acting primary, if any replica survives.
    pub fn primary(&self) -> Option<u32> {
        self.quorum.primary()
    }

    /// True while at least one root replica survives. Once this is
    /// false the super-root role is gone: no input can be processed, so
    /// a result can never arrive and the run must be reported stalled.
    pub fn has_live_replica(&self) -> bool {
        self.quorum.has_live_replica()
    }

    /// Crashes root replica `rank` (fault-plan injection). Returns true
    /// when the crash deposed the acting primary and a successor took
    /// over — the takeover's reissue dispatches like any other
    /// super-root output.
    pub fn crash_replica<S: Substrate + ?Sized>(&mut self, rank: u32, sub: &mut S) -> bool {
        let fallback = self.pick_live(sub);
        let failed_over = self.quorum.crash_replica(rank, fallback, &mut self.sink);
        dispatch(sub, ProcId::SUPER_ROOT, &mut self.sink);
        failed_over
    }

    /// The next live processor under the launch rotor (falls back to
    /// processor 0 when everything is dead). Advances the rotor on every
    /// probe, round-robining placements across live processors.
    pub fn pick_live<S: Substrate + ?Sized>(&mut self, sub: &S) -> ProcId {
        let n = sub.n_procs();
        for _ in 0..n {
            let candidate = ProcId(self.rotor % n);
            self.rotor = self.rotor.wrapping_add(1);
            if sub.is_live(candidate) {
                return candidate;
            }
        }
        ProcId(0)
    }

    /// Launches the program on the next live processor. A non-default
    /// recovery policy stamps the trace stream first — Eager launches emit
    /// nothing, keeping their streams bit-identical to pre-policy runs.
    pub fn launch<S: Substrate + ?Sized>(&mut self, sub: &mut S) {
        if self.policy != PolicySpec::eager() && sub.trace_enabled() {
            sub.trace(splice_simnet::trace::TraceKind::Policy {
                kind: self.policy.kind.tag(),
                every: self.policy.recheckpoint_every,
            });
        }
        let dest = self.pick_live(sub);
        self.quorum
            .apply(RootInput::Launch { dest }, &mut self.sink);
        dispatch(sub, ProcId::SUPER_ROOT, &mut self.sink);
    }

    /// Delivers a message addressed to the super-root — routed to the
    /// acting primary; discarded once every replica is dead.
    pub fn on_message<S: Substrate + ?Sized>(&mut self, msg: Msg, sub: &mut S) {
        let fallback = self.pick_live(sub);
        self.quorum
            .apply(RootInput::Message { msg, fallback }, &mut self.sink);
        dispatch(sub, ProcId::SUPER_ROOT, &mut self.sink);
    }

    /// Handles a failure notice (reissues the root if it lived on `dead`).
    pub fn on_failure<S: Substrate + ?Sized>(&mut self, dead: ProcId, sub: &mut S) {
        let fallback = self.pick_live(sub);
        self.quorum
            .apply(RootInput::Failure { dead, fallback }, &mut self.sink);
        dispatch(sub, ProcId::SUPER_ROOT, &mut self.sink);
    }

    /// Fires a super-root timer (the root spawn's ack timeout).
    pub fn on_timer<S: Substrate + ?Sized>(&mut self, timer: Timer, sub: &mut S) {
        let fallback = self.pick_live(sub);
        self.quorum
            .apply(RootInput::Timer { timer, fallback }, &mut self.sink);
        dispatch(sub, ProcId::SUPER_ROOT, &mut self.sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback substrate: messages land in a queue, timers in a list.
    #[derive(Default)]
    struct Loopback {
        n: u32,
        dead: Vec<ProcId>,
        inbox: Vec<(ProcId, ProcId, Msg)>,
        timers: Vec<(ProcId, u64)>,
    }

    impl Substrate for Loopback {
        fn n_procs(&self) -> u32 {
            self.n
        }
        fn is_live(&self, p: ProcId) -> bool {
            !self.dead.contains(&p)
        }
        fn now_units(&self) -> u64 {
            0
        }
        fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
            self.inbox.push((from, to, msg));
        }
        fn arm_timer(&mut self, owner: ProcId, _timer: Timer, delay: u64) {
            self.timers.push((owner, delay));
        }
        fn report_death(&mut self, _dead: ProcId) {}
        // No `complete_wave` override: the driver loop's post-call
        // dispatch releases wave effects (the non-deferring default).
    }

    #[test]
    fn rotor_skips_dead_processors() {
        let mut sub = Loopback {
            n: 4,
            dead: vec![ProcId(0), ProcId(1)],
            ..Loopback::default()
        };
        let w = Workload::fib(1);
        let mut sr = SuperRootDriver::new(&w, &Config::default());
        assert_eq!(sr.pick_live(&sub), ProcId(2));
        assert_eq!(sr.pick_live(&sub), ProcId(3));
        assert_eq!(sr.pick_live(&sub), ProcId(2), "wraps around the dead");
        sub.dead = (0..4).map(ProcId).collect();
        assert_eq!(sr.pick_live(&sub), ProcId(0), "all dead falls back to 0");
    }

    #[test]
    fn launch_spawns_onto_substrate_and_arms_ack_timer() {
        let mut sub = Loopback {
            n: 2,
            ..Loopback::default()
        };
        let w = Workload::fib(1);
        let mut sr = SuperRootDriver::new(&w, &Config::default());
        sr.launch(&mut sub);
        assert_eq!(sub.timers.len(), 1, "ack timeout armed");
        assert_eq!(sub.timers[0].0, ProcId::SUPER_ROOT);
        assert_eq!(sub.inbox.len(), 1, "root spawn sent");
        let (from, to, msg) = &sub.inbox[0];
        assert_eq!(*from, ProcId::SUPER_ROOT);
        assert_eq!(*to, ProcId(0));
        assert!(matches!(msg, Msg::Spawn(_)));
        assert!(sr.result().is_none());
        assert_eq!(sr.reissues(), 0);
    }

    #[test]
    fn crash_primary_replica_reissues_through_dispatch() {
        let mut sub = Loopback {
            n: 2,
            ..Loopback::default()
        };
        let w = Workload::fib(1);
        let mut sr = SuperRootDriver::new(&w, &Config::default());
        assert_eq!(sr.replicas(), 3, "paper-default quorum");
        sr.launch(&mut sub);
        sub.inbox.clear();
        // An idle successor dying changes nothing.
        assert!(!sr.crash_replica(2, &mut sub));
        assert!(sub.inbox.is_empty());
        assert_eq!(sr.failovers(), 0);
        // The acting primary dying promotes rank 1, which reissues the
        // root wave through the same dispatch path as every other output.
        assert!(sr.crash_replica(0, &mut sub));
        assert_eq!(sr.failovers(), 1);
        assert_eq!(sr.reissues(), 1);
        assert!(
            sub.inbox
                .iter()
                .any(|(from, _, msg)| *from == ProcId::SUPER_ROOT
                    && matches!(msg, Msg::Spawn(p) if p.incarnation == 1)),
            "takeover must respawn the root: {:?}",
            sub.inbox
        );
        assert!(sr.has_live_replica());
        // Kill the rest: the role is gone.
        sr.crash_replica(1, &mut sub);
        sr.crash_replica(2, &mut sub);
        assert!(!sr.has_live_replica());
    }

    #[test]
    fn wave_effects_pass_through_the_decorator_stack() {
        // Regression: wave-produced sends must be released against the
        // *top* of the substrate stack. The old `complete_wave` default
        // dispatched against the innermost substrate, so child spawns and
        // results — the bulk of all traffic — bypassed every decorator
        // (no batching, no router surcharge) on non-deferring backends.
        let inner = Loopback {
            n: 1,
            ..Loopback::default()
        };
        let mut sub = crate::batch::BatchingSubstrate::new(inner, 10);
        let w = Workload::fib(2);
        let cfg = Config {
            load_beacon_period: 0,
            ..Config::default()
        };
        let mut node = DriverLoop::new(
            ProcId(0),
            Arc::new(w.program.clone()),
            cfg,
            Box::new(splice_core::place::RoundRobinPlacer::new(vec![ProcId(0)])),
        );
        // Deliver the root task directly; its placement ack targets the
        // super-root and legitimately bypasses the bus.
        node.on_message(
            Msg::spawn(splice_core::packet::TaskPacket {
                stamp: splice_core::stamp::LevelStamp::root().child(1),
                demand: splice_applicative::wave::Demand::new(w.entry, w.args.clone()),
                parent: splice_core::packet::TaskLink::super_root(),
                ancestors: vec![splice_core::packet::TaskLink::super_root()],
                incarnation: 0,
                hops: 0,
                replica: None,
                under_replica: false,
            }),
            &mut sub,
        );
        assert!(node.run_ready_wave(&mut sub), "root wave must run");
        assert!(
            sub.pending_len() > 0,
            "wave-spawned children must land in the batching buffer"
        );
        // Only the ack on the (unbatched) driver link may have gone out.
        assert!(
            sub.inner()
                .inbox
                .iter()
                .all(|(_, to, _)| to.is_super_root()),
            "a worker-bound wave effect bypassed the bus"
        );
        sub.flush();
        assert!(
            sub.inner()
                .inbox
                .iter()
                .any(|(_, to, _)| !to.is_super_root()),
            "flush delivers the spawns"
        );
    }

    #[test]
    fn driver_loop_pumps_an_engine_end_to_end() {
        // One processor, loopback transport: spawn the root task into the
        // engine, run waves to completion, and watch the result reach the
        // super-root through the shared dispatch path alone.
        let mut sub = Loopback {
            n: 1,
            ..Loopback::default()
        };
        let w = Workload::fib(5);
        let cfg = Config {
            load_beacon_period: 0,
            ..Config::default()
        };
        let program = Arc::new(w.program.clone());
        let mut node = DriverLoop::new(
            ProcId(0),
            program,
            cfg.clone(),
            Box::new(splice_core::place::RoundRobinPlacer::new(vec![ProcId(0)])),
        );
        let mut sr = SuperRootDriver::new(&w, &cfg);
        node.start(&mut sub);
        sr.launch(&mut sub);
        for _ in 0..100_000 {
            if sr.result().is_some() {
                break;
            }
            while let Some((_, to, msg)) = (!sub.inbox.is_empty()).then(|| sub.inbox.remove(0)) {
                if to.is_super_root() {
                    sr.on_message(msg, &mut sub);
                } else {
                    node.on_message(msg, &mut sub);
                }
            }
            if !node.run_ready_wave(&mut sub) && sub.inbox.is_empty() {
                break;
            }
        }
        assert_eq!(
            sr.result(),
            Some(&w.reference_result().unwrap()),
            "fib(5) through the shared driver loop"
        );
        assert!(node.engine().stats().tasks_completed > 0);
        assert!(!node.has_ready());
    }
}
