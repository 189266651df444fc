//! The recovery-policy zoo: the paper's eager scheme is now one point in
//! a pluggable design space ([`splice::core::policy`]), and this suite
//! holds the three named policies to their contracts.
//!
//! * **Eager is the paper, bit-for-bit.** The refactor that introduced the
//!   `RecoveryPolicy` seam must be invisible under the default policy: the
//!   canonical trace checksums of a fault-free and a mid-run-crash fib(14)
//!   are pinned to the values captured *before* the seam existed.
//! * **Lazy is weak recovery.** A dead child is marked lost, not reissued;
//!   a subtree whose result is never demanded costs zero reissues, and one
//!   whose result *is* demanded is rebuilt exactly when the owner blocks
//!   on it.
//! * **MultiCheckpoint buys replay.** Streaming completed child results
//!   back to the checkpoint owner lets a reissued twin preload them and
//!   replay strictly fewer waves after a late crash — and a second crash
//!   during the rebuild still finds the preloads (clone, not drain).
//!
//! All three policies must complete fib(16) with the reference answer
//! through a mid-run crash on every backend: the three deterministic
//! simulators here, the threaded runtime, and the multi-process machine
//! (real `SIGKILL`).

use splice::core::config::RecoveryMode;
use splice::core::engine::{Action, Engine};
use splice::core::ids::{ProcId, TaskAddr, TaskKey};
use splice::core::packet::{Msg, TaskLink, TaskPacket};
use splice::core::place::ScriptedPlacer;
use splice::core::policy::{PolicyKind, PolicySpec};
use splice::core::sink::ActionSink;
use splice::core::{Config, LevelStamp};
use splice::lang::parser::parse;
use splice::lang::wave::Demand;
use splice::lang::Value;
use splice::prelude::*;
use splice::runtime::{run_plan, RuntimeConfig};
use splice::sim::{execute, Backend};
use splice::simnet::trace::{TraceKind, TraceMode};
use std::collections::VecDeque;
use std::sync::Arc;

fn cfg(n: u32) -> MachineConfig {
    let mut c = MachineConfig::new(n);
    c.policy = Policy::RoundRobin;
    c.recovery.mode = RecoveryMode::Splice;
    c.recovery.load_beacon_period = 0;
    c
}

/// Crashes worker processor 1 in the middle of the fault-free DES
/// timeline of `c`, so the fault demonstrably lands mid-run.
fn mid_worker_crash(c: &MachineConfig, w: &Workload) -> FaultPlan {
    let base = run_workload(c.clone(), w, &FaultPlan::none());
    assert!(base.completed, "fault-free baseline stalled");
    FaultPlan::crash_at(1, VirtualTime(base.finish.ticks() / 2))
}

// ---------------------------------------------------------------------
// Eager == the pre-refactor engine, bit for bit
// ---------------------------------------------------------------------

/// The golden pins: canonical trace checksums of the default (Eager)
/// policy, captured on the engine *before* the `RecoveryPolicy` seam was
/// introduced. Any drift here means the refactor changed the paper's
/// protocol — new message kinds leaking into Eager runs, reordered
/// recovery actions, anything.
#[test]
fn eager_reproduces_pre_refactor_golden_traces() {
    let w = Workload::fib(14);
    let mut c = cfg(4);
    c.trace = TraceMode::Checksum;
    assert_eq!(
        c.recovery.policy,
        PolicySpec::eager(),
        "Eager is the default"
    );

    let (free, _) = execute(Backend::Des, c.clone(), &w, &FaultPlan::none());
    assert!(free.completed);
    assert_eq!(free.policy, PolicyKind::Eager);
    assert_eq!(
        free.finish,
        VirtualTime(16_328),
        "fault-free finish drifted"
    );
    assert_eq!(free.trace.events, 7_920, "fault-free event count drifted");
    assert_eq!(
        free.trace.stream, 0x58a9_f49d_f6cc_0aad,
        "fault-free stream checksum drifted: got {:#018x}",
        free.trace.stream
    );
    assert_eq!(
        free.trace.semantic, 0xa8a9_f812_825f_922c,
        "fault-free semantic checksum drifted: got {:#018x}",
        free.trace.semantic
    );

    let plan = FaultPlan::crash_at(1, VirtualTime(8_164));
    let (crash, _) = execute(Backend::Des, c, &w, &plan);
    assert!(crash.completed);
    assert_eq!(crash.result, Some(w.reference_result().unwrap()));
    assert_eq!(crash.finish, VirtualTime(39_883), "crash finish drifted");
    assert_eq!(crash.trace.events, 17_672, "crash event count drifted");
    assert_eq!(
        crash.trace.stream, 0x6719_742e_5ba2_9024,
        "crash stream checksum drifted: got {:#018x}",
        crash.trace.stream
    );
    assert_eq!(
        crash.trace.semantic, 0xcc60_c100_b665_2b6e,
        "crash semantic checksum drifted: got {:#018x}",
        crash.trace.semantic
    );
}

/// Non-default policies announce themselves once at launch in the trace;
/// Eager stays silent so the golden stream above cannot see the seam.
#[test]
fn non_eager_policies_announce_themselves_in_the_trace() {
    let w = Workload::fib(8);
    let mut lazy = cfg(2);
    lazy.trace = TraceMode::Full;
    lazy.recovery.policy = PolicySpec::lazy();
    let (r, events) = execute(Backend::Des, lazy, &w, &FaultPlan::none());
    assert!(r.completed);
    assert_eq!(r.policy, PolicyKind::Lazy);
    let tags: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Policy { kind, every } => Some((kind, every)),
            _ => None,
        })
        .collect();
    assert_eq!(tags, vec![(PolicyKind::Lazy.tag(), 0)]);

    let mut eager = cfg(2);
    eager.trace = TraceMode::Full;
    let (_, events) = execute(Backend::Des, eager, &w, &FaultPlan::none());
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Policy { .. })),
        "Eager must not emit a policy event (golden stream would drift)"
    );
}

// ---------------------------------------------------------------------
// Every policy x every backend completes through a mid-run crash
// ---------------------------------------------------------------------

#[test]
fn every_policy_completes_fib16_through_mid_run_crash_in_sim() {
    let w = Workload::fib(16);
    let expected = w.reference_result().unwrap();
    for kind in PolicyKind::ALL {
        // The DES, and the reactor at one pump (the single-thread
        // reactor) and at two.
        for (backend, threads) in [
            (Backend::Des, 1),
            (Backend::ParallelReactor, 1),
            (Backend::ParallelReactor, 2),
        ] {
            let mut c = cfg(4);
            c.threads = threads;
            c.recovery.policy = PolicySpec::of(kind);
            let plan = mid_worker_crash(&c, &w);
            let (r, _) = execute(backend, c, &w, &plan);
            assert!(r.completed, "{kind} on {backend}@{threads} stalled: {r}");
            assert_eq!(
                r.result,
                Some(expected.clone()),
                "{kind} on {backend}@{threads} got the wrong answer"
            );
            assert_eq!(r.policy, kind, "{backend} misreported the policy");
        }
    }
}

#[test]
fn every_policy_completes_fib16_through_mid_run_crash_on_runtime() {
    let w = Workload::fib(16);
    let expected = w.reference_result().unwrap();
    for kind in PolicyKind::ALL {
        let mut c = RuntimeConfig::new(4);
        c.recovery.mode = RecoveryMode::Splice;
        c.recovery.policy = PolicySpec::of(kind);
        let plan = FaultPlan::crash_at(1, VirtualTime(400));
        let r = run_plan(c, &w, &plan);
        assert_eq!(
            r.result,
            Some(expected.clone()),
            "{kind} on the threaded runtime got the wrong answer"
        );
        assert_eq!(r.policy, kind, "runtime misreported the policy");
    }
}

/// The multi-process leg: a real `kill -9` of a worker process mid-run,
/// once per policy. The policy travels in the Init handshake, so every
/// worker process runs the configured scheme.
#[cfg(unix)]
#[test]
fn every_policy_completes_fib16_through_sigkill_on_process_backend() {
    use splice::sim::proc::{run_process, ProcConfig};
    use splice::simnet::fault::ProcessFaultPlan;
    use std::path::PathBuf;

    let w = Workload::fib(16);
    let expected = w.reference_result().unwrap();
    for kind in PolicyKind::ALL {
        let mut c = ProcConfig::new(4, 1);
        c.worker_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_splice-proc-worker")));
        c.recovery.mode = RecoveryMode::Splice;
        c.recovery.ack_timeout = 12_000;
        c.recovery.policy = PolicySpec::of(kind);
        let plan = ProcessFaultPlan::none().kill_shard(1, VirtualTime(1_000));
        let r = run_process(&c, &w, &plan).expect("launch");
        assert!(r.completed, "{kind} through SIGKILL stalled: {r}");
        assert_eq!(
            r.result,
            Some(expected.clone()),
            "{kind} through SIGKILL got the wrong answer"
        );
        assert_eq!(r.policy, kind, "process backend misreported the policy");
    }
}

// ---------------------------------------------------------------------
// MultiCheckpoint: strictly fewer replayed waves after a late crash
// ---------------------------------------------------------------------

/// A late crash under Eager replays the dead processor's subtrees from
/// their spawn-time checkpoints — every completed-but-unreported child
/// result below a dead parent is recomputed. MultiCheckpoint streamed
/// those results back to the checkpoint owners as they completed, so the
/// twins preload them and the machine runs strictly fewer waves.
#[test]
fn multickpt_replays_strictly_fewer_waves_than_eager_after_late_crash() {
    let w = Workload::fib(14);
    let c = cfg(4);
    let base = run_workload(c.clone(), &w, &FaultPlan::none());
    assert!(base.completed);
    let plan = FaultPlan::crash_at(1, VirtualTime(base.finish.ticks() * 3 / 4));

    let (eager, _) = execute(Backend::Des, c.clone(), &w, &plan);
    let mut mc = c;
    mc.recovery.policy = PolicySpec::multi_checkpoint(1);
    let (multi, _) = execute(Backend::Des, mc, &w, &plan);

    for r in [&eager, &multi] {
        assert!(r.completed, "crash run stalled: {r}");
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
    }
    assert_eq!(eager.stats.recheckpoints, 0);
    assert!(multi.stats.recheckpoints > 0, "nothing was re-checkpointed");
    assert!(
        multi.stats.waves_run < eager.stats.waves_run,
        "preloaded twins must replay strictly fewer waves: multickpt {} vs eager {}",
        multi.stats.waves_run,
        eager.stats.waves_run
    );
}

// ---------------------------------------------------------------------
// Engine-level scripts: the policies' defining moments, forced exactly
// ---------------------------------------------------------------------

/// A hand-driven cluster of four engines (the `eight_cases` harness shape)
/// so tests can force exact message orders and fault timings.
struct Cluster {
    engines: Vec<Engine>,
    pool: VecDeque<(ProcId, ProcId, Msg)>,
    dead: Vec<bool>,
    root_result: Option<Value>,
}

impl Cluster {
    fn new(
        source: &str,
        root_fn: &str,
        args: Vec<Value>,
        build: impl Fn(u32) -> (Config, ScriptedPlacer),
    ) -> (Cluster, TaskPacket) {
        let parsed = parse(source).unwrap();
        let program = Arc::new(parsed.program);
        let f = program.lookup(root_fn).unwrap();
        let mut engines = Vec::new();
        for i in 0..4u32 {
            let (cfg, placer) = build(i);
            engines.push(Engine::new(
                ProcId(i),
                program.clone(),
                cfg,
                Box::new(placer),
            ));
        }
        let packet = TaskPacket {
            stamp: LevelStamp::root().child(1),
            demand: Demand::new(f, args),
            parent: TaskLink::super_root(),
            ancestors: vec![TaskLink::super_root()],
            incarnation: 0,
            hops: 0,
            replica: None,
            under_replica: false,
        };
        (
            Cluster {
                engines,
                pool: VecDeque::new(),
                dead: vec![false; 4],
                root_result: None,
            },
            packet,
        )
    }

    fn absorb(&mut self, from: ProcId, sink: &mut ActionSink) {
        for a in sink.drain() {
            match a {
                Action::Send { to, msg } => self.pool.push_back((from, to, msg)),
                Action::SetTimer { .. } => {}
            }
        }
    }

    /// Injects the root task on processor 0 and discards the super-root ack.
    fn launch(&mut self, packet: TaskPacket) {
        let mut sink = ActionSink::new();
        self.engines[0].on_message(Msg::spawn(packet), &mut sink);
        self.absorb(ProcId(0), &mut sink);
        self.pool.retain(|(_, to, _)| !to.is_super_root());
    }

    fn deliver_where(&mut self, mut pred: impl FnMut(&ProcId, &Msg) -> bool) -> usize {
        let mut delivered = 0;
        let mut remaining = VecDeque::new();
        while let Some((from, to, msg)) = self.pool.pop_front() {
            if !pred(&to, &msg) {
                remaining.push_back((from, to, msg));
                continue;
            }
            delivered += 1;
            if to.is_super_root() {
                if let Msg::Result(rp) = msg {
                    self.root_result = Some(rp.value);
                }
                continue;
            }
            if self.dead[to.0 as usize] {
                if self.dead[from.0 as usize] {
                    continue;
                }
                let mut sink = ActionSink::new();
                self.engines[from.0 as usize].on_send_failed(to, msg, &mut sink);
                self.absorb(from, &mut sink);
                continue;
            }
            if self.dead[from.0 as usize] {
                continue;
            }
            let mut sink = ActionSink::new();
            self.engines[to.0 as usize].on_message(msg, &mut sink);
            self.absorb(to, &mut sink);
        }
        self.pool = remaining;
        delivered
    }

    fn settle(&mut self) {
        for _ in 0..64 {
            let moved = self.deliver_where(|_, _| true);
            let ran = self.run_all_ready();
            if moved == 0 && ran == 0 {
                return;
            }
        }
        panic!("cluster did not settle");
    }

    fn run_ready(&mut self, proc: u32) -> usize {
        let mut ran = 0;
        while let Some(key) = self.engines[proc as usize].pop_ready() {
            if self.dead[proc as usize] {
                break;
            }
            let mut sink = ActionSink::new();
            self.engines[proc as usize].run_wave(key, &mut sink);
            self.absorb(ProcId(proc), &mut sink);
            ran += 1;
        }
        ran
    }

    fn run_all_ready(&mut self) -> usize {
        let mut ran = 0;
        for p in 0..4 {
            if !self.dead[p as usize] {
                ran += self.run_ready(p);
            }
        }
        ran
    }

    fn kill(&mut self, proc: u32) {
        self.dead[proc as usize] = true;
    }

    fn notice(&mut self, to: u32, dead: u32) {
        let mut sink = ActionSink::new();
        self.engines[to as usize].on_message(Msg::FailureNotice { dead: ProcId(dead) }, &mut sink);
        self.absorb(ProcId(to), &mut sink);
    }

    fn stats(&self, proc: u32) -> &splice::core::ProcStats {
        self.engines[proc as usize].stats()
    }

    fn total_reissues(&self) -> u64 {
        self.engines.iter().map(|e| e.stats().reissues).sum()
    }

    fn pool_has_spawn(&self) -> bool {
        self.pool.iter().any(|(_, _, m)| matches!(m, Msg::Spawn(_)))
    }
}

const TWO_BRANCH: &str = r#"
(def b1 (x) (* x 2))
(def b2 (x) (* x 3))
(def p (x) (+ (b1 x) (b2 x)))
"#;

fn root_stamp() -> LevelStamp {
    LevelStamp::root().child(1)
}

/// Root task `p` on processor 0; its two children pinned to 1 and 3.
fn two_branch_cluster(spec: PolicySpec, mode: RecoveryMode) -> (Cluster, TaskPacket) {
    Cluster::new(TWO_BRANCH, "p", vec![Value::Int(5)], move |_| {
        let mut cfg = Config::with_mode(mode);
        cfg.load_beacon_period = 0;
        cfg.policy = spec;
        let mut placer = ScriptedPlacer::new(vec![ProcId(3), ProcId(2)]);
        placer.assign(root_stamp().child(1), ProcId(1));
        placer.assign(root_stamp().child(2), ProcId(3));
        (cfg, placer)
    })
}

/// Spawns both branches and delivers their placement acks.
fn spawn_branches(cl: &mut Cluster, packet: TaskPacket) {
    cl.launch(packet);
    cl.run_ready(0); // p's wave demands b1 and b2
    cl.deliver_where(|_, m| matches!(m, Msg::Spawn(_)));
    cl.deliver_where(|to, m| *to == ProcId(0) && matches!(m, Msg::Ack { .. }));
}

/// Lazy's defining economy: a crashed subtree whose result is *never*
/// demanded costs zero reissues. The root task here is the child of a
/// remote parent (processor 2); when that parent's processor dies too
/// (rollback mode: orphans suicide), the lost branch b1 is simply
/// abandoned. Eager, fed the identical script, pays a reissue up front.
#[test]
fn lazy_never_rebuilds_a_subtree_nobody_demands() {
    for (spec, want_reissues) in [(PolicySpec::lazy(), 0u64), (PolicySpec::eager(), 1u64)] {
        let (mut cl, mut packet) = two_branch_cluster(spec, RecoveryMode::Rollback);
        // The root task is itself a child of a task on processor 2.
        let parent = TaskLink::new(TaskAddr::new(ProcId(2), TaskKey(0)), LevelStamp::root());
        packet.parent = parent.clone();
        packet.ancestors = vec![parent];
        spawn_branches(&mut cl, packet);

        // b1's host dies. Lazy marks the branch lost and does nothing —
        // b2 is alive and may yet unblock p. Eager reissues immediately.
        cl.kill(1);
        cl.notice(0, 1);
        assert_eq!(cl.total_reissues(), want_reissues, "{spec:?}");
        if want_reissues == 0 {
            assert!(!cl.pool_has_spawn(), "lazy queued a rebuild spawn");
        }

        // p's parent dies: p is an orphan, suicides (rollback), and takes
        // its demand for b1 to the grave. Nothing may rebuild b1 now.
        cl.kill(2);
        cl.notice(0, 2);
        cl.settle();
        assert_eq!(cl.stats(0).orphans_suicided, 1, "{spec:?}");
        assert_eq!(cl.total_reissues(), want_reissues, "{spec:?}");
        let rebuilds: u64 = cl.engines.iter().map(|e| e.stats().lazy_rebuilds).sum();
        assert_eq!(rebuilds, 0, "{spec:?}: nobody demanded the subtree");
    }
}

/// Lazy's completeness half: once the owner's progress actually blocks on
/// the lost branch (the live branch has delivered), the rebuild happens —
/// exactly once, counted in `lazy_rebuilds`, and the answer is right.
#[test]
fn lazy_rebuilds_exactly_when_the_owner_blocks_on_the_loss() {
    let (mut cl, packet) = two_branch_cluster(PolicySpec::lazy(), RecoveryMode::Splice);
    spawn_branches(&mut cl, packet);

    cl.kill(1);
    cl.notice(0, 1);
    assert_eq!(cl.total_reissues(), 0, "rebuild before demand");
    assert!(!cl.pool_has_spawn());

    // The live branch completes: p is now blocked solely on the lost b1,
    // so the deferred rebuild fires (fallback places b1' on processor 3).
    cl.run_ready(3);
    cl.deliver_where(|to, m| *to == ProcId(0) && matches!(m, Msg::Result(_)));
    assert_eq!(
        cl.stats(0).lazy_rebuilds,
        1,
        "blocking must trigger the rebuild"
    );
    assert_eq!(cl.stats(0).reissues, 1);
    cl.settle();
    assert_eq!(cl.root_result, Some(Value::Int(25)), "5*2 + 5*3");
}

/// The grandparent chain from `eight_cases`, with a MultiCheckpoint twist:
/// `g` (proc 0) -> `p` (proc 1) -> `c` (proc 2).
const CHAIN: &str = r#"
(def c (x) (* x 2))
(def p (x) (+ 1 (c x)))
(def g () (+ 1 (p 3)))
"#;

/// Double crash during rebuild: the checkpoint's preloads must survive the
/// first reissue (clone, not drain). `p` re-checkpoints c's completed
/// result to `g`; `p`'s host dies, twin `p'` goes to processor 3 and gets
/// the preload; processor 3 dies before `p'` runs; twin `p''` (processor
/// 2) must *still* receive the preload — and therefore never respawn `c`.
#[test]
fn second_crash_during_rebuild_still_finds_the_preloads() {
    let g_stamp = LevelStamp::root().child(1);
    let p_stamp = g_stamp.child(1);
    let c_stamp = p_stamp.child(1);
    let (mut cl, packet) = {
        let p_stamp = p_stamp.clone();
        let c_stamp = c_stamp.clone();
        Cluster::new(CHAIN, "g", vec![], move |_| {
            let mut cfg = Config::with_mode(RecoveryMode::Splice);
            cfg.load_beacon_period = 0;
            cfg.policy = PolicySpec::multi_checkpoint(1);
            let mut placer = ScriptedPlacer::new(vec![ProcId(1), ProcId(3), ProcId(2)]);
            placer.assign(p_stamp.clone(), ProcId(1));
            placer.assign(c_stamp.clone(), ProcId(2));
            (cfg, placer)
        })
    };
    cl.launch(packet);
    cl.run_ready(0); // g demands p
    cl.deliver_where(|to, m| *to == ProcId(1) && matches!(m, Msg::Spawn(_)));
    cl.deliver_where(|to, m| *to == ProcId(0) && matches!(m, Msg::Ack { .. }));
    cl.run_ready(1); // p demands c
    cl.deliver_where(|to, m| *to == ProcId(2) && matches!(m, Msg::Spawn(_)));
    cl.deliver_where(|to, m| *to == ProcId(1) && matches!(m, Msg::Ack { .. }));
    cl.run_ready(2); // c completes
    cl.deliver_where(|to, m| *to == ProcId(1) && matches!(m, Msg::Result(_)));
    // p (re-checkpoint period 1) streams c's result back to g's table.
    assert_eq!(cl.stats(1).recheckpoints, 1, "p must re-checkpoint");
    cl.deliver_where(|to, m| *to == ProcId(0) && matches!(m, Msg::Ckpt(_)));

    // First crash: p's host. g reissues twin p' -> processor 3, and the
    // placement ACK flushes the preloaded result to it as a salvage.
    cl.kill(1);
    cl.notice(0, 1);
    cl.deliver_where(|to, m| *to == ProcId(3) && matches!(m, Msg::Spawn(_)));
    cl.deliver_where(|to, m| *to == ProcId(0) && matches!(m, Msg::Ack { .. }));
    cl.deliver_where(|to, m| *to == ProcId(3) && matches!(m, Msg::Salvage(_)));
    assert_eq!(cl.stats(3).salvage_before_spawn, 1, "p' must be preloaded");

    // Second crash, *before p' ever runs*: the twin's host dies too. The
    // re-reissue must find the preloads still in the checkpoint.
    cl.kill(3);
    cl.notice(0, 3);
    cl.deliver_where(|to, m| *to == ProcId(2) && matches!(m, Msg::Spawn(_)));
    cl.deliver_where(|to, m| *to == ProcId(0) && matches!(m, Msg::Ack { .. }));
    cl.deliver_where(|to, m| *to == ProcId(2) && matches!(m, Msg::Salvage(_)));
    assert_eq!(
        cl.stats(2).salvage_before_spawn,
        1,
        "p'' lost the preload: the first reissue drained the checkpoint"
    );

    cl.settle();
    assert_eq!(cl.root_result, Some(Value::Int(8)), "1 + (1 + 3*2)");
    assert_eq!(
        cl.stats(2).tasks_created,
        2,
        "only c and p'' may ever run on processor 2 — a third task means \
         p'' recomputed c instead of preloading it"
    );
}
