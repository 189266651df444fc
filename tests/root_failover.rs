//! Cross-backend acceptance of the replicated super-root: the paper's
//! §4.3.1 reliable coordinator is now a quorum of N crash-able replicas
//! (lowest-ranked live replica leads). Every backend — DES, cooperative
//! reactor at one pump and at two, threaded runtime — must complete fib(16)
//! with the reference answer when the acting primary is crashed mid-run,
//! and must report the takeover in `root_failovers`. (The multi-process
//! backend's leg, which SIGKILLs the primary's host, lives in
//! `tests/process_backend.rs`.)
//!
//! The regression half pins the degenerate case: a single-replica quorum
//! is the old reliable singleton bit-for-bit — replica count changes
//! nothing observable in a fault-free run, and crashing the only replica
//! stalls the machine instead of hanging it.

use splice::core::config::RecoveryMode;
use splice::gradient::Policy;
use splice::prelude::*;
use splice::runtime::{run_plan, RuntimeConfig};
use splice::sim::parallel::run_parallel_reactor;
use splice::sim::reactor::run_reactor;
use splice::sim::{execute, Backend};
use splice::simnet::trace::TraceMode;

fn cfg(n: u32) -> MachineConfig {
    let mut c = MachineConfig::new(n);
    c.policy = Policy::RoundRobin;
    c.recovery.mode = RecoveryMode::Splice;
    c.recovery.load_beacon_period = 0;
    c
}

/// A plan that crashes the acting primary (rank 0 leads at launch) in the
/// middle of the fault-free DES timeline, so the crash demonstrably lands
/// while the run is in flight (faults only push completion later).
fn mid_primary_crash(c: &MachineConfig, w: &Workload) -> FaultPlan {
    let base = run_workload(c.clone(), w, &FaultPlan::none());
    assert!(base.completed, "fault-free baseline stalled");
    FaultPlan::none().crash_root_replica(0, VirtualTime(base.finish.ticks() / 2))
}

#[test]
fn des_completes_fib16_through_primary_crash() {
    let w = Workload::fib(16);
    let c = cfg(4);
    let plan = mid_primary_crash(&c, &w);
    let r = run_workload(c, &w, &plan);
    assert!(r.completed, "failover run stalled: {r}");
    assert_eq!(r.result, Some(w.reference_result().unwrap()));
    assert!(r.root_failovers >= 1, "no failover recorded: {r}");
    assert_eq!(r.root_replicas, 3);
}

#[test]
fn reactor_completes_fib16_through_primary_crash() {
    let w = Workload::fib(16);
    let c = cfg(4);
    let plan = mid_primary_crash(&c, &w);
    let r = run_reactor(c, &w, &plan);
    assert!(r.completed, "failover run stalled: {r}");
    assert_eq!(r.result, Some(w.reference_result().unwrap()));
    assert!(r.root_failovers >= 1, "no failover recorded: {r}");
}

#[test]
fn parallel_reactor_completes_fib16_through_primary_crash() {
    let w = Workload::fib(16);
    let mut c = cfg(4);
    c.threads = 2;
    let plan = mid_primary_crash(&c, &w);
    let r = run_parallel_reactor(c, &w, &plan);
    assert!(r.completed, "failover run stalled: {r}");
    assert_eq!(r.result, Some(w.reference_result().unwrap()));
    assert!(r.root_failovers >= 1, "no failover recorded: {r}");
}

/// The threaded runtime maps the plan's virtual fault instants onto the
/// wall clock, so a fast host can finish before the crash lands
/// (`root_failovers == 0`); the test retries with earlier instants until
/// the takeover demonstrably happened mid-run.
#[test]
fn runtime_completes_fib16_through_primary_crash() {
    let w = Workload::fib(16);
    let expected = w.reference_result().unwrap();
    for at in [2_000u64, 400, 50] {
        let mut c = RuntimeConfig::new(4);
        c.recovery.mode = RecoveryMode::Splice;
        let plan = FaultPlan::none().crash_root_replica(0, VirtualTime(at));
        let r = run_plan(c, &w, &plan);
        assert_eq!(
            r.result,
            Some(expected.clone()),
            "failover run failed (crash at t={at})"
        );
        assert_eq!(r.root_replicas, 3);
        if r.root_failovers >= 1 {
            return;
        }
        // The run beat the crash to the finish line; retry earlier.
    }
    panic!("the crash never landed mid-run, even at t=50");
}

/// The failover path is policy-independent: under the Lazy recovery
/// policy (mark-lost, rebuild-on-demand) a primary-root crash must still
/// fail over to a successor and complete with the reference answer, on
/// every deterministic backend. The super-root quorum's own recovery is
/// not subject to the engine-level policy — only worker subtrees are.
#[test]
fn lazy_policy_fails_over_on_every_sim_backend() {
    use splice::core::policy::{PolicyKind, PolicySpec};
    let w = Workload::fib(16);
    let expected = w.reference_result().unwrap();
    for (backend, threads) in [
        (Backend::Des, 1),
        (Backend::ParallelReactor, 1),
        (Backend::ParallelReactor, 2),
    ] {
        let mut c = cfg(4);
        c.threads = threads;
        c.recovery.policy = PolicySpec::lazy();
        let plan = mid_primary_crash(&c, &w);
        let (r, _) = execute(backend, c, &w, &plan);
        assert!(
            r.completed,
            "lazy failover stalled on {backend}@{threads}: {r}"
        );
        assert_eq!(
            r.result,
            Some(expected.clone()),
            "lazy failover got the wrong answer on {backend}@{threads}"
        );
        assert!(
            r.root_failovers >= 1,
            "no failover on {backend}@{threads}: {r}"
        );
        assert_eq!(r.policy, PolicyKind::Lazy);
    }
}

/// The Lazy failover leg on the threaded runtime. Wall-clock mapped fault
/// instants: retry earlier until the takeover demonstrably landed.
#[test]
fn lazy_policy_fails_over_on_runtime() {
    use splice::core::policy::PolicySpec;
    let w = Workload::fib(16);
    let expected = w.reference_result().unwrap();
    for at in [2_000u64, 400, 50] {
        let mut c = RuntimeConfig::new(4);
        c.recovery.mode = RecoveryMode::Splice;
        c.recovery.policy = PolicySpec::lazy();
        let plan = FaultPlan::none().crash_root_replica(0, VirtualTime(at));
        let r = run_plan(c, &w, &plan);
        assert_eq!(
            r.result,
            Some(expected.clone()),
            "lazy failover run failed (crash at t={at})"
        );
        if r.root_failovers >= 1 {
            return;
        }
    }
    panic!("the crash never landed mid-run, even at t=50");
}

/// The Lazy failover leg on the multi-process machine: `kill -9` the
/// shard hosting the acting primary while every worker runs the Lazy
/// policy (shipped through the Init handshake). Retry earlier instants
/// until the takeover demonstrably landed.
#[cfg(unix)]
#[test]
fn lazy_policy_fails_over_on_process_backend() {
    use splice::core::policy::{PolicyKind, PolicySpec};
    use splice::sim::proc::{run_process, ProcConfig};
    use splice::simnet::fault::ProcessFaultPlan;
    use std::path::PathBuf;

    let w = Workload::fib(16);
    let expected = w.reference_result().unwrap();
    for at in [3_000u64, 1_000, 300, 10] {
        let mut c = ProcConfig::new(4, 1);
        c.worker_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_splice-proc-worker")));
        c.policy = Policy::RoundRobin;
        c.recovery.mode = RecoveryMode::Splice;
        c.recovery.ack_timeout = 12_000;
        c.recovery.policy = PolicySpec::lazy();
        let plan = ProcessFaultPlan::none().kill_shard(0, VirtualTime(at));
        let r = run_process(&c, &w, &plan).expect("launch");
        assert!(r.completed, "lazy primary-host kill at t={at} stalled: {r}");
        assert_eq!(
            r.result,
            Some(expected.clone()),
            "lazy primary-host kill at t={at} corrupted the answer"
        );
        assert_eq!(r.policy, PolicyKind::Lazy);
        if r.root_failovers >= 1 {
            return;
        }
    }
    panic!("the kill never deposed the acting primary, even at t=10");
}

/// Fault-free, the quorum layer must add zero events: a machine with one
/// replica and a machine with three produce the *identical* full trace,
/// finish instant and event count. This is the bit-for-bit regression
/// guard that `root_replicas: 3` did not change the singleton protocol.
#[test]
fn replica_count_is_inert_without_root_faults() {
    let w = Workload::fib(12);
    let mut c1 = cfg(4);
    c1.trace = TraceMode::Full;
    c1.recovery.root_replicas = 1;
    let mut c3 = cfg(4);
    c3.trace = TraceMode::Full;
    c3.recovery.root_replicas = 3;
    let (r1, e1) = execute(Backend::Des, c1, &w, &FaultPlan::none());
    let (r3, e3) = execute(Backend::Des, c3, &w, &FaultPlan::none());
    assert!(r1.completed && r3.completed);
    assert_eq!(e1, e3, "replica count changed the canonical event stream");
    assert_eq!(r1.finish, r3.finish);
    assert_eq!(r1.events, r3.events);
    assert_eq!(r1.result, r3.result);
    assert_eq!(r1.root_failovers, 0);
    assert_eq!(r3.root_failovers, 0);
    assert_eq!((r1.root_replicas, r3.root_replicas), (1, 3));
}

/// A single-replica quorum crashed mid-run has no successor: the run
/// must stall (a verdict, well under the event budget), never complete,
/// and never count a failover.
#[test]
fn single_replica_crash_stalls_like_the_old_singleton_could_not() {
    let w = Workload::fib(12);
    let mut c = cfg(4);
    c.recovery.root_replicas = 1;
    let max_events = c.max_events;
    let plan = mid_primary_crash(&c, &w);
    let r = run_workload(c, &w, &plan);
    assert!(
        !r.completed,
        "no surviving replica could have assembled this"
    );
    assert!(r.stalled, "quorum death must quiesce as a stall: {r}");
    assert_eq!(r.result, None);
    assert_eq!(r.root_failovers, 0);
    assert!(
        r.events < max_events / 100,
        "stall detection ground through {} events",
        r.events
    );
}
