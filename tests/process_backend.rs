//! End-to-end tests of the multi-process shard substrate: real worker
//! processes, real Unix sockets, real faults. Where the DES *models* a
//! crash, these tests `SIGKILL` a live OS process mid-run and watch the
//! recovery protocol put the computation back together; where the DES
//! models lossy links, these tests corrupt and partition actual socket
//! traffic and watch the transport's checksum/reconnect/replay machinery
//! absorb it.
//!
//! Every test pins the worker binary via `CARGO_BIN_EXE_splice-proc-worker`
//! (cargo builds it before running integration tests), so the tests are
//! insensitive to the working directory and to `$PATH`.

#![cfg(unix)]

use splice::core::config::RecoveryMode;
use splice::gradient::Policy;
use splice::prelude::*;
use splice::sim::proc::{parse_workload, run_process, ProcConfig};
use splice::sim::{execute, Backend};
use splice::simnet::fault::ProcessFaultPlan;
use splice::simnet::trace::TraceMode;
use std::path::PathBuf;
use std::time::Duration;

fn proc_cfg(shards: u32, per_shard: u32) -> ProcConfig {
    let mut c = ProcConfig::new(shards, per_shard);
    c.worker_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_splice-proc-worker")));
    c.recovery.mode = RecoveryMode::Splice;
    // The DES default ack timeout (4k units = 100ms wall here) is within
    // scheduler-noise range when the host is oversubscribed — a worker
    // descheduled that long reissues spuriously, and the resulting storm
    // can thrash a run into its 30s deadline. 300ms keeps timeouts
    // meaningful (probing still drives silent-death discovery) while
    // tolerating CI-grade contention.
    c.recovery.ack_timeout = 12_000;
    c
}

/// Fault-free parity with the DES: same verdict, same value, and the
/// *same commutative semantic checksum* — the multiset of completed
/// (stamp, value) pairs is identical even though one machine is a
/// deterministic event queue and the other is four OS processes racing
/// over sockets.
#[test]
fn process_matches_des_fault_free_semantics() {
    let w = Workload::fib(12);

    let mut des_cfg = MachineConfig::sharded(2, 2, 0);
    // Round-robin placement: with load beacons off, gradient placement
    // would keep the whole tree on the root's shard and the wire would
    // stay silent — round-robin guarantees real cross-shard traffic.
    des_cfg.policy = Policy::RoundRobin;
    des_cfg.recovery.mode = RecoveryMode::Splice;
    des_cfg.recovery.load_beacon_period = 0;
    des_cfg.trace = TraceMode::Checksum;
    let (des, _) = execute(Backend::Des, des_cfg, &w, &FaultPlan::none());
    assert!(des.completed, "DES baseline stalled");

    let mut cfg = proc_cfg(2, 2);
    cfg.policy = Policy::RoundRobin;
    cfg.recovery.load_beacon_period = 0;
    // Generous ack timeout: wall-clock scheduling noise must not trigger
    // spurious reissues, which would add duplicate Complete events to the
    // semantic checksum.
    cfg.recovery.ack_timeout = 40_000;
    cfg.trace = TraceMode::Checksum;
    let report = run_process(&cfg, &w, &ProcessFaultPlan::none()).expect("launch");

    assert!(report.completed, "process run stalled: {report}");
    assert_eq!(report.result, des.result);
    assert_eq!(report.result, Some(w.reference_result().unwrap()));
    assert!(report.trace.events > 0, "process run traced nothing");
    assert_eq!(
        report.trace.semantic, des.trace.semantic,
        "semantic checksum diverged: process {:#018x} vs des {:#018x}",
        report.trace.semantic, des.trace.semantic
    );
    assert!(report.frames_sent > 0, "no cross-shard frames at all?");
}

/// The headline robustness claim: `kill -9` a shard's worker process in
/// the middle of fib(16) on a 4-shard machine — with the coordinator's
/// failure broadcast *disabled*, so the survivors must discover the death
/// themselves through exhausted reconnect budgets — and the run still
/// produces the right answer, with the transport's reconnect machinery
/// demonstrably exercised.
///
/// The kill instant is wall-clock relative, so a faster host could finish
/// before the fault lands; the test retries with earlier instants until
/// the kill demonstrably interrupted the run. Reconnects alone do not show
/// that: a fault-free run counts some at teardown, when a worker whose
/// peer has already exited re-dials before it reads its own `Shutdown`.
/// A landed kill shows as all three of: reconnects, a finish after the
/// kill instant, and recovery work (reissued spawns or salvaged results).
#[test]
fn kill_shard_mid_run_recovers() {
    let w = Workload::fib(16);
    for at in [3_000u64, 1_000, 300, 10] {
        let mut cfg = proc_cfg(4, 1);
        cfg.detector_broadcast = false;
        let plan = ProcessFaultPlan::none().kill_shard(1, VirtualTime(at));
        let report = run_process(&cfg, &w, &plan).expect("launch");
        assert!(
            report.completed,
            "killed run did not complete (kill at t={at}): {report}"
        );
        assert_eq!(
            report.result,
            Some(w.reference_result().unwrap()),
            "killed run produced a wrong answer (kill at t={at})"
        );
        if report.reconnects > 0
            && report.finish.ticks() > at
            && report.stats.reissues + report.stats.salvaged_results > 0
        {
            // Dead-peer discovery ran: connection attempts against the
            // killed worker were made and eventually declared it dead,
            // bouncing the pending sends into recovery.
            return;
        }
        // Anything less means the run finished before the kill landed;
        // retry with an earlier instant.
    }
    panic!("kill never landed mid-run, even at t=10");
}

/// A SIGKILLed shard's unacknowledged spawns are reissued on its death
/// notice, not when their ack timers run out. The timeout here is 400 000
/// units (10 s of wall clock) against a 5 s run budget, so a run that
/// waited it out would end incomplete.
///
/// The kill instant is wall-clock relative; the test retries earlier until
/// the kill landed mid-run and forced a reissue.
#[test]
fn kill_recovery_does_not_wait_for_the_ack_timeout() {
    let w = Workload::fib(16);
    for at in [300u64, 100, 30, 10] {
        let mut cfg = proc_cfg(4, 4);
        cfg.policy = Policy::RoundRobin;
        cfg.recovery.ack_timeout = 400_000;
        cfg.run_timeout = Duration::from_secs(5);
        let plan = ProcessFaultPlan::none().kill_shard(3, VirtualTime(at));
        let report = run_process(&cfg, &w, &plan).expect("launch");
        assert!(
            report.completed,
            "kill at t={at} waited out the ack timeout: {report}"
        );
        assert_eq!(
            report.result,
            Some(w.reference_result().unwrap()),
            "kill at t={at} produced a wrong answer"
        );
        if report.stats.reissues > 0 && report.finish.ticks() > at {
            return;
        }
        // No reissue means the run finished before the kill landed.
    }
    panic!("the kill never forced a reissue, even at t=10");
}

/// A corrupted frame must be *detected* (checksum), *counted*
/// (`decode_errors`), *survived* (connection drop → reconnect → retained
/// replay), and must never corrupt the answer.
/// The garble arms at a wall-clock instant and corrupts the *next* 0→1
/// frame; a fast host can finish the run (or at least its cross-shard
/// phase) before that frame exists, so the test retries with earlier
/// instants until a corruption demonstrably happened.
#[test]
fn garbled_frame_is_detected_and_replayed() {
    let w = Workload::fib(14);
    for at in [500u64, 150, 40, 0] {
        let mut cfg = proc_cfg(2, 2);
        // Round-robin placement keeps cross-shard traffic flowing for the
        // whole run, so the garble flag is guaranteed to find a frame.
        cfg.policy = Policy::RoundRobin;
        let plan = ProcessFaultPlan::none().garble_next(0, 1, VirtualTime(at));
        let report = run_process(&cfg, &w, &plan).expect("launch");
        assert!(report.completed, "garbled run stalled (t={at}): {report}");
        assert_eq!(report.result, Some(w.reference_result().unwrap()));
        if report.decode_errors >= 1 {
            assert!(
                report.reconnects >= 1,
                "rejected frame did not force a reconnect: {report}"
            );
            assert!(
                report.frames_resent >= 1,
                "reconnect did not replay retained frames: {report}"
            );
            return;
        }
        // No decode error means no 0→1 frame followed the arm instant;
        // retry earlier in the run.
    }
    panic!("garble never found a frame to corrupt, even at t=0");
}

/// A one-directional partition gates outbound frames for its window; the
/// retained-replay transport delivers everything once it heals, so the
/// run completes with the right answer and nothing is lost.
#[test]
fn partition_heals_without_loss() {
    let w = Workload::fib(14);
    let mut cfg = proc_cfg(2, 2);
    cfg.policy = Policy::RoundRobin;
    let plan = ProcessFaultPlan::none().partition_out(0, 1, VirtualTime(500), 2_000);
    let report = run_process(&cfg, &w, &plan).expect("launch");
    assert!(report.completed, "partitioned run stalled: {report}");
    assert_eq!(report.result, Some(w.reference_result().unwrap()));
    assert!(report.frames_sent > 0);
}

/// Whole-system death: every shard's worker is killed mid-run. The
/// coordinator must detect the quiescent machine and report a stall —
/// not hang until its timeout, and not invent a result.
/// The kill instants are wall-clock relative and a fast host can finish
/// fib(16) before they land, so the test retries with earlier instants
/// until the massacre demonstrably interrupted the run.
#[test]
fn killing_every_shard_stalls() {
    let w = Workload::fib(16);
    for at in [2_000u64, 500, 100, 10] {
        let cfg = proc_cfg(2, 1);
        let plan = ProcessFaultPlan::none()
            .kill_shard(0, VirtualTime(at))
            .kill_shard(1, VirtualTime(at + 100));
        let report = run_process(&cfg, &w, &plan).expect("launch");
        if report.completed {
            // The run beat the kills to the finish line; retry earlier.
            continue;
        }
        assert!(report.stalled, "all-dead run was not detected as a stall");
        assert_eq!(report.result, None);
        return;
    }
    panic!("every kill landed after completion, even at t=10");
}

/// The replicated super-root on real processes: `kill -9` the shard
/// hosting the acting primary (rank 0 lives on shard `0 % shards`) in
/// the middle of fib(16). The coordinator deposes the dead host's
/// replicas, the next-ranked live replica takes over from the replicated
/// checkpoint and reissues the root wave, and the run completes with the
/// right answer and `root_failovers >= 1`.
///
/// The kill instant is wall-clock relative; a fast host can finish
/// before it lands (`root_failovers == 0`), so the test retries earlier.
#[test]
fn sigkill_of_acting_primary_host_fails_over() {
    let w = Workload::fib(16);
    for at in [3_000u64, 1_000, 300, 10] {
        let mut cfg = proc_cfg(4, 1);
        cfg.policy = Policy::RoundRobin;
        let plan = ProcessFaultPlan::none().kill_shard(0, VirtualTime(at));
        let report = run_process(&cfg, &w, &plan).expect("launch");
        assert!(
            report.completed,
            "primary-host kill at t={at} stalled the run: {report}"
        );
        assert_eq!(
            report.result,
            Some(w.reference_result().unwrap()),
            "primary-host kill at t={at} corrupted the answer"
        );
        assert_eq!(report.root_replicas, 3);
        if report.root_failovers >= 1 {
            return;
        }
        // The run beat the kill; retry earlier.
    }
    panic!("the kill never deposed the acting primary, even at t=10");
}

/// Asymmetric *inbound* partition of the acting primary's host: the
/// victim goes inbound-dark (listener down, peer links severed) while
/// its own outbound links and the control plane stay up — a zombie that
/// still computes and sends but hears nothing. With the coordinator's
/// failure broadcast disabled, the peers must exhaust their reconnect
/// budgets against the missing socket, gossip the death up the driver
/// link, and the coordinator must depose the excommunicated host's root
/// replicas: the run fails over and completes with the right answer.
#[test]
fn inbound_partition_of_primary_host_fails_over() {
    let w = Workload::fib(16);
    for at in [2_000u64, 600, 150, 0] {
        let mut cfg = proc_cfg(2, 1);
        cfg.policy = Policy::RoundRobin;
        cfg.detector_broadcast = false;
        // The window (in 25µs units) comfortably outlasts the peers'
        // full reconnect-backoff ladder, so the blackout is terminal
        // from their point of view.
        let plan = ProcessFaultPlan::none().partition_in(0, VirtualTime(at), 40_000);
        let report = run_process(&cfg, &w, &plan).expect("launch");
        assert!(
            report.completed,
            "inbound partition at t={at} stalled the run: {report}"
        );
        assert_eq!(
            report.result,
            Some(w.reference_result().unwrap()),
            "inbound partition at t={at} corrupted the answer"
        );
        if report.root_failovers >= 1 {
            assert!(
                report.reconnects >= 1,
                "failover without any reconnect attempts: {report}"
            );
            return;
        }
        // The run beat the blackout; retry earlier.
    }
    panic!("the blackout never excommunicated the primary host, even at t=0");
}

/// Byte-level socket noise: roughly every other data frame from shard 0
/// toward shard 1 has one random body byte flipped for the window. Every
/// corruption must be detected (checksum → `decode_errors`), survived
/// (connection drop → reconnect → clean retained replay), and must never
/// corrupt the answer.
#[test]
fn socket_noise_is_detected_and_survived() {
    let w = Workload::fib(14);
    for at in [500u64, 150, 40, 0] {
        let mut cfg = proc_cfg(2, 2);
        cfg.policy = Policy::RoundRobin;
        let plan = ProcessFaultPlan::none().noise_out(0, 1, VirtualTime(at), 4_000);
        let report = run_process(&cfg, &w, &plan).expect("launch");
        assert!(report.completed, "noisy run stalled (t={at}): {report}");
        assert_eq!(report.result, Some(w.reference_result().unwrap()));
        if report.decode_errors >= 1 {
            assert!(
                report.frames_resent >= 1,
                "rejected frames were never replayed: {report}"
            );
            return;
        }
        // The window saw no cross-shard frames; retry earlier.
    }
    panic!("noise never hit a frame, even at t=0");
}

/// `Backend::Process` in the replay layer maps a DES-shaped
/// `(MachineConfig, FaultPlan)` onto the process machine: whole-shard
/// crash plans translate, and the verdict and value match the DES.
#[test]
fn replay_backend_process_translates_shard_crashes() {
    let w = Workload::fib(12);
    let mut cfg = MachineConfig::sharded(2, 2, 0);
    cfg.recovery.mode = RecoveryMode::Splice;
    let plan = FaultPlan::crash_shard(1, 2, VirtualTime(800));
    let (des, _) = execute(Backend::Des, cfg.clone(), &w, &plan);
    let (proc_rep, events) = execute(Backend::Process, cfg, &w, &plan);
    assert!(events.is_empty(), "process backend has no stream to replay");
    assert!(des.completed && proc_rep.completed);
    assert_eq!(proc_rep.result, des.result);
    // The per-processor crash pair collapses into one whole-shard kill.
    assert_eq!(proc_rep.faults, 1);
}

/// The worker rejects specs it cannot rebuild — the coordinator surfaces
/// that as an error instead of wedging the machine.
#[test]
fn unparseable_workload_is_rejected_up_front() {
    let nameless = Workload {
        name: "mystery(3)".into(),
        ..Workload::fib(3)
    };
    let cfg = proc_cfg(1, 2);
    let err = run_process(&cfg, &nameless, &ProcessFaultPlan::none())
        .expect_err("unparseable spec must not launch");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(parse_workload(&nameless.name).is_none());
}
