//! Canonical-trace guarantees, end to end: record → replay bit-identity
//! on every deterministic backend, the golden checksum invariants
//! (per-backend stream determinism, cross-backend semantic agreement),
//! ring-buffer accounting in the report, and the fault-plan shrinker on
//! the archived `noisy-double-crash` reproducer.
//!
//! CI runs `replay_smoke` and `shrinker_reduces` by name as the
//! record/replay smoke gate (see `.github/workflows/ci.yml`).

use splice::core::config::RecoveryMode;
use splice::gradient::Policy;
use splice::prelude::*;
use splice::sim::{archived_plan, execute, record, replay, Backend};
use splice::simnet::fault::FaultKind;
use splice::simnet::shrink::{plan_literal, shrink};
use splice::simnet::trace::{first_divergence, TraceKind, TraceMode};

fn flat_cfg(n: u32) -> MachineConfig {
    let mut c = MachineConfig::new(n);
    c.policy = Policy::RoundRobin;
    c.recovery.load_beacon_period = 0;
    c
}

fn sharded_cfg(shards: u32, per_shard: u32) -> MachineConfig {
    let mut c = MachineConfig::sharded(shards, per_shard, 200);
    c.policy = Policy::RoundRobin;
    c.recovery.mode = RecoveryMode::Splice;
    c.recovery.load_beacon_period = 0;
    c
}

/// A multi-fault plan on the sharded machine: one mid-run crash, a
/// corrupt aimed at the same victim after death (must apply as a no-op),
/// and a second crash in the other shard.
fn multi_fault_plan() -> FaultPlan {
    FaultPlan::crash_at(1, VirtualTime(2_500))
        .and(1, VirtualTime(2_600), FaultKind::Corrupt)
        .and(3, VirtualTime(3_500), FaultKind::Crash)
}

/// Acceptance gate: recording a multi-fault sharded run and replaying its
/// trace reproduces the `RunReport` bit-identically on every backend.
#[test]
fn replay_smoke_multi_fault_sharded_plan_is_bit_identical() {
    let w = Workload::dcsum(0, 40);
    let plan = multi_fault_plan();
    for backend in Backend::ALL {
        let rec = record(backend, sharded_cfg(2, 2), &w, &plan);
        assert!(rec.report.completed, "{backend}: run stalled");
        assert!(!rec.events.is_empty(), "{backend}: no events");
        let rp = replay(&rec);
        assert!(
            rp.bit_identical(),
            "{backend}: replay diverged: {:?} report_matches={}",
            rp.divergence,
            rp.report_matches
        );
    }
}

/// Acceptance gate: the shrinker reduces the archived fuzzer-shaped
/// 10-fault plan to its minimal core (the two early crashes, ≤ 3 faults)
/// and the trace diff against the fault-free run names the first event
/// the surviving faults perturb.
#[test]
fn shrinker_reduces_archived_noisy_double_crash() {
    let (plan, procs) = archived_plan("noisy-double-crash").expect("archived plan");
    let w = Workload::fib(10);
    let cfg = flat_cfg(procs);
    let baseline = execute(Backend::Des, cfg.clone(), &w, &plan).0;
    assert!(!baseline.completed, "archived plan must still be failing");

    let mut oracle = |p: &FaultPlan| !execute(Backend::Des, cfg.clone(), &w, p).0.completed;
    let report = shrink(&plan, &mut oracle);
    assert!(
        report.plan.events.len() <= 3,
        "minimal plan still has {} faults:\n{}",
        report.plan.events.len(),
        plan_literal(&report.plan)
    );
    assert!(
        report
            .plan
            .events
            .iter()
            .all(|e| e.kind == FaultKind::Crash),
        "the essential core is crashes only"
    );

    // Trace-diff the minimal failing run against the fault-free run: the
    // first divergent event is where the surviving faults first bite.
    let mut tcfg = cfg.clone();
    tcfg.trace = TraceMode::Full;
    let (_, clean) = execute(Backend::Des, tcfg.clone(), &w, &FaultPlan::none());
    let (_, faulty) = execute(Backend::Des, tcfg, &w, &report.plan);
    let d = first_divergence(&clean, &faulty).expect("a failing run must diverge from clean");
    // The shrinker pulls fault times toward t=1, so the divergence shows
    // up essentially immediately; what matters is that it is *named*.
    assert!(
        !d.to_string().is_empty(),
        "divergence must render a first event"
    );
}

/// Acceptance gate: the shrinker reduces the archived fuzzer-shaped
/// root-failover plan — 7 faults across the processor *and* root-replica
/// axes — to its essential core, the two live root-replica crashes alone
/// (≤ 3 faults, no processor faults). The minimal run's canonical trace
/// names both takeovers as `RootFailover` events, and the minimal plan
/// replays bit-identically on every deterministic backend.
#[test]
fn shrinker_reduces_archived_root_failover() {
    let (plan, procs) = archived_plan("root-failover").expect("archived plan");
    let w = Workload::fib(10);
    let cfg = flat_cfg(procs);
    let baseline = execute(Backend::Des, cfg.clone(), &w, &plan).0;
    assert!(
        baseline.completed && baseline.root_failovers >= 2,
        "archived plan must still fail over twice and complete: {baseline}"
    );

    let mut oracle = |p: &FaultPlan| {
        let r = execute(Backend::Des, cfg.clone(), &w, p).0;
        r.completed && r.root_failovers >= 2
    };
    let report = shrink(&plan, &mut oracle);
    let kept = report.plan.events.len() + report.plan.root_events.len();
    assert!(
        kept <= 3,
        "minimal plan still has {kept} faults:\n{}",
        plan_literal(&report.plan)
    );
    assert!(
        report.plan.events.is_empty(),
        "the essential core is root-replica crashes only:\n{}",
        plan_literal(&report.plan)
    );

    // The minimal run's trace records each takeover.
    let mut tcfg = cfg.clone();
    tcfg.trace = TraceMode::Full;
    let (_, events) = execute(Backend::Des, tcfg, &w, &report.plan);
    let failovers = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::RootFailover { .. }))
        .count();
    assert!(failovers >= 2, "trace recorded only {failovers} takeovers");

    // And the reproducer is archival-grade: bit-identical replay on
    // every deterministic backend.
    for backend in Backend::ALL {
        let rec = record(backend, cfg.clone(), &w, &report.plan);
        let rp = replay(&rec);
        assert!(
            rp.bit_identical(),
            "{backend}: minimal plan replay diverged: {:?}",
            rp.divergence
        );
    }
}

/// Golden determinism: on a fault-free plan the commutative semantic
/// checksum is byte-identical across the DES and the reactor.
#[test]
fn semantic_checksum_agrees_across_backends_and_pump_counts() {
    let w = Workload::quicksort(16, 9);
    let mut golden = None;
    for backend in Backend::ALL {
        let mut cfg = flat_cfg(4);
        cfg.trace = TraceMode::Checksum;
        let (report, _) = execute(backend, cfg, &w, &FaultPlan::none());
        assert!(report.completed, "{backend} stalled");
        assert!(report.trace.events > 0, "{backend} traced nothing");
        let sum = report.trace.semantic;
        match golden {
            None => golden = Some(sum),
            Some(g) => assert_eq!(
                sum, g,
                "{backend}: semantic checksum {sum:#018x} != golden {g:#018x}"
            ),
        }
    }
}

/// Golden determinism: on a *faulted* plan each backend's order-sensitive
/// stream checksum is identical run over run (per-backend replayability —
/// streams are not comparable across backends).
#[test]
fn stream_checksum_is_deterministic_per_backend() {
    let w = Workload::dcsum(0, 32);
    let plan = FaultPlan::crash_at(2, VirtualTime(2_000));
    for backend in Backend::ALL {
        let mut cfg = flat_cfg(4);
        cfg.trace = TraceMode::Checksum;
        let a = execute(backend, cfg.clone(), &w, &plan).0;
        let b = execute(backend, cfg, &w, &plan).0;
        assert!(a.trace.events > 0, "{backend}: traced nothing");
        assert_eq!(
            a.trace.stream, b.trace.stream,
            "{backend}: stream checksum changed between identical runs"
        );
        assert_eq!(a.trace.semantic, b.trace.semantic);
        assert_eq!(a.trace.events, b.trace.events);
    }
}

/// The ring sink keeps the newest events and reports what it shed: a
/// small ring on a busy run drops events, the count lands in
/// `RunReport.trace.dropped`, and `events` still counts every emission.
#[test]
fn ring_mode_reports_dropped_events() {
    let w = Workload::fib(10);
    let mut cfg = flat_cfg(4);
    cfg.trace = TraceMode::Ring(32);
    let (report, events) = execute(Backend::Des, cfg.clone(), &w, &FaultPlan::none());
    assert!(report.completed);
    assert_eq!(events.len(), 32, "ring retains exactly its capacity");
    assert!(
        report.trace.dropped > 0,
        "a 32-slot ring must shed events on fib(10)"
    );
    assert_eq!(
        report.trace.events,
        report.trace.dropped + events.len() as u64,
        "emitted = retained + dropped"
    );

    // The retained suffix matches the tail of a full recording.
    cfg.trace = TraceMode::Full;
    let (_, full) = execute(Backend::Des, cfg, &w, &FaultPlan::none());
    assert_eq!(&full[full.len() - 32..], events.as_slice());
}
