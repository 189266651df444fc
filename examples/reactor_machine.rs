//! The cooperative reactor: thousands of protocol engines on one thread.
//!
//! No thread per processor, no event-queue latency model — a hand-rolled
//! reactor (ready queue + waker flags + timer wheels) pumps every engine
//! cooperatively. Same config, same fault plans, same report as the DES
//! machine; an independent scheduler for the same recovery protocol.
//!
//! ```sh
//! cargo run --release --example reactor_machine
//! ```

use splice::prelude::*;
use splice::sim::reactor::run_reactor;
use std::time::Instant;

fn main() {
    let workload = Workload::fib(16);
    let expected = workload.reference_result().unwrap();
    println!("reference result:       {expected}");

    // 2048 engines on one thread — a processor count no thread-per-
    // processor backend could host. Round-robin placement spreads the
    // call tree across all of them; beacons stay off (they inform the
    // gradient placer, not round-robin).
    let mut cfg = MachineConfig::new(2_048);
    cfg.policy = Policy::RoundRobin;
    cfg.recovery.mode = RecoveryMode::Splice;
    cfg.recovery.load_beacon_period = 0;

    let t0 = Instant::now();
    let baseline = run_reactor(cfg.clone(), &workload, &FaultPlan::none());
    println!(
        "fault-free:             finish={} tasks={} wall={:.1}ms",
        baseline.finish,
        baseline.stats.tasks_completed,
        t0.elapsed().as_secs_f64() * 1e3,
    );

    // Now crash 32 engines at once, mid-run, and let splice recovery
    // rebuild the lost subtrees.
    let crash = VirtualTime((baseline.finish.ticks() / 2).max(1));
    let mut faults = FaultPlan::none();
    for victim in (0..2_048).step_by(64) {
        faults = faults.and(victim, crash, FaultKind::Crash);
    }
    let t0 = Instant::now();
    let report = run_reactor(cfg, &workload, &faults);
    println!(
        "32-engine massacre:     finish={} tasks={} wall={:.1}ms",
        report.finish,
        report.stats.tasks_completed,
        t0.elapsed().as_secs_f64() * 1e3,
    );
    println!(
        "recovery:               reissues={} salvaged={} bounces={} root_reissues={}",
        report.stats.reissues, report.stats.salvaged_results, report.bounces, report.root_reissues
    );

    assert_eq!(report.result, Some(expected), "recovered the answer");
    println!(
        "slowdown vs fault-free: {:.2}×",
        report.slowdown_vs(&baseline)
    );
}
