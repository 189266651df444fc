//! The reactor at scale: 65,536 protocol engines on one pump.
//!
//! One cooperative reactor pump on the caller's thread hosts every engine;
//! an engine is built only when it first has to act. Mid-run, 16k engines
//! — every other engine of the lower half — are massacred with the
//! failure detector disabled: nobody is told, the survivors discover the
//! deaths the hard way — bounced sends, and ack-timeout liveness probes
//! for children that were already placed — and splice recovery rebuilds
//! the lost subtrees.
//!
//! ```sh
//! cargo run --release --example parallel_reactor
//! ```

use splice::prelude::*;
use splice::sim::run_parallel_reactor;
use std::time::Instant;

fn main() {
    let workload = Workload::fib(16);
    let expected = workload.reference_result().unwrap();
    let n: u32 = 65_536;
    println!("engines: {n}");
    println!("reference result:        {expected}");

    let mut cfg = MachineConfig::new(n);
    cfg.policy = Policy::RoundRobin;
    cfg.recovery.mode = RecoveryMode::Splice;
    cfg.recovery.load_beacon_period = 0;
    // Fail-silent: no death broadcasts. With 16k victims a broadcast
    // detector would be a billion notices; instead every survivor learns
    // of a death the hard way, from its own bounced send.
    cfg.detector.broadcast = false;

    let t0 = Instant::now();
    let baseline = run_parallel_reactor(cfg.clone(), &workload, &FaultPlan::none());
    println!(
        "fault-free:              finish={} tasks={} wall={:.1}ms",
        baseline.finish,
        baseline.stats.tasks_completed,
        t0.elapsed().as_secs_f64() * 1e3,
    );

    // Massacre 16k engines mid-run: every odd-numbered engine of the lower
    // half. Round-robin placement concentrates the call tree on low ids,
    // so these victims hold live work — their even-numbered neighbours
    // keep checkpoints of the lost subtrees and splice them back together.
    let crash = VirtualTime((baseline.finish.ticks() / 2).max(1));
    let mut faults = FaultPlan::none();
    for victim in (1..n / 2).step_by(2) {
        faults = faults.and(victim, crash, FaultKind::Crash);
    }
    let t0 = Instant::now();
    let report = run_parallel_reactor(cfg, &workload, &faults);
    println!(
        "16k-engine massacre:     finish={} tasks={} wall={:.1}ms",
        report.finish,
        report.stats.tasks_completed,
        t0.elapsed().as_secs_f64() * 1e3,
    );
    println!(
        "recovery:                reissues={} salvaged={} bounces={}",
        report.stats.reissues, report.stats.salvaged_results, report.bounces,
    );

    // The virtual finish is dominated by the ack-timeout probe that first
    // discovers the silent deaths, so a virtual-time slowdown ratio would
    // only restate the timeout; the wall times above are the honest cost.
    assert_eq!(report.result, Some(expected), "recovered the answer");
    println!("recovered:               the reference answer, via probes and bounces alone");
}
