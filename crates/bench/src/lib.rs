//! Shared helpers for the experiment benches.
//!
//! Bench targets follow the experiments of `splice_sim::experiment`: the
//! benches time the runs whose *measurements* the `experiments` binary
//! prints, so regressions in either speed or protocol behaviour surface in
//! `cargo bench`.

use criterion::Criterion;
use splice_applicative::Workload;
use splice_core::config::RecoveryMode;
use splice_sim::machine::{run_workload, MachineConfig};
use splice_sim::report::RunReport;
use splice_simnet::fault::FaultPlan;
use splice_simnet::time::VirtualTime;

/// A criterion instance tuned so the full suite stays in the minutes range.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .configure_from_args()
}

/// Default experiment machine.
pub fn config(n: u32, mode: RecoveryMode) -> MachineConfig {
    let mut cfg = MachineConfig::new(n);
    cfg.recovery.mode = mode;
    cfg
}

/// Runs a workload fault-free and returns the report.
pub fn fault_free(n: u32, mode: RecoveryMode, w: &Workload) -> RunReport {
    run_workload(config(n, mode), w, &FaultPlan::none())
}

/// A crash plan at `frac` of the fault-free completion time of `base`.
pub fn crash_at_fraction(base: &RunReport, victim: u32, frac: f64) -> FaultPlan {
    FaultPlan::crash_at(
        victim,
        VirtualTime((base.finish.ticks() as f64 * frac) as u64 + 1),
    )
}

/// Asserts a run produced the workload's reference answer — benches must
/// never time a broken run.
pub fn assert_correct(w: &Workload, r: &RunReport) {
    assert!(r.completed, "{} stalled", w.name);
    assert_eq!(
        r.result,
        Some(w.reference_result().unwrap()),
        "{} wrong answer",
        w.name
    );
}

/// The substrate micro-bench evaluator workload. Shared by
/// `benches/substrate.rs` and the `bench_trajectory` bin so both measure
/// the same scenario under the same metric names.
pub fn substrate_workload() -> Workload {
    Workload::fib(15)
}

/// One iteration of the `event_queue_push_pop_10k` scenario: 10k pushes
/// on the 7919-stride schedule, then a full drain.
pub fn event_queue_push_pop_10k() -> u64 {
    let mut q = splice_simnet::queue::EventQueue::new();
    for i in 0..10_000u64 {
        q.push(VirtualTime(i * 7919 % 10_000), i);
    }
    let mut sum = 0u64;
    while let Some((_, e)) = q.pop() {
        sum = sum.wrapping_add(e);
    }
    sum
}

/// One iteration of the `torus_distance_64x64` scenario: the all-pairs
/// hop-distance scan on the 8×8 wrapped mesh.
pub fn torus_distance_64x64() -> u32 {
    let torus = splice_simnet::topology::Topology::Mesh {
        w: 8,
        h: 8,
        wrap: true,
    };
    let mut acc = 0u32;
    for a in 0..64 {
        for b in 0..64 {
            acc += torus.distance(a, b);
        }
    }
    acc
}

/// The E11 scalability workload. Shared by `benches/e11_scalability.rs`
/// and the `bench_trajectory` bin so the criterion bench and the
/// trajectory file always measure the same scenario.
pub fn e11_workload() -> Workload {
    Workload::mapreduce(0, 32, 8)
}

/// The E11 sweep: processor counts × recovery-mode labels.
pub const E11_SWEEP: ([u32; 4], [(&str, RecoveryMode); 2]) = (
    [2, 4, 8, 16],
    [
        ("none", RecoveryMode::None),
        ("splice", RecoveryMode::Splice),
    ],
);

/// The E14 machine: 4×4 shards, 400-tick router, splice recovery,
/// round-robin placement (spreads the tree across every shard, so both
/// victim choices demonstrably hold live work).
pub fn e14_config() -> MachineConfig {
    let mut cfg = MachineConfig::sharded(4, 4, 400);
    cfg.recovery.mode = RecoveryMode::Splice;
    cfg.policy = splice_gradient::Policy::RoundRobin;
    cfg
}

/// The E14 workload.
pub fn e14_workload() -> Workload {
    Workload::fib(13)
}

/// The E14 cases at a given crash instant: processor 1 shares shard 0
/// with the root (intra-shard recovery), processor 13 lives in shard 3
/// (recovery crosses the router), and shard 3 dies wholesale.
pub fn e14_cases(crash: VirtualTime) -> [(&'static str, FaultPlan); 4] {
    [
        ("fault_free", FaultPlan::none()),
        ("intra_shard_crash", FaultPlan::crash_at(1, crash)),
        ("cross_shard_crash", FaultPlan::crash_at(13, crash)),
        ("whole_shard_crash", FaultPlan::crash_shard(3, 4, crash)),
    ]
}

/// The E15 machine: 8 processors behind the batched-delivery bus with the
/// given flush `window`, splice recovery, and an ack timeout sized for the
/// largest window of [`E15_WINDOWS`] (uniform across the sweep so the
/// window is the only variable).
pub fn e15_config(window: u64) -> MachineConfig {
    let max = E15_WINDOWS.iter().copied().max().unwrap_or(0);
    let mut cfg = MachineConfig::batched(8, window);
    cfg.recovery.mode = RecoveryMode::Splice;
    cfg.recovery.ack_timeout = MachineConfig::batched(8, max).recovery.ack_timeout;
    cfg
}

/// The E15 workload.
pub fn e15_workload() -> Workload {
    Workload::fib(13)
}

/// The E15 flush-window sweep.
pub const E15_WINDOWS: [u64; 3] = [0, 200, 2_000];

/// The E16 reactor machine: `engines` cooperative engines pumped on one
/// thread, splice recovery, round-robin placement (cheap to build at
/// thousands of engines and spreads the tree across all of them), load
/// beacons off (4096 idle beacon timers would swamp the ready loop
/// without informing round-robin placement at all).
pub fn e16_config(engines: u32) -> MachineConfig {
    let mut cfg = MachineConfig::new(engines);
    cfg.recovery.mode = RecoveryMode::Splice;
    cfg.policy = splice_gradient::Policy::RoundRobin;
    cfg.recovery.load_beacon_period = 0;
    cfg
}

/// The E16 workload — big enough that every engine count below a few
/// thousand sees real work per engine.
pub fn e16_workload() -> Workload {
    Workload::fib(16)
}

/// The E16 engine-count sweep: OS-thread scale up to "millions of
/// users"-shaped counts no thread-per-processor backend can host.
pub const E16_ENGINES: [u32; 4] = [64, 256, 1024, 4096];

/// The E16-threads machine: the same engines on the multi-core parallel
/// reactor, partitioned across `threads` pumps. Identical knobs to
/// [`e16_config`] so the single-pump reactor and the one-thread parallel
/// reactor are directly comparable.
pub fn e16_threads_config(engines: u32, threads: u32) -> MachineConfig {
    let mut cfg = e16_config(engines);
    cfg.threads = threads;
    cfg
}

/// The E16-threads pump counts.
pub const E16_THREADS: [u32; 3] = [1, 2, 4];

/// The E16-threads engine counts — the top of the single-thread sweep
/// plus a tier no per-engine-thread backend could host.
pub const E16_THREAD_ENGINES: [u32; 2] = [4_096, 16_384];

/// The E18 machine: 8 processors, splice recovery, the given recovery
/// policy. Shared by `benches/e18_policies.rs` and the `bench_trajectory`
/// bin so both time the same policy zoo.
pub fn e18_config(kind: splice_core::policy::PolicyKind) -> MachineConfig {
    let mut cfg = config(8, RecoveryMode::Splice);
    cfg.recovery.policy = splice_core::policy::PolicySpec::of(kind);
    cfg
}

/// The E18 workload.
pub fn e18_workload() -> Workload {
    Workload::fib(14)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_correct_runs() {
        let w = Workload::fib(10);
        let base = fault_free(4, RecoveryMode::Splice, &w);
        assert_correct(&w, &base);
        let plan = crash_at_fraction(&base, 2, 0.5);
        let r = run_workload(config(4, RecoveryMode::Splice), &w, &plan);
        assert_correct(&w, &r);
    }
}
