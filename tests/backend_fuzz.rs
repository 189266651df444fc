//! Differential fault-plan fuzzing: the DES simulator and the cooperative
//! reactor are *independent* schedulers for the same protocol engine
//! (globally time-ordered event queue vs wake-ordered cooperative turns in
//! rounds). The paper argues
//! the recovery protocol's outcome does not depend on how processors are
//! scheduled — so for any fault plan the backends must agree on the
//! verdict (completed / stalled) and, when a run completes, on the final
//! wave value (which must equal the reference evaluator's).
//!
//! Every proptest case derives a random plan — multi-fault crashes with
//! optionally protected processors, corrupt-after-crash mixes, whole-shard
//! massacres, whole-system death — and drives both backends with the same
//! seed and configuration. Fault instants are drawn from the middle of the
//! *shortest* fault-free timeline, so each fault demonstrably lands
//! mid-run on every machine (faults can only push completion later,
//! never earlier). This is exactly the regime where the slow-ack /
//! fast-notice class of bugs (PRs 2 and 4) was hiding: a scheduler
//! ordering one backend can produce and the other cannot.

use proptest::prelude::*;
use splice::core::config::RecoveryMode;
use splice::gradient::Policy;
use splice::prelude::*;
use splice::sim::parallel::run_parallel_reactor;
use splice::sim::report::RunReport;
use splice::sim::{execute, Backend};
use splice::simnet::fault::FaultKind;
use splice::simnet::shrink::{plan_literal, shrink};
use splice::simnet::trace::{first_divergence, TraceMode};

/// splitmix64 — the deterministic stream all plan shapes are derived from.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Small, fast workloads — each fuzz case runs four full machine
/// executions (two baselines, two faulted runs).
fn workload(idx: u64) -> Workload {
    match idx % 3 {
        0 => Workload::fib(9),
        1 => Workload::dcsum(0, 24),
        _ => Workload::quicksort(12, 5),
    }
}

fn flat_cfg(n: u32, mode: RecoveryMode) -> MachineConfig {
    let mut c = MachineConfig::new(n);
    c.policy = Policy::RoundRobin;
    c.recovery.mode = mode;
    // Beacons rearm forever and keep a genuinely wedged run "busy";
    // disabling them keeps quiescence detection crisp on both backends.
    c.recovery.load_beacon_period = 0;
    // A wedge bug should fail fast, not grind through 200M events.
    c.max_events = 2_000_000;
    c
}

fn sharded_cfg(shards: u32, per_shard: u32, mode: RecoveryMode) -> MachineConfig {
    let mut c = MachineConfig::sharded(shards, per_shard, 200);
    c.policy = Policy::RoundRobin;
    c.recovery.mode = mode;
    c.recovery.load_beacon_period = 0;
    c.max_events = 2_000_000;
    c
}

fn verdict(r: &RunReport) -> (bool, bool) {
    (r.completed, r.stalled)
}

fn traced(cfg: &MachineConfig) -> MachineConfig {
    let mut c = cfg.clone();
    c.trace = TraceMode::Full;
    c
}

/// Parity failed: delta-debug the plan against the same disagreement
/// oracle, re-run both backends with full tracing on the minimal plan,
/// and panic with a paste-ready reproducer plus the first canonical trace
/// event on which the minimal runs disagree.
fn explain_divergence(
    cfg: &MachineConfig,
    w: &Workload,
    plan: &FaultPlan,
    left: Backend,
    right: Backend,
    detail: String,
) -> ! {
    let mut oracle = |p: &FaultPlan| {
        let l = execute(left, cfg.clone(), w, p).0;
        let r = execute(right, cfg.clone(), w, p).0;
        (l.completed, l.stalled, l.result) != (r.completed, r.stalled, r.result)
    };
    let report = shrink(plan, &mut oracle);
    let (_, le) = execute(left, traced(cfg), w, &report.plan);
    let (_, re) = execute(right, traced(cfg), w, &report.plan);
    let div = match first_divergence(&le, &re) {
        Some(d) => d.to_string(),
        None => "traces identical (outcome-only divergence)".to_string(),
    };
    panic!(
        "`{left}` vs `{right}` diverged on {} (policy={}): {detail}\n\
         plan shrunk {} -> {} faults in {} probes; minimal reproducer:\n{}\n{div}",
        w.name,
        cfg.recovery.policy.kind.label(),
        report.from_faults,
        report.plan.events.len(),
        report.probes,
        plan_literal(&report.plan),
    );
}

/// The fault window: instants inside the middle of the shorter
/// fault-free timeline — the minimum over the DES and reactor baselines —
/// so each fault demonstrably lands mid-run on both machines.
fn parallel_fault_window(cfg: &MachineConfig, w: &Workload) -> (u64, u64) {
    let sim = run_workload(cfg.clone(), w, &FaultPlan::none());
    assert!(sim.completed, "sim fault-free baseline stalled: {}", w.name);
    let par = run_parallel_reactor(cfg.clone(), w, &FaultPlan::none());
    assert!(
        par.completed,
        "reactor fault-free baseline stalled: {}",
        w.name
    );
    let horizon = sim.finish.ticks().min(par.finish.ticks());
    (horizon / 6 + 1, 2 * horizon / 3 + 2)
}

/// Drives `plan` through the DES and the parallel reactor and asserts
/// scheduler-independent outcomes.
fn assert_parallel_parity(cfg: &MachineConfig, w: &Workload, plan: &FaultPlan) {
    let sim = run_workload(cfg.clone(), w, plan);
    assert!(
        sim.completed || sim.stalled,
        "sim tripped its event budget on {} under {plan:?}",
        w.name
    );
    let par = run_parallel_reactor(cfg.clone(), w, plan);
    assert!(
        par.completed || par.stalled,
        "parallel reactor tripped its budget on {} under {plan:?}",
        w.name
    );
    if verdict(&sim) != verdict(&par) || sim.result != par.result {
        explain_divergence(
            cfg,
            w,
            plan,
            Backend::Des,
            Backend::ParallelReactor,
            format!(
                "sim {:?}/{:?} vs parallel {:?}/{:?}",
                verdict(&sim),
                sim.result,
                verdict(&par),
                par.result
            ),
        );
    }
    if sim.completed {
        assert_eq!(
            sim.result,
            Some(w.reference_result().unwrap()),
            "all backends agreed on a wrong answer for {} under {plan:?}",
            w.name
        );
    }
}

/// One flat-machine case: multi-fault crash plans (with and without
/// protected processors, up to and including whole-system death) mixed
/// with corrupt faults, including corrupt-after-crash on the same victim.
fn flat_case(seed: u64, shape: u8) {
    let mut s = seed;
    let n = 3 + (mix(&mut s) % 5) as u32; // 3..=7 processors
    let mode = if mix(&mut s).is_multiple_of(4) {
        RecoveryMode::Rollback
    } else {
        RecoveryMode::Splice
    };
    let w = workload(mix(&mut s));
    let cfg = flat_cfg(n, mode);
    let (lo, hi) = parallel_fault_window(&cfg, &w);
    let plan = match shape {
        0 => {
            // k distinct random victims; sometimes processor 0 (the
            // launch rotor's first pick) is protected. k can reach n:
            // whole-system death, which must stall identically.
            let protect: &[u32] = if mix(&mut s).is_multiple_of(2) {
                &[0]
            } else {
                &[]
            };
            let k = (mix(&mut s) % u64::from(n + 1)) as usize;
            FaultPlan::random_crashes(
                k,
                n,
                (VirtualTime(lo), VirtualTime(hi)),
                protect,
                mix(&mut s),
            )
        }
        1 => {
            // Every processor dies at one instant: verdict parity on the
            // stall side.
            let t = VirtualTime(lo + mix(&mut s) % (hi - lo).max(1));
            let mut p = FaultPlan::none();
            for v in 0..n {
                p = p.and(v, t, FaultKind::Crash);
            }
            p
        }
        _ => {
            // Crash + corruption mix: one victim crashes then is
            // "corrupted" (must be a no-op on every backend), a second
            // live processor corrupts mid-run (inert without
            // replication), and maybe one more crash.
            let victim = (mix(&mut s) % u64::from(n)) as u32;
            let other = (victim + 1 + (mix(&mut s) % u64::from(n - 1)) as u32) % n;
            let t = lo + mix(&mut s) % (hi - lo).max(1);
            let mut p = FaultPlan::crash_at(victim, VirtualTime(t))
                .and(victim, VirtualTime(t + 1), FaultKind::Corrupt)
                .and(other, VirtualTime(lo), FaultKind::Corrupt);
            if mix(&mut s).is_multiple_of(2) && n > 2 {
                let third = (other + 1) % n;
                if third != victim {
                    p = p.and(third, VirtualTime(hi), FaultKind::Crash);
                }
            }
            p
        }
    };
    assert_parallel_parity(&cfg, &w, &plan);
}

/// One sharded-machine case behind the inter-shard router: whole-shard
/// massacres and cross-shard multi-fault plans with the full decorator
/// stack (`ShardRouter` over `BatchingSubstrate` over the pump substrate),
/// router surcharges included.
fn sharded_case(seed: u64, whole_shard: bool) {
    let mut s = seed;
    let shards = 2 + (mix(&mut s) % 2) as u32; // 2..=3
    let per_shard = 2 + (mix(&mut s) % 2) as u32; // 2..=3
    let n = shards * per_shard;
    let w = workload(mix(&mut s));
    let cfg = sharded_cfg(shards, per_shard, RecoveryMode::Splice);
    let (lo, hi) = parallel_fault_window(&cfg, &w);
    let t = VirtualTime(lo + mix(&mut s) % (hi - lo).max(1));
    let plan = if whole_shard {
        // One whole shard dies — possibly shard 0, which hosts the root
        // at launch.
        let shard = (mix(&mut s) % u64::from(shards)) as u32;
        FaultPlan::crash_shard(shard, per_shard, t)
    } else {
        FaultPlan::random_crashes(
            1 + (mix(&mut s) % u64::from(n - 1)) as usize,
            n,
            (VirtualTime(lo), VirtualTime(hi)),
            &[],
            mix(&mut s),
        )
    };
    assert_parallel_parity(&cfg, &w, &plan);
}

/// Crashes root-replica ranks `0..k` (1 <= k < `replicas`) at random
/// instants inside the window: rank 0 leads at launch, so the acting
/// primary is deposed at least once and a successor must take over.
fn root_crash_plan(s: &mut u64, replicas: u32, (lo, hi): (u64, u64)) -> FaultPlan {
    let k = 1 + (mix(s) % u64::from(replicas - 1)) as u32; // 1..=N-1 deaths
    let mut plan = FaultPlan::none();
    for r in 0..k {
        let t = lo + mix(s) % (hi - lo).max(1);
        plan = plan.crash_root_replica(r, VirtualTime(t));
    }
    plan
}

// Each shape runs under two pinned test names, `sim_and_reactor_*` and
// `sim_and_parallel_reactor_*`: one case body, two case counts.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sim_and_reactor_agree_on_flat_plans(seed in any::<u64>(), shape in 0u8..3) {
        flat_case(seed, shape);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sim_and_parallel_reactor_agree_on_flat_plans(seed in any::<u64>(), shape in 0u8..3) {
        flat_case(seed, shape);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sim_and_reactor_agree_on_sharded_plans(seed in any::<u64>(), whole_shard in any::<bool>()) {
        sharded_case(seed, whole_shard);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sim_and_parallel_reactor_agree_on_sharded_plans(seed in any::<u64>(), whole_shard in any::<bool>()) {
        sharded_case(seed, whole_shard);
    }
}

/// A sharded configuration the multi-process backend can faithfully
/// mirror: round-robin placement (cross-shard traffic without load
/// beacons), beacons off, and an ack timeout generous enough that
/// wall-clock scheduling noise on the process side cannot trigger
/// spurious reissues (which would add duplicate Complete events to the
/// semantic checksum).
#[cfg(unix)]
fn process_cfg(shards: u32, per_shard: u32) -> MachineConfig {
    let mut c = sharded_cfg(shards, per_shard, RecoveryMode::Splice);
    c.recovery.ack_timeout = 40_000;
    c.trace = TraceMode::Checksum;
    c
}

#[cfg(unix)]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// DES vs the *multi-process* machine, fault-free: the same engines
    /// over a deterministic event queue and over real OS processes racing
    /// on Unix sockets must agree on the verdict, the value, and the
    /// commutative semantic trace checksum — the multiset of completed
    /// (stamp, value) pairs is schedule-invariant. (Few cases: each one
    /// forks a fleet of worker processes.)
    #[test]
    fn sim_and_process_agree_fault_free(seed in any::<u64>()) {
        let mut s = seed;
        let shards = 2 + (mix(&mut s) % 2) as u32; // 2..=3
        let per_shard = 1 + (mix(&mut s) % 2) as u32; // 1..=2
        let w = workload(mix(&mut s));
        let cfg = process_cfg(shards, per_shard);
        let (sim, _) = execute(Backend::Des, cfg.clone(), &w, &FaultPlan::none());
        let (proc_rep, events) = execute(Backend::Process, cfg, &w, &FaultPlan::none());
        prop_assert!(events.is_empty(), "the process backend has no replayable stream");
        prop_assert!(sim.completed, "DES baseline stalled on {}", w.name);
        prop_assert!(proc_rep.completed, "process run stalled on {}", w.name);
        prop_assert_eq!(&proc_rep.result, &sim.result);
        prop_assert_eq!(proc_rep.result, Some(w.reference_result().unwrap()));
        prop_assert!(proc_rep.trace.events > 0, "process run traced nothing");
        prop_assert_eq!(
            proc_rep.trace.semantic, sim.trace.semantic,
            "semantic checksum diverged on {}", w.name
        );
    }
}

#[cfg(unix)]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// DES vs the multi-process machine under whole-shard crash plans: the
    /// DES models the crash, the process backend SIGKILLs a live worker.
    /// One shard always survives, so both must complete with the reference
    /// value whether the (wall-clock-mapped) kill lands mid-run or after
    /// the answer; the DES crash demonstrably lands mid-run.
    #[test]
    fn sim_and_process_agree_on_shard_kills(seed in any::<u64>()) {
        let mut s = seed;
        let shards = 2 + (mix(&mut s) % 2) as u32; // 2..=3
        let per_shard = 1 + (mix(&mut s) % 2) as u32; // 1..=2
        let w = workload(mix(&mut s));
        let cfg = process_cfg(shards, per_shard);
        let (lo, hi) = parallel_fault_window(&cfg, &w);
        let t = VirtualTime(lo + mix(&mut s) % (hi - lo).max(1));
        let victim = (mix(&mut s) % u64::from(shards)) as u32;
        let plan = FaultPlan::crash_shard(victim, per_shard, t);
        let (sim, _) = execute(Backend::Des, cfg.clone(), &w, &plan);
        let (proc_rep, _) = execute(Backend::Process, cfg, &w, &plan);
        prop_assert!(sim.completed, "DES did not recover from a shard crash on {}", w.name);
        prop_assert!(proc_rep.completed, "process machine did not recover from SIGKILL on {}", w.name);
        prop_assert_eq!(&proc_rep.result, &sim.result);
        prop_assert_eq!(proc_rep.result, Some(w.reference_result().unwrap()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Root-replica crash plans: the super-root itself is a crash-able
    /// quorum role. Rank 0 leads at launch; crashing ranks `0..k` (k <
    /// N) deposes the acting primary at least once, and a successor must
    /// take over from the replicated checkpoint and reissue the root
    /// wave — so the run still completes with the reference value, on
    /// every backend, optionally with an ordinary processor crash
    /// landing alongside.
    #[test]
    fn sim_and_reactor_agree_on_root_replica_crashes(seed in any::<u64>()) {
        let mut s = seed;
        let n = 3 + (mix(&mut s) % 4) as u32; // 3..=6 processors
        let replicas = 2 + (mix(&mut s) % 3) as u32; // 2..=4 root replicas
        let w = workload(mix(&mut s));
        let mut cfg = flat_cfg(n, RecoveryMode::Splice);
        cfg.recovery.root_replicas = replicas;
        let (lo, hi) = parallel_fault_window(&cfg, &w);
        let mut plan = root_crash_plan(&mut s, replicas, (lo, hi));
        if mix(&mut s).is_multiple_of(2) {
            let v = (mix(&mut s) % u64::from(n)) as u32;
            let t = lo + mix(&mut s) % (hi - lo).max(1);
            plan = plan.and(v, VirtualTime(t), FaultKind::Crash);
        }
        let sim = run_workload(cfg.clone(), &w, &plan);
        prop_assert!(
            sim.completed,
            "DES stalled under root-replica crashes on {}: {plan:?}",
            w.name
        );
        prop_assert!(
            sim.root_failovers >= 1,
            "no failover recorded on {} under {plan:?}",
            w.name
        );
        assert_parallel_parity(&cfg, &w, &plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The root-replica crash leg on the parallel reactor: the same plans
    /// must match the DES verdict and value — the failover replays
    /// identically under the reactor's rounds.
    #[test]
    fn sim_and_parallel_reactor_agree_on_root_replica_crashes(seed in any::<u64>()) {
        let mut s = seed;
        let n = 3 + (mix(&mut s) % 4) as u32;
        let replicas = 2 + (mix(&mut s) % 3) as u32;
        let w = workload(mix(&mut s));
        let mut cfg = flat_cfg(n, RecoveryMode::Splice);
        cfg.recovery.root_replicas = replicas;
        let plan = root_crash_plan(&mut s, replicas, parallel_fault_window(&cfg, &w));
        assert_parallel_parity(&cfg, &w, &plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Killing *every* root replica leaves no successor: inputs to the
    /// super-root role are discarded, the result can never be assembled,
    /// and each backend must quiesce as stalled — a verdict, not a hang
    /// (nor a grind to the event budget).
    #[test]
    fn all_root_replicas_dead_stalls_every_backend(seed in any::<u64>()) {
        let mut s = seed;
        let n = 3 + (mix(&mut s) % 3) as u32;
        let replicas = 1 + (mix(&mut s) % 3) as u32; // 1..=3
        let w = workload(mix(&mut s));
        let mut cfg = flat_cfg(n, RecoveryMode::Splice);
        cfg.recovery.root_replicas = replicas;
        let (lo, hi) = parallel_fault_window(&cfg, &w);
        let mut plan = FaultPlan::none();
        for r in 0..replicas {
            let t = lo + mix(&mut s) % (hi - lo).max(1);
            plan = plan.crash_root_replica(r, VirtualTime(t));
        }
        let sim = run_workload(cfg.clone(), &w, &plan);
        prop_assert!(
            !sim.completed && sim.stalled,
            "DES: quorum death must stall, got completed={} stalled={} on {}",
            sim.completed, sim.stalled, w.name
        );
        let par = run_parallel_reactor(cfg, &w, &plan);
        prop_assert!(
            !par.completed && par.stalled,
            "parallel: quorum death must stall, got completed={} stalled={} on {}",
            par.completed, par.stalled, w.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The recovery-policy axis: one random multi-fault plan (multi-crash
    /// shapes up to whole-system death, optionally protected processor 0,
    /// rollback and splice modes), run under all *three* recovery
    /// policies on the DES and the reactor. Two
    /// properties at once:
    /// within each policy the backends must agree (scheduler
    /// independence, policy included in any shrunk reproducer), and
    /// *across* policies the verdict and value must be identical — the
    /// policies trade recovery cost and timing, never the outcome.
    #[test]
    fn every_policy_agrees_on_verdict_and_value(seed in any::<u64>()) {
        use splice::core::policy::{PolicyKind, PolicySpec};
        let mut s = seed;
        let n = 3 + (mix(&mut s) % 4) as u32; // 3..=6 processors
        let mode = if mix(&mut s).is_multiple_of(4) {
            RecoveryMode::Rollback
        } else {
            RecoveryMode::Splice
        };
        let w = workload(mix(&mut s));
        let base = flat_cfg(n, mode);
        let (lo, hi) = parallel_fault_window(&base, &w);
        let protect: &[u32] = if mix(&mut s).is_multiple_of(2) { &[0] } else { &[] };
        let k = (mix(&mut s) % u64::from(n + 1)) as usize;
        let plan = FaultPlan::random_crashes(
            k,
            n,
            (VirtualTime(lo), VirtualTime(hi)),
            protect,
            mix(&mut s),
        );
        let mut outcomes: Vec<(PolicyKind, (bool, bool), Option<Value>)> = Vec::new();
        for kind in PolicyKind::ALL {
            let mut cfg = base.clone();
            cfg.recovery.policy = PolicySpec::of(kind);
            assert_parallel_parity(&cfg, &w, &plan);
            let r = run_workload(cfg, &w, &plan);
            outcomes.push((kind, verdict(&r), r.result));
        }
        let (k0, v0, r0) = outcomes[0].clone();
        for (kind, v, res) in &outcomes[1..] {
            prop_assert_eq!(
                (v, res), (&v0, &r0),
                "policy {} disagrees with {} on {} under {:?}",
                kind, k0, &w.name, &plan
            );
        }
    }
}
