//! Record → replay verification, and the archived-reproducer registry.
//!
//! A deterministic backend's run is a pure function of `(config,
//! workload, plan)`, and the canonical trace layer makes that claim
//! *checkable*: [`record`] executes a run with full tracing and captures
//! the typed event stream next to the [`RunReport`]; [`replay`] re-executes
//! the same inputs on the same backend and cross-checks both — the first
//! divergent trace event (if any) is pinpointed by
//! [`first_divergence`], and the report is compared field for field. A
//! healthy backend replays bit-identically; anything else is a determinism
//! bug with a named first symptom.
//!
//! The module also keeps [`archived_plan`]: fault plans that once exposed
//! real bugs, pinned by name so CI can replay and re-shrink them forever
//! (`tests/trace_replay.rs` runs them; the `splice-trace` bin exposes them
//! on the command line).

use crate::machine::{Machine, MachineConfig};
use crate::parallel::ParallelReactorMachine;
use crate::report::RunReport;
use splice_applicative::Workload;
use splice_simnet::fault::{FaultKind, FaultPlan};
use splice_simnet::time::VirtualTime;
use splice_simnet::trace::{first_divergence, Divergence, TraceEvent, TraceMode};
use std::fmt;

/// The deterministic front-ends a recording can come from. The threaded
/// runtime is deliberately absent: its event order derives from the wall
/// clock, so only its commutative semantic checksum is comparable — there
/// is no stream to replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The discrete-event simulator (`Machine`).
    Des,
    /// The cooperative reactor (`ParallelReactorMachine`, also known as
    /// `ReactorMachine`).
    ParallelReactor,
    /// The multi-process machine (`proc::run_process`): one OS process
    /// per shard over Unix domain sockets. Wall-clock driven, so it is
    /// *not* in [`Backend::ALL`] and cannot be recorded or replayed —
    /// only its verdict, value and commutative semantic checksum are
    /// comparable across runs.
    Process,
}

impl Backend {
    /// Every deterministic backend, in canonical order. The process
    /// backend is deliberately absent: no stream to replay.
    pub const ALL: [Backend; 2] = [Backend::Des, Backend::ParallelReactor];

    /// Stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Des => "des",
            Backend::ParallelReactor => "parallel",
            Backend::Process => "process",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == s)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded run: the inputs that produced it and everything it
/// produced — enough to re-execute and compare.
pub struct Recording {
    /// The front-end that ran.
    pub backend: Backend,
    /// The exact configuration (trace mode forced to [`TraceMode::Full`]).
    pub cfg: MachineConfig,
    /// The workload.
    pub workload: Workload,
    /// The fault plan.
    pub plan: FaultPlan,
    /// The canonical event stream, in emission order.
    pub events: Vec<TraceEvent>,
    /// The run's report.
    pub report: RunReport,
}

/// Executes `(backend, cfg, workload, plan)` and returns the report plus
/// whatever trace events the configured mode retained.
///
/// [`Backend::Process`] launches real worker processes: the plan must map
/// onto whole shards ([`ProcessFaultPlan::from_plan`] is the arbiter —
/// partial-shard crashes and corrupt events panic here), the returned
/// event list is always empty (only the report's semantic checksum is
/// comparable), and the workload name must be one of the stock specs.
///
/// [`ProcessFaultPlan::from_plan`]: splice_simnet::fault::ProcessFaultPlan::from_plan
pub fn execute(
    backend: Backend,
    cfg: MachineConfig,
    workload: &Workload,
    plan: &FaultPlan,
) -> (RunReport, Vec<TraceEvent>) {
    match backend {
        Backend::Des => Machine::new(cfg, workload).run_traced(plan),
        Backend::ParallelReactor => ParallelReactorMachine::new(cfg, workload).run_traced(plan),
        #[cfg(unix)]
        Backend::Process => {
            let shards = cfg.topology.shard_count().max(1);
            let per_shard = cfg.topology.per_shard().max(1);
            let proc_plan =
                splice_simnet::fault::ProcessFaultPlan::from_plan(plan, shards, per_shard)
                    .expect("fault plan does not map onto whole shards");
            let mut pc = crate::proc::ProcConfig::new(shards, per_shard);
            pc.policy = cfg.policy;
            pc.recovery = cfg.recovery.clone();
            pc.detector_broadcast = cfg.detector.broadcast;
            pc.router_latency = cfg.router_latency;
            pc.seed = cfg.seed;
            pc.trace = cfg.trace;
            let report = crate::proc::run_process(&pc, workload, &proc_plan)
                .expect("process backend failed to launch");
            (report, Vec::new())
        }
        #[cfg(not(unix))]
        Backend::Process => panic!("the process backend requires a unix host"),
    }
}

/// Runs `(backend, cfg, workload, plan)` with full tracing and captures
/// the result as a [`Recording`].
pub fn record(
    backend: Backend,
    mut cfg: MachineConfig,
    workload: &Workload,
    plan: &FaultPlan,
) -> Recording {
    cfg.trace = TraceMode::Full;
    let (report, events) = execute(backend, cfg.clone(), workload, plan);
    Recording {
        backend,
        cfg,
        workload: workload.clone(),
        plan: plan.clone(),
        events,
        report,
    }
}

/// What replaying a [`Recording`] found.
pub struct Replay {
    /// First place the fresh event stream disagrees with the recording
    /// (`None` = traces identical).
    pub divergence: Option<Divergence>,
    /// True when the fresh [`RunReport`] equals the recorded one, field
    /// for field.
    pub report_matches: bool,
    /// The fresh report, for inspection when it does not match.
    pub fresh: RunReport,
}

impl Replay {
    /// True when the run reproduced bit-identically: no trace divergence
    /// and an equal report.
    pub fn bit_identical(&self) -> bool {
        self.divergence.is_none() && self.report_matches
    }
}

/// Re-executes a recording's inputs on its backend and cross-checks the
/// trace stream and the report.
pub fn replay(rec: &Recording) -> Replay {
    let (fresh, events) = execute(rec.backend, rec.cfg.clone(), &rec.workload, &rec.plan);
    Replay {
        divergence: first_divergence(&rec.events, &events),
        report_matches: fresh == rec.report,
        fresh,
    }
}

/// Archived fault plans that once exposed real bugs, by stable name.
///
/// Each entry is a *noisy* plan — the shape a fuzzer hands you — whose
/// essential core is much smaller; CI re-runs the shrinker against the
/// matching oracle to prove the reducer still finds the minimal
/// reproducer, and the replay smoke re-records it. Returns the plan and
/// the processor count it is written against.
pub fn archived_plan(name: &str) -> Option<(FaultPlan, u32)> {
    match name {
        // A fuzzer-shaped double-crash: both engines of a 2-processor
        // machine die mid-run (the run can only stall), buried under
        // corrupt events, late crashes and faults aimed at dead victims.
        // The minimal reproducer is the two early crashes alone.
        "noisy-double-crash" => {
            let mut plan = FaultPlan::none();
            for (victim, at, kind) in [
                (0u32, 900u64, FaultKind::Corrupt),
                (1, 1_000, FaultKind::Crash),
                (0, 1_100, FaultKind::Corrupt),
                (1, 1_200, FaultKind::Corrupt),
                (0, 1_400, FaultKind::Crash),
                (1, 1_500, FaultKind::Crash),
                (0, 1_600, FaultKind::Crash),
                (1, 2_000, FaultKind::Corrupt),
                (0, 2_200, FaultKind::Crash),
                (1, 2_400, FaultKind::Crash),
            ] {
                plan = plan.and(victim, VirtualTime(at), kind);
            }
            Some((plan, 2))
        }
        // A fuzzer-shaped root-quorum failover: the two leading replicas
        // of the default 3-replica super-root quorum die mid-run — two
        // successive takeovers, after which the run must still complete —
        // buried under processor corrupts, a processor crash, and a root
        // crash aimed at an already-dead rank. The minimal reproducer is
        // the two live root-replica crashes alone.
        "root-failover" => {
            let plan = FaultPlan::none()
                .and(0, VirtualTime(900), FaultKind::Corrupt)
                .crash_root_replica(0, VirtualTime(1_000))
                .and(1, VirtualTime(1_100), FaultKind::Corrupt)
                .crash_root_replica(1, VirtualTime(1_400))
                .crash_root_replica(0, VirtualTime(1_500))
                .and(2, VirtualTime(1_600), FaultKind::Crash)
                .and(0, VirtualTime(2_000), FaultKind::Corrupt);
            Some((plan, 3))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_gradient::Policy;

    fn cfg(n: u32) -> MachineConfig {
        let mut c = MachineConfig::new(n);
        c.policy = Policy::RoundRobin;
        c.recovery.load_beacon_period = 0;
        c
    }

    #[test]
    fn record_then_replay_is_bit_identical_on_every_backend() {
        let w = Workload::fib(10);
        let plan = FaultPlan::crash_at(2, VirtualTime(2_000));
        for backend in Backend::ALL {
            let rec = record(backend, cfg(4), &w, &plan);
            assert!(rec.report.completed, "{backend}: run stalled");
            assert!(!rec.events.is_empty(), "{backend}: no events recorded");
            let rp = replay(&rec);
            assert!(
                rp.bit_identical(),
                "{backend}: divergence={:?} report_matches={}",
                rp.divergence,
                rp.report_matches
            );
        }
    }

    #[test]
    fn replay_pinpoints_a_tampered_event() {
        let w = Workload::fib(9);
        let mut rec = record(Backend::Des, cfg(3), &w, &FaultPlan::none());
        // Corrupt one recorded event: replay must point at exactly it.
        let idx = rec.events.len() / 2;
        rec.events[idx].at = VirtualTime(rec.events[idx].at.ticks() + 1);
        let rp = replay(&rec);
        let d = rp.divergence.expect("tampered trace must diverge");
        assert_eq!(d.index, idx);
        assert!(rp.report_matches, "the report itself is untouched");
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("nope"), None);
    }

    #[test]
    fn archived_plans_resolve_by_name() {
        let (plan, n) = archived_plan("noisy-double-crash").expect("archived");
        assert_eq!(n, 2);
        assert_eq!(plan.events.len(), 10);
        let (plan, n) = archived_plan("root-failover").expect("archived");
        assert_eq!(n, 3);
        assert_eq!((plan.events.len(), plan.root_events.len()), (4, 3));
        assert!(archived_plan("unknown").is_none());
    }
}
