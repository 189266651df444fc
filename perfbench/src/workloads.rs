//! The five workloads: what each runs, how a sample is taken, and how
//! every run is checked.
//!
//! A *sample* is one complete evaluation per leg: build the machine, run
//! it, verify the answer. A paired workload runs two legs back to back in
//! alternating order, so ratios can be taken inside each pair. The load is
//! a closed loop with one evaluation in flight, generated from this single
//! process; the only other threads and processes are the system under
//! test's own.

use crate::span::Recorder;
use splice_applicative::{Value, Workload};
use splice_core::config::RecoveryMode;
use splice_gradient::Policy;
use splice_sim::machine::{Machine, MachineConfig};
use splice_sim::parallel::ParallelReactorMachine;
use splice_sim::proc::{run_process, ProcConfig};
use splice_sim::report::RunReport;
use splice_simnet::fault::{FaultPlan, ProcessFaultPlan};
use splice_simnet::time::VirtualTime;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    DesFineFf,
    DesCrashStorm,
    ParFleetFf,
    ProcTreeKill,
    ProcChainFf,
}

/// The two legs a sample can have. `Base` is the cheaper run a paired
/// workload compares against (no checkpointing, or no fault); `Main` is
/// the run every workload has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Leg {
    Base,
    Main,
}

/// What the `Main ÷ Base` ratio of a paired workload means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pairing {
    /// Unpaired: `Main` only.
    None,
    /// `Base` runs with `RecoveryMode::None`: the ratio is the fault-free
    /// overhead of functional checkpointing.
    Overhead,
    /// `Base` is fault-free, `Main` runs the fault plan: the ratio is what
    /// the crashes cost.
    Crash,
}

/// Two inputs are fixed rather than drawn from `--seed`, because results
/// must be comparable between runs at different seeds and these inputs
/// move them far beyond any bound: another quicksort list changes the run
/// time by ±16 % (even among lists with equal task counts, ±6 %), and
/// another set of random crash victims changes the virtual-time slowdown
/// by ±15 %. `--seed` reaches `MachineConfig::seed` and `ProcConfig::seed`
/// (stochastic placers, transport back-off jitter) and the hold-model
/// increments of the traced pass.
const CHAIN_LIST: (usize, u64) = (96, 1);
const STORM_PLAN_SEED: u64 = 1;

/// Fault-free runs whose median finish places the next process kill.
const RECENT: usize = 5;

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::DesFineFf,
        WorkloadId::DesCrashStorm,
        WorkloadId::ParFleetFf,
        WorkloadId::ProcTreeKill,
        WorkloadId::ProcChainFf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::DesFineFf => "des_fine_ff",
            WorkloadId::DesCrashStorm => "des_crash_storm",
            WorkloadId::ParFleetFf => "par_fleet_ff",
            WorkloadId::ProcTreeKill => "proc_tree_kill",
            WorkloadId::ProcChainFf => "proc_chain_ff",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn pairing(self) -> Pairing {
        match self {
            WorkloadId::DesFineFf => Pairing::Overhead,
            WorkloadId::DesCrashStorm | WorkloadId::ProcTreeKill => Pairing::Crash,
            WorkloadId::ParFleetFf | WorkloadId::ProcChainFf => Pairing::None,
        }
    }

    /// The leg whose host time `run_ms_*` and `tasks_per_s` report.
    pub fn primary(self) -> Leg {
        match self {
            // The kill leg is dominated by detection and reconnect timers;
            // the fault-free leg is the throughput figure.
            WorkloadId::ProcTreeKill => Leg::Base,
            _ => Leg::Main,
        }
    }

    /// True when runs happen in virtual time and must repeat exactly.
    pub fn is_des(self) -> bool {
        matches!(self, WorkloadId::DesFineFf | WorkloadId::DesCrashStorm)
    }

    /// True on the process backend, whose `RunReport::finish` is wall
    /// clock; everywhere else it is a virtual clock reading.
    pub fn is_proc(self) -> bool {
        matches!(self, WorkloadId::ProcTreeKill | WorkloadId::ProcChainFf)
    }
}

// ---------------------------------------------------------------------------
// Machine shapes (shared with the layer drivers, which vary one field)
// ---------------------------------------------------------------------------

/// `des_fine_ff`: 8 processors, complete graph, gradient placement,
/// default link and detector.
pub fn fine_cfg(seed: u64, mode: RecoveryMode) -> MachineConfig {
    let mut cfg = MachineConfig::new(8);
    cfg.seed = seed;
    cfg.recovery.mode = mode;
    cfg
}

/// `des_crash_storm`: 4 shards × 4 behind a 400-tick router, round-robin.
pub fn storm_cfg(seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::sharded(4, 4, 400);
    cfg.seed = seed;
    cfg.policy = Policy::RoundRobin;
    cfg
}

/// `par_fleet_ff`: 16 384 mostly idle engines on `threads` pumps.
pub fn fleet_cfg(seed: u64, threads: u32) -> MachineConfig {
    let mut cfg = MachineConfig::new(16_384);
    cfg.seed = seed;
    cfg.policy = Policy::RoundRobin;
    cfg.recovery.load_beacon_period = 0;
    cfg.threads = threads;
    cfg
}

/// `proc_*`: 4 worker processes × 4 engines over Unix sockets.
pub fn proc_cfg(seed: u64) -> ProcConfig {
    let mut cfg = ProcConfig::new(4, 4);
    cfg.seed = seed;
    cfg.policy = Policy::RoundRobin;
    cfg
}

/// The crash-storm plan, placed on the fault-free finish `f` of the same
/// machine: three random crashes in `[0.2f, 0.8f)`, shard 2 wholesale at
/// `0.6f`, and the acting root replica at `0.5f` — 7 of 16 processors.
pub fn storm_plan(f: u64) -> FaultPlan {
    let at = |x: f64| VirtualTime((f as f64 * x) as u64);
    let mut plan = FaultPlan::random_crashes(
        3,
        16,
        (at(0.2), at(0.8)),
        &[0, 8, 9, 10, 11],
        STORM_PLAN_SEED,
    );
    plan.events
        .extend(FaultPlan::crash_shard(2, 4, at(0.6)).events);
    plan.crash_root_replica(0, at(0.5))
}

// ---------------------------------------------------------------------------
// A prepared workload
// ---------------------------------------------------------------------------

/// One leg's outcome: host time of build + run (`ms`), the build part of
/// it (0 where the backend has no separate constructor), and the report.
pub struct LegRun {
    pub ms: f64,
    pub build_ms: f64,
    pub report: RunReport,
}

/// One sample: the legs that ran, each verified or failed with a reason.
pub struct Sample {
    pub base: Option<Result<LegRun, String>>,
    pub main: Result<LegRun, String>,
}

impl Sample {
    pub fn legs(&self) -> impl Iterator<Item = &Result<LegRun, String>> {
        self.base.iter().chain(std::iter::once(&self.main))
    }

    pub fn leg(&self, leg: Leg) -> Option<&LegRun> {
        match leg {
            Leg::Base => self.base.as_ref()?.as_ref().ok(),
            Leg::Main => self.main.as_ref().ok(),
        }
    }
}

/// Everything set-up produces: the program, its reference answer, and the
/// fault plans placed from measured base runs.
pub struct Prepared {
    pub id: WorkloadId,
    pub seed: u64,
    pub program: Workload,
    pub expected: Value,
    /// Tasks in the reference call tree (`Workload::analyze`).
    pub tasks: u64,
    des_plan: FaultPlan,
    proc_plan: ProcessFaultPlan,
    /// Instant of the process kill in driver time units: a third of the
    /// median of `recent_finish`.
    kill_at: u64,
    /// Finish of the last [`RECENT`] verified fault-free process runs.
    recent_finish: VecDeque<u64>,
    /// Processors the `Main` leg's plan kills.
    pub crashes: u32,
    /// `(events, finish, work_units)` of the first run of each DES leg;
    /// every later run must repeat it exactly.
    first: [Option<(u64, u64, u64)>; 2],
}

impl Prepared {
    /// Set-up: parse the program, evaluate the reference answer, find the
    /// worker binary, make the base run that places the faults, and take
    /// two warm-up samples.
    pub fn new(id: WorkloadId, seed: u64, rec: &mut Recorder) -> Result<Prepared, String> {
        let program = match id {
            WorkloadId::DesFineFf => Workload::fib(18),
            WorkloadId::DesCrashStorm | WorkloadId::ProcTreeKill => Workload::fib(16),
            WorkloadId::ParFleetFf => Workload::fib(14),
            WorkloadId::ProcChainFf => Workload::quicksort(CHAIN_LIST.0, CHAIN_LIST.1),
        };
        let (expected, tree) = program
            .analyze()
            .map_err(|e| format!("reference evaluation failed: {e}"))?;
        if id.is_proc() && proc_cfg(seed).worker_bin_path().is_none() {
            return Err("splice-proc-worker is not built next to this binary; \
                        run perfbench/run.sh, which builds it first"
                .to_string());
        }
        let mut p = Prepared {
            id,
            seed,
            program,
            expected,
            tasks: tree.tasks,
            des_plan: FaultPlan::none(),
            proc_plan: ProcessFaultPlan::none(),
            kill_at: 0,
            recent_finish: VecDeque::new(),
            crashes: 0,
            first: [None, None],
        };
        // Faults are placed on a measured fault-free run, never on a
        // constant: a fixed instant races completion as the code gets
        // faster or slower.
        match id {
            WorkloadId::DesCrashStorm => {
                let base = p.checked(Leg::Base, rec)?;
                p.des_plan = storm_plan(base.report.finish.ticks());
                p.crashes = p.des_plan.crashes() as u32;
            }
            WorkloadId::ProcTreeKill => {
                // The first run of a process pays for loading the worker
                // binary; the warm-ups below place the kill on warm runs.
                p.checked(Leg::Base, rec)?;
            }
            _ => {}
        }
        for i in 0..2 {
            let warm = p.sample(i, rec);
            let failed = warm.legs().find_map(|l| l.as_ref().err());
            if let Some(e) = failed {
                return Err(format!("warm-up run failed: {e}"));
            }
        }
        Ok(p)
    }

    /// Places the kill of shard 3's worker at `at` driver time units.
    fn set_kill_at(&mut self, at: u64) {
        self.kill_at = at;
        self.proc_plan = ProcessFaultPlan::none().kill_shard(3, VirtualTime(at));
        self.crashes = proc_cfg(self.seed).per_shard;
    }

    /// Takes sample `i`: every leg of the workload, in an order that
    /// alternates with `i`.
    pub fn sample(&mut self, i: usize, rec: &mut Recorder) -> Sample {
        rec.next_sample();
        let open = rec.enter("bench.sample");
        let sample = if self.id.pairing() == Pairing::None {
            Sample {
                base: None,
                main: self.checked(Leg::Main, rec),
            }
        } else if i.is_multiple_of(2) {
            let base = self.checked(Leg::Base, rec);
            let main = self.checked(Leg::Main, rec);
            Sample {
                base: Some(base),
                main,
            }
        } else {
            let main = self.checked(Leg::Main, rec);
            let base = self.checked(Leg::Base, rec);
            Sample {
                base: Some(base),
                main,
            }
        };
        rec.exit(open);
        sample
    }

    /// Runs one leg and checks it. A panic inside the system under test is
    /// a failed run like any other, so it cannot hide the remaining ones.
    fn checked(&mut self, leg: Leg, rec: &mut Recorder) -> Result<LegRun, String> {
        let run = catch_unwind(AssertUnwindSafe(|| self.run_leg(leg, rec)))
            .unwrap_or_else(|_| Err("panicked".to_string()))?;
        self.verify(leg, &run.report)?;
        Ok(run)
    }

    fn run_leg(&self, leg: Leg, rec: &mut Recorder) -> Result<LegRun, String> {
        let w = &self.program;
        match self.id {
            WorkloadId::DesFineFf => {
                let mode = match leg {
                    Leg::Base => RecoveryMode::None,
                    Leg::Main => RecoveryMode::Splice,
                };
                Ok(run_des(
                    fine_cfg(self.seed, mode),
                    w,
                    &FaultPlan::none(),
                    rec,
                ))
            }
            WorkloadId::DesCrashStorm => {
                let none = FaultPlan::none();
                let plan = match leg {
                    Leg::Base => &none,
                    Leg::Main => &self.des_plan,
                };
                Ok(run_des(storm_cfg(self.seed), w, plan, rec))
            }
            WorkloadId::ParFleetFf => Ok(run_parallel(fleet_cfg(self.seed, 2), w, rec)),
            WorkloadId::ProcTreeKill | WorkloadId::ProcChainFf => {
                let none = ProcessFaultPlan::none();
                let plan = match (self.id, leg) {
                    (WorkloadId::ProcTreeKill, Leg::Main) => &self.proc_plan,
                    _ => &none,
                };
                run_proc(&proc_cfg(self.seed), w, plan, rec)
            }
        }
    }

    /// The check every run gets, the layer drivers' included: it finished
    /// and produced the reference answer.
    pub fn check_answer(&self, r: &RunReport) -> Result<(), String> {
        if !r.completed {
            return Err(if r.stalled {
                "stalled"
            } else {
                "budget tripped"
            }
            .to_string());
        }
        if r.result.as_ref() != Some(&self.expected) {
            return Err("wrong answer".to_string());
        }
        Ok(())
    }

    fn verify(&mut self, leg: Leg, r: &RunReport) -> Result<(), String> {
        self.check_answer(r)?;
        if self.id == WorkloadId::ProcTreeKill {
            match leg {
                // The kill follows the host's speed: a slow phase during
                // set-up would otherwise place every later kill too late,
                // where recovery is a different, cheaper path. The median
                // keeps one stalled run from doing the same.
                Leg::Base => {
                    self.recent_finish.push_back(r.finish.ticks());
                    if self.recent_finish.len() > RECENT {
                        self.recent_finish.pop_front();
                    }
                    let mut sorted: Vec<u64> = self.recent_finish.iter().copied().collect();
                    sorted.sort_unstable();
                    self.set_kill_at(sorted[sorted.len() / 2] / 3);
                }
                Leg::Main if r.finish.ticks() <= self.kill_at => {
                    return Err("the kill landed after completion".to_string());
                }
                Leg::Main => {}
            }
        }
        if self.id.is_des() {
            let seen = (r.events, r.finish.ticks(), r.stats.work_units);
            let first = self.first[leg as usize].get_or_insert(seen);
            if *first != seen {
                return Err(format!(
                    "nondeterministic: (events, finish, work) {seen:?} after {first:?}"
                ));
            }
        }
        Ok(())
    }
}

/// DES run: `Machine::new` and `Machine::run` are separate spans.
pub fn run_des(cfg: MachineConfig, w: &Workload, plan: &FaultPlan, rec: &mut Recorder) -> LegRun {
    let (machine, build_ms) = rec.leaf("sim.machine.new", || Machine::new(cfg, w));
    let (report, run_ms) = rec.leaf("sim.machine.run", || machine.run(plan));
    LegRun {
        ms: build_ms + run_ms,
        build_ms,
        report,
    }
}

/// Parallel-reactor run, fault-free: construction and run as two spans.
pub fn run_parallel(cfg: MachineConfig, w: &Workload, rec: &mut Recorder) -> LegRun {
    let (machine, build_ms) = rec.leaf("sim.parallel.new", || ParallelReactorMachine::new(cfg, w));
    let (report, run_ms) = rec.leaf("sim.parallel.run", || machine.run(&FaultPlan::none()));
    LegRun {
        ms: build_ms + run_ms,
        build_ms,
        report,
    }
}

/// Multi-process run: one span, spawn to reap.
pub fn run_proc(
    cfg: &ProcConfig,
    w: &Workload,
    plan: &ProcessFaultPlan,
    rec: &mut Recorder,
) -> Result<LegRun, String> {
    let (report, ms) = rec.leaf("sim.proc.run_process", || run_process(cfg, w, plan));
    let report = report.map_err(|e| format!("launch error: {e}"))?;
    Ok(LegRun {
        ms,
        build_ms: 0.0,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::parse("nope"), None);
    }

    #[test]
    fn storm_plan_kills_seven_of_sixteen_inside_the_window() {
        let plan = storm_plan(10_000);
        assert_eq!(plan.crashes(), 7);
        assert_eq!(plan.root_events.len(), 1);
        assert!(plan
            .events
            .iter()
            .all(|e| (2_000..8_000).contains(&e.at.ticks())));
        // Placed from the base run: a faster machine moves every instant.
        assert_ne!(storm_plan(5_000), plan);
        assert_eq!(storm_plan(10_000), plan);
    }

    #[test]
    fn des_sample_is_verified_and_repeats_exactly() {
        let mut rec = Recorder::new(false);
        let mut p = Prepared::new(WorkloadId::DesCrashStorm, 1, &mut rec).unwrap();
        assert_eq!(p.crashes, 7);
        let s = p.sample(0, &mut rec);
        assert!(s.legs().all(|l| l.is_ok()));
        // A sibling that differs in its event count is a failed run.
        p.first[Leg::Main as usize].as_mut().unwrap().0 += 1;
        let s = p.sample(1, &mut rec);
        assert!(s.main.is_err_and(|e| e.starts_with("nondeterministic")));
        assert!(s.base.unwrap().is_ok());
    }
}
