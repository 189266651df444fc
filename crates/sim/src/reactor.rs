//! The single-thread reactor: thousands of engines on one thread.
//!
//! [`ReactorMachine`] is the parallel reactor at one pump
//! ([`ParallelReactorMachine`] with `cfg.threads` forced to 1): the single
//! pump runs inline on the caller's thread, with no channels and no
//! barrier to wait on. See [`crate::parallel`] for the scheduling and
//! clock semantics.

use crate::machine::MachineConfig;
use crate::parallel::ParallelReactorMachine;
use crate::report::RunReport;
use splice_applicative::Workload;
use splice_simnet::fault::FaultPlan;
use splice_simnet::trace::TraceEvent;

/// The cooperative reactor on one thread.
pub struct ReactorMachine(ParallelReactorMachine);

impl ReactorMachine {
    /// Builds a one-pump reactor machine for `workload`, whatever
    /// `cfg.threads` says.
    pub fn new(mut cfg: MachineConfig, workload: &Workload) -> ReactorMachine {
        cfg.threads = 1;
        ReactorMachine(ParallelReactorMachine::new(cfg, workload))
    }

    /// Runs the workload under `faults` to completion (or until it
    /// quiesces without a result, or a budget trips) and reports.
    pub fn run(self, faults: &FaultPlan) -> RunReport {
        self.0.run(faults)
    }

    /// Like [`ReactorMachine::run`], but also returns the recorded trace
    /// events (empty unless `cfg.trace` is a recording mode).
    pub fn run_traced(self, faults: &FaultPlan) -> (RunReport, Vec<TraceEvent>) {
        self.0.run_traced(faults)
    }
}

/// Convenience: run `workload` on the one-thread reactor under `cfg` and a
/// fault plan.
pub fn run_reactor(cfg: MachineConfig, workload: &Workload, faults: &FaultPlan) -> RunReport {
    ReactorMachine::new(cfg, workload).run(faults)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_forces_one_pump_whatever_the_config_asks() {
        let w = Workload::fib(10);
        let mut cfg = MachineConfig::new(8);
        cfg.threads = 4;
        let r = run_reactor(cfg, &w, &FaultPlan::none());
        assert!(r.completed);
        assert_eq!(r.result, Some(w.reference_result().unwrap()));
        assert_eq!((r.threads, r.steals, r.msgs_cross_reactor), (1, 0, 0));
    }
}
