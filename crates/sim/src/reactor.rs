//! The reactor machine under its short name.
//!
//! [`ReactorMachine`] is [`ParallelReactorMachine`]: one cooperative pump
//! on the caller's thread, whatever `cfg.threads` says. See
//! [`crate::parallel`] for the scheduling and clock semantics.

use crate::machine::MachineConfig;
use crate::parallel::ParallelReactorMachine;
use crate::report::RunReport;
use splice_applicative::Workload;
use splice_simnet::fault::FaultPlan;

/// The cooperative reactor on one thread.
pub type ReactorMachine = ParallelReactorMachine;

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
