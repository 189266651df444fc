//! `splice` — distributed recovery in applicative systems.
//!
//! A full reproduction of *Lin & Keller, "Distributed Recovery in
//! Applicative Systems", Proc. ICPP 1986*: functional checkpointing, level
//! stamps, rollback recovery, splice recovery, replicated tasks with
//! majority voting — running on a deterministic simulated multiprocessor
//! and on a real threaded runtime, over a reimplemented gradient-model
//! load balancer and a small strict applicative language.
//!
//! This umbrella crate re-exports the workspace so applications can depend
//! on one crate:
//!
//! * [`lang`] (= `splice-applicative`) — the language: programs, values,
//!   reference and wave evaluators, parser, workload library;
//! * [`core`] (= `splice-core`) — the recovery protocol itself;
//! * [`harness`] (= `splice-harness`) — the shared sans-IO driver layer:
//!   the `Substrate` trait both machines implement and the driver loop
//!   both machines pump;
//! * [`simnet`] (= `splice-simnet`) — the discrete-event substrate;
//! * [`gradient`] (= `splice-gradient`) — dynamic task allocation;
//! * [`sim`] (= `splice-sim`) — the simulated machine, the cooperative
//!   reactor machine (thousands of engines on one thread), and the
//!   experiments;
//! * [`runtime`] (= `splice-runtime`) — the threaded machine.
//!
//! # Quickstart
//!
//! ```
//! use splice::prelude::*;
//!
//! // fib(12) on 4 simulated processors; processor 2 crashes mid-run and
//! // splice recovery salvages the orphaned partial results.
//! let workload = Workload::fib(12);
//! let mut cfg = MachineConfig::new(4);
//! cfg.recovery.mode = RecoveryMode::Splice;
//! let report = run_workload(cfg, &workload, &FaultPlan::crash_at(2, VirtualTime(3_000)));
//! assert_eq!(report.result, Some(Value::Int(144)));
//! ```

pub use splice_applicative as lang;
pub use splice_core as core;
pub use splice_gradient as gradient;
pub use splice_harness as harness;
pub use splice_runtime as runtime;
pub use splice_sim as sim;
pub use splice_simnet as simnet;

/// The most common imports, flattened.
pub mod prelude {
    pub use splice_applicative::{eval_call, Budget, Expr, FnId, Program, Value, Workload};
    pub use splice_core::{
        CheckpointFilter, Config as RecoveryConfig, LevelStamp, ProcId, RecoveryMode, ReplicaSpec,
        VoteMode,
    };
    pub use splice_gradient::Policy;
    pub use splice_sim::{
        run_parallel_reactor, run_reactor, run_workload, CostModel, Machine, MachineConfig,
        ParallelReactorMachine, ReactorMachine, RunReport,
    };
    pub use splice_simnet::{
        DetectorConfig, FaultKind, FaultPlan, LinkModel, Topology, VirtualTime,
    };
}
