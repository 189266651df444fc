//! `splice-sim` — the simulated applicative multiprocessor and the
//! experiment harness reproducing the paper's figures.
//!
//! * [`machine`] — N protocol engines over the DES substrate, with fault
//!   injection, failure detection and a reliable super-root;
//! * [`parallel`] — the same engines over the cooperative reactor:
//!   thousands of `DriverLoop`s pumped from one ready queue on the
//!   caller's thread, in virtual-clock rounds — deterministic,
//!   verdict/value-par with every other backend (same
//!   `MachineConfig`/`FaultPlan` in, same `RunReport` out);
//! * [`reactor`] — that reactor under its short name;
//! * [`proc`] (unix) — the multi-process shard substrate: shards run as
//!   separate OS processes over Unix domain sockets speaking the
//!   `splice-simnet` wire codec, with reconnect/backoff transport and
//!   *real* fault injection (SIGKILL, partition, delay, garble);
//! * [`cost`] — the execution cost model;
//! * [`report`] — per-run measurements;
//! * [`figure1`] — the paper's Figure 1 scenario, scripted;
//! * [`baseline`] — whole-program-restart and periodic-global-checkpoint
//!   comparison models;
//! * [`experiment`] — the experiment suite (one `eNN_*` table function per
//!   experiment) used by the `experiments` binary and the criterion benches.

#![warn(missing_docs)]

pub mod baseline;
pub mod cost;
pub mod experiment;
pub mod figure1;
pub mod machine;
pub mod parallel;
#[cfg(unix)]
pub mod proc;
pub mod reactor;
pub mod replay;
pub mod report;

pub use cost::CostModel;
pub use machine::{run_workload, Machine, MachineConfig};
pub use parallel::{run_parallel_reactor, ParallelReactorMachine};
#[cfg(unix)]
pub use proc::{parse_workload, run_process, worker_main, ProcConfig};
pub use reactor::{run_reactor, ReactorMachine};
pub use replay::{archived_plan, execute, record, replay, Backend, Recording, Replay};
pub use report::RunReport;
