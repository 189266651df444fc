//! `splice-core` — functional checkpointing and distributed recovery for
//! applicative systems.
//!
//! This crate is the reproduction of the primary contribution of
//! *Lin & Keller, "Distributed Recovery in Applicative Systems", ICPP 1986*:
//!
//! * [`stamp`] — level stamps (§3.1), the genealogical identifiers that
//!   make ancestor/descendant relations observable without synchronization;
//! * [`packet`] — task packets (the functional checkpoints themselves),
//!   result packets, salvage packets and the complete wire vocabulary;
//! * [`checkpoint`] — functional checkpoints as fields of the child record,
//!   their counters, and recovery selection with the §3.2 topmost rule;
//! * [`engine`] — the sans-IO processor protocol loop of §4.2, implementing
//!   both rollback recovery (§3) and splice recovery (§4) plus replicated
//!   tasks with majority voting (§5.3) and k-level ancestor chains (§5.2);
//! * [`superroot`] — the pre-evaluation checkpoint of the root (§4.3.1);
//! * [`place`] — the dynamic-allocation interface (§3.3) the engine
//!   delegates placement to (the gradient model lives in `splice-gradient`);
//! * [`replicate`] — majority voting over replica results;
//! * [`config`], [`stats`], [`task`], [`ids`] — supporting vocabulary.
//!
//! The engine runs identically under the deterministic discrete-event
//! simulator (`splice-sim`) and the threaded runtime (`splice-runtime`);
//! every protocol decision lives here, and drivers only move messages and
//! time.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod ids;
pub mod packet;
pub mod place;
pub mod policy;
pub mod replicate;
pub mod sink;
pub mod stamp;
pub mod stats;
pub mod superroot;
pub mod task;

pub use config::{CheckpointFilter, Config, RecoveryMode, ReplicaSpec, VoteMode};
pub use engine::{Action, Engine, Timer};
pub use ids::{ProcId, TaskAddr, TaskKey};
pub use packet::{CkptPacket, Msg, MsgKind, ResultPacket, SalvagePacket, TaskLink, TaskPacket};
pub use place::Placer;
pub use policy::{PolicyKind, PolicySpec, RecoveryPolicy};
pub use sink::ActionSink;
pub use stamp::LevelStamp;
pub use stats::ProcStats;
pub use superroot::SuperRoot;
