//! `splice-harness` — the shared sans-IO driver layer.
//!
//! The protocol engine (`splice_core::engine::Engine`) is sans-IO: it owns
//! no clock, no transport and no scheduler, and answers every input with a
//! list of [`Action`](splice_core::Action)s. Historically each machine —
//! the deterministic simulator (`splice-sim`) and the threaded runtime
//! (`splice-runtime`) — hand-rolled the same loop around it: dispatch
//! actions, arm timers, pick live fallbacks for the super-root, broadcast
//! failure notices, and assemble run statistics. This crate is that loop,
//! extracted once:
//!
//! * [`substrate`] — the [`Substrate`] trait: the *only* interface a
//!   backend must implement (deliver a message, read the clock, arm a
//!   timer, report a death), plus the [`dispatch`] fan-out every driver
//!   used to duplicate;
//! * [`driver`] — the shared driver loop: [`DriverLoop`] pumps one engine
//!   (start / message / timer / send-failure / ready waves) and
//!   [`SuperRootDriver`] owns the reliable super-root with its live-fallback
//!   rotor;
//! * [`shard`] — [`ShardRouter`], the inter-shard router decorator: wraps
//!   any substrate, charges cross-shard sends a router surcharge and
//!   accounts intra- vs inter-shard traffic separately;
//! * [`batch`] — [`BatchingSubstrate`], the coalescing-bus decorator:
//!   buffers same-pump sends and delivers them per `(from, to)` envelope
//!   after a configurable flush window (experiment E15);
//! * [`parallel`] — [`Pump`], the cooperative reactor: every engine on
//!   the caller's thread (per-engine mailboxes, a ready queue with waker
//!   flags, timer and delayed-send wheels — no thread-per-processor
//!   limit), driven in virtual-clock rounds by a front-end;
//! * [`timer`] — [`TimerWheel`], the earliest-deadline store (engine
//!   timers by default, any payload — the reactor parks delayed sends on
//!   it too) used by substrates whose clock is not an event queue;
//! * [`report`] — [`EngineSnapshot`] / [`EngineTotals`], the per-engine
//!   measurement capture both machines aggregate into their run reports;
//! * [`trace`] — [`TracingSubstrate`], the canonical-trace decorator: sits
//!   innermost in any stack and records the typed
//!   [`TraceEvent`](splice_simnet::trace::TraceEvent) stream (deliveries,
//!   timer fires, bounces, waves, completions) the driver loop narrates
//!   through [`Substrate::trace`], with stable payload digests.
//!
//! Adding a backend (an async reactor, a sharded multi-process transport, a
//! batched-delivery bus) means implementing [`Substrate`] and pumping
//! [`DriverLoop`]s — no protocol logic is involved.

#![warn(missing_docs)]

pub mod batch;
pub mod driver;
pub mod parallel;
pub mod report;
pub mod shard;
pub mod substrate;
pub mod timer;
pub mod trace;

pub use batch::{BatchStats, BatchingSubstrate};
pub use driver::{DriverLoop, SuperRootDriver};
pub use parallel::{ClusterMap, Delivery, Inbound, Pump, PumpHarvest, PumpSubstrate, RoundOutput};
pub use report::{EngineSnapshot, EngineTotals};
pub use shard::{ShardMap, ShardRouter, ShardStats};
pub use substrate::{corrupt_value, death_notice_targets, dispatch, dispatch_iter, Substrate};
pub use timer::TimerWheel;
pub use trace::{complete_digest, kind_tag, msg_digest, timer_digest, TracingSubstrate};
