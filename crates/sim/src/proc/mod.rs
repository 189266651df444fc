//! The multi-process shard substrate: every shard of the machine runs as
//! a separate OS process (a forked worker binary), exchanging protocol
//! messages over Unix domain sockets in the compact
//! [`splice_simnet::codec`] wire format. The coordinator process hosts the
//! reliable super-root, launches and reaps the workers, executes a
//! [`ProcessFaultPlan`] *for real* — SIGKILL, socket partition, frame
//! delay, frame corruption — and assembles the same [`RunReport`] the
//! in-process backends produce.
//!
//! # Transport
//!
//! Links are per-peer connection state machines. The splice protocol
//! tolerates duplicate delivery (stale-incarnation and duplicate-result
//! drops are part of the paper's scheme) but *not* silent loss: a lost
//! `Result` wedges its parent forever. So the transport is a small ARQ:
//! every data frame a worker writes to a peer is retained for the run's
//! lifetime, a reconnect replays the whole retained sequence, and the
//! receiver deduplicates by per-source sequence number. Connection
//! attempts back off exponentially (with deterministic jitter) up to a
//! reconnect budget, after which the peer is declared dead and everything
//! pending bounces into the engines' `on_send_failed` recovery path —
//! exactly how the DES models a bounced send off a crashed processor.
//! A dead peer's retained spawns expire their owners' ack timers at once,
//! so an unacknowledged child is reissued on the death, not 100 ms later.
//!
//! A flush makes one write per peer: every due queued message is encoded
//! straight onto the peer's retained log (one contiguous byte buffer plus
//! frame end offsets), and the new tail goes out in a single `write_all`.
//! Only a whole write takes the messages off the queue; a failed one
//! drops them from the log and leaves them queued, under the same
//! sequence numbers, for the reconnect. A reconnect replays the log in one
//! write as well. `frames_sent` still counts frames, not writes.
//!
//! A one-directional partition is implemented as *flush gating*: outbound
//! frames are withheld until the window heals. Under an ARQ transport
//! that is observationally identical to dropping them (a drop would be
//! resent on reconnect anyway) while keeping the injector lossless.
//!
//! # Waiting
//!
//! Every loop — worker handshake, worker main loop, coordinator main loop
//! and teardown drain — blocks in one `poll(2)` call (`wait_readable`)
//! on the listener, every inbound connection and, on a worker, every
//! connected outbound peer stream. It wakes the moment a socket is
//! readable or hung up, or at the loop's next deadline, capped at 1 ms;
//! there is no fixed nap. A busy pass still polls, without blocking.
//!
//! Only the sockets the wait woke are read: a main loop or drain accepts
//! when the listener woke (and on its first pass, or right after a
//! partition-in rebind) and reads only the woken connections; a fresh
//! connection counts as woken, and a failed wait marks every socket
//! woken so none starves. Reads stay nonblocking on the loop's one
//! thread. A peer stream the wait reports as stirring is probed for EOF
//! by the next flush — the only evidence a one-directional link gives.

mod coordinator;
mod transport;
mod wire;
mod worker;

pub use worker::worker_main;

use crate::report::RunReport;
use coordinator::run_process_in;
use splice_applicative::Workload;
use splice_core::config::Config as RecoveryConfig;
use splice_gradient::Policy;
use splice_simnet::fault::ProcessFaultPlan;
use splice_simnet::trace::TraceMode;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of a multi-process run: the machine shape plus the
/// transport's timing knobs.
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// Worker processes (one per shard).
    pub shards: u32,
    /// Protocol engines hosted inside each worker.
    pub per_shard: u32,
    /// Placement policy every engine runs.
    pub policy: Policy,
    /// Recovery configuration shared by all engines.
    pub recovery: RecoveryConfig,
    /// When true, the coordinator broadcasts failure notices the moment a
    /// worker dies (the DES detector's broadcast mode). When false,
    /// workers discover deaths through the transport alone — reconnect
    /// budgets exhaust, pendings bounce — and acked-child probing is
    /// force-enabled, mirroring [`crate::machine::MachineConfig`].
    pub detector_broadcast: bool,
    /// Extra delivery-delay units charged by the in-worker shard router
    /// for cross-shard sends (accounting only; sockets add real latency).
    pub router_latency: u64,
    /// Seed for placers and transport jitter.
    pub seed: u64,
    /// Wall-clock length of one driver time unit.
    pub time_unit: Duration,
    /// Hard wall-clock budget for the whole run.
    pub run_timeout: Duration,
    /// Canonical-trace mode each worker runs.
    pub trace: TraceMode,
    /// Socket write timeout (a peer that blocks writes this long counts
    /// as a failed attempt).
    pub write_timeout: Duration,
    /// First reconnect backoff step (doubles per attempt).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Consecutive failed connection attempts after which a peer is
    /// declared dead and its pending traffic bounces.
    pub reconnect_budget: u32,
    /// Explicit worker binary path. When `None`, the
    /// `SPLICE_PROC_WORKER` environment variable is consulted, then a
    /// `splice-proc-worker` binary next to the current executable.
    pub worker_bin: Option<PathBuf>,
}

impl ProcConfig {
    /// A sensible default multi-process machine.
    pub fn new(shards: u32, per_shard: u32) -> ProcConfig {
        ProcConfig {
            shards,
            per_shard,
            policy: Policy::Gradient,
            recovery: RecoveryConfig::default(),
            detector_broadcast: true,
            router_latency: 0,
            seed: 1,
            time_unit: Duration::from_micros(25),
            run_timeout: Duration::from_secs(30),
            trace: TraceMode::Off,
            write_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
            reconnect_budget: 8,
            worker_bin: None,
        }
    }

    /// Total processor count.
    pub fn n_procs(&self) -> u32 {
        self.shards * self.per_shard
    }

    /// Resolves the worker binary (see [`ProcConfig::worker_bin`]).
    pub fn worker_bin_path(&self) -> Option<PathBuf> {
        if let Some(p) = &self.worker_bin {
            return Some(p.clone());
        }
        if let Some(p) = std::env::var_os("SPLICE_PROC_WORKER") {
            return Some(PathBuf::from(p));
        }
        let exe = std::env::current_exe().ok()?;
        // Test binaries live in target/<profile>/deps/; the worker bin is
        // one level up, so probe the exe's directory and its parent.
        for dir in [exe.parent(), exe.parent().and_then(Path::parent)]
            .into_iter()
            .flatten()
        {
            let cand = dir.join("splice-proc-worker");
            if cand.is_file() {
                return Some(cand);
            }
        }
        None
    }

    fn engine_recovery(&self) -> RecoveryConfig {
        let mut rec = self.recovery.clone();
        rec.probe_acked |= !self.detector_broadcast;
        rec
    }
}

/// Parses the workload specs the worker understands — exactly the `name`
/// strings of [`Workload`]'s stock constructors: `fib(N)`, `dcsum(LO,HI)`,
/// `binomial(N,K)`, `quicksort(n=LEN,seed=SEED)`.
pub fn parse_workload(spec: &str) -> Option<Workload> {
    let body = spec.strip_suffix(')')?;
    let (name, args) = body.split_once('(')?;
    match name {
        "fib" => Some(Workload::fib(args.trim().parse().ok()?)),
        "dcsum" => {
            let (a, b) = args.split_once(',')?;
            Some(Workload::dcsum(
                a.trim().parse().ok()?,
                b.trim().parse().ok()?,
            ))
        }
        "binomial" => {
            let (a, b) = args.split_once(',')?;
            Some(Workload::binomial(
                a.trim().parse().ok()?,
                b.trim().parse().ok()?,
            ))
        }
        "quicksort" => {
            let (a, b) = args.split_once(',')?;
            let n = a.trim().strip_prefix("n=")?;
            let s = b.trim().strip_prefix("seed=")?;
            Some(Workload::quicksort(n.parse().ok()?, s.parse().ok()?))
        }
        _ => None,
    }
}

fn units_to_wall(nanos_per_unit: u64, units: u64) -> Duration {
    Duration::from_nanos(nanos_per_unit.saturating_mul(units))
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_run_dir() -> PathBuf {
    let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("splice-proc-{}-{}", std::process::id(), n))
}

fn sock_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard}.sock"))
}

/// Runs `workload` on a machine of `cfg.shards` worker processes,
/// executing `plan` against them for real. Returns the assembled
/// [`RunReport`] (fields the process backend cannot measure — batching,
/// reactor hops — are zero).
pub fn run_process(
    cfg: &ProcConfig,
    workload: &Workload,
    plan: &ProcessFaultPlan,
) -> io::Result<RunReport> {
    if parse_workload(&workload.name).is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "workload spec {:?} is not parseable by workers",
                workload.name
            ),
        ));
    }
    let bin = cfg.worker_bin_path().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "worker binary not found (set ProcConfig::worker_bin or SPLICE_PROC_WORKER)",
        )
    })?;
    let dir = fresh_run_dir();
    std::fs::create_dir_all(&dir)?;
    let result = run_process_in(cfg, workload, plan, &bin, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_workload_accepts_stock_specs() {
        for w in [
            Workload::fib(9),
            Workload::dcsum(0, 500),
            Workload::binomial(10, 3),
            Workload::quicksort(32, 7),
        ] {
            let parsed = parse_workload(&w.name).expect(&w.name);
            assert_eq!(parsed.name, w.name);
            assert_eq!(parsed.reference_result(), w.reference_result());
        }
        assert!(parse_workload("mystery(3)").is_none());
        assert!(parse_workload("fib").is_none());
    }
}
