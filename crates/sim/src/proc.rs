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
//! there is no fixed nap. Reads stay nonblocking on the loop's one
//! thread. A peer stream the wait reports as stirring is probed for EOF
//! by the next flush — the only evidence a one-directional link gives.

use crate::report::{RunCounters, RunReport};
use splice_applicative::{FnId, Workload};
use splice_core::config::{
    CheckpointFilter, Config as RecoveryConfig, RecoveryMode, ReplicaSpec, VoteMode,
};
use splice_core::engine::Timer;
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::policy::{PolicyKind, PolicySpec};
use splice_gradient::Policy;
use splice_harness::{
    death_notice_targets, DriverLoop, EngineSnapshot, EngineTotals, ShardMap, ShardRouter,
    Substrate, SuperRootDriver, TimerWheel, TracingSubstrate,
};
use splice_simnet::codec::{
    decode_msg_at, encode_frame, encode_msg, CodecError, Dec, Enc, FrameBuf,
};
use splice_simnet::fault::{ProcFaultKind, ProcessFaultPlan};
use splice_simnet::time::VirtualTime;
use splice_simnet::topology::Topology;
use splice_simnet::trace::{TraceMode, TraceSummary, Tracer};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

// ---------------------------------------------------------------------------
// Control-plane wire frames
// ---------------------------------------------------------------------------

const T_DATA: u8 = 0;
const T_LINK_HELLO: u8 = 1;
const T_HELLO: u8 = 2;
const T_INIT: u8 = 3;
const T_READY: u8 = 4;
const T_COORDNET: u8 = 5;
const T_NOTICE: u8 = 6;
const T_SHUTDOWN: u8 = 7;
const T_EXIT: u8 = 8;
const T_GARBLE: u8 = 9;
const T_PARTITION: u8 = 10;
const T_DELAY: u8 = 11;
const T_PARTITION_IN: u8 = 12;
const T_NOISE: u8 = 13;

/// Everything that crosses a socket, data plane and control plane alike.
/// Each variant travels inside the standard codec frame envelope.
enum Wire {
    /// Worker → worker protocol message, sequenced per link direction.
    Data {
        seq: u64,
        from: ProcId,
        to: ProcId,
        msg: Msg,
    },
    /// First frame on a worker → worker connection: who is calling.
    LinkHello { from_shard: u32 },
    /// First frame a worker sends the coordinator.
    Hello { shard: u32 },
    /// Coordinator → worker machine configuration.
    Init(Box<Init>),
    /// Worker → coordinator: engines built, listener live.
    Ready { shard: u32 },
    /// Driver-link traffic (super-root ↔ worker), both directions.
    CoordNet { from: ProcId, to: ProcId, msg: Msg },
    /// Coordinator-broadcast failure notice.
    Notice { dead: ProcId },
    /// Graceful drain request.
    Shutdown,
    /// Worker's final counters and engine snapshots.
    Exit(Box<ExitReport>),
    /// Fault injection: corrupt the next data frame toward `peer`.
    Garble { peer: u32 },
    /// Fault injection: gate outbound flushing toward `peer`.
    Partition { peer: u32, for_units: u64 },
    /// Fault injection: delay outbound messages toward `peer`.
    Delay {
        peer: u32,
        extra_units: u64,
        for_units: u64,
    },
    /// Fault injection: whole-host inbound blackout — the receiving
    /// worker closes its listener and drops established peer
    /// connections for the window (asymmetric: its outbound links and
    /// the control plane stay up).
    PartitionIn { for_units: u64 },
    /// Fault injection: byte-level socket noise — outbound data frames
    /// toward `peer` are randomly corrupted for the window.
    Noise { peer: u32, for_units: u64 },
}

/// The machine half a worker cannot derive on its own.
struct Init {
    shards: u32,
    per_shard: u32,
    seed: u64,
    time_unit_nanos: u64,
    router_latency: u64,
    detector_broadcast: bool,
    policy: Policy,
    trace: TraceMode,
    recovery: RecoveryConfig,
    spec: String,
    write_timeout_ms: u64,
    backoff_base_us: u64,
    backoff_cap_us: u64,
    reconnect_budget: u32,
}

/// A worker's parting measurement dump.
#[derive(Clone, Default)]
struct ExitReport {
    shard: u32,
    events: u64,
    delivered: u64,
    dropped_to_dead: u64,
    bounces: u64,
    intra: u64,
    inter: u64,
    frames_sent: u64,
    frames_resent: u64,
    reconnects: u64,
    decode_errors: u64,
    snaps: Vec<EngineSnapshot>,
    trace: TraceSummary,
}

fn encode_policy(e: &mut Enc<'_>, p: Policy) {
    e.u8(match p {
        Policy::Gradient => 0,
        Policy::Random => 1,
        Policy::RoundRobin => 2,
        Policy::LeastLoaded => 3,
    });
}

fn decode_policy(d: &mut Dec<'_>) -> Result<Policy, CodecError> {
    Ok(match d.u8()? {
        0 => Policy::Gradient,
        1 => Policy::Random,
        2 => Policy::RoundRobin,
        3 => Policy::LeastLoaded,
        t => return Err(CodecError::Tag(t)),
    })
}

fn encode_trace_mode(e: &mut Enc<'_>, m: TraceMode) {
    match m {
        TraceMode::Off => {
            e.u8(0);
            e.u64v(0);
        }
        TraceMode::Ring(n) => {
            e.u8(1);
            e.u64v(n as u64);
        }
        TraceMode::Full => {
            e.u8(2);
            e.u64v(0);
        }
        TraceMode::Checksum => {
            e.u8(3);
            e.u64v(0);
        }
    }
}

fn decode_trace_mode(d: &mut Dec<'_>) -> Result<TraceMode, CodecError> {
    let tag = d.u8()?;
    let param = d.u64v()?;
    Ok(match tag {
        0 => TraceMode::Off,
        1 => TraceMode::Ring(param as usize),
        2 => TraceMode::Full,
        3 => TraceMode::Checksum,
        t => return Err(CodecError::Tag(t)),
    })
}

fn encode_recovery(e: &mut Enc<'_>, r: &RecoveryConfig) {
    e.u8(match r.mode {
        RecoveryMode::None => 0,
        RecoveryMode::Rollback => 1,
        RecoveryMode::Splice => 2,
    });
    e.u64v(r.ancestor_depth as u64);
    e.u8(match r.ckpt_filter {
        CheckpointFilter::Topmost => 0,
        CheckpointFilter::All => 1,
    });
    e.u64v(r.ack_timeout);
    e.u64v(r.load_beacon_period);
    e.u64v(r.splice_grace);
    e.u8(u8::from(r.gossip_notices));
    e.u8(u8::from(r.probe_acked));
    e.u32v(r.root_replicas);
    e.u8(r.policy.kind.tag());
    e.u32v(r.policy.recheckpoint_every);
    let mut reps: Vec<(u32, &ReplicaSpec)> = r.replicate.iter().map(|(f, s)| (f.0, s)).collect();
    reps.sort_by_key(|(f, _)| *f);
    e.u64v(reps.len() as u64);
    for (fnid, spec) in reps {
        e.u32v(fnid);
        e.u32v(spec.n);
        e.u8(match spec.vote {
            VoteMode::Majority => 0,
            VoteMode::WaitAll => 1,
        });
    }
}

fn decode_recovery(d: &mut Dec<'_>) -> Result<RecoveryConfig, CodecError> {
    let mode = match d.u8()? {
        0 => RecoveryMode::None,
        1 => RecoveryMode::Rollback,
        2 => RecoveryMode::Splice,
        t => return Err(CodecError::Tag(t)),
    };
    let ancestor_depth = d.u64v()? as usize;
    let ckpt_filter = match d.u8()? {
        0 => CheckpointFilter::Topmost,
        1 => CheckpointFilter::All,
        t => return Err(CodecError::Tag(t)),
    };
    let ack_timeout = d.u64v()?;
    let load_beacon_period = d.u64v()?;
    let splice_grace = d.u64v()?;
    let gossip_notices = d.u8()? != 0;
    let probe_acked = d.u8()? != 0;
    let root_replicas = d.u32v()?;
    let kind_tag = d.u8()?;
    let kind = PolicyKind::from_tag(kind_tag).ok_or(CodecError::Tag(kind_tag))?;
    let recheckpoint_every = d.u32v()?;
    let n = d.u64v()?;
    let mut replicate = std::collections::HashMap::new();
    for _ in 0..n {
        let fnid = FnId(d.u32v()?);
        let reps = d.u32v()?;
        let vote = match d.u8()? {
            0 => VoteMode::Majority,
            1 => VoteMode::WaitAll,
            t => return Err(CodecError::Tag(t)),
        };
        replicate.insert(fnid, ReplicaSpec { n: reps, vote });
    }
    Ok(RecoveryConfig {
        mode,
        ancestor_depth,
        ckpt_filter,
        replicate,
        ack_timeout,
        load_beacon_period,
        splice_grace,
        gossip_notices,
        probe_acked,
        root_replicas,
        policy: PolicySpec {
            kind,
            recheckpoint_every,
        },
    })
}

fn encode_snapshot(e: &mut Enc<'_>, s: &EngineSnapshot) {
    let st = &s.stats;
    e.u64v(st.tasks_created);
    e.u64v(st.tasks_completed);
    e.u64v(st.waves_run);
    e.u64v(st.work_units);
    for v in st.msgs_sent {
        e.u64v(v);
    }
    for v in st.msgs_recv {
        e.u64v(v);
    }
    e.u64v(st.bytes_sent);
    e.u64v(st.spawns_emitted);
    e.u64v(st.reissues);
    e.u64v(st.ack_timeouts);
    e.u64v(st.step_parents_created);
    e.u64v(st.salvaged_results);
    e.u64v(st.salvage_before_spawn);
    e.u64v(st.salvage_after_spawn);
    e.u64v(st.salvage_forwarded);
    e.u64v(st.salvage_dropped);
    e.u64v(st.stranded_orphans);
    e.u64v(st.aborts_sent);
    e.u64v(st.tasks_aborted);
    e.u64v(st.orphans_suicided);
    e.u64v(st.duplicate_results_ignored);
    e.u64v(st.stale_messages_ignored);
    e.u64v(st.votes_decided);
    e.u64v(st.votes_conflicted);
    e.u64v(st.votes_dissenting);
    e.u64v(st.replica_results);
    e.u64v(st.eval_errors);
    e.u64v(st.lazy_rebuilds);
    e.u64v(st.recheckpoints);
    e.u64v(s.ckpt_peak_entries as u64);
    e.u64v(s.ckpt_peak_bytes as u64);
    e.u64v(s.ckpt_stored);
}

fn decode_snapshot(d: &mut Dec<'_>) -> Result<EngineSnapshot, CodecError> {
    let mut s = EngineSnapshot::default();
    let st = &mut s.stats;
    st.tasks_created = d.u64v()?;
    st.tasks_completed = d.u64v()?;
    st.waves_run = d.u64v()?;
    st.work_units = d.u64v()?;
    for v in st.msgs_sent.iter_mut() {
        *v = d.u64v()?;
    }
    for v in st.msgs_recv.iter_mut() {
        *v = d.u64v()?;
    }
    st.bytes_sent = d.u64v()?;
    st.spawns_emitted = d.u64v()?;
    st.reissues = d.u64v()?;
    st.ack_timeouts = d.u64v()?;
    st.step_parents_created = d.u64v()?;
    st.salvaged_results = d.u64v()?;
    st.salvage_before_spawn = d.u64v()?;
    st.salvage_after_spawn = d.u64v()?;
    st.salvage_forwarded = d.u64v()?;
    st.salvage_dropped = d.u64v()?;
    st.stranded_orphans = d.u64v()?;
    st.aborts_sent = d.u64v()?;
    st.tasks_aborted = d.u64v()?;
    st.orphans_suicided = d.u64v()?;
    st.duplicate_results_ignored = d.u64v()?;
    st.stale_messages_ignored = d.u64v()?;
    st.votes_decided = d.u64v()?;
    st.votes_conflicted = d.u64v()?;
    st.votes_dissenting = d.u64v()?;
    st.replica_results = d.u64v()?;
    st.eval_errors = d.u64v()?;
    st.lazy_rebuilds = d.u64v()?;
    st.recheckpoints = d.u64v()?;
    s.ckpt_peak_entries = d.u64v()? as usize;
    s.ckpt_peak_bytes = d.u64v()? as usize;
    s.ckpt_stored = d.u64v()?;
    Ok(s)
}

fn encode_wire(w: &Wire, out: &mut Vec<u8>) {
    let mut e = Enc::new(out);
    match w {
        Wire::Data { seq, from, to, msg } => {
            e.u8(T_DATA);
            e.u64v(*seq);
            e.proc(*from);
            e.proc(*to);
            encode_msg(msg, out);
        }
        Wire::LinkHello { from_shard } => {
            e.u8(T_LINK_HELLO);
            e.u32v(*from_shard);
        }
        Wire::Hello { shard } => {
            e.u8(T_HELLO);
            e.u32v(*shard);
        }
        Wire::Init(i) => {
            e.u8(T_INIT);
            e.u32v(i.shards);
            e.u32v(i.per_shard);
            e.u64v(i.seed);
            e.u64v(i.time_unit_nanos);
            e.u64v(i.router_latency);
            e.u8(u8::from(i.detector_broadcast));
            encode_policy(&mut e, i.policy);
            encode_trace_mode(&mut e, i.trace);
            encode_recovery(&mut e, &i.recovery);
            e.str(&i.spec);
            e.u64v(i.write_timeout_ms);
            e.u64v(i.backoff_base_us);
            e.u64v(i.backoff_cap_us);
            e.u32v(i.reconnect_budget);
        }
        Wire::Ready { shard } => {
            e.u8(T_READY);
            e.u32v(*shard);
        }
        Wire::CoordNet { from, to, msg } => {
            e.u8(T_COORDNET);
            e.proc(*from);
            e.proc(*to);
            encode_msg(msg, out);
        }
        Wire::Notice { dead } => {
            e.u8(T_NOTICE);
            e.proc(*dead);
        }
        Wire::Shutdown => e.u8(T_SHUTDOWN),
        Wire::Exit(r) => {
            e.u8(T_EXIT);
            e.u32v(r.shard);
            e.u64v(r.events);
            e.u64v(r.delivered);
            e.u64v(r.dropped_to_dead);
            e.u64v(r.bounces);
            e.u64v(r.intra);
            e.u64v(r.inter);
            e.u64v(r.frames_sent);
            e.u64v(r.frames_resent);
            e.u64v(r.reconnects);
            e.u64v(r.decode_errors);
            e.u64v(r.snaps.len() as u64);
            for s in &r.snaps {
                encode_snapshot(&mut e, s);
            }
            e.u64v(r.trace.events);
            e.u64v(r.trace.dropped);
            e.u64v(r.trace.stream);
            e.u64v(r.trace.semantic);
        }
        Wire::Garble { peer } => {
            e.u8(T_GARBLE);
            e.u32v(*peer);
        }
        Wire::Partition { peer, for_units } => {
            e.u8(T_PARTITION);
            e.u32v(*peer);
            e.u64v(*for_units);
        }
        Wire::Delay {
            peer,
            extra_units,
            for_units,
        } => {
            e.u8(T_DELAY);
            e.u32v(*peer);
            e.u64v(*extra_units);
            e.u64v(*for_units);
        }
        Wire::PartitionIn { for_units } => {
            e.u8(T_PARTITION_IN);
            e.u64v(*for_units);
        }
        Wire::Noise { peer, for_units } => {
            e.u8(T_NOISE);
            e.u32v(*peer);
            e.u64v(*for_units);
        }
    }
}

fn decode_wire(body: &[u8]) -> Result<Wire, CodecError> {
    let mut d = Dec::new(body);
    let w = match d.u8()? {
        T_DATA => {
            let seq = d.u64v()?;
            let from = d.proc()?;
            let to = d.proc()?;
            let msg = decode_msg_at(&mut d)?;
            Wire::Data { seq, from, to, msg }
        }
        T_LINK_HELLO => Wire::LinkHello {
            from_shard: d.u32v()?,
        },
        T_HELLO => Wire::Hello { shard: d.u32v()? },
        T_INIT => {
            let shards = d.u32v()?;
            let per_shard = d.u32v()?;
            let seed = d.u64v()?;
            let time_unit_nanos = d.u64v()?;
            let router_latency = d.u64v()?;
            let detector_broadcast = d.u8()? != 0;
            let policy = decode_policy(&mut d)?;
            let trace = decode_trace_mode(&mut d)?;
            let recovery = decode_recovery(&mut d)?;
            let spec = d.str()?;
            let write_timeout_ms = d.u64v()?;
            let backoff_base_us = d.u64v()?;
            let backoff_cap_us = d.u64v()?;
            let reconnect_budget = d.u32v()?;
            Wire::Init(Box::new(Init {
                shards,
                per_shard,
                seed,
                time_unit_nanos,
                router_latency,
                detector_broadcast,
                policy,
                trace,
                recovery,
                spec,
                write_timeout_ms,
                backoff_base_us,
                backoff_cap_us,
                reconnect_budget,
            }))
        }
        T_READY => Wire::Ready { shard: d.u32v()? },
        T_COORDNET => {
            let from = d.proc()?;
            let to = d.proc()?;
            let msg = decode_msg_at(&mut d)?;
            Wire::CoordNet { from, to, msg }
        }
        T_NOTICE => Wire::Notice { dead: d.proc()? },
        T_SHUTDOWN => Wire::Shutdown,
        T_EXIT => {
            let shard = d.u32v()?;
            let events = d.u64v()?;
            let delivered = d.u64v()?;
            let dropped_to_dead = d.u64v()?;
            let bounces = d.u64v()?;
            let intra = d.u64v()?;
            let inter = d.u64v()?;
            let frames_sent = d.u64v()?;
            let frames_resent = d.u64v()?;
            let reconnects = d.u64v()?;
            let decode_errors = d.u64v()?;
            let n = d.u64v()?;
            let mut snaps = Vec::new();
            for _ in 0..n {
                snaps.push(decode_snapshot(&mut d)?);
            }
            let trace = TraceSummary {
                events: d.u64v()?,
                dropped: d.u64v()?,
                stream: d.u64v()?,
                semantic: d.u64v()?,
            };
            Wire::Exit(Box::new(ExitReport {
                shard,
                events,
                delivered,
                dropped_to_dead,
                bounces,
                intra,
                inter,
                frames_sent,
                frames_resent,
                reconnects,
                decode_errors,
                snaps,
                trace,
            }))
        }
        T_GARBLE => Wire::Garble { peer: d.u32v()? },
        T_PARTITION => {
            let peer = d.u32v()?;
            let for_units = d.u64v()?;
            Wire::Partition { peer, for_units }
        }
        T_DELAY => {
            let peer = d.u32v()?;
            let extra_units = d.u64v()?;
            let for_units = d.u64v()?;
            Wire::Delay {
                peer,
                extra_units,
                for_units,
            }
        }
        T_PARTITION_IN => Wire::PartitionIn {
            for_units: d.u64v()?,
        },
        T_NOISE => {
            let peer = d.u32v()?;
            let for_units = d.u64v()?;
            Wire::Noise { peer, for_units }
        }
        t => return Err(CodecError::Tag(t)),
    };
    if d.remaining() != 0 {
        return Err(CodecError::Trailing);
    }
    Ok(w)
}

/// Frames `w` and writes it in one blocking `write_all`.
fn write_wire(
    stream: &mut UnixStream,
    w: &Wire,
    scratch: &mut (Vec<u8>, Vec<u8>),
) -> io::Result<()> {
    scratch.0.clear();
    encode_wire(w, &mut scratch.0);
    scratch.1.clear();
    encode_frame(&scratch.0, &mut scratch.1);
    stream.write_all(&scratch.1)
}

/// Drains everything currently readable from a nonblocking stream into a
/// reassembly buffer. `Ok(true)` means the peer closed the stream.
fn pump_read(stream: &mut UnixStream, fb: &mut FrameBuf) -> io::Result<bool> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(true),
            Ok(n) => fb.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

const POLLIN: c_short = 0x001;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;
#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// One socket in a [`wait_readable`] set (the C `struct pollfd`).
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    fn new(sock: &impl AsRawFd) -> PollFd {
        PollFd {
            fd: sock.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// True when the last wait saw input, hang-up or an error here.
    fn woke(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Blocks until a socket in `fds` is readable, hung up or in error, or
/// until `timeout` (rounded up to whole milliseconds) passes. Returns how
/// many entries woke; a timeout or a signal reads as `0`.
#[allow(unsafe_code)]
fn wait_readable(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }
    let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
    // SAFETY: `PollFd` is `#[repr(C)]` with the layout of `struct pollfd`,
    // the pointer and length come from one live exclusive slice, and poll
    // writes only the `revents` fields inside it.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    match n {
        n if n >= 0 => Ok(n as usize),
        _ => match io::Error::last_os_error() {
            e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            e => Err(e),
        },
    }
}

/// Longest a loop blocks without socket evidence. Transport deadlines —
/// reconnect backoff, delay and partition windows — are not tracked one
/// by one; this cap keeps them within a millisecond.
const MAX_WAIT: Duration = Duration::from_millis(1);

/// How long a loop may block before `next` (its earliest deadline).
fn wait_budget(next: Option<Instant>) -> Duration {
    next.map_or(MAX_WAIT, |at| {
        at.saturating_duration_since(Instant::now()).min(MAX_WAIT)
    })
}

/// Refills `fds` with the listener (when bound) and every inbound
/// connection.
fn watch_inbound(fds: &mut Vec<PollFd>, listener: Option<&UnixListener>, conns: &[InConn]) {
    fds.clear();
    fds.extend(listener.map(PollFd::new));
    fds.extend(conns.iter().map(|c| PollFd::new(&c.stream)));
}

// ---------------------------------------------------------------------------
// Transport (worker side)
// ---------------------------------------------------------------------------

/// One protocol message queued for a remote shard.
struct OutMsg {
    from: ProcId,
    to: ProcId,
    msg: Msg,
    /// Delay-fault gate: hold the message until this instant.
    not_before: Option<Instant>,
}

/// Per-peer connection state machine.
struct Peer {
    shard: u32,
    path: PathBuf,
    stream: Option<UnixStream>,
    pending: VecDeque<OutMsg>,
    /// Every data frame ever written on this link, clean-encoded, indexed
    /// by sequence number. Replayed wholesale on reconnect; the receiver
    /// deduplicates. Retained until the peer is declared dead — runs are
    /// short and the frames are the protocol's own traffic, so this is the
    /// simplest correct ARQ — and then read once by [`expiring_acks`].
    sent: Vec<Vec<u8>>,
    attempts: u32,
    next_attempt: Instant,
    /// True once any connection attempt has been made; later attempts
    /// count as reconnects.
    tried: bool,
    /// The last readiness wait saw input, hang-up or an error on `stream`.
    woke: bool,
    dead: bool,
    garble_next: bool,
    block_until: Option<Instant>,
    /// `(window_end, extra_units)` of an active delay fault.
    delay: Option<(Instant, u64)>,
    /// Byte-level noise fault: until this instant, outbound data frames
    /// are randomly corrupted (the clean copy is still retained for
    /// replay, so the link recovers losslessly).
    noise_until: Option<Instant>,
}

/// What a peer leaves behind when it is declared dead.
struct Remains {
    /// Traffic never written: it bounces into `on_send_failed`.
    pending: Vec<OutMsg>,
    /// Ack timers the written spawns expire at once ([`expiring_acks`]).
    expiring: Vec<(ProcId, Timer)>,
}

impl Peer {
    /// Declares the peer dead, consuming its queued and retained traffic.
    fn declare_dead(&mut self) -> Remains {
        self.dead = true;
        self.stream = None;
        Remains {
            pending: self.pending.drain(..).collect(),
            expiring: expiring_acks(&std::mem::take(&mut self.sent)),
        }
    }
}

/// The ack timers a dead peer's retained frames expire early: one for
/// every spawn its sender issued as the parent — not a forwarded packet,
/// whose parent's own timer covers it, and not a replica. The engine
/// reissues only a child still unacked under that incarnation, so an
/// acked, finished or already reissued child makes its timer a no-op. A
/// frame that does not decode is skipped.
fn expiring_acks(sent: &[Vec<u8>]) -> Vec<(ProcId, Timer)> {
    sent.iter()
        // A whole frame: length word and version byte, body, checksum.
        .filter_map(|f| decode_wire(f.get(5..f.len().checked_sub(4)?)?).ok())
        .filter_map(|w| match w {
            Wire::Data {
                from,
                msg: Msg::Spawn(p),
                ..
            } if p.parent.addr.proc == from && p.replica.is_none() => Some((
                from,
                Timer::ack_timeout(p.parent.addr.key, p.stamp, p.incarnation),
            )),
            _ => None,
        })
        .collect()
}

/// All of a worker's outbound links plus the shared counters.
struct Transport {
    peers: Vec<Option<Peer>>,
    me: u32,
    nanos: u64,
    write_timeout: Duration,
    backoff_base_us: u64,
    backoff_cap_us: u64,
    budget: u32,
    rng: u64,
    frames_sent: u64,
    frames_resent: u64,
    reconnects: u64,
    scratch: Vec<u8>,
    frame: Vec<u8>,
}

impl Transport {
    fn new(dir: &Path, me: u32, shards: u32, nanos: u64, init: &Init, seed: u64) -> Transport {
        let now = Instant::now();
        let peers = (0..shards)
            .map(|k| {
                (k != me).then(|| Peer {
                    shard: k,
                    path: sock_path(dir, k),
                    stream: None,
                    pending: VecDeque::new(),
                    sent: Vec::new(),
                    attempts: 0,
                    next_attempt: now,
                    tried: false,
                    woke: false,
                    dead: false,
                    garble_next: false,
                    block_until: None,
                    delay: None,
                    noise_until: None,
                })
            })
            .collect();
        Transport {
            peers,
            me,
            nanos,
            write_timeout: Duration::from_millis(init.write_timeout_ms.max(1)),
            backoff_base_us: init.backoff_base_us.max(1),
            backoff_cap_us: init.backoff_cap_us.max(1),
            budget: init.reconnect_budget.max(1),
            rng: seed ^ 0x9e37_79b9_7f4a_7c15 ^ u64::from(me) << 32 | 1,
            frames_sent: 0,
            frames_resent: 0,
            reconnects: 0,
            scratch: Vec::new(),
            frame: Vec::new(),
        }
    }

    fn next_jitter(&mut self, bound_us: u64) -> u64 {
        // xorshift64: deterministic per (seed, shard) jitter.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        if bound_us == 0 {
            0
        } else {
            x % bound_us
        }
    }

    fn backoff(&mut self, attempts: u32) -> Duration {
        let us = self
            .backoff_base_us
            .saturating_mul(1u64 << attempts.min(16))
            .min(self.backoff_cap_us);
        let jitter = self.next_jitter(us / 4 + 1);
        Duration::from_micros(us + jitter)
    }

    /// Queues a message for `shard`. Returns the message back when the
    /// peer is already declared dead (the caller bounces it).
    fn enqueue(
        &mut self,
        shard: u32,
        from: ProcId,
        to: ProcId,
        msg: Msg,
        now: Instant,
    ) -> Option<(ProcId, ProcId, Msg)> {
        let nanos = self.nanos;
        let Some(peer) = self.peers[shard as usize].as_mut() else {
            return Some((from, to, msg));
        };
        if peer.dead {
            return Some((from, to, msg));
        }
        let not_before = peer
            .delay
            .and_then(|(end, extra)| (now < end).then(|| now + units_to_wall(nanos, extra)));
        peer.pending.push_back(OutMsg {
            from,
            to,
            msg,
            not_before,
        });
        None
    }

    /// Declares `shard` dead from the outside (coordinator notice),
    /// returning what it leaves behind; `None` if it was already dead.
    fn kill_peer(&mut self, shard: u32) -> Option<Remains> {
        self.peers[shard as usize]
            .as_mut()
            .filter(|peer| !peer.dead)
            .map(Peer::declare_dead)
    }

    fn peer_flag(&mut self, shard: u32) -> Option<&mut Peer> {
        self.peers.get_mut(shard as usize)?.as_mut()
    }

    /// Adds every connected peer stream to a wait set.
    fn watch(&self, fds: &mut Vec<PollFd>) {
        let streams = self
            .peers
            .iter()
            .flatten()
            .filter_map(|p| p.stream.as_ref());
        fds.extend(streams.map(PollFd::new));
    }

    /// Records which peer streams the wait woke on; `fds` is exactly what
    /// [`Transport::watch`] pushed, in the same order.
    fn note_woken(&mut self, fds: &[PollFd]) {
        let connected = self
            .peers
            .iter_mut()
            .flatten()
            .filter(|p| p.stream.is_some());
        for (peer, fd) in connected.zip(fds) {
            peer.woke |= fd.woke();
        }
    }

    /// Pushes queued traffic onto sockets, reconnecting as needed.
    /// Returns peers that exhausted their reconnect budget this call,
    /// with what they leave behind.
    fn flush(&mut self, now: Instant) -> Vec<(u32, Remains)> {
        let mut died = Vec::new();
        for i in 0..self.peers.len() {
            let Some(mut peer) = self.peers[i].take() else {
                continue;
            };
            self.flush_peer(&mut peer, now, &mut died);
            self.peers[i] = Some(peer);
        }
        died
    }

    fn flush_peer(&mut self, peer: &mut Peer, now: Instant, died: &mut Vec<(u32, Remains)>) {
        if peer.dead {
            return;
        }
        // Links are one-directional — the receiver never writes — so the
        // only readable state this socket can reach is EOF/reset: the
        // receiver rejected a frame and dropped the connection. Probe for
        // that when the wait says so, even on an idle or partitioned link;
        // without this, a corrupted *final* frame on a link that then goes
        // quiet is lost forever (the retained clean copy only replays on
        // reconnect). A failed write drops the stream on its own.
        let woke = std::mem::take(&mut peer.woke);
        if let Some(s) = peer.stream.as_mut().filter(|_| woke) {
            let mut probe = [0u8; 16];
            let gone = s.set_nonblocking(true).is_err()
                || match s.read(&mut probe) {
                    // EOF, or bytes the protocol never sends: resync via
                    // reconnect either way (the receiver dedups the replay).
                    Ok(_) => true,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
                    Err(_) => true,
                };
            if !gone {
                let _ = s.set_nonblocking(false);
            }
            if gone {
                peer.stream = None;
                peer.next_attempt = now;
            }
        }
        if peer.block_until.is_some_and(|t| now < t) {
            return;
        }
        let wants = !peer.pending.is_empty() || (peer.stream.is_none() && !peer.sent.is_empty());
        if !wants {
            return;
        }
        if peer.stream.is_none() {
            if now < peer.next_attempt {
                return;
            }
            if peer.tried {
                self.reconnects += 1;
            }
            peer.tried = true;
            match UnixStream::connect(&peer.path) {
                Ok(s) => {
                    let _ = s.set_write_timeout(Some(self.write_timeout));
                    let mut s = s;
                    let me = self.me;
                    let hello_ok = {
                        self.scratch.clear();
                        encode_wire(&Wire::LinkHello { from_shard: me }, &mut self.scratch);
                        self.frame.clear();
                        encode_frame(&self.scratch, &mut self.frame);
                        s.write_all(&self.frame).is_ok()
                    };
                    if !hello_ok {
                        peer.next_attempt = now;
                        return;
                    }
                    self.frames_sent += 1;
                    // Replay the whole retained sequence; the receiver's
                    // per-source sequence dedup skips what it already has.
                    let mut replay_ok = true;
                    for f in &peer.sent {
                        if s.write_all(f).is_ok() {
                            self.frames_sent += 1;
                            self.frames_resent += 1;
                        } else {
                            replay_ok = false;
                            break;
                        }
                    }
                    if !replay_ok {
                        peer.next_attempt = now;
                        return;
                    }
                    peer.attempts = 0;
                    peer.stream = Some(s);
                }
                Err(_) => {
                    peer.attempts += 1;
                    if peer.attempts >= self.budget {
                        died.push((peer.shard, peer.declare_dead()));
                        return;
                    }
                    peer.next_attempt = now + self.backoff(peer.attempts);
                    return;
                }
            }
        }
        loop {
            let due = match peer.pending.front() {
                None => break,
                Some(m) => m.not_before.is_none_or(|t| now >= t),
            };
            if !due {
                break;
            }
            let head = peer.pending.front().expect("checked nonempty");
            let seq = peer.sent.len() as u64;
            self.scratch.clear();
            {
                let mut e = Enc::new(&mut self.scratch);
                e.u8(T_DATA);
                e.u64v(seq);
                e.proc(head.from);
                e.proc(head.to);
            }
            encode_msg(&head.msg, &mut self.scratch);
            self.frame.clear();
            encode_frame(&self.scratch, &mut self.frame);
            let noisy = peer.noise_until.is_some_and(|t| now < t);
            let flip = if peer.garble_next {
                peer.garble_next = false;
                // Flip one body byte after the checksum was computed: the
                // length word survives (stream framing stays parseable) but
                // the receiver's checksum rejects the frame.
                Some((5, 0x5a))
            } else if noisy && self.next_jitter(2) == 0 {
                // Active noise window: corrupt roughly every other frame at
                // a random body position past the length word. Same recovery
                // path as garble — checksum reject, connection drop, clean
                // replay from `sent`.
                let span = (self.frame.len() as u64).saturating_sub(5).max(1);
                let idx = 5 + self.next_jitter(span) as usize;
                Some((idx.min(self.frame.len() - 1), 0xa5))
            } else {
                None
            };
            let stream = peer.stream.as_mut().expect("connected above");
            let wrote = match flip {
                Some((idx, mask)) => {
                    let mut g = self.frame.clone();
                    g[idx] ^= mask;
                    stream.write_all(&g)
                }
                None => stream.write_all(&self.frame),
            };
            match wrote {
                Ok(()) => {
                    self.frames_sent += 1;
                    peer.sent.push(self.frame.clone());
                    peer.pending.pop_front();
                }
                Err(_) => {
                    // Broken mid-write: reconnect-and-replay recovers the
                    // (possibly partial) frame; the head stays queued only
                    // if it was never retained.
                    peer.stream = None;
                    peer.next_attempt = now;
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Everything the worker substrate needs mutable access to.
struct WorkerCore {
    me: u32,
    shards: u32,
    per_shard: u32,
    nanos: u64,
    epoch: Instant,
    dead: Vec<bool>,
    inbox: VecDeque<(ProcId, Msg)>,
    bounces: VecDeque<(ProcId, ProcId, Msg)>,
    timers: TimerWheel<Instant, (ProcId, Timer)>,
    /// Ack timers a dead peer's spawns expire early ([`WorkerCore::bury`]).
    expiring: Vec<(ProcId, Timer)>,
    /// Inbox entries that must be delivered before `expiring` fires.
    expire_after: usize,
    transport: Transport,
    coord: UnixStream,
    coord_down: bool,
    scratch: (Vec<u8>, Vec<u8>),
    /// Next expected data sequence number per source shard. Survives
    /// connection drops — that is the whole point of the dedup.
    expected_seq: Vec<u64>,
    dropped_to_dead: u64,
    decode_errors: u64,
    /// End of an active inbound-partition window: while set, the worker
    /// refuses inbound peer traffic (listener down, peer links severed).
    partition_in_until: Option<Instant>,
}

impl WorkerCore {
    fn now_units(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / u128::from(self.nanos.max(1))) as u64
    }

    fn send_coord(&mut self, w: &Wire) {
        if self.coord_down {
            return;
        }
        if write_wire(&mut self.coord, w, &mut self.scratch).is_err() {
            self.coord_down = true;
        }
    }

    fn shard_of(&self, p: ProcId) -> u32 {
        p.0 / self.per_shard.max(1)
    }

    fn route(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        if to.is_super_root() {
            self.send_coord(&Wire::CoordNet { from, to, msg });
            return;
        }
        if self.dead[to.0 as usize] {
            // Mirror the DES bounce rule: live senders get their message
            // back through on_send_failed; super-root sends are silently
            // dropped.
            if from.is_super_root() {
                self.dropped_to_dead += 1;
            } else {
                self.bounces.push_back((from, to, msg));
            }
            return;
        }
        let shard = self.shard_of(to);
        if shard == self.me {
            self.inbox.push_back((to, msg));
            return;
        }
        if let Some((f, t, m)) = self.transport.enqueue(shard, from, to, msg, Instant::now()) {
            if f.is_super_root() {
                self.dropped_to_dead += 1;
            } else {
                self.bounces.push_back((f, t, m));
            }
        }
    }

    /// Fans a death observation out to the canonical notice targets:
    /// local engines via the inbox, remote shards via the transport, the
    /// super-root via the driver link.
    fn announce_death(&mut self, dead: ProcId) {
        let n = self.shards * self.per_shard;
        let targets = death_notice_targets(n, |p| !self.dead[p.0 as usize], dead);
        for t in targets {
            if t.is_super_root() {
                self.send_coord(&Wire::CoordNet {
                    from: dead,
                    to: ProcId::SUPER_ROOT,
                    msg: Msg::FailureNotice { dead },
                });
            } else if self.shard_of(t) == self.me {
                self.inbox.push_back((t, Msg::FailureNotice { dead }));
            } else {
                let _ = self.transport.enqueue(
                    self.shard_of(t),
                    dead,
                    t,
                    Msg::FailureNotice { dead },
                    Instant::now(),
                );
            }
        }
    }

    /// Takes in what a dead peer left behind. Unsent traffic bounces. The
    /// early ack timers wait behind everything now in the inbox, the
    /// death's failure notices included: an engine that reissued before
    /// hearing of the death could place the twin back on the corpse.
    fn bury(&mut self, remains: Remains) {
        for m in remains.pending {
            if m.from.is_super_root() {
                self.dropped_to_dead += 1;
            } else {
                self.bounces.push_back((m.from, m.to, m.msg));
            }
        }
        self.expiring.extend(remains.expiring);
        self.expire_after = self.inbox.len();
    }

    /// Marks every processor of `shard` dead; returns the procs newly
    /// marked.
    fn mark_shard_dead(&mut self, shard: u32) -> Vec<ProcId> {
        let mut newly = Vec::new();
        for j in 0..self.per_shard {
            let p = ProcId(shard * self.per_shard + j);
            if !self.dead[p.0 as usize] {
                self.dead[p.0 as usize] = true;
                newly.push(p);
            }
        }
        newly
    }
}

/// The innermost worker substrate: real sockets, real clocks.
struct WireSub<'a> {
    core: &'a mut WorkerCore,
}

impl Substrate for WireSub<'_> {
    fn n_procs(&self) -> u32 {
        self.core.shards * self.core.per_shard
    }

    fn is_live(&self, p: ProcId) -> bool {
        !self.core.dead[p.0 as usize]
    }

    fn now_units(&self) -> u64 {
        self.core.now_units()
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        self.core.route(from, to, msg);
    }

    // send_delayed keeps the trait default: real time already passes on
    // the socket, like the threaded runtime.

    fn arm_timer(&mut self, owner: ProcId, timer: Timer, delay: u64) {
        let at = Instant::now() + units_to_wall(self.core.nanos, delay);
        self.core.timers.arm(at, (owner, timer));
    }

    fn report_death(&mut self, dead: ProcId) {
        self.core.announce_death(dead);
    }
}

/// One accepted inbound connection (a peer worker or the coordinator).
struct InConn {
    stream: UnixStream,
    fb: FrameBuf,
    src: Option<u32>,
    is_coord: bool,
}

/// The worker process body: binds its shard socket, handshakes with the
/// coordinator, hosts `per_shard` protocol engines, and pumps messages,
/// timers, waves and the transport until told to shut down. Returns the
/// process exit code (`0` = clean).
pub fn worker_main(dir: &Path, shard: u32) -> i32 {
    let start = Instant::now();
    let listener = match UnixListener::bind(sock_path(dir, shard)) {
        Ok(l) => l,
        Err(_) => return 2,
    };
    if listener.set_nonblocking(true).is_err() {
        return 2;
    }
    // Connect the driver link. The coordinator binds its socket before
    // spawning workers, so a short retry loop is cosmetic.
    let mut coord = loop {
        match UnixStream::connect(dir.join("coord.sock")) {
            Ok(s) => break s,
            Err(_) if start.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return 2,
        }
    };
    let _ = coord.set_write_timeout(Some(Duration::from_secs(2)));
    let mut scratch = (Vec::new(), Vec::new());
    if write_wire(&mut coord, &Wire::Hello { shard }, &mut scratch).is_err() {
        return 2;
    }

    // Handshake: wait for Init, buffering any early peer data frames.
    let mut conns: Vec<InConn> = Vec::new();
    let mut pre_data: Vec<(u32, u64, ProcId, Msg)> = Vec::new();
    let mut init: Option<Box<Init>> = None;
    let mut fds: Vec<PollFd> = Vec::new();
    while init.is_none() {
        if start.elapsed() > Duration::from_secs(10) {
            return 2;
        }
        accept_conns(&listener, &mut conns);
        let mut any = false;
        let mut drop_idx: Vec<usize> = Vec::new();
        for (ci, conn) in conns.iter_mut().enumerate() {
            let eof = pump_read(&mut conn.stream, &mut conn.fb).unwrap_or(true);
            loop {
                match conn.fb.next_frame() {
                    Ok(Some(body)) => {
                        any = true;
                        match decode_wire(&body) {
                            Ok(Wire::Init(i)) => {
                                conn.is_coord = true;
                                init = Some(i);
                            }
                            Ok(Wire::LinkHello { from_shard }) => conn.src = Some(from_shard),
                            Ok(Wire::Data { seq, to, msg, .. }) => {
                                if let Some(s) = conn.src {
                                    pre_data.push((s, seq, to, msg));
                                }
                            }
                            _ => {}
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        drop_idx.push(ci);
                        break;
                    }
                }
            }
            // Whatever is still buffered after EOF is a partial frame that
            // can never complete. The coordinator's link is kept: losing it
            // after Init is the main loop's shutdown signal.
            if eof && !conn.is_coord {
                drop_idx.push(ci);
            }
        }
        drop_idx.sort_unstable();
        drop_idx.dedup();
        for ci in drop_idx.into_iter().rev() {
            conns.remove(ci);
        }
        if !any {
            watch_inbound(&mut fds, Some(&listener), &conns);
            let _ = wait_readable(&mut fds, MAX_WAIT);
        }
    }
    let init = init.expect("loop exits with init");
    let Some(workload) = parse_workload(&init.spec) else {
        return 2;
    };

    // Build the machine half.
    let shards = init.shards;
    let per_shard = init.per_shard;
    let nanos = init.time_unit_nanos.max(1);
    let n = shards * per_shard;
    let topology = Topology::Sharded {
        shards,
        inner: Box::new(Topology::Complete { n: per_shard }),
    };
    let program = Arc::new(workload.program.clone());
    let mut nodes: Vec<DriverLoop> = (0..per_shard)
        .map(|j| {
            let id = ProcId(shard * per_shard + j);
            DriverLoop::new(
                id,
                program.clone(),
                init.recovery.clone(),
                init.policy.build(id, &topology, init.seed),
            )
        })
        .collect();
    let mut tracer = Tracer::new(init.trace);
    let mut core = WorkerCore {
        me: shard,
        shards,
        per_shard,
        nanos,
        epoch: Instant::now(),
        dead: vec![false; n as usize],
        inbox: VecDeque::new(),
        bounces: VecDeque::new(),
        timers: TimerWheel::new(),
        expiring: Vec::new(),
        expire_after: 0,
        transport: Transport::new(dir, shard, shards, nanos, &init, init.seed),
        coord,
        coord_down: false,
        scratch,
        expected_seq: vec![0; shards as usize],
        dropped_to_dead: 0,
        decode_errors: 0,
        partition_in_until: None,
    };
    // Replay pre-init data frames through the ordinary dedup path.
    for (src, seq, to, msg) in pre_data {
        let exp = &mut core.expected_seq[src as usize];
        if seq < *exp {
            continue;
        }
        if seq > *exp {
            core.decode_errors += 1;
            continue;
        }
        *exp += 1;
        if core.shard_of(to) == shard {
            core.inbox.push_back((to, msg));
        }
    }
    let mut events: u64 = 0;
    let mut delivered: u64 = 0;
    let mut bounce_count: u64 = 0;
    let mut intra: u64 = 0;
    let mut inter: u64 = 0;
    {
        let mut sub = worker_stack(&mut core, &mut tracer, init.router_latency);
        for node in nodes.iter_mut() {
            node.start(&mut sub);
        }
        let s = sub.stats();
        intra += s.intra_msgs;
        inter += s.inter_msgs;
    }
    core.send_coord(&Wire::Ready { shard });

    // Main loop.
    let mut listener = Some(listener);
    let mut shutdown = false;
    loop {
        if start.elapsed() > Duration::from_secs(600) {
            return 3;
        }
        // Asymmetric inbound blackout (PartitionIn): while the window is
        // open this shard refuses new connections — the socket file is
        // gone, so peers burn reconnect budget — and severs established
        // peer links below. The coordinator link and every outbound link
        // stay up: the shard turns into a zombie that still computes and
        // sends but hears nothing from its peers.
        match core.partition_in_until {
            Some(until) if Instant::now() < until => {
                listener = None;
                let _ = std::fs::remove_file(sock_path(dir, shard));
            }
            Some(_) => {
                core.partition_in_until = None;
                listener = UnixListener::bind(sock_path(dir, shard))
                    .ok()
                    .filter(|l| l.set_nonblocking(true).is_ok());
            }
            None => {}
        }
        let dark = core.partition_in_until.is_some();
        if let Some(l) = &listener {
            accept_conns(l, &mut conns);
        }
        let mut progressed = false;
        let mut coord_eof = false;
        let mut drop_idx: Vec<usize> = Vec::new();
        for (ci, conn) in conns.iter_mut().enumerate() {
            if dark && !conn.is_coord {
                drop_idx.push(ci);
                continue;
            }
            let eof = pump_read(&mut conn.stream, &mut conn.fb).unwrap_or(true);
            loop {
                match conn.fb.next_frame() {
                    Ok(Some(body)) => {
                        progressed = true;
                        match decode_wire(&body) {
                            Ok(w) => {
                                if handle_worker_frame(&mut core, conn, w, &mut shutdown) {
                                    drop_idx.push(ci);
                                    break;
                                }
                            }
                            Err(_) => {
                                core.decode_errors += 1;
                                drop_idx.push(ci);
                                break;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        core.decode_errors += 1;
                        drop_idx.push(ci);
                        break;
                    }
                }
            }
            if eof {
                if conn.is_coord {
                    coord_eof = true;
                } else {
                    drop_idx.push(ci);
                }
            }
        }
        drop_idx.sort_unstable();
        drop_idx.dedup();
        for ci in drop_idx.into_iter().rev() {
            conns.remove(ci);
        }
        if coord_eof || core.coord_down {
            // The coordinator vanished: nothing to report to, just stop.
            return 0;
        }
        if shutdown {
            break;
        }

        // Timers, deliveries, bounces, waves — all through one transient
        // decorator stack per iteration.
        let now = Instant::now();
        let mut due: Vec<(ProcId, Timer)> = Vec::new();
        while let Some(t) = core.timers.pop_due(&now) {
            due.push(t);
        }
        let mut msgs: Vec<(ProcId, Msg)> = Vec::new();
        for _ in 0..64 {
            match core.inbox.pop_front() {
                Some(m) => msgs.push(m),
                None => break,
            }
        }
        core.expire_after = core.expire_after.saturating_sub(msgs.len());
        let expired = if core.expire_after == 0 {
            std::mem::take(&mut core.expiring)
        } else {
            Vec::new()
        };
        let bns: Vec<(ProcId, ProcId, Msg)> = core.bounces.drain(..).collect();
        {
            let mut sub = worker_stack(&mut core, &mut tracer, init.router_latency);
            for (owner, timer) in due {
                let idx = (owner.0 % per_shard) as usize;
                nodes[idx].on_timer(timer, &mut sub);
                events += 1;
                progressed = true;
            }
            for (to, msg) in msgs {
                let idx = (to.0 % per_shard) as usize;
                nodes[idx].on_message(msg, &mut sub);
                events += 1;
                delivered += 1;
                progressed = true;
            }
            for (owner, timer) in expired {
                let idx = (owner.0 % per_shard) as usize;
                nodes[idx].on_timer(timer, &mut sub);
                events += 1;
                progressed = true;
            }
            for (sender, dead_to, msg) in bns {
                let idx = (sender.0 % per_shard) as usize;
                nodes[idx].on_send_failed(dead_to, msg, &mut sub);
                events += 1;
                bounce_count += 1;
                progressed = true;
            }
            for _ in 0..16 {
                let mut any = false;
                for node in nodes.iter_mut() {
                    if node.run_ready_wave(&mut sub) {
                        any = true;
                        events += 1;
                    }
                }
                if !any {
                    break;
                }
                progressed = true;
            }
            let s = sub.stats();
            intra += s.intra_msgs;
            inter += s.inter_msgs;
        }

        // Push outbound traffic; handle transport-discovered deaths.
        for (dead_shard, remains) in core.transport.flush(Instant::now()) {
            for p in core.mark_shard_dead(dead_shard) {
                core.announce_death(p);
            }
            core.bury(remains);
            progressed = true;
        }

        // Block until a socket stirs or the next timer is due. A busy
        // iteration still polls, without blocking, so that a hang-up on an
        // outbound link reaches the next flush's EOF probe.
        let idle = !progressed && core.inbox.is_empty() && core.bounces.is_empty();
        let budget = if idle {
            wait_budget(core.timers.next_deadline().copied())
        } else {
            Duration::ZERO
        };
        watch_inbound(&mut fds, listener.as_ref(), &conns);
        let peers_from = fds.len();
        core.transport.watch(&mut fds);
        let _ = wait_readable(&mut fds, budget);
        core.transport.note_woken(&fds[peers_from..]);
    }

    // Graceful drain: snapshot the engines and report out.
    let snaps: Vec<EngineSnapshot> = nodes
        .iter()
        .map(|d| EngineSnapshot::of(d.engine()))
        .collect();
    let rep = ExitReport {
        shard,
        events,
        delivered,
        dropped_to_dead: core.dropped_to_dead,
        bounces: bounce_count,
        intra,
        inter,
        frames_sent: core.transport.frames_sent,
        frames_resent: core.transport.frames_resent,
        reconnects: core.transport.reconnects,
        decode_errors: core.decode_errors,
        snaps,
        trace: tracer.summary(),
    };
    core.send_coord(&Wire::Exit(Box::new(rep)));
    0
}

type WorkerStack<'a> = ShardRouter<TracingSubstrate<WireSub<'a>, &'a mut Tracer>>;

fn worker_stack<'a>(
    core: &'a mut WorkerCore,
    tracer: &'a mut Tracer,
    router_latency: u64,
) -> WorkerStack<'a> {
    let map = ShardMap::new(core.shards, core.per_shard);
    ShardRouter::new(
        TracingSubstrate::new(WireSub { core }, tracer),
        map,
        router_latency,
    )
}

fn accept_conns(listener: &UnixListener, conns: &mut Vec<InConn>) {
    while let Ok((stream, _)) = listener.accept() {
        let _ = stream.set_nonblocking(true);
        conns.push(InConn {
            stream,
            fb: FrameBuf::new(),
            src: None,
            is_coord: false,
        });
    }
}

/// Applies one decoded frame to the worker. Returns true when the
/// connection it arrived on must be dropped.
fn handle_worker_frame(
    core: &mut WorkerCore,
    conn: &mut InConn,
    w: Wire,
    shutdown: &mut bool,
) -> bool {
    match w {
        Wire::Data { seq, to, msg, .. } => {
            let Some(src) = conn.src else {
                // Data before LinkHello: protocol violation.
                core.decode_errors += 1;
                return true;
            };
            let exp = &mut core.expected_seq[src as usize];
            if seq < *exp {
                return false; // replayed duplicate
            }
            if seq > *exp {
                // A sequence gap means the retained-replay invariant broke.
                core.decode_errors += 1;
                return true;
            }
            *exp += 1;
            if core.shard_of(to) == core.me {
                core.inbox.push_back((to, msg));
            }
            false
        }
        Wire::LinkHello { from_shard } => {
            conn.src = Some(from_shard);
            false
        }
        Wire::CoordNet { to, msg, .. } => {
            conn.is_coord = true;
            if core.shard_of(to) == core.me && !to.is_super_root() {
                core.inbox.push_back((to, msg));
            }
            false
        }
        Wire::Notice { dead } => {
            conn.is_coord = true;
            if !core.dead[dead.0 as usize] {
                core.dead[dead.0 as usize] = true;
                for j in 0..core.per_shard {
                    let p = ProcId(core.me * core.per_shard + j);
                    core.inbox.push_back((p, Msg::FailureNotice { dead }));
                }
                let dead_shard = core.shard_of(dead);
                if dead_shard != core.me {
                    let whole = (0..core.per_shard)
                        .all(|j| core.dead[(dead_shard * core.per_shard + j) as usize]);
                    if whole {
                        if let Some(remains) = core.transport.kill_peer(dead_shard) {
                            core.bury(remains);
                        }
                    }
                }
            }
            false
        }
        Wire::Shutdown => {
            conn.is_coord = true;
            *shutdown = true;
            false
        }
        Wire::Garble { peer } => {
            conn.is_coord = true;
            if let Some(p) = core.transport.peer_flag(peer) {
                p.garble_next = true;
            }
            false
        }
        Wire::Partition { peer, for_units } => {
            conn.is_coord = true;
            let wall = units_to_wall(core.nanos, for_units);
            if let Some(p) = core.transport.peer_flag(peer) {
                p.block_until = Some(Instant::now() + wall);
            }
            false
        }
        Wire::Delay {
            peer,
            extra_units,
            for_units,
        } => {
            conn.is_coord = true;
            let wall = units_to_wall(core.nanos, for_units);
            if let Some(p) = core.transport.peer_flag(peer) {
                p.delay = Some((Instant::now() + wall, extra_units));
            }
            false
        }
        Wire::PartitionIn { for_units } => {
            conn.is_coord = true;
            let wall = units_to_wall(core.nanos, for_units);
            core.partition_in_until = Some(Instant::now() + wall);
            false
        }
        Wire::Noise { peer, for_units } => {
            conn.is_coord = true;
            let wall = units_to_wall(core.nanos, for_units);
            if let Some(p) = core.transport.peer_flag(peer) {
                p.noise_until = Some(Instant::now() + wall);
            }
            false
        }
        // Init is consumed during the handshake; the rest are
        // coordinator-bound frames a worker never receives.
        Wire::Init(_) | Wire::Hello { .. } | Wire::Ready { .. } | Wire::Exit(_) => false,
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

struct CoordState {
    ctrl: Vec<Option<UnixStream>>,
    shard_dead: Vec<bool>,
    /// Per-processor deaths the coordinator has learned of — either by
    /// observing a worker exit, or by gossip (FailureNotices from peers
    /// that exhausted their reconnect budget against a partitioned host).
    /// Once every processor of a shard is believed dead, the root
    /// replicas hosted there are deposed even if the worker process
    /// itself is still running (a partitioned zombie).
    proc_dead: Vec<bool>,
    shards: u32,
    per_shard: u32,
    nanos: u64,
    epoch: Instant,
    timers: TimerWheel<Instant, Timer>,
    failed: Vec<u32>,
    dropped_to_dead: u64,
    scratch: (Vec<u8>, Vec<u8>),
}

impl CoordState {
    fn notify(&mut self, k: u32, w: &Wire) {
        if self.shard_dead[k as usize] {
            return;
        }
        let mut broke = false;
        if let Some(s) = self.ctrl[k as usize].as_mut() {
            if write_wire(s, w, &mut self.scratch).is_err() {
                broke = true;
            }
        }
        if broke {
            self.failed.push(k);
        }
    }
}

/// The super-root's substrate: the reliable driver link, carried over the
/// coordinator's control connections.
struct CoordSub<'a> {
    st: &'a mut CoordState,
}

impl Substrate for CoordSub<'_> {
    fn n_procs(&self) -> u32 {
        self.st.shards * self.st.per_shard
    }

    fn is_live(&self, p: ProcId) -> bool {
        !self.st.shard_dead[(p.0 / self.st.per_shard.max(1)) as usize]
            && !self.st.proc_dead[p.0 as usize]
    }

    fn now_units(&self) -> u64 {
        (self.st.epoch.elapsed().as_nanos() / u128::from(self.st.nanos.max(1))) as u64
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        let k = to.0 / self.st.per_shard.max(1);
        if self.st.shard_dead[k as usize] || self.st.ctrl[k as usize].is_none() {
            self.st.dropped_to_dead += 1;
            return;
        }
        self.st.notify(k, &Wire::CoordNet { from, to, msg });
    }

    fn arm_timer(&mut self, _owner: ProcId, timer: Timer, delay: u64) {
        let at = Instant::now() + units_to_wall(self.st.nanos, delay);
        self.st.timers.arm(at, timer);
    }

    fn report_death(&mut self, _dead: ProcId) {
        // The coordinator is the detector; nothing to tell itself.
    }
}

fn on_shard_death(
    st: &mut CoordState,
    children: &mut [Option<Child>],
    sr: &mut SuperRootDriver,
    k: u32,
    broadcast: bool,
) {
    if st.shard_dead[k as usize] {
        return;
    }
    st.shard_dead[k as usize] = true;
    st.ctrl[k as usize] = None;
    for j in 0..st.per_shard {
        st.proc_dead[(k * st.per_shard + j) as usize] = true;
    }
    crash_root_replicas_of(st, sr, k);
    if let Some(mut ch) = children[k as usize].take() {
        let _ = ch.kill();
        let _ = ch.wait();
    }
    if broadcast {
        for j in 0..st.per_shard {
            let p = ProcId(k * st.per_shard + j);
            {
                let mut sub = CoordSub { st };
                sr.on_failure(p, &mut sub);
            }
            for other in 0..st.shards {
                if other != k {
                    st.notify(other, &Wire::Notice { dead: p });
                }
            }
        }
    }
    // With broadcast off the death stays silent: workers discover it
    // through exhausted reconnect budgets, and the super-root through the
    // FailureNotices those discoveries gossip up the driver link.
}

/// Deposes every root replica hosted by shard `k` — replica rank `r`
/// lives on shard `r % shards` — letting the quorum's next-ranked live
/// replica take over and reissue the root wave.
fn crash_root_replicas_of(st: &mut CoordState, sr: &mut SuperRootDriver, k: u32) {
    for r in 0..sr.replicas() {
        if r % st.shards.max(1) == k && sr.replica_live(r) {
            let mut sub = CoordSub { st };
            sr.crash_replica(r, &mut sub);
        }
    }
}

/// Records a gossiped processor death. When that completes a whole
/// shard, the shard's root replicas are deposed even though its worker
/// process may still be alive (an inbound-partitioned zombie: the
/// cluster has durably excommunicated it, so the root role must move).
fn note_proc_death(st: &mut CoordState, sr: &mut SuperRootDriver, dead: ProcId) {
    let i = dead.0 as usize;
    if i >= st.proc_dead.len() || st.proc_dead[i] {
        return;
    }
    st.proc_dead[i] = true;
    let k = dead.0 / st.per_shard.max(1);
    let whole = (0..st.per_shard).all(|j| st.proc_dead[(k * st.per_shard + j) as usize]);
    if whole {
        crash_root_replicas_of(st, sr, k);
    }
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

fn run_process_in(
    cfg: &ProcConfig,
    workload: &Workload,
    plan: &ProcessFaultPlan,
    bin: &Path,
    dir: &Path,
) -> io::Result<RunReport> {
    let shards = cfg.shards.max(1);
    let per_shard = cfg.per_shard.max(1);
    let nanos = cfg.time_unit.as_nanos().max(1) as u64;
    let listener = UnixListener::bind(dir.join("coord.sock"))?;
    listener.set_nonblocking(true)?;
    let mut children: Vec<Option<Child>> = Vec::new();
    for k in 0..shards {
        let child = Command::new(bin)
            .arg(dir)
            .arg(k.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(c) => children.push(Some(c)),
            Err(e) => {
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }
    let recovery = cfg.engine_recovery();
    let mut sr = SuperRootDriver::new(workload, &recovery);
    let mut st = CoordState {
        ctrl: (0..shards).map(|_| None).collect(),
        shard_dead: vec![false; shards as usize],
        proc_dead: vec![false; (shards * per_shard) as usize],
        shards,
        per_shard,
        nanos,
        epoch: Instant::now(),
        timers: TimerWheel::new(),
        failed: Vec::new(),
        dropped_to_dead: 0,
        scratch: (Vec::new(), Vec::new()),
    };
    let init_template = Init {
        shards,
        per_shard,
        seed: cfg.seed,
        time_unit_nanos: nanos,
        router_latency: cfg.router_latency,
        detector_broadcast: cfg.detector_broadcast,
        policy: cfg.policy,
        trace: cfg.trace,
        recovery: recovery.clone(),
        spec: workload.name.clone(),
        write_timeout_ms: cfg.write_timeout.as_millis().max(1) as u64,
        backoff_base_us: cfg.backoff_base.as_micros().max(1) as u64,
        backoff_cap_us: cfg.backoff_cap.as_micros().max(1) as u64,
        reconnect_budget: cfg.reconnect_budget,
    };
    let mut w2c: Vec<InConn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ready = vec![false; shards as usize];
    let mut launched = false;
    let mut launch_at = Instant::now();
    let mut exits: Vec<Option<ExitReport>> = vec![None; shards as usize];
    let plan_events = plan.sorted();
    let mut cursor = 0usize;
    let mut finish_units: Option<u64> = None;
    let mut stalled = false;
    let mut all_dead_since: Option<Instant> = None;
    let deadline = st.epoch + cfg.run_timeout;

    loop {
        accept_conns(&listener, &mut w2c);
        let mut progressed = false;
        let mut drop_idx: Vec<usize> = Vec::new();
        for (ci, conn) in w2c.iter_mut().enumerate() {
            let eof = matches!(pump_read(&mut conn.stream, &mut conn.fb), Ok(true) | Err(_));
            loop {
                match conn.fb.next_frame() {
                    Ok(Some(body)) => {
                        progressed = true;
                        match decode_wire(&body) {
                            Ok(Wire::Hello { shard }) if shard < shards => {
                                conn.src = Some(shard);
                                // The worker binds its listener before
                                // saying hello; connect the control link
                                // and configure it.
                                let mut ctrl = None;
                                for _ in 0..200 {
                                    match UnixStream::connect(sock_path(dir, shard)) {
                                        Ok(s) => {
                                            ctrl = Some(s);
                                            break;
                                        }
                                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                                    }
                                }
                                if let Some(mut s) = ctrl {
                                    let _ = s.set_write_timeout(Some(cfg.write_timeout));
                                    let init = Init {
                                        spec: init_template.spec.clone(),
                                        recovery: init_template.recovery.clone(),
                                        ..init_template
                                    };
                                    if write_wire(
                                        &mut s,
                                        &Wire::Init(Box::new(init)),
                                        &mut st.scratch,
                                    )
                                    .is_ok()
                                    {
                                        st.ctrl[shard as usize] = Some(s);
                                    } else {
                                        st.failed.push(shard);
                                    }
                                } else {
                                    st.failed.push(shard);
                                }
                            }
                            Ok(Wire::Ready { shard }) if shard < shards => {
                                ready[shard as usize] = true;
                            }
                            Ok(Wire::CoordNet { to, msg, .. }) if to.is_super_root() => match msg {
                                Msg::FailureNotice { dead } => {
                                    {
                                        let mut sub = CoordSub { st: &mut st };
                                        sr.on_failure(dead, &mut sub);
                                    }
                                    note_proc_death(&mut st, &mut sr, dead);
                                }
                                m => {
                                    let mut sub = CoordSub { st: &mut st };
                                    sr.on_message(m, &mut sub);
                                }
                            },
                            Ok(Wire::Exit(rep)) => {
                                let k = rep.shard as usize;
                                if k < exits.len() {
                                    exits[k] = Some(*rep);
                                }
                            }
                            Ok(_) => {}
                            Err(_) => {
                                drop_idx.push(ci);
                                break;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        drop_idx.push(ci);
                        break;
                    }
                }
            }
            if eof {
                drop_idx.push(ci);
            }
        }
        drop_idx.sort_unstable();
        drop_idx.dedup();
        for ci in drop_idx.into_iter().rev() {
            w2c.remove(ci);
        }

        if !launched && ready.iter().all(|r| *r) {
            let mut sub = CoordSub { st: &mut st };
            sr.launch(&mut sub);
            launched = true;
            launch_at = Instant::now();
        }

        // Super-root timers.
        let now = Instant::now();
        let mut due: Vec<Timer> = Vec::new();
        while let Some(t) = st.timers.pop_due(&now) {
            due.push(t);
        }
        for t in due {
            let mut sub = CoordSub { st: &mut st };
            sr.on_timer(t, &mut sub);
            progressed = true;
        }

        // Unexpected worker exits are crashes.
        for k in 0..shards {
            let crashed = match children[k as usize].as_mut() {
                Some(ch) => matches!(ch.try_wait(), Ok(Some(_))),
                None => false,
            };
            if crashed && !st.shard_dead[k as usize] {
                on_shard_death(&mut st, &mut children, &mut sr, k, cfg.detector_broadcast);
                progressed = true;
            }
        }

        // Scheduled plan events, measured from launch.
        while launched && cursor < plan_events.len() {
            let ev = plan_events[cursor];
            if now < launch_at + units_to_wall(nanos, ev.at.ticks()) {
                break;
            }
            cursor += 1;
            progressed = true;
            match ev.kind {
                ProcFaultKind::Kill => {
                    on_shard_death(
                        &mut st,
                        &mut children,
                        &mut sr,
                        ev.shard,
                        cfg.detector_broadcast,
                    );
                }
                ProcFaultKind::PartitionOut { peer, for_units } => {
                    st.notify(ev.shard, &Wire::Partition { peer, for_units });
                }
                ProcFaultKind::DelayOut {
                    peer,
                    extra_units,
                    for_units,
                } => {
                    st.notify(
                        ev.shard,
                        &Wire::Delay {
                            peer,
                            extra_units,
                            for_units,
                        },
                    );
                }
                ProcFaultKind::GarbleNext { peer } => {
                    st.notify(ev.shard, &Wire::Garble { peer });
                }
                ProcFaultKind::PartitionIn { for_units } => {
                    st.notify(ev.shard, &Wire::PartitionIn { for_units });
                }
                ProcFaultKind::NoiseOut { peer, for_units } => {
                    st.notify(ev.shard, &Wire::Noise { peer, for_units });
                }
            }
        }

        // Control links that broke mid-write mean the worker died.
        while let Some(k) = st.failed.pop() {
            on_shard_death(&mut st, &mut children, &mut sr, k, cfg.detector_broadcast);
            progressed = true;
        }

        if sr.result().is_some() {
            finish_units = Some((st.epoch.elapsed().as_nanos() / u128::from(nanos)) as u64);
            break;
        }
        // Every root replica deposed: the quorum is gone and no successor
        // can reissue — the run stalls by construction, so stop now.
        if launched && !sr.has_live_replica() {
            stalled = true;
            break;
        }
        if launched && st.shard_dead.iter().all(|d| *d) {
            let since = *all_dead_since.get_or_insert(now);
            if now.duration_since(since) > Duration::from_millis(300) {
                stalled = true;
                break;
            }
        } else {
            all_dead_since = None;
        }
        if Instant::now() > deadline {
            break;
        }
        if !progressed {
            let next_fault = plan_events
                .get(cursor)
                .filter(|_| launched)
                .map(|ev| launch_at + units_to_wall(nanos, ev.at.ticks()));
            let next = [st.timers.next_deadline().copied(), next_fault]
                .into_iter()
                .flatten()
                .min();
            watch_inbound(&mut fds, Some(&listener), &w2c);
            let _ = wait_readable(&mut fds, wait_budget(next));
        }
    }

    // Teardown: drain live workers gracefully, then reap everything.
    for k in 0..shards {
        st.notify(k, &Wire::Shutdown);
    }
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < drain_deadline
        && exits
            .iter()
            .zip(&st.shard_dead)
            .any(|(e, d)| e.is_none() && !d)
    {
        accept_conns(&listener, &mut w2c);
        let mut drop_idx: Vec<usize> = Vec::new();
        for (ci, conn) in w2c.iter_mut().enumerate() {
            let eof = matches!(pump_read(&mut conn.stream, &mut conn.fb), Ok(true) | Err(_));
            loop {
                match conn.fb.next_frame() {
                    Ok(Some(body)) => {
                        if let Ok(Wire::Exit(rep)) = decode_wire(&body) {
                            let k = rep.shard as usize;
                            if k < exits.len() {
                                exits[k] = Some(*rep);
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        drop_idx.push(ci);
                        break;
                    }
                }
            }
            if eof {
                drop_idx.push(ci);
            }
        }
        drop_idx.sort_unstable();
        drop_idx.dedup();
        for ci in drop_idx.into_iter().rev() {
            w2c.remove(ci);
        }
        watch_inbound(&mut fds, Some(&listener), &w2c);
        let _ = wait_readable(&mut fds, MAX_WAIT);
    }
    for c in children.iter_mut().flatten() {
        let _ = c.kill();
        let _ = c.wait();
    }

    // Assemble the report.
    let end_units = (st.epoch.elapsed().as_nanos() / u128::from(nanos)) as u64;
    let mut snaps: Vec<EngineSnapshot> = Vec::with_capacity((shards * per_shard) as usize);
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut dropped = st.dropped_to_dead;
    let mut bounces = 0u64;
    let mut intra = 0u64;
    let mut inter = 0u64;
    let mut frames_sent = 0u64;
    let mut frames_resent = 0u64;
    let mut reconnects = 0u64;
    let mut decode_errors = 0u64;
    let mut trace = TraceSummary::default();
    for exit in exits.iter().take(shards as usize) {
        match exit {
            Some(r) => {
                events += r.events;
                delivered += r.delivered;
                dropped += r.dropped_to_dead;
                bounces += r.bounces;
                intra += r.intra;
                inter += r.inter;
                frames_sent += r.frames_sent;
                frames_resent += r.frames_resent;
                reconnects += r.reconnects;
                decode_errors += r.decode_errors;
                trace.absorb(r.trace);
                if r.snaps.len() == per_shard as usize {
                    snaps.extend(r.snaps.iter().cloned());
                } else {
                    snaps.extend((0..per_shard).map(|_| EngineSnapshot::default()));
                }
            }
            // A killed worker reports nothing: its measurements died with
            // it, exactly like a crashed processor's would.
            None => snaps.extend((0..per_shard).map(|_| EngineSnapshot::default())),
        }
    }
    let totals = EngineTotals::collect(snaps);
    let mut report = RunReport::assemble(
        RunCounters {
            finish: finish_units.map(VirtualTime),
            end: VirtualTime(end_units),
            stalled,
            events,
            delivered,
            dropped_to_dead: dropped,
            bounces,
            shards,
            shard_msgs_intra: intra,
            shard_msgs_inter: inter,
            faults: plan.events.len(),
            threads: shards,
            trace,
        },
        totals,
        &sr,
    );
    report.frames_sent = frames_sent;
    report.frames_resent = frames_resent;
    report.reconnects = reconnects;
    report.decode_errors = decode_errors;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_applicative::{Demand, Value};
    use splice_core::ids::{TaskAddr, TaskKey};
    use splice_core::packet::{ReplicaInfo, ResultPacket, TaskLink, TaskPacket};
    use splice_core::stamp::LevelStamp;
    use splice_core::stats::ProcStats;

    #[test]
    fn wait_readable_wakes_on_buffered_bytes() {
        let (mut near, far) = UnixStream::pair().expect("pair");
        near.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(&far)];
        let n = wait_readable(&mut fds, Duration::from_secs(10)).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].woke());
        assert!(fds[0].revents & POLLIN != 0);
    }

    #[test]
    fn wait_readable_times_out_on_an_idle_pair() {
        let (near, _far) = UnixStream::pair().expect("pair");
        let mut fds = [PollFd::new(&near)];
        let n = wait_readable(&mut fds, Duration::from_millis(1)).expect("poll");
        assert_eq!(n, 0);
        assert!(!fds[0].woke());
    }

    #[test]
    fn wait_readable_reports_hang_up() {
        let (near, far) = UnixStream::pair().expect("pair");
        drop(far);
        let mut fds = [PollFd::new(&near)];
        let n = wait_readable(&mut fds, Duration::from_secs(10)).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].revents & POLLHUP != 0);
    }

    #[test]
    fn proc_stats_layout_tripwire() {
        // The exit-report codec spells out every ProcStats field by name;
        // a new field would silently vanish from worker reports without
        // this size pin (45 u64-equivalent fields).
        assert_eq!(std::mem::size_of::<ProcStats>(), 45 * 8);
    }

    #[test]
    fn exit_report_round_trips() {
        let mut snap = EngineSnapshot::default();
        snap.stats.tasks_completed = 7;
        snap.stats.msgs_sent[2] = 11;
        snap.stats.msgs_recv[6] = 3;
        snap.stats.eval_errors = 1;
        snap.ckpt_peak_entries = 9;
        snap.ckpt_peak_bytes = 1024;
        snap.ckpt_stored = 40;
        let rep = ExitReport {
            shard: 3,
            events: 100,
            delivered: 50,
            dropped_to_dead: 2,
            bounces: 4,
            intra: 30,
            inter: 20,
            frames_sent: 25,
            frames_resent: 5,
            reconnects: 2,
            decode_errors: 1,
            snaps: vec![snap.clone(), EngineSnapshot::default()],
            trace: TraceSummary {
                events: 12,
                dropped: 1,
                stream: 0xdead,
                semantic: 0xbeef,
            },
        };
        let mut body = Vec::new();
        encode_wire(&Wire::Exit(Box::new(rep)), &mut body);
        let Wire::Exit(back) = decode_wire(&body).expect("decodes") else {
            panic!("wrong variant");
        };
        assert_eq!(back.shard, 3);
        assert_eq!(back.frames_resent, 5);
        assert_eq!(back.snaps.len(), 2);
        assert_eq!(back.snaps[0].stats.tasks_completed, 7);
        assert_eq!(back.snaps[0].stats.msgs_sent[2], 11);
        assert_eq!(back.snaps[0].stats.msgs_recv[6], 3);
        assert_eq!(back.snaps[0].ckpt_peak_bytes, 1024);
        assert_eq!(back.trace.semantic, 0xbeef);
    }

    #[test]
    fn init_round_trips_with_replication() {
        let mut recovery = RecoveryConfig::default();
        recovery.replicate.insert(
            FnId(4),
            ReplicaSpec {
                n: 3,
                vote: VoteMode::Majority,
            },
        );
        recovery.replicate.insert(
            FnId(1),
            ReplicaSpec {
                n: 5,
                vote: VoteMode::WaitAll,
            },
        );
        let init = Init {
            shards: 4,
            per_shard: 2,
            seed: 42,
            time_unit_nanos: 25_000,
            router_latency: 7,
            detector_broadcast: false,
            policy: Policy::LeastLoaded,
            trace: TraceMode::Ring(128),
            recovery,
            spec: "fib(16)".into(),
            write_timeout_ms: 2_000,
            backoff_base_us: 1_000,
            backoff_cap_us: 100_000,
            reconnect_budget: 8,
        };
        let mut body = Vec::new();
        encode_wire(&Wire::Init(Box::new(init)), &mut body);
        let Wire::Init(back) = decode_wire(&body).expect("decodes") else {
            panic!("wrong variant");
        };
        assert_eq!(back.shards, 4);
        assert_eq!(back.policy, Policy::LeastLoaded);
        assert_eq!(back.trace, TraceMode::Ring(128));
        assert!(!back.detector_broadcast);
        assert_eq!(back.recovery.replicate.len(), 2);
        assert_eq!(back.recovery.replicate[&FnId(1)].n, 5);
        assert_eq!(back.spec, "fib(16)");
    }

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

    #[test]
    fn data_frames_round_trip_and_reject_trailing() {
        let msg = Msg::FailureNotice { dead: ProcId(3) };
        let w = Wire::Data {
            seq: 9,
            from: ProcId(1),
            to: ProcId(5),
            msg,
        };
        let mut body = Vec::new();
        encode_wire(&w, &mut body);
        let Wire::Data { seq, from, to, msg } = decode_wire(&body).expect("decodes") else {
            panic!("wrong variant");
        };
        assert_eq!((seq, from, to), (9, ProcId(1), ProcId(5)));
        assert!(matches!(msg, Msg::FailureNotice { dead: ProcId(3) }));
        body.push(0);
        assert!(matches!(decode_wire(&body), Err(CodecError::Trailing)));
    }

    /// A retained data frame from `from`, exactly as the transport keeps it.
    fn sent_frame(from: ProcId, msg: Msg) -> Vec<u8> {
        let w = Wire::Data {
            seq: 4,
            from,
            to: ProcId(13),
            msg,
        };
        let mut body = Vec::new();
        encode_wire(&w, &mut body);
        let mut frame = Vec::new();
        encode_frame(&body, &mut frame);
        frame
    }

    fn spawn_of(parent: ProcId, replica: Option<ReplicaInfo>) -> Msg {
        Msg::spawn(TaskPacket {
            stamp: LevelStamp::from_digits(&[1, 3]),
            demand: Demand::new(FnId(0), vec![Value::Int(5)]),
            parent: TaskLink::new(
                TaskAddr::new(parent, TaskKey(9)),
                LevelStamp::from_digits(&[1]),
            ),
            ancestors: vec![TaskLink::super_root()],
            incarnation: 2,
            hops: 1,
            replica,
            under_replica: false,
        })
    }

    #[test]
    fn an_own_spawn_expires_exactly_its_ack_timer() {
        let me = ProcId(1);
        let frames = [sent_frame(me, spawn_of(me, None))];
        let want = Timer::ack_timeout(TaskKey(9), LevelStamp::from_digits(&[1, 3]), 2);
        assert_eq!(expiring_acks(&frames), vec![(me, want)]);
    }

    #[test]
    fn only_own_parent_non_replica_spawns_expire() {
        let me = ProcId(1);
        let child = TaskAddr::new(ProcId(13), TaskKey(2));
        let frames = [
            // Forwarded: the parent lives elsewhere and has its own timer.
            sent_frame(me, spawn_of(ProcId(6), None)),
            sent_frame(me, spawn_of(me, Some(ReplicaInfo { index: 1, total: 3 }))),
            sent_frame(
                me,
                Msg::result(ResultPacket {
                    from_stamp: LevelStamp::from_digits(&[1, 3]),
                    demand: Demand::new(FnId(0), vec![Value::Int(5)]),
                    value: Value::Int(8),
                    to: child,
                    to_stamp: LevelStamp::from_digits(&[1]),
                    relay_chain: vec![],
                    replica: None,
                }),
            ),
            sent_frame(
                me,
                Msg::ack(LevelStamp::from_digits(&[1, 3]), child, child, 0),
            ),
            sent_frame(ProcId(8), Msg::FailureNotice { dead: ProcId(8) }),
        ];
        assert!(expiring_acks(&frames).is_empty());
    }

    #[test]
    fn broken_retained_frames_are_skipped() {
        let me = ProcId(1);
        let whole = sent_frame(me, spawn_of(me, None));
        let mut garbled = whole.clone();
        garbled[5] = 0xff; // no such wire tag
        let frames = [
            Vec::new(),
            whole[..3].to_vec(),
            whole[..9].to_vec(),
            whole[..whole.len() / 2].to_vec(),
            garbled,
        ];
        assert!(expiring_acks(&frames).is_empty());
        let mut mixed = frames.to_vec();
        mixed.push(whole);
        assert_eq!(expiring_acks(&mixed).len(), 1);
    }
}
