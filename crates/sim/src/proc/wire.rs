//! Everything that crosses a socket: the [`Wire`] frames of the data and
//! control planes, the machine configuration a worker receives
//! ([`Init`]) and the measurements it sends home ([`ExitReport`]).

use splice_applicative::FnId;
use splice_core::config::{
    CheckpointFilter, Config as RecoveryConfig, RecoveryMode, ReplicaSpec, VoteMode,
};
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::policy::{PolicyKind, PolicySpec};
use splice_gradient::Policy;
use splice_harness::EngineSnapshot;
use splice_simnet::codec::{decode_msg_at, encode_frame, encode_msg, CodecError, Dec, Enc};
use splice_simnet::trace::{TraceMode, TraceSummary};
use std::io::{self, Write};
use std::os::unix::net::UnixStream;

pub(super) const T_DATA: u8 = 0;
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
pub(super) enum Wire {
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
pub(super) struct Init {
    pub(super) shards: u32,
    pub(super) per_shard: u32,
    pub(super) seed: u64,
    pub(super) time_unit_nanos: u64,
    pub(super) router_latency: u64,
    pub(super) detector_broadcast: bool,
    pub(super) policy: Policy,
    pub(super) trace: TraceMode,
    pub(super) recovery: RecoveryConfig,
    pub(super) spec: String,
    pub(super) write_timeout_ms: u64,
    pub(super) backoff_base_us: u64,
    pub(super) backoff_cap_us: u64,
    pub(super) reconnect_budget: u32,
}

/// A worker's parting measurement dump.
#[derive(Clone, Default)]
pub(super) struct ExitReport {
    pub(super) shard: u32,
    pub(super) events: u64,
    pub(super) delivered: u64,
    pub(super) dropped_to_dead: u64,
    pub(super) bounces: u64,
    pub(super) intra: u64,
    pub(super) inter: u64,
    pub(super) frames_sent: u64,
    pub(super) frames_resent: u64,
    pub(super) reconnects: u64,
    pub(super) decode_errors: u64,
    pub(super) snaps: Vec<EngineSnapshot>,
    pub(super) trace: TraceSummary,
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

pub(super) fn encode_wire(w: &Wire, out: &mut Vec<u8>) {
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

pub(super) fn decode_wire(body: &[u8]) -> Result<Wire, CodecError> {
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
pub(super) fn write_wire(
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

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::stats::ProcStats;

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
}
