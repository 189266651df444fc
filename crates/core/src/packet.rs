//! Task packets, result packets and the wire-message vocabulary.
//!
//! "A task packet is formed for the new function and then waits for
//! execution. The packet contains all necessary information, either directly
//! or indirectly accessible, to activate the child task." (§2.1)
//!
//! A [`TaskPacket`] is the child's *functional checkpoint*. The parent keeps
//! no copy of it: its child record and its own links hold every field, so
//! the engine rebuilds the identical packet to reissue it — in the rollback
//! or the splice algorithm — and that reissue is recovery.

use crate::ids::{ProcId, TaskAddr};
use crate::stamp::LevelStamp;
use splice_applicative::wave::Demand;
use splice_applicative::Value;
use std::fmt;

/// A link to a task elsewhere: its address plus its level stamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskLink {
    /// Where the task lives (at the time the link was made).
    pub addr: TaskAddr,
    /// The task's level stamp.
    pub stamp: LevelStamp,
}

impl TaskLink {
    /// Creates a link.
    pub fn new(addr: TaskAddr, stamp: LevelStamp) -> TaskLink {
        TaskLink { addr, stamp }
    }

    /// The super-root link (parent of the root task, §4.3.1).
    pub fn super_root() -> TaskLink {
        TaskLink {
            addr: TaskAddr::super_root(),
            stamp: LevelStamp::root(),
        }
    }

    /// Abstract wire size of the link: the address (2 units) plus the
    /// stamp digits it carries.
    pub fn size(&self) -> usize {
        2 + self.stamp.level()
    }
}

/// Replication marker carried by replica task packets (§5.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaInfo {
    /// Index of this replica within its group (0-based).
    pub index: u32,
    /// Total group size.
    pub total: u32,
}

/// A task packet: the complete, self-contained description of one function
/// application, plus the genealogical links recovery needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPacket {
    /// The task's level stamp (§3.1).
    pub stamp: LevelStamp,
    /// The application itself: combinator and evaluated arguments.
    pub demand: Demand,
    /// The spawning parent task. Results return here.
    pub parent: TaskLink,
    /// Ancestors beyond the parent, nearest first: `ancestors[0]` is the
    /// grandparent (§4.1), `ancestors[1]` the great-grandparent (§5.2
    /// extension), and so on, truncated to the configured ancestor depth.
    pub ancestors: Vec<TaskLink>,
    /// Incarnation counter: 0 for the original spawn, incremented each time
    /// the packet is reissued by a recovery action or timeout. Recovery
    /// semantics never branch on this; it exists for tracing and metrics.
    pub incarnation: u32,
    /// Number of placement hops taken so far (gradient routing).
    pub hops: u32,
    /// Present on replica packets (§5.3).
    pub replica: Option<ReplicaInfo>,
    /// True for every task in the subtree of a replica: the whole critical
    /// section executes once per replica, and nothing inside it is
    /// re-replicated (that would compound exponentially).
    pub under_replica: bool,
}

impl TaskPacket {
    /// Abstract size of the packet (argument payload plus link overhead) for
    /// cost models and checkpoint-storage accounting. Every genealogical
    /// link is charged at its true size ([`TaskLink::size`]: address plus
    /// stamp digits) — the ancestor chain is not flat-rated, so E8's
    /// overhead numbers track what recovery metadata actually costs.
    pub fn size(&self) -> usize {
        let args: usize = self.demand.args.iter().map(Value::size).sum();
        let links: usize = self.ancestors.iter().map(TaskLink::size).sum();
        args + self.stamp.level() + 2 + self.parent.size() + links
    }

    /// A copy prepared for reissue: same stamp and demand, bumped
    /// incarnation, reset hops.
    pub fn reissue(&self) -> TaskPacket {
        let mut p = self.clone();
        p.incarnation += 1;
        p.hops = 0;
        p
    }
}

/// A result packet, returned from a completed task to its parent — or, when
/// the parent's processor is dead, relayed towards an ancestor (splice,
/// §4.1–4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultPacket {
    /// Stamp of the completed task.
    pub from_stamp: LevelStamp,
    /// The demand this result satisfies (the parent keys its call cache by
    /// demand, so the result is self-describing).
    pub demand: Demand,
    /// The computed value.
    pub value: Value,
    /// The task this packet is addressed to.
    pub to: TaskAddr,
    /// Stamp of the task `to` is expected to have (the parent, in the
    /// normal case). Used to classify arrivals as child / grandchild /
    /// other, per the §4.2 `forward result` rule.
    pub to_stamp: LevelStamp,
    /// Remaining ancestor links to try if `to` is unreachable, nearest
    /// first. A fresh result carries the completed task's ancestor chain;
    /// each relay hop consumes one link.
    pub relay_chain: Vec<TaskLink>,
    /// Replica index when this is a replica's vote (§5.3).
    pub replica: Option<ReplicaInfo>,
}

/// A salvaged result being routed *down* a regenerated spine towards the
/// twin task that will consume it (splice recovery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SalvagePacket {
    /// The task this packet is currently addressed to.
    pub to: TaskAddr,
    /// Stamp of the dead task whose twin should consume the result. The
    /// receiving task either *is* the twin (stamps equal) or forwards the
    /// packet towards its child on the path to `dead_stamp`.
    pub dead_stamp: LevelStamp,
    /// Address of the dead instance the orphan tried to reach. "Processor C
    /// receives these unexpected partial answers from grandchildren and
    /// asserts that the parent of these grandchildren is faulty" (§4.1):
    /// an ancestor still pointing at exactly this instance declares its
    /// processor dead and regenerates the twin.
    pub dead_addr: TaskAddr,
    /// The demand the orphan satisfied.
    pub demand: Demand,
    /// The orphan's value.
    pub value: Value,
    /// Stamp of the orphan task that produced the value (for tracing).
    pub from_stamp: LevelStamp,
}

/// An incremental re-checkpoint (the `MultiCheckpoint` recovery policy):
/// a long-lived task streams its completed children's results back to its
/// own checkpoint owner, which appends them to the stored checkpoint as
/// preload entries. A reissued twin is handed those entries up front and
/// replays strictly fewer waves. Never sent when
/// `Config::policy.recheckpoint_every == 0` (the default), so the paper's
/// eager scheme stays bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptPacket {
    /// The task that *owns* the sender's checkpoint — the sender's parent.
    pub owner: TaskAddr,
    /// Stamp of the reporting task (the checkpoint entry's key under its
    /// owner).
    pub from_stamp: LevelStamp,
    /// Completed child results accumulated since the last re-checkpoint:
    /// the demand each satisfied and the value computed.
    pub entries: Vec<(Demand, Value)>,
}

impl CkptPacket {
    /// Abstract wire size: stamp digits plus header plus each entry's
    /// value payload.
    pub fn size(&self) -> usize {
        let vals: usize = self.entries.iter().map(|(_, v)| v.size()).sum();
        2 + self.from_stamp.level() + vals
    }
}

/// Placement acknowledgement payload (Figure 6, state c: "task G receives
/// an acknowledge from P and establishes a parent-to-child pointer").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AckInfo {
    /// The spawned child's stamp.
    pub child_stamp: LevelStamp,
    /// Where it landed.
    pub child_addr: TaskAddr,
    /// The parent task being acknowledged.
    pub parent: TaskAddr,
    /// Incarnation of the acknowledged packet.
    pub incarnation: u32,
}

/// Messages exchanged between processors.
///
/// This enum is the complete wire vocabulary of the recovery protocol; both
/// the discrete-event simulator and the threaded runtime transport exactly
/// these values.
///
/// `Msg` values move *by value* through every substrate hop — into the
/// simulator's event queue, out again, through the shard router, across
/// runtime channels. The fat payloads (task packets, results, salvages,
/// acks) are therefore boxed so the enum itself stays three words wide
/// (`size_of::<Msg>() ≤ 24`, pinned by a test); only payload-free control
/// variants are held inline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// A task packet seeking a processor. May be forwarded several hops by
    /// the placer before an `Ack` pins it down (Figure 6, states b/d).
    Spawn(Box<TaskPacket>),
    /// Placement acknowledgement: the child landed at `child_addr`.
    Ack(Box<AckInfo>),
    /// A completed task's result.
    Result(Box<ResultPacket>),
    /// A salvaged orphan result being routed to its consumer.
    Salvage(Box<SalvagePacket>),
    /// Abort a task and, transitively, its descendants (rollback mode:
    /// orphans "commit suicide" and are garbage collected).
    Abort {
        /// The task to abort.
        to: TaskAddr,
    },
    /// Load/pressure beacon for the dynamic allocator (gradient model).
    Load {
        /// Reporting processor.
        from: ProcId,
        /// Its current pressure (queue length).
        pressure: u32,
    },
    /// Failure notification: `dead` has been identified as faulty, either by
    /// the detector substrate or by gossip.
    FailureNotice {
        /// The failed processor.
        dead: ProcId,
    },
    /// Liveness probe: a parent polling the host of an acked child whose
    /// result is overdue (`Config::probe_acked`). Carries no payload — a
    /// live recipient ignores it; a dead one bounces it, and the bounce
    /// is the detection.
    Probe,
    /// Incremental re-checkpoint entries (`MultiCheckpoint` policy): a
    /// task streaming completed child results back to its checkpoint
    /// owner.
    Ckpt(Box<CkptPacket>),
}

impl Msg {
    /// Wraps a task packet (boxing the payload).
    pub fn spawn(p: TaskPacket) -> Msg {
        Msg::Spawn(Box::new(p))
    }

    /// Builds a placement acknowledgement.
    pub fn ack(
        child_stamp: LevelStamp,
        child_addr: TaskAddr,
        parent: TaskAddr,
        incarnation: u32,
    ) -> Msg {
        Msg::Ack(Box::new(AckInfo {
            child_stamp,
            child_addr,
            parent,
            incarnation,
        }))
    }

    /// Wraps a result packet (boxing the payload).
    pub fn result(r: ResultPacket) -> Msg {
        Msg::Result(Box::new(r))
    }

    /// Wraps a salvage packet (boxing the payload).
    pub fn salvage(s: SalvagePacket) -> Msg {
        Msg::Salvage(Box::new(s))
    }

    /// Wraps a re-checkpoint packet (boxing the payload).
    pub fn ckpt(c: CkptPacket) -> Msg {
        Msg::Ckpt(Box::new(c))
    }

    /// Coarse message class for statistics.
    pub fn kind(&self) -> MsgKind {
        match self {
            Msg::Spawn(_) => MsgKind::Spawn,
            Msg::Ack { .. } => MsgKind::Ack,
            Msg::Result(_) => MsgKind::Result,
            Msg::Salvage(_) => MsgKind::Salvage,
            Msg::Abort { .. } => MsgKind::Abort,
            Msg::Load { .. } => MsgKind::Load,
            Msg::FailureNotice { .. } => MsgKind::FailureNotice,
            Msg::Probe => MsgKind::Probe,
            Msg::Ckpt(_) => MsgKind::Ckpt,
        }
    }

    /// Abstract payload size for link cost models. Like
    /// [`TaskPacket::size`], the recovery metadata a message carries is
    /// charged at true size: an ack carries its child stamp, a salvage its
    /// dead-stamp routing key, and a result its remaining relay links — an
    /// orphan result dragging a long relay chain costs more wire than a
    /// fresh one, which is exactly the overhead E8 measures. (`from_stamp`
    /// fields are tracing metadata and stay inside the flat header
    /// constant.)
    pub fn size(&self) -> usize {
        match self {
            Msg::Spawn(p) => p.size(),
            Msg::Ack(a) => 2 + a.child_stamp.level(),
            Msg::Result(r) => {
                let relay: usize = r.relay_chain.iter().map(TaskLink::size).sum();
                r.value.size() + 4 + relay
            }
            Msg::Salvage(s) => s.value.size() + 4 + s.dead_stamp.level(),
            Msg::Abort { .. } => 1,
            Msg::Load { .. } => 1,
            Msg::FailureNotice { .. } => 1,
            Msg::Probe => 1,
            Msg::Ckpt(c) => c.size(),
        }
    }
}

/// Message classes, used as statistic keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum MsgKind {
    Spawn,
    Ack,
    Result,
    Salvage,
    Abort,
    Load,
    FailureNotice,
    Probe,
    Ckpt,
}

impl MsgKind {
    /// All message kinds, for iteration in reports.
    pub const ALL: [MsgKind; 9] = [
        MsgKind::Spawn,
        MsgKind::Ack,
        MsgKind::Result,
        MsgKind::Salvage,
        MsgKind::Abort,
        MsgKind::Load,
        MsgKind::FailureNotice,
        MsgKind::Probe,
        MsgKind::Ckpt,
    ];
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgKind::Spawn => "spawn",
            MsgKind::Ack => "ack",
            MsgKind::Result => "result",
            MsgKind::Salvage => "salvage",
            MsgKind::Abort => "abort",
            MsgKind::Load => "load",
            MsgKind::FailureNotice => "failure-notice",
            MsgKind::Probe => "probe",
            MsgKind::Ckpt => "ckpt",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskKey;
    use splice_applicative::FnId;

    fn packet() -> TaskPacket {
        TaskPacket {
            stamp: LevelStamp::from_digits(&[1, 2]),
            demand: Demand::new(FnId(0), vec![Value::Int(5), Value::ints([1, 2])]),
            parent: TaskLink::new(
                TaskAddr::new(ProcId(1), TaskKey(3)),
                LevelStamp::from_digits(&[1]),
            ),
            ancestors: vec![TaskLink::super_root()],
            incarnation: 0,
            hops: 0,
            replica: None,
            under_replica: false,
        }
    }

    #[test]
    fn packet_size_counts_payload_and_links() {
        let p = packet();
        // args: 1 + 3 (list of 2) = 4; stamp level 2; header 2;
        // parent link 2 + 1 digit = 3; super-root ancestor link 2 + 0 = 2
        // → 13. The ancestor chain is charged at true link size.
        assert_eq!(p.size(), 13);
        let mut deeper = p.clone();
        deeper.ancestors.push(TaskLink::new(
            TaskAddr::new(ProcId(2), TaskKey(0)),
            LevelStamp::from_digits(&[1, 2, 3]),
        ));
        assert_eq!(deeper.size(), p.size() + 5, "2 addr units + 3 digits");
    }

    #[test]
    fn msg_stays_three_words_wide() {
        // The DES queue, shard router and runtime channels all move `Msg`
        // by value; fat payloads must stay boxed. A new inline variant (or
        // an unboxed payload) fails here before it degrades every hop.
        assert!(
            std::mem::size_of::<Msg>() <= 24,
            "Msg grew past 24 bytes: {}",
            std::mem::size_of::<Msg>()
        );
        assert!(
            std::mem::size_of::<LevelStamp>() <= 24,
            "LevelStamp grew past 24 bytes: {}",
            std::mem::size_of::<LevelStamp>()
        );
    }

    #[test]
    fn reissue_bumps_incarnation_and_resets_hops() {
        let mut p = packet();
        p.hops = 7;
        let r = p.reissue();
        assert_eq!(r.incarnation, 1);
        assert_eq!(r.hops, 0);
        assert_eq!(r.stamp, p.stamp);
        assert_eq!(r.demand, p.demand);
        assert_eq!(r.reissue().incarnation, 2);
    }

    #[test]
    fn msg_kinds_cover_all_variants() {
        let p = packet();
        let msgs = vec![
            Msg::spawn(p.clone()),
            Msg::ack(
                p.stamp.clone(),
                TaskAddr::new(ProcId(2), TaskKey(0)),
                p.parent.addr,
                0,
            ),
            Msg::result(ResultPacket {
                from_stamp: p.stamp.clone(),
                demand: p.demand.clone(),
                value: Value::Int(1),
                to: p.parent.addr,
                to_stamp: p.parent.stamp.clone(),
                relay_chain: vec![],
                replica: None,
            }),
            Msg::salvage(SalvagePacket {
                to: p.parent.addr,
                dead_stamp: p.stamp.clone(),
                dead_addr: TaskAddr::new(ProcId(1), TaskKey(0)),
                demand: p.demand.clone(),
                value: Value::Int(1),
                from_stamp: p.stamp.child(1),
            }),
            Msg::Abort { to: p.parent.addr },
            Msg::Load {
                from: ProcId(0),
                pressure: 3,
            },
            Msg::FailureNotice { dead: ProcId(1) },
            Msg::Probe,
            Msg::ckpt(CkptPacket {
                owner: p.parent.addr,
                from_stamp: p.stamp.clone(),
                entries: vec![(p.demand.clone(), Value::Int(1))],
            }),
        ];
        let kinds: Vec<MsgKind> = msgs.iter().map(Msg::kind).collect();
        assert_eq!(kinds, MsgKind::ALL.to_vec());
        for m in &msgs {
            assert!(m.size() >= 1);
        }
    }
}
