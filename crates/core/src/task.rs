//! Per-task protocol state held by a processor.
//!
//! A [`Task`] couples the suspendable wave evaluation (`TaskEval`) with the
//! genealogical bookkeeping recovery needs: the parent/ancestor links from
//! its packet, per-child spawn state (Figure 6's pointer lifecycle), vote
//! state for replicated children, and buffers for salvaged results that
//! cannot be routed onwards yet.

use crate::checkpoint::Checkpoint;
use crate::ids::{TaskAddr, TaskKey};
use crate::packet::{ReplicaInfo, SalvagePacket, TaskLink, TaskPacket};
use crate::replicate::Vote;
use crate::stamp::LevelStamp;
use splice_applicative::wave::{Demand, TaskEval};
use splice_applicative::FxHashMap;

/// State of one replicated child group (§5.3).
#[derive(Clone, Debug)]
pub struct VoteGroup {
    /// The running vote.
    pub vote: Vote,
    /// The base packet (no replica marker), kept for group reissue when all
    /// replicas are lost.
    pub base: TaskPacket,
    /// Current (last known) processor of each replica; placement destination
    /// until the ACK refines it.
    pub placed: Vec<crate::ids::ProcId>,
}

/// Spawn state of one child demand.
#[derive(Clone, Debug)]
pub struct ChildInfo {
    /// The demand the child computes.
    pub demand: Demand,
    /// The child's level stamp.
    pub stamp: LevelStamp,
    /// Latest acknowledged location and the incarnation it acknowledged.
    pub acked: Option<(TaskAddr, u32)>,
    /// Latest issued incarnation of the child packet.
    pub incarnation: u32,
    /// True once the demand has been satisfied (result, vote or salvage).
    pub done: bool,
    /// Salvage packets waiting for this child's placement ACK before being
    /// forwarded down the regenerated spine.
    pub pending_salvages: Vec<SalvagePacket>,
    /// Vote state when the child is replicated. Boxed: only replicated
    /// children (§5.3) fill it, and inline it would more than double the
    /// size of every child record in every children table.
    pub vote: Option<Box<VoteGroup>>,
    /// Set when a failure notice deferred this child's twin creation by the
    /// splice grace period (E13); cleared when the twin is actually issued.
    pub twin_pending: bool,
    /// Lazy policy: the child's host died and the reissue was deferred
    /// until the owner's progress actually demands the result. Cleared on
    /// rebuild.
    pub lost: bool,
    /// The child's live functional checkpoint (§2): present from spawn
    /// until the demand is satisfied, when the recovery mode checkpoints
    /// and the child is not replicated.
    pub ckpt: Option<Checkpoint>,
}

impl ChildInfo {
    /// The acknowledged address for the *current* incarnation, if any.
    pub fn current_addr(&self) -> Option<TaskAddr> {
        self.acked
            .filter(|(_, inc)| *inc == self.incarnation)
            .map(|(a, _)| a)
    }
}

/// One resident task.
#[derive(Debug)]
pub struct Task {
    /// Local key.
    pub key: TaskKey,
    /// Level stamp (§3.1).
    pub stamp: LevelStamp,
    /// The suspendable evaluation.
    pub eval: TaskEval,
    /// Parent link (results return here).
    pub parent: TaskLink,
    /// Ancestors beyond the parent, nearest first (grandparent at index 0).
    pub ancestors: Vec<TaskLink>,
    /// Replica marker when this task is one replica of a group.
    pub replica: Option<ReplicaInfo>,
    /// True anywhere inside a replica's subtree (see `TaskPacket`).
    pub under_replica: bool,
    /// Incarnation of the packet that created this instance.
    pub incarnation: u32,
    /// Children by stamp: the frame's only per-child index. The rare
    /// lookup by demand ([`Task::child_stamp_of`]) scans it instead of
    /// keeping a second map in step.
    pub children: FxHashMap<LevelStamp, ChildInfo>,
    /// Next child digit to assign (digits start at 1).
    pub next_digit: u32,
    /// Salvaged results for descendants this (twin) task has not spawned
    /// yet; drained as matching children appear.
    pub future_salvages: Vec<SalvagePacket>,
    /// True while the task sits in the ready queue (guards double-queueing).
    pub queued: bool,
    /// MultiCheckpoint policy: completed child results accumulated since
    /// the last incremental re-checkpoint was shipped to this task's own
    /// checkpoint owner. Unused (stays empty) when re-checkpointing is off.
    pub ckpt_pending: Vec<(Demand, splice_applicative::Value)>,
}

impl Task {
    /// Instantiates a task from its packet, taking over the packet's
    /// argument list and ancestor buffer without copying them.
    pub fn from_packet(key: TaskKey, p: TaskPacket) -> Task {
        Task {
            key,
            stamp: p.stamp,
            eval: TaskEval::new(p.demand.fun, p.demand.args),
            parent: p.parent,
            ancestors: p.ancestors,
            under_replica: p.under_replica || p.replica.is_some(),
            replica: p.replica,
            incarnation: p.incarnation,
            children: FxHashMap::default(),
            next_digit: 0,
            future_salvages: Vec::new(),
            queued: false,
            ckpt_pending: Vec::new(),
        }
    }

    /// A placeholder frame that owns no heap memory: what a frame slot
    /// holds while its frame is out of the slab.
    pub(crate) fn vacant() -> Task {
        Task {
            key: TaskKey(0),
            stamp: LevelStamp::root(),
            eval: TaskEval::new(splice_applicative::FnId(0), Default::default()),
            parent: TaskLink::super_root(),
            ancestors: Vec::new(),
            replica: None,
            under_replica: false,
            incarnation: 0,
            children: FxHashMap::default(),
            next_digit: 0,
            future_salvages: Vec::new(),
            queued: false,
            ckpt_pending: Vec::new(),
        }
    }

    /// Reinitializes a recycled frame from a packet — the allocation-free
    /// twin of [`Task::from_packet`]. The frame's children table, buffers
    /// and call cache keep their capacity across task generations; the
    /// arguments and ancestors are the packet's, moved in.
    pub fn reset_from_packet(&mut self, key: TaskKey, p: TaskPacket) {
        debug_assert!(
            self.children.is_empty()
                && self.future_salvages.is_empty()
                && self.ckpt_pending.is_empty(),
            "recycled frame was not cleared"
        );
        self.key = key;
        self.stamp = p.stamp;
        self.eval.reset(p.demand.fun, p.demand.args);
        self.parent = p.parent;
        self.ancestors = p.ancestors;
        self.under_replica = p.under_replica || p.replica.is_some();
        self.replica = p.replica;
        self.incarnation = p.incarnation;
        self.next_digit = 0;
        self.queued = false;
    }

    /// Drops a retired frame's per-task state, keeping the children table
    /// and buffers for [`Task::reset_from_packet`]. The ancestor buffer is
    /// freed: the next packet brings its own.
    pub fn clear_for_reuse(&mut self) {
        self.children.clear();
        self.future_salvages.clear();
        self.ancestors = Vec::new();
        self.ckpt_pending.clear();
    }

    /// Allocates the stamp for the next child. Demand order is
    /// deterministic (wave evaluator), so twins reproduce the same stamps —
    /// the keystone of splice salvaging.
    pub fn next_child_stamp(&mut self) -> LevelStamp {
        self.next_digit += 1;
        self.stamp.child(self.next_digit)
    }

    /// Registers a spawned child. The wave evaluator issues each demand
    /// once per frame, so no two children share a demand.
    pub fn register_child(&mut self, info: ChildInfo) {
        debug_assert!(self.child_stamp_of(&info.demand).is_none());
        self.children.insert(info.stamp.clone(), info);
    }

    /// Child lookup by stamp.
    pub fn child_mut(&mut self, stamp: &LevelStamp) -> Option<&mut ChildInfo> {
        self.children.get_mut(stamp)
    }

    /// Child lookup by demand: a scan, run only when a salvage arrives.
    pub fn child_stamp_of(&self, demand: &Demand) -> Option<&LevelStamp> {
        self.children
            .iter()
            .find(|(_, c)| c.demand == *demand)
            .map(|(stamp, _)| stamp)
    }

    /// Takes the buffered future salvages that belong to child `stamp`
    /// (the dead stamp equals the child or descends from it).
    pub fn take_future_salvages_for(&mut self, stamp: &LevelStamp) -> Vec<SalvagePacket> {
        let mut taken = Vec::new();
        let mut kept = Vec::new();
        for s in self.future_salvages.drain(..) {
            if stamp.is_self_or_ancestor_of(&s.dead_stamp) {
                taken.push(s);
            } else {
                kept.push(s);
            }
        }
        self.future_salvages = kept;
        taken
    }

    /// True when every registered child demand is satisfied.
    pub fn all_children_done(&self) -> bool {
        self.children.values().all(|c| c.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcId;
    use splice_applicative::{FnId, Value};

    fn packet(stamp: &[u32]) -> TaskPacket {
        TaskPacket {
            stamp: LevelStamp::from_digits(stamp),
            demand: Demand::new(FnId(0), vec![Value::Int(3)]),
            parent: TaskLink::super_root(),
            ancestors: vec![],
            incarnation: 2,
            hops: 1,
            replica: None,
            under_replica: false,
        }
    }

    #[test]
    fn from_packet_copies_links() {
        let t = Task::from_packet(TaskKey(5), packet(&[1, 2]));
        assert_eq!(t.stamp, LevelStamp::from_digits(&[1, 2]));
        assert_eq!(t.incarnation, 2);
        assert_eq!(t.eval.args(), &[Value::Int(3)]);
        assert!(t.children.is_empty());
    }

    #[test]
    fn child_stamps_are_sequential() {
        let mut t = Task::from_packet(TaskKey(0), packet(&[1]));
        assert_eq!(t.next_child_stamp(), LevelStamp::from_digits(&[1, 1]));
        assert_eq!(t.next_child_stamp(), LevelStamp::from_digits(&[1, 2]));
        assert_eq!(t.next_child_stamp(), LevelStamp::from_digits(&[1, 3]));
    }

    #[test]
    fn current_addr_requires_matching_incarnation() {
        let addr = TaskAddr::new(ProcId(2), TaskKey(9));
        let mut ci = ChildInfo {
            demand: Demand::new(FnId(0), vec![]),
            stamp: LevelStamp::from_digits(&[1]),
            acked: Some((addr, 0)),
            incarnation: 0,
            done: false,
            pending_salvages: vec![],
            vote: None,
            twin_pending: false,
            lost: false,
            ckpt: None,
        };
        assert_eq!(ci.current_addr(), Some(addr));
        ci.incarnation = 1; // reissued; the old ack is stale
        assert_eq!(ci.current_addr(), None);
        ci.acked = Some((addr, 1));
        assert_eq!(ci.current_addr(), Some(addr));
    }

    #[test]
    fn future_salvage_partition_by_subtree() {
        let mut t = Task::from_packet(TaskKey(0), packet(&[1]));
        let mk = |dead: &[u32]| SalvagePacket {
            to: TaskAddr::new(ProcId(0), TaskKey(0)),
            dead_stamp: LevelStamp::from_digits(dead),
            dead_addr: TaskAddr::new(ProcId(9), TaskKey(9)),
            demand: Demand::new(FnId(0), vec![]),
            value: Value::Int(0),
            from_stamp: LevelStamp::from_digits(&[9]),
        };
        t.future_salvages.push(mk(&[1, 1]));
        t.future_salvages.push(mk(&[1, 1, 2]));
        t.future_salvages.push(mk(&[1, 2]));
        let for_c1 = t.take_future_salvages_for(&LevelStamp::from_digits(&[1, 1]));
        assert_eq!(for_c1.len(), 2);
        assert_eq!(t.future_salvages.len(), 1);
    }

    #[test]
    fn register_and_lookup_children() {
        let mut t = Task::from_packet(TaskKey(0), packet(&[1]));
        let d = Demand::new(FnId(1), vec![Value::Int(4)]);
        let stamp = t.next_child_stamp();
        t.register_child(ChildInfo {
            demand: d.clone(),
            stamp: stamp.clone(),
            acked: None,
            incarnation: 0,
            done: false,
            pending_salvages: vec![],
            vote: None,
            twin_pending: false,
            lost: false,
            ckpt: None,
        });
        assert_eq!(t.child_stamp_of(&d), Some(&stamp));
        assert!(!t.all_children_done());
        t.child_mut(&stamp).unwrap().done = true;
        assert!(t.all_children_done());
    }

    #[test]
    fn child_records_stay_small() {
        // Every spawning frame keeps one children-table bucket per child,
        // so the record's size is the frame's size. The vote group is
        // boxed to keep it out of the unreplicated majority.
        let info = std::mem::size_of::<ChildInfo>();
        assert!(info <= 168, "ChildInfo grew past 168 bytes: {info}");
        let bucket = std::mem::size_of::<(LevelStamp, ChildInfo)>();
        assert!(
            bucket <= 192,
            "children bucket grew past 192 bytes: {bucket}"
        );
    }
}
