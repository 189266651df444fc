//! Functional checkpoints and the per-destination checkpoint table (§2, §3.2).
//!
//! "As a child task is spawned to a new node, the parent task may retain a
//! copy of the task packet. This retained copy is all that the parent needs
//! to regenerate the child task, should the node evaluating the child task
//! fail." (§2)
//!
//! "Each processor maintains a table of linked lists. The Nth entry of the
//! table contains all topmost checkpoints from the host processor to
//! processor N." (§3.2)
//!
//! Lifecycle refinement (see DESIGN.md): checkpoints are stored at spawn
//! time (destination unknown until the placement ACK — Figure 6 state b),
//! filed under the destination on ACK, retired when the child's result
//! arrives or the owning task aborts, and the *topmost* rule is applied at
//! recovery time over the live entries. Filtering at insert time would be
//! unsound once an ancestor checkpoint retires before its descendants.

use crate::config::CheckpointFilter;
use crate::ids::{ProcId, TaskKey};
use crate::packet::TaskPacket;
use crate::stamp::LevelStamp;
use splice_applicative::wave::Demand;
use splice_applicative::{FxHashMap, FxHashSet, Value};
use std::collections::HashSet;

/// Key of a stored checkpoint: owning (parent) task plus child stamp. Two
/// concurrent twin instances on one processor can hold checkpoints for the
/// same child stamp, hence the owner in the key.
pub type CheckpointKey = (TaskKey, LevelStamp);

/// A retained task packet plus bookkeeping.
#[derive(Clone, Debug)]
pub struct StoredCheckpoint {
    /// The retained packet — everything needed to regenerate the child.
    pub packet: TaskPacket,
    /// Incremental re-checkpoint entries (`MultiCheckpoint` policy):
    /// completed grandchild results the checkpointed child reported back.
    /// A reissued twin is handed these as preloads so it replays fewer
    /// waves. Empty unless re-checkpointing is on.
    pub preloads: Vec<(Demand, Value)>,
    /// The local task that spawned (and can re-spawn) the child.
    pub owner: TaskKey,
    /// Destination processor, once the placement ACK named it.
    pub dest: Option<ProcId>,
}

impl StoredCheckpoint {
    /// Abstract retained bytes: the packet plus any preloaded result
    /// values.
    fn size(&self) -> usize {
        self.packet.size() + self.preloads.iter().map(|(_, v)| v.size()).sum::<usize>()
    }
}

/// The per-processor checkpoint table.
///
/// Entries are filed per owner and then per child stamp, so every lookup
/// path (`get`, `on_ack`, `retire`, salvage routing) borrows the caller's
/// stamp instead of cloning it into a tuple key, and `retire_owner` drops
/// an aborting task's checkpoints by detaching one inner map.
#[derive(Debug, Default)]
pub struct CheckpointTable {
    entries: FxHashMap<TaskKey, FxHashMap<LevelStamp, StoredCheckpoint>>,
    by_dest: FxHashMap<ProcId, FxHashSet<CheckpointKey>>,
    count: usize,
    bytes: usize,
    peak_entries: usize,
    peak_bytes: usize,
    stored_total: u64,
    retired_total: u64,
}

impl CheckpointTable {
    /// Creates an empty table.
    pub fn new() -> CheckpointTable {
        CheckpointTable::default()
    }

    /// Stores the retained packet for a freshly spawned child. The entry is
    /// "pending" (no destination) until [`CheckpointTable::on_ack`].
    pub fn store(&mut self, owner: TaskKey, packet: TaskPacket) {
        let stamp = packet.stamp.clone();
        let cp = StoredCheckpoint {
            packet,
            preloads: Vec::new(),
            owner,
            dest: None,
        };
        self.bytes += cp.size();
        if let Some(old) = self
            .entries
            .entry(owner)
            .or_default()
            .insert(stamp.clone(), cp)
        {
            // Re-store of the same child (shouldn't happen in practice).
            self.bytes -= old.size();
            if let Some(d) = old.dest {
                self.by_dest.get_mut(&d).map(|s| s.remove(&(owner, stamp)));
            }
        } else {
            self.count += 1;
        }
        self.stored_total += 1;
        self.peak_entries = self.peak_entries.max(self.count);
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    /// Appends incremental re-checkpoint entries to a live checkpoint
    /// (`MultiCheckpoint` policy), deduplicating by demand. Returns `true`
    /// when the checkpoint exists (stale reports are the caller's counter).
    pub fn add_preloads(
        &mut self,
        owner: TaskKey,
        stamp: &LevelStamp,
        entries: Vec<(Demand, Value)>,
    ) -> bool {
        let Some(cp) = self.entries.get_mut(&owner).and_then(|m| m.get_mut(stamp)) else {
            return false;
        };
        let mut added = 0usize;
        for (d, v) in entries {
            if cp.preloads.iter().any(|(pd, _)| *pd == d) {
                continue;
            }
            added += v.size();
            cp.preloads.push((d, v));
        }
        self.bytes += added;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        true
    }

    fn entry_mut(&mut self, owner: TaskKey, stamp: &LevelStamp) -> Option<&mut StoredCheckpoint> {
        self.entries.get_mut(&owner)?.get_mut(stamp)
    }

    /// Files (or re-files) a checkpoint under the destination processor
    /// named by a placement ACK.
    pub fn on_ack(&mut self, owner: TaskKey, stamp: &LevelStamp, dest: ProcId) {
        let Some(cp) = self.entry_mut(owner, stamp) else {
            return;
        };
        if let Some(old) = cp.dest.replace(dest) {
            if old != dest {
                self.by_dest
                    .get_mut(&old)
                    .map(|s| s.remove(&(owner, stamp.clone())));
            }
        }
        self.by_dest
            .entry(dest)
            .or_default()
            .insert((owner, stamp.clone()));
    }

    /// Marks a reissued checkpoint as pending again (destination unknown
    /// until the new ACK).
    pub fn on_reissue(&mut self, owner: TaskKey, stamp: &LevelStamp) {
        let Some(cp) = self.entry_mut(owner, stamp) else {
            return;
        };
        cp.packet.incarnation += 1;
        if let Some(old) = cp.dest.take() {
            self.by_dest
                .get_mut(&old)
                .map(|s| s.remove(&(owner, stamp.clone())));
        }
    }

    /// Retires the checkpoint for `stamp` owned by `owner` (the child's
    /// result arrived, or the demand was satisfied by salvage). Returns
    /// `true` if an entry was removed.
    pub fn retire(&mut self, owner: TaskKey, stamp: &LevelStamp) -> bool {
        let Some(inner) = self.entries.get_mut(&owner) else {
            return false;
        };
        let Some(cp) = inner.remove(stamp) else {
            return false;
        };
        if inner.is_empty() {
            self.entries.remove(&owner);
        }
        self.count -= 1;
        self.bytes -= cp.size();
        if let Some(d) = cp.dest {
            self.by_dest
                .get_mut(&d)
                .map(|s| s.remove(&(owner, stamp.clone())));
        }
        self.retired_total += 1;
        true
    }

    /// Retires every checkpoint owned by an aborting task. Returns how many
    /// were dropped.
    pub fn retire_owner(&mut self, owner: TaskKey) -> usize {
        let Some(inner) = self.entries.remove(&owner) else {
            return 0;
        };
        let n = inner.len();
        for (stamp, cp) in inner {
            self.bytes -= cp.size();
            if let Some(d) = cp.dest {
                self.by_dest
                    .get_mut(&d)
                    .map(|s| s.remove(&(owner, stamp.clone())));
            }
        }
        self.count -= n;
        self.retired_total += n as u64;
        n
    }

    /// The live checkpoints filed under destination `dead`, selected for
    /// recovery re-issue.
    ///
    /// * `CheckpointFilter::Topmost` applies the paper's §3.2 rule: skip any
    ///   checkpoint whose stamp descends from another checkpoint *in the
    ///   same entry* (the B5 example).
    /// * `CheckpointFilter::All` returns every live entry — required by
    ///   splice recovery (every live parent regenerates its own dead
    ///   children) and available in rollback as the E3 ablation.
    pub fn recover_candidates(
        &self,
        dead: ProcId,
        filter: CheckpointFilter,
    ) -> Vec<StoredCheckpoint> {
        let keys = match self.by_dest.get(&dead) {
            None => return Vec::new(),
            Some(k) => k,
        };
        let mut cps: Vec<&StoredCheckpoint> = keys
            .iter()
            .filter_map(|(owner, stamp)| self.entries.get(owner)?.get(stamp))
            .collect();
        // Deterministic order regardless of hash iteration.
        cps.sort_by(|a, b| {
            a.packet
                .stamp
                .cmp(&b.packet.stamp)
                .then(a.owner.cmp(&b.owner))
        });
        match filter {
            CheckpointFilter::All => cps.into_iter().cloned().collect(),
            CheckpointFilter::Topmost => {
                let top = LevelStamp::topmost(cps.iter().map(|c| c.packet.stamp.clone()));
                let top: HashSet<LevelStamp> = top.into_iter().collect();
                cps.into_iter()
                    .filter(|c| top.contains(&c.packet.stamp))
                    .cloned()
                    .collect()
            }
        }
    }

    /// Looks up the live checkpoint for a given owner/stamp.
    pub fn get(&self, owner: TaskKey, stamp: &LevelStamp) -> Option<&StoredCheckpoint> {
        self.entries.get(&owner)?.get(stamp)
    }

    /// Number of live checkpoints.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no checkpoints are live.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Current retained bytes (abstract units).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Peak simultaneous entries.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Peak retained bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Total checkpoints ever stored.
    pub fn stored_total(&self) -> u64 {
        self.stored_total
    }

    /// Total checkpoints retired.
    pub fn retired_total(&self) -> u64 {
        self.retired_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskAddr;
    use crate::packet::TaskLink;
    use splice_applicative::wave::Demand;
    use splice_applicative::{FnId, Value};

    fn pkt(stamp: &[u32]) -> TaskPacket {
        TaskPacket {
            stamp: LevelStamp::from_digits(stamp),
            demand: Demand::new(FnId(0), vec![Value::Int(1)]),
            parent: TaskLink::new(TaskAddr::new(ProcId(0), TaskKey(0)), LevelStamp::root()),
            ancestors: vec![],
            incarnation: 0,
            hops: 0,
            replica: None,
            under_replica: false,
        }
    }

    const B: ProcId = ProcId(1);

    #[test]
    fn store_ack_retire_lifecycle() {
        let mut t = CheckpointTable::new();
        let owner = TaskKey(7);
        t.store(owner, pkt(&[1, 1]));
        assert_eq!(t.len(), 1);
        assert!(t.bytes() > 0);
        // Pending entries are not recoverable for any destination yet.
        assert!(t.recover_candidates(B, CheckpointFilter::All).is_empty());
        t.on_ack(owner, &LevelStamp::from_digits(&[1, 1]), B);
        assert_eq!(t.recover_candidates(B, CheckpointFilter::All).len(), 1);
        assert!(t.retire(owner, &LevelStamp::from_digits(&[1, 1])));
        assert!(!t.retire(owner, &LevelStamp::from_digits(&[1, 1])));
        assert!(t.is_empty());
        assert_eq!(t.bytes(), 0);
        assert_eq!(t.stored_total(), 1);
        assert_eq!(t.retired_total(), 1);
    }

    #[test]
    fn figure1_topmost_rule() {
        // Processor C holds checkpoints for B2, B3, B5 in entry B, where B5
        // descends from B2. Recovery must reissue only B2 and B3.
        let mut t = CheckpointTable::new();
        let c1 = TaskKey(1); // spawned B2
        let c2 = TaskKey(2); // spawned B3
        let c4 = TaskKey(4); // spawned B5
        let b2 = LevelStamp::from_digits(&[1, 1]);
        let b3 = LevelStamp::from_digits(&[1, 2]);
        let b5 = LevelStamp::from_digits(&[1, 1, 2, 1]);
        t.store(c1, pkt(&b2.digits()));
        t.store(c2, pkt(&b3.digits()));
        t.store(c4, pkt(&b5.digits()));
        t.on_ack(c1, &b2, B);
        t.on_ack(c2, &b3, B);
        t.on_ack(c4, &b5, B);
        let top = t.recover_candidates(B, CheckpointFilter::Topmost);
        let stamps: Vec<&LevelStamp> = top.iter().map(|c| &c.packet.stamp).collect();
        assert_eq!(stamps, vec![&b2, &b3]);
        // The ablation reissues all three (B5 fruitlessly).
        assert_eq!(t.recover_candidates(B, CheckpointFilter::All).len(), 3);
    }

    #[test]
    fn retirement_repromotes_descendants() {
        // Once B2 retires (its result arrived), B5 becomes topmost — the
        // scenario that makes insert-time filtering unsound.
        let mut t = CheckpointTable::new();
        let b2 = LevelStamp::from_digits(&[1, 1]);
        let b5 = LevelStamp::from_digits(&[1, 1, 2, 1]);
        t.store(TaskKey(1), pkt(&b2.digits()));
        t.store(TaskKey(4), pkt(&b5.digits()));
        t.on_ack(TaskKey(1), &b2, B);
        t.on_ack(TaskKey(4), &b5, B);
        assert_eq!(t.recover_candidates(B, CheckpointFilter::Topmost).len(), 1);
        t.retire(TaskKey(1), &b2);
        let top = t.recover_candidates(B, CheckpointFilter::Topmost);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].packet.stamp, b5);
    }

    #[test]
    fn entries_move_between_destinations() {
        let mut t = CheckpointTable::new();
        let s = LevelStamp::from_digits(&[2]);
        t.store(TaskKey(0), pkt(&s.digits()));
        t.on_ack(TaskKey(0), &s, B);
        // Reissue: pending again.
        t.on_reissue(TaskKey(0), &s);
        assert!(t.recover_candidates(B, CheckpointFilter::All).is_empty());
        assert_eq!(t.get(TaskKey(0), &s).unwrap().packet.incarnation, 1);
        // Re-acked at a different processor.
        t.on_ack(TaskKey(0), &s, ProcId(3));
        assert!(t.recover_candidates(B, CheckpointFilter::All).is_empty());
        assert_eq!(
            t.recover_candidates(ProcId(3), CheckpointFilter::All).len(),
            1
        );
    }

    #[test]
    fn retire_owner_drops_all_of_a_tasks_checkpoints() {
        let mut t = CheckpointTable::new();
        t.store(TaskKey(1), pkt(&[1, 1]));
        t.store(TaskKey(1), pkt(&[1, 2]));
        t.store(TaskKey(2), pkt(&[2, 1]));
        assert_eq!(t.retire_owner(TaskKey(1)), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.retire_owner(TaskKey(1)), 0);
    }

    #[test]
    fn same_stamp_different_owners_coexist() {
        // Two twin instances can checkpoint the same child stamp.
        let mut t = CheckpointTable::new();
        let s = LevelStamp::from_digits(&[1, 3]);
        t.store(TaskKey(1), pkt(&s.digits()));
        t.store(TaskKey(2), pkt(&s.digits()));
        assert_eq!(t.len(), 2);
        t.on_ack(TaskKey(1), &s, B);
        t.on_ack(TaskKey(2), &s, B);
        assert_eq!(t.recover_candidates(B, CheckpointFilter::All).len(), 2);
        assert!(t.retire(TaskKey(1), &s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn preloads_accumulate_and_dedup_by_demand() {
        let mut t = CheckpointTable::new();
        let s = LevelStamp::from_digits(&[1, 1]);
        t.store(TaskKey(1), pkt(&s.digits()));
        let base = t.bytes();
        let d1 = Demand::new(FnId(1), vec![Value::Int(1)]);
        let d2 = Demand::new(FnId(1), vec![Value::Int(2)]);
        assert!(t.add_preloads(TaskKey(1), &s, vec![(d1.clone(), Value::Int(10))]));
        assert!(t.add_preloads(
            TaskKey(1),
            &s,
            vec![(d1.clone(), Value::Int(10)), (d2, Value::Int(20))]
        ));
        let cp = t.get(TaskKey(1), &s).unwrap();
        assert_eq!(cp.preloads.len(), 2, "duplicate demand must not re-enter");
        assert!(t.bytes() > base);
        // Unknown checkpoints report stale.
        assert!(!t.add_preloads(TaskKey(9), &s, vec![(d1, Value::Int(0))]));
        t.retire(TaskKey(1), &s);
        assert_eq!(t.bytes(), 0, "retire must release preload bytes too");
    }

    #[test]
    fn peaks_track_high_water_marks() {
        let mut t = CheckpointTable::new();
        t.store(TaskKey(1), pkt(&[1]));
        t.store(TaskKey(1), pkt(&[2]));
        let peak = t.peak_entries();
        t.retire(TaskKey(1), &LevelStamp::from_digits(&[1]));
        t.retire(TaskKey(1), &LevelStamp::from_digits(&[2]));
        assert_eq!(t.peak_entries(), peak);
        assert!(t.peak_bytes() > 0);
        assert_eq!(t.bytes(), 0);
    }
}
