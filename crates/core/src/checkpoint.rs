//! Functional checkpoints and recovery selection (§2, §3.2).
//!
//! "As a child task is spawned to a new node, the parent task may retain a
//! copy of the task packet. This retained copy is all that the parent needs
//! to regenerate the child task, should the node evaluating the child task
//! fail." (§2)
//!
//! The parent already retains every field of that packet: the child record
//! ([`crate::task::ChildInfo`]) holds the demand, stamp and incarnation, and
//! the owning [`crate::task::Task`] holds the parent and ancestor links. So a
//! live checkpoint is a [`Checkpoint`] field of the child record — the
//! destination, the packet's size and any re-checkpoint preloads — and the
//! packet itself is rebuilt on reissue, bit-identical to the one spawned.
//!
//! "Each processor maintains a table of linked lists. The Nth entry of the
//! table contains all topmost checkpoints from the host processor to
//! processor N." (§3.2) Entry N is needed only when processor N is found
//! dead, so it is not kept: the engine builds it at that moment by scanning
//! its live children for `dest == N`, and [`select_for_recovery`] applies
//! the *topmost* rule over it. Filtering at insert time would be unsound
//! once an ancestor checkpoint retires before its descendants.
//!
//! Lifecycle: a checkpoint is stored at spawn (destination unknown until
//! the placement ACK — Figure 6 state b), gains its destination on ACK,
//! loses it again on reissue, and retires when the child's result arrives
//! or the owning task leaves. [`CheckpointTable`] keeps only the counters.

use crate::config::CheckpointFilter;
use crate::ids::{ProcId, TaskKey};
use crate::stamp::LevelStamp;
use splice_applicative::wave::Demand;
use splice_applicative::Value;

/// The live functional checkpoint of one spawned child, held in its
/// [`crate::task::ChildInfo`]. The packet is not copied: the engine
/// rebuilds it from the child record and its owner on reissue.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Destination processor, once the placement ACK named it.
    pub dest: Option<ProcId>,
    /// Abstract size of the retained packet.
    pub packet_bytes: usize,
    /// Incremental re-checkpoint entries (`MultiCheckpoint` policy):
    /// completed grandchild results the checkpointed child reported back.
    /// A reissued twin is handed these as preloads so it replays fewer
    /// waves. Empty unless re-checkpointing is on.
    pub preloads: Vec<(Demand, Value)>,
}

impl Checkpoint {
    /// Abstract retained bytes: the packet plus any preloaded result
    /// values.
    fn size(&self) -> usize {
        self.packet_bytes + self.preloads.iter().map(|(_, v)| v.size()).sum::<usize>()
    }
}

/// The per-processor checkpoint counters. The checkpoints themselves live
/// in the child records; every store, growth and retirement goes through
/// here so the live count, retained bytes and their peaks stay exact.
#[derive(Debug, Default)]
pub struct CheckpointTable {
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

    /// Stores the checkpoint of a freshly spawned child whose packet is
    /// `packet_bytes` large. It is pending (no destination) until the ACK.
    pub fn store(&mut self, packet_bytes: usize) -> Checkpoint {
        self.count += 1;
        self.bytes += packet_bytes;
        self.stored_total += 1;
        self.peak_entries = self.peak_entries.max(self.count);
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        Checkpoint {
            dest: None,
            packet_bytes,
            preloads: Vec::new(),
        }
    }

    /// Appends incremental re-checkpoint entries to a live checkpoint
    /// (`MultiCheckpoint` policy), deduplicating by demand.
    pub fn add_preloads(&mut self, cp: &mut Checkpoint, entries: Vec<(Demand, Value)>) {
        for (d, v) in entries {
            if cp.preloads.iter().any(|(pd, _)| *pd == d) {
                continue;
            }
            self.bytes += v.size();
            cp.preloads.push((d, v));
        }
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    /// Retires a checkpoint: the child's result arrived, or its owner left.
    pub fn retire(&mut self, cp: Checkpoint) {
        self.count -= 1;
        self.bytes -= cp.size();
        self.retired_total += 1;
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

/// Selects, from the live checkpoints found filed under a dead destination
/// (as `(child stamp, owner)` pairs), the ones recovery reissues, in
/// reissue order: by stamp, then owner, regardless of discovery order.
///
/// * `CheckpointFilter::Topmost` applies the paper's §3.2 rule: skip any
///   checkpoint whose stamp descends from another checkpoint *in the same
///   entry* (the B5 example). Two owners of one stamp (twin instances on
///   one processor) both stay.
/// * `CheckpointFilter::All` keeps every entry — required by splice
///   recovery (every live parent regenerates its own dead children) and
///   available in rollback as the E3 ablation.
pub fn select_for_recovery(
    mut entry: Vec<(LevelStamp, TaskKey)>,
    filter: CheckpointFilter,
) -> Vec<(LevelStamp, TaskKey)> {
    entry.sort_unstable();
    if filter == CheckpointFilter::Topmost {
        let top = LevelStamp::topmost(entry.iter().map(|(s, _)| s.clone()));
        entry.retain(|(s, _)| top.binary_search(s).is_ok());
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(digits: &[u32]) -> LevelStamp {
        LevelStamp::from_digits(digits)
    }

    #[test]
    fn figure1_topmost_rule() {
        // Processor C holds checkpoints for B2, B3, B5 in entry B, where B5
        // descends from B2. Recovery must reissue only B2 and B3.
        let b2 = s(&[1, 1]);
        let b3 = s(&[1, 2]);
        let b5 = s(&[1, 1, 2, 1]);
        // Owners: C1 spawned B2, C2 spawned B3, C4 spawned B5; discovery
        // order is whatever the scan met first.
        let entry = vec![
            (b5.clone(), TaskKey(4)),
            (b3.clone(), TaskKey(2)),
            (b2.clone(), TaskKey(1)),
        ];
        let top = select_for_recovery(entry.clone(), CheckpointFilter::Topmost);
        assert_eq!(
            top,
            vec![(b2.clone(), TaskKey(1)), (b3.clone(), TaskKey(2))]
        );
        // The ablation reissues all three (B5 fruitlessly), in stamp order.
        let all = select_for_recovery(entry, CheckpointFilter::All);
        assert_eq!(
            all,
            vec![(b2, TaskKey(1)), (b5, TaskKey(4)), (b3, TaskKey(2))]
        );
    }

    #[test]
    fn retirement_repromotes_descendants() {
        // Once B2 retires (its result arrived), B5 becomes topmost — the
        // scenario that makes insert-time filtering unsound.
        let b2 = s(&[1, 1]);
        let b5 = s(&[1, 1, 2, 1]);
        let both = vec![(b2.clone(), TaskKey(1)), (b5.clone(), TaskKey(4))];
        assert_eq!(
            select_for_recovery(both, CheckpointFilter::Topmost),
            vec![(b2, TaskKey(1))]
        );
        let after_retire = vec![(b5.clone(), TaskKey(4))];
        assert_eq!(
            select_for_recovery(after_retire, CheckpointFilter::Topmost),
            vec![(b5, TaskKey(4))]
        );
    }

    #[test]
    fn same_stamp_different_owners_coexist() {
        // Two twin instances can checkpoint the same child stamp; both are
        // reissued, owner order breaking the tie, and both shadow the
        // stamp's descendants.
        let c = s(&[1, 3]);
        let below = s(&[1, 3, 1]);
        let entry = vec![
            (c.clone(), TaskKey(2)),
            (below, TaskKey(5)),
            (c.clone(), TaskKey(1)),
        ];
        let want = vec![(c.clone(), TaskKey(1)), (c, TaskKey(2))];
        assert_eq!(
            select_for_recovery(entry.clone(), CheckpointFilter::Topmost),
            want
        );
        assert_eq!(select_for_recovery(entry, CheckpointFilter::All).len(), 3);
    }
}
