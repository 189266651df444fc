use super::Engine;
use crate::ids::{ProcId, TaskKey};
use crate::packet::{CkptPacket, Msg, ReplicaInfo, ResultPacket};
use crate::replicate::VoteOutcome;
use crate::sink::ActionSink;
use crate::stamp::LevelStamp;
use splice_applicative::Value;

impl Engine {
    // -----------------------------------------------------------------
    // Results (forward-result case of the §4.2 loop)
    // -----------------------------------------------------------------

    pub(super) fn on_result(&mut self, rp: ResultPacket, sink: &mut ActionSink) {
        if let Some(replica) = rp.replica.clone() {
            self.stats.replica_results += 1;
            self.on_replica_result(rp, replica, sink);
            return;
        }
        let Some(task) = self.tasks.get_mut(&rp.to.key) else {
            // "others: Ignore the packet" — the addressee is gone (§4.1
            // case 8).
            self.stats.stale_messages_ignored += 1;
            return;
        };
        if task.stamp != rp.to_stamp {
            self.stats.stale_messages_ignored += 1;
            return;
        }
        match task.children.get(&rp.from_stamp) {
            None => {
                self.stats.stale_messages_ignored += 1;
            }
            Some(ci) if ci.done => {
                // "Since they are identical, the second copy is simply
                // ignored." (§4.1 cases 6/7)
                self.stats.duplicate_results_ignored += 1;
            }
            Some(_) => {
                self.supply_child(rp.to.key, &rp.from_stamp, rp.value, sink);
            }
        }
    }

    fn on_replica_result(&mut self, rp: ResultPacket, replica: ReplicaInfo, sink: &mut ActionSink) {
        let Some(task) = self.tasks.get_mut(&rp.to.key) else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        let Some(ci) = task.children.get_mut(&rp.from_stamp) else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        if ci.done {
            self.stats.duplicate_results_ignored += 1;
            return;
        }
        let Some(group) = ci.vote.as_mut() else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        match group.vote.add(replica.index, rp.value) {
            VoteOutcome::Pending => {}
            VoteOutcome::Decided { value, clean } => {
                let dissent = group.vote.dissenting(&value) as u64;
                if clean {
                    self.stats.votes_decided += 1;
                } else {
                    self.stats.votes_conflicted += 1;
                }
                self.stats.votes_dissenting += dissent;
                self.supply_child(rp.to.key, &rp.from_stamp, value, sink);
            }
        }
    }

    /// Marks a child demand satisfied and resumes the parent when its wave
    /// barrier is met. Under the MultiCheckpoint policy the completed
    /// result is also buffered and periodically streamed back to the
    /// owner's own checkpoint holder ([`Msg::Ckpt`]); under Lazy a supply
    /// that does not unblock the owner re-checks whether everything it
    /// still waits on is lost.
    pub(super) fn supply_child(
        &mut self,
        owner: TaskKey,
        stamp: &LevelStamp,
        value: Value,
        sink: &mut ActionSink,
    ) {
        let every = self.policy.recheckpoint_every();
        let mut ckpt_msg: Option<(ProcId, CkptPacket)> = None;
        let mut duplicate = false;
        let ready;
        {
            let Some(task) = self.tasks.get_mut(&owner) else {
                return;
            };
            let Some(ci) = task.children.get_mut(stamp) else {
                return;
            };
            ci.done = true;
            // Clone the entry before the eval consumes the value. Only the
            // MultiCheckpoint policy pays this; the root task reports to
            // the super-root, which keeps the whole program anyway.
            let entry = (every > 0 && !task.parent.addr.proc.is_super_root())
                .then(|| (ci.demand.clone(), value.clone()));
            if let Some(cp) = ci.ckpt.take() {
                self.ckpt.retire(cp);
            }
            // `ci` borrows `task.children`; the eval is a disjoint field, so
            // the demand is passed by reference instead of cloned per result.
            if !task.eval.supply(&ci.demand, value) {
                duplicate = true;
            }
            if let Some(en) = entry {
                task.ckpt_pending.push(en);
                if task.ckpt_pending.len() >= every as usize {
                    ckpt_msg = Some((
                        task.parent.addr.proc,
                        CkptPacket {
                            owner: task.parent.addr,
                            from_stamp: task.stamp.clone(),
                            entries: std::mem::take(&mut task.ckpt_pending),
                        },
                    ));
                }
            }
            ready = task.eval.ready();
        }
        if duplicate {
            self.stats.duplicate_results_ignored += 1;
        }
        if let Some((to, cp)) = ckpt_msg {
            if !self.known_dead.contains(&to) {
                self.stats.recheckpoints += 1;
                self.send(sink, to, Msg::ckpt(cp));
            }
        }
        if ready {
            self.enqueue(owner);
        } else if !self.policy.eager_on_death() {
            self.lazy_rebuild_check(owner, sink);
        }
    }

    /// Handles an incremental re-checkpoint report: append the entries to
    /// the live checkpoint the reporting task's frame is stored under.
    pub(super) fn on_ckpt(&mut self, cp: CkptPacket) {
        let live = if cp.owner.proc == self.id {
            self.tasks
                .get_mut(&cp.owner.key)
                .and_then(|t| t.children.get_mut(&cp.from_stamp))
                .and_then(|ci| ci.ckpt.as_mut())
        } else {
            None
        };
        match live {
            Some(ckpt) => self.ckpt.add_preloads(ckpt, cp.entries),
            // The owner moved on (twin elsewhere, checkpoint retired):
            // applicative determinism makes the loss benign.
            None => self.stats.stale_messages_ignored += 1,
        }
    }
}
