use super::spawn::child_packet;
use super::{Action, Engine, Timer};
use crate::checkpoint::select_for_recovery;
use crate::config::{CheckpointFilter, RecoveryMode};
use crate::ids::{ProcId, TaskAddr, TaskKey};
use crate::packet::{Msg, ReplicaInfo, SalvagePacket, TaskPacket};
use crate::replicate::{Vote, VoteOutcome};
use crate::sink::ActionSink;
use crate::stamp::LevelStamp;
use splice_applicative::Value;

impl Engine {
    /// The §3.2 table entry for `dead`, built on discovery: every live
    /// checkpoint whose child the dead processor acknowledged, as
    /// `(child stamp, owner)` pairs in no particular order.
    fn checkpoints_filed_under(&self, dead: ProcId) -> Vec<(LevelStamp, TaskKey)> {
        let mut entry = Vec::new();
        for (key, task) in self.tasks.iter() {
            for (stamp, ci) in &task.children {
                if ci.ckpt.as_ref().is_some_and(|cp| cp.dest == Some(dead)) {
                    entry.push((stamp.clone(), *key));
                }
            }
        }
        entry
    }

    // -----------------------------------------------------------------
    // Failure handling: rollback (§3) and splice (§4)
    // -----------------------------------------------------------------

    /// Convergence point for all failure discovery paths. Idempotent.
    pub(super) fn on_proc_dead(&mut self, dead: ProcId, sink: &mut ActionSink) {
        if dead == self.id || dead.is_super_root() || !self.known_dead.insert(dead) {
            // A death already in `known_dead` is never re-forwarded: the
            // insert above is the gossip dedup — without it every redundant
            // notice (detector broadcast, peer gossip, repeated bounces)
            // would echo back out as a fresh broadcast.
            return;
        }
        // Gossip the first discovery to the placer neighbourhood, so deaths
        // learnt from bounces or salvage arrivals propagate even when the
        // detector's broadcast is disabled. Exactly once per engine per
        // death (the dedup above), and never to processors we believe dead.
        if self.config.gossip_notices {
            for t in self.placer.beacon_targets() {
                if t != dead && !self.known_dead.contains(&t) {
                    self.send(sink, t, Msg::FailureNotice { dead });
                }
            }
        }
        match self.config.mode {
            RecoveryMode::None => {}
            RecoveryMode::Rollback => {
                // Orphans commit suicide first, retiring their checkpoints,
                // so the recovery pass below does not reissue into aborted
                // fragments.
                let orphans: Vec<TaskKey> = self
                    .tasks
                    .iter()
                    .filter(|(_, t)| t.parent.addr.proc == dead)
                    .map(|(k, _)| *k)
                    .collect();
                for k in orphans {
                    self.stats.orphans_suicided += 1;
                    self.abort_cascade(k, sink);
                }
                let eager = self.policy.eager_on_death();
                let mut lazy_owners: Vec<TaskKey> = Vec::new();
                let entry = self.checkpoints_filed_under(dead);
                for (stamp, owner) in select_for_recovery(entry, self.config.ckpt_filter) {
                    if eager {
                        self.reissue_child(owner, &stamp, sink);
                    } else if self.mark_lost(owner, &stamp) {
                        lazy_owners.push(owner);
                    }
                }
                for owner in lazy_owners {
                    self.lazy_rebuild_check(owner, sink);
                }
            }
            RecoveryMode::Splice => {
                // Every live parent regenerates each of its dead children
                // as a step-parent twin; orphan fragments keep computing
                // and their results will be spliced in. With a grace
                // period configured, the proactive regeneration is
                // deferred so in-flight orphan results can land first.
                let grace = self.config.splice_grace;
                let eager = self.policy.eager_on_death();
                let mut lazy_owners: Vec<TaskKey> = Vec::new();
                let entry = self.checkpoints_filed_under(dead);
                for (stamp, owner) in select_for_recovery(entry, CheckpointFilter::All) {
                    if !eager {
                        // Lazy: no proactive twin — the subtree is rebuilt
                        // only when the owner's progress demands it. Orphan
                        // fragments keep computing; their salvages land in
                        // `pending_salvages` and flow to an eventual twin.
                        if self.mark_lost(owner, &stamp) {
                            lazy_owners.push(owner);
                        }
                    } else if grace == 0 {
                        self.stats.step_parents_created += 1;
                        self.reissue_child(owner, &stamp, sink);
                    } else {
                        if let Some(ci) = self
                            .tasks
                            .get_mut(&owner)
                            .and_then(|t| t.children.get_mut(&stamp))
                        {
                            ci.twin_pending = true;
                        }
                        sink.push(Action::SetTimer {
                            timer: Timer::grace_reissue(owner, stamp),
                            delay: grace,
                        });
                    }
                }
                for owner in lazy_owners {
                    self.lazy_rebuild_check(owner, sink);
                }
            }
        }
        // Replicated children: account for lost replicas in either mode
        // with checkpointing.
        if self.config.mode.checkpoints() {
            self.handle_replica_losses(dead, sink);
        }
    }

    fn handle_replica_losses(&mut self, dead: ProcId, sink: &mut ActionSink) {
        let mut decisions: Vec<(TaskKey, LevelStamp, Option<Value>, bool, u64)> = Vec::new();
        let mut respawns: Vec<(TaskKey, LevelStamp)> = Vec::new();
        self.tasks.for_each_mut(|key, task| {
            for (stamp, ci) in task.children.iter_mut() {
                let Some(group) = ci.vote.as_mut() else {
                    continue;
                };
                if ci.done {
                    continue;
                }
                let lost = group.placed.iter().filter(|p| **p == dead).count();
                for _ in 0..lost {
                    match group.vote.mark_lost() {
                        VoteOutcome::Decided { value, clean } => {
                            let dissent = group.vote.dissenting(&value) as u64;
                            decisions.push((key, stamp.clone(), Some(value), clean, dissent));
                        }
                        VoteOutcome::Pending => {}
                    }
                }
                if group.vote.all_lost() {
                    respawns.push((key, stamp.clone()));
                }
            }
        });
        for (key, stamp, value, clean, dissent) in decisions {
            if let Some(v) = value {
                if clean {
                    self.stats.votes_decided += 1;
                } else {
                    self.stats.votes_conflicted += 1;
                }
                self.stats.votes_dissenting += dissent;
                self.supply_child(key, &stamp, v, sink);
            }
        }
        for (key, stamp) in respawns {
            self.respawn_replica_group(key, &stamp, sink);
        }
    }

    fn respawn_replica_group(&mut self, owner: TaskKey, stamp: &LevelStamp, sink: &mut ActionSink) {
        let Some(task) = self.tasks.get_mut(&owner) else {
            return;
        };
        let Some(ci) = task.children.get_mut(stamp) else {
            return;
        };
        let Some(group) = ci.vote.as_mut() else {
            return;
        };
        let n = group.vote.group_size();
        let mode = match self.config.replicate.get(&group.base.demand.fun) {
            Some(spec) => spec.vote,
            None => crate::config::VoteMode::Majority,
        };
        group.vote = Vote::new(n, mode);
        let base = group.base.reissue();
        group.base = base.clone();
        let mut placed = Vec::with_capacity(n as usize);
        let mut avoid = self.known_dead.clone();
        let mut spawns = Vec::new();
        for i in 0..n {
            let mut rp = base.clone();
            rp.replica = Some(ReplicaInfo { index: i, total: n });
            rp.incarnation = i;
            let dest = self.placer.place(&rp, &avoid);
            avoid.insert(dest);
            placed.push(dest);
            spawns.push((dest, rp));
        }
        group.placed = placed;
        self.stats.reissues += 1;
        for (dest, rp) in spawns {
            self.send(sink, dest, Msg::spawn(rp));
        }
    }

    /// Lazy policy: record a dead child as lost instead of reissuing it.
    /// Returns `true` when a live, undecided, non-replicated child was
    /// marked (replica groups keep their own eager loss handling).
    pub(super) fn mark_lost(&mut self, owner: TaskKey, stamp: &LevelStamp) -> bool {
        match self
            .tasks
            .get_mut(&owner)
            .and_then(|t| t.children.get_mut(stamp))
        {
            Some(ci) if !ci.done && ci.vote.is_none() => {
                ci.lost = true;
                true
            }
            _ => false,
        }
    }

    /// Lazy policy: rebuild an owner's lost children once its progress
    /// actually demands them — i.e. the task is blocked and *everything*
    /// it still waits on is lost. While any live child remains, its
    /// arrival re-runs this check, so rebuilds start exactly when the
    /// subtree's results become the critical path.
    pub(super) fn lazy_rebuild_check(&mut self, owner: TaskKey, sink: &mut ActionSink) {
        let mut stamps: Vec<LevelStamp> = {
            let Some(task) = self.tasks.get(&owner) else {
                return;
            };
            if task.queued || task.eval.ready() {
                return;
            }
            let mut lost = Vec::new();
            for (stamp, ci) in task.children.iter() {
                if ci.done {
                    continue;
                }
                if !ci.lost {
                    // A live child may still unblock the owner; its result
                    // (or its own loss) re-triggers this check.
                    return;
                }
                lost.push(stamp.clone());
            }
            lost
        };
        stamps.sort();
        for stamp in stamps {
            if let Some(ci) = self
                .tasks
                .get_mut(&owner)
                .and_then(|t| t.children.get_mut(&stamp))
            {
                ci.lost = false;
            }
            self.stats.lazy_rebuilds += 1;
            self.reissue_child(owner, &stamp, sink);
        }
    }

    /// Re-issues a (non-replicated) child from its functional checkpoint:
    /// the packet is rebuilt from the child record and its owner, equal to
    /// the spawned one but for the incarnation. In splice mode this is
    /// exactly step-parent/twin creation.
    pub(super) fn reissue_child(
        &mut self,
        owner: TaskKey,
        stamp: &LevelStamp,
        sink: &mut ActionSink,
    ) {
        let Some(task) = self.tasks.get_mut(&owner) else {
            return;
        };
        let Some(ci) = task.children.get_mut(stamp) else {
            return;
        };
        if ci.done {
            return;
        }
        ci.incarnation += 1;
        let incarnation = ci.incarnation;
        if ci.ckpt.is_none() {
            return;
        }
        let demand = ci.demand.clone();
        let links = self.config.links_beyond_parent();
        let packet = child_packet(self.id, task, links, stamp.clone(), demand, incarnation);
        let ci = task.children.get_mut(stamp).expect("child looked up above");
        let cp = ci.ckpt.as_mut().expect("checkpoint checked above");
        // Pending again: the destination is unknown until the new ACK.
        cp.dest = None;
        // Hand incremental re-checkpoint entries (MultiCheckpoint) to the
        // twin as parked salvages: they flow out on the twin's placement
        // ACK like any salvage. The stored preloads are cloned, NOT
        // drained — a second crash during the rebuild must still find the
        // recovery anchor intact.
        for (d, v) in cp.preloads.iter() {
            if ci.pending_salvages.iter().any(|s| s.demand == *d) {
                continue;
            }
            ci.pending_salvages.push(SalvagePacket {
                to: TaskAddr::new(self.id, owner), // rewritten at the ACK flush
                dead_stamp: stamp.clone(),
                dead_addr: TaskAddr::new(self.id, owner),
                demand: d.clone(),
                value: v.clone(),
                from_stamp: stamp.clone(),
            });
        }
        let dest = self.placer.place(&packet, &self.known_dead);
        self.stats.reissues += 1;
        sink.push(Action::SetTimer {
            timer: Timer::ack_timeout(owner, stamp.clone(), incarnation),
            delay: self.config.ack_timeout,
        });
        self.send(sink, dest, Msg::spawn(packet));
    }

    /// Re-places a bounced spawn packet. If this processor is the packet's
    /// parent, go through the checkpointed reissue path (keeps incarnation
    /// bookkeeping coherent); otherwise re-place the packet directly. The
    /// bounced packet itself is reused for the re-send — the old path
    /// cloned it a second time on top of the copy already made for the
    /// failure handling.
    pub(super) fn reissue_packet(&mut self, mut p: TaskPacket, sink: &mut ActionSink) {
        if p.parent.addr.proc == self.id && self.tasks.contains_key(&p.parent.addr.key) {
            if p.replica.is_some() {
                // Replica spawn lost; treat as a lost replica — the vote
                // already accounts for its processor via on_proc_dead.
                return;
            }
            if !self.policy.eager_on_death() {
                // Lazy: the spawn died in flight; rebuild only on demand.
                if self.mark_lost(p.parent.addr.key, &p.stamp) {
                    self.lazy_rebuild_check(p.parent.addr.key, sink);
                }
                return;
            }
            return self.reissue_child(p.parent.addr.key, &p.stamp, sink);
        }
        // A packet we were merely forwarding: place it somewhere else,
        // bumping the incarnation in place.
        p.incarnation += 1;
        p.hops = 0;
        let dest = self.placer.place(&p, &self.known_dead);
        self.stats.reissues += 1;
        self.send(sink, dest, Msg::spawn(p));
    }
}
