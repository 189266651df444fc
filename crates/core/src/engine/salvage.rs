use super::Engine;
use crate::ids::{ProcId, TaskAddr, TaskKey};
use crate::packet::{Msg, ResultPacket, SalvagePacket, TaskLink};
use crate::sink::ActionSink;
use crate::stamp::LevelStamp;

impl Engine {
    /// A completed task's result cannot reach its parent: splice relays it
    /// toward the nearest live ancestor ("notify the grandparent and send
    /// the result to the grandparent"); rollback discards it — the orphan
    /// has effectively committed suicide after the fact. The result's
    /// payload moves into the salvage packet; nothing is cloned.
    pub(super) fn handle_undeliverable_result(&mut self, rp: ResultPacket, sink: &mut ActionSink) {
        if !self.config.mode.salvages() || rp.replica.is_some() {
            self.stats.orphans_suicided += 1;
            return;
        }
        let ResultPacket {
            from_stamp,
            demand,
            value,
            to,
            to_stamp,
            relay_chain,
            replica: _,
        } = rp;
        let sp = SalvagePacket {
            to: TaskAddr::new(ProcId(0), TaskKey(0)), // filled below
            dead_stamp: to_stamp,
            dead_addr: to,
            demand,
            value,
            from_stamp,
        };
        self.send_salvage_via_chain(sp, &relay_chain, sink);
    }

    /// Sends a salvage packet to the first live link of an ancestor chain.
    fn send_salvage_via_chain(
        &mut self,
        mut sp: SalvagePacket,
        chain: &[TaskLink],
        sink: &mut ActionSink,
    ) {
        for (i, link) in chain.iter().enumerate() {
            if self.known_dead.contains(&link.addr.proc) {
                continue;
            }
            sp.to = link.addr;
            if link.addr.proc == self.id {
                // The ancestor is local: route directly; an unrouted packet
                // comes back by value and tries the rest of the chain.
                if let Some(back) = self.route_salvage(sp, sink) {
                    let rest = &chain[i + 1..];
                    if rest.is_empty() {
                        self.stats.stranded_orphans += 1;
                    } else {
                        self.send_salvage_via_chain(back, rest, sink);
                    }
                }
                return;
            }
            self.send(sink, link.addr.proc, Msg::salvage(sp));
            return;
        }
        // "If both the parent and grandparent processors of a task fail
        // simultaneously, the orphan task would be stranded." (§5.2)
        self.stats.stranded_orphans += 1;
    }

    /// Upward retry after a salvage bounce: try the remaining ancestors of
    /// the dead stamp. The chain is reconstructed from the packet's stamp
    /// prefixes we know locally — if none, the orphan is stranded.
    pub(super) fn relay_salvage_upward(&mut self, sp: SalvagePacket) {
        // We only know our own tasks; with the direct chain exhausted the
        // orphan result is stranded from this processor's point of view.
        let _ = sp;
        self.stats.stranded_orphans += 1;
    }

    pub(super) fn on_salvage(&mut self, sp: SalvagePacket, sink: &mut ActionSink) {
        // An unexpected grandchild answer implies the intermediate parent is
        // faulty; the stamp itself tells us which task, and the processor it
        // lived on is already in our dead set if a notice arrived first.
        if self.route_salvage(sp, sink).is_some() {
            self.stats.salvage_dropped += 1;
        }
    }

    /// Routes a salvage packet at this processor: deliver to the twin if it
    /// lives here, otherwise hand it one step down the regenerated spine.
    /// Consumes the packet when it found a consumer or forwarder; returns
    /// it unrouted otherwise (so callers relay or drop without a clone).
    pub(super) fn route_salvage(
        &mut self,
        sp: SalvagePacket,
        sink: &mut ActionSink,
    ) -> Option<SalvagePacket> {
        // Twin (or still-live original) of the dead task here?
        if let Some(&key) = self.by_stamp.get(&sp.dead_stamp) {
            self.preload_salvage(key, sp, sink);
            return None;
        }
        // Deepest live local ancestor of the dead stamp.
        let mut probe = sp.dead_stamp.clone();
        while let Some(parent) = probe.parent() {
            probe = parent;
            let Some(&key) = self.by_stamp.get(&probe) else {
                continue;
            };
            let Some(task) = self.tasks.get_mut(&key) else {
                continue;
            };
            let next = task
                .stamp
                .child_towards(&sp.dead_stamp)
                .expect("probe is an ancestor");
            match task.children.get_mut(&next) {
                None => {
                    // The (twin) ancestor has not demanded this child yet;
                    // park the salvage for when it does.
                    task.future_salvages.push(sp);
                    return None;
                }
                Some(ci) if ci.done => {
                    // The subtree's value is already known upstream; the
                    // orphan's contribution is stale (§4.1 case 8).
                    self.stats.salvage_dropped += 1;
                    return None;
                }
                Some(ci) => {
                    // The unexpected grandchild answer itself proves the
                    // instance it addressed is dead (§4.1): if we still
                    // point at exactly that instance, declare its processor
                    // faulty and regenerate before routing.
                    if ci.current_addr() == Some(sp.dead_addr)
                        && !self.known_dead.contains(&sp.dead_addr.proc)
                    {
                        let dead = sp.dead_addr.proc;
                        ci.pending_salvages.push(sp);
                        self.on_proc_dead(dead, sink);
                        // "Create a step-parent for the grandchild if there
                        // isn't one already": even with a grace period, the
                        // salvage arrival itself triggers the twin.
                        self.salvage_triggers_twin(key, &next, sink);
                        return None;
                    }
                    match ci.current_addr() {
                        Some(addr) if !self.known_dead.contains(&addr.proc) => {
                            let mut sp = sp;
                            sp.to = addr;
                            self.stats.salvage_forwarded += 1;
                            self.send(sink, addr.proc, Msg::salvage(sp));
                            return None;
                        }
                        Some(addr) => {
                            // Child instance died too: reissue it (twin) and
                            // park the salvage until the new ACK.
                            let dead = addr.proc;
                            ci.pending_salvages.push(sp);
                            self.on_proc_dead(dead, sink);
                            self.salvage_triggers_twin(key, &next, sink);
                            return None;
                        }
                        None => {
                            // Spawn in flight; park until the ACK flushes.
                            ci.pending_salvages.push(sp);
                            return None;
                        }
                    }
                }
            }
        }
        Some(sp)
    }

    /// Reactive twin creation: a salvage just arrived for a child whose
    /// twin creation was deferred by the grace period.
    fn salvage_triggers_twin(&mut self, owner: TaskKey, stamp: &LevelStamp, sink: &mut ActionSink) {
        let deferred = match self
            .tasks
            .get_mut(&owner)
            .and_then(|t| t.children.get_mut(stamp))
        {
            Some(ci) if ci.twin_pending && !ci.done => {
                ci.twin_pending = false;
                true
            }
            _ => false,
        };
        if deferred {
            self.stats.step_parents_created += 1;
            self.reissue_child(owner, stamp, sink);
        }
    }

    fn preload_salvage(&mut self, key: TaskKey, sp: SalvagePacket, sink: &mut ActionSink) {
        let Some(task) = self.tasks.get_mut(&key) else {
            return;
        };
        self.stats.salvaged_results += 1;
        // If the twin already spawned this demand, the preload satisfies it
        // (§4.1 case 6: the spawned duplicate's eventual result is ignored);
        // otherwise the preload prevents the spawn entirely (cases 4/5).
        if let Some(stamp) = task.child_stamp_of(&sp.demand).cloned() {
            self.stats.salvage_after_spawn += 1;
            let done = task.children.get(&stamp).map(|c| c.done).unwrap_or(false);
            if !done {
                self.supply_child(key, &stamp, sp.value, sink);
            } else {
                self.stats.duplicate_results_ignored += 1;
            }
        } else {
            self.stats.salvage_before_spawn += 1;
            task.eval.preload(sp.demand, sp.value);
            if task.eval.ready() {
                self.enqueue(key);
            }
        }
    }

    // -----------------------------------------------------------------
    // Abort cascade (rollback garbage collection)
    // -----------------------------------------------------------------

    pub(super) fn on_abort(&mut self, to: TaskAddr, sink: &mut ActionSink) {
        if self.tasks.contains_key(&to.key) {
            self.stats.tasks_aborted += 1;
            self.abort_cascade(to.key, sink);
        } else {
            self.stats.stale_messages_ignored += 1;
        }
    }

    pub(super) fn abort_cascade(&mut self, key: TaskKey, sink: &mut ActionSink) {
        let Some(mut task) = self.tasks.remove(&key) else {
            return;
        };
        if self.by_stamp.get(&task.stamp) == Some(&key) {
            self.by_stamp.remove(&task.stamp);
        }
        self.retire_checkpoints(&mut task);
        for ci in task.children.values() {
            if ci.done {
                continue;
            }
            if let Some(addr) = ci.current_addr() {
                if !self.known_dead.contains(&addr.proc) {
                    self.stats.aborts_sent += 1;
                    self.send(sink, addr.proc, Msg::Abort { to: addr });
                }
            }
            // Replicas are not aborted: they finish and their results are ignored.
        }
        self.tasks.recycle(task);
    }
}
