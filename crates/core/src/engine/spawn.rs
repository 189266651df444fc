use super::{Action, Engine, Timer};
use crate::config::Config;
use crate::ids::{ProcId, TaskAddr, TaskKey};
use crate::packet::{Msg, ReplicaInfo, ResultPacket, TaskLink, TaskPacket};
use crate::place::Placer;
use crate::replicate::Vote;
use crate::sink::ActionSink;
use crate::stamp::LevelStamp;
use crate::task::{ChildInfo, Task, VoteGroup};
use splice_applicative::wave::Demand;
use splice_applicative::Value;

/// Maximum placement hops before a packet must be accepted locally.
const MAX_HOPS: u32 = 16;

/// Builds the packet for child `stamp` of `owner` on this processor `id`:
/// the spawn and every reissue of the child go through here, so a twin's
/// packet equals the original but for `incarnation`. `links` is how many
/// ancestor links beyond the parent the packet carries.
pub(super) fn child_packet(
    id: ProcId,
    owner: &Task,
    links: usize,
    stamp: LevelStamp,
    demand: Demand,
    incarnation: u32,
) -> TaskPacket {
    TaskPacket {
        stamp,
        demand,
        parent: TaskLink::new(TaskAddr::new(id, owner.key), owner.stamp.clone()),
        ancestors: std::iter::once(owner.parent.clone())
            .chain(owner.ancestors.iter().cloned())
            .take(links)
            .collect(),
        incarnation,
        hops: 0,
        replica: None,
        under_replica: owner.under_replica,
    }
}

/// True when an engine built from `config` and `placer` arms a load
/// beacon in [`Engine::on_start`] — the only action a start can emit. A
/// driver that defers building idle engines asks this instead of building
/// one to find out.
pub fn beacons_on_start(config: &Config, placer: &dyn Placer) -> bool {
    config.load_beacon_period > 0 && !placer.beacon_targets().is_empty()
}

impl Engine {
    // -----------------------------------------------------------------
    // Spawn / placement (DEMAND_IT receiving side)
    // -----------------------------------------------------------------

    pub(super) fn on_spawn(&mut self, mut p: TaskPacket, sink: &mut ActionSink) {
        let pressure = self.pressure();
        self.placer.set_local_pressure(pressure);
        if p.hops < MAX_HOPS {
            if let Some(next) = self.placer.route(&p, &self.known_dead) {
                if next != self.id {
                    p.hops += 1;
                    self.send(sink, next, Msg::spawn(p));
                    return;
                }
            }
        }
        // Accept locally, reviving a retired task frame when one exists.
        // The ack is built first: the frame takes the packet.
        let key = TaskKey(self.next_key);
        self.next_key += 1;
        let ack = Msg::ack(
            p.stamp.clone(),
            TaskAddr::new(self.id, key),
            p.parent.addr,
            p.incarnation,
        );
        self.by_stamp.insert(p.stamp.clone(), key);
        self.stats.tasks_created += 1;
        if self.log_created {
            self.created_log.push(p.stamp.clone());
        }
        let parent = p.parent.addr.proc;
        self.tasks.insert(key, p);
        self.enqueue(key);
        self.send(sink, parent, ack);
    }

    pub(super) fn on_ack(
        &mut self,
        child_stamp: LevelStamp,
        child_addr: TaskAddr,
        parent: TaskAddr,
        incarnation: u32,
        sink: &mut ActionSink,
    ) {
        let Some(task) = self.tasks.get_mut(&parent.key) else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        let Some(ci) = task.children.get_mut(&child_stamp) else {
            self.stats.stale_messages_ignored += 1;
            return;
        };
        if let Some(group) = ci.vote.as_mut() {
            // Replica ack: refine the placement record used for loss
            // tracking. The incarnation field carries the replica index for
            // replica packets (set at spawn).
            if let Some(slot) = group.placed.get_mut(incarnation as usize) {
                *slot = child_addr.proc;
            }
            return;
        }
        // An ack from a processor we already know is dead is a message from
        // a corpse: the child it places died with its host. Recording it
        // would permanently wedge the child — the failure-notice recovery
        // pass has already run (and found no checkpoint keyed to the dead
        // processor, since the placement was unacked then), and the ack
        // timeout refuses to reissue a child with a current address. The
        // race only opens when acks travel slower than failure notices
        // (e.g. across a high-latency inter-shard router). Reissue now.
        if self.known_dead.contains(&child_addr.proc) {
            if !ci.done && incarnation == ci.incarnation && ci.current_addr().is_none() {
                if self.policy.eager_on_death() {
                    return self.reissue_child(parent.key, &child_stamp, sink);
                }
                // Lazy: the placement died with its host; defer the
                // rebuild until the owner's progress demands it.
                if self.mark_lost(parent.key, &child_stamp) {
                    self.lazy_rebuild_check(parent.key, sink);
                }
                return;
            }
            self.stats.stale_messages_ignored += 1;
            return;
        }
        let newer = match ci.acked {
            Some((_, prev_inc)) => incarnation >= prev_inc,
            None => true,
        };
        if newer {
            ci.acked = Some((child_addr, incarnation));
            // File the checkpoint under the acking processor, also for a
            // late ack of an older incarnation (whose `current_addr()` is
            // empty): that processor's death still reissues the child.
            if let Some(cp) = ci.ckpt.as_mut() {
                cp.dest = Some(child_addr.proc);
            }
            // Flush salvages that were waiting for a location.
            let pending = std::mem::take(&mut ci.pending_salvages);
            for mut sp in pending {
                sp.to = child_addr;
                self.stats.salvage_forwarded += 1;
                self.send(sink, child_addr.proc, Msg::salvage(sp));
            }
        } else {
            self.stats.stale_messages_ignored += 1;
        }
    }

    // -----------------------------------------------------------------
    // Execution (task packet case of the §4.2 loop)
    // -----------------------------------------------------------------

    /// Runs one evaluation wave of `key`, appending the driver actions to
    /// `sink`. Returns the abstract work performed (for time accounting).
    /// Evaluation scratch (value stack, environments, demand buffers)
    /// comes from the engine's frame pool, so a steady-state wave performs
    /// no allocation beyond genuinely new demand payloads.
    pub fn run_wave(&mut self, key: TaskKey, sink: &mut ActionSink) -> u64 {
        let Some(task) = self.tasks.get_mut(&key) else {
            return 0;
        };
        if !task.eval.ready() {
            // Spurious wake-up; wave barrier not met.
            return 0;
        }
        let before = task.eval.work();
        let mut demands = std::mem::take(&mut self.demand_buf);
        demands.clear();
        let step = task
            .eval
            .step_pooled(&self.program, &mut self.pool, &mut demands);
        let work = task.eval.work() - before;
        self.stats.waves_run += 1;
        self.stats.work_units += work;
        match step {
            Err(_) => {
                self.stats.eval_errors += 1;
                self.drop_task(key);
            }
            Ok(Some(v)) => self.finish_task(key, v, sink),
            Ok(None) => {
                for d in demands.drain(..) {
                    self.spawn_child(key, d, sink);
                }
                // All demands may have been satisfied synchronously by
                // preloaded salvage; re-queue in that case.
                if let Some(t) = self.tasks.get(&key) {
                    if t.eval.ready() {
                        self.enqueue(key);
                    } else if !self.policy.eager_on_death() {
                        // Lazy: the wave re-blocked; if everything it still
                        // waits on is lost, the results are now demanded.
                        self.lazy_rebuild_check(key, sink);
                    }
                }
            }
        }
        self.demand_buf = demands;
        work
    }

    /// Spawns one child demand (the paper's `DEMAND_IT`):
    /// create packet → level-stamp it → attach parent and grandparent
    /// identifications → queue to the load balancer → functional checkpoint.
    fn spawn_child(&mut self, owner: TaskKey, demand: Demand, sink: &mut ActionSink) {
        let (packet, replica_spec, salvages) = {
            let task = self.tasks.get_mut(&owner).expect("owner exists");
            let stamp = task.next_child_stamp();
            let links = self.config.links_beyond_parent();
            let packet = child_packet(self.id, task, links, stamp, demand.clone(), 0);
            // Nothing inside a replica's subtree is re-replicated: the
            // whole critical section already executes once per replica.
            let replica_spec = if task.under_replica {
                None
            } else {
                self.config.replicate.get(&demand.fun).copied()
            };
            let salvages = task.take_future_salvages_for(&packet.stamp);
            (packet, replica_spec, salvages)
        };
        self.stats.spawns_emitted += 1;

        match replica_spec {
            Some(spec) => {
                let mut placed = Vec::with_capacity(spec.n as usize);
                let mut avoid = self.known_dead.clone();
                for i in 0..spec.n {
                    let mut rp = packet.clone();
                    rp.replica = Some(ReplicaInfo {
                        index: i,
                        total: spec.n,
                    });
                    // Replica packets reuse the incarnation field of the ACK
                    // as the replica index (see `on_ack`).
                    rp.incarnation = i;
                    let dest = self.placer.place(&rp, &avoid);
                    avoid.insert(dest); // replicas on distinct processors
                    placed.push(dest);
                    self.send(sink, dest, Msg::spawn(rp));
                }
                let task = self.tasks.get_mut(&owner).expect("owner exists");
                task.register_child(ChildInfo {
                    demand,
                    stamp: packet.stamp.clone(),
                    acked: None,
                    incarnation: 0,
                    done: false,
                    pending_salvages: salvages,
                    vote: Some(Box::new(VoteGroup {
                        vote: Vote::new(spec.n, spec.vote),
                        base: packet,
                        placed,
                    })),
                    twin_pending: false,
                    lost: false,
                    ckpt: None,
                });
            }
            None => {
                // The functional checkpoint: the child record below keeps
                // everything needed to rebuild this packet.
                let ckpt = self
                    .config
                    .mode
                    .checkpoints()
                    .then(|| self.ckpt.store(packet.size()));
                let dest = self.placer.place(&packet, &self.known_dead);
                let task = self.tasks.get_mut(&owner).expect("owner exists");
                task.register_child(ChildInfo {
                    demand,
                    stamp: packet.stamp.clone(),
                    acked: None,
                    incarnation: 0,
                    done: false,
                    pending_salvages: salvages,
                    vote: None,
                    twin_pending: false,
                    lost: false,
                    ckpt,
                });
                sink.push(Action::SetTimer {
                    timer: Timer::ack_timeout(owner, packet.stamp.clone(), 0),
                    delay: self.config.ack_timeout,
                });
                self.send(sink, dest, Msg::spawn(packet));
            }
        }
    }

    fn finish_task(&mut self, key: TaskKey, value: Value, sink: &mut ActionSink) {
        let Some(mut task) = self.tasks.remove(&key) else {
            return;
        };
        if self.by_stamp.get(&task.stamp) == Some(&key) {
            self.by_stamp.remove(&task.stamp);
        }
        debug_assert!(task.all_children_done());
        // Safety net: any checkpoint not retired through the normal paths.
        self.retire_checkpoints(&mut task);
        self.stats.tasks_completed += 1;

        // The frame is being retired: move its links and arguments into
        // the result packet instead of cloning them.
        let rp = ResultPacket {
            from_stamp: task.stamp.clone(),
            demand: Demand::shared(task.eval.fun(), task.eval.take_args()),
            value,
            to: task.parent.addr,
            to_stamp: std::mem::replace(&mut task.parent.stamp, LevelStamp::root()),
            relay_chain: std::mem::take(&mut task.ancestors),
            replica: task.replica.take(),
        };
        self.tasks.recycle(task);
        if self.known_dead.contains(&rp.to.proc) {
            self.handle_undeliverable_result(rp, sink);
        } else {
            let to = rp.to.proc;
            self.send(sink, to, Msg::result(rp));
        }
    }

    fn drop_task(&mut self, key: TaskKey) {
        if let Some(mut task) = self.tasks.remove(&key) {
            if self.by_stamp.get(&task.stamp) == Some(&key) {
                self.by_stamp.remove(&task.stamp);
            }
            self.retire_checkpoints(&mut task);
            self.tasks.recycle(task);
        }
    }
}
