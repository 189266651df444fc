use super::*;
use crate::config::RecoveryMode;
use crate::ids::TaskAddr;
use crate::packet::{CkptPacket, ResultPacket, SalvagePacket, TaskLink, TaskPacket};
use crate::place::SelfPlacer;
use splice_applicative::{Value, Workload};

fn engine_for(w: &Workload, mode: RecoveryMode) -> Engine {
    let mut cfg = Config::with_mode(mode);
    cfg.load_beacon_period = 0;
    Engine::new(
        ProcId(0),
        Arc::new(w.program.clone()),
        cfg,
        Box::new(SelfPlacer { here: ProcId(0) }),
    )
}

fn root_packet(w: &Workload) -> TaskPacket {
    TaskPacket {
        stamp: LevelStamp::root().child(1),
        demand: Demand::new(w.entry, w.args.clone()),
        parent: TaskLink::super_root(),
        ancestors: vec![TaskLink::super_root()],
        incarnation: 0,
        hops: 0,
        replica: None,
        under_replica: false,
    }
}

/// Collects a handler's sink output into a plain `Vec` (test shim).
fn pump(engine: &mut Engine, msg: Msg) -> Vec<Action> {
    let mut sink = ActionSink::new();
    engine.on_message(msg, &mut sink);
    sink.drain_to_vec()
}

/// Drives a single engine to completion by looping messages back into
/// it, returning the root result observed at the super-root. The one
/// sink is reused across the whole run, like the real drivers.
fn run_single(engine: &mut Engine, w: &Workload) -> Value {
    let mut inbox: VecDeque<Msg> = VecDeque::new();
    inbox.push_back(Msg::spawn(root_packet(w)));
    let mut root_result = None;
    let mut sink = ActionSink::new();
    let mut guard = 0u64;
    loop {
        guard += 1;
        assert!(guard < 10_000_000, "single-engine run diverged");
        if let Some(msg) = inbox.pop_front() {
            engine.on_message(msg, &mut sink);
        } else if let Some(key) = engine.pop_ready() {
            engine.run_wave(key, &mut sink);
        } else {
            break;
        };
        for a in sink.drain() {
            match a {
                Action::Send { to, msg } => {
                    if to.is_super_root() {
                        if let Msg::Result(rp) = msg {
                            root_result = Some(rp.value);
                        }
                        // Super-root acks are not modelled here.
                    } else {
                        assert_eq!(to, ProcId(0), "SelfPlacer keeps everything local");
                        inbox.push_back(msg);
                    }
                }
                Action::SetTimer { .. } => {
                    // Single reliable processor: timers never matter.
                }
            }
        }
    }
    root_result.expect("root completed")
}

#[test]
fn single_processor_runs_fib_to_completion() {
    let w = Workload::fib(10);
    let mut e = engine_for(&w, RecoveryMode::Splice);
    let v = run_single(&mut e, &w);
    assert_eq!(v, Value::Int(55));
    assert_eq!(e.task_count(), 0, "all tasks drained");
    assert!(e.checkpoints().is_empty(), "all checkpoints retired");
    assert!(e.stats().tasks_completed > 100);
}

#[test]
fn single_processor_agrees_with_reference_across_suite() {
    for w in Workload::suite_small() {
        let mut e = engine_for(&w, RecoveryMode::Splice);
        let v = run_single(&mut e, &w);
        assert_eq!(v, w.reference_result().unwrap(), "{}", w.name);
        assert!(e.checkpoints().is_empty(), "{}", w.name);
    }
}

#[test]
fn mode_none_stores_no_checkpoints() {
    let w = Workload::fib(8);
    let mut e = engine_for(&w, RecoveryMode::None);
    let v = run_single(&mut e, &w);
    assert_eq!(v, Value::Int(21));
    assert_eq!(e.checkpoints().stored_total(), 0);
}

#[test]
fn rollback_stores_and_retires_checkpoints() {
    let w = Workload::fib(8);
    let mut e = engine_for(&w, RecoveryMode::Rollback);
    run_single(&mut e, &w);
    assert!(e.checkpoints().stored_total() > 0);
    assert_eq!(
        e.checkpoints().stored_total(),
        e.checkpoints().retired_total()
    );
    assert!(e.checkpoints().peak_entries() > 0);
}

#[test]
fn stale_messages_are_ignored() {
    let w = Workload::fib(5);
    let mut e = engine_for(&w, RecoveryMode::Splice);
    let stale = Msg::result(ResultPacket {
        from_stamp: LevelStamp::from_digits(&[1, 1]),
        demand: Demand::new(w.entry, vec![Value::Int(1)]),
        value: Value::Int(1),
        to: TaskAddr::new(ProcId(0), TaskKey(999)),
        to_stamp: LevelStamp::from_digits(&[1]),
        relay_chain: vec![],
        replica: None,
    });
    let actions = pump(&mut e, stale);
    assert!(actions.is_empty());
    assert_eq!(e.stats().stale_messages_ignored, 1);
    // Unknown aborts equally ignored.
    pump(
        &mut e,
        Msg::Abort {
            to: TaskAddr::new(ProcId(0), TaskKey(1)),
        },
    );
    assert_eq!(e.stats().stale_messages_ignored, 2);
}

#[test]
fn failure_notice_is_idempotent() {
    let w = Workload::fib(5);
    let mut e = engine_for(&w, RecoveryMode::Rollback);
    assert!(pump(&mut e, Msg::FailureNotice { dead: ProcId(3) }).is_empty());
    assert!(pump(&mut e, Msg::FailureNotice { dead: ProcId(3) }).is_empty());
    assert!(e.known_dead().contains(&ProcId(3)));
}

#[test]
fn action_stays_small() {
    // Actions move by value through sinks, the DES queue and runtime
    // channels; the timer payload boxing exists to keep them small.
    assert!(
        std::mem::size_of::<Action>() <= 32,
        "Action grew past 32 bytes: {}",
        std::mem::size_of::<Action>()
    );
    assert!(
        std::mem::size_of::<Timer>() <= 16,
        "Timer grew past 16 bytes: {}",
        std::mem::size_of::<Timer>()
    );
}

#[test]
fn task_frames_are_recycled_across_generations() {
    // Two back-to-back runs on one engine: the second run's tasks are
    // revived from the first run's retired frames, and the engine ends
    // both runs fully drained.
    let w = Workload::fib(8);
    let mut e = engine_for(&w, RecoveryMode::Splice);
    assert_eq!(run_single(&mut e, &w), Value::Int(21));
    let created_first = e.stats().tasks_created;
    assert!(e.tasks.retired_len() > 0, "retired frames were kept");
    let held = e.tasks.capacity();
    assert_eq!(run_single(&mut e, &w), Value::Int(21));
    assert_eq!(e.task_count(), 0);
    assert_eq!(e.tasks.capacity(), held, "the second run grew the slab");
    assert!(e.stats().tasks_created > created_first);
    assert!(e.checkpoints().is_empty());
}

#[test]
fn a_spawned_demand_shares_one_argument_list() {
    // The walker allocates each new demand's arguments once. The call
    // cache, the child record (the checkpoint), the spawn packet and the
    // frame that accepts the packet all hold that one list.
    let w = Workload::fib(10);
    let mut e = engine_for(&w, RecoveryMode::Splice);
    pump(&mut e, Msg::spawn(root_packet(&w)));
    let owner = e.pop_ready().expect("root frame queued");
    let mut sink = ActionSink::new();
    e.run_wave(owner, &mut sink);
    let spawns: Vec<TaskPacket> = sink
        .drain_to_vec()
        .into_iter()
        .filter_map(|a| match a {
            Action::Send {
                msg: Msg::Spawn(p), ..
            } => Some(*p),
            _ => None,
        })
        .collect();
    assert_eq!(spawns.len(), 2, "fib(10) demands fib(9) and fib(8)");
    let task = e.tasks.get(&owner).expect("owner waits on its children");
    for p in &spawns {
        let child = &task.children[&p.stamp];
        assert!(Arc::ptr_eq(&child.demand.args, &p.demand.args));
        let issued = task.eval.cached_demand(&p.demand).expect("issued");
        assert!(Arc::ptr_eq(&issued.args, &p.demand.args));
    }

    let p = spawns.into_iter().next().expect("a spawn");
    let (stamp, args) = (p.stamp.clone(), Arc::clone(&p.demand.args));
    pump(&mut e, Msg::spawn(p));
    let key = e.task_by_stamp(&stamp).expect("accepted locally");
    let frame = e.tasks.get(&key).expect("resident");
    assert!(
        std::ptr::eq(frame.eval.args(), &*args),
        "the frame took the packet's argument list"
    );
}

/// Sends every child to one fixed peer (the probe tests need a child
/// that is placed — and acked — remotely).
struct PeerPlacer(ProcId);

impl Placer for PeerPlacer {
    fn place(&mut self, _packet: &TaskPacket, _avoid: &FxHashSet<ProcId>) -> ProcId {
        self.0
    }
}

/// Spawns the root on an engine that places children on `ProcId(1)` and
/// runs waves until the first child spawn leaves, returning the engine,
/// the outgoing packet and the ack timer guarding it.
fn engine_with_remote_child(cfg: Config, w: &Workload) -> (Engine, Box<TaskPacket>, Timer) {
    let mut e = Engine::new(
        ProcId(0),
        Arc::new(w.program.clone()),
        cfg,
        Box::new(PeerPlacer(ProcId(1))),
    );
    let mut sink = ActionSink::new();
    e.on_message(Msg::spawn(root_packet(w)), &mut sink);
    let mut spawn: Option<Box<TaskPacket>> = None;
    let mut timer: Option<Timer> = None;
    for _ in 0..100 {
        if spawn.is_some() && timer.is_some() {
            break;
        }
        let key = e.pop_ready().expect("root must spawn children");
        e.run_wave(key, &mut sink);
        for a in sink.drain() {
            match a {
                Action::Send {
                    to,
                    msg: Msg::Spawn(p),
                } if to == ProcId(1) && spawn.is_none() => spawn = Some(p),
                Action::SetTimer {
                    timer: t @ Timer::AckTimeout(_),
                    ..
                } if timer.is_none() => timer = Some(t),
                _ => {}
            }
        }
    }
    let spawn = spawn.expect("child spawn emitted");
    let timer = timer.expect("ack timer armed");
    if let Timer::AckTimeout(at) = &timer {
        assert_eq!(at.stamp, spawn.stamp, "timer guards the captured spawn");
    }
    (e, spawn, timer)
}

#[test]
fn ack_timeout_probes_acked_children_when_enabled() {
    let w = Workload::fib(6);
    let mut cfg = Config::with_mode(RecoveryMode::Splice);
    cfg.load_beacon_period = 0;
    cfg.probe_acked = true;
    let (mut e, spawn, timer) = engine_with_remote_child(cfg, &w);
    let child_addr = TaskAddr::new(ProcId(1), TaskKey(7));
    pump(
        &mut e,
        Msg::ack(spawn.stamp.clone(), child_addr, spawn.parent.addr, 0),
    );
    let mut sink = ActionSink::new();
    e.on_timer(timer, &mut sink);
    let acts = sink.drain_to_vec();
    assert!(
        acts.iter()
            .any(|a| matches!(a, Action::Send { to, msg: Msg::Probe } if *to == ProcId(1))),
        "placed child with an overdue result is probed: {acts:?}"
    );
    assert!(
        acts.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                timer: Timer::AckTimeout(_),
                ..
            }
        )),
        "the probe re-arms the poll: {acts:?}"
    );
    assert_eq!(
        e.stats().reissues,
        0,
        "acked children are never reissued blind"
    );
}

#[test]
fn ack_timeout_on_acked_child_is_silent_without_probing() {
    let w = Workload::fib(6);
    let mut cfg = Config::with_mode(RecoveryMode::Splice);
    cfg.load_beacon_period = 0;
    let (mut e, spawn, timer) = engine_with_remote_child(cfg, &w);
    let child_addr = TaskAddr::new(ProcId(1), TaskKey(7));
    pump(
        &mut e,
        Msg::ack(spawn.stamp.clone(), child_addr, spawn.parent.addr, 0),
    );
    let mut sink = ActionSink::new();
    e.on_timer(timer, &mut sink);
    assert!(
        sink.drain_to_vec().is_empty(),
        "paper default: an acked child is trusted until a notice or bounce"
    );
}

/// [`first_wave_of`] on fib(6), whose root demands two children.
fn first_wave_spawns(mode: RecoveryMode) -> (Engine, Vec<TaskPacket>) {
    let (e, spawns) = first_wave_of(&Workload::fib(6), mode);
    assert!(spawns.len() >= 2, "fib's root demands two children");
    (e, spawns)
}

/// Accepts the root on an engine that places every child on
/// `ProcId(1)` and runs the root's first wave, returning the engine
/// and the child packets that wave spawned.
fn first_wave_of(w: &Workload, mode: RecoveryMode) -> (Engine, Vec<TaskPacket>) {
    let mut cfg = Config::with_mode(mode);
    cfg.load_beacon_period = 0;
    let mut e = Engine::new(
        ProcId(0),
        Arc::new(w.program.clone()),
        cfg,
        Box::new(PeerPlacer(ProcId(1))),
    );
    let mut sink = ActionSink::new();
    e.on_message(Msg::spawn(root_packet(w)), &mut sink);
    let key = e.pop_ready().expect("root accepted");
    e.run_wave(key, &mut sink);
    let spawns: Vec<TaskPacket> = sink.drain().filter_map(spawned).collect();
    (e, spawns)
}

fn spawned(a: Action) -> Option<TaskPacket> {
    match a {
        Action::Send {
            msg: Msg::Spawn(p), ..
        } => Some(*p),
        _ => None,
    }
}

/// Acks child packet `p` as placed on `host`.
fn ack_from(e: &mut Engine, p: &TaskPacket, host: ProcId) {
    let addr = TaskAddr::new(host, TaskKey(7));
    pump(
        e,
        Msg::ack(p.stamp.clone(), addr, p.parent.addr, p.incarnation),
    );
}

/// Delivers a failure notice and returns the spawns it reissued.
fn notice(e: &mut Engine, dead: ProcId) -> Vec<TaskPacket> {
    pump(e, Msg::FailureNotice { dead })
        .into_iter()
        .filter_map(spawned)
        .collect()
}

fn packet_bytes(spawns: &[TaskPacket]) -> usize {
    spawns.iter().map(TaskPacket::size).sum()
}

#[test]
fn spawn_stores_one_checkpoint_per_child() {
    let (e, spawns) = first_wave_spawns(RecoveryMode::Splice);
    let t = e.checkpoints();
    assert_eq!(t.len(), spawns.len());
    assert_eq!(t.stored_total(), spawns.len() as u64);
    assert_eq!(t.bytes(), packet_bytes(&spawns));
}

#[test]
fn failure_notice_reissues_the_child_acked_there() {
    let (mut e, spawns) = first_wave_spawns(RecoveryMode::Rollback);
    ack_from(&mut e, &spawns[0], ProcId(2));
    // The other children are unacked (pending): no destination yet.
    let twins = notice(&mut e, ProcId(2));
    assert_eq!(twins.len(), 1);
    assert_eq!(twins[0].stamp, spawns[0].stamp);
    assert_eq!(twins[0].incarnation, 1);
    assert_eq!(e.stats().reissues, 1);
}

#[test]
fn reissued_checkpoint_leaves_its_old_destination() {
    let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
    ack_from(&mut e, &spawns[0], ProcId(2));
    // A bounced spawn reissues the child: pending again.
    let mut sink = ActionSink::new();
    e.on_send_failed(ProcId(3), Msg::spawn(spawns[0].clone()), &mut sink);
    assert_eq!(e.stats().reissues, 1);
    assert!(notice(&mut e, ProcId(2)).is_empty());
    assert_eq!(e.stats().reissues, 1);
    assert_eq!(e.checkpoints().len(), spawns.len());
}

#[test]
fn re_ack_moves_the_checkpoint() {
    let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
    ack_from(&mut e, &spawns[0], ProcId(2));
    ack_from(&mut e, &spawns[0], ProcId(3));
    assert!(notice(&mut e, ProcId(2)).is_empty());
    let twins = notice(&mut e, ProcId(3));
    assert_eq!(twins.len(), 1);
    assert_eq!(twins[0].stamp, spawns[0].stamp);
}

#[test]
fn result_and_abort_retire_checkpoints() {
    let (mut e, spawns) = first_wave_spawns(RecoveryMode::Rollback);
    let p = &spawns[0];
    pump(
        &mut e,
        Msg::result(ResultPacket {
            from_stamp: p.stamp.clone(),
            demand: p.demand.clone(),
            value: Value::Int(5),
            to: p.parent.addr,
            to_stamp: p.parent.stamp.clone(),
            relay_chain: vec![],
            replica: None,
        }),
    );
    assert_eq!(e.checkpoints().len(), spawns.len() - 1);
    assert_eq!(e.checkpoints().retired_total(), 1);
    assert_eq!(e.checkpoints().bytes(), packet_bytes(&spawns[1..]));
    pump(&mut e, Msg::Abort { to: p.parent.addr });
    assert_eq!(e.task_count(), 0);
    assert_eq!(e.checkpoints().len(), 0);
    assert_eq!(e.checkpoints().bytes(), 0);
    assert_eq!(e.checkpoints().retired_total(), spawns.len() as u64);
}

#[test]
fn preloads_dedup_per_demand_and_count_in_bytes() {
    let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
    let p = &spawns[0];
    let report = |entries: Vec<(Demand, Value)>| {
        Msg::ckpt(CkptPacket {
            owner: p.parent.addr,
            from_stamp: p.stamp.clone(),
            entries,
        })
    };
    let d1 = Demand::new(p.demand.fun, vec![Value::Int(1)]);
    let d2 = Demand::new(p.demand.fun, vec![Value::Int(2)]);
    let base = e.checkpoints().bytes();
    pump(&mut e, report(vec![(d1.clone(), Value::Int(10))]));
    pump(
        &mut e,
        report(vec![(d1, Value::Int(10)), (d2, Value::Int(20))]),
    );
    let added = Value::Int(10).size() + Value::Int(20).size();
    assert_eq!(e.checkpoints().bytes(), base + added);
    assert_eq!(e.stats().stale_messages_ignored, 0);
    // A report for a child this engine never spawned is stale.
    pump(
        &mut e,
        Msg::ckpt(CkptPacket {
            owner: p.parent.addr,
            from_stamp: p.stamp.child(9),
            entries: vec![],
        }),
    );
    assert_eq!(e.stats().stale_messages_ignored, 1);
    // Retiring the owner releases the preload bytes too.
    pump(&mut e, Msg::Abort { to: p.parent.addr });
    assert_eq!(e.checkpoints().bytes(), 0);
    assert!(e.checkpoints().peak_bytes() >= base + added);
}

#[test]
fn checkpoint_peaks_keep_high_water_marks() {
    let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
    pump(
        &mut e,
        Msg::Abort {
            to: spawns[0].parent.addr,
        },
    );
    let t = e.checkpoints();
    assert!(t.is_empty());
    assert_eq!(t.peak_entries(), spawns.len());
    assert_eq!(t.peak_bytes(), packet_bytes(&spawns));
}

#[test]
fn twin_packet_is_the_original_but_for_incarnation() {
    let (mut e, spawns) = first_wave_spawns(RecoveryMode::Splice);
    let b = ProcId(1);
    ack_from(&mut e, &spawns[0], b);
    let twins = notice(&mut e, b);
    assert_eq!(twins.len(), 1);
    let mut want = spawns[0].clone();
    want.incarnation = 1;
    assert_eq!(twins[0], want);
    assert!(!want.ancestors.is_empty(), "links are part of the pin");
}

#[test]
fn salvage_supplies_the_child_spawned_for_its_demand() {
    // tak's root demands three children with distinct arguments in its
    // first wave. A salvage addressed to the root finds its child by
    // demand: exactly the middle one is supplied.
    let (mut e, spawns) = first_wave_of(&Workload::tak(6, 3, 1), RecoveryMode::Splice);
    assert_eq!(spawns.len(), 3);
    let owner = spawns[0].parent.clone();
    let salvage = |demand: Demand| {
        Msg::salvage(SalvagePacket {
            to: owner.addr,
            dead_stamp: owner.stamp.clone(),
            dead_addr: owner.addr,
            demand,
            value: Value::Int(1),
            from_stamp: owner.stamp.child(9).child(1),
        })
    };
    pump(&mut e, salvage(spawns[1].demand.clone()));
    assert_eq!(e.stats().salvage_after_spawn, 1);
    let owner_task = e.tasks.get(&owner.addr.key).expect("owner resident");
    let done: Vec<bool> = spawns
        .iter()
        .map(|p| owner_task.children[&p.stamp].done)
        .collect();
    assert_eq!(done, [false, true, false]);
    assert_eq!(e.checkpoints().len(), 2, "the supplied child retired");
    // A demand the root never spawned is preloaded instead.
    let unspawned = Demand::new(spawns[1].demand.fun, vec![Value::Int(99)]);
    pump(&mut e, salvage(unspawned));
    assert_eq!(e.stats().salvage_before_spawn, 1);
    assert_eq!(e.stats().salvage_after_spawn, 1);
}
