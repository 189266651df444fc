//! The coordinator: forks the workers, hosts the reliable super-root over
//! the control links, executes the fault plan against live processes and
//! assembles the run's report.

use super::transport::{
    accept_conns, note_inbound, pump_read, wait_budget, wait_readable, watch_inbound, woken,
    InConn, PollFd, MAX_WAIT,
};
use super::wire::{decode_wire, write_wire, ExitReport, Init, Wire};
use super::{sock_path, units_to_wall, ProcConfig};
use crate::report::{RunCounters, RunReport};
use splice_applicative::Workload;
use splice_core::engine::Timer;
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_harness::{EngineSnapshot, EngineTotals, Substrate, SuperRootDriver, TimerWheel};
use splice_simnet::fault::{ProcFaultKind, ProcessFaultPlan};
use splice_simnet::time::VirtualTime;
use splice_simnet::trace::TraceSummary;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct CoordState {
    ctrl: Vec<Option<UnixStream>>,
    shard_dead: Vec<bool>,
    /// Per-processor deaths the coordinator has learned of — either by
    /// observing a worker exit, or by gossip (FailureNotices from peers
    /// that exhausted their reconnect budget against a partitioned host).
    /// Once every processor of a shard is believed dead, the root
    /// replicas hosted there are deposed even if the worker process
    /// itself is still running (a partitioned zombie).
    proc_dead: Vec<bool>,
    shards: u32,
    per_shard: u32,
    nanos: u64,
    epoch: Instant,
    timers: TimerWheel<Instant, Timer>,
    failed: Vec<u32>,
    dropped_to_dead: u64,
    scratch: (Vec<u8>, Vec<u8>),
}

impl CoordState {
    fn notify(&mut self, k: u32, w: &Wire) {
        if self.shard_dead[k as usize] {
            return;
        }
        let mut broke = false;
        if let Some(s) = self.ctrl[k as usize].as_mut() {
            if write_wire(s, w, &mut self.scratch).is_err() {
                broke = true;
            }
        }
        if broke {
            self.failed.push(k);
        }
    }
}

/// The super-root's substrate: the reliable driver link, carried over the
/// coordinator's control connections.
struct CoordSub<'a> {
    st: &'a mut CoordState,
}

impl Substrate for CoordSub<'_> {
    fn n_procs(&self) -> u32 {
        self.st.shards * self.st.per_shard
    }

    fn is_live(&self, p: ProcId) -> bool {
        !self.st.shard_dead[(p.0 / self.st.per_shard.max(1)) as usize]
            && !self.st.proc_dead[p.0 as usize]
    }

    fn now_units(&self) -> u64 {
        (self.st.epoch.elapsed().as_nanos() / u128::from(self.st.nanos.max(1))) as u64
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        let k = to.0 / self.st.per_shard.max(1);
        if self.st.shard_dead[k as usize] || self.st.ctrl[k as usize].is_none() {
            self.st.dropped_to_dead += 1;
            return;
        }
        self.st.notify(k, &Wire::CoordNet { from, to, msg });
    }

    fn arm_timer(&mut self, _owner: ProcId, timer: Timer, delay: u64) {
        let at = Instant::now() + units_to_wall(self.st.nanos, delay);
        self.st.timers.arm(at, timer);
    }

    fn report_death(&mut self, _dead: ProcId) {
        // The coordinator is the detector; nothing to tell itself.
    }
}

fn on_shard_death(
    st: &mut CoordState,
    children: &mut [Option<Child>],
    sr: &mut SuperRootDriver,
    k: u32,
    broadcast: bool,
) {
    if st.shard_dead[k as usize] {
        return;
    }
    st.shard_dead[k as usize] = true;
    st.ctrl[k as usize] = None;
    for j in 0..st.per_shard {
        st.proc_dead[(k * st.per_shard + j) as usize] = true;
    }
    crash_root_replicas_of(st, sr, k);
    if let Some(mut ch) = children[k as usize].take() {
        let _ = ch.kill();
        let _ = ch.wait();
    }
    if broadcast {
        for j in 0..st.per_shard {
            let p = ProcId(k * st.per_shard + j);
            {
                let mut sub = CoordSub { st };
                sr.on_failure(p, &mut sub);
            }
            for other in 0..st.shards {
                if other != k {
                    st.notify(other, &Wire::Notice { dead: p });
                }
            }
        }
    }
    // With broadcast off the death stays silent: workers discover it
    // through exhausted reconnect budgets, and the super-root through the
    // FailureNotices those discoveries gossip up the driver link.
}

/// Deposes every root replica hosted by shard `k` — replica rank `r`
/// lives on shard `r % shards` — letting the quorum's next-ranked live
/// replica take over and reissue the root wave.
fn crash_root_replicas_of(st: &mut CoordState, sr: &mut SuperRootDriver, k: u32) {
    for r in 0..sr.replicas() {
        if r % st.shards.max(1) == k && sr.replica_live(r) {
            let mut sub = CoordSub { st };
            sr.crash_replica(r, &mut sub);
        }
    }
}

/// Records a gossiped processor death. When that completes a whole
/// shard, the shard's root replicas are deposed even though its worker
/// process may still be alive (an inbound-partitioned zombie: the
/// cluster has durably excommunicated it, so the root role must move).
fn note_proc_death(st: &mut CoordState, sr: &mut SuperRootDriver, dead: ProcId) {
    let i = dead.0 as usize;
    if i >= st.proc_dead.len() || st.proc_dead[i] {
        return;
    }
    st.proc_dead[i] = true;
    let k = dead.0 / st.per_shard.max(1);
    let whole = (0..st.per_shard).all(|j| st.proc_dead[(k * st.per_shard + j) as usize]);
    if whole {
        crash_root_replicas_of(st, sr, k);
    }
}

pub(super) fn run_process_in(
    cfg: &ProcConfig,
    workload: &Workload,
    plan: &ProcessFaultPlan,
    bin: &Path,
    dir: &Path,
) -> io::Result<RunReport> {
    let shards = cfg.shards.max(1);
    let per_shard = cfg.per_shard.max(1);
    let nanos = cfg.time_unit.as_nanos().max(1) as u64;
    let listener = UnixListener::bind(dir.join("coord.sock"))?;
    listener.set_nonblocking(true)?;
    let mut children: Vec<Option<Child>> = Vec::new();
    for k in 0..shards {
        let child = Command::new(bin)
            .arg(dir)
            .arg(k.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(c) => children.push(Some(c)),
            Err(e) => {
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }
    let recovery = cfg.engine_recovery();
    let mut sr = SuperRootDriver::new(workload, &recovery);
    let mut st = CoordState {
        ctrl: (0..shards).map(|_| None).collect(),
        shard_dead: vec![false; shards as usize],
        proc_dead: vec![false; (shards * per_shard) as usize],
        shards,
        per_shard,
        nanos,
        epoch: Instant::now(),
        timers: TimerWheel::new(),
        failed: Vec::new(),
        dropped_to_dead: 0,
        scratch: (Vec::new(), Vec::new()),
    };
    let init_template = Init {
        shards,
        per_shard,
        seed: cfg.seed,
        time_unit_nanos: nanos,
        router_latency: cfg.router_latency,
        detector_broadcast: cfg.detector_broadcast,
        policy: cfg.policy,
        trace: cfg.trace,
        recovery: recovery.clone(),
        spec: workload.name.clone(),
        write_timeout_ms: cfg.write_timeout.as_millis().max(1) as u64,
        backoff_base_us: cfg.backoff_base.as_micros().max(1) as u64,
        backoff_cap_us: cfg.backoff_cap.as_micros().max(1) as u64,
        reconnect_budget: cfg.reconnect_budget,
    };
    let mut w2c: Vec<InConn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ready = vec![false; shards as usize];
    let mut launched = false;
    let mut launch_at = Instant::now();
    let mut exits: Vec<Option<ExitReport>> = vec![None; shards as usize];
    let plan_events = plan.sorted();
    let mut cursor = 0usize;
    let mut finish_units: Option<u64> = None;
    let mut stalled = false;
    let mut all_dead_since: Option<Instant> = None;
    let deadline = st.epoch + cfg.run_timeout;
    // As on a worker, only the sockets the last wait woke are read.
    let mut listener_woke = true;

    loop {
        if std::mem::take(&mut listener_woke) {
            accept_conns(&listener, &mut w2c);
        }
        let mut progressed = false;
        let mut drop_idx: Vec<usize> = Vec::new();
        for (ci, conn) in w2c.iter_mut().enumerate() {
            if !std::mem::take(&mut conn.woke) {
                continue;
            }
            let eof = matches!(pump_read(&mut conn.stream, &mut conn.fb), Ok(true) | Err(_));
            loop {
                match conn.fb.next_frame() {
                    Ok(Some(body)) => {
                        progressed = true;
                        match decode_wire(&body) {
                            Ok(Wire::Hello { shard }) if shard < shards => {
                                conn.src = Some(shard);
                                // The worker binds its listener before
                                // saying hello; connect the control link
                                // and configure it.
                                let mut ctrl = None;
                                for _ in 0..200 {
                                    match UnixStream::connect(sock_path(dir, shard)) {
                                        Ok(s) => {
                                            ctrl = Some(s);
                                            break;
                                        }
                                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                                    }
                                }
                                if let Some(mut s) = ctrl {
                                    let _ = s.set_write_timeout(Some(cfg.write_timeout));
                                    let init = Init {
                                        spec: init_template.spec.clone(),
                                        recovery: init_template.recovery.clone(),
                                        ..init_template
                                    };
                                    if write_wire(
                                        &mut s,
                                        &Wire::Init(Box::new(init)),
                                        &mut st.scratch,
                                    )
                                    .is_ok()
                                    {
                                        st.ctrl[shard as usize] = Some(s);
                                    } else {
                                        st.failed.push(shard);
                                    }
                                } else {
                                    st.failed.push(shard);
                                }
                            }
                            Ok(Wire::Ready { shard }) if shard < shards => {
                                ready[shard as usize] = true;
                            }
                            Ok(Wire::CoordNet { to, msg, .. }) if to.is_super_root() => match msg {
                                Msg::FailureNotice { dead } => {
                                    {
                                        let mut sub = CoordSub { st: &mut st };
                                        sr.on_failure(dead, &mut sub);
                                    }
                                    note_proc_death(&mut st, &mut sr, dead);
                                }
                                m => {
                                    let mut sub = CoordSub { st: &mut st };
                                    sr.on_message(m, &mut sub);
                                }
                            },
                            Ok(Wire::Exit(rep)) => {
                                let k = rep.shard as usize;
                                if k < exits.len() {
                                    exits[k] = Some(*rep);
                                }
                            }
                            Ok(_) => {}
                            Err(_) => {
                                drop_idx.push(ci);
                                break;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        drop_idx.push(ci);
                        break;
                    }
                }
            }
            if eof {
                drop_idx.push(ci);
            }
        }
        drop_idx.sort_unstable();
        drop_idx.dedup();
        for ci in drop_idx.into_iter().rev() {
            w2c.remove(ci);
        }

        if !launched && ready.iter().all(|r| *r) {
            let mut sub = CoordSub { st: &mut st };
            sr.launch(&mut sub);
            launched = true;
            launch_at = Instant::now();
        }

        // Super-root timers.
        let now = Instant::now();
        let mut due: Vec<Timer> = Vec::new();
        while let Some(t) = st.timers.pop_due(&now) {
            due.push(t);
        }
        for t in due {
            let mut sub = CoordSub { st: &mut st };
            sr.on_timer(t, &mut sub);
            progressed = true;
        }

        // Unexpected worker exits are crashes.
        for k in 0..shards {
            let crashed = match children[k as usize].as_mut() {
                Some(ch) => matches!(ch.try_wait(), Ok(Some(_))),
                None => false,
            };
            if crashed && !st.shard_dead[k as usize] {
                on_shard_death(&mut st, &mut children, &mut sr, k, cfg.detector_broadcast);
                progressed = true;
            }
        }

        // Scheduled plan events, measured from launch.
        while launched && cursor < plan_events.len() {
            let ev = plan_events[cursor];
            if now < launch_at + units_to_wall(nanos, ev.at.ticks()) {
                break;
            }
            cursor += 1;
            progressed = true;
            match ev.kind {
                ProcFaultKind::Kill => {
                    on_shard_death(
                        &mut st,
                        &mut children,
                        &mut sr,
                        ev.shard,
                        cfg.detector_broadcast,
                    );
                }
                ProcFaultKind::PartitionOut { peer, for_units } => {
                    st.notify(ev.shard, &Wire::Partition { peer, for_units });
                }
                ProcFaultKind::DelayOut {
                    peer,
                    extra_units,
                    for_units,
                } => {
                    st.notify(
                        ev.shard,
                        &Wire::Delay {
                            peer,
                            extra_units,
                            for_units,
                        },
                    );
                }
                ProcFaultKind::GarbleNext { peer } => {
                    st.notify(ev.shard, &Wire::Garble { peer });
                }
                ProcFaultKind::PartitionIn { for_units } => {
                    st.notify(ev.shard, &Wire::PartitionIn { for_units });
                }
                ProcFaultKind::NoiseOut { peer, for_units } => {
                    st.notify(ev.shard, &Wire::Noise { peer, for_units });
                }
            }
        }

        // Control links that broke mid-write mean the worker died.
        while let Some(k) = st.failed.pop() {
            on_shard_death(&mut st, &mut children, &mut sr, k, cfg.detector_broadcast);
            progressed = true;
        }

        if sr.result().is_some() {
            finish_units = Some((st.epoch.elapsed().as_nanos() / u128::from(nanos)) as u64);
            break;
        }
        // Every root replica deposed: the quorum is gone and no successor
        // can reissue — the run stalls by construction, so stop now.
        if launched && !sr.has_live_replica() {
            stalled = true;
            break;
        }
        if launched && st.shard_dead.iter().all(|d| *d) {
            let since = *all_dead_since.get_or_insert(now);
            if now.duration_since(since) > Duration::from_millis(300) {
                stalled = true;
                break;
            }
        } else {
            all_dead_since = None;
        }
        if Instant::now() > deadline {
            break;
        }
        // Block until a link stirs or the next deadline; a busy iteration
        // still polls, without blocking, to learn which links to read.
        let budget = if progressed {
            Duration::ZERO
        } else {
            let next_fault = plan_events
                .get(cursor)
                .filter(|_| launched)
                .map(|ev| launch_at + units_to_wall(nanos, ev.at.ticks()));
            let next = [st.timers.next_deadline().copied(), next_fault]
                .into_iter()
                .flatten()
                .min();
            wait_budget(next)
        };
        watch_inbound(&mut fds, Some(&listener), &w2c);
        let waited = wait_readable(&mut fds, budget);
        listener_woke = note_inbound(&mut woken(&fds, &waited), true, &mut w2c);
    }

    // Teardown: drain live workers gracefully, then reap everything.
    for k in 0..shards {
        st.notify(k, &Wire::Shutdown);
    }
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < drain_deadline
        && exits
            .iter()
            .zip(&st.shard_dead)
            .any(|(e, d)| e.is_none() && !d)
    {
        if std::mem::take(&mut listener_woke) {
            accept_conns(&listener, &mut w2c);
        }
        let mut drop_idx: Vec<usize> = Vec::new();
        for (ci, conn) in w2c.iter_mut().enumerate() {
            if !std::mem::take(&mut conn.woke) {
                continue;
            }
            let eof = matches!(pump_read(&mut conn.stream, &mut conn.fb), Ok(true) | Err(_));
            loop {
                match conn.fb.next_frame() {
                    Ok(Some(body)) => {
                        if let Ok(Wire::Exit(rep)) = decode_wire(&body) {
                            let k = rep.shard as usize;
                            if k < exits.len() {
                                exits[k] = Some(*rep);
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        drop_idx.push(ci);
                        break;
                    }
                }
            }
            if eof {
                drop_idx.push(ci);
            }
        }
        drop_idx.sort_unstable();
        drop_idx.dedup();
        for ci in drop_idx.into_iter().rev() {
            w2c.remove(ci);
        }
        watch_inbound(&mut fds, Some(&listener), &w2c);
        let waited = wait_readable(&mut fds, MAX_WAIT);
        listener_woke = note_inbound(&mut woken(&fds, &waited), true, &mut w2c);
    }
    for c in children.iter_mut().flatten() {
        let _ = c.kill();
        let _ = c.wait();
    }

    // Assemble the report.
    let end_units = (st.epoch.elapsed().as_nanos() / u128::from(nanos)) as u64;
    let mut snaps: Vec<EngineSnapshot> = Vec::with_capacity((shards * per_shard) as usize);
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut dropped = st.dropped_to_dead;
    let mut bounces = 0u64;
    let mut intra = 0u64;
    let mut inter = 0u64;
    let mut frames_sent = 0u64;
    let mut frames_resent = 0u64;
    let mut reconnects = 0u64;
    let mut decode_errors = 0u64;
    let mut trace = TraceSummary::default();
    for exit in exits.iter().take(shards as usize) {
        match exit {
            Some(r) => {
                events += r.events;
                delivered += r.delivered;
                dropped += r.dropped_to_dead;
                bounces += r.bounces;
                intra += r.intra;
                inter += r.inter;
                frames_sent += r.frames_sent;
                frames_resent += r.frames_resent;
                reconnects += r.reconnects;
                decode_errors += r.decode_errors;
                trace.absorb(r.trace);
                if r.snaps.len() == per_shard as usize {
                    snaps.extend(r.snaps.iter().cloned());
                } else {
                    snaps.extend((0..per_shard).map(|_| EngineSnapshot::default()));
                }
            }
            // A killed worker reports nothing: its measurements died with
            // it, exactly like a crashed processor's would.
            None => snaps.extend((0..per_shard).map(|_| EngineSnapshot::default())),
        }
    }
    let totals = EngineTotals::collect(snaps);
    let mut report = RunReport::assemble(
        RunCounters {
            finish: finish_units.map(VirtualTime),
            end: VirtualTime(end_units),
            stalled,
            events,
            delivered,
            dropped_to_dead: dropped,
            bounces,
            shards,
            shard_msgs_intra: intra,
            shard_msgs_inter: inter,
            faults: plan.events.len(),
            threads: shards,
            trace,
        },
        totals,
        &sr,
    );
    report.frames_sent = frames_sent;
    report.frames_resent = frames_resent;
    report.reconnects = reconnects;
    report.decode_errors = decode_errors;
    Ok(report)
}
