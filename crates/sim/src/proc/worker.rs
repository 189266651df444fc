//! The worker process: hosts one shard's engines behind the shard router
//! over a [`WireSub`] substrate, and pumps inbound frames, timers, waves
//! and the transport until the coordinator shuts it down.

use super::transport::{
    accept_conns, note_inbound, pump_read, wait_budget, wait_readable, watch_inbound, woken,
    InConn, PollFd, Remains, Transport, MAX_WAIT,
};
use super::wire::{decode_wire, write_wire, ExitReport, Init, Wire};
use super::{parse_workload, sock_path, units_to_wall};
use splice_core::engine::Timer;
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_harness::{
    death_notice_targets, DriverLoop, EngineSnapshot, ShardMap, ShardRouter, Substrate, TimerWheel,
    TracingSubstrate,
};
use splice_simnet::topology::Topology;
use splice_simnet::trace::Tracer;
use std::collections::VecDeque;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the worker substrate needs mutable access to.
struct WorkerCore {
    me: u32,
    shards: u32,
    per_shard: u32,
    nanos: u64,
    epoch: Instant,
    dead: Vec<bool>,
    inbox: VecDeque<(ProcId, Msg)>,
    bounces: VecDeque<(ProcId, ProcId, Msg)>,
    timers: TimerWheel<Instant, (ProcId, Timer)>,
    /// Ack timers a dead peer's spawns expire early ([`WorkerCore::bury`]).
    expiring: Vec<(ProcId, Timer)>,
    /// Inbox entries that must be delivered before `expiring` fires.
    expire_after: usize,
    transport: Transport,
    coord: UnixStream,
    coord_down: bool,
    scratch: (Vec<u8>, Vec<u8>),
    /// Next expected data sequence number per source shard. Survives
    /// connection drops — that is the whole point of the dedup.
    expected_seq: Vec<u64>,
    dropped_to_dead: u64,
    decode_errors: u64,
    /// End of an active inbound-partition window: while set, the worker
    /// refuses inbound peer traffic (listener down, peer links severed).
    partition_in_until: Option<Instant>,
}

impl WorkerCore {
    fn now_units(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / u128::from(self.nanos.max(1))) as u64
    }

    fn send_coord(&mut self, w: &Wire) {
        if self.coord_down {
            return;
        }
        if write_wire(&mut self.coord, w, &mut self.scratch).is_err() {
            self.coord_down = true;
        }
    }

    fn shard_of(&self, p: ProcId) -> u32 {
        p.0 / self.per_shard.max(1)
    }

    fn route(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        if to.is_super_root() {
            self.send_coord(&Wire::CoordNet { from, to, msg });
            return;
        }
        if self.dead[to.0 as usize] {
            // Mirror the DES bounce rule: live senders get their message
            // back through on_send_failed; super-root sends are silently
            // dropped.
            if from.is_super_root() {
                self.dropped_to_dead += 1;
            } else {
                self.bounces.push_back((from, to, msg));
            }
            return;
        }
        let shard = self.shard_of(to);
        if shard == self.me {
            self.inbox.push_back((to, msg));
            return;
        }
        if let Some((f, t, m)) = self.transport.enqueue(shard, from, to, msg, Instant::now()) {
            if f.is_super_root() {
                self.dropped_to_dead += 1;
            } else {
                self.bounces.push_back((f, t, m));
            }
        }
    }

    /// Fans a death observation out to the canonical notice targets:
    /// local engines via the inbox, remote shards via the transport, the
    /// super-root via the driver link.
    fn announce_death(&mut self, dead: ProcId) {
        let n = self.shards * self.per_shard;
        let targets = death_notice_targets(n, |p| !self.dead[p.0 as usize], dead);
        for t in targets {
            if t.is_super_root() {
                self.send_coord(&Wire::CoordNet {
                    from: dead,
                    to: ProcId::SUPER_ROOT,
                    msg: Msg::FailureNotice { dead },
                });
            } else if self.shard_of(t) == self.me {
                self.inbox.push_back((t, Msg::FailureNotice { dead }));
            } else {
                let _ = self.transport.enqueue(
                    self.shard_of(t),
                    dead,
                    t,
                    Msg::FailureNotice { dead },
                    Instant::now(),
                );
            }
        }
    }

    /// Takes in what a dead peer left behind. Unsent traffic bounces. The
    /// early ack timers wait behind everything now in the inbox, the
    /// death's failure notices included: an engine that reissued before
    /// hearing of the death could place the twin back on the corpse.
    fn bury(&mut self, remains: Remains) {
        for m in remains.pending {
            if m.from.is_super_root() {
                self.dropped_to_dead += 1;
            } else {
                self.bounces.push_back((m.from, m.to, m.msg));
            }
        }
        self.expiring.extend(remains.expiring);
        self.expire_after = self.inbox.len();
    }

    /// Marks every processor of `shard` dead; returns the procs newly
    /// marked.
    fn mark_shard_dead(&mut self, shard: u32) -> Vec<ProcId> {
        let mut newly = Vec::new();
        for j in 0..self.per_shard {
            let p = ProcId(shard * self.per_shard + j);
            if !self.dead[p.0 as usize] {
                self.dead[p.0 as usize] = true;
                newly.push(p);
            }
        }
        newly
    }
}

/// The innermost worker substrate: real sockets, real clocks.
struct WireSub<'a> {
    core: &'a mut WorkerCore,
}

impl Substrate for WireSub<'_> {
    fn n_procs(&self) -> u32 {
        self.core.shards * self.core.per_shard
    }

    fn is_live(&self, p: ProcId) -> bool {
        !self.core.dead[p.0 as usize]
    }

    fn now_units(&self) -> u64 {
        self.core.now_units()
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        self.core.route(from, to, msg);
    }

    // send_delayed keeps the trait default: real time already passes on
    // the socket, like the threaded runtime.

    fn arm_timer(&mut self, owner: ProcId, timer: Timer, delay: u64) {
        let at = Instant::now() + units_to_wall(self.core.nanos, delay);
        self.core.timers.arm(at, (owner, timer));
    }

    fn report_death(&mut self, dead: ProcId) {
        self.core.announce_death(dead);
    }
}

/// The worker process body: binds its shard socket, handshakes with the
/// coordinator, hosts `per_shard` protocol engines, and pumps messages,
/// timers, waves and the transport until told to shut down. Returns the
/// process exit code (`0` = clean).
pub fn worker_main(dir: &Path, shard: u32) -> i32 {
    let start = Instant::now();
    let listener = match UnixListener::bind(sock_path(dir, shard)) {
        Ok(l) => l,
        Err(_) => return 2,
    };
    if listener.set_nonblocking(true).is_err() {
        return 2;
    }
    // Connect the driver link. The coordinator binds its socket before
    // spawning workers, so a short retry loop is cosmetic.
    let mut coord = loop {
        match UnixStream::connect(dir.join("coord.sock")) {
            Ok(s) => break s,
            Err(_) if start.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return 2,
        }
    };
    let _ = coord.set_write_timeout(Some(Duration::from_secs(2)));
    let mut scratch = (Vec::new(), Vec::new());
    if write_wire(&mut coord, &Wire::Hello { shard }, &mut scratch).is_err() {
        return 2;
    }

    // Handshake: wait for Init, buffering any early peer data frames.
    let mut conns: Vec<InConn> = Vec::new();
    let mut pre_data: Vec<(u32, u64, ProcId, Msg)> = Vec::new();
    let mut init: Option<Box<Init>> = None;
    let mut fds: Vec<PollFd> = Vec::new();
    while init.is_none() {
        if start.elapsed() > Duration::from_secs(10) {
            return 2;
        }
        accept_conns(&listener, &mut conns);
        let mut any = false;
        let mut drop_idx: Vec<usize> = Vec::new();
        for (ci, conn) in conns.iter_mut().enumerate() {
            let eof = pump_read(&mut conn.stream, &mut conn.fb).unwrap_or(true);
            loop {
                match conn.fb.next_frame() {
                    Ok(Some(body)) => {
                        any = true;
                        match decode_wire(&body) {
                            Ok(Wire::Init(i)) => {
                                conn.is_coord = true;
                                init = Some(i);
                            }
                            Ok(Wire::LinkHello { from_shard }) => conn.src = Some(from_shard),
                            Ok(Wire::Data { seq, to, msg, .. }) => {
                                if let Some(s) = conn.src {
                                    pre_data.push((s, seq, to, msg));
                                }
                            }
                            _ => {}
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        drop_idx.push(ci);
                        break;
                    }
                }
            }
            // Whatever is still buffered after EOF is a partial frame that
            // can never complete. The coordinator's link is kept: losing it
            // after Init is the main loop's shutdown signal.
            if eof && !conn.is_coord {
                drop_idx.push(ci);
            }
        }
        drop_idx.sort_unstable();
        drop_idx.dedup();
        for ci in drop_idx.into_iter().rev() {
            conns.remove(ci);
        }
        if !any {
            watch_inbound(&mut fds, Some(&listener), &conns);
            let _ = wait_readable(&mut fds, MAX_WAIT);
        }
    }
    let init = init.expect("loop exits with init");
    let Some(workload) = parse_workload(&init.spec) else {
        return 2;
    };

    // Build the machine half.
    let shards = init.shards;
    let per_shard = init.per_shard;
    let nanos = init.time_unit_nanos.max(1);
    let n = shards * per_shard;
    let topology = Topology::Sharded {
        shards,
        inner: Box::new(Topology::Complete { n: per_shard }),
    };
    let program = Arc::new(workload.program.clone());
    let mut nodes: Vec<DriverLoop> = (0..per_shard)
        .map(|j| {
            let id = ProcId(shard * per_shard + j);
            DriverLoop::new(
                id,
                program.clone(),
                init.recovery.clone(),
                init.policy.build(id, &topology, init.seed),
            )
        })
        .collect();
    let mut tracer = Tracer::new(init.trace);
    let mut core = WorkerCore {
        me: shard,
        shards,
        per_shard,
        nanos,
        epoch: Instant::now(),
        dead: vec![false; n as usize],
        inbox: VecDeque::new(),
        bounces: VecDeque::new(),
        timers: TimerWheel::new(),
        expiring: Vec::new(),
        expire_after: 0,
        transport: Transport::new(dir, shard, shards, nanos, &init, init.seed),
        coord,
        coord_down: false,
        scratch,
        expected_seq: vec![0; shards as usize],
        dropped_to_dead: 0,
        decode_errors: 0,
        partition_in_until: None,
    };
    // Replay pre-init data frames through the ordinary dedup path.
    for (src, seq, to, msg) in pre_data {
        let exp = &mut core.expected_seq[src as usize];
        if seq < *exp {
            continue;
        }
        if seq > *exp {
            core.decode_errors += 1;
            continue;
        }
        *exp += 1;
        if core.shard_of(to) == shard {
            core.inbox.push_back((to, msg));
        }
    }
    let mut events: u64 = 0;
    let mut delivered: u64 = 0;
    let mut bounce_count: u64 = 0;
    let mut intra: u64 = 0;
    let mut inter: u64 = 0;
    {
        let mut sub = worker_stack(&mut core, &mut tracer, init.router_latency);
        for node in nodes.iter_mut() {
            node.start(&mut sub);
        }
        let s = sub.stats();
        intra += s.intra_msgs;
        inter += s.inter_msgs;
    }
    core.send_coord(&Wire::Ready { shard });

    // Main loop.
    let mut listener = Some(listener);
    // Only sockets the last wait woke are read: the listener (always on
    // the first pass, and right after a rebind) and the connections marked
    // woken. A fresh connection starts woken.
    let mut listener_woke = true;
    let mut shutdown = false;
    loop {
        if start.elapsed() > Duration::from_secs(600) {
            return 3;
        }
        // Asymmetric inbound blackout (PartitionIn): while the window is
        // open this shard refuses new connections — the socket file is
        // gone, so peers burn reconnect budget — and severs established
        // peer links below. The coordinator link and every outbound link
        // stay up: the shard turns into a zombie that still computes and
        // sends but hears nothing from its peers.
        match core.partition_in_until {
            Some(until) if Instant::now() < until => {
                listener = None;
                let _ = std::fs::remove_file(sock_path(dir, shard));
            }
            Some(_) => {
                core.partition_in_until = None;
                listener = UnixListener::bind(sock_path(dir, shard))
                    .ok()
                    .filter(|l| l.set_nonblocking(true).is_ok());
                listener_woke = true;
            }
            None => {}
        }
        let dark = core.partition_in_until.is_some();
        if let Some(l) = listener.as_ref().filter(|_| listener_woke) {
            accept_conns(l, &mut conns);
        }
        let mut progressed = false;
        let mut coord_eof = false;
        let mut drop_idx: Vec<usize> = Vec::new();
        for (ci, conn) in conns.iter_mut().enumerate() {
            if dark && !conn.is_coord {
                drop_idx.push(ci);
                continue;
            }
            if !std::mem::take(&mut conn.woke) {
                continue;
            }
            let eof = pump_read(&mut conn.stream, &mut conn.fb).unwrap_or(true);
            loop {
                match conn.fb.next_frame() {
                    Ok(Some(body)) => {
                        progressed = true;
                        match decode_wire(&body) {
                            Ok(w) => {
                                if handle_worker_frame(&mut core, conn, w, &mut shutdown) {
                                    drop_idx.push(ci);
                                    break;
                                }
                            }
                            Err(_) => {
                                core.decode_errors += 1;
                                drop_idx.push(ci);
                                break;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        core.decode_errors += 1;
                        drop_idx.push(ci);
                        break;
                    }
                }
            }
            if eof {
                if conn.is_coord {
                    coord_eof = true;
                } else {
                    drop_idx.push(ci);
                }
            }
        }
        drop_idx.sort_unstable();
        drop_idx.dedup();
        for ci in drop_idx.into_iter().rev() {
            conns.remove(ci);
        }
        if coord_eof || core.coord_down {
            // The coordinator vanished: nothing to report to, just stop.
            return 0;
        }
        if shutdown {
            break;
        }

        // Timers, deliveries, bounces, waves — all through one transient
        // decorator stack per iteration.
        let now = Instant::now();
        let mut due: Vec<(ProcId, Timer)> = Vec::new();
        while let Some(t) = core.timers.pop_due(&now) {
            due.push(t);
        }
        let mut msgs: Vec<(ProcId, Msg)> = Vec::new();
        for _ in 0..64 {
            match core.inbox.pop_front() {
                Some(m) => msgs.push(m),
                None => break,
            }
        }
        core.expire_after = core.expire_after.saturating_sub(msgs.len());
        let expired = if core.expire_after == 0 {
            std::mem::take(&mut core.expiring)
        } else {
            Vec::new()
        };
        let bns: Vec<(ProcId, ProcId, Msg)> = core.bounces.drain(..).collect();
        {
            let mut sub = worker_stack(&mut core, &mut tracer, init.router_latency);
            for (owner, timer) in due {
                let idx = (owner.0 % per_shard) as usize;
                nodes[idx].on_timer(timer, &mut sub);
                events += 1;
                progressed = true;
            }
            for (to, msg) in msgs {
                let idx = (to.0 % per_shard) as usize;
                nodes[idx].on_message(msg, &mut sub);
                events += 1;
                delivered += 1;
                progressed = true;
            }
            for (owner, timer) in expired {
                let idx = (owner.0 % per_shard) as usize;
                nodes[idx].on_timer(timer, &mut sub);
                events += 1;
                progressed = true;
            }
            for (sender, dead_to, msg) in bns {
                let idx = (sender.0 % per_shard) as usize;
                nodes[idx].on_send_failed(dead_to, msg, &mut sub);
                events += 1;
                bounce_count += 1;
                progressed = true;
            }
            for _ in 0..16 {
                let mut any = false;
                for node in nodes.iter_mut() {
                    if node.run_ready_wave(&mut sub) {
                        any = true;
                        events += 1;
                    }
                }
                if !any {
                    break;
                }
                progressed = true;
            }
            let s = sub.stats();
            intra += s.intra_msgs;
            inter += s.inter_msgs;
        }

        // Push outbound traffic; handle transport-discovered deaths.
        for (dead_shard, remains) in core.transport.flush(Instant::now()) {
            for p in core.mark_shard_dead(dead_shard) {
                core.announce_death(p);
            }
            core.bury(remains);
            progressed = true;
        }

        // Block until a socket stirs or the next timer is due. A busy
        // iteration still polls, without blocking, so that a hang-up on an
        // outbound link reaches the next flush's EOF probe.
        let idle = !progressed && core.inbox.is_empty() && core.bounces.is_empty();
        let budget = if idle {
            wait_budget(core.timers.next_deadline().copied())
        } else {
            Duration::ZERO
        };
        watch_inbound(&mut fds, listener.as_ref(), &conns);
        core.transport.watch(&mut fds);
        let waited = wait_readable(&mut fds, budget);
        let mut woke = woken(&fds, &waited);
        listener_woke = note_inbound(&mut woke, listener.is_some(), &mut conns);
        core.transport.note_woken(woke);
    }

    // Graceful drain: snapshot the engines and report out.
    let snaps: Vec<EngineSnapshot> = nodes
        .iter()
        .map(|d| EngineSnapshot::of(d.engine()))
        .collect();
    let rep = ExitReport {
        shard,
        events,
        delivered,
        dropped_to_dead: core.dropped_to_dead,
        bounces: bounce_count,
        intra,
        inter,
        frames_sent: core.transport.frames_sent,
        frames_resent: core.transport.frames_resent,
        reconnects: core.transport.reconnects,
        decode_errors: core.decode_errors,
        snaps,
        trace: tracer.summary(),
    };
    core.send_coord(&Wire::Exit(Box::new(rep)));
    0
}

type WorkerStack<'a> = ShardRouter<TracingSubstrate<WireSub<'a>, &'a mut Tracer>>;

fn worker_stack<'a>(
    core: &'a mut WorkerCore,
    tracer: &'a mut Tracer,
    router_latency: u64,
) -> WorkerStack<'a> {
    let map = ShardMap::new(core.shards, core.per_shard);
    ShardRouter::new(
        TracingSubstrate::new(WireSub { core }, tracer),
        map,
        router_latency,
    )
}

/// Applies one decoded frame to the worker. Returns true when the
/// connection it arrived on must be dropped.
fn handle_worker_frame(
    core: &mut WorkerCore,
    conn: &mut InConn,
    w: Wire,
    shutdown: &mut bool,
) -> bool {
    match w {
        Wire::Data { seq, to, msg, .. } => {
            let Some(src) = conn.src else {
                // Data before LinkHello: protocol violation.
                core.decode_errors += 1;
                return true;
            };
            let exp = &mut core.expected_seq[src as usize];
            if seq < *exp {
                return false; // replayed duplicate
            }
            if seq > *exp {
                // A sequence gap means the retained-replay invariant broke.
                core.decode_errors += 1;
                return true;
            }
            *exp += 1;
            if core.shard_of(to) == core.me {
                core.inbox.push_back((to, msg));
            }
            false
        }
        Wire::LinkHello { from_shard } => {
            conn.src = Some(from_shard);
            false
        }
        Wire::CoordNet { to, msg, .. } => {
            conn.is_coord = true;
            if core.shard_of(to) == core.me && !to.is_super_root() {
                core.inbox.push_back((to, msg));
            }
            false
        }
        Wire::Notice { dead } => {
            conn.is_coord = true;
            if !core.dead[dead.0 as usize] {
                core.dead[dead.0 as usize] = true;
                for j in 0..core.per_shard {
                    let p = ProcId(core.me * core.per_shard + j);
                    core.inbox.push_back((p, Msg::FailureNotice { dead }));
                }
                let dead_shard = core.shard_of(dead);
                if dead_shard != core.me {
                    let whole = (0..core.per_shard)
                        .all(|j| core.dead[(dead_shard * core.per_shard + j) as usize]);
                    if whole {
                        if let Some(remains) = core.transport.kill_peer(dead_shard) {
                            core.bury(remains);
                        }
                    }
                }
            }
            false
        }
        Wire::Shutdown => {
            conn.is_coord = true;
            *shutdown = true;
            false
        }
        Wire::Garble { peer } => {
            conn.is_coord = true;
            if let Some(p) = core.transport.peer_flag(peer) {
                p.garble_next = true;
            }
            false
        }
        Wire::Partition { peer, for_units } => {
            conn.is_coord = true;
            let wall = units_to_wall(core.nanos, for_units);
            if let Some(p) = core.transport.peer_flag(peer) {
                p.block_until = Some(Instant::now() + wall);
            }
            false
        }
        Wire::Delay {
            peer,
            extra_units,
            for_units,
        } => {
            conn.is_coord = true;
            let wall = units_to_wall(core.nanos, for_units);
            if let Some(p) = core.transport.peer_flag(peer) {
                p.delay = Some((Instant::now() + wall, extra_units));
            }
            false
        }
        Wire::PartitionIn { for_units } => {
            conn.is_coord = true;
            let wall = units_to_wall(core.nanos, for_units);
            core.partition_in_until = Some(Instant::now() + wall);
            false
        }
        Wire::Noise { peer, for_units } => {
            conn.is_coord = true;
            let wall = units_to_wall(core.nanos, for_units);
            if let Some(p) = core.transport.peer_flag(peer) {
                p.noise_until = Some(Instant::now() + wall);
            }
            false
        }
        // Init is consumed during the handshake; the rest are
        // coordinator-bound frames a worker never receives.
        Wire::Init(_) | Wire::Hello { .. } | Wire::Ready { .. } | Wire::Exit(_) => false,
    }
}
