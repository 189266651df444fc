//! Sockets and the worker's outbound links: the `poll(2)` wait and its
//! wake flags, inbound connections, and the per-peer [`Transport`] that
//! batches, retains and replays data frames.

use super::wire::{decode_wire, encode_wire, Init, Wire, T_DATA};
use super::{sock_path, units_to_wall};
use splice_core::engine::Timer;
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_simnet::codec::{encode_frame, encode_msg, Enc, FrameBuf};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Drains everything currently readable from a nonblocking stream into a
/// reassembly buffer. `Ok(true)` means the peer closed the stream.
pub(super) fn pump_read(stream: &mut UnixStream, fb: &mut FrameBuf) -> io::Result<bool> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(true),
            Ok(n) => fb.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

const POLLIN: c_short = 0x001;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;
#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// One socket in a [`wait_readable`] set (the C `struct pollfd`).
#[repr(C)]
pub(super) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    fn new(sock: &impl AsRawFd) -> PollFd {
        PollFd {
            fd: sock.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// True when the last wait saw input, hang-up or an error here.
    fn woke(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Blocks until a socket in `fds` is readable, hung up or in error, or
/// until `timeout` (rounded up to whole milliseconds) passes. Returns how
/// many entries woke; a timeout or a signal reads as `0`.
#[allow(unsafe_code)]
pub(super) fn wait_readable(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }
    let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
    // SAFETY: `PollFd` is `#[repr(C)]` with the layout of `struct pollfd`,
    // the pointer and length come from one live exclusive slice, and poll
    // writes only the `revents` fields inside it.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    match n {
        n if n >= 0 => Ok(n as usize),
        _ => match io::Error::last_os_error() {
            e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            e => Err(e),
        },
    }
}

/// Which entries of a wait set the last [`wait_readable`] woke, in the
/// set's order. A failed wait reports every entry woken: a socket read
/// for nothing costs one syscall, while a socket left unread starves.
pub(super) fn woken<'a>(
    fds: &'a [PollFd],
    waited: &io::Result<usize>,
) -> impl Iterator<Item = bool> + 'a {
    let all = waited.is_err();
    fds.iter().map(move |fd| all || fd.woke())
}

/// Longest a loop blocks without socket evidence. Transport deadlines —
/// reconnect backoff, delay and partition windows — are not tracked one
/// by one; this cap keeps them within a millisecond.
pub(super) const MAX_WAIT: Duration = Duration::from_millis(1);

/// How long a loop may block before `next` (its earliest deadline).
pub(super) fn wait_budget(next: Option<Instant>) -> Duration {
    next.map_or(MAX_WAIT, |at| {
        at.saturating_duration_since(Instant::now()).min(MAX_WAIT)
    })
}

/// Refills `fds` with the listener (when bound) and every inbound
/// connection.
pub(super) fn watch_inbound(
    fds: &mut Vec<PollFd>,
    listener: Option<&UnixListener>,
    conns: &[InConn],
) {
    fds.clear();
    fds.extend(listener.map(PollFd::new));
    fds.extend(conns.iter().map(|c| PollFd::new(&c.stream)));
}

/// Takes the wake flags of what [`watch_inbound`] pushed, in its order,
/// from `woke`: marks the woken connections and returns whether the
/// listener (when `listening`) woke.
pub(super) fn note_inbound(
    woke: &mut impl Iterator<Item = bool>,
    listening: bool,
    conns: &mut [InConn],
) -> bool {
    let listener = listening && woke.next().unwrap_or(true);
    for c in conns {
        c.woke |= woke.next().unwrap_or(true);
    }
    listener
}

/// One accepted inbound connection (a peer worker or the coordinator).
pub(super) struct InConn {
    pub(super) stream: UnixStream,
    pub(super) fb: FrameBuf,
    pub(super) src: Option<u32>,
    pub(super) is_coord: bool,
    /// The last readiness wait saw input, hang-up or an error here, so the
    /// next read may find something. A fresh connection starts woken.
    pub(super) woke: bool,
}

pub(super) fn accept_conns(listener: &UnixListener, conns: &mut Vec<InConn>) {
    while let Ok((stream, _)) = listener.accept() {
        let _ = stream.set_nonblocking(true);
        conns.push(InConn {
            stream,
            fb: FrameBuf::new(),
            src: None,
            is_coord: false,
            woke: true,
        });
    }
}

// ---------------------------------------------------------------------------
// Transport (worker side)
// ---------------------------------------------------------------------------

/// One protocol message queued for a remote shard.
pub(super) struct OutMsg {
    pub(super) from: ProcId,
    pub(super) to: ProcId,
    pub(super) msg: Msg,
    /// Delay-fault gate: hold the message until this instant.
    pub(super) not_before: Option<Instant>,
}

/// Per-peer connection state machine.
pub(super) struct Peer {
    shard: u32,
    path: PathBuf,
    stream: Option<UnixStream>,
    pending: VecDeque<OutMsg>,
    /// Every data frame ever written on this link, clean-encoded, in
    /// sequence order. Replayed wholesale on reconnect; the receiver
    /// deduplicates. Retained until the peer is declared dead — runs are
    /// short and the frames are the protocol's own traffic, so this is the
    /// simplest correct ARQ — and then read once by [`expiring_acks`].
    sent: SentLog,
    attempts: u32,
    next_attempt: Instant,
    /// True once any connection attempt has been made; later attempts
    /// count as reconnects.
    tried: bool,
    /// The last readiness wait saw input, hang-up or an error on `stream`.
    woke: bool,
    dead: bool,
    pub(super) garble_next: bool,
    pub(super) block_until: Option<Instant>,
    /// `(window_end, extra_units)` of an active delay fault.
    pub(super) delay: Option<(Instant, u64)>,
    /// Byte-level noise fault: until this instant, outbound data frames
    /// are randomly corrupted (the clean copy is still retained for
    /// replay, so the link recovers losslessly).
    pub(super) noise_until: Option<Instant>,
}

/// Retained data frames back to back in one buffer: frame `i` is
/// `bytes[ends[i - 1]..ends[i]]`. No frame is copied into a buffer of its
/// own, and a reconnect replays the log in one write.
#[derive(Default)]
struct SentLog {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl SentLog {
    /// Frames retained; the next frame's sequence number.
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The retained frames in sequence order.
    fn frames(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.bytes[a..b])
    }

    /// Drops every frame from number `n` on.
    fn truncate(&mut self, n: usize) {
        self.ends.truncate(n);
        self.bytes.truncate(self.ends.last().copied().unwrap_or(0));
    }
}

/// What a peer leaves behind when it is declared dead.
pub(super) struct Remains {
    /// Traffic never written: it bounces into `on_send_failed`.
    pub(super) pending: Vec<OutMsg>,
    /// Ack timers the written spawns expire at once ([`expiring_acks`]).
    pub(super) expiring: Vec<(ProcId, Timer)>,
}

impl Peer {
    /// Declares the peer dead, consuming its queued and retained traffic.
    fn declare_dead(&mut self) -> Remains {
        self.dead = true;
        self.stream = None;
        Remains {
            pending: self.pending.drain(..).collect(),
            expiring: expiring_acks(std::mem::take(&mut self.sent).frames()),
        }
    }
}

/// The ack timers a dead peer's retained frames expire early: one for
/// every spawn its sender issued as the parent — not a forwarded packet,
/// whose parent's own timer covers it, and not a replica. The engine
/// reissues only a child still unacked under that incarnation, so an
/// acked, finished or already reissued child makes its timer a no-op. A
/// frame that does not decode is skipped.
fn expiring_acks<'a>(sent: impl Iterator<Item = &'a [u8]>) -> Vec<(ProcId, Timer)> {
    sent
        // A whole frame: length word and version byte, body, checksum.
        .filter_map(|f| decode_wire(f.get(5..f.len().checked_sub(4)?)?).ok())
        .filter_map(|w| match w {
            Wire::Data {
                from,
                msg: Msg::Spawn(p),
                ..
            } if p.parent.addr.proc == from && p.replica.is_none() => Some((
                from,
                Timer::ack_timeout(p.parent.addr.key, p.stamp, p.incarnation),
            )),
            _ => None,
        })
        .collect()
}

/// All of a worker's outbound links plus the shared counters.
pub(super) struct Transport {
    peers: Vec<Option<Peer>>,
    me: u32,
    nanos: u64,
    write_timeout: Duration,
    backoff_base_us: u64,
    backoff_cap_us: u64,
    budget: u32,
    rng: u64,
    pub(super) frames_sent: u64,
    pub(super) frames_resent: u64,
    pub(super) reconnects: u64,
    scratch: Vec<u8>,
    frame: Vec<u8>,
}

impl Transport {
    pub(super) fn new(
        dir: &Path,
        me: u32,
        shards: u32,
        nanos: u64,
        init: &Init,
        seed: u64,
    ) -> Transport {
        let now = Instant::now();
        let peers = (0..shards)
            .map(|k| {
                (k != me).then(|| Peer {
                    shard: k,
                    path: sock_path(dir, k),
                    stream: None,
                    pending: VecDeque::new(),
                    sent: SentLog::default(),
                    attempts: 0,
                    next_attempt: now,
                    tried: false,
                    woke: false,
                    dead: false,
                    garble_next: false,
                    block_until: None,
                    delay: None,
                    noise_until: None,
                })
            })
            .collect();
        Transport {
            peers,
            me,
            nanos,
            write_timeout: Duration::from_millis(init.write_timeout_ms.max(1)),
            backoff_base_us: init.backoff_base_us.max(1),
            backoff_cap_us: init.backoff_cap_us.max(1),
            budget: init.reconnect_budget.max(1),
            rng: seed ^ 0x9e37_79b9_7f4a_7c15 ^ u64::from(me) << 32 | 1,
            frames_sent: 0,
            frames_resent: 0,
            reconnects: 0,
            scratch: Vec::new(),
            frame: Vec::new(),
        }
    }

    fn next_jitter(&mut self, bound_us: u64) -> u64 {
        // xorshift64: deterministic per (seed, shard) jitter.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        if bound_us == 0 {
            0
        } else {
            x % bound_us
        }
    }

    fn backoff(&mut self, attempts: u32) -> Duration {
        let us = self
            .backoff_base_us
            .saturating_mul(1u64 << attempts.min(16))
            .min(self.backoff_cap_us);
        let jitter = self.next_jitter(us / 4 + 1);
        Duration::from_micros(us + jitter)
    }

    /// Queues a message for `shard`. Returns the message back when the
    /// peer is already declared dead (the caller bounces it).
    pub(super) fn enqueue(
        &mut self,
        shard: u32,
        from: ProcId,
        to: ProcId,
        msg: Msg,
        now: Instant,
    ) -> Option<(ProcId, ProcId, Msg)> {
        let nanos = self.nanos;
        let Some(peer) = self.peers[shard as usize].as_mut() else {
            return Some((from, to, msg));
        };
        if peer.dead {
            return Some((from, to, msg));
        }
        let not_before = peer
            .delay
            .and_then(|(end, extra)| (now < end).then(|| now + units_to_wall(nanos, extra)));
        peer.pending.push_back(OutMsg {
            from,
            to,
            msg,
            not_before,
        });
        None
    }

    /// Declares `shard` dead from the outside (coordinator notice),
    /// returning what it leaves behind; `None` if it was already dead.
    pub(super) fn kill_peer(&mut self, shard: u32) -> Option<Remains> {
        self.peers[shard as usize]
            .as_mut()
            .filter(|peer| !peer.dead)
            .map(Peer::declare_dead)
    }

    pub(super) fn peer_flag(&mut self, shard: u32) -> Option<&mut Peer> {
        self.peers.get_mut(shard as usize)?.as_mut()
    }

    /// Adds every connected peer stream to a wait set.
    pub(super) fn watch(&self, fds: &mut Vec<PollFd>) {
        let streams = self
            .peers
            .iter()
            .flatten()
            .filter_map(|p| p.stream.as_ref());
        fds.extend(streams.map(PollFd::new));
    }

    /// Records which peer streams the wait woke on; `woke` holds the
    /// flags of exactly what [`Transport::watch`] pushed, in its order.
    pub(super) fn note_woken(&mut self, woke: impl Iterator<Item = bool>) {
        let connected = self
            .peers
            .iter_mut()
            .flatten()
            .filter(|p| p.stream.is_some());
        for (peer, w) in connected.zip(woke) {
            peer.woke |= w;
        }
    }

    /// Pushes queued traffic onto sockets, reconnecting as needed.
    /// Returns peers that exhausted their reconnect budget this call,
    /// with what they leave behind.
    pub(super) fn flush(&mut self, now: Instant) -> Vec<(u32, Remains)> {
        let mut died = Vec::new();
        for i in 0..self.peers.len() {
            let Some(mut peer) = self.peers[i].take() else {
                continue;
            };
            self.flush_peer(&mut peer, now, &mut died);
            self.peers[i] = Some(peer);
        }
        died
    }

    fn flush_peer(&mut self, peer: &mut Peer, now: Instant, died: &mut Vec<(u32, Remains)>) {
        if peer.dead {
            return;
        }
        // Links are one-directional — the receiver never writes — so the
        // only readable state this socket can reach is EOF/reset: the
        // receiver rejected a frame and dropped the connection. Probe for
        // that when the wait says so, even on an idle or partitioned link;
        // without this, a corrupted *final* frame on a link that then goes
        // quiet is lost forever (the retained clean copy only replays on
        // reconnect). A failed write drops the stream on its own.
        let woke = std::mem::take(&mut peer.woke);
        if let Some(s) = peer.stream.as_mut().filter(|_| woke) {
            let mut probe = [0u8; 16];
            let gone = s.set_nonblocking(true).is_err()
                || match s.read(&mut probe) {
                    // EOF, or bytes the protocol never sends: resync via
                    // reconnect either way (the receiver dedups the replay).
                    Ok(_) => true,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
                    Err(_) => true,
                };
            if !gone {
                let _ = s.set_nonblocking(false);
            }
            if gone {
                peer.stream = None;
                peer.next_attempt = now;
            }
        }
        if peer.block_until.is_some_and(|t| now < t) {
            return;
        }
        let wants = !peer.pending.is_empty() || (peer.stream.is_none() && !peer.sent.is_empty());
        if !wants {
            return;
        }
        if peer.stream.is_none() {
            if now < peer.next_attempt {
                return;
            }
            if peer.tried {
                self.reconnects += 1;
            }
            peer.tried = true;
            match UnixStream::connect(&peer.path) {
                Ok(s) => {
                    let _ = s.set_write_timeout(Some(self.write_timeout));
                    let mut s = s;
                    let me = self.me;
                    let hello_ok = {
                        self.scratch.clear();
                        encode_wire(&Wire::LinkHello { from_shard: me }, &mut self.scratch);
                        self.frame.clear();
                        encode_frame(&self.scratch, &mut self.frame);
                        s.write_all(&self.frame).is_ok()
                    };
                    if !hello_ok {
                        peer.next_attempt = now;
                        return;
                    }
                    self.frames_sent += 1;
                    // Replay the whole retained sequence in one write; the
                    // receiver's per-source sequence dedup skips what it
                    // already has.
                    if s.write_all(&peer.sent.bytes).is_err() {
                        peer.next_attempt = now;
                        return;
                    }
                    let replayed = peer.sent.len() as u64;
                    self.frames_sent += replayed;
                    self.frames_resent += replayed;
                    peer.attempts = 0;
                    peer.stream = Some(s);
                }
                Err(_) => {
                    peer.attempts += 1;
                    if peer.attempts >= self.budget {
                        died.push((peer.shard, peer.declare_dead()));
                        return;
                    }
                    peer.next_attempt = now + self.backoff(peer.attempts);
                    return;
                }
            }
        }
        // Encode every due message straight onto the retained log, then
        // write the new tail in one call. Only a whole write retains the
        // frames and takes them off the queue; a failed one drops them from
        // the log and leaves them all queued, to be sent again, under the
        // same sequence numbers, after the reconnect.
        let first = peer.sent.len();
        let start = peer.sent.bytes.len();
        let noisy = peer.noise_until.is_some_and(|t| now < t);
        let mut flips: Vec<(usize, u8)> = Vec::new();
        for m in peer.pending.iter() {
            if m.not_before.is_some_and(|t| now < t) {
                break;
            }
            let seq = peer.sent.len() as u64;
            self.scratch.clear();
            {
                let mut e = Enc::new(&mut self.scratch);
                e.u8(T_DATA);
                e.u64v(seq);
                e.proc(m.from);
                e.proc(m.to);
            }
            encode_msg(&m.msg, &mut self.scratch);
            let at = peer.sent.bytes.len();
            encode_frame(&self.scratch, &mut peer.sent.bytes);
            let len = peer.sent.bytes.len() - at;
            peer.sent.ends.push(peer.sent.bytes.len());
            let flip = if peer.garble_next {
                peer.garble_next = false;
                // Flip one body byte after the checksum was computed: the
                // length word survives (stream framing stays parseable) but
                // the receiver's checksum rejects the frame.
                Some((5, 0x5a))
            } else if noisy && self.next_jitter(2) == 0 {
                // Active noise window: corrupt roughly every other frame at
                // a random body position past the length word. Same recovery
                // path as garble — checksum reject, connection drop, clean
                // replay from `sent`.
                let span = (len as u64).saturating_sub(5).max(1);
                let idx = 5 + self.next_jitter(span) as usize;
                Some((idx.min(len - 1), 0xa5))
            } else {
                None
            };
            flips.extend(flip.map(|(idx, mask)| (at - start + idx, mask)));
        }
        let n = peer.sent.len() - first;
        if n == 0 {
            return;
        }
        let batch = &peer.sent.bytes[start..];
        let stream = peer.stream.as_mut().expect("connected above");
        let wrote = if flips.is_empty() {
            stream.write_all(batch)
        } else {
            // Corrupt only the wire copy; the log keeps the clean frames.
            self.frame.clear();
            self.frame.extend_from_slice(batch);
            for (idx, mask) in flips {
                self.frame[idx] ^= mask;
            }
            stream.write_all(&self.frame)
        };
        match wrote {
            Ok(()) => {
                self.frames_sent += n as u64;
                peer.pending.drain(..n);
            }
            Err(_) => {
                // Broken mid-write: the reconnect replays the log and then
                // these frames, and the receiver skips any it already took.
                peer.sent.truncate(first);
                peer.stream = None;
                peer.next_attempt = now;
            }
        }
    }
}

#[cfg(test)]
mod tests;
