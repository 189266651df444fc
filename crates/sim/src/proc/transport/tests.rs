use super::*;
use splice_applicative::{Demand, FnId, Value};
use splice_core::config::Config as RecoveryConfig;
use splice_core::ids::{TaskAddr, TaskKey};
use splice_core::packet::{ReplicaInfo, ResultPacket, TaskLink, TaskPacket};
use splice_core::stamp::LevelStamp;
use splice_gradient::Policy;
use splice_simnet::trace::TraceMode;

#[test]
fn wait_readable_wakes_on_buffered_bytes() {
    let (mut near, far) = UnixStream::pair().expect("pair");
    near.write_all(b"x").expect("write");
    let mut fds = [PollFd::new(&far)];
    let n = wait_readable(&mut fds, Duration::from_secs(10)).expect("poll");
    assert_eq!(n, 1);
    assert!(fds[0].woke());
    assert!(fds[0].revents & POLLIN != 0);
}

#[test]
fn wait_readable_times_out_on_an_idle_pair() {
    let (near, _far) = UnixStream::pair().expect("pair");
    let mut fds = [PollFd::new(&near)];
    let n = wait_readable(&mut fds, Duration::from_millis(1)).expect("poll");
    assert_eq!(n, 0);
    assert!(!fds[0].woke());
}

#[test]
fn wait_readable_reports_hang_up() {
    let (near, far) = UnixStream::pair().expect("pair");
    drop(far);
    let mut fds = [PollFd::new(&near)];
    let n = wait_readable(&mut fds, Duration::from_secs(10)).expect("poll");
    assert_eq!(n, 1);
    assert!(fds[0].revents & POLLHUP != 0);
}

#[test]
fn woken_maps_revents_to_flags() {
    let (mut near, far) = UnixStream::pair().expect("pair");
    let (idle, _idle_peer) = UnixStream::pair().expect("pair");
    let (hung, gone) = UnixStream::pair().expect("pair");
    near.write_all(b"x").expect("write");
    drop(gone);
    let mut fds = [PollFd::new(&far), PollFd::new(&idle), PollFd::new(&hung)];
    let waited = wait_readable(&mut fds, Duration::from_secs(10));
    assert_eq!(waited.as_ref().ok(), Some(&2));
    // Woken, idle, hung up.
    let flags: Vec<bool> = woken(&fds, &waited).collect();
    assert_eq!(flags, [true, false, true]);
    // A failed wait marks every entry woken, idle ones too.
    let failed = Err(io::Error::from(io::ErrorKind::InvalidInput));
    assert!(woken(&fds, &failed).all(|w| w));
}

#[test]
fn note_inbound_splits_listener_and_conns() {
    let (a, _a) = UnixStream::pair().expect("pair");
    let (b, _b) = UnixStream::pair().expect("pair");
    let mut conns: Vec<InConn> = [a, b]
        .into_iter()
        .map(|stream| InConn {
            stream,
            fb: FrameBuf::new(),
            src: None,
            is_coord: false,
            woke: false,
        })
        .collect();
    let mut woke = [false, false, true].into_iter();
    assert!(!note_inbound(&mut woke, true, &mut conns));
    assert_eq!([conns[0].woke, conns[1].woke], [false, true]);
    // No listener bound: the flags are the connections' alone.
    conns[1].woke = false;
    let mut woke = [true, false].into_iter();
    assert!(!note_inbound(&mut woke, false, &mut conns));
    assert_eq!([conns[0].woke, conns[1].woke], [true, false]);
}

/// A transport for shard 0 of two whose link to shard 1 is the near end
/// of a socket pair; the far end is returned, nonblocking.
fn paired_transport() -> (Transport, UnixStream) {
    let init = Init {
        shards: 2,
        per_shard: 1,
        seed: 1,
        time_unit_nanos: 25_000,
        router_latency: 0,
        detector_broadcast: true,
        policy: Policy::Gradient,
        trace: TraceMode::Off,
        recovery: RecoveryConfig::default(),
        spec: "fib(3)".into(),
        write_timeout_ms: 2_000,
        backoff_base_us: 1_000,
        backoff_cap_us: 100_000,
        reconnect_budget: 8,
    };
    let mut t = Transport::new(Path::new("/nonexistent"), 0, 2, 25_000, &init, 1);
    let (near, far) = UnixStream::pair().expect("pair");
    far.set_nonblocking(true).expect("nonblocking");
    let peer = t.peer_flag(1).expect("peer 1");
    peer.stream = Some(near);
    peer.tried = true;
    (t, far)
}

fn enqueue_three(t: &mut Transport) {
    for dead in 0..3 {
        let msg = Msg::FailureNotice { dead: ProcId(dead) };
        assert!(t
            .enqueue(1, ProcId(0), ProcId(1), msg, Instant::now())
            .is_none());
    }
}

fn retained(t: &mut Transport) -> Vec<Vec<u8>> {
    let peer = t.peer_flag(1).expect("peer 1");
    peer.sent.frames().map(<[u8]>::to_vec).collect()
}

#[test]
fn one_flush_writes_the_queued_frames_in_order() {
    let (mut t, mut far) = paired_transport();
    enqueue_three(&mut t);
    assert!(t.flush(Instant::now()).is_empty());
    assert_eq!(t.frames_sent, 3);
    let mut fb = FrameBuf::new();
    pump_read(&mut far, &mut fb).expect("read");
    let mut seqs = Vec::new();
    while let Some(body) = fb.next_frame().expect("clean frames") {
        let Wire::Data { seq, msg, .. } = decode_wire(&body).expect("decodes") else {
            panic!("wrong variant");
        };
        assert!(matches!(msg, Msg::FailureNotice { dead } if u64::from(dead.0) == seq));
        seqs.push(seq);
    }
    assert_eq!(seqs, [0, 1, 2]);
    let peer = t.peer_flag(1).expect("peer 1");
    assert!(peer.pending.is_empty());
    assert_eq!(peer.sent.len(), 3);
}

#[test]
fn a_garbled_frame_is_corrupt_on_the_wire_and_clean_in_the_log() {
    let (mut t, mut far) = paired_transport();
    enqueue_three(&mut t);
    t.peer_flag(1).expect("peer 1").garble_next = true;
    assert!(t.flush(Instant::now()).is_empty());
    assert_eq!(t.frames_sent, 3);
    let mut wire = vec![0u8; 64 * 1024];
    let n = far.read(&mut wire).expect("read");
    wire.truncate(n);
    let clean: Vec<u8> = retained(&mut t).concat();
    assert_eq!(wire.len(), clean.len());
    let diff: Vec<usize> = (0..n).filter(|&i| wire[i] != clean[i]).collect();
    assert_eq!(diff, [5], "one byte of the first frame's body flips");
    let mut fb = FrameBuf::new();
    fb.extend(&wire);
    assert!(fb.next_frame().is_err(), "the receiver rejects it");
    let mut fb = FrameBuf::new();
    fb.extend(&clean);
    for _ in 0..3 {
        assert!(fb.next_frame().expect("clean").is_some());
    }
}

#[test]
fn a_failed_write_leaves_the_batch_queued() {
    let (mut t, far) = paired_transport();
    enqueue_three(&mut t);
    assert!(t.flush(Instant::now()).is_empty());
    let before = retained(&mut t);
    drop(far);
    enqueue_three(&mut t);
    assert!(t.flush(Instant::now()).is_empty());
    assert_eq!(t.frames_sent, 3, "no frame of the failed batch counts");
    assert_eq!(retained(&mut t), before);
    let peer = t.peer_flag(1).expect("peer 1");
    assert_eq!(peer.pending.len(), 3);
    assert!(peer.stream.is_none());
}

/// A retained data frame from `from`, exactly as the transport keeps it.
fn sent_frame(from: ProcId, msg: Msg) -> Vec<u8> {
    let w = Wire::Data {
        seq: 4,
        from,
        to: ProcId(13),
        msg,
    };
    let mut body = Vec::new();
    encode_wire(&w, &mut body);
    let mut frame = Vec::new();
    encode_frame(&body, &mut frame);
    frame
}

/// [`expiring_acks`] over a log holding `frames`.
fn acks(frames: &[Vec<u8>]) -> Vec<(ProcId, Timer)> {
    let mut log = SentLog::default();
    for f in frames {
        log.bytes.extend_from_slice(f);
        log.ends.push(log.bytes.len());
    }
    expiring_acks(log.frames())
}

fn spawn_of(parent: ProcId, replica: Option<ReplicaInfo>) -> Msg {
    Msg::spawn(TaskPacket {
        stamp: LevelStamp::from_digits(&[1, 3]),
        demand: Demand::new(FnId(0), vec![Value::Int(5)]),
        parent: TaskLink::new(
            TaskAddr::new(parent, TaskKey(9)),
            LevelStamp::from_digits(&[1]),
        ),
        ancestors: vec![TaskLink::super_root()],
        incarnation: 2,
        hops: 1,
        replica,
        under_replica: false,
    })
}

#[test]
fn an_own_spawn_expires_exactly_its_ack_timer() {
    let me = ProcId(1);
    let frames = [sent_frame(me, spawn_of(me, None))];
    let want = Timer::ack_timeout(TaskKey(9), LevelStamp::from_digits(&[1, 3]), 2);
    assert_eq!(acks(&frames), vec![(me, want)]);
}

#[test]
fn only_own_parent_non_replica_spawns_expire() {
    let me = ProcId(1);
    let child = TaskAddr::new(ProcId(13), TaskKey(2));
    let frames = [
        // Forwarded: the parent lives elsewhere and has its own timer.
        sent_frame(me, spawn_of(ProcId(6), None)),
        sent_frame(me, spawn_of(me, Some(ReplicaInfo { index: 1, total: 3 }))),
        sent_frame(
            me,
            Msg::result(ResultPacket {
                from_stamp: LevelStamp::from_digits(&[1, 3]),
                demand: Demand::new(FnId(0), vec![Value::Int(5)]),
                value: Value::Int(8),
                to: child,
                to_stamp: LevelStamp::from_digits(&[1]),
                relay_chain: vec![],
                replica: None,
            }),
        ),
        sent_frame(
            me,
            Msg::ack(LevelStamp::from_digits(&[1, 3]), child, child, 0),
        ),
        sent_frame(ProcId(8), Msg::FailureNotice { dead: ProcId(8) }),
    ];
    assert!(acks(&frames).is_empty());
}

#[test]
fn broken_retained_frames_are_skipped() {
    let me = ProcId(1);
    let whole = sent_frame(me, spawn_of(me, None));
    let mut garbled = whole.clone();
    garbled[5] = 0xff; // no such wire tag
    let frames = [
        Vec::new(),
        whole[..3].to_vec(),
        whole[..9].to_vec(),
        whole[..whole.len() / 2].to_vec(),
        garbled,
    ];
    assert!(acks(&frames).is_empty());
    let mut mixed = frames.to_vec();
    mixed.push(whole);
    assert_eq!(acks(&mixed).len(), 1);
}
