//! The tracing decorator and the stable payload digests.
//!
//! [`TracingSubstrate`] sits *innermost* in a substrate stack (closest to
//! the backend core): the driver loop narrates deliveries, timer fires and
//! waves through the [`Substrate::trace`] hook, outer decorators forward
//! the hook inward, and this layer timestamps each event with the core's
//! clock and feeds the configured
//! [`Tracer`](splice_simnet::trace::Tracer). It also watches the send path
//! and emits a [`TraceKind::Complete`] event for every result packet — the
//! payload digests that make two runs' streams comparable byte-for-byte.
//!
//! Digests are deterministic FNV-1a walks over the actual packet contents
//! (stamps via [`LevelStamp::iter`], values structurally), never pointer
//! or formatting based, and never allocate — checksum-mode tracing adds
//! zero heap traffic to a run (pinned by the alloc-regression test).

use crate::substrate::Substrate;
use splice_applicative::wave::Demand;
use splice_applicative::Value;
use splice_core::engine::Timer;
use splice_core::ids::{ProcId, TaskAddr};
use splice_core::packet::{Msg, MsgKind, ResultPacket, TaskLink};
use splice_core::stamp::LevelStamp;
use splice_core::ActionSink;
use splice_simnet::trace::{fnv_mix, fnv_start, TraceKind, Tracer};
use splice_simnet::VirtualTime;
use std::borrow::BorrowMut;

/// Stable `u8` tag for a message kind (its index in [`MsgKind::ALL`]).
pub fn kind_tag(kind: MsgKind) -> u8 {
    match kind {
        MsgKind::Spawn => 0,
        MsgKind::Ack => 1,
        MsgKind::Result => 2,
        MsgKind::Salvage => 3,
        MsgKind::Abort => 4,
        MsgKind::Load => 5,
        MsgKind::FailureNotice => 6,
        MsgKind::Probe => 7,
        MsgKind::Ckpt => 8,
    }
}

fn fold_stamp(h: u64, s: &LevelStamp) -> u64 {
    let mut h = fnv_mix(h, s.level() as u64);
    for d in s.iter() {
        h = fnv_mix(h, u64::from(d));
    }
    h
}

fn fold_addr(h: u64, a: &TaskAddr) -> u64 {
    fnv_mix(fnv_mix(h, u64::from(a.proc.0)), a.key.0)
}

fn fold_link(h: u64, l: &TaskLink) -> u64 {
    fold_stamp(fold_addr(h, &l.addr), &l.stamp)
}

fn fold_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Unit => fnv_mix(h, 1),
        Value::Bool(b) => fnv_mix(fnv_mix(h, 2), u64::from(*b)),
        Value::Int(n) => fnv_mix(fnv_mix(h, 3), *n as u64),
        Value::Str(s) => {
            let mut h = fnv_mix(h, 4);
            for b in s.bytes() {
                h = fnv_mix(h, u64::from(b));
            }
            h
        }
        Value::List(xs) => {
            let mut h = fnv_mix(fnv_mix(h, 5), xs.len() as u64);
            for x in xs.iter() {
                h = fold_value(h, x);
            }
            h
        }
    }
}

fn fold_demand(h: u64, d: &Demand) -> u64 {
    let mut h = fnv_mix(fnv_mix(h, u64::from(d.fun.0)), d.args.len() as u64);
    for a in d.args.iter() {
        h = fold_value(h, a);
    }
    h
}

/// Digest of a completed task: its stamp and value (plus the replica index
/// when voting). The commutative sum of these over a run is the
/// backend-invariant "answer fingerprint" — on a fault-free plan every
/// backend completes the same tasks with the same values exactly once.
pub fn complete_digest(r: &ResultPacket) -> u64 {
    let mut h = fold_value(fold_stamp(fnv_start(), &r.from_stamp), &r.value);
    if let Some(rep) = &r.replica {
        h = fnv_mix(h, u64::from(rep.index));
    }
    h
}

/// Stable structural digest of a full message payload.
pub fn msg_digest(msg: &Msg) -> u64 {
    let h = fnv_mix(fnv_start(), u64::from(kind_tag(msg.kind())));
    match msg {
        Msg::Spawn(p) => {
            let mut h = fold_demand(fold_stamp(h, &p.stamp), &p.demand);
            h = fold_link(h, &p.parent);
            for l in &p.ancestors {
                h = fold_link(h, l);
            }
            h = fnv_mix(fnv_mix(h, u64::from(p.incarnation)), u64::from(p.hops));
            if let Some(rep) = &p.replica {
                h = fnv_mix(fnv_mix(h, u64::from(rep.index)), u64::from(rep.total));
            }
            fnv_mix(h, u64::from(p.under_replica))
        }
        Msg::Ack(a) => {
            let h = fold_addr(fold_stamp(h, &a.child_stamp), &a.child_addr);
            fnv_mix(fold_addr(h, &a.parent), u64::from(a.incarnation))
        }
        Msg::Result(r) => {
            let mut h = fold_demand(fold_stamp(h, &r.from_stamp), &r.demand);
            h = fold_value(h, &r.value);
            h = fold_stamp(fold_addr(h, &r.to), &r.to_stamp);
            for l in &r.relay_chain {
                h = fold_link(h, l);
            }
            if let Some(rep) = &r.replica {
                h = fnv_mix(h, u64::from(rep.index));
            }
            h
        }
        Msg::Salvage(s) => {
            let mut h = fold_stamp(fold_addr(h, &s.to), &s.dead_stamp);
            h = fold_addr(h, &s.dead_addr);
            h = fold_value(fold_demand(h, &s.demand), &s.value);
            fold_stamp(h, &s.from_stamp)
        }
        Msg::Abort { to } => fold_addr(h, to),
        Msg::Load { from, pressure } => {
            fnv_mix(fnv_mix(h, u64::from(from.0)), u64::from(*pressure))
        }
        Msg::FailureNotice { dead } => fnv_mix(h, u64::from(dead.0)),
        Msg::Probe => h,
        Msg::Ckpt(c) => {
            let mut h = fold_stamp(fold_addr(h, &c.owner), &c.from_stamp);
            h = fnv_mix(h, c.entries.len() as u64);
            for (d, v) in &c.entries {
                h = fold_value(fold_demand(h, d), v);
            }
            h
        }
    }
}

/// Stable structural digest of a timer payload.
pub fn timer_digest(timer: &Timer) -> u64 {
    match timer {
        Timer::AckTimeout(t) => {
            let h = fold_stamp(fnv_mix(fnv_start(), 1), &t.stamp);
            fnv_mix(fnv_mix(h, t.owner.0), u64::from(t.incarnation))
        }
        Timer::LoadBeacon => fnv_mix(fnv_start(), 2),
        Timer::GraceReissue(t) => {
            let h = fold_stamp(fnv_mix(fnv_start(), 3), &t.stamp);
            fnv_mix(h, t.owner.0)
        }
    }
}

/// A [`Substrate`] decorator that records the canonical event stream.
///
/// Placed innermost — between the backend core and the batching/routing
/// decorators — so events are timestamped with the core's clock at the
/// instant traffic actually reaches it. The tracer slot is generic over
/// ownership: machines own their `Tracer` directly, while the threaded
/// runtime's transient per-pump stacks borrow a worker-local one
/// (`TracingSubstrate<_, &mut Tracer>`).
pub struct TracingSubstrate<S, T = Tracer> {
    inner: S,
    tracer: T,
}

impl<S, T: BorrowMut<Tracer>> TracingSubstrate<S, T> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: T) -> TracingSubstrate<S, T> {
        TracingSubstrate { inner, tracer }
    }

    /// The tracer.
    pub fn tracer(&self) -> &Tracer {
        self.tracer.borrow()
    }

    /// The tracer, mutably (harvesting summaries and recorded events).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        self.tracer.borrow_mut()
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped substrate, mutably.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S, T> std::ops::Deref for TracingSubstrate<S, T> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.inner
    }
}

impl<S, T> std::ops::DerefMut for TracingSubstrate<S, T> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: Substrate, T: BorrowMut<Tracer>> TracingSubstrate<S, T> {
    fn observe_send(&mut self, from: ProcId, msg: &Msg) {
        if !self.tracer.borrow().enabled() {
            return;
        }
        if let Msg::Result(r) = msg {
            let kind = TraceKind::Complete {
                owner: from.0,
                digest: complete_digest(r),
            };
            let at = VirtualTime(self.inner.now_units());
            self.tracer.borrow_mut().emit(at, kind);
        }
    }
}

impl<S: Substrate, T: BorrowMut<Tracer>> Substrate for TracingSubstrate<S, T> {
    fn n_procs(&self) -> u32 {
        self.inner.n_procs()
    }

    fn is_live(&self, p: ProcId) -> bool {
        self.inner.is_live(p)
    }

    fn now_units(&self) -> u64 {
        self.inner.now_units()
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: Msg) {
        self.observe_send(from, &msg);
        self.inner.send(from, to, msg);
    }

    fn send_delayed(&mut self, from: ProcId, to: ProcId, msg: Msg, extra: u64) {
        self.observe_send(from, &msg);
        self.inner.send_delayed(from, to, msg, extra);
    }

    fn arm_timer(&mut self, owner: ProcId, timer: Timer, delay: u64) {
        self.inner.arm_timer(owner, timer, delay);
    }

    fn report_death(&mut self, dead: ProcId) {
        self.inner.report_death(dead);
    }

    fn complete_wave(&mut self, proc: ProcId, sink: &mut ActionSink, work: u64) {
        self.inner.complete_wave(proc, sink, work);
    }

    fn trace(&mut self, kind: TraceKind) {
        let at = VirtualTime(self.inner.now_units());
        self.tracer.borrow_mut().emit(at, kind);
    }

    fn trace_enabled(&self) -> bool {
        self.tracer.borrow().enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::ids::TaskKey;
    use splice_simnet::trace::TraceMode;

    #[derive(Default)]
    struct Probe {
        sent: u64,
        now: u64,
    }

    impl Substrate for Probe {
        fn n_procs(&self) -> u32 {
            4
        }
        fn is_live(&self, _p: ProcId) -> bool {
            true
        }
        fn now_units(&self) -> u64 {
            self.now
        }
        fn send(&mut self, _from: ProcId, _to: ProcId, _msg: Msg) {
            self.sent += 1;
        }
        fn arm_timer(&mut self, _owner: ProcId, _timer: Timer, _delay: u64) {}
        fn report_death(&mut self, _dead: ProcId) {}
    }

    fn result_msg(value: Value) -> Msg {
        Msg::result(ResultPacket {
            from_stamp: LevelStamp::from_digits(&[1, 2]),
            demand: Demand::new(splice_applicative::FnId(0), vec![Value::Int(1)]),
            value,
            to: TaskAddr::new(ProcId(0), TaskKey(1)),
            to_stamp: LevelStamp::from_digits(&[1]),
            relay_chain: vec![],
            replica: None,
        })
    }

    #[test]
    fn digests_are_stable_and_payload_sensitive() {
        let a = result_msg(Value::Int(7));
        let b = result_msg(Value::Int(7));
        let c = result_msg(Value::Int(8));
        assert_eq!(msg_digest(&a), msg_digest(&b));
        assert_ne!(msg_digest(&a), msg_digest(&c));
        assert_ne!(msg_digest(&a), msg_digest(&Msg::Probe));
        assert_ne!(
            timer_digest(&Timer::LoadBeacon),
            timer_digest(&Timer::AckTimeout(Box::new(
                splice_core::engine::AckTimer {
                    owner: TaskKey(0),
                    stamp: LevelStamp::root(),
                    incarnation: 0,
                }
            )))
        );
    }

    #[test]
    fn kind_tags_match_the_all_table() {
        for (i, k) in MsgKind::ALL.iter().enumerate() {
            assert_eq!(kind_tag(*k) as usize, i);
        }
    }

    #[test]
    fn result_sends_emit_complete_events() {
        let mut sub = TracingSubstrate::new(Probe::default(), Tracer::new(TraceMode::Full));
        sub.inner_mut().now = 42;
        sub.send(ProcId(1), ProcId(0), result_msg(Value::Int(7)));
        sub.send(ProcId(1), ProcId(0), Msg::Probe);
        assert_eq!(sub.inner().sent, 2, "both messages forwarded");
        let events = sub.tracer_mut().take_events();
        assert_eq!(events.len(), 1, "only the result traced");
        assert_eq!(events[0].at, VirtualTime(42));
        assert!(matches!(
            events[0].kind,
            TraceKind::Complete { owner: 1, .. }
        ));
    }

    #[test]
    fn trace_hook_reaches_a_borrowed_tracer() {
        let mut tracer = Tracer::new(TraceMode::Checksum);
        {
            let mut sub = TracingSubstrate::new(Probe::default(), &mut tracer);
            assert!(sub.trace_enabled());
            sub.trace(TraceKind::Wave { owner: 2, work: 5 });
        }
        assert_eq!(tracer.summary().events, 1);
    }

    #[test]
    fn off_mode_skips_everything() {
        let mut sub = TracingSubstrate::new(Probe::default(), Tracer::default());
        assert!(!sub.trace_enabled());
        sub.send(ProcId(1), ProcId(0), result_msg(Value::Int(7)));
        assert_eq!(sub.tracer().summary().events, 0);
    }
}
