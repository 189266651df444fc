//! The compact binary wire format the multi-process backend speaks over
//! Unix domain sockets.
//!
//! Every in-flight protocol message crosses process boundaries as one
//! *frame*:
//!
//! ```text
//! [ len: u32 LE ][ version: u8 ][ body ... ][ crc: u32 LE ]
//! ```
//!
//! where `len` covers everything after the length word (version byte, body
//! and checksum), `version` pins the codec revision ([`WIRE_VERSION`]), and
//! `crc` is a 32-bit FNV-1a digest of the version byte plus body. Inside
//! the body, integers are LEB128 varints (signed values zigzag-encoded),
//! [`LevelStamp`]s are a varint digit count followed by varint digits —
//! deep or wide stamps past the 24-byte inline form cost exactly their
//! digits, nothing more — and [`Value`] trees are tagged recursively with
//! a decode-side depth and length guard.
//!
//! Decoding is *total*: truncated, corrupted or hostile bytes return a
//! [`CodecError`], never panic and never allocate unbounded memory. The
//! transport turns a decode error into a dropped connection and a
//! `decode_errors` tick; the protocol above is built for lossy links, so
//! at-least-once delivery plus dup-tolerance absorbs the loss.

use splice_applicative::{Demand, FnId, Value};
use splice_core::ids::{ProcId, TaskAddr, TaskKey};
use splice_core::packet::{
    AckInfo, CkptPacket, Msg, ReplicaInfo, ResultPacket, SalvagePacket, TaskLink, TaskPacket,
};
use splice_core::stamp::LevelStamp;
use std::fmt;
use std::sync::Arc;

/// Codec revision carried in every frame's version byte. Bump on any
/// incompatible layout change; a mismatched peer surfaces as a
/// [`CodecError::Version`] bounce, not silent misparsing.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a single frame's `len` word (16 MiB). A corrupted or
/// hostile length prefix fails fast instead of asking the reassembly
/// buffer for gigabytes.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Maximum [`Value`] nesting depth the decoder will follow. Deeper trees
/// error out rather than recursing toward stack exhaustion.
pub const MAX_VALUE_DEPTH: usize = 96;

/// Why a frame or body failed to decode. All variants are recoverable:
/// the caller drops the bytes (and usually the connection) and moves on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced structure did.
    Truncated,
    /// The frame's version byte does not match [`WIRE_VERSION`].
    Version(u8),
    /// The frame checksum did not match its payload.
    Checksum,
    /// A frame length word exceeded [`MAX_FRAME_LEN`] or was too short to
    /// hold the mandatory version byte and checksum.
    FrameLen(usize),
    /// An enum tag byte was out of range for the structure being decoded.
    Tag(u8),
    /// A varint ran past 10 bytes (longer than any encoded u64).
    Varint,
    /// A string body was not valid UTF-8.
    Utf8,
    /// A collection announced more elements than the remaining bytes
    /// could possibly hold.
    Oversize,
    /// A [`Value`] tree nested deeper than [`MAX_VALUE_DEPTH`].
    Depth,
    /// Trailing bytes remained after the announced structure ended.
    Trailing,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::Version(v) => write!(f, "wire version {v} != {WIRE_VERSION}"),
            CodecError::Checksum => write!(f, "frame checksum mismatch"),
            CodecError::FrameLen(n) => write!(f, "bad frame length {n}"),
            CodecError::Tag(t) => write!(f, "unknown tag byte {t}"),
            CodecError::Varint => write!(f, "varint overruns 10 bytes"),
            CodecError::Utf8 => write!(f, "invalid utf-8 in string"),
            CodecError::Oversize => write!(f, "collection longer than remaining bytes"),
            CodecError::Depth => write!(f, "value nesting exceeds {MAX_VALUE_DEPTH}"),
            CodecError::Trailing => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for CodecError {}

/// 32-bit FNV-1a over `bytes` — the per-frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Byte-sink encoder: appends varint-packed structures to a reusable
/// `Vec<u8>`.
pub struct Enc<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    /// An encoder appending to `out` (the buffer is not cleared).
    pub fn new(out: &'a mut Vec<u8>) -> Enc<'a> {
        Enc { out }
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// LEB128 varint.
    pub fn u64v(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                return;
            }
            self.out.push(byte | 0x80);
        }
    }

    /// LEB128 varint of a u32.
    pub fn u32v(&mut self, v: u32) {
        self.u64v(u64::from(v));
    }

    /// Zigzag-folded signed varint.
    pub fn i64z(&mut self, v: i64) {
        self.u64v(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64v(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    /// A level stamp: varint digit count, then each digit as a varint.
    /// Heap-spilled stamps (deeper than the inline form, or with digits
    /// past 255) encode identically — the wire has no inline/heap split.
    pub fn stamp(&mut self, s: &LevelStamp) {
        self.u64v(s.level() as u64);
        for d in s.iter() {
            self.u32v(d);
        }
    }

    /// A processor id (varint; the super-root's `u32::MAX` costs 5 bytes).
    pub fn proc(&mut self, p: ProcId) {
        self.u32v(p.0);
    }

    /// A task address.
    pub fn addr(&mut self, a: &TaskAddr) {
        self.proc(a.proc);
        self.u64v(a.key.0);
    }

    /// A task link (address + stamp).
    pub fn link(&mut self, l: &TaskLink) {
        self.addr(&l.addr);
        self.stamp(&l.stamp);
    }

    /// A value tree, tagged recursively.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Unit => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(u8::from(*b));
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64z(*i);
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s);
            }
            Value::List(xs) => {
                self.u8(4);
                self.u64v(xs.len() as u64);
                for x in xs.iter() {
                    self.value(x);
                }
            }
        }
    }

    /// A demand (combinator id + argument values).
    pub fn demand(&mut self, d: &Demand) {
        self.u32v(d.fun.0);
        self.u64v(d.args.len() as u64);
        for a in d.args.iter() {
            self.value(a);
        }
    }

    /// An optional replica tag.
    pub fn replica(&mut self, r: &Option<ReplicaInfo>) {
        match r {
            None => self.u8(0),
            Some(ri) => {
                self.u8(1);
                self.u32v(ri.index);
                self.u32v(ri.total);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Cursor decoder over a byte slice. Every read is bounds-checked; all
/// failures surface as [`CodecError`].
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// LEB128 varint.
    pub fn u64v(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let b = self.u8()?;
            // The 10th byte may only carry the top bit of a u64.
            if shift == 9 && b > 1 {
                return Err(CodecError::Varint);
            }
            v |= u64::from(b & 0x7f) << (shift * 7);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Varint)
    }

    /// LEB128 varint bounded to u32.
    pub fn u32v(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.u64v()?).map_err(|_| CodecError::Varint)
    }

    /// Zigzag-folded signed varint.
    pub fn i64z(&mut self) -> Result<i64, CodecError> {
        let z = self.u64v()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.len_guard(1)?;
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Utf8)
    }

    /// A collection length prefix, rejected when `len * min_elem_bytes`
    /// exceeds the remaining buffer — a corrupted prefix cannot demand an
    /// absurd allocation.
    fn len_guard(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = usize::try_from(self.u64v()?).map_err(|_| CodecError::Oversize)?;
        if len.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(CodecError::Oversize);
        }
        Ok(len)
    }

    /// A level stamp.
    pub fn stamp(&mut self) -> Result<LevelStamp, CodecError> {
        let level = self.len_guard(1)?;
        let mut digits = Vec::with_capacity(level);
        for _ in 0..level {
            digits.push(self.u32v()?);
        }
        Ok(LevelStamp::from_digits(&digits))
    }

    /// A processor id.
    pub fn proc(&mut self) -> Result<ProcId, CodecError> {
        Ok(ProcId(self.u32v()?))
    }

    /// A task address.
    pub fn addr(&mut self) -> Result<TaskAddr, CodecError> {
        let proc = self.proc()?;
        let key = TaskKey(self.u64v()?);
        Ok(TaskAddr { proc, key })
    }

    /// A task link.
    pub fn link(&mut self) -> Result<TaskLink, CodecError> {
        let addr = self.addr()?;
        let stamp = self.stamp()?;
        Ok(TaskLink { addr, stamp })
    }

    /// A value tree (depth-guarded).
    pub fn value(&mut self) -> Result<Value, CodecError> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, CodecError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(CodecError::Depth);
        }
        match self.u8()? {
            0 => Ok(Value::Unit),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::Int(self.i64z()?)),
            3 => Ok(Value::Str(self.str()?.into())),
            4 => {
                let len = self.len_guard(1)?;
                let mut xs = Vec::with_capacity(len);
                for _ in 0..len {
                    xs.push(self.value_at(depth + 1)?);
                }
                Ok(Value::List(xs.into()))
            }
            t => Err(CodecError::Tag(t)),
        }
    }

    /// A demand. The arguments are decoded straight into the shared list
    /// the engine keeps: one allocation of exactly `n` values, none when
    /// `n` is 0. The first error stops decoding; the slots after it hold
    /// `Unit` until the list is dropped.
    pub fn demand(&mut self) -> Result<Demand, CodecError> {
        let fun = FnId(self.u32v()?);
        let n = self.len_guard(1)?;
        if n == 0 {
            return Ok(Demand::shared(fun, Arc::default()));
        }
        let mut failed = None;
        let args: Arc<[Value]> = (0..n)
            .map(|_| match failed {
                Some(_) => Value::Unit,
                None => self.value().unwrap_or_else(|e| {
                    failed = Some(e);
                    Value::Unit
                }),
            })
            .collect();
        match failed {
            None => Ok(Demand::shared(fun, args)),
            Some(e) => Err(e),
        }
    }

    /// An optional replica tag.
    pub fn replica(&mut self) -> Result<Option<ReplicaInfo>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let index = self.u32v()?;
                let total = self.u32v()?;
                Ok(Some(ReplicaInfo { index, total }))
            }
            t => Err(CodecError::Tag(t)),
        }
    }
}

// ---------------------------------------------------------------------------
// Msg body codec
// ---------------------------------------------------------------------------

/// Appends the body encoding of `msg` to `out` (no frame envelope). Tags
/// follow `MsgKind::ALL` order.
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    let mut e = Enc::new(out);
    match msg {
        Msg::Spawn(p) => {
            e.u8(0);
            e.stamp(&p.stamp);
            e.demand(&p.demand);
            e.link(&p.parent);
            e.u64v(p.ancestors.len() as u64);
            for a in &p.ancestors {
                e.link(a);
            }
            e.u32v(p.incarnation);
            e.u32v(p.hops);
            e.replica(&p.replica);
            e.u8(u8::from(p.under_replica));
        }
        Msg::Ack(a) => {
            e.u8(1);
            e.stamp(&a.child_stamp);
            e.addr(&a.child_addr);
            e.addr(&a.parent);
            e.u32v(a.incarnation);
        }
        Msg::Result(r) => {
            e.u8(2);
            e.stamp(&r.from_stamp);
            e.demand(&r.demand);
            e.value(&r.value);
            e.addr(&r.to);
            e.stamp(&r.to_stamp);
            e.u64v(r.relay_chain.len() as u64);
            for l in &r.relay_chain {
                e.link(l);
            }
            e.replica(&r.replica);
        }
        Msg::Salvage(s) => {
            e.u8(3);
            e.addr(&s.to);
            e.stamp(&s.dead_stamp);
            e.addr(&s.dead_addr);
            e.demand(&s.demand);
            e.value(&s.value);
            e.stamp(&s.from_stamp);
        }
        Msg::Abort { to } => {
            e.u8(4);
            e.addr(to);
        }
        Msg::Load { from, pressure } => {
            e.u8(5);
            e.proc(*from);
            e.u32v(*pressure);
        }
        Msg::FailureNotice { dead } => {
            e.u8(6);
            e.proc(*dead);
        }
        Msg::Probe => e.u8(7),
        Msg::Ckpt(c) => {
            e.u8(8);
            e.addr(&c.owner);
            e.stamp(&c.from_stamp);
            e.u64v(c.entries.len() as u64);
            for (d, v) in &c.entries {
                e.demand(d);
                e.value(v);
            }
        }
    }
}

/// Decodes one `Msg` body produced by [`encode_msg`], rejecting trailing
/// bytes.
pub fn decode_msg(buf: &[u8]) -> Result<Msg, CodecError> {
    let mut d = Dec::new(buf);
    let msg = decode_msg_at(&mut d)?;
    if d.remaining() != 0 {
        return Err(CodecError::Trailing);
    }
    Ok(msg)
}

/// Decodes one `Msg` body at the decoder's cursor, leaving the cursor
/// after it (for bodies embedded in larger structures).
pub fn decode_msg_at(d: &mut Dec<'_>) -> Result<Msg, CodecError> {
    match d.u8()? {
        0 => {
            let stamp = d.stamp()?;
            let demand = d.demand()?;
            let parent = d.link()?;
            let n = d.len_guard(1)?;
            let mut ancestors = Vec::with_capacity(n);
            for _ in 0..n {
                ancestors.push(d.link()?);
            }
            let incarnation = d.u32v()?;
            let hops = d.u32v()?;
            let replica = d.replica()?;
            let under_replica = d.u8()? != 0;
            Ok(Msg::Spawn(Box::new(TaskPacket {
                stamp,
                demand,
                parent,
                ancestors,
                incarnation,
                hops,
                replica,
                under_replica,
            })))
        }
        1 => {
            let child_stamp = d.stamp()?;
            let child_addr = d.addr()?;
            let parent = d.addr()?;
            let incarnation = d.u32v()?;
            Ok(Msg::Ack(Box::new(AckInfo {
                child_stamp,
                child_addr,
                parent,
                incarnation,
            })))
        }
        2 => {
            let from_stamp = d.stamp()?;
            let demand = d.demand()?;
            let value = d.value()?;
            let to = d.addr()?;
            let to_stamp = d.stamp()?;
            let n = d.len_guard(1)?;
            let mut relay_chain = Vec::with_capacity(n);
            for _ in 0..n {
                relay_chain.push(d.link()?);
            }
            let replica = d.replica()?;
            Ok(Msg::Result(Box::new(ResultPacket {
                from_stamp,
                demand,
                value,
                to,
                to_stamp,
                relay_chain,
                replica,
            })))
        }
        3 => {
            let to = d.addr()?;
            let dead_stamp = d.stamp()?;
            let dead_addr = d.addr()?;
            let demand = d.demand()?;
            let value = d.value()?;
            let from_stamp = d.stamp()?;
            Ok(Msg::Salvage(Box::new(SalvagePacket {
                to,
                dead_stamp,
                dead_addr,
                demand,
                value,
                from_stamp,
            })))
        }
        4 => Ok(Msg::Abort { to: d.addr()? }),
        5 => {
            let from = d.proc()?;
            let pressure = d.u32v()?;
            Ok(Msg::Load { from, pressure })
        }
        6 => Ok(Msg::FailureNotice { dead: d.proc()? }),
        7 => Ok(Msg::Probe),
        8 => {
            let owner = d.addr()?;
            let from_stamp = d.stamp()?;
            let n = d.len_guard(1)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let demand = d.demand()?;
                let value = d.value()?;
                entries.push((demand, value));
            }
            Ok(Msg::Ckpt(Box::new(CkptPacket {
                owner,
                from_stamp,
                entries,
            })))
        }
        t => Err(CodecError::Tag(t)),
    }
}

// ---------------------------------------------------------------------------
// Frame envelope
// ---------------------------------------------------------------------------

/// Wraps an already-encoded body in the frame envelope (length word,
/// version byte, checksum), appending to `out`.
pub fn encode_frame(body: &[u8], out: &mut Vec<u8>) {
    let len = 1 + body.len() + 4;
    out.extend_from_slice(&(len as u32).to_le_bytes());
    let payload_start = out.len();
    out.push(WIRE_VERSION);
    out.extend_from_slice(body);
    let crc = crc32(&out[payload_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Encodes `msg` as one complete frame appended to `out` — the one-stop
/// sender path. `scratch` is a reusable body buffer (cleared here).
pub fn encode_msg_frame(msg: &Msg, scratch: &mut Vec<u8>, out: &mut Vec<u8>) {
    scratch.clear();
    encode_msg(msg, scratch);
    encode_frame(scratch, out);
}

/// Streaming frame reassembly buffer: feed it raw socket bytes, pop
/// complete verified frame bodies. A decode failure poisons only the one
/// frame; the caller decides whether to keep the connection.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
    /// An empty reassembly buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact once the consumed prefix dominates the buffer, so a
        // long-lived connection does not grow without bound.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame body, verifying version and checksum.
    ///
    /// * `Ok(Some(body))` — one verified frame body (envelope stripped);
    /// * `Ok(None)` — no complete frame buffered yet;
    /// * `Err(_)` — the stream is corrupt at the cursor; the caller should
    ///   drop the connection (resynchronising a length-prefixed stream
    ///   after corruption is guesswork).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if !(5..=MAX_FRAME_LEN).contains(&len) {
            return Err(CodecError::FrameLen(len));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = &avail[4..4 + len];
        let (head, crc_bytes) = payload.split_at(len - 4);
        let crc = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if crc32(head) != crc {
            return Err(CodecError::Checksum);
        }
        if head[0] != WIRE_VERSION {
            return Err(CodecError::Version(head[0]));
        }
        let body = head[1..].to_vec();
        self.pos += 4 + len;
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(digits: &[u32]) -> LevelStamp {
        LevelStamp::from_digits(digits)
    }

    fn sample_msgs() -> Vec<Msg> {
        let deep: Vec<u32> = (0..40).map(|i| i * 3 + 1).collect();
        let wide = vec![1, 70_000, 3, u32::MAX, 5];
        let demand = Demand::new(
            FnId(7),
            vec![
                Value::Int(-42),
                Value::Str("xs".into()),
                Value::List(vec![Value::Bool(true), Value::Unit].into()),
            ],
        );
        vec![
            Msg::spawn(TaskPacket {
                stamp: stamp(&deep),
                demand: demand.clone(),
                parent: TaskLink::new(TaskAddr::new(ProcId(3), TaskKey(9)), stamp(&[1, 2])),
                ancestors: vec![TaskLink::super_root()],
                incarnation: 2,
                hops: 5,
                replica: Some(ReplicaInfo { index: 1, total: 3 }),
                under_replica: true,
            }),
            Msg::ack(
                stamp(&wide),
                TaskAddr::new(ProcId(1), TaskKey(4)),
                TaskAddr::super_root(),
                1,
            ),
            Msg::result(ResultPacket {
                from_stamp: stamp(&wide),
                demand: demand.clone(),
                value: Value::List(vec![Value::Int(i64::MIN), Value::Int(i64::MAX)].into()),
                to: TaskAddr::super_root(),
                to_stamp: stamp(&[]),
                relay_chain: vec![TaskLink::new(
                    TaskAddr::new(ProcId(2), TaskKey(8)),
                    stamp(&deep),
                )],
                replica: None,
            }),
            Msg::salvage(SalvagePacket {
                to: TaskAddr::new(ProcId(0), TaskKey(1)),
                dead_stamp: stamp(&[9, 9, 9]),
                dead_addr: TaskAddr::new(ProcId(6), TaskKey(2)),
                demand,
                value: Value::Str("orphan".into()),
                from_stamp: stamp(&[1]),
            }),
            Msg::Abort {
                to: TaskAddr::new(ProcId(4), TaskKey(11)),
            },
            Msg::Load {
                from: ProcId(2),
                pressure: 1234,
            },
            Msg::FailureNotice {
                dead: ProcId::SUPER_ROOT,
            },
            Msg::Probe,
            Msg::ckpt(CkptPacket {
                owner: TaskAddr::new(ProcId(3), TaskKey(7)),
                from_stamp: stamp(&[1, 4]),
                entries: vec![
                    (Demand::new(FnId(2), vec![Value::Int(5)]), Value::Int(8)),
                    (
                        Demand::new(FnId(2), vec![Value::Int(4)]),
                        Value::List(vec![Value::Unit].into()),
                    ),
                ],
            }),
        ]
    }

    #[test]
    fn msg_round_trip() {
        for msg in sample_msgs() {
            let mut body = Vec::new();
            encode_msg(&msg, &mut body);
            assert_eq!(decode_msg(&body).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn frame_round_trip_and_stream_reassembly() {
        let msgs = sample_msgs();
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for m in &msgs {
            encode_msg_frame(m, &mut scratch, &mut wire);
        }
        // Feed the stream one byte at a time: reassembly must still pop
        // every frame, in order.
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for b in &wire {
            fb.extend(std::slice::from_ref(b));
            while let Some(body) = fb.next_frame().unwrap() {
                got.push(decode_msg(&body).unwrap());
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn deep_and_wide_stamps_round_trip() {
        // Past the inline form on both axes: depth > 22 and digits > 255.
        let cases = [
            (0..23).collect::<Vec<u32>>(),
            (0..64).map(|i| i * 7).collect(),
            vec![256, 65_536, u32::MAX],
            vec![],
        ];
        for digits in cases {
            let s = stamp(&digits);
            let mut buf = Vec::new();
            Enc::new(&mut buf).stamp(&s);
            let got = Dec::new(&buf).stamp().unwrap();
            assert_eq!(got, s);
            assert_eq!(got.digits(), digits);
        }
    }

    #[test]
    fn truncation_errors_never_panic() {
        for msg in sample_msgs() {
            let mut body = Vec::new();
            encode_msg(&msg, &mut body);
            for cut in 0..body.len() {
                assert!(decode_msg(&body[..cut]).is_err(), "{msg:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn corrupted_frames_fail_checksum() {
        let mut scratch = Vec::new();
        let mut wire = Vec::new();
        encode_msg_frame(&Msg::Probe, &mut scratch, &mut wire);
        // Flip each payload byte in turn: version, body or checksum —
        // every flip must surface as an error, never a bogus frame.
        for i in 4..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            let mut fb = FrameBuf::new();
            fb.extend(&bad);
            assert!(fb.next_frame().is_err(), "flip at {i}");
        }
    }

    #[test]
    fn hostile_length_prefix_is_bounded() {
        let mut fb = FrameBuf::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert_eq!(
            fb.next_frame(),
            Err(CodecError::FrameLen(u32::MAX as usize))
        );
        let mut fb = FrameBuf::new();
        fb.extend(&2u32.to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(CodecError::FrameLen(2))));
    }

    #[test]
    fn oversize_collection_prefix_rejected() {
        // A spawn whose ancestor count claims more elements than bytes.
        let mut body = Vec::new();
        let mut e = Enc::new(&mut body);
        e.u8(0); // Spawn tag
        e.stamp(&stamp(&[1]));
        e.demand(&Demand::new(FnId(0), vec![]));
        e.link(&TaskLink::super_root());
        e.u64v(1 << 40); // absurd ancestor count
        assert_eq!(decode_msg(&body), Err(CodecError::Oversize));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Vec::new();
        encode_msg(&Msg::Probe, &mut body);
        body.push(0);
        assert_eq!(decode_msg(&body), Err(CodecError::Trailing));
    }

    #[test]
    fn value_depth_guard() {
        let mut nested = Value::Unit;
        for _ in 0..(MAX_VALUE_DEPTH + 2) {
            nested = Value::List(vec![nested].into());
        }
        let mut buf = Vec::new();
        Enc::new(&mut buf).value(&nested);
        assert_eq!(Dec::new(&buf).value(), Err(CodecError::Depth));
    }
}
