//! Binary framing of [`Message`]s.
//!
//! The simulated network transports byte buffers, so attribute-space
//! traffic is framed exactly as it would be on a real TCP socket: a
//! 4-byte big-endian length prefix followed by a hand-rolled tag-based
//! binary encoding. The codec is deliberately simple (one tag byte per
//! variant, `u32`-length-prefixed UTF-8 strings, fixed-width integers)
//! so the encoded form is stable and property-testable.

use crate::error::TdpError;
use crate::ids::ContextId;
use crate::message::{Message, Reply};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Errors from the frame codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header or declared payload length.
    Incomplete,
    /// Unknown message/reply tag byte.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Declared length exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// Trailing bytes after a well-formed message.
    TrailingBytes(usize),
    /// A complete frame (per its length prefix) whose body ends
    /// mid-field. Distinct from [`FrameError::Incomplete`]: more bytes
    /// from the wire cannot repair it, the stream is corrupt.
    Malformed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Incomplete => write!(f, "incomplete frame"),
            FrameError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            FrameError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            FrameError::Malformed => write!(f, "malformed frame body"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Upper bound on a single frame; a put of a pathological value cannot
/// wedge a server with an unbounded allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

// Message tags.
const T_PUT: u8 = 1;
const T_GET: u8 = 2;
const T_REMOVE: u8 = 3;
const T_SUBSCRIBE: u8 = 4;
const T_UNSUBSCRIBE: u8 = 5;
const T_LISTKEYS: u8 = 6;
const T_JOIN: u8 = 7;
const T_LEAVE: u8 = 8;
const T_REPLY: u8 = 9;
const T_HELLO: u8 = 10;

// Reply tags.
const R_OK: u8 = 1;
const R_VALUE: u8 = 2;
const R_KEYS: u8 = 3;
const R_NOTIFY: u8 = 4;
const R_ERR: u8 = 5;

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

// ------------------------------------------------------- decode scratch

/// Bound on how many recycled strings a [`DecodeScratch`] retains, and
/// on the capacity of any single retained string. Oversized or surplus
/// strings just drop — the scratch is an allocation amortizer, not a
/// cache.
const SCRATCH_STRINGS: usize = 32;
const SCRATCH_STRING_CAP: usize = 64 * 1024;

/// Recycled string storage for the decode path.
///
/// Every string field of a decoded [`Message`] needs an owned `String`.
/// A steady-state transport loop would pay one heap allocation per
/// field per message; instead, callers hand finished messages back via
/// [`DecodeScratch::recycle_message`] and the next decode reuses their
/// capacity. A fresh (or empty) scratch behaves exactly like plain
/// allocation, so the scratch is purely an optimization — never a
/// correctness dependency.
#[derive(Default)]
pub struct DecodeScratch {
    strings: Vec<String>,
}

impl DecodeScratch {
    pub fn new() -> DecodeScratch {
        DecodeScratch::default()
    }

    /// Copy `bytes` into a (recycled, if available) `String`.
    fn string_from(&mut self, bytes: &[u8]) -> Result<String, FrameError> {
        let text = std::str::from_utf8(bytes).map_err(|_| FrameError::BadUtf8)?;
        let mut s = self.strings.pop().unwrap_or_default();
        s.clear();
        s.push_str(text);
        Ok(s)
    }

    /// Return one string's capacity to the pool.
    pub fn recycle_string(&mut self, s: String) {
        if self.strings.len() < SCRATCH_STRINGS && s.capacity() <= SCRATCH_STRING_CAP {
            self.strings.push(s);
        }
    }

    /// Tear a finished message apart and keep its strings' capacity for
    /// future decodes.
    pub fn recycle_message(&mut self, msg: Message) {
        match msg {
            Message::Put { key, value, .. } => {
                self.recycle_string(key);
                self.recycle_string(value);
            }
            Message::Get { key, .. } | Message::Remove { key, .. } => self.recycle_string(key),
            Message::Subscribe { key, .. } => self.recycle_string(key),
            Message::ListKeys { prefix, .. } => self.recycle_string(prefix),
            Message::Reply(r) => self.recycle_reply(r),
            Message::Unsubscribe { .. }
            | Message::Join { .. }
            | Message::Leave { .. }
            | Message::Hello { .. } => {}
        }
    }

    /// Reply half of [`DecodeScratch::recycle_message`].
    pub fn recycle_reply(&mut self, r: Reply) {
        match r {
            Reply::Value { key, value } | Reply::Notify { key, value, .. } => {
                self.recycle_string(key);
                self.recycle_string(value);
            }
            Reply::Keys(keys) => {
                for k in keys {
                    self.recycle_string(k);
                }
            }
            Reply::Ok | Reply::Err(_) => {}
        }
    }

    /// Strings currently pooled (test visibility).
    pub fn pooled(&self) -> usize {
        self.strings.len()
    }
}

// --------------------------------------------------------------- cursor

/// A non-consuming read cursor over a complete frame body. Decoding
/// borrows the receive buffer in place — no `split_to` copies, no
/// `freeze` refcounts — and the buffer is advanced once, after the
/// whole body parses.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Incomplete);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32(&mut self) -> Result<u32, FrameError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn get_u64(&mut self) -> Result<u64, FrameError> {
        let s = self.take(8)?;
        Ok(u64::from_be_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn get_str(&mut self, scratch: &mut DecodeScratch) -> Result<String, FrameError> {
        let len = self.get_u32()? as usize;
        if len > MAX_FRAME {
            return Err(FrameError::TooLarge(len));
        }
        scratch.string_from(self.take(len)?)
    }

    fn get_ctx(&mut self) -> Result<ContextId, FrameError> {
        Ok(ContextId(self.get_u64()?))
    }
}

/// Encode a message as a length-prefixed frame.
pub fn encode_frame(msg: &Message) -> Bytes {
    let mut framed = BytesMut::with_capacity(64);
    encode_frame_into(msg, &mut framed);
    framed.freeze()
}

/// Encode a message as a length-prefixed frame into `out`, replacing
/// its contents. The buffer's capacity is reused — a steady-state
/// sender recycling one buffer allocates nothing here.
pub fn encode_frame_into(msg: &Message, out: &mut BytesMut) {
    out.clear();
    out.put_u32(0); // length, patched below
    encode_body(msg, out);
    let body_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body_len.to_be_bytes());
}

/// The sender's half of the [`MAX_FRAME`] rule, for a frame
/// [`encode_frame`]/[`encode_frame_into`] produced: refuse, before a
/// byte is written, what the peer's decoder would answer by ending the
/// session.
pub fn check_sendable(frame: &[u8]) -> Result<(), TdpError> {
    let body = frame.len() - 4;
    if body > MAX_FRAME {
        return Err(TdpError::Protocol(FrameError::TooLarge(body).to_string()));
    }
    Ok(())
}

fn encode_body(msg: &Message, buf: &mut BytesMut) {
    match msg {
        Message::Put { ctx, key, value } => {
            buf.put_u8(T_PUT);
            buf.put_u64(ctx.0);
            put_str(buf, key);
            put_str(buf, value);
        }
        Message::Get { ctx, key, blocking } => {
            buf.put_u8(T_GET);
            buf.put_u64(ctx.0);
            put_str(buf, key);
            buf.put_u8(u8::from(*blocking));
        }
        Message::Remove { ctx, key } => {
            buf.put_u8(T_REMOVE);
            buf.put_u64(ctx.0);
            put_str(buf, key);
        }
        Message::Subscribe {
            ctx,
            key,
            token,
            only_future,
        } => {
            buf.put_u8(T_SUBSCRIBE);
            buf.put_u64(ctx.0);
            put_str(buf, key);
            buf.put_u64(*token);
            buf.put_u8(u8::from(*only_future));
        }
        Message::Unsubscribe { ctx, token } => {
            buf.put_u8(T_UNSUBSCRIBE);
            buf.put_u64(ctx.0);
            buf.put_u64(*token);
        }
        Message::ListKeys { ctx, prefix } => {
            buf.put_u8(T_LISTKEYS);
            buf.put_u64(ctx.0);
            put_str(buf, prefix);
        }
        Message::Join { ctx } => {
            buf.put_u8(T_JOIN);
            buf.put_u64(ctx.0);
        }
        Message::Leave { ctx } => {
            buf.put_u8(T_LEAVE);
            buf.put_u64(ctx.0);
        }
        Message::Reply(r) => {
            buf.put_u8(T_REPLY);
            encode_reply(r, buf);
        }
        Message::Hello { host } => {
            buf.put_u8(T_HELLO);
            buf.put_u32(host.0);
        }
    }
}

fn encode_reply(r: &Reply, buf: &mut BytesMut) {
    match r {
        Reply::Ok => buf.put_u8(R_OK),
        Reply::Value { key, value } => {
            buf.put_u8(R_VALUE);
            put_str(buf, key);
            put_str(buf, value);
        }
        Reply::Keys(keys) => {
            buf.put_u8(R_KEYS);
            buf.put_u32(keys.len() as u32);
            for k in keys {
                put_str(buf, k);
            }
        }
        Reply::Notify { token, key, value } => {
            buf.put_u8(R_NOTIFY);
            buf.put_u64(*token);
            put_str(buf, key);
            put_str(buf, value);
        }
        Reply::Err(e) => {
            buf.put_u8(R_ERR);
            // Errors cross the wire in display form; clients that need to
            // match re-parse the canonical variants below.
            put_str(buf, &error_code(e));
            put_str(buf, &e.to_string());
        }
    }
}

/// Stable short code for each error variant, so the wire form survives
/// message-text edits.
fn error_code(e: &TdpError) -> String {
    match e {
        TdpError::AttributeNotFound(a) => format!("ENOATTR:{a}"),
        TdpError::NoSuchContext(c) => format!("ENOCTX:{}", c.0),
        TdpError::HandleClosed => "ECLOSED".to_string(),
        TdpError::Timeout => "ETIMEOUT".to_string(),
        other => format!("EOTHER:{other}"),
    }
}

fn parse_error_code(code: &str, text: &str) -> TdpError {
    if let Some(a) = code.strip_prefix("ENOATTR:") {
        TdpError::AttributeNotFound(a.to_string())
    } else if let Some(c) = code.strip_prefix("ENOCTX:") {
        c.parse()
            .map(|n| TdpError::NoSuchContext(ContextId(n)))
            .unwrap_or_else(|_| TdpError::Protocol(text.to_string()))
    } else if code == "ECLOSED" {
        TdpError::HandleClosed
    } else if code == "ETIMEOUT" {
        TdpError::Timeout
    } else {
        TdpError::Protocol(text.to_string())
    }
}

/// Decode one frame from the front of `buf`. On success the frame's bytes
/// are consumed from `buf`. Returns `Err(FrameError::Incomplete)` without
/// consuming anything when a full frame has not yet arrived.
pub fn decode_frame(buf: &mut BytesMut) -> Result<Message, FrameError> {
    decode_frame_with(buf, &mut DecodeScratch::new())
}

/// [`decode_frame`] with recycled-string storage: string fields of the
/// decoded message reuse capacity previously returned through
/// [`DecodeScratch::recycle_message`], so a steady-state receive loop
/// performs no heap allocation here.
pub fn decode_frame_with(
    buf: &mut BytesMut,
    scratch: &mut DecodeScratch,
) -> Result<Message, FrameError> {
    let (used, res) = decode_front(buf, scratch);
    buf.advance(used);
    res
}

/// Decode the frame at the front of `buf`: how many bytes of `buf` it
/// used up, and what it held. Nothing is used (0) while the frame is
/// still incomplete or when its declared length is over [`MAX_FRAME`];
/// a complete frame is used whole on success *and* on body corruption —
/// the length prefix was honest, so the stream position stays framed
/// either way.
fn decode_front(buf: &[u8], scratch: &mut DecodeScratch) -> (usize, Result<Message, FrameError>) {
    let Some((header, rest)) = buf.split_first_chunk::<4>() else {
        return (0, Err(FrameError::Incomplete));
    };
    let len = u32::from_be_bytes(*header) as usize;
    if len > MAX_FRAME {
        return (0, Err(FrameError::TooLarge(len)));
    }
    let Some(body) = rest.get(..len) else {
        return (0, Err(FrameError::Incomplete));
    };
    let mut cur = Cursor { b: body, pos: 0 };
    // The whole declared body is in hand: a field that still runs out
    // of bytes is corruption, not a torn read. Reporting it as
    // `Incomplete` would make a streaming caller wait for bytes that
    // can never help (the frame is used up either way) — a silent
    // desync.
    let res = match decode_body(&mut cur, scratch) {
        Ok(msg) if cur.remaining() > 0 => {
            scratch.recycle_message(msg);
            Err(FrameError::TrailingBytes(cur.remaining()))
        }
        Err(FrameError::Incomplete) => Err(FrameError::Malformed),
        other => other,
    };
    (4 + len, res)
}

/// Storage a [`FrameDecoder`] starts with, on its first byte.
const INITIAL_BUF: usize = 4 * 1024;
/// The least room [`FrameDecoder::read_with`] offers a reader.
const MIN_ROOM: usize = 1024;
/// Storage a decoder keeps once its window is dry — one pathological
/// frame must not pin its footprint for the connection's life (the
/// wire's encode buffer and the gateway's `KEEP_BUF` state the same
/// rule).
const MAX_RETAINED_CAP: usize = 64 * 1024;

/// Incremental streaming decoder: bytes go in as they arrive off a
/// socket (in any fragmentation), complete messages come out.
///
/// Unlike calling [`decode_frame`] directly, the decoder separates "need
/// more bytes" (`Ok(None)`) from wire corruption (`Err`), so transport
/// loops never spin on an unrecoverable stream.
///
/// The decoder owns its storage, so a transport reads *into* it
/// ([`FrameDecoder::read_with`]) instead of into a chunk of its own that
/// [`FrameDecoder::feed`] would then copy. Storage grows with bytes
/// that arrived, never to a length a header merely declares.
#[derive(Default)]
pub struct FrameDecoder {
    /// Every byte is initialised. `buf[start..end]` is the window —
    /// bytes received and not yet decoded — and `buf[end..]` the room
    /// the next read lands in. A dry window sits at the front:
    /// `start == end` only at 0.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw bytes read from the transport.
    pub fn feed(&mut self, data: &[u8]) {
        self.room(data.len())[..data.len()].copy_from_slice(data);
        self.end += data.len();
    }

    /// Let `read` put bytes straight into the decoder's own storage:
    /// it is handed the room (at least 1 KiB, and at least as much
    /// again as the partial frame already held, so a large frame takes
    /// a logarithmic number of reads) and returns how much of it, from
    /// the front, it filled. The count or the error is passed through.
    pub fn read_with(
        &mut self,
        read: impl FnOnce(&mut [u8]) -> std::io::Result<usize>,
    ) -> std::io::Result<usize> {
        let room = self.room(self.buffered().max(MIN_ROOM));
        let n = read(room)?;
        assert!(n <= room.len(), "reader claims {n} bytes of {}", room.len());
        self.end += n;
        Ok(n)
    }

    /// At least `want` bytes of room behind the window.
    fn room(&mut self, want: usize) -> &mut [u8] {
        if self.buf.len() - self.end < want && self.start > 0 {
            // Slide the window to the front: at most one copy per
            // consumed frame (it leaves `start` at 0), and of a partial
            // frame only — whole frames are decoded before more is read.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < want {
            let len = (self.end + want).next_power_of_two();
            self.buf.resize(len.max(INITIAL_BUF), 0);
        }
        &mut self.buf[self.end..]
    }

    /// Try to decode the next complete message. `Ok(None)` means more
    /// bytes are needed; any `Err` means the stream is unrecoverable
    /// (framing lost).
    #[allow(clippy::should_implement_trait)] // fallible, not an Iterator
    pub fn next(&mut self) -> Result<Option<Message>, FrameError> {
        self.next_with(&mut DecodeScratch::new())
    }

    /// [`FrameDecoder::next`] decoding through a [`DecodeScratch`], so
    /// string fields reuse recycled capacity.
    pub fn next_with(
        &mut self,
        scratch: &mut DecodeScratch,
    ) -> Result<Option<Message>, FrameError> {
        let (used, res) = decode_front(&self.buf[self.start..self.end], scratch);
        self.start += used;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > MAX_RETAINED_CAP {
                self.buf = Vec::new();
            }
        }
        match res {
            Ok(msg) => Ok(Some(msg)),
            Err(FrameError::Incomplete) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// No partial frame is pending.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Bytes of storage held, window and room together.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }
}

fn decode_body(cur: &mut Cursor<'_>, scratch: &mut DecodeScratch) -> Result<Message, FrameError> {
    let tag = cur.get_u8()?;
    match tag {
        T_PUT => {
            let ctx = cur.get_ctx()?;
            let key = cur.get_str(scratch)?;
            let value = cur.get_str(scratch)?;
            Ok(Message::Put { ctx, key, value })
        }
        T_GET => {
            let ctx = cur.get_ctx()?;
            let key = cur.get_str(scratch)?;
            let blocking = cur.get_u8()? != 0;
            Ok(Message::Get { ctx, key, blocking })
        }
        T_REMOVE => {
            let ctx = cur.get_ctx()?;
            let key = cur.get_str(scratch)?;
            Ok(Message::Remove { ctx, key })
        }
        T_SUBSCRIBE => {
            let ctx = cur.get_ctx()?;
            let key = cur.get_str(scratch)?;
            let token = cur.get_u64()?;
            let only_future = cur.get_u8()? != 0;
            Ok(Message::Subscribe {
                ctx,
                key,
                token,
                only_future,
            })
        }
        T_UNSUBSCRIBE => {
            let ctx = cur.get_ctx()?;
            let token = cur.get_u64()?;
            Ok(Message::Unsubscribe { ctx, token })
        }
        T_LISTKEYS => {
            let ctx = cur.get_ctx()?;
            let prefix = cur.get_str(scratch)?;
            Ok(Message::ListKeys { ctx, prefix })
        }
        T_JOIN => Ok(Message::Join {
            ctx: cur.get_ctx()?,
        }),
        T_LEAVE => Ok(Message::Leave {
            ctx: cur.get_ctx()?,
        }),
        T_REPLY => Ok(Message::Reply(decode_reply(cur, scratch)?)),
        T_HELLO => Ok(Message::Hello {
            host: crate::ids::HostId(cur.get_u32()?),
        }),
        t => Err(FrameError::BadTag(t)),
    }
}

fn decode_reply(cur: &mut Cursor<'_>, scratch: &mut DecodeScratch) -> Result<Reply, FrameError> {
    let tag = cur.get_u8()?;
    match tag {
        R_OK => Ok(Reply::Ok),
        R_VALUE => {
            let key = cur.get_str(scratch)?;
            let value = cur.get_str(scratch)?;
            Ok(Reply::Value { key, value })
        }
        R_KEYS => {
            let n = cur.get_u32()? as usize;
            if n > MAX_FRAME / 4 {
                return Err(FrameError::TooLarge(n));
            }
            let mut keys = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                keys.push(cur.get_str(scratch)?);
            }
            Ok(Reply::Keys(keys))
        }
        R_NOTIFY => {
            let token = cur.get_u64()?;
            let key = cur.get_str(scratch)?;
            let value = cur.get_str(scratch)?;
            Ok(Reply::Notify { token, key, value })
        }
        R_ERR => {
            let code = cur.get_str(scratch)?;
            let text = cur.get_str(scratch)?;
            let err = parse_error_code(&code, &text);
            scratch.recycle_string(code);
            scratch.recycle_string(text);
            Ok(Reply::Err(err))
        }
        t => Err(FrameError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = encode_frame(&msg);
        let mut buf = BytesMut::from(&frame[..]);
        let decoded = decode_frame(&mut buf).expect("decode");
        assert_eq!(decoded, msg);
        assert!(buf.is_empty());
    }

    #[test]
    fn roundtrip_all_variants() {
        let ctx = ContextId(7);
        roundtrip(Message::Put {
            ctx,
            key: "pid".into(),
            value: "42".into(),
        });
        roundtrip(Message::Get {
            ctx,
            key: "pid".into(),
            blocking: true,
        });
        roundtrip(Message::Get {
            ctx,
            key: "pid".into(),
            blocking: false,
        });
        roundtrip(Message::Remove {
            ctx,
            key: "pid".into(),
        });
        roundtrip(Message::Subscribe {
            ctx,
            key: "ap_status".into(),
            token: 99,
            only_future: false,
        });
        roundtrip(Message::Subscribe {
            ctx,
            key: "ap_status".into(),
            token: 100,
            only_future: true,
        });
        roundtrip(Message::Unsubscribe { ctx, token: 99 });
        roundtrip(Message::ListKeys {
            ctx,
            prefix: "mpi_".into(),
        });
        roundtrip(Message::Join { ctx });
        roundtrip(Message::Leave { ctx });
        roundtrip(Message::Reply(Reply::Ok));
        roundtrip(Message::Reply(Reply::Value {
            key: "k".into(),
            value: "v".into(),
        }));
        roundtrip(Message::Reply(Reply::Keys(vec!["a".into(), "b".into()])));
        roundtrip(Message::Reply(Reply::Notify {
            token: 3,
            key: "k".into(),
            value: "v".into(),
        }));
        roundtrip(Message::Reply(Reply::Err(TdpError::AttributeNotFound(
            "x".into(),
        ))));
        roundtrip(Message::Reply(Reply::Err(TdpError::Timeout)));
        roundtrip(Message::Reply(Reply::Err(TdpError::HandleClosed)));
        roundtrip(Message::Reply(Reply::Err(TdpError::NoSuchContext(
            ContextId(3),
        ))));
    }

    #[test]
    fn incomplete_frames_do_not_consume() {
        let msg = Message::Put {
            ctx: ContextId(1),
            key: "a".into(),
            value: "b".into(),
        };
        let frame = encode_frame(&msg);
        for cut in 0..frame.len() {
            let mut buf = BytesMut::from(&frame[..cut]);
            let before = buf.len();
            assert_eq!(
                decode_frame(&mut buf),
                Err(FrameError::Incomplete),
                "cut={cut}"
            );
            assert_eq!(buf.len(), before, "cut={cut} consumed bytes on Incomplete");
        }
    }

    #[test]
    fn two_frames_back_to_back() {
        let m1 = Message::Join { ctx: ContextId(1) };
        let m2 = Message::Put {
            ctx: ContextId(1),
            key: "k".into(),
            value: "v".into(),
        };
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode_frame(&m1));
        buf.extend_from_slice(&encode_frame(&m2));
        assert_eq!(decode_frame(&mut buf).unwrap(), m1);
        assert_eq!(decode_frame(&mut buf).unwrap(), m2);
        assert!(buf.is_empty());
    }

    #[test]
    fn rejects_bad_tag() {
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u8(0xEE);
        assert_eq!(decode_frame(&mut buf), Err(FrameError::BadTag(0xEE)));
    }

    #[test]
    fn rejects_oversized_declared_length() {
        let mut buf = BytesMut::new();
        buf.put_u32((MAX_FRAME + 1) as u32);
        assert!(matches!(
            decode_frame(&mut buf),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let msg = Message::Join { ctx: ContextId(1) };
        let inner = encode_frame(&msg);
        // Re-frame with one junk byte appended inside the declared body.
        let mut buf = BytesMut::new();
        let body_len = inner.len() - 4;
        buf.put_u32((body_len + 1) as u32);
        buf.extend_from_slice(&inner[4..]);
        buf.put_u8(0);
        assert_eq!(decode_frame(&mut buf), Err(FrameError::TrailingBytes(1)));
    }

    #[test]
    fn rejects_invalid_utf8() {
        // Hand-build a Put whose key bytes are invalid UTF-8.
        let mut body = BytesMut::new();
        body.put_u8(1); // T_PUT
        body.put_u64(0);
        body.put_u32(2);
        body.put_slice(&[0xFF, 0xFE]);
        body.put_u32(0);
        let mut buf = BytesMut::new();
        buf.put_u32(body.len() as u32);
        buf.extend_from_slice(&body);
        assert_eq!(decode_frame(&mut buf), Err(FrameError::BadUtf8));
    }

    #[test]
    fn hello_roundtrips() {
        roundtrip(Message::Hello {
            host: crate::ids::HostId(42),
        });
    }

    #[test]
    fn truncated_body_in_complete_frame_is_malformed() {
        // A frame whose length prefix is honest but whose body stops
        // mid-field: T_PUT with only the ctx, no key/value.
        let mut body = BytesMut::new();
        body.put_u8(1); // T_PUT
        body.put_u64(7); // ctx, then nothing
        let mut buf = BytesMut::new();
        buf.put_u32(body.len() as u32);
        buf.extend_from_slice(&body);
        assert_eq!(decode_frame(&mut buf), Err(FrameError::Malformed));
    }

    #[test]
    fn decoder_handles_byte_at_a_time() {
        let msg = Message::Put {
            ctx: ContextId(3),
            key: "k".into(),
            value: "v".into(),
        };
        let frame = encode_frame(&msg);
        let mut dec = FrameDecoder::new();
        for (i, b) in frame.iter().enumerate() {
            dec.feed(&[*b]);
            let got = dec.next().expect("no error");
            if i + 1 < frame.len() {
                assert!(got.is_none(), "decoded early at byte {i}");
            } else {
                assert_eq!(got, Some(msg.clone()));
            }
        }
        assert!(dec.is_empty());
    }

    #[test]
    fn decoder_drains_multiple_messages_from_one_feed() {
        let m1 = Message::Join { ctx: ContextId(1) };
        let m2 = Message::Leave { ctx: ContextId(1) };
        let mut dec = FrameDecoder::new();
        dec.feed(&encode_frame(&m1));
        dec.feed(&encode_frame(&m2));
        assert_eq!(dec.next().unwrap(), Some(m1));
        assert_eq!(dec.next().unwrap(), Some(m2));
        assert_eq!(dec.next().unwrap(), None);
    }

    #[test]
    fn decoder_surfaces_corruption_once() {
        let mut dec = FrameDecoder::new();
        let mut junk = BytesMut::new();
        junk.put_u32(1);
        junk.put_u8(0xEE);
        dec.feed(&junk);
        assert_eq!(dec.next(), Err(FrameError::BadTag(0xEE)));
    }

    #[test]
    fn encode_frame_into_reuses_buffer_and_matches_encode_frame() {
        let m1 = Message::Put {
            ctx: ContextId(9),
            key: "a-long-key-name".into(),
            value: "v".repeat(300),
        };
        let m2 = Message::Join { ctx: ContextId(2) };
        let mut buf = BytesMut::new();
        encode_frame_into(&m1, &mut buf);
        assert_eq!(&buf[..], &encode_frame(&m1)[..]);
        let cap = buf.capacity();
        // Re-encoding a smaller frame replaces the contents in place.
        encode_frame_into(&m2, &mut buf);
        assert_eq!(&buf[..], &encode_frame(&m2)[..]);
        assert!(buf.capacity() >= cap.min(buf.len()));
    }

    #[test]
    fn scratch_recycles_string_capacity() {
        let msg = Message::Put {
            ctx: ContextId(1),
            key: "some_key".into(),
            value: "some_value".into(),
        };
        let frame = encode_frame(&msg);
        let mut scratch = DecodeScratch::new();
        let mut buf = BytesMut::from(&frame[..]);
        let first = decode_frame_with(&mut buf, &mut scratch).unwrap();
        assert_eq!(first, msg);
        scratch.recycle_message(first);
        assert_eq!(scratch.pooled(), 2);
        // The second decode drains the pool instead of allocating.
        let mut buf = BytesMut::from(&frame[..]);
        let second = decode_frame_with(&mut buf, &mut scratch).unwrap();
        assert_eq!(second, msg);
        assert_eq!(scratch.pooled(), 0);
    }

    #[test]
    fn scratch_decode_matches_plain_decode_for_all_variants() {
        let mut scratch = DecodeScratch::new();
        let msgs = vec![
            Message::Put {
                ctx: ContextId(7),
                key: "k".into(),
                value: "v".into(),
            },
            Message::Reply(Reply::Value {
                key: "k".into(),
                value: "v".into(),
            }),
            Message::Reply(Reply::Notify {
                token: 3,
                key: "k".into(),
                value: "v".into(),
            }),
            Message::Reply(Reply::Err(TdpError::Timeout)),
            Message::Reply(Reply::Keys(vec!["a".into(), "b".into()])),
        ];
        for msg in msgs {
            let frame = encode_frame(&msg);
            let mut buf = BytesMut::from(&frame[..]);
            let got = decode_frame_with(&mut buf, &mut scratch).unwrap();
            assert_eq!(got, msg);
            scratch.recycle_message(got);
        }
    }

    #[test]
    fn unicode_values_roundtrip() {
        roundtrip(Message::Put {
            ctx: ContextId(0),
            key: "dæmon".into(),
            value: "プロセス:\u{1F680}".into(),
        });
    }
}
