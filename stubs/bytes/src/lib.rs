//! Offline shim for `bytes` (see `stubs/README.md`).
//!
//! Implements `BytesMut` and the `Buf`/`BufMut` traits with the
//! big-endian accessors the TDP codec uses. `BytesMut` is a growable
//! buffer with an amortized-O(1) consumed-prefix offset so streaming
//! decoders can `advance`/`split_to` without quadratic copying; a
//! `Vec<u8>` is a `BufMut` too, for a frame that is handed on whole.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Read cursor over a contiguous byte buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice out of bounds");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }
}

/// Append-only writer over a growable byte buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

// ------------------------------------------------------------ BytesMut

/// A growable byte buffer with an amortized consumed-prefix offset.
#[derive(Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    // Logical start: everything before `off` has been consumed.
    off: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
            off: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len() - self.off
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity() - self.off
    }

    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.off = 0;
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = BytesMut {
            buf: self.as_slice()[..at].to_vec(),
            off: 0,
        };
        self.consume(at);
        head
    }

    /// Takes the entire contents, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        let all = self.len();
        self.split_to(all)
    }

    fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..]
    }

    fn consume(&mut self, cnt: usize) {
        self.off += cnt;
        // Reclaim the dead prefix once it dominates the buffer, keeping
        // advance/split_to amortized O(1) without unbounded growth.
        if self.off > 4096 && self.off * 2 > self.buf.len() {
            self.buf.drain(..self.off);
            self.off = 0;
        }
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.consume(cnt);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(mut b: BytesMut) -> Vec<u8> {
        b.buf.drain(..b.off);
        b.buf
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut {
            buf: v.to_vec(),
            off: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let off = self.off;
        &mut self.buf[off..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for BytesMut {}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut {
            buf: self.as_slice().to_vec(),
            off: 0,
        }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:?}", self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_be() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u32(0xDEADBEEF);
        b.put_u64(42);
        b.put_slice(b"xyz");
        assert_eq!(b.len(), 1 + 4 + 8 + 3);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32(), 0xDEADBEEF);
        assert_eq!(b.get_u64(), 42);
        assert_eq!(&b[..], b"xyz");
    }

    #[test]
    fn be_byte_order_on_the_wire() {
        let mut b = BytesMut::new();
        b.put_u32(1);
        assert_eq!(&b[..], &[0, 0, 0, 1]);
        let mut v = Vec::new();
        v.put_u32(1);
        assert_eq!(v, [0, 0, 0, 1]);
    }

    #[test]
    fn into_vec_drops_the_consumed_prefix() {
        let mut b = BytesMut::from(&b"hello world"[..]);
        b.advance(6);
        assert_eq!(Vec::from(b), b"world");
    }

    #[test]
    fn split_and_advance() {
        let mut b = BytesMut::from(&b"hello world"[..]);
        b.advance(6);
        assert_eq!(&b[..], b"world");
        let head = b.split_to(3);
        assert_eq!(&head[..], b"wor");
        assert_eq!(&b[..], b"ld");
        let rest = b.split();
        assert_eq!(&rest[..], b"ld");
        assert!(b.is_empty());
    }

    #[test]
    fn compaction_keeps_contents() {
        let mut b = BytesMut::new();
        for i in 0..10_000u32 {
            b.put_u32(i);
            let _ = b.split_to(2);
            b.advance(2);
        }
        assert!(b.is_empty());
    }
}
