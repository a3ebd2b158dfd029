//! Minimal unsafe FFI shim over the Linux syscalls the socket transport
//! and the gateway's HTTP sessions need that `std` does not offer:
//! `poll` for one fd and `recv` / `send` with per-call flags (an
//! adopted socket stays in blocking mode; `MSG_DONTWAIT` makes the one
//! call that must not park non-blocking). There is no epoll set and no
//! eventfd: every socket is read by the thread that wants its bytes.
//!
//! This build environment has no crates.io access (see
//! `stubs/README.md`), so instead of pulling in `libc`/`mio` we declare
//! exactly the handful of symbols we use against the C library every
//! Rust binary on linux-gnu already links. Everything unsafe lives in
//! this module, behind safe functions; errors are surfaced as
//! `std::io::Error` via `last_os_error`.

use std::io;
use std::os::unix::io::RawFd;

const MSG_DONTWAIT: i32 = 0x40;
const MSG_NOSIGNAL: i32 = 0x4000;

/// The kernel's `struct pollfd` for [`poll`].
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn recv(fd: i32, buf: *mut core::ffi::c_void, len: usize, flags: i32) -> isize;
    fn send(fd: i32, buf: *const core::ffi::c_void, len: usize, flags: i32) -> isize;
}

fn cvt_size(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret as usize)
    }
}

/// Block until `fd` is readable (or in an error/hangup state — those
/// also wake the poll, and the subsequent read surfaces them), or until
/// `timeout_ms` elapses (`< 0` waits forever). Returns whether the fd
/// was reported ready. Retries on `EINTR` without re-extending the
/// timeout beyond the caller's budget — callers pass deadlines, so they
/// recompute on the retry path themselves if they need exactness.
pub fn poll_readable(fd: RawFd, timeout_ms: i32) -> io::Result<bool> {
    poll_one(fd, POLLIN, timeout_ms)
}

/// [`poll_readable`]'s twin for the write side: block until a write to
/// `fd` can make progress (room in the socket buffer, or an error or
/// hangup for the write to surface), or until `timeout_ms` elapses.
pub fn poll_writable(fd: RawFd, timeout_ms: i32) -> io::Result<bool> {
    poll_one(fd, POLLOUT, timeout_ms)
}

/// What is left of a wait, as a `poll` timeout: rounded up, so a
/// sub-millisecond remainder still waits instead of spinning at 0 ms.
pub(crate) fn poll_timeout_ms(left: std::time::Duration) -> i32 {
    left.as_millis().saturating_add(1).min(i32::MAX as u128) as i32
}

fn poll_one(fd: RawFd, events: i16, timeout_ms: i32) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    loop {
        // SAFETY: `pfd` is a live stack slot for the whole call.
        let ret = unsafe { poll(&mut pfd, 1, timeout_ms) };
        if ret < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(e);
        }
        // POLLERR/POLLHUP are delivered regardless of `events`; any
        // non-zero revents means the read or write will make progress
        // (data or room, EOF, or a hard error to surface).
        return Ok(ret > 0);
    }
}

/// Receive from socket `fd` into `buf`, parking in the call until there
/// is something to report: data, EOF (`Ok(0)`), an error, or a local
/// `shutdown` — which is how a parked receiver is released from another
/// thread. Retries on `EINTR`.
pub fn recv_blocking(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    recv_flags(fd, buf, 0)
}

/// [`recv_blocking`] that never parks: `WouldBlock` when nothing has
/// arrived, whatever mode the socket is in.
pub fn recv_dontwait(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    recv_flags(fd, buf, MSG_DONTWAIT)
}

fn recv_flags(fd: RawFd, buf: &mut [u8], flags: i32) -> io::Result<usize> {
    retry_eintr(|| {
        // SAFETY: `buf` is a live exclusive slice for the whole call and
        // the kernel writes at most `buf.len()` bytes into it.
        cvt_size(unsafe { recv(fd, buf.as_mut_ptr().cast(), buf.len(), flags) })
    })
}

/// Send a prefix of `buf` on socket `fd` without ever parking:
/// `WouldBlock` when the socket buffer has no room, whatever mode the
/// socket is in. A closed peer is `EPIPE`, never `SIGPIPE`. Retries on
/// `EINTR`.
pub fn send_dontwait(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    const FLAGS: i32 = MSG_DONTWAIT | MSG_NOSIGNAL;
    retry_eintr(|| {
        // SAFETY: `buf` is a live slice for the whole call and the
        // kernel reads at most `buf.len()` bytes from it.
        cvt_size(unsafe { send(fd, buf.as_ptr().cast(), buf.len(), FLAGS) })
    })
}

fn retry_eintr<T>(mut call: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match call() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            ret => return ret,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_readable_times_out_then_wakes() {
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut a = std::net::TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        assert!(!poll_readable(b.as_raw_fd(), 0).unwrap());
        a.write_all(b"x").unwrap();
        assert!(poll_readable(b.as_raw_fd(), 1000).unwrap());
        // EOF also reads as ready.
        drop(a);
        assert!(poll_readable(b.as_raw_fd(), 1000).unwrap());
    }

    #[test]
    fn poll_writable_waits_for_room() {
        use std::io::{Read, Write};
        use std::os::unix::io::AsRawFd;
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut a = std::net::TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (mut b, _) = l.accept().unwrap();
        assert!(poll_writable(a.as_raw_fd(), 0).unwrap());
        // Fill both socket buffers: no room until the peer reads.
        a.set_nonblocking(true).unwrap();
        let block = [0u8; 64 * 1024];
        let mut sent = 0;
        while let Ok(n) = a.write(&block) {
            sent += n;
        }
        assert!(!poll_writable(a.as_raw_fd(), 0).unwrap());
        let mut sink = vec![0u8; sent];
        b.read_exact(&mut sink).unwrap();
        assert!(poll_writable(a.as_raw_fd(), 1000).unwrap());
    }

    #[test]
    fn dontwait_is_per_call_on_a_blocking_socket() {
        use std::os::unix::io::AsRawFd;
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = std::net::TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        let mut buf = [0u8; 8];
        // Both sockets are in blocking mode; the flag alone decides.
        let err = recv_dontwait(b.as_raw_fd(), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(send_dontwait(a.as_raw_fd(), b"abc").unwrap(), 3);
        assert_eq!(recv_blocking(b.as_raw_fd(), &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
        // EOF is a zero-length receive, and a send to a gone peer is an
        // error, not a signal.
        drop(a);
        assert_eq!(recv_blocking(b.as_raw_fd(), &mut buf).unwrap(), 0);
        let err = loop {
            if let Err(e) = send_dontwait(b.as_raw_fd(), b"x") {
                break e;
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
