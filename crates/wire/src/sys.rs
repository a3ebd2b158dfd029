//! Minimal unsafe FFI shim over the Linux syscalls the socket transport
//! and the gateway's HTTP loop need: `poll` for one fd and `recv` /
//! `send` with per-call flags (an adopted socket stays in blocking mode;
//! `MSG_DONTWAIT` makes the one call that must not park non-blocking),
//! `epoll_create1` / `epoll_ctl` / `epoll_wait` and `eventfd` for
//! cross-thread wakeups (the gateway's leader/follower loop — the
//! tree's one epoll loop).
//!
//! This build environment has no crates.io access (see
//! `stubs/README.md`), so instead of pulling in `libc`/`mio` we declare
//! exactly the handful of symbols we use against the C library every
//! Rust binary on linux-gnu already links. Everything unsafe lives in
//! this module, behind the safe [`Epoll`] / [`EventFd`] wrappers;
//! errors are surfaced as `std::io::Error` via `last_os_error`.

use std::io;
use std::os::unix::io::RawFd;

// ------------------------------------------------------------ constants
//
// Values are identical across the Linux architectures Rust supports
// (asm-generic); x86_64 additionally packs `epoll_event` (see below).

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

const MSG_DONTWAIT: i32 = 0x40;
const MSG_NOSIGNAL: i32 = 0x4000;

/// The kernel's `struct epoll_event`. x86-64 is the one Linux ABI where
/// it is packed (a 32-bit-compat leftover); everywhere else it has
/// natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    /// User token; we never store pointers here, only plain ids.
    pub token: u64,
}

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
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn recv(fd: i32, buf: *mut core::ffi::c_void, len: usize, flags: i32) -> isize;
    fn send(fd: i32, buf: *const core::ffi::c_void, len: usize, flags: i32) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn cvt_size(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret as usize)
    }
}

const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

/// Close an owned fd, checking the return. `EINTR` is deliberately not
/// retried: on Linux the descriptor is released even when `close`
/// reports it, and a retry could close an unrelated recycled fd. Any
/// other failure (`EBADF` above all) means fd bookkeeping is corrupt —
/// debug builds assert, release builds drop the error the way `File`'s
/// own `Drop` does.
fn close_fd(fd: RawFd) {
    // SAFETY: callers own `fd` and never use it after this call.
    let ret = unsafe { close(fd) };
    if ret < 0 {
        let err = io::Error::last_os_error();
        debug_assert_eq!(err.raw_os_error(), Some(EINTR), "close({fd}) failed: {err}");
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

// ---------------------------------------------------------------- epoll

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain fd-returning syscall.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Start watching `fd` for `events`, tagging readiness with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest set of an already-watched `fd` (also rearms
    /// an `EPOLLONESHOT` registration that has fired).
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Stop watching `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block for readiness; `timeout_ms < 0` waits forever. Retries on
    /// `EINTR`. Returns the filled prefix of `events`.
    pub fn wait<'e>(
        &self,
        events: &'e mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<&'e [EpollEvent]> {
        loop {
            // SAFETY: the out-buffer is valid for `events.len()` entries.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            match cvt(n) {
                Ok(n) => return Ok(&events[..n as usize]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

// -------------------------------------------------------------- eventfd

/// A non-blocking eventfd used to kick `epoll_wait` from other threads
/// (registration changes take effect on their own; this is for
/// shutdown). Nothing reads it: once signalled it stays readable.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: plain fd-returning syscall.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Wake whoever has this eventfd in an epoll set. `EAGAIN` means
    /// the counter is saturated — the fd is already readable, so the
    /// wakeup is delivered and the error is not worth surfacing. Any
    /// other failure is a bookkeeping bug and asserts in debug builds.
    pub fn signal(&self) {
        let one: u64 = 1;
        loop {
            // SAFETY: writes 8 bytes from a live stack slot.
            let n = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
            if n >= 0 {
                return;
            }
            let err = io::Error::last_os_error();
            match err.raw_os_error() {
                Some(EINTR) => continue,
                Some(EAGAIN) => return, // counter saturated: still readable
                _ => {
                    debug_assert!(false, "eventfd write failed: {err}");
                    return;
                }
            }
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 7).unwrap();
        let mut buf = [EpollEvent {
            events: 0,
            token: 0,
        }; 8];
        // Nothing signalled: times out empty.
        assert!(ep.wait(&mut buf, 0).unwrap().is_empty());
        ev.signal();
        let ready = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!({ ready[0].token }, 7);
        // Level-triggered and never drained: it stays readable, which
        // is what lets one signal stop every loop that watches it.
        assert_eq!(ep.wait(&mut buf, 0).unwrap().len(), 1);
    }

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
