//! A small HTTP/1.1 server on the wire crate's epoll machinery.
//!
//! Leader/follower: the `workers` threads all block in `epoll_wait` on
//! one shared [`Epoll`](tdp_wire::sys::Epoll) set, and the thread the
//! kernel wakes serves the request itself — read, parse once, run the
//! handler, write, re-arm — so a request costs four syscalls and no
//! thread hand-off inside the server.
//!
//! * **Who owns a connection when.** Every connection is registered
//!   `EPOLLONESHOT`: once its readiness has been reported to one worker
//!   the kernel reports nothing more for it until that worker re-arms
//!   it, so from wake-up to re-arm (or close) the worker is the only
//!   thread touching the socket and its buffers. In between, the epoll
//!   set owns it. The re-arm is level-triggered: bytes left in the
//!   socket (a short read stops the read loop) or a request that is not
//!   complete yet are reported again, to whichever worker is free.
//! * **One event per `wait`.** A worker that took two ready connections
//!   and then blocked in the first one's handler (a `subscribe`
//!   long-poll parks for up to 30 s) would sit on the second while
//!   other workers idle. Taking one leaves the rest in the kernel's
//!   ready list for the next free worker.
//! * **What a parked handler costs.** One worker, and nothing else:
//!   the other `workers - 1` keep serving. With all of them parked,
//!   ready connections queue in the epoll set — bounded by the number
//!   of open connections, nothing is dropped — and are served as
//!   workers come back.
//! * **The listener** is `EPOLLONESHOT` too: one worker is woken per
//!   burst of connects, accepts until `EAGAIN`, and re-arms it, so
//!   nobody wakes up to lose an `accept` race. The workers share the
//!   listener; it closes when the last of them exits.
//! * **Shutdown** signals a level-triggered eventfd that no one drains,
//!   so every worker sees it at its next `wait` and returns.
//!
//! Scope: `POST` with `Content-Length` (JSON-RPC) and bare `GET`
//! (health probes). No chunked transfer (any `Transfer-Encoding` is
//! refused, so a body can never be re-read as a pipelined request), no
//! TLS — the gateway fronts a lab network, and clients are the bench
//! harness, curl, and the example programs.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tdp_sync::Mutex;
use tdp_wire::socket::write_all_stall;
use tdp_wire::sys::{Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLONESHOT, EPOLLRDHUP};

/// Largest accepted head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted body in bytes.
const MAX_BODY: usize = 4 * 1024 * 1024;
/// Largest complete request: head, blank line, body. A worker stops
/// reading a connection once it buffers more than this; what is
/// buffered then parses as a request or as bad framing, never as
/// "need more".
const MAX_REQUEST: usize = MAX_HEAD + 4 + MAX_BODY;
/// One `read`'s worth. A read that returns less has drained the socket.
const READ_CHUNK: usize = 8 * 1024;
/// Buffer capacity an idle connection may keep between requests; one
/// large request must not pin megabytes for the life of a keep-alive
/// connection.
const KEEP_BUF: usize = 64 * 1024;
/// How long a worker waits, in total per response, for a stalled client
/// to make room before it drops the connection. The wait is a
/// `poll(2)` inside [`write_all_stall`] (the write loop the wire
/// transport's senders use too) — we never register for `EPOLLOUT`: the
/// worker owns the connection anyway.
const WRITE_STALL: Duration = Duration::from_secs(5);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKEUP: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// One parsed inbound request, borrowed from the connection's read
/// buffer for the duration of the handler call.
#[derive(Debug, Clone, Copy)]
pub struct HttpRequest<'a> {
    pub method: &'a str,
    pub path: &'a str,
    /// The header lines as received; every one has passed the parser's
    /// `name: value` check.
    head: &'a str,
    pub body: &'a [u8],
}

impl<'a> HttpRequest<'a> {
    /// Case-insensitive header lookup; the first match, trimmed.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        header_lines(self.head)
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    pub fn body_str(&self) -> std::borrow::Cow<'a, str> {
        String::from_utf8_lossy(self.body)
    }
}

/// The response a handler returns.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain",
            body: body.into(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            _ => "Error",
        }
    }

    /// Replace `out`'s contents with the wire form, head and body.
    fn render_into(&self, keep_alive: bool, out: &mut Vec<u8>) {
        out.clear();
        write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .expect("writing to a Vec cannot fail");
        out.extend_from_slice(&self.body);
    }
}

/// Request handler. Must be cheap to call concurrently; one invocation
/// per in-flight request, from worker threads.
pub type Handler = Arc<dyn Fn(&HttpRequest<'_>) -> HttpResponse + Send + Sync>;

// ------------------------------------------------------------- parsing

/// Outcome of trying to cut one request off the front of a read buffer.
enum Parsed<'a> {
    /// Not enough bytes yet.
    Partial,
    /// One full request, `consumed` bytes long; `close` if it asked for
    /// `connection: close`.
    Done {
        req: HttpRequest<'a>,
        consumed: usize,
        close: bool,
    },
    /// Unrecoverable framing problem; connection must close.
    Bad(&'static str),
}

/// The one pass over a request: find the head, check every line, pick
/// out the framing headers, and slice the body — all borrowed from
/// `buf`.
fn parse_one(buf: &[u8]) -> Parsed<'_> {
    let head_end = match find_head_end(buf) {
        Some(i) if i <= MAX_HEAD => i,
        None if buf.len() <= MAX_HEAD => return Parsed::Partial,
        _ => return Parsed::Bad("header section too large"),
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Parsed::Bad("non-UTF-8 header section");
    };
    let (request_line, head) = head.split_once("\r\n").unwrap_or((head, ""));
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Parsed::Bad("malformed request line");
    };
    let mut content_length = None;
    let mut close = false;
    for line in head.split("\r\n").filter(|l| !l.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Bad("malformed header line");
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only: `usize::from_str` would also take "+5".
            let n = match value.parse::<usize>() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => return Parsed::Bad("bad content-length"),
            };
            // Two lengths that disagree mean two parties can disagree
            // on where this request ends.
            if content_length.is_some_and(|first| first != n) {
                return Parsed::Bad("conflicting content-length");
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Ignoring it would frame the body by content-length (or as
            // empty) and read the chunks as the next request.
            return Parsed::Bad("transfer-encoding not supported");
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Parsed::Bad("body too large");
    }
    let body_start = head_end + 4;
    let consumed = body_start + content_length;
    if buf.len() < consumed {
        return Parsed::Partial;
    }
    let req = HttpRequest {
        method,
        path,
        head,
        body: &buf[body_start..consumed],
    };
    Parsed::Done {
        req,
        consumed,
        close,
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// `(name, value)` of every header line, both trimmed, in arrival order.
fn header_lines(head: &str) -> impl Iterator<Item = (&str, &str)> {
    head.split("\r\n")
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim(), value.trim()))
}

// ---------------------------------------------------------- connection

/// A connection's buffers, reused from request to request.
#[derive(Default)]
struct ConnIo {
    /// Bytes read off the socket but not yet consumed as requests.
    inb: Vec<u8>,
    /// The response being written, head and body.
    out: Vec<u8>,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    /// Parked here while the epoll set owns the connection; the worker
    /// that is woken takes the buffers out and puts them back before it
    /// re-arms. The lock is never contended and never held while the
    /// handler or the socket can block — it is only how `ConnIo` passes
    /// from one exclusive owner to the next.
    io: Mutex<ConnIo>,
}

impl Conn {
    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

struct Shared {
    epoll: Epoll,
    wakeup: EventFd,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_token: AtomicU64,
    handler: Handler,
    stop: AtomicBool,
}

impl Shared {
    fn close(&self, conn: &Conn) {
        // Delete before dropping the map entry so no worker can ever
        // see a readiness event for a token that was just freed.
        let _ = self.epoll.delete(conn.fd());
        self.conns.lock().remove(&conn.token);
    }

    fn rearm(&self, conn: &Conn) {
        if self
            .epoll
            .modify(conn.fd(), EPOLLIN | EPOLLRDHUP | EPOLLONESHOT, conn.token)
            .is_err()
        {
            self.close(conn);
        }
    }
}

// -------------------------------------------------------------- server

/// A running HTTP server; dropping it (or calling [`shutdown`]) stops
/// the worker threads.
///
/// [`shutdown`]: HttpServer::shutdown
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// `workers` threads that accept and serve.
    pub fn bind(addr: &str, workers: usize, handler: Handler) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            epoll: Epoll::new()?,
            wakeup: EventFd::new()?,
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(TOKEN_FIRST_CONN),
            handler,
            stop: AtomicBool::new(false),
        });
        shared
            .epoll
            .add(listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER)?;
        shared
            .epoll
            .add(shared.wakeup.fd(), EPOLLIN, TOKEN_WAKEUP)?;

        let listener = Arc::new(listener);
        let threads = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                std::thread::Builder::new()
                    .name(format!("gw-http-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &listener))
                    .expect("spawn http worker")
            })
            .collect();
        Ok(HttpServer {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently-open client connections.
    pub fn open_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Stop accepting, close all connections, join all threads.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wakeup.signal();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.conns.lock().clear();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, listener: &TcpListener) {
    // One slot: see the module doc for why a worker takes one event.
    let mut event = [EpollEvent {
        events: 0,
        token: 0,
    }];
    let mut chunk = [0u8; READ_CHUNK];
    while !shared.stop.load(Ordering::SeqCst) {
        let token = match shared.epoll.wait(&mut event, -1) {
            Ok([e]) => e.token,
            Ok(_) => continue,
            Err(_) => return,
        };
        match token {
            // Left readable for the other workers.
            TOKEN_WAKEUP => return,
            TOKEN_LISTENER => accept_all(shared, listener),
            t => {
                let conn = shared.conns.lock().get(&t).cloned();
                if let Some(conn) = conn {
                    serve_conn(shared, &conn, &mut chunk);
                }
            }
        }
    }
}

/// Accept until `EAGAIN`, then re-arm the listener (a connect that
/// lands in between is reported by the re-arm).
fn accept_all(shared: &Shared, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
                let conn = Arc::new(Conn {
                    stream,
                    token,
                    io: Mutex::new(ConnIo::default()),
                });
                shared.conns.lock().insert(token, Arc::clone(&conn));
                if shared
                    .epoll
                    .add(conn.fd(), EPOLLIN | EPOLLRDHUP | EPOLLONESHOT, token)
                    .is_err()
                {
                    shared.conns.lock().remove(&token);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = shared
        .epoll
        .modify(listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER);
}

/// Move what the socket holds into `inb`; `true` once the peer has
/// closed (or the socket failed). A read shorter than `chunk` has
/// drained the socket, so no second `read` is spent on `EAGAIN` —
/// anything that lands later is reported by the level-triggered re-arm.
fn fill(mut stream: &TcpStream, inb: &mut Vec<u8>, chunk: &mut [u8]) -> bool {
    while inb.len() <= MAX_REQUEST {
        match stream.read(chunk) {
            Ok(0) => return true,
            Ok(n) => {
                inb.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    false
}

/// Runs on the worker that was woken for `conn`, which owns it until
/// it re-arms or closes: read, answer every complete request buffered
/// (pipelined ones included, in order), then hand the connection back
/// to the epoll set.
fn serve_conn(shared: &Shared, conn: &Conn, chunk: &mut [u8]) {
    let mut io = std::mem::take(&mut *conn.io.lock());
    let eof = fill(&conn.stream, &mut io.inb, chunk);
    let mut at = 0;
    let keep = loop {
        match parse_one(&io.inb[at..]) {
            Parsed::Done {
                req,
                consumed,
                close,
            } => {
                (shared.handler)(&req).render_into(!close, &mut io.out);
                at += consumed;
                if write_all_stall(&conn.stream, &io.out, WRITE_STALL).is_err() || close {
                    break false;
                }
            }
            Parsed::Partial => break !eof,
            Parsed::Bad(why) => {
                HttpResponse::text(400, format!("bad request: {why}\n"))
                    .render_into(false, &mut io.out);
                let _ = write_all_stall(&conn.stream, &io.out, WRITE_STALL);
                break false;
            }
        }
    };
    if !keep {
        shared.close(conn);
        return;
    }
    io.inb.drain(..at);
    if io.inb.is_empty() {
        io.inb.shrink_to(KEEP_BUF);
    }
    io.out.clear();
    io.out.shrink_to(KEEP_BUF);
    *conn.io.lock() = io;
    shared.rearm(conn);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            2,
            Arc::new(|req: &HttpRequest| {
                HttpResponse::json(200, format!("{{\"path\":\"{}\"}}", req.path))
            }),
        )
        .unwrap()
    }

    fn raw_roundtrip(addr: SocketAddr, req: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(req.as_bytes()).unwrap();
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_get_and_post() {
        let srv = echo_server();
        let out = raw_roundtrip(
            srv.addr(),
            "GET /health HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.ends_with("{\"path\":\"/health\"}"), "{out}");

        let body = r#"{"x":1}"#;
        let out = raw_roundtrip(
            srv.addr(),
            &format!(
                "POST /rpc HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(out.contains("\"path\":\"/rpc\""), "{out}");
    }

    #[test]
    fn keep_alive_serves_sequential_requests() {
        let srv = echo_server();
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for i in 0..3 {
            s.write_all(format!("GET /r{i} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            let mut buf = [0u8; 4096];
            let mut got = String::new();
            while !got.contains(&format!("/r{i}")) {
                let n = (&s).read(&mut buf).unwrap();
                assert!(n > 0, "server closed mid-keep-alive");
                got.push_str(&String::from_utf8_lossy(&buf[..n]));
            }
        }
    }

    #[test]
    fn pipelined_requests_all_answered() {
        let srv = echo_server();
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Two requests in one write; second asks to close so
        // read_to_string terminates.
        s.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.contains("/a") && out.contains("/b"), "{out}");
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let srv = echo_server();
        let out = raw_roundtrip(srv.addr(), "NOT-HTTP\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }

    #[test]
    fn shutdown_joins_threads() {
        let mut srv = echo_server();
        let addr = srv.addr();
        srv.shutdown();
        // Listener is gone: connecting now fails or is refused quickly.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    }

    // -------------------------------------------------- hostile framing

    /// Status codes of every response in `out`, in order.
    fn statuses(out: &str) -> Vec<&str> {
        out.match_indices("HTTP/1.1 ")
            .map(|(i, _)| &out[i + 9..i + 12])
            .collect()
    }

    #[test]
    fn chunked_body_is_refused_not_reparsed_as_a_request() {
        let srv = echo_server();
        // TE only: framed as an empty body, the chunk would be parsed
        // as the next request. CL + TE: the length swallows the chunk
        // size line and leaves a well-formed `GET /x` behind it.
        for framing in [
            "transfer-encoding: chunked\r\n",
            "content-length: 4\r\nTransfer-Encoding: chunked\r\n",
        ] {
            let out = raw_roundtrip(
                srv.addr(),
                &format!(
                    "POST /rpc HTTP/1.1\r\n{framing}\r\n13\r\nGET /x HTTP/1.1\r\n\r\n\r\n0\r\n\r\n"
                ),
            );
            assert_eq!(statuses(&out), ["400"], "{framing:?}: {out}");
            assert!(!out.contains("/x"), "{out}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_refused() {
        let srv = echo_server();
        let out = raw_roundtrip(
            srv.addr(),
            "POST /rpc HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 19\r\n\r\nGET /x HTTP/1.1\r\n\r\n",
        );
        assert_eq!(statuses(&out), ["400"], "{out}");
        // Repeating the same length is harmless, and "+5" is not a length.
        assert!(matches!(
            parse_one(b"POST / HTTP/1.1\r\ncontent-length: 2\r\nContent-Length: 2\r\n\r\nhi"),
            Parsed::Done { consumed: 59, .. }
        ));
        assert!(matches!(
            parse_one(b"POST / HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello"),
            Parsed::Bad(_)
        ));
    }

    #[test]
    fn headers_are_borrowed_and_matched_case_insensitively() {
        let raw = b"POST /rpc HTTP/1.1\r\nX-Api-Key:  k1 \r\nconnection: Close\r\ncontent-length: 2\r\n\r\nhi";
        let Parsed::Done {
            req,
            consumed,
            close,
        } = parse_one(raw)
        else {
            panic!("complete request did not parse");
        };
        assert_eq!(
            (req.method, req.path, req.body),
            ("POST", "/rpc", &b"hi"[..])
        );
        assert_eq!(req.header("x-api-key"), Some("k1"));
        assert_eq!(req.header("CONTENT-LENGTH"), Some("2"));
        assert_eq!(req.header("absent"), None);
        assert_eq!(header_lines(req.head).count(), 3);
        assert!(close);
        assert_eq!(consumed, raw.len());
        // Everything up to the last byte is "need more".
        assert!(matches!(parse_one(&raw[..raw.len() - 1]), Parsed::Partial));
    }

    // ------------------------------------------------------ the new loop

    /// Echoes the request body.
    fn body_echo_server(workers: usize) -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            workers,
            Arc::new(|req: &HttpRequest| HttpResponse::text(200, req.body)),
        )
        .unwrap()
    }

    /// Read one response off `s`; its body.
    fn read_response(s: &mut TcpStream) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(head_end) = find_head_end(&buf) {
                let head = std::str::from_utf8(&buf[..head_end]).unwrap();
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                let len: usize = header_lines(head)
                    .find(|(k, _)| *k == "content-length")
                    .and_then(|(_, v)| v.parse().ok())
                    .unwrap();
                if buf.len() >= head_end + 4 + len {
                    return buf[head_end + 4..head_end + 4 + len].to_vec();
                }
            }
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed mid-response");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn slow_reader_gets_a_large_body_whole() {
        let srv = body_echo_server(2);
        let body = pattern(3 * 1024 * 1024);
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(
            format!(
                "POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        s.write_all(&body).unwrap();
        // The response outgrows the socket buffers long before this
        // client reads a byte: the worker has to wait for room.
        std::thread::sleep(Duration::from_millis(300));
        assert!(read_response(&mut s) == body, "echoed body differs");
    }

    #[test]
    fn body_in_small_pieces_and_a_request_of_exactly_one_read() {
        let srv = body_echo_server(2);
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        // Every piece is a short read: the worker must re-arm and come
        // back rather than wait for EAGAIN or give up on the request.
        let body = pattern(100 * 1024);
        s.write_all(
            format!(
                "POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        for piece in body.chunks(3 * 1024) {
            s.write_all(piece).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(read_response(&mut s) == body, "echoed body differs");

        // The other edge: a full read is not proof of more, and the
        // read after it finds nothing.
        let head = "POST /echo HTTP/1.1\r\ncontent-length: 8000\r\nx-pad: ";
        let pad = READ_CHUNK - 8000 - head.len() - 4;
        let body = pattern(8000);
        let mut req = format!("{head}{}\r\n\r\n", "p".repeat(pad)).into_bytes();
        req.extend_from_slice(&body);
        assert_eq!(req.len(), READ_CHUNK);
        s.write_all(&req).unwrap();
        assert!(read_response(&mut s) == body, "echoed body differs");
    }

    #[test]
    fn parked_handlers_cost_one_worker_each_and_drop_nothing() {
        use crossbeam::channel::bounded;
        let (entered_tx, entered) = bounded::<()>(4);
        let (release, release_rx) = bounded::<()>(4);
        let srv = HttpServer::bind(
            "127.0.0.1:0",
            2,
            Arc::new(move |req: &HttpRequest| {
                if req.path == "/park" {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }
                HttpResponse::text(200, req.path)
            }),
        )
        .unwrap();
        let connect = || {
            let s = TcpStream::connect(srv.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        };
        let (mut a, mut b, mut c) = (connect(), connect(), connect());

        // A parks one worker; B is served by the other.
        a.write_all(b"GET /park HTTP/1.1\r\n\r\n").unwrap();
        b.write_all(b"GET /fast HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut b), b"/fast");
        entered.recv().unwrap();

        // Both parked: C's request waits in the epoll set.
        b.write_all(b"GET /park HTTP/1.1\r\n\r\n").unwrap();
        entered.recv().unwrap();
        c.write_all(b"GET /fast HTTP/1.1\r\n\r\n").unwrap();
        c.set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        let mut byte = [0u8; 1];
        let waited = c.read(&mut byte).unwrap_err().kind();
        assert!(
            matches!(waited, ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{waited:?}"
        );
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        // One worker back: C is answered, and so is whoever was let go.
        release.send(()).unwrap();
        assert_eq!(read_response(&mut c), b"/fast");
        release.send(()).unwrap();
        assert_eq!(read_response(&mut a), b"/park");
        assert_eq!(read_response(&mut b), b"/park");
    }
}
