//! A small HTTP/1.1 server: one session thread per connection, run by
//! [`tdp_sync::serve`] like every other daemon in the tree.
//!
//! * **The session thread owns its socket** for the connection's life.
//!   It blocks in `read`, answers every complete request buffered
//!   (pipelined ones included, in order) and reads again, so a request
//!   costs one `read` and one `send`, and no other thread ever touches
//!   the connection or its buffers.
//! * **What a parked handler costs.** Its own connection's thread, and
//!   nothing else: every other connection is read by a thread of its
//!   own.
//! * **A bound, not a pool.** At most [`MAX_SESSIONS`] connections are
//!   served at once; one beyond it is answered `503` and closed as soon
//!   as it is accepted, so a connection flood cannot become a thread
//!   flood. An idle keep-alive connection holds its parked thread until
//!   its peer closes: there is no idle timeout.
//! * **Shutdown** closes the listener, shuts down every registered
//!   connection (which ends its session's `read`) and returns once
//!   their sessions have ended.
//!
//! Scope: `POST` with `Content-Length` (JSON-RPC) and bare `GET`
//! (health probes). No chunked transfer (any `Transfer-Encoding` is
//! refused, so a body can never be re-read as a pipelined request), no
//! TLS, no idle timeout — the gateway fronts a lab network, and clients
//! are the bench harness, curl, and the example programs.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tdp_sync::serve::{serve, Server};
use tdp_sync::{Condvar, Mutex};
use tdp_wire::socket::{write_all_stall, TcpAccept};

/// Largest accepted head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted body in bytes.
const MAX_BODY: usize = 4 * 1024 * 1024;
/// One `read`'s worth.
const READ_CHUNK: usize = 8 * 1024;
/// Buffer capacity an idle connection may keep between requests; one
/// large request must not pin megabytes for the life of a keep-alive
/// connection.
const KEEP_BUF: usize = 64 * 1024;
/// How long a session waits, in total per response, for a stalled
/// client to make room before it drops the connection. The wait is a
/// `poll(2)` inside [`write_all_stall`], the write loop the wire
/// transport's senders use too.
const WRITE_STALL: Duration = Duration::from_secs(5);
/// Most connections served at once, each on a thread of its own.
#[cfg(not(test))]
const MAX_SESSIONS: usize = 512;
#[cfg(test)]
const MAX_SESSIONS: usize = 16;

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
            503 => "Service Unavailable",
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
/// per in-flight request, from session threads.
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

// ------------------------------------------------------------ sessions

/// The live connections: a `try_clone` of each session's stream, for
/// `shutdown` to sever. The only state sessions share.
#[derive(Default)]
struct Sessions {
    open: Mutex<Open>,
    /// `shutdown` waits here for `open.streams` to empty.
    ended: Condvar,
}

#[derive(Default)]
struct Open {
    streams: HashMap<u64, TcpStream>,
    next_token: u64,
    /// `shutdown` has begun: nothing more is registered.
    closed: bool,
}

/// A registered session. Dropping it frees the slot, whether the
/// session returned or its handler panicked.
struct Registered<'a> {
    sessions: &'a Sessions,
    token: u64,
}

impl Sessions {
    /// Register `stream`; `None` when the server is full or shutting
    /// down.
    fn enter(&self, stream: &TcpStream) -> Option<Registered<'_>> {
        let clone = stream.try_clone().ok()?;
        let mut open = self.open.lock();
        if open.closed || open.streams.len() >= MAX_SESSIONS {
            return None;
        }
        let token = open.next_token;
        open.next_token += 1;
        open.streams.insert(token, clone);
        Some(Registered {
            sessions: self,
            token,
        })
    }
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        let mut open = self.sessions.open.lock();
        open.streams.remove(&self.token);
        if open.streams.is_empty() {
            self.sessions.ended.notify_all();
        }
    }
}

/// One connection, on its own session thread: read, answer every
/// complete request buffered, read again — until the peer closes or
/// asks to, a write fails, or the framing is bad. `inb` stays bounded
/// without a check of its own: [`parse_one`] says "need more" only
/// while a request of at most `MAX_HEAD + 4 + MAX_BODY` bytes is still
/// incomplete.
fn session(sessions: &Sessions, handler: &Handler, stream: TcpStream) {
    let mut out = Vec::new();
    let Some(_registered) = sessions.enter(&stream) else {
        return send_last(&stream, HttpResponse::text(503, "busy\n"), &mut out);
    };
    let _ = stream.set_nodelay(true);
    let mut inb = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match (&stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => inb.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let mut at = 0;
        loop {
            match parse_one(&inb[at..]) {
                Parsed::Done {
                    req,
                    consumed,
                    close,
                } => {
                    handler(&req).render_into(!close, &mut out);
                    at += consumed;
                    if write_all_stall(&stream, &out, WRITE_STALL).is_err() || close {
                        return;
                    }
                }
                Parsed::Partial => break,
                Parsed::Bad(why) => {
                    let resp = HttpResponse::text(400, format!("bad request: {why}\n"));
                    return send_last(&stream, resp, &mut out);
                }
            }
        }
        inb.drain(..at);
        if inb.is_empty() {
            inb.shrink_to(KEEP_BUF);
        }
        out.clear();
        out.shrink_to(KEEP_BUF);
    }
}

/// Write `resp` with `connection: close`; the caller then drops the
/// connection.
fn send_last(stream: &TcpStream, resp: HttpResponse, out: &mut Vec<u8>) {
    resp.render_into(false, out);
    let _ = write_all_stall(stream, out, WRITE_STALL);
}

// -------------------------------------------------------------- server

/// A running HTTP server; dropping it (or calling [`shutdown`]) stops
/// it.
///
/// [`shutdown`]: HttpServer::shutdown
pub struct HttpServer {
    addr: SocketAddr,
    server: Server,
    sessions: Arc<Sessions>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve each
    /// connection on a session thread of its own.
    pub fn bind(addr: &str, handler: Handler) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let listener = TcpAccept::new(listener).map_err(std::io::Error::other)?;
        let sessions = Arc::new(Sessions::default());
        let shared = Arc::clone(&sessions);
        let server = serve("gw-http", listener, move |stream| {
            session(&shared, &handler, stream)
        })?;
        Ok(HttpServer {
            addr,
            server,
            sessions,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently-open client connections.
    pub fn open_connections(&self) -> usize {
        self.sessions.open.lock().streams.len()
    }

    /// Stop accepting, shut every connection down, and return once
    /// their sessions have ended. A session parked in its handler ends
    /// when the handler returns.
    pub fn shutdown(&mut self) {
        self.server.close();
        let mut open = self.sessions.open.lock();
        open.closed = true;
        for stream in open.streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.sessions
            .ended
            .wait_while_for(&mut open, |o| !o.streams.is_empty(), Duration::MAX);
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
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
    fn body_echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
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
        let srv = body_echo_server();
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
        // client reads a byte: the session has to wait for room.
        std::thread::sleep(Duration::from_millis(300));
        assert!(read_response(&mut s) == body, "echoed body differs");
    }

    #[test]
    fn body_in_small_pieces_and_a_request_of_exactly_one_read() {
        let srv = body_echo_server();
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        // Every piece is a short read: the session must read again
        // rather than give up on the request.
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
    fn parked_handlers_cost_one_session_each_and_drop_nothing() {
        use tdp_sync::channel::bounded;
        // Ten: more than a fixed pool of 8 threads could park.
        const PARKED: usize = 10;
        let (entered_tx, entered) = bounded::<()>(PARKED);
        let (release, release_rx) = bounded::<()>(PARKED);
        let srv = HttpServer::bind(
            "127.0.0.1:0",
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
        let mut parked: Vec<TcpStream> = (0..PARKED)
            .map(|_| {
                let mut s = connect();
                s.write_all(b"GET /park HTTP/1.1\r\n\r\n").unwrap();
                s
            })
            .collect();
        for _ in 0..PARKED {
            entered.recv_timeout(Duration::from_secs(10)).unwrap();
        }

        // All ten parked: an eleventh connection is answered at once.
        let mut fast = connect();
        fast.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        fast.write_all(b"GET /fast HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut fast), b"/fast");

        // Released, every parked request is answered.
        for _ in 0..PARKED {
            release.send(()).unwrap();
        }
        for s in &mut parked {
            assert_eq!(read_response(s), b"/park");
        }
    }

    /// Poll until `srv` holds `n` connections; false after 5 s.
    fn settles_at(srv: &HttpServer, n: usize) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while srv.open_connections() != n {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    #[test]
    fn a_panicking_handler_costs_only_its_own_connection() {
        let srv = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(|req: &HttpRequest| {
                if req.path == "/panic" {
                    panic!("the handler panics on /panic");
                }
                HttpResponse::text(200, req.path)
            }),
        )
        .unwrap();
        // Two panics: enough to stop a server of two threads in all.
        for _ in 0..2 {
            let out = raw_roundtrip(srv.addr(), "GET /panic HTTP/1.1\r\n\r\n");
            assert_eq!(out, "", "a panicked session answers nothing");
        }
        assert!(settles_at(&srv, 0), "a panicked session kept its slot");
        let out = raw_roundtrip(
            srv.addr(),
            "GET /next HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.ends_with("/next"), "{out}");
    }

    #[test]
    fn a_connection_over_the_bound_gets_503_and_a_close() {
        let srv = echo_server();
        let mut held: Vec<TcpStream> = (0..MAX_SESSIONS)
            .map(|i| {
                let mut s = TcpStream::connect(srv.addr()).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                s.write_all(format!("GET /held{i} HTTP/1.1\r\n\r\n").as_bytes())
                    .unwrap();
                read_response(&mut s);
                s
            })
            .collect();
        assert_eq!(srv.open_connections(), MAX_SESSIONS);

        // Refused as it is accepted, before a request is read: the
        // client reads the 503 and then EOF.
        let mut over = TcpStream::connect(srv.addr()).unwrap();
        over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        over.read_to_string(&mut out).unwrap();
        assert!(
            out.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{out}"
        );
        assert!(out.contains("\r\nconnection: close\r\n"), "{out}");

        // The bound counts live connections: one closed, one served.
        drop(held.pop());
        assert!(settles_at(&srv, MAX_SESSIONS - 1));
        let out = raw_roundtrip(
            srv.addr(),
            "GET /again HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
    }
}
