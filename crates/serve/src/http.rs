//! A minimal HTTP/1.1 server layer on `std::net` — just enough protocol
//! for the campaign service, with no external dependencies.
//!
//! [`read_request`] parses a request head plus `Content-Length`-framed
//! body off a [`TcpStream`] under hard size limits (network input is
//! untrusted); [`Response::write_to`] emits a well-formed
//! `Connection: close` response. The one client of this protocol is
//! `chunkpoint_shard::exchange`, which adds whole-exchange deadlines,
//! response size caps and typed errors.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request/response body. Campaign specs are small;
/// reports of big grids are not, so the ceiling is generous.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Per-connection socket timeout: a stalled peer cannot pin a handler
/// thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Deadline for the **whole** request head. Re-armed before every read
/// with what is left, so a slow-loris peer dribbling one header byte
/// per (almost-)timeout cannot stretch the head read indefinitely —
/// the failure mode a flat per-syscall timeout leaves open.
const HEAD_DEADLINE: Duration = Duration::from_secs(10);
/// Deadline for the whole request body, same re-arming discipline.
const BODY_DEADLINE: Duration = Duration::from_secs(30);

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path component of the request target (query strings are not used
    /// by this service and are kept attached).
    pub path: String,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// One HTTP response; `application/json` unless built with
/// [`Response::text`] (the `/metrics` exposition endpoint).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Seconds for a `Retry-After` header — set on 429s by admission
    /// control so shedding tells clients *when*, not just *no*.
    pub retry_after: Option<u64>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response from a rendered document.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            retry_after: None,
            content_type: "application/json",
        }
    }

    /// A plain-text response — the Prometheus exposition content type,
    /// which scrapers accept for the text format.
    #[must_use]
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            retry_after: None,
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// A JSON error envelope: `{"error": message}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let body = chunkpoint_campaign::JsonValue::object()
            .field("error", message)
            .render();
        Self::json(status, body)
    }

    /// Attaches a `Retry-After: seconds` header.
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Serializes the response onto `stream` (HTTP/1.1, connection
    /// closed after the exchange — one request per connection keeps the
    /// server trivially correct under slow or misbehaving peers).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let retry_after = self
            .retry_after
            .map(|seconds| format!("Retry-After: {seconds}\r\n"))
            .unwrap_or_default();
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{retry_after}Connection: close\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Canonical reason phrases for the handful of statuses the service uses.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// What is left of `deadline`, or `None` once it is spent.
fn remaining(deadline: Instant) -> Option<Duration> {
    let now = Instant::now();
    (now < deadline).then(|| deadline - now)
}

/// Reads and parses one request off `stream`.
///
/// Returns `Ok(Err(response))` for protocol violations the caller should
/// answer with (oversized head/body, missing framing, bad request line,
/// a head or body dribbled past its deadline — answered with a `408`)
/// and `Err(_)` only for socket-level failures.
///
/// The head and body each get a **whole-phase deadline**
/// (10 s for the head, 30 s for the body), re-armed before every read
/// with what is left — a slow-loris peer trickling one byte per
/// near-timeout interval is dropped at the deadline instead of pinning
/// a handler thread for as long as it cares to dribble.
///
/// # Errors
///
/// Propagates socket read errors and timeouts.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Result<Request, Response>> {
    read_request_within(stream, HEAD_DEADLINE, BODY_DEADLINE)
}

/// [`read_request`] with caller-chosen head/body deadlines — the seam
/// the slow-loris tests drive with tight deadlines so they finish in
/// milliseconds, not tens of seconds.
pub fn read_request_within(
    stream: &mut TcpStream,
    head_timeout: Duration,
    body_timeout: Duration,
) -> std::io::Result<Result<Request, Response>> {
    let timed_out = || Response::error(408, "request not completed before the read deadline");
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Head phase: raw chunked reads until the blank line, re-arming the
    // socket timeout with what is left of the head deadline before each
    // read — the deadline bounds the *phase*, not each syscall, so a
    // peer dribbling one byte per near-timeout interval (with or
    // without newlines) is dropped at the deadline. Memory stays
    // bounded by MAX_HEAD_BYTES: no terminator within the cap is a 413.
    let head_deadline = Instant::now() + head_timeout;
    let mut buffered: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 2 * 1024];
    let (head_len, body_start) = loop {
        if let Some(bounds) = find_head_end(&buffered) {
            break bounds;
        }
        if buffered.len() >= MAX_HEAD_BYTES {
            return Ok(Err(Response::error(413, "request head too large")));
        }
        let Some(left) = remaining(head_deadline) else {
            return Ok(Err(timed_out()));
        };
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(Err(Response::error(400, "connection closed mid-request"))),
            Ok(read) => buffered.extend_from_slice(&chunk[..read]),
            Err(e) if is_timeout(&e) => return Ok(Err(timed_out())),
            Err(e) => return Err(e),
        }
    };
    let head = String::from_utf8_lossy(&buffered[..head_len]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_ascii_uppercase(), p.to_owned(), v)
        }
        _ => return Ok(Err(Response::error(400, "malformed request line"))),
    };
    let _ = version;
    let mut content_length: usize = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => return Ok(Err(Response::error(400, "bad Content-Length"))),
                };
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(Response::error(413, "request body too large")));
    }
    // Body phase: whatever arrived behind the head seeds the body, the
    // rest reads incrementally under its own whole-phase deadline.
    // Memory grows with bytes actually received, so a peer declaring a
    // huge Content-Length and stalling costs this thread a deadline,
    // not a 64 MB allocation.
    let mut body = buffered[body_start..].to_vec();
    body.truncate(content_length); // ignore pipelined bytes past the frame
    let body_deadline = Instant::now() + body_timeout;
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let Some(left) = remaining(body_deadline) else {
            return Ok(Err(timed_out()));
        };
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return Ok(Err(Response::error(
                    400,
                    "body shorter than Content-Length",
                )))
            }
            Ok(read) => body.extend_from_slice(&chunk[..read]),
            Err(e) if is_timeout(&e) => return Ok(Err(timed_out())),
            Err(e) => return Err(e),
        }
    }
    let body = match String::from_utf8(body) {
        Ok(s) => s,
        Err(_) => return Ok(Err(Response::error(400, "body is not UTF-8"))),
    };
    Ok(Ok(Request { method, path, body }))
}

/// Whether an I/O error is a read-timeout expiry (platform-dependent
/// kind: `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Finds the head/body boundary: `(head_len, body_start)` around the
/// first blank line (`\r\n\r\n`, tolerating bare `\n\n`).
fn find_head_end(buffered: &[u8]) -> Option<(usize, usize)> {
    let crlf = buffered.windows(4).position(|w| w == b"\r\n\r\n");
    let lf = buffered.windows(2).position(|w| w == b"\n\n");
    match (crlf, lf) {
        (Some(c), Some(l)) if l + 1 < c => Some((l, l + 2)),
        (Some(c), _) => Some((c, c + 4)),
        (None, Some(l)) => Some((l, l + 2)),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// One-shot echo server: accepts a single connection, parses the
    /// request, responds with a JSON summary of what it saw.
    fn spawn_one_shot() -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let response = match read_request(&mut stream).expect("read") {
                Ok(request) => Response::json(
                    200,
                    chunkpoint_campaign::JsonValue::object()
                        .field("method", request.method.as_str())
                        .field("path", request.path.as_str())
                        .field("body", request.body.as_str())
                        .render(),
                ),
                Err(error) => error,
            };
            response.write_to(&mut stream).expect("write");
        });
        addr
    }

    #[test]
    fn client_and_server_round_trip() {
        let addr = spawn_one_shot().to_string();
        let (status, body) = chunkpoint_shard::exchange(
            &addr,
            "POST",
            "/campaigns",
            Some("{\"x\":1}"),
            Duration::from_secs(30),
        )
        .expect("round trip");
        assert_eq!(status, 200);
        let doc = chunkpoint_campaign::JsonValue::parse(&body).expect("json body");
        assert_eq!(doc.get("method").unwrap().as_str(), Some("POST"));
        assert_eq!(doc.get("path").unwrap().as_str(), Some("/campaigns"));
        assert_eq!(doc.get("body").unwrap().as_str(), Some("{\"x\":1}"));
    }

    #[test]
    fn malformed_requests_get_400s() {
        let addr = spawn_one_shot();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"NONSENSE\r\n\r\n").expect("send garbage");
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .expect("read response");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    }
}
